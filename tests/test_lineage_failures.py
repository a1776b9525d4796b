"""Failed units are recorded in lineage and excluded from output —
the reference's mark-failed-and-continue semantics (cli.py:239-244,
queue_store.py:160-170) as metrics rows."""

from __future__ import annotations

import json

import pandas as pd

import ray.data as rd

from ocr_agent_ray.cli import main
from ocr_agent_ray.pipelines.dedup import ngram_jaccard_all_pairs
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.postprocess import GroundingExtractStage
from ocr_agent_ray.state.checkpoint import CheckpointStore


def test_failed_units_recorded_and_excluded(ray_session, tmp_path, capsys):
    # defined inside the test: cloudpickle must serialize the class by
    # VALUE (module-level test classes pickle by reference, and Ray worker
    # processes cannot import the tests package -> actor restart loop)
    class _FlakyEngine:
        def infer_batch(self, refs, pages):
            out = []
            for r in refs:
                if "file0.pdf" in r:
                    raise RuntimeError(f"model choked on {r}")
                out.append(f"ok {r}")
            return out

    out_dir = str(tmp_path / "ck")
    corpus = generate_documents(40, seed=42)
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir,
                             engine_factory=_FlakyEngine)
    store = CheckpointStore(out_dir)
    metrics = store.load_metrics().to_pylist()
    failed = [m for m in metrics if m["status"] == "failed"]
    assert failed
    assert all("model choked" in m["error_message"] for m in failed)
    assert all(m["stage"] == "ocr" for m in failed)
    # groupby(status).count() works over the lineage table (ref G1)
    statuses = {m["status"] for m in metrics}
    assert statuses == {"completed", "failed"}
    # `cli status` names the error of the failed row with the highest
    # partition_id, the last loaded one on a tie (ref G6)
    top = max(m["partition_id"] for m in failed)
    want = [m["error_message"] for m in failed if m["partition_id"] == top][-1]
    assert main(["status", "--out", out_dir]) == 0
    assert json.loads(capsys.readouterr().out)["last_error"] == want
    # no failed text leaked into committed spans
    for row in store.read_output().take_all():
        for s in row["spans"]:
            assert "choked" not in s["text"]
            if s["kind"] == "pdf_page":
                assert "file0.pdf" not in s["media_ref"]


def test_grounding_extract_stage(ray_session):
    import pyarrow as pa

    batch = pa.table({
        "text": [
            "<|ref|>title<|/ref|><|det|>[[1,2,3,4]]<|/det|> Hello",
            "no tokens here",
        ],
    })
    out = GroundingExtractStage()(batch)
    dets = out["detections"].to_pylist()
    assert dets[0] == [{"ref_type": "title", "x1": 1, "y1": 2, "x2": 3, "y2": 4}]
    assert dets[1] == []


def test_ngram_jaccard_planted(ray_session):
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon") * 2
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base.replace("sigma", "SIGMA2")},
            {"doc_id": 3, "text": "totally different words entirely here now"}]
    out = ngram_jaccard_all_pairs(rd.from_pandas(pd.DataFrame(rows)),
                                  threshold=0.4)
    got = out.to_pandas()
    pairs = set(zip(got["doc_id_a"], got["doc_id_b"]))
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)

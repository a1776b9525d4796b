"""Tests of the benchmark's own parts. No Ray cluster is started.

    python3 -m pytest extract_bench -q
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import pyarrow as pa
import pytest

from extract_bench import gate, workloads
from extract_bench.engine import StandInOcrEngine
from extract_bench.run import Bench, RunStalled, call_with_deadline, print_result, summarize
from extract_bench.trace import Tracer
from ocr_agent_ray.oracle import oracle_extract
from ocr_agent_ray.schema import ASSEMBLED_SCHEMA, MEDIA_KINDS
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
from ocr_agent_ray.state.checkpoint import CheckpointStore


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.make_documents(workload, seed=3, num_docs=60)
    b = workloads.make_documents(workload, seed=3, num_docs=60)
    c = workloads.make_documents(workload, seed=4, num_docs=60)
    assert a.equals(b)
    assert not a.equals(c)
    assert len(a) == 60


def test_ocr_mix_fills_every_stratum_to_its_quota():
    docs = workloads.make_documents("ocr_bound", seed=5, num_docs=200)
    ids = docs["doc_id"].to_pylist()
    counts = Counter(workloads.stratum(d, n) for d, n in zip(ids, workloads.units_per_doc(docs)))
    for size_class, quota in enumerate(workloads.size_quotas(200)):
        assert counts[size_class, 1] == quota // 2
        assert counts[size_class, 0] == quota - quota // 2
    assert sum(counts.values()) == 200
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_text_heavy_is_the_generator_without_media():
    text = workloads.make_documents("text_heavy", seed=6, num_docs=50).to_pylist()
    full = generate_documents(50, seed=6).to_pylist()
    for t, f in zip(text, full):
        kept = [(s["kind"], s["text"]) for s in f["spans"] if s["kind"] not in MEDIA_KINDS]
        assert [(s["kind"], s["text"]) for s in t["spans"]] == kept
        assert [s["offset"] for s in t["spans"]] == list(range(len(kept)))


def test_kind_shares_match_workload_definitions():
    for workload in ("ocr_bound", "resume_half"):
        counts = workloads.kind_counts(workloads.make_documents(workload, seed=1))
        media = workloads.media_units(workloads.make_documents(workload, seed=1))
        # the default corpus mix: about three quarters media units
        assert 0.65 <= media / sum(counts.values()) <= 0.85
        assert counts["pdf_page"] > counts["image"] > 0
        assert counts["text"] > 0 and counts["html"] > 0
    text = workloads.make_documents("text_heavy", seed=1)
    counts = workloads.kind_counts(text)
    assert workloads.media_units(text) == 0
    assert (counts["text"] + counts["html"]) / sum(counts.values()) >= 0.9
    assert counts["html"] > 0


def test_resume_half_reads_the_ocr_bound_corpus():
    assert workloads.make_documents("resume_half", seed=2, num_docs=500).equals(
        workloads.make_documents("ocr_bound", seed=2, num_docs=500))


def test_stand_in_engine_matches_mock_engine():
    docs = workloads.make_documents("ocr_bound", seed=7, num_docs=400)
    spans = [s for d in docs["spans"].to_pylist() for s in d if s["media_ref"]]
    refs = [s["media_ref"] for s in spans]
    pages = list(range(len(refs)))
    assert refs
    assert (StandInOcrEngine(page_ms=0.01).infer_batch(refs, pages)
            == MockOcrEngine().infer_batch(refs, pages))


def _commit_golden(golden: dict, out_dir: str) -> None:
    """Commit the oracle's output as one partition, like the pipeline."""
    rows = [{"doc_id": d, "spans": spans} for d, spans in golden.items() if spans]
    CheckpointStore(out_dir).initialize().write_partition(
        0, pa.Table.from_pylist(rows, schema=ASSEMBLED_SCHEMA), [])


def test_gate_accepts_golden_and_rejects_one_span_perturbation(tmp_path):
    docs = workloads.make_documents("ocr_bound", seed=11, num_docs=300)
    golden = oracle_extract(docs.to_pylist(), MockOcrEngine())
    expected = gate.golden_digest(golden)

    _commit_golden(golden, str(tmp_path / "ok"))
    assert gate.committed_digest(str(tmp_path / "ok")) == expected

    doc_id = next(d for d, spans in golden.items() if len(spans) > 2)
    golden[doc_id][1] = {**golden[doc_id][1], "text": golden[doc_id][1]["text"] + " "}
    _commit_golden(golden, str(tmp_path / "bad"))
    assert gate.committed_digest(str(tmp_path / "bad")) != expected


def test_gate_rejects_spans_out_of_list_order(tmp_path):
    docs = workloads.make_documents("text_heavy", seed=4, num_docs=50)
    golden = oracle_extract(docs.to_pylist(), MockOcrEngine())
    expected = gate.golden_digest(golden)
    doc_id = next(d for d, spans in golden.items() if len(spans) > 1)
    golden[doc_id] = golden[doc_id][::-1]
    _commit_golden(golden, str(tmp_path))
    assert gate.committed_digest(str(tmp_path)) != expected


def test_gate_rejects_a_document_committed_twice(tmp_path):
    docs = workloads.make_documents("text_heavy", seed=2, num_docs=100)
    golden = oracle_extract(docs.to_pylist(), MockOcrEngine())
    _commit_golden(golden, str(tmp_path))
    store = CheckpointStore(str(tmp_path))
    first = gate.read_committed(str(tmp_path)).slice(0, 1)
    store.write_partition(1, first, [])
    assert gate.committed_digest(str(tmp_path)) != gate.golden_digest(golden)


def test_a_committed_marker_without_data_fails_the_benchmark(tmp_path, capsys):
    docs = workloads.make_documents("text_heavy", seed=2, num_docs=20)
    golden = oracle_extract(docs.to_pylist(), MockOcrEngine())
    bench = Bench("text_heavy", 2, str(tmp_path))
    bench.docs, bench.golden = docs, gate.golden_digest(golden)

    def run_once(out_dir, **_):
        start = time.time()
        _commit_golden(golden, out_dir)
        os.remove(CheckpointStore(out_dir).data_path(0))
        return bench.check(out_dir, start, 0.1)

    bench.run_once = run_once
    bench.measure(0.0, time.perf_counter())
    assert (bench.attempted, bench.failed, bench.runs) == (1, 1, [])
    assert print_result(bench, {}, trace=False) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 1, 1)


def test_deadline_abandons_a_stalled_call():
    t0 = time.perf_counter()
    with pytest.raises(RunStalled):
        call_with_deadline(lambda: time.sleep(5), 0.2)
    assert time.perf_counter() - t0 < 2
    assert call_with_deadline(lambda: 7, 1.0) == 7
    with pytest.raises(ZeroDivisionError):
        call_with_deadline(lambda: 1 / 0, 1.0)


def test_summarize_reports_a_percentile_only_with_ten_samples_beyond_it():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "p_level": None,
                                          "p": None, "values": [3.0, 1.0, 2.0]}
    s = summarize([float(i) for i in range(20)])
    assert s["p_level"] == 50 and s["n"] == 20


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    selfs = tracer.self_times()
    assert selfs["outer"] == pytest.approx(0.02, abs=0.015)
    assert selfs["inner"] == pytest.approx(tracer.total("inner"))
    assert tracer.total("outer", minus={"inner"}) == pytest.approx(selfs["outer"])
    assert {s["run_id"] for s in tracer.spans} == {tracer.run_id}
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]

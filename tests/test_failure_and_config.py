"""Failure isolation, config plumbing, idempotent commits, skew path."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

import ray.data as rd

from ocr_agent_ray.config import (
    OcrModelSettings,
    PipelineSettings,
    PostProcessSettings,
)
from ocr_agent_ray.oracle import oracle_extract
from ocr_agent_ray.pipelines.extract import build_extract_pipeline
from ocr_agent_ray.schema import WORK_UNITS_SCHEMA
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.assemble import assemble_group
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine, OcrStage
from ocr_agent_ray.stages.postprocess import FinalizeStage


def _units_batch():
    docs = generate_documents(10, seed=3)
    return fan_out_documents(docs, num_partitions=4)


class _RowFailEngine:
    """Succeeds batch-wide except specific refs -> exercises per-row path."""

    def infer_batch(self, refs, pages):
        if any("img1" in r for r in refs) and len(refs) > 1:
            raise RuntimeError("batch poisoned")
        out = []
        for r in refs:
            if "img1" in r:
                raise RuntimeError(f"row fail {r}")
            out.append(f"text for {r}")
        return out


def test_ocr_stage_per_row_isolation():
    batch = _units_batch()
    out = OcrStage(engine_factory=_RowFailEngine)(batch)
    rows = out.to_pylist()
    failed = [r for r in rows if r["error_message"]]
    media = [r for r in rows if r["kind"] in ("image", "pdf_page")]
    assert failed  # some img1 rows exist in 10 docs
    for r in failed:
        assert r["text"] == ""          # poison pill: empty, recorded
        assert "row fail" in r["error_message"]
    ok = [r for r in media if not r["error_message"]]
    assert all(r["text"].startswith("text for ") for r in ok)


def test_ocr_stage_fail_fast_raises():
    batch = _units_batch()
    with pytest.raises(RuntimeError):
        OcrStage(engine_factory=_RowFailEngine, fail_fast=True)(batch)


def test_systemic_failure_cap_aborts():
    class _AllFailEngine:
        def infer_batch(self, refs, pages):
            raise RuntimeError("dead engine")

    batch = _units_batch()
    stage = OcrStage(engine_factory=_AllFailEngine, min_rows_for_error_cap=10)
    with pytest.raises(RuntimeError, match="failing systemically"):
        stage(batch)
    # sparse failures stay below the cap and flow through as poison pills
    sparse = OcrStage(engine_factory=_RowFailEngine, min_rows_for_error_cap=10)
    out = sparse(batch)
    assert any(out["error_message"].to_pylist())


def test_latex_style_end_to_end(ray_session):
    """math_style='latex' disables conversion through the whole pipeline
    (reference config.py:110-122 toggle)."""
    corpus = generate_documents(60, seed=42)
    golden = oracle_extract(corpus.to_pylist(), MockOcrEngine(), math_style="latex")
    out = build_extract_pipeline(
        rd.from_arrow(corpus), post=PostProcessSettings(math_delimiter_style="latex")
    ).take_all()
    got = {r["doc_id"]: r["spans"] for r in out}
    for did, g in golden.items():
        if not g:
            continue
        assert [(s["kind"], s["text"]) for s in got[did]] == \
            [(s["kind"], s["text"]) for s in g]


def test_balance_blocks_path_matches_oracle(ray_session):
    """The skew-leveling repartition changes execution shape, never data."""
    corpus = generate_documents(80, seed=42)
    golden = oracle_extract(corpus.to_pylist(), MockOcrEngine())
    out = build_extract_pipeline(
        rd.from_arrow(corpus),
        settings=PipelineSettings(balance_blocks=8, num_partitions=16),
    ).take_all()
    got = {r["doc_id"]: r["spans"] for r in out}
    nonempty = {d: v for d, v in golden.items() if v}
    assert set(got) == set(nonempty)
    for did, g in nonempty.items():
        assert [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in got[did]] == \
            [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in g]


def test_partition_commit_idempotent(tmp_path):
    """A retried run rewrites identical bytes (atomic overwrite)."""
    from ocr_agent_ray.state.checkpoint import CheckpointStore, PartitionWriter

    out = str(tmp_path / "ck")
    store = CheckpointStore(out).initialize()
    units = _units_batch()
    finalized = FinalizeStage()(OcrStage()(units))
    group = finalized.filter(
        pa.compute.equal(finalized["partition_id"], pa.scalar(1, pa.int32()))
    )
    rows = assemble_group(group, tag_partition=True)

    def commit():
        with PartitionWriter(store) as writer:
            writer.write(rows)
            assert writer.commit() == [1]

    commit()
    first = open(store.data_path(1), "rb").read()
    commit()  # simulated retry
    second = open(store.data_path(1), "rb").read()
    assert first == second
    assert not [f for f in os.listdir(os.path.join(out, "data")) if f.endswith(".tmp")]


def test_settings_from_environment(monkeypatch):
    monkeypatch.setenv("OCR_AGENT_PROMPT", "line1\\nline2")
    monkeypatch.setenv("OCR_AGENT_BASE_SIZE", "512")
    monkeypatch.setenv("OCR_AGENT_CROP_MODE", "0")
    s = OcrModelSettings.from_environment()
    assert s.prompt == "line1\nline2"
    assert s.base_size_pixels == 512
    assert s.crop_mode is False

    monkeypatch.setenv("OCR_AGENT_MATH_DELIMITER_STYLE", "latex")
    assert PostProcessSettings.from_environment().math_delimiter_style == "latex"
    monkeypatch.setenv("OCR_AGENT_MATH_DELIMITER_STYLE", "bogus")
    assert PostProcessSettings.from_environment().math_delimiter_style == "dollar"


def test_fanout_schema_validation():
    from ocr_agent_ray.schema import validate_schema

    batch = _units_batch()
    validate_schema(batch, WORK_UNITS_SCHEMA, "fanout")  # no raise
    with pytest.raises(ValueError):
        validate_schema(batch.drop_columns(["offset"]), WORK_UNITS_SCHEMA, "x")

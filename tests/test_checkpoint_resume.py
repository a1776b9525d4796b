"""Exact-resume semantics: atomic partition commits, no double processing."""

from __future__ import annotations

import json
import os

import ray.data as rd

from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.oracle import oracle_extract
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
from ocr_agent_ray.state.checkpoint import CheckpointStore

SETTINGS = PipelineSettings(num_partitions=16, ocr_concurrency=2)


def _span_tuples(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def test_resume_skips_committed_partitions(ray_session, tmp_path):
    corpus = generate_documents(120, seed=42)
    out_dir = str(tmp_path / "ckpt")
    store = CheckpointStore(out_dir).initialize()

    # Phase 1: simulate a run killed mid-way — only partitions 0..7 stay
    # committed (a run commits every partition at its end).
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)
    store.reset_partitions(range(8, 16))
    first_committed = store.committed_ids()
    assert first_committed and first_committed <= set(range(8))
    stamps = {
        pid: os.path.getmtime(store.data_path(pid)) for pid in first_committed
    }

    # Phase 2: resume. Committed partitions must not be reprocessed.
    summary = run_extract_checkpointed(
        rd.from_arrow(corpus), out_dir, settings=SETTINGS
    )
    assert summary["partitions_committed_before"] == len(first_committed)
    after = store.committed_ids()
    assert after >= first_committed
    for pid in first_committed:  # data files untouched byte-for-byte
        assert os.path.getmtime(store.data_path(pid)) == stamps[pid]

    # Full output equals the oracle — resume introduced no gaps or dupes.
    golden = oracle_extract(corpus.to_pylist(), MockOcrEngine())
    got = {
        r["doc_id"]: r["spans"] for r in store.read_output().take_all()
    }
    nonempty = {d: v for d, v in golden.items() if v}
    assert set(got) == set(nonempty)
    for did, g in nonempty.items():
        assert _span_tuples(got[did]) == _span_tuples(g)

    # Lineage: exactly one 'assemble' metrics row per committed partition.
    metrics = store.load_metrics().to_pylist()
    per_pid = {}
    for m in metrics:
        if m["stage"] == "assemble":
            per_pid[m["partition_id"]] = per_pid.get(m["partition_id"], 0) + 1
    assert set(per_pid) == after
    assert all(v == 1 for v in per_pid.values())

    # Idempotent third run: nothing left to do.
    summary2 = run_extract_checkpointed(
        rd.from_arrow(corpus), out_dir, settings=SETTINGS
    )
    assert summary2["partitions_processed"] == 0
    assert summary2["docs_assembled_this_run"] == 0


def test_reset_partition_reprocesses(ray_session, tmp_path):
    """The reference's `reset` semantics: un-commit -> next run redoes
    exactly that partition, others untouched."""
    corpus = generate_documents(80, seed=13)
    out_dir = str(tmp_path / "ckpt_reset")
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)
    store = CheckpointStore(out_dir)
    all_ids = store.committed_ids()
    victim = sorted(all_ids)[0]
    before = {p: os.path.getmtime(store.data_path(p)) for p in all_ids}

    assert store.reset_partition(victim) is True
    assert store.reset_partition(victim) is False  # idempotent
    assert victim not in store.committed_ids()

    summary = run_extract_checkpointed(rd.from_arrow(corpus), out_dir,
                                       settings=SETTINGS)
    assert summary["partitions_processed"] == 1
    assert store.committed_ids() == all_ids
    for p in all_ids - {victim}:
        assert os.path.getmtime(store.data_path(p)) == before[p]


def test_reset_drops_spool_rows(ray_session, tmp_path):
    """Reset + resume counts every unit's OCR metrics once: the reset
    partitions' spool rows go with their marker, and the rerun adds them
    back."""
    from ocr_agent_ray.stages.fanout import fan_out_documents

    corpus = generate_documents(80, seed=21)
    out_dir = str(tmp_path / "ckpt_spool")
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)
    store = CheckpointStore(out_dir)
    victims = sorted(store.committed_ids())[::3]
    assert store.reset_partitions(victims + [999]) == victims
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)

    units = len(fan_out_documents(corpus, num_partitions=SETTINGS.num_partitions))
    metrics = store.load_metrics().to_pylist()
    assert sum(m["rows_in"] for m in metrics if m["stage"] == "ocr") == units


def test_manifest_contents(ray_session, tmp_path):
    corpus = generate_documents(40, seed=7)
    out_dir = str(tmp_path / "ckpt2")
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)
    store = CheckpointStore(out_dir)
    manifest = store.load_manifest().to_pylist()
    assert manifest
    total_docs = sum(m["num_docs"] for m in manifest)
    assert total_docs == store.read_output().count()
    committed_spans = sum(len(r["spans"]) for r in store.read_output().take_all())
    assert sum(m["num_spans"] for m in manifest) == committed_spans
    for m in manifest:
        assert os.path.exists(m["output_fragment"])
        with open(
            os.path.join(out_dir, "manifest", f"part-{m['partition_id']:05d}.json")
        ) as f:
            assert json.load(f)["partition_id"] == m["partition_id"]


def test_resume_refuses_changed_run_config(ray_session, tmp_path):
    """Resuming with a different num_partitions would mis-map committed_ids
    onto a new partitioning scheme; the store must refuse (meta.json)."""
    import pytest

    corpus = generate_documents(30, seed=9)
    out_dir = str(tmp_path / "ckpt3")
    run_extract_checkpointed(rd.from_arrow(corpus), out_dir, settings=SETTINGS)
    assert os.path.exists(os.path.join(out_dir, "meta.json"))

    # same config resumes fine (no-op)
    again = run_extract_checkpointed(rd.from_arrow(corpus), out_dir,
                                     settings=SETTINGS)
    assert again["partitions_processed"] == 0

    with pytest.raises(ValueError, match="different run configuration"):
        run_extract_checkpointed(
            rd.from_arrow(corpus), out_dir,
            settings=PipelineSettings(num_partitions=8, ocr_concurrency=2),
        )


def test_cli_status_eta_uses_run_partition_count(tmp_path, capsys):
    """`cli status` takes the partition count from the run's meta.json, so
    a run made with --num-partitions 64 gets its ETA against 64, not 32."""
    from ocr_agent_ray.cli import main

    out_dir = str(tmp_path / "ckpt64")
    store = CheckpointStore(out_dir).initialize(
        {"num_partitions": 64, "engine": "MockOcrEngine", "math_style": "dollar"})
    table = generate_documents(1, seed=3).select(["doc_id"])
    for pid in (0, 1):
        store.write_partition(pid, table, [{
            "partition_id": pid, "stage": "assemble", "status": "completed",
            "rows_in": 1, "rows_out": 1, "wall_ms": 500, "error_message": None,
        }])

    assert main(["status", "--out", out_dir]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["partitions_committed"] == 2
    assert status["status_counts"] == {"completed": 2}
    assert status["eta_seconds"] == 0.5 * (64 - 2)
    assert status["last_error"] is None  # no failed metrics row

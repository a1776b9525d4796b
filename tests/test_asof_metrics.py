"""Metrics spool + ETA estimator."""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from ocr_agent_ray.state.checkpoint import (
    CheckpointStore,
    MetricsSpool,
    compute_eta_seconds,
)


def test_metrics_spool_and_eta(tmp_path):
    out = str(tmp_path / "ckpt")
    store = CheckpointStore(out).initialize()
    spool = MetricsSpool(out)
    spool.append("ocr", spool.rows_for("ocr", [0, 0, 1], wall_ms=30))
    spool.append("ocr", spool.rows_for("ocr", [1], wall_ms=10))
    # per-partition commit metrics
    tbl = pa.table({"doc_id": ["d1"], "spans": [[{"kind": "text", "text": "x",
                    "media_ref": "", "offset": 0}]]})
    store.write_partition(0, tbl, [{
        "partition_id": 0, "stage": "assemble", "status": "completed",
        "rows_in": 1, "rows_out": 1, "wall_ms": 500, "error_message": None,
    }])

    metrics = store.load_metrics()
    stages = {r["stage"] for r in metrics.to_pylist()}
    assert stages == {"ocr", "assemble"}
    ocr_rows = [r for r in metrics.to_pylist() if r["stage"] == "ocr"]
    assert sum(r["rows_in"] for r in ocr_rows) == 4
    # groupby(status).count() reproduces the reference's status query (G1)
    assert all(r["status"] == "completed" for r in metrics.to_pylist())

    # ETA: 1 of 4 partitions done at 500 ms -> 3 × 0.5 s
    assert compute_eta_seconds(metrics, 4) == 1.5
    assert compute_eta_seconds(metrics, 1) == 0.0
    assert compute_eta_seconds(pa.Table.from_pylist([]), 4) is None


def test_metrics_spool_bounded_files_exact_totals(tmp_path):
    """Append-only spool: every row readable after every append, one
    JSON-lines file per spool however many batches it appends."""
    import os

    out = str(tmp_path / "spool")
    CheckpointStore(out).initialize()
    spool = MetricsSpool(out)
    total = 0
    for batch in range(100):
        rows = spool.rows_for("ocr", [batch % 7] * 10, wall_ms=5)
        total += sum(r["rows_in"] for r in rows)
        spool.append("ocr", rows)
        m = CheckpointStore(out).load_metrics()
        assert sum(r["rows_in"] for r in m.to_pylist()) == total

    assert total == 1000
    names = [f for f in os.listdir(os.path.join(out, "metrics"))
             if f.startswith("spool-")]
    assert len(names) == 1 and names[0].endswith(".jsonl")
    # a second spool (another actor) gets its own file
    other = MetricsSpool(out)
    other.append("ocr", other.rows_for("ocr", [3], wall_ms=1))
    assert len([f for f in os.listdir(os.path.join(out, "metrics"))
                if f.startswith("spool-")]) == 2


def test_metrics_spool_torn_last_line_loses_only_that_line(tmp_path):
    """A writer killed mid-append leaves a final line with no newline;
    load_metrics skips exactly that line and keeps every complete one."""
    import os

    out = str(tmp_path / "torn")
    store = CheckpointStore(out).initialize()
    spool = MetricsSpool(out)
    spool.append("ocr", spool.rows_for("ocr", [0, 1, 1], wall_ms=9))
    spool.append("ocr", spool.rows_for("ocr", [2], wall_ms=4))
    (name,) = os.listdir(store.metrics_dir)
    path = os.path.join(store.metrics_dir, name)
    with open(path) as f:
        lines = f.read().splitlines()
    assert len(lines) == 3
    with open(path, "a") as f:
        f.write(lines[0][: len(lines[0]) // 2])  # torn copy of a row

    rows = store.load_metrics().to_pylist()
    assert [(r["partition_id"], r["rows_in"]) for r in rows] == [(0, 1), (1, 2), (2, 1)]


def test_extract_run_spools_stage_metrics(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
    from ocr_agent_ray.sources.corpus import generate_documents

    out = str(tmp_path / "ckpt2")
    run_extract_checkpointed(rd.from_arrow(generate_documents(40, seed=42)), out)
    metrics = CheckpointStore(out).load_metrics()
    stages = {r["stage"] for r in metrics.to_pylist()}
    assert {"ocr", "postprocess", "assemble"} <= stages

"""CLI run+merge output is byte-identical to the sequential oracle's
merged markdown (the reference's single-file output surface,
markdown_merge.py:18-47)."""

from __future__ import annotations

import pyarrow.parquet as pq

import ray.data as rd

from ocr_agent_ray.oracle import oracle_merged_markdown
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine


def test_cli_merge_matches_oracle_bytes(ray_session, tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    table = generate_documents(60, seed=42)
    pq.write_table(table, str(corpus_dir / "docs.parquet"))

    out_dir = str(tmp_path / "out")
    run_extract_checkpointed(rd.from_arrow(table), out_dir)

    # the real (streaming) merge path, with a tiny batch_size so the
    # byte layout is proven across many iter_batches boundaries
    from ocr_agent_ray.cli import merge_output_markdown
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    md = str(tmp_path / "output.md")
    store = CheckpointStore(out_dir)
    n = merge_output_markdown(store, md, batch_size=7)
    assert n == store.read_output().count()  # zero-span docs have no row
    merged = open(md, encoding="utf-8").read()

    golden = oracle_merged_markdown(table.to_pylist(), MockOcrEngine())
    assert merged == golden


def test_cli_merge_max_docs_guard(ray_session, tmp_path):
    """VERDICT r4 #3: the merge refuses a corpus larger than max_docs
    (single-file markdown is fixture-scale only) and removes the
    partial file."""
    import os

    import pytest

    from ocr_agent_ray.cli import merge_output_markdown
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    table = generate_documents(20, seed=1)
    pq.write_table(table, str(corpus_dir / "docs.parquet"))
    out_dir = str(tmp_path / "out")
    run_extract_checkpointed(rd.from_arrow(table), out_dir)

    md = str(tmp_path / "too_big.md")
    with pytest.raises(ValueError, match="max_docs=5"):
        merge_output_markdown(CheckpointStore(out_dir), md, max_docs=5,
                              batch_size=4)
    assert not os.path.exists(md)


def test_cli_query_subcommand(tmp_path):
    """`cli query` runs a registered pipeline in a subprocess (own Ray
    session, non-repo cwd) and prints JSONL / writes parquet."""
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    out = subprocess.run(
        [sys.executable, "-m", "ocr_agent_ray.cli", "query",
         "q_status_counts", "--sf-dir", "/root/testdata/sf0.001",
         "--num-cpus", "4"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=240)
    assert out.returncode == 0, out.stderr[-2000:]
    rows = [json.loads(l) for l in out.stdout.strip().splitlines()
            if l.startswith("{")]
    assert rows and {"event_type", "n"} <= set(rows[0])

    pq_path = str(tmp_path / "res.parquet")
    out = subprocess.run(
        [sys.executable, "-m", "ocr_agent_ray.cli", "query",
         "q_mean_value_by_type", "--sf-dir", "/root/testdata/sf0.001",
         "--num-cpus", "4", "--output", pq_path],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=240)
    assert out.returncode == 0, out.stderr[-2000:]
    import pandas as pd

    assert len(pd.read_parquet(pq_path)) > 0

    # Dataset-returning query → single .parquet must STREAM through the
    # ParquetWriter (never driver pandas), directory output must be the
    # distributed write_parquet; both report the true row count
    ds_file = str(tmp_path / "ds.parquet")
    out = subprocess.run(
        [sys.executable, "-m", "ocr_agent_ray.cli", "query",
         "q_quality_scores", "--sf-dir", "/root/testdata/sf0.001",
         "--num-cpus", "4", "--output", ds_file],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=240)
    assert out.returncode == 0, out.stderr[-2000:]
    n_file = len(pd.read_parquet(ds_file))
    assert n_file > 0
    rep = json.loads([l for l in out.stdout.strip().splitlines()
                      if l.startswith("{")][-1])
    assert rep["rows"] == n_file

    ds_dir = str(tmp_path / "ds_out")
    out = subprocess.run(
        [sys.executable, "-m", "ocr_agent_ray.cli", "query",
         "q_quality_scores", "--sf-dir", "/root/testdata/sf0.001",
         "--num-cpus", "4", "--output", ds_dir],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=240)
    assert out.returncode == 0, out.stderr[-2000:]
    import pyarrow.dataset as pads

    assert pads.dataset(ds_dir).count_rows() == n_file

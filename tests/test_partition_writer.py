"""The flagship's commit path: the driver's PartitionWriter streams each
hash partition into one Parquet file under a per-run temp name and
commits every partition at run end (data, then metrics, then marker)."""

from __future__ import annotations

import errno
import functools
import os
import threading

import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.oracle import oracle_extract
from ocr_agent_ray.pipelines.extract import build_extract_pipeline, run_extract_checkpointed
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
from ocr_agent_ray.state import checkpoint
from ocr_agent_ray.state.checkpoint import CheckpointStore

SETTINGS = PipelineSettings(num_partitions=8, ocr_concurrency=2, fanout_batch_size=16)


def _blocks(corpus, rows=16):
    return rd.from_arrow([corpus.slice(lo, rows) for lo in range(0, len(corpus), rows)])


def _tmp_files(out_dir):
    return [os.path.join(d, f) for d, _, files in os.walk(out_dir)
            for f in files if f.endswith(".tmp")]


def _assert_equals_oracle(out_dir, corpus):
    store = CheckpointStore(out_dir)
    for pid in store.committed_ids():
        assert os.path.exists(store.data_path(pid)), pid
    rows = store.read_output().take_all()
    got = {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                         for s in r["spans"]] for r in rows}
    assert len(got) == len(rows)  # no document committed twice
    golden = oracle_extract(corpus.to_pylist(), MockOcrEngine())
    assert got == {d: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]
                   for d, spans in golden.items() if spans}


def test_one_block_input_feeds_every_slot(ray_session):
    """A one-block input at ocr_concurrency=2 is cut so that both slot
    tasks get work: each task's output is one block, and the two blocks
    hold the first and the second half of the input's documents."""
    corpus = generate_documents(120, seed=31)
    ds = build_extract_pipeline(rd.from_arrow(corpus), settings=PipelineSettings(
        ocr_concurrency=2, fanout_batch_size=16))
    blocks = [ray.get(ref) for bundle in ds.materialize().iter_internal_ref_bundles()
              for ref in bundle.block_refs]
    assert len(blocks) == 2 and all(len(b) for b in blocks)
    halves = sorted((set(b["doc_id"].to_pylist()) for b in blocks), key=min)
    docs = corpus["doc_id"].to_pylist()
    assert halves[0] <= set(docs[:60]) and halves[1] <= set(docs[60:])


def test_concurrent_runs_into_one_out_dir(ray_session, tmp_path, monkeypatch):
    """Racing runs write the same partitions; per-run temp names keep each
    run's files apart, so every committed file is one run's whole file."""
    # every batch goes straight to its file, so both runs hold open temp
    # files for the whole stream
    monkeypatch.setattr(checkpoint, "WRITE_BUFFER_BYTES", 0)
    corpus = generate_documents(160, seed=32)
    out = str(tmp_path / "out")
    errors = []

    def run():
        try:
            run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
        assert not t.is_alive()
    assert not errors, errors
    assert not _tmp_files(out)
    _assert_equals_oracle(out, corpus)


def test_failure_during_ocr_commits_nothing(ray_session, tmp_path, monkeypatch):
    """An engine that fails systemically partway through aborts the run:
    no marker, no temp file of that run; a rerun equals the oracle."""

    class LateFailingEngine(MockOcrEngine):
        """While the flag file exists, fails every media ref of the
        documents past the first 48."""

        def __init__(self, flag_path):
            super().__init__()
            self.flag_path = flag_path

        def infer_batch(self, media_refs, page_indices):
            if os.path.exists(self.flag_path) and any(
                    int(ref.split("/")[2][3:]) >= 48 for ref in media_refs):
                raise RuntimeError("engine down")
            return super().infer_batch(media_refs, page_indices)

    monkeypatch.setattr(checkpoint, "WRITE_BUFFER_BYTES", 0)
    flag = tmp_path / "down"
    flag.write_text("")
    factory = functools.partial(LateFailingEngine, str(flag))
    corpus = generate_documents(240, seed=33)
    out = str(tmp_path / "out")
    settings = PipelineSettings(num_partitions=8, ocr_concurrency=1, fanout_batch_size=16)
    with pytest.raises(Exception, match="failing systemically"):
        run_extract_checkpointed(_blocks(corpus), out, engine_factory=factory,
                                 settings=settings)
    store = CheckpointStore(out)
    assert store.committed_ids() == set()
    assert not _tmp_files(out)

    flag.unlink()
    run_extract_checkpointed(_blocks(corpus), out, engine_factory=factory,
                             settings=settings)
    _assert_equals_oracle(out, corpus)


def test_failure_in_commit_tail_keeps_committed_prefix(ray_session, tmp_path, monkeypatch):
    """The commit tail fails after k markers: exactly those k partitions
    are committed (each with its data), and a resume redoes only the rest."""
    corpus = generate_documents(160, seed=34)
    out = str(tmp_path / "out")
    k = 3
    real = checkpoint._atomic_write_json
    metrics_writes = []

    def failing_write(path, obj):
        if os.path.basename(os.path.dirname(path)) == "metrics":
            metrics_writes.append(path)
            if len(metrics_writes) > k:
                raise OSError("disk full")
        real(path, obj)

    monkeypatch.setattr(checkpoint, "_atomic_write_json", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
    monkeypatch.setattr(checkpoint, "_atomic_write_json", real)

    store = CheckpointStore(out)
    committed = store.committed_ids()
    assert len(committed) == k
    assert not _tmp_files(os.path.join(out, "data"))
    stamps = {pid: os.path.getmtime(store.data_path(pid)) for pid in committed}

    summary = run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
    assert summary["partitions_committed_before"] == k
    assert summary["partitions_processed"] == summary["partitions_committed_total"] - k
    for pid, stamp in stamps.items():
        assert os.path.getmtime(store.data_path(pid)) == stamp
    _assert_equals_oracle(out, corpus)


def test_disk_full_inside_the_parquet_writer(ray_session, tmp_path, monkeypatch):
    """The Parquet writer raises ENOSPC partway through the stream: the
    run raises, commits no partition and leaves no temp file, and a rerun
    commits every partition with the oracle's spans, which an
    uninterrupted run also commits (every other test here checks that)."""
    monkeypatch.setattr(checkpoint, "WRITE_BUFFER_BYTES", 0)
    corpus = generate_documents(160, seed=38)
    out = str(tmp_path / "out")
    real = pq.ParquetWriter.write_table
    writes = []

    def write_table(self, table, *args, **kwargs):
        writes.append(len(table))
        if len(writes) > 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self, table, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetWriter, "write_table", write_table)
    with pytest.raises(OSError) as failure:
        run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
    assert failure.value.errno == errno.ENOSPC
    monkeypatch.setattr(pq.ParquetWriter, "write_table", real)
    assert CheckpointStore(out).committed_ids() == set()
    assert not _tmp_files(out)

    summary = run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
    assert summary["partitions_committed_before"] == 0
    assert CheckpointStore(out).committed_ids() == set(range(SETTINGS.num_partitions))
    _assert_equals_oracle(out, corpus)


def test_balance_blocks_run_commits_through_the_writer(ray_session, tmp_path):
    corpus = generate_documents(120, seed=35)
    out = str(tmp_path / "out")
    settings = PipelineSettings(num_partitions=8, ocr_concurrency=2, balance_blocks=8)
    run_extract_checkpointed(rd.from_arrow(corpus), out, settings=settings)
    _assert_equals_oracle(out, corpus)

    store = CheckpointStore(out)
    victims = sorted(store.committed_ids())[::2]
    store.reset_partitions(victims)
    summary = run_extract_checkpointed(rd.from_arrow(corpus), out, settings=settings)
    assert summary["partitions_processed"] == len(victims)
    _assert_equals_oracle(out, corpus)


def test_partition_files_hold_buffered_row_groups(ray_session, tmp_path):
    """Rows of a partition arrive from every bundle, yet are buffered
    into row groups rather than written one per bundle."""
    corpus = generate_documents(400, seed=36)
    out = str(tmp_path / "out")
    bundles = 40
    settings = PipelineSettings(num_partitions=2, ocr_concurrency=2, fanout_batch_size=10)
    run_extract_checkpointed(_blocks(corpus, rows=10), out, settings=settings)
    store = CheckpointStore(out)
    assert store.committed_ids() == {0, 1}
    for pid in store.committed_ids():
        groups = pq.ParquetFile(store.data_path(pid)).num_row_groups
        # a partition's rows here are far below the buffer: one flush
        assert groups == 1 < bundles
    _assert_equals_oracle(out, corpus)


def test_assemble_metrics_count_units_and_spans(ray_session, tmp_path):
    corpus = generate_documents(80, seed=37)
    out = str(tmp_path / "out")
    run_extract_checkpointed(_blocks(corpus), out, settings=SETTINGS)
    store = CheckpointStore(out)
    manifest = {m["partition_id"]: m for m in store.load_manifest().to_pylist()}
    rows = [m for m in store.load_metrics().to_pylist() if m["stage"] == "assemble"]
    assert sorted(m["partition_id"] for m in rows) == sorted(manifest)
    for m in rows:
        assert m["rows_out"] == manifest[m["partition_id"]]["num_spans"]
        assert m["rows_in"] * 2 == m["rows_out"]
        assert m["status"] == "completed" and m["error_message"] is None

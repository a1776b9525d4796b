"""The flagship's OCR slot tasks: how input fragments are cut and shared
out, what the plan runs, how many engines a run builds, and what happens
when an OCR worker process dies."""

from __future__ import annotations

import functools
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.oracle import oracle_extract
from ocr_agent_ray.pipelines.extract import build_extract_pipeline, run_extract_checkpointed
from ocr_agent_ray.sources.corpus import (
    Fragment,
    generate_documents,
    parquet_fragments,
    read_documents,
    read_fragments,
    split_shares,
    write_corpus_parquet,
)
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
from ocr_agent_ray.state.checkpoint import CheckpointStore

SETTINGS = PipelineSettings(num_partitions=8, ocr_concurrency=2, fanout_batch_size=16)


def _spans(out_dir):
    rows = CheckpointStore(out_dir).read_output().take_all()
    got = {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                         for s in r["spans"]] for r in rows}
    assert len(got) == len(rows)  # no document committed twice
    return got


def _oracle_spans(corpus):
    golden = oracle_extract(corpus.to_pylist(), MockOcrEngine())
    return {d: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]
            for d, spans in golden.items() if spans}


def _tmp_files(out_dir):
    return [f for _, _, files in os.walk(out_dir) for f in files if f.endswith(".tmp")]


# --- fragments and shares (no Ray) ----------------------------------------

@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.integers(1, 50), max_size=40), slots=st.integers(1, 12))
@example(rows=[100, 1, 1], slots=3)
@example(rows=[1, 1, 1, 100], slots=3)
@example(rows=[2, 3, 3, 2], slots=3)
def test_split_shares_every_slot_gets_work_in_order(rows, slots):
    shares = split_shares(rows, slots)
    assert len(shares) == min(slots, len(rows))
    assert all(len(s) for s in shares)                            # every slot works
    assert [i for s in shares for i in s] == list(range(len(rows)))  # order kept
    # balanced by rows: each share is within one fragment of an even share
    for s in shares:
        assert abs(sum(rows[i] for i in s) - sum(rows) / len(shares)) <= max(rows)


@settings(deadline=None)
@given(fragments=st.integers(1, 200), size=st.integers(1, 500), slots=st.integers(1, 40))
def test_equal_fragments_share_out_within_one_fragment(fragments, size, slots):
    """Fragments of equal rows (a file or block cut evenly): the slots'
    fragment counts differ by at most one."""
    counts = [len(s) for s in split_shares([size] * fragments, slots)]
    assert max(counts) - min(counts) <= 1


def test_parquet_fragments_cut_at_row_groups(tmp_path):
    """Fragments cover every row once and are cut only at row-group
    boundaries, so no row group is in two fragments; a file written as one
    row group is one fragment."""
    files = []
    for i, (n, group) in enumerate([(37, 16), (0, 16), (5, 16), (120, 16), (90, None)]):
        files.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(pa.table({"x": list(range(n))}), files[-1], row_group_size=group)
    frags = parquet_fragments(files, 10)
    assert {f.source for f in frags} == {files[0], files[2], files[3], files[4]}
    for path in {f.source for f in frags}:
        meta = pq.read_metadata(path)
        bounds = [0]
        for g in range(meta.num_row_groups):
            bounds.append(bounds[-1] + meta.row_group(g).num_rows)
        ranges = [(f.start, f.stop) for f in frags if f.source == path]
        assert ranges[0][0] == 0 and ranges[-1][1] == meta.num_rows
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(f.start in bounds and f.stop in bounds for f in frags if f.source == path)
    assert [(f.start, f.stop) for f in frags if f.source == files[4]] == [(0, 90)]
    # at least an even share (26 rows) per fragment, except a file's rest
    assert [(f.start, f.stop) for f in frags if f.source == files[3]] == [
        (0, 32), (32, 64), (64, 96), (96, 120)]


def test_shared_out_row_groups_are_decoded_once(tmp_path, monkeypatch):
    """Reading every slot's share decodes each row group once in all: a
    one-row-group file is one fragment, and a file of several row groups
    is shared out whole row groups at a time."""
    decoded = []
    read_row_group = pq.ParquetFile.read_row_group

    def counting(self, i, *args, **kwargs):
        decoded.append((self.metadata.num_rows, i))
        return read_row_group(self, i, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    corpus = generate_documents(120, seed=47)
    one, many = str(tmp_path / "one.parquet"), str(tmp_path / "many.parquet")
    pq.write_table(corpus, one)
    pq.write_table(corpus.slice(0, 100), many, row_group_size=10)
    for path, groups in ((one, 1), (many, 10)):
        decoded.clear()
        frags = parquet_fragments([path], 2 * 4)
        shares = [frags[r.start:r.stop] for r in split_shares(
            [f.stop - f.start for f in frags], 2)]
        read = [b for share in shares for b in read_fragments(share, 16)]
        assert len(decoded) == len(set(decoded)) == groups
        assert pa.concat_tables(read)["doc_id"].to_pylist() == (
            corpus["doc_id"].to_pylist()[:pq.read_metadata(path).num_rows])


def test_read_fragments_rebatches_in_row_order(tmp_path):
    corpus = generate_documents(90, seed=41)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(corpus, path, row_group_size=25)
    frags = [Fragment(path, 0, 10), Fragment(path, 10, 33), Fragment(path, 33, 90)]
    batches = list(read_fragments(frags, 16))
    assert [len(b) for b in batches] == [16] * 5 + [10]
    assert pa.concat_tables(batches).column_names == ["doc_id", "spans"]
    assert (pa.concat_tables(batches)["doc_id"].to_pylist()
            == corpus["doc_id"].to_pylist())


# --- the plan and the run --------------------------------------------------

def _op_names(ds):
    names, stack = [], [ds._plan._logical_plan.dag]
    while stack:
        op = stack.pop()
        names.append(op.name)
        stack.extend(op.input_dependencies)
    return names


def test_read_input_runs_no_read_operator(ray_session, tmp_path):
    """The flagship reads a read_documents Dataset inside its slot tasks;
    the Dataset itself stays an ordinary Parquet read for other uses."""
    corpus_dir = str(tmp_path / "corpus")
    write_corpus_parquet(corpus_dir, 100, rows_per_file=10)
    docs = read_documents(corpus_dir, num_blocks=10)
    assert any("ReadParquet" in n for n in _op_names(docs))
    assert docs.count() == 100
    pipe = build_extract_pipeline(docs, settings=SETTINGS)
    names = _op_names(pipe)
    assert not any("ReadParquet" in n for n in names), names
    assert any("ExtractSlots" in n for n in names), names


def test_coarse_and_lazy_inputs_stream_per_bundle(ray_session, tmp_path):
    """An input with fewer than FRAGMENTS_PER_SLOT fragments per slot (one
    file of one row group), and a transformed read, are not materialized
    while the pipeline is built: they stream through one ExtractTask per
    bundle, after Ray Data's own read, and commit the oracle's output."""
    corpus = generate_documents(120, seed=48)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    pq.write_table(corpus, str(corpus_dir / "docs.parquet"))
    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(batch):
        (marks / f"{os.getpid()}-{time.monotonic_ns()}").write_text("")
        return batch

    coarse = read_documents(str(corpus_dir), num_blocks=8)
    transformed = read_documents(str(corpus_dir), num_blocks=8).map_batches(
        mark, batch_format="pyarrow")
    for name, docs in (("coarse", coarse), ("transformed", transformed)):
        pipe = build_extract_pipeline(docs, settings=SETTINGS)
        names = _op_names(pipe)
        assert any("ReadParquet" in n for n in names), names
        assert any("ExtractTask" in n for n in names), names
        assert not any("ExtractSlots" in n for n in names), names
        assert not list(marks.iterdir())  # nothing ran while building
        out = str(tmp_path / name)
        run_extract_checkpointed(docs, out, settings=SETTINGS)
        assert _spans(out) == _oracle_spans(corpus)
    assert list(marks.iterdir())


def test_read_and_in_memory_inputs_commit_the_same_output(ray_session, tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    write_corpus_parquet(corpus_dir, 150, seed=42, rows_per_file=15)
    corpus = generate_documents(150, seed=42)
    read_out, mem_out = str(tmp_path / "read"), str(tmp_path / "mem")
    read_docs = read_documents(corpus_dir, num_blocks=10)
    assert "ExtractSlots" in str(_op_names(build_extract_pipeline(read_docs,
                                                                  settings=SETTINGS)))
    run_extract_checkpointed(read_docs, read_out, settings=SETTINGS)
    run_extract_checkpointed(rd.from_arrow(corpus), mem_out, settings=SETTINGS)
    assert _spans(read_out) == _spans(mem_out) == _oracle_spans(corpus)
    stores = CheckpointStore(read_out), CheckpointStore(mem_out)
    assert stores[0].committed_ids() == stores[1].committed_ids()
    for pid in stores[0].committed_ids():
        a, b = (pq.read_table(s.data_path(pid)) for s in stores)
        assert a.sort_by("doc_id").equals(b.sort_by("doc_id")), pid


def test_empty_input_and_empty_blocks(ray_session, tmp_path):
    """No rows: no slot task and nothing committed. Empty blocks beside
    full ones are skipped, not cut into fragments."""
    summary = run_extract_checkpointed(rd.from_arrow(generate_documents(0)),
                                       str(tmp_path / "empty"), settings=SETTINGS)
    assert summary["partitions_committed_total"] == summary["docs_assembled_this_run"] == 0
    corpus = generate_documents(30, seed=46)
    out = str(tmp_path / "out")
    run_extract_checkpointed(rd.from_arrow([corpus.slice(0, 0), corpus, corpus.slice(30)]),
                             out, settings=SETTINGS)
    assert _spans(out) == _oracle_spans(corpus)


def test_engine_builds_per_run_at_most_ocr_concurrency(ray_session, tmp_path):
    """A run builds at most ocr_concurrency engines, and no more than
    ocr_concurrency engine calls are ever in flight at once."""

    class CountingEngine(MockOcrEngine):
        def __init__(self, log_path):
            super().__init__()
            self.log_path = log_path
            with open(log_path, "a") as f:
                f.write(f"build {os.getpid()}\n")

        def infer_batch(self, media_refs, page_indices):
            start = time.time()
            time.sleep(0.005)
            with open(self.log_path, "a") as f:
                f.write(f"call {start} {time.time()}\n")
            return super().infer_batch(media_refs, page_indices)

    corpus = generate_documents(200, seed=43)
    blocks = rd.from_arrow([corpus.slice(lo, 10) for lo in range(0, 200, 10)])
    for concurrency in (1, 2):
        log = tmp_path / f"engines-{concurrency}.log"
        settings_ = PipelineSettings(num_partitions=8, ocr_concurrency=concurrency,
                                     fanout_batch_size=8)
        summary = run_extract_checkpointed(
            blocks, str(tmp_path / f"out-{concurrency}"),
            engine_factory=functools.partial(CountingEngine, str(log)),
            settings=settings_)
        lines = [line.split() for line in log.read_text().splitlines()]
        builds = sum(1 for line in lines if line[0] == "build")
        assert 1 <= builds <= concurrency
        assert summary["ocr_processes"] == builds
        edges = sorted((float(t), step) for line in lines if line[0] == "call"
                       for t, step in ((line[1], 1), (line[2], -1)))
        in_flight = [0]
        for _, step in edges:
            in_flight.append(in_flight[-1] + step)
        assert max(in_flight) <= concurrency


# --- OCR worker processes that die ----------------------------------------

def test_worker_that_always_dies_fails_the_run(ray_session, tmp_path):
    """Ray Data retries a task whose worker died forever by default; the
    OCR op bounds the retries, so the run raises and commits nothing."""

    class DyingEngine(MockOcrEngine):
        def infer_batch(self, media_refs, page_indices):
            os._exit(1)

    corpus = generate_documents(40, seed=44)
    out = str(tmp_path / "out")
    with pytest.raises(Exception):
        run_extract_checkpointed(rd.from_arrow(corpus), out, engine_factory=DyingEngine,
                                 settings=SETTINGS)
    assert CheckpointStore(out).committed_ids() == set()
    assert not _tmp_files(out)


def test_worker_killed_once_is_retried(ray_session, tmp_path):
    """A worker that dies once, on its second engine call, is retried and
    the run's output equals the oracle. The dead attempt's spool rows
    stay, so ``ocr`` metrics may count its first engine call twice."""

    class KillOnceEngine(MockOcrEngine):
        def __init__(self, flag_path):
            super().__init__()
            self.flag_path = flag_path
            self.calls = 0

        def infer_batch(self, media_refs, page_indices):
            self.calls += 1
            if self.calls == 2:
                try:
                    os.unlink(self.flag_path)
                except FileNotFoundError:
                    pass
                else:
                    os._exit(1)
            return super().infer_batch(media_refs, page_indices)

    flag = tmp_path / "kill"
    flag.write_text("")
    corpus = generate_documents(120, seed=45)
    out = str(tmp_path / "out")
    settings_ = PipelineSettings(num_partitions=8, ocr_concurrency=2,
                                 fanout_batch_size=16, ocr_batch_size=16)
    run_extract_checkpointed(rd.from_arrow(corpus), out,
                             engine_factory=functools.partial(KillOnceEngine, str(flag)),
                             settings=settings_)
    assert not flag.exists()  # the kill happened
    assert _spans(out) == _oracle_spans(corpus)
    assert not _tmp_files(out)
    metrics = CheckpointStore(out).load_metrics()
    ocr_rows = metrics.filter(pc.equal(metrics["stage"], "ocr"))
    units = len(fan_out_documents(corpus, num_partitions=settings_.num_partitions))
    assert pc.sum(ocr_rows["rows_in"]).as_py() >= units

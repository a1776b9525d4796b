"""Incremental shard ingestion: exactly-once, parked failures, ordering."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.sources.watch import (
    list_ready_shards,
    poll_and_ingest,
    read_ingested_output,
)


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "inbox"
    d.mkdir()
    pq.write_table(generate_documents(20, seed=1, start=0), str(d / "shard-000.parquet"))
    pq.write_table(generate_documents(20, seed=1, start=20), str(d / "shard-001.parquet"))
    return str(d)


def test_incremental_ingest_exactly_once(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "out")
    os.makedirs(out)

    r1 = poll_and_ingest(corpus_dir, out)
    assert r1["ingested"] == ["shard-000", "shard-001"]
    assert r1["remaining"] == 0
    n1 = read_ingested_output(out).count()

    # second poll: nothing new
    r2 = poll_and_ingest(corpus_dir, out)
    assert r2["ingested"] == []

    # a new shard arrives -> only it is processed
    pq.write_table(generate_documents(10, seed=1, start=40),
                   str(os.path.join(corpus_dir, "shard-002.parquet")))
    r3 = poll_and_ingest(corpus_dir, out)
    assert r3["ingested"] == ["shard-002"]
    assert read_ingested_output(out).count() > n1

    # combined committed output matches the sequential oracle exactly
    from ocr_agent_ray.oracle import oracle_extract
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    all_docs = (
        generate_documents(20, seed=1, start=0).to_pylist()
        + generate_documents(20, seed=1, start=20).to_pylist()
        + generate_documents(10, seed=1, start=40).to_pylist()
    )
    golden = oracle_extract(all_docs, MockOcrEngine())
    got = {r["doc_id"]: r["spans"]
           for r in read_ingested_output(out).take_all()}
    nonempty = {d: v for d, v in golden.items() if v}
    assert set(got) == set(nonempty)
    for did, g in nonempty.items():
        assert [(s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in got[did]] == \
               [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in g]


def test_failed_shard_is_parked(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "out2")
    os.makedirs(out)

    class BrokenEngine:
        def __init__(self):
            raise RuntimeError("engine down")

    with pytest.raises(Exception):
        poll_and_ingest(corpus_dir, out, engine_factory=BrokenEngine, max_shards=1)
    # parked: .failed marker exists and the shard is skipped on next poll
    assert os.path.exists(os.path.join(out, "shards", "shard-000.failed"))
    ready = list_ready_shards(corpus_dir, out)
    assert [os.path.basename(p) for p in ready] == ["shard-001.parquet"]

    # un-parking (marker removal) makes it eligible again (README.md:75-79
    # reset semantics)
    os.remove(os.path.join(out, "shards", "shard-000.failed"))
    ready = list_ready_shards(corpus_dir, out)
    assert [os.path.basename(p) for p in ready] == [
        "shard-000.parquet", "shard-001.parquet",
    ]

    # the failed constructor cached nothing: rerunning the un-parked shard,
    # on the same worker processes, fails and parks it again
    with pytest.raises(Exception, match="engine down"):
        poll_and_ingest(corpus_dir, out, engine_factory=BrokenEngine, max_shards=1)
    assert os.path.exists(os.path.join(out, "shards", "shard-000.failed"))
    assert [os.path.basename(p) for p in list_ready_shards(corpus_dir, out)] == [
        "shard-001.parquet"]

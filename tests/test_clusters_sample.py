"""Duplicate clustering (connected components) + deterministic sampling."""

from __future__ import annotations

import pandas as pd

import ray.data as rd

from ocr_agent_ray.pipelines import dedup
from ocr_agent_ray.pipelines.dedup import duplicate_clusters


def test_duplicate_clusters_chain_and_islands(ray_session):
    pairs = pd.DataFrame({
        "doc_id_a": [1, 2, 10, 20, 21],
        "doc_id_b": [2, 3, 11, 21, 22],
    })
    out = duplicate_clusters(rd.from_pandas(pairs))
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    # chain 1-2-3 collapses to min label 1
    assert got[1] == got[2] == got[3] == 1
    assert got[10] == got[11] == 10
    assert got[20] == got[21] == got[22] == 20
    assert len(out) == 8


def test_duplicate_clusters_native_long_chain(ray_session, monkeypatch):
    """Dataset-native rounds (driver fallback disabled) on a chain with
    diameter 6 — proves multi-round convergence, not just 1-hop
    propagation — plus parity with the driver path."""
    n = 6
    pairs = pd.DataFrame({
        "doc_id_a": list(range(100, 100 + n)) + [7, 500],
        "doc_id_b": list(range(101, 101 + n)) + [8, 501],
    })
    with monkeypatch.context() as m:
        m.setattr(dedup, "DRIVER_MAX_EDGES", 0)
        native = duplicate_clusters(rd.from_pandas(pairs))
    got = dict(zip(*[native.to_pandas()[c] for c in ("doc_id", "cluster_id")]))
    assert all(got[100 + i] == 100 for i in range(n + 1))
    assert got[7] == got[8] == 7
    assert got[500] == got[501] == 500

    driver = duplicate_clusters(rd.from_pandas(pairs))
    drv = dict(zip(driver["doc_id"], driver["cluster_id"]))
    assert drv == got


def test_duplicate_clusters_native_string_ids(ray_session, monkeypatch):
    pairs = pd.DataFrame({
        "doc_id_a": ["a", "b", "x"],
        "doc_id_b": ["b", "c", "y"],
    })
    monkeypatch.setattr(dedup, "DRIVER_MAX_EDGES", 0)
    native = duplicate_clusters(rd.from_pandas(pairs))
    got = dict(zip(*[native.to_pandas()[c] for c in ("doc_id", "cluster_id")]))
    assert got["a"] == got["b"] == got["c"] == "a"
    assert got["x"] == got["y"] == "x"


def test_duplicate_clusters_empty(ray_session):
    pairs = pd.DataFrame({"doc_id_a": pd.Series(dtype="int64"),
                          "doc_id_b": pd.Series(dtype="int64")})
    out = duplicate_clusters(rd.from_pandas(pairs))
    assert len(out) == 0


def test_hash_sample_fraction_and_determinism(ray_session):
    from ocr_agent_ray.pipelines.relational import hash_sample_documents

    a = hash_sample_documents("/root/testdata/sf0.001").to_pandas()
    b = hash_sample_documents("/root/testdata/sf0.001").to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # ~1/8 of 500 docs, generous bounds
    assert 30 <= len(a) <= 100

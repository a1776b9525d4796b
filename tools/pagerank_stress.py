"""Stress the dataset-native PageRank (`_pagerank_native`) at ≥1M edges.

Generates a synthetic power-law-ish undirected near-dup graph as a
symmetric (src, dst) edge Dataset (the shape `dup_graph_pagerank` builds
from pairs), runs the native power iteration, and reports wall time plus
driver RSS before/after — the point of the round-4 rewrite is that the
rank table never lives on the driver, so RSS must stay flat.

Usage: python tools/pagerank_stress.py [--edges 1200000] [--iters 10]
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd


def _rss_mb() -> float:
    """Current VmRSS (not ru_maxrss peak — that counts every plasma page
    the driver ever touched, e.g. while shipping the synthetic input)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def synth_edges(n_edges: int, n_nodes: int, seed: int = 7) -> pd.DataFrame:
    """Undirected edge list with a Zipf-skewed hub structure (template
    hubs radiate through a web corpus) — deduplicated, no self-loops."""
    rng = np.random.default_rng(seed)
    a = (rng.zipf(1.3, size=int(n_edges * 1.4)) - 1) % n_nodes
    b = rng.integers(0, n_nodes, size=len(a))
    keep = a != b
    a, b = a[keep], b[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    df = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
    return df.iloc[:n_edges].reset_index(drop=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--edges", type=int, default=1_200_000)
    ap.add_argument("--nodes", type=int, default=300_000)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--verify-nodes", type=int, default=2000,
                    help="sample size for the dense-numpy spot check")
    args = ap.parse_args()

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    from ocr_agent_ray.serialization import register_for_ray_workers
    register_for_ray_workers()
    from ocr_agent_ray.pipelines.dedup import _pagerank_native

    und = synth_edges(args.edges, args.nodes)
    sym = pd.DataFrame({
        "src": np.concatenate([und["a"].to_numpy(), und["b"].to_numpy()]),
        "dst": np.concatenate([und["b"].to_numpy(), und["a"].to_numpy()]),
    }).astype("int64")
    edges = rd.from_pandas(sym).repartition(64).materialize()

    rss0 = _rss_mb()
    t0 = time.perf_counter()
    out = _pagerank_native(edges, damping=0.85,
                           iters=args.iters).materialize()
    n_out = out.count()
    wall = time.perf_counter() - t0
    rss1 = _rss_mb()

    # dense spot check on the full graph (the synthetic graph fits a
    # driver check even though the pipeline never relies on that)
    nodes = np.unique(sym["src"].to_numpy())
    idx = np.searchsorted(nodes, sym["src"].to_numpy())
    jdx = np.searchsorted(nodes, sym["dst"].to_numpy())
    deg = np.bincount(idx, minlength=len(nodes)).astype(np.float64)
    r = np.full(len(nodes), 1.0 / len(nodes))
    base = 0.15 / len(nodes)
    for _ in range(args.iters):
        r = base + 0.85 * np.bincount(jdx, weights=r[idx] / deg[idx],
                                      minlength=len(nodes))
    got = out.to_pandas().set_index("doc_id")["pagerank"]
    sample = nodes[:: max(1, len(nodes) // args.verify_nodes)]
    err = float(np.max(np.abs(got.loc[sample].to_numpy()
                              - r[np.searchsorted(nodes, sample)])))

    print(json.dumps({
        "sym_edges": int(len(sym)), "nodes": int(len(nodes)),
        "iters": args.iters, "wall_sec": round(wall, 2),
        "edges_per_sec_per_iter": round(len(sym) * args.iters / wall, 0),
        "out_rows": int(n_out), "max_abs_err_vs_dense": err,
        "driver_rss_mb_before": round(rss0, 1),
        "driver_rss_mb_after": round(rss1, 1),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()

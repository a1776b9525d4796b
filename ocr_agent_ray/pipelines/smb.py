"""Sort-merge-bucket (SMB) layout: pay the partitioning shuffle ONCE.

The standard 100-TB bucketed-table layout (Hive bucketing / Spark
bucketed tables): write a table hash-bucketed on a key into
``path/bucket=i/`` directories — every map task splits its own rows by
bucket and writes its own files, so the WRITE needs no shuffle and no
exchange, and stays memory-flat at any scale. A later reader that
wants key k opens only bucket hash(k) — the persisted inverted index
(invindex.py) prunes every query's read this way.

Bucket assignment reuses joins.stable_bucket_array (the same hash the
in-memory bucket_hash_join uses), so a table bucketed here is
co-partitioned with any exchange-side consumer too.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ocr_agent_ray.pipelines.joins import stable_bucket_array

_MANIFEST = "_smb_manifest.json"


def write_bucketed(ds, path: str, *, key: str, num_buckets: int = 16) -> dict:
    """Write ``ds`` hash-bucketed by ``key`` under ``path/bucket=i/``.

    Shuffle-free: each map task partitions its own batch by the stable
    key hash and appends one file per non-empty bucket (task-unique
    names), exactly the Hive/Spark bucketed-write layout. A manifest
    records (key, num_buckets, rows) for readers of the layout.

    Crash discipline: files land under a task-unique name and the
    manifest is written LAST on the driver — a re-run should target a
    fresh directory (same rule as compact_parquet)."""
    os.makedirs(path, exist_ok=True)
    for b in range(num_buckets):
        os.makedirs(os.path.join(path, f"bucket={b}"), exist_ok=True)

    def _write(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["bucket", "rows"])
        buckets = stable_bucket_array(
            batch.column(key).combine_chunks(), num_buckets
        ).to_numpy(zero_copy_only=False)
        tag = uuid.uuid4().hex[:12]
        out_b, out_n = [], []
        order = np.argsort(buckets, kind="stable")
        sorted_tbl = batch.take(pa.array(order))
        sb = buckets[order]
        edges = np.flatnonzero(np.diff(sb)) + 1
        starts = np.concatenate([[0], edges])
        ends = np.concatenate([edges, [len(sb)]])
        for s, e in zip(starts, ends):
            b = int(sb[s])
            shard = sorted_tbl.slice(s, e - s)
            pq.write_table(
                shard,
                os.path.join(path, f"bucket={b}", f"part-{tag}-{b}.parquet"))
            out_b.append(b)
            out_n.append(e - s)
        return pa.Table.from_arrays(
            [pa.array(out_b, pa.int64()), pa.array(out_n, pa.int64())],
            names=["bucket", "rows"])

    stats = ds.map_batches(_write, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    manifest = {
        "key": key,
        "num_buckets": num_buckets,
        "rows": int(stats["rows"].sum()) if len(stats) else 0,
    }
    with open(os.path.join(path, _MANIFEST), "w") as f:
        json.dump(manifest, f)
    return manifest

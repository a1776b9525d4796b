"""Sort-merge-bucket layout: the shuffle-free bucketed write shares its
bucket assignment with the in-memory exchange."""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from ocr_agent_ray.pipelines.smb import write_bucketed


def test_smb_cobucketed_with_exchange_hash(ray_session, tmp_path):
    """The layout's bucket assignment equals joins.stable_bucket_array —
    a table bucketed on disk is co-partitioned with the in-memory
    exchange consumers."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.joins import stable_bucket_array

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64)})
    d = str(tmp_path / "z")
    write_bucketed(rd.from_pandas(df), d, key="k", num_buckets=8)
    for b in range(8):
        files = [f for f in os.listdir(f"{d}/bucket={b}")
                 if f.endswith(".parquet")]
        if not files:
            continue
        got = pq.read_table(f"{d}/bucket={b}").column("k")
        expect = stable_bucket_array(got.combine_chunks(), 8).to_numpy()
        assert (expect == b).all()

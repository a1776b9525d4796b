"""Randomized join fuzz: bucket_hash_join / skew_join vs DuckDB on
generated frames (skewed keys, unmatched rows, nulls-by-absence)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from ocr_agent_ray.pipelines.joins import bucket_hash_join


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("how", ["inner", "left"])
def test_bucket_hash_join_fuzz(ray_session, seed, how):
    rng = np.random.default_rng(seed)
    n_l, n_r = 400, 300
    # skewed keys: ~20% of rows share one hot key; some keys unmatched
    left = pd.DataFrame({
        "k": np.where(rng.random(n_l) < 0.2, 0, rng.integers(0, 50, n_l)),
        "lv": rng.integers(0, 1000, n_l),
    })
    right = pd.DataFrame({
        "k": rng.integers(25, 75, n_r),   # half the key range unmatched
        "rv": rng.integers(0, 1000, n_r),
    })

    got_ds = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", how=how,
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("rv", pa.int64())]),
        num_buckets=8,
    ).materialize()
    got = got_ds.to_pandas()

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    jt = "JOIN" if how == "inner" else "LEFT JOIN"
    want = con.execute(
        f"SELECT l.k, l.lv, r.rv FROM l {jt} r USING(k)"
    ).fetch_arrow_table().to_pandas()

    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)
    # typed-output guarantee: the join's ARROW blocks keep unmatched rv
    # integral (int64-with-null), not float64-upcast
    arrow_schema = got_ds.schema().base_schema
    assert pa.types.is_integer(arrow_schema.field("rv").type)


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("how", ["inner", "left"])
def test_skew_join_fuzz(ray_session, seed, how):
    """skew_join must agree with DuckDB whatever gets routed hot vs cold
    (sampled hot keys, unmatched keys, a genuinely dominant key)."""
    from ocr_agent_ray.pipelines.joins import skew_join

    rng = np.random.default_rng(seed)
    n_l, n_r = 600, 120
    left = pd.DataFrame({
        "k": np.where(rng.random(n_l) < 0.5, 3,
                      rng.integers(0, 40, n_l)).astype("int64"),
        "lv": rng.integers(0, 1000, n_l).astype("int64"),
    })
    right = pd.DataFrame({
        "k": rng.integers(20, 60, n_r).astype("int64"),  # hot key 3 may be unmatched
        "rv": rng.integers(0, 1000, n_r).astype("int64"),
    }).drop_duplicates("k")
    if seed % 2:  # half the cases give the hot key right-side matches
        right = pd.concat([right, pd.DataFrame({"k": [3], "rv": [42]})],
                          ignore_index=True)

    got = skew_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", how=how,
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("rv", pa.int64())]),
        hot_share=0.1, sample_rows=500, num_buckets=4,
    ).to_pandas()

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    jt = "JOIN" if how == "inner" else "LEFT JOIN"
    want = con.execute(
        f"SELECT l.k, l.lv, r.rv FROM l {jt} r USING(k)"
    ).fetch_arrow_table().to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)

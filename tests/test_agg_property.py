"""Aggregation strategies vs pandas oracles on randomized frames."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from ocr_agent_ray.pipelines.agg import (
    combine_partials_driver,
    distinct_rows,
    hash_partition_aggregate,
    ranged_partitioned_ranks,
)

SPEC = {
    "s": ("v", "sum"),
    "mn": ("v", "min"),
    "mx": ("v", "max"),
    "n": ("v", "count"),
}


def _oracle(df: pd.DataFrame, keys):
    g = df.groupby(keys, as_index=False).agg(
        s=("v", "sum"), mn=("v", "min"), mx=("v", "max"), n=("v", "size")
    )
    return g.sort_values(keys).reset_index(drop=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hash_partition_aggregate_matches_pandas(ray_session, seed):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "k": rng.integers(0, 500, 5000),          # int keys, many groups
        "v": rng.integers(-1000, 1000, 5000),     # int values: exact sums
    })
    got = (
        hash_partition_aggregate(rd.from_pandas(df).repartition(7), ["k"], SPEC)
        .to_pandas().sort_values(["k"]).reset_index(drop=True)
    )
    want = _oracle(df, ["k"])
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_combine_partials_driver_matches_pandas(ray_session):
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c", "d"], 3000),
        "v": rng.integers(0, 100, 3000),
    })
    got = combine_partials_driver(
        rd.from_pandas(df).repartition(5), ["k"], SPEC
    ).sort_values("k").reset_index(drop=True)
    want = _oracle(df, ["k"])
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_distinct_rows_matches_pandas(ray_session):
    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "a": rng.integers(0, 20, 2000),
        "b": rng.choice(["x", "y", "z"], 2000),
    })
    got = distinct_rows(rd.from_pandas(df).repartition(6), ["a", "b"]).to_pandas()
    want = df.drop_duplicates(["a", "b"])
    assert set(map(tuple, got.values)) == set(map(tuple, want.values))
    assert len(got) == len(want)


def test_distinct_rows_hot_leading_column(ray_session):
    """A 95%-hot leading column must not break global dedup (rows are
    bucketed by full-row hash, not by the skewed first column)."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    from ocr_agent_ray.pipelines.agg import distinct_rows

    rng = np.random.default_rng(11)
    n = 20_000
    df = pd.DataFrame({
        "k": np.where(rng.random(n) < 0.95, "hot", "cold"),
        "v": rng.integers(0, 500, n),
    })
    got = distinct_rows(rd.from_pandas(df).repartition(8), ["k", "v"],
                        num_buckets=16).to_pandas()
    want = df.drop_duplicates(["k", "v"])
    assert len(got) == len(want)
    assert (set(map(tuple, got.to_numpy()))
            == set(map(tuple, want.to_numpy())))


def test_partial_topk_equals_global_topk_under_skew(ray_session):
    """Per-batch partial top-k + groupby-final must equal the global
    per-group top-k even when one group dominates the data."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    rng = np.random.default_rng(13)
    n = 30_000
    df = pd.DataFrame({
        "o_orderpriority": np.where(rng.random(n) < 0.9, "HOT", "COLD"),
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_totalprice": rng.random(n) * 1e5,
    })

    k = 3

    def _partial(batch):
        return (batch.sort_values(["o_totalprice", "o_orderkey"],
                                  ascending=[False, True], kind="mergesort")
                     .groupby("o_orderpriority", as_index=False).head(k))

    def _final(g):
        return g.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True],
                             kind="mergesort").head(k)

    got = (rd.from_pandas(df).repartition(16)
           .map_batches(_partial, batch_format="pandas")
           .groupby("o_orderpriority")
           .map_groups(_final, batch_format="pandas")
           .to_pandas())
    want = (df.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True], kind="mergesort")
              .groupby("o_orderpriority", as_index=False).head(k))
    got = got.sort_values(["o_orderpriority", "o_orderkey"]).reset_index(drop=True)
    want = want.sort_values(["o_orderpriority", "o_orderkey"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_ranged_partitioned_ranks_planted_ties(ray_session):
    """RANK keeps gaps and DENSE_RANK doesn't, partitions rank
    independently, and ranks are correct when one partition's rows span
    several value ranges ("a" spans ranges 0 and 3, "b" ranges 0 and 1)."""
    df = pd.DataFrame({
        "event_id": range(1, 8),
        "event_type": ["a", "a", "a", "a", "b", "b", "b"],
        "value": [5.0, 5.0, 7.0, 30.0, 5.0, 9.0, 9.0],
    })
    df["__rb"] = (df["value"] // 8.0).astype("int64")
    got = ranged_partitioned_ranks(rd.from_pandas(df), "event_type",
                                   "value", "event_id").to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    assert list(got["row_num"]) == [1, 2, 3, 4, 1, 2, 3]
    assert list(got["rnk"]) == [1, 1, 3, 4, 1, 2, 2]
    assert list(got["dense_rnk"]) == [1, 1, 2, 3, 1, 2, 2]

"""Join strategies vs pandas-merge oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from ocr_agent_ray.pipelines.joins import (
    broadcast_join,
    broadcast_semi_filter,
    bucket_hash_join,
)


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 500),
        "lv": rng.standard_normal(500).round(4),
    })
    right = pd.DataFrame({
        "k": np.arange(0, 60),
        "rv": [f"r{i}" for i in range(60)],
    })
    return left, right


def _norm(df):
    return df[sorted(df.columns)].sort_values(sorted(df.columns)).reset_index(drop=True)


def test_broadcast_join(ray_session, tables):
    left, right = tables
    got = broadcast_join(rd.from_pandas(left), right, on="k").to_pandas()
    want = left.merge(right, on="k", how="inner")
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_bucket_hash_join_inner(ray_session, tables):
    left, right = tables
    got = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", num_buckets=8
    ).to_pandas()
    want = left.merge(right, on="k", how="inner")
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_bucket_hash_join_string_key(ray_session):
    left = pd.DataFrame({"k": [f"id{i%7}" for i in range(40)], "a": range(40)})
    right = pd.DataFrame({"k": [f"id{i}" for i in range(10)], "b": range(10)})
    got = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", num_buckets=4
    ).to_pandas()
    want = left.merge(right, on="k")
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "outer"])
def test_bucket_hash_join_keeps_int64_past_float_precision(ray_session, how):
    """Each side's int64 columns come through the join exact, also above
    2^53 where float64 cannot hold every integer, and also where a
    left/outer join fills the other side's columns with nulls."""
    big = 2 ** 53 + np.arange(1, 41, dtype=np.int64)
    # keys 0-4 only on the left, 10-14 only on the right
    left = pd.DataFrame({"k": np.arange(40) % 10, "a": big})
    right = pd.DataFrame({"k": np.arange(5, 15),
                          "b": 2 ** 53 + np.arange(1, 11, dtype=np.int64)})
    got = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", num_buckets=4,
        how=how,
    ).take_all()
    want = left.astype("Int64").merge(right.astype("Int64"), on="k", how=how)

    def _rows(records):
        return sorted(tuple(-1 if v is None or v is pd.NA else int(v)
                            for v in r) for r in records)

    assert _rows((r["k"], r["a"], r["b"]) for r in got) == _rows(
        want[["k", "a", "b"]].itertuples(index=False))


@pytest.mark.parametrize("how", ["left", "right", "outer"])
def test_bucket_hash_join_other_hows(ray_session, tables, how):
    left, right = tables
    got = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k",
        num_buckets=8, how=how,
    ).to_pandas()
    want = left.merge(right, on="k", how=how)
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_semi_and_anti_filter(ray_session, tables):
    left, _ = tables
    keys = [1, 2, 3]
    semi = broadcast_semi_filter(rd.from_pandas(left), keys, "k").to_pandas()
    anti = broadcast_semi_filter(rd.from_pandas(left), keys, "k", keep=False).to_pandas()
    assert set(semi["k"]) <= set(keys)
    assert set(anti["k"]).isdisjoint(keys)
    assert len(semi) + len(anti) == len(left)


def test_skew_join_matches_pandas_under_hot_key(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import skew_join

    rng = np.random.default_rng(21)
    n = 50_000
    # 90% of left rows share key 7; right has a handful of rows per key
    left = pd.DataFrame({
        "k": np.where(rng.random(n) < 0.9, 7, rng.integers(0, 200, n)).astype("int64"),
        "lv": np.arange(n, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": np.arange(0, 200, dtype=np.int64),
        "rv": np.arange(1000, 1200, dtype=np.int64),
    })

    got = skew_join(
        rd.from_pandas(left).repartition(8),
        rd.from_pandas(right).repartition(2),
        on="k",
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("rv", pa.int64())]),
        hot_share=0.05, sample_rows=10_000,
    ).to_pandas()
    want = left.merge(right, on="k")
    got = got.sort_values(["k", "lv"]).reset_index(drop=True)
    want = want.sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_skew_join_left_keeps_unmatched(ray_session):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import skew_join

    left = pd.DataFrame({"k": [1, 1, 1, 1, 2, 3], "lv": range(6)})
    left = left.astype({"k": "int64", "lv": "int64"})
    right = pd.DataFrame({"k": [1, 2], "rv": [10, 20]}).astype("int64")

    got = skew_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", how="left",
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("rv", pa.int64())]),
        hot_keys=[1],
    ).to_pandas()
    want = left.merge(right, on="k", how="left")
    got = got.sort_values(["k", "lv"]).reset_index(drop=True)
    # unmatched right ints stay integral-with-null through the typed path
    assert got["rv"].isna().sum() == 1
    assert list(got["k"]) == list(want.sort_values(["k", "lv"])["k"])


def test_bucket_anti_join_basic(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import bucket_anti_join

    left = rd.from_pandas(pd.DataFrame({
        "k": [1, 2, 3, 4, 5, 6], "v": list("abcdef")}))
    right = rd.from_pandas(pd.DataFrame({"k": [2, 4, 4, 9]}))
    out = bucket_anti_join(
        left, right, on="k",
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.string())]),
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 3, 5, 6]
    assert out["v"].tolist() == ["a", "c", "e", "f"]


def test_bucket_anti_join_empty_right(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import bucket_anti_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": ["x", "y"]}))
    right = rd.from_pandas(pd.DataFrame({"k": [7]})).filter(lambda r: False)
    out = bucket_anti_join(
        left, right, on="k",
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.string())]),
    ).to_pandas()
    assert sorted(out["k"]) == [1, 2]


def test_bucket_semi_join_basic(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import bucket_semi_join

    left = rd.from_pandas(pd.DataFrame({
        "k": [1, 2, 3, 4], "v": list("abcd")}))
    right = rd.from_pandas(pd.DataFrame({"k": [2, 4, 4]}))
    out = bucket_semi_join(
        left, right, on="k",
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.string())]),
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [2, 4]

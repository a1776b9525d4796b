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


def test_bucket_hash_join_keeps_int64_past_float_precision(ray_session):
    """Each side's int64 columns come through an inner join exact, also
    above 2^53 where float64 cannot hold every integer."""
    big = 2 ** 53 + np.arange(1, 41, dtype=np.int64)
    left = pd.DataFrame({"k": np.arange(40) % 10, "a": big})
    right = pd.DataFrame({"k": np.arange(10), "b": big[::-4]})
    got = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k", num_buckets=4
    ).to_pandas()
    want = left.merge(right, on="k")
    pd.testing.assert_frame_equal(_norm(got), _norm(want))


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


def test_bloom_pruned_join_prunes_and_matches(ray_session):
    """Bloom pruning drops non-matching left rows pre-shuffle (measured
    via the pruned row count) and the final result equals the plain
    bucketed join exactly."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data as rd

    from ocr_agent_ray.pipelines.joins import bloom_pruned_join, bucket_hash_join

    sf = "/root/testdata/sf0.001"

    def li():
        return rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_orderkey", "l_extendedprice"]).map_batches(
            lambda b: b.rename(columns={"l_orderkey": "o_orderkey"}),
            batch_format="pandas")

    def big_orders():
        return rd.read_parquet(
            f"{sf}/orders.parquet", columns=["o_orderkey", "o_totalprice"],
            filter=pc.field("o_totalprice") > 450000.0)

    ls = pa.schema([("o_orderkey", pa.int64()),
                    ("l_extendedprice", pa.float64())])
    rs = pa.schema([("o_orderkey", pa.int64()),
                    ("o_totalprice", pa.float64())])
    got = bloom_pruned_join(li(), big_orders(), on="o_orderkey",
                            left_schema=ls, right_schema=rs).to_pandas()
    want = bucket_hash_join(li(), big_orders(), on="o_orderkey",
                            left_schema=ls, right_schema=rs).to_pandas()
    key = ["o_orderkey", "l_extendedprice", "o_totalprice"]
    got = got[key].sort_values(key).reset_index(drop=True)
    want = want[key].sort_values(key).reset_index(drop=True)
    assert got.equals(want) and len(got) > 0


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


def test_fuzzy_name_pairs_non_ascii(ray_session, tmp_path):
    """Non-ASCII names must not break the per-block byte matrix (ADVICE
    r3: char-ljust-then-encode made total bytes != rows*width and the
    reshape raised). Distance is byte-level Hamming with space padding."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import fuzzy_name_pairs

    # ü/ö are 2 utf-8 bytes: names are 11 chars but 12 bytes; the pair
    # differs in exactly one byte (0xBC vs 0xB6)
    names = ["Ana Müllera", "Ana Möllera", "Zed Qwertyu", "short"]
    tbl = pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(names, pa.string()),
        "c_nationkey": pa.array([7, 7, 7, 7], pa.int32()),
    })
    pq.write_table(tbl, tmp_path / "customer.parquet")

    out = fuzzy_name_pairs(str(tmp_path), max_dist=2).to_pandas()
    pairs = {(a, b): d for a, b, d in
             zip(out["custkey_a"], out["custkey_b"], out["hamming_dist"])}
    assert pairs == {(1, 2): 1}


def _brute_band_pairs(keys, vals, delta):
    rows = []
    for i in range(len(keys)):
        for j in range(len(keys)):
            if i == j:
                continue
            a, b = (vals[i], keys[i]), (vals[j], keys[j])
            if a < b and vals[j] - vals[i] <= delta:
                rows.append((keys[i], keys[j]))
    return sorted(rows)


def test_price_band_join_planted_boundaries(ray_session, tmp_path):
    """Inclusive delta edge, equal-value ties, and pairs straddling a
    bucket boundary all match a brute-force O(n^2) reference."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import price_band_join

    # span 0..100 with nb buckets => width ~12.5; plant a pair that
    # straddles the 12.5 boundary (12.0, 13.5), an exact-delta pair
    # (20.0, 22.0), an equal-value tie (50.0 x3) and isolated points
    vals = [0.0, 12.0, 13.5, 20.0, 22.0, 22.000001, 50.0, 50.0, 50.0,
            75.0, 100.0]
    keys = list(range(1, len(vals) + 1))
    pq.write_table(pa.table({"o_orderkey": pd.array(keys, dtype="int64"),
                             "o_totalprice": pd.array(vals, dtype="float64")}),
                   str(tmp_path / "orders.parquet"))
    got = price_band_join(str(tmp_path), delta=2.0).to_pandas()
    got_pairs = sorted(zip(got["key_a"], got["key_b"]))
    assert got_pairs == _brute_band_pairs(keys, vals, 2.0)
    # the exact-delta pair is INCLUDED (<=), like the SQL twin
    assert (4, 5) in got_pairs


def test_price_band_join_fuzz_vs_bruteforce(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import price_band_join

    rng = np.random.default_rng(7)
    vals = np.round(rng.uniform(0, 500, size=400), 2)
    keys = np.arange(1, 401, dtype=np.int64)
    pq.write_table(pa.table({"o_orderkey": keys,
                             "o_totalprice": vals}),
                   str(tmp_path / "orders.parquet"))
    got = price_band_join(str(tmp_path), delta=3.0,
                          num_buckets=16).to_pandas()
    got_pairs = sorted(zip(got["key_a"], got["key_b"]))
    want = _brute_band_pairs(keys.tolist(), vals.tolist(), 3.0)
    assert got_pairs == want
    assert len(want) > 100  # the fuzz actually exercises pair volume


def test_price_band_join_exact_delta_at_dirty_edges(ray_session, tmp_path):
    """ADVICE r4: pairs EXACTLY delta apart straddling a bucket edge,
    with dirty (non-representable) decimal anchors so the truncated
    division can place the anchor a half-ulp off the reconstructed
    edge — the inclusive sliver margin must keep every such pair."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import price_band_join

    rng = np.random.default_rng(23)
    # dirty anchors on a 0.1 grid; each plants its exact-delta partner
    anchors = np.round(rng.uniform(0.1, 400.0, size=150) * 10) / 10.0
    vals = np.concatenate([anchors, anchors + 2.0,
                           rng.uniform(0, 410, size=100)])
    keys = np.arange(1, len(vals) + 1, dtype=np.int64)
    for nb in (4, 16, 64):
        pq.write_table(pa.table({"o_orderkey": keys,
                                 "o_totalprice": vals}),
                       str(tmp_path / "orders.parquet"))
        got = price_band_join(str(tmp_path), delta=2.0,
                              num_buckets=nb).to_pandas()
        got_pairs = sorted(zip(got["key_a"], got["key_b"]))
        # the SQL twin (and the kernel) pin the b <= a + delta float
        # form, NOT (b - a) <= delta — the two differ by an ulp on
        # dirty anchors, so the reference must use the twin's form
        want = sorted(
            (int(keys[i]), int(keys[j]))
            for i in range(len(vals)) for j in range(len(vals))
            if ((vals[i], keys[i]) < (vals[j], keys[j])
                and vals[j] <= vals[i] + 2.0))
        assert got_pairs == want, f"num_buckets={nb}"


def test_jaro_winkler_kernel_bitwise_vs_duckdb(ray_session, tmp_path):
    """The pair-vectorized JW kernel matches DuckDB's
    jaro_winkler_similarity BITWISE on random strings (varied lengths,
    transposition-heavy alphabets) and on the textbook pairs."""
    import duckdb
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import jaro_winkler_pairs

    # textbook values through the blocked-pipeline path: one nation,
    # names planted so specific pairs land above/below the cut
    cust = pd.DataFrame({
        "c_custkey": np.arange(6, dtype=np.int64),
        "c_name": ["MARTHA", "MARHTA", "DWAYNE", "DUANE",
                   "DIXON", "DICKSONX"],
        "c_nationkey": np.int64(0)})
    pq.write_table(pa.Table.from_pandas(cust, preserve_index=False),
                   str(tmp_path / "customer.parquet"))
    got = jaro_winkler_pairs(str(tmp_path), threshold=0.8).to_pandas()
    got = got.set_index(["custkey_a", "custkey_b"])
    assert abs(got.loc[(0, 1), "jw"] - 0.961111) < 1e-9   # MARTHA/MARHTA
    assert abs(got.loc[(2, 3), "jw"] - 0.84) < 1e-9       # DWAYNE/DUANE
    assert abs(got.loc[(4, 5), "jw"] - 0.813333) < 1e-9   # DIXON/DICKSONX

    # bitwise fuzz against DuckDB: plant random names in one nation
    # and compare the full pair table through the blocked path
    rng = random.Random(23)
    names = []
    for _ in range(60):
        n = rng.randint(1, 14)
        names.append("".join(rng.choice("abcd01") for _ in range(n)))
    cust = pd.DataFrame({
        "c_custkey": np.arange(len(names), dtype=np.int64),
        "c_name": names, "c_nationkey": np.int64(0)})
    pq.write_table(pa.Table.from_pandas(cust, preserve_index=False),
                   str(tmp_path / "customer.parquet"))
    got = jaro_winkler_pairs(str(tmp_path), threshold=0.0).to_pandas()
    got = got.sort_values(["custkey_a", "custkey_b"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE TABLE c(k BIGINT, n VARCHAR)")
    con.executemany("INSERT INTO c VALUES (?,?)",
                    list(zip(range(len(names)), names)))
    want = con.execute(
        "SELECT a.k, b.k, jaro_winkler_similarity(a.n, b.n) FROM c a "
        "JOIN c b ON a.k < b.k ORDER BY 1, 2").fetchall()
    assert len(got) == len(want)
    for (ka, kb, jw), (_, row) in zip(want, got.iterrows()):
        assert row["custkey_a"] == ka and row["custkey_b"] == kb
        # pipeline rounds to 6; the unrounded kernel is bitwise-equal,
        # so rounding DuckDB's value must reproduce the pipeline's
        assert row["jw"] == np.round(jw, 6) or abs(row["jw"] - jw) < 1e-6


def test_sorted_neighborhood_boundary_stitch_vs_bruteforce(
        ray_session, tmp_path):
    """Range-exchange + boundary-strip stitching == the brute-force
    rank-window join, including the pathological regime where buckets
    are SMALLER than the window (driver-owned buckets spanning several
    boundaries) and the single-bucket regime."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import sorted_neighborhood_pairs

    rng = random.Random(41)
    names = []
    for i in range(120):
        n = rng.randint(3, 10)
        names.append("".join(rng.choice("abcdef") for _ in range(n)))
    cust = pd.DataFrame({
        "c_custkey": np.arange(len(names), dtype=np.int64),
        "c_name": names})
    pq.write_table(pa.Table.from_pandas(cust, preserve_index=False),
                   str(tmp_path / "customer.parquet"))

    order = sorted(range(len(names)), key=lambda i: (names[i], i))
    want = set()
    w = 5
    for a in range(len(order)):
        for b in range(a + 1, min(a + w, len(order))):
            want.add((order[a], order[b], b - a))

    for nb in (1, 4, 64):  # 64 buckets over 120 rows -> tiny buckets
        got = sorted_neighborhood_pairs(
            str(tmp_path), window=w, num_buckets=nb)
        got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
        got_set = set(zip(got["custkey_a"], got["custkey_b"],
                          got["rank_gap"]))
        assert got_set == want, f"num_buckets={nb}"
        assert len(got) == len(want)  # no duplicate emissions

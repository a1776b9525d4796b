"""Unit tests for the raw-Ray hash exchange (pipelines/exchange.py):
equivalence with groupby().map_groups over every mode, empty-input and
empty-bucket behavior, mixed pandas/Arrow-block unions, and Arrow-table
kernel outputs."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from ocr_agent_ray.pipelines.exchange import (
    bucket_map_groups,
    grouped_map_groups,
    key_map_groups,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _events(n=1000, users=37, seed=7):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, users, size=n),
        "value": np.round(rng.uniform(0, 100, size=n), 3),
        "source": rng.choice(["web", "app", "api"], size=n),
    })


def _sorted(df, cols):
    return (df.sort_values(cols).reset_index(drop=True))


def test_bucket_map_groups_matches_groupby(ray_session):
    df = _events()
    num_buckets = 8

    def _key(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__b=(b["user_id"] % num_buckets).astype("int32"))

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"])
        out = g.groupby("user_id", sort=False, as_index=False).agg(
            n=("event_id", "size"), total=("value", "sum"))
        return out

    keyed = rd.from_pandas(df).repartition(5).map_batches(
        _key, batch_format="pandas")
    got = bucket_map_groups(keyed, _kernel,
                            num_buckets=num_buckets).to_pandas()
    want = (keyed.groupby("__b")
            .map_groups(_kernel, batch_format="pandas").to_pandas())
    pd.testing.assert_frame_equal(_sorted(got, ["user_id"]),
                                  _sorted(want, ["user_id"]))


def test_key_map_groups_per_key_granularity(ray_session):
    """key_map_groups must call the kernel once per DISTINCT key, exactly
    like groupby(key) — kernels read g[key].iloc[0] as THE key."""
    df = _events()
    ds = rd.from_pandas(df).repartition(4).map_batches(
        lambda b: b.assign(__rb=(b["event_id"] // 100).astype("int64")),
        batch_format="pandas")

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        assert g["__rb"].nunique() == 1  # one key per call
        return pd.DataFrame({"rb": [int(g["__rb"].iloc[0])],
                             "n": [len(g)]})

    got = key_map_groups(ds, _kernel, num_buckets=4,
                         key_col="__rb").to_pandas()
    want = (df.assign(__rb=(df["event_id"] // 100))
            .groupby("__rb").size().rename("n").reset_index()
            .rename(columns={"__rb": "rb"}))
    pd.testing.assert_frame_equal(
        _sorted(got, ["rb"]), _sorted(want.astype({"rb": "int64"}), ["rb"]))


def test_grouped_map_groups_string_keys(ray_session):
    df = _events()
    ds = rd.from_pandas(df).repartition(4)

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        assert g["source"].nunique() == 1
        return pd.DataFrame({"source": [g["source"].iloc[0]],
                             "n": [len(g)],
                             "total": [float(g["value"].sum())]})

    # num_buckets=2 < 3 sources: forces two sources into one bucket —
    # the reduce must still regroup them exactly
    got = grouped_map_groups(ds, _kernel, key_col="source",
                             num_buckets=2).to_pandas()
    want = df.groupby("source", as_index=False).agg(
        n=("event_id", "size"), total=("value", "sum"))
    got = _sorted(got, ["source"])
    want = _sorted(want, ["source"])
    assert got["source"].tolist() == want["source"].tolist()
    assert got["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    np.testing.assert_allclose(got["total"], want["total"])


def test_empty_input_keeps_kernel_schema(ray_session):
    empty = pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                          "__b": pd.Series(dtype="int32")})
    ds = rd.from_pandas(empty)

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                             "n": pd.Series(dtype="int64")})

    out = bucket_map_groups(ds, _kernel, num_buckets=4)
    # Ray's to_pandas drops columns for ANY empty dataset; the dataset
    # schema itself must carry the kernel's columns (groupby would have
    # emitted no schema at all here)
    assert out.schema().names == ["user_id", "n"]
    assert out.count() == 0


def test_empty_input_crashy_kernel_degrades_to_no_columns(ray_session):
    """A kernel that can't run on an empty frame (e.g. iloc[0]) must not
    crash the exchange on empty input — groupby would simply emit no
    groups."""
    empty = pd.DataFrame({"k": pd.Series(dtype="int64")})
    ds = rd.from_pandas(empty)

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [int(g["k"].iloc[0])]})

    out = key_map_groups(ds, _kernel, key_col="k", num_buckets=4).to_pandas()
    assert len(out) == 0


def test_empty_buckets_never_reach_kernel(ray_session):
    """Only 3 distinct bucket values but 64 buckets: the kernel must only
    see the 3 non-empty ones."""
    df = pd.DataFrame({"x": np.arange(30, dtype=np.int64),
                       "__b": np.repeat([2, 17, 40], 10).astype("int32")})
    ds = rd.from_pandas(df).repartition(3)

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        assert len(g) == 10
        return pd.DataFrame({"b": [int(g["__b"].iloc[0])], "n": [len(g)]})

    out = bucket_map_groups(ds, _kernel, num_buckets=64).to_pandas()
    assert sorted(out["b"]) == [2, 17, 40]
    assert out["n"].tolist() == [10, 10, 10]


def test_union_of_pandas_and_arrow_blocks(ray_session):
    """to_arrow_refs trusts the dataset schema; a union that mixes Arrow
    and pandas blocks must still split correctly."""
    df = _events(200)
    arrow_side = rd.from_pandas(df).map_batches(
        lambda t: t, batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "__b", pa.array((t["user_id"].to_numpy() % 4).astype("int32"))),
        batch_format="pyarrow")
    pandas_side = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 4).astype("int32")),
        batch_format="pandas")
    both = arrow_side.union(pandas_side)

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"b": [int(g["__b"].iloc[0])], "n": [len(g)]})

    out = bucket_map_groups(both, _kernel, num_buckets=4).to_pandas()
    assert int(out["n"].sum()) == 2 * len(df)


def test_arrow_table_kernel_output(ray_session):
    df = _events(100)
    ds = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 4).astype("int32")),
        batch_format="pandas")

    def _kernel(g: pd.DataFrame) -> pa.Table:
        return pa.table({"n": pa.array([len(g)], pa.int64())})

    out = bucket_map_groups(ds, _kernel, num_buckets=4).to_pandas()
    assert int(out["n"].sum()) == len(df)


def test_exchange_shards_two_waves_consistent(ray_session):
    """Shard reuse: a stats wave and a data wave over the SAME split must
    see identical row populations (the ranked/scan family's contract)."""
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    df = _events(500)
    ds = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__rb=(b["user_id"] * 7 + 3).astype("int64")),
        batch_format="pandas")
    shards = exchange_shards(ds, bucket_col="__rb", num_buckets=8,
                             mode="mod")

    counts = shards.reduce(
        lambda g: pd.DataFrame({"n": [len(g)]})).to_pandas()
    assert int(counts["n"].sum()) == len(df)

    ids = shards.reduce(
        lambda g: g[["event_id"]], group_col="__rb").to_pandas()
    assert sorted(ids["event_id"]) == sorted(df["event_id"])


def test_exchange_shards_empty_input(ray_session):
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    ds = rd.from_pandas(_events(50)).map_batches(
        lambda b: b.assign(__rb=b["user_id"].astype("int64")),
        batch_format="pandas").filter(lambda r: False)
    shards = exchange_shards(ds, bucket_col="__rb", num_buckets=4,
                             mode="mod")
    assert int(shards.counts.sum()) == 0

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": pd.Series([], dtype="int64")})

    out = shards.reduce(_kernel).to_pandas()
    assert len(out) == 0


def test_exchange_shards_grouped_wave_granularity(ray_session):
    """group_col reduce runs the kernel once per distinct key, ascending,
    same as the one-shot key_map_groups."""
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    df = _events(300)
    ds = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__rb=(b["user_id"] % 10).astype("int64")),
        batch_format="pandas")
    shards = exchange_shards(ds, bucket_col="__rb", num_buckets=4,
                             mode="mod")

    def _one(g: pd.DataFrame) -> pd.DataFrame:
        assert g["__rb"].nunique() == 1
        return pd.DataFrame({"rb": [int(g["__rb"].iloc[0])],
                             "n": [len(g)]})

    out = shards.reduce(_one, group_col="__rb").to_pandas()
    expected = df.assign(rb=df["user_id"] % 10).groupby("rb").size()
    got = out.set_index("rb")["n"].sort_index()
    assert got.to_dict() == expected.to_dict()


def test_exchange_survives_worker_death(ray_session, tmp_path):
    """Raw-Ray exchange resilience: a reduce task whose worker process
    DIES (not an exception — os._exit) is retried by Ray's task retry
    and the second attempt succeeds; output is complete and correct.
    This is the multi-node lost-worker story for the drop-to-raw-Ray
    path — split outputs are plain objects, so a retried reduce
    re-fetches them from the object store."""
    import os

    flag = str(tmp_path / "died_once")

    df = _events(200)
    ds = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 4).astype("int32")),
        batch_format="pandas")

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        if int(g["__b"].iloc[0]) == 1 and not os.path.exists(flag):
            open(flag, "w").write("x")
            os._exit(1)  # hard worker death, not an exception
        return pd.DataFrame({"b": [int(g["__b"].iloc[0])],
                             "n": [len(g)]})

    out = bucket_map_groups(ds, _kernel, num_buckets=4).to_pandas()
    assert int(out["n"].sum()) == len(df)
    assert sorted(out["b"]) == [0, 1, 2, 3]
    assert os.path.exists(flag)  # the death really happened


def test_eager_submit_immediate_ref_drop_race(ray_session):
    """Round-3 fatal race regression (VERDICT r3 item 5): reduce waves
    submitted eagerly while every caller-side python ref (the
    ExchangedShards AND the result Dataset) is dropped immediately must
    never trip Ray's ReferenceCounter 'submitted_task_ref_count' fatal
    check. 100 consecutive waves; the old per-wave shape crashed the
    driver ~1-in-5 sweeps, so a regression kills this process."""
    import gc

    from ocr_agent_ray.pipelines.exchange import exchange_shards

    df = _events(400, users=50)
    base = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 8).astype("int64")),
        batch_format="pandas").materialize()

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"b": [int(g["__b"].iloc[0])], "n": [len(g)]})

    last = None
    for i in range(100):
        shards = exchange_shards(base, bucket_col="__b", num_buckets=8,
                                 mode="direct")
        out = shards.reduce(_kernel)
        if i == 99:
            last = out.to_pandas()
        # drop EVERYTHING immediately — tasks may still be resolving args
        del shards, out
        if i % 10 == 0:
            gc.collect()
    assert int(last["n"].sum()) == len(df)


def test_shard_coalescing_same_output_and_bounded_refs(ray_session):
    """max_shard_sets forces same-bucket shard coalescing; the reduce
    output is identical to the uncoalesced exchange and the retained
    shard-set count respects the bound."""
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    df = _events(600, users=23)
    base = rd.from_pandas(df).repartition(12).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 4).astype("int64")),
        batch_format="pandas").materialize()

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "b": [int(g["__b"].iloc[0])],
            "n": [len(g)],
            "s": [round(float(g["value"].sum()), 3)],
        })

    plain = exchange_shards(base, bucket_col="__b", num_buckets=4,
                            mode="direct")
    merged = exchange_shards(base, bucket_col="__b", num_buckets=4,
                             mode="direct", max_shard_sets=3)
    assert len(merged.shard_refs) <= 3
    assert (plain.counts == merged.counts).all()
    a = _sorted(plain.reduce(_kernel).to_pandas(), ["b"])
    b = _sorted(merged.reduce(_kernel).to_pandas(), ["b"])
    pd.testing.assert_frame_equal(a, b)
    # two waves over the SAME coalesced shards still work (multi-pass)
    c = _sorted(merged.reduce(_kernel).to_pandas(), ["b"])
    pd.testing.assert_frame_equal(a, c)
    merged.release()
    assert merged.shard_refs == []


def test_finished_waves_release_their_pins(ray_session):
    """A wave's shard pins last until ray.wait reports its tasks finished:
    the next exchange call drops every consumed wave, so after each of k
    consumed waves at most that last wave is still pinned — no timer, no
    sleeps, no unbounded growth."""
    from ocr_agent_ray.pipelines import exchange as ex

    df = _events(200)
    base = rd.from_pandas(df).map_batches(
        lambda b: b.assign(__b=(b["user_id"] % 4).astype("int64")),
        batch_format="pandas").materialize()

    def _kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"b": [int(g["__b"].iloc[0])], "n": [len(g)]})

    for _ in range(5):
        out = ex.exchange_shards(base, bucket_col="__b", num_buckets=4,
                                 mode="direct").reduce(_kernel)
        assert int(out.to_pandas()["n"].sum()) == 200
        assert ex.pinned_waves() <= 1


def test_shutdown_immediately_after_wave_is_clean():
    """Regression for the round-4 scaling-bench crash: ray.shutdown()
    issued right after the last exchange wave must not be racy against
    the pin reaper (the old ray.wait-polling reaper hit a fatal
    'core worker already shutdown' access from its thread). Runs in a
    subprocess because it owns its own Ray session."""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import ray, pandas as pd
        import ray.data as rd
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from ocr_agent_ray.serialization import register_for_ray_workers
        register_for_ray_workers()
        from ocr_agent_ray.pipelines.exchange import exchange_shards
        df = pd.DataFrame({"k": list(range(2000))})
        base = rd.from_pandas(df).map_batches(
            lambda b: b.assign(__b=(b["k"] % 4).astype("int64")),
            batch_format="pandas").materialize()
        out = exchange_shards(base, bucket_col="__b", num_buckets=4,
                              mode="direct").reduce(
            lambda g: pd.DataFrame({"n": [len(g)]}))
        assert int(out.to_pandas()["n"].sum()) == 2000
        ray.shutdown()   # immediately after the wave: the crash window
        print("CLEAN-EXIT")
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "CLEAN-EXIT" in proc.stdout


def test_pin_expiry_after_shutdown_is_clean():
    """Regression for the round-4 FULL-bench crash: the process idles
    after ray.shutdown() with the last wave still pinned (the old TTL
    reaper dropped those refs from its thread here: a core-worker access
    and a fatal abort post-shutdown). Pins are only ever dropped by an
    exchange call on the caller's thread while Ray is live, so idling and
    exiting stay clean. Runs in a subprocess (own Ray session, and the
    crash kills the process)."""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import time
        import ray, pandas as pd
        import ray.data as rd
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from ocr_agent_ray.serialization import register_for_ray_workers
        register_for_ray_workers()
        from ocr_agent_ray.pipelines import exchange as ex
        df = pd.DataFrame({"k": list(range(2000))})
        base = rd.from_pandas(df).map_batches(
            lambda b: b.assign(__b=(b["k"] % 4).astype("int64")),
            batch_format="pandas").materialize()
        out = ex.exchange_shards(base, bucket_col="__b", num_buckets=4,
                                 mode="direct").reduce(
            lambda g: pd.DataFrame({"n": [len(g)]}))
        assert int(out.to_pandas()["n"].sum()) == 2000
        assert ex.pinned_waves() >= 1
        ray.shutdown()
        time.sleep(4)        # idle with Ray gone and the wave pinned
        print("CLEAN-EXIT")
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "CLEAN-EXIT" in proc.stdout

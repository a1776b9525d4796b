"""Driver-contract smoke: entry() runs, queries()/oracle_sql() are consistent."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entrymod


def test_oracle_keys_subset_of_queries():
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    # the majority of queries should be SQL-checkable
    assert len(oracles) >= 15


def test_entry_returns_rows(ray_session):
    ds = entrymod.entry()
    assert ds.count() > 0
    names = set(ds.schema().names)
    assert names == {"doc_id", "spans"}


@pytest.mark.parametrize("name", ["q_status_counts", "q_corpus_report"])
def test_sample_query_runs(ray_session, name):
    out = entrymod.queries()[name]("/root/testdata/sf0.001")
    n = len(out) if hasattr(out, "__len__") else out.count()
    assert n > 0


def test_driver_window_is_oracled():
    """The driver oracles only the first 50 queries(): past the 8-entry
    marquee core, every one of them must have an oracle_sql() twin."""
    names = list(entrymod.queries())
    oracles = entrymod.oracle_sql()
    assert [k for k in names[8:50] if k not in oracles] == []


def test_views_before_purchase_matches_oracle(ray_session):
    """The stream-stream interval join equals its DuckDB oracle at
    sf0.01 — value-exact after column alignment."""
    import duckdb
    import pandas as pd

    name = "q_views_before_purchase"
    sf = "/root/testdata/sf0.01"
    out = entrymod.queries()[name](sf)
    got = out.to_pandas() if hasattr(out, "to_pandas") else out
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(entrymod.oracle_sql()[name]).df()
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want) and len(got) > 0, name
    key = list(got.columns)
    g = got.sort_values(key).reset_index(drop=True)
    w = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_interval_join_window_boundaries(ray_session, tmp_path):
    """Window-edge semantics of the interval join: a view at exactly
    p.ts - W is IN the window, a view at exactly p.ts is OUT, and the
    gap is measured to the latest in-window view."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.streaming import views_before_purchase

    W_us = 360 * 60_000_000
    p_ts = pd.Timestamp("2024-01-05 12:00:00")
    rows = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "ts": [p_ts - pd.Timedelta(microseconds=W_us),   # exactly -W: in
               p_ts - pd.Timedelta(minutes=5),           # in (latest)
               p_ts,                                     # exactly p.ts: out
               p_ts - pd.Timedelta(microseconds=W_us + 1),  # out (too old)
               p_ts,                                     # the purchase
               p_ts - pd.Timedelta(minutes=1)],          # other user: out
        "user_id": [7, 7, 7, 7, 7, 8],
        "event_type": ["view"] * 4 + ["purchase", "view"],
        "value": [0.0] * 6,
        "props": ["{}"] * 6,
    })
    pq.write_table(pa.Table.from_pandas(rows), f"{tmp_path}/events.parquet")
    out = views_before_purchase(str(tmp_path)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["event_id"], r["user_id"], r["n_views"]) == (5, 7, 2)
    assert r["last_gap_us"] == 5 * 60_000_000

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


@pytest.mark.parametrize("name", ["q_status_counts", "q_pricing_summary"])
def test_sample_query_runs(ray_session, name):
    out = entrymod.queries()[name]("/root/testdata/sf0.001")
    n = len(out) if hasattr(out, "__len__") else out.count()
    assert n > 0


TPCH_R4 = ["q_nation_volume", "q_market_share", "q_product_profit",
           "q_top_supplier", "q_small_qty_revenue",
           "q_disjunctive_revenue", "q_idle_rich_customers"]


@pytest.mark.parametrize("name", TPCH_R4)
def test_round4_tpch_shapes_match_oracle(ray_session, name):
    """The round-4 TPC-H shapes (Q7/Q8/Q9'/Q15/Q17/Q19/Q22') equal their
    DuckDB oracles at sf0.01 — value-exact after column alignment."""
    import duckdb
    import pandas as pd

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
    key = list(got.columns)
    g = got.sort_values(key).reset_index(drop=True)
    w = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


TPCH_FINAL = ["q_min_cost_supplier", "q_important_parts",
              "q_returnflag_priority", "q_supplier_cnt_by_part",
              "q_dominant_suppliers", "q_views_before_purchase"]


@pytest.mark.parametrize("name", TPCH_FINAL)
def test_final_tpch_and_interval_shapes_match_oracle(ray_session, name):
    """The last five TPC-H shapes (Q2/Q11/Q12/Q16/Q20 — completing all
    22) and the stream-stream interval join equal their DuckDB oracles
    at sf0.01 — value-exact after column alignment."""
    import duckdb
    import pandas as pd

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

"""Local mimic of the driver's correctness gate.

Runs every __ray_entry__.queries() entry and its oracle_sql() twin on the
same sf_dir, compares row count, column names, and (column-name-sorted,
row-sorted) values. Usage:

    python tools/check_parity.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import warnings

warnings.filterwarnings("ignore")

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_arrow(result):
    """Result → pyarrow.Table preserving the producer's types (the driver
    hashes typed values: int64 123 != float64 123.0)."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pa.Table):
        return result
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    import ray

    tables = [t for t in ray.get(result.to_arrow_refs()) if len(t)]
    if not tables:
        return pa.Table.from_pandas(result.to_pandas(), preserve_index=False)
    return pa.concat_tables(tables, promote_options="default")


def value_hash(df):
    """Dtype-aware hash mimicking the driver. The driver materializes BOTH
    sides through *pandas* (duckdb `.df()`, ray `.to_pandas()`) — so a
    DuckDB nullable BIGINT arrives as float64 (231.0) while a Ray-side
    pandas Int64 arrives as 231, and the two hash differently (the round-2
    driver fails on exactly this). Hash the pandas cell values' reprs,
    columns sorted by name, rows sorted — NO dtype normalization."""
    import hashlib

    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    h = hashlib.md5()
    for row in df.itertuples(index=False):
        for v in row:
            h.update(repr(v).encode())
            h.update(b"\x1f")
        h.update(b"\x1e")
    return h.hexdigest()


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def normalize(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main():
    import duckdb
    import pandas as pd
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    records: dict[str, dict] = {}

    def _rec(name, **kw):
        base = {"rows_match": None, "schema_match": None, "hash_match": None,
                "ray_rows": None, "oracle_rows": None, "err": None}
        base.update(kw)
        records[name] = base

    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_result = fn(sf_dir)
            ray_arrow = to_arrow(ray_result)
            ray_df = normalize(ray_arrow.to_pandas())
            # driver-style materialization for the typed hash: the driver
            # reads the Ray result through pandas, not Arrow
            ray_driver_df = to_pandas(ray_result)
        except Exception as e:
            failures.append(name)
            _rec(name, err=f"ray:{type(e).__name__}")
            print(f"FAIL {name}: ray raised {type(e).__name__}: {e}")
            continue
        if name not in oracles:
            _rec(name, ray_rows=len(ray_df), err="no_oracle")
            print(f"ok   {name}: rows-only ({len(ray_df)} rows)")
            continue
        try:
            cur = con.execute(oracles[name])
            sql_driver_df = cur.df()  # the driver's materialization path
            sql_arrow = con.execute(oracles[name]).fetch_arrow_table()
            sql_df = normalize(sql_arrow.to_pandas())
        except Exception as e:
            failures.append(name)
            _rec(name, ray_rows=len(ray_df), err=f"oracle:{type(e).__name__}")
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            continue
        if len(ray_df) != len(sql_df):
            failures.append(name)
            _rec(name, rows_match=False, ray_rows=len(ray_df),
                 oracle_rows=len(sql_df))
            print(f"FAIL {name}: rows ray={len(ray_df)} sql={len(sql_df)}")
            continue
        if list(ray_df.columns) != list(sql_df.columns):
            failures.append(name)
            _rec(name, rows_match=True, schema_match=False,
                 ray_rows=len(ray_df), oracle_rows=len(sql_df))
            print(f"FAIL {name}: cols ray={list(ray_df.columns)} sql={list(sql_df.columns)}")
            continue
        try:
            pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False,
                                          check_exact=True)
        except AssertionError as e:
            failures.append(name)
            _rec(name, rows_match=True, schema_match=True, hash_match=False,
                 ray_rows=len(ray_df), oracle_rows=len(sql_df))
            print(f"FAIL {name}: values differ\n{str(e)[:800]}")
            continue
        try:
            rh, sh = value_hash(ray_driver_df), value_hash(sql_driver_df)
        except Exception as e:
            _rec(name, rows_match=True, schema_match=True,
                 ray_rows=len(ray_df), oracle_rows=len(sql_df),
                 err=f"hash_skipped:{type(e).__name__}")
            print(f"ok   {name}: {len(ray_df)} rows exact (hash skipped: {e})")
            continue
        if rh != sh:
            failures.append(name)
            _rec(name, rows_match=True, schema_match=True, hash_match=False,
                 ray_rows=len(ray_df), oracle_rows=len(sql_df))
            print(f"FAIL {name}: typed value-hash mismatch (dtype drift?) "
                  f"ray={list(ray_driver_df.dtypes)} "
                  f"sql={list(sql_driver_df.dtypes)}")
        else:
            _rec(name, rows_match=True, schema_match=True, hash_match=True,
                 ray_rows=len(ray_df), oracle_rows=len(sql_df))
            print(f"ok   {name}: {len(ray_df)} rows exact+hash")
    print("---")
    print("FAILURES:", failures if failures else "none")
    out_json = os.environ.get("GRAFT_PARITY_JSON")
    if out_json:
        import json

        with open(out_json, "w") as f:
            json.dump({"sf_dir": sf_dir, "queries": records,
                       "failures": failures}, f, indent=1, sort_keys=True)
        print(f"wrote {out_json} ({len(records)} queries)")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

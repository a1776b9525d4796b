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


@pytest.mark.parametrize("name", ["q_token_count_by_source",
                                  "q_corpus_report", "q_source_quota_cap"])
def test_sample_query_runs(ray_session, name):
    import ray.data as rd

    out = entrymod.queries()[name]("/root/testdata/sf0.001")
    n = out.count() if isinstance(out, rd.Dataset) else len(out)
    assert n > 0


def test_driver_window_is_oracled():
    """The driver oracles only the first 50 queries(): past the 8-entry
    marquee core, every one of them must have an oracle_sql() twin."""
    names = list(entrymod.queries())
    oracles = entrymod.oracle_sql()
    assert [k for k in names[8:50] if k not in oracles] == []
    # an oracle left behind by a deleted query names no queries() entry
    assert [k for k in oracles if k not in names] == []


def test_oracles_read_only_the_extraction_schema():
    """Every oracle_sql() statement reads only `documents` and
    `embeddings`: each name after FROM/JOIN is one of them or a CTE the
    statement defines."""
    import re

    cte = re.compile(r"(?:\bWITH|,)\s*(?:RECURSIVE\s+)?(\w+)\s*"
                     r"(?:\([^()]*\))?\s+AS\s*(?:MATERIALIZED\s*)?\(", re.I)
    read = re.compile(r"\b(?:FROM|JOIN)\s+(\w+)", re.I)
    outside = {}
    for name, sql in entrymod.oracle_sql().items():
        tables = {t.lower() for t in read.findall(sql)}
        tables -= {t.lower() for t in cte.findall(sql)}
        if tables - {"documents", "embeddings"}:
            outside[name] = sorted(tables - {"documents", "embeddings"})
    assert outside == {}

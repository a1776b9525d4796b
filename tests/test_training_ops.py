"""Third-session training-data operators: corpus-wide line dedup,
sequence packing, mixture sampling, deterministic shuffle order, NTILE
length bucketing, duplicate n-gram span detection."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, df: pd.DataFrame) -> str:
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_line_dedup_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import line_dedup

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "alpha\nshared line\nbeta",
            "shared line\ngamma\nshared line",   # dup of doc1 + internal dup
            "gamma\ndelta",                       # 'gamma' first seen in doc2
            "shared line",                        # everything deduped away
        ],
    })
    sf = _write_docs(tmp_path, df)
    got = line_dedup(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["clean_text"]) == [
        "alpha\nshared line\nbeta",  # doc1: all first occurrences
        "gamma",                     # doc2: both 'shared line's lose to doc1
        "delta",                     # doc3: 'gamma' lost to doc2
        "",                          # doc4: nothing survives
    ]
    assert list(got["n_kept_lines"]) == [3, 1, 1, 0]
    assert list(got["n_lines"]) == [3, 3, 2, 1]


def test_line_dedup_whole_corpus_conservation(ray_session):
    from ocr_agent_ray.pipelines.text import line_dedup

    got = line_dedup(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    assert len(got) == len(docs)
    # every distinct line survives exactly once corpus-wide
    n_distinct = docs["text"].str.split("\n").explode().nunique()
    assert int(got["n_kept_lines"].sum()) == n_distinct
    assert (got["n_kept_lines"] <= got["n_lines"]).all()


def test_pack_sequences_invariants(ray_session):
    from ocr_agent_ray.functions.textstats import token_counts
    from ocr_agent_ray.pipelines.text import pack_sequences

    budget, group = 256, 64
    got = pack_sequences(SF, budget=budget, group=group).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    # every doc exactly once, token counts match the scalar kernel
    assert sorted(got["doc_id"]) == sorted(docs["doc_id"])
    want_tokens = dict(zip(docs["doc_id"], token_counts(docs["text"])))
    assert all(want_tokens[d] == t
               for d, t in zip(got["doc_id"], got["n_tokens"]))
    # packs respect the budget unless a single doc overflows it
    per = got.groupby("pack_id").agg(total=("n_tokens", "sum"),
                                     n=("doc_id", "size"))
    over = per[per["total"] > budget]
    assert (over["n"] == 1).all()
    # pack_pos is dense 0..k-1 in doc_id order within each pack
    for _, g in got.groupby("pack_id"):
        g = g.sort_values("doc_id")
        assert list(g["pack_pos"]) == list(range(len(g)))
    # packing never crosses a group boundary
    assert ((got["doc_id"] // group) == (got["pack_id"] // group)).all()
    # deterministic
    again = pack_sequences(SF, budget=budget, group=group).to_pandas()
    merged = got.merge(again, on="doc_id", suffixes=("", "_b"))
    assert (merged["pack_id"] == merged["pack_id_b"]).all()
    assert (merged["pack_pos"] == merged["pack_pos_b"]).all()


def test_mixture_sample_matches_python(ray_session):
    from ocr_agent_ray.pipelines.relational import mixture_sample_documents

    got = mixture_sample_documents(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    thresholds = [65536 * (k + 1) // 10 for k in range(5)]
    want = {
        int(d) for d, s in zip(docs["doc_id"], docs["source"])
        if int.from_bytes(hashlib.md5(str(d).encode()).digest()[:2], "big")
        < thresholds[int(s[3:]) % 5]
    }
    assert set(got["doc_id"]) == want
    # higher-rate sources keep more: rate is (src_num % 5 + 1)/10
    rates = (got["source"].str.slice(3).astype(int) % 5).value_counts()
    assert rates.loc[4] > rates.loc[0]


def test_shuffle_order_is_seeded_permutation(ray_session):
    from ocr_agent_ray.pipelines.relational import shuffle_order

    got = shuffle_order(SF).to_pandas()
    n = len(got)
    assert sorted(got["shuffle_pos"]) == list(range(1, n + 1))
    by_key = sorted(
        got["doc_id"],
        key=lambda d: (hashlib.md5(f"42:{d}".encode()).hexdigest(), d))
    want = {d: i + 1 for i, d in enumerate(by_key)}
    assert all(want[d] == p
               for d, p in zip(got["doc_id"], got["shuffle_pos"]))
    # a different seed produces a different permutation
    other = shuffle_order(SF, seed="7").to_pandas()
    merged = got.merge(other, on="doc_id", suffixes=("", "_b"))
    assert (merged["shuffle_pos"] != merged["shuffle_pos_b"]).any()


def test_length_ntile_equal_frequency(ray_session):
    from ocr_agent_ray.pipelines.relational import length_ntile

    k = 4
    got = length_ntile(SF, k=k).to_pandas()
    sizes = got["tile"].value_counts()
    assert set(sizes.index) == set(range(1, k + 1))
    assert sizes.max() - sizes.min() <= 1
    # tiles are monotone in the (n_chars, doc_id) order
    g = got.sort_values(["n_chars", "doc_id"], kind="mergesort")
    assert (np.diff(g["tile"].to_numpy()) >= 0).all()


def test_dup_gram_spans_planted(ray_session):
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import duplicate_gram_spans

    shared = "one two three four five six seven eight nine ten"  # 10 tokens
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            f"intro words here {shared} outro tail",
            f"{shared} and something else entirely different now",
            "alpha beta gamma delta " * 4,   # internal repeats only
            "too short",
        ],
    })
    got = (duplicate_gram_spans(rd.from_pandas(df), n=8)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # docs 1 and 2 share a 10-token span = 3 consecutive 8-grams
    assert list(got["n_dup_grams"][:2]) == [3, 3]
    assert list(got["max_dup_run"][:2]) == [3, 3]
    # internal repetition is NOT cross-doc duplication
    assert got.loc[2, "n_dup_grams"] == 0
    # short doc: zero grams, zero dups
    assert got.loc[3, "n_grams"] == 0
    assert got.loc[3, "max_dup_run"] == 0
    # totals: n_grams = n_tokens - 7
    toks = df["text"].str.lower().str.findall(r"[0-9a-z_]+").str.len()
    assert list(got["n_grams"]) == [max(int(t) - 7, 0) for t in toks]


def test_price_band_lookup_partitions_everything(ray_session):
    from ocr_agent_ray.pipelines.relational import price_band_lookup

    got = price_band_lookup(SF)
    li = pq.read_metadata(f"{SF}/lineitem.parquet").num_rows
    assert int(got["n_items"].sum()) == li
    assert set(got["band"]) == {"budget", "economy", "mid", "premium",
                                "luxury"}


def test_partition_checksums_localize_divergence(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.relational import partition_checksums

    base = pd.DataFrame({
        "doc_id": range(200),
        "text": [f"document body {i}" for i in range(200)],
    })
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _write_docs(tmp_path / "a", base)
    changed = base.copy()
    changed.loc[changed["doc_id"] == 130, "text"] = "tampered"
    b = _write_docs(tmp_path / "b", changed)

    ca = partition_checksums(a).to_pandas().set_index("part")["checksum"]
    cb = partition_checksums(b).to_pandas().set_index("part")["checksum"]
    diff = ca.compare(cb)
    assert list(diff.index) == [130 // 64]
    # deterministic across runs
    again = partition_checksums(a).to_pandas().set_index("part")["checksum"]
    assert ca.equals(again)


def test_value_percent_rank_bounds(ray_session):
    from ocr_agent_ray.pipelines.streaming import value_percent_rank

    got = value_percent_rank(SF).to_pandas()
    assert got["pct_rank"].min() == 0.0
    assert got["pct_rank"].max() == 1.0
    g = got.sort_values(["value", "event_id"], kind="mergesort")
    assert (np.diff(g["pct_rank"].to_numpy()) >= 0).all()


def test_profile_columns_matches_table(ray_session):
    from ocr_agent_ray.pipelines.profiling import profile_columns

    got = profile_columns(SF).set_index("column")
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    for col in got.index:
        assert got.loc[col, "n_rows"] == len(orders)
        assert got.loc[col, "n_nulls"] == int(orders[col].isna().sum())
        assert got.loc[col, "n_distinct"] == orders[col].nunique()
        assert got.loc[col, "min_v"] == str(orders[col].min())
        assert got.loc[col, "max_v"] == str(orders[col].max())


def _write(dirpath, name, df):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(dirpath / f"{name}.parquet"))


def test_check_constraints_planted_violations(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.profiling import check_constraints

    _write(tmp_path, "customer", pd.DataFrame({"c_custkey": [1, 2, 3]}))
    _write(tmp_path, "orders", pd.DataFrame({
        # orderkey 10 duplicated; custkey 99 not a customer
        "o_orderkey": [10, 10, 11, 12],
        "o_custkey": [1, 2, 99, 3],
    }))
    _write(tmp_path, "lineitem", pd.DataFrame({
        # orderkey 77 has no parent order, twice
        "l_orderkey": [10, 11, 77, 77, 12],
    }))
    _write(tmp_path, "events", pd.DataFrame({
        "event_id": [1, 2, 3], "value": [1.0, -0.5, 2.0],
    }))

    got = check_constraints(str(tmp_path)).set_index("rule")
    assert got.loc["orders_orderkey_unique", "n_violations"] == 1
    assert got.loc["orders_custkey_fk", "n_violations"] == 1
    assert got.loc["lineitem_orderkey_fk", "n_violations"] == 2
    assert got.loc["events_value_nonneg", "n_violations"] == 1
    assert not got["passed"].any()


def test_check_constraints_clean_corpus(ray_session):
    from ocr_agent_ray.pipelines.profiling import check_constraints

    got = check_constraints(SF)
    assert got["passed"].all()
    assert (got["n_violations"] == 0).all()


def test_cube_counts_levels_consistent(ray_session):
    from ocr_agent_ray.pipelines.relational import cube_counts

    got = cube_counts(SF)
    fine = got[got["source"].notna() & got["lang"].notna()]
    by_source = got[got["source"].notna() & got["lang"].isna()]
    by_lang = got[got["source"].isna() & got["lang"].notna()]
    total = got[got["source"].isna() & got["lang"].isna()]
    n = int(fine["n"].sum())
    assert int(by_source["n"].sum()) == n
    assert int(by_lang["n"].sum()) == n
    assert int(total["n"].iloc[0]) == n
    assert len(got) == len(fine) + len(by_source) + len(by_lang) + 1


def test_customer_event_outer_covers_both_sides(ray_session):
    from ocr_agent_ray.pipelines.relational import customer_event_outer

    got = customer_event_outer(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id"]).to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey"]).to_pandas()
    assert set(got["user_id"]) == set(ev["user_id"]) | set(cust["c_custkey"])
    # matched rows have both sides; unmatched keep typed nulls
    matched = got[got["n_events"].notna() & got["c_name"].notna()]
    assert set(matched["user_id"]) == set(ev["user_id"]) & set(cust["c_custkey"])
    counts = ev["user_id"].value_counts()
    sub = got[got["n_events"].notna()].set_index("user_id")["n_events"]
    assert all(int(sub.loc[u]) == int(c) for u, c in counts.items())


def test_media_manifest_matches_derivation(ray_session):
    from ocr_agent_ray.pipelines.interleave import media_manifest

    got = media_manifest(SF).to_pandas()
    ids = got["doc_id"].str.slice(4).astype(int)
    assert (got["n_text_spans"] == 3).all()
    assert (got["n_image"] == (ids % 3 == 0).astype(int)).all()
    want_pages = np.where(ids % 5 == 0, ids % 4 + 2, 0)
    assert (got["n_pdf_pages"].to_numpy() == want_pages).all()


def test_new_ops_empty_input(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.relational import (
        length_ntile,
        mixture_sample_documents,
        partition_checksums,
        shuffle_order,
    )
    from ocr_agent_ray.pipelines.text import line_dedup, pack_sequences

    empty = pd.DataFrame({
        "doc_id": pd.Series([], dtype="int64"),
        "text": pd.Series([], dtype="object"),
        "source": pd.Series([], dtype="object"),
        "n_chars": pd.Series([], dtype="int64"),
    })
    sf = _write_docs(tmp_path, empty)
    for op in (line_dedup, pack_sequences, shuffle_order, length_ntile,
               mixture_sample_documents, partition_checksums):
        out = op(sf)
        n = len(out.to_pandas()) if hasattr(out, "to_pandas") else len(out)
        assert n == 0, op.__name__


def test_line_dedup_random_differential(ray_session, tmp_path):
    """200 random docs (shared line pool + empty/whitespace/dup lines,
    duplicate whole docs) vs an exact sequential reference."""
    from ocr_agent_ray.pipelines.text import line_dedup

    rng = np.random.default_rng(3)
    pool = ([f"shared line {i}" for i in range(30)]
            + ["", " ", "\t", "x", "shared line 0"])
    docs = []
    for d in range(200):
        n = int(rng.integers(0, 8))
        docs.append("\n".join(pool[int(rng.integers(0, len(pool)))]
                              for _ in range(n)))
    # plus exact duplicate docs
    docs[150] = docs[10]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})
    sf = _write_docs(tmp_path, df)

    got = (line_dedup(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    seen: set[str] = set()
    want_rows = []
    for d, t in zip(df["doc_id"], df["text"]):
        lines = t.split("\n")
        kept = []
        for ln in lines:
            if ln not in seen:
                seen.add(ln)
                kept.append(ln)
        want_rows.append((d, "\n".join(kept), len(kept), len(lines)))
    want = pd.DataFrame(want_rows, columns=["doc_id", "clean_text",
                                            "n_kept_lines", "n_lines"])
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False)


def test_dup_gram_spans_random_differential(ray_session):
    """150 random docs over a 12-word vocab (forcing heavy cross-doc
    gram collisions) vs an exact sequential reference."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import duplicate_gram_spans

    rng = np.random.default_rng(9)
    vocab = "a b c d e f g h i j k l".split()
    n = 4
    docs = [" ".join(vocab[int(rng.integers(0, len(vocab)))]
                     for _ in range(int(rng.integers(0, 20))))
            for _ in range(150)]
    df = pd.DataFrame({"doc_id": range(len(docs)), "text": docs})

    got = (duplicate_gram_spans(rd.from_pandas(df), n=n)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    import re
    tok = [re.findall(r"[0-9a-z_]+", t.lower()) for t in docs]
    grams = [[" ".join(t[i:i + n]) for i in range(len(t) - n + 1)]
             for t in tok]
    owners: dict[str, set[int]] = {}
    for d, gs in enumerate(grams):
        for g in gs:
            owners.setdefault(g, set()).add(d)
    rows = []
    for d, gs in enumerate(grams):
        dup = [i for i, g in enumerate(gs) if len(owners[g]) >= 2]
        runs, best, cur, prev = 0, 0, 0, None
        for i in dup:
            cur = cur + 1 if prev is not None and i == prev + 1 else 1
            best = max(best, cur)
            prev = i
        rows.append((d, len(gs), len(dup), best))
    want = pd.DataFrame(rows, columns=["doc_id", "n_grams",
                                       "n_dup_grams", "max_dup_run"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_curation_funnel_monotone(ray_session):
    from ocr_agent_ray.pipelines.curate import curation_funnel

    got = curation_funnel(SF)
    order = ["all", "gopher", "exact_dedup", "mixture"]
    wide = (got.pivot(index="source", columns="stage", values="n_docs")
            .reindex(columns=order).fillna(0))
    # every stage only removes docs, per source
    for a, b in zip(order, order[1:]):
        assert (wide[b] <= wide[a]).all()
    # sanity: the funnel actually filters something at each stage overall
    totals = wide.sum()
    assert totals["gopher"] < totals["all"]
    assert totals["mixture"] < totals["exact_dedup"]


def test_shuffle_order_nondefault_ranges(ray_session):
    # num_ranges != 256 must still produce the exact same permutation
    # (regression: modulo-range assignment interleaved key ranges)
    from ocr_agent_ray.pipelines.relational import shuffle_order

    base = shuffle_order(SF).to_pandas()
    alt = shuffle_order(SF, num_ranges=16).to_pandas()
    merged = base.merge(alt, on="doc_id", suffixes=("", "_b"))
    assert (merged["shuffle_pos"] == merged["shuffle_pos_b"]).all()


def test_line_dedup_hot_line_skew(ray_session, tmp_path):
    # a boilerplate line present in EVERY doc (the 100-TB hot-key case):
    # exactly one occurrence survives, everything else is untouched
    from ocr_agent_ray.pipelines.text import line_dedup

    n = 2000
    df = pd.DataFrame({
        "doc_id": range(n),
        "text": [f"unique head {i}\nHOT BOILERPLATE LINE\nunique tail {i}"
                 for i in range(n)],
    })
    sf = _write_docs(tmp_path, df)
    got = line_dedup(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got.loc[0, "clean_text"] == (
        "unique head 0\nHOT BOILERPLATE LINE\nunique tail 0")
    rest = got.iloc[1:]
    assert (rest["clean_text"] == [
        f"unique head {i}\nunique tail {i}" for i in range(1, n)]).all()
    assert int(got["n_kept_lines"].sum()) == 2 * n + 1


def test_chunk_documents_covers_text(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import chunk_documents

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["x" * 199,            # just under one chunk
                 "ab" * 250,           # 500 chars -> 3 chunks (stride 150)
                 "short"],
    })
    sf = _write_docs(tmp_path, df)
    got = chunk_documents(sf).to_pandas().sort_values(
        ["doc_id", "chunk_id"]).reset_index(drop=True)
    by_doc = {d: g for d, g in got.groupby("doc_id")}
    assert len(by_doc[1]) == 1 and by_doc[1]["chunk_text"].iloc[0] == "x" * 199
    assert len(by_doc[3]) == 1 and by_doc[3]["chunk_text"].iloc[0] == "short"
    g2 = by_doc[2]
    assert len(g2) == 3 and list(g2["n_chunks"]) == [3, 3, 3]
    text = "ab" * 250
    # chunk i = text[i*150 : i*150+200]; consecutive chunks overlap by 50
    for i, row in g2.reset_index(drop=True).iterrows():
        assert row["chunk_text"] == text[i * 150:i * 150 + 200]
    # reassembly: chunk 0 + tail(150) of later chunks == original text prefix
    rebuilt = g2["chunk_text"].iloc[0] + "".join(
        c[50:] for c in g2["chunk_text"].iloc[1:])
    assert rebuilt == text[:len(rebuilt)] and len(rebuilt) >= len(text)


def test_event_window_ranks_planted_ties(ray_session, tmp_path):
    """RANK keeps gaps and DENSE_RANK doesn't, partitions rank
    independently, and ranks are correct when one partition's rows span
    multiple value ranges."""
    from ocr_agent_ray.pipelines.streaming import event_window_ranks

    df = pd.DataFrame({
        "event_id": range(1, 8),
        "event_type": ["a", "a", "a", "a", "b", "b", "b"],
        "value": [5.0, 5.0, 7.0, 30.0, 5.0, 9.0, 9.0],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = event_window_ranks(str(tmp_path), range_width=8.0).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    assert list(got["row_num"]) == [1, 2, 3, 4, 1, 2, 3]
    assert list(got["rnk"]) == [1, 1, 3, 4, 1, 2, 2]
    assert list(got["dense_rnk"]) == [1, 1, 2, 3, 1, 2, 2]


def test_daily_counts_gapfilled_planted_gap(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.streaming import daily_counts_gapfilled

    ts = pd.to_datetime(["2024-01-01 03:00", "2024-01-01 17:00",
                         "2024-01-04 09:00"]).astype("datetime64[us]")
    df = pd.DataFrame({"event_id": [1, 2, 3], "ts": ts,
                       "user_id": [1, 2, 3], "event_type": ["a"] * 3,
                       "value": [1.0] * 3, "props": ["{}"] * 3})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = daily_counts_gapfilled(str(tmp_path))
    assert list(got["n_events"]) == [2, 0, 0, 1]   # Jan 2+3 filled as zero
    assert got["day"].dt.day.tolist() == [1, 2, 3, 4]


def test_trailing_week_active_matches_pandas_oracle(ray_session):
    from ocr_agent_ray.pipelines.streaming import trailing_week_active_users

    sf = "/root/testdata/sf0.001"
    got = trailing_week_active_users(sf)
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["ts", "user_id"])
    pairs = (ev.assign(day=ev["ts"].dt.floor("D"))[["day", "user_id"]]
             .drop_duplicates())
    days = pd.date_range(pairs["day"].min(), pairs["day"].max(), freq="D")
    want = {
        d: pairs.loc[(pairs["day"] > d - pd.Timedelta(days=7))
                     & (pairs["day"] <= d), "user_id"].nunique()
        for d in days
    }
    assert len(got) == len(days)
    for _, r in got.iterrows():
        assert want[r["report_day"]] == r["wau"], r


def test_budget_sample_maximal_per_source(ray_session):
    from ocr_agent_ray.pipelines.relational import budget_sample_by_source

    sf = "/root/testdata/sf0.001"
    budget = 4000
    got = budget_sample_by_source(sf, budget_chars=budget).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "source", "n_chars"])
    docs["key"] = [hashlib.md5(str(i).encode()).hexdigest()
                   for i in docs["doc_id"]]
    for src, sub in docs.groupby("source"):
        sub = sub.sort_values(["key", "doc_id"])
        keep = sub[sub["n_chars"].cumsum() <= budget]
        mine = got[got["source"] == src]
        assert set(mine["doc_id"]) == set(keep["doc_id"]), src
        assert mine["n_chars"].sum() <= budget


def test_ngram_dedup_apply_keeps_representatives(ray_session):
    from ocr_agent_ray.pipelines.dedup import (
        duplicate_clusters,
        ngram_dedup_apply,
        ngram_jaccard_all_pairs,
    )
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"])
    clusters = duplicate_clusters(ngram_jaccard_all_pairs(docs))
    cl = clusters if isinstance(clusters, pd.DataFrame) else clusters.to_pandas()
    survivors = set(ngram_dedup_apply(sf).to_pandas()["doc_id"])
    all_ids = set(pd.read_parquet(f"{sf}/documents.parquet",
                                  columns=["doc_id"])["doc_id"])
    reps = set(cl.loc[cl["doc_id"] == cl["cluster_id"], "doc_id"])
    members = set(cl["doc_id"])
    assert survivors == (all_ids - members) | reps
    assert len(members - reps) > 0          # something was actually dropped


def test_new_ops_empty_inputs(ray_session, tmp_path):
    """Empty documents/events/embeddings tables flow through the
    fourth-session operators without error."""
    from ocr_agent_ray.pipelines.relational import budget_sample_by_source
    from ocr_agent_ray.pipelines.similarity import embedding_norms
    from ocr_agent_ray.pipelines.streaming import (
        daily_counts_gapfilled,
        event_window_ranks,
        sessionize,
    )
    from ocr_agent_ray.pipelines.text import (
        chunk_documents,
        email_domain_counts,
        token_entropy,
        winsorize_doc_lengths,
    )

    docs = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                         "text": pd.Series(dtype="object"),
                         "lang": pd.Series(dtype="object"),
                         "source": pd.Series(dtype="object"),
                         "n_chars": pd.Series(dtype="int64")})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    ev = pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                       "ts": pd.Series(dtype="datetime64[us]"),
                       "user_id": pd.Series(dtype="int64"),
                       "event_type": pd.Series(dtype="object"),
                       "value": pd.Series(dtype="float64"),
                       "props": pd.Series(dtype="object")})
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    emb = pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                        "embedding": pd.Series(dtype="object"),
                        "label": pd.Series(dtype="int32")})
    pq.write_table(
        pa.Table.from_pandas(emb, preserve_index=False).cast(
            pa.schema([("vec_id", pa.int64()),
                       ("embedding", pa.list_(pa.float32())),
                       ("label", pa.int32())])),
        str(tmp_path / "embeddings.parquet"))

    sf = str(tmp_path)
    for fn in [chunk_documents, token_entropy, email_domain_counts,
               winsorize_doc_lengths, budget_sample_by_source,
               sessionize, event_window_ranks, daily_counts_gapfilled]:
        out = fn(sf)
        n = len(out) if isinstance(out, pd.DataFrame) else out.count()
        assert n == 0, (fn.__name__, n)
    out = embedding_norms(sf)
    assert out.count() == 0


def test_event_transitions_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.streaming import event_transitions

    ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:01",
                         "2024-01-01 00:02", "2024-01-01 00:00",
                         "2024-01-01 00:05"]).astype("datetime64[us]")
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5],
        "ts": ts,
        "user_id": [7, 7, 7, 9, 9],
        "event_type": ["view", "view", "purchase", "view", "error"],
        "value": [0.0] * 5, "props": ["{}"] * 5,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = event_transitions(str(tmp_path))
    want = {("view", "view"): 1, ("view", "purchase"): 1,
            ("view", "error"): 1}
    assert {(r["prev_type"], r["next_type"]): r["n"]
            for _, r in got.iterrows()} == want


def test_trailing_hour_sum_range_semantics(ray_session, tmp_path):
    """RANGE frame: trailing window is time-based (not row-based) and
    includes ALL peers at the current timestamp."""
    from ocr_agent_ray.pipelines.streaming import trailing_hour_value_sum

    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 00:30", "2024-01-01 02:00",
        "2024-01-01 03:00", "2024-01-01 03:00",
    ]).astype("datetime64[us]")
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5],
        "ts": ts,
        "user_id": [7] * 5,
        "event_type": ["a"] * 5,
        "value": [1.0, 2.0, 4.0, 8.0, 16.0],
        "props": ["{}"] * 5,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = trailing_hour_value_sum(str(tmp_path)).to_pandas()
    got = got.sort_values("event_id")["trailing_sum"].tolist()
    # e1: 1; e2: 1+2 (within 1h); e3: 4 (others aged out); e4 and e5:
    # 4+8+16 — peers at the same ts include each other, and e3 at
    # exactly ts-1h is INSIDE the frame (RANGE start is inclusive)
    assert got == [1.0, 3.0, 4.0, 28.0, 28.0]


def test_cumulative_new_users_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.streaming import cumulative_new_users

    ts = pd.to_datetime(["2024-01-01", "2024-01-01", "2024-01-02",
                         "2024-01-02", "2024-01-04"]).astype("datetime64[us]")
    df = pd.DataFrame({"event_id": range(5), "ts": ts,
                       "user_id": [1, 2, 1, 3, 4],
                       "event_type": ["a"] * 5, "value": [0.0] * 5,
                       "props": ["{}"] * 5})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = cumulative_new_users(str(tmp_path))
    assert got["new_users"].tolist() == [2, 1, 1]   # day1: u1,u2; day2: u3; day4: u4
    assert got["cum_users"].tolist() == [2, 3, 4]


def test_multimodal_pack_invariants(ray_session):
    from ocr_agent_ray.pipelines.interleave import (
        documents_to_interleaved,
        multimodal_pack,
    )

    budget, img = 256, 64
    got = multimodal_pack(SF, budget=budget, image_tokens=img).to_pandas()
    spans = documents_to_interleaved(SF).to_pandas()
    n_spans = spans["spans"].str.len().sum()
    assert len(got) == n_spans                  # every span exactly once
    assert (got.loc[got["kind"] != "text", "n_tokens"] == img).all()
    # packs respect the budget unless a single span overflows it
    per = got.groupby("pack_id").agg(total=("n_tokens", "sum"),
                                     n=("offset", "size"))
    over = per[per["total"] > budget]
    assert (over["n"] == 1).all()
    # spans of a doc appear in offset order within and across packs:
    # sort by (pack_id, pack_pos) == global packing order; per doc the
    # offsets must then be increasing
    order = got.sort_values(["pack_id", "pack_pos"], kind="mergesort")
    for _, g in order.groupby("doc_id", sort=False):
        offs = g["offset"].to_numpy()
        assert (np.diff(offs) > 0).all()
    # deterministic
    again = multimodal_pack(SF, budget=budget, image_tokens=img).to_pandas()
    key = ["doc_id", "offset"]
    a = got.sort_values(key).reset_index(drop=True)
    b = again.sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_three_step_funnel_planted_chain(ray_session, tmp_path):
    """Greedy earliest-chain: a user whose only purchase precedes the
    first post-view click does NOT convert; a proper v<c<p chain does."""
    from ocr_agent_ray.pipelines.streaming import three_step_funnel

    t = lambda m: pd.Timestamp(f"2024-01-01 00:{m:02d}")
    rows = [
        # user 1: view@1 click@2 purchase@3 -> full chain
        (1, t(1), 1, "view"), (2, t(2), 1, "click"), (3, t(3), 1, "purchase"),
        # user 2: purchase@1 view@2 click@3 -> steps 1,2 only
        (4, t(1), 2, "purchase"), (5, t(2), 2, "view"), (6, t(3), 2, "click"),
        # user 3: click only -> no steps
        (7, t(1), 3, "click"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 0.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = three_step_funnel(str(tmp_path))
    assert got.iloc[0].tolist() == [2, 2, 1]


def test_markov_next_event_planted(ray_session, tmp_path):
    """Transition argmax applied to each user's last event: confidence
    = n(prev->pred)/sum_next, ties break next_type-ascending, users
    whose last type was never a transition source are dropped."""
    from ocr_agent_ray.pipelines.streaming import markov_next_event

    rows = [
        # u1: A B A B  -> A->B x2, B->A x1... (see expectations below)
        (1, "2024-01-01 00:00", 1, "A"), (2, "2024-01-01 00:01", 1, "B"),
        (3, "2024-01-01 00:02", 1, "A"), (4, "2024-01-01 00:03", 1, "B"),
        # u2: A C -> A->C; last C never a source -> dropped
        (5, "2024-01-01 00:00", 2, "A"), (6, "2024-01-01 00:01", 2, "C"),
        # u3: B A -> B->A; last A -> predicted
        (7, "2024-01-01 00:00", 3, "B"), (8, "2024-01-01 00:01", 3, "A"),
        # u4/u5 plant the D tie: D->X and D->Y once each
        (9, "2024-01-01 00:00", 4, "D"), (10, "2024-01-01 00:01", 4, "X"),
        (11, "2024-01-01 00:00", 5, "D"), (12, "2024-01-01 00:01", 5, "Y"),
        # u6 ends on D -> tie broken to X at confidence 0.5
        (13, "2024-01-01 00:00", 6, "A"), (14, "2024-01-01 00:01", 6, "D"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df["value"] = 0.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (markov_next_event(str(tmp_path)).to_pandas()
           .set_index("user_id").sort_index())
    # transitions: A->B:2 A->C:1 A->D:1 (tot 4), B->A:2 (tot 2),
    #              D->X:1 D->Y:1 (tot 2, tie -> X)
    assert got.index.tolist() == [1, 3, 6]
    assert got.loc[1, ["last_type", "pred_next_type"]].tolist() == ["B", "A"]
    assert got.loc[1, "confidence"] == 1.0
    assert got.loc[3, ["last_type", "pred_next_type"]].tolist() == ["A", "B"]
    assert got.loc[3, "confidence"] == 0.5
    assert got.loc[6, ["last_type", "pred_next_type"]].tolist() == ["D", "X"]
    assert got.loc[6, "confidence"] == 0.5


def test_ewma_matches_sequential_recurrence(ray_session, tmp_path):
    """The closed-form kernel equals the textbook loop
    s_1 = x_1, s_t = a*x_t + (1-a)*s_{t-1} to float precision."""
    from ocr_agent_ray.pipelines.streaming import ewma_user_value

    rng = np.random.default_rng(11)
    n_users, per = 20, 60
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        np.tile(np.arange(per), n_users), unit="m")
    df = pd.DataFrame({
        "event_id": np.arange(n_users * per, dtype=np.int64),
        "ts": ts.astype("datetime64[us]"),
        "user_id": np.repeat(np.arange(n_users, dtype=np.int64), per),
        "event_type": "view",
        "value": np.round(rng.uniform(0, 200, n_users * per), 3),
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (ewma_user_value(str(tmp_path), alpha=0.1).to_pandas()
           .sort_values(["user_id", "ts", "event_id"])
           .reset_index(drop=True))
    want = []
    for _, g in df.groupby("user_id"):
        s = None
        for x in g["value"]:
            s = x if s is None else 0.1 * x + 0.9 * s
            want.append(s)
    # pipeline output is ROUND(·, 6): closed form vs loop within half-ulp
    # of the 6-decimal rounding grid
    assert np.allclose(got["ewma"].to_numpy(), np.array(want),
                       rtol=0, atol=5.1e-7)


def test_event_throttle_matches_greedy_loop(ray_session, tmp_path):
    """Retry-storm fixture: bursts inside the gap are suppressed
    relative to the last KEPT event (not the last row)."""
    from ocr_agent_ray.pipelines.streaming import event_throttle

    rng = np.random.default_rng(5)
    rows = []
    eid = 0
    for uid in range(6):
        t = pd.Timestamp("2024-01-01")
        for _ in range(40):
            t = t + pd.Timedelta(seconds=int(rng.integers(30, 900)))
            rows.append((eid, t, uid))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["event_type"] = "view"
    df["value"] = 0.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = event_throttle(str(tmp_path), gap_minutes=10).to_pandas()
    kept = set()
    for uid, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
        last = None
        for _, row in g.iterrows():
            if last is None or row["ts"] - last >= pd.Timedelta(minutes=10):
                kept.add((uid, row["event_id"]))
                last = row["ts"]
    assert set(zip(got["user_id"], got["event_id"])) == kept
    assert len(kept) < len(df)  # the storm actually suppressed events


def test_psi_value_drift_detects_planted_shift(ray_session, tmp_path):
    """Second half shifted by +5: PSI total is large; identical halves
    give PSI ~0. Terms cross-checked against a direct computation."""
    from ocr_agent_ray.pipelines.streaming import psi_value_drift

    rng = np.random.default_rng(9)
    n = 4000
    ts = (pd.Timestamp("2024-01-01")
          + pd.to_timedelta(np.arange(n), unit="m")).astype("datetime64[us]")
    vals = np.concatenate([rng.uniform(0, 10, n // 2),
                           rng.uniform(5, 15, n // 2)])
    df = pd.DataFrame({"event_id": np.arange(n, dtype=np.int64),
                       "ts": ts, "user_id": np.int64(1),
                       "event_type": "view", "value": vals,
                       "props": "{}"})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = psi_value_drift(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert got["bucket"].tolist() == list(range(10))
    assert (got["n_first"] + got["n_second"]).sum() == n
    # direct recomputation of the smoothed terms
    vmin, vmax = vals.min(), vals.max()
    width = max((vmax - vmin) / 10.0, 1e-12)
    b = np.minimum(np.floor((vals - vmin) / width), 9).astype(int)
    half = np.arange(n) >= n // 2
    c0 = np.bincount(b[~half], minlength=10).astype(float)
    c1 = np.bincount(b[half], minlength=10).astype(float)
    p = (c0 + 0.5) / (c0.sum() + 5.0)
    q = (c1 + 0.5) / (c1.sum() + 5.0)
    want = (p - q) * np.log(p / q)
    assert np.allclose(got["psi_term"].to_numpy(), want, atol=5.1e-7)
    assert got["psi_term"].sum() > 0.25  # the shift is visible


def test_nearest_event_join_planted_ties(ray_session, tmp_path):
    """Planted fixture exercising every branch of the nearest-neighbor
    pick: exact ts match (gap 0), equal-gap tie -> earlier event wins,
    equal-ts run -> lowest event_id wins, before-only / after-only
    edges, and a user with no non-purchase events (dropped)."""
    from ocr_agent_ray.pipelines.streaming import nearest_event_join

    t0 = pd.Timestamp("2024-01-01")
    m = pd.to_timedelta(1, unit="m")
    rows = [
        # user 1: purchase at t+10; views at t+7 and t+13 -> equal 3m
        # gap, tie goes to the EARLIER view (event_id 100)
        (100, t0 + 7 * m, 1, "view"),
        (101, t0 + 13 * m, 1, "view"),
        (1, t0 + 10 * m, 1, "purchase"),
        # user 2: purchase at t+5; clicks BOTH at t+5 (gap 0 run) ->
        # lowest event_id (200) wins
        (201, t0 + 5 * m, 2, "click"),
        (200, t0 + 5 * m, 2, "click"),
        (2, t0 + 5 * m, 2, "purchase"),
        # user 3: purchase before every other event (after-only)
        (300, t0 + 9 * m, 3, "view"),
        (3, t0 + 1 * m, 3, "purchase"),
        # user 4: purchase after every other event (before-only)
        (400, t0 + 2 * m, 4, "view"),
        (4, t0 + 30 * m, 4, "purchase"),
        # user 5: only purchases -> dropped
        (5, t0 + 3 * m, 5, "purchase"),
        # user 6: nearer-after beats farther-before
        (600, t0 + 0 * m, 6, "view"),
        (601, t0 + 12 * m, 6, "view"),
        (6, t0 + 10 * m, 6, "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (nearest_event_join(str(tmp_path)).to_pandas()
           .set_index("purchase_event_id").sort_index())
    assert got.index.tolist() == [1, 2, 3, 4, 6]
    assert got.loc[1, "nearest_event_id"] == 100   # tie -> earlier
    assert got.loc[1, "gap_us"] == 3 * 60_000_000
    assert got.loc[2, "nearest_event_id"] == 200   # gap-0 run start
    assert got.loc[2, "gap_us"] == 0
    assert got.loc[3, "nearest_event_id"] == 300
    assert got.loc[4, "nearest_event_id"] == 400
    assert got.loc[6, "nearest_event_id"] == 601   # 2m after < 10m before
    assert got.loc[6, "gap_us"] == 2 * 60_000_000


def test_nearest_event_join_brute_force(ray_session, tmp_path):
    """Randomized fixture vs an O(n^2) per-purchase argmin with the
    exact (gap, ts, event_id) tie order."""
    from ocr_agent_ray.pipelines.streaming import nearest_event_join

    rng = np.random.default_rng(7)
    n = 400
    ts = (pd.to_datetime("2024-03-01")
          + pd.to_timedelta(rng.integers(0, 5000, n), unit="s"))
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": ts.astype("datetime64[us]"),
        "user_id": rng.integers(0, 12, n).astype(np.int64),
        "event_type": rng.choice(["purchase", "view", "click"], n,
                                 p=[0.3, 0.4, 0.3]),
        "value": 1.0, "props": "{}"})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = (nearest_event_join(str(tmp_path)).to_pandas()
           .sort_values("purchase_event_id").reset_index(drop=True))
    want = []
    us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    for i in np.flatnonzero((df["event_type"] == "purchase").to_numpy()):
        o = df[(df["user_id"] == df["user_id"].iloc[i])
               & (df["event_type"] != "purchase")]
        if not len(o):
            continue
        gaps = np.abs(us[o.index.to_numpy()] - us[i])
        cand = sorted(zip(gaps, us[o.index.to_numpy()],
                          o["event_id"].to_numpy()))
        want.append((int(df["user_id"].iloc[i]),
                     int(df["event_id"].iloc[i]),
                     int(cand[0][2]), int(cand[0][0])))
    want = pd.DataFrame(want, columns=["user_id", "purchase_event_id",
                                       "nearest_event_id", "gap_us"]) \
        .sort_values("purchase_event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"))


def test_daily_autocorr_planted_weekly_cycle(ray_session, tmp_path):
    """A pure 7-day cycle shows r(7) = +1 (exact) and negative r at the
    antiphase lags; values match a direct numpy Pearson computation."""
    from ocr_agent_ray.pipelines.streaming import daily_autocorr

    days = pd.date_range("2024-01-01", periods=42, freq="D")
    counts = np.tile([5, 9, 13, 17, 13, 9, 5], 6)  # period-7 wave
    rows = []
    eid = 0
    for d, c in zip(days, counts):
        for j in range(int(c)):
            rows.append((eid, d + pd.to_timedelta(j, unit="m"), 1))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["event_type"] = "view"
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = daily_autocorr(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got = got.set_index("lag")
    assert got.loc[7, "autocorr"] == 1.0
    assert got.loc[7, "n_pairs"] == 35
    c = counts.astype(np.float64)
    for k in range(1, 8):
        want = np.corrcoef(c[:-k], c[k:])[0, 1]
        assert abs(got.loc[k, "autocorr"] - want) < 5.1e-7


def test_theil_sen_ignores_outlier_day(ray_session, tmp_path):
    """A clean slope-2 series with one wild outlier day: Theil-Sen
    recovers slope 2 while OLS would not; matches direct numpy."""
    from ocr_agent_ray.pipelines.streaming import theil_sen_trend

    days = pd.date_range("2024-02-01", periods=15, freq="D")
    counts = 3 + 2 * np.arange(15)
    counts[7] = 500  # outlier day
    rows = []
    eid = 0
    for d, c in zip(days, counts):
        for j in range(int(c)):
            rows.append((eid, d + pd.to_timedelta(j, unit="s"), 1))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["event_type"] = "view"
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = theil_sen_trend(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert got["n_days"].iloc[0] == 15
    assert got["n_pairs"].iloc[0] == 15 * 14 // 2
    assert got["slope"].iloc[0] == 2.0  # robust to the planted spike
    # direct recomputation
    idx = np.arange(15, dtype=np.float64)
    c = counts.astype(np.float64)
    iu = np.triu_indices(15, k=1)
    slopes = (c[None, :] - c[:, None])[iu] / (idx[None, :]
                                              - idx[:, None])[iu]
    sl = np.median(slopes)
    assert abs(got["intercept"].iloc[0]
               - np.median(c - sl * idx)) < 5.1e-7


def test_dow_seasonality_planted_weekend_dip(ray_session, tmp_path):
    """Weekdays at 10/day, weekend at 4/day: indices land exactly on
    (10 or 4) / overall-mean; dow keying is Monday=0."""
    from ocr_agent_ray.pipelines.streaming import dow_seasonality

    days = pd.date_range("2024-01-01", periods=28, freq="D")  # Mon start
    rows = []
    eid = 0
    for d in days:
        c = 4 if d.dayofweek >= 5 else 10
        for j in range(c):
            rows.append((eid, d + pd.to_timedelta(j, unit="m"), 1))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["event_type"] = "view"
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    got = dow_seasonality(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got = got.set_index("dow").sort_index()
    mean_daily = (5 * 10 + 2 * 4) / 7.0
    assert got.index.tolist() == list(range(7))
    assert (got["n_days"] == 4).all()
    for dow in range(5):
        assert abs(got.loc[dow, "seasonal_index"]
                   - 10.0 / mean_daily) < 5.1e-7
    for dow in (5, 6):
        assert abs(got.loc[dow, "seasonal_index"]
                   - 4.0 / mean_daily) < 5.1e-7


def test_cusum_changepoint_planted_shift(ray_session, tmp_path):
    """Daily counts 10x10 then 30x10 for type 'shift': the changepoint
    must land on the LAST low-regime day with |S_t| = t*(mean - 10) =
    10*(20-10) = 100 and exact regime means. A constant-rate type gets
    stat 0 at the earliest day (deterministic tie); a single-day type
    is dropped (no split exists)."""
    from ocr_agent_ray.pipelines.streaming import cusum_changepoint

    rows = []
    eid = 0
    day0 = pd.Timestamp("2024-03-01")
    for d in range(20):
        per_day = 10 if d < 10 else 30
        for i in range(per_day):
            rows.append((eid, day0 + pd.Timedelta(days=d, minutes=i),
                         1, "shift"))
            eid += 1
    for d in range(8):   # constant rate: 5/day
        for i in range(5):
            rows.append((eid, day0 + pd.Timedelta(days=d, minutes=i),
                         2, "flat"))
            eid += 1
    rows.append((eid, day0, 3, "oneday"))
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    got = cusum_changepoint(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert set(got["event_type"]) == {"shift", "flat"}  # oneday dropped

    s = got[got["event_type"] == "shift"].iloc[0]
    assert pd.Timestamp(s["change_day"]) == day0 + pd.Timedelta(days=9)
    assert s["cusum_stat"] == 100.0
    assert s["mean_before"] == 10.0
    assert s["mean_after"] == 30.0
    assert s["n_days"] == 20

    f = got[got["event_type"] == "flat"].iloc[0]
    assert f["cusum_stat"] == 0.0
    assert pd.Timestamp(f["change_day"]) == day0  # earliest-day tie
    assert f["mean_before"] == 5.0 and f["mean_after"] == 5.0


def test_ab_test_zscore_planted_split(ray_session, tmp_path):
    """Arms split by user_id parity: 100 even users with 30 converting,
    100 odd users with 60 converting — z must equal the pooled
    two-proportion formula computed by hand; multi-event users count
    once."""
    from ocr_agent_ray.pipelines.streaming import ab_test_zscore

    rows = []
    eid = 0
    t0 = pd.Timestamp("2024-05-01")
    for u in range(200):
        arm = u % 2
        rank = u // 2
        converts = rank < (30 if arm == 0 else 60)
        rows.append((eid, t0, u, "view")); eid += 1
        if converts:  # duplicate purchases must not double-count
            rows.append((eid, t0, u, "purchase")); eid += 1
            rows.append((eid, t0, u, "purchase")); eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    got = ab_test_zscore(str(tmp_path))
    got = (got if isinstance(got, pd.DataFrame) else got.to_pandas()).iloc[0]
    assert (got["n_a"], got["n_b"]) == (100, 100)
    assert (got["conv_a"], got["conv_b"]) == (30, 60)
    assert got["p_a"] == 0.3 and got["p_b"] == 0.6
    assert got["lift"] == 0.3
    pp = 90 / 200
    se = np.sqrt(pp * (1 - pp) * (1 / 100 + 1 / 100))
    assert abs(got["z_score"] - round(0.3 / se, 6)) < 5.1e-7


def _write_daily_events(tmp_path, counts, day0="2024-06-03"):
    rows, eid = [], 0
    t0 = pd.Timestamp(day0)
    for d, c in enumerate(counts):
        for i in range(c):
            rows.append((eid, t0 + pd.Timedelta(days=d, minutes=i),
                         1, "view"))
            eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type"])
    df["ts"] = df["ts"].astype("datetime64[us]")
    df["value"] = 1.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    return t0


def test_seasonal_decompose_pure_weekly_pattern(ray_session, tmp_path):
    """A perfectly periodic weekly series (no trend) decomposes into a
    constant trend, the exact centered dow effects, and zero residual;
    only full-window days are emitted."""
    from ocr_agent_ray.pipelines.streaming import seasonal_decompose_daily

    effect = [5, 0, 2, 8, 3, 1, 6]  # Monday-first weekly pattern
    counts = [10 + effect[d % 7] for d in range(28)]
    t0 = _write_daily_events(tmp_path, counts)  # 2024-06-03 is a Monday

    got = seasonal_decompose_daily(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(got) == 28 - 6  # centered window trims 3 each side
    assert pd.Timestamp(got["day"].iloc[0]) == t0 + pd.Timedelta(days=3)
    base = 10 + np.mean(effect)
    assert np.allclose(got["trend"], base)
    want_seasonal = np.array(effect) - np.mean(effect)
    dow = pd.DatetimeIndex(got["day"]).dayofweek.to_numpy()
    assert np.allclose(got["seasonal"], want_seasonal[dow], atol=5.1e-7)
    assert np.allclose(got["residual"], 0.0, atol=5.1e-7)


def test_holt_linear_matches_recurrence_with_gap(ray_session, tmp_path):
    """Holt output equals a direct recurrence replay, including a
    missing calendar day gapfilled as 0, and the level tracks a linear
    ramp to within the smoothing lag."""
    from ocr_agent_ray.pipelines.streaming import holt_linear_daily

    counts = [4, 6, 8, 10, 0, 14, 16, 18, 20, 22]  # day 4 written as gap
    rows_counts = list(counts)
    rows_counts[4] = 0  # plant the gap by emitting no events that day
    t0 = _write_daily_events(tmp_path, rows_counts)

    got = holt_linear_daily(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(got) == 10
    assert got["cnt"].tolist() == rows_counts
    x = np.array(rows_counts, dtype=np.float64)
    s, b = [x[0]], [x[1] - x[0]]
    for t in range(1, len(x)):
        s_new = 0.5 * x[t] + 0.5 * (s[-1] + b[-1])
        b.append(0.3 * (s_new - s[-1]) + 0.7 * b[-1])
        s.append(s_new)
    assert np.allclose(got["level"], np.round(s, 6), atol=5.1e-7)
    assert np.allclose(got["trend_rate"], np.round(b, 6), atol=5.1e-7)
    assert abs(got["trend_rate"].iloc[-1] - 2.0) < 1.5  # ~ +2/day ramp


def test_holt_winters_constant_and_seasonal(ray_session, tmp_path):
    """A constant series is a fixed point (level=c, trend=0,
    seasonal=0); a pure additive weekly pattern replays the direct
    recurrence including the rotating seasonal buffer."""
    from ocr_agent_ray.pipelines.streaming import holt_winters_daily

    _write_daily_events(tmp_path, [5] * 21)
    got = holt_winters_daily(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(got) == 14
    assert got["level"].tolist() == [5.0] * 14
    assert got["trend_rate"].tolist() == [0.0] * 14
    assert got["seasonal"].tolist() == [0.0] * 14

    effect = [0, 3, 1, 4, 2, 6, 5]
    counts = [10 + effect[d % 7] for d in range(28)]
    tmp2 = tmp_path / "seasonal"
    tmp2.mkdir()
    _write_daily_events(tmp2, counts)
    got = holt_winters_daily(str(tmp2))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(got) == 21
    x = np.array(counts, dtype=np.float64)
    lev = x[:7].mean()
    b = (x[7:14].mean() - x[:7].mean()) / 7.0
    buf = list(x[:7] - lev)
    want_l, want_b, want_s = [], [], []
    for t in range(7, 28):
        s_old = buf[0]
        l_new = 0.5 * (x[t] - s_old) + 0.5 * (lev + b)
        b_new = 0.3 * (l_new - lev) + 0.7 * b
        s_new = 0.2 * (x[t] - l_new) + 0.8 * s_old
        buf = buf[1:] + [s_new]
        want_l.append(l_new); want_b.append(b_new); want_s.append(s_new)
        lev, b = l_new, b_new
    assert np.allclose(got["level"], np.round(want_l, 6), atol=5.1e-7)
    assert np.allclose(got["trend_rate"], np.round(want_b, 6),
                       atol=5.1e-7)
    assert np.allclose(got["seasonal"], np.round(want_s, 6),
                       atol=5.1e-7)
    # the seasonal state converges toward the centered weekly effect
    last_week = got["seasonal"].tail(7).to_numpy()
    dow = np.array(effect[(21 + 0) % 7:] + effect[:(21 + 0) % 7],
                   dtype=np.float64)
    assert np.corrcoef(last_week, dow - dow.mean())[0, 1] > 0.9

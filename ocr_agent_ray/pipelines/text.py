"""Text-analysis pipelines over a flat documents table.

Operate on ``documents(doc_id, text, lang, source, n_chars)``
(/root/testdata layout); every stage is a vectorized ``map_batches``.
Regex/setup state (compiled patterns, marker tables) is module-level —
loaded once per worker process, not per batch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from ocr_agent_ray.pipelines.exchange import (
    bucket_map_groups,
    grouped_map_groups,
    key_map_groups,
)
from ocr_agent_ray.sources.readers import read_table

from ocr_agent_ray.functions.textstats import (
    detect_language,
    md5_fingerprint,
    quality_features,
    rolling_fingerprint,
)


def _read_documents(sf_dir: str, columns=("doc_id", "text")):
    return read_table(sf_dir, "documents", list(columns))


def quality_scores(sf_dir: str):
    """doc_id + n_chars/n_tokens/stop_ratio/quality_score per document."""

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        feats = quality_features(batch["text"])
        feats.insert(0, "doc_id", batch["doc_id"])
        return feats

    return _read_documents(sf_dir).map_batches(_score, batch_format="pandas")


def token_count_total(sf_dir: str):
    """Corpus-wide token count grouped by source — partial aggregation
    inside map_batches (one row per source per batch), then a tiny groupby:
    the pre-aggregate pattern for shuffle-free counting at scale."""

    from ocr_agent_ray.functions.textstats import token_counts
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _count(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(n_tokens=token_counts(batch["text"]))

    return combine_partials_driver(
        _read_documents(sf_dir, columns=("doc_id", "text", "source")).map_batches(
            _count, batch_format="pandas"
        ),
        ["source"],
        {"n_tokens": ("n_tokens", "sum")},
    )


def bpe_token_counts_per_doc(sf_dir: str):
    """Per-doc BPE-ish token counts (SQL oracle uses the identical
    RE2-compatible pattern)."""
    from ocr_agent_ray.functions.textstats import bpe_token_counts

    def _count(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": bpe_token_counts(batch["text"]),
        })

    return _read_documents(sf_dir).map_batches(_count, batch_format="pandas")


def language_id(sf_dir: str):
    """Heuristic language-ID per doc (marker words + char trigrams).

    Not SQL-expressible — golden-tested on multilingual fixtures in pytest.
    """

    from ocr_agent_ray.functions.textstats import detect_language_batch

    def _lid(batch: pd.DataFrame) -> pd.DataFrame:
        out = detect_language_batch(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"])
        return out

    return _read_documents(sf_dir).map_batches(_lid, batch_format="pandas")


def fingerprints(sf_dir: str):
    """md5 content fingerprint per doc (SQL-checkable against DuckDB md5)."""

    def _fp(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": md5_fingerprint(batch["text"]),
            }
        )

    return _read_documents(sf_dir).map_batches(_fp, batch_format="pandas")


def winnowing_fingerprints(sf_dir: str):
    """Winnowing-style rolling-hash fingerprints (count per doc exposed;
    the full sets feed near-dup detection). Rows-only oracle."""

    def _fp(batch: pd.DataFrame) -> pd.DataFrame:
        counts = np.fromiter(
            (len(rolling_fingerprint(t or "")) for t in batch["text"]),
            dtype=np.int64, count=len(batch),
        )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_fingerprints": counts}
        )

    return _read_documents(sf_dir).map_batches(_fp, batch_format="pandas")


def pii_scrub(sf_dir: str):
    """Redact emails/phones/IPv4s per doc; (doc_id, clean_text,
    n_redactions). Oracle: the identical RE2 regexp_replace chain in
    DuckDB; planted-PII goldens in pytest (testdata is PII-free)."""
    from ocr_agent_ray.functions.textstats import scrub_pii

    def _scrub(batch: pd.DataFrame) -> pd.DataFrame:
        out = scrub_pii(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"])
        return out

    return _read_documents(sf_dir).map_batches(_scrub, batch_format="pandas")


def repetition_scores(sf_dir: str):
    """Gopher-style repetition signals (dup-word ratio, top-word ratio)
    per doc — SQL-expressible via unnest of the token list."""
    from ocr_agent_ray.functions.textstats import repetition_features

    def _rep(batch: pd.DataFrame) -> pd.DataFrame:
        out = repetition_features(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"])
        return out

    return _read_documents(sf_dir).map_batches(_rep, batch_format="pandas")


def alnum_filter(sf_dir: str, threshold: float = 0.8):
    """C4-style filter: docs whose alphanumeric fraction >= threshold,
    with the ratio exposed."""
    from ocr_agent_ray.functions.textstats import alnum_ratios

    def _ratio(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "doc_id": batch["doc_id"],
            "alnum_ratio": alnum_ratios(batch["text"]),
        })
        return out[out["alnum_ratio"] >= threshold]

    return _read_documents(sf_dir).map_batches(_ratio, batch_format="pandas")


def chars_quantiles_by_source(sf_dir: str):
    """Exact per-source length quantiles (median + p90, linear
    interpolation == DuckDB quantile_cont). Small group count -> one
    groupby, vectorized numpy quantile per group; at larger key
    cardinality the same shape hash-partitions by source."""

    from ocr_agent_ray.functions.textstats import round_half_away

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "n_docs": [len(g)],
            "median_chars": [float(round_half_away(np.quantile(v, 0.5), 6))],
            "p90_chars": [float(round_half_away(np.quantile(v, 0.9), 6))],
        })

    return grouped_map_groups(
        _read_documents(sf_dir, columns=("doc_id", "source", "n_chars")),
        _q, key_col="source", num_buckets=8)


def email_domain_counts(sf_dir: str):
    """Frequency table of email DOMAINS found in document text — the
    PII-audit companion to scrub_pii (same RE2-safe email pattern, with a
    capture group on the domain). Per-batch vectorized findall +
    value_counts partials, small-key driver combine (domain cardinality
    is bounded); flip to hash_partition_aggregate if a corpus ever has
    web-scale domain cardinality."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    pat = r"[0-9A-Za-z._%+-]+@([0-9A-Za-z.-]+\.[A-Za-z]{2,})"

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        doms = (batch["text"].fillna("").str.findall(pat)
                .explode().dropna().str.lower())
        counts = doms.value_counts()
        return pd.DataFrame({"domain": counts.index,
                             "n": counts.to_numpy()})

    out = combine_partials_driver(
        _read_documents(sf_dir).map_batches(_partial, batch_format="pandas"),
        ["domain"], {"n": ("n", "sum")})
    out["n"] = out["n"].astype("int64")
    return out.sort_values("domain").reset_index(drop=True)


def token_entropy(sf_dir: str):
    """Per-document Shannon entropy of the token distribution (nats) —
    the lexical-diversity quality signal. Pure per-batch map, no shuffle:
    explode tokens, count per (row, token) with one C-speed groupby,
    entropy = -Σ p ln p vectorized. Docs with zero tokens are excluded
    (same as the SQL side, where they produce no unnested rows)."""

    def _entropy(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        if not len(flat):
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "n_tokens": pd.Series(dtype="int64"),
                                 "n_distinct": pd.Series(dtype="int64"),
                                 "entropy": pd.Series(dtype="float64")})
        cnt = (pd.DataFrame({"i": flat.index, "tok": flat.to_numpy()})
               .groupby(["i", "tok"], sort=False).size())
        n = cnt.groupby(level=0).transform("sum").to_numpy(dtype=np.float64)
        p = cnt.to_numpy(dtype=np.float64) / n
        ent = pd.Series(-(p * np.log(p)),
                        index=cnt.index.get_level_values(0)).groupby(level=0).sum()
        per_doc = cnt.groupby(level=0)
        from ocr_agent_ray.functions.textstats import round_half_away
        idx = ent.index.to_numpy()
        return pd.DataFrame({
            "doc_id": batch["doc_id"].loc[idx].to_numpy(),
            "n_tokens": per_doc.sum().to_numpy(dtype=np.int64),
            "n_distinct": per_doc.size().to_numpy(dtype=np.int64),
            "entropy": round_half_away(ent.to_numpy(), 6),
        })

    return _read_documents(sf_dir).map_batches(
        _entropy, batch_format="pandas", batch_size=8192)


def bigram_perplexity(sf_dir: str, *,
                      broadcast_max_counts: int = 2_000_000):
    """CCNet-style LM quality scoring: per-doc perplexity under an
    add-one-smoothed bigram model trained on the corpus itself —
    p(w2|w1) = (B(w1,w2)+1) / (U(w1)+V). High perplexity = text unlike
    the corpus (gibberish / boilerplate), the classic filter signal.

    SINGLE corpus pass (the tagged-union scan): one tokenize per batch
    emits per-batch unigram partials (``u`` set) and per-bigram
    occurrence rows (``bg`` set), materialized so downstream consumers
    filter object-store blocks instead of re-tokenizing. Both count
    tables then fold in ONE bucketed exchange (keys disjoint by
    construction: unigram keys never contain a space, bigram keys
    always do — the r4→r5 change; previously unigram and bigram counts
    each paid their own exchange over the occurrence-sized union).

    Two-tier rejoin (the dup_graph_pagerank discipline): count tables
    ≤ ``broadcast_max_counts`` rows ride the task closure into one
    vectorized log-prob map over the occurrence rows; larger vocabs
    fall back to the fully-distributed pair of bucket hash joins (at
    100 TB the vocab doesn't broadcast). Identical arithmetic on both
    tiers; the per-doc mean log-prob fold is bucketed either way.

    Docs with < 2 tokens are excluded (no bigrams — same rule as the
    SQL twin). Returns (doc_id, n_bigrams, ppl), ppl = exp(-mean ln p).
    """
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    docs = _read_documents(sf_dir)

    def _tagged(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(
            r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        words = flat.to_numpy()
        row = flat.index.to_numpy()
        counts = flat.value_counts()
        uni_part = pd.DataFrame({
            "doc_id": pd.array([pd.NA] * len(counts), dtype="Int64"),
            "w1": counts.index.to_numpy(dtype=object),
            "bg": pd.Series([None] * len(counts), dtype="object"),
            "u": pd.array(counts.to_numpy(), dtype="Int64"),
        })
        if len(words) < 2:
            return uni_part
        same = row[1:] == row[:-1]
        w1 = words[:-1][same]
        w2 = words[1:][same]
        doc = batch["doc_id"].loc[row[:-1][same]].to_numpy()
        # generator concat beats np.char.add ~10x on object arrays
        bg = np.fromiter((a + " " + c for a, c in zip(w1, w2)),
                         dtype=object, count=len(w1))
        pair_part = pd.DataFrame({
            "doc_id": pd.array(doc, dtype="Int64"),
            "w1": w1,
            "bg": bg,
            "u": pd.array([pd.NA] * len(w1), dtype="Int64"),
        })
        return pd.concat([uni_part, pair_part], ignore_index=True)

    tagged = docs.map_batches(_tagged, batch_format="pandas",
                              batch_size=8192).materialize()

    # ONE count exchange: key = the unigram word or the bigram string
    # (disjoint key spaces — bigram keys contain a space), per-batch
    # pre-count so only (key, partial) rows ride the exchange.
    def _count_rows(batch: pd.DataFrame) -> pd.DataFrame:
        isu = batch["u"].notna().to_numpy()
        out = []
        if isu.any():
            f = batch[isu]
            out.append(pd.DataFrame({
                "key": f["w1"].to_numpy(dtype=object),
                "is_bg": np.zeros(len(f), dtype=np.int64),
                "cnt": f["u"].astype("int64").to_numpy()}))
        if (~isu).any():
            c = batch.loc[~isu, "bg"].value_counts()
            out.append(pd.DataFrame({
                "key": c.index.to_numpy(dtype=object),
                "is_bg": np.ones(len(c), dtype=np.int64),
                "cnt": c.to_numpy().astype(np.int64)}))
        if not out:
            return pd.DataFrame({"key": pd.Series(dtype="object"),
                                 "is_bg": pd.Series(dtype="int64"),
                                 "cnt": pd.Series(dtype="int64")})
        return pd.concat(out, ignore_index=True)

    counts = hash_partition_aggregate(
        tagged.map_batches(_count_rows, batch_format="pandas",
                           batch_size=65536),
        ["key", "is_bg"], {"cnt": ("cnt", "sum")}).materialize()
    n_counts = int(counts.count())
    vocab = int(counts.map_batches(
        lambda b: pd.DataFrame({"n": [int((b["is_bg"] == 0).sum())]}),
        batch_format="pandas").sum("n"))

    def _pair_sel(batch: pd.DataFrame) -> pd.DataFrame:
        f = batch[batch["bg"].notna()]
        return pd.DataFrame({"doc_id": f["doc_id"].astype("int64"),
                             "w1": f["w1"], "bg": f["bg"]})

    pair_rows = tagged.map_batches(_pair_sel, batch_format="pandas",
                                   batch_size=65536)

    if n_counts <= broadcast_max_counts:
        # small-vocab tier: both count tables ride the closure (Ray
        # ships it once per task via the object store)
        cdf = counts.to_pandas()
        u_map = dict(zip(cdf.loc[cdf["is_bg"] == 0, "key"],
                         cdf.loc[cdf["is_bg"] == 0, "cnt"].astype(np.int64)))
        b_map = dict(zip(cdf.loc[cdf["is_bg"] == 1, "key"],
                         cdf.loc[cdf["is_bg"] == 1, "cnt"].astype(np.int64)))

        def _logp_rows(batch: pd.DataFrame) -> pd.DataFrame:
            b = batch["bg"].map(b_map).to_numpy(dtype=np.float64)
            u = batch["w1"].map(u_map).to_numpy(dtype=np.float64)
            lp = np.log((b + 1.0) / (u + vocab))
            return pd.DataFrame({
                "doc_id": batch["doc_id"],
                "one": np.ones(len(batch), dtype=np.int64),
                "lp": lp})

        scored = pair_rows.map_batches(_logp_rows, batch_format="pandas",
                                       batch_size=65536)
    else:
        # large-vocab tier: fully distributed rejoin via two bucket
        # hash joins (composite string key on the bigram side)
        s = pa.string()
        big = counts.map_batches(
            lambda b: b.loc[b["is_bg"] == 1, ["key", "cnt"]].rename(
                columns={"key": "bg", "cnt": "b"}),
            batch_format="pandas", batch_size=65536)
        uni = counts.map_batches(
            lambda b: b.loc[b["is_bg"] == 0, ["key", "cnt"]].rename(
                columns={"key": "w1", "cnt": "u"}),
            batch_format="pandas", batch_size=65536)
        j1 = bucket_hash_join(
            pair_rows, big, on="bg",
            left_schema=pa.schema([("doc_id", pa.int64()), ("w1", s),
                                   ("bg", s)]),
            right_schema=pa.schema([("bg", s), ("b", pa.int64())]))
        j2 = bucket_hash_join(
            j1, uni, on="w1",
            left_schema=pa.schema([("doc_id", pa.int64()), ("w1", s),
                                   ("bg", s), ("b", pa.int64())]),
            right_schema=pa.schema([("w1", s), ("u", pa.int64())]))

        def _logp(batch: pd.DataFrame) -> pd.DataFrame:
            lp = np.log((batch["b"].to_numpy(dtype=np.float64) + 1.0)
                        / (batch["u"].to_numpy(dtype=np.float64) + vocab))
            return pd.DataFrame({
                "doc_id": batch["doc_id"],
                "one": np.ones(len(batch), dtype=np.int64),
                "lp": lp})

        scored = j2.map_batches(_logp, batch_format="pandas",
                                batch_size=65536)

    per_doc = hash_partition_aggregate(
        scored, ["doc_id"], {"n_bigrams": ("one", "sum"),
                             "slp": ("lp", "sum")})

    def _final(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_bigrams"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_bigrams": batch["n_bigrams"].astype("int64"),
            "ppl": round_half_away(
                np.exp(-batch["slp"].to_numpy() / n), 4),
        })

    return per_doc.map_batches(_final, batch_format="pandas",
                               batch_size=65536)


def sentence_stats(sf_dir: str):
    """Per-doc sentence segmentation stats (count + mean length) with
    the splitting rule pinned to a regex both engines implement
    identically ([.!?]+ terminators, trimmed, empties dropped). Pure
    per-batch map: one vectorized split + explode + two C-speed grouped
    folds, no shuffle.

    Trim is pinned to SPACES ONLY — DuckDB trim() strips ' ' while
    Python str.strip() strips all Unicode whitespace, a latent parity
    break on \\t/\\n-adjacent boundaries (same class of bug the ASCII
    \\s pin in md5_fingerprint guards against)."""
    from ocr_agent_ray.functions.textstats import round_half_away

    def _stats(batch: pd.DataFrame) -> pd.DataFrame:
        segs = batch["text"].fillna("").str.split(r"[.!?]+", regex=True)
        flat = segs.explode().str.strip(" ")
        flat = flat[flat != ""]
        n = (flat.groupby(level=0).size()
             .reindex(batch.index, fill_value=0).to_numpy(dtype=np.int64))
        chars = (flat.str.len().groupby(level=0).sum()
                 .reindex(batch.index, fill_value=0)
                 .to_numpy(dtype=np.float64))
        avg = np.where(n > 0, chars / np.maximum(n, 1), 0.0)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_sentences": n,
            "avg_sentence_chars": round_half_away(avg, 6),
        })

    return _read_documents(sf_dir).map_batches(
        _stats, batch_format="pandas", batch_size=8192)


def _source_topk_counts(sf_dir: str, top_k: int):
    """Shared two-fold scan for the divergence screens: corpus top-k
    words (tops, q_total) via bucketed partial counts, then
    per-(source, top-word) counts (sc) as a tiny combine."""
    from ocr_agent_ray.pipelines.agg import (
        combine_partials_driver,
        hash_partition_aggregate,
    )

    def _uni(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(
            r"[0-9a-z_]+")
        counts = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": counts.index,
                             "n": counts.to_numpy()})

    per_word = hash_partition_aggregate(
        _read_documents(sf_dir).map_batches(_uni, batch_format="pandas"),
        ["word"], {"n": ("n", "sum")})
    tops = (per_word.map_batches(
        lambda b: b.sort_values(["n", "word"],
                                ascending=[False, True]).head(top_k),
        batch_format="pandas").to_pandas()
        .sort_values(["n", "word"], ascending=[False, True]).head(top_k))
    top_set = set(tops["word"])
    q_counts = dict(zip(tops["word"], tops["n"].astype(float)))
    q_total = float(tops["n"].sum())

    def _src_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(
            r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        df = pd.DataFrame({
            "source": batch["source"].loc[flat.index].to_numpy(),
            "word": flat.to_numpy(),
        })
        df = df[df["word"].isin(top_set)]
        g = df.groupby(["source", "word"], sort=False).size()
        out = g.index.to_frame(index=False)
        out["c"] = g.to_numpy()
        return out

    sc = combine_partials_driver(
        _read_documents(sf_dir, columns=("source", "text")).map_batches(
            _src_counts, batch_format="pandas", batch_size=8192),
        ["source", "word"], {"c": ("c", "sum")})
    return tops, q_counts, q_total, sc


def source_kl_divergence(sf_dir: str, *, top_k: int = 100):
    """Distribution drift per source: KL(p_source ‖ p_corpus) over the
    corpus's top-k words (restricting to a shared finite support keeps
    the divergence well-defined — q > 0 everywhere by construction, and
    p=0 terms contribute 0). Two passes: corpus top-k via bucketed
    partial counts (top_words shape), then per-(source, top-word)
    counts as a tiny combine (sources × k keys), KL vectorized."""
    from ocr_agent_ray.functions.textstats import round_half_away

    _, q_counts, q_total, sc = _source_topk_counts(sf_dir, top_k)
    ps = sc.groupby("source")["c"].transform("sum").to_numpy(
        dtype=np.float64)
    p = sc["c"].to_numpy(dtype=np.float64) / ps
    q = (sc["word"].map(q_counts).to_numpy(dtype=np.float64) / q_total)
    sc = sc.assign(term=p * np.log(p / q))
    out = sc.groupby("source", as_index=False)["term"].sum().rename(
        columns={"term": "kl"})
    out["kl"] = round_half_away(out["kl"].to_numpy(), 6)
    return out.sort_values("source").reset_index(drop=True)


def source_js_divergence(sf_dir: str, *, top_k: int = 100):
    """Jensen-Shannon divergence per source vs the corpus over the
    top-k support — KL's symmetric, bounded sibling (≤ ln 2), the
    score mixture rebalancing actually thresholds on (KL explodes on
    rare-word sources; JS saturates). Unlike KL the q-side sum needs
    the FULL support including words the source never uses, so the
    driver reindexes each source's count vector over the top-k grid
    (sources × k — dimension-sized). Same two folds as the KL screen
    (shared scan). Columns: source, jsd."""
    from ocr_agent_ray.functions.textstats import round_half_away

    tops, _, q_total, sc = _source_topk_counts(sf_dir, top_k)
    words = tops["word"].to_numpy()
    qv = tops["n"].to_numpy(np.float64) / np.float64(q_total)
    rows = []
    for src, sub in sc.groupby("source"):
        cvec = sub.set_index("word")["c"] \
            .reindex(words, fill_value=0).to_numpy(np.float64)
        p = cvec / cvec.sum()
        mm = 0.5 * (p + qv)
        termp = np.zeros_like(p)
        mask = p > 0
        termp[mask] = p[mask] * np.log(p[mask] / mm[mask])
        termq = qv * np.log(qv / mm)
        rows.append((src, 0.5 * termp.sum() + 0.5 * termq.sum()))
    out = pd.DataFrame(rows, columns=["source", "jsd"])
    out["jsd"] = round_half_away(out["jsd"].to_numpy(), 6)
    return out.sort_values("source").reset_index(drop=True)


def source_vocab_overlap(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources — the corpus-
    comparison matrix that shows which sources share a register.
    Distinct (source, word) pairs fold bucketed BY WORD; each word
    bucket emits its source-pair co-occurrences via a vectorized
    self-merge (bounded by sources-per-word²); intersections and vocab
    sizes combine tiny (sources² keys)."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (
        combine_partials_driver,
        distinct_rows,
    )

    def _words(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(
            r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        out = pd.DataFrame({
            "source": batch["source"].loc[flat.index].to_numpy(),
            "word": flat.to_numpy(),
        })
        return out.drop_duplicates()

    pairs = distinct_rows(
        _read_documents(sf_dir, columns=("source", "text")).map_batches(
            _words, batch_format="pandas", batch_size=8192),
        ["source", "word"], num_buckets=16).materialize()

    sizes = combine_partials_driver(
        pairs, ["source"], {"vocab": ("word", "count")})
    size_map = dict(zip(sizes["source"], sizes["vocab"].astype(int)))

    def _cross(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch.merge(batch, on="word", suffixes=("_a", "_b"))
        m = m[m["source_a"] < m["source_b"]]
        return m[["word", "source_a", "source_b"]]

    # co-locate each word's source rows: bucket by word hash
    def _bucketed(batch: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(batch["word"].to_numpy(dtype=object))
        return batch.assign(__b=(h % np.uint64(16)).astype("int32"))

    inter = combine_partials_driver(
        bucket_map_groups(
            pairs.map_batches(_bucketed, batch_format="pandas",
                              batch_size=65536),
            lambda g: _cross(g.drop(columns="__b")), num_buckets=16),
        ["source_a", "source_b"], {"n_common": ("word", "count")})

    inter["n_common"] = inter["n_common"].astype("int64")
    va = inter["source_a"].map(size_map).to_numpy(dtype=np.float64)
    vb = inter["source_b"].map(size_map).to_numpy(dtype=np.float64)
    c = inter["n_common"].to_numpy(dtype=np.float64)
    inter["jaccard"] = round_half_away(c / (va + vb - c), 6)
    return inter.sort_values(["source_a", "source_b"]).reset_index(
        drop=True)


def mad_doc_lengths(sf_dir: str):
    """Median absolute deviation of doc length per source — the robust
    spread statistic behind outlier fences (median ± k·MAD). Two grouped
    quantile passes: exact per-source median (tiny broadcast), then the
    median of |x − median| — same groupby-quantile shape each time."""
    from ocr_agent_ray.functions.textstats import round_half_away

    def _median(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame({"source": [g["source"].iloc[0]],
                             "med": [float(np.quantile(v, 0.5))]})

    meds = grouped_map_groups(
        _read_documents(sf_dir, columns=("source", "n_chars")),
        _median, key_col="source", num_buckets=8).to_pandas()
    med_map = dict(zip(meds["source"], meds["med"]))

    def _absdev(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["source"].map(med_map).to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "source": batch["source"],
            "dev": np.abs(batch["n_chars"].to_numpy(dtype=np.float64) - m),
        })

    def _mad(g: pd.DataFrame) -> pd.DataFrame:
        v = g["dev"].to_numpy(dtype=np.float64)
        src = g["source"].iloc[0]
        return pd.DataFrame({
            "source": [src],
            "median_chars": [float(round_half_away(med_map[src], 6))],
            "mad": [float(round_half_away(np.quantile(v, 0.5), 6))],
        })

    return grouped_map_groups(
        _read_documents(sf_dir, columns=("source", "n_chars"))
        .map_batches(_absdev, batch_format="pandas", batch_size=65536),
        _mad, key_col="source", num_buckets=8)


def length_outliers(sf_dir: str, *, k: float = 3.0):
    """Robust per-source outlier flags: a doc is an outlier when its
    length falls outside median ± k·MAD (the robust z-score fence that
    length-based quality filters use). Composes the mad_doc_lengths
    fold (tiny per-source table) with a broadcast flag map."""
    bounds = mad_doc_lengths(sf_dir).to_pandas()
    lo_map = dict(zip(bounds["source"],
                      bounds["median_chars"] - k * bounds["mad"]))
    hi_map = dict(zip(bounds["source"],
                      bounds["median_chars"] + k * bounds["mad"]))

    def _flag(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["n_chars"].to_numpy(dtype=np.float64)
        lo = batch["source"].map(lo_map).to_numpy(dtype=np.float64)
        hi = batch["source"].map(hi_map).to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_chars": batch["n_chars"],
            "is_outlier": pd.array((v < lo) | (v > hi), dtype="bool"),
        })

    return _read_documents(
        sf_dir, columns=("doc_id", "source", "n_chars")
    ).map_batches(_flag, batch_format="pandas", batch_size=65536)


def top_collocations(sf_dir: str, *, k: int = 15, min_count: int = 5):
    """Top-k adjacent-bigram collocations by pointwise mutual information
    (PMI) — the phrase-mining step of corpus analysis. Multi-stage
    distributed shape:

    1. ONE corpus scan emits a tagged union of per-batch partial counts:
       vectorized tokenize (str.findall) once per batch, a shift-compare
       pairs consecutive tokens within each doc, pandas value_counts —
       unigram rows carry ``w2 = null``, bigram rows carry both words
       (the previous shape tokenized the corpus twice);
    2. two hash_partition_aggregate combines over the materialized
       union's filtered halves (vocab and bigram tables never sit in
       one place);
    3. two bucket_hash_joins rejoin unigram counts to the bigram table;
    4. PMI = ln((c/NB) / ((c1/N)(c2/N))) vectorized, min_count filter,
       per-batch partial top-k, tiny driver merge.

    Totals N / NB fold from the aggregated count tables (materialized —
    they are post-aggregation, bounded by vocab size not corpus size)."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    docs = _read_documents(sf_dir, columns=("doc_id", "text"))

    def _tagged_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        words = flat.to_numpy()
        doc = flat.index.to_numpy()
        counts = flat.value_counts()
        uni_part = pd.DataFrame({
            "w1": counts.index.to_numpy(dtype=object),
            "w2": pd.Series([None] * len(counts), dtype="object"),
            "n": counts.to_numpy(),
        })
        if len(words) < 2:
            return uni_part
        same = doc[1:] == doc[:-1]          # pairs never cross documents
        pairs = pd.DataFrame({"w1": words[:-1][same], "w2": words[1:][same]})
        pc = pairs.value_counts()
        big_part = pc.index.to_frame(index=False)
        big_part["n"] = pc.to_numpy()
        return pd.concat([uni_part, big_part], ignore_index=True)

    tagged = docs.map_batches(_tagged_partial,
                              batch_format="pandas").materialize()

    def _uni_rows(batch: pd.DataFrame) -> pd.DataFrame:
        f = batch[batch["w2"].isna()]
        return pd.DataFrame({"word": f["w1"], "n": f["n"].astype("int64")})

    def _big_rows(batch: pd.DataFrame) -> pd.DataFrame:
        f = batch[batch["w2"].notna()]
        return pd.DataFrame({"w1": f["w1"], "w2": f["w2"],
                             "c": f["n"].astype("int64")})

    uni = hash_partition_aggregate(
        tagged.map_batches(_uni_rows, batch_format="pandas",
                           batch_size=65536),
        ["word"], {"n": ("n", "sum")}).materialize()
    big = hash_partition_aggregate(
        tagged.map_batches(_big_rows, batch_format="pandas",
                           batch_size=65536),
        ["w1", "w2"], {"c": ("c", "sum")}).materialize()
    n_uni = int(uni.sum("n"))
    n_big = int(big.sum("c"))

    u1 = uni.map_batches(
        lambda b: b.rename(columns={"word": "w1", "n": "c1"}),
        batch_format="pandas")
    u2 = uni.map_batches(
        lambda b: b.rename(columns={"word": "w2", "n": "c2"}),
        batch_format="pandas")
    s = pa.string()
    j1 = bucket_hash_join(
        big, u1, on="w1",
        left_schema=pa.schema([("w1", s), ("w2", s), ("c", pa.int64())]),
        right_schema=pa.schema([("w1", s), ("c1", pa.int64())]))
    j2 = bucket_hash_join(
        j1, u2, on="w2",
        left_schema=pa.schema([("w1", s), ("w2", s), ("c", pa.int64()),
                               ("c1", pa.int64())]),
        right_schema=pa.schema([("w2", s), ("c2", pa.int64())]))

    def _pmi_topk(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["c"] >= min_count]
        if not len(b):
            return pd.DataFrame({"w1": pd.Series(dtype="object"),
                                 "w2": pd.Series(dtype="object"),
                                 "pair_count": pd.Series(dtype="int64"),
                                 "pmi": pd.Series(dtype="float64")})
        p_xy = b["c"].to_numpy(dtype=np.float64) / n_big
        p_x = b["c1"].to_numpy(dtype=np.float64) / n_uni
        p_y = b["c2"].to_numpy(dtype=np.float64) / n_uni
        out = pd.DataFrame({
            "w1": b["w1"], "w2": b["w2"],
            "pair_count": b["c"].astype("int64"),
            "pmi": round_half_away(np.log(p_xy / (p_x * p_y)), 6),
        })
        return out.sort_values(["pmi", "w1", "w2"],
                               ascending=[False, True, True]).head(k)

    tops = j2.map_batches(_pmi_topk, batch_format="pandas",
                          batch_size=65536).to_pandas()
    return (tops.sort_values(["pmi", "w1", "w2"],
                             ascending=[False, True, True])
            .head(k).reset_index(drop=True))


def winsorize_doc_lengths(sf_dir: str, *, lo: float = 0.05, hi: float = 0.95):
    """Per-source winsorization (outlier clipping) of document length —
    the robust-stats normalization step before length-based quality
    filters. Two phases: (1) exact per-source p05/p95 via the same
    groupby-quantile shape as chars_quantiles_by_source, collected to a
    tiny (sources × 2) driver table; (2) a broadcast clip map over the
    corpus (dict lookup per batch, no second shuffle). Linear
    interpolation == DuckDB percentile_cont."""

    def _q(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "lo": [float(np.quantile(v, lo))],
            "hi": [float(np.quantile(v, hi))],
        })

    bounds = grouped_map_groups(
        _read_documents(sf_dir, columns=("source", "n_chars")),
        _q, key_col="source", num_buckets=8).to_pandas()
    if bounds.empty:          # empty input: map_groups emits no columns
        lo_map, hi_map = {}, {}
    else:
        lo_map = dict(zip(bounds["source"], bounds["lo"]))
        hi_map = dict(zip(bounds["source"], bounds["hi"]))

    def _clip(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["n_chars"].to_numpy(dtype=np.float64)
        l = batch["source"].map(lo_map).to_numpy(dtype=np.float64)
        h = batch["source"].map(hi_map).to_numpy(dtype=np.float64)
        from ocr_agent_ray.functions.textstats import round_half_away

        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_chars": batch["n_chars"],
            # round to 6: np.quantile and percentile_cont interpolate the
            # same value up to float ulp, which rounding absorbs
            "winsorized": round_half_away(np.clip(v, l, h), 6),
        })

    return _read_documents(
        sf_dir, columns=("doc_id", "source", "n_chars")
    ).map_batches(_clip, batch_format="pandas", batch_size=65536)


def decontaminate(sf_dir: str, *, n: int = 8, benchmark_mod: int = 97):
    """Training-set decontamination: drop docs sharing any word n-gram
    with a benchmark set (here: docs with doc_id % benchmark_mod == 0,
    standing in for an eval suite). Benchmark n-grams are collected once
    and broadcast (benchmark sets are small by construction); the corpus
    streams through a membership filter. Returns surviving doc_ids with
    their overlap count (0 by construction) plus dropped contaminated ids
    flagged — emitted as (doc_id, contaminated)."""
    import ray

    from ocr_agent_ray.functions.textstats import word_ngrams

    docs = _read_documents(sf_dir)

    bench = docs.map_batches(
        lambda b: b[b["doc_id"] % benchmark_mod == 0], batch_format="pandas")
    grams: set = set()
    for b in bench.iter_batches(batch_format="pandas", batch_size=4096):
        for did, text in zip(b["doc_id"], b["text"]):
            grams.update(word_ngrams(text, n))
    ref = ray.put(grams)

    def _flag(batch: pd.DataFrame) -> pd.DataFrame:
        gset = ray.get(ref)
        contaminated = [
            any(g in gset for g in word_ngrams(t, n)) for t in batch["text"]
        ]
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "contaminated": pd.array(contaminated, dtype="bool"),
        })

    return docs.map_batches(_flag, batch_format="pandas")


def contamination_fraction(sf_dir: str, *, n: int = 8,
                           benchmark_mod: int = 97):
    """GPT-3-appendix-style contamination MEASUREMENT (decontaminate's
    graded sibling): for every doc with at least one word n-gram, the
    fraction of its DISTINCT n-grams that also occur in the benchmark
    set (docs with doc_id % benchmark_mod == 0 stand in for the eval
    suite, exactly as in decontaminate). Benchmark grams are collected
    once and broadcast; the corpus streams through the scorer — no
    shuffle. Docs with fewer than n tokens have no grams and are
    omitted (the SQL oracle's GROUP BY drops them identically)."""
    import ray

    from ocr_agent_ray.functions.textstats import round_half_away, word_ngrams

    docs = _read_documents(sf_dir)

    bench = docs.map_batches(
        lambda b: b[b["doc_id"] % benchmark_mod == 0], batch_format="pandas")
    grams: set = set()
    for b in bench.iter_batches(batch_format="pandas", batch_size=4096):
        for text in b["text"]:
            grams.update(word_ngrams(text, n))
    ref = ray.put(grams)

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        gset = ray.get(ref)
        ids, tot, hit = [], [], []
        for did, t in zip(batch["doc_id"], batch["text"]):
            gs = set(word_ngrams(t, n))
            if not gs:
                continue
            ids.append(did)
            tot.append(len(gs))
            hit.append(sum(1 for g in gs if g in gset))
        tot_a = np.asarray(tot, dtype="int64")
        hit_a = np.asarray(hit, dtype="int64")
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "n_grams": tot_a,
            "n_hits": hit_a,
            "contamination": round_half_away(
                hit_a / np.maximum(tot_a, 1), 6),
        })

    return docs.map_batches(_score, batch_format="pandas")


def type_token_stats(sf_dir: str):
    """Per-source lexical-diversity profile: token count, vocabulary size
    (types), type-token ratio, hapax-legomena count and ratio. Per-batch
    (word, source) partial counts → bucketed combine keyed by word hash
    (the vocabulary never sits in one place) → per-bucket fold to tiny
    (source, n_tokens, n_types, n_hapax) partials → driver combine over
    ≤ buckets × sources rows. Exact because each (word, source) pair
    lands in exactly one bucket."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        ex = pd.DataFrame({"source": batch["source"], "word": toks}) \
            .explode("word").dropna(subset=["word"])
        return ex.groupby(["word", "source"], as_index=False).size() \
            .rename(columns={"size": "n"})

    per_ws = hash_partition_aggregate(
        read_table(sf_dir, "documents", ["source", "text"]).map_batches(
            _partial, batch_format="pandas"),
        ["word", "source"], {"n": ("n", "sum")})

    def _source_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("source", as_index=False).agg(
            n_tokens=("n", "sum"), n_types=("n", "size"),
            n_hapax=("n", lambda s: int((s == 1).sum())))

    parts = per_ws.map_batches(
        _source_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "source": pd.Series(dtype="object"),
            "n_tokens": pd.Series(dtype="int64"),
            "n_types": pd.Series(dtype="int64"),
            "ttr": pd.Series(dtype="float64"),
            "n_hapax": pd.Series(dtype="int64"),
            "hapax_ratio": pd.Series(dtype="float64"),
        })
    out = parts.groupby("source", as_index=False).sum()
    for c in ("n_tokens", "n_types", "n_hapax"):
        out[c] = out[c].astype("int64")
    out["ttr"] = round_half_away(
        out["n_types"].to_numpy() / out["n_tokens"].to_numpy(), 6)
    out["hapax_ratio"] = round_half_away(
        out["n_hapax"].to_numpy() / out["n_types"].to_numpy(), 6)
    return out[["source", "n_tokens", "n_types", "ttr",
                "n_hapax", "hapax_ratio"]]


def tfidf_top_terms(sf_dir: str, *, k: int = 5):
    """Per-source top-k TF-IDF terms — the classic corpus-weighting
    pipeline, every shuffle bucketed by word:

    - TF: per-(source, word) counts via hash_partition_aggregate
      (map-side value_counts partials, one bucketed combine);
    - DF: distinct (word, doc_id) then per-word counts — document
      frequency, again bucketed by word;
    - score: TF ⋈ DF bucket_hash_join on word, tfidf = tf·ln(N/df);
    - top-k: per-source rank over the (small) scored table.

    N (total docs) is one count; nothing materializes the vocabulary in
    one place until the final per-source top-k (k×sources rows)."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (
        distinct_rows,
        hash_partition_aggregate,
    )
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    docs = _read_documents(sf_dir, columns=("doc_id", "source", "text"))
    n_docs = read_table(sf_dir, "documents", ["doc_id"]).count()

    def _tokens(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        out = pd.DataFrame({
            "doc_id": batch["doc_id"], "source": batch["source"], "word": toks,
        }).explode("word").dropna(subset=["word"])
        return out

    tokens = docs.map_batches(_tokens, batch_format="pandas")

    def _tf_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["source", "word"], as_index=False, sort=False).size()
        return g.rename(columns={"size": "tf"})

    tf = hash_partition_aggregate(
        tokens.map_batches(_tf_partial, batch_format="pandas",
                           batch_size=65536),
        ["word", "source"], {"tf": ("tf", "sum")},
    )

    df_pairs = distinct_rows(
        tokens.map_batches(lambda b: b[["word", "doc_id"]],
                           batch_format="pandas"),
        ["word", "doc_id"],
    )
    df = hash_partition_aggregate(
        df_pairs, ["word"], {"df": ("doc_id", "count")},
    )

    scored = bucket_hash_join(
        tf, df, on="word",
        left_schema=pa.schema([("word", pa.string()), ("source", pa.string()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("word", pa.string()), ("df", pa.int64())]),
    )

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        idf = np.log(float(n_docs) / batch["df"].to_numpy(dtype=np.float64))
        batch = batch.assign(
            tfidf=round_half_away(batch["tf"].to_numpy(dtype=np.float64) * idf, 6)
        )
        return batch[["source", "word", "tfidf"]]

    def _topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["tfidf", "word"], ascending=[False, True],
                             kind="mergesort").head(k)

    return grouped_map_groups(
        scored.map_batches(_score, batch_format="pandas"),
        _topk, key_col="source", num_buckets=8)


def decontaminate_bloom(sf_dir: str, *, n: int = 8, benchmark_mod: int = 97,
                        log2_bits: int = 20, k_hashes: int = 4):
    """Decontamination's 100-TB path: the benchmark n-gram set broadcasts
    as a BLOOM FILTER (a 2^log2_bits-bit numpy array — constant size no
    matter how many benchmark grams) instead of an exact Python set.
    One-sided error by construction: NO false negatives (every truly
    contaminated doc is flagged); false positives over-flag clean docs at
    the filter's FPR (~(1-e^{-kn/m})^k — property-tested). Gram hashing
    reuses the vectorized batch hasher from the dedup module; the k bloom
    probes derive from the gram hash via splitmix64(h + i)."""
    import ray

    from ocr_agent_ray.functions.hashing import splitmix64
    from ocr_agent_ray.pipelines.dedup import _word_ngram_hash_sets

    bits = 1 << log2_bits
    mask = np.uint64(bits - 1)

    def _positions(h: np.ndarray) -> np.ndarray:
        # k probe positions per gram hash: (len(h), k)
        offs = np.arange(1, k_hashes + 1, dtype=np.uint64)
        return (splitmix64((h[:, None] + offs[None, :]).ravel()) & mask
                ).reshape(len(h), k_hashes)

    docs = _read_documents(sf_dir)
    bench = docs.map_batches(
        lambda b: b[b["doc_id"] % benchmark_mod == 0], batch_format="pandas")
    bloom = np.zeros(bits, dtype=bool)
    for b in bench.iter_batches(batch_format="pandas", batch_size=4096):
        for h in _word_ngram_hash_sets(b["text"], n):
            if len(h):
                bloom[_positions(h).ravel()] = True
    ref = ray.put(np.packbits(bloom))

    def _flag(batch: pd.DataFrame) -> pd.DataFrame:
        filt = np.unpackbits(ray.get(ref)).view(bool)
        flags = []
        for h in _word_ngram_hash_sets(batch["text"], n):
            if not len(h):
                flags.append(False)
                continue
            hits = filt[_positions(h)].all(axis=1)  # gram in filter ⇔ all k bits
            flags.append(bool(hits.any()))
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "contaminated": pd.array(flags, dtype="bool"),
        })

    return docs.map_batches(_flag, batch_format="pandas")


def doc_length_zscore(sf_dir: str):
    """Per-group feature standardization: z-score of doc length within
    its source — the training-data feature-prep pattern. Group moments
    (n, Σx, Σx²) come from partials; the per-source (mean, std) map is
    tiny and broadcasts into a second vectorized pass. No window shuffle:
    a window aggregate whose partition stats fit a dict needs none."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    ds = _read_documents(sf_dir, columns=("doc_id", "source", "n_chars"))

    stats = combine_partials_driver(
        ds.map_batches(
            lambda b: b.assign(x2=b["n_chars"].astype("float64") ** 2),
            batch_format="pandas"),
        ["source"],
        {"n": ("n_chars", "count"), "s": ("n_chars", "sum"),
         "ss": ("x2", "sum")},
    )
    n = stats["n"].astype("float64")
    mean = stats["s"] / n
    std = np.sqrt((stats["ss"] - stats["s"] ** 2 / n) / (n - 1))
    mean_map = dict(zip(stats["source"], mean))
    std_map = dict(zip(stats["source"], std))

    def _z(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["source"].map(mean_map).to_numpy(dtype=np.float64)
        s = batch["source"].map(std_map).to_numpy(dtype=np.float64)
        z = (batch["n_chars"].to_numpy(dtype=np.float64) - m) / s
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "source": batch["source"],
                             "z_chars": round_half_away(z, 6)})

    return ds.map_batches(_z, batch_format="pandas")


def rare_word_docs(sf_dir: str, *, k_rarest: int = 3):
    """Inverse lookup by corpus-rare tokens: docs containing any of the
    corpus's ``k_rarest`` least-frequent words (ties broken by word), with
    the distinct-rare-word count per doc — the 'flag documents with
    hapax/noise tokens' quality filter. Corpus word counts are bucketed
    (hash_partition_aggregate); the bottom-k set is tiny by construction
    and broadcasts as a membership probe."""
    import ray

    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    docs = _read_documents(sf_dir)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        counts = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": counts.index, "n": counts.to_numpy()})

    counts = hash_partition_aggregate(
        docs.map_batches(_partial, batch_format="pandas"),
        ["word"], {"n": ("n", "sum")},
    )
    # bottom-k per bucket, then a tiny driver merge (mirror of top_words)
    def _bucket_bottomk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["n", "word"], kind="mergesort").head(k_rarest)

    pooled = [b for b in counts.map_batches(
        _bucket_bottomk, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=65536)]
    allc = pd.concat(pooled, ignore_index=True) if pooled else pd.DataFrame(
        columns=["word", "n"])
    rare = set(allc.sort_values(["n", "word"], kind="mergesort")
                   .head(k_rarest)["word"])
    ref = ray.put(rare)

    def _probe(batch: pd.DataFrame) -> pd.DataFrame:
        rset = ray.get(ref)
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        n_rare = [len(set(t) & rset) for t in toks]
        out = pd.DataFrame({"doc_id": batch["doc_id"],
                            "n_rare_words": pd.array(n_rare, dtype="int64")})
        return out[out["n_rare_words"] > 0]

    return docs.map_batches(_probe, batch_format="pandas")


def gopher_quality(sf_dir: str):
    """Gopher-rule document quality table (doc_id + signals + keep flag);
    pure per-doc map, streams at any scale. Oracle: the identical rule set
    in DuckDB list/regex SQL."""
    from ocr_agent_ray.functions.textstats import gopher_features

    def _g(batch: pd.DataFrame) -> pd.DataFrame:
        out = gopher_features(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"])
        return out

    return _read_documents(sf_dir).map_batches(_g, batch_format="pandas")


def line_dedup(sf_dir: str, *, num_buckets: int = 32):
    """Cross-document exact LINE dedup — the C4/RefinedWeb 'remove lines
    duplicated anywhere in the corpus' pass (see ``_segment_dedup`` for
    the distributed shape; this is the separator='\\n' instance)."""
    return _segment_dedup(sf_dir, sep="\n",
                          kept_col="n_kept_lines", total_col="n_lines",
                          num_buckets=num_buckets)


def paragraph_dedup(sf_dir: str, *, num_buckets: int = 32):
    """Cross-document exact PARAGRAPH dedup (RefinedWeb-style): a
    paragraph (blank-line-separated block) survives iff it is the
    corpus-global first occurrence of that exact text. Same distributed
    shape as line_dedup — only 64-bit hashes cross the wire — at
    paragraph granularity, which tolerates intra-line edits while still
    killing boilerplate blocks repeated across pages."""
    return _segment_dedup(sf_dir, sep="\n\n",
                          kept_col="n_kept_paras", total_col="n_paras",
                          num_buckets=num_buckets)


def _segment_dedup(sf_dir: str, *, sep: str, kept_col: str,
                   total_col: str, num_buckets: int = 32):
    """Corpus-global exact dedup of ``sep``-delimited text segments. A
    segment occurrence survives iff it is the corpus-global FIRST
    occurrence of that exact segment text (first = min (doc_id, idx)).

    Scale shape — line TEXT never crosses the wire:

    1. explode docs to (doc_id, idx, h) where h is the line's 64-bit
       deterministic siphash (pandas hash_array, fixed key; collisions
       falsely merge two lines at ~2^-64 per pair — swap a 128-bit hash
       at true corpus scale), bucketed by h. Identical lines co-locate,
       so the first-occurrence decision is a vectorized flag per bucket.
       The hot-line hazard (an empty/boilerplate line present in half
       the corpus floods its bucket) costs 24 bytes per occurrence here,
       not the line text;
    2. only KEPT (doc_id, idx) rows — the survivors — reshuffle by doc
       and meet a SECOND column-pruned read of the documents in the same
       doc-keyed groupby (union of two streams, bucket_hash_join style);
       each doc re-splits locally and keeps its surviving indices. A
       second streaming read beats reshuffling every line's text.

    Returns (doc_id, clean_text, kept_col, total_col) for every doc
    (clean_text = '' when nothing survives)."""
    from pandas.util import hash_array

    def _occ(batch: pd.DataFrame) -> pd.DataFrame:
        lists, counts, idx = _split_segments(batch, sep)
        h = hash_array(lists.explode().to_numpy(), categorize=False)
        return _occurrence_rows(batch, counts, idx, h, num_buckets)

    def _winners(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id", "idx"], kind="mergesort")
        k = g[~g.duplicated("h")]
        return _marked_segments(k, num_buckets)

    kept = bucket_map_groups(
        _read_documents(sf_dir)
        .map_batches(_occ, batch_format="pandas", batch_size=65536),
        _winners, bucket_col="__bucket", num_buckets=num_buckets)

    def _assemble(g: pd.DataFrame) -> pd.DataFrame:
        texts = g[g["idx"] < 0]
        kept_idx = g[g["idx"] >= 0].sort_values(
            ["doc_id", "idx"], kind="mergesort")
        by_doc = {d: sub["idx"].to_numpy()
                  for d, sub in kept_idx.groupby("doc_id", sort=False)}
        rows = []
        for d, t in zip(texts["doc_id"], texts["text"]):
            segs = t.split(sep)
            ki = by_doc.get(d)
            kept_segs = [segs[i] for i in ki] if ki is not None else []
            rows.append((d, sep.join(kept_segs), len(kept_segs),
                         len(segs)))
        out = pd.DataFrame(rows, columns=["doc_id", "clean_text",
                                          kept_col, total_col])
        out[kept_col] = out[kept_col].astype("int64")
        out[total_col] = out[total_col].astype("int64")
        return out

    return _reassemble(sf_dir, kept, _assemble, num_buckets)


def _split_segments(batch: pd.DataFrame, sep: str):
    """Split each doc's text on ``sep``: the per-doc segment lists, the
    per-doc segment counts and each segment's 0-based index in its doc
    (flattened in doc order)."""
    lists = batch["text"].fillna("").str.split(sep, regex=False)
    counts = lists.str.len().to_numpy(dtype=np.int64)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return lists, counts, idx


def _occurrence_rows(batch: pd.DataFrame, counts, idx, h,
                     num_buckets: int) -> pd.DataFrame:
    """One (doc_id, idx, h) row per segment occurrence, bucketed by its
    64-bit hash ``h`` so identical segments co-locate."""
    return pd.DataFrame({
        "doc_id": np.repeat(batch["doc_id"].to_numpy(), counts),
        "idx": idx,
        "h": h,
        "__bucket": (h % np.uint64(num_buckets)).astype(np.int32),
    })


def _marked_segments(k: pd.DataFrame, num_buckets: int) -> pd.DataFrame:
    """Marked (doc_id, idx) segment rows, routed by doc bucket ``__db``
    to meet their doc in :func:`_reassemble`; they carry no text."""
    return pd.DataFrame({
        "doc_id": k["doc_id"],
        "idx": k["idx"],
        "text": pd.Series([None] * len(k), dtype="object", index=k.index),
        "__db": (k["doc_id"].to_numpy() % num_buckets).astype(np.int32),
    })


def _reassemble(sf_dir: str, marked, assemble, num_buckets: int):
    """Segment reassembly: a second column-pruned read of the documents
    as (doc_id, idx=-1, text) rows, unioned with the ``marked`` segment
    rows and grouped by doc bucket, where ``assemble`` rebuilds each
    doc's text from its marked indices."""

    def _doc_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "idx": np.full(len(batch), -1, dtype=np.int64),
            "text": batch["text"].fillna("").astype("object"),
            "__db": (batch["doc_id"].to_numpy() % num_buckets
                     ).astype(np.int32),
        })

    doc_rows = _read_documents(sf_dir).map_batches(
        _doc_rows, batch_format="pandas", batch_size=65536)
    return bucket_map_groups(doc_rows.union(marked), assemble,
                             bucket_col="__db", num_buckets=num_buckets)


def pack_sequences(sf_dir: str, *, budget: int = 256, group: int = 64):
    """Greedy sequence packing for training: concatenate consecutive docs
    (doc_id order) into fixed token-budget packs, next-fit. Packing is
    restricted to groups of ``group`` consecutive doc_ids so the operator
    is embarrassingly parallel — groups pack independently and pack_ids
    are globally unique by construction (group_id * group + bin). This is
    the standard at-scale relaxation: global next-fit would serialize the
    corpus for ~zero packing-density gain.

    A doc longer than the budget gets its own pack (never split).
    Per-group bin assignment is a bounded O(group) loop; token counting
    and everything else is vectorized. Rows-only (next-fit is iterative,
    not SQL-expressible); invariants are pytest-checked.

    Returns (doc_id, n_tokens, pack_id, pack_pos)."""
    from ocr_agent_ray.functions.textstats import token_counts

    def _tokens(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_tokens": token_counts(batch["text"]).astype("int64"),
            "__grp": (batch["doc_id"] // group).astype("int64"),
        })

    def _pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort").reset_index(drop=True)
        toks = g["n_tokens"].to_numpy()
        bins = np.empty(len(g), dtype=np.int64)
        pos = np.empty(len(g), dtype=np.int64)
        b = 0
        used = 0
        p = 0
        for i, t in enumerate(toks):
            if used > 0 and used + t > budget:
                b += 1
                used = 0
                p = 0
            bins[i] = b
            pos[i] = p
            used += t
            p += 1
        grp = int(g["__grp"].iloc[0])
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "n_tokens": g["n_tokens"],
            "pack_id": grp * group + bins,
            "pack_pos": pos,
        })

    return key_map_groups(
        _read_documents(sf_dir)
        .map_batches(_tokens, batch_format="pandas", batch_size=65536),
        _pack, key_col="__grp")


def chunk_documents(sf_dir: str, *, chunk_chars: int = 200,
                    overlap: int = 50):
    """Fixed-size context chunking with overlap — the standard LLM
    pre-training / RAG windowing op as a 1→N flat map. Chunk i of a doc
    covers characters [i*stride, i*stride + chunk_chars) with
    stride = chunk_chars - overlap; n_chunks = max(1,
    ceil((len - overlap) / stride)) so the final chunk still reaches the
    end of the text and every character is covered by >= 1 chunk.

    Pure per-batch map, no shuffle: chunk counts/offsets are computed
    vectorized (np.repeat + cumsum); only the final slice is a Python
    comprehension over C-speed string slicing (variable per-row offsets
    have no Arrow kernel). Output rows ~ input chars / stride — chunk
    boundaries never cross batch edges, so blocks stay bounded."""
    if overlap >= chunk_chars:
        raise ValueError("overlap must be smaller than chunk_chars")
    stride = chunk_chars - overlap

    def _chunk(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].to_numpy()
        lens = batch["text"].str.len().to_numpy(dtype=np.int64)
        n = np.maximum(1, np.ceil((lens - overlap) / stride)).astype(np.int64)
        doc_ids = np.repeat(batch["doc_id"].to_numpy(), n)
        idx = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(n) - n, n)
        starts = idx * stride
        rep = np.repeat(texts, n)
        return pd.DataFrame({
            "doc_id": doc_ids,
            "chunk_id": idx,
            "chunk_text": [t[s:s + chunk_chars]
                           for t, s in zip(rep, starts)],
            "n_chunks": np.repeat(n, n),
        })

    return _read_documents(sf_dir).map_batches(
        _chunk, batch_format="pandas", batch_size=8192)


def c4_clean(sf_dir: str):
    """C4-style line-level cleaning per doc (clean_text + line counts +
    blocklist flags). Pure per-doc map — no shuffle; the whole C4 cleaning
    pass streams block-by-block at 100 TB."""
    from ocr_agent_ray.functions.textstats import c4_line_filter

    def _c(batch: pd.DataFrame) -> pd.DataFrame:
        out = c4_line_filter(batch["text"])
        out.insert(0, "doc_id", batch["doc_id"])
        return out

    return _read_documents(sf_dir).map_batches(_c, batch_format="pandas")


def zipf_fit(sf_dir: str):
    """Zipf-law fit of the corpus word-frequency distribution: least-
    squares slope of ln(count) on ln(rank) over the full vocabulary
    (English text goes ~ -1). Three distributed phases, none of which
    ever centralizes the vocabulary:

    1. word counts — per-batch partial value_counts, bucketed combine by
       word hash (hash_partition_aggregate);
    2. global rank by (count DESC, word ASC) — ranged_global_rank over
       the AGGREGATED table: the range key is -count // 16 (order-
       consistent with the sort, ties share a range), so ranks need only
       a per-range count fold on the driver, no global sort;
    3. slope — ln/ln moment partials (n, Σx, Σy, Σxy, Σx²) folded per
       batch, combined on the driver. The SQL oracle computes the SAME
       raw-moment formula (not REGR_SLOPE's one-pass update) so the two
       sides agree bit-for-bit after rounding.
    """
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (hash_partition_aggregate,
                                             ranged_global_rank)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        counts = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": counts.index, "n": counts.to_numpy()})

    per_word = hash_partition_aggregate(
        _read_documents(sf_dir).map_batches(_partial, batch_format="pandas"),
        ["word"], {"n": ("n", "sum")})

    keyed = per_word.map_batches(
        lambda b: b.assign(neg_n=-b["n"].astype("int64"),
                           __rb=(-b["n"].astype("int64")) // 16),
        batch_format="pandas")
    total, ranked = ranged_global_rank(keyed, ["neg_n", "word"],
                                       rank_col="rnk")

    def _moments(b: pd.DataFrame) -> pd.DataFrame:
        x = np.log(b["rnk"].to_numpy(dtype=np.float64))
        y = np.log(b["n"].to_numpy(dtype=np.float64))
        return pd.DataFrame({
            "cnt": [np.int64(len(b))], "sx": [x.sum()], "sy": [y.sum()],
            "sxy": [(x * y).sum()], "sxx": [(x * x).sum()],
        })

    m = pd.concat(
        [b for b in ranked.map_batches(_moments, batch_format="pandas")
            .iter_batches(batch_format="pandas", batch_size=None)],
        ignore_index=True).sum()
    n = float(m["cnt"])
    slope = ((n * m["sxy"] - m["sx"] * m["sy"])
             / (n * m["sxx"] - m["sx"] ** 2))
    return pd.DataFrame({
        "zipf_slope": [float(round_half_away(slope, 6))],
        "n_words": np.array([m["cnt"]], dtype="int64"),
    })


_SEARCH_QUERIES = {
    0: ("join", "hash"),
    1: ("vector", "stream"),
    2: ("window", "filter", "merge"),
}

# The retrieval family (keyword_search, bm25_search, ql_search,
# ndcg_search, avg_precision_search, mrr_search) shares one core: the
# term-frequency pivot, one statistics pass, the conjunctive-match
# generator and the per-query top-k merge. Each query supplies only its
# scorer, its per-batch candidate emission and its per-query final step.
# The registered queries are read at call time and captured by the task
# closures, so a caller may swap ``_SEARCH_QUERIES`` between calls.


def _search_terms(queries) -> list[str]:
    return sorted({t for q in queries.values() for t in q})


def _search_pivot(batch: pd.DataFrame, terms) -> pd.DataFrame:
    """Per-row tf counts for the query terms plus the doc length ``__dl``
    (tokens), vectorized: explode -> isin filter -> one C-speed groupby;
    no per-doc Python loop."""
    toks = (batch["text"].fillna("").str.lower()
            .str.findall(r"[0-9a-z_]+"))
    ex = toks.explode()
    m = ex.isin(terms)
    hits = pd.DataFrame({"i": ex.index[m], "t": ex[m].to_numpy()})
    tf = (hits.groupby(["i", "t"]).size().unstack(fill_value=0)
          if len(hits) else pd.DataFrame())
    tf = tf.reindex(index=range(len(batch)), columns=terms,
                    fill_value=0)
    tf.insert(0, "doc_id", batch["doc_id"].to_numpy())
    tf.insert(1, "__dl", toks.str.len().to_numpy(dtype=np.int64))
    return tf


def _search_stats(sf_dir: str) -> pd.Series:
    """The one streaming statistics fold of the retrieval family: the
    doc count ``__n_docs`` (N), the token total ``__sum_dl`` (Σdl), and
    per query term its document frequency ``df_<t>`` and collection
    frequency ``cf_<t>``. Per-batch partial sums fold driver-side: a
    constant-size broadcast 'mini index' (term stats only, never
    postings)."""
    terms = _search_terms(_SEARCH_QUERIES)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        tf = _search_pivot(batch, terms)
        row = {"__n_docs": np.int64(len(batch)),
               "__sum_dl": np.int64(tf["__dl"].sum())}
        for t in terms:
            row[f"df_{t}"] = np.int64((tf[t] > 0).sum())
            row[f"cf_{t}"] = np.int64(tf[t].sum())
        return pd.DataFrame([row])

    return pd.concat(
        [x for x in _read_documents(sf_dir).map_batches(
            _partial, batch_format="pandas").iter_batches(
                batch_format="pandas", batch_size=None)],
        ignore_index=True).sum()


def _search_matches(batch: pd.DataFrame, queries):
    """Yield ``(qid, qterms, sub, doc_ids, dl)`` for every registered
    query with at least one conjunctive (all-terms) match in ``batch``:
    ``sub`` holds the matching docs' counts of the query's terms,
    ``dl`` their float64 lengths."""
    tf = _search_pivot(batch, _search_terms(queries))
    dl = tf["__dl"].to_numpy(dtype=np.float64)
    for qid, qterms in queries.items():
        sub = tf[list(qterms)]
        match = (sub > 0).all(axis=1)
        if not match.any():
            continue
        yield (qid, qterms, sub.loc[match],
               tf.loc[match, "doc_id"].to_numpy(), dl[match.to_numpy()])


def _bm25_scorer(sf_dir: str, k1: float, b: float):
    """BM25 (Robertson et al.; the Lucene-default idf
    ln((N−df+0.5)/(df+0.5)+1)) from the statistics pass, as
    ``score(qterms, sub, dl)``; terms add up in query order."""
    stats = _search_stats(sf_dir)
    n_docs = float(stats["__n_docs"])
    avgdl = float(stats["__sum_dl"]) / n_docs
    idf = {t: np.log((n_docs - float(stats[f"df_{t}"]) + 0.5)
                     / (float(stats[f"df_{t}"]) + 0.5) + 1.0)
           for t in _search_terms(_SEARCH_QUERIES)}

    def _score(qterms, sub: pd.DataFrame, dl: np.ndarray) -> np.ndarray:
        score = np.zeros(len(sub), dtype=np.float64)
        for t in qterms:
            tfv = sub[t].to_numpy(dtype=np.float64)
            score += idf[t] * (tfv * (k1 + 1.0)) / (
                tfv + k1 * (1.0 - b + b * dl / avgdl))
        return score

    return _score


def _top_by(g: pd.DataFrame, col: str, k: int) -> pd.DataFrame:
    return g.sort_values([col, "doc_id"], ascending=[False, True]).head(k)


def _search_run(sf_dir: str, emit, final, rel: bool = False):
    """One streaming scoring pass: ``emit(qid, qterms, sub, doc_ids,
    dl)`` turns each query's conjunctive matches in a batch into
    candidate rows (query_id, doc_id, score[, rel]), and ``final`` merges
    one query's candidates after a query_id-keyed exchange."""
    queries = dict(_SEARCH_QUERIES)
    cols = {"query_id": "int64", "doc_id": "int64", "score": "float64"}
    if rel:
        cols["rel"] = "int64"

    def _cand(batch: pd.DataFrame) -> pd.DataFrame:
        out = [emit(*m) for m in _search_matches(batch, queries)]
        if not out:
            return pd.DataFrame({c: pd.Series(dtype=t)
                                 for c, t in cols.items()})
        return pd.concat(out, ignore_index=True)

    return key_map_groups(
        _read_documents(sf_dir).map_batches(_cand, batch_format="pandas"),
        final, key_col="query_id", num_buckets=4)


def _ranked_search(sf_dir: str, score, k: int):
    """Top-``k`` per query by ``score(qterms, sub, dl)``: each batch
    emits its per-query partial top-k, and the per-query merge keeps the
    global top-k, score rounded. Columns: query_id, doc_id, score."""
    from ocr_agent_ray.functions.textstats import round_half_away

    def _emit(qid, qterms, sub, doc_ids, dl) -> pd.DataFrame:
        g = pd.DataFrame({"query_id": np.int64(qid), "doc_id": doc_ids,
                          "score": score(qterms, sub, dl)})
        return _top_by(g, "score", k)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = _top_by(g, "score", k).reset_index(drop=True)
        g["score"] = round_half_away(g["score"].to_numpy(), 6)
        return g[["query_id", "doc_id", "score"]]

    return _search_run(sf_dir, _emit, _final)


def keyword_search(sf_dir: str, *, k: int = 20):
    """Conjunctive (AND) keyword search with TF-IDF ranking — the
    retrieval primitive over the corpus, no external index: for each
    registered query, docs containing ALL query terms, ranked by
    Σ tf(t,d)·ln(N/df_t), top-``k`` per query. Two bounded passes:
    (1) per-batch partial doc-frequency counts for the ≤|queries|×|terms|
    distinct query terms plus total doc count fold driver-side (the
    broadcast 'mini index' — term stats only, never postings);
    (2) one streaming scoring pass emits per-batch per-query partial
    top-k; the final per-query merge sees batches×k rows. At 100 TB the
    same shape holds: the wire carries candidate scores, not tokens."""
    stats = _search_stats(sf_dir)
    n_docs = float(stats["__n_docs"])
    idf = {t: np.log(n_docs / float(stats[f"df_{t}"]))
           for t in _search_terms(_SEARCH_QUERIES)}

    def _score(qterms, sub, dl):
        return sum(sub[t].to_numpy(dtype=np.float64) * idf[t]
                   for t in qterms)

    return _ranked_search(sf_dir, _score, k)


def learn_bpe_merges(sf_dir: str, *, n_merges: int = 20):
    """BPE tokenizer TRAINING (Sennrich et al. 2016): learn the top-N
    byte-pair merges from the corpus. The insight that makes this
    feasible at 100 TB: the algorithm needs only the WORD-FREQUENCY
    table, not the corpus — so the distributed work is one bucketed
    vocab fold (the same shape as top_words), and the merge loop runs
    over the bounded vocab on the driver (symbol-pair counts are
    updated incrementally per merge, deterministic ties by pair order).
    Returns (rank, left, right, pair_count) per learned merge.
    Rows-only (iterative); hand-computed goldens in pytest."""
    from collections import Counter

    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        counts = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": counts.index, "n": counts.to_numpy()})

    vocab_df = pd.concat(
        [b for b in hash_partition_aggregate(
            _read_documents(sf_dir).map_batches(_partial,
                                                batch_format="pandas"),
            ["word"], {"n": ("n", "sum")})
            .iter_batches(batch_format="pandas", batch_size=None)],
        ignore_index=True)

    # driver-side merge loop over the bounded vocab (symbols per word)
    vocab = {tuple(w) + ("</w>",): int(n)
             for w, n in zip(vocab_df["word"], vocab_df["n"])}
    merges = []
    for rank in range(n_merges):
        pairs: Counter = Counter()
        for sym, n in vocab.items():
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        # deterministic: max count, ties by lexicographic pair
        (la, rb), cnt = min(pairs.items(),
                            key=lambda kv: (-kv[1], kv[0]))
        merges.append((rank, la, rb, cnt))
        merged = la + rb
        new_vocab = {}
        for sym, n in vocab.items():
            out = []
            i = 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == la and sym[i + 1] == rb:
                    out.append(merged)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + n
        vocab = new_vocab

    return pd.DataFrame({
        "rank": np.array([m[0] for m in merges], dtype="int64"),
        "left": [m[1] for m in merges],
        "right": [m[2] for m in merges],
        "pair_count": np.array([m[3] for m in merges], dtype="int64"),
    })


def bpe_compression_stats(sf_dir: str, *, n_merges: int = 20):
    """Apply the learned BPE merges (see learn_bpe_merges) and report
    per-source compression: chars per BPE token. The trick that keeps
    the APPLY pass cheap at scale: tokenization is a function of the
    WORD, so the merges apply once per distinct vocab word on the
    driver (bounded), and the corpus pass just maps each word to its
    precomputed token count — a broadcast dict lookup per batch, no
    per-word merge loop in the hot path. Rows-only (depends on the
    iterative trainer); invariants pytest-checked."""
    merges = learn_bpe_merges(sf_dir, n_merges=n_merges)
    merge_list = list(zip(merges["left"], merges["right"]))

    def _tokenize_word(w: str) -> int:
        sym = list(w) + ["</w>"]
        for la, rb in merge_list:
            out, i = [], 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == la and sym[i + 1] == rb:
                    out.append(la + rb)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            sym = out
        return len(sym)

    # vocab fold (same shape as the trainer), then one driver pass over
    # the bounded distinct-word table
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        ex = toks.explode().dropna()
        src = batch["source"].reindex(ex.index)
        g = (pd.DataFrame({"source": src.to_numpy(), "word": ex.to_numpy()})
             .groupby(["source", "word"], sort=False).size()
             .reset_index(name="n"))
        return g

    per_sw = hash_partition_aggregate(
        _read_documents(sf_dir, columns=("doc_id", "text", "source"))
        .map_batches(_partial, batch_format="pandas"),
        ["word", "source"], {"n": ("n", "sum")})

    pooled = pd.concat(
        [b for b in per_sw.iter_batches(batch_format="pandas",
                                        batch_size=None)],
        ignore_index=True)
    tok_counts = {w: _tokenize_word(w)
                  for w in pooled["word"].unique()}
    pooled["bpe_tokens"] = (pooled["word"].map(tok_counts)
                            * pooled["n"]).astype("int64")
    pooled["chars"] = (pooled["word"].str.len() * pooled["n"]
                       ).astype("int64")
    out = (pooled.groupby("source", as_index=False)
                 .agg(n_words=("n", "sum"), n_bpe_tokens=("bpe_tokens", "sum"),
                      n_chars=("chars", "sum")))
    out["chars_per_token"] = (out["n_chars"]
                              / out["n_bpe_tokens"]).round(6)
    for c in ("n_words", "n_bpe_tokens", "n_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def quality_classifier_scores(sf_dir: str, *, iters: int = 10,
                              lr: float = 3.0):
    """Distributed logistic-regression quality classifier — the
    CCNet/GPT-3-style learned quality filter, here distilling the Gopher
    rule (labels = gopher keep flag) from its own numeric signals. The
    distributed-iterative-ML shape alongside k-means and PageRank:

    - features materialize ONCE (doc_id, 6 signals, label) and serve
      every pass from the object store;
    - standardization params come from one (Σx, Σx², n) moments fold;
    - each full-batch GD iteration broadcasts w (ray.put) and folds
      per-block gradient/loss partials — the driver combines
      blocks × (dim+2) floats per iteration, never rows, and sorts
      partials by a block key so the float combine is deterministic;
    - one streaming scoring pass emits (doc_id, prob, pred, label).

    Not SQL-expressible (iterative optimization) → rows-only driver
    check; pytest replicates the exact GD densely in numpy (same
    standardization, same schedule) and asserts weight/prob parity,
    decreasing loss, and accuracy ≥ 0.8 against the rule labels."""
    import ray

    from ocr_agent_ray.functions.textstats import (gopher_features,
                                                   round_half_away)

    fcols = ["f_log_words", "f_mean_word_len", "f_symbol", "f_bullet",
             "f_ellipsis", "f_alpha"]

    def _feat(b: pd.DataFrame) -> pd.DataFrame:
        g = gopher_features(b["text"])
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "f_log_words": np.log1p(g["n_words"].to_numpy(np.float64)),
            "f_mean_word_len": g["mean_word_len"].to_numpy(np.float64),
            "f_symbol": g["symbol_ratio"].to_numpy(np.float64),
            "f_bullet": g["bullet_ratio"].to_numpy(np.float64),
            "f_ellipsis": g["ellipsis_ratio"].to_numpy(np.float64),
            "f_alpha": g["alpha_word_ratio"].to_numpy(np.float64),
            "y": g["keep"].to_numpy().astype("int64"),
        })

    feats = _read_documents(sf_dir).map_batches(
        _feat, batch_format="pandas", batch_size=65536).materialize()

    def _moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b[fcols].to_numpy(np.float64)
        return pd.DataFrame({
            "key": [int(b["doc_id"].min())], "n": [len(b)],
            "sx": [x.sum(axis=0).tolist()],
            "sxx": [(x * x).sum(axis=0).tolist()]})

    mom = pd.concat(
        [b for b in feats.map_batches(_moments, batch_format="pandas")
         .iter_batches(batch_format="pandas", batch_size=None)],
        ignore_index=True).sort_values("key")
    n_tot = int(mom["n"].sum())
    sx = np.sum(np.stack(mom["sx"].to_numpy()), axis=0)
    sxx = np.sum(np.stack(mom["sxx"].to_numpy()), axis=0)
    mean = sx / n_tot
    var = sxx / n_tot - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    std[std == 0] = 1.0

    dim = len(fcols)
    w = np.zeros(dim + 1, dtype=np.float64)  # [bias, w_1..w_dim]
    for _ in range(iters):
        ref = ray.put((mean, std, w))

        def _grad(b: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            m, s, wt = ray.get(_ref)
            x = (b[fcols].to_numpy(np.float64) - m) / s
            y = b["y"].to_numpy(np.float64)
            z = wt[0] + x @ wt[1:]
            p = 1.0 / (1.0 + np.exp(-z))
            resid = p - y
            g = np.concatenate(([resid.sum()], x.T @ resid))
            loss = float(np.sum(np.log1p(np.exp(-np.abs(z)))
                                + np.where(z > 0, z * (1 - y), -z * y)))
            return pd.DataFrame({
                "key": [int(b["doc_id"].min())],
                "g": [g.tolist()], "loss": [loss], "n": [len(b)]})

        parts = pd.concat(
            [b for b in feats.map_batches(_grad, batch_format="pandas")
             .iter_batches(batch_format="pandas", batch_size=None)],
            ignore_index=True).sort_values("key")
        grad = np.sum(np.stack(parts["g"].to_numpy()), axis=0)
        w = w - lr * grad / n_tot

    sref = ray.put((mean, std, w))

    def _score(b: pd.DataFrame) -> pd.DataFrame:
        m, s, wt = ray.get(sref)
        x = (b[fcols].to_numpy(np.float64) - m) / s
        p = 1.0 / (1.0 + np.exp(-(wt[0] + x @ wt[1:])))
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "prob": round_half_away(p, 6),
            "pred": (p >= 0.5).astype("int64"),
            "label": b["y"].astype("int64"),
        })

    return feats.map_batches(_score, batch_format="pandas")


def dsir_scores(sf_dir: str, *, target_lang: str = "en",
                num_buckets: int = 256):
    """DSIR-style data selection with importance resampling scores
    (Xie et al. 2023): per-doc mean log-likelihood ratio between a
    TARGET corpus unigram model (docs with ``target_lang``) and the
    SOURCE model (the rest), over hashed word features — the published
    recipe for selecting pretraining data that "looks like" a target
    domain without training a classifier.

    Features are md5-bucketed words (bucket key = first two hex chars,
    256 buckets), so the oracle computes the IDENTICAL hash in SQL.
    Two streaming passes: (1) per-batch (bucket, target_count,
    source_count) partials fold to a ≤num_buckets-row table on the
    driver (broadcast as a ratio map — the model IS 256 floats);
    (2) per-doc mean ln((T[b]+1)/(ΣT+B) / ((S[b]+1)/(ΣS+B))) folds
    vectorized per batch. Docs with zero tokens are excluded (mean
    undefined), mirroring the SQL twin. At 100 TB both passes stream;
    only the 256-row model ever sits on the driver."""
    import hashlib

    from ocr_agent_ray.functions.textstats import round_half_away

    docs = _read_documents(sf_dir, columns=("doc_id", "text", "lang"))

    def _bucket_of(words: np.ndarray) -> np.ndarray:
        # md5 only over the batch's UNIQUE words; .digest()[:1] is the
        # first two hex chars as one byte (num_buckets=256)
        uniq, inv = np.unique(words, return_inverse=True)
        codes = np.fromiter(
            (hashlib.md5(w.encode("utf-8")).digest()[0] for w in uniq),
            dtype=np.int64, count=len(uniq))
        return codes[inv]

    def _tok(b: pd.DataFrame):
        toks = b["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        flat = toks.explode().dropna()
        return flat, toks

    def _counts(b: pd.DataFrame) -> pd.DataFrame:
        flat, _ = _tok(b)
        if not len(flat):
            return pd.DataFrame({"b": pd.Series(dtype="int64"),
                                 "t_cnt": pd.Series(dtype="int64"),
                                 "s_cnt": pd.Series(dtype="int64")})
        buckets = _bucket_of(flat.to_numpy(dtype=object))
        is_target = (b["lang"].loc[flat.index] == target_lang).to_numpy()
        g = pd.DataFrame({"b": buckets,
                          "t_cnt": is_target.astype(np.int64),
                          "s_cnt": (~is_target).astype(np.int64)})
        return g.groupby("b", as_index=False).sum()

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    model = combine_partials_driver(
        docs.map_batches(_counts, batch_format="pandas"),
        ["b"], {"t_cnt": ("t_cnt", "sum"), "s_cnt": ("s_cnt", "sum")})
    t_tot = float(model["t_cnt"].sum())
    s_tot = float(model["s_cnt"].sum())
    ratio = np.zeros(num_buckets, dtype=np.float64)
    base = np.log((1.0 / (t_tot + num_buckets))
                  / (1.0 / (s_tot + num_buckets)))
    ratio[:] = base  # buckets unseen in both corpora
    bb = model["b"].to_numpy()
    ratio[bb] = np.log(
        ((model["t_cnt"].to_numpy() + 1.0) / (t_tot + num_buckets))
        / ((model["s_cnt"].to_numpy() + 1.0) / (s_tot + num_buckets)))

    def _score(b: pd.DataFrame) -> pd.DataFrame:
        flat, _ = _tok(b)
        if not len(flat):
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "n_tokens": pd.Series(dtype="int64"),
                                 "dsir_score": pd.Series(dtype="float64")})
        lr = ratio[_bucket_of(flat.to_numpy(dtype=object))]
        g = (pd.DataFrame({"doc_id": b["doc_id"].loc[flat.index].to_numpy(),
                           "lr": lr})
             .groupby("doc_id", as_index=False)
             .agg(n_tokens=("lr", "size"), lr_sum=("lr", "sum")))
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "n_tokens": g["n_tokens"].astype("int64"),
            "dsir_score": round_half_away(
                (g["lr_sum"] / g["n_tokens"]).to_numpy(), 6),
        })

    return docs.map_batches(_score, batch_format="pandas",
                            batch_size=8192)


def gini_doc_lengths(sf_dir: str, *, range_width: int = 16):
    """Gini coefficient of document lengths per source — the corpus
    concentration stat ('is this source a few giant pages plus dust?')
    used when rebalancing mixture weights.

    G = 2·Σᵢ i·x₍ᵢ₎ / (n·Σx) − (n+1)/n over ascending-sorted lengths,
    i the 1-based rank. Ranks come from agg.ranged_partitioned_ranks
    (range-parallel on n_chars // range_width — a big source never
    funnels into one task); Σ i·x and Σx fold as EXACT int64 partials,
    so the only float math is the final two-term expression, bit-equal
    to the oracle. Tie order inside a rank range is arbitrary but
    Σ i·x is invariant under permuting equal x — ties get the same
    consecutive index set either way."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             ranged_partitioned_ranks)

    keyed = _read_documents(
        sf_dir, columns=("doc_id", "source", "n_chars")).map_batches(
        lambda b: b.assign(__rb=(b["n_chars"] // range_width)
                           .astype("int64")),
        batch_format="pandas", batch_size=65536)

    ranked = ranged_partitioned_ranks(keyed, "source", "n_chars",
                                      "doc_id")

    def _partials(b: pd.DataFrame) -> pd.DataFrame:
        x = b["n_chars"].to_numpy(dtype=np.int64)
        i = b["row_num"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "source": b["source"],
            "n": np.int64(1),
            "sx": x,
            "six": i * x,
        })

    m = combine_partials_driver(
        ranked.map_batches(_partials, batch_format="pandas"),
        ["source"],
        {"n": ("n", "sum"), "sx": ("sx", "sum"), "six": ("six", "sum")})
    n = m["n"].to_numpy(dtype=np.float64)
    sx = m["sx"].to_numpy(dtype=np.float64)
    six = m["six"].to_numpy(dtype=np.float64)
    return pd.DataFrame({
        "source": m["source"],
        "gini": round_half_away((2.0 * six) / (n * sx) - (n + 1.0) / n, 6),
    }).sort_values("source").reset_index(drop=True)


BLOCKLIST_TERMS = ("spark", "slow", "big")


def blocklist_hits(sf_dir: str, *, terms=BLOCKLIST_TERMS,
                   flag_threshold: int = 3):
    """Blocklist screening — per-source totals of blocklist-term
    occurrences and of docs flagged (≥ flag_threshold total hits), the
    standard 'bad-word filter' curation gate at corpus-report
    granularity. Occurrences are non-overlapping substring counts
    (pandas str.count on the escaped literal — same semantics as the
    oracle's length/replace arithmetic). Pure per-row transform +
    mergeable partials: no shuffle at all."""
    import re

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    pats = [re.escape(t) for t in terms]

    def _hits(b: pd.DataFrame) -> pd.DataFrame:
        txt = b["text"].fillna("")
        total = np.zeros(len(b), dtype=np.int64)
        for p in pats:
            total += txt.str.count(p).to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "source": b["source"],
            "docs": np.int64(1),
            "flagged_docs": (total >= flag_threshold).astype("int64"),
            "total_hits": total,
        })

    out = combine_partials_driver(
        _read_documents(sf_dir, columns=("text", "source")).map_batches(
            _hits, batch_format="pandas", batch_size=65536),
        ["source"],
        {"docs": ("docs", "sum"), "flagged_docs": ("flagged_docs", "sum"),
         "total_hits": ("total_hits", "sum")})
    return out.sort_values("source").reset_index(drop=True)


def boilerplate_strip(sf_dir: str, *, min_docs: int = 2,
                      num_buckets: int = 32):
    """CCNet-style per-source boilerplate removal: a line is boilerplate
    iff it occurs in ≥ ``min_docs`` DISTINCT documents of the SAME
    source (nav bars, cookie banners, footers — repeated within a site,
    legitimate across sites). Every occurrence of a boilerplate line is
    stripped; docs are returned reassembled.

    Same wire discipline as ``_segment_dedup``: line text never crosses
    the wire — occurrences travel as (doc_id, idx, h) with h a 64-bit
    hash folding (source, line) (splitmix of the two siphashes;
    collisions falsely merge at ~2⁻⁶⁴ — swap 128-bit at true corpus
    scale). The count side needs only the BOILERPLATE occurrences back
    (the minority), so the second shuffle is tiny; clean text is
    rebuilt from a second column-pruned read per doc bucket.

    Returns (doc_id, clean_text, n_boiler_lines, n_lines)."""
    from pandas.util import hash_array

    from ocr_agent_ray.functions.hashing import splitmix64

    def _occ(batch: pd.DataFrame) -> pd.DataFrame:
        lists, counts, idx = _split_segments(batch, "\n")
        hl = hash_array(lists.explode().to_numpy(), categorize=False)
        hs = hash_array(batch["source"].to_numpy(), categorize=False)
        h = splitmix64(hl ^ np.repeat(hs, counts))
        return _occurrence_rows(batch, counts, idx, h, num_buckets)

    def _boiler(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("h", sort=False)["doc_id"].transform("nunique")
        k = g[nd.to_numpy() >= min_docs]
        return _marked_segments(k, num_buckets)

    dropped = bucket_map_groups(
        _read_documents(sf_dir, columns=("doc_id", "text", "source"))
        .map_batches(_occ, batch_format="pandas", batch_size=65536),
        _boiler, bucket_col="__bucket", num_buckets=num_buckets)

    def _assemble(g: pd.DataFrame) -> pd.DataFrame:
        texts = g[g["idx"] < 0]
        drop_idx = g[g["idx"] >= 0]
        by_doc = {d: set(sub["idx"].tolist())
                  for d, sub in drop_idx.groupby("doc_id", sort=False)}
        rows = []
        for d, t in zip(texts["doc_id"], texts["text"]):
            segs = t.split("\n")
            di = by_doc.get(d, ())
            kept = [s for i, s in enumerate(segs) if i not in di]
            rows.append((d, "\n".join(kept), len(segs) - len(kept),
                         len(segs)))
        out = pd.DataFrame(rows, columns=["doc_id", "clean_text",
                                          "n_boiler_lines", "n_lines"])
        out["n_boiler_lines"] = out["n_boiler_lines"].astype("int64")
        out["n_lines"] = out["n_lines"].astype("int64")
        return out

    return _reassemble(sf_dir, dropped, _assemble, num_buckets)


def docs_for_80pct(sf_dir: str, *, frac: float = 0.8,
                   range_width: int = 16):
    """Pareto-coverage per source: the MINIMUM number of (largest) docs
    whose lengths sum to ≥ ``frac`` of the source's total chars — the
    actionable companion to the Gini ('how few pages carry 80% of this
    site?').

    Range-parallel like agg.ranged_partitioned_ranks: one hash exchange
    on n_chars // range_width, a stats wave folding per-(range, source)
    (count, Σx) into driver prefix offsets (|sources|×64 entries), then
    a second wave over the SAME shards where each range computes its
    rows' exact ascending prefix sums and reports the max ascending rank
    i with suffix(i) = T − prefix(i−1) ≥ frac·T; the answer is
    n − max_i + 1 after a tiny per-source max fold. suffix is
    monotonically decreasing in i, so the max is well-defined and ≥ 1.
    All sums are exact int64; the only float is the frac·T compare,
    identical to the oracle's."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    keyed = _read_documents(
        sf_dir, columns=("doc_id", "source", "n_chars")).map_batches(
        lambda b: b.assign(__rb=(b["n_chars"] // range_width)
                           .astype("int64")),
        batch_format="pandas", batch_size=65536)

    shards = exchange_shards(keyed, bucket_col="__rb", num_buckets=64,
                             mode="mod")

    def _stats(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(["__rb", "source"], sort=False)["n_chars"]
        out = gg.agg(n="size", sx="sum").reset_index()
        out["n"] = out["n"].astype("int64")
        out["sx"] = out["sx"].astype("int64")
        return out

    stats = shards.reduce(_stats).to_pandas()
    if stats.empty:
        return pd.DataFrame({"source": pd.Series(dtype="object"),
                             "docs_80pct": pd.Series(dtype="int64"),
                             "n_docs": pd.Series(dtype="int64")})

    row_off: dict = {}
    x_off: dict = {}
    totals_n: dict = {}
    totals_x: dict = {}
    for src, sub in stats.groupby("source"):
        sub = sub.sort_values("__rb")
        for rb, ro, xo in zip(sub["__rb"],
                              sub["n"].cumsum().shift(1, fill_value=0),
                              sub["sx"].cumsum().shift(1, fill_value=0)):
            row_off[(int(rb), src)] = int(ro)
            x_off[(int(rb), src)] = int(xo)
        totals_n[src] = int(sub["n"].sum())
        totals_x[src] = int(sub["sx"].sum())

    def _max_rank(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["__rb"].iloc[0])
        rows = []
        for src, sub in g.groupby("source", sort=False):
            sub = sub.sort_values(["n_chars", "doc_id"], kind="mergesort")
            x = sub["n_chars"].to_numpy(dtype=np.int64)
            i = row_off[(rb, src)] + np.arange(1, len(x) + 1,
                                               dtype=np.int64)
            prefix = x_off[(rb, src)] + np.cumsum(x)
            t = totals_x[src]
            suffix = t - (prefix - x)           # sum of ranks >= i
            ok = suffix >= frac * float(t)
            if ok.any():
                rows.append((src, int(i[ok].max())))
        out = pd.DataFrame(rows, columns=["source", "max_i"])
        out["source"] = out["source"].astype("object")
        out["max_i"] = out["max_i"].astype("int64")
        return out

    folded = combine_partials_driver(
        shards.reduce(_max_rank, group_col="__rb"),
        ["source"], {"max_i": ("max_i", "max")})
    return pd.DataFrame({
        "source": folded["source"],
        "docs_80pct": (folded["source"].map(totals_n).astype("int64")
                       - folded["max_i"].astype("int64") + 1),
        "n_docs": folded["source"].map(totals_n).astype("int64"),
    }).sort_values("source").reset_index(drop=True)


def bm25_search(sf_dir: str, *, k: int = 20, k1: float = 1.2,
                b: float = 0.75):
    """Conjunctive BM25 retrieval (Robertson et al.; the Lucene-default
    idf = ln((N−df+0.5)/(df+0.5)+1)) over the registered _SEARCH_QUERIES
    — keyword_search's ranking upgraded with tf saturation and
    doc-length normalization. Same two bounded passes: (1) one streaming
    stats fold (N, Σdl, per-term df — a constant-size broadcast 'mini
    index'); (2) one scoring pass emitting per-batch per-query partial
    top-k, merged per query. Columns: query_id, doc_id, score."""
    return _ranked_search(sf_dir, _bm25_scorer(sf_dir, k1, b), k)


def ql_search(sf_dir: str, *, k: int = 20, mu: float = 2000.0):
    """Query-likelihood retrieval with Dirichlet smoothing (Zhai &
    Lafferty SIGIR'01) over the registered _SEARCH_QUERIES — the
    language-modeling arm of the retrieval family (keyword TF-IDF,
    BM25, RRF hybrid):

        score(q, d) = Σ_{t∈q} ln((tf(t,d) + μ·cf_t/|C|) / (dl(d) + μ))

    where cf_t is the COLLECTION term frequency and |C| the corpus
    token total (BM25 smooths by document frequency; QL by collection
    frequency — a genuinely different statistic, so the stats fold
    differs too). Conjunctive membership and top-``k`` per query keep
    the output bounded. Same two streaming passes as BM25: (1) one
    mergeable stats fold producing the constant-size broadcast mini
    index (|C|, per-term cf); (2) one scoring pass emitting per-batch
    per-query partial top-k merged per query — the wire carries
    candidate scores, never postings. Columns: query_id, doc_id,
    score."""
    stats = _search_stats(sf_dir)
    ctot = float(stats["__sum_dl"])
    # p(t|C), the same division the twin writes inline (cf / ctot)
    p_c = {t: float(stats[f"cf_{t}"]) / ctot
           for t in _search_terms(_SEARCH_QUERIES)}

    def _score(qterms, sub, dl):
        score = np.zeros(len(sub), dtype=np.float64)
        for t in qterms:
            tfv = sub[t].to_numpy(dtype=np.float64)
            score += np.log((tfv + mu * p_c[t]) / (dl + mu))
        return score

    return _ranked_search(sf_dir, _score, k)


def mixture_weights(sf_dir: str, *, alpha: float = 0.5):
    """Temperature-scaled source mixture weights (the T5/multilingual
    p ∝ tokens^α rule): per-source token counts fold as mergeable
    partials; the weight table is |sources| rows on the driver.
    ``sample_rate`` is the expected epochs over each source when the
    training budget equals the corpus total (rate = weight·T/tokens —
    >1 upsamples small sources, <1 downsamples big heads). Columns:
    source, n_tokens, mix_weight, sample_rate."""
    from ocr_agent_ray.functions.textstats import (round_half_away,
                                                   token_counts)
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _counts(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": batch["source"],
            "n_tokens": token_counts(batch["text"]).to_numpy(),
        })

    tl = combine_partials_driver(
        _read_documents(sf_dir, columns=("text", "source")).map_batches(
            _counts, batch_format="pandas", batch_size=65536),
        ["source"], {"n_tokens": ("n_tokens", "sum")})
    t = tl["n_tokens"].to_numpy(dtype=np.float64)
    w = t ** alpha
    z = float(w.sum())
    tot = float(t.sum())
    mix = w / z
    return pd.DataFrame({
        "source": tl["source"],
        "n_tokens": tl["n_tokens"].astype("int64"),
        "mix_weight": round_half_away(mix, 6),
        "sample_rate": round_half_away(mix * tot / t, 6),
    }).sort_values("source").reset_index(drop=True)


def naive_bayes_langid(sf_dir: str):
    """Multinomial Naive Bayes language classifier trained ON the corpus
    (labels = the ``lang`` column) and applied back to every document —
    the classic closed-form count-based text classifier, and the one
    *learned* classifier here whose scores admit an EXACT SQL oracle
    (training is pure counting; no iterative optimization, unlike
    quality_classifier_scores / kmeans / ALS which are rows-only).

    score(d, l) = ln(nd_l / N) + Σ_w n_w(d) · ln((C(l,w) + 1) / (T_l + V))

    with add-one smoothing over the corpus vocabulary V. Distributed
    shape (nothing vocabulary-sized ever reaches the driver):

    - per-(doc, word) counts fold bucketed by word;
    - the class-conditional count table pivots WIDE per word inside the
      same word-bucket combine (k = |langs| bounded columns), so scoring
      is ONE bucket_hash_join on word + a vectorized rows×k log-kernel +
      a per-doc bucketed sum — the k class scores travel as columns,
      never as a tokens×langs row blowup (the SQL twin pays that cross
      join; we don't);
    - priors / per-class token totals / |V| are k-sized driver scalars.

    Prediction = argmax over ROUND(score, 6) with lexicographic lang
    tie-break, pinned identically in the SQL twin (rounding before the
    argmax makes the comparison deterministic across engines despite
    float-sum ordering). Docs with zero tokens are excluded on both
    sides (no evidence). Returns (doc_id, lang, pred_lang, score)."""
    import math

    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups
    from ocr_agent_ray.pipelines.joins import (bucket_hash_join,
                                               stable_bucket_array)

    docs = _read_documents(sf_dir, columns=("doc_id", "lang", "text"))

    # Priors: k rows on the driver (k = |langs|, a bounded dimension).
    pri = combine_partials_driver(
        docs.map_batches(
            lambda b: pd.DataFrame({"lang": b["lang"],
                                    "one": np.ones(len(b), dtype=np.int64)}),
            batch_format="pandas", batch_size=65536),
        ["lang"], {"nd": ("one", "sum")})
    langs = sorted(pri["lang"].tolist())
    k = len(langs)
    nd = dict(zip(pri["lang"], pri["nd"].astype(np.int64)))
    n_docs = float(sum(nd.values()))

    # Per-(doc, word) counts, bucketed by word. materialize(): three
    # consumers (class counts, per-class totals, the scoring join) read
    # it from the object store instead of re-tokenizing the corpus.
    def _dwc_part(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        out = pd.DataFrame({"doc_id": b["doc_id"], "lang": b["lang"],
                            "word": toks}).explode("word")
        out = out.dropna(subset=["word"])
        g = out.groupby(["word", "doc_id", "lang"], as_index=False,
                        sort=False).size()
        return g.rename(columns={"size": "n"})

    dwc = hash_partition_aggregate(
        docs.map_batches(_dwc_part, batch_format="pandas", batch_size=8192),
        ["word", "doc_id", "lang"], {"n": ("n", "sum")}).materialize()

    # Per-class token totals: k values, mergeable partials.
    tl = combine_partials_driver(dwc, ["lang"], {"t": ("n", "sum")})
    t_by_lang = dict(zip(tl["lang"], tl["t"].astype(np.int64)))
    # A lang whose every doc has zero tokens never reaches dwc; the SQL
    # twin's INNER JOIN on the totals CTE drops such candidate classes,
    # so mirror that here instead of KeyError-ing on t_by_lang[l].
    langs = [l for l in langs if l in t_by_lang]
    k = len(langs)

    # Class-conditional counts pivoted wide per word. Each word's k rows
    # are co-resident in its bucket, so the pivot happens inside the
    # bucket combine — no second shuffle.
    def _cw_part(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["word", "lang"], as_index=False)["n"].sum()
        tbl = pa.Table.from_pandas(g["word"].to_frame(),
                                   preserve_index=False)
        g["__b"] = stable_bucket_array(
            tbl.column(0).combine_chunks(), 32).to_numpy(
                zero_copy_only=False)
        return g

    def _cw_combine(g: pd.DataFrame) -> pd.DataFrame:
        wide = g.pivot_table(index="word", columns="lang", values="n",
                             aggfunc="sum", fill_value=0)
        wide = wide.reindex(columns=langs, fill_value=0)
        out = pd.DataFrame({"word": wide.index.to_numpy(dtype=object)})
        for j in range(k):
            out[f"c{j}"] = wide[langs[j]].to_numpy(dtype=np.int64)
        return out

    cw_wide = bucket_map_groups(
        dwc.map_batches(_cw_part, batch_format="pandas", batch_size=65536),
        lambda g: _cw_combine(g.drop(columns="__b")),
        bucket_col="__b", num_buckets=32).materialize()
    vocab = float(cw_wide.count())

    s = pa.string()
    joined = bucket_hash_join(
        dwc, cw_wide, on="word",
        left_schema=pa.schema([("word", s), ("doc_id", pa.int64()),
                               ("lang", s), ("n", pa.int64())]),
        right_schema=pa.schema([("word", s)]
                               + [(f"c{j}", pa.int64()) for j in range(k)]))

    denom = np.array([float(t_by_lang[l]) + vocab for l in langs])

    def _contrib(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(dtype=np.float64)
        out = {"doc_id": b["doc_id"].astype("int64"), "lang": b["lang"]}
        for j in range(k):
            out[f"s{j}"] = n * np.log(
                (b[f"c{j}"].to_numpy(dtype=np.float64) + 1.0) / denom[j])
        return pd.DataFrame(out)

    per_doc = hash_partition_aggregate(
        joined.map_batches(_contrib, batch_format="pandas",
                           batch_size=65536),
        ["doc_id", "lang"], {f"s{j}": (f"s{j}", "sum") for j in range(k)})

    log_prior = np.array([math.log(nd[l] * 1.0 / n_docs) for l in langs])
    lang_arr = np.array(langs, dtype=object)

    def _final(b: pd.DataFrame) -> pd.DataFrame:
        scores = np.column_stack(
            [b[f"s{j}"].to_numpy(dtype=np.float64) + log_prior[j]
             for j in range(k)])
        r = round_half_away(scores, 6)
        # argmax returns the FIRST max -> columns are lang-ascending, so
        # ties break to the lexicographically smallest lang (SQL twin:
        # ORDER BY ROUND(score,6) DESC, cand ASC).
        idx = np.argmax(r, axis=1)
        rows = np.arange(len(b))
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "lang": b["lang"],
            "pred_lang": lang_arr[idx],
            "score": r[rows, idx],
        })

    return per_doc.map_batches(_final, batch_format="pandas",
                               batch_size=65536)


def readability_scores(sf_dir: str):
    """Flesch reading-ease per document with every linguistic rule
    pinned to a regex both engines implement identically — the classic
    curation signal for audience-level filtering:

    - words   = maximal ``[a-z]+`` runs of the lowercased text;
    - syllables per word = max(1, count of ``[aeiouy]+`` vowel groups)
      (the standard heuristic; the clamp covers vowel-less tokens);
    - sentences = the sentence_stats rule ([.!?]+ terminators, space-only
      trim, empties dropped).

    flesch = 206.835 − 1.015·(W/S) − 84.6·(Y/W), ROUND(·,6) — one float
    expression evaluated identically on both sides, so no sum-order
    drift. Docs with zero words or zero sentences are excluded (the
    ratios are undefined; inner-join semantics in the twin). Pure
    per-batch map: explode → two C-speed grouped folds, no shuffle."""
    from ocr_agent_ray.functions.textstats import round_half_away

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        ex = toks.explode().dropna()
        n_words = (ex.groupby(level=0).size()
                   .reindex(batch.index, fill_value=0)
                   .to_numpy(dtype=np.int64))
        syl = ex.str.count(r"[aeiouy]+").clip(lower=1)
        n_syl = (syl.groupby(level=0).sum()
                 .reindex(batch.index, fill_value=0)
                 .to_numpy(dtype=np.int64))
        segs = batch["text"].fillna("").str.split(r"[.!?]+", regex=True)
        flat = segs.explode().str.strip(" ")
        flat = flat[flat != ""]
        n_sent = (flat.groupby(level=0).size()
                  .reindex(batch.index, fill_value=0)
                  .to_numpy(dtype=np.int64))
        keep = (n_words > 0) & (n_sent > 0)
        w = n_words[keep].astype(np.float64)
        s = n_sent[keep].astype(np.float64)
        y = n_syl[keep].astype(np.float64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].to_numpy()[keep],
            "n_words": n_words[keep],
            "n_sentences": n_sent[keep],
            "n_syllables": n_syl[keep],
            "flesch": round_half_away(
                206.835 - 1.015 * (w / s) - 84.6 * (y / w), 6),
        })

    return _read_documents(sf_dir).map_batches(
        _score, batch_format="pandas", batch_size=8192)


def textrank_keywords(sf_dir: str, *, k: int = 5, damping: float = 0.85,
                      iters: int = 20, min_len: int = 3):
    """TextRank keyword extraction (Mihalcea & Tarau, EMNLP 2004): per
    document, PageRank over the word co-occurrence graph (undirected,
    adjacent-token edges, weight = co-occurrence count), top-``k`` words
    by converged score. TextRank is per-document by definition, so the
    whole operator is ONE embarrassingly-parallel ``map_batches`` — no
    shuffle at any corpus size.

    The kernel vectorizes ACROSS the batch's documents, not per doc:
    every doc's nodes get global ids (doc-offset + local vocab index),
    edges of all docs form one flat COO array, and each power-iteration
    round is two scatter-adds (out-strength, then weighted
    contributions) over that flat array — 20 rounds regardless of doc
    count, zero Python per-doc loops. Deterministic: fixed iteration
    count, ties break word-ascending. Rows-only (iterative float
    algorithm — no SQL twin); pytest checks the textbook per-doc dense
    reference. Output: (doc_id, word, score, rank)."""
    from ocr_agent_ray.functions.textstats import round_half_away

    tok_re = r"[a-z]{%d,}" % min_len

    def _rank(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "doc_id": pd.Series(dtype="int64"),
            "word": pd.Series(dtype="object"),
            "score": pd.Series(dtype="float64"),
            "rank": pd.Series(dtype="int64")})
        toks = batch["text"].fillna("").str.lower().str.findall(tok_re)
        lens = toks.str.len().to_numpy(dtype=np.int64)
        if lens.sum() == 0:
            return empty
        doc_ids = batch["doc_id"].to_numpy()
        flat = toks.explode().dropna().to_numpy()
        tdoc = np.repeat(np.arange(len(batch)), lens)
        # global node id = (doc index, word) — factorize the pair once
        word_codes, word_vocab = pd.factorize(flat)
        pair = tdoc.astype(np.int64) * (word_codes.max() + 1) + word_codes
        node_ids, node_first = np.unique(pair, return_index=True)
        node_of = np.searchsorted(node_ids, pair)
        n_nodes = len(node_ids)
        node_doc = tdoc[node_first]
        node_word = word_codes[node_first]
        # adjacent-token edges within each doc (symmetric, drop self)
        same_doc = tdoc[1:] == tdoc[:-1]
        s, t = node_of[:-1][same_doc], node_of[1:][same_doc]
        keep = s != t
        s, t = s[keep], t[keep]
        # No early-out on an edge-less batch: isolated nodes must score
        # (1-damping) regardless of which docs share their Ray block —
        # the zero-edge arrays flow through the scatter-adds unchanged,
        # leaving every node at the converged isolated score. (An early
        # `return empty` here made the row set batch-boundary-dependent:
        # the same single-token doc appeared when co-batched with an
        # edge-bearing doc but vanished alone.)
        src = np.concatenate([s, t])
        dst = np.concatenate([t, s])
        # collapse parallel edges into weights
        eid = src.astype(np.int64) * n_nodes + dst
        uniq, w = np.unique(eid, return_counts=True)
        src = (uniq // n_nodes).astype(np.int64)
        dst = (uniq % n_nodes).astype(np.int64)
        w = w.astype(np.float64)
        out_s = np.zeros(n_nodes)
        np.add.at(out_s, src, w)
        r = np.ones(n_nodes)
        for _ in range(iters):
            contrib = w * r[src] / out_s[src]
            nxt = np.zeros(n_nodes)
            np.add.at(nxt, dst, contrib)
            r = (1.0 - damping) + damping * nxt
        # top-k per doc, ties word-ascending
        words = word_vocab.to_numpy() if hasattr(word_vocab, "to_numpy") \
            else np.asarray(word_vocab, dtype=object)
        nw = words[node_word]
        order = np.lexsort((nw, -r, node_doc))
        sdoc = node_doc[order]
        starts = np.r_[0, np.flatnonzero(sdoc[1:] != sdoc[:-1]) + 1]
        rank_in_doc = np.arange(len(sdoc)) - np.repeat(
            starts, np.diff(np.r_[starts, len(sdoc)]))
        sel = rank_in_doc < k
        idx = order[sel]
        return pd.DataFrame({
            "doc_id": doc_ids[node_doc[idx]],
            "word": nw[idx],
            "score": round_half_away(r[idx], 6),
            "rank": (rank_in_doc[sel] + 1).astype("int64"),
        })

    return _read_documents(sf_dir).map_batches(
        _rank, batch_format="pandas", batch_size=4096)


def compression_ratio(sf_dir: str, *, level: int = 6):
    """Per-document zlib compression ratio — the classic redundancy /
    quality proxy (boilerplate and template spam compress far below
    natural prose; Gopher-style pipelines threshold on it). ratio =
    len(zlib(text)) / len(utf8(text)), ROUND(·, 6); empty docs emit
    ratio NULL-free by reporting 0 bytes and ratio 0. The per-doc
    zlib call is C code on C-held bytes (the unavoidable per-item
    unit of work, like a model forward); everything around it is one
    ``map_batches`` — no shuffle. Rows-only: SQL has no compressor;
    pytest pins exact values and the repetitive≪random ordering."""
    import zlib

    from ocr_agent_ray.functions.textstats import round_half_away

    def _ratio(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].fillna("")
        raw = [t.encode("utf-8") for t in texts]
        n_raw = np.array([len(b) for b in raw], dtype=np.int64)
        n_cmp = np.array([len(zlib.compress(b, level)) if b else 0
                          for b in raw], dtype=np.int64)
        ratio = np.where(n_raw > 0, n_cmp / np.maximum(n_raw, 1), 0.0)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_bytes": n_raw,
            "ratio": round_half_away(ratio, 6)})

    return _read_documents(sf_dir).map_batches(
        _ratio, batch_format="pandas", batch_size=8192)


def unicode_clean(sf_dir: str):
    """Unicode canonicalization for ingest hygiene: NFC-normalize,
    strip C0/C1 control characters (newlines and tabs become spaces
    first, so line joins don't weld words), collapse space runs, trim.
    Every rule is a regex/normal form both engines implement
    identically (pandas ``str.normalize('NFC')`` == DuckDB
    ``nfc_normalize``; character-class regexes shared verbatim).
    Pure per-batch map, no shuffle. Output: (doc_id, clean_text,
    changed) with changed = 1 iff cleaning altered the text."""

    def _clean(batch: pd.DataFrame) -> pd.DataFrame:
        # control strip runs BEFORE NFC: controls never participate in
        # composition, and DuckDB's nfc_normalize (utf8proc) truncates
        # at an embedded NUL, so normalizing first would diverge
        raw = batch["text"].fillna("")
        s = raw.str.replace("[\\t\\n\\r]", " ", regex=True)
        s = s.str.replace("[\\x00-\\x1f\\x7f-\\x9f]", "", regex=True)
        s = s.str.normalize("NFC")
        s = s.str.replace("  +", " ", regex=True)
        s = s.str.strip(" ")
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "clean_text": s,
            "changed": (s != raw).astype("int64")})

    return _read_documents(sf_dir).map_batches(
        _clean, batch_format="pandas", batch_size=16384)


def ks_source_lengths(sf_dir: str, *, source_a: str = "src0",
                      source_b: str = "src1"):
    """Two-sample Kolmogorov–Smirnov D between the document-length
    distributions of two sources — the distribution-drift screen a
    curation pipeline runs when a new crawl snapshot lands ('did this
    source's length profile shift?'). D = max |ECDF_a − ECDF_b|,
    evaluated at the union of observed lengths (the ECDF difference
    only changes at jump points, so that evaluation set is exact).

    Distributed shape: lengths fold as per-(n_chars) count partials —
    the key space is bounded by the max document length, so the
    cumulative pass runs on the driver over a dimension-sized table.
    Ties at the max D break to the smallest length. All divisions are
    int/int → float64, bitwise-identical to the SQL twin. Columns:
    n_a, n_b, ks_d, at_len."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _cells(b: pd.DataFrame) -> pd.DataFrame:
        m = b["source"].isin([source_a, source_b])
        sub = b.loc[m]
        return pd.DataFrame({
            "len": sub["n_chars"].astype("int64"),
            "ca": (sub["source"] == source_a).astype("int64"),
            "cb": (sub["source"] == source_b).astype("int64")})

    g = combine_partials_driver(
        _read_documents(sf_dir, ("source", "n_chars")).map_batches(
            _cells, batch_format="pandas", batch_size=65536),
        ["len"], {"ca": ("ca", "sum"), "cb": ("cb", "sum")})
    g = g.sort_values("len").reset_index(drop=True)
    na = np.int64(g["ca"].sum())
    nb = np.int64(g["cb"].sum())
    cca = np.cumsum(g["ca"].to_numpy(np.int64))
    ccb = np.cumsum(g["cb"].to_numpy(np.int64))
    dd = np.abs(cca / np.float64(na) - ccb / np.float64(nb))
    ks = dd.max()
    at_len = np.int64(g["len"].to_numpy(np.int64)[dd == ks].min())
    return pd.DataFrame({
        "n_a": [na], "n_b": [nb],
        "ks_d": round_half_away(np.array([ks]), 6),
        "at_len": [at_len]})


def length_auc_lang(sf_dir: str, *, lang: str = "en"):
    """Mann–Whitney AUC of document length as a one-feature classifier
    for a language label ('does length alone separate <lang> docs from
    the rest?') — the ranking-quality primitive behind every quality-
    classifier evaluation. With grouped counts per distinct length,

        AUC = Σ_len pos_len·(neg_below + ½·neg_at) / (P·N)

    computed as EXACT integers (doubled to clear the ½): 2·num =
    Σ pos·(2·cum_neg_before + neg); one final int/int division makes
    the result bitwise-identical to the SQL twin — no float-order
    caveat at all. Distributed shape: per-(n_chars) count partials
    (bounded key space), cumulative pass on the driver in arbitrary-
    precision Python ints (no overflow at any corpus size). Columns:
    n_pos, n_neg, auc."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _cells(b: pd.DataFrame) -> pd.DataFrame:
        pos = (b["lang"] == lang).astype("int64")
        return pd.DataFrame({"len": b["n_chars"].astype("int64"),
                             "p": pos, "q": 1 - pos})

    g = combine_partials_driver(
        _read_documents(sf_dir, ("lang", "n_chars")).map_batches(
            _cells, batch_format="pandas", batch_size=65536),
        ["len"], {"p": ("p", "sum"), "q": ("q", "sum")})
    g = g.sort_values("len").reset_index(drop=True)
    p = [int(x) for x in g["p"]]
    q = [int(x) for x in g["q"]]
    total_p, total_n = sum(p), sum(q)
    num2, qb = 0, 0
    for pi, qi in zip(p, q):
        num2 += pi * (2 * qb + qi)
        qb += qi
    auc = np.float64(num2) / (2.0 * np.float64(total_p)
                              * np.float64(total_n))
    return pd.DataFrame({
        "n_pos": [np.int64(total_p)], "n_neg": [np.int64(total_n)],
        "auc": round_half_away(np.array([auc]), 6)})


def spearman_chars_tokens(sf_dir: str):
    """Spearman rank correlation between document length (n_chars) and
    token count — the nonparametric association screen (rank-based, so
    outlier documents can't dominate the way they do in Pearson).

    EXACT average ranks from grouped counts: rank(v) = cnt_below(v) +
    (cnt(v)+1)/2 — halves are exact in float64, so the only float
    noise is the final moment fold, which cancels in the ratio.
    Distributed shape: pass 1 is ONE tagged scan folding BOTH marginal
    histograms (key space bounded by the max document length); the
    driver turns them into rank maps and broadcasts two sorted
    (values, ranks) arrays via ray.put; pass 2 re-derives (x, y) per
    row, looks ranks up with searchsorted (vectorized), and folds
    six-moment Pearson partials. A production run at corpus scale
    would persist the tokenized feature column instead of tokenizing
    twice. Columns: n_docs, spearman_rho."""
    import ray

    from ocr_agent_ray.functions.textstats import (round_half_away,
                                                   token_counts)
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _xy(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "x": b["n_chars"].astype("int64"),
            "y": token_counts(b["text"].fillna("")).astype("int64")})

    def _tagged(b: pd.DataFrame) -> pd.DataFrame:
        xy = _xy(b)
        return pd.DataFrame({
            "axis": ["x"] * len(xy) + ["y"] * len(xy),
            "v": np.concatenate([xy["x"].to_numpy(np.int64),
                                 xy["y"].to_numpy(np.int64)]),
            "c": np.int64(1)})

    marg = combine_partials_driver(
        _read_documents(sf_dir, ("n_chars", "text")).map_batches(
            _tagged, batch_format="pandas", batch_size=16384),
        ["axis", "v"], {"c": ("c", "sum")})

    def _rank_map(sub: pd.DataFrame):
        sub = sub.sort_values("v")
        c = sub["c"].to_numpy(np.int64)
        below = np.cumsum(c) - c
        ranks = below.astype(np.float64) + (c.astype(np.float64)
                                            + 1.0) / 2.0
        return sub["v"].to_numpy(np.int64), ranks

    vx, rx = _rank_map(marg[marg["axis"] == "x"])
    vy, ry = _rank_map(marg[marg["axis"] == "y"])
    ref = ray.put((vx, rx, vy, ry))

    def _moments(b: pd.DataFrame) -> pd.DataFrame:
        vx, rx, vy, ry = ray.get(ref)
        xy = _xy(b)
        gx = rx[np.searchsorted(vx, xy["x"].to_numpy(np.int64))]
        gy = ry[np.searchsorted(vy, xy["y"].to_numpy(np.int64))]
        return pd.DataFrame({
            "k": np.int64(0), "n": np.int64(1), "sx": gx, "sy": gy,
            "sxx": gx * gx, "syy": gy * gy, "sxy": gx * gy})

    m = combine_partials_driver(
        _read_documents(sf_dir, ("n_chars", "text")).map_batches(
            _moments, batch_format="pandas", batch_size=16384),
        ["k"], {"n": ("n", "sum"), "sx": ("sx", "sum"),
                "sy": ("sy", "sum"), "sxx": ("sxx", "sum"),
                "syy": ("syy", "sum"), "sxy": ("sxy", "sum")})
    n = np.float64(m["n"].iloc[0])
    sx, sy = np.float64(m["sx"].iloc[0]), np.float64(m["sy"].iloc[0])
    sxx, syy = np.float64(m["sxx"].iloc[0]), np.float64(m["syy"].iloc[0])
    sxy = np.float64(m["sxy"].iloc[0])
    denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    rho = (n * sxy - sx * sy) / denom if denom > 0 else np.float64(0.0)
    return pd.DataFrame({
        "n_docs": [np.int64(m["n"].iloc[0])],
        "spearman_rho": round_half_away(np.array([rho]), 6)})


def quality_pct_rank_by_source(sf_dir: str):
    """Per-source percentile rank of the quality score — the
    calibration step behind per-dump quantile filtering (keep the top
    X% of EACH source, so a systematically verbose source can't crowd
    out the others the way a single global threshold lets it).

    pct_rank = cnt_strictly_below / (n_source − 1) — PERCENT_RANK
    semantics, exact ints until one final division. Distributed shape:
    pass 1 folds per-(source, score) counts (scores are rounded to 6
    in [0,1], so the key space is bounded at ~1e6 per source); the
    driver builds per-source cumulative rank maps and broadcasts them
    via ray.put; pass 2 re-scores each doc and looks its percentile up
    with searchsorted. Columns: doc_id, source, quality_score,
    pct_rank."""
    import ray

    from ocr_agent_ray.functions.textstats import (quality_features,
                                                   round_half_away)
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _scores(b: pd.DataFrame) -> pd.DataFrame:
        feats = quality_features(b["text"])
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"],
            "quality_score": feats["quality_score"]})

    g = combine_partials_driver(
        _read_documents(sf_dir, ("doc_id", "source", "text")).map_batches(
            lambda b: _scores(b).assign(c=np.int64(1)),
            batch_format="pandas", batch_size=16384),
        ["source", "quality_score"], {"c": ("c", "sum")})

    maps = {}
    for src, sub in g.groupby("source"):
        sub = sub.sort_values("quality_score")
        c = sub["c"].to_numpy(np.int64)
        n = np.int64(c.sum())
        below = np.cumsum(c) - c
        pct = (np.zeros(len(c)) if n == 1
               else below.astype(np.float64) / np.float64(n - 1))
        maps[src] = (sub["quality_score"].to_numpy(np.float64),
                     round_half_away(pct, 6))
    ref = ray.put(maps)

    def _lookup(b: pd.DataFrame) -> pd.DataFrame:
        maps = ray.get(ref)
        out = _scores(b)
        pct = np.empty(len(out))
        for src, idx in out.groupby("source").indices.items():
            vals, ranks = maps[src]
            pct[idx] = ranks[np.searchsorted(
                vals, out["quality_score"].to_numpy(np.float64)[idx])]
        out["pct_rank"] = pct
        return out

    return _read_documents(sf_dir, ("doc_id", "source", "text")) \
        .map_batches(_lookup, batch_format="pandas", batch_size=16384)


def heaps_law_fit(sf_dir: str):
    """Heaps'-law vocabulary-growth fit — the companion to ``zipf_fit``
    on the other axis: distinct-token count scales as V ≈ K·nᵝ, so the
    log-log OLS over per-doc (tokens, distinct tokens) points yields
    the growth exponent β (natural prose ~0.4-0.6; β → 1 flags
    unmixed/random corpora, β → 0 flags template spam). One
    map_batches pass tokenizes each doc (lowercased word regex shared
    verbatim with the twin), emits the five moment partials of
    x = ln n_tokens, y = ln n_distinct — five numbers per batch over
    the wire; slope/intercept close on the driver (raw-moment formula,
    identical float nesting on both sides). Columns: n_docs,
    heaps_beta, heaps_k."""
    import re

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    token_re = re.compile(r"[0-9a-z_]+")

    def _moments(b: pd.DataFrame) -> pd.DataFrame:
        toks = [token_re.findall(t) for t in b["text"].str.lower()]
        nt = np.array([len(t) for t in toks], dtype=np.int64)
        nd = np.array([len(set(t)) for t in toks], dtype=np.int64)
        m = (nt >= 2) & (nd >= 1)
        x = np.log(nt[m].astype(np.float64))
        y = np.log(nd[m].astype(np.float64))
        return pd.DataFrame({
            "k": np.zeros(m.sum(), np.int64), "x": x, "y": y,
            "xy": x * y, "xx": x * x})

    g = combine_partials_driver(
        _read_documents(sf_dir).map_batches(
            _moments, batch_format="pandas", batch_size=65536),
        ["k"],
        {"n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
         "sxy": ("xy", "sum"), "sxx": ("xx", "sum")})
    empty = pd.DataFrame({
        "n_docs": pd.Series(dtype="int64"),
        "heaps_beta": pd.Series(dtype="float64"),
        "heaps_k": pd.Series(dtype="float64")})
    if len(g) == 0 or np.int64(g.loc[0, "n"]) < 2:
        return empty
    nf = np.float64(g.loc[0, "n"])
    sx, sy = np.float64(g.loc[0, "sx"]), np.float64(g.loc[0, "sy"])
    sxy = np.float64(g.loc[0, "sxy"])
    sxx = np.float64(g.loc[0, "sxx"])
    den = nf * sxx - sx * sx
    if den == 0.0:
        return empty
    beta = (nf * sxy - sx * sy) / den
    k = np.exp((sy - beta * sx) / nf)
    return pd.DataFrame({
        "n_docs": [np.int64(g.loc[0, "n"])],
        "heaps_beta": round_half_away(np.array([beta]), 6),
        "heaps_k": round_half_away(np.array([k]), 6)})


def _source_word_counts(sf_dir: str):
    """The (source, word) count exchange shared by the vocabulary
    statistics: per-batch partial value_counts keyed (source, word),
    combined by a bucketed hash aggregate. Columns: source, word, n."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = (batch["text"].fillna("").str.lower()
                .str.findall(r"[0-9a-z_]+"))
        ex = pd.DataFrame({"source": batch["source"], "w": toks}) \
            .explode("w").dropna(subset=["w"])
        c = ex.groupby(["source", "w"], sort=False).size()
        return pd.DataFrame({"source": c.index.get_level_values(0),
                             "word": c.index.get_level_values(1),
                             "n": c.to_numpy(np.int64)})

    return hash_partition_aggregate(
        _read_documents(sf_dir, ("source", "text")).map_batches(
            _partial, batch_format="pandas"),
        ["source", "word"], {"n": ("n", "sum")})


def yule_k_by_source(sf_dir: str):
    """Yule's characteristic K per source — the vocabulary-richness
    constant (Yule 1944) that is INDEPENDENT of corpus size, unlike
    the raw type/token ratio ('is this source repetitive boilerplate
    or lexically rich?'). Since Σ_m m²·V_m = Σ_w c_w² over the word
    counts, K needs no frequency spectrum:

        K = 10⁴ · (Σ_w c_w² − N) / N²     (N = total tokens)

    Distributed shape: the standard word-count exchange — per-batch
    partial value_counts keyed (source, word), bucketed combine by
    hash — then a second mergeable fold collapses each bucket to
    per-source (N, Σc², vocab) partials, so only |sources|×3 numbers
    reach the driver; the vocabulary itself never centralizes. Sums
    ride int64 (the ``ols_chars_model`` documented limit: a source
    beyond ~3·10⁹ occurrences of one word needs the int128/HUGEINT
    escalation the twin already uses). Columns: source, n_tokens,
    n_types, yule_k."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    per_word = _source_word_counts(sf_dir)
    g = combine_partials_driver(
        per_word.map_batches(
            lambda b: pd.DataFrame({
                "source": b["source"],
                "nt": b["n"].astype("int64"),
                "s2": b["n"].astype("int64") * b["n"].astype("int64"),
                "v": np.int64(1)}),
            batch_format="pandas"),
        ["source"],
        {"nt": ("nt", "sum"), "s2": ("s2", "sum"), "v": ("v", "sum")})
    if not len(g):
        return pd.DataFrame({
            "source": pd.Series(dtype="object"),
            "n_tokens": pd.Series(dtype="int64"),
            "n_types": pd.Series(dtype="int64"),
            "yule_k": pd.Series(dtype="float64")})
    g = g.sort_values("source").reset_index(drop=True)
    ntf = g["nt"].to_numpy(np.int64).astype(np.float64)
    s2f = g["s2"].to_numpy(np.int64).astype(np.float64)
    return pd.DataFrame({
        "source": g["source"],
        "n_tokens": g["nt"].astype("int64"),
        "n_types": g["v"].astype("int64"),
        "yule_k": round_half_away(
            10000.0 * (s2f - ntf) / (ntf * ntf), 6)})


def ndcg_search(sf_dir: str, *, k: int = 20, k1: float = 1.2,
                b: float = 0.75):
    """NDCG@k evaluation of the BM25 ranking — the retrieval-quality
    metric the search family was missing: how close does the BM25
    ordering come to the IDEAL ordering of the same candidate pool
    under a graded relevance label? Relevance here is the deterministic
    grade rel(q,d) = Σ_{t∈q} tf(t,d) (total query-term occurrences),
    with the linear-gain DCG (gain = rel, not 2^rel − 1, so deep term
    counts can't overflow):

        DCG  = Σ_{i≤k} rel_i / log2(i+1)   over the BM25 order
        IDCG = the same sum over the (rel DESC, doc_id) order
        NDCG = DCG / IDCG

    Distributed shape: the BM25 machinery's two passes, with the
    scoring pass emitting per-batch per-query partial top-k by SCORE
    ∪ partial top-k by RELEVANCE (≤2k rows per query per batch — both
    global top-ks are covered by the union of per-batch top-ks); the
    per-query merge re-ranks both lists and closes the quotient.
    Ties break (score DESC, doc_id ASC) / (rel DESC, doc_id ASC).
    Columns: query_id, dcg, idcg, ndcg."""
    from ocr_agent_ray.functions.textstats import round_half_away

    score = _bm25_scorer(sf_dir, k1, b)

    def _emit(qid, qterms, sub, doc_ids, dl) -> pd.DataFrame:
        g = pd.DataFrame({"query_id": np.int64(qid), "doc_id": doc_ids,
                          "score": score(qterms, sub, dl),
                          "rel": sub.sum(axis=1).to_numpy(np.int64)})
        return pd.concat([_top_by(g, "score", k), _top_by(g, "rel", k)]
                         ).drop_duplicates("doc_id")

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("doc_id")
        ranked = _top_by(g, "score", k)
        ideal = _top_by(g, "rel", k)
        disc = np.log2(np.arange(2, len(ranked) + 2, dtype=np.float64))
        dcg = float((ranked["rel"].to_numpy(np.int64).astype(np.float64)
                     / disc).sum())
        disc_i = np.log2(np.arange(2, len(ideal) + 2, dtype=np.float64))
        idcg = float((ideal["rel"].to_numpy(np.int64).astype(np.float64)
                      / disc_i).sum())
        if idcg <= 0.0:
            return pd.DataFrame({
                "query_id": pd.Series(dtype="int64"),
                "dcg": pd.Series(dtype="float64"),
                "idcg": pd.Series(dtype="float64"),
                "ndcg": pd.Series(dtype="float64")})
        return pd.DataFrame({
            "query_id": [np.int64(g["query_id"].iloc[0])],
            "dcg": round_half_away(np.array([dcg]), 6),
            "idcg": round_half_away(np.array([idcg]), 6),
            "ndcg": round_half_away(np.array([dcg / idcg]), 6)})

    return _search_run(sf_dir, _emit, _final, rel=True)


def avg_precision_search(sf_dir: str, *, k: int = 20, k1: float = 1.2,
                         b: float = 0.75, rel_min: int = 3):
    """Average Precision (AP@k) of the BM25 ranking under the binary
    relevance label rel(q,d) ≥ ``rel_min`` total query-term
    occurrences — the MAP building block that complements
    ``ndcg_search``'s graded view:

        AP@k = Σ_{i ≤ k, rel_i} P@i / min(R, k),   P@i = #rel in top i / i

    with R the total relevant count over the FULL conjunctive
    candidate pool (not just the top k — misses below the cutoff
    still lower the score). Distributed shape: the BM25 two-pass
    machinery; the scoring pass emits per-batch partial top-k by
    score PLUS one per-batch relevant-count partial row (sentinel
    doc_id −1), so R folds mergeably while the wire stays bounded at
    (k+1) rows per query per batch. P@i ratios are exact-int
    divisions, so both engines sum identical floats. Columns:
    query_id, n_relevant, ap."""
    from ocr_agent_ray.functions.textstats import round_half_away

    score = _bm25_scorer(sf_dir, k1, b)

    def _emit(qid, qterms, sub, doc_ids, dl) -> pd.DataFrame:
        rel = (sub.sum(axis=1).to_numpy(np.int64)
               >= rel_min).astype(np.int64)
        g = pd.DataFrame({"query_id": np.int64(qid), "doc_id": doc_ids,
                          "score": score(qterms, sub, dl), "rel": rel})
        summary = pd.DataFrame({
            "query_id": [np.int64(qid)], "doc_id": [np.int64(-1)],
            "score": [0.0], "rel": [np.int64(rel.sum())]})
        return pd.concat([_top_by(g, "score", k), summary],
                         ignore_index=True)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        summaries = g[g["doc_id"] < 0]
        n_rel = np.int64(summaries["rel"].sum())
        ranked = _top_by(g[g["doc_id"] >= 0], "score", k)
        flags = ranked["rel"].to_numpy(np.int64)
        if n_rel == 0:
            ap = 0.0
        else:
            prec = (np.cumsum(flags).astype(np.float64)
                    / np.arange(1, len(flags) + 1, dtype=np.float64))
            ap = float(round_half_away(
                np.float64(prec[flags == 1].sum())
                / np.float64(min(int(n_rel), k)), 6))
        return pd.DataFrame({
            "query_id": [np.int64(g["query_id"].iloc[0])],
            "n_relevant": [n_rel], "ap": [ap]})

    return _search_run(sf_dir, _emit, _final, rel=True)


def chao1_richness(sf_dir: str):
    """Chao1 vocabulary-coverage estimate per source — 'how many word
    types does this source have that we have NOT seen yet?' (the
    capture-recapture richness estimator; curation uses it to decide
    whether crawling more of a source will still yield new language).
    Bias-corrected form (defined even with no doubletons):

        Chao1 = V + f1·(f1 − 1) / (2·(f2 + 1))

    with f1/f2 the singleton/doubleton type counts. Same distributed
    shape as ``yule_k_by_source``: the (source, word) count exchange,
    then a mergeable per-source fold of (N, V, f1, f2) — four ints per
    source over the wire, the estimator closes on the driver. Columns:
    source, n_tokens, n_types, f1, f2, chao1."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    per_word = _source_word_counts(sf_dir)
    g = combine_partials_driver(
        per_word.map_batches(
            lambda b: pd.DataFrame({
                "source": b["source"],
                "nt": b["n"].astype("int64"),
                "v": np.int64(1),
                "f1": (b["n"] == 1).astype("int64"),
                "f2": (b["n"] == 2).astype("int64")}),
            batch_format="pandas"),
        ["source"],
        {"nt": ("nt", "sum"), "v": ("v", "sum"),
         "f1": ("f1", "sum"), "f2": ("f2", "sum")})
    if not len(g):
        return pd.DataFrame({
            "source": pd.Series(dtype="object"),
            "n_tokens": pd.Series(dtype="int64"),
            "n_types": pd.Series(dtype="int64"),
            "f1": pd.Series(dtype="int64"),
            "f2": pd.Series(dtype="int64"),
            "chao1": pd.Series(dtype="float64")})
    g = g.sort_values("source").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64).astype(np.float64)
    f1 = g["f1"].to_numpy(np.int64).astype(np.float64)
    f2 = g["f2"].to_numpy(np.int64).astype(np.float64)
    return pd.DataFrame({
        "source": g["source"],
        "n_tokens": g["nt"].astype("int64"),
        "n_types": g["v"].astype("int64"),
        "f1": g["f1"].astype("int64"),
        "f2": g["f2"].astype("int64"),
        "chao1": round_half_away(
            v + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0)), 6)})


def _two_source_contrast(sf_dir: str, source_a: str, source_b: str,
                         alpha: float):
    """The two-source word contrast shared by the log-odds screens: the
    word-count exchange filtered to the two sources and pivoted to
    per-word (a, b) count partials, then ONE tiny totals fold (N_a, N_b,
    V = the union vocabulary size). Returns ``(counts, z_score)``:
    ``counts`` is the materialized (word, a, b) Dataset and
    ``z_score(t)`` maps a batch of it to the Dirichlet-smoothed
    log-odds z-scores (``log_odds_terms`` gives the formula);
    ``z_score`` is None when the two sources hold no words."""
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["source"].isin([source_a, source_b])
        batch = batch[m]
        toks = (batch["text"].fillna("").str.lower()
                .str.findall(r"[0-9a-z_]+"))
        ex = pd.DataFrame({"source": batch["source"], "w": toks}) \
            .explode("w").dropna(subset=["w"])
        if not len(ex):
            return pd.DataFrame({"word": pd.Series(dtype="object"),
                                 "a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        c = (ex.groupby(["w", "source"], sort=False).size()
             .unstack(fill_value=0))
        for s in (source_a, source_b):
            if s not in c.columns:
                c[s] = 0
        return pd.DataFrame({"word": c.index,
                             "a": c[source_a].to_numpy(np.int64),
                             "b": c[source_b].to_numpy(np.int64)})

    counts = hash_partition_aggregate(
        _read_documents(sf_dir, ("source", "text")).map_batches(
            _partial, batch_format="pandas"),
        ["word"], {"a": ("a", "sum"), "b": ("b", "sum")}).materialize()
    tot = combine_partials_driver(
        counts.map_batches(lambda t: pd.DataFrame({
            "__k": np.int64(0),
            "na": t["a"].astype("int64"), "nb": t["b"].astype("int64"),
            "v": np.int64(1)}), batch_format="pandas"),
        ["__k"], {"na": ("na", "sum"), "nb": ("nb", "sum"),
                  "v": ("v", "sum")})
    if tot.empty:
        return counts, None
    na = np.float64(np.int64(tot["na"].iloc[0]))
    nb = np.float64(np.int64(tot["nb"].iloc[0]))
    vocab = np.float64(np.int64(tot["v"].iloc[0]))

    def _z(t: pd.DataFrame) -> np.ndarray:
        a = t["a"].to_numpy(np.int64).astype(np.float64)
        b = t["b"].to_numpy(np.int64).astype(np.float64)
        delta = (np.log((a + alpha)
                        / (na + vocab * alpha - a - alpha))
                 - np.log((b + alpha)
                          / (nb + vocab * alpha - b - alpha)))
        return delta / np.sqrt(1.0 / (a + alpha) + 1.0 / (b + alpha))

    return counts, _z


def log_odds_terms(sf_dir: str, *, source_a: str = "src0",
                   source_b: str = "src1", alpha: float = 0.01,
                   k: int = 15):
    """'Fightin' Words' comparative lexical analysis (Monroe, Colaresi
    & Quinn 2008): which terms most distinguish ``source_a`` from
    ``source_b``? Dirichlet-smoothed log-odds delta with its variance
    estimate, z-scored:

        δ_w = ln((a_w+α)/(N_a+Vα−a_w−α)) − ln((b_w+α)/(N_b+Vα−b_w−α))
        z_w = δ_w / sqrt(1/(a_w+α) + 1/(b_w+α))

    over V = the two sources' union vocabulary. Distributed shape: the
    word-count exchange filtered to the two sources, pivoted to
    per-word (a, b) count partials; ONE tiny totals fold broadcasts
    (N_a, N_b, V); a scoring pass emits per-batch partial top-``k`` by
    ROUNDED |z| (the rounded-rank contract — sum-order ulps cannot
    flip ranks), merged in one bucket. Columns: word, n_a, n_b,
    z_score."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    counts, z_score = _two_source_contrast(sf_dir, source_a, source_b,
                                           alpha)
    empty = pd.DataFrame({
        "word": pd.Series(dtype="object"),
        "n_a": pd.Series(dtype="int64"),
        "n_b": pd.Series(dtype="int64"),
        "z_score": pd.Series(dtype="float64")})
    if z_score is None:
        return empty

    def _score(t: pd.DataFrame) -> pd.DataFrame:
        z = z_score(t)
        out = pd.DataFrame({
            "__k": np.int64(0), "word": t["word"],
            "n_a": t["a"].astype("int64"),
            "n_b": t["b"].astype("int64"),
            "z_score": round_half_away(z, 6),
            "az": round_half_away(np.abs(z), 6)})
        return out.sort_values(["az", "word"],
                               ascending=[False, True]).head(k)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["az", "word"],
                          ascending=[False, True]).head(k)
        return g[["word", "n_a", "n_b", "z_score"]].reset_index(
            drop=True)

    out = key_map_groups(
        counts.map_batches(_score, batch_format="pandas",
                           batch_size=65536),
        _final, key_col="__k", num_buckets=1).to_pandas()
    if out.empty:
        return empty
    return out


def burrows_delta(sf_dir: str, *, m: int = 20):
    """Burrows' Delta stylometric distance between every pair of
    sources — the classic authorship-attribution measure: over the
    corpus's top-``m`` words, z-score each source's relative frequency
    against the across-source distribution and average the absolute
    z differences:

        Δ(s1, s2) = (1/|W|) Σ_{w∈W} |z(s1, w) − z(s2, w)|

    (zero-variance words drop from W on both sides). Distributed
    shape: the (source, word) count exchange, then THREE bounded
    folds — corpus top-m words via per-batch partial top-k (int
    ranks, no float ties), per-source token totals, and the
    (source, topword) count grid — so only sources×m cells reach the
    driver; the vocabulary never centralizes. Frequencies include the
    implicit zeros (a source missing a top word still z-scores).
    Columns: source_a, source_b, n_terms, delta."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    per_word = _source_word_counts(sf_dir).materialize()

    # corpus top-m words: re-aggregate by word, partial top-k merge
    by_word = hash_partition_aggregate(
        per_word, ["word"], {"n": ("n", "sum")})

    def _topk(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(__k=np.int64(0))
        return b.sort_values(["n", "word"],
                             ascending=[False, True]).head(m)

    top = key_map_groups(
        by_word.map_batches(_topk, batch_format="pandas",
                            batch_size=65536),
        lambda g: g.sort_values(["n", "word"],
                                ascending=[False, True]).head(m),
        key_col="__k", num_buckets=1).to_pandas()
    top_words = set(top["word"])

    totals = combine_partials_driver(
        per_word.map_batches(lambda b: pd.DataFrame({
            "source": b["source"], "t": b["n"].astype("int64")}),
            batch_format="pandas"),
        ["source"], {"t": ("t", "sum")})
    cells = combine_partials_driver(
        per_word.map_batches(
            lambda b: b[b["word"].isin(top_words)][
                ["source", "word", "n"]],
            batch_format="pandas"),
        ["source", "word"], {"n": ("n", "sum")})
    empty = pd.DataFrame({
        "source_a": pd.Series(dtype="object"),
        "source_b": pd.Series(dtype="object"),
        "n_terms": pd.Series(dtype="int64"),
        "delta": pd.Series(dtype="float64")})
    if totals.empty or cells.empty:
        return empty
    sources = sorted(totals["source"])
    words = sorted(top_words)
    tmap = totals.set_index("source")["t"].astype("int64")
    grid = (cells.pivot_table(index="source", columns="word",
                              values="n", aggfunc="sum")
            .reindex(index=sources, columns=words).fillna(0))
    f = (grid.to_numpy(np.float64)
         / tmap.loc[sources].to_numpy(np.int64)
         .astype(np.float64)[:, None])
    ns = np.float64(len(sources))
    sf = f.sum(axis=0)
    sff = (f * f).sum(axis=0)
    mean = sf / ns
    var = sff / ns - mean * mean
    keep = var > 0.0
    if not keep.any() or len(sources) < 2:
        return empty
    z = (f[:, keep] - mean[keep][None, :]) / np.sqrt(var[keep])[None, :]
    mk = np.float64(int(keep.sum()))
    rows = []
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            d = float(np.abs(z[i] - z[j]).sum()) / mk
            rows.append((sources[i], sources[j],
                         np.int64(int(keep.sum())),
                         float(round_half_away(np.float64(d), 6))))
    return pd.DataFrame(rows, columns=["source_a", "source_b",
                                       "n_terms", "delta"]) \
        .astype({"n_terms": "int64"})


def rbo_arms(sf_dir: str, *, k: int = 20, p: float = 0.9):
    """Rank-Biased Overlap (Webber et al. 2010, truncated form) between
    the BM25 and query-likelihood retrieval arms — 'how much do the two
    rankers agree, weighted toward the top?':

        RBO@k = (1 − p) · Σ_{d=1..k} p^{d−1} · |A_:d ∩ B_:d| / d

    Each arm's list is its OUTPUT contract: the arm's top-k (selected
    on unrounded scores) re-ranked by (ROUNDED score DESC, doc_id) —
    the RRF rounded-rank precedent, so both engines walk identical
    orders. The arms run distributed; the fusion closes on the bounded
    union of per-query top-k lists (≤ 2·Q·k rows). Columns: query_id,
    n_a, n_b, rbo."""
    from ocr_agent_ray.functions.textstats import round_half_away

    a = bm25_search(sf_dir, k=k).to_pandas()
    b = ql_search(sf_dir, k=k).to_pandas()
    rows = []
    for qid in sorted(set(a["query_id"]) & set(b["query_id"])):
        la = (a[a["query_id"] == qid]
              .sort_values(["score", "doc_id"],
                           ascending=[False, True])["doc_id"].tolist())
        lb = (b[b["query_id"] == qid]
              .sort_values(["score", "doc_id"],
                           ascending=[False, True])["doc_id"].tolist())
        acc = np.float64(0.0)
        for d in range(1, k + 1):
            x = len(set(la[:d]) & set(lb[:d]))
            acc = acc + (np.float64(p) ** (d - 1)
                         * np.float64(x) / np.float64(d))
        rows.append((np.int64(qid), np.int64(len(la)),
                     np.int64(len(lb)),
                     float(round_half_away(
                         (1.0 - np.float64(p)) * acc, 6))))
    if not rows:
        return pd.DataFrame({
            "query_id": pd.Series(dtype="int64"),
            "n_a": pd.Series(dtype="int64"),
            "n_b": pd.Series(dtype="int64"),
            "rbo": pd.Series(dtype="float64")})
    return pd.DataFrame(rows, columns=["query_id", "n_a", "n_b",
                                       "rbo"]) \
        .astype({"query_id": "int64", "n_a": "int64", "n_b": "int64"})


def wasserstein_lengths(sf_dir: str, *, source_a: str = "src0",
                        source_b: str = "src1"):
    """1-D Wasserstein (earth-mover's) distance between two sources'
    document-length distributions — the distribution-shift metric that
    unlike KS (sup gap) or JS/PSI (bin overlaps) measures HOW FAR mass
    must move, in characters:

        W1 = Σ_i (x_{i+1} − x_i) · |F_a(x_i) − F_b(x_i)|

    over the merged support (the exact closed form for 1-D). One scan
    folds (source, n_chars) count partials — a bounded grid (length
    values, not rows) — and the CDF walk closes on the driver with
    exact integer cumulatives (ONE double division per CDF term, the
    twin's nesting). Columns: n_a, n_b, w1_distance."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    g = combine_partials_driver(
        _read_documents(sf_dir, ("source", "n_chars")).map_batches(
            lambda b: pd.DataFrame({
                "source": b["source"], "x": b["n_chars"],
                "c": np.int64(1)})[
                b["source"].isin([source_a, source_b]).to_numpy()],
            batch_format="pandas", batch_size=65536),
        ["source", "x"], {"c": ("c", "sum")})
    empty = pd.DataFrame({
        "n_a": pd.Series(dtype="int64"),
        "n_b": pd.Series(dtype="int64"),
        "w1_distance": pd.Series(dtype="float64")})
    if not len(g):
        return empty
    piv = (g.pivot_table(index="x", columns="source", values="c",
                         aggfunc="sum").fillna(0).astype(np.int64)
           .sort_index())
    if source_a not in piv.columns or source_b not in piv.columns:
        return empty
    ca = piv[source_a].to_numpy(np.int64)
    cb = piv[source_b].to_numpy(np.int64)
    na, nb = np.int64(ca.sum()), np.int64(cb.sum())
    if na == 0 or nb == 0:
        return empty
    x = piv.index.to_numpy(np.int64)
    cca = np.cumsum(ca)
    ccb = np.cumsum(cb)
    gaps = (x[1:] - x[:-1]).astype(np.float64)
    fdiff = np.abs(cca[:-1].astype(np.float64) / np.float64(na)
                   - ccb[:-1].astype(np.float64) / np.float64(nb))
    return pd.DataFrame({
        "n_a": [na], "n_b": [nb],
        "w1_distance": round_half_away(
            np.array([float((gaps * fdiff).sum())]), 6)})


def k_anonymity_audit(sf_dir: str, *, k: int = 5):
    """k-anonymity audit over the quasi-identifier tuple
    (lang, source, length-band) — the privacy screen PII scrubbing
    alone can't provide: a document whose quasi-identifier combination
    is shared by fewer than ``k`` docs is re-identifiable by joining
    side information, even with explicit PII removed. One mergeable
    count fold over the bounded (lang × source × band) grid; the audit
    closes on the driver. Columns: n_groups, n_small_groups,
    n_docs_at_risk, risk_fraction."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    g = combine_partials_driver(
        _read_documents(sf_dir, ("lang", "source", "n_chars")) \
            .map_batches(
                lambda b: pd.DataFrame({
                    "lang": b["lang"], "source": b["source"],
                    "band": (b["n_chars"].to_numpy(np.int64) // 100),
                    "c": np.int64(1)}),
                batch_format="pandas", batch_size=65536),
        ["lang", "source", "band"], {"c": ("c", "sum")})
    if not len(g):
        return pd.DataFrame({
            "n_groups": pd.Series(dtype="int64"),
            "n_small_groups": pd.Series(dtype="int64"),
            "n_docs_at_risk": pd.Series(dtype="int64"),
            "risk_fraction": pd.Series(dtype="float64")})
    c = g["c"].to_numpy(np.int64)
    n = np.int64(c.sum())
    small = c < k
    at_risk = np.int64(c[small].sum())
    return pd.DataFrame({
        "n_groups": [np.int64(len(c))],
        "n_small_groups": [np.int64(int(small.sum()))],
        "n_docs_at_risk": [at_risk],
        "risk_fraction": round_half_away(
            np.array([np.float64(at_risk) / np.float64(n)]), 6)})


def gram_novelty(sf_dir: str, *, n: int = 4):
    """Per-document n-gram novelty — the marginal-contribution
    curation score: what fraction of a doc's distinct word 4-grams
    make their FIRST corpus appearance in this doc (first = lowest
    doc_id)? Novelty ≈ 1: fresh content; ≈ 0: everything already seen
    — the streaming-admission analogue of dedup, as a score instead of
    a drop. Distributed shape (the ``ngram_jaccard_all_pairs``
    substrate): per-batch distinct gram hashes → bucketed MIN-doc fold
    per gram → ONE bucketed hash join back → per-doc count fold; the
    gram space never centralizes. Gram hashes stand in for gram
    strings (64-bit, collisions immaterial — the oracled
    q_ngram_jaccard precedent). Docs with < n tokens have no grams and
    are absent on both sides. Columns: doc_id, n_grams, n_novel,
    novelty."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.dedup import _word_ngram_hash_sets
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    def _bands(batch: pd.DataFrame) -> pd.DataFrame:
        hs = _word_ngram_hash_sets(batch["text"], n)
        ids = batch["doc_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "gram": np.concatenate(hs).astype(np.int64)
            if hs else np.empty(0, np.int64),
            "doc_id": np.repeat(ids, [len(h) for h in hs])})

    bands = _read_documents(sf_dir).map_batches(
        _bands, batch_format="pandas", batch_size=4096).materialize()
    first = hash_partition_aggregate(
        bands, ["gram"], {"fd": ("doc_id", "min")})
    j = bucket_hash_join(
        bands, first, on="gram", num_buckets=16,
        left_schema=pa.schema([("gram", pa.int64()),
                               ("doc_id", pa.int64())]),
        right_schema=pa.schema([("gram", pa.int64()),
                                ("fd", pa.int64())]))
    per_doc = hash_partition_aggregate(
        j.map_batches(lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_grams": np.int64(1),
            "n_novel": (b["fd"] == b["doc_id"]).astype("int64")}),
            batch_format="pandas", batch_size=65536),
        ["doc_id"],
        {"n_grams": ("n_grams", "sum"), "n_novel": ("n_novel", "sum")})
    return per_doc.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_grams": b["n_grams"].astype("int64"),
            "n_novel": b["n_novel"].astype("int64"),
            "novelty": round_half_away(
                b["n_novel"].to_numpy(np.int64).astype(np.float64)
                / b["n_grams"].to_numpy(np.int64).astype(np.float64),
                6)}),
        batch_format="pandas", batch_size=65536)


def langid_confusion(sf_dir: str):
    """Confusion matrix of the Naive Bayes language classifier against
    the labeled ``lang`` column — the evaluation closing the loop on
    ``naive_bayes_langid`` ('WHERE does the classifier err, not just
    how often?'). The classifier runs distributed as usual; the
    (true, predicted) crosstab folds as mergeable count partials over
    the bounded |langs|² key space. Columns: lang, pred_lang, n."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    preds = naive_bayes_langid(sf_dir)
    if isinstance(preds, pd.DataFrame):
        out = (preds.groupby(["lang", "pred_lang"], sort=True)
               .size().reset_index(name="n"))
        out["n"] = out["n"].astype("int64")
        return out
    out = combine_partials_driver(
        preds.map_batches(lambda b: pd.DataFrame({
            "lang": b["lang"], "pred_lang": b["pred_lang"],
            "n": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["lang", "pred_lang"], {"n": ("n", "sum")})
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang", "pred_lang"]).reset_index(drop=True)


def _norm_two_sided_p(z: np.ndarray) -> np.ndarray:
    """Two-sided normal p-value via the Abramowitz–Stegun 7.1.26 erf
    polynomial — DuckDB has no erf, so BOTH engines evaluate this
    identical literal polynomial (|error| < 1.5e-7, well inside the
    6-decimal round):

        t = 1/(1 + 0.3275911·x),
        erf(x) ≈ 1 − (((((a5·t + a4)·t + a3)·t + a2)·t + a1)·t)·e^{−x²}
    """
    x = np.abs(z) / np.sqrt(np.float64(2.0))
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = ((((1.061405429 * t - 1.453152027) * t + 1.421413741) * t
             - 0.284496736) * t + 0.254829592) * t
    erf = 1.0 - poly * np.exp(-x * x)
    return 1.0 - erf


def bh_significant_terms(sf_dir: str, *, source_a: str = "src0",
                         source_b: str = "src1", alpha: float = 0.01,
                         fdr: float = 0.05):
    """Benjamini–Hochberg FDR control over the FULL log-odds term
    family — the multiple-testing correction the per-term z-scores
    (``log_odds_terms``) need before anyone acts on them: with m =
    the union vocabulary size, find the largest rank r* such that
    p_(r*) ≤ fdr·r*/m; all terms at rank ≤ r* are significant.

    Distributed shape: the word-count exchange scores EVERY term's z
    (exact — z is a scalar function of per-term counts and corpus
    totals, no float-sum ordering), p-values via the pinned
    Abramowitz–Stegun polynomial, then ``ranged_global_rank`` on
    (p, word) — the no-global-sort ranking — and two mergeable folds
    (max qualifying rank, then the significant count IS that rank).
    The vocabulary never centralizes. Columns: n_tested,
    n_significant, bh_threshold."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             ranged_global_rank)

    counts, z_score = _two_source_contrast(sf_dir, source_a, source_b,
                                           alpha)
    empty = pd.DataFrame({
        "n_tested": pd.Series(dtype="int64"),
        "n_significant": pd.Series(dtype="int64"),
        "bh_threshold": pd.Series(dtype="float64")})
    if z_score is None:
        return empty

    def _pvals(t: pd.DataFrame) -> pd.DataFrame:
        p = _norm_two_sided_p(z_score(t))
        return pd.DataFrame({
            "word": t["word"], "p": p,
            "__rb": np.minimum((p * 1024.0), 1023.0).astype(np.int64)})

    keyed = counts.map_batches(_pvals, batch_format="pandas",
                               batch_size=65536)
    m_total, ranked = ranged_global_rank(keyed, ["p", "word"],
                                         rank_col="rnk")
    if m_total == 0:
        return empty
    mf = np.float64(int(m_total))

    def _qual(b: pd.DataFrame) -> pd.DataFrame:
        r = b["rnk"].to_numpy(np.int64)
        p = b["p"].to_numpy(np.float64)
        ok = p <= np.float64(fdr) * r.astype(np.float64) / mf
        best = np.int64(r[ok].max()) if ok.any() else np.int64(0)
        return pd.DataFrame({"__k": [np.int64(0)], "best": [best]})

    best = combine_partials_driver(
        ranked.map_batches(_qual, batch_format="pandas",
                           batch_size=65536),
        ["__k"], {"best": ("best", "max")})
    r_star = int(best["best"].iloc[0]) if len(best) else 0
    return pd.DataFrame({
        "n_tested": [np.int64(int(m_total))],
        "n_significant": [np.int64(r_star)],
        "bh_threshold": round_half_away(
            np.array([np.float64(fdr) * np.float64(r_star) / mf]), 6)})


def source_hhi(sf_dir: str):
    """Herfindahl–Hirschman concentration of the corpus's source mix —
    'is the dataset dominated by a handful of crawls?' (HHI = Σ share²
    over sources; 1/HHI is the EFFECTIVE number of sources — the
    number a uniform mix would need for the same concentration). One
    mergeable per-source count fold; the index closes on the driver
    from exact ints (shares as one division each, Σ in source order —
    the twin's SUM ordering differences wash out in the 6-dp round).
    Columns: n_sources, hhi, effective_n."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    g = combine_partials_driver(
        _read_documents(sf_dir, ("source",)).map_batches(
            lambda b: pd.DataFrame({"source": b["source"],
                                    "c": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["source"], {"c": ("c", "sum")})
    if not len(g):
        return pd.DataFrame({
            "n_sources": pd.Series(dtype="int64"),
            "hhi": pd.Series(dtype="float64"),
            "effective_n": pd.Series(dtype="float64")})
    g = g.sort_values("source")
    c = g["c"].to_numpy(np.int64)
    n = np.float64(int(c.sum()))
    share = c.astype(np.float64) / n
    hhi = float((share * share).sum())
    return pd.DataFrame({
        "n_sources": [np.int64(len(c))],
        "hhi": round_half_away(np.array([hhi]), 6),
        "effective_n": round_half_away(
            np.array([1.0 / hhi]), 6)})


def mrr_search(sf_dir: str, *, k: int = 20, k1: float = 1.2,
               b: float = 0.75, rel_min: int = 3):
    """Mean Reciprocal Rank at ``k`` of the BM25 ranking under the
    binary relevance bar rel ≥ ``rel_min`` — the fourth member of the
    retrieval-evaluation family (NDCG grades the whole list, AP the
    precision profile, RBO the arm agreement; MRR answers the
    navigational question 'how deep is the FIRST good hit?'). A query
    with no relevant doc in its top-``k`` scores 0 (the standard
    truncated convention — and what keeps the per-batch partial top-k
    by score sufficient: a first-relevant below the cutoff is 0 by
    definition). Same BM25 two-pass machinery; per query the merge
    finds the first relevant rank. Columns: query_id, first_rel_rank
    (NULL when none), reciprocal_rank."""
    from ocr_agent_ray.functions.textstats import round_half_away

    score = _bm25_scorer(sf_dir, k1, b)

    def _emit(qid, qterms, sub, doc_ids, dl) -> pd.DataFrame:
        rel = (sub.sum(axis=1).to_numpy(np.int64)
               >= rel_min).astype(np.int64)
        g = pd.DataFrame({"query_id": np.int64(qid), "doc_id": doc_ids,
                          "score": score(qterms, sub, dl), "rel": rel})
        return _top_by(g, "score", k)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = _top_by(g.drop_duplicates("doc_id"), "score", k)
        flags = g["rel"].to_numpy(np.int64)
        hit = np.nonzero(flags == 1)[0]
        if len(hit):
            r = int(hit[0]) + 1
            rr = float(round_half_away(
                np.float64(1.0) / np.float64(r), 6))
            rank = np.int64(r)
        else:
            rank, rr = pd.NA, 0.0
        return pd.DataFrame({
            "query_id": [np.int64(g["query_id"].iloc[0])],
            "first_rel_rank": pd.array([rank], dtype="Int64"),
            "reciprocal_rank": [rr]})

    return _search_run(sf_dir, _emit, _final, rel=True)

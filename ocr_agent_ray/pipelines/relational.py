"""Relational operator pipelines over the ``documents`` table.

Each function is the Ray-Data-native expression of one operator family
from SURVEY.md §2 (filters, fan-out, sampling, splits, merges, grouped
counts, rollups) with an exact DuckDB oracle in
__ray_entry__.oracle_sql() unless the registry marks it rows-only.
Shuffle discipline: partial aggregation before every groupby, one keyed
hash exchange (pipelines/exchange.py) for every per-key fold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_agent_ray.sources.readers import read_table

from ocr_agent_ray.functions.textstats import round_half_away
from ocr_agent_ray.pipelines.exchange import key_map_groups


_EXTS = [".png", ".pdf", ".txt", ".JPG"]


def supported_path_filter(sf_dir: str):
    """The discovery predicate (input_discovery.py:112-121) as a vectorized
    filter: synthesize a path per doc (source/doc_id + extension cycling by
    doc_id % 4), keep only supported image/pdf paths."""

    from ocr_agent_ray.functions.kernels import (
        SUPPORTED_IMAGE_EXTENSIONS, SUPPORTED_PDF_EXTENSIONS)

    supported = tuple(SUPPORTED_IMAGE_EXTENSIONS | SUPPORTED_PDF_EXTENSIONS)

    def _paths(batch: pd.DataFrame) -> pd.DataFrame:
        ext = pd.Series(np.array(_EXTS, dtype=object)[batch["doc_id"] % 4],
                        index=batch.index)
        path = batch["source"] + "/" + batch["doc_id"].astype(str) + ext
        out = pd.DataFrame({"doc_id": batch["doc_id"], "path": path})
        # vectorized is_supported_path: basename suffix (dotfiles excluded
        # by construction here — every synthesized name has '<id>.<ext>')
        suffix = ("." + path.str.rsplit(".", n=1).str[-1]).str.lower()
        return out[suffix.isin(supported)]

    return (
        read_table(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(_paths, batch_format="pandas")
    )


def page_fanout(sf_dir: str):
    """The PDF per-page fan-out (queue_store.py:91-123) over the documents
    table: each doc expands to (n_chars % 5) + 1 page rows with dense
    page_index — a vectorized 1→N flat map via numpy repeat."""

    def _fan(batch: pa.Table) -> pa.Table:
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        pages = (batch["n_chars"].to_numpy(zero_copy_only=False) % 5 + 1).astype(np.int64)
        idx = np.arange(pages.sum(), dtype=np.int64)
        starts = np.repeat(np.cumsum(pages) - pages, pages)
        return pa.Table.from_arrays(
            [
                pa.array(np.repeat(doc, pages), pa.int64()),
                pa.array(idx - starts, pa.int64()),
                pa.array(np.repeat(pages, pages), pa.int64()),
            ],
            names=["doc_id", "page_index", "total_pages"],
        )

    return (
        read_table(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(_fan, batch_format="pyarrow")
    )


def sample_n_documents(sf_dir: str, *, n: int = 50):
    """Deterministic global fixed-size sample: the n docs with the
    smallest md5(doc_id) — a pure function of the data (reproducible
    across engines, unlike seeded RNG reservoirs). Per-batch partial
    top-n then a tiny driver merge: the wire carries at most
    n × batches rows, never the corpus."""
    import hashlib

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        keys = [hashlib.md5(str(i).encode()).hexdigest()
                for i in batch["doc_id"]]
        out = pd.DataFrame({"doc_id": batch["doc_id"],
                            "source": batch["source"], "__key": keys})
        return out.sort_values(["__key", "doc_id"]).head(n)

    tops = (read_table(sf_dir, "documents", ["doc_id", "source"])
            .map_batches(_partial, batch_format="pandas",
                         batch_size=65536).to_pandas())
    out = tops.sort_values(["__key", "doc_id"]).head(n)
    return out[["doc_id", "source"]].reset_index(drop=True)


def hash_sample_documents(sf_dir: str):
    """Deterministic content-hash sampling (~1/8 of rows): keep docs whose
    md5(doc_id-as-string) hex starts below '2'. Unlike seeded RNG
    sampling, the sample is a pure function of the data — reproducible
    across engines, which is what makes an exact SQL oracle possible."""
    import hashlib

    def _sample(batch: pd.DataFrame) -> pd.DataFrame:
        # md5 hex < "2" ⇔ first digest byte < 0x20; one C-level md5 per
        # row in a comprehension, numpy compare (no Series.map)
        first = np.fromiter(
            (hashlib.md5(str(i).encode()).digest()[0] for i in batch["doc_id"]),
            dtype=np.uint8, count=len(batch),
        )
        return batch[first < 0x20][["doc_id", "source"]]

    return read_table(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        _sample, batch_format="pandas"
    )


# rate k -> threshold floor(65536 * (k+1)/10); comparing the first two
# md5 bytes (equivalently the 4-hex-char prefix, lexicographically)
# against it == numeric compare
_MIXTURE_THRESHOLDS = np.array(
    [65536 * (k + 1) // 10 for k in range(5)], dtype=np.uint32)


def mixture_keep_mask(doc_ids, sources) -> np.ndarray:
    """Deterministic mixture-sampling predicate: keep iff the first 16
    bits of md5(doc_id) fall below the source's rate threshold
    ((src_num % 5 + 1)/10). Shared by mixture_sample_documents and the
    curation funnel so both stay bit-identical to the SQL oracle."""
    import hashlib

    first2 = np.fromiter(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:2], "big")
         for i in doc_ids),
        dtype=np.uint32, count=len(doc_ids),
    )
    src_num = sources.str.slice(3).astype(np.int64) % 5
    return first2 < _MIXTURE_THRESHOLDS[src_num.to_numpy()]


def mixture_sample_documents(sf_dir: str):
    """Weighted per-source mixture sampling — the training-data 'mix
    sources at different rates' step (e.g. upsample wiki, downsample
    crawl). Deterministic: the sample is a pure function of the data
    (re-runnable, exactly oracle-checkable, and stable under
    repartitioning — unlike seeded RNG sampling whose result depends on
    row order). Rates here derive from the source name; a production
    pipeline would pass a rate dict. Pure map filter — streams at any
    scale."""

    def _sample(batch: pd.DataFrame) -> pd.DataFrame:
        mask = mixture_keep_mask(batch["doc_id"], batch["source"])
        return batch[mask][["doc_id", "source"]]

    return read_table(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        _sample, batch_format="pandas"
    )


def shuffle_order(sf_dir: str, *, seed: str = "42", num_ranges: int = 256):
    """Seeded deterministic global shuffle order for training — every doc
    gets a dense 1-based position in the order of md5(seed:doc_id). This
    is the scale shape for 'shuffle the corpus once, reproducibly':

    1. map: shuffle key = md5 hex; range = first key byte (uniform by
       construction — the key IS a hash, so ranges can't skew);
    2. per-range counts -> driver exclusive prefix sum (256 ints, the
       only driver state);
    3. per range: sort by (key, doc_id), position = range offset + rank.

    No global sort operator, no driver materialization; the output can
    feed write_parquet partitioned by range for resumable epochs."""
    import hashlib

    from ocr_agent_ray.pipelines.agg import ranged_global_rank

    def _key(batch: pd.DataFrame) -> pd.DataFrame:
        keys = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest()
                for i in batch["doc_id"]]
        rb = np.fromiter((int(k[:2], 16) for k in keys), dtype=np.int64,
                         count=len(keys))
        # order-preserving contraction of the 256 leading-byte ranges
        # (NOT modulo, which would interleave key ranges and break the
        # rank machinery's order-consistency requirement)
        return pd.DataFrame({
            "doc_id": batch["doc_id"], "__key": keys,
            "__rb": rb * num_ranges // 256,
        })

    keyed = read_table(sf_dir, "documents", ["doc_id"]).map_batches(
        _key, batch_format="pandas", batch_size=65536)

    _, ranked = ranged_global_rank(keyed, ["__key", "doc_id"],
                                   rank_col="shuffle_pos")
    return ranked.map_batches(lambda b: b[["doc_id", "shuffle_pos"]],
                              batch_format="pandas")


def budget_sample_by_source(sf_dir: str, *, budget_chars: int = 4000,
                            num_ranges: int = 64):
    """Token-budget mixture construction: per source, take docs in
    deterministic md5-hash order until the cumulative character budget is
    reached (cumsum INCLUDING the current doc must stay ≤ budget) — the
    distributed form of QUALIFY SUM(n_chars) OVER (PARTITION BY source
    ORDER BY hash) <= B.

    Same range-parallel prefix-sum machinery as shuffle_order, but the
    driver folds per-(range, source) CHARACTER SUMS instead of row
    counts: a source's docs stay spread across all hash ranges (no
    per-source gather), and the only driver state is ranges × sources
    running totals."""
    import hashlib

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _key(batch: pd.DataFrame) -> pd.DataFrame:
        keys = [hashlib.md5(str(i).encode()).hexdigest()
                for i in batch["doc_id"]]
        rb = np.fromiter((int(k[:2], 16) for k in keys), dtype=np.int64,
                         count=len(keys))
        return pd.DataFrame({
            "doc_id": batch["doc_id"], "source": batch["source"],
            "n_chars": batch["n_chars"], "__key": keys,
            "__rb": rb * num_ranges // 256,
        })

    keyed = read_table(sf_dir, "documents",
                       ["doc_id", "source", "n_chars"]).map_batches(
        _key, batch_format="pandas", batch_size=65536)

    stats = combine_partials_driver(keyed, ["__rb", "source"],
                                    {"chars": ("n_chars", "sum")})
    offsets: dict = {}
    for src, sub in stats.groupby("source"):
        sub = sub.sort_values("__rb")
        for rb, off in zip(sub["__rb"],
                           sub["chars"].cumsum().shift(1, fill_value=0)):
            offsets[(int(rb), src)] = int(off)

    def _cut(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["__rb"].iloc[0])
        parts = []
        for src, sub in g.groupby("source", sort=False):
            sub = sub.sort_values(["__key", "doc_id"], kind="mergesort")
            cum = sub["n_chars"].cumsum() + offsets[(rb, src)]
            parts.append(sub[cum <= budget_chars])
        out = (pd.concat(parts, ignore_index=True) if parts
               else g.iloc[0:0])
        return out[["doc_id", "source", "n_chars"]]

    return key_map_groups(keyed, _cut, key_col="__rb")


def length_ntile(sf_dir: str, *, k: int = 4, range_width: int = 64):
    """NTILE(k) over (n_chars, doc_id) — equal-frequency length buckets
    for curriculum/bucketed batching. Same distributed-rank machinery as
    shuffle_order but range-partitioned by the VALUE (n_chars //
    range_width): per-range counts -> driver prefix sum -> in-range sort
    gives the exact global rank, then the NTILE remainder formula. The
    wire never carries a global sort; driver state is one count per
    range."""
    from ocr_agent_ray.pipelines.agg import ranged_global_rank

    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        lambda b: b.assign(__rb=(b["n_chars"] // range_width).astype("int64")),
        batch_format="pandas", batch_size=65536)

    total, ranked = ranged_global_rank(ds, ["n_chars", "doc_id"])
    base, rem = divmod(total, k)
    boundary = rem * (base + 1)

    def _tile(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["__rank"].to_numpy()
        tile = np.where(
            rn <= boundary,
            (rn - 1) // (base + 1) + 1,
            rem + (rn - boundary - 1) // max(base, 1) + 1,
        )
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_chars": b["n_chars"],
            "tile": tile.astype(np.int64),
        })

    return ranked.map_batches(_tile, batch_format="pandas")


def partition_checksums(sf_dir: str, *, part_size: int = 64):
    """Per-partition content checksums — the output-validation /
    anti-entropy operator a resumable 100-TB run needs: one md5 over the
    ordered (doc_id:fingerprint) stream per doc_id range. Comparing two
    runs' checksum tables localizes any divergence to a partition without
    moving data. Fingerprints are computed map-side; the per-partition
    fold shuffles only (part, doc_id, fp) rows, and doc_ids are
    contiguous within a range so the shuffle is near-local."""
    import hashlib

    def _fp(batch: pd.DataFrame) -> pd.DataFrame:
        fps = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
               for t in batch["text"]]
        return pd.DataFrame({
            "part": (batch["doc_id"] // part_size).astype("int64"),
            "doc_id": batch["doc_id"],
            "fp": fps,
        })

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        payload = "|".join(f"{d}:{f}" for d, f in zip(g["doc_id"], g["fp"]))
        return pd.DataFrame({
            "part": [int(g["part"].iloc[0])],
            "n_docs": np.array([len(g)], dtype=np.int64),
            "checksum": [hashlib.md5(payload.encode("utf-8")).hexdigest()],
        })

    return key_map_groups(
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_fp, batch_format="pandas", batch_size=65536),
        _fold, key_col="part", num_buckets=16)


def stratified_sample_documents(sf_dir: str, per_group: int = 2):
    """Deterministic stratified sample: the ``per_group`` docs with the
    smallest md5(doc_id) per source — a pure function of the data
    (reproducible across engines; exact SQL oracle), unlike seeded RNG.
    Rank inside the per-source group; groups are small-cardinality here,
    and at large cardinality the same shape hash-partitions by source."""
    import hashlib

    def _rank_key(batch: pd.DataFrame) -> pd.DataFrame:
        keys = [hashlib.md5(str(i).encode()).hexdigest()
                for i in batch["doc_id"]]
        return pd.DataFrame({"doc_id": batch["doc_id"],
                             "source": batch["source"],
                             "__key": keys})

    def _head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__key", "doc_id"], kind="mergesort").head(per_group)
        return g[["doc_id", "source"]]

    from ocr_agent_ray.pipelines.exchange import grouped_map_groups

    return grouped_map_groups(
        read_table(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(_rank_key, batch_format="pandas"),
        _head, key_col="source", num_buckets=8)


def top_words(sf_dir: str, k: int = 20):
    """Corpus vocabulary top-k: per-batch partial counts (explode +
    value_counts -> one row per word per batch), bucketed combine by word
    hash, per-bucket top-k, tiny driver merge. The full vocabulary never
    sits in one place."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        counts = toks.explode().dropna().value_counts()
        return pd.DataFrame({"word": counts.index, "n": counts.to_numpy()})

    per_word = hash_partition_aggregate(
        read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            _partial, batch_format="pandas"),
        ["word"], {"n": ("n", "sum")},
    )

    def _bucket_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["n", "word"], ascending=[False, True]).head(k)

    tops = per_word.map_batches(_bucket_topk, batch_format="pandas").to_pandas()
    out = tops.sort_values(["n", "word"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def term_burstiness(sf_dir: str, k: int = 30):
    """Term burstiness for the corpus-frequency top-k: cf/df — the
    mean occurrences per CONTAINING document (Church–Gale 'clumpiness').
    Function words spread evenly (cf/df ≈ cf/N·docs-share); a term
    whose cf/df is high concentrates in few docs — the signature of
    templated spam or topical boilerplate that plain top-k frequency
    can't distinguish from healthy common words.

    Distributed shape: ONE tokenize pass emits per-batch (word, cf,
    df) partials — df sums correctly across batches because each doc
    lives in exactly one row/batch — then a word-hash bucketed
    combine, per-bucket top-k by cf, tiny driver merge (the
    ``top_words`` discipline: the vocabulary never sits in one
    place). Columns: word, cf, df, burstiness."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.lower().str.findall(
            r"[0-9a-z_]+")
        ex = toks.explode().dropna()
        cf = ex.value_counts()
        dfc = pd.DataFrame({"doc": ex.index, "word": ex.to_numpy()}) \
            .drop_duplicates()["word"].value_counts()
        return pd.DataFrame({
            "word": cf.index,
            "cf": cf.to_numpy(np.int64),
            "df": dfc.reindex(cf.index).to_numpy(np.int64)})

    per_word = hash_partition_aggregate(
        read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            _partial, batch_format="pandas"),
        ["word"], {"cf": ("cf", "sum"), "df": ("df", "sum")})

    def _bucket_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["cf", "word"],
                                 ascending=[False, True]).head(k)

    tops = per_word.map_batches(
        _bucket_topk, batch_format="pandas").to_pandas()
    out = tops.sort_values(["cf", "word"],
                           ascending=[False, True]).head(k)
    out = out.reset_index(drop=True)
    out["cf"] = out["cf"].astype("int64")
    out["df"] = out["df"].astype("int64")
    out["burstiness"] = round_half_away(
        out["cf"].to_numpy(np.float64) / out["df"].to_numpy(np.float64), 6)
    return out[["word", "cf", "df", "burstiness"]]


def rollup_counts(sf_dir: str):
    """GROUP BY ROLLUP(source, lang): per-(source,lang) counts, per-source
    subtotals, and the grand total, NULL-filled like SQL ROLLUP — three
    pre-aggregated levels unioned; each level is a partial-combine, so no
    level shuffles raw rows."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "lang"])
    fine = combine_partials_driver(ds, ["source", "lang"], {"n": ("doc_id", "count")})
    mid = fine.groupby("source", as_index=False)["n"].sum()
    mid["lang"] = None
    total = pd.DataFrame({"source": [None], "lang": [None],
                          "n": [int(fine["n"].sum())]})
    out = pd.concat([fine, mid[["source", "lang", "n"]], total],
                    ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out[["source", "lang", "n"]]


def cube_counts(sf_dir: str):
    """GROUP BY CUBE(source, lang): all four aggregation levels derived
    from ONE partial-combine of the finest level — the coarser levels are
    re-aggregations of the (tiny) fine result, so raw rows cross the wire
    exactly once no matter how many cube levels."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "lang"])
    fine = combine_partials_driver(ds, ["source", "lang"],
                                   {"n": ("doc_id", "count")})
    by_source = fine.groupby("source", as_index=False)["n"].sum()
    by_source["lang"] = None
    by_lang = fine.groupby("lang", as_index=False)["n"].sum()
    by_lang["source"] = None
    total = pd.DataFrame({"source": [None], "lang": [None],
                          "n": [int(fine["n"].sum())]})
    out = pd.concat(
        [fine, by_source[["source", "lang", "n"]],
         by_lang[["source", "lang", "n"]], total], ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out[["source", "lang", "n"]]


def source_quota_cap(sf_dir: str, *, cap: int = 40):
    """Per-source document quota — 'keep at most N docs per source'
    (domain caps à la RefinedWeb), deterministic by doc_id order. Scale
    shape: each batch emits only its ``cap`` smallest doc_ids per source
    (a bounded partial top-N — the wire carries ≤ cap × sources × batches
    rows, never the corpus), the driver folds those into one cap-th-
    smallest THRESHOLD per source (|sources| ints, broadcast), and the
    final pass is a pure streaming filter. No shuffle at any size."""
    docs = read_table(sf_dir, "documents", ["doc_id", "source"])

    def _partial_topn(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.sort_values("doc_id", kind="mergesort")
                     .groupby("source", sort=False).head(cap))

    pooled = pd.concat(
        [b for b in docs.map_batches(_partial_topn, batch_format="pandas",
                                     batch_size=65536)
            .iter_batches(batch_format="pandas", batch_size=65536)],
        ignore_index=True)
    thresholds = (pooled.sort_values("doc_id", kind="mergesort")
                        .groupby("source", sort=False).head(cap)
                        .groupby("source")["doc_id"].max())
    thr = dict(thresholds)

    def _filter(batch: pd.DataFrame) -> pd.DataFrame:
        lim = batch["source"].map(thr).fillna(-1).to_numpy(dtype=np.int64)
        return batch[batch["doc_id"].to_numpy() <= lim][["doc_id", "source"]]

    return docs.map_batches(_filter, batch_format="pandas")


def train_val_test_split(sf_dir: str, *, val_pct: int = 10,
                         test_pct: int = 10):
    """Deterministic hash-based train/val/test assignment: the split is a
    pure function of doc_id (stable under repartitioning, re-runnable,
    exactly oracle-checkable — unlike seeded RNG splits whose result
    depends on row order). The first 16 bits of md5(doc_id) partition
    [0, 65536) into test / val / train bands. Pure streaming map."""
    import hashlib

    test_hi = 65536 * test_pct // 100
    val_hi = test_hi + 65536 * val_pct // 100

    def _assign(batch: pd.DataFrame) -> pd.DataFrame:
        first2 = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:2], "big")
             for i in batch["doc_id"]),
            dtype=np.int64, count=len(batch))
        split = np.where(first2 < test_hi, "test",
                         np.where(first2 < val_hi, "val", "train"))
        return pd.DataFrame({"doc_id": batch["doc_id"], "split": split})

    return read_table(sf_dir, "documents", ["doc_id"]).map_batches(
        _assign, batch_format="pandas")


def merge_upsert_documents(sf_dir: str):
    """Lakehouse MERGE INTO over the documents table: a deterministic
    update stream (every 7th doc revised, every 13th doc id offset as a
    brand-new insert) upserts into the base corpus, latest version wins.
    Both sides stay distributed Datasets through one co-bucketed key
    exchange (sources/maintenance.merge_upsert); oracled via the
    UNION + QUALIFY latest-wins SQL."""
    from ocr_agent_ray.sources.maintenance import merge_upsert

    base = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.assign(version=np.int64(0)), batch_format="pandas")

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def _updates(b: pd.DataFrame) -> pd.DataFrame:
        rev = b[b["doc_id"] % 7 == 0].copy()
        rev["text"] = "rev2:" + rev["text"]
        rev["version"] = np.int64(1)
        new = b[b["doc_id"] % 13 == 0].copy()
        new = pd.DataFrame({
            "doc_id": new["doc_id"] + 100000,
            "text": "new:" + new["doc_id"].astype(str),
            "version": np.int64(1),
        })
        return pd.concat([rev[["doc_id", "text", "version"]], new],
                         ignore_index=True)

    updates = docs.map_batches(_updates, batch_format="pandas")
    return merge_upsert(base, updates, key="doc_id", version="version")


def weighted_sample_documents(sf_dir: str, *, k: int = 5):
    """Weighted sampling without replacement, k per source, weight =
    doc length (the 'sample long docs more often' curation step), via
    the Efraimidis–Spirakis key: rank by u^(1/w) where u is a
    DETERMINISTIC md5-derived uniform — a pure function of the data, so
    the sample is re-runnable, repartition-stable, and exactly
    SQL-checkable (unlike seeded RNG reservoirs whose result depends on
    visit order). Per-batch partial top-k per source bounds the wire at
    k × sources × batches rows; the driver merge is tiny."""
    import hashlib

    from ocr_agent_ray.functions.textstats import round_half_away

    def _keys(b: pd.DataFrame) -> pd.DataFrame:
        u = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4],
                            "big")
             for i in b["doc_id"]),
            dtype=np.float64, count=len(b)) / 4294967296.0
        w = b["n_chars"].to_numpy(dtype=np.float64)
        es_key = u ** (1.0 / np.maximum(w, 1.0))
        out = pd.DataFrame({"doc_id": b["doc_id"], "source": b["source"],
                            "es_key": es_key})
        return (out.sort_values(["es_key", "doc_id"],
                                ascending=[False, True])
                   .groupby("source", sort=False).head(k))

    pooled = pd.concat(
        [b for b in read_table(sf_dir, "documents",
                               ["doc_id", "source", "n_chars"])
            .map_batches(_keys, batch_format="pandas", batch_size=65536)
            .iter_batches(batch_format="pandas", batch_size=None)],
        ignore_index=True)
    out = (pooled.sort_values(["es_key", "doc_id"],
                              ascending=[False, True])
                 .groupby("source", sort=False).head(k)
                 .sort_values(["source", "doc_id"])
                 .reset_index(drop=True))
    out["es_key"] = round_half_away(out["es_key"].to_numpy(), 6)
    return out[["source", "doc_id", "es_key"]]


def merge_cdc_documents(sf_dir: str):
    """CDC MERGE with tombstones over the documents table: every 7th doc
    revised (upsert v1), every 11th doc DELETED (tombstone v2 — versioned
    above the revision so the 7×11 overlap resolves deterministically),
    every 13th doc id-offset as a new insert. Winning tombstones remove
    the key entirely (sources/maintenance.merge_cdc); oracled via the
    UNION + QUALIFY latest-wins SQL with a final tombstone filter."""
    from ocr_agent_ray.sources.maintenance import merge_cdc

    base = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.assign(version=np.int64(0)), batch_format="pandas")

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def _updates(b: pd.DataFrame) -> pd.DataFrame:
        rev = b[b["doc_id"] % 7 == 0].copy()
        rev["text"] = "rev2:" + rev["text"]
        rev["version"] = np.int64(1)
        rev["op"] = "upsert"
        dele = b[b["doc_id"] % 11 == 0].copy()
        dele["version"] = np.int64(2)
        dele["op"] = "delete"
        new = b[b["doc_id"] % 13 == 0]
        new = pd.DataFrame({
            "doc_id": new["doc_id"] + 100000,
            "text": "new:" + new["doc_id"].astype(str),
            "version": np.int64(1),
            "op": "upsert",
        })
        cols = ["doc_id", "text", "version", "op"]
        return pd.concat([rev[cols], dele[cols], new], ignore_index=True)

    updates = docs.map_batches(_updates, batch_format="pandas")
    return merge_cdc(base, updates, key="doc_id", version="version")


def ols_chars_model(sf_dir: str):
    """Two-feature OLS with intercept — distributed multiple linear
    regression via the normal equations: fit n_chars ≈ b0 + b1·n_words
    + b2·n_vowels over the documents table. One map_batches pass folds
    the EXACT int64 Gram-matrix partials (n, Σx1, Σx2, Σx1², Σx1x2,
    Σx2², Σy, Σx1y, Σx2y, Σy²) — ten numbers per batch over the wire —
    and the driver solves the 3×3 system by Cramer's rule. Because every
    sum is exact integer arithmetic, both engines cast the SAME values
    to double and evaluate the SAME determinant expression, so the twin
    matches bit-for-bit before the 6-decimal round (int64 partials are
    the documented limit — beyond ~10^12 docs the Σx1y family needs
    int128 or a float fold). r² = 1 − SSE/SST from the same sums.
    Columns: n, b0, b1, b2, r2."""
    import re

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    word_re = re.compile(r"[0-9A-Za-z_]+")
    vowel_re = re.compile(r"[aeiou]")

    def _feats(b: pd.DataFrame) -> pd.DataFrame:
        x1 = b["text"].str.count(word_re).to_numpy(np.int64)
        x2 = b["text"].str.count(vowel_re).to_numpy(np.int64)
        y = b["n_chars"].to_numpy(np.int64)
        return pd.DataFrame({
            "k": np.zeros(len(b), np.int64), "x1": x1, "x2": x2, "y": y,
            "x11": x1 * x1, "x12": x1 * x2, "x22": x2 * x2,
            "x1y": x1 * y, "x2y": x2 * y, "yy": y * y})

    g = combine_partials_driver(
        read_table(sf_dir, "documents", ["text", "n_chars"]).map_batches(
            _feats, batch_format="pandas", batch_size=65536),
        ["k"],
        {"n": ("y", "count"), "sx1": ("x1", "sum"), "sx2": ("x2", "sum"),
         "sx11": ("x11", "sum"), "sx12": ("x12", "sum"),
         "sx22": ("x22", "sum"), "sy": ("y", "sum"),
         "sx1y": ("x1y", "sum"), "sx2y": ("x2y", "sum"),
         "syy": ("yy", "sum")})
    empty = pd.DataFrame({
        "n": pd.Series(dtype="int64"), "b0": pd.Series(dtype="float64"),
        "b1": pd.Series(dtype="float64"), "b2": pd.Series(dtype="float64"),
        "r2": pd.Series(dtype="float64")})
    if len(g) == 0 or np.int64(g.loc[0, "n"]) < 4:
        return empty
    n = np.float64(g.loc[0, "n"])
    sx1, sx2 = np.float64(g.loc[0, "sx1"]), np.float64(g.loc[0, "sx2"])
    sx11 = np.float64(g.loc[0, "sx11"])
    sx12 = np.float64(g.loc[0, "sx12"])
    sx22 = np.float64(g.loc[0, "sx22"])
    sy, syy = np.float64(g.loc[0, "sy"]), np.float64(g.loc[0, "syy"])
    sx1y = np.float64(g.loc[0, "sx1y"])
    sx2y = np.float64(g.loc[0, "sx2y"])

    def det3(a, b, c, d, e, f, gg, h, i):
        return (a * (e * i - f * h) - b * (d * i - f * gg)
                + c * (d * h - e * gg))

    det = det3(n, sx1, sx2, sx1, sx11, sx12, sx2, sx12, sx22)
    if det == 0.0:
        return empty
    b0 = det3(sy, sx1, sx2, sx1y, sx11, sx12, sx2y, sx12, sx22) / det
    b1 = det3(n, sy, sx2, sx1, sx1y, sx12, sx2, sx2y, sx22) / det
    b2 = det3(n, sx1, sy, sx1, sx11, sx1y, sx2, sx12, sx2y) / det
    sse = syy - b0 * sy - b1 * sx1y - b2 * sx2y
    sst = syy - sy * sy / n
    if sst == 0.0:
        return empty
    r2 = 1.0 - sse / sst
    return pd.DataFrame({
        "n": [np.int64(g.loc[0, "n"])],
        "b0": round_half_away(np.array([b0]), 6),
        "b1": round_half_away(np.array([b1]), 6),
        "b2": round_half_away(np.array([b2]), 6),
        "r2": round_half_away(np.array([r2]), 6)})


def snapshot_diff_documents(sf_dir: str):
    """Driver-visible snapshot diff: version 2 of the documents table is
    derived deterministically (every 7th text revised, every 11th doc
    deleted, every 13th id-offset doc added — the merge_cdc recipe) and
    diffed against version 1 via sources/maintenance.snapshot_diff.
    Oracled by a FULL-OUTER-JOIN CASE over the same two versions.
    Columns: doc_id, change_type."""
    from ocr_agent_ray.sources.maintenance import snapshot_diff

    base = read_table(sf_dir, "documents", ["doc_id", "text"])

    def _v2(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 11 != 0].copy()
        rev = keep["doc_id"] % 7 == 0
        keep.loc[rev, "text"] = "rev2:" + keep.loc[rev, "text"]
        new = b[b["doc_id"] % 13 == 0]
        new = pd.DataFrame({
            "doc_id": new["doc_id"] + 100000,
            "text": "new:" + new["doc_id"].astype(str),
        })
        return pd.concat([keep, new], ignore_index=True)

    new = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _v2, batch_format="pandas")
    out = snapshot_diff(base, new, key="doc_id")
    return out.map_batches(
        lambda b: b.sort_values("doc_id").reset_index(drop=True),
        batch_format="pandas")


def bottomk_sample_documents(sf_dir: str, *, k: int = 64):
    """Fixed-size uniform sample via the bottom-``k`` (KMV) sketch —
    the mergeable sibling of ``hash_sample_documents``'s rate-based
    filter: each doc gets the deterministic priority

        priority = (doc_id · 2654435761) mod 2³²     (Knuth hash)

    and the global ``k`` smallest (priority, doc_id) win. Bottom-k is
    THE distributed sampling primitive — per-batch partial bottom-k
    rows merge associatively (the wire carries batches×k rows, never
    the corpus), two nodes' sketches union by re-taking the k
    smallest, and the k-th priority doubles as a distinct-count
    estimator. Exact for every int64 doc_id: the int64 product wraps
    modulo 2⁶⁴, which 2³² divides, so its residue mod 2³² is the true
    one (the SQL twin's product overflows BIGINT above ~3.5e9 and
    needs HUGEINT there). Columns: doc_id, priority."""
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    def _local(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy(np.int64)
        pr = (d * np.int64(2654435761)) % np.int64(4294967296)
        out = pd.DataFrame({"__k": np.int64(0), "doc_id": d,
                            "priority": pr})
        return out.sort_values(["priority", "doc_id"]).head(k)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["priority", "doc_id"]).head(k)
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64").to_numpy(),
            "priority": g["priority"].astype("int64").to_numpy()})

    out = key_map_groups(
        read_table(sf_dir, "documents", ["doc_id"]).map_batches(
            _local, batch_format="pandas", batch_size=65536),
        _final, key_col="__k", num_buckets=1).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "priority": pd.Series(dtype="int64")})
    return out


def ipf_raking_weights(sf_dir: str, *, iters: int = 10):
    """Iterative proportional fitting (raking) of per-cell sampling
    weights over the (lang, source) grid so that the WEIGHTED marginals
    become uniform across both axes — the dataset-rebalancing
    primitive ('upweight the rare language without disturbing the
    source mix'). Classic IPF: alternately scale rows then columns to
    the target marginals for ``iters`` rounds. The (lang × source)
    grid is a bounded dimension folded once from the corpus; the
    deterministic scaling loop closes on the driver (rows-only —
    iterative; planted-convergence pytest asserts both marginals land
    within 1e-6). Cells with zero docs keep weight 0. Columns: lang,
    source, n_docs, weight (weight·n_docs sums to the corpus total)."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    g = combine_partials_driver(
        read_table(sf_dir, "documents", ["lang", "source"]).map_batches(
            lambda b: pd.DataFrame({
                "lang": b["lang"], "source": b["source"],
                "c": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["lang", "source"], {"c": ("c", "sum")})
    empty = pd.DataFrame({
        "lang": pd.Series(dtype="object"),
        "source": pd.Series(dtype="object"),
        "n_docs": pd.Series(dtype="int64"),
        "weight": pd.Series(dtype="float64")})
    if not len(g):
        return empty
    piv = (g.pivot_table(index="lang", columns="source", values="c",
                         aggfunc="sum").fillna(0).astype(np.int64)
           .sort_index().sort_index(axis=1))
    cnt = piv.to_numpy(np.int64).astype(np.float64)
    total = cnt.sum()
    n_l, n_s = cnt.shape
    row_target = total / np.float64(n_l)
    col_target = total / np.float64(n_s)
    w = np.where(cnt > 0, 1.0, 0.0)
    for _ in range(iters):
        rows = (w * cnt).sum(axis=1)
        w = np.where(rows[:, None] > 0,
                     w * (row_target / np.where(rows[:, None] > 0,
                                                rows[:, None], 1.0)),
                     w)
        cols = (w * cnt).sum(axis=0)
        w = np.where(cols[None, :] > 0,
                     w * (col_target / np.where(cols[None, :] > 0,
                                                cols[None, :], 1.0)),
                     w)
    langs = piv.index.to_numpy()
    sources = piv.columns.to_numpy()
    out = []
    for i, lg in enumerate(langs):
        for j, src in enumerate(sources):
            if cnt[i, j] > 0:
                out.append((lg, src, np.int64(int(cnt[i, j])),
                            float(round_half_away(
                                np.float64(w[i, j]), 6))))
    return pd.DataFrame(out, columns=["lang", "source", "n_docs",
                                      "weight"]) \
        .astype({"n_docs": "int64"})

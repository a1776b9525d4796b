"""Relational operator pipelines over the TPC-H-ish driver tables.

Each function is the Ray-Data-native expression of one operator family
from SURVEY.md §2 (grouped counts, filters, fan-out, sort+limit, joins,
aggregation) with an exact DuckDB oracle in __ray_entry__.oracle_sql().
Shuffle discipline: partial aggregation before every groupby, broadcast
joins for dimension tables, one bucket-hash shuffle for the fact join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ocr_agent_ray.sources.readers import read_table

from ocr_agent_ray.functions.textstats import round_half_away
from ocr_agent_ray.pipelines.exchange import bucket_map_groups, key_map_groups
from ocr_agent_ray.pipelines.joins import broadcast_join, bucket_hash_join


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


def suppliers_per_region(sf_dir: str):
    """Dimension-chain broadcast join (no shuffle): supplier → nation →
    region, then grouped counts per region name."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    dim = dim[["n_nationkey", "r_name"]].rename(columns={"n_nationkey": "s_nationkey"})

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    sup = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    return combine_partials_driver(
        broadcast_join(sup, dim, on="s_nationkey"),
        ["r_name"],
        {"n_suppliers": ("r_name", "count")},
    )


def customer_balance_by_nation(sf_dir: str):
    """Broadcast join + partial mean: avg customer balance per nation name."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]).to_pandas()
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    cust = read_table(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    out = combine_partials_driver(
        broadcast_join(cust, nation, on="c_nationkey"),
        ["n_name"],
        {"s": ("c_acctbal", "sum"), "c": ("c_acctbal", "count")},
    )
    return pd.DataFrame(
        {
            "n_name": out["n_name"],
            "avg_acctbal": round_half_away(out["s"] / out["c"], 2),
            "n_customers": out["c"].astype("int64"),
        }
    )


def top_orders_by_revenue(sf_dir: str, *, k: int = 10):
    """Fact-fact bucket hash join (lineitem ⋈ orders) → revenue per order →
    global top-k. The only all-to-all exchange is the bucketed union; the
    top-k is a sort+limit over the (small) aggregated result."""
    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_extendedprice", "l_discount"])

    # pre-aggregate revenue per orderkey BEFORE joining: the join's left
    # side shrinks from |lineitem| to |orders|. Large key space -> bucketed
    # hash-partition aggregate (vectorized per bucket).
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    def _derive(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(
            revenue=batch["l_extendedprice"] * (1 - batch["l_discount"])
        )

    rev = hash_partition_aggregate(
        li.map_batches(_derive, batch_format="pandas"),
        ["l_orderkey"],
        {"revenue": ("revenue", "sum")},
        num_buckets=32,
    )
    rev = rev.map_batches(
        lambda b: b.rename(columns={"l_orderkey": "o_orderkey"}), batch_format="pandas"
    )
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = bucket_hash_join(
        rev, orders, on="o_orderkey", num_buckets=16,
        # explicit schemas: rev is a lazy aggregate; introspecting it would
        # execute the whole upstream plan twice
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("revenue", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderpriority", pa.string())]),
    )

    def _round(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["revenue"] = round_half_away(batch["revenue"], 2)
        return batch[["o_orderkey", "o_orderpriority", "revenue"]]

    return (
        joined.map_batches(_round, batch_format="pandas")
        .sort(["revenue", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


def part_price_stats(sf_dir: str):
    """Min/max/count per brand — exercises min/max partial aggregation."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    out = combine_partials_driver(
        read_table(sf_dir, "part", ["p_brand", "p_retailprice"]),
        ["p_brand"],
        {
            "min_price": ("p_retailprice", "min"),
            "max_price": ("p_retailprice", "max"),
            "n_parts": ("p_retailprice", "count"),
        },
    )
    out["min_price"] = round_half_away(out["min_price"], 2)
    out["max_price"] = round_half_away(out["max_price"], 2)
    out["n_parts"] = out["n_parts"].astype("int64")
    return out


def orders_in_range_by_priority(sf_dir: str):
    """Date-range predicate PUSHED INTO the read (pyarrow dataset
    expression → row-group pruning at the source — rows outside the range
    never leave storage), then grouped count via driver combine."""
    import datetime

    import pyarrow.compute as pc

    import ray.data as rd

    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
        override_num_blocks=8,
    )
    return combine_partials_driver(
        ds, ["o_orderpriority"], {"n_orders": ("o_orderpriority", "count")}
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


def top_orders_per_priority(sf_dir: str, *, k: int = 2):
    """Per-group top-k: the k highest-value orders within each priority —
    the distributed form of QUALIFY row_number() <= k.

    Hot-group guard: top-k is algebraic, so every batch first reduces to
    its own per-group head(k) candidates. The groupby shuffle then moves
    ≤ k rows per group per batch instead of the group's entire row set —
    with 5 priority values each holding ~20% of all orders, the naive
    groupby would funnel the whole table into 5 reducers."""

    def _sorted_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True],
                             kind="mergesort").head(k)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (batch.sort_values(["o_totalprice", "o_orderkey"],
                                  ascending=[False, True], kind="mergesort")
                     .groupby("o_orderpriority", as_index=False).head(k))

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = _sorted_topk(g).reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    from ocr_agent_ray.pipelines.exchange import grouped_map_groups

    return grouped_map_groups(
        read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
        .map_batches(_partial, batch_format="pandas"),
        _final, key_col="o_orderpriority", num_buckets=8)


def customer_nation_native_join(sf_dir: str):
    """Ray's built-in hash-shuffle ``Dataset.join`` (API coverage alongside
    the explicit broadcast/bucket variants in pipelines/joins.py)."""
    c = read_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    n = read_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    j = c.join(n, "inner", num_partitions=4,
               on=("c_nationkey",), right_on=("n_nationkey",))
    return j.map_batches(
        lambda b: b[["c_custkey", "c_name", "n_name"]], batch_format="pandas"
    )


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


# irregular price bands for the broadcast interval-lookup join below;
# lo inclusive, hi exclusive
_PRICE_BANDS = [
    ("budget", 0.0), ("economy", 5000.0), ("mid", 20000.0),
    ("premium", 50000.0), ("luxury", 90000.0),
]


def price_band_lookup(sf_dir: str):
    """Broadcast interval-lookup join — classify every lineitem into an
    IRREGULAR price band (a small interval table, the IP→geo / tiered-
    pricing shape). The band table broadcasts as a sorted breakpoint
    array; each batch classifies with one np.searchsorted — no shuffle
    for the join itself, then a tiny keyed combine. This is the range
    join where the small side is intervals, complementing asof_join."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    names = np.array([b[0] for b in _PRICE_BANDS], dtype=object)
    bounds = np.array([b[1] for b in _PRICE_BANDS], dtype=np.float64)

    def _classify(batch: pd.DataFrame) -> pd.DataFrame:
        idx = np.searchsorted(bounds, batch["l_extendedprice"].to_numpy(),
                              side="right") - 1
        return pd.DataFrame({
            "band": names[idx],
            "l_extendedprice": batch["l_extendedprice"],
        })

    agg = combine_partials_driver(
        read_table(sf_dir, "lineitem", ["l_extendedprice"]).map_batches(
            _classify, batch_format="pandas"),
        ["band"],
        {"n_items": ("band", "count"), "total_price": ("l_extendedprice", "sum")},
    )
    agg["total_price"] = round_half_away(agg["total_price"], 2)
    return agg


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


def distinct_segments(sf_dir: str):
    """DISTINCT via per-batch dedup + bucketed global dedup."""
    from ocr_agent_ray.pipelines.agg import distinct_rows

    return distinct_rows(
        read_table(sf_dir, "customer", ["c_mktsegment"]),
        ["c_mktsegment"],
        num_buckets=4,
    )


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


def nations_per_region_concat(sf_dir: str):
    """Group-concat: comma-joined, name-sorted nation list per region —
    order pinned inside the group so the string is deterministic (and
    SQL-oracle-able via string_agg ORDER BY)."""
    import pyarrow.parquet as pq

    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"]).to_pandas()
    nation = read_table(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])

    def _concat(g: pd.DataFrame) -> pd.DataFrame:
        names = sorted(g["n_name"])
        return pd.DataFrame({
            "r_name": [g["r_name"].iloc[0]],
            "nations": [",".join(names)],
            "n_nations": [len(names)],
        })

    joined = broadcast_join(
        nation, region.rename(columns={"r_regionkey": "n_regionkey"}),
        on="n_regionkey")
    from ocr_agent_ray.pipelines.exchange import grouped_map_groups

    out = grouped_map_groups(joined, _concat, key_col="r_name",
                             num_buckets=4)

    def _typed(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["n_nations"] = b["n_nations"].astype("int64")
        return b

    return out.map_batches(_typed, batch_format="pandas")


def corr_qty_price(sf_dir: str):
    """Pearson correlation + sample covariance of quantity vs price per
    returnflag via six-moment partials (n, Σx, Σy, Σx², Σy², Σxy) — corr
    and covar as single-pass mergeable aggregates (no per-group second
    scan, unlike the textbook two-pass formula)."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _derive(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["l_quantity"]
        y = batch["l_extendedprice"]
        return pd.DataFrame({
            "l_returnflag": batch["l_returnflag"],
            "x": x, "y": y, "xx": x * x, "yy": y * y, "xy": x * y,
        })

    out = combine_partials_driver(
        read_table(sf_dir, "lineitem",
                   ["l_returnflag", "l_quantity", "l_extendedprice"]).map_batches(
            _derive, batch_format="pandas"),
        ["l_returnflag"],
        {"n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
         "sxx": ("xx", "sum"), "syy": ("yy", "sum"), "sxy": ("xy", "sum")},
    )
    n = out["n"].astype("int64")
    cov = (out["sxy"] - out["sx"] * out["sy"] / n) / (n - 1)
    vx = (out["sxx"] - out["sx"] * out["sx"] / n) / (n - 1)
    vy = (out["syy"] - out["sy"] * out["sy"] / n) / (n - 1)
    return pd.DataFrame({
        "l_returnflag": out["l_returnflag"],
        "n_items": n,
        "covar": round_half_away(cov.to_numpy(), 4),
        "corr_coef": round_half_away((cov / np.sqrt(vx * vy)).to_numpy(), 6),
    })


def mode_segment_by_nation(sf_dir: str):
    """MODE with a deterministic tie-break: the most frequent market
    segment per nation (ties -> lexicographically smallest segment).
    Partial counts per (nation, segment) — a tiny table — then a
    vectorized argmax on the driver."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    counts = combine_partials_driver(
        read_table(sf_dir, "customer", ["c_nationkey", "c_mktsegment"]),
        ["c_nationkey", "c_mktsegment"],
        {"n": ("c_mktsegment", "count")},
    )
    top = (counts.sort_values(["n", "c_mktsegment"], ascending=[False, True],
                              kind="mergesort")
                 .groupby("c_nationkey", as_index=False).head(1))
    return pd.DataFrame({
        "c_nationkey": top["c_nationkey"].to_numpy(),
        "mode_segment": top["c_mktsegment"].to_numpy(),
        "n": top["n"].astype("int64").to_numpy(),
    })


def orders_status_pivot(sf_dir: str):
    """PIVOT: order counts per priority spread across one column per
    status (F/O/P) plus a total — conditional indicator columns summed as
    partials, so the pivot is just an aggregate spec, no reshape shuffle."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _derive(batch: pd.DataFrame) -> pd.DataFrame:
        st = batch["o_orderstatus"]
        return pd.DataFrame({
            "o_orderpriority": batch["o_orderpriority"],
            "f": (st == "F").astype("int64"),
            "o": (st == "O").astype("int64"),
            "p": (st == "P").astype("int64"),
        })

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]).map_batches(
            _derive, batch_format="pandas"),
        ["o_orderpriority"],
        {"n_f": ("f", "sum"), "n_o": ("o", "sum"), "n_p": ("p", "sum"),
         "n_total": ("f", "count")},
    )
    for c in ("n_f", "n_o", "n_p", "n_total"):
        out[c] = out[c].astype("int64")
    return out


def orders_status_unpivot(sf_dir: str):
    """UNPIVOT: the wide pivot table melted back to long
    (o_orderpriority, status, n) — wide→long is a pure per-row reshape,
    so it rides the pivot's partial-combine output (a |priorities|-row
    table) and a vectorized pd.melt; no extra shuffle."""
    wide = orders_status_pivot(sf_dir)
    long = wide.melt(
        id_vars=["o_orderpriority"],
        value_vars=["n_f", "n_o", "n_p"],
        var_name="status", value_name="n")
    long["status"] = long["status"].str[-1].str.upper()
    long["n"] = long["n"].astype("int64")
    return long.sort_values(["o_orderpriority", "status"]).reset_index(
        drop=True)


def weekday_order_counts(sf_dir: str):
    """Date-part extraction + grouped count: orders per ISO weekday
    (Mon=1..Sun=7), the date-scalar-function family (§2.8) vectorized via
    pandas .dt on the batch."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _dow(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"isodow": (batch["o_orderdate"].dt.dayofweek + 1).astype("int64")}
        )

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_orderdate"]).map_batches(
            _dow, batch_format="pandas"),
        ["isodow"],
        {"n_orders": ("isodow", "count")},
    )
    out["isodow"] = out["isodow"].astype("int64")
    return out


def urgent_customers(sf_dir: str):
    """SEMI join: customers with at least one '1-URGENT' order. Distinct keys reduced distributed-side
    first, then a broadcast membership filter (keep=True)."""
    import pyarrow.compute as pc

    from ocr_agent_ray.pipelines.agg import distinct_rows
    from ocr_agent_ray.pipelines.joins import broadcast_semi_filter

    urgent = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(
            lambda b: b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))
                       .select(["o_custkey"]),
            batch_format="pyarrow")
    custkeys = distinct_rows(urgent, ["o_custkey"]).to_pandas()["o_custkey"]

    customers = read_table(sf_dir, "customer",
                           ["c_custkey", "c_name", "c_acctbal"])
    return broadcast_semi_filter(customers, custkeys, "c_custkey", keep=True)


def acctbal_histogram(sf_dir: str, *, lo: float = -1000.0, hi: float = 10000.0,
                      num_bins: int = 11):
    """Numeric histogram of customer account balances: equal-width bins
    computed vectorized per batch (partial counts), then a tiny combine —
    the classic distributed histogram. Bin semantics match DuckDB's
    width_bucket (values below lo -> bucket 0, above hi -> num_bins+1)."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    width = (hi - lo) / num_bins

    def _bin(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["c_acctbal"].to_numpy(dtype=np.float64)
        b = np.floor((v - lo) / width).astype(np.int64) + 1
        b = np.clip(b, 0, num_bins + 1)
        b[v < lo] = 0
        b[v >= hi] = num_bins + 1
        return pd.DataFrame({"bucket": b})

    out = combine_partials_driver(
        read_table(sf_dir, "customer", ["c_acctbal"]).map_batches(
            _bin, batch_format="pandas"),
        ["bucket"],
        {"n": ("bucket", "count")},
    )
    out["bucket"] = out["bucket"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


def orders_page(sf_dir: str, *, page_size: int = 10, page: int = 3):
    """Pagination (ORDER BY ... LIMIT k OFFSET (page-1)·k) WITHOUT a
    global sort: each batch keeps its own top-(page·k) candidates (a
    top-k is a partial-aggregable reduction), the driver merges
    page·k × n_blocks candidate rows and slices the page. No all-to-all
    exchange — the shuffle a naive sort+limit would pay is gone."""
    need = page_size * page

    def _partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["o_totalprice", "o_orderkey"],
                                 ascending=[False, True],
                                 kind="mergesort").head(need)

    cands = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(_partial_topk, batch_format="pandas")
    pooled = [b for b in cands.iter_batches(batch_format="pandas",
                                            batch_size=65536)]
    allc = (pd.concat(pooled, ignore_index=True) if pooled
            else pd.DataFrame(columns=["o_orderkey", "o_totalprice"]))
    top = allc.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True],
                           kind="mergesort").head(need)
    return top.iloc[page_size * (page - 1):].reset_index(drop=True)


def revenue_by_nation(sf_dir: str):
    """Three-table join chain (lineitem ⋈ orders ⋈ customer → nation):
    revenue pre-aggregated per orderkey BEFORE any join (the wire never
    carries raw lineitem rows), one bucket-hash shuffle to attach
    o_custkey, customer→nation as a broadcast map, then a tiny grouped
    combine per nation name — TPC-H Q5's shape with one explicit shuffle."""
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.agg import (
        combine_partials_driver,
        hash_partition_aggregate,
    )

    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_extendedprice", "l_discount"])

    def _derive(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(
            revenue=batch["l_extendedprice"] * (1 - batch["l_discount"]))

    rev = hash_partition_aggregate(
        li.map_batches(_derive, batch_format="pandas"),
        ["l_orderkey"], {"revenue": ("revenue", "sum")}, num_buckets=32,
    ).map_batches(lambda b: b.rename(columns={"l_orderkey": "o_orderkey"}),
                  batch_format="pandas")

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = bucket_hash_join(
        rev, orders, on="o_orderkey", num_buckets=16,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("revenue", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]),
    )

    # customer -> nation-name dimension map, broadcast (small side)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    dim = dim[["c_custkey", "n_name"]].rename(columns={"c_custkey": "o_custkey"})

    out = combine_partials_driver(
        broadcast_join(joined, dim, on="o_custkey"),
        ["n_name"],
        {"revenue": ("revenue", "sum"), "n_orders": ("revenue", "count")},
    )
    out["revenue"] = round_half_away(out["revenue"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out[["n_name", "revenue", "n_orders"]]


def priciest_part_per_brand(sf_dir: str):
    """ARG-MAX aggregate (max_by with a deterministic tie-break): the
    part with the highest retail price per brand, ties -> smallest
    partkey. Per-batch argmax partials (one candidate row per brand per
    batch) then a driver combine over the tiny candidate table — the
    mergeable form of max_by."""
    cols = ["p_brand", "p_partkey", "p_name", "p_retailprice"]

    def _argmax(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.sort_values(["p_retailprice", "p_partkey"],
                              ascending=[False, True], kind="mergesort")
        return b.groupby("p_brand", as_index=False).head(1)[cols]

    cands = read_table(sf_dir, "part", cols).map_batches(
        _argmax, batch_format="pandas")
    pooled = [b for b in cands.iter_batches(batch_format="pandas",
                                            batch_size=65536)]
    allc = pd.concat(pooled, ignore_index=True) if pooled else pd.DataFrame(
        columns=cols)
    top = (allc.sort_values(["p_retailprice", "p_partkey"],
                            ascending=[False, True], kind="mergesort")
               .groupby("p_brand", as_index=False).head(1))
    top = top.sort_values("p_brand").reset_index(drop=True)
    top["p_retailprice"] = round_half_away(top["p_retailprice"].to_numpy(), 2)
    return top[cols]


def priority_share(sf_dir: str):
    """Ratio-to-report window (n / SUM(n) OVER ()): each priority's share
    of all orders. Counts come from partials; the grand total is the sum
    of the (tiny) partial table — no second pass."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_orderpriority"]),
        ["o_orderpriority"],
        {"n": ("o_orderpriority", "count")},
    )
    out["n"] = out["n"].astype("int64")
    out["share"] = round_half_away(out["n"] / out["n"].sum(), 6)
    return out[["o_orderpriority", "n", "share"]]


def monthly_cum_revenue(sf_dir: str):
    """Cumulative time series: revenue per order month plus the running
    total — monthly partials distributed, the cumsum over the few dozen
    month rows on the driver (a time-series' outer loop is as long as its
    calendar, not its data)."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _month(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "month": batch["o_orderdate"].dt.to_period("M").dt.to_timestamp(),
            "rev": batch["o_totalprice"],
        })

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_orderdate", "o_totalprice"]).map_batches(
            _month, batch_format="pandas"),
        ["month"],
        {"rev": ("rev", "sum")},
    ).sort_values("month").reset_index(drop=True)
    cum = out["rev"].cumsum()
    return pd.DataFrame({
        # to_period().to_timestamp() yields ns; the table dialect is us
        "month": out["month"].astype("datetime64[us]"),
        "revenue": round_half_away(out["rev"].to_numpy(), 2),
        "cum_revenue": round_half_away(cum.to_numpy(), 2),
    })


def customer_name_ids(sf_dir: str):
    """String-parse extraction: pull the numeric suffix out of
    'Customer#000000001'-style names (vectorized regex capture) and emit
    it typed — the scalar-function family (§2.8) under an exact oracle."""

    def _parse(batch: pd.DataFrame) -> pd.DataFrame:
        name_id = batch["c_name"].str.extract(r"#(\d+)", expand=False)
        return pd.DataFrame({
            "c_custkey": batch["c_custkey"],
            "name_id": pd.to_numeric(name_id).astype("int64"),
        })

    return read_table(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        _parse, batch_format="pandas")


def yearly_order_growth(sf_dir: str):
    """Year-over-year growth: orders per year plus the delta vs the
    previous year — a LAG window over an AGGREGATED time series (year
    partials distributed, the lag over the handful of year rows on the
    driver). prev_n/delta are float64 (NaN for the first year) to match
    how the driver materializes DuckDB's nullable BIGINT through pandas
    (231 as Int64 and 231.0 as float64 hash differently)."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _year(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"year": batch["o_orderdate"].dt.year.astype("int64")})

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_orderdate"]).map_batches(
            _year, batch_format="pandas"),
        ["year"], {"n_orders": ("year", "count")},
    ).sort_values("year").reset_index(drop=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    prev = out["n_orders"].shift(1).astype("float64")
    return pd.DataFrame({
        "year": out["year"],
        "n_orders": out["n_orders"],
        "prev_n": prev,
        "delta": (out["n_orders"] - prev).astype("float64"),
    })


def source_quota_cap(sf_dir: str, *, cap: int = 40):
    """Per-source document quota — 'keep at most N docs per source'
    (domain caps à la RefinedWeb), deterministic by doc_id order. Scale
    shape: each batch emits only its ``cap`` smallest doc_ids per source
    (a bounded partial top-N — the wire carries ≤ cap × sources × batches
    rows, never the corpus), the driver folds those into one cap-th-
    smallest THRESHOLD per source (|sources| ints, broadcast), and the
    final pass is a pure streaming filter. No shuffle at any size."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver  # noqa: F401

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


def fuzzy_name_pairs(sf_dir: str, *, max_dist: int = 2):
    """Fuzzy-match join (entity resolution shape): customer-name pairs
    within Hamming distance ``max_dist``, BLOCKED by nation so the
    quadratic comparison runs per block, never corpus-wide — the
    standard blocking-key fuzzy join. Per nation bucket the names stack
    into one uint8 matrix and all pairwise distances come from ONE
    broadcasted compare + sum (no per-pair Python); at larger blocks
    swap in an LSH/q-gram prefilter exactly like the near-dup family.
    Oracled via DuckDB hamming() on the blocked self-join."""
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_nationkey"]).map_batches(
        lambda b: b.assign(c_nationkey=b["c_nationkey"].astype("int64")),
        batch_format="pandas")

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "c_nationkey": pd.Series(dtype="int64"),
            "custkey_a": pd.Series(dtype="int64"),
            "custkey_b": pd.Series(dtype="int64"),
            "hamming_dist": pd.Series(dtype="int64")})
        g = g.sort_values("c_custkey").reset_index(drop=True)
        names = g["c_name"].to_numpy()
        if len(names) < 2:
            return empty
        # encode per-name FIRST, pad in byte space: a char-based ljust
        # followed by one utf-8 encode makes total bytes != rows*width on
        # any non-ASCII name and the reshape blows up (distance is
        # byte-level Hamming with 0x20 padding, same as the ASCII case)
        enc = [n.encode("utf-8") for n in names]
        width = max(len(e) for e in enc)
        mat = np.frombuffer(
            b"".join(e.ljust(width) for e in enc),
            dtype=np.uint8).reshape(len(enc), width)
        d = (mat[:, None, :] != mat[None, :, :]).sum(axis=2)
        i, j = np.nonzero(np.triu(d <= max_dist, k=1))
        if not len(i):
            return empty
        keys = g["c_custkey"].to_numpy()
        return pd.DataFrame({
            "c_nationkey": np.full(len(i), g["c_nationkey"].iloc[0],
                                   dtype=np.int64),
            "custkey_a": keys[i],
            "custkey_b": keys[j],
            "hamming_dist": d[i, j].astype(np.int64),
        })

    return key_map_groups(cust, _pairs, key_col="c_nationkey",
                          num_buckets=8)


def _jw_vectorized(enc_a: list, enc_b: list) -> np.ndarray:
    """Pair-vectorized Jaro-Winkler over aligned encoded-name arrays —
    bitwise-equal to DuckDB's jaro_winkler_similarity (60k-pair fuzz).
    Shared by the nation-blocked and sorted-neighborhood fuzzy joins."""
    P = len(enc_a)
    W = max(max(len(e) for e in enc_a), max(len(e) for e in enc_b), 1)
    A = np.frombuffer(b"".join(e.ljust(W, b"\x00") for e in enc_a),
                      dtype=np.uint8).reshape(P, W)
    B = np.frombuffer(b"".join(e.ljust(W, b"\x00") for e in enc_b),
                      dtype=np.uint8).reshape(P, W)
    la = np.asarray([len(e) for e in enc_a], dtype=np.int64)
    lb = np.asarray([len(e) for e in enc_b], dtype=np.int64)
    win = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    wmax = int(win.max())
    matched_b = np.zeros((P, W), dtype=bool)
    mask_a = np.zeros((P, W), dtype=bool)
    for i in range(W):
        found = np.zeros(P, dtype=bool)
        lo, hi = i - win, i + win
        for j in range(max(0, i - wmax), min(W, i + wmax + 1)):
            elig = ((~found) & (~matched_b[:, j]) & (j >= lo)
                    & (j <= hi) & (j < lb) & (i < la)
                    & (A[:, i] == B[:, j]))
            if elig.any():
                matched_b[elig, j] = True
                mask_a[elig, i] = True
                found |= elig
    m = mask_a.sum(axis=1).astype(np.int64)
    idx_a = np.argsort(~mask_a, axis=1, kind="stable")
    idx_b = np.argsort(~matched_b, axis=1, kind="stable")
    s1 = np.take_along_axis(A, idx_a, 1)
    s2 = np.take_along_axis(B, idx_b, 1)
    pos = np.arange(W)[None, :]
    mism = ((s1 != s2) & (pos < m[:, None])).sum(axis=1)
    t = (mism // 2).astype(np.float64)
    mf = m.astype(np.float64)
    safe_m = np.where(m > 0, mf, 1.0)
    jaro = np.where(
        m > 0,
        (mf / la.astype(np.float64) + mf / lb.astype(np.float64)
         + (mf - t) / safe_m) / 3.0,
        0.0)
    pref = np.zeros(P, dtype=np.int64)
    alive = np.ones(P, dtype=bool)
    for i in range(min(4, W)):
        alive = alive & (i < la) & (i < lb) & (A[:, i] == B[:, i])
        pref += alive.astype(np.int64)
    return np.where(jaro > 0.7, jaro + pref * 0.1 * (1.0 - jaro),
                    jaro)


def jaro_winkler_pairs(sf_dir: str, *, threshold: float = 0.97):
    """Jaro–Winkler fuzzy-match join (Winkler '90) — the third member
    of the entity-resolution similarity family (Hamming
    ``fuzzy_name_pairs``, Levenshtein≤1 ``edit_distance_pairs``):
    customer-name pairs with jw ≥ ``threshold``, BLOCKED by nation so
    the quadratic comparison runs per block. The entire block's pair
    set evaluates as ONE pair-vectorized kernel — matching flags,
    transposition compaction (stable argsort pushes unmatched
    positions to the tail) and the Winkler prefix boost are all
    numpy ops over a (pairs × width) byte matrix; the only Python
    loops are over the ≤width² (i, j) character offsets, never over
    pairs. Float nesting ((m/l1 + m/l2 + (m−t)/m)/3, boost
    jaro + p·0.1·(1−jaro) iff jaro > 0.7) reproduces DuckDB's
    jaro_winkler_similarity BITWISE (fuzzed 60k pairs, zero ulp
    drift), so the ≥threshold cut and ROUND(…, 6) agree exactly.
    Scale path: same as the Hamming family — swap the in-block
    all-pairs for a q-gram/LSH prefilter when blocks outgrow memory."""
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_nationkey"]).map_batches(
        lambda b: b.assign(c_nationkey=b["c_nationkey"].astype("int64")),
        batch_format="pandas")
    _jw_vec = _jw_vectorized

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        from ocr_agent_ray.functions.textstats import round_half_away

        empty = pd.DataFrame({
            "c_nationkey": pd.Series(dtype="int64"),
            "custkey_a": pd.Series(dtype="int64"),
            "custkey_b": pd.Series(dtype="int64"),
            "jw": pd.Series(dtype="float64")})
        g = g.sort_values("c_custkey").reset_index(drop=True)
        if len(g) < 2:
            return empty
        enc = [n.encode("utf-8") for n in g["c_name"].to_numpy()]
        i, j = np.triu_indices(len(enc), k=1)
        jw = _jw_vec([enc[x] for x in i], [enc[x] for x in j])
        keep = jw >= threshold
        if not keep.any():
            return empty
        keys = g["c_custkey"].to_numpy()
        return pd.DataFrame({
            "c_nationkey": np.full(int(keep.sum()),
                                   g["c_nationkey"].iloc[0],
                                   dtype=np.int64),
            "custkey_a": keys[i[keep]],
            "custkey_b": keys[j[keep]],
            "jw": round_half_away(jw[keep], 6)})

    return key_map_groups(cust, _pairs, key_col="c_nationkey",
                          num_buckets=8)


def sorted_neighborhood_pairs(sf_dir: str, *, window: int = 5,
                              num_buckets: int = 16):
    """Sorted-neighborhood blocking (Hernández & Stolfo SIGMOD'95) —
    the ORDER-based entity-resolution blocker, complementing the
    key-based (nation) and neighborhood-enumeration (FastSS) blockers:
    sort the corpus by (c_name, c_custkey) and compare every record to
    its ``window``−1 successors, emitting (pair, rank_gap, jw).

    Distributed shape — sample-trained RANGE exchange plus boundary
    stitching, the classic pattern for order-sensitive ops at scale:
    (1) a fixed-size deterministic key sample (custkey-mod, ~4k rows)
    trains name split points on the driver — the same
    sample-trains-the-partitioner move as the IVF centroids; (2) rows
    range-exchange on searchsorted(splits, name) so each bucket owns a
    contiguous rank range (equal names can't straddle: side='right');
    (3) each bucket sorts locally and emits its in-bucket window pairs
    vectorized (index-shifted slices, one ``_jw_vectorized`` call per
    gap); (4) ONLY the ≤2(window−1) rows hugging each bucket edge (or
    the whole bucket when it is smaller than one window — it may then
    span several boundaries) travel to the driver, where global ranks
    reconstruct from per-bucket sizes and the cross-boundary pairs
    close over that bounded strip. Wire cost: one row-exchange of the
    key columns + O(buckets·window) strip rows — never a global sort
    of payloads. Oracled against the row_number window self-join."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    w = window
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    n_total = cust.count()
    if n_total == 0:
        return pd.DataFrame({
            "custkey_a": pd.Series(dtype="int64"),
            "custkey_b": pd.Series(dtype="int64"),
            "rank_gap": pd.Series(dtype="int64"),
            "jw": pd.Series(dtype="float64")})
    mod = max(1, n_total // 4096)
    sample = pd.concat(
        [b for b in cust.map_batches(
            lambda b: b[b["c_custkey"] % mod == 0][["c_name"]],
            batch_format="pandas").iter_batches(
                batch_format="pandas", batch_size=None)],
        ignore_index=True)
    names_sorted = np.sort(sample["c_name"].to_numpy())
    pos = [int(i * len(names_sorted) / num_buckets)
           for i in range(1, num_buckets)]
    splits = np.unique(names_sorted[pos]) if len(names_sorted) else \
        np.array([], dtype=object)

    def _bucketize(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(__b=np.searchsorted(
            splits, b["c_name"].to_numpy(), side="right").astype("int32"))

    _PAIR_COLS = {
        "__kind": "int8", "custkey_a": "int64", "custkey_b": "int64",
        "rank_gap": "int64", "jw": "float64", "__bucket": "int64",
        "__n": "int64", "__idx": "int64", "__ck": "int64",
        "__name": "object", "__lp": "int8"}

    def _empty_tagged() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series(dtype=t)
                             for c, t in _PAIR_COLS.items()})

    def _bucket_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_name", "c_custkey"]).reset_index(drop=True)
        n = len(g)
        bucket = np.int64(g["__b"].iloc[0])
        keys = g["c_custkey"].to_numpy(np.int64)
        names = g["c_name"].to_numpy()
        frames = []
        locally_paired = n > 2 * (w - 1)
        if locally_paired:
            enc = [s.encode("utf-8") for s in names]
            for gap in range(1, w):
                if n <= gap:
                    break
                jw = _jw_vectorized(enc[:-gap], enc[gap:])
                frames.append(pd.DataFrame({
                    "__kind": np.int8(0),
                    "custkey_a": keys[:-gap],
                    "custkey_b": keys[gap:],
                    "rank_gap": np.int64(gap),
                    "jw": round_half_away(jw, 6),
                    "__bucket": np.int64(0), "__n": np.int64(0),
                    "__idx": np.int64(0), "__ck": np.int64(0),
                    "__name": "", "__lp": np.int8(0)}))
            strip_idx = np.unique(np.concatenate(
                [np.arange(w - 1), np.arange(n - (w - 1), n)]))
        else:
            strip_idx = np.arange(n)
        frames.append(pd.DataFrame({
            "__kind": np.int8(1),
            "custkey_a": np.int64(0), "custkey_b": np.int64(0),
            "rank_gap": np.int64(0), "jw": np.float64(0.0),
            "__bucket": bucket, "__n": np.int64(n),
            "__idx": strip_idx.astype(np.int64),
            "__ck": keys[strip_idx],
            "__name": names[strip_idx],
            "__lp": np.int8(1 if locally_paired else 0)}))
        out = pd.concat(frames, ignore_index=True)
        return out.astype(_PAIR_COLS)

    keyed = cust.map_batches(_bucketize, batch_format="pandas",
                             batch_size=65536)
    tagged = bucket_map_groups(keyed, _bucket_kernel,
                               num_buckets=num_buckets).materialize()
    pairs = tagged.map_batches(
        lambda b: b[b["__kind"] == 0][
            ["custkey_a", "custkey_b", "rank_gap", "jw"]],
        batch_format="pandas")
    strip = pd.concat(
        [b for b in tagged.map_batches(
            lambda b: b[b["__kind"] == 1],
            batch_format="pandas").iter_batches(
                batch_format="pandas", batch_size=None)],
        ignore_index=True)
    if strip.empty:
        return pairs
    # global ranks from per-bucket sizes (bounded: buckets × window)
    sizes = (strip[["__bucket", "__n"]].drop_duplicates()
             .sort_values("__bucket"))
    offsets = dict(zip(sizes["__bucket"],
                       np.concatenate([[0], np.cumsum(
                           sizes["__n"].to_numpy())[:-1]])))
    strip = strip.assign(
        __rank=strip["__bucket"].map(offsets).astype(np.int64)
        + strip["__idx"])
    strip = strip.sort_values("__rank").reset_index(drop=True)
    ranks = strip["__rank"].to_numpy(np.int64)
    sk = strip["__ck"].to_numpy(np.int64)
    sb = strip["__bucket"].to_numpy(np.int64)
    lp = strip["__lp"].to_numpy(np.int8)
    enc = [s.encode("utf-8") for s in strip["__name"].to_numpy()]
    ia, ib = [], []
    for i in range(len(strip)):
        j = i + 1
        while j < len(strip) and ranks[j] - ranks[i] <= w - 1:
            # same-bucket pairs of a locally-paired bucket were already
            # emitted inside that bucket's kernel
            if not (sb[i] == sb[j] and lp[i]):
                ia.append(i)
                ib.append(j)
            j += 1
    if ia:
        jw = _jw_vectorized([enc[i] for i in ia], [enc[j] for j in ib])
        cross = pd.DataFrame({
            "custkey_a": sk[np.asarray(ia)],
            "custkey_b": sk[np.asarray(ib)],
            "rank_gap": ranks[np.asarray(ib)] - ranks[np.asarray(ia)],
            "jw": round_half_away(jw, 6)})
        import ray.data as rd
        pairs = pairs.union(rd.from_pandas(cross))
    return pairs


def edit_distance_pairs(sf_dir: str):
    """Levenshtein≤1 fuzzy self-join via FastSS deletion neighborhoods
    (Bocek et al. 2007) — the edit-distance sibling of the MinHash
    family: two names are within edit distance 1 iff their deletion-1
    neighborhoods intersect, so each name emits len+1 64-bit variant
    hashes (identity + every single-char deletion, computed WITHOUT
    materializing variant strings: one prefix/suffix polynomial-hash
    pass over the batch's padded byte matrix), candidates co-locate in
    ONE hash exchange, and the exact distance is verified vectorized
    per bucket (equal length → Hamming≤1; length diff 1 → common prefix
    + common suffix covers the shorter). Hash collisions merely merge
    groups (verification is exact); a pair surfacing in several groups
    dedups through a keyed min-combine. Neighborhood size is O(len) per
    row, so the exchange carries ~len× the name table — bounded, and
    never the quadratic cross join the oracle runs. Caveat (standard
    FastSS): very short strings (≲2 chars) collapse into dense variant
    blocks — apply a length floor or a q-gram prefilter for such
    corpora; TPC-H-style keys/names are comfortably long."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups
    from ocr_agent_ray.pipelines.joins import _splitmix64

    num_buckets = 32
    P = np.uint64(1099511628211)  # FNV prime as the polynomial base

    def _byte_matrix(names: np.ndarray):
        enc = [n.encode("utf-8") for n in names]
        width = max(max((len(e) for e in enc), default=1), 1)
        mat = np.frombuffer(
            b"".join(e.ljust(width, b"\x00") for e in enc),
            dtype=np.uint8).reshape(len(enc), width)
        lens = np.asarray([len(e) for e in enc], dtype=np.int64)
        return mat, lens

    def _variants(batch: pd.DataFrame) -> pd.DataFrame:
        names = batch["c_name"].to_numpy()
        keys = batch["c_custkey"].to_numpy(dtype=np.int64)
        if not len(names):
            return pd.DataFrame({
                "vb": pd.Series(dtype="int64"),
                "c_custkey": pd.Series(dtype="int64"),
                "c_name": pd.Series(dtype="object")})
        mat, lens = _byte_matrix(names)
        n, w = mat.shape
        m64 = mat.astype(np.uint64)
        pw = np.empty(w, dtype=np.uint64)  # P^i (mod 2^64)
        pw[0] = np.uint64(1)
        for i in range(1, w):
            pw[i] = pw[i - 1] * P
        term = m64 * pw[None, :]                       # b_i · P^i
        pref = np.zeros((n, w + 1), dtype=np.uint64)   # Σ_{i<d} b_i·P^i
        np.cumsum(term, axis=1, out=pref[:, 1:])
        # Σ_{i>d} b_i·P^{i-1}: shift-weighted suffix sums
        term_dn = m64[:, 1:] * pw[None, :-1]
        suf = np.zeros((n, w + 1), dtype=np.uint64)
        suf[:, 1:w] = term_dn[:, ::-1].cumsum(axis=1)[:, ::-1]
        # identity variant (distance-0 deletion) + one per position
        full = pref[:, w] + np.uint64(0x9E3779B9) * lens.astype(np.uint64)
        out_k, out_c, out_n = [full], [keys], [names]
        for d in range(w):
            live = lens > d
            if not live.any():
                break
            h = (pref[live, d] + suf[live, d + 1]
                 + np.uint64(0x9E3779B9) * (lens[live] - 1).astype(np.uint64))
            out_k.append(h)
            out_c.append(keys[live])
            out_n.append(names[live])
        vk = _splitmix64(np.concatenate(out_k))
        return pd.DataFrame({
            "vb": (vk % np.uint64(num_buckets)).astype(np.int64),
            "vkey": vk.view(np.int64),
            "c_custkey": np.concatenate(out_c),
            "c_name": np.concatenate(out_n),
        })

    def _verify(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "custkey_a": pd.Series(dtype="int64"),
            "custkey_b": pd.Series(dtype="int64"),
            "edit_dist": pd.Series(dtype="int64")})
        if len(bucket) < 2:
            return empty
        b = bucket.sort_values(["vkey", "c_custkey"]).reset_index(drop=True)
        vk = b["vkey"].to_numpy()
        starts = np.flatnonzero(np.r_[True, vk[1:] != vk[:-1]])
        sizes = np.diff(np.r_[starts, len(vk)])
        ii, jj = [], []
        for s, g in zip(starts[sizes > 1], sizes[sizes > 1]):
            loc_i, loc_j = np.triu_indices(g, k=1)
            ii.append(loc_i + s)
            jj.append(loc_j + s)
        if not ii:
            return empty
        i = np.concatenate(ii)
        j = np.concatenate(jj)
        keys = b["c_custkey"].to_numpy(dtype=np.int64)
        keep0 = keys[i] != keys[j]  # same name met through 2 variants
        i, j = i[keep0], j[keep0]
        if not len(i):
            return empty
        mat, lens = _byte_matrix(b["c_name"].to_numpy())
        w = mat.shape[1]
        dL = lens[i] - lens[j]
        near = np.abs(dL) <= 1
        i, j, dL = i[near], j[near], dL[near]
        if not len(i):
            return empty
        eq = mat[i] == mat[j]
        same_len = dL == 0
        ham = w - eq.sum(axis=1)
        # right-justified matrix for the common-suffix length
        rows = np.arange(len(mat))[:, None]
        cols = (w - lens)[:, None] + np.arange(w)[None, :]
        mask = np.arange(w)[None, :] < lens[:, None]
        matR = np.zeros_like(mat)
        matR[np.broadcast_to(rows, mat.shape)[mask], cols[mask]] = mat[mask]
        eqR = matR[i] == matR[j]
        pref_len = np.argmin(eq, axis=1)        # first mismatch from left
        suf_len = np.argmin(eqR[:, ::-1], axis=1)
        shorter = np.minimum(lens[i], lens[j])
        ok = np.where(same_len, ham <= 1, pref_len + suf_len >= shorter)
        dist = np.where(same_len, ham, 1).astype(np.int64)
        i, j, dist = i[ok], j[ok], dist[ok]
        a = np.minimum(keys[i], keys[j])
        c = np.maximum(keys[i], keys[j])
        return pd.DataFrame({"custkey_a": a, "custkey_b": c,
                             "edit_dist": dist})

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    pairs = bucket_map_groups(
        cust.map_batches(_variants, batch_format="pandas",
                         batch_size=65536),
        _verify, bucket_col="vb", num_buckets=num_buckets)
    # a pair can surface under several shared variants (and buckets):
    # keyed min-combine = global distinct
    return hash_partition_aggregate(
        pairs, ["custkey_a", "custkey_b"],
        {"edit_dist": ("edit_dist", "min")}, num_buckets=8)


def customer_order_gap_days(sf_dir: str):
    """Average days between consecutive orders per customer (≥2 orders)
    — looks like a LAG window, but the average of consecutive gaps
    TELESCOPES to (max − min)/(n − 1), so the whole window op collapses
    to mergeable (min, max, count) partials + one bucketed combine: the
    canonical example of reducing a per-key window to partial
    aggregation before reaching for a shuffle-heavy window machine.
    Oracle computes it the window way (AVG of LAG diffs) to prove the
    algebraic equivalence."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate

    folded = hash_partition_aggregate(
        read_table(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
        ["o_custkey"],
        {"lo": ("o_orderdate", "min"), "hi": ("o_orderdate", "max"),
         "n": ("o_orderdate", "count")},
        num_buckets=32)

    def _gap(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n"] >= 2]
        days = ((b["hi"].astype("int64") - b["lo"].astype("int64"))
                .to_numpy(dtype=np.float64) / 86400e6)
        return pd.DataFrame({
            "o_custkey": b["o_custkey"],
            "avg_gap_days": round_half_away(
                days / (b["n"].to_numpy(dtype=np.float64) - 1.0), 6),
        })

    return folded.map_batches(_gap, batch_format="pandas")


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


def _local_skyline(g: pd.DataFrame, min_col: str, max_col: str
                   ) -> pd.DataFrame:
    """Vectorized 2-D skyline of one in-memory frame: keep rows where no
    other row has min_col <= AND max_col >= with at least one strict.
    Sweep by ascending min_col: a row survives iff its max_col equals
    its price-group max AND that max strictly beats the running max over
    all strictly-cheaper groups. Duplicate (min,max) points all survive
    (neither dominates the other — no strict inequality)."""
    if g.empty:
        return g
    gmax = g.groupby(min_col)[max_col].transform("max")
    grp = (g[[min_col, max_col]].groupby(min_col, sort=True)[max_col]
           .max())
    prev_best = grp.cummax().shift(1, fill_value=-np.inf)
    best_prev = g[min_col].map(prev_best).to_numpy()
    keep = (g[max_col].to_numpy() == gmax.to_numpy()) & (
        gmax.to_numpy() > best_prev)
    return g[keep]


def pareto_skyline(sf_dir: str, *, min_col: str = "p_retailprice",
                   max_col: str = "p_size"):
    """Pareto frontier (skyline) of the part table: parts for which no
    other part is both cheaper-or-equal (p_retailprice) and
    larger-or-equal (p_size) with at least one strict — the classic
    multi-objective 'best tradeoffs' query.

    Scale shape: the local skyline of any subset contains every global
    skyline point in that subset (dominance is transitive), so each
    batch prunes independently to its own skyline — typically a tiny
    fraction — and ONLY survivors move. A single-bucket reduce then
    runs the same vectorized sweep over the union of survivors; the
    frontier itself (output) is small by nature, never the full table.
    No driver materialization, no global sort."""
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    cols = ["p_partkey", min_col, max_col]
    parts = read_table(sf_dir, "part", cols)

    def _prune(b: pd.DataFrame) -> pd.DataFrame:
        out = _local_skyline(b, min_col, max_col)
        return out.assign(__b=np.int32(0))

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return (_local_skyline(g, min_col, max_col)[cols]
                .reset_index(drop=True))

    return bucket_map_groups(
        parts.map_batches(_prune, batch_format="pandas",
                          batch_size=65536),
        _final, num_buckets=1)


def entity_resolution(sf_dir: str, *, max_dist: int = 2):
    """End-to-end entity resolution: the blocked fuzzy Hamming join
    (fuzzy_name_pairs) feeds connected components
    (dedup.duplicate_clusters — min-label propagation, dataset-native
    above the driver threshold), producing one canonical ``entity_id``
    (= min custkey of the component) per matched customer plus the
    entity size — the composed record-linkage pipeline every warehouse
    runs before building a customer 360. Columns: c_custkey,
    entity_id, entity_size."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.dedup import duplicate_clusters
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    pairs = fuzzy_name_pairs(sf_dir, max_dist=max_dist).map_batches(
        lambda b: pd.DataFrame({"doc_id_a": b["custkey_a"],
                                "doc_id_b": b["custkey_b"]}),
        batch_format="pandas")
    clusters = duplicate_clusters(pairs)
    if isinstance(clusters, pd.DataFrame):
        # driver fast path (≤ driver_max_edges): finish in pandas — the
        # table is already a bounded label map
        out = pd.DataFrame({
            "c_custkey": clusters["doc_id"].astype("int64"),
            "entity_id": clusters["cluster_id"].astype("int64")})
        sz = out.groupby("entity_id").size().rename("entity_size")
        out["entity_size"] = out["entity_id"].map(sz).astype("int64")
        return out.sort_values("c_custkey").reset_index(drop=True)
    comp = clusters.map_batches(
        lambda b: pd.DataFrame({"c_custkey": b["doc_id"].astype("int64"),
                                "entity_id": b["cluster_id"]
                                .astype("int64")}),
        batch_format="pandas")
    sizes = hash_partition_aggregate(
        comp, ["entity_id"], {"entity_size": ("c_custkey", "count")},
        num_buckets=8)
    joined = bucket_hash_join(
        comp, sizes, on="entity_id", num_buckets=8,
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("entity_id", pa.int64())]),
        right_schema=pa.schema([("entity_id", pa.int64()),
                                ("entity_size", pa.int64())]))
    return joined.map_batches(
        lambda b: pd.DataFrame({
            "c_custkey": b["c_custkey"].astype("int64"),
            "entity_id": b["entity_id"].astype("int64"),
            "entity_size": b["entity_size"].astype("int64"),
        }), batch_format="pandas")


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


def benford_first_digit(sf_dir: str):
    """Benford's-law first-digit screen over order totals — the fraud/
    data-quality test: observed first-significant-digit frequencies of
    o_totalprice vs the Benford expectation log10(1+1/d), with the
    chi-square distance. Digit extraction is pure float math
    (x / 10^floor(log10 x)) written identically to the oracle; counts
    fold as 9-key mergeable partials. Columns: digit, n, observed_p,
    expected_p (round 6)."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _digits(b: pd.DataFrame) -> pd.DataFrame:
        x = b["o_totalprice"].to_numpy(dtype=np.float64)
        x = x[x > 0]
        d = np.floor(x / np.power(10.0, np.floor(np.log10(x))))
        return pd.DataFrame({"digit": d.astype("int64"),
                             "n": np.int64(1)})

    out = combine_partials_driver(
        read_table(sf_dir, "orders", ["o_totalprice"]).map_batches(
            _digits, batch_format="pandas", batch_size=65536),
        ["digit"], {"n": ("n", "sum")})
    out = out.sort_values("digit").reset_index(drop=True)
    total = float(out["n"].sum())
    d = out["digit"].to_numpy(dtype=np.float64)
    out["n"] = out["n"].astype("int64")
    out["observed_p"] = round_half_away(
        out["n"].to_numpy(dtype=np.float64) / total, 6)
    out["expected_p"] = round_half_away(np.log10(1.0 + 1.0 / d), 6)
    return out


def weighted_median_price(sf_dir: str, *, range_width: float = 2048.0):
    """WEIGHTED median: per return flag, the smallest l_extendedprice x
    such that the quantity-weighted mass at or below x reaches half the
    total — the robust 'typical price per unit sold' (plain median
    ignores volume). The quantile family's weighted member, built on
    the range-parallel machinery: (flag, price) weight cells
    pre-aggregate bucketed, one hash exchange on price // range_width,
    a stats wave folds per-(range, flag) weight sums into driver
    prefix offsets, and a second wave over the SAME shards finds each
    range's first threshold crossing; qualifying candidates min-fold
    per flag. Quantities are integer-valued, so every sum and the
    0.5·W threshold compare are EXACT in float64 — bit-identical to
    the oracle. Columns: l_returnflag, weighted_median."""
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)
    from ocr_agent_ray.pipelines.exchange import exchange_shards

    cells = hash_partition_aggregate(
        read_table(sf_dir, "lineitem",
                   ["l_returnflag", "l_extendedprice", "l_quantity"])
        .map_batches(lambda b: pd.DataFrame({
            "k": b["l_returnflag"], "x": b["l_extendedprice"],
            "w": b["l_quantity"].astype("float64")}),
            batch_format="pandas", batch_size=65536),
        ["k", "x"], {"w": ("w", "sum")}, num_buckets=16)

    keyed = cells.map_batches(
        lambda b: b.assign(__rb=(b["x"] // range_width).astype("int64")),
        batch_format="pandas")
    shards = exchange_shards(keyed, bucket_col="__rb", num_buckets=64,
                             mode="mod")

    def _stats(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["__rb", "k"], sort=False)["w"].sum()
               .reset_index(name="sw"))
        return out

    stats = shards.reduce(_stats).to_pandas()
    if stats.empty:
        shards.release()
        return pd.DataFrame({"l_returnflag": pd.Series(dtype="object"),
                             "weighted_median": pd.Series(dtype="float64")})
    off: dict = {}
    tot: dict = {}
    for kk, sub in stats.groupby("k"):
        sub = sub.sort_values("__rb")
        for rb, o in zip(sub["__rb"],
                         sub["sw"].cumsum().shift(1, fill_value=0.0)):
            off[(int(rb), kk)] = float(o)
        tot[kk] = float(sub["sw"].sum())

    def _cross(g: pd.DataFrame) -> pd.DataFrame:
        rb = int(g["__rb"].iloc[0])
        rows = []
        for kk, sub in g.groupby("k", sort=False):
            sub = sub.sort_values("x", kind="mergesort")
            cum = off[(rb, kk)] + np.cumsum(sub["w"].to_numpy())
            ok = cum >= 0.5 * tot[kk]
            if ok.any():
                rows.append((kk, float(sub["x"].to_numpy()[ok].min())))
        out = pd.DataFrame(rows, columns=["l_returnflag",
                                          "weighted_median"])
        out["l_returnflag"] = out["l_returnflag"].astype("object")
        out["weighted_median"] = out["weighted_median"].astype("float64")
        return out

    folded = combine_partials_driver(
        shards.reduce(_cross, group_col="__rb"),
        ["l_returnflag"], {"weighted_median": ("weighted_median", "min")})
    shards.release()
    return folded.sort_values("l_returnflag").reset_index(drop=True)


def price_band_join(sf_dir: str, *, delta: float = 2.0,
                    num_buckets: int = 64):
    """Value-range (band) SELF-JOIN: every pair of orders whose
    ``o_totalprice`` differ by at most ``delta`` — the non-equi join
    the Dataset API has no primitive for, expressed as a range-bucketed
    exchange so it stays one-pass at any scale:

    1. a tiny partial fold finds the global [min, max] price (2 scalars
       on the driver);
    2. bucket width ``W = (max-min)/num_buckets`` (clamped so W ≥ 2δ);
       each row lands in its value bucket, and rows within ``delta`` of
       their bucket's LOWER edge also ship one boundary copy to the
       bucket below — a pair can only straddle adjacent buckets, so
       each qualifying pair materializes exactly once, in the bucket
       owning its smaller (price, key) member;
    3. the per-bucket kernel is one sort + two vectorized searchsorted
       walks (window [v, v+δ] per anchor), no Python loop.

    Canonical orientation (price_a, key_a) < (price_b, key_b) — the
    same tie rule the SQL twin pins. Uniform values spread evenly;
    a hot value concentrates its bucket (raise ``num_buckets`` or
    pre-salt if a real corpus has value spikes). Output:
    (key_a, key_b, price_a, price_b, diff)."""
    from ocr_agent_ray.pipelines.agg import combine_partials_driver
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    empty = pd.DataFrame({
        "key_a": pd.Series(dtype="int64"),
        "key_b": pd.Series(dtype="int64"),
        "price_a": pd.Series(dtype="float64"),
        "price_b": pd.Series(dtype="float64"),
        "diff": pd.Series(dtype="float64")})
    bounds = combine_partials_driver(
        orders.map_batches(lambda b: pd.DataFrame({
            "__k": np.int64(0),
            "lo": [b["o_totalprice"].min()],
            "hi": [b["o_totalprice"].max()]}),
            batch_format="pandas", batch_size=65536),
        ["__k"], {"lo": ("lo", "min"), "hi": ("hi", "max")})
    if bounds.empty or not np.isfinite(bounds["lo"].iloc[0]):
        return empty
    vmin = float(bounds["lo"].iloc[0])
    vmax = float(bounds["hi"].iloc[0])
    span = vmax - vmin
    nb = max(1, min(num_buckets, int(span / max(delta, 1e-12) / 2)))
    width = span / nb if nb > 1 else max(span, 1.0)

    def _scatter(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["o_totalprice"])
        v = b["o_totalprice"].to_numpy(dtype=np.float64)
        vb = np.clip(((v - vmin) / width).astype(np.int64), 0, nb - 1)
        anchor = pd.DataFrame({
            "key": b["o_orderkey"].to_numpy(dtype=np.int64),
            "price": v, "role": np.int8(0),
            "__b": vb.astype("int32")})
        # Inclusive sliver margin (<= plus a relative ulp guard): a pair
        # exactly delta apart straddling a bucket edge must still get a
        # downward copy even when float truncation placed the anchor a
        # half-ulp below the reconstructed edge. An extra copy cannot
        # duplicate output — each pair is emitted only in its anchor's
        # bucket (role-0 rows never copy).
        sliver = (v - vmin) - vb * width <= delta * (1.0 + 1e-9)
        sliver &= vb > 0
        below = pd.DataFrame({
            "key": anchor["key"].to_numpy()[sliver],
            "price": v[sliver], "role": np.int8(1),
            "__b": (vb[sliver] - 1).astype("int32")})
        return pd.concat([anchor, below], ignore_index=True)

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        vals = g["price"].to_numpy(dtype=np.float64)
        keys = g["key"].to_numpy(dtype=np.int64)
        order = np.lexsort((keys, vals))
        vals, keys = vals[order], keys[order]
        a_mask = (g["role"].to_numpy()[order] == 0)
        av, ak = vals[a_mask], keys[a_mask]
        lo = np.searchsorted(vals, av, side="left")
        hi = np.searchsorted(vals, av + delta, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty.copy()
        ai = np.repeat(np.arange(len(av)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ci = np.arange(total) - np.repeat(starts, counts) \
            + np.repeat(lo, counts)
        va, ka = av[ai], ak[ai]
        vc, kc = vals[ci], keys[ci]
        keep = (vc > va) | ((vc == va) & (kc > ka))
        from ocr_agent_ray.functions.textstats import round_half_away
        return pd.DataFrame({
            "key_a": ka[keep], "key_b": kc[keep],
            "price_a": va[keep], "price_b": vc[keep],
            "diff": round_half_away(vc[keep] - va[keep], 6)})

    keyed = orders.map_batches(_scatter, batch_format="pandas",
                               batch_size=65536)
    return bucket_map_groups(keyed, _pairs, num_buckets=nb)



MAX_BASKET = 1024  # hot-basket cap: an order this wide is degenerate data


def _drop_hot_baskets(g, level: str):
    """Drop baskets with > MAX_BASKET distinct parts before the k-way
    self-merge (the dedup MAX_BUCKET discipline): C(k,2)/C(k,3) on a
    degenerate multi-thousand-item order explodes the exchange. Logged,
    never silent; normal order widths (TPC-H <= 7) are untouched."""
    sizes = g.groupby("l_orderkey")["l_partkey"].transform("size")
    if int(sizes.max() if len(sizes) else 0) > MAX_BASKET:
        import logging

        hot = g.loc[sizes > MAX_BASKET, "l_orderkey"].nunique()
        logging.getLogger(__name__).warning(
            "copurchase_%s: dropping %d hot basket(s) wider than "
            "MAX_BASKET=%d (degenerate orders; widest=%d parts)",
            level, hot, MAX_BASKET, int(sizes.max()))
        g = g[sizes <= MAX_BASKET]
    return g

def copurchase_pairs(sf_dir: str, *, min_support: int = 2,
                     num_buckets: int = 32):
    """Market-basket co-purchase mining: part pairs appearing together
    in at least ``min_support`` orders — the substrate for
    recommendation and cross-sell rules. Shape at scale: baskets hash
    to their order's bucket (one exchange), pair generation is a
    per-bucket self-merge (basket sizes are bounded by order width, so
    the k² blowup is a small constant per order), and global pair
    counts fold as mergeable partials — the pair-count table never
    touches the driver. Duplicate (order, part) rows collapse first so
    a part repeated within one order counts that order once, matching
    the twin's COUNT(DISTINCT orderkey). Output:
    (part_a, part_b, n_orders) with part_a < part_b."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        g = _drop_hot_baskets(g, "pairs")
        m = g.merge(g, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        # per-bucket partial: (pair) -> count of this bucket's orders
        out = (m.groupby(["l_partkey_a", "l_partkey_b"], sort=False)
               .size().reset_index(name="n"))
        return pd.DataFrame({
            "part_a": out["l_partkey_a"].astype("int64"),
            "part_b": out["l_partkey_b"].astype("int64"),
            "n": out["n"].astype("int64")})

    keyed = li.map_batches(
        lambda b: b.assign(__b=(b["l_orderkey"] % num_buckets)
                           .astype("int32")),
        batch_format="pandas", batch_size=65536)
    partials = bucket_map_groups(keyed, _pairs, num_buckets=num_buckets)
    counts = hash_partition_aggregate(
        partials, ["part_a", "part_b"], {"n_orders": ("n", "sum")},
        num_buckets=num_buckets)
    return counts.map_batches(
        lambda b: b[b["n_orders"] >= min_support],
        batch_format="pandas", batch_size=65536)


def copurchase_triples(sf_dir: str, *, min_support: int = 2,
                       num_buckets: int = 32):
    """Apriori level-3: part TRIPLES appearing together in at least
    ``min_support`` orders. Same basket exchange as
    ``copurchase_pairs``; the per-bucket kernel chains a second
    self-merge (baskets are order-width bounded, so k³ per basket is a
    small constant) and triple counts fold as mergeable partials.
    Canonical part_a < part_b < part_c. Output:
    (part_a, part_b, part_c, n_orders)."""
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def _triples(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["l_orderkey", "l_partkey"]].drop_duplicates()
        g = _drop_hot_baskets(g, "triples")
        m = g.merge(g, on="l_orderkey", suffixes=("_a", "_b"))
        m = m[m["l_partkey_a"] < m["l_partkey_b"]]
        m = m.merge(g.rename(columns={"l_partkey": "l_partkey_c"}),
                    on="l_orderkey")
        m = m[m["l_partkey_b"] < m["l_partkey_c"]]
        out = (m.groupby(["l_partkey_a", "l_partkey_b", "l_partkey_c"],
                         sort=False).size().reset_index(name="n"))
        return pd.DataFrame({
            "part_a": out["l_partkey_a"].astype("int64"),
            "part_b": out["l_partkey_b"].astype("int64"),
            "part_c": out["l_partkey_c"].astype("int64"),
            "n": out["n"].astype("int64")})

    keyed = li.map_batches(
        lambda b: b.assign(__b=(b["l_orderkey"] % num_buckets)
                           .astype("int32")),
        batch_format="pandas", batch_size=65536)
    partials = bucket_map_groups(keyed, _triples, num_buckets=num_buckets)
    counts = hash_partition_aggregate(
        partials, ["part_a", "part_b", "part_c"],
        {"n_orders": ("n", "sum")}, num_buckets=num_buckets)
    return counts.map_batches(
        lambda b: b[b["n_orders"] >= min_support],
        batch_format="pandas", batch_size=65536)


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

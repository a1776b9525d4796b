"""Persisted partitioned inverted index: build ONCE, search with a
pruned read.

The retrieval pattern the broadcast searches (keyword_search /
bm25_search) cannot give: those re-scan the corpus per query wave. Here
the corpus is tokenized ONCE into a postings table (word, doc_id, tf)
written hash-bucketed by word via the SMB layout (smb.write_bucketed —
shuffle-free: every map task splits its own postings by the stable word
hash and appends bucket files). A query then touches ONLY the buckets
its terms hash into — at 32 buckets a 3-term query reads ≤ 3/32 of the
postings, and the fraction falls as the bucket count grows with the
corpus. Nothing vocabulary- or corpus-sized ever reaches the driver:

- build: one streaming pass, per-(doc, word) tf computed inside each
  map task (a doc lives in exactly one input block, so no cross-task
  combine is needed), bucket files appended task-locally;
- search: pruned read → exact per-term document frequencies from the
  postings themselves (terms × 1 rows on the driver) → per-(query, doc)
  partial (matched, score) rows → one bucketed fold keyed by doc —
  conjunctive filter (matched == |terms|) → per-query top-k merge.

Scoring is pinned to keyword_search's exact float expression
(Σ tf·ln(N/df), ROUND(·,6)) so the index-backed plan shares the SAME
DuckDB oracle — two physical plans, one logical result, the same
discipline as the bucketed SEMI/ANTI plan variants.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ocr_agent_ray.pipelines import smb
from ocr_agent_ray.pipelines.joins import stable_bucket_array

_META = "_invindex_meta.json"
INDEX_VERSION = 2


def source_fingerprint(sf_dir: str) -> str:
    """Content fingerprint of the documents table backing an index.

    Hashes the (relative path, size, mtime_ns) of every file under
    ``documents.parquet`` / ``documents.lance`` in ``sf_dir`` — cheap
    stat calls only, no data read — so regenerating the table in place
    invalidates a persisted index built from the old rows."""
    import hashlib

    h = hashlib.sha256()
    for name in ("documents.parquet", "documents.lance"):
        root = os.path.join(sf_dir, name)
        if os.path.isfile(root):
            st = os.stat(root)
            h.update(f"{name}:{st.st_size}:{st.st_mtime_ns}\n".encode())
        elif os.path.isdir(root):
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                for f in sorted(filenames):
                    p = os.path.join(dirpath, f)
                    st = os.stat(p)
                    rel = os.path.relpath(p, sf_dir)
                    h.update(
                        f"{rel}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build_and_swap(final_dir: str, build: Callable[[str], object],
                   is_fresh: Callable[[], bool]) -> None:
    """Build a directory privately, then swap it in at ``final_dir``.

    ``build(tmp)`` writes the complete directory at ``tmp``
    (``<final_dir>.build-<pid>-<uuid>``). The swap then runs under an
    exclusive ``flock`` on ``<final_dir>.lock``: if ``is_fresh()`` (the
    caller's own freshness check of ``final_dir``) now holds, another
    builder installed first and ours is discarded, so a directory that
    passes the check is never moved away under its readers. Otherwise
    the old directory is renamed aside (open handles keep working on
    POSIX), ours is renamed in, and the old one is removed after the
    lock is released. So a reader never sees a half-built directory, and
    on return ``final_dir`` holds a complete build."""
    import shutil
    import uuid

    os.makedirs(os.path.dirname(final_dir) or ".", exist_ok=True)
    suffix = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp = f"{final_dir}.build-{suffix}"
    trash = f"{final_dir}.old-{suffix}"
    try:
        build(tmp)
        with _exclusive_lock(f"{final_dir}.lock"):
            if not is_fresh():
                try:
                    os.rename(final_dir, trash)
                except FileNotFoundError:
                    pass
                os.rename(tmp, final_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(trash, ignore_errors=True)


@contextlib.contextmanager
def _exclusive_lock(path: str):
    """Hold an exclusive ``flock`` on ``path``, and unlink it on release.

    A waiter may wake holding the lock on a file its previous holder has
    already unlinked, so it retries until the file it locked is the one
    at ``path``."""
    import fcntl

    while True:
        f = open(path, "a")
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            if os.stat(path).st_ino == os.fstat(f.fileno()).st_ino:
                break
        except FileNotFoundError:
            pass
        f.close()
    try:
        yield
    finally:
        os.unlink(path)
        f.close()


def build_inverted_index(sf_dir: str, index_dir: str, *,
                         num_buckets: int = 32) -> dict:
    """Tokenize the documents table into a word-bucketed postings layout.

    Layout: ``index_dir/bucket=i/part-*.parquet`` with columns
    (word, doc_id, tf), plus a meta file recording n_docs (the scoring
    constant) and the bucket count. One streaming pass, no shuffle."""
    from ocr_agent_ray.pipelines.text import _read_documents

    docs = _read_documents(sf_dir)
    n_docs = int(docs.count())

    def _postings(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        ex = pd.DataFrame({"doc_id": b["doc_id"], "word": toks}).explode(
            "word").dropna(subset=["word"])
        g = ex.groupby(["word", "doc_id"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "tf"})
        g["tf"] = g["tf"].astype("int64")
        return g

    postings = docs.map_batches(_postings, batch_format="pandas",
                                batch_size=8192)
    manifest = smb.write_bucketed(postings, index_dir, key="word",
                                  num_buckets=num_buckets)
    meta = {"version": INDEX_VERSION, "n_docs": n_docs,
            "num_buckets": num_buckets, "postings": manifest["rows"],
            "source": os.path.abspath(sf_dir),
            "fingerprint": source_fingerprint(sf_dir)}
    with open(os.path.join(index_dir, _META), "w") as f:
        json.dump(meta, f)
    return meta


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, _META)) as f:
        return json.load(f)


def _bucket_of(terms: list[str], num_buckets: int) -> dict[str, int]:
    arr = stable_bucket_array(pa.array(terms, pa.string()), num_buckets)
    return dict(zip(terms, arr.to_numpy(zero_copy_only=False).tolist()))


def search_index(index_dir: str, queries: dict[int, tuple[str, ...]], *,
                 k: int = 20):
    """Conjunctive TF-IDF top-k over the persisted index (pruned read).

    Returns (query_id, doc_id, score) — identical schema, scoring and
    tie-break as text.keyword_search, so both plans share one oracle."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.exchange import key_map_groups

    meta = _load_meta(index_dir)
    n_docs = float(meta["n_docs"])
    terms = sorted({t for q in queries.values() for t in q})
    buckets = sorted(set(_bucket_of(terms, meta["num_buckets"]).values()))

    files = []
    for b in buckets:
        d = os.path.join(index_dir, f"bucket={b}")
        files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    if not files:
        return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                             "doc_id": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="float64")})

    def _filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t.column("word"),
                                 value_set=pa.array(terms, pa.string())))

    hits = rd.read_parquet(files).map_batches(
        _filter, batch_format="pyarrow").materialize()

    # exact df per term: (word, doc_id) rows are globally unique by
    # construction, so df = row count per word; terms × 1 driver rows.
    df_parts = hits.map_batches(
        lambda b: b["word"].value_counts().rename_axis("word")
        .reset_index(name="df"),
        batch_format="pandas", batch_size=None).to_pandas()
    df = df_parts.groupby("word")["df"].sum()
    idf = {t: np.log(n_docs / float(df[t])) for t in terms if t in df.index}

    qitems = sorted(queries.items())

    def _partials(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for qid, qterms in qitems:
            if any(t not in idf for t in qterms):
                continue  # a term matching zero docs -> no conjunctive hit
            sub = b[b["word"].isin(qterms)]
            if not len(sub):
                continue
            w = sub["tf"].to_numpy(dtype=np.float64) * \
                sub["word"].map(idf).to_numpy(dtype=np.float64)
            g = pd.DataFrame({"doc_id": sub["doc_id"].to_numpy(),
                              "matched": np.ones(len(sub), dtype=np.int64),
                              "score": w})
            g = g.groupby("doc_id", as_index=False).sum()
            g.insert(0, "query_id", np.int64(qid))
            out.append(g)
        if not out:
            return pd.DataFrame({
                "query_id": pd.Series(dtype="int64"),
                "doc_id": pd.Series(dtype="int64"),
                "matched": pd.Series(dtype="int64"),
                "score": pd.Series(dtype="float64")})
        return pd.concat(out, ignore_index=True)

    per_doc = hash_partition_aggregate(
        hits.map_batches(_partials, batch_format="pandas",
                         batch_size=65536),
        ["doc_id", "query_id"],
        {"matched": ("matched", "sum"), "score": ("score", "sum")},
        num_buckets=8)

    qsize = {qid: len(qterms) for qid, qterms in qitems}

    def _topk(g: pd.DataFrame) -> pd.DataFrame:
        need = g["query_id"].map(qsize).to_numpy()
        g = g[g["matched"].to_numpy() == need]
        g = g.sort_values(["score", "doc_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        return pd.DataFrame({
            "query_id": g["query_id"].astype("int64"),
            "doc_id": g["doc_id"].astype("int64"),
            "score": round_half_away(g["score"].to_numpy(dtype=np.float64),
                                     6),
        })

    return key_map_groups(per_doc, _topk, key_col="query_id",
                          num_buckets=4)


def indexed_keyword_search(sf_dir: str, *, k: int = 20,
                           index_dir: str | None = None):
    """q_keyword_search's registered queries served from the persisted
    index (built once per sf_dir under /tmp and reused — the bench's
    repeat run measures the warm-index query path)."""
    from ocr_agent_ray.pipelines.text import _SEARCH_QUERIES

    if index_dir is None:
        tag = os.path.abspath(sf_dir).strip("/").replace("/", "_")
        index_dir = f"/tmp/graft_invindex/{tag}"
    want_src = os.path.abspath(sf_dir)
    want_fp = source_fingerprint(sf_dir)

    def _fresh() -> bool:
        try:
            m = _load_meta(index_dir)
        except (json.JSONDecodeError, OSError):
            return False
        return (m.get("version") == INDEX_VERSION
                and m.get("source") == want_src
                and m.get("fingerprint") == want_fp)

    if not _fresh():
        build_and_swap(index_dir,
                       lambda tmp: build_inverted_index(sf_dir, tmp), _fresh)
    return search_index(index_dir, _SEARCH_QUERIES, k=k)

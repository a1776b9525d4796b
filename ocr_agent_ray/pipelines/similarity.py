"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce``: exact top-k cosine. The query matrix is broadcast
  ONCE via ray.put; every batch does one float64 matmul and emits only its
  local top-k per query (partial top-k), so the final groupby(query) sees
  batches*k rows, not N rows — the classic partial-topk reduction.
- ``knn_lsh``: approximate variant — random-hyperplane LSH buckets
  (signature prefix as the probe key) shrink the candidate set; same
  verify-by-cosine tail. Recall is tested against brute force in pytest.

Scores are computed in float64 and rounded to 6 decimals so the DuckDB
``list_cosine_similarity`` oracle (double) hashes identically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from ocr_agent_ray.pipelines.exchange import key_map_groups
from ocr_agent_ray.sources.readers import read_table


def _read_embeddings(sf_dir: str):
    return read_table(sf_dir, "embeddings", ["vec_id", "embedding"])


def _lowest_id_rows(sf_dir: str, k: int) -> pd.DataFrame:
    """(vec_id, embedding) rows holding the k lowest vec_ids (all rows
    when the table holds fewer), in file order, wherever the ids start.
    Two pruned reads: the id column, then only the rows up to the k-th
    smallest id."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"
    ids = np.sort(pq.read_table(path, columns=["vec_id"])["vec_id"]
                  .to_numpy())[:k]
    if not len(ids):
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "embedding": pd.Series(dtype="object")})
    return pq.read_table(
        path, columns=["vec_id", "embedding"],
        filters=[("vec_id", "<=", int(ids[-1]))],
    ).to_pandas()


def _lowest_id_seeds(sf_dir: str, k: int) -> np.ndarray:
    """The (k × dim) float64 vectors of the k lowest vec_ids, wherever
    the ids start — the deterministic init of the Lloyd / PQ / EM
    family. Raises ValueError when the table holds fewer than k
    vectors."""
    rows = _lowest_id_rows(sf_dir, k)
    if len(rows) < k:
        raise ValueError(f"k={k} seeds need at least k vectors, the "
                         f"table holds {len(rows)}")
    seed_tbl = rows.sort_values("vec_id", kind="stable").head(k)
    return np.stack([np.asarray(v, dtype=np.float64)
                     for v in seed_tbl["embedding"]])


def _unit(mat: np.ndarray) -> np.ndarray:
    mat = mat.astype(np.float64)
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _query_matrix(sf_dir: str, num_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, unit vectors) of the ``num_queries`` lowest vec_ids,
    ascending, wherever the ids start."""
    df = _lowest_id_rows(sf_dir, num_queries).sort_values(
        "vec_id", kind="stable").head(num_queries)
    return df["vec_id"].to_numpy(), _unit(np.stack(df["embedding"].to_numpy()))


def knn_bruteforce(sf_dir: str, *, k: int = 5, num_queries: int = 8):
    """Exact top-k cosine neighbors for the query vectors: the
    ``num_queries`` lowest vec_ids.

    Output: (query_id, vec_id, rank, cosine) — self-matches excluded; ties
    broken by vec_id ascending for determinism.
    """
    import ray

    qids, qmat = _query_matrix(sf_dir, num_queries)
    ref = ray.put((qids, qmat))

    def _partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        q_ids, q = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        unit = _unit(np.stack(batch["embedding"].to_numpy()))
        scores = unit @ q.T  # (n, Q)
        out = []
        for qi in range(len(q_ids)):
            s = scores[:, qi]
            mask = ids != q_ids[qi]
            cand_idx = np.nonzero(mask)[0]
            if cand_idx.size == 0:
                continue
            # local top-k: sort by (-score, vec_id)
            order = cand_idx[np.lexsort((ids[cand_idx], -s[cand_idx]))][:k]
            out.append(pd.DataFrame({
                "query_id": q_ids[qi],
                "vec_id": ids[order],
                "cosine": s[order],
            }))
        if not out:
            return pd.DataFrame(columns=["query_id", "vec_id", "cosine"])
        return pd.concat(out, ignore_index=True)

    def _final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["cosine"] = np.round(g["cosine"], 6)
        return g[["query_id", "vec_id", "rank", "cosine"]]

    return key_map_groups(
        _read_embeddings(sf_dir)
        .map_batches(_partial_topk, batch_format="pandas"),
        _final_topk, key_col="query_id", num_buckets=16)


_HYPERPLANE_SEED = 1234567


def _hyperplanes(dim: int, num_bits: int) -> np.ndarray:
    rng = np.random.default_rng(_HYPERPLANE_SEED)
    return rng.standard_normal((num_bits, dim))


def knn_lsh(sf_dir: str, *, k: int = 5, num_queries: int = 8,
            num_tables: int = 8, probe_bits: int = 4):
    """Approximate top-k: random-hyperplane LSH with ``num_tables`` hash
    tables of ``probe_bits`` bits each; a vector is a candidate for a query
    when ANY table bucket matches, and candidates are verified with exact
    cosine (banding amplification, same construction as MinHash-LSH).

    The scale path: the table buckets ARE the partition keys — a 100 TB
    index stores vectors bucketed per table so a probe touches about
    ``num_tables / 2^probe_bits`` of the data. Here the bucket filter runs
    inside map_batches over the stream.
    """
    import ray

    qids, qmat = _query_matrix(sf_dir, num_queries)
    dim = qmat.shape[1]
    planes = _hyperplanes(dim, num_tables * probe_bits)
    qsig = (qmat @ planes.T) > 0  # (Q, tables*bits)
    ref = ray.put((qids, qmat, planes, qsig))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        q_ids, q, pl, qs = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        unit = _unit(np.stack(batch["embedding"].to_numpy()))
        sig = (unit @ pl.T) > 0
        out = []
        for qi in range(len(q_ids)):
            # candidate iff any table's bucket matches the query's
            match = np.zeros(len(ids), dtype=bool)
            for t in range(num_tables):
                band = slice(t * probe_bits, (t + 1) * probe_bits)
                match |= (sig[:, band] == qs[qi, band]).all(axis=1)
            match &= ids != q_ids[qi]
            cand = np.nonzero(match)[0]
            if cand.size == 0:
                continue
            s = unit[cand] @ q[qi]
            order = cand[np.lexsort((ids[cand], -s))][:k]
            sv = unit[order] @ q[qi]
            out.append(pd.DataFrame({
                "query_id": q_ids[qi], "vec_id": ids[order], "cosine": sv,
            }))
        if not out:
            return pd.DataFrame(columns=["query_id", "vec_id", "cosine"])
        return pd.concat(out, ignore_index=True)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["cosine"] = np.round(g["cosine"], 6)
        return g[["query_id", "vec_id", "rank", "cosine"]]

    return key_map_groups(
        _read_embeddings(sf_dir)
        .map_batches(_partial, batch_format="pandas"),
        _final, key_col="query_id", num_buckets=16)


def _ivf_centroids(sf_dir: str, num_lists: int, sample_rows: int = 4096,
                   iters: int = 10) -> np.ndarray:
    """Deterministic mini k-means over a pruned sample read: seeded
    kmeans++-lite init (first k of a seeded shuffle), Lloyd iterations in
    numpy. The sample (the ``sample_rows`` lowest ids) is tiny and read
    once — the 100 TB analog trains centroids on a fixed sample shard,
    never the full corpus."""
    mat = _unit(np.stack(
        _lowest_id_rows(sf_dir, sample_rows)["embedding"].to_numpy()))
    rng = np.random.default_rng(424242)
    init = rng.permutation(len(mat))[:num_lists]
    cent = mat[init].copy()
    for _ in range(iters):
        assign = (mat @ cent.T).argmax(axis=1)          # cosine on unit vecs
        for c in range(num_lists):
            members = mat[assign == c]
            if len(members):
                m = members.mean(axis=0)
                norm = np.linalg.norm(m)
                if norm:
                    cent[c] = m / norm
    return cent


def knn_ivf(sf_dir: str, *, k: int = 5, num_queries: int = 8,
            num_lists: int = 16, nprobe: int = 4):
    """Approximate top-k via an IVF (inverted-file) index: vectors are
    assigned to their nearest of ``num_lists`` centroids; a query probes
    only its ``nprobe`` closest lists. The scale path of SURVEY §2's ANN
    entry alongside knn_lsh — at 100 TB the corpus is PARTITIONED by list
    id (one partition family per centroid), so a probe reads
    nprobe/num_lists of the data; here list assignment + probe filtering
    run inside the same map_batches over the stream.

    Deterministic (seeded centroids); recall vs exact brute force is
    pytest-asserted. Rows-only for the driver (approximate by design).
    """
    import ray

    qids, qmat = _query_matrix(sf_dir, num_queries)
    cent = _ivf_centroids(sf_dir, num_lists)
    qlists = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    ref = ray.put((qids, qmat, cent, qlists))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        q_ids, q, c, ql = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        unit = _unit(np.stack(batch["embedding"].to_numpy()))
        assign = (unit @ c.T).argmax(axis=1)
        out = []
        for qi in range(len(q_ids)):
            match = np.isin(assign, ql[qi]) & (ids != q_ids[qi])
            cand = np.nonzero(match)[0]
            if cand.size == 0:
                continue
            s = unit[cand] @ q[qi]
            order = cand[np.lexsort((ids[cand], -s))][:k]
            out.append(pd.DataFrame({
                "query_id": q_ids[qi], "vec_id": ids[order],
                "cosine": unit[order] @ q[qi],
            }))
        if not out:
            return pd.DataFrame(columns=["query_id", "vec_id", "cosine"])
        return pd.concat(out, ignore_index=True)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["cosine"] = np.round(g["cosine"], 6)
        return g[["query_id", "vec_id", "rank", "cosine"]]

    return key_map_groups(
        _read_embeddings(sf_dir)
        .map_batches(_partial, batch_format="pandas"),
        _final, key_col="query_id", num_buckets=16)


def knn_graph_ivf(sf_dir: str, *, k: int = 5, num_lists: int = 16,
                  nprobe: int = 8):
    """Approximate kNN GRAPH — top-k cosine neighbors for EVERY vector,
    the building block under SemDeDup pruning, kNN classification and
    graph-based dedup. The exact graph is inherently O(n²); the scale
    path blocks it with the same IVF layout as ``knn_ivf``: every vector
    lands in ONE member bucket (its nearest of ``num_lists`` sampled
    centroids) and probes its ``nprobe`` closest lists as a query, so
    each bucket runs one local (queries × members) matmul and the
    all-pairs product never happens (work ≈ n²·nprobe/num_lists, spread
    across buckets; at 100 TB each list is a partition family). Local
    top-k is deterministic: bucket members sort by vec_id, stable
    argsort breaks cosine ties by id. A second keyed reduce merges each
    vector's ≤ nprobe×k candidates (lists are disjoint, so no duplicate
    neighbors) into the global top-k. Rows-only (approximate by design);
    recall vs the exact brute-force graph and cross-run determinism are
    pytest-asserted."""
    import ray

    cent = _ivf_centroids(sf_dir, num_lists)
    ref = ray.put(cent)

    def _route(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({"list_id": pd.Series(dtype="int64"),
                                 "role": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "embedding": pd.Series(dtype="object")})
        c = ray.get(ref)
        ids = batch["vec_id"].to_numpy(dtype=np.int64)
        unit = _unit(np.stack(batch["embedding"].to_numpy()))
        order = np.argsort(-(unit @ c.T), axis=1)[:, :nprobe]  # (n, nprobe)
        # plain lists → arrow list<double>: an object column of np arrays
        # triggers Ray's tensor-extension re-encoding (NOTES.md gotcha)
        emb = pd.Series([v.tolist() for v in unit], dtype="object")
        frames = [pd.DataFrame({  # member: the nearest list only
            "list_id": order[:, 0], "role": 0, "vec_id": ids,
            "embedding": emb})]
        for r in range(nprobe):  # query: all probed lists (incl. its own)
            frames.append(pd.DataFrame({
                "list_id": order[:, r], "role": 1, "vec_id": ids,
                "embedding": emb}))
        return pd.concat(frames, ignore_index=True)

    def _local_topk(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                              "nbr_id": pd.Series(dtype="int64"),
                              "cosine": pd.Series(dtype="float64")})
        mem = bucket[bucket["role"] == 0].sort_values("vec_id")
        qry = bucket[bucket["role"] == 1]
        if mem.empty or qry.empty:
            return empty
        m_ids = mem["vec_id"].to_numpy(dtype=np.int64)
        m_mat = np.stack(mem["embedding"].to_numpy())
        q_ids = qry["vec_id"].to_numpy(dtype=np.int64)
        q_mat = np.stack(qry["embedding"].to_numpy())
        s = q_mat @ m_mat.T
        s[q_ids[:, None] == m_ids[None, :]] = -np.inf  # mask self
        # members are vec_id-sorted, so a stable argsort of -s breaks
        # cosine ties by neighbor id — deterministic local cut
        top = np.argsort(-s, axis=1, kind="stable")[:, :k]
        rows = np.repeat(np.arange(len(q_ids)), top.shape[1])
        cols = top.ravel()
        keep = np.isfinite(s[rows, cols])
        return pd.DataFrame({
            "vec_id": q_ids[rows[keep]],
            "nbr_id": m_ids[cols[keep]],
            "cosine": s[rows[keep], cols[keep]],
        })

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "nbr_id"],
                          ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        return pd.DataFrame({
            "vec_id": g["vec_id"].astype("int64"),
            "nbr_id": g["nbr_id"].astype("int64"),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            "cosine": np.round(g["cosine"].to_numpy(), 6),
        })

    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    routed = _read_embeddings(sf_dir).map_batches(
        _route, batch_format="pandas", batch_size=65536)
    local = bucket_map_groups(routed, _local_topk, bucket_col="list_id",
                              num_buckets=num_lists)
    return key_map_groups(local, _merge, key_col="vec_id", num_buckets=16)


def _pq_train_sample(sf_dir: str, m: int, codebook_k: int,
                     sample_rows: int = 4096, iters: int = 8):
    """Train the m sub-space PQ codebooks on the same pruned sample read
    the IVF coarse quantizer uses (at 100 TB: a fixed sample shard).
    Vectors are unit-normalized FIRST so L2-on-units is monotone with
    cosine and the ADC scores approximate cosine directly. Returns
    ``(m, codebook_k, dim//m)`` float64 codebooks, deterministic."""
    mat = _unit(np.stack(
        _lowest_id_rows(sf_dir, sample_rows)["embedding"].to_numpy()))
    dim = mat.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    rng = np.random.default_rng(777777)
    books = np.empty((m, codebook_k, sub))
    for s in range(m):
        x = mat[:, s * sub:(s + 1) * sub]
        cent = x[rng.permutation(len(x))[:codebook_k]].copy()
        for _ in range(iters):
            d2 = ((x * x).sum(1)[:, None] - 2 * x @ cent.T
                  + (cent * cent).sum(1)[None, :])
            a = d2.argmin(axis=1)
            for c in range(codebook_k):
                members = x[a == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[s] = cent
    return books


def knn_ivf_pq(sf_dir: str, *, k: int = 5, num_queries: int = 8,
               num_lists: int = 16, nprobe: int = 4, m: int = 8,
               codebook_k: int = 16, rerank: int = 4):
    """IVF coarse probe + product-quantization ADC scoring + exact
    re-rank — the standard billion-vector ANN serving layout (IVF-PQ,
    Jégou et al. TPAMI'11; the composition knn_ivf and pq_codes each
    demonstrate half of). Per streaming batch: assign vectors to their
    nearest coarse centroid, keep those in a query's ``nprobe`` probed
    lists, PQ-encode the candidates ONCE (m uint8 codes each), score all
    queries against the codes via per-query lookup tables (asymmetric
    distance: table[s][code] = q_sub · codebook[s][code], summed over
    sub-spaces — no full-vector math per candidate), take the top
    ``rerank``×k by approximate score and re-rank EXACTLY with the full
    vectors still in the batch. Only the per-batch top-k partials hit
    the wire; driver/broadcast state is centroids + codebooks + query
    tables (m×codebook_k floats per query). At 100 TB the PQ codes are
    the resident index (32× smaller than float32 vectors) and the exact
    re-rank reads only the top candidates' full vectors.

    Deterministic; recall vs knn_bruteforce is pytest-asserted.
    Rows-only for the driver (approximate by design)."""
    import ray

    from ocr_agent_ray.pipelines.exchange import key_map_groups

    qids, qmat = _query_matrix(sf_dir, num_queries)
    cent = _ivf_centroids(sf_dir, num_lists)
    books = _pq_train_sample(sf_dir, m, codebook_k)
    sub = books.shape[2]
    qlists = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]
    # ADC tables: qtab[q, s, c] = q_sub(s) · codebook[s][c]
    qtab = np.einsum("qsd,scd->qsc", qmat.reshape(len(qids), m, sub), books)
    ref = ray.put((qids, qmat, cent, qlists, books, qtab))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                              "vec_id": pd.Series(dtype="int64"),
                              "cosine": pd.Series(dtype="float64")})
        if len(batch) == 0:
            return empty
        q_ids, q, c, ql, bk, qt = ray.get(ref)
        ids = batch["vec_id"].to_numpy()
        unit = _unit(np.stack(batch["embedding"].to_numpy()))
        assign = (unit @ c.T).argmax(axis=1)
        # PQ-encode the whole batch once: codes (N, m) uint8 — the dtype
        # IS the 32x-compression claim (codebook_k=16 fits in one byte;
        # int64 here would make the resident index 8x the advertised size)
        assert codebook_k <= 256
        codes = np.empty((len(unit), m), dtype=np.uint8)
        for s in range(m):
            x = unit[:, s * sub:(s + 1) * sub]
            d2 = ((x * x).sum(1)[:, None] - 2 * x @ bk[s].T
                  + (bk[s] * bk[s]).sum(1)[None, :])
            codes[:, s] = d2.argmin(axis=1)
        out = []
        for qi in range(len(q_ids)):
            match = np.isin(assign, ql[qi]) & (ids != q_ids[qi])
            cand = np.nonzero(match)[0]
            if cand.size == 0:
                continue
            # asymmetric distance: approx cosine from code lookups only
            approx = qt[qi][np.arange(m)[None, :], codes[cand]].sum(axis=1)
            top = cand[np.argsort(-approx, kind="stable")[:rerank * k]]
            s = unit[top] @ q[qi]                       # exact re-rank
            order = top[np.lexsort((ids[top], -s))][:k]
            out.append(pd.DataFrame({
                "query_id": q_ids[qi], "vec_id": ids[order],
                "cosine": unit[order] @ q[qi],
            }))
        if not out:
            return empty
        return pd.concat(out, ignore_index=True)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["cosine"] = np.round(g["cosine"], 6)
        return g[["query_id", "vec_id", "rank", "cosine"]]

    return key_map_groups(
        _read_embeddings(sf_dir)
        .map_batches(_partial, batch_format="pandas"),
        _final, key_col="query_id", num_buckets=16)


def embedding_norms(sf_dir: str):
    """Per-vector L2 norm / mean — list-column compute parity (the
    embedding-hygiene pass before cosine ops: zero-norm and out-of-scale
    vectors surface here). Pure per-batch map: stack to a matrix, two
    vectorized reductions, no shuffle."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    from ocr_agent_ray.functions.textstats import round_half_away

    def _norms(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        return pd.DataFrame({
            "vec_id": batch["vec_id"],
            "dim": np.full(len(batch), mat.shape[1], dtype=np.int64),
            "l2_norm": round_half_away(np.sqrt((mat * mat).sum(axis=1)), 6),
            "mean_v": round_half_away(mat.mean(axis=1), 6),
        })

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"]).map_batches(
        _norms, batch_format="pandas")


def quantize_embeddings(sf_dir: str):
    """Per-dimension int8 (0..255) min-max quantization of the embedding
    column — the storage-compression prep for vector indexes. Two
    phases: per-dim (min, max) folds as a tiny mergeable partial
    (dim-sized vectors per batch), then a broadcast quantize map.
    Emitted long-form (vec_id, dim, q) so the SQL oracle can express the
    same arithmetic via double unnest; q = clip(round_half_away(
    (v - min) / scale)) with scale = (max - min) / 255."""
    import numpy as np
    import pandas as pd

    import ray
    import ray.data as rd

    from ocr_agent_ray.functions.textstats import round_half_away

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def _minmax(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        return pd.DataFrame({"mins": [mat.min(axis=0).tobytes()],
                             "maxs": [mat.max(axis=0).tobytes()]})

    mins = None
    maxs = None
    for b in ds.map_batches(_minmax, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=1024
    ):
        for mb, xb in zip(b["mins"], b["maxs"]):
            m = np.frombuffer(mb, np.float64)
            x = np.frombuffer(xb, np.float64)
            mins = m if mins is None else np.minimum(mins, m)
            maxs = x if maxs is None else np.maximum(maxs, x)
    scale = (maxs - mins) / 255.0
    scale[scale == 0] = 1.0
    ref = ray.put((mins, scale))

    def _quant(batch: pd.DataFrame) -> pd.DataFrame:
        lo, sc = ray.get(ref)
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        q = np.clip(round_half_away((mat - lo) / sc, 0), 0, 255)
        n, d = q.shape
        return pd.DataFrame({
            "vec_id": np.repeat(batch["vec_id"].to_numpy(), d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64), n),
            "q": q.ravel().astype("int64"),
        })

    return ds.map_batches(_quant, batch_format="pandas")


def pq_codes(sf_dir: str, *, m: int = 8, k: int = 16, iters: int = 3):
    """Product quantization (Jégou et al., TPAMI'11): split each vector
    into ``m`` sub-vectors and k-means each sub-space, so a vector
    compresses to m small codes. All m sub-quantizers train TOGETHER —
    one streaming pass per Lloyd round computes per-(subspace, cluster)
    (sum, count) partials for every subspace at once (driver state:
    m × k × subdim floats), then one final pass assigns codes.

    Deterministic init (sub-vectors of the k lowest vec_ids). Returns
    long-form (vec_id, subspace, code); rows-only (iterative), with a
    reconstruction-error pytest. This + IVF is the standard
    billion-vector ANN memory layout."""
    import numpy as np
    import pandas as pd

    import ray
    import ray.data as rd

    seeds = _lowest_id_seeds(sf_dir, k)
    dim = seeds.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    # centroids[s]: (k, sub) for subspace s
    cents = np.stack([seeds[:, s * sub:(s + 1) * sub] for s in range(m)])

    def _partials_fn(cref):
        def _partials(batch: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)          # (m, k, sub)
            mat = np.stack([np.asarray(v, dtype=np.float32)
                            for v in batch["embedding"]]).astype(np.float64)
            rows = []
            for s in range(m):
                x = mat[:, s * sub:(s + 1) * sub]
                d2 = ((x * x).sum(1)[:, None] - 2 * x @ c[s].T
                      + (c[s] * c[s]).sum(1)[None, :])
                a = d2.argmin(axis=1)
                for cl in np.unique(a):
                    msk = a == cl
                    rows.append((s, int(cl), x[msk].sum(axis=0).tobytes(),
                                 int(msk.sum())))
            return pd.DataFrame({
                "s": [r[0] for r in rows], "cl": [r[1] for r in rows],
                "vsum": [r[2] for r in rows], "n": [r[3] for r in rows],
            })

        return _partials

    for _ in range(iters):
        cref = ray.put(cents)
        sums = np.zeros_like(cents)
        counts = np.zeros((m, k), dtype=np.int64)
        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                             columns=["embedding"])
        for b in ds.map_batches(_partials_fn(cref),
                                batch_format="pandas").iter_batches(
            batch_format="pandas", batch_size=4096
        ):
            for s, cl, vs, n in zip(b["s"], b["cl"], b["vsum"], b["n"]):
                sums[s, cl] += np.frombuffer(vs, dtype=np.float64)
                counts[s, cl] += int(n)
        nz = counts > 0
        cents[nz] = sums[nz] / counts[nz][:, None]

    cref = ray.put(cents)

    def _assign(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        codes = np.empty((len(mat), m), dtype=np.int64)
        for s in range(m):
            x = mat[:, s * sub:(s + 1) * sub]
            d2 = ((x * x).sum(1)[:, None] - 2 * x @ c[s].T
                  + (c[s] * c[s]).sum(1)[None, :])
            codes[:, s] = d2.argmin(axis=1)
        return pd.DataFrame({
            "vec_id": np.repeat(batch["vec_id"].to_numpy(), m),
            "subspace": np.tile(np.arange(m, dtype=np.int64), len(mat)),
            "code": codes.ravel(),
        })

    out = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).map_batches(
        _assign, batch_format="pandas")
    return out


def _covariance_fold(sf_dir: str):
    """Shared (mean, population covariance, n) fold over the embedding
    column: each batch contributes (Σx, Σ x xᵀ, n) partials (one matmul
    per batch); the driver combines k·(dim² + dim) floats regardless of
    corpus size. Used by embedding_covariance and pca_project."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        return pd.DataFrame({
            "xtx": [(mat.T @ mat).tobytes()],
            "xsum": [mat.sum(axis=0).tobytes()],
            "n": [len(mat)],
            "dim": [mat.shape[1]],
        })

    xtx = None
    xsum = None
    n = 0
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["embedding"])
    for b in ds.map_batches(_partial, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=1024
    ):
        for tb, sb, bn, dim in zip(b["xtx"], b["xsum"], b["n"], b["dim"]):
            t = np.frombuffer(tb, np.float64).reshape(dim, dim)
            s = np.frombuffer(sb, np.float64)
            xtx = t if xtx is None else xtx + t
            xsum = s if xsum is None else xsum + s
            n += int(bn)

    mean = xsum / n
    cov = xtx / n - np.outer(mean, mean)
    return mean, cov, n


def embedding_covariance(sf_dir: str):
    """Covariance matrix of the embedding columns — the distributed
    linear-algebra fold behind whitening / PCA preprocessing (see
    _covariance_fold). Emitted long-form (i, j, cov) with 1-based dims so
    the SQL oracle can express it via double unnest; population
    covariance (divide by n)."""
    import numpy as np
    import pandas as pd

    from ocr_agent_ray.functions.textstats import round_half_away

    mean, cov, _ = _covariance_fold(sf_dir)
    d = len(mean)
    ii, jj = np.meshgrid(np.arange(1, d + 1), np.arange(1, d + 1),
                         indexing="ij")
    return pd.DataFrame({
        "i": ii.ravel().astype("int64"),
        "j": jj.ravel().astype("int64"),
        "cov": round_half_away(cov.ravel(), 6),
    })


def pca_project(sf_dir: str, *, k: int = 4):
    """PCA projection onto the top-k principal components — the
    dimensionality-reduction stage in front of clustering / ANN: the
    covariance fold (_covariance_fold, dim² driver state) trains the
    components, eigenvectors are sign-normalized (the largest-|loading|
    coordinate made positive, so the output is deterministic across
    eigensolver sign flips) and broadcast, and the projection streams as
    one batch matmul per block. Not SQL-expressible (eigendecomposition)
    → rows-only driver check; pytest compares against a dense numpy PCA
    including explained-variance ordering."""
    import numpy as np
    import pandas as pd

    import ray
    import ray.data as rd

    from ocr_agent_ray.functions.textstats import round_half_away

    mean, cov, _ = _covariance_fold(sf_dir)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order]  # dim × k
    sel = np.argmax(np.abs(comps), axis=0)
    signs = np.sign(comps[sel, np.arange(comps.shape[1])])
    signs[signs == 0] = 1.0
    comps = comps * signs
    ref = ray.put((mean, comps))

    def _project(batch: pd.DataFrame) -> pd.DataFrame:
        m, c = ray.get(ref)
        mat = np.stack([np.asarray(x, dtype=np.float32)
                        for x in batch["embedding"]]).astype(np.float64)
        proj = (mat - m) @ c
        out = {"vec_id": batch["vec_id"].astype("int64")}
        for j in range(proj.shape[1]):
            out[f"pc{j}"] = round_half_away(proj[:, j], 6)
        return pd.DataFrame(out)

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return ds.map_batches(_project, batch_format="pandas")


def label_centroids(sf_dir: str):
    """Per-label embedding centroids — the k-means/IVF training step as a
    vector aggregation: each batch stacks its vectors into one matrix and
    emits per-label (sum-vector, count) partials; the driver combines the
    tiny (labels × dim) table. Emitted long-form (label, dim, mean_v) so
    the SQL oracle can express it via unnest + ordinality."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    from ocr_agent_ray.functions.textstats import round_half_away

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["label", "embedding"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float32) for v in batch["embedding"]])
        mat = mat.astype(np.float64)
        out = []
        for lab, idx in batch.groupby("label").indices.items():
            out.append((lab, mat[idx].sum(axis=0), len(idx)))
        return pd.DataFrame({
            "label": [o[0] for o in out],
            "vsum": [o[1].tobytes() for o in out],
            "n": [o[2] for o in out],
        })

    sums: dict = {}
    counts: dict = {}
    for b in ds.map_batches(_partial, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=4096
    ):
        for lab, vs, n in zip(b["label"], b["vsum"], b["n"]):
            v = np.frombuffer(vs, dtype=np.float64)
            if lab in sums:
                sums[lab] = sums[lab] + v
                counts[lab] += int(n)
            else:
                sums[lab] = v.copy()
                counts[lab] = int(n)

    rows_l, rows_d, rows_v = [], [], []
    for lab in sorted(sums):
        mean = sums[lab] / counts[lab]
        dim = len(mean)
        rows_l.extend([lab] * dim)
        rows_d.extend(range(1, dim + 1))          # 1-based like SQL subscripts
        rows_v.extend(round_half_away(mean, 6))
    return pd.DataFrame({
        "label": pd.array(rows_l, dtype="int32"),
        "dim": pd.array(rows_d, dtype="int64"),
        "mean_v": rows_v,
    })


def kmeans_embeddings(sf_dir: str, *, k: int = 8, iters: int = 5):
    """Lloyd's k-means over the embedding column — the iterative-algorithm
    pattern on Ray Data: per round, ONE streaming pass assigns each batch
    to centroids (vectorized argmin over a broadcast (k × dim) matrix)
    and emits per-cluster (sum, count, sse) partials; the driver updates
    the tiny centroid table. Initialization is deterministic (the k
    lowest vec_ids), so runs are reproducible. Returns one row per
    cluster: (cluster, size, inertia) after ``iters`` rounds.

    Scale shape: the data is read per round but never shuffled; the only
    driver state is k × dim floats. Empty clusters keep their previous
    centroid (standard Lloyd fallback)."""
    centroids = _lowest_id_seeds(sf_dir, k)
    return _lloyd_rounds(sf_dir, centroids, k, iters)[1]


def train_kmeans_centroids(sf_dir: str, *, k: int = 8,
                           iters: int = 3) -> "np.ndarray":
    """Run the same deterministic Lloyd rounds and return the (k × dim)
    centroid matrix itself — the training half of SemDeDup / IVF."""
    centroids = _lowest_id_seeds(sf_dir, k)
    return _lloyd_rounds(sf_dir, centroids, k, iters)[0]


def _lloyd_rounds(sf_dir: str, centroids, k: int, iters: int):
    import numpy as np
    import pandas as pd

    import ray
    import ray.data as rd

    def _partials_fn(cref):
        def _partials(batch: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            mat = np.stack([np.asarray(v, dtype=np.float32)
                            for v in batch["embedding"]]).astype(np.float64)
            # pairwise squared distances via the expansion trick
            d2 = ((mat * mat).sum(1)[:, None] - 2 * mat @ c.T
                  + (c * c).sum(1)[None, :])
            assign = d2.argmin(axis=1)
            sse = d2[np.arange(len(mat)), assign]
            rows = []
            for cl in np.unique(assign):
                m = assign == cl
                rows.append((int(cl), mat[m].sum(axis=0).tobytes(),
                             int(m.sum()), float(sse[m].sum())))
            return pd.DataFrame({
                "cluster": [r[0] for r in rows],
                "vsum": [r[1] for r in rows],
                "n": [r[2] for r in rows],
                "sse": [r[3] for r in rows],
            })

        return _partials

    sizes = np.zeros(k, dtype=np.int64)
    inertia = np.zeros(k, dtype=np.float64)
    for _ in range(iters):
        cref = ray.put(centroids)
        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                             columns=["embedding"])
        sums = np.zeros_like(centroids)
        sizes = np.zeros(k, dtype=np.int64)
        inertia = np.zeros(k, dtype=np.float64)
        for b in ds.map_batches(_partials_fn(cref),
                                batch_format="pandas").iter_batches(
            batch_format="pandas", batch_size=4096
        ):
            for cl, vs, n, sse in zip(b["cluster"], b["vsum"], b["n"], b["sse"]):
                sums[cl] += np.frombuffer(vs, dtype=np.float64)
                sizes[cl] += int(n)
                inertia[cl] += float(sse)
        nonempty = sizes > 0
        centroids[nonempty] = sums[nonempty] / sizes[nonempty, None]

    return centroids, pd.DataFrame({
        "cluster": np.arange(k, dtype=np.int64),
        "size": sizes,
        "inertia": np.round(inertia, 4),
    })


def embedding_outliers(sf_dir: str):
    """Per-vector outlier score: L2 distance to the vector's LABEL
    centroid, z-scored within the label — the embedding-hygiene pass
    that surfaces mislabeled / corrupt vectors before they poison
    semantic dedup or k-means. Three bounded phases: (1) per-label
    (sum-vector, count) partials -> labels × dim centroid state on the
    driver (broadcast); (2) one streaming distance pass (the narrow
    (vec_id, label, dist) result materializes — 3 columns, spills fine);
    (3) per-label distance moments (n, Σd, Σd²) fold driver-side and the
    z-score is a final broadcast map. Oracle: the same centroid/distance
    /moment algebra in SQL (unnest + AVG + stddev_samp), agreeing after
    round-6."""
    import numpy as np
    import pandas as pd

    import ray
    import ray.data as rd

    from ocr_agent_ray.functions.textstats import round_half_away

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        out = []
        for lab, idx in batch.groupby("label").indices.items():
            out.append((lab, mat[idx].sum(axis=0), len(idx)))
        return pd.DataFrame({
            "label": [o[0] for o in out],
            "vsum": [o[1].tobytes() for o in out],
            "n": [o[2] for o in out],
        })

    sums: dict = {}
    counts: dict = {}
    for b in ds.map_batches(_partial, batch_format="pandas").iter_batches(
            batch_format="pandas", batch_size=None):
        for lab, vs, n in zip(b["label"], b["vsum"], b["n"]):
            v = np.frombuffer(vs, dtype=np.float64)
            if lab in sums:
                sums[lab] = sums[lab] + v
                counts[lab] += int(n)
            else:
                sums[lab] = v.copy()
                counts[lab] = int(n)
    cents = {lab: sums[lab] / counts[lab] for lab in sums}
    cref = ray.put(cents)

    def _dist(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        mat = np.stack([np.asarray(v, dtype=np.float32)
                        for v in batch["embedding"]]).astype(np.float64)
        labs = batch["label"].to_numpy()
        cmat = np.stack([c[lab] for lab in labs])
        d = np.sqrt(((mat - cmat) ** 2).sum(axis=1))
        return pd.DataFrame({
            "vec_id": batch["vec_id"],
            "label": labs,
            "dist": d,
        })

    dists = ds.map_batches(_dist, batch_format="pandas").materialize()

    def _moments(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("label", sort=False)["dist"]
        out = g.agg(["count", "sum"]).reset_index()
        out["sumsq"] = g.apply(lambda x: (x ** 2).sum()).reset_index(
            drop=True)
        return out.rename(columns={"count": "n", "sum": "s"})

    m = pd.concat(
        [b for b in dists.map_batches(_moments, batch_format="pandas")
            .iter_batches(batch_format="pandas", batch_size=None)],
        ignore_index=True).groupby("label").sum()
    stats = {}
    for lab, row in m.iterrows():
        n, s, ss = float(row["n"]), float(row["s"]), float(row["sumsq"])
        mean = s / n
        var = (ss - n * mean * mean) / (n - 1) if n > 1 else float("nan")
        stats[lab] = (mean, np.sqrt(var))
    sref = ray.put(stats)

    def _z(b: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(sref)
        mu = np.fromiter((st[lab][0] for lab in b["label"]),
                         dtype=np.float64, count=len(b))
        sd = np.fromiter((st[lab][1] for lab in b["label"]),
                         dtype=np.float64, count=len(b))
        # degenerate labels: n==1 (sample var undefined) or zero variance
        # yield z = NaN, mirroring the SQL oracle's NULL semantics
        # (stddev_samp NULL on one row; NULLIF(sd, 0) on constant dists)
        sd = np.where(np.isfinite(sd) & (sd > 0), sd, np.nan)
        return pd.DataFrame({
            "vec_id": b["vec_id"],
            "label": b["label"].astype("int32"),
            "dist": round_half_away(b["dist"].to_numpy(), 6),
            "z": round_half_away((b["dist"].to_numpy() - mu) / sd, 6),
        })

    return dists.map_batches(_z, batch_format="pandas")


def rrf_hybrid_search(sf_dir: str, *, k_arm: int = 20, k_out: int = 10,
                      rrf_k: int = 60, num_queries: int = 3):
    """Hybrid retrieval via Reciprocal Rank Fusion (Cormack/Clarke/
    Buettcher, SIGIR'09) — the standard lexical ⊕ dense combiner in
    modern retrieval stacks: fuse the BM25 top-``k_arm`` ranking over
    ``documents`` with the exact-cosine top-``k_arm`` ranking over
    ``embeddings`` (the synthetic corpus keys ``vec_id`` to
    ``doc_id`` 1:1; the dense query vector for query q is the
    embedding with ``vec_id == q``, mirroring ``knn_bruteforce``).

        rrf(d) = Σ_arm [d ∈ top-k_arm]  · 1 / (rrf_k + rank_arm(d))

    Both arms are the distributed part (BM25's two bounded corpus
    passes; brute-force cosine's partial-topk matmul reduction); the
    fusion itself runs on the bounded union of the two top-k lists
    (≤ 2·Q·k_arm rows REGARDLESS of corpus size), so driver residency
    is by construction, not by accident. Lexical ranks order by the
    arm's ROUNDED score (the arm's output contract) then doc_id;
    semantic ranks come from the arm itself. Absent-arm rank is 0
    (COALESCE'd to 0 in the twin so int columns stay non-null).
    Columns: query_id, doc_id, fused_rank, rrf_score, lex_rank,
    sem_rank."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.text import bm25_search

    lex = bm25_search(sf_dir, k=k_arm).to_pandas()
    lex = lex[lex["query_id"] < num_queries]
    lex = lex.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True])
    lex["lex_rank"] = lex.groupby("query_id").cumcount() + 1
    sem = knn_bruteforce(sf_dir, k=k_arm,
                         num_queries=num_queries).to_pandas()
    # BM25 query q pairs with vec_id q: dense queries that are not BM25
    # queries (a table whose ids start above num_queries) drop out
    sem = sem[sem["query_id"] < num_queries]
    sem = sem.rename(columns={"vec_id": "doc_id", "rank": "sem_rank"})
    f = lex[["query_id", "doc_id", "lex_rank"]].merge(
        sem[["query_id", "doc_id", "sem_rank"]],
        on=["query_id", "doc_id"], how="outer")
    lr = f["lex_rank"].fillna(0).to_numpy(np.int64)
    sr = f["sem_rank"].fillna(0).to_numpy(np.int64)
    rrf = (np.where(lr > 0, 1.0 / (np.float64(rrf_k) + lr), 0.0)
           + np.where(sr > 0, 1.0 / (np.float64(rrf_k) + sr), 0.0))
    f["lex_rank"], f["sem_rank"], f["rrf_score"] = lr, sr, rrf
    f = f.sort_values(["query_id", "rrf_score", "doc_id"],
                      ascending=[True, False, True])
    f["fused_rank"] = (f.groupby("query_id").cumcount() + 1).astype("int64")
    out = f[f["fused_rank"] <= k_out].reset_index(drop=True)
    out["rrf_score"] = round_half_away(out["rrf_score"].to_numpy(), 6)
    return out[["query_id", "doc_id", "fused_rank", "rrf_score",
                "lex_rank", "sem_rank"]].astype(
        {"query_id": "int64", "doc_id": "int64"})


def _flat_unit_matrix(tbl) -> tuple[np.ndarray, np.ndarray]:
    """(ids, float64 unit matrix) from an arrow table — the list<float>
    column flattens ZERO-COPY to one contiguous values buffer and
    reshapes, never materializing one ndarray object per row (the 10×
    overhead the first tile-exchange draft paid)."""
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    arr = tbl.column("embedding").combine_chunks()
    vals = arr.flatten().to_numpy(zero_copy_only=False)
    mat = vals.reshape(len(ids), len(vals) // max(len(ids), 1))
    return ids, _unit(mat)


def _allpairs_cosine_edges(sf_dir: str, *, cos_threshold: float,
                           num_blocks: int):
    """Exact all-pairs cosine edge list (vec_id_a < vec_id_b, cosine ≥
    threshold) as a Dataset of id pairs.

    The Dataset API cannot express a self-cross-product without
    replicating one side through a shuffle (the first draft paid
    num_blocks× replication plus per-row ndarray conversions), so this
    drops to raw Ray tasks — the documented escape hatch for shared
    read-only state: each block (vec_id mod num_blocks) is packed ONCE
    into the object store as (ids, contiguous float64 unit matrix) and
    every tile task reads its two blocks zero-copy from shared plasma
    memory; the table crosses the wire once, not num_blocks times, and
    the tile work is a pure dgemm. Cosines stay float64 so the
    threshold comparison matches the DuckDB twin bit-for-bit. At
    100 TB the pack reads are partition-pruned (hash-partitioned
    layout keyed by the same block id — the smb.write_bucketed
    discipline); against this repo's single-file tables each pack
    task reads the one file column-pruned and filters its block.
    Exact all-pairs is inherently quadratic — the ANN siblings
    (knn_lsh / knn_ivf) are the approximate path when that cost is
    unacceptable."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    import ray
    import ray.data as _rd

    B = int(num_blocks)
    path = f"{sf_dir}/embeddings.parquet"

    @ray.remote
    def _pack(b: int):
        t = pq_mod.read_table(path, columns=["vec_id", "embedding"])
        ids, unit = _flat_unit_matrix(t)
        m = ids % B == b
        return ids[m], unit[m]

    @ray.remote
    def _tile(blk_a, blk_b, same: bool):
        ids_a, ua = blk_a
        ids_b, ub = blk_b
        if ids_a.size == 0 or ids_b.size == 0:
            return pa.table({"vec_id_a": pa.array([], pa.int64()),
                             "vec_id_b": pa.array([], pa.int64())})
        cos = ua @ ub.T
        if same:
            ia, jb = np.triu_indices(len(ids_a), k=1)
            keep = cos[ia, jb] >= cos_threshold
            a, bb = ids_a[ia[keep]], ids_b[jb[keep]]
        else:
            ia, jb = np.nonzero(cos >= cos_threshold)
            a, bb = ids_a[ia], ids_b[jb]
        lo = np.minimum(a, bb)
        hi = np.maximum(a, bb)
        return pa.table({"vec_id_a": pa.array(lo, pa.int64()),
                         "vec_id_b": pa.array(hi, pa.int64())})

    blocks = [_pack.remote(b) for b in range(B)]
    tiles = [_tile.remote(blocks[i], blocks[j], i == j)
             for i in range(B) for j in range(i, B)]
    return _rd.from_arrow_refs(tiles)


def embedding_dbscan(sf_dir: str, *, cos_threshold: float = 0.32,
                     min_pts: int = 4, num_blocks: int = 4,
                     num_buckets: int = 16):
    """DBSCAN density clustering over the embedding column (Ester et
    al., KDD'96), deterministic variant: a point is CORE iff it has
    ≥ min_pts−1 neighbors at cosine ≥ ``cos_threshold``; clusters are
    connected components of the core-core graph labeled by minimum
    vec_id; a non-core point with ≥1 core neighbor is BORDER and
    attaches to the MINIMUM cluster id among its core neighbors
    (classic DBSCAN is scan-order-dependent exactly there — the min
    rule pins one answer both engines can compute); everything else is
    NOISE (cluster_id −1, kept as a plain BIGINT so the hash stays
    int-typed).

    Distributed shape: the exact neighbor graph comes from
    ``_allpairs_cosine_edges`` — blocks packed once into the object
    store, one zero-copy dgemm task per unordered block pair (see its
    docstring for the scale contract). Degree/core/border run as
    bucketed aggregates + hash joins; components reuse
    ``duplicate_clusters``' two-tier min-label propagation (driver
    ≤2M edges, dataset-native above).
    Columns: vec_id, role, cluster_id, n_neighbors."""
    import pyarrow as pa

    import ray.data as _rd

    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.dedup import duplicate_clusters
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    i64 = pa.int64()

    edges = _allpairs_cosine_edges(
        sf_dir, cos_threshold=cos_threshold,
        num_blocks=num_blocks).materialize()

    deg = hash_partition_aggregate(
        edges.map_batches(lambda b: pd.DataFrame({
            "vec_id": np.concatenate([b["vec_id_a"].to_numpy(np.int64),
                                      b["vec_id_b"].to_numpy(np.int64)]),
            "c": np.int64(1)}), batch_format="pandas"),
        ["vec_id"], {"n_neighbors": ("c", "sum")},
        num_buckets=num_buckets).materialize()

    core = deg.map_batches(
        lambda b: b[b["n_neighbors"] >= (min_pts - 1)][["vec_id"]]
        .assign(is_core=True), batch_format="pandas").materialize()
    core_schema = pa.schema([("vec_id", i64), ("is_core", pa.bool_())])
    edge_schema = pa.schema([("vec_id_a", i64), ("vec_id_b", i64)])

    flagged = bucket_hash_join(
        bucket_hash_join(
            edges,
            core.map_batches(lambda b: b.rename(
                columns={"vec_id": "vec_id_a", "is_core": "a_core"}),
                batch_format="pandas"),
            on="vec_id_a", how="left", num_buckets=num_buckets,
            left_schema=edge_schema,
            right_schema=pa.schema([("vec_id_a", i64),
                                    ("a_core", pa.bool_())])),
        core.map_batches(lambda b: b.rename(
            columns={"vec_id": "vec_id_b", "is_core": "b_core"}),
            batch_format="pandas"),
        on="vec_id_b", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("vec_id_a", i64), ("vec_id_b", i64),
                               ("a_core", pa.bool_())]),
        right_schema=pa.schema([("vec_id_b", i64),
                                ("b_core", pa.bool_())])).materialize()

    cc = flagged.map_batches(
        lambda b: b[b["a_core"].fillna(False) & b["b_core"].fillna(False)]
        [["vec_id_a", "vec_id_b"]].rename(columns={
            "vec_id_a": "doc_id_a", "vec_id_b": "doc_id_b"}),
        batch_format="pandas")
    comp = duplicate_clusters(cc)
    comp_ds = (_rd.from_pandas(comp) if isinstance(comp, pd.DataFrame)
               else comp)
    comp_ds = comp_ds.map_batches(
        lambda b: b.rename(columns={"doc_id": "vec_id",
                                    "cluster_id": "comp_cl"}),
        batch_format="pandas").materialize()
    comp_schema = pa.schema([("vec_id", i64), ("comp_cl", i64)])

    # core → its component label, or itself (singleton core)
    corecl = bucket_hash_join(
        core, comp_ds, on="vec_id", how="left", num_buckets=num_buckets,
        left_schema=core_schema, right_schema=comp_schema,
    ).map_batches(lambda b: pd.DataFrame({
        "vec_id": b["vec_id"].to_numpy(np.int64),
        "core_cl": np.where(b["comp_cl"].notna(),
                            b["comp_cl"].fillna(-1).to_numpy(np.int64),
                            b["vec_id"].to_numpy(np.int64))}),
        batch_format="pandas").materialize()
    corecl_schema = pa.schema([("vec_id", i64), ("core_cl", i64)])

    # border candidates: (non-core endpoint, core neighbor) directed rows
    def _border_edges(b: pd.DataFrame) -> pd.DataFrame:
        ac = b["a_core"].fillna(False).to_numpy(bool)
        bc = b["b_core"].fillna(False).to_numpy(bool)
        a = b["vec_id_a"].to_numpy(np.int64)
        v = b["vec_id_b"].to_numpy(np.int64)
        m1 = ~ac & bc   # a is border candidate, b core
        m2 = ac & ~bc   # b is border candidate, a core
        return pd.DataFrame({
            "bid": np.concatenate([a[m1], v[m2]]),
            "vec_id": np.concatenate([v[m1], a[m2]])})  # the core nbr

    bord = hash_partition_aggregate(
        bucket_hash_join(
            flagged.map_batches(_border_edges, batch_format="pandas"),
            corecl, on="vec_id", num_buckets=num_buckets,
            left_schema=pa.schema([("bid", i64), ("vec_id", i64)]),
            right_schema=corecl_schema,
        ).map_batches(lambda b: b[["bid", "core_cl"]],
                      batch_format="pandas"),
        ["bid"], {"bord_cl": ("core_cl", "min")},
        num_buckets=num_buckets,
    ).map_batches(lambda b: b.rename(columns={"bid": "vec_id"}),
                  batch_format="pandas").materialize()

    ids = read_table(sf_dir, "embeddings", ["vec_id"])
    out = bucket_hash_join(
        bucket_hash_join(
            bucket_hash_join(
                ids, deg, on="vec_id", how="left",
                num_buckets=num_buckets,
                left_schema=pa.schema([("vec_id", i64)]),
                right_schema=pa.schema([("vec_id", i64),
                                        ("n_neighbors", i64)])),
            corecl, on="vec_id", how="left", num_buckets=num_buckets,
            left_schema=pa.schema([("vec_id", i64), ("n_neighbors", i64)]),
            right_schema=corecl_schema),
        bord, on="vec_id", how="left", num_buckets=num_buckets,
        left_schema=pa.schema([("vec_id", i64), ("n_neighbors", i64),
                               ("core_cl", i64)]),
        right_schema=pa.schema([("vec_id", i64), ("bord_cl", i64)]))

    def _assemble(b: pd.DataFrame) -> pd.DataFrame:
        is_core = b["core_cl"].notna().to_numpy(bool)
        is_bord = ~is_core & b["bord_cl"].notna().to_numpy(bool)
        role = np.where(is_core, "core",
                        np.where(is_bord, "border", "noise"))
        cl = np.where(is_core, b["core_cl"].fillna(-1).to_numpy(np.int64),
                      np.where(is_bord,
                               b["bord_cl"].fillna(-1).to_numpy(np.int64),
                               np.int64(-1)))
        return pd.DataFrame({
            "vec_id": b["vec_id"].to_numpy(np.int64),
            "role": role,
            "cluster_id": cl.astype(np.int64),
            "n_neighbors": b["n_neighbors"].fillna(0)
            .to_numpy(np.int64)})

    return out.map_batches(_assemble, batch_format="pandas")


def silhouette_by_label(sf_dir: str, *, num_blocks: int = 4,
                        num_buckets: int = 16):
    """Exact silhouette score of the ``label`` clustering under cosine
    distance (Rousseeuw 1987) — the standard cluster-quality metric:
    a(i) = mean distance to own-cluster points, b(i) = min over other
    clusters of the mean distance to that cluster,
    s(i) = (b−a)/max(a,b); singleton clusters and degenerate
    max(a,b)=0 points score 0 (the sklearn convention, pinned in the
    twin). Reported per label: n, mean_silhouette.

    Distributed shape: under cosine distance exact silhouette is
    LINEAR, not quadratic — Σ_{j∈lb, j≠i} (1 − u_i·u_j) =
    cnt_lb − u_i·S_lb with S_lb = Σ_{j∈lb} u_j (the self term cancels:
    u_i·u_i = 1 exactly offsets the count the self-pair would add).
    Pass 1 folds per-label (count, Σ unit vector) as mergeable
    partials — |labels|×dim values, broadcast back via ray.put.
    Pass 2 scores each batch with ONE rows×dim × dim×|labels| matmul
    and emits per-label silhouette partials. Nothing quadratic, no
    shuffle beyond the two tiny folds — the 100 TB path IS the exact
    path here. (The first draft tiled an N×N distance matrix; the
    closed form deleted it.) Columns: label, n, mean_silhouette."""
    import pyarrow as pa

    import ray

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _label_sums(tbl: pa.Table) -> pd.DataFrame:
        ids, unit = _flat_unit_matrix(tbl)
        lab = (tbl.column("label").to_numpy(zero_copy_only=False)
               .astype(np.int64))
        uniq, inv = np.unique(lab, return_inverse=True)
        onehot = np.zeros((len(lab), len(uniq)), dtype=np.float64)
        onehot[np.arange(len(lab)), inv] = 1.0
        s = onehot.T @ unit                       # |labels| × dim
        cnt = onehot.sum(axis=0).astype(np.int64)
        dim = unit.shape[1] if len(ids) else 0
        out = pd.DataFrame({
            "label": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), len(uniq)),
            "v": s.ravel(),
            "c": np.zeros(len(uniq) * dim, dtype=np.int64)})
        out.loc[out["dim"] == 0, "c"] = cnt  # counts ride the dim-0 rows
        return out

    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding", "label"])
    folded = combine_partials_driver(
        ds.map_batches(_label_sums, batch_format="pyarrow"),
        ["label", "dim"], {"v": ("v", "sum"), "c": ("c", "sum")})
    folded = folded.sort_values(["label", "dim"]).reset_index(drop=True)
    labels = np.sort(folded["label"].unique()).astype(np.int64)
    dim = int(folded["dim"].max()) + 1
    s_mat = (folded["v"].to_numpy(np.float64)
             .reshape(len(labels), dim).T)        # dim × |labels|
    counts = folded.loc[folded["dim"] == 0] \
        .sort_values("label")["c"].to_numpy(np.int64)
    ref = ray.put((labels, s_mat, counts))

    def _score(tbl: pa.Table) -> pd.DataFrame:
        lbs, smat, cnts = ray.get(ref)
        ids, unit = _flat_unit_matrix(tbl)
        lab = (tbl.column("label").to_numpy(zero_copy_only=False)
               .astype(np.int64))
        if len(ids) == 0:
            return pd.DataFrame({"label": pd.Series(dtype="int64"),
                                 "sil": pd.Series(dtype="float64"),
                                 "one": pd.Series(dtype="int64")})
        dots = unit @ smat                        # rows × |labels|
        sums = cnts[None, :].astype(np.float64) - dots
        own = np.searchsorted(lbs, lab)
        r = np.arange(len(ids))
        own_cnt = cnts[own]
        a = np.where(own_cnt > 1,
                     sums[r, own] / np.maximum(own_cnt - 1, 1), 0.0)
        means = sums / cnts[None, :].astype(np.float64)
        means[r, own] = np.inf                    # exclude own label
        b = means.min(axis=1)
        mx = np.maximum(a, b)
        sil = np.where((own_cnt <= 1) | ~np.isfinite(b) | (mx == 0.0),
                       0.0, (b - a) / np.where(mx == 0.0, 1.0, mx))
        return pd.DataFrame({"label": lab, "sil": sil,
                             "one": np.ones(len(ids), np.int64)})

    out = combine_partials_driver(
        ds.map_batches(_score, batch_format="pyarrow"),
        ["label"], {"sum_sil": ("sil", "sum"), "n": ("one", "sum")})
    out = out.sort_values("label").reset_index(drop=True)
    return pd.DataFrame({
        "label": out["label"].astype("int64"),
        "n": out["n"].astype("int64"),
        "mean_silhouette": round_half_away(
            (out["sum_sil"] / out["n"].astype(np.float64)).to_numpy(), 6),
    })


def mmr_rerank(sf_dir: str, *, lam: float = 0.7, k: int = 10,
               pool: int = 20, num_queries: int = 3):
    """Maximal Marginal Relevance re-ranking (Carbonell & Goldstein,
    SIGIR'98) — the diversity-aware top-k used to de-duplicate
    retrieval results before they reach a context window: greedily pick

        argmax_d  lam·sim(q,d) − (1−lam)·max_{s∈selected} sim(d,s)

    from each query's cosine top-``pool`` candidates until ``k`` are
    chosen (ties → lower vec_id; the first pick is the top candidate).

    Distributed shape: candidate generation is ``knn_bruteforce``'s
    partial-topk reduction (the corpus-sized part); the greedy runs on
    the BOUNDED pool (Q × pool² sims) — driver residency by
    construction, like the RRF fusion. Iterative greedy selection has
    no SQL twin, so this entry is rows-only; the pytest pins a dense
    reference. Columns: query_id, vec_id, mmr_rank, mmr_score."""
    import pyarrow.parquet as pq_mod

    from ocr_agent_ray.functions.textstats import round_half_away

    cand = knn_bruteforce(sf_dir, k=pool, num_queries=num_queries) \
        .to_pandas()
    qids = np.unique(cand["query_id"].to_numpy(np.int64))
    need = sorted(set(cand["vec_id"]) | set(qids.tolist()))
    t = pq_mod.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", need)]).to_pandas()
    t = t.sort_values("vec_id")
    pos = {int(v): i for i, v in enumerate(t["vec_id"])}
    unit = _unit(np.stack(t["embedding"].to_numpy()))

    out = []
    for qid in qids:
        sub = cand[cand["query_id"] == qid].sort_values("rank")
        ids = sub["vec_id"].to_numpy(np.int64)
        if ids.size == 0:
            continue
        rel = sub["cosine"].to_numpy(np.float64)  # arm's rounded contract
        mat = unit[[pos[int(v)] for v in ids]]
        sims = mat @ mat.T
        chosen: list[int] = []
        remaining = list(range(len(ids)))
        while remaining and len(chosen) < k:
            best_i, best_s = None, -np.inf
            for i in remaining:
                div = max((sims[i, j] for j in chosen), default=0.0)
                s = lam * rel[i] - (1.0 - lam) * div
                if (s > best_s
                        or (s == best_s and ids[i] < ids[best_i])):
                    best_i, best_s = i, s
            chosen.append(best_i)
            remaining.remove(best_i)
            out.append((np.int64(qid), ids[best_i],
                        np.int64(len(chosen)),
                        float(round_half_away(np.float64(best_s), 6))))
    return pd.DataFrame(out, columns=["query_id", "vec_id", "mmr_rank",
                                      "mmr_score"])


def _flat_matrix(tbl) -> tuple[np.ndarray, np.ndarray]:
    """(ids, RAW float64 matrix) — the un-normalized sibling of
    ``_flat_unit_matrix`` for Euclidean-space metrics: the list<float>
    column flattens zero-copy and each element is cast float32→float64,
    matching the twin's ``CAST(embedding AS DOUBLE[])``."""
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    arr = tbl.column("embedding").combine_chunks()
    vals = arr.flatten().to_numpy(zero_copy_only=False)
    mat = vals.reshape(len(ids), len(vals) // max(len(ids), 1))
    return ids, mat.astype(np.float64)


def calinski_harabasz(sf_dir: str):
    """Calinski–Harabasz index of the ``label`` clustering under
    squared Euclidean distance — the variance-ratio cluster-quality
    score that complements ``silhouette_by_label`` (CH rewards
    separated, compact clusters and is the sklearn default for
    scree-style k selection):

        CH = (BSS / (k−1)) / (WSS / (N−k)),
        WSS = Σ_l (Σ‖x‖² − ‖S_l‖²/n_l),
        BSS = Σ_l ‖S_l‖²/n_l − ‖ΣS_l‖²/N

    Like the silhouette closed form, CH is LINEAR: one map_batches
    pass folds per-label (n, Σ vector, Σ‖x‖²) mergeable partials —
    |labels|×(dim+2) values over the wire — and the whole statistic
    closes on the driver's tiny table. Columns: n, n_labels, ch_index,
    bss, wss."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _label_sums(tbl: pa.Table) -> pd.DataFrame:
        ids, mat = _flat_matrix(tbl)
        lab = (tbl.column("label").to_numpy(zero_copy_only=False)
               .astype(np.int64))
        uniq, inv = np.unique(lab, return_inverse=True)
        onehot = np.zeros((len(lab), len(uniq)), dtype=np.float64)
        onehot[np.arange(len(lab)), inv] = 1.0
        s = onehot.T @ mat                        # |labels| × dim
        qq = onehot.T @ (mat * mat).sum(axis=1)   # Σ‖x‖² per label
        cnt = onehot.sum(axis=0).astype(np.int64)
        dim = mat.shape[1] if len(ids) else 0
        out = pd.DataFrame({
            "label": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), len(uniq)),
            "v": s.ravel(),
            "c": np.zeros(len(uniq) * dim, dtype=np.int64),
            "qq": np.zeros(len(uniq) * dim, dtype=np.float64)})
        out.loc[out["dim"] == 0, "c"] = cnt
        out.loc[out["dim"] == 0, "qq"] = qq
        return out

    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding", "label"])
    folded = combine_partials_driver(
        ds.map_batches(_label_sums, batch_format="pyarrow"),
        ["label", "dim"],
        {"v": ("v", "sum"), "c": ("c", "sum"), "qq": ("qq", "sum")})
    empty = pd.DataFrame({
        "n": pd.Series(dtype="int64"),
        "n_labels": pd.Series(dtype="int64"),
        "ch_index": pd.Series(dtype="float64"),
        "bss": pd.Series(dtype="float64"),
        "wss": pd.Series(dtype="float64")})
    if not len(folded):
        return empty
    folded = folded.sort_values(["label", "dim"]).reset_index(drop=True)
    labels = np.sort(folded["label"].unique()).astype(np.int64)
    dim = int(folded["dim"].max()) + 1
    s_mat = folded["v"].to_numpy(np.float64).reshape(len(labels), dim)
    d0 = folded.loc[folded["dim"] == 0].sort_values("label")
    cnts = d0["c"].to_numpy(np.int64)
    qqs = d0["qq"].to_numpy(np.float64)
    k = np.int64(len(labels))
    nt = np.int64(cnts.sum())
    if k < 2 or nt <= k:
        return empty
    nrm2 = (s_mat * s_mat).sum(axis=1)
    nf = cnts.astype(np.float64)
    wss = float((qqs - nrm2 / nf).sum())
    bsum = float((nrm2 / nf).sum())
    tot = s_mat.sum(axis=0)
    bss = bsum - float((tot * tot).sum()) / np.float64(nt)
    if wss <= 0.0:
        return empty
    ch = (bss / np.float64(k - 1)) / (wss / np.float64(nt - k))
    return pd.DataFrame({
        "n": [nt], "n_labels": [k],
        "ch_index": round_half_away(np.array([ch]), 6),
        "bss": round_half_away(np.array([bss]), 6),
        "wss": round_half_away(np.array([wss]), 6)})


def davies_bouldin(sf_dir: str):
    """Davies–Bouldin per-label components of the ``label`` clustering
    under Euclidean distance — the third cluster-validity lens next to
    silhouette and CH (DB penalizes cluster pairs that are wide
    relative to their centroid separation; lower is better):

        spread_l = mean ‖x − c_l‖,
        r_max_l  = max_{j≠l} (spread_l + spread_j) / ‖c_l − c_j‖

    (the DB index itself is mean_l r_max_l — reported per label so the
    worst-separated cluster is visible, not averaged away). Two linear
    passes: (1) per-label (n, Σ vector) fold → centroids on the
    driver; (2) centroids broadcast back, each batch emits per-label
    Σ‖x − c‖ partials (ONE vectorized norm per batch); the k×k ratio
    matrix closes on the driver. Columns: label, n, spread, r_max."""
    import pyarrow as pa

    import ray

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    def _label_sums(tbl: pa.Table) -> pd.DataFrame:
        ids, mat = _flat_matrix(tbl)
        lab = (tbl.column("label").to_numpy(zero_copy_only=False)
               .astype(np.int64))
        uniq, inv = np.unique(lab, return_inverse=True)
        onehot = np.zeros((len(lab), len(uniq)), dtype=np.float64)
        onehot[np.arange(len(lab)), inv] = 1.0
        s = onehot.T @ mat
        cnt = onehot.sum(axis=0).astype(np.int64)
        dim = mat.shape[1] if len(ids) else 0
        out = pd.DataFrame({
            "label": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), len(uniq)),
            "v": s.ravel(),
            "c": np.zeros(len(uniq) * dim, dtype=np.int64)})
        out.loc[out["dim"] == 0, "c"] = cnt
        return out

    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding", "label"])
    folded = combine_partials_driver(
        ds.map_batches(_label_sums, batch_format="pyarrow"),
        ["label", "dim"], {"v": ("v", "sum"), "c": ("c", "sum")})
    empty = pd.DataFrame({
        "label": pd.Series(dtype="int64"),
        "n": pd.Series(dtype="int64"),
        "spread": pd.Series(dtype="float64"),
        "r_max": pd.Series(dtype="float64")})
    if not len(folded):
        return empty
    folded = folded.sort_values(["label", "dim"]).reset_index(drop=True)
    labels = np.sort(folded["label"].unique()).astype(np.int64)
    dim = int(folded["dim"].max()) + 1
    s_mat = folded["v"].to_numpy(np.float64).reshape(len(labels), dim)
    cnts = (folded.loc[folded["dim"] == 0].sort_values("label")["c"]
            .to_numpy(np.int64))
    if len(labels) < 2:
        return empty
    cen = s_mat / cnts[:, None].astype(np.float64)
    ref = ray.put((labels, cen))

    def _dist_sums(tbl: pa.Table) -> pd.DataFrame:
        lbs, c_mat = ray.get(ref)
        ids, mat = _flat_matrix(tbl)
        if len(ids) == 0:
            return pd.DataFrame({"label": pd.Series(dtype="int64"),
                                 "sd": pd.Series(dtype="float64")})
        lab = (tbl.column("label").to_numpy(zero_copy_only=False)
               .astype(np.int64))
        own = np.searchsorted(lbs, lab)
        diff = mat - c_mat[own]
        d = np.sqrt((diff * diff).sum(axis=1))
        uniq, inv = np.unique(lab, return_inverse=True)
        sd = np.zeros(len(uniq), np.float64)
        np.add.at(sd, inv, d)
        return pd.DataFrame({"label": uniq, "sd": sd})

    dsum = combine_partials_driver(
        ds.map_batches(_dist_sums, batch_format="pyarrow"),
        ["label"], {"sd": ("sd", "sum")})
    dsum = dsum.sort_values("label").reset_index(drop=True)
    spread = dsum["sd"].to_numpy(np.float64) / cnts.astype(np.float64)
    dc = cen[:, None, :] - cen[None, :, :]
    m = np.sqrt((dc * dc).sum(axis=2))            # k × k centroid dists
    ratio = (spread[:, None] + spread[None, :]) / np.where(m == 0.0,
                                                           np.inf, m)
    np.fill_diagonal(ratio, -np.inf)
    r_max = ratio.max(axis=1)
    return pd.DataFrame({
        "label": labels,
        "n": cnts,
        "spread": round_half_away(spread, 6),
        "r_max": round_half_away(r_max, 6)})


def gmm_em_embeddings(sf_dir: str, *, k: int = 5, iters: int = 5,
                      var_floor: float = 1e-3):
    """Diagonal-covariance Gaussian Mixture via EM over the embedding
    column — the soft-assignment upgrade of ``kmeans_embeddings`` (every
    vector belongs to every cluster with a responsibility, so cluster
    overlap and uncertainty are visible). Deterministic init (the
    kmeans convention): means = the k lowest vec_ids' vectors, unit
    variances, uniform weights.

    Iterative-algorithm pattern on Ray Data: per round ONE streaming
    pass broadcasts (means, vars, weights) via ray.put, each batch
    computes log-space responsibilities (logsumexp-stabilized) with
    one rows×k matmul-shaped kernel and emits per-cluster mergeable
    partials (Σr, Σr·x per dim, Σr·x² per dim, Σ loglik); the driver
    closes the M step on k×(2·dim+1) floats. Variances are floored at
    ``var_floor``. Rows-only (iterative; dense-numpy EM reference in
    pytest). Columns: cluster, weight, n_soft, avg_var, loglik (total
    data log-likelihood repeated per row for visibility)."""
    import ray

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    means = _lowest_id_seeds(sf_dir, k)
    dim = means.shape[1]
    variances = np.ones((k, dim), np.float64)
    weights = np.full(k, 1.0 / k, np.float64)
    ds = _read_embeddings(sf_dir)

    loglik = 0.0
    for _ in range(iters):
        ref = ray.put((means, variances, weights))

        def _estep(batch: pd.DataFrame) -> pd.DataFrame:
            mu, var, w = ray.get(ref)
            mat = np.stack([np.asarray(v, dtype=np.float32)
                            for v in batch["embedding"]]) \
                .astype(np.float64)
            # log N(x | mu_c, diag var_c) for all clusters at once
            const = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
            quad = (-0.5 * (((mat[:, None, :] - mu[None, :, :]) ** 2)
                            / var[None, :, :]).sum(axis=2))
            logp = np.log(w)[None, :] + const[None, :] + quad
            mx = logp.max(axis=1, keepdims=True)
            lse = mx[:, 0] + np.log(np.exp(logp - mx).sum(axis=1))
            r = np.exp(logp - lse[:, None])          # rows × k
            rs = r.sum(axis=0)                        # k
            rx = r.T @ mat                            # k × dim
            rx2 = r.T @ (mat * mat)                   # k × dim
            out = {"cluster": np.arange(k, dtype=np.int64),
                   "rs": rs, "ll": np.zeros(k, np.float64)}
            out["ll"][0] = lse.sum()
            for d in range(dim):
                out[f"rx_{d}"] = rx[:, d]
                out[f"rx2_{d}"] = rx2[:, d]
            return pd.DataFrame(out)

        aggs = {"rs": ("rs", "sum"), "ll": ("ll", "sum")}
        for d in range(dim):
            aggs[f"rx_{d}"] = (f"rx_{d}", "sum")
            aggs[f"rx2_{d}"] = (f"rx2_{d}", "sum")
        g = combine_partials_driver(
            ds.map_batches(_estep, batch_format="pandas",
                           batch_size=4096),
            ["cluster"], aggs).sort_values("cluster")
        rs = g["rs"].to_numpy(np.float64)
        n_total = rs.sum()
        loglik = float(g["ll"].sum())
        rx = np.stack([g[f"rx_{d}"].to_numpy(np.float64)
                       for d in range(dim)], axis=1)
        rx2 = np.stack([g[f"rx2_{d}"].to_numpy(np.float64)
                        for d in range(dim)], axis=1)
        nz = rs > 0.0
        means[nz] = rx[nz] / rs[nz, None]
        variances[nz] = np.maximum(
            rx2[nz] / rs[nz, None] - means[nz] * means[nz], var_floor)
        weights = np.where(nz, rs / n_total, weights)

    return pd.DataFrame({
        "cluster": np.arange(k, dtype=np.int64),
        "weight": round_half_away(weights, 6),
        "n_soft": round_half_away(rs, 2),
        "avg_var": round_half_away(variances.mean(axis=1), 6),
        "loglik": round_half_away(
            np.full(k, loglik, np.float64), 4)})


def knn_label_purity(sf_dir: str, *, k: int = 5):
    """Neighborhood label purity over the approximate kNN graph — the
    classification-difficulty / label-noise screen: for each vector,
    the fraction of its k nearest neighbors sharing its label, averaged
    per label ('which classes bleed into each other in embedding
    space?'). Rides ``knn_graph_ivf`` (rows-only — the graph is
    approximate by design): two bucketed hash joins attach the labels
    of both endpoints, one bucketed per-vector fold computes purity,
    and a mergeable per-label combine closes on |labels| rows.
    Columns: label, n_vectors, mean_purity."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    graph = knn_graph_ivf(sf_dir, k=k)
    labels = read_table(sf_dir, "embeddings", ["vec_id", "label"]) \
        .map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "label": b["label"].astype("int64")}),
            batch_format="pandas", batch_size=65536)
    lab_a = labels
    lab_b = labels.map_batches(
        lambda b: b.rename(columns={"vec_id": "nbr_id",
                                    "label": "nbr_label"}),
        batch_format="pandas", batch_size=65536)
    edges = graph.map_batches(
        lambda b: b[["vec_id", "nbr_id"]], batch_format="pandas",
        batch_size=65536)
    j1 = bucket_hash_join(
        edges, lab_a, on="vec_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("nbr_id", pa.int64())]),
        right_schema=pa.schema([("vec_id", pa.int64()),
                                ("label", pa.int64())]))
    j2 = bucket_hash_join(
        j1, lab_b, on="nbr_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("nbr_id", pa.int64()),
                               ("label", pa.int64())]),
        right_schema=pa.schema([("nbr_id", pa.int64()),
                                ("nbr_label", pa.int64())]))
    per_vec = hash_partition_aggregate(
        j2.map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "label": b["label"].astype("int64"),
            "same": (b["label"] == b["nbr_label"]).astype("int64"),
            "n": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["vec_id", "label"], {"same": ("same", "sum"), "n": ("n", "sum")})
    out = combine_partials_driver(
        per_vec.map_batches(lambda b: pd.DataFrame({
            "label": b["label"].astype("int64"),
            "purity": (b["same"].to_numpy(np.int64).astype(np.float64)
                       / b["n"].to_numpy(np.int64).astype(np.float64)),
            "one": np.int64(1)}),
            batch_format="pandas"),
        ["label"], {"purity": ("purity", "sum"), "one": ("one", "sum")})
    if out.empty:
        return pd.DataFrame({
            "label": pd.Series(dtype="int64"),
            "n_vectors": pd.Series(dtype="int64"),
            "mean_purity": pd.Series(dtype="float64")})
    out = out.sort_values("label").reset_index(drop=True)
    return pd.DataFrame({
        "label": out["label"].astype("int64"),
        "n_vectors": out["one"].astype("int64"),
        "mean_purity": round_half_away(
            out["purity"].to_numpy(np.float64)
            / out["one"].to_numpy(np.int64).astype(np.float64), 6)})


def lof_outliers(sf_dir: str, *, k: int = 5, top: int = 50):
    """Local Outlier Factor (Breunig et al. 2000) over the approximate
    kNN graph under cosine distance — the density-aware embedding
    outlier screen (z-score outliers miss points that are 'normal
    globally but alone locally'):

        reach(a←b) = max(kdist(b), d(a, b)),
        lrd(a) = 1 / mean_b reach(a←b),
        LOF(a) = mean_b lrd(b) / lrd(a)

    Rides ``knn_graph_ivf`` (rows-only — approximate by design, LOF >
    1 ⇒ locally sparser than neighbors). Distributed shape: kdist is
    a bucketed per-vector MAX over the edge distances; two bucketed
    hash joins attach kdist(b) then lrd(b); per-vector folds close
    each stage; final global top-``top`` by ROUNDED LOF (rounded-rank
    contract) with per-batch partial top-k. Columns: vec_id, lof,
    lrd."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import hash_partition_aggregate
    from ocr_agent_ray.pipelines.exchange import key_map_groups
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    graph = knn_graph_ivf(sf_dir, k=k).map_batches(
        lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "nbr_id": b["nbr_id"].astype("int64"),
            "d": 1.0 - b["cosine"].to_numpy(np.float64)}),
        batch_format="pandas", batch_size=65536).materialize()
    kdist = hash_partition_aggregate(
        graph, ["vec_id"], {"kdist": ("d", "max")}).map_batches(
        lambda b: b.rename(columns={"vec_id": "nbr_id"}),
        batch_format="pandas", batch_size=65536)
    j1 = bucket_hash_join(
        graph, kdist, on="nbr_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("nbr_id", pa.int64()),
                               ("d", pa.float64())]),
        right_schema=pa.schema([("nbr_id", pa.int64()),
                                ("kdist", pa.float64())]))
    lrd = hash_partition_aggregate(
        j1.map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "reach": np.maximum(b["kdist"].to_numpy(np.float64),
                                b["d"].to_numpy(np.float64)),
            "n": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["vec_id"], {"reach": ("reach", "sum"), "n": ("n", "sum")}) \
        .map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "lrd": (b["n"].to_numpy(np.int64).astype(np.float64)
                    / np.maximum(b["reach"].to_numpy(np.float64),
                                 1e-300))}),
            batch_format="pandas", batch_size=65536).materialize()
    lrd_b = lrd.map_batches(
        lambda b: b.rename(columns={"vec_id": "nbr_id",
                                    "lrd": "lrd_b"}),
        batch_format="pandas", batch_size=65536)
    j2 = bucket_hash_join(
        graph.map_batches(lambda b: b[["vec_id", "nbr_id"]],
                          batch_format="pandas", batch_size=65536),
        lrd_b, on="nbr_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("nbr_id", pa.int64())]),
        right_schema=pa.schema([("nbr_id", pa.int64()),
                                ("lrd_b", pa.float64())]))
    mean_nbr = hash_partition_aggregate(
        j2.map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "s": b["lrd_b"].to_numpy(np.float64),
            "n": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["vec_id"], {"s": ("s", "sum"), "n": ("n", "sum")})
    j3 = bucket_hash_join(
        mean_nbr, lrd, on="vec_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("s", pa.float64()),
                               ("n", pa.int64())]),
        right_schema=pa.schema([("vec_id", pa.int64()),
                                ("lrd", pa.float64())]))

    def _local(b: pd.DataFrame) -> pd.DataFrame:
        lof = ((b["s"].to_numpy(np.float64)
                / b["n"].to_numpy(np.int64).astype(np.float64))
               / b["lrd"].to_numpy(np.float64))
        out = pd.DataFrame({
            "__k": np.int64(0),
            "vec_id": b["vec_id"].astype("int64"),
            "lof": round_half_away(lof, 6),
            "lrd": round_half_away(b["lrd"].to_numpy(np.float64), 6)})
        return out.sort_values(["lof", "vec_id"],
                               ascending=[False, True]).head(top)

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["lof", "vec_id"],
                          ascending=[False, True]).head(top)
        return g[["vec_id", "lof", "lrd"]].reset_index(drop=True)

    out = key_map_groups(
        j3.map_batches(_local, batch_format="pandas",
                       batch_size=65536),
        _final, key_col="__k", num_buckets=1).to_pandas()
    if out.empty:
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "lof": pd.Series(dtype="float64"),
                             "lrd": pd.Series(dtype="float64")})
    return out


def label_propagation_knn(sf_dir: str, *, k: int = 5, iters: int = 3,
                          seed_mod: int = 5):
    """Semi-supervised label propagation over the approximate kNN
    graph — the 'label 20%, infer the rest' primitive behind
    weak-supervision curation: vectors with vec_id % ``seed_mod`` == 0
    keep their true label as a fixed SEED; everyone else starts
    unlabeled and, for ``iters`` synchronous rounds, adopts the
    majority label among its labeled neighbors (ties → smallest
    label; unlabeled neighbors abstain). Reported per true label:
    coverage (fraction labeled by round ``iters``) and accuracy of
    the propagated labels against the held-out truth.

    Distributed shape: the kNN graph builds once; each round is one
    bucketed join (edge ⋈ current labels of the neighbor side) + one
    bucketed per-vector majority fold — label state lives in a
    Dataset, never on the driver. Deterministic: synchronous updates,
    pinned tie-break. Rows-only (approximate graph + iterative).
    Columns: label, n_heldout, n_labeled, coverage, accuracy."""
    import pyarrow as pa

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)
    from ocr_agent_ray.pipelines.joins import bucket_hash_join

    graph = knn_graph_ivf(sf_dir, k=k).map_batches(
        lambda b: b[["vec_id", "nbr_id"]], batch_format="pandas",
        batch_size=65536).materialize()
    truth = read_table(sf_dir, "embeddings", ["vec_id", "label"]) \
        .map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "true_label": b["label"].astype("int64")}),
            batch_format="pandas", batch_size=65536).materialize()

    # current state: label -1 = unlabeled; seeds keep truth forever
    state = truth.map_batches(
        lambda b: pd.DataFrame({
            "nbr_id": b["vec_id"].astype("int64"),
            "cur": np.where(
                b["vec_id"].to_numpy(np.int64) % seed_mod == 0,
                b["true_label"].to_numpy(np.int64),
                np.int64(-1))}),
        batch_format="pandas", batch_size=65536).materialize()

    for _ in range(iters):
        j = bucket_hash_join(
            graph, state, on="nbr_id", num_buckets=16,
            left_schema=pa.schema([("vec_id", pa.int64()),
                                   ("nbr_id", pa.int64())]),
            right_schema=pa.schema([("nbr_id", pa.int64()),
                                    ("cur", pa.int64())]))
        votes = hash_partition_aggregate(
            j.map_batches(lambda b: b[b["cur"] >= 0].assign(
                n=np.int64(1))[["vec_id", "cur", "n"]],
                batch_format="pandas", batch_size=65536),
            ["vec_id", "cur"], {"n": ("n", "sum")})

        def _majority(g: pd.DataFrame) -> pd.DataFrame:
            # per vec (whole group co-located by key_map_groups):
            # majority label, ties -> smallest label
            g = g.sort_values(["n", "cur"], ascending=[False, True])
            return pd.DataFrame({
                "nbr_id": g["vec_id"].astype("int64").iloc[:1],
                "vote": g["cur"].astype("int64").iloc[:1]})

        from ocr_agent_ray.pipelines.exchange import key_map_groups

        voted = key_map_groups(votes, _majority, key_col="vec_id",
                               num_buckets=16)
        # merge: seeds keep truth; already-labeled keep their label;
        # newly voted adopt the vote
        j2 = bucket_hash_join(
            state, voted, on="nbr_id", how="left", num_buckets=16,
            left_schema=pa.schema([("nbr_id", pa.int64()),
                                   ("cur", pa.int64())]),
            right_schema=pa.schema([("nbr_id", pa.int64()),
                                    ("vote", pa.int64())]))
        state = j2.map_batches(
            lambda b: pd.DataFrame({
                "nbr_id": b["nbr_id"].astype("int64"),
                "cur": np.where(
                    b["cur"].to_numpy(np.int64) >= 0,
                    b["cur"].to_numpy(np.int64),
                    b["vote"].fillna(-1).to_numpy(np.int64))}),
            batch_format="pandas", batch_size=65536).materialize()

    final = bucket_hash_join(
        state.map_batches(
            lambda b: b.rename(columns={"nbr_id": "vec_id"}),
            batch_format="pandas", batch_size=65536),
        truth, on="vec_id", num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("cur", pa.int64())]),
        right_schema=pa.schema([("vec_id", pa.int64()),
                                ("true_label", pa.int64())]))
    out = combine_partials_driver(
        final.map_batches(lambda b: pd.DataFrame({
            "label": b["true_label"].astype("int64"),
            "held": (b["vec_id"].to_numpy(np.int64) % seed_mod != 0)
            .astype("int64"),
            "lab": ((b["vec_id"].to_numpy(np.int64) % seed_mod != 0)
                    & (b["cur"].to_numpy(np.int64) >= 0))
            .astype("int64"),
            "acc": ((b["vec_id"].to_numpy(np.int64) % seed_mod != 0)
                    & (b["cur"].to_numpy(np.int64)
                       == b["true_label"].to_numpy(np.int64)))
            .astype("int64")}),
            batch_format="pandas"),
        ["label"], {"held": ("held", "sum"), "lab": ("lab", "sum"),
                    "acc": ("acc", "sum")})
    if out.empty:
        return pd.DataFrame({
            "label": pd.Series(dtype="int64"),
            "n_heldout": pd.Series(dtype="int64"),
            "n_labeled": pd.Series(dtype="int64"),
            "coverage": pd.Series(dtype="float64"),
            "accuracy": pd.Series(dtype="float64")})
    out = out.sort_values("label").reset_index(drop=True)
    held = out["held"].to_numpy(np.int64)
    lab = out["lab"].to_numpy(np.int64)
    acc = out["acc"].to_numpy(np.int64)
    return pd.DataFrame({
        "label": out["label"].astype("int64"),
        "n_heldout": held,
        "n_labeled": lab,
        "coverage": round_half_away(
            lab.astype(np.float64)
            / np.maximum(held.astype(np.float64), 1.0), 6),
        "accuracy": round_half_away(
            np.where(lab > 0, acc.astype(np.float64)
                     / np.maximum(lab.astype(np.float64), 1.0), 0.0),
            6)})


def twonn_intrinsic_dimension(sf_dir: str):
    """TwoNN intrinsic-dimension estimate (Facco et al. 2017) of the
    embedding manifold under cosine distance — 'how many effective
    degrees of freedom do these vectors use?' (an ID far below the
    ambient dim flags redundant embedding capacity; it also sets how
    aggressively PQ/IVF can compress):

        ID = n / Σ_i ln(r2_i / r1_i)

    (the MLE form) over each vector's first/second neighbor distances.
    Rides ``knn_graph_ivf`` at k = 2 (rows-only — approximate by
    design): with exactly two rows per vector, r1/r2 are simply the
    per-vector MIN/MAX over the edge distances — ONE bucketed fold —
    and Σ ln(r2/r1) then folds as a mergeable (count, sum) partial, so
    only two numbers reach the driver (the first draft folded 2n rows
    driver-side). Vectors with r1 = 0 (exact duplicates) or a missing
    second neighbor drop, as the estimator requires. Columns: n_used,
    ambient_dim, intrinsic_dim."""
    import pyarrow.parquet as pq

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.agg import (combine_partials_driver,
                                             hash_partition_aggregate)

    graph = knn_graph_ivf(sf_dir, k=2)
    per_vec = hash_partition_aggregate(
        graph.map_batches(lambda b: pd.DataFrame({
            "vec_id": b["vec_id"].astype("int64"),
            "d": 1.0 - b["cosine"].to_numpy(np.float64),
            "one": np.int64(1)}),
            batch_format="pandas", batch_size=65536),
        ["vec_id"], {"r1": ("d", "min"), "r2": ("d", "max"),
                     "nn": ("one", "sum")})
    folded = combine_partials_driver(
        per_vec.map_batches(lambda b: (lambda r1, r2, nn: pd.DataFrame({
            "__k": np.int64(0),
            "n": ((nn == 2) & (r1 > 0) & (r2 > r1)).astype("int64"),
            "s": np.where((nn == 2) & (r1 > 0) & (r2 > r1),
                          np.log(np.where(r1 > 0, r2, 1.0)
                                 / np.where(r1 > 0, r1, 1.0)),
                          0.0)}))(
            b["r1"].to_numpy(np.float64), b["r2"].to_numpy(np.float64),
            b["nn"].to_numpy(np.int64)),
            batch_format="pandas", batch_size=65536),
        ["__k"], {"n": ("n", "sum"), "s": ("s", "sum")})
    if folded.empty:
        return pd.DataFrame({
            "n_used": pd.Series(dtype="int64"),
            "ambient_dim": pd.Series(dtype="int64"),
            "intrinsic_dim": pd.Series(dtype="float64")})
    n = int(folded["n"].iloc[0])
    s = np.float64(folded["s"].iloc[0])
    # ambient dim from the first row-group's first row only
    amb = len(next(iter(pq.ParquetFile(
        f"{sf_dir}/embeddings.parquet").iter_batches(
            batch_size=1, columns=["embedding"])))
        .column("embedding")[0].as_py())
    if n == 0 or s <= 0:
        return pd.DataFrame({
            "n_used": pd.Series(dtype="int64"),
            "ambient_dim": pd.Series(dtype="int64"),
            "intrinsic_dim": pd.Series(dtype="float64")})
    return pd.DataFrame({
        "n_used": [np.int64(n)],
        "ambient_dim": [np.int64(amb)],
        "intrinsic_dim": round_half_away(
            np.array([np.float64(n) / s]), 6)})

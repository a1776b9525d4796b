"""Cluster validity (Calinski-Harabasz, Davies-Bouldin), vocabulary
richness (Yule's K, Chao1), retrieval evaluation (NDCG, AP, MRR),
near-dup graph statistics, sampling and curation audits over documents
and embeddings — planted hand-computed cases plus dense references."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_embeddings(tmp_path, vecs, labels, first_id=0):
    tbl = pa.table({
        "vec_id": pa.array(range(first_id, first_id + len(vecs)),
                           pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32())})
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))


def test_calinski_harabasz_planted(ray_session, tmp_path):
    """Two tight 1-D pairs at 0/2 and 10/12: WSS = 4, BSS = 100,
    CH = (100/1)/(4/2) = 50."""
    from ocr_agent_ray.pipelines.similarity import calinski_harabasz

    _write_embeddings(tmp_path,
                      [[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]],
                      [0, 0, 1, 1])
    got = calinski_harabasz(str(tmp_path))
    assert got["n"].tolist() == [4]
    assert got["n_labels"].tolist() == [2]
    assert got["wss"].tolist() == [4.0]
    assert got["bss"].tolist() == [100.0]
    assert got["ch_index"].tolist() == [50.0]


def test_davies_bouldin_planted(ray_session, tmp_path):
    """Same clusters: spreads 1 and 1, centroid gap 10 ->
    r_max = 0.2 for both labels."""
    from ocr_agent_ray.pipelines.similarity import davies_bouldin

    _write_embeddings(tmp_path,
                      [[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]],
                      [0, 0, 1, 1])
    got = davies_bouldin(str(tmp_path))
    assert got["label"].tolist() == [0, 1]
    assert got["n"].tolist() == [2, 2]
    assert got["spread"].tolist() == [1.0, 1.0]
    assert got["r_max"].tolist() == [0.2, 0.2]


def test_davies_bouldin_matches_sklearn_shape(ray_session, tmp_path):
    """mean(r_max) on a random-but-fixed frame equals the
    Davies-Bouldin index computed densely in numpy."""
    from ocr_agent_ray.pipelines.similarity import davies_bouldin

    rng = np.random.RandomState(7)
    vecs = np.vstack([rng.randn(20, 4) + c for c in (0.0, 5.0, 9.0)])
    vecs = vecs.astype(np.float32)
    labels = np.repeat([0, 1, 2], 20)
    _write_embeddings(tmp_path, vecs.tolist(), labels.tolist())
    got = davies_bouldin(str(tmp_path))

    v64 = vecs.astype(np.float64)
    cents = np.stack([v64[labels == l].mean(axis=0) for l in range(3)])
    spreads = np.array([
        np.linalg.norm(v64[labels == l] - cents[l], axis=1).mean()
        for l in range(3)])
    want = []
    for i in range(3):
        want.append(max(
            (spreads[i] + spreads[j]) / np.linalg.norm(cents[i] - cents[j])
            for j in range(3) if j != i))
    np.testing.assert_allclose(got["r_max"], want, atol=5e-6)
    np.testing.assert_allclose(got["spread"], spreads, atol=5e-6)


def test_yule_k_planted(ray_session, tmp_path):
    """'a a a b b c': N=6, sum c^2 = 14 -> K = 1e4*8/36 = 2222.222222;
    an all-distinct doc has K = 0."""
    from ocr_agent_ray.pipelines.text import yule_k_by_source

    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": ["a a a b b c", "x y z"],
        "lang": ["en", "en"],
        "source": ["rep", "rich"],
        "n_chars": [11, 5]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = yule_k_by_source(str(tmp_path)).set_index("source")
    assert got.loc["rep", "n_tokens"] == 6
    assert got.loc["rep", "n_types"] == 3
    assert got.loc["rep", "yule_k"] == round(10000.0 * 8.0 / 36.0, 6)
    assert got.loc["rich", "yule_k"] == 0.0


def test_ndcg_perfect_when_relevance_ties(ray_session, tmp_path):
    """All candidates share one relevance grade -> any order is ideal
    -> NDCG = 1 exactly."""
    from ocr_agent_ray.pipelines.text import ndcg_search

    docs = pd.DataFrame({
        "doc_id": range(5),
        "text": ["join hash pad%d" % i for i in range(5)],
        "lang": ["en"] * 5,
        "source": ["s"] * 5,
        "n_chars": [12] * 5})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ndcg_search(str(tmp_path)).to_pandas().set_index("query_id")
    assert got.loc[0, "ndcg"] == 1.0


def test_ndcg_matches_dense_reference(ray_session, tmp_path):
    """Dense pandas replay of the BM25 + linear-gain NDCG definition on
    a frame where length normalization makes the BM25 order diverge
    from the relevance order (so NDCG < 1 is actually exercised)."""
    from ocr_agent_ray.pipelines.text import ndcg_search

    rng = np.random.RandomState(3)
    texts = []
    for i in range(40):
        n_join = rng.randint(1, 6)
        n_hash = rng.randint(1, 6)
        pad = rng.randint(0, 60)
        texts.append(" ".join(["join"] * n_join + ["hash"] * n_hash
                              + ["pad"] * pad))
    docs = pd.DataFrame({
        "doc_id": range(40), "text": texts, "lang": ["en"] * 40,
        "source": ["s"] * 40,
        "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ndcg_search(str(tmp_path)).to_pandas().set_index("query_id")

    # dense reference for query 0 = ("join", "hash")
    toks = [t.split() for t in texts]
    dl = np.array([len(t) for t in toks], np.float64)
    tf_j = np.array([t.count("join") for t in toks], np.float64)
    tf_h = np.array([t.count("hash") for t in toks], np.float64)
    n = 40.0
    avgdl = dl.mean()
    k1, b = 1.2, 0.75
    score = np.zeros(40)
    for tfv, df in ((tf_j, (tf_j > 0).sum()), (tf_h, (tf_h > 0).sum())):
        idf = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * (tfv * (k1 + 1.0)) / (
            tfv + k1 * (1.0 - b + b * dl / avgdl))
    rel = (tf_j + tf_h).astype(np.int64)
    cand = pd.DataFrame({"doc_id": range(40), "score": score, "rel": rel})
    ranked = cand.sort_values(["score", "doc_id"],
                              ascending=[False, True]).head(20)
    ideal = cand.sort_values(["rel", "doc_id"],
                             ascending=[False, True]).head(20)
    disc = np.log2(np.arange(2, 22, dtype=np.float64))
    dcg = float((ranked["rel"].to_numpy() / disc).sum())
    idcg = float((ideal["rel"].to_numpy() / disc).sum())
    assert got.loc[0, "dcg"] == round(dcg, 6)
    assert got.loc[0, "idcg"] == round(idcg, 6)
    assert got.loc[0, "ndcg"] == round(dcg / idcg, 6)
    assert got.loc[0, "ndcg"] < 1.0


def test_avg_precision_all_relevant_is_one(ray_session, tmp_path):
    """Every candidate passes the relevance bar -> every P@i is 1 ->
    AP = 1 exactly."""
    from ocr_agent_ray.pipelines.text import avg_precision_search

    docs = pd.DataFrame({
        "doc_id": range(4),
        "text": ["join join hash hash x%d" % i for i in range(4)],
        "lang": ["en"] * 4, "source": ["s"] * 4, "n_chars": [20] * 4})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = avg_precision_search(str(tmp_path)).to_pandas() \
        .set_index("query_id")
    assert got.loc[0, "n_relevant"] == 4
    assert got.loc[0, "ap"] == 1.0


def test_avg_precision_matches_dense_reference(ray_session, tmp_path):
    """Dense replay of BM25 + AP@20 on a mixed-relevance frame; the
    relevant docs below the score cutoff still dilute the denominator."""
    from ocr_agent_ray.pipelines.text import avg_precision_search

    rng = np.random.RandomState(5)
    texts = []
    for i in range(60):
        n_join = rng.randint(1, 4)
        n_hash = rng.randint(1, 4)
        pad = rng.randint(0, 50)
        texts.append(" ".join(["join"] * n_join + ["hash"] * n_hash
                              + ["pad"] * pad))
    docs = pd.DataFrame({
        "doc_id": range(60), "text": texts, "lang": ["en"] * 60,
        "source": ["s"] * 60, "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = avg_precision_search(str(tmp_path)).to_pandas() \
        .set_index("query_id")

    toks = [t.split() for t in texts]
    dl = np.array([len(t) for t in toks], np.float64)
    tf_j = np.array([t.count("join") for t in toks], np.float64)
    tf_h = np.array([t.count("hash") for t in toks], np.float64)
    n, avgdl, k1, b = 60.0, dl.mean(), 1.2, 0.75
    score = np.zeros(60)
    for tfv, df in ((tf_j, (tf_j > 0).sum()), (tf_h, (tf_h > 0).sum())):
        idf = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * (tfv * (k1 + 1.0)) / (
            tfv + k1 * (1.0 - b + b * dl / avgdl))
    rel = ((tf_j + tf_h) >= 3).astype(np.int64)
    order = pd.DataFrame({"doc_id": range(60), "score": score,
                          "rel": rel}).sort_values(
        ["score", "doc_id"], ascending=[False, True])
    flags = order["rel"].to_numpy()[:20]
    prec = np.cumsum(flags) / np.arange(1, 21)
    ap = prec[flags == 1].sum() / min(int(rel.sum()), 20)
    assert got.loc[0, "n_relevant"] == int(rel.sum())
    assert got.loc[0, "ap"] == round(float(ap), 6)


def _write_docs(tmp_path, texts, sources, first_id=0):
    docs = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64) + first_id,
        "text": texts,
        "lang": ["en"] * len(texts), "source": sources,
        "n_chars": [len(t) for t in texts]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))


def test_chao1_planted(ray_session, tmp_path):
    """Counts {a:1, b:1, c:2, d:5}: V=4, f1=2, f2=1 ->
    Chao1 = 4 + 2*1/(2*2) = 4.5."""
    from ocr_agent_ray.pipelines.text import chao1_richness

    _write_docs(tmp_path, ["a b c c d d d d d"], ["s"])
    got = chao1_richness(str(tmp_path)).set_index("source")
    assert got.loc["s", "n_tokens"] == 9
    assert got.loc["s", "n_types"] == 4
    assert got.loc["s", "f1"] == 2
    assert got.loc["s", "f2"] == 1
    assert got.loc["s", "chao1"] == 4.5


def test_log_odds_matches_dense_reference(ray_session, tmp_path):
    """'x'-heavy src0 vs 'y'-heavy src1: x scores positive, y negative,
    values equal to the dense Dirichlet log-odds formula."""
    from ocr_agent_ray.pipelines.text import log_odds_terms

    _write_docs(tmp_path, ["x x x y", "y y y x"], ["src0", "src1"])
    got = log_odds_terms(str(tmp_path)).set_index("word")
    a = {"x": 3.0, "y": 1.0}
    b = {"x": 1.0, "y": 3.0}
    na, nb, v, al = 4.0, 4.0, 2.0, 0.01
    for w in ("x", "y"):
        delta = (np.log((a[w] + al) / (na + v * al - a[w] - al))
                 - np.log((b[w] + al) / (nb + v * al - b[w] - al)))
        z = delta / np.sqrt(1.0 / (a[w] + al) + 1.0 / (b[w] + al))
        assert got.loc[w, "z_score"] == round(float(z), 6)
    assert got.loc["x", "z_score"] > 0 > got.loc["y", "z_score"]


def test_gmm_em_matches_dense_reference(ray_session, tmp_path):
    """Dense numpy EM with the same deterministic init reproduces the
    distributed weights/variances/log-likelihood on a planted
    two-cluster frame."""
    from ocr_agent_ray.pipelines.similarity import gmm_em_embeddings

    rng = np.random.RandomState(9)
    vecs = np.vstack([rng.randn(30, 3) * 0.5,
                      rng.randn(30, 3) * 0.5 + 6.0]).astype(np.float32)
    _write_embeddings(tmp_path, vecs.tolist(), [0] * 60)
    k, iters = 2, 4
    got = gmm_em_embeddings(str(tmp_path), k=k, iters=iters)
    assert abs(got["weight"].sum() - 1.0) < 1e-5

    mat = vecs.astype(np.float64)
    mu = mat[:k].copy()
    var = np.ones((k, 3))
    w = np.full(k, 0.5)
    for _ in range(iters):
        const = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
        quad = (-0.5 * (((mat[:, None, :] - mu[None, :, :]) ** 2)
                        / var[None, :, :]).sum(axis=2))
        logp = np.log(w)[None, :] + const[None, :] + quad
        mx = logp.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logp - mx).sum(axis=1))
        r = np.exp(logp - lse[:, None])
        rs = r.sum(axis=0)
        mu = (r.T @ mat) / rs[:, None]
        var = np.maximum((r.T @ (mat * mat)) / rs[:, None] - mu * mu,
                         1e-3)
        w = rs / rs.sum()
        ll = lse.sum()
    np.testing.assert_allclose(got["weight"], w, atol=5e-6)
    np.testing.assert_allclose(got["n_soft"], rs, atol=5e-2)
    np.testing.assert_allclose(got["avg_var"], var.mean(axis=1),
                               atol=5e-5)
    assert abs(got["loglik"].iloc[0] - ll) < 5e-3
    # planted separation: one cluster centered near 0, one near 6
    assert got["weight"].tolist() == [0.5, 0.5]


def test_gmm_em_seeds_from_the_lowest_ids(ray_session, tmp_path):
    """Seeds are the k lowest vec_ids wherever the ids start: ids from
    1,000 give the same mixture as ids from 0. A table with fewer than k
    vectors is refused."""
    from ocr_agent_ray.pipelines.similarity import gmm_em_embeddings

    rng = np.random.RandomState(11)
    vecs = np.vstack([rng.randn(20, 3) * 0.5,
                      rng.randn(20, 3) * 0.5 + 6.0]).astype(np.float32)
    got = {}
    for first_id in (0, 1000):
        d = tmp_path / str(first_id)
        d.mkdir()
        _write_embeddings(d, vecs.tolist(), [0] * 40, first_id=first_id)
        got[first_id] = gmm_em_embeddings(str(d), k=3, iters=3)
    pd.testing.assert_frame_equal(got[0], got[1000])
    with pytest.raises(ValueError, match="k=41"):
        gmm_em_embeddings(str(tmp_path / "0"), k=41)


def test_burrows_delta_identical_sources_zero(ray_session, tmp_path):
    """Two stylistically identical sources have delta 0 to each other
    and equal positive delta to a divergent third."""
    from ocr_agent_ray.pipelines.text import burrows_delta

    s_text = "the cat sat on the mat and the dog ran"
    t_text = "quantum flux harmonics resonate beyond the veil tonight"
    _write_docs(tmp_path, [s_text, s_text, t_text],
                ["s1", "s2", "s3"])
    got = burrows_delta(str(tmp_path))
    d = {(r.source_a, r.source_b): r.delta
         for r in got.itertuples(index=False)}
    assert d[("s1", "s2")] == 0.0
    assert d[("s1", "s3")] > 0.0
    assert d[("s1", "s3")] == d[("s2", "s3")]


def test_rbo_matches_reference_loop(ray_session, tmp_path):
    """RBO fusion equals a direct reference loop over the two arms'
    output lists; a corpus where both arms agree perfectly on a
    single candidate scores the closed-form prefix sum."""
    from ocr_agent_ray.pipelines.text import (bm25_search, ql_search,
                                              rbo_arms)

    rng = np.random.RandomState(13)
    texts = []
    for i in range(30):
        texts.append(" ".join(
            ["join"] * rng.randint(1, 4) + ["hash"] * rng.randint(1, 4)
            + ["pad"] * rng.randint(0, 40)))
    _write_docs(tmp_path, texts, ["s"] * 30)
    got = rbo_arms(str(tmp_path)).set_index("query_id")

    a = bm25_search(str(tmp_path)).to_pandas()
    b = ql_search(str(tmp_path)).to_pandas()
    la = (a[a["query_id"] == 0]
          .sort_values(["score", "doc_id"], ascending=[False, True])
          ["doc_id"].tolist())
    lb = (b[b["query_id"] == 0]
          .sort_values(["score", "doc_id"], ascending=[False, True])
          ["doc_id"].tolist())
    acc = 0.0
    for dep in range(1, 21):
        acc += 0.9 ** (dep - 1) * len(set(la[:dep]) & set(lb[:dep])) / dep
    assert got.loc[0, "rbo"] == round(0.1 * acc, 6)
    assert 0.0 <= got.loc[0, "rbo"] <= 1.0


def test_bottomk_sample_merge_invariance(ray_session, tmp_path):
    """Bottom-k equals the dense bottom-k of the whole table, is
    k-sized, and the priority formula matches the Knuth hash."""
    from ocr_agent_ray.pipelines.relational import bottomk_sample_documents

    docs = pd.DataFrame({
        "doc_id": np.arange(500, dtype=np.int64) * 7 + 3,
        "text": ["t"] * 500, "lang": ["en"] * 500,
        "source": ["s"] * 500, "n_chars": [1] * 500})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = bottomk_sample_documents(str(tmp_path), k=16)
    d = docs["doc_id"].to_numpy(np.int64)
    pr = (d * np.int64(2654435761)) % np.int64(4294967296)
    want = pd.DataFrame({"doc_id": d, "priority": pr}) \
        .sort_values(["priority", "doc_id"]).head(16)
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["priority"].tolist() == want["priority"].tolist()


def test_bottomk_priority_exact_past_the_int64_product(ray_session,
                                                       tmp_path):
    """The int64 product wraps for doc_id above ~3.46e9, but 2^32
    divides 2^64, so the priority still equals exact integer
    arithmetic, up to the largest int64 id."""
    from ocr_agent_ray.pipelines.relational import bottomk_sample_documents

    ids = [0, 3_470_000_000, 2 ** 40 + 7, 2 ** 62 + 12345, 2 ** 63 - 1]
    docs = pd.DataFrame({
        "doc_id": np.array(ids, dtype=np.int64),
        "text": ["t"] * 5, "lang": ["en"] * 5,
        "source": ["s"] * 5, "n_chars": [1] * 5})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = bottomk_sample_documents(str(tmp_path), k=5).set_index("doc_id")
    assert {d: int(got.loc[d, "priority"]) for d in ids} == {
        d: d * 2654435761 % 2 ** 32 for d in ids}


def test_degree_powerlaw_planted_star(ray_session):
    """A 5-star: hub degree 5, leaves degree 1 ->
    alpha = 1 + 6/ln(10) exactly (leaf terms ln(1/0.5)=ln 2 each,
    hub ln(5/0.5)=ln 10; total 5 ln 2 + ln 10)."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import dup_graph_degree_powerlaw

    pairs = rd.from_pandas(pd.DataFrame({
        "doc_id_a": [0, 0, 0, 0, 0], "doc_id_b": [1, 2, 3, 4, 5]}))
    got = dup_graph_degree_powerlaw(None, pairs=pairs)
    assert got["n_nodes"].tolist() == [6]
    assert got["d_max"].tolist() == [5]
    s = 5 * np.log(2.0) + np.log(10.0)
    assert got["alpha"].tolist() == [round(1.0 + 6.0 / s, 6)]


def test_wasserstein_planted_shift(ray_session, tmp_path):
    """Point masses at length 10 vs length 30: W1 = 20 exactly; a
    half-overlapping pair gives the hand value 10."""
    from ocr_agent_ray.pipelines.text import wasserstein_lengths

    def write(lengths_a, lengths_b):
        n = len(lengths_a) + len(lengths_b)
        docs = pd.DataFrame({
            "doc_id": range(n),
            "text": ["x"] * n, "lang": ["en"] * n,
            "source": ["src0"] * len(lengths_a)
            + ["src1"] * len(lengths_b),
            "n_chars": list(lengths_a) + list(lengths_b)})
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       str(tmp_path / "documents.parquet"))

    write([10, 10], [30, 30])
    got = wasserstein_lengths(str(tmp_path))
    assert got["w1_distance"].tolist() == [20.0]

    # src0 = {10, 20}, src1 = {20, 30}: gaps 10 * |dF| (0.5, 0.5) = 10
    write([10, 20], [20, 30])
    got = wasserstein_lengths(str(tmp_path))
    assert got["w1_distance"].tolist() == [10.0]


def test_k_anonymity_planted(ray_session, tmp_path):
    """Six docs in one quasi-identifier group are safe; a lone doc in
    its own (lang, source, band) cell is at risk."""
    from ocr_agent_ray.pipelines.text import k_anonymity_audit

    docs = pd.DataFrame({
        "doc_id": range(7),
        "text": ["x"] * 7,
        "lang": ["en"] * 6 + ["de"],
        "source": ["s"] * 7,
        "n_chars": [150] * 6 + [950]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = k_anonymity_audit(str(tmp_path))
    assert got["n_groups"].tolist() == [2]
    assert got["n_small_groups"].tolist() == [1]
    assert got["n_docs_at_risk"].tolist() == [1]
    assert got["risk_fraction"].tolist() == [round(1.0 / 7.0, 6)]


def test_knn_label_purity_separated_clusters(ray_session, tmp_path):
    """Two well-separated clusters with clean labels -> purity 1 for
    both; flipping one label drags its neighbors' purity down."""
    from ocr_agent_ray.pipelines.similarity import knn_label_purity

    rng = np.random.RandomState(4)
    a = rng.randn(20, 8) * 0.05 + np.array([1.0] + [0.0] * 7)
    b = rng.randn(20, 8) * 0.05 + np.array([0.0] * 7 + [1.0])
    vecs = np.vstack([a, b]).astype(np.float32)
    _write_embeddings(tmp_path, vecs.tolist(), [0] * 20 + [1] * 20)
    got = knn_label_purity(str(tmp_path), k=3).set_index("label")
    assert got.loc[0, "mean_purity"] == 1.0
    assert got.loc[1, "mean_purity"] == 1.0
    assert got["n_vectors"].sum() == 40

    _write_embeddings(tmp_path, vecs.tolist(),
                      [0] * 19 + [1] + [1] * 20)
    got = knn_label_purity(str(tmp_path), k=3).set_index("label")
    assert got.loc[0, "mean_purity"] < 1.0


def test_lof_flags_isolated_point(ray_session, tmp_path):
    """A lone point far from one tight cluster gets the top LOF and
    LOF >> 1; in-cluster points sit near 1. Values match a dense LOF
    replay over the SAME graph edges."""
    from ocr_agent_ray.pipelines.similarity import (knn_graph_ivf,
                                                    lof_outliers)

    rng = np.random.RandomState(6)
    cluster = rng.randn(30, 6) * 0.02 + np.array([1.0, 0, 0, 0, 0, 0])
    lone = np.array([[0.0, 0.0, 0.3, 0.5, 0.6, 0.2]])
    vecs = np.vstack([cluster, lone]).astype(np.float32)
    _write_embeddings(tmp_path, vecs.tolist(), [0] * 31)
    got = lof_outliers(str(tmp_path), k=4)
    assert got["vec_id"].iloc[0] == 30
    assert got["lof"].iloc[0] > 2.0

    g = knn_graph_ivf(str(tmp_path), k=4).to_pandas()
    g["d"] = 1.0 - g["cosine"]
    kd = g.groupby("vec_id")["d"].max()
    reach = np.maximum(kd.loc[g["nbr_id"]].to_numpy(), g["d"].to_numpy())
    lrd = 1.0 / pd.Series(reach).groupby(g["vec_id"].to_numpy()).mean()
    lofv = (lrd.loc[g["nbr_id"]].to_numpy()
            / lrd.loc[g["vec_id"]].to_numpy())
    lof = pd.Series(lofv).groupby(g["vec_id"].to_numpy()).mean()
    want = round(float(lof.loc[30]), 6)
    assert abs(got["lof"].iloc[0] - want) < 5e-6


def test_label_propagation_separated_clusters(ray_session, tmp_path):
    """Two separated clusters with 20% seeds: propagation labels all
    held-out vectors with their cluster's label (coverage 1,
    accuracy 1)."""
    from ocr_agent_ray.pipelines.similarity import label_propagation_knn

    rng = np.random.RandomState(8)
    a = rng.randn(25, 8) * 0.05 + np.array([1.0] + [0.0] * 7)
    b = rng.randn(25, 8) * 0.05 + np.array([0.0] * 7 + [1.0])
    vecs = np.vstack([a, b]).astype(np.float32)
    _write_embeddings(tmp_path, vecs.tolist(), [0] * 25 + [1] * 25)
    got = label_propagation_knn(str(tmp_path), k=4, iters=3) \
        .set_index("label")
    assert got.loc[0, "coverage"] == 1.0
    assert got.loc[1, "coverage"] == 1.0
    assert got.loc[0, "accuracy"] == 1.0
    assert got.loc[1, "accuracy"] == 1.0
    assert int(got["n_heldout"].sum()) == 40


def test_source_modularity_planted(ray_session, tmp_path):
    """Two communities, all edges intra: with equal degree sums
    Q = 1 - 2*(1/2)^2 = 0.5; fully mixed edges score 0 or below."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import source_modularity

    docs = pd.DataFrame({
        "doc_id": range(4),
        "text": ["x"] * 4, "lang": ["en"] * 4,
        "source": ["A", "A", "B", "B"], "n_chars": [1] * 4})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    intra = rd.from_pandas(pd.DataFrame({
        "doc_id_a": [0, 2], "doc_id_b": [1, 3]}))
    got = source_modularity(str(tmp_path), pairs=intra)
    assert got["n_edges"].tolist() == [2]
    assert got["modularity"].tolist() == [0.5]

    cross = rd.from_pandas(pd.DataFrame({
        "doc_id_a": [0, 1], "doc_id_b": [2, 3]}))
    got = source_modularity(str(tmp_path), pairs=cross)
    assert got["modularity"].iloc[0] <= 0.0


def test_gram_novelty_planted(ray_session, tmp_path):
    """doc0 introduces all its grams (novelty 1); doc1 repeats doc0
    verbatim (novelty 0); doc2 is half-new."""
    from ocr_agent_ray.pipelines.text import gram_novelty

    base = "alpha beta gamma delta"            # one 4-gram
    half = "alpha beta gamma delta epsilon"    # grams: old + 1 new
    _write_docs(tmp_path, [base, base, half], ["s", "s", "s"])
    got = gram_novelty(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[0, "novelty"] == 1.0
    assert got.loc[1, "novelty"] == 0.0
    assert got.loc[2, "n_grams"] == 2
    assert got.loc[2, "n_novel"] == 1
    assert got.loc[2, "novelty"] == 0.5


def test_langid_confusion_diagonal_mass(ray_session):
    """Counts sum to the classified-doc total and the crosstab keys
    are within the observed language sets."""
    from ocr_agent_ray.pipelines.text import (langid_confusion,
                                              naive_bayes_langid)

    got = langid_confusion("/root/testdata/sf0.001")
    preds = naive_bayes_langid("/root/testdata/sf0.001")
    preds = preds.to_pandas() if hasattr(preds, "to_pandas") else preds
    assert int(got["n"].sum()) == len(preds)
    want = (preds.groupby(["lang", "pred_lang"]).size()
            .reset_index(name="n"))
    m = got.merge(want, on=["lang", "pred_lang"], suffixes=("", "_w"))
    assert (m["n"] == m["n_w"]).all() and len(m) == len(got)


def test_twonn_dimension_planted_manifold(ray_session, tmp_path):
    """Vectors on a smooth low-dimensional manifold embedded in a
    higher ambient space: the TwoNN estimate lands far below the
    ambient dim and is positive/finite."""
    from ocr_agent_ray.pipelines.similarity import (
        twonn_intrinsic_dimension)

    rng = np.random.RandomState(12)
    # 2-D latent coordinates lifted into 16-D by a fixed linear map
    z = rng.randn(200, 2)
    lift = rng.randn(2, 16)
    vecs = (z @ lift + 5.0).astype(np.float32)
    _write_embeddings(tmp_path, vecs.tolist(), [0] * 200)
    got = twonn_intrinsic_dimension(str(tmp_path))
    assert got["ambient_dim"].tolist() == [16]
    assert got["n_used"].iloc[0] > 100
    assert 0.5 < got["intrinsic_dim"].iloc[0] < 8.0


def test_threshold_sweep_monotone_and_planted(ray_session):
    """Edge/node counts are non-increasing in the threshold, and a
    planted pair table sweeps exactly."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import dedup_threshold_sweep

    pairs = rd.from_pandas(pd.DataFrame({
        "doc_id_a": [1, 2, 3, 4],
        "doc_id_b": [10, 20, 30, 40],
        "jaccard": [0.55, 0.65, 0.85, 0.95]}))
    got = dedup_threshold_sweep("unused", pairs=pairs)
    assert got["threshold"].tolist() == [0.5, 0.6, 0.7, 0.8, 0.9]
    assert got["n_pairs"].tolist() == [4, 3, 2, 2, 1]
    assert got["n_docs_touched"].tolist() == [8, 6, 4, 4, 2]
    assert (np.diff(got["n_pairs"]) <= 0).all()


def test_ipf_raking_converges_to_uniform_marginals(ray_session,
                                                   tmp_path):
    """A skewed lang x source grid rakes to uniform weighted marginals
    on both axes within 1e-6 relative."""
    from ocr_agent_ray.pipelines.relational import ipf_raking_weights

    rows = []
    counts = {("en", "a"): 40, ("en", "b"): 10,
              ("de", "a"): 5, ("de", "b"): 25}
    for (lg, src), c in counts.items():
        for _ in range(c):
            rows.append((len(rows), "x", lg, src, 1))
    docs = pd.DataFrame(rows, columns=["doc_id", "text", "lang",
                                       "source", "n_chars"])
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ipf_raking_weights(str(tmp_path), iters=30)
    total = float((got["weight"] * got["n_docs"]).sum())
    by_lang = (got["weight"] * got["n_docs"]).groupby(
        got["lang"]).sum()
    by_src = (got["weight"] * got["n_docs"]).groupby(
        got["source"]).sum()
    np.testing.assert_allclose(by_lang, total / 2, rtol=1e-6)
    np.testing.assert_allclose(by_src, total / 2, rtol=1e-6)
    # the rare (de, a) cell is upweighted hardest
    w = got.set_index(["lang", "source"])["weight"]
    assert w.loc[("de", "a")] == got["weight"].max()


def test_bh_terms_planted_extreme_term(ray_session, tmp_path):
    """One massively skewed term among balanced filler: the skewed
    term survives FDR control; the A&S polynomial stays within its
    documented 1.5e-7 of math.erfc."""
    import math

    from ocr_agent_ray.pipelines.text import (_norm_two_sided_p,
                                              bh_significant_terms)

    for z in (0.0, 0.5, 1.0, 2.0, 3.5, 6.0):
        want = math.erfc(abs(z) / math.sqrt(2.0))
        got = float(_norm_two_sided_p(np.array([z]))[0])
        assert abs(got - want) < 1.5e-7

    # NB: the term must appear on BOTH sides — a zero count keeps the
    # Dirichlet variance term 1/alpha = 100 in the denominator and the
    # z stays small no matter how lopsided the other side is
    filler_a = " ".join(f"w{i}" for i in range(30))
    filler_b = " ".join(f"w{i}" for i in range(30))
    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": [filler_a + " spam" * 400, filler_b + " spam" * 5],
        "lang": ["en", "en"],
        "source": ["src0", "src1"],
        "n_chars": [10, 10]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = bh_significant_terms(str(tmp_path))
    assert got["n_tested"].iloc[0] == 31
    assert got["n_significant"].iloc[0] >= 1
    assert 0.0 < got["bh_threshold"].iloc[0] <= 0.05


def test_dedup_savings_planted(ray_session, tmp_path):
    """Three copies of one doc plus a unique doc: 2 dropped, savings =
    dropped chars / total chars; first-wins keeps the lowest id."""
    from ocr_agent_ray.pipelines.dedup import dedup_savings_report

    docs = pd.DataFrame({
        "doc_id": [5, 1, 9, 3],
        "text": ["dup", "dup", "dup", "unique text"],
        "lang": ["en"] * 4, "source": ["s"] * 4,
        "n_chars": [3, 3, 3, 11]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = dedup_savings_report(str(tmp_path))
    assert got["n_docs"].tolist() == [4]
    assert got["n_kept"].tolist() == [2]
    assert got["n_dropped"].tolist() == [2]
    assert got["chars_total"].tolist() == [20]
    assert got["chars_dropped"].tolist() == [6]
    assert got["savings_fraction"].tolist() == [round(6 / 20, 6)]


def test_source_hhi_uniform_and_concentrated(ray_session, tmp_path):
    """Uniform 4-source mix: HHI = 0.25, effective_n = 4; one dominant
    source pushes HHI toward 1."""
    from ocr_agent_ray.pipelines.text import source_hhi

    _write_docs(tmp_path, ["x"] * 8,
                ["a", "b", "c", "d"] * 2)
    got = source_hhi(str(tmp_path))
    assert got["hhi"].tolist() == [0.25]
    assert got["effective_n"].tolist() == [4.0]

    _write_docs(tmp_path, ["x"] * 10, ["big"] * 9 + ["small"])
    got = source_hhi(str(tmp_path))
    assert got["hhi"].tolist() == [round(0.81 + 0.01, 6)]


def test_cluster_source_ari_planted_agreement(ray_session, tmp_path):
    """Duplicate families aligned 1:1 with sources score ARI near 1
    (sklearn's adjusted_rand_score replayed densely as reference)."""
    from ocr_agent_ray.pipelines.dedup import cluster_source_ari

    # two exact-duplicate families, each wholly inside one source,
    # plus no cross-source text reuse
    texts = (["the quick brown fox jumps over the lazy dog " * 3] * 6
             + ["pack my box with five dozen liquor jugs now " * 3] * 6)
    _write_docs(tmp_path, texts, ["s1"] * 6 + ["s2"] * 6)
    got = cluster_source_ari(str(tmp_path))
    assert got["n_docs"].tolist() == [12]
    assert got["ari"].iloc[0] == 1.0


def test_cluster_source_ari_exact_for_ids_past_float_precision(ray_session,
                                                              tmp_path):
    """Doc ids above 2^53 give the same result as ids from 0: no doc or
    cluster id goes through float64, so singletons in one source never
    share a cluster and no pair is lost or merged."""
    from ocr_agent_ray.pipelines.dedup import cluster_source_ari

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(5000)]

    def _unique():
        return " ".join(rng.choice(vocab, 40))

    # a family split across sources, then runs of singletons per source
    texts = (["the quick brown fox jumps over the lazy dog " * 3] * 3
             + [_unique() for _ in range(9)])
    sources = ["s1", "s2", "s1"] + ["s1"] * 4 + ["s2"] * 5
    got = {}
    for first_id in (0, 2 ** 53 + 1):
        d = tmp_path / str(first_id)
        d.mkdir()
        _write_docs(d, texts, sources, first_id=first_id)
        got[first_id] = cluster_source_ari(str(d))
    pd.testing.assert_frame_equal(got[0], got[2 ** 53 + 1])
    assert got[0]["sum_comb_cells"].tolist() == [1]


def test_mrr_planted_first_hit(ray_session, tmp_path):
    """Candidate pool where length normalization puts a low-relevance
    doc first: the first rel>=3 doc's 1-based rank drives 1/r; a
    query whose candidates never reach rel 3 scores 0 with NULL rank."""
    from ocr_agent_ray.pipelines.text import mrr_search

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        # doc 0: short, rel=2 (ranks first on BM25 but NOT relevant);
        # doc 1: rel=4 (the first relevant); doc 2: filler for q1/q2
        "text": ["join hash",
                 "join join hash hash " + "pad " * 30,
                 "vector stream"],
        "lang": ["en"] * 3, "source": ["s"] * 3,
        "n_chars": [9, 100, 13]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = mrr_search(str(tmp_path)).to_pandas().set_index("query_id")
    assert got.loc[0, "first_rel_rank"] == 2
    assert got.loc[0, "reciprocal_rank"] == 0.5
    # query 1 ("vector","stream"): doc 2 has rel 2 < 3 -> no hit
    assert pd.isna(got.loc[1, "first_rel_rank"])
    assert got.loc[1, "reciprocal_rank"] == 0.0

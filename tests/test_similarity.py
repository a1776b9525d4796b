"""Similarity search: brute-force exactness + LSH recall."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from ocr_agent_ray.pipelines.similarity import knn_bruteforce, knn_lsh

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def oracle_knn():
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ids = t["vec_id"].to_numpy()
    mat = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    out = {}
    for qid in range(8):
        qi = int(np.nonzero(ids == qid)[0][0])
        scores = unit @ unit[qi]
        order = np.lexsort((ids, -scores))
        order = [i for i in order if ids[i] != qid][:5]
        out[qid] = [(int(ids[i]), float(scores[i])) for i in order]
    return out


def test_knn_bruteforce_exact(ray_session, oracle_knn):
    out = knn_bruteforce(SF).to_pandas()
    for qid, expected in oracle_knn.items():
        got = out[out["query_id"] == qid].sort_values("rank")
        assert list(got["vec_id"]) == [v for v, _ in expected]
        for c, (_, s) in zip(got["cosine"], expected):
            assert abs(c - round(s, 6)) <= 1e-6


def test_knn_lsh_recall(ray_session, oracle_knn):
    out = knn_lsh(SF).to_pandas()
    hits = total = 0
    for qid, expected in oracle_knn.items():
        got = set(out[out["query_id"] == qid]["vec_id"])
        want = {v for v, _ in expected}
        hits += len(got & want)
        total += len(want)
    # measured ~0.75 on this corpus (random gaussian vectors — the hard
    # case); assert a safe floor well above chance
    assert hits / total >= 0.5
    # every returned neighbor's cosine must be exact (verification is exact)
    bf = knn_bruteforce(SF, k=500).to_pandas()  # superset scores
    merged = out.merge(bf, on=["query_id", "vec_id"], suffixes=("_lsh", "_bf"))
    assert (merged["cosine_lsh"] == merged["cosine_bf"]).all()


def test_kmeans_inertia_decreases_and_partitions(ray_session):
    import numpy as np

    from ocr_agent_ray.pipelines.similarity import kmeans_embeddings

    sf = "/root/testdata/sf0.001"
    one = kmeans_embeddings(sf, k=4, iters=1)
    five = kmeans_embeddings(sf, k=4, iters=5)
    # all points assigned every round
    assert one["size"].sum() == five["size"].sum() > 0
    # Lloyd's algorithm never increases total inertia
    assert five["inertia"].sum() <= one["inertia"].sum() + 1e-6
    # deterministic across runs (fixed seed init + order-free partials)
    again = kmeans_embeddings(sf, k=4, iters=5)
    assert list(five["size"]) == list(again["size"])
    assert np.allclose(five["inertia"], again["inertia"], atol=1e-4)


def test_embedding_covariance_matches_numpy(ray_session):
    from ocr_agent_ray.pipelines.similarity import embedding_covariance

    sf = "/root/testdata/sf0.001"
    got = embedding_covariance(sf)
    emb = pd.read_parquet(f"{sf}/embeddings.parquet")["embedding"]
    mat = np.stack([np.asarray(v, dtype=np.float32) for v in emb]).astype(
        np.float64)
    want = np.cov(mat, rowvar=False, bias=True)   # population covariance
    d = mat.shape[1]
    assert len(got) == d * d
    grid = got.pivot(index="i", columns="j", values="cov").to_numpy()
    assert np.allclose(grid, want, atol=1e-6)
    assert np.allclose(grid, grid.T, atol=1e-12)  # symmetric


def test_quantize_embeddings_roundtrip_error(ray_session):
    """int8 quantization: values reconstruct within half a step of the
    original in every dimension."""
    from ocr_agent_ray.pipelines.similarity import quantize_embeddings

    sf = "/root/testdata/sf0.001"
    got = quantize_embeddings(sf).to_pandas()
    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    mat = np.stack([np.asarray(v, dtype=np.float32)
                    for v in emb["embedding"]]).astype(np.float64)
    lo, hi = mat.min(axis=0), mat.max(axis=0)
    scale = np.where(hi == lo, 1.0, (hi - lo) / 255.0)
    n, d = mat.shape
    assert len(got) == n * d
    piv = got.pivot(index="vec_id", columns="dim", values="q")
    piv = piv.loc[emb["vec_id"]].to_numpy()
    deq = lo + piv * scale
    assert np.abs(deq - mat).max() <= (scale / 2 + 1e-9).max()


def test_pq_codes_reconstruction(ray_session):
    """PQ codes reconstruct vectors with lower error than quantizing to
    the global mean, are deterministic, and cover every (vec, subspace)."""
    from ocr_agent_ray.pipelines.similarity import pq_codes

    sf = "/root/testdata/sf0.001"
    m, k = 8, 16
    got = pq_codes(sf, m=m, k=k, iters=3).to_pandas()
    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    mat = np.stack([np.asarray(v, dtype=np.float32)
                    for v in emb["embedding"]]).astype(np.float64)
    n, dim = mat.shape
    sub = dim // m
    assert len(got) == n * m
    assert got["code"].between(0, k - 1).all()

    # rebuild codebooks from the assignment (centroid of each code's
    # members approximates the trained centroid) and bound the error
    piv = got.pivot(index="vec_id", columns="subspace", values="code")
    piv = piv.loc[emb["vec_id"]].to_numpy()
    err = 0.0
    base = 0.0
    for s in range(m):
        x = mat[:, s * sub:(s + 1) * sub]
        base += ((x - x.mean(axis=0)) ** 2).sum()
        for c in np.unique(piv[:, s]):
            msk = piv[:, s] == c
            err += ((x[msk] - x[msk].mean(axis=0)) ** 2).sum()
    assert err < base * 0.9          # strictly better than 1 centroid

    again = pq_codes(sf, m=m, k=k, iters=3).to_pandas()
    a = got.sort_values(["vec_id", "subspace"]).reset_index(drop=True)
    b = again.sort_values(["vec_id", "subspace"]).reset_index(drop=True)
    assert a.equals(b)


def test_lloyd_and_pq_seed_from_the_lowest_ids(ray_session, tmp_path):
    """k-means and PQ seed from the k lowest vec_ids wherever the ids
    start: ids from 1,000 give the same output as ids from 0. A table
    with fewer than k vectors is refused with a ValueError naming k."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.similarity import kmeans_embeddings, pq_codes

    rng = np.random.RandomState(5)
    vecs = np.vstack([rng.randn(20, 4) * 0.5,
                      rng.randn(20, 4) * 0.5 + 5.0]).astype(np.float32)
    km, codes = {}, {}
    for first_id in (0, 1000):
        d = tmp_path / str(first_id)
        d.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(range(first_id, first_id + len(vecs)),
                               pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32()))}),
            str(d / "embeddings.parquet"))
        km[first_id] = kmeans_embeddings(str(d), k=3, iters=3)
        c = pq_codes(str(d), m=2, k=4, iters=2).to_pandas()
        c["vec_id"] -= first_id
        codes[first_id] = c.sort_values(["vec_id", "subspace"]) \
            .reset_index(drop=True)
    pd.testing.assert_frame_equal(km[0], km[1000])
    pd.testing.assert_frame_equal(codes[0], codes[1000])
    with pytest.raises(ValueError, match="k=41"):
        kmeans_embeddings(str(tmp_path / "1000"), k=41)
    with pytest.raises(ValueError, match="k=41"):
        pq_codes(str(tmp_path / "1000"), m=2, k=41)


def test_ivf_and_pq_train_on_the_lowest_ids(tmp_path):
    """The IVF coarse quantizer and the PQ codebooks train on the
    sample_rows lowest vec_ids wherever the ids start: a table with ids
    5000-5039 trains the same centroids and codebooks as the same
    vectors with ids 0-39, for a sample of all rows and of the lowest
    16."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.similarity import (_ivf_centroids,
                                                    _pq_train_sample)

    rng = np.random.RandomState(11)
    vecs = rng.randn(40, 16).astype(np.float32)
    trained = {}
    for first_id in (0, 5000):
        d = tmp_path / str(first_id)
        d.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(range(first_id, first_id + len(vecs)),
                               pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32()))}),
            str(d / "embeddings.parquet"))
        trained[first_id] = [
            _ivf_centroids(str(d), 4),
            _ivf_centroids(str(d), 4, sample_rows=16),
            _pq_train_sample(str(d), 8, 4),
            _pq_train_sample(str(d), 8, 4, sample_rows=16)]
    for a, b in zip(trained[0], trained[5000]):
        np.testing.assert_array_equal(a, b)
    # a 16-row sample is not the whole table
    assert not np.array_equal(trained[0][0], trained[0][1])


def test_knn_queries_are_the_lowest_ids(ray_session, tmp_path):
    """The kNN queries are the num_queries lowest vec_ids wherever the
    ids start: a table with ids 5000-5039 answers exactly as the same
    vectors with ids 0-39, shifted by 5000, for the brute-force, LSH,
    IVF and IVF-PQ searches and the MMR re-rank on top of the
    brute-force pool; the brute-force twin picks the same query
    rows. RRF pairs BM25 query q with vec_id q, so on the shifted table
    its dense arm is empty on both sides and the fusion is the lexical
    ranking alone."""
    import duckdb
    import pyarrow as pa

    import __ray_entry__ as entrymod
    from ocr_agent_ray.pipelines.similarity import (knn_ivf, knn_ivf_pq,
                                                    mmr_rerank,
                                                    rrf_hybrid_search)

    rng = np.random.RandomState(17)
    vecs = rng.randn(40, 16).astype(np.float32)
    words = ["join", "hash", "vector", "stream", "window", "filter",
             "merge", "plain", "text", "noise"]
    texts = [" ".join(rng.choice(words, size=12)) for _ in range(40)]
    searches = {
        "bruteforce": knn_bruteforce, "lsh": knn_lsh,
        "ivf": lambda d: knn_ivf(d, num_lists=4, nprobe=2),
        "ivf_pq": lambda d: knn_ivf_pq(d, num_lists=4, nprobe=2, m=4,
                                       codebook_k=8),
        "mmr": mmr_rerank}
    got: dict = {}
    for first_id in (0, 5000):
        d = tmp_path / str(first_id)
        d.mkdir()
        ids = pa.array(range(first_id, first_id + 40), pa.int64())
        pq.write_table(pa.table({
            "vec_id": ids,
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32()))}),
            str(d / "embeddings.parquet"))
        pq.write_table(pa.table({"doc_id": ids, "text": texts}),
                       str(d / "documents.parquet"))
        for name, fn in searches.items():
            out = fn(str(d))
            out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
            out[["query_id", "vec_id"]] -= first_id
            got[first_id, name] = out.sort_values(
                ["query_id", "vec_id"]).reset_index(drop=True)
    for name in searches:
        n_queries = 3 if name == "mmr" else 8
        assert sorted(got[0, name]["query_id"].unique()) \
            == list(range(n_queries))
        pd.testing.assert_frame_equal(got[0, name], got[5000, name])

    d = str(tmp_path / "5000")
    con = duckdb.connect()
    for t in ("embeddings", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    sql = entrymod.oracle_sql()
    keys = ["query_id", "vec_id"]
    want = con.execute(sql["q_knn_bruteforce"]).df() \
        .sort_values(keys).reset_index(drop=True)
    mine = knn_bruteforce(d).to_pandas()[want.columns] \
        .sort_values(keys).reset_index(drop=True)
    assert sorted(want["query_id"].unique()) == list(range(5000, 5008))
    pd.testing.assert_frame_equal(mine, want, check_dtype=False)

    keys = ["query_id", "fused_rank"]
    rrf = rrf_hybrid_search(d).sort_values(keys).reset_index(drop=True)
    want = con.execute(sql["q_rrf_hybrid_search"]).df() \
        .sort_values(keys).reset_index(drop=True)
    assert len(rrf) > 0 and (rrf["sem_rank"] == 0).all()
    pd.testing.assert_frame_equal(rrf, want[rrf.columns], check_dtype=False)


def test_embedding_outliers_degenerate_labels(ray_session, tmp_path):
    """Labels with one member (sample stddev undefined) or zero variance
    (all members identical) must z-score to NaN on BOTH the Ray side and
    the DuckDB oracle (NULL) — ADVICE r3: previously Ray emitted inf on
    zero variance while the oracle emitted NULL."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from ocr_agent_ray.pipelines.similarity import embedding_outliers

    rng = np.random.default_rng(5)
    rows = []
    for i in range(5):  # healthy label 0
        rows.append((i, 0, rng.standard_normal(8).astype(np.float32)))
    rows.append((10, 1, rng.standard_normal(8).astype(np.float32)))  # n==1
    const = rng.standard_normal(8).astype(np.float32)
    for i in range(3):  # zero-variance label 2
        rows.append((20 + i, 2, const.copy()))
    tbl = pa.table({
        "vec_id": pa.array([r[0] for r in rows], pa.int64()),
        "embedding": pa.array([r[2].tolist() for r in rows],
                              pa.list_(pa.float32())),
        "label": pa.array([r[1] for r in rows], pa.int32()),
    })
    pq.write_table(tbl, tmp_path / "embeddings.parquet")

    got = (embedding_outliers(str(tmp_path)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    want = (con.execute(entrymod.oracle_sql()["q_embedding_outliers"]).df()
            .sort_values("vec_id").reset_index(drop=True))

    assert list(got["vec_id"]) == list(want["vec_id"])
    np.testing.assert_allclose(got["dist"], want["dist"], atol=1e-6)
    # healthy label: finite z on both sides; degenerate: NaN on both
    for g, w, lab in zip(got["z"], want["z"], got["label"]):
        if lab == 0:
            assert np.isfinite(g) and abs(g - w) < 1e-6, (lab, g, w)
        else:
            assert np.isnan(g) and (w is None or np.isnan(w)), (lab, g, w)


def test_pca_project_matches_dense_numpy(ray_session):
    """pca_project (rows-only in the driver gate) vs a dense numpy PCA:
    same covariance, same top-k eigenvector subspace, same deterministic
    sign convention (largest-|loading| coordinate positive), projections
    equal after the shared rounding."""
    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.similarity import pca_project

    sf = "/root/testdata/sf0.001"
    k = 4
    got = (pca_project(sf, k=k).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))

    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    mat = np.stack([np.asarray(v, dtype=np.float32)
                    for v in emb["embedding"]]).astype(np.float64)
    mean = mat.mean(axis=0)
    cov = np.cov(mat, rowvar=False, bias=True)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    assert w[order[0]] >= w[order[-1]]  # explained-variance ordering
    comps = v[:, order]
    sel = np.argmax(np.abs(comps), axis=0)
    signs = np.sign(comps[sel, np.arange(k)])
    signs[signs == 0] = 1.0
    comps = comps * signs
    want = (mat - mean) @ comps

    assert len(got) == len(emb)
    piv = got.set_index("vec_id").loc[emb["vec_id"]]
    for j in range(k):
        np.testing.assert_allclose(
            piv[f"pc{j}"].to_numpy(),
            round_half_away(want[:, j], 6), atol=2e-6)


def test_knn_graph_ivf_recall_and_determinism(ray_session):
    """knn_graph_ivf (rows-only): recall vs the exact O(n²) brute-force
    kNN graph must be high on the clustered test embeddings, every
    reported cosine must equal the exact pairwise cosine, and two runs
    must be byte-identical (stable tie-breaks end to end)."""
    from ocr_agent_ray.pipelines.similarity import knn_graph_ivf

    sf = "/root/testdata/sf0.001"
    k = 5
    got = (knn_graph_ivf(sf, k=k).to_pandas()
           .sort_values(["vec_id", "rank"]).reset_index(drop=True))

    emb = pd.read_parquet(f"{sf}/embeddings.parquet")
    ids = emb["vec_id"].to_numpy()
    mat = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)

    exact = {}
    for r, vid in enumerate(ids):
        order = np.lexsort((ids, -sims[r]))[:k]
        exact[int(vid)] = {int(ids[j]) for j in order}

    hits = total = 0
    id_row = {int(v): r for r, v in enumerate(ids)}
    for vid, sub in got.groupby("vec_id"):
        assert len(sub) <= k
        assert list(sub["rank"]) == list(range(1, len(sub) + 1))
        for nbr, cos in zip(sub["nbr_id"], sub["cosine"]):
            true_cos = sims[id_row[int(vid)], id_row[int(nbr)]]
            assert abs(cos - true_cos) < 1e-5  # scores are exact
        hits += len(set(sub["nbr_id"].astype(int)) & exact[int(vid)])
        total += k
    assert len(got["vec_id"].unique()) == len(ids)  # every vector covered
    recall = hits / total
    assert recall >= 0.8, f"recall {recall:.3f}"

    again = (knn_graph_ivf(sf, k=k).to_pandas()
             .sort_values(["vec_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_rrf_hybrid_search_matches_brute_fusion(ray_session):
    """RRF output equals a direct driver-side fusion of the two arms'
    outputs (same sf_dir), and a doc present in BOTH arms' top-k beats
    any doc with only one arm at the same or worse rank."""
    from ocr_agent_ray.pipelines.similarity import rrf_hybrid_search
    from ocr_agent_ray.pipelines.text import bm25_search

    got = rrf_hybrid_search(SF)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()

    lex = bm25_search(SF, k=20).to_pandas()
    lex = lex[lex["query_id"] < 3]
    lex = lex.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True])
    lex["lr"] = lex.groupby("query_id").cumcount() + 1
    sem = knn_bruteforce(SF, k=20, num_queries=3).to_pandas()
    want = {}
    for qid in range(3):
        ranks: dict[int, list[int]] = {}
        for _, r in lex[lex["query_id"] == qid].iterrows():
            ranks.setdefault(int(r["doc_id"]), [0, 0])[0] = int(r["lr"])
        for _, r in sem[sem["query_id"] == qid].iterrows():
            ranks.setdefault(int(r["vec_id"]), [0, 0])[1] = int(r["rank"])
        scored = sorted(
            ((sum(1.0 / (60 + x) for x in v if x), d)
             for d, v in ranks.items()),
            key=lambda t: (-t[0], t[1]))
        want[qid] = scored[:10]
    for qid in range(3):
        sub = got[got["query_id"] == qid].sort_values("fused_rank")
        assert sub["doc_id"].tolist() == [d for _, d in want[qid]]
        assert np.allclose(sub["rrf_score"].to_numpy(),
                           [s for s, _ in want[qid]], atol=5.1e-7)
        # both-arm docs dominate single-arm docs of equal-or-worse ranks
        both = sub[(sub["lex_rank"] > 0) & (sub["sem_rank"] > 0)]
        single = sub[(sub["lex_rank"] == 0) | (sub["sem_rank"] == 0)]
        for _, b in both.iterrows():
            worse = single[
                ((single["lex_rank"] >= b["lex_rank"])
                 | (single["lex_rank"] == 0))
                & ((single["sem_rank"] >= b["sem_rank"])
                   | (single["sem_rank"] == 0))]
            assert (worse["rrf_score"] <= b["rrf_score"] + 1e-12).all()


def test_embedding_dbscan_matches_brute_and_tile_invariance(ray_session):
    """DBSCAN output equals a dense brute-force reference (degree, core
    rule, min-id components, min-cluster border attach, noise), and is
    invariant to the block-tile grid size (num_blocks=1 computes every
    pair in one tile; 4 splits into 10 tiles — identical edges)."""
    from ocr_agent_ray.pipelines.similarity import _unit, embedding_dbscan

    got = embedding_dbscan(SF).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    got1 = embedding_dbscan(SF, num_blocks=1).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, got1)

    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id")
    ids = t["vec_id"].to_numpy(np.int64)
    unit = _unit(np.stack(t["embedding"].to_numpy()))
    adj = (unit @ unit.T) >= 0.32
    np.fill_diagonal(adj, False)
    deg = adj.sum(1)
    core = deg >= 3
    lbl = np.where(core, ids, np.int64(-1))
    sub = adj & core[:, None] & core[None, :]
    for _ in range(len(ids)):
        new = lbl.copy()
        for k in np.nonzero(core)[0]:
            nb = np.nonzero(sub[k])[0]
            if nb.size:
                new[k] = min(lbl[k], lbl[nb].min())
        if (new == lbl).all():
            break
        lbl = new
    role, cl = [], []
    for k in range(len(ids)):
        if core[k]:
            role.append("core")
            cl.append(int(lbl[k]))
        else:
            nbrs = [int(lbl[j]) for j in np.nonzero(adj[k])[0] if core[j]]
            role.append("border" if nbrs else "noise")
            cl.append(min(nbrs) if nbrs else -1)
    want = pd.DataFrame({"vec_id": ids, "role": role,
                         "cluster_id": np.array(cl, dtype=np.int64),
                         "n_neighbors": deg.astype(np.int64)}) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["vec_id", "role", "cluster_id", "n_neighbors"]], want)
    # the structure is non-trivial: all three roles and >1 cluster
    assert set(got["role"]) == {"core", "border", "noise"}
    assert got.loc[got["cluster_id"] >= 0, "cluster_id"].nunique() > 1


def test_silhouette_by_label_matches_dense_reference(ray_session):
    """Silhouette per label equals a dense O(N²) reference (cosine
    distance, sklearn conventions: singleton/single-cluster points
    score 0)."""
    from ocr_agent_ray.pipelines.similarity import (_unit,
                                                    silhouette_by_label)

    got = silhouette_by_label(SF)
    got = (got if isinstance(got, pd.DataFrame) else got.to_pandas()) \
        .sort_values("label").reset_index(drop=True)

    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id")
    labels = t["label"].to_numpy(np.int64)
    unit = _unit(np.stack(t["embedding"].to_numpy()))
    dist = 1.0 - unit @ unit.T
    uniq = np.unique(labels)
    sil = np.zeros(len(labels))
    for i in range(len(labels)):
        same = (labels == labels[i])
        same[i] = False
        if not same.any():
            continue
        a = dist[i, same].mean()
        b = min(dist[i, labels == lb].mean()
                for lb in uniq if lb != labels[i])
        mx = max(a, b)
        sil[i] = 0.0 if mx == 0.0 else (b - a) / mx
    want = pd.DataFrame({
        "label": uniq.astype(np.int64),
        "n": np.array([(labels == lb).sum() for lb in uniq], np.int64),
        "mean_silhouette": [round(float(sil[labels == lb].mean()), 6)
                            for lb in uniq]})
    assert got["label"].tolist() == want["label"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    assert np.allclose(got["mean_silhouette"], want["mean_silhouette"],
                       atol=5.1e-7)


def test_mmr_rerank_dense_reference_and_diversity(ray_session):
    """MMR selection equals a dense greedy reference; the first pick is
    the relevance top-1; and MMR actually diversifies: its picks'
    mean pairwise similarity never exceeds plain top-k's."""
    from ocr_agent_ray.pipelines.similarity import (_unit, knn_bruteforce,
                                                    mmr_rerank)

    got = mmr_rerank(SF)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()

    cand = knn_bruteforce(SF, k=20, num_queries=3).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas() \
        .sort_values("vec_id")
    pos = {int(v): i for i, v in enumerate(t["vec_id"])}
    unit = _unit(np.stack(t["embedding"].to_numpy()))
    lam = 0.7
    for qid in range(3):
        sub = cand[cand["query_id"] == qid].sort_values("rank")
        ids = sub["vec_id"].to_numpy(np.int64)
        rel = sub["cosine"].to_numpy(np.float64)
        mat = unit[[pos[int(v)] for v in ids]]
        sims = mat @ mat.T
        chosen, remaining = [], list(range(len(ids)))
        while remaining and len(chosen) < 10:
            scored = []
            for i in remaining:
                div = max((sims[i, j] for j in chosen), default=0.0)
                scored.append((lam * rel[i] - (1 - lam) * div, -ids[i], i))
            scored.sort(reverse=True)
            chosen.append(scored[0][2])
            remaining.remove(scored[0][2])
        want_ids = [int(ids[i]) for i in chosen]
        g = got[got["query_id"] == qid].sort_values("mmr_rank")
        assert g["vec_id"].tolist() == want_ids
        assert g["vec_id"].iloc[0] == int(ids[0])  # top-1 = relevance top-1
        # diversity: mean pairwise sim of MMR picks <= plain top-10's
        def _mps(sel):
            m = unit[[pos[v] for v in sel]]
            s = m @ m.T
            iu = np.triu_indices(len(sel), k=1)
            return s[iu].mean()
        assert _mps(want_ids) <= _mps([int(v) for v in ids[:10]]) + 1e-12

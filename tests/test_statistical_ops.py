"""Statistical / exact-Jaccard operator wave: inverted-index n-gram
Jaccard (exact recall) and its cluster round-trip, heavy-hitter and
TF-IDF ranking, rank statistics over document lengths, and OLS."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import ray.data as rd

SF = "/root/testdata/sf0.001"


def _brute_jaccard_pairs(docs: pd.DataFrame, n: int, threshold: float):
    import re

    tok = re.compile(r"[0-9a-z_]+")
    sets = {}
    for did, text in zip(docs["doc_id"], docs["text"]):
        toks = tok.findall((text or "").lower())
        sets[did] = {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}
    ids = sorted(sets)
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = sets[a], sets[b]
            if not sa and not sb:
                continue
            inter = len(sa & sb)
            if not inter:
                continue
            j = round(inter / (len(sa) + len(sb) - inter), 6)
            if j >= threshold:
                out.append((a, b, j))
    return sorted(out)


def test_ngram_jaccard_all_pairs_exact_recall(ray_session):
    from ocr_agent_ray.pipelines.dedup import ngram_jaccard_all_pairs

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    want = _brute_jaccard_pairs(docs, n=4, threshold=0.5)
    got = ngram_jaccard_all_pairs(
        rd.from_pandas(docs), n=4, threshold=0.5
    ).to_pandas()
    got_pairs = sorted(
        (int(a), int(b), float(j))
        for a, b, j in zip(got["doc_id_a"], got["doc_id_b"], got["jaccard"])
    )
    assert got_pairs == want  # recall AND precision: identical pair set


def test_ngram_clusters_are_transitive(ray_session):
    from ocr_agent_ray.pipelines.dedup import (
        duplicate_clusters,
        ngram_jaccard_all_pairs,
    )

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    pairs = ngram_jaccard_all_pairs(docs).materialize()
    labels = duplicate_clusters(pairs)
    lab = dict(zip(labels["doc_id"], labels["cluster_id"]))
    for a, b in zip(*(pairs.to_pandas()[c] for c in ("doc_id_a", "doc_id_b"))):
        assert lab[a] == lab[b]
    # every cluster_id is the min doc_id of its member set
    by_cluster = pd.DataFrame(
        {"doc_id": list(lab), "cluster_id": list(lab.values())}
    ).groupby("cluster_id")["doc_id"].min()
    assert (by_cluster.index == by_cluster.to_numpy()).all()


def test_topk_sketch_contains_exact_heavy_hitters(ray_session):
    from ocr_agent_ray.functions.sketch import topk_words_sketch
    from ocr_agent_ray.pipelines.relational import top_words

    exact = top_words(SF, k=10)
    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    approx = topk_words_sketch(docs, k=20, capacity=512)
    # Misra-Gries guarantee: every true heavy hitter survives the sketch
    assert set(exact["word"]) <= set(approx["word"])
    # approx counts within n_words/capacity of the exact counts
    n_words = int(
        pq.read_table(f"{SF}/documents.parquet", columns=["text"])
        .to_pandas()["text"].str.lower().str.findall(r"[0-9a-z_]+")
        .str.len().sum())
    err = n_words / 512
    merged = exact.merge(approx, on="word")
    assert ((merged["n"] - merged["approx_n"]).abs() <= err).all()
    # approximate counts never exceed true counts (MG only decrements)
    assert (merged["approx_n"] <= merged["n"]).all()


def test_tfidf_ranks_rare_terms_over_ubiquitous(ray_session):
    from ocr_agent_ray.pipelines.text import tfidf_top_terms

    out = tfidf_top_terms(SF, k=5).to_pandas()
    assert set(out.columns) == {"source", "word", "tfidf"}
    assert (out.groupby("source").size() <= 5).all()
    # a word present in every document has idf=0 and can never outrank a
    # positive-idf term; 'the'-like ubiquitous tokens must score 0 if present
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    in_all = docs["text"].str.lower().str.contains("data").all()
    if in_all:
        assert (out.loc[out["word"] == "data", "tfidf"] == 0).all()
    assert (out["tfidf"] >= 0).all()


def test_ks_planted_shifted_samples(ray_session, tmp_path):
    """src0 lengths {1,2,3,4} vs src1 {3,4,5,6}: max ECDF gap is 0.5,
    first reached at length 2; an unrelated source is ignored."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.text import ks_source_lengths

    docs = pd.DataFrame({
        "doc_id": range(9),
        "text": ["x"] * 9,
        "lang": ["en"] * 9,
        "source": ["src0"] * 4 + ["src1"] * 4 + ["srcZ"],
        "n_chars": [1, 2, 3, 4, 3, 4, 5, 6, 100]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ks_source_lengths(str(tmp_path))
    assert got["n_a"].tolist() == [4]
    assert got["n_b"].tolist() == [4]
    assert got["ks_d"].tolist() == [0.5]
    assert got["at_len"].tolist() == [2]


def test_length_auc_separation_and_ties(ray_session, tmp_path):
    """Perfect separation -> AUC 1.0; a tied length counts half
    (planted case 0.125 checked against the pairwise definition)."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.text import length_auc_lang

    def _write(lens_pos, lens_neg, d):
        docs = pd.DataFrame({
            "doc_id": range(len(lens_pos) + len(lens_neg)),
            "text": ["x"] * (len(lens_pos) + len(lens_neg)),
            "lang": ["en"] * len(lens_pos) + ["de"] * len(lens_neg),
            "source": "src0",
            "n_chars": lens_pos + lens_neg})
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       str(d / "documents.parquet"))

    _write([3, 4], [1, 2], tmp_path)
    got = length_auc_lang(str(tmp_path))
    assert got["auc"].tolist() == [1.0]
    assert got["n_pos"].tolist() == [2] and got["n_neg"].tolist() == [2]

    _write([1, 2], [2, 3], tmp_path)  # overwrite: one tie at len 2
    got = length_auc_lang(str(tmp_path))
    assert got["auc"].tolist() == [0.125]


def test_spearman_ties_and_monotone(ray_session, tmp_path):
    """Tie-heavy planted case hand-computed via average ranks:
    x=[1,2,2,3] vs token counts [10,20,20,5] -> rho = -1.5/4.5; a
    perfectly monotone pair gives rho 1.0."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.text import spearman_chars_tokens

    def _write(n_chars, tok_counts, d):
        docs = pd.DataFrame({
            "doc_id": range(len(n_chars)),
            "text": [" ".join(["t"] * k) for k in tok_counts],
            "lang": "en", "source": "src0", "n_chars": n_chars})
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       str(d / "documents.parquet"))

    _write([1, 2, 2, 3], [10, 20, 20, 5], tmp_path)
    got = spearman_chars_tokens(str(tmp_path))
    assert got["n_docs"].tolist() == [4]
    assert got["spearman_rho"].tolist() == [-0.333333]

    _write([5, 1, 9, 3], [50, 10, 90, 30], tmp_path)
    got = spearman_chars_tokens(str(tmp_path))
    assert got["spearman_rho"].tolist() == [1.0]


def test_quality_pct_rank_ties_and_singleton(ray_session, tmp_path):
    """Ties share the strictly-below count (both 0.02 docs get 1/3);
    a single-doc source pins pct_rank to 0."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.text import quality_pct_rank_by_source

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["x", "x y z w", "x y z w", "the the the the", "z"],
        "lang": "en",
        "source": ["A", "A", "A", "A", "B"],
        "n_chars": [1, 7, 7, 15, 1]})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = quality_pct_rank_by_source(str(tmp_path))
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["quality_score"].tolist() == [0.005, 0.02, 0.02, 0.52,
                                             0.005]
    assert got["pct_rank"].tolist() == [0.0, 0.333333, 0.333333, 1.0,
                                        0.0]


def test_js_divergence_zero_and_symmetric(ray_session, tmp_path):
    """A single-source corpus has p = q exactly -> jsd 0; two mirrored
    sources get equal jsd matching the direct formula (full support
    including each source's zero-count words)."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.text import source_js_divergence

    def _write(texts_by_source, d):
        rows = []
        for src, texts in texts_by_source.items():
            for t in texts:
                rows.append((len(rows), t, "en", src, len(t)))
        docs = pd.DataFrame(rows, columns=["doc_id", "text", "lang",
                                           "source", "n_chars"])
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       str(d / "documents.parquet"))

    _write({"A": ["x x y", "y x"]}, tmp_path)
    got = source_js_divergence(str(tmp_path))
    assert got["jsd"].tolist() == [0.0]

    # mirrored: A has x twice/y once + one 'only_a'; B swaps roles
    tmp2 = tmp_path / "two"
    tmp2.mkdir()
    _write({"A": ["x x y za"], "B": ["y y x zb"]}, tmp2)
    got = source_js_divergence(str(tmp2)).set_index("source")
    assert got.loc["A", "jsd"] == got.loc["B", "jsd"] > 0

    # direct-formula replay for source A: corpus q over support
    # {x:3, y:3, za:1, zb:1}/8, p_A = {x:.5, y:.25, za:.25, zb:0}
    q = np.array([3, 3, 1, 1], dtype=np.float64) / 8.0
    p = np.array([2, 1, 1, 0], dtype=np.float64) / 4.0
    mm = 0.5 * (p + q)
    tp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1) / mm), 0.0)
    tq = q * np.log(q / mm)
    want = round(0.5 * tp.sum() + 0.5 * tq.sum(), 6)
    assert abs(got.loc["A", "jsd"] - want) < 2e-6


def test_ols_chars_model_matches_lstsq(ray_session, tmp_path):
    """Cramer-rule coefficients equal numpy lstsq on the design matrix;
    a perfectly linear corpus recovers the plant with r2 = 1."""
    import pyarrow as pa

    from ocr_agent_ray.pipelines.relational import ols_chars_model

    rng = np.random.RandomState(11)
    words = ["data", "spark", "ok", "zzz", "aeiou", "xyzzy", "table"]
    texts = [" ".join(rng.choice(words, rng.randint(3, 40)))
             for _ in range(300)]
    docs = pd.DataFrame({
        "doc_id": np.arange(300, dtype=np.int64),
        "text": texts,
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64)})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ols_chars_model(str(tmp_path))
    x1 = np.array([len(t.split()) for t in texts], dtype=np.float64)
    x2 = np.array([sum(t.count(v) for v in "aeiou") for t in texts],
                  dtype=np.float64)
    y = docs["n_chars"].to_numpy(np.float64)
    X = np.column_stack([np.ones_like(x1), x1, x2])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert got["n"].tolist() == [300]
    assert abs(got["b0"][0] - beta[0]) < 1e-4
    assert abs(got["b1"][0] - beta[1]) < 1e-4
    assert abs(got["b2"][0] - beta[2]) < 1e-4
    resid = y - X @ beta
    r2 = 1.0 - (resid @ resid) / ((y - y.mean()) @ (y - y.mean()))
    assert abs(got["r2"][0] - r2) < 1e-6

    # exactly-planted linear relation -> r2 == 1
    docs2 = docs.assign(n_chars=(5 + 3 * x1 + 2 * x2).astype(np.int64))
    pq.write_table(pa.Table.from_pandas(docs2, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = ols_chars_model(str(tmp_path))
    assert got["b0"].tolist() == [5.0]
    assert got["b1"].tolist() == [3.0]
    assert got["b2"].tolist() == [2.0]
    assert got["r2"].tolist() == [1.0]

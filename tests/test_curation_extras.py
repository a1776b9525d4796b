"""Planted-fixture tests for the round-4 curation extras: per-source
Gini, blocklist screening, CCNet boilerplate strip, search and near-dup
media ops."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write(tmp_path, name: str, df: pd.DataFrame) -> str:
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / f"{name}.parquet"))
    return str(tmp_path)


def test_gini_known_values(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import gini_doc_lengths

    rng = np.random.default_rng(5)
    # src_eq: all equal lengths -> gini 0; src_rand: compare vs numpy
    lens_eq = np.full(40, 100, dtype=np.int64)
    lens_rand = rng.integers(10, 1000, 200).astype(np.int64)
    df = pd.DataFrame({
        "doc_id": np.arange(240, dtype=np.int64),
        "source": ["src_eq"] * 40 + ["src_rand"] * 200,
        "n_chars": np.r_[lens_eq, lens_rand],
        "text": "x",
    })
    sf = _write(tmp_path, "documents", df)
    got = gini_doc_lengths(sf).set_index("source")["gini"]
    assert got["src_eq"] == 0.0

    x = np.sort(lens_rand)
    i = np.arange(1, len(x) + 1)
    n = float(len(x))
    expect = (2.0 * float((i * x).sum())) / (n * float(x.sum())) \
        - (n + 1.0) / n
    assert abs(got["src_rand"] - expect) < 1e-6
    assert 0.0 < got["src_rand"] < 1.0


def test_blocklist_hits_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import blocklist_hits

    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "source": ["a", "a", "b", "b"],
        "text": [
            "spark spark slow",       # 3 hits -> flagged
            "clean doc",              # 0 hits
            "bigbig slow",            # 3 hits (big twice overlap-free)
            "spark",                  # 1 hit
        ],
        "n_chars": np.int64(1),
    })
    sf = _write(tmp_path, "documents", df)
    got = blocklist_hits(sf).set_index("source")
    assert got.loc["a", "docs"] == 2
    assert got.loc["a", "flagged_docs"] == 1
    assert got.loc["a", "total_hits"] == 3
    assert got.loc["b", "flagged_docs"] == 1
    assert got.loc["b", "total_hits"] == 4


def test_boilerplate_strip_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import boilerplate_strip

    # source A: FOOTER repeats in 3 docs (boilerplate); source B carries
    # the same line in only ONE doc (must survive there). A duplicated
    # line WITHIN one doc counts that doc once (nunique), so it is NOT
    # boilerplate at min_docs=2.
    docs = [
        (0, "A", "unique a0\nFOOTER\nbody a0"),
        (1, "A", "FOOTER\nunique a1"),
        (2, "A", "body a2\nFOOTER"),
        (3, "A", "twice\ntwice\nkeep me"),
        (4, "B", "FOOTER\nunique b0"),
        (5, "B", "other b1"),
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "source", "text"])
    df["doc_id"] = df["doc_id"].astype(np.int64)
    df["n_chars"] = df["text"].str.len().astype(np.int64)
    sf = _write(tmp_path, "documents", df)

    got = (boilerplate_strip(sf, min_docs=2).to_pandas()
           .set_index("doc_id").sort_index())
    assert got.loc[0, "clean_text"] == "unique a0\nbody a0"
    assert got.loc[0, "n_boiler_lines"] == 1
    assert got.loc[1, "clean_text"] == "unique a1"
    assert got.loc[2, "clean_text"] == "body a2"
    # within-doc duplicate is not boilerplate
    assert got.loc[3, "clean_text"] == "twice\ntwice\nkeep me"
    assert got.loc[3, "n_boiler_lines"] == 0
    # same line in another source survives
    assert got.loc[4, "clean_text"] == "FOOTER\nunique b0"
    assert got.loc[5, "clean_text"] == "other b1"
    assert (got["n_lines"] ==
            df.set_index("doc_id")["text"].str.split("\n").str.len()
            .sort_index()).all()


def test_docs_for_80pct_known(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import docs_for_80pct

    # src_one: top doc alone covers exactly 80% -> 1
    # src_flat: 10 equal docs -> need 8
    df = pd.DataFrame({
        "doc_id": np.arange(14, dtype=np.int64),
        "source": ["src_one"] * 4 + ["src_flat"] * 10,
        "n_chars": np.array([80, 10, 5, 5] + [7] * 10, dtype=np.int64),
        "text": "x",
    })
    sf = _write(tmp_path, "documents", df)
    got = docs_for_80pct(sf).set_index("source")
    assert got.loc["src_one", "docs_80pct"] == 1
    assert got.loc["src_one", "n_docs"] == 4
    assert got.loc["src_flat", "docs_80pct"] == 8


def test_bm25_matches_brute_force(ray_session, tmp_path):
    """Pipeline BM25 == a dense pandas reference on a planted corpus."""
    from ocr_agent_ray.pipelines.text import _SEARCH_QUERIES, bm25_search

    rng = np.random.default_rng(13)
    vocab = ["join", "hash", "vector", "stream", "window", "filter",
             "merge", "alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 60))))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                       "text": texts})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))

    got = bm25_search(str(tmp_path), k=10).to_pandas()

    # dense reference
    k1, b = 1.2, 0.75
    toks = [t.split() for t in texts]
    dl = np.array([len(t) for t in toks], dtype=float)
    avgdl = float(dl.sum()) / len(dl)
    n = float(len(toks))
    for qid, qterms in _SEARCH_QUERIES.items():
        dfreq = {t: sum(1 for d in toks if t in d) for t in qterms}
        rows = []
        for i, d in enumerate(toks):
            tfs = {t: d.count(t) for t in qterms}
            if all(v > 0 for v in tfs.values()):
                s = 0.0
                for t in qterms:
                    idf = np.log((n - dfreq[t] + 0.5)
                                 / (dfreq[t] + 0.5) + 1.0)
                    s += idf * (tfs[t] * (k1 + 1.0)) / (
                        tfs[t] + k1 * (1.0 - b + b * dl[i] / avgdl))
                rows.append((i, s))
        rows.sort(key=lambda r: (-r[1], r[0]))
        expect = rows[:10]
        sub = got[got["query_id"] == qid].reset_index(drop=True)
        assert list(sub["doc_id"]) == [r[0] for r in expect]
        for (_, s), gs in zip(expect, sub["score"]):
            assert abs(s - gs) < 1e-5


def test_mixture_weights_properties(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.text import mixture_weights

    df = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        "source": ["big", "small", "tiny"],
        "text": ["w " * 1600, "w " * 100, "w " * 25],  # tokens 1600/100/25
        "n_chars": np.int64(1),
    })
    sf = _write(tmp_path, "documents", df)
    got = mixture_weights(sf, alpha=0.5).set_index("source")
    # sqrt weights: 40/10/5 -> 8/11, 2/11, 1/11
    assert abs(got.loc["big", "mix_weight"] - 8 / 11) < 1e-6
    assert abs(got.loc["tiny", "mix_weight"] - 1 / 11) < 1e-6
    # temperature flattens: small sources upsampled, big downsampled
    tot = 1725.0
    assert got.loc["tiny", "sample_rate"] > 1.0
    assert got.loc["big", "sample_rate"] < 1.0
    assert abs(got.loc["small", "sample_rate"]
               - (2 / 11) * tot / 100) < 1e-6
    # alpha=1 reduces to proportional (rate 1 everywhere)
    got1 = mixture_weights(sf, alpha=1.0).set_index("source")
    assert np.allclose(got1["sample_rate"], 1.0)


def test_dup_source_matrix_planted(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.dedup import dup_pair_source_matrix

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon")
    other = ("one two three four five six seven eight nine ten eleven "
             "twelve thirteen fourteen fifteen sixteen")
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "source": ["A", "A", "B", "B", "B"],
        "text": [base, base + " end",          # A-A near-dup
                 base + " tail", other,        # A-B near-dups via base
                 "unrelated totally different words entirely here now"],
        "n_chars": np.int64(1),
    })
    sf = _write(tmp_path, "documents", df)
    got = dup_pair_source_matrix(sf).set_index(["src_lo", "src_hi"])
    assert got.loc[("A", "A"), "n_pairs"] == 1     # docs 0-1
    assert got.loc[("A", "B"), "n_pairs"] == 2     # 0-2 and 1-2
    assert ("B", "B") not in got.index


def test_minhash_store_short_docs_bypass(ray_session, tmp_path):
    """Docs with no shingles (< shingle_k chars) are always admitted —
    they never near-dup-match each other — but re-admission of the same
    doc_id is still rejected via the stored sentinel."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import MinHashStore

    store = MinHashStore(str(tmp_path / "s"), num_buckets=4)
    wave = pd.DataFrame({"doc_id": [1, 2, 3],
                         "text": ["a", "zzzz", ""]})
    got = set(store.admit(rd.from_pandas(wave)).to_pandas()["doc_id"])
    assert got == {1, 2, 3}
    again = store.admit(rd.from_pandas(wave)).to_pandas()
    assert len(again) == 0


def test_dhash64_known_bits():
    from ocr_agent_ray.functions.hashing import dhash64_batch

    # gradient rows: every adjacent-column comparison is True -> all ones
    inc = np.tile(np.arange(9, dtype=np.uint8), (8, 1))
    dec = inc[:, ::-1].copy()
    h = dhash64_batch(np.stack([inc, dec]))
    assert h[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert h[1] == np.uint64(0)
    # one flipped cell flips few bits (locality)
    near = inc.copy()
    near[3, 4] = 0
    h2 = dhash64_batch(np.stack([inc, near]))
    assert 0 < bin(int(h2[0] ^ h2[1])).count("1") <= 2


def test_media_phash_pairs_controlled_codec(ray_session):
    """Near-identical grids pair at small Hamming; distinct grids don't.
    The codec is injected — the real decode stays stubbed, the Ray-side
    plumbing (actor pool, banding, verification) is what's under test."""
    import ray.data as rd

    from ocr_agent_ray.pipelines.dedup import media_phash_pairs

    class GridCodec:
        """payload byte 0 selects a base grid; byte 1 perturbs one cell."""

        def luma_grid(self, payload, gw=9, gh=8):
            rng = np.random.default_rng(payload[0])
            g = rng.integers(0, 255, (gh, gw)).astype(np.uint8)
            if payload[1]:
                g[0, 0] = 255 - g[0, 0]
            return g

    units = pd.DataFrame({
        "unit_id": np.arange(5, dtype=np.int64),
        "media_bytes": [bytes([1, 0]), bytes([1, 1]),   # near-dup pair
                        bytes([2, 0]), bytes([3, 0]),   # distinct
                        None],   # null payload: must not corrupt the
                                 # batch's hashes (int64+null -> float64)
    })
    got = (media_phash_pairs(rd.from_pandas(units),
                             codec_factory=GridCodec, max_hamming=3)
           .to_pandas())
    assert len(got) == 1
    assert (int(got["doc_id_a"].iloc[0]), int(got["doc_id_b"].iloc[0])) \
        == (0, 1)
    assert int(got["hamming"].iloc[0]) <= 2


def test_image_phash_dup_pairs_planted(ray_session):
    from ocr_agent_ray.pipelines.dedup import image_phash_dup_pairs

    got = image_phash_dup_pairs("/root/testdata/sf0.001").to_pandas()
    got = got.sort_values("unit_a").reset_index(drop=True)
    # docs 0..499: planted pairs are (10k, 10k+1) for 10k+1 < 500
    expect = [(k * 10, k * 10 + 1) for k in range(50)]
    assert list(zip(got["unit_a"], got["unit_b"])) == expect
    assert (got["hamming"] == 0).all()


def test_snapshot_diff_planted(ray_session):
    import ray.data as rd

    from ocr_agent_ray.sources.maintenance import snapshot_diff

    base = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                         "text": ["a", "b", "c", "d"]})
    new = pd.DataFrame({"doc_id": np.array([0, 1, 3, 9], dtype=np.int64),
                        "text": ["a", "B!", "d", "new"]})
    got = (snapshot_diff(rd.from_pandas(base), rd.from_pandas(new),
                         key="doc_id").to_pandas()
           .set_index("doc_id")["change_type"])
    assert got[0] == "unchanged"
    assert got[1] == "changed"
    assert got[2] == "removed"
    assert got[3] == "unchanged"
    assert got[9] == "added"


def test_ql_search_matches_brute_force(ray_session, tmp_path):
    """Pipeline Dirichlet query likelihood == a dense pandas reference
    on a planted corpus, and longer docs with equal tf score lower
    (the length normalization BM25's b-term approximates)."""
    from ocr_agent_ray.pipelines.text import _SEARCH_QUERIES, ql_search

    rng = np.random.default_rng(29)
    vocab = ["join", "hash", "vector", "stream", "window", "filter",
             "merge", "alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(5, 60))))
             for _ in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300, dtype=np.int64),
                       "text": texts})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))

    mu = 2000.0
    got = ql_search(str(tmp_path), k=10, mu=mu).to_pandas()

    toks = [t.split() for t in texts]
    dl = np.array([len(t) for t in toks], dtype=float)
    ctot = float(dl.sum())
    for qid, qterms in _SEARCH_QUERIES.items():
        cf = {t: sum(d.count(t) for d in toks) for t in qterms}
        rows = []
        for i, d in enumerate(toks):
            tfs = {t: d.count(t) for t in qterms}
            if all(v > 0 for v in tfs.values()):
                s = sum(np.log((tfs[t] + mu * (cf[t] / ctot))
                               / (dl[i] + mu)) for t in qterms)
                rows.append((i, s))
        rows.sort(key=lambda r: (-r[1], r[0]))
        expect = rows[:10]
        sub = got[got["query_id"] == qid].reset_index(drop=True)
        assert list(sub["doc_id"]) == [r[0] for r in expect]
        for (_, s), gs in zip(expect, sub["score"]):
            assert abs(s - gs) < 1e-5
    # length normalization: same tf, longer doc -> strictly lower score
    df2 = pd.DataFrame({
        "doc_id": np.array([0, 1], dtype=np.int64),
        "text": ["join hash short", "join hash " + "pad " * 200]})
    pq.write_table(pa.Table.from_pandas(df2, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got2 = ql_search(str(tmp_path), k=10, mu=mu).to_pandas()
    sub = got2[got2["query_id"] == 0].set_index("doc_id")
    assert sub.loc[0, "score"] > sub.loc[1, "score"]

"""Text-analysis kernels: quality features, language-ID, fingerprints."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from ocr_agent_ray.functions.textstats import (
    detect_language,
    md5_fingerprint,
    quality_features,
    rolling_fingerprint,
    round_half_away,
    token_counts,
)


def test_round_half_away_matches_duckdb():
    import duckdb

    vals = [0.0078125, -0.0078125, 1.2345675, 0.1, 2.5e-6, -2.5e-6]
    con = duckdb.connect()
    for v in vals:
        expect = con.execute(f"SELECT ROUND({v!r}::DOUBLE, 6)").fetchone()[0]
        assert float(round_half_away(np.float64(v), 6)) == expect, v


def test_token_counts():
    s = pd.Series(["a b_c  d", "", None, "x,y;z"])
    assert list(token_counts(s)) == [3, 0, 0, 3]


def test_quality_features_golden():
    f = quality_features(pd.Series(["the cat sat on the mat", ""]))
    assert list(f["n_tokens"]) == [6, 0]
    assert list(f["n_chars"]) == [22, 0]
    # stopwords: the, on, the -> 3/6
    assert f["stop_ratio"][0] == 0.5
    assert f["quality_score"][0] == round(0.5 * 6 / 100 + 0.25, 6)


def test_detect_language_on_fixtures():
    cases = {
        "en": "the cat and the dog were in the house with a friend of the family",
        "de": "der hund und die katze sind nicht mit einem freund in dem haus",
        "fr": "le chien et les chats sont dans la maison avec un ami de la famille",
        "es": "el perro y los gatos no se encuentran en la casa con un amigo",
    }
    for lang, text in cases.items():
        pred, score = detect_language(text)
        assert pred == lang, (lang, pred, score)
        assert score > 0
    assert detect_language("")[0] == "und"
    assert detect_language("zzz qqq xxx")[0] == "und"


def test_detect_language_batch_matches_scalar():
    from ocr_agent_ray.functions.textstats import detect_language_batch

    texts = [
        "the cat and the dog were in the house with a friend of the family",
        "der hund und die katze sind nicht mit einem freund in dem haus",
        "le chien et les chats sont dans la maison avec un ami de la famille",
        "el perro y los gatos no se encuentran en la casa con un amigo",
        "il cane e il gatto sono nella casa con un amico della famiglia",
        "", "zzz qqq xxx", "the der le el il",  # und / tie cases
        "word " * 500,  # cap at 200 tokens
    ]
    out = detect_language_batch(pd.Series(texts))
    for i, t in enumerate(texts):
        pred, score = detect_language(t)
        assert out["lang_pred"].iloc[i] == pred, (t[:30], pred, out["lang_pred"].iloc[i])
        assert abs(out["lang_score"].iloc[i] - score) < 1e-12


def test_md5_fingerprint_unicode_whitespace_ascii_pinned():
    # NBSP and \x0b are NOT collapsed (RE2 \s is ASCII-only); regular
    # ASCII whitespace is
    s = pd.Series(["a\u00a0b", "a b", "a\tb", "a\x0bb"])
    out = md5_fingerprint(s)
    assert out[0] != out[1]          # NBSP preserved
    assert out[2] == out[1]          # tab collapses to space
    assert out[3] != out[1]          # vertical tab preserved (RE2 parity)


def test_md5_fingerprint_normalization():
    s = pd.Series(["  Hello   World ", "hello world"])
    out = md5_fingerprint(s)
    assert out[0] == out[1] == hashlib.md5(b"hello world").hexdigest()
    raw = md5_fingerprint(s, normalize=False)
    assert raw[0] != raw[1]


def test_rolling_fingerprint_properties():
    a = rolling_fingerprint("the quick brown fox jumps over the lazy dog" * 3)
    assert a == rolling_fingerprint("the quick brown fox jumps over the lazy dog" * 3)
    assert rolling_fingerprint("") == []
    b = rolling_fingerprint("a completely different document body" * 3)
    assert set(a) != set(b)


def test_doc_length_zscore_properties(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import doc_length_zscore

    sf = "/root/testdata/sf0.001"
    got = doc_length_zscore(sf).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "source", "n_chars"]).to_pandas()
    assert len(got) == len(docs)
    # z-scores are standardized within every source: mean ~0, std ~1
    g = got.groupby("source")["z_chars"]
    assert (g.mean().abs() < 1e-4).all()
    assert ((g.std() - 1).abs() < 1e-3).all()
    # spot-check one doc against the two-pass formula
    row = docs.iloc[0]
    sub = docs[docs["source"] == row["source"]]["n_chars"]
    want = (row["n_chars"] - sub.mean()) / sub.std()
    gotv = float(got.loc[got["doc_id"] == row["doc_id"], "z_chars"].iloc[0])
    assert abs(gotv - want) < 1e-5


def test_rare_word_docs_bottom_k(ray_session):
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import rare_word_docs

    sf = "/root/testdata/sf0.001"
    got = rare_word_docs(sf, k_rarest=3).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    toks = docs["text"].str.lower().str.findall(r"[0-9a-z_]+")
    counts = toks.explode().value_counts()
    rare = set(counts.reset_index().sort_values(
        ["count", "text"], kind="mergesort").head(3)["text"])
    want = {
        did: len(set(t) & rare)
        for did, t in zip(docs["doc_id"], toks) if set(t) & rare
    }
    assert dict(zip(got["doc_id"], got["n_rare_words"])) == want


def test_gopher_features_edge_cases():
    import pandas as pd

    from ocr_agent_ray.functions.textstats import gopher_features

    texts = pd.Series([
        "",                                    # empty doc
        "- one\n* two\n• three\nplain",  # bullets incl unicode
        "wait...\nmore...\nok",                # ellipsis line endings
        "### #tags # everywhere",              # symbol-heavy
        " ".join(["word"] * 60),               # passes every gopher rule
    ])
    out = gopher_features(texts)
    assert out.loc[0, "n_words"] == 0
    assert out.loc[0, "mean_word_len"] == 0.0
    assert not out.loc[0, "keep"]
    assert out.loc[1, "bullet_ratio"] == 0.75   # 3 of 4 lines
    assert out.loc[2, "ellipsis_ratio"] == round(2 / 3, 6)
    # '###' is 3 symbols + '#tags' 1 + '#' 1 = 5 over 2 words (tags, everywhere)
    assert out.loc[3, "symbol_ratio"] == 2.5
    assert not out.loc[3, "keep"]
    assert out.loc[4, "n_words"] == 60
    assert out.loc[4, "alpha_word_ratio"] == 1.0
    assert bool(out.loc[4, "keep"])


def test_c4_line_filter_edge_cases():
    import pandas as pd

    from ocr_agent_ray.functions.textstats import c4_line_filter

    texts = pd.Series([
        "",
        "This line has enough words to keep.\nshort.\nno terminal punct here",
        'He said "five words are here."\nAnother good sentence stays here!',
        "function() { lorem ipsum JavaScript }",
    ])
    out = c4_line_filter(texts)
    assert out.loc[0, "clean_text"] == ""
    assert out.loc[0, "n_lines"] == 1 and out.loc[0, "n_kept_lines"] == 0
    # only the first line survives: ends in '.', >=5 tokens
    assert out.loc[1, "clean_text"] == "This line has enough words to keep."
    assert out.loc[1, "n_kept_lines"] == 1 and out.loc[1, "n_lines"] == 3
    # quote-terminated line kept; both lines survive, joined in order
    assert out.loc[2, "clean_text"].count("\n") == 1
    assert out.loc[2, "n_kept_lines"] == 2
    assert bool(out.loc[3, "has_brace"])
    assert bool(out.loc[3, "has_lorem"])
    assert bool(out.loc[3, "has_javascript"])
    assert not bool(out.loc[2, "has_brace"])


def test_top_collocations_planted(ray_session, tmp_path):
    """'new york' occurs as an adjacent pair in every doc while both words
    are rare elsewhere -> highest PMI; counts match a sequential oracle."""
    import collections
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import top_collocations

    rng = np.random.default_rng(5)
    filler = "the of and to a in is it you that".split()
    rows = []
    for i in range(60):
        words = list(rng.choice(filler, size=30))
        words[10:10] = ["new", "york"]
        rows.append({"doc_id": i, "text": " ".join(words)})
    df = pd.DataFrame(rows)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = top_collocations(str(tmp_path), k=5, min_count=5)
    assert (got["w1"].iloc[0], got["w2"].iloc[0]) == ("new", "york")

    # sequential oracle over the same corpus
    uni = collections.Counter()
    big = collections.Counter()
    for t in df["text"]:
        toks = t.split()
        uni.update(toks)
        big.update(zip(toks, toks[1:]))
    n, nb = sum(uni.values()), sum(big.values())
    for _, r in got.iterrows():
        c = big[(r["w1"], r["w2"])]
        assert c == r["pair_count"]
        pmi = math.log((c / nb) / ((uni[r["w1"]] / n) * (uni[r["w2"]] / n)))
        assert abs(pmi - r["pmi"]) < 1e-6


def test_token_entropy_known_values(ray_session, tmp_path):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import token_entropy

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b c d",          # uniform over 4 -> ln(4)
                 "x x x x",          # single token -> 0
                 "a a b",            # -(2/3 ln 2/3 + 1/3 ln 1/3)
                 "..."],             # no tokens -> excluded
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = token_entropy(str(tmp_path)).to_pandas().set_index("doc_id")
    assert set(got.index) == {1, 2, 3}
    assert abs(got.loc[1, "entropy"] - math.log(4)) < 1e-6
    assert got.loc[2, "entropy"] == 0.0
    expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
    assert abs(got.loc[3, "entropy"] - expected) < 1e-6
    assert got.loc[1, "n_tokens"] == 4 and got.loc[1, "n_distinct"] == 4
    assert got.loc[2, "n_tokens"] == 4 and got.loc[2, "n_distinct"] == 1


def test_email_domain_counts_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import email_domain_counts

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["contact Bob@Example.COM or alice@mail.example.org now",
                 "x bob@example.com y carol@test.net",
                 "no addresses here @ not-an-email"],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = email_domain_counts(str(tmp_path)).set_index("domain")["n"]
    assert got.to_dict() == {"example.com": 2, "mail.example.org": 1,
                             "test.net": 1}


def test_sentence_stats_whitespace_parity(ray_session, tmp_path):
    """Space-only trim (DuckDB trim() semantics): a tab-prefixed segment
    keeps its tab in the length; planted counts verified."""
    import duckdb

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import sentence_stats

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["One. Two sentences!  Three?",
                 "no terminator at all",
                 "dots... everywhere.. ! ?"],   # empty segments dropped
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = sentence_stats(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[1, "n_sentences"] == 3
    assert got.loc[2, "n_sentences"] == 1
    assert got.loc[3, "n_sentences"] == 2      # 'dots', 'everywhere'
    want = duckdb.sql(
        "WITH segs AS (SELECT doc_id, list_filter(list_transform("
        "string_split_regex(text, '[.!?]+'), s -> trim(s)), s -> s != '') "
        f"AS ss FROM read_parquet('{tmp_path}/documents.parquet')) "
        "SELECT doc_id, CAST(len(ss) AS BIGINT) AS n, "
        "ROUND(CASE WHEN len(ss) = 0 THEN 0.0 ELSE "
        "list_sum(list_transform(ss, s -> length(s))) / "
        "CAST(len(ss) AS DOUBLE) END, 6) AS avg FROM segs").df()
    want = want.set_index("doc_id")
    assert (got["n_sentences"] == want["n"]).all()
    assert np.allclose(got["avg_sentence_chars"], want["avg"])


def test_bigram_perplexity_orders_quality(ray_session, tmp_path):
    """A doc made of the corpus's dominant phrasing scores LOWER
    perplexity than a doc of rare one-off token sequences."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import bigram_perplexity

    common = "the quick brown fox jumps over the lazy dog"
    rows = [{"doc_id": i, "text": common} for i in range(20)]
    rows.append({"doc_id": 100, "text": common})            # in-domain
    rows.append({"doc_id": 101,
                 "text": "zq xv qj wk vx kq jz zz qq ww"})  # gibberish
    rows.append({"doc_id": 102, "text": "solo"})            # <2 tokens
    df = pd.DataFrame(rows)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = bigram_perplexity(str(tmp_path)).to_pandas().set_index("doc_id")
    assert 102 not in got.index                   # no bigrams -> excluded
    assert got.loc[100, "ppl"] < got.loc[101, "ppl"]
    assert got.loc[100, "n_bigrams"] == len(common.split()) - 1


def test_learn_bpe_merges_golden(ray_session, tmp_path):
    """Hand-computed BPE merges on a tiny vocab: 'low'x5 + 'lower'x2
    (classic Sennrich example, lowercase-alpha tokenizer)."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    docs = pa.table({
        "doc_id": list(range(7)),
        "text": ["low"] * 5 + ["lower"] * 2,
    })
    sf = str(tmp_path)
    pq.write_table(docs, f"{sf}/documents.parquet")

    from ocr_agent_ray.pipelines.text import learn_bpe_merges
    out = learn_bpe_merges(sf, n_merges=3)
    # pair counts: (l,o)=7, (o,w)=7, (w,</w>)=5, (w,e)=2, ... first
    # merge is (l,o) by lexicographic tie-break over (o,w)
    assert out.iloc[0][["left", "right", "pair_count"]].tolist() == \
        ["l", "o", 7]
    assert out.iloc[1][["left", "right", "pair_count"]].tolist() == \
        ["lo", "w", 7]
    assert out.iloc[2][["left", "right", "pair_count"]].tolist() == \
        ["low", "</w>", 5]


def test_learn_bpe_merges_deterministic(ray_session):
    from ocr_agent_ray.pipelines.text import learn_bpe_merges

    sf = "/root/testdata/sf0.001"
    a = learn_bpe_merges(sf, n_merges=8)
    b = learn_bpe_merges(sf, n_merges=8)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 8


def test_bpe_compression_stats_invariants(ray_session):
    from ocr_agent_ray.pipelines.text import bpe_compression_stats

    out = bpe_compression_stats("/root/testdata/sf0.001", n_merges=10)
    assert len(out) > 0
    # merges can only SHORTEN words: tokens <= chars + n_words (</w>)
    assert (out["n_bpe_tokens"] <= out["n_chars"] + out["n_words"]).all()
    # with 10 merges some compression must appear vs char-level
    assert (out["chars_per_token"] > 0.5).all()
    b = bpe_compression_stats("/root/testdata/sf0.001", n_merges=10)
    pd.testing.assert_frame_equal(out, b)


def test_dsir_scores_orders_target_like_docs(ray_session, tmp_path):
    """DSIR log-likelihood-ratio scoring: a doc written in the target
    corpus's vocabulary must outscore a doc written in the source
    corpus's vocabulary, and per-doc token counts are exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import dsir_scores

    t_words = "alpha beta gamma delta epsilon"
    s_words = "uno dos tres cuatro cinco"
    rows = []
    for i in range(20):
        rows.append((i, f"{t_words} {t_words}", "en"))
        rows.append((100 + i, f"{s_words} {s_words}", "es"))
    # probes: unseen ids, one per vocabulary
    rows.append((900, t_words, "de"))
    rows.append((901, s_words, "de"))
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
        "source": pa.array(["s"] * len(rows), pa.string()),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int32()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")

    out = dsir_scores(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[900, "dsir_score"] > 0 > out.loc[901, "dsir_score"]
    assert out.loc[900, "n_tokens"] == 5 and out.loc[901, "n_tokens"] == 5
    assert len(out) == len(rows)


def test_quality_classifier_matches_dense_gd(ray_session):
    """quality_classifier_scores (rows-only): the distributed full-batch
    GD must match an identical dense numpy GD (same standardization,
    same schedule) on probabilities, the loss must decrease, and the
    learned classifier must recover the Gopher rule labels well."""
    import numpy as np
    import pandas as pd

    from ocr_agent_ray.functions.textstats import (gopher_features,
                                                   round_half_away)
    from ocr_agent_ray.pipelines.text import quality_classifier_scores

    sf = "/root/testdata/sf0.001"
    iters, lr = 10, 3.0
    got = (quality_classifier_scores(sf, iters=iters, lr=lr).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    docs = pd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text"]).sort_values("doc_id")
    g = gopher_features(docs["text"])
    x = np.column_stack([
        np.log1p(g["n_words"].to_numpy(np.float64)),
        g["mean_word_len"].to_numpy(np.float64),
        g["symbol_ratio"].to_numpy(np.float64),
        g["bullet_ratio"].to_numpy(np.float64),
        g["ellipsis_ratio"].to_numpy(np.float64),
        g["alpha_word_ratio"].to_numpy(np.float64),
    ])
    y = g["keep"].to_numpy().astype(np.float64)
    mean = x.mean(axis=0)
    var = (x * x).mean(axis=0) - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    std[std == 0] = 1.0
    xs = (x - mean) / std
    n = len(y)
    w = np.zeros(x.shape[1] + 1)
    losses = []
    for _ in range(iters):
        z = w[0] + xs @ w[1:]
        p = 1.0 / (1.0 + np.exp(-z))
        losses.append(float(np.sum(
            np.log1p(np.exp(-np.abs(z)))
            + np.where(z > 0, z * (1 - y), -z * y))))
        grad = np.concatenate(([np.sum(p - y)], xs.T @ (p - y)))
        w = w - lr * grad / n
    prob = 1.0 / (1.0 + np.exp(-(w[0] + xs @ w[1:])))

    assert len(got) == n
    assert losses[-1] < losses[0]  # GD made progress
    np.testing.assert_allclose(
        got["prob"].to_numpy(), round_half_away(prob, 6), atol=2e-6)
    assert (got["label"].to_numpy() == y.astype(np.int64)).all()
    acc = (got["pred"].to_numpy() == got["label"].to_numpy()).mean()
    assert acc >= 0.8, f"accuracy {acc:.3f}"


def test_naive_bayes_langid_planted(ray_session, tmp_path):
    """Separable two-language corpus: NB must recover the labels, and the
    scores must match a dense numpy replication of the closed form."""
    import collections
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.functions.textstats import round_half_away
    from ocr_agent_ray.pipelines.text import naive_bayes_langid

    rng = np.random.default_rng(11)
    vocab_a = "alpha beta gamma delta epsilon".split()
    vocab_b = "uno dos tres cuatro cinco".split()
    shared = "the and of".split()
    rows = []
    for i in range(40):
        lang = "aa" if i % 2 == 0 else "bb"
        own = vocab_a if lang == "aa" else vocab_b
        words = list(rng.choice(own, size=12)) + list(
            rng.choice(shared, size=4))
        rng.shuffle(words)
        rows.append({"doc_id": i, "lang": lang, "text": " ".join(words)})
    rows.append({"doc_id": 99, "lang": "aa", "text": "..."})  # no tokens
    df = pd.DataFrame(rows)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))

    got = (naive_bayes_langid(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    assert 99 not in got.index  # zero-token doc excluded
    assert len(got) == 40
    # separable vocab -> perfect recovery
    assert (got["pred_lang"] == got["lang"]).all()

    # dense replication of the closed form
    langs = sorted(df["lang"].unique())
    toks = {r["doc_id"]: r["text"].split() for _, r in df.iterrows()}
    cw = {l: collections.Counter() for l in langs}
    tl = collections.Counter()
    nd = collections.Counter(df["lang"])
    vocab = set()
    for _, r in df.iterrows():
        ws = r["text"].split() if r["text"] != "..." else []
        cw[r["lang"]].update(ws)
        tl[r["lang"]] += len(ws)
        vocab.update(ws)
    V = len(vocab)
    N = len(df)
    for doc_id, words in toks.items():
        if doc_id == 99:
            continue
        scores = {}
        for l in langs:
            s = math.log(nd[l] / N)
            for w in words:
                s += math.log((cw[l][w] + 1) / (tl[l] + V))
            scores[l] = float(round_half_away(s, 6))
        best = max(sorted(scores), key=lambda l: scores[l])
        assert got.loc[doc_id, "pred_lang"] == best
        assert abs(got.loc[doc_id, "score"] - scores[best]) < 2e-6


def test_readability_known_values(ray_session, tmp_path):
    """Hand-computed Flesch on pinned regex rules; zero-word and
    empty docs are dropped; a terminator-less doc counts 1 sentence."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import readability_scores

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["The cat sat. The dog ran!",
                 "Beautiful education requires dedication.",
                 "!!!",
                 "",
                 "word"],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = (readability_scores(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    assert got.index.tolist() == [1, 2, 5]
    # doc1: 6 words / 6 syllables / 2 sentences
    assert got.loc[1, ["n_words", "n_sentences", "n_syllables"]].tolist() \
        == [6, 2, 6]
    assert abs(got.loc[1, "flesch"]
               - (206.835 - 1.015 * 3.0 - 84.6 * 1.0)) < 1e-9
    # doc2: beautiful(3) education(4) requires(3) dedication(4) = 14
    assert got.loc[2, ["n_words", "n_sentences", "n_syllables"]].tolist() \
        == [4, 1, 14]
    assert abs(got.loc[2, "flesch"]
               - (206.835 - 1.015 * 4.0 - 84.6 * 3.5)) < 1e-9
    # doc5: no [.!?] terminator still yields one sentence
    assert got.loc[5, ["n_words", "n_sentences", "n_syllables"]].tolist() \
        == [1, 1, 1]


def _dense_textrank(tokens, damping=0.85, iters=20):
    """Textbook per-doc TextRank: adjacency from adjacent-token pairs."""
    vocab = sorted(set(tokens))
    ix = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)
    w = np.zeros((n, n))
    for a, b in zip(tokens[:-1], tokens[1:]):
        if a != b:
            w[ix[a], ix[b]] += 1
            w[ix[b], ix[a]] += 1
    out = w.sum(axis=1)
    r = np.ones(n)
    for _ in range(iters):
        contrib = (w / np.where(out == 0, 1, out)[:, None] * r[:, None]).sum(axis=0)
        r = (1 - damping) + damping * contrib
    return dict(zip(vocab, r))


def test_textrank_matches_dense_reference(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import textrank_keywords

    docs = {
        1: "the quick brown fox jumps over the lazy dog the quick fox",
        2: "graph based ranking brings order into text graph ranking "
           "works well for keyword extraction from text",
        3: "aaa bbb aaa bbb aaa ccc",
    }
    pq.write_table(pa.Table.from_pandas(pd.DataFrame({
        "doc_id": list(docs), "text": list(docs.values())}),
        preserve_index=False), str(tmp_path / "documents.parquet"))
    got = textrank_keywords(str(tmp_path), k=3).to_pandas()
    for did, text in docs.items():
        toks = [t for t in text.split() if len(t) >= 3]
        ref = _dense_textrank(toks)
        top = sorted(ref.items(), key=lambda kv: (-round(kv[1], 9), kv[0]))[:3]
        sub = (got[got["doc_id"] == did].sort_values("rank"))
        assert sub["word"].tolist() == [w for w, _ in top], did
        assert np.allclose(sub["score"].to_numpy(),
                           [s for _, s in top], atol=5.1e-7), did


def test_compression_ratio_pinned_and_ordered(ray_session, tmp_path):
    import zlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import compression_ratio

    rng = np.random.default_rng(3)
    rand = "".join(chr(rng.integers(33, 127)) for _ in range(2000))
    rep = "spam ham " * 250
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [rep, rand, ""]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = (compression_ratio(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    exp_rep = len(zlib.compress(rep.encode(), 6)) / len(rep.encode())
    assert abs(got.loc[1, "ratio"] - round(exp_rep, 6)) < 1e-12
    assert got.loc[1, "ratio"] < 0.2 < 0.5 < got.loc[2, "ratio"]
    assert got.loc[3, "n_bytes"] == 0 and got.loc[3, "ratio"] == 0.0


def test_unicode_clean_matches_duckdb_on_real_unicode(ray_session, tmp_path):
    """The synthetic corpus is ASCII; this planted frame proves the
    NFC + control-strip + collapse pipeline is byte-identical to the
    DuckDB twin on decomposed accents, C0/C1 controls, and tab/newline
    welds."""
    import duckdb

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import unicode_clean

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["café  du\tmonde",          # decomposed e + tab
                 "a\x00b\x07c\x9fd",               # C0 + C1 controls
                 "line1\nline2\r\nline3",          # newline welds
                 "  already   spaced  ",
                 "café du monde"],            # precomposed twin of 1
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = (unicode_clean(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    import __ray_entry__ as entry
    want = (con.execute(entry.oracle_sql()["q_unicode_clean"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    assert got["clean_text"].tolist() == want["clean_text"].tolist()
    assert got["changed"].tolist() == want["changed"].tolist()
    # NFC makes the decomposed and precomposed spellings identical
    assert got.loc[0, "clean_text"] == "café du monde"
    assert got.loc[4, "clean_text"] == "café du monde"
    assert got.loc[1, "clean_text"] == "abcd"
    assert got.loc[2, "clean_text"] == "line1 line2 line3"


def test_naive_bayes_langid_zero_token_lang(ray_session, tmp_path):
    """ADVICE r4: a lang whose EVERY doc has zero tokens must be
    dropped as a candidate class (the SQL twin's INNER JOIN on the
    per-class totals CTE), not KeyError the pipeline."""
    import duckdb

    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from ocr_agent_ray.pipelines.text import naive_bayes_langid

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "lang": ["aa", "aa", "bb", "bb", "zz"],   # zz: only a no-token doc
        "text": ["alpha beta alpha", "alpha alpha gamma",
                 "uno dos uno", "dos dos tres", "..."],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))

    got = (naive_bayes_langid(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = (con.execute(entry.oracle_sql()["q_naive_bayes_langid"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["pred_lang"].tolist() == want["pred_lang"].tolist()
    np.testing.assert_allclose(got["score"], want["score"], atol=2e-6)
    # zz is never predicted (no token evidence -> dropped candidate)
    assert "zz" not in set(got["pred_lang"])


def test_textrank_isolated_nodes_batch_independent(ray_session, tmp_path):
    """ADVICE r4: a doc whose graph has no edges (single distinct
    token) must appear in the output with the converged isolated score
    (1 - damping) whether or not an edge-bearing doc shares its Ray
    block — the row set may not depend on batching."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import textrank_keywords

    solo = {"doc_id": 1, "text": "lonely lonely lonely"}
    edgy = {"doc_id": 2, "text": "alpha beta alpha beta gamma"}

    # corpus A: the isolated doc ALONE (whole batch edge-less)
    pq.write_table(pa.Table.from_pandas(pd.DataFrame([solo]),
                                        preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    a = textrank_keywords(str(tmp_path), k=3).to_pandas()
    assert a["doc_id"].tolist() == [1]
    assert a["word"].tolist() == ["lonely"]
    assert abs(a["score"].iloc[0] - 0.15) < 1e-9

    # corpus B: co-batched with an edge-bearing doc — identical rows
    pq.write_table(pa.Table.from_pandas(pd.DataFrame([solo, edgy]),
                                        preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    b = textrank_keywords(str(tmp_path), k=3).to_pandas()
    b1 = b[b["doc_id"] == 1].reset_index(drop=True)
    pd.testing.assert_frame_equal(a.reset_index(drop=True), b1)


def test_unicode_clean_null_text_matches_twin(ray_session, tmp_path):
    """ADVICE r4: NULL text is pinned to (clean_text='', changed=0) on
    BOTH sides via COALESCE in the twin / fillna in the pipeline."""
    import duckdb

    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from ocr_agent_ray.pipelines.text import unicode_clean

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["plain", None, " pad  me "]})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = (unicode_clean(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = (con.execute(entry.oracle_sql()["q_unicode_clean"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    assert got["clean_text"].tolist() == want["clean_text"].tolist()
    assert got["changed"].tolist() == want["changed"].tolist()
    assert got.loc[1, "clean_text"] == "" and got.loc[1, "changed"] == 0


def test_bigram_perplexity_tiers_identical(ray_session, tmp_path):
    """The broadcast tier and the fully-distributed bucket-join tier
    compute identical (doc_id, n_bigrams, ppl) — the two-tier rejoin
    may never change values."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import bigram_perplexity

    rng = np.random.default_rng(5)
    vocab = "alpha beta gamma delta epsilon zeta".split()
    rows = [{"doc_id": i,
             "text": " ".join(rng.choice(vocab, size=rng.integers(0, 30)))}
            for i in range(60)]
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(rows),
                                        preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    a = (bigram_perplexity(str(tmp_path)).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (bigram_perplexity(str(tmp_path), broadcast_max_counts=0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    # docs with < 2 tokens are excluded on both tiers
    short = [r["doc_id"] for r in rows if len(r["text"].split()) < 2]
    assert not set(short) & set(a["doc_id"])


def test_heaps_law_planted(ray_session, tmp_path):
    """A corpus planted on an exact power law V = K·n^beta in log space
    recovers (beta, K) exactly; short/degenerate docs are excluded."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.text import heaps_law_fit

    # build docs where n_tokens = n and n_distinct = round(2 * n^0.5):
    # distinct words w0..w(d-1), then repeat w0 to pad to n tokens
    rows = []
    for n in [16, 36, 64, 100, 144, 196]:
        d = int(round(2.0 * np.sqrt(n)))
        words = [f"w{i}" for i in range(d)] + ["w0"] * (n - d)
        rows.append(" ".join(words))
    rows.append("single")          # nt = 1 -> excluded
    docs = pd.DataFrame({
        "doc_id": np.arange(len(rows), dtype=np.int64),
        "text": rows})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = heaps_law_fit(str(tmp_path))
    assert got["n_docs"].tolist() == [6]
    # reference OLS in log space over the six planted points
    nt = np.array([16, 36, 64, 100, 144, 196], dtype=np.float64)
    nd = np.round(2.0 * np.sqrt(nt))
    x, y = np.log(nt), np.log(nd)
    beta = ((len(x) * (x * y).sum() - x.sum() * y.sum())
            / (len(x) * (x * x).sum() - x.sum() ** 2))
    k = np.exp((y.sum() - beta * x.sum()) / len(x))
    assert abs(got["heaps_beta"][0] - beta) < 1e-6
    assert abs(got["heaps_k"][0] - k) < 1e-6
    assert 0.4 < got["heaps_beta"][0] < 0.6  # the planted exponent ~0.5


def test_term_burstiness_planted(ray_session, tmp_path):
    """'spam' appears 12x across 2 docs (burstiness 6); 'the' appears
    once in each of 12 docs (burstiness 1); cf ties break by word."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.pipelines.relational import term_burstiness

    texts = (["spam " * 6] * 2            # cf=12, df=2
             + ["the filler"] * 12)        # the: cf=12, df=12
    docs = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts})
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    got = term_burstiness(str(tmp_path), k=3).set_index("word")
    # top by cf: spam(12) ties the(12) -> alphabetical; filler(12) too
    assert set(got.index) == {"spam", "the", "filler"}
    assert got.loc["spam", "cf"] == 12 and got.loc["spam", "df"] == 2
    assert got.loc["spam", "burstiness"] == 6.0
    assert got.loc["the", "burstiness"] == 1.0
    assert got.loc["filler", "burstiness"] == 1.0

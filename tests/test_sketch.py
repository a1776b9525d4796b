"""Text sketches and their bloom-filter twin: one-sided error and
mergeability of the count-min sketch, no false negatives from the bloom
decontamination path."""

from __future__ import annotations

import numpy as np


def test_bloom_decontaminate_no_false_negatives(ray_session):
    from ocr_agent_ray.pipelines.text import decontaminate, decontaminate_bloom

    sf = "/root/testdata/sf0.001"
    exact = decontaminate(sf).to_pandas().set_index("doc_id")["contaminated"]
    bloom = decontaminate_bloom(sf).to_pandas().set_index("doc_id")["contaminated"]
    exact, bloom = exact.sort_index(), bloom.sort_index()
    # one-sided error: everything exact flags, bloom flags too
    assert bool((bloom[exact] == True).all())  # noqa: E712
    # false-positive rate on the clean docs stays small
    clean = ~exact
    fpr = float((bloom[clean]).mean()) if clean.any() else 0.0
    assert fpr <= 0.02, fpr


def test_cms_one_sided_and_exact_on_sparse(ray_session):
    """CMS estimates are >= truth always; with w >> distinct words on
    this corpus, collisions are absent and estimates are EXACT."""
    import duckdb
    import ray.data as rd

    from ocr_agent_ray.functions.sketch import cms_word_counts

    sf = "/root/testdata/sf0.001"
    probes = ["table", "query", "value", "zzz_absent"]
    docs = rd.read_parquet(f"{sf}/documents.parquet", columns=["text"])
    got = cms_word_counts(docs, probes, w=1 << 16).set_index("word")

    exact = duckdb.sql(
        "SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(regexp_split_to_array(lower(text), '[^0-9a-z_]+')) "
        f"AS word FROM read_parquet('{sf}/documents.parquet')) "
        "WHERE word <> '' GROUP BY word").df().set_index("word")["n"]

    n_total = int(exact.sum())
    for p in probes:
        true = int(exact.get(p, 0))
        est = int(got.loc[p, "approx_n"])
        assert est >= true
        assert est <= true + int(np.e / (1 << 16) * n_total) + 1
    # vocabulary ~100 distinct << 65536 -> exact w.h.p.
    assert int(got.loc["zzz_absent", "approx_n"]) == 0
    assert int(got.loc["table", "approx_n"]) == int(exact["table"])


def test_cms_merge_equals_single_pass():
    from ocr_agent_ray.functions.sketch import CountMinSketch, _word_hashes

    rng = np.random.default_rng(9)
    words = np.array([f"w{i}" for i in rng.integers(0, 50, 2000)],
                     dtype=object)
    h = _word_hashes(words)
    whole = CountMinSketch(4, 256)
    whole.add_hashes(h)
    a, b = CountMinSketch(4, 256), CountMinSketch(4, 256)
    a.add_hashes(h[:777])
    b.add_hashes(h[777:])
    merged = a.merge(b)
    assert (merged.counts == whole.counts).all()
    probe = _word_hashes(np.array(["w0", "w17", "nope"], dtype=object))
    assert (merged.estimate_hashes(probe)
            == whole.estimate_hashes(probe)).all()
    # one-sided error vs truth
    import collections

    truth = collections.Counter(words)
    est = whole.estimate_hashes(_word_hashes(
        np.array(list(truth), dtype=object)))
    for w_, e in zip(list(truth), est):
        assert e >= truth[w_]

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _corpus(tmp_path, n=80, seed=3):
    rng = np.random.default_rng(seed)
    vocab = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "join hash vector stream window filter merge").split()
    rows = []
    for i in range(n):
        words = list(rng.choice(vocab, size=rng.integers(5, 25)))
        rows.append({"doc_id": i, "text": " ".join(words)})
    df = pd.DataFrame(rows)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    return df


def _reference(df, queries, k=20):
    """Dense conjunctive TF-IDF reference with the pipeline's exact
    scoring expression and tie-break."""
    from ocr_agent_ray.functions.textstats import round_half_away

    toks = {r.doc_id: r.text.split() for r in df.itertuples()}
    n_docs = float(len(df))
    out = []
    for qid, qterms in sorted(queries.items()):
        dfreq = {t: sum(1 for ws in toks.values() if t in ws)
                 for t in qterms}
        if any(v == 0 for v in dfreq.values()):
            continue
        rows = []
        for d, ws in toks.items():
            if all(t in ws for t in qterms):
                score = sum(ws.count(t) * np.log(n_docs / dfreq[t])
                            for t in qterms)
                rows.append((qid, d, float(round_half_away(score, 6))))
        rows.sort(key=lambda r: (-r[2], r[1]))
        out.extend(rows[:k])
    return pd.DataFrame(out, columns=["query_id", "doc_id", "score"])


def test_build_and_search_matches_reference(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.invindex import (build_inverted_index,
                                                  search_index)

    df = _corpus(tmp_path)
    idx = str(tmp_path / "idx")
    meta = build_inverted_index(str(tmp_path), idx, num_buckets=8)
    assert meta["n_docs"] == len(df)
    assert meta["postings"] > 0

    queries = {0: ("alpha", "beta"), 1: ("join",), 2: ("zeta", "kappa")}
    got = (search_index(idx, queries).to_pandas()
           .sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True])
           .reset_index(drop=True))
    want = _reference(df, queries)
    pd.testing.assert_frame_equal(
        got, want.reset_index(drop=True), check_dtype=False)


def test_search_is_pruned_to_term_buckets(ray_session, tmp_path):
    """Deleting every bucket the query terms do NOT hash into must not
    change the result — proof the search never touches them."""
    import shutil

    from ocr_agent_ray.pipelines.invindex import (_bucket_of,
                                                  build_inverted_index,
                                                  search_index)

    df = _corpus(tmp_path)
    idx = str(tmp_path / "idx")
    build_inverted_index(str(tmp_path), idx, num_buckets=8)
    queries = {0: ("alpha", "merge")}
    before = search_index(idx, queries).to_pandas()

    keep = set(_bucket_of(["alpha", "merge"], 8).values())
    assert len(keep) < 8  # the prune is real
    for b in range(8):
        if b not in keep:
            shutil.rmtree(f"{idx}/bucket={b}")
    after = search_index(idx, queries).to_pandas()
    pd.testing.assert_frame_equal(
        before.sort_values(["query_id", "doc_id"]).reset_index(drop=True),
        after.sort_values(["query_id", "doc_id"]).reset_index(drop=True))
    assert len(before) > 0


def test_zero_hit_term_drops_query(ray_session, tmp_path):
    from ocr_agent_ray.pipelines.invindex import (build_inverted_index,
                                                  search_index)

    _corpus(tmp_path)
    idx = str(tmp_path / "idx")
    build_inverted_index(str(tmp_path), idx, num_buckets=8)
    got = search_index(idx, {0: ("alpha", "nonexistentterm")}).to_pandas()
    assert len(got) == 0


def test_stale_index_rebuilds(ray_session, tmp_path):
    import json
    import os

    from ocr_agent_ray.pipelines.invindex import (_META,
                                                  indexed_keyword_search)

    _corpus(tmp_path)
    idx = str(tmp_path / "cacheidx")
    r1 = indexed_keyword_search(str(tmp_path), index_dir=idx).to_pandas()
    # poison the meta: wrong source -> must rebuild, same result
    meta = json.load(open(os.path.join(idx, _META)))
    meta["source"] = "/somewhere/else"
    json.dump(meta, open(os.path.join(idx, _META), "w"))
    r2 = indexed_keyword_search(str(tmp_path), index_dir=idx).to_pandas()
    pd.testing.assert_frame_equal(
        r1.sort_values(["query_id", "doc_id"]).reset_index(drop=True),
        r2.sort_values(["query_id", "doc_id"]).reset_index(drop=True))


def test_regenerated_table_invalidates_index(ray_session, tmp_path):
    """ADVICE r4 (medium): regenerating documents.parquet in the same
    sf_dir must invalidate the persisted index — the content
    fingerprint in the meta, not just (version, source), gates reuse."""
    from ocr_agent_ray.pipelines.invindex import indexed_keyword_search

    _corpus(tmp_path, n=40, seed=3)
    idx = str(tmp_path / "fpidx")
    r1 = indexed_keyword_search(str(tmp_path), index_dir=idx).to_pandas()

    # regenerate the table IN PLACE with different content: every doc
    # now contains both "join" and "hash", so query 0 must hit all docs
    df = pd.DataFrame({"doc_id": range(10),
                       "text": ["join hash extra"] * 10})
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    r2 = indexed_keyword_search(str(tmp_path), index_dir=idx).to_pandas()
    q0 = r2[r2["query_id"] == 0]
    assert len(q0) == 10, "stale index served after table regeneration"
    assert not r1.equals(r2)


def test_index_build_is_atomic_swap(ray_session, tmp_path):
    """The rebuild writes to a temp dir and swaps via rename — no
    window where index_dir exists half-built, and no .build/.old
    leftovers after the swap."""
    import os

    from ocr_agent_ray.pipelines.invindex import indexed_keyword_search

    _corpus(tmp_path, n=20, seed=5)
    idx = str(tmp_path / "atomicidx")
    indexed_keyword_search(str(tmp_path), index_dir=idx)
    parent = os.path.dirname(idx)
    leftovers = [d for d in os.listdir(parent)
                 if d.startswith(os.path.basename(idx) + ".")]
    assert leftovers == [], leftovers
    assert os.path.exists(os.path.join(idx, "_invindex_meta.json"))


def _fill(d, who, parts=("part-0", "part-1", "part-2")):
    import os

    os.makedirs(d)
    for p in parts:
        with open(os.path.join(d, p), "w") as f:
            f.write(who)
    with open(os.path.join(d, "_meta"), "w") as f:
        f.write(who)


def _installed(final):
    """Who built the complete directory at ``final`` (None if none)."""
    import os

    try:
        who = open(os.path.join(final, "_meta")).read()
        return all(open(os.path.join(final, p)).read() == who
                   for p in os.listdir(final)) and who
    except FileNotFoundError:
        return None


def test_build_and_swap_contention(tmp_path):
    """Eight threads rebuild the same stale directory at once. All builds
    finish before any swaps; the swaps serialize on the lock, and every
    builder after the first finds that install fresh and discards its
    own. Each builder returns with that one complete build installed, and
    no temp, aside or lock file is left behind."""
    import os
    import sys
    import threading

    from ocr_agent_ray.pipelines.invindex import build_and_swap

    final = str(tmp_path / "cache")
    _fill(final, "old")
    names = [f"builder-{i}" for i in range(8)]
    all_built = threading.Barrier(len(names), timeout=10)
    seen = {}

    def _builder():
        me = threading.current_thread().name

        def _build(tmp):
            _fill(tmp, me)
            all_built.wait()

        build_and_swap(final, _build, lambda: _installed(final) in names)
        seen[me] = _installed(final)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=_builder, name=n) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(set(seen.values())) == 1 and set(seen) == set(names), seen
    assert seen[names[0]] in names
    assert os.listdir(tmp_path) == ["cache"]


def test_build_and_swap_keeps_a_fresh_install_under_its_readers(tmp_path):
    """Builder B passed its freshness check before A installed. A
    installs and lists its files (a lazy reader's file list); then B
    finishes its build and swaps. A's install is fresh, so B discards
    its own build and A's listed files are still there."""
    import os
    import threading

    from ocr_agent_ray.pipelines.invindex import build_and_swap

    final = str(tmp_path / "cache")
    _fill(final, "old")
    a_listed = threading.Event()

    def _fresh():
        return _installed(final) in ("A", "B")

    def _build_b(tmp):
        assert a_listed.wait(timeout=10)
        _fill(tmp, "B")

    b = threading.Thread(target=build_and_swap, args=(final, _build_b, _fresh))
    b.start()
    build_and_swap(final, lambda tmp: _fill(tmp, "A"), _fresh)
    files = [os.path.join(final, f) for f in os.listdir(final)]
    a_listed.set()
    b.join(timeout=30)
    assert not b.is_alive()
    assert [open(f).read() for f in files] == ["A"] * len(files)
    assert os.listdir(tmp_path) == ["cache"]

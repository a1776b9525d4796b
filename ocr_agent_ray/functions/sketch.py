"""Mergeable sketches over document text: Misra-Gries heavy hitters and
a count-min frequency sketch.

The scale pattern: each batch emits one bounded, serialized summary, and
the summaries merge on the driver, so the wire carries one sketch per
batch instead of the vocabulary. Deterministic (no RNG).
"""

from __future__ import annotations

import numpy as np

from ocr_agent_ray.functions.hashing import splitmix64


def topk_words_sketch(ds, text_col: str = "text", *, k: int = 20,
                      capacity: int = 512):
    """Approximate heavy hitters (corpus top-k words) via mergeable
    Misra-Gries summaries (Misra & Gries '82): each batch keeps at most
    ``capacity`` counters; summaries merge by counter addition followed by
    a decrement-by-(capacity+1)th-count prune, preserving the guarantee
    |approx - true| <= n_words / capacity. The wire carries one
    capacity-sized summary per batch instead of the vocabulary — the
    shuffle-free alternative to the exact bucketed top_words when the
    vocabulary no longer fits a shuffle."""
    import pandas as pd

    def _summary(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].fillna("").str.lower().str.findall(r"[0-9a-z_]+")
        counts = toks.explode().dropna().value_counts()
        if len(counts) > capacity:
            # Misra-Gries prune: subtract the (capacity+1)-th count so at
            # most `capacity` counters stay positive
            cut = int(counts.iloc[capacity])
            counts = (counts - cut)[:capacity]
            counts = counts[counts > 0]
        return pd.DataFrame({"word": counts.index.to_numpy(dtype=object),
                             "n": counts.to_numpy()})

    merged: dict = {}
    for b in ds.map_batches(_summary, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=65536
    ):
        for w, n in zip(b["word"], b["n"]):
            merged[w] = merged.get(w, 0) + int(n)
        if len(merged) > capacity:
            cut = sorted(merged.values(), reverse=True)[capacity]
            merged = {w: n - cut for w, n in merged.items() if n - cut > 0}

    out = pd.DataFrame({"word": list(merged), "approx_n": list(merged.values())})
    out = out.sort_values(["approx_n", "word"], ascending=[False, True],
                          kind="mergesort").head(k)
    out["approx_n"] = out["approx_n"].astype("int64")
    return out.reset_index(drop=True)


class CountMinSketch:
    """Count-min sketch (Cormode & Muthukrishnan '05): d×w counter
    matrix; an item increments one counter per row (row-seeded splitmix
    of its 64-bit hash); its estimate is the MIN across rows — always
    ≥ the true count, over by at most εN (ε = e/w) with probability
    1−δ (δ = e^−d). Mergeable by elementwise addition, constant
    d·w·8 bytes per partial — the shuffle-free frequency table when the
    key space no longer fits a bucketed groupby. Deterministic."""

    def __init__(self, d: int = 4, w: int = 4096) -> None:
        self.d = d
        self.w = w
        self.counts = np.zeros((d, w), dtype=np.int64)

    _SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
              0x165667B19E3779F9, 0x27D4EB2F165667C5,
              0x85EBCA6B5851F42D, 0xA24BAED4963EE407)

    def _cols(self, hashes: np.ndarray, row: int) -> np.ndarray:
        h = splitmix64(hashes.astype(np.uint64)
                       ^ np.uint64(self._SEEDS[row % len(self._SEEDS)]
                                   + row))
        return (h % np.uint64(self.w)).astype(np.int64)

    def add_hashes(self, hashes: np.ndarray,
                   weights: np.ndarray | None = None) -> None:
        if hashes.size == 0:
            return
        w = (np.ones(len(hashes), dtype=np.int64)
             if weights is None else weights.astype(np.int64))
        for r in range(self.d):
            np.add.at(self.counts[r], self._cols(hashes, r), w)

    def estimate_hashes(self, hashes: np.ndarray) -> np.ndarray:
        if hashes.size == 0:
            return np.zeros(0, dtype=np.int64)
        est = np.full(len(hashes), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.d):
            np.minimum(est, self.counts[r][self._cols(hashes, r)], out=est)
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        assert (self.d, self.w) == (other.d, other.w)
        self.counts += other.counts
        return self

    def serialize(self) -> bytes:
        return self.counts.tobytes()

    @classmethod
    def deserialize(cls, blob: bytes, d: int, w: int) -> "CountMinSketch":
        out = cls(d, w)
        out.counts = np.frombuffer(blob, dtype=np.int64).reshape(d, w).copy()
        return out


def _word_hashes(values) -> np.ndarray:
    from pandas.util import hash_array

    return hash_array(np.asarray(values, dtype=object), categorize=False)


def cms_word_counts(ds, probes: list[str], *, text_col: str = "text",
                    d: int = 4, w: int = 4096):
    """Estimated corpus frequencies of the ``probes`` words via one
    mergeable count-min sketch per batch (same tokenizer as
    topk_words_sketch). Returns (word, approx_n) with the CMS
    one-sided guarantee: approx_n ≥ true count, ≤ true + e/w·N
    w.p. 1−e^−d."""
    import pandas as pd

    def _sketch(batch: pd.DataFrame) -> pd.DataFrame:
        cms = CountMinSketch(d, w)
        toks = (batch[text_col].fillna("").str.lower()
                .str.findall(r"[0-9a-z_]+").explode().dropna())
        if len(toks):
            counts = toks.value_counts()
            cms.add_hashes(_word_hashes(counts.index.to_numpy()),
                           counts.to_numpy())
        return pd.DataFrame({"sketch": [cms.serialize()]})

    merged = CountMinSketch(d, w)
    for b in ds.map_batches(_sketch, batch_format="pandas").iter_batches(
        batch_format="pandas", batch_size=None
    ):
        for blob in b["sketch"]:
            merged.merge(CountMinSketch.deserialize(blob, d, w))

    est = merged.estimate_hashes(_word_hashes(probes))
    return pd.DataFrame({"word": list(probes),
                         "approx_n": est.astype("int64")})

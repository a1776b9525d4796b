"""Deterministic hashing kernels: rolling hashes, MinHash, SimHash.

All vectorized numpy over uint64 with wrap-around arithmetic; stable across
processes and numpy versions (no python hash(), no RNG at call time).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_BASE = _U64(1099511628211)  # FNV prime as polynomial base


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer — a strong, cheap uint64 mixer."""
    x = x.astype(_U64) + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def rolling_hashes(text: str, k: int) -> np.ndarray:
    """All k-byte-window polynomial hashes of ``text`` (uint64, mixed).

    Vectorized: sliding windows over the utf-8 bytes x precomputed base
    powers, wrap-mod 2^64, then splitmix64.
    """
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(b) < k:
        return np.empty(0, dtype=_U64)
    with np.errstate(over="ignore"):
        powers = np.empty(k, dtype=_U64)
        powers[-1] = _U64(1)
        for i in range(k - 2, -1, -1):
            powers[i] = powers[i + 1] * _BASE
        win = np.lib.stride_tricks.sliding_window_view(b, k).astype(_U64)
        h = (win * powers).sum(axis=1, dtype=_U64)
        return splitmix64(h)


def char_shingle_set(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-char shingle hashes (the MinHash input set)."""
    return np.unique(rolling_hashes(text, k))


def _minhash_perm_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed multiply-add permutation constants (a_i odd ⇒ bijection)."""
    idx = np.arange(1, num_perm + 1, dtype=_U64)
    return splitmix64(idx) | _U64(1), splitmix64(idx + _U64(0x9E3779B9))


def minhash_signature(shingles: np.ndarray, num_perm: int = 64) -> np.ndarray:
    """MinHash signature: sig[i] = min over shingles of (a_i·s + b_i) mod 2⁶⁴.

    A 2-universal multiply-add family over the already-splitmix-mixed
    shingle hashes (the Broder '97 cheap-permutation approach, same
    family datasketch uses) — one mul + one add per permutation instead
    of a full mixer, measured 4.7× faster in the batched signature stage.
    """
    if shingles.size == 0:
        return np.zeros(num_perm, dtype=_U64)
    a, b = _minhash_perm_params(num_perm)
    with np.errstate(over="ignore"):
        mixed = a[:, None] * shingles[None, :] + b[:, None]
    return mixed.min(axis=1)


def minhash_signatures_batch(texts, k: int = 5,
                             num_perm: int = 64) -> np.ndarray:
    """Batch MinHash over a whole Arrow/pandas batch — no per-doc loop.

    One flat rolling-hash pass over the concatenated utf-8 bytes with a
    per-doc validity mask (windows crossing doc boundaries are dropped),
    then per-permutation mix + segmented min (np.minimum.reduceat). The
    same flat-array trick that vectorized the duplicate-gram-span pass
    (BASELINE.md, 2.8×). Row-for-row identical to
    ``minhash_signature(char_shingle_set(t, k), num_perm)``: duplicate
    shingles cannot change a min, and docs shorter than ``k`` get the
    all-zeros signature either way.
    """
    enc = [("" if t is None else t).encode("utf-8") for t in texts]
    n_docs = len(enc)
    sig = np.zeros((n_docs, num_perm), dtype=_U64)
    if n_docs == 0:
        return sig
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n_docs)
    counts = np.maximum(lens - k + 1, 0)
    n_valid = int(counts.sum())
    total = int(lens.sum())
    if n_valid == 0:
        return sig
    flat = np.frombuffer(b"".join(enc), dtype=np.uint8)
    m = total - k + 1  # flat window count (incl. boundary-crossing)
    with np.errstate(over="ignore"):
        powers = np.empty(k, dtype=_U64)
        powers[-1] = _U64(1)
        for i in range(k - 2, -1, -1):
            powers[i] = powers[i + 1] * _BASE
        acc = np.zeros(m, dtype=_U64)
        for j in range(k):
            acc += flat[j:j + m].astype(_U64) * powers[j]
        h = splitmix64(acc)
    ends = np.cumsum(lens)
    doc_start = ends - lens
    pos = np.arange(m)
    d = np.searchsorted(ends, pos, side="right")
    valid = (pos - doc_start[d]) <= (lens[d] - k)
    hv = h[valid]
    nz = counts > 0
    starts = np.zeros(int(nz.sum()), dtype=np.int64)
    np.cumsum(counts[nz][:-1], out=starts[1:])
    a, b = _minhash_perm_params(num_perm)
    sig_nz = np.empty((len(starts), num_perm), dtype=_U64)
    buf = np.empty_like(hv)
    with np.errstate(over="ignore"):
        for i in range(num_perm):
            np.multiply(hv, a[i], out=buf)
            buf += b[i]
            sig_nz[:, i] = np.minimum.reduceat(buf, starts)
    sig[nz] = sig_nz
    return sig


def lsh_band_keys_batch(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """Vectorized ``lsh_band_keys`` over an (n_docs, num_perm) signature
    matrix; returns (n_docs, num_bands) int64 (63-bit-safe) keys,
    value-identical to the per-doc function."""
    n, num_perm = sigs.shape
    assert num_perm % num_bands == 0
    rows = num_perm // num_bands
    with np.errstate(over="ignore"):
        bands = sigs.reshape(n, num_bands, rows)
        key = np.zeros((n, num_bands), dtype=_U64)
        for r in range(rows):
            key = key * _BASE + bands[:, :, r]
        return (splitmix64(key)
                & _U64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def lsh_band_keys(signature: np.ndarray, num_bands: int) -> list[int]:
    """Collapse each band of the signature to one uint64 bucket key."""
    assert signature.size % num_bands == 0
    rows = signature.size // num_bands
    with np.errstate(over="ignore"):
        bands = signature.reshape(num_bands, rows)
        # order-sensitive combine: polynomial over the band rows, then mix
        key = np.zeros(num_bands, dtype=_U64)
        for r in range(rows):
            key = key * _BASE + bands[:, r]
        # 63-bit keys so band_key columns stay int64-safe
        return [int(v) & 0x7FFFFFFFFFFFFFFF for v in splitmix64(key)]


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard over two sorted-unique uint64 shingle sets."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def token_hashes(text: str) -> np.ndarray:
    """One mixed uint64 per whitespace token (SimHash input)."""
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=_U64)
    out = np.empty(len(toks), dtype=_U64)
    with np.errstate(over="ignore"):
        for i, t in enumerate(toks):
            h = _U64(14695981039346656037)  # FNV-1a over the token bytes
            for byte in t.encode("utf-8"):
                h = (h ^ _U64(byte)) * _BASE
            out[i] = h
    return splitmix64(out)


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (Charikar '02)."""
    h = token_hashes(text)
    if h.size == 0:
        return 0
    bits = ((h[:, None] >> np.arange(64, dtype=_U64)[None, :]) & _U64(1)).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    out = 0
    for i in range(64):
        if votes[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def popcount64_batch(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (int64 out) — the Hamming
    kernel shared by SimHash and perceptual-hash verification."""
    x = x.astype(_U64)
    out = np.zeros(len(x), dtype=np.int64)
    for shift in range(0, 64, 8):
        out += np.unpackbits(
            ((x >> _U64(shift)) & _U64(0xFF)).astype(np.uint8)[:, None],
            axis=1,
        ).sum(axis=1).astype(np.int64)
    return out


def dhash64_batch(grids: np.ndarray) -> np.ndarray:
    """Batched difference-hash (dHash): grids is (n, 8, 9) uint8 luma;
    bit (r, c) = grid[r, c+1] > grid[r, c], packed row-major into one
    uint64 per image. The standard perceptual hash for exact/near image
    dedup — small brightness/compression changes flip few bits, so
    near-dups sit at small Hamming distance."""
    assert grids.ndim == 3 and grids.shape[1:] == (8, 9), grids.shape
    bits = (grids[:, :, 1:] > grids[:, :, :-1]).reshape(len(grids), 64)
    weights = (np.uint64(1) << np.arange(64, dtype=_U64))
    return (bits.astype(_U64) * weights[None, :]).sum(axis=1, dtype=_U64)

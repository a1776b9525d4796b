"""Deterministic synthetic interleaved-document corpus (FIXTURES.md F1).

Schema is exactly the BASELINE.json ``input_hint``:
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset:int32>>)``.

Every document is a pure function of ``(seed, doc_index)`` — generation is
therefore identical whether built serially (tests) or in parallel Ray
blocks (bench-scale), and independent of block boundaries. Uses
``random.Random`` (stdlib, stable across versions), never wall-clock.

Structure mirrors the reference's input universe:
- plain text spans (with LaTeX delimiters, fences, grounding tokens — the
  constructs post-processing is sensitive to, markdown_merge.py:50-52,
  PreviewPanel.tsx:35-36),
- 'image' spans with text='' and a unique media_ref
  (cf. image tasks, queue_store.py:66-89),
- contiguous runs of 'pdf_page' spans sharing a media_ref, run length
  heavy-tailed for skew tests (cf. per-page fan-out, queue_store.py:91-123),
- some empty / whitespace-only text spans (the merge skips these with
  their headers, markdown_merge.py:30-38).
"""

from __future__ import annotations

import bisect
import random
import weakref
from typing import Any, Iterator, NamedTuple, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_agent_ray.schema import DOCUMENTS_SCHEMA

_TEXT_TEMPLATES = [
    "Plain paragraph number {i} about corpus item {j}.",
    "Inline math \\( x_{i} + y_{j} \\) inside prose.",
    "A display block:\n\\[\n  \\sum_k a_k = {i}\n\\]\ndone.",
    "Mixed \\( a \\) then \\[ b_{j} \\] then \\( c \\).",
    "```\ncode block \\( not converted \\)\nline {i}\n```",
    "~~~\ntilde fenced \\[ kept \\]\n~~~",
    "   ```\nindented fence toggles too \\( code \\)\n```",
    "````\nouter\n```\ninner fence chars \\( code \\)\n````",
    "Unclosed fence follows:\n```\ntrailing code \\( still code \\)",
    "<|ref|>heading<|/ref|><|det|>[[{x}, {y}, {x2}, {y2}]]<|/det|> Section {i}",
    "Escaped but empty \\(\\) stays, \\( {i} \\) converts.",
    "",
    "   \n\t ",
    "Multi\nline\ntext with \\(\nnewline math\n\\) across lines.",
]

_IMAGE_EXTS = [".png", ".jpg", ".jpeg", ".webp", ".bmp", ".tif", ".tiff"]

# bump when _doc_spans content changes: benchmark corpus caches key on this
CORPUS_VERSION = 2


def _doc_spans(seed: int, doc_index: int, skew: bool) -> list[dict]:
    rng = random.Random(f"corpus:{seed}:{doc_index}")
    spans: list[dict] = []
    n_groups = rng.randint(1, 8)
    for g in range(n_groups):
        roll = rng.random()
        if roll < 0.08:  # raw HTML span (boilerplate-strip path)
            from ocr_agent_ray.stages.boilerplate import wrap_text_as_html

            payload = (
                f"article body {doc_index} group {g} with several words of "
                f"actual content that survives the density heuristic easily"
            )
            spans.append({"kind": "html",
                          "text": wrap_text_as_html(doc_index, payload),
                          "media_ref": "", "offset": 0})
        elif roll < 0.55:  # text span
            t = rng.choice(_TEXT_TEMPLATES)
            x, y = rng.randint(0, 800), rng.randint(0, 800)
            text = t.format(
                i=rng.randint(0, 99), j=rng.randint(0, 99),
                x=x, y=y, x2=x + rng.randint(5, 200), y2=y + rng.randint(5, 200),
            ) if "{" in t else t
            spans.append({"kind": "text", "text": text,
                          "media_ref": "", "offset": 0})
        elif roll < 0.80:  # single image span
            ext = rng.choice(_IMAGE_EXTS)
            spans.append({
                "kind": "image", "text": "",
                "media_ref": f"media://doc{doc_index:07d}/img{g}{ext}",
                "offset": 0,
            })
        else:  # pdf run: contiguous pages, one media_ref
            if skew and rng.random() < 0.02:
                pages = rng.randint(60, 200)  # heavy tail
            else:
                pages = rng.randint(1, 8)
            ref = f"media://doc{doc_index:07d}/file{g}.pdf"
            for _ in range(pages):
                spans.append({"kind": "pdf_page", "text": "",
                              "media_ref": ref, "offset": 0})
    for k, s in enumerate(spans):
        s["offset"] = k
    return spans


def generate_documents(num_docs: int, seed: int = 42, skew: bool = True,
                       start: int = 0) -> pa.Table:
    """Build docs ``start .. start+num_docs-1`` as an Arrow table."""
    doc_ids = [f"doc-{i:09d}" for i in range(start, start + num_docs)]
    spans = [_doc_spans(seed, i, skew) for i in range(start, start + num_docs)]
    return pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": spans}, schema=DOCUMENTS_SCHEMA
    )


def write_corpus_parquet(path: str, num_docs: int, seed: int = 42,
                         skew: bool = True, rows_per_file: int = 2000) -> list[str]:
    """Write the corpus as a directory of parquet shards (resumable layout:
    one file per contiguous doc range — the scale path would write one
    Lance fragment per range)."""
    import os

    os.makedirs(path, exist_ok=True)
    files: list[str] = []
    for start in range(0, num_docs, rows_per_file):
        n = min(rows_per_file, num_docs - start)
        fp = os.path.join(path, f"docs-{start:09d}.parquet")
        # tmp+rename: a shard is only visible once complete — the watch
        # protocol's `.ready` contract (a half-written .parquet must never
        # be listed by sources/watch.py)
        pq.write_table(generate_documents(n, seed=seed, skew=skew, start=start),
                       fp + ".tmp")
        os.replace(fp + ".tmp", fp)
        files.append(fp)
    return files


def write_corpus_parquet_ray(path: str, num_docs: int, seed: int = 42,
                             skew: bool = True, rows_per_file: int = 2000) -> list[str]:
    """Parallel corpus writer: one Ray task per shard. Identical bytes to
    the serial writer — every doc is a pure function of (seed, index), so
    sharding is embarrassingly parallel and order-free."""
    import os

    import ray

    os.makedirs(path, exist_ok=True)

    @ray.remote
    def _write(start: int, n: int) -> str:
        fp = os.path.join(path, f"docs-{start:09d}.parquet")
        pq.write_table(generate_documents(n, seed=seed, skew=skew, start=start),
                       fp + ".tmp")
        os.replace(fp + ".tmp", fp)
        return fp

    refs = [
        _write.remote(start, min(rows_per_file, num_docs - start))
        for start in range(0, num_docs, rows_per_file)
    ]
    return ray.get(refs)


def read_documents(path: str, num_blocks: int | None = None):
    """Read an interleaved-docs table as a Ray Dataset (Lance dataset dirs
    via ray.data.read_lance when the package is available, else parquet —
    sources/readers.py).

    ``num_blocks`` is the block and fragment count, 4x the cluster CPUs
    by default. A Parquet read also records at most about ``num_blocks``
    ``(file, row range)`` fragments, cut at row-group boundaries
    (:func:`parquet_fragments`, from the files' footers), for exactly the
    returned Dataset: the flagship (pipelines/extract.py) reads them
    inside its own OCR tasks, at least one fragment per slot, while every
    other consumer sees an ordinary ``read_parquet`` Dataset."""
    import ray
    import ray.data as rd

    from ocr_agent_ray.sources.readers import is_lance_dataset, read_lance_table

    if num_blocks is None:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        num_blocks = 4 * max(2, cpus)
    if is_lance_dataset(path):
        return read_lance_table(path, num_blocks=num_blocks)
    ds = rd.read_parquet(path, override_num_blocks=num_blocks)
    _READ_FRAGMENTS[ds] = parquet_fragments(sorted(ds.input_files()), num_blocks)
    return ds


# --- fragments: what one OCR slot task reads ----------------------------
# A fragment is ``(source, start, stop)``: rows [start, stop) of a Parquet
# file (source is its path) or of a block in the object store (source is
# its ObjectRef). The slot tasks read them with the functions below, which
# run in Ray workers: they import nothing from this package at run time,
# since a worker gets the package pickled by value and may not be able to
# import it.

DOC_COLUMNS = ["doc_id", "spans"]

# Fragments of each Dataset read_documents returned, keyed by that object.
_READ_FRAGMENTS = weakref.WeakKeyDictionary()


class Fragment(NamedTuple):
    source: Any
    start: int
    stop: int


def _even_cuts(rows: int, pieces: int) -> list[tuple[int, int]]:
    """``pieces`` contiguous row ranges covering ``rows``, sizes within one."""
    bounds = [rows * k // pieces for k in range(pieces + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def parquet_fragments(files: Sequence[str], num_fragments: int) -> list[Fragment]:
    """About ``num_fragments`` row ranges over ``files``, cut only at
    row-group boundaries (row counts from the footers): a fragment is a
    run of one file's row groups holding at least an even share of the
    rows, or the rest of the file. No row group is in two fragments, so
    whichever slot reads a fragment decodes its row groups once and no
    other slot decodes them; a file written as one row group is one
    fragment."""
    metas = [pq.read_metadata(f) for f in files]
    most = max(1, -(-sum(m.num_rows for m in metas) // max(1, num_fragments)))
    frags: list[Fragment] = []
    for f, meta in zip(files, metas):
        lo = hi = 0
        for g in range(meta.num_row_groups):
            hi += meta.row_group(g).num_rows
            if hi - lo >= most:
                frags.append(Fragment(f, lo, hi))
                lo = hi
        if hi > lo:
            frags.append(Fragment(f, lo, hi))
    return frags


def document_fragments(docs_ds, min_fragments: int) -> list[Fragment] | None:
    """At least ``min_fragments`` fragments of a documents Dataset (fewer
    only when it has fewer rows), or None when it cannot be cut that fine
    without running it.

    A Dataset returned by :func:`read_documents` has its recorded Parquet
    fragments, or None when they are fewer (too few row groups). The
    blocks of a materialized Dataset are cut into ``(block ref, row
    range)`` fragments of about equal rows. Any other Dataset (a Lance
    read, or one derived from a read by a transform) gives None: reading
    it here would run it to the end before any OCR task starts."""
    from ray.data.dataset import MaterializedDataset

    recorded = _READ_FRAGMENTS.get(docs_ds)
    if recorded is not None:
        return recorded if len(recorded) >= min_fragments else None
    if not isinstance(docs_ds, MaterializedDataset):
        return None
    blocks = [(ref, meta.num_rows)
              for bundle in docs_ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks]
    most = max(1, -(-sum(n for _, n in blocks) // max(1, min_fragments)))
    return [Fragment(ref, lo, hi) for ref, n in blocks if n
            for lo, hi in _even_cuts(n, -(-n // most))]


def split_shares(rows: Sequence[int], slots: int) -> list[range]:
    """Cut fragments with these row counts into ``min(slots, len(rows))``
    contiguous, non-empty runs (ranges of fragment indexes) balanced by
    rows: each cut is the fragment boundary nearest its even share of the
    total that still leaves a fragment for every run after it."""
    n = len(rows)
    k = min(slots, n)
    if k <= 0:
        return []
    cum = [0]
    for r in rows:
        cum.append(cum[-1] + r)
    cuts = [0]
    for j in range(1, k):
        target = cum[n] * j / k
        i = bisect.bisect_left(cum, target)  # cum[i - 1] < target <= cum[i]
        if target - cum[i - 1] <= cum[i] - target:
            i -= 1
        cuts.append(min(max(i, cuts[-1] + 1), n - (k - j)))
    cuts.append(n)
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _fragment_tables(fragments: Sequence[Fragment]) -> Iterator[pa.Table]:
    """The fragments' ``doc_id, spans`` rows in order. Adjacent ranges of
    one file or block are read as one."""
    import ray
    from ray.data.block import BlockAccessor

    merged: list[list] = []  # [source, start, stop, key]
    for f in fragments:
        key = f.source if isinstance(f.source, str) else f.source.hex()
        if merged and merged[-1][3] == key and merged[-1][2] == f.start:
            merged[-1][2] = f.stop
        else:
            merged.append([*f, key])
    for source, start, stop, _ in merged:
        if not isinstance(source, str):
            block = BlockAccessor.for_block(ray.get(source)).to_arrow()
            yield block.select(DOC_COLUMNS).slice(start, stop - start)
            continue
        pf = pq.ParquetFile(source)
        lo = 0
        for g in range(pf.metadata.num_row_groups):
            hi = lo + pf.metadata.row_group(g).num_rows
            if hi > start and lo < stop:
                group = pf.read_row_group(g, columns=DOC_COLUMNS)
                first = max(start, lo)
                yield group.slice(first - lo, min(stop, hi) - first)
            if hi >= stop:
                break
            lo = hi


def read_fragments(fragments: Sequence[Fragment], batch_rows: int) -> Iterator[pa.Table]:
    """Stream the fragments' documents, in order, as tables of
    ``batch_rows`` rows (the last one may be shorter)."""
    pending: list[pa.Table] = []
    have = 0
    for table in _fragment_tables(fragments):
        pending.append(table)
        have += len(table)
        while have >= batch_rows:
            joined = pa.concat_tables(pending)
            yield joined.slice(0, batch_rows)
            pending, have = [joined.slice(batch_rows)], have - batch_rows
    if have:
        yield pa.concat_tables(pending)

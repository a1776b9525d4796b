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

import random

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


def read_documents(path: str, num_blocks: int | None = None,
                   read_cpus: float | None = None):
    """Read an interleaved-docs table as a Ray Dataset (Lance dataset dirs
    via ray.data.read_lance when the package is available, else parquet —
    sources/readers.py).

    Block count defaults to 4x the cluster CPUs: downstream OCR task
    concurrency is bounded by input block count, so a handful of fat files
    must split into enough blocks to keep every OCR task slot fed.

    ``read_cpus``: fractional CPU request per read task (e.g. 0.25) so
    reads keep flowing beside OCR tasks that reserve most of the node —
    with default 1-CPU read tasks and N-2 concurrent OCR tasks, reads
    trickle 2-wide and starve the pipeline start.
    """
    import ray
    import ray.data as rd

    from ocr_agent_ray.sources.readers import is_lance_dataset, read_lance_table

    if num_blocks is None:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        num_blocks = 4 * max(2, cpus)
    remote_args = {"num_cpus": read_cpus} if read_cpus else None
    if is_lance_dataset(path):
        return read_lance_table(path, num_blocks=num_blocks)
    kwargs = {"ray_remote_args": remote_args} if remote_args else {}
    return rd.read_parquet(path, override_num_blocks=num_blocks, **kwargs)

"""Sequential, reference-faithful oracle — golden generator for tests.

Mirrors the reference's strictly sequential drain loop + merge
(/root/reference/src/ocr_agent/cli.py:224-251 and
/root/reference/src/ocr_agent/markdown_merge.py:18-47) over an interleaved
document, span by span in offset order, with:

- pdf_page runs numbered in order (page_index/total_pages per contiguous
  media_ref run — the per-page fan-out of queue_store.py:91-123),
- OCR output normalized (deepseek_ocr2_runner.py:37-52),
- empty/whitespace-only output dropping the whole section INCLUDING its
  header (markdown_merge.py:30-38),
- headers rendered per markdown_merge.py:139-152,
- math-delimiter post-processing (markdown_merge.py:55-136),
- HTML spans boilerplate-stripped on the ``html.parser`` path
  (``boilerplate.reference_main_text``), where the pipeline takes the
  one-pass tokenizer.

No Ray, no parallelism: this is the single-threaded truth the distributed
pipeline must equal per doc_id on (kind, text, media_ref, order).
"""

from __future__ import annotations

from typing import Any, Iterable

from ocr_agent_ray.functions.kernels import (
    normalize_infer_result_to_markdown,
    post_process_markdown,
    render_header_text,
)
from ocr_agent_ray.schema import KIND_HEADER, MEDIA_KINDS


def annotate_page_runs(spans: list[dict]) -> list[dict]:
    """Assign page_index/total_pages to contiguous pdf_page runs.

    A run = maximal sequence of adjacent spans with kind='pdf_page' and the
    same media_ref (corpus invariant; cf. FIXTURES.md F1). Non-pdf spans get
    None. Returns new dicts with 'page_index'/'total_pages' keys added.
    """
    out: list[dict] = []
    i = 0
    n = len(spans)
    while i < n:
        s = spans[i]
        if s["kind"] != "pdf_page":
            out.append({**s, "page_index": None, "total_pages": None})
            i += 1
            continue
        j = i
        while j < n and spans[j]["kind"] == "pdf_page" and spans[j]["media_ref"] == s["media_ref"]:
            j += 1
        total = j - i
        for k in range(i, j):
            out.append({**spans[k], "page_index": k - i, "total_pages": total})
        i = j
    return out


def oracle_extract_doc(
    spans: list[dict], engine: Any, math_style: str = "dollar"
) -> list[dict]:
    """Golden output span sequence for one document.

    Output spans are ``(kind, text, media_ref, offset)`` where offset is
    the dense output order; each surviving section contributes a 'header'
    span then its processed body span.
    """
    out: list[dict] = []
    for s in annotate_page_runs(sorted(spans, key=lambda s: s["offset"])):
        kind = s["kind"]
        if kind in MEDIA_KINDS and not s["text"]:
            raw = engine.infer_batch([s["media_ref"]], [s["page_index"]])[0]
            markdown = normalize_infer_result_to_markdown(raw)
        elif kind == "html" and s["text"]:
            # the html.parser path, not the pipeline's tokenizer: the
            # golden then checks the tokenizer against it
            from ocr_agent_ray.stages.boilerplate import reference_main_text

            markdown = reference_main_text(s["text"])
        else:
            markdown = s["text"]
        if markdown.strip() == "":
            continue  # drop section incl. header (markdown_merge.py:30-38)
        header = render_header_text(kind, s["media_ref"], s["page_index"], s["total_pages"])
        processed = post_process_markdown(markdown, math_style)
        out.append({"kind": KIND_HEADER, "text": header,
                    "media_ref": s["media_ref"], "offset": 0})
        out.append({"kind": kind, "text": processed,
                    "media_ref": s["media_ref"], "offset": 0})
    for k, s in enumerate(out):
        s["offset"] = k
    return out


def oracle_extract(
    documents: Iterable[dict], engine: Any, math_style: str = "dollar"
) -> dict[str, list[dict]]:
    """Golden spans for many docs: {doc_id: [span, ...]}."""
    return {
        d["doc_id"]: oracle_extract_doc(d["spans"], engine, math_style)
        for d in documents
    }


def oracle_merged_markdown(
    documents: list[dict], engine: Any, math_style: str = "dollar"
) -> str:
    """Single merged markdown document across all docs in doc_id order.

    Parity with merge_tasks_into_single_markdown
    (markdown_merge.py:18-47): '# OCR Output' header, per surviving section
    header + blank + body + blank + '---' + blank, final rstrip + newline.
    """
    lines: list[str] = ["# OCR Output", ""]
    for d in sorted(documents, key=lambda d: d["doc_id"]):
        spans = oracle_extract_doc(d["spans"], engine, math_style)
        for i in range(0, len(spans), 2):
            header, body = spans[i], spans[i + 1]
            lines.append(header["text"])
            lines.append("")
            lines.append(body["text"])
            lines.append("")
            lines.append("---")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"

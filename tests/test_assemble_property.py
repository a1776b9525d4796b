"""``assemble_group`` against a per-row reference written here: any set of
finalized units, in any row order, assembles into one row per document
with (header, body) span pairs in offset order and dense output offsets,
tagged with the document's partition."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from ocr_agent_ray.schema import FINALIZED_UNITS_SCHEMA
from ocr_agent_ray.stages.assemble import assemble_group

_TEXT = st.sampled_from(["", " ", "plain words", "héllo wörld — 你好",
                         "\U0001f600 emoji", "multi\nline", "日本語"])
_DOC_ID = st.sampled_from(["a", "b", "doc-1", "doc-10", "doc-2", "é", "你",
                           "\U0001f600", "Z", ""])


@st.composite
def _units(draw):
    """Finalized-unit rows of 0+ docs, shuffled; a doc's units share its
    partition and have distinct offsets."""
    rows = []
    for doc_id in draw(st.lists(_DOC_ID, unique=True, max_size=8)):
        partition = draw(st.integers(0, 31))
        offsets = draw(st.lists(st.integers(0, 50), unique=True, min_size=1, max_size=6))
        for offset in offsets:
            kind = draw(st.sampled_from(["text", "html", "image", "pdf_page"]))
            rows.append({
                "doc_id": doc_id, "kind": kind, "text": draw(_TEXT),
                "media_ref": draw(st.sampled_from(["", "media://x/1.png", "media://é.pdf"])),
                "offset": offset, "page_index": None, "total_pages": None,
                "partition_id": partition, "error_message": None,
                "header_text": "## " + draw(_TEXT),
            })
    return draw(st.permutations(rows))


def _reference(rows: list[dict]) -> list[dict]:
    docs: dict[str, list[dict]] = {}
    for r in rows:
        docs.setdefault(r["doc_id"], []).append(r)
    out = []
    for doc_id in sorted(docs):
        spans = []
        for r in sorted(docs[doc_id], key=lambda r: r["offset"]):
            spans.append({"kind": "header", "text": r["header_text"],
                          "media_ref": r["media_ref"], "offset": len(spans)})
            spans.append({"kind": r["kind"], "text": r["text"],
                          "media_ref": r["media_ref"], "offset": len(spans)})
        out.append({"doc_id": doc_id, "spans": spans,
                    "partition_id": docs[doc_id][0]["partition_id"]})
    return out


def _table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=FINALIZED_UNITS_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(_units())
@example([])
def test_assemble_group_matches_per_row_reference(rows):
    got = assemble_group(_table(rows), tag_partition=True).to_pylist()
    assert got == _reference(rows)
    untagged = assemble_group(_table(rows)).to_pylist()
    assert untagged == [{k: v for k, v in r.items() if k != "partition_id"} for r in got]


def _unit(doc_id, offset, text, partition=3):
    return {"doc_id": doc_id, "kind": "text", "text": text, "media_ref": "",
            "offset": offset, "page_index": None, "total_pages": None,
            "partition_id": partition, "error_message": None,
            "header_text": f"## {doc_id}"}


@pytest.mark.parametrize("rows", [
    pytest.param([_unit("only", 2, "b"), _unit("only", 0, "a")], id="one-document"),
    pytest.param([_unit("d", 0, ""), _unit("d", 1, "")], id="empty-text"),
    pytest.param([_unit("ü", 0, "ünïcödé 你好"), _unit("a", 0, "\U0001f600")],
                 id="non-ascii"),
    pytest.param([_unit(f"doc-{i:04d}", 0, f"t{i}", i % 7) for i in range(500)][::-1],
                 id="many-short-documents"),
])
def test_assemble_group_edge_cases(rows):
    got = assemble_group(_table(rows), tag_partition=True).to_pylist()
    assert got == _reference(rows)

"""Declared Arrow schemas — fixed, like the reference's SQLite DDL.

The reference declares its task schema with DDL
(/root/reference/src/ocr_agent/queue_store.py:50-62); we declare explicit
``pyarrow.Schema`` objects and validate at stage boundaries instead of
relying on inference.
"""

from __future__ import annotations

import pyarrow as pa

# Span kinds. The reference's task kinds are 'image' | 'pdf_page'
# (/root/reference/src/ocr_agent/queue_store.py:21-22); interleaved documents
# additionally carry plain 'text' spans, and assembly emits 'header' spans
# (the merge's "## <source>" section headers,
# /root/reference/src/ocr_agent/markdown_merge.py:139-152).
KIND_TEXT = "text"
KIND_HTML = "html"          # raw HTML span: boilerplate-stripped at finalize
KIND_IMAGE = "image"
KIND_PDF_PAGE = "pdf_page"
KIND_HEADER = "header"

MEDIA_KINDS = (KIND_IMAGE, KIND_PDF_PAGE)

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

# Primary input table (BASELINE.json input_hint): interleaved text+media docs.
DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# Work-units table — the parallel analog of the reference's `tasks` rows
# (/root/reference/src/ocr_agent/queue_store.py:50-62) minus mutable status:
# lifecycle belongs to the executor, order belongs to the data.
WORK_UNITS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),          # within-doc order key
        pa.field("page_index", pa.int32()),      # 0-based page within its PDF run
        pa.field("total_pages", pa.int32()),     # pages in that PDF run
        pa.field("partition_id", pa.int32()),    # checkpoint / lineage unit
    ]
)

# Finalized work units: what finalize hands to assembly — the work units
# plus the OCR stage's per-row error (null when the row did not fail) and
# the rendered section header.
FINALIZED_UNITS_SCHEMA = (WORK_UNITS_SCHEMA
                          .append(pa.field("error_message", pa.string()))
                          .append(pa.field("header_text", pa.string())))

# Assembled output: same shape as input (doc_id, spans), where each output
# span is (kind, text, media_ref, offset) with offset = dense output order.
ASSEMBLED_SCHEMA = DOCUMENTS_SCHEMA

# What the flagship's OCR task emits: assembled rows, each tagged with its
# document's checkpoint partition so the driver can route it to that
# partition's file (the tag is not written).
TAGGED_ASSEMBLED_SCHEMA = ASSEMBLED_SCHEMA.append(pa.field("partition_id", pa.int32()))

# Checkpoint store shapes (FIXTURES.md F3).
PARTITION_MANIFEST_SCHEMA = pa.schema(
    [
        pa.field("partition_id", pa.int32()),
        pa.field("committed_at_unix_ms", pa.int64()),
        pa.field("num_docs", pa.int64()),
        pa.field("num_spans", pa.int64()),
        pa.field("output_fragment", pa.string()),
    ]
)

STAGE_METRICS_SCHEMA = pa.schema(
    [
        pa.field("partition_id", pa.int32()),
        pa.field("stage", pa.string()),
        pa.field("status", pa.string()),  # 'completed' | 'failed'
        pa.field("rows_in", pa.int64()),
        pa.field("rows_out", pa.int64()),
        pa.field("wall_ms", pa.int64()),
        pa.field("error_message", pa.string()),
    ]
)


def validate_schema(table: pa.Table, expected: pa.Schema, where: str) -> None:
    """Stage-boundary schema check (names + types, order-sensitive)."""
    got = pa.schema([pa.field(f.name, f.type) for f in table.schema])
    want = pa.schema([pa.field(f.name, f.type) for f in expected])
    if got != want:
        raise ValueError(
            f"schema mismatch at {where}:\n  got      {got}\n  expected {want}"
        )

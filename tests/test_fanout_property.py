"""``fan_out_documents`` against the per-unit Python implementation it
replaced (kept here as the reference): same work-unit table, bit for bit,
for any batch of documents — empty ones, pdf runs that end at a document
boundary, and equal ``media_ref``s in adjacent documents included."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings, strategies as st

from ocr_agent_ray.schema import DOCUMENTS_SCHEMA, WORK_UNITS_SCHEMA
from ocr_agent_ray.stages.fanout import fan_out_documents, stable_doc_partition


def _fan_out_reference(batch: pa.Table, *, num_partitions: int) -> pa.Table:
    spans_col = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans_col)
    parent = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
    n = len(flat)
    kind = np.asarray(flat.field("kind").to_pylist(), dtype=object)
    ref = np.asarray(flat.field("media_ref").to_pylist(), dtype=object)
    page_index = np.full(n, -1, dtype=np.int64)
    total_pages = np.full(n, -1, dtype=np.int64)
    if n:
        is_pdf = kind == "pdf_page"
        new_run = np.ones(n, dtype=bool)
        if n > 1:
            new_run[1:] = ~((parent[1:] == parent[:-1]) & is_pdf[1:] & is_pdf[:-1]
                            & (ref[1:] == ref[:-1]))
        run_id = np.cumsum(new_run) - 1
        idx = np.arange(n)
        page_index = np.where(is_pdf, idx - idx[new_run][run_id], -1)
        total_pages = np.where(is_pdf, np.bincount(run_id)[run_id], -1)
    doc_ids = batch["doc_id"].to_pylist()
    part_by_doc = np.asarray([stable_doc_partition(d, num_partitions) for d in doc_ids],
                             dtype=np.int32)
    is_pdf_mask = pa.array(page_index >= 0)
    null = pa.scalar(None, pa.int32())
    return pa.Table.from_arrays(
        [
            pa.array([doc_ids[i] for i in parent], pa.string()),
            flat.field("kind").cast(pa.string()),
            flat.field("text").cast(pa.string()),
            flat.field("media_ref").cast(pa.string()),
            flat.field("offset").cast(pa.int32()),
            pc.if_else(is_pdf_mask, pa.array(page_index, pa.int32()), null),
            pc.if_else(is_pdf_mask, pa.array(total_pages, pa.int32()), null),
            pa.array(part_by_doc[parent] if n else [], pa.int32()),
        ],
        schema=WORK_UNITS_SCHEMA,
    )


# few kinds and refs, so adjacent spans and documents often share them
_SPAN = st.fixed_dictionaries({
    "kind": st.sampled_from(["pdf_page", "pdf_page", "text", "image", "html", None]),
    "text": st.sampled_from(["", "words", "é 你好"]),
    "media_ref": st.sampled_from(["a.pdf", "a.pdf", "b.pdf", "", None]),
    "offset": st.integers(0, 9),
})
_DOCS = st.lists(st.lists(_SPAN, max_size=7), max_size=8)


def _table(docs: list[list[dict]], chunk: int) -> pa.Table:
    table = pa.Table.from_pydict(
        {"doc_id": [f"doc-{i}" for i in range(len(docs))], "spans": docs},
        schema=DOCUMENTS_SCHEMA)
    # several chunks, as a batch assembled from more than one block has
    return pa.concat_tables([table.slice(lo, chunk) for lo in range(0, len(table), chunk)]
                            or [table])


_PDF = {"kind": "pdf_page", "text": "", "media_ref": "a.pdf", "offset": 0}


@settings(max_examples=300, deadline=None)
@given(docs=_DOCS, chunk=st.integers(1, 8), num_partitions=st.sampled_from([1, 7, 32]))
@example(docs=[], chunk=1, num_partitions=32)
@example(docs=[[], [], []], chunk=2, num_partitions=32)
# a pdf run ends at a document boundary; the next document starts a run on
# the same media_ref
@example(docs=[[_PDF, _PDF], [_PDF], [], [_PDF, _PDF, _PDF]], chunk=3, num_partitions=7)
def test_fan_out_matches_reference(docs, chunk, num_partitions):
    batch = _table(docs, chunk)
    got = fan_out_documents(batch, num_partitions=num_partitions)
    want = _fan_out_reference(batch, num_partitions=num_partitions)
    assert got.schema == want.schema
    assert got.equals(want)
    assert got.to_pylist() == want.to_pylist()


def test_pdf_runs_split_at_document_boundaries():
    units = fan_out_documents(_table([[_PDF, _PDF], [_PDF]], chunk=2), num_partitions=4)
    assert units["page_index"].to_pylist() == [0, 1, 0]
    assert units["total_pages"].to_pylist() == [2, 2, 1]

"""Document → work-unit fan-out (the reference's enqueue step, distributed).

The reference expands each input into ordered task rows — one per image,
one per PDF page (/root/reference/src/ocr_agent/queue_store.py:66-123) —
with AUTOINCREMENT task_id as the global order key. Here the same 1→N
expansion is a vectorized ``map_batches`` over Arrow: explode each doc's
span list into work-unit rows carrying ``(doc_id, offset)`` as the order
key, annotate contiguous pdf_page runs with page_index/total_pages, and
assign a stable hash partition_id for checkpointing.

Fully vectorized (pyarrow list_flatten and compute kernels, numpy
run-length logic, Arrow ``take`` for the parent doc id); the only per-item
Python is one blake2b per document for partition hashing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_agent_ray.schema import WORK_UNITS_SCHEMA


def stable_doc_partition(doc_id: str, num_partitions: int) -> int:
    """Stable cross-process hash partition (python hash() is salted)."""
    h = hashlib.blake2b(doc_id.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") % num_partitions


def _same_as_previous(values: pa.Array) -> np.ndarray:
    """``values[i] == values[i - 1]`` for i >= 1, with two nulls equal."""
    cur, prev = values.slice(1), values.slice(0, len(values) - 1)
    equal = pc.fill_null(pc.equal(cur, prev), False)
    both_null = pc.and_(pc.is_null(cur), pc.is_null(prev))
    return pc.or_(equal, both_null).to_numpy(zero_copy_only=False)


def fan_out_documents(batch: pa.Table, *, num_partitions: int = 32) -> pa.Table:
    """Explode (doc_id, spans) rows into work-unit rows.

    Page-run annotation: a run is a maximal sequence of adjacent spans in
    one doc with kind='pdf_page' and equal media_ref (cf. per-page fan-out
    order, queue_store.py:103-122); page_index = 0-based position in the
    run, total_pages = run length; both null for non-pdf spans.
    """
    spans_col = batch["spans"].combine_chunks()
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    flat = pc.list_flatten(spans_col)
    parent = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
    n = len(flat)

    is_pdf = pc.fill_null(pc.equal(flat.field("kind"), "pdf_page"),
                          False).to_numpy(zero_copy_only=False)
    new_run = np.ones(n, dtype=bool)
    if n > 1:
        new_run[1:] = ~((parent[1:] == parent[:-1]) & is_pdf[1:] & is_pdf[:-1]
                        & _same_as_previous(flat.field("media_ref")))
    run_id = np.cumsum(new_run) - 1
    idx = np.arange(n)
    page_index = idx - idx[new_run][run_id]
    total_pages = np.bincount(run_id, minlength=1)[run_id]

    doc_ids = batch["doc_id"].combine_chunks()
    part_by_doc = np.fromiter(
        (stable_doc_partition(d, num_partitions) for d in doc_ids.to_pylist()),
        dtype=np.int32, count=len(doc_ids))

    not_pdf = ~is_pdf
    return pa.Table.from_arrays(
        [
            doc_ids.take(parent).cast(pa.string()),
            flat.field("kind").cast(pa.string()),
            flat.field("text").cast(pa.string()),
            flat.field("media_ref").cast(pa.string()),
            flat.field("offset").cast(pa.int32()),
            pa.array(page_index, pa.int32(), mask=not_pdf),
            pa.array(total_pages, pa.int32(), mask=not_pdf),
            pa.array(part_by_doc[parent], pa.int32()),
        ],
        schema=WORK_UNITS_SCHEMA,
    )


class FanOutStage:
    """map_batches callable wrapper so num_partitions is bound once."""

    def __init__(self, num_partitions: int = 32) -> None:
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        return fan_out_documents(batch, num_partitions=self.num_partitions)

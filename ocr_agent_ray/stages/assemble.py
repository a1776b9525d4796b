"""Per-document span assembly — the pipeline's one keyed shuffle.

The reference merges task outputs back into a single document in task_id
order (/root/reference/src/ocr_agent/markdown_merge.py:18-47,
queue_store.py:172-189). Distributed, order is data: work units carry
``(doc_id, offset)``, we group by ``partition_id`` (hash of doc_id — all of
a doc's units share a partition), sort within the group, and interleave
(header, body) span pairs per surviving unit with dense output offsets.

Assembly is vectorized: one ``sort_by`` + numpy interleaving + a single
``ListArray.from_arrays`` — no per-row Python in the group body.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ocr_agent_ray.schema import ASSEMBLED_SCHEMA, SPAN_STRUCT, validate_schema
from ocr_agent_ray.state.checkpoint import CheckpointStore, count_spans


def assemble_group(table: pa.Table) -> pa.Table:
    """Assemble finalized work units (any number of docs) into
    ``(doc_id, spans)`` rows; one output row per doc, spans ordered."""
    if len(table) == 0:
        return ASSEMBLED_SCHEMA.empty_table()

    table = table.sort_by([("doc_id", "ascending"), ("offset", "ascending")])
    doc = np.asarray(table["doc_id"].to_pylist(), dtype=object)
    kind = np.asarray(table["kind"].to_pylist(), dtype=object)
    text = np.asarray(table["text"].to_pylist(), dtype=object)
    ref = np.asarray(table["media_ref"].to_pylist(), dtype=object)
    header = np.asarray(table["header_text"].to_pylist(), dtype=object)
    m = len(doc)

    out_kind = np.empty(2 * m, dtype=object)
    out_text = np.empty(2 * m, dtype=object)
    out_ref = np.empty(2 * m, dtype=object)
    out_kind[0::2] = "header"
    out_kind[1::2] = kind
    out_text[0::2] = header
    out_text[1::2] = text
    out_ref[0::2] = ref
    out_ref[1::2] = ref

    new_doc = np.ones(m, dtype=bool)
    new_doc[1:] = doc[1:] != doc[:-1]
    doc_start = np.flatnonzero(new_doc)
    doc_len = np.diff(np.append(doc_start, m))
    # dense within-doc offsets over the interleaved (2×) rows
    out_offset = np.arange(2 * m, dtype=np.int64) - np.repeat(2 * doc_start, 2 * doc_len)

    values = pa.StructArray.from_arrays(
        [
            pa.array(out_kind, pa.string()),
            pa.array(out_text, pa.string()),
            pa.array(out_ref, pa.string()),
            pa.array(out_offset, pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = pa.array(
        np.concatenate([2 * doc_start, [2 * m]]).astype(np.int32)
    )
    spans = pa.ListArray.from_arrays(list_offsets, values)
    return pa.Table.from_arrays(
        [pa.array(doc[doc_start], pa.string()), spans], schema=ASSEMBLED_SCHEMA
    )


class PartitionAssembler:
    """Per-partition reduce kernel of the flagship's hash exchange
    (``bucket_map_groups`` on ``partition_id``).

    Without ``out_dir``: returns assembled ``(doc_id, spans)`` rows.
    With ``out_dir``: additionally commits the partition atomically to the
    checkpoint store (data + metrics + manifest marker; see
    state/checkpoint.py) and still returns the assembled rows so the
    pipeline output can keep streaming.
    """

    def __init__(self, out_dir: str | None = None) -> None:
        self.store = CheckpointStore(out_dir) if out_dir else None

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        assembled = assemble_group(group)
        # declared-schema discipline: validate at the commit boundary
        validate_schema(assembled, ASSEMBLED_SCHEMA, "PartitionAssembler")
        if self.store is not None and len(group) > 0:
            pid = int(group["partition_id"][0].as_py())
            wall_ms = int((time.monotonic() - t0) * 1000)
            num_spans = count_spans(assembled)
            metrics = [
                {
                    "partition_id": pid,
                    "stage": "assemble",
                    "status": "completed",
                    "rows_in": len(group),
                    "rows_out": num_spans,
                    "wall_ms": wall_ms,
                    "error_message": None,
                }
            ]
            self.store.write_partition(pid, assembled, metrics, num_spans=num_spans)
        return assembled

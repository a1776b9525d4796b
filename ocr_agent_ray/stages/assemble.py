"""Per-document span assembly.

The reference merges task outputs back into a single document in task_id
order (/root/reference/src/ocr_agent/markdown_merge.py:18-47,
queue_store.py:172-189). Distributed, order is data: work units carry
``(doc_id, offset)``, so any set of finalized units that holds every unit
of its documents — the flagship's per-task bundle, since a document is one
input row, or a hash partition — is sorted and then interleaved into
(header, body) span pairs per surviving unit with dense output offsets.

Assembly is vectorized: one ``sort_by``, Arrow ``take`` over an
interleaving index, numpy offsets and a single ``ListArray.from_arrays``
— no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_agent_ray.schema import (
    ASSEMBLED_SCHEMA,
    KIND_HEADER,
    SPAN_STRUCT,
    TAGGED_ASSEMBLED_SCHEMA,
)


def assemble_group(table: pa.Table, *, tag_partition: bool = False) -> pa.Table:
    """Assemble finalized work units (any number of docs) into
    ``(doc_id, spans)`` rows; one output row per doc, spans ordered.

    With ``tag_partition`` each row also carries its document's
    ``partition_id`` (:data:`TAGGED_ASSEMBLED_SCHEMA`), read from the
    document's first unit."""
    schema = TAGGED_ASSEMBLED_SCHEMA if tag_partition else ASSEMBLED_SCHEMA
    m = len(table)
    if m == 0:
        return schema.empty_table()

    table = table.sort_by([("doc_id", "ascending"), ("offset", "ascending")]).combine_chunks()
    col = {name: table[name].chunk(0)
           for name in ("doc_id", "kind", "text", "media_ref", "header_text")}

    new_doc = np.ones(m, dtype=bool)
    if m > 1:
        doc = col["doc_id"]
        new_doc[1:] = pc.fill_null(pc.not_equal(doc.slice(1), doc.slice(0, m - 1)),
                                   False).to_numpy(zero_copy_only=False)
    doc_start = np.flatnonzero(new_doc)
    doc_len = np.diff(np.append(doc_start, m))
    # dense within-doc offsets over the interleaved (2×) rows
    out_offset = np.arange(2 * m, dtype=np.int64) - np.repeat(2 * doc_start, 2 * doc_len)

    # row 2i is unit i's header, row 2i+1 its body: take from [headers; bodies]
    unit = np.arange(m, dtype=np.int64)
    pairs = pa.array(np.stack([unit, unit + m], axis=1).ravel())
    each_twice = np.repeat(unit, 2)
    header_kind = pa.array([KIND_HEADER], pa.string()).take(np.zeros(m, dtype=np.int64))
    values = pa.StructArray.from_arrays(
        [
            pa.concat_arrays([header_kind, col["kind"]]).take(pairs),
            pa.concat_arrays([col["header_text"], col["text"]]).take(pairs),
            col["media_ref"].take(each_twice),
            pa.array(out_offset, pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = pa.array(np.append(2 * doc_start, 2 * m).astype(np.int32))
    columns = [col["doc_id"].take(doc_start), pa.ListArray.from_arrays(list_offsets, values)]
    if tag_partition:
        columns.append(table["partition_id"].chunk(0).take(doc_start))
    return pa.Table.from_arrays(columns, schema=schema)

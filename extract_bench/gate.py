"""Oracle gate: digest of per-document ordered output spans.

The digest covers, for every document with at least one output span and
in ``doc_id`` order, the ``(kind, text, media_ref, offset)`` spans in
their list order, so spans committed out of order change it. Documents
whose every section was dropped have no output row in the pipeline and
an empty list in the oracle; both are skipped. A document committed
twice changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_agent_ray.state.checkpoint import CheckpointStore


def _digest(docs) -> str:
    """``docs``: iterable of ``(doc_id, spans)`` with span dicts."""
    h = hashlib.sha256()
    for doc_id, spans in sorted(docs, key=lambda d: d[0]):
        if not spans:
            continue
        rows = [[s["kind"], s["text"], s["media_ref"], s["offset"]] for s in spans]
        h.update(json.dumps([doc_id, rows], ensure_ascii=False).encode())
        h.update(b"\n")
    return h.hexdigest()


def golden_digest(golden: dict[str, list[dict]]) -> str:
    """Digest of ``oracle.oracle_extract`` output."""
    return _digest(golden.items())


def read_committed(out_dir: str) -> pa.Table:
    """Every committed partition's data file, read with pyarrow."""
    store = CheckpointStore(out_dir)
    files = [store.data_path(pid) for pid in sorted(store.committed_ids())]
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        raise FileNotFoundError(f"committed partitions without data: {missing}")
    if not files:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    return pa.concat_tables(pq.read_table(f) for f in files)


def committed_digest(out_dir: str) -> str:
    table = read_committed(out_dir)
    return _digest((r["doc_id"], r["spans"]) for r in table.to_pylist())

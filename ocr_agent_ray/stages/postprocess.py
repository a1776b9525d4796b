"""Post-OCR finalization + grounding-detection extraction stages.

``finalize_units`` reproduces, per work unit, what the reference's merge
does per task (/root/reference/src/ocr_agent/markdown_merge.py:26-47):
drop units whose markdown is empty/whitespace-only (header included),
apply the fence-aware math-delimiter conversion, and synthesize the
section-header text. Running it BEFORE the assembly shuffle means empty
units never hit the wire and the shuffle carries final strings only.
"""

from __future__ import annotations

import pyarrow as pa

from ocr_agent_ray.stages.boilerplate import extract_main_text
from ocr_agent_ray.state.checkpoint import MetricsSpool
from ocr_agent_ray.functions.kernels import (
    parse_grounding_detections,
    post_process_markdown,
    render_header_text,
)

DETECTION_STRUCT = pa.struct(
    [
        pa.field("ref_type", pa.string()),
        pa.field("x1", pa.int32()),
        pa.field("y1", pa.int32()),
        pa.field("x2", pa.int32()),
        pa.field("y2", pa.int32()),
    ]
)


class FinalizeStage:
    """map_batches callable: post-process text, drop empties, add header_text."""

    def __init__(self, math_style: str = "dollar",
                 metrics_dir: str | None = None) -> None:
        self.math_style = math_style
        self.spool = MetricsSpool(metrics_dir) if metrics_dir else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time as _time

        t0 = _time.monotonic()
        # Failed units (poison pills from the OCR stage) are recorded in
        # lineage before being dropped — the reference keeps failed task
        # rows with their error_message (queue_store.py:160-170) and
        # excludes them from the merge; we keep the record in metrics.
        if self.spool is not None and "error_message" in batch.column_names:
            import pyarrow.compute as pc

            errs = batch.filter(pc.is_valid(batch["error_message"]))
            if len(errs):
                rows = []
                for pid, msg in zip(errs["partition_id"].to_pylist(),
                                    errs["error_message"].to_pylist()):
                    rows.append({
                        "partition_id": int(pid),
                        "stage": "ocr",
                        "status": "failed",
                        "rows_in": 1,
                        "rows_out": 0,
                        "wall_ms": 0,
                        "error_message": msg,
                    })
                self.spool.append("ocr-failed", rows)
        texts = batch["text"].to_pylist()
        kinds = batch["kind"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        pages = batch["page_index"].to_pylist()
        totals = batch["total_pages"].to_pylist()

        keep: list[int] = []
        processed: list[str] = []
        headers: list[str] = []
        for i, t in enumerate(texts):
            if kinds[i] == "html" and t:
                # north-rule main-content extraction: strip boilerplate
                # before markdown post-processing; an all-chrome page
                # yields "" and falls through to the empty-section drop
                t = extract_main_text(t)
            if t is None or t.strip() == "":
                continue  # section dropped incl. header (markdown_merge.py:30-38)
            keep.append(i)
            # both math patterns need a backslash, and the fence split
            # rejoins losslessly: text without one is returned as is
            processed.append(post_process_markdown(t, self.math_style)
                             if "\\" in t else t)
            headers.append(render_header_text(kinds[i], refs[i], pages[i], totals[i]))

        kept = batch.take(pa.array(keep, pa.int64()))
        kept = kept.set_column(
            kept.schema.get_field_index("text"), "text", pa.array(processed, pa.string())
        )
        kept = kept.append_column("header_text", pa.array(headers, pa.string()))
        if self.spool is not None:
            wall_ms = int((_time.monotonic() - t0) * 1000)
            self.spool.append(
                "postprocess",
                self.spool.rows_for(
                    "postprocess", batch["partition_id"].to_pylist(), wall_ms,
                    rows_out=len(kept),
                ),
            )
        return kept


class GroundingExtractStage:
    """map_batches callable: parse grounded-output detection rectangles.

    Promotes the reference GUI's preview regex
    (/root/reference/gui/src/PreviewPanel.tsx:35-36) to a core operator:
    adds a ``detections: list<struct<ref_type,x1,y1,x2,y2>>`` column.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        dets = [
            [
                {"ref_type": r, "x1": x1, "y1": y1, "x2": x2, "y2": y2}
                for (r, x1, y1, x2, y2) in parse_grounding_detections(t or "")
            ]
            for t in batch["text"].to_pylist()
        ]
        return batch.append_column(
            "detections", pa.array(dets, pa.list_(DETECTION_STRUCT))
        )

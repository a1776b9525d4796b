"""GPU stand-in OCR engine: ``MockOcrEngine`` outputs, model cost as a wait.

``MockOcrEngine(work_ms)`` spends its per-page cost in a busy loop. On a
box with few cores that loop takes the CPU every other layer needs, which
a GPU-bound model does not. This engine sleeps instead, once per batch, the
way an actor blocks on a device call.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from ocr_agent_ray.stages.ocr import mock_markdown_for


class StandInOcrEngine:
    def __init__(self, page_ms: float = 0.0) -> None:
        self.page_ms = page_ms

    def infer_batch(self, media_refs: Sequence[str],
                    page_indices: Sequence[int | None]) -> list[Any]:
        if self.page_ms > 0 and media_refs:
            time.sleep(len(media_refs) * self.page_ms / 1000.0)
        return [mock_markdown_for(r, p) for r, p in zip(media_refs, page_indices)]

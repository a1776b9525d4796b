"""Frozen configuration records, env-var driven like the reference.

Mirrors the surface of the reference's config plane
(/root/reference/src/ocr_agent/config.py:32-122): model name/revision,
prompt override, image sizes, crop mode, math-delimiter style — plus the
pipeline-level knobs that only exist in a distributed engine (batch sizes,
OCR task width, partition count).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MATH_STYLE_DOLLAR = "dollar"
MATH_STYLE_LATEX = "latex"

DEFAULT_GROUNDING_PROMPT = "<image>\n<|grounding|>Convert the document to markdown. "


def decode_escaped_newlines(value: str) -> str:
    """Turn literal ``\\n`` into newlines in env-passed prompts.

    Parity: /root/reference/src/ocr_agent/config.py:43-46.
    """
    return value.replace("\\n", "\n")


@dataclass(frozen=True)
class OcrModelSettings:
    """Model-plane settings (reference: DeepSeekOcr2Settings, config.py:32-82)."""

    model_name: str = "deepseek-ai/DeepSeek-OCR-2"
    model_revision: str | None = None
    prompt: str = DEFAULT_GROUNDING_PROMPT
    base_size_pixels: int = 1024
    image_size_pixels: int = 768
    crop_mode: bool = True

    @classmethod
    def from_environment(cls) -> "OcrModelSettings":
        env = os.environ
        return cls(
            model_name=env.get("OCR_AGENT_MODEL_NAME", cls.model_name),
            model_revision=env.get("OCR_AGENT_MODEL_REVISION") or None,
            prompt=decode_escaped_newlines(env.get("OCR_AGENT_PROMPT", cls.prompt)),
            base_size_pixels=int(env.get("OCR_AGENT_BASE_SIZE", cls.base_size_pixels)),
            image_size_pixels=int(env.get("OCR_AGENT_IMAGE_SIZE", cls.image_size_pixels)),
            crop_mode=env.get("OCR_AGENT_CROP_MODE", "1") not in ("0", "false", "False"),
        )


@dataclass(frozen=True)
class PostProcessSettings:
    """Markdown post-processing (reference: config.py:110-122; default 'dollar')."""

    math_delimiter_style: str = MATH_STYLE_DOLLAR

    @classmethod
    def from_environment(cls) -> "PostProcessSettings":
        style = os.environ.get("OCR_AGENT_MATH_DELIMITER_STYLE", MATH_STYLE_DOLLAR)
        if style not in (MATH_STYLE_DOLLAR, MATH_STYLE_LATEX):
            style = MATH_STYLE_DOLLAR
        return cls(math_delimiter_style=style)


@dataclass(frozen=True)
class PipelineSettings:
    """Distributed-execution knobs (ours; no reference equivalent — the
    reference is strictly sequential, cli.py:224-244)."""

    ocr_batch_size: int = 256          # work units per OCR engine call
    ocr_concurrency: int = 4           # max concurrent OCR tasks
    ocr_min_actors: int = 1            # unused: the OCR operator is a task
                                       # map_batches, and Ray Data task ops
                                       # take only an integer concurrency.
                                       # Kept so existing callers that set
                                       # it still construct.
    ocr_num_cpus: float = 1.0          # reserved per OCR task. A GPU run
                                       # reserves num_gpus=1 instead; Ray
                                       # then ends the worker after each
                                       # task (max_calls=1, which
                                       # map_batches cannot override), so
                                       # the model reloads per task (see
                                       # DeepSeekOcr2Engine)
    fanout_batch_size: int = 512       # documents per fan-out batch
    num_partitions: int = 32           # checkpoint / output partitions
    balance_blocks: int | None = None  # EXPLICIT skew leveling: repartition
                                       # work units into this many
                                       # row-balanced blocks before OCR (an
                                       # all-to-all barrier; units are
                                       # ~equal cost after per-page fan-out
                                       # so row-balance == cost-balance).
                                       # Off by default: the barrier-free
                                       # path gets OCR granularity from
                                       # small fused fan-out tasks. Turn on
                                       # for pathological per-doc skew
                                       # (single multi-thousand-page docs).
    fail_fast: bool = False            # reference --fail-fast (cli.py:74-85)

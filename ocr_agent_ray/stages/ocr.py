"""OCR engine adapters + the flagship's fused OCR→finalize stage.

The reference's hot loop is one GPU inference per task inside a lazily
loaded singleton runner (/root/reference/src/ocr_agent/deepseek_ocr2_runner.py:72-177).
Here the same shape is a streaming task per OCR slot behind a
per-worker-process stage cache: the flagship's OCR operator is a
task-based ``map_batches`` (pipelines/extract.py), and each task takes its
engine from :func:`process_stage`, which builds the engine once per (Ray
worker process, run) and reuses it for every task of that run in that
process — the reference's load-once semantics, per run.

Engines implement ``infer_batch(media_refs, page_indices) -> list[Any]``
(batch-of-images -> batch-of-raw-model-results); raw results are normalized
with :func:`ocr_agent_ray.functions.kernels.normalize_infer_result_to_markdown`,
mirroring deepseek_ocr2_runner.py:37-52.
"""

from __future__ import annotations

import hashlib
import random
import sys
import types
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import pyarrow as pa

from ocr_agent_ray.functions.kernels import normalize_infer_result_to_markdown
from ocr_agent_ray.schema import MEDIA_KINDS
from ocr_agent_ray.stages.postprocess import FinalizeStage
from ocr_agent_ray.state.checkpoint import MetricsSpool


class OcrEngine(Protocol):
    def infer_batch(
        self, media_refs: Sequence[str], page_indices: Sequence[int | None]
    ) -> list[Any]: ...


# --- deterministic mock engine -------------------------------------------
# The sandbox has no GPU (the reference hard-fails without CUDA,
# deepseek_ocr2_runner.py:92-94). The mock is a pure function of
# (media_ref, page_index) so goldens are stable under any parallelism.

_MOCK_SENTENCES = [
    "The quarterly revenue grew by 12 percent.",
    "Figure 3 shows the measured distribution.",
    "All samples were normalized before analysis.",
    "Results are summarized in the table below.",
    "See appendix B for derivations.",
]

_MOCK_MATH = [
    "Inline math \\( {a} + {b} \\) appears here.",
    "Displayed equation:\n\\[\n  E_{a} = m c^{b}\n\\]\nend.",
    "Nested forms \\[ f({a}) = \\( {b} \\) \\] are rare.",
]

_MOCK_FENCES = [
    "```\ncode with \\( untouched \\) math\n```",
    "~~~\ntilde fence \\[ also untouched \\]\n~~~",
    "  ```python\nindented fence \\( still code \\)\n  ```",
    "````\nlong fence\n```\nstill code \\( here \\)\n````",
]

_MOCK_GROUNDING = [
    "<|ref|>title<|/ref|><|det|>[[{x}, {y}, {x2}, {y2}]]<|/det|> Document Title",
    "<|ref|>table<|/ref|><|det|>[[{x},{y},{x2},{y2}]]<|/det|>\n| a | b |\n| - | - |\n| 1 | 2 |",
]


def mock_markdown_for(media_ref: str, page_index: int | None) -> Any:
    """Deterministic raw model result for one media item.

    Returns the same *shape variety* the reference normalizer handles
    (str / dict / None / empty), keyed purely on content so any two
    executions agree.
    """
    seed = f"ocr:{media_ref}:{page_index if page_index is not None else -1}"
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.04:
        return None  # normalized to "" -> section dropped (markdown_merge.py:36-38)
    if roll < 0.07:
        return "   \n  "  # whitespace-only -> also dropped

    parts: list[str] = []
    for _ in range(rng.randint(1, 4)):
        bucket = rng.random()
        if bucket < 0.40:
            parts.append(rng.choice(_MOCK_SENTENCES))
        elif bucket < 0.65:
            t = rng.choice(_MOCK_MATH)
            parts.append(t.format(a=rng.randint(1, 9), b=rng.randint(1, 9)))
        elif bucket < 0.82:
            parts.append(rng.choice(_MOCK_FENCES))
        else:
            t = rng.choice(_MOCK_GROUNDING)
            x, y = rng.randint(0, 500), rng.randint(0, 500)
            parts.append(t.format(x=x, y=y, x2=x + rng.randint(10, 300), y2=y + rng.randint(10, 300)))
    body = "\n\n".join(parts)

    shape = rng.random()
    if shape < 0.10:
        return {"markdown": body}
    if shape < 0.15:
        return {"text": body, "extra": 1}
    return body


class MockOcrEngine:
    """Pure-function engine; safe to construct in every worker process.

    ``work_ms`` emulates per-page model latency with deterministic-output
    busy work (the real model runs ~1 s/page on GPU,
    deepseek_ocr2_runner.py:122-177; benchmarks use a few ms so the OCR
    stage is compute-bound the way the real pipeline is). Output is
    independent of work_ms.
    """

    def __init__(self, work_ms: float = 0.0) -> None:
        self.work_ms = work_ms

    def _burn(self) -> None:
        if self.work_ms <= 0:
            return
        import time

        deadline = time.perf_counter() + self.work_ms / 1000.0
        h = b"x"
        while time.perf_counter() < deadline:
            h = hashlib.blake2b(h, digest_size=32).digest()

    def infer_batch(
        self, media_refs: Sequence[str], page_indices: Sequence[int | None]
    ) -> list[Any]:
        out = []
        for r, p in zip(media_refs, page_indices):
            self._burn()
            out.append(mock_markdown_for(r, p))
        return out


def _read_png_text_chunk(data: bytes, key: bytes = b"ocr-text") -> str | None:
    """Extract a tEXt chunk payload from PNG bytes (fixture metadata)."""
    import struct

    if not data.startswith(b"\x89PNG\r\n\x1a\n"):
        return None
    pos = 8
    prefix = key + b"\x00"
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if tag == b"tEXt" and payload.startswith(prefix):
            return payload[len(prefix):].decode("latin-1")
        if tag == b"IEND":
            break
        pos += 12 + length
    return None


class MetadataOcrEngine:
    """Deterministic text-from-image-metadata engine — the SURVEY.md §5
    mock: reads the ``ocr-text`` tEXt chunk of fixture PNGs (written by
    tools/generate_text_image.py) behind the same batch adapter interface
    as the real model. Stands in for the reference's GPU integration test
    (tests/test_synthetic_ocr.py:43-63) so the normalized-containment
    conformance check runs without CUDA. media_ref is a filesystem path.
    """

    def infer_batch(
        self, media_refs: Sequence[str], page_indices: Sequence[int | None]
    ) -> list[Any]:
        out: list[Any] = []
        for ref in media_refs:
            try:
                with open(ref, "rb") as f:
                    data = f.read()
            except OSError:
                out.append(None)
                continue
            out.append(_read_png_text_chunk(data))
        return out


@dataclass
class DeepSeekOcr2Config:
    """Model knobs (behavioral parity with the reference's
    DeepSeekOcr2Settings, config.py:33-39; defaults are the public model
    card's)."""

    model_name: str = "deepseek-ai/DeepSeek-OCR-2"
    model_revision: str | None = None
    markdown_prompt: str = "<image>\n<|grounding|>Convert the document to markdown."
    base_size: int = 1024
    image_size: int = 768
    crop_mode: bool = True
    result_filename: str = "result.mmd"
    work_dir: str | None = None  # scratch root for per-image model output


class DeepSeekOcr2Engine:
    """Real GPU adapter, import-guarded (no CUDA/torch in this container —
    the body is complete so a GPU deployment needs zero new code).

    GPU deployment: the flagship's OCR operator is a task ``map_batches``
    with ``num_cpus=settings.ocr_num_cpus``; a GPU run gives it
    ``num_gpus=1`` instead (pipelines/extract.py). Ray 2.49 gives tasks
    with ``num_gpus>0`` a default of ``max_calls=1``
    (ray/remote_function.py:105-119), so the worker process exits after
    each task. A slot task is one OCR slot's whole share of the run (at
    most ``ocr_concurrency`` tasks per run), so the model loads once per
    slot and run, even under ``max_calls=1``. An input that the default
    path streams per fan-out bundle instead (a lazy or coarse input, see
    pipelines/extract.py) loads it once per bundle, and ``balance_blocks``
    once per OCR block. ``map_batches``
    cannot pass ``max_calls=0``: Ray Data also hands its remote args to
    ``.options()``, which rejects ``max_calls`` (ValueError "Setting
    'max_calls' is not supported in '.options()'", checked on CPU). That a
    run builds at most ``ocr_concurrency`` engines is tested on CPU
    (tests/test_slot_tasks.py); the GPU path is not verified.

    Behavioral parity with the reference runner
    (deepseek_ocr2_runner.py:78-177), restated batch-first:

    - tokenizer + model load lazily, exactly once per engine instance
      (one per worker process and run, :func:`process_stage`),
    - bf16 when the GPU supports it, else fp16,
    - flash-attention-2 requested first; a ``TypeError`` from builds that
      don't accept the argument falls back to the plain load,
    - CUDA required (explicit RuntimeError otherwise),
    - per image: ``model.infer(..., save_results=True)`` into a scratch
      dir; the saved result file is preferred when non-empty because the
      model may print output and return nothing; otherwise the raw return
      value is handed to the stage normalizer,
    - scratch dirs are deleted best-effort, never failing the row.
    """

    def __init__(self, config: DeepSeekOcr2Config | None = None,
                 require_cuda: bool = True) -> None:
        self.config = config or DeepSeekOcr2Config()
        self.require_cuda = require_cuda
        self._tokenizer: Any = None
        self._model: Any = None

    # -- loading -----------------------------------------------------------

    def _load_once(self) -> None:
        if self._model is not None:
            return
        try:
            import torch
            from transformers import AutoModel, AutoTokenizer
        except ImportError as exc:  # pragma: no cover - exercised on GPU nodes
            raise NotImplementedError(
                "DeepSeek-OCR-2 needs torch + transformers (and a CUDA GPU); "
                "not installed in this container. Use MockOcrEngine / "
                "MetadataOcrEngine here; this adapter is complete for GPU "
                "deployments."
            ) from exc

        if self.require_cuda and not torch.cuda.is_available():
            raise RuntimeError(
                "CUDA GPU is not available; DeepSeek-OCR-2 targets GPU "
                "execution (verify driver/passthrough with nvidia-smi)."
            )

        dtype = (
            torch.bfloat16
            if torch.cuda.is_available() and torch.cuda.is_bf16_supported()
            else torch.float16
        )
        common: dict[str, Any] = dict(
            trust_remote_code=True, use_safetensors=True, torch_dtype=dtype,
        )
        if self.config.model_revision is not None:
            common["revision"] = self.config.model_revision

        self._tokenizer = AutoTokenizer.from_pretrained(
            self.config.model_name,
            **{k: v for k, v in common.items()
               if k in ("revision", "trust_remote_code")},
        )
        try:
            model = AutoModel.from_pretrained(
                self.config.model_name,
                _attn_implementation="flash_attention_2",
                **common,
            )
        except TypeError:
            # this transformers build doesn't accept the attn argument
            model = AutoModel.from_pretrained(self.config.model_name, **common)
        model = model.eval()
        if torch.cuda.is_available():
            model = model.cuda()
        self._model = model

    # -- inference ---------------------------------------------------------

    def _infer_one(self, image_path: str) -> Any:
        import os
        import shutil
        import tempfile

        if not os.path.exists(image_path):
            raise FileNotFoundError(image_path)
        self._load_once()
        scratch = tempfile.mkdtemp(prefix="dsocr2-", dir=self.config.work_dir)
        try:
            raw = self._model.infer(
                self._tokenizer,
                prompt=self.config.markdown_prompt,
                image_file=str(image_path),
                output_path=scratch,
                base_size=self.config.base_size,
                image_size=self.config.image_size,
                crop_mode=self.config.crop_mode,
                save_results=True,
            )
            saved = os.path.join(scratch, self.config.result_filename)
            if os.path.exists(saved):
                with open(saved, encoding="utf-8") as f:
                    text = f.read()
                if text.strip():
                    return text
            return raw
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def infer_batch(
        self, media_refs: Sequence[str], page_indices: Sequence[int | None]
    ) -> list[Any]:
        # page_indices unused: upstream rasterization (stages/media.py)
        # already turned pdf pages into per-page images
        return [self._infer_one(ref) for ref in media_refs]


class OcrFinalizeStage:
    """OCR + finalize fused in one callable — the flagship's per-run OCR
    state.

    Post-processing is cheap CPU relative to inference, so running it
    in the same call saves an operator (its task overhead and block hop)
    on the hot path. Both halves write to ONE metrics spool. The flagship
    builds one instance per (worker process, run) with :func:`process_stage`,
    so its engine, error-cap counters, ``fail_fast`` and spool file belong
    to one run.
    """

    def __init__(self, engine_factory=None, fail_fast: bool = False,
                 metrics_dir: str | None = None, math_style: str = "dollar") -> None:
        self.ocr = OcrStage(
            engine_factory=engine_factory or MockOcrEngine,
            fail_fast=fail_fast, metrics_dir=metrics_dir,
        )
        self.finalize = FinalizeStage(math_style=math_style)
        self.finalize.spool = self.ocr.spool

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.finalize(self.ocr(batch))


# --- per-worker-process stage cache ----------------------------------------
# Task-based map operators deserialize their callable for every task, and
# when the package is pickled by value (serialization.register_for_ray_workers)
# every task also gets fresh copies of this module's globals. The cache
# therefore lives in a sys.modules entry, which belongs to the worker
# process rather than to any copy of this module.
_CACHE_MODULE = "_ocr_agent_ray_stage_cache"


def process_stage(run_id: str, engine_factory, *, fail_fast: bool = False,
                  metrics_dir: str | None = None,
                  math_style: str = "dollar") -> OcrFinalizeStage:
    """This worker process's :class:`OcrFinalizeStage` for run ``run_id``.

    The first task of a run in a process builds the stage, and with it
    the engine; the run's later tasks in that process reuse it. The number
    of engines a run builds is the number of worker processes its OCR
    tasks land on: at most one per OCR slot when a run uses slot tasks,
    where a slot is one task; when the OCR tasks are one per bundle or
    block (an input streamed per bundle, or ``balance_blocks``), they go
    to any pooled worker, so up to Ray's worker pool (about one idle
    worker per CPU). A process keeps its last run's stage, engine included, until an
    OCR task of another run replaces it or the process exits. If the
    factory raises, the exception propagates and nothing is cached."""
    cache = sys.modules.get(_CACHE_MODULE)
    if cache is None:
        cache = types.ModuleType(_CACHE_MODULE)
        sys.modules[_CACHE_MODULE] = cache
    elif cache.run_id == run_id:
        return cache.stage
    # drop the previous run's stage (and its engine) before building this
    # run's, so two models never share the process
    cache.run_id = cache.stage = None
    cache.stage = OcrFinalizeStage(engine_factory=engine_factory,
                                   fail_fast=fail_fast, metrics_dir=metrics_dir,
                                   math_style=math_style)
    cache.run_id = run_id
    return cache.stage


def _stable_u64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


class OcrStage:
    """``map_batches`` callable: OCR media rows, pass text rows.

    The engine is built once, in ``__init__`` (``engine_factory()``). Use
    as an actor pool::

        ds.map_batches(OcrStage, fn_constructor_kwargs={"engine_factory": MockOcrEngine},
                       batch_format="pyarrow", batch_size=B, concurrency=N)

    or, as the flagship does, behind :func:`process_stage` inside a task.

    Rows with kind in ('image', 'pdf_page') and empty text get engine
    output (normalized, deepseek_ocr2_runner.py:37-52); 'text' rows pass
    through untouched. Per-row engine failures are recorded in an
    ``error_message`` column and yield empty text — the reference's
    mark-failed-and-continue semantics (cli.py:239-244), never a retry.
    """

    def __init__(self, engine_factory=MockOcrEngine, fail_fast: bool = False,
                 metrics_dir: str | None = None,
                 max_error_fraction: float = 0.5,
                 min_rows_for_error_cap: int = 64) -> None:
        self.engine = engine_factory()
        self.fail_fast = fail_fast
        # systemic-failure guard (the max_errored_blocks-style cap of
        # SURVEY §4): per-row poison pills are tolerated, but once more
        # than max_error_fraction of this stage's attempted media rows have
        # failed (after a minimum sample), the engine is considered broken
        # and the run aborts instead of silently emitting an empty corpus
        self.max_error_fraction = max_error_fraction
        self.min_rows_for_error_cap = min_rows_for_error_cap
        self._attempted = 0
        self._failed = 0
        self.spool = MetricsSpool(metrics_dir) if metrics_dir else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time as _time

        import pyarrow.compute as pc

        t0 = _time.monotonic()
        # Arrow-level bail-out: a batch with no (media kind, empty text)
        # row needs no inference — skip the four full-column to_pylist
        # copies entirely (inference is per-image anyway, so the copies
        # were pure overhead on text-only or cache-hit batches).
        media_mask = pc.fill_null(pc.is_in(
            batch["kind"],
            value_set=pa.array(sorted(MEDIA_KINDS), pa.string())), False)
        empty_text = pc.fill_null(pc.equal(batch["text"], ""), True)
        if not pc.any(pc.and_(media_mask, empty_text)).as_py():
            out = batch.append_column(
                "error_message", pa.nulls(len(batch), pa.string()))
            if self.spool is not None:
                wall_ms = int((_time.monotonic() - t0) * 1000)
                self.spool.append(
                    "ocr",
                    self.spool.rows_for(
                        "ocr", batch["partition_id"].to_pylist(), wall_ms))
            return out

        kinds = batch["kind"].to_pylist()
        texts = batch["text"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        pages = batch["page_index"].to_pylist()

        todo = [i for i, (k, t) in enumerate(zip(kinds, texts)) if k in MEDIA_KINDS and not t]
        errors: list[str | None] = [None] * len(kinds)
        if todo:
            try:
                results = self.engine.infer_batch(
                    [refs[i] for i in todo], [pages[i] for i in todo]
                )
                for i, raw in zip(todo, results):
                    texts[i] = normalize_infer_result_to_markdown(raw)
            except Exception:
                # batch-level engine fault: fall back to per-row isolation
                for i in todo:
                    try:
                        raw = self.engine.infer_batch([refs[i]], [pages[i]])[0]
                        texts[i] = normalize_infer_result_to_markdown(raw)
                    except Exception as exc:  # poison pill: record, continue
                        if self.fail_fast:
                            raise
                        texts[i] = ""
                        errors[i] = str(exc)
                        self._failed += 1
            self._attempted += len(todo)
            if (self._attempted >= self.min_rows_for_error_cap
                    and self._failed > self.max_error_fraction * self._attempted):
                sample = next((e for e in reversed(errors) if e), "")
                raise RuntimeError(
                    f"OCR engine failing systemically: {self._failed}/"
                    f"{self._attempted} media rows errored in degraded "
                    f"batches (cap {self.max_error_fraction:.0%}); "
                    f"sample: {sample!r}"
                )

        out = batch.set_column(
            batch.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        out = out.append_column("error_message", pa.array(errors, pa.string()))
        if self.spool is not None:
            wall_ms = int((_time.monotonic() - t0) * 1000)
            self.spool.append(
                "ocr",
                self.spool.rows_for("ocr", batch["partition_id"].to_pylist(), wall_ms),
            )
        return out

"""Flagship extraction pipeline: interleaved docs → extracted span docs.

Ray-Data-first restatement of the reference's enqueue→run→merge lifecycle
(/root/reference/src/ocr_agent/cli.py:161-256), one path from read to
commit:

    read docs (parquet/Lance, column-pruned)
      → map_batches(ExtractTask)             # ONE task op, N-wide: fan-out
                                             # (enqueue), resume filter, OCR
                                             # (the GPU hot loop), post-process
                                             # + drop-empty + headers per
                                             # read bundle
      → bucket_map_groups(partition_id, PartitionAssembler)
                                             # THE one shuffle (raw-Ray hash
                                             # exchange); per-doc ordered
                                             # assembly + atomic checkpoint commit

The OCR operator is a task ``map_batches``, not an actor pool: Ray Data
runs its tasks on warm pooled workers that already import ``ray.data``,
so no run waits for a fresh actor process. Each task takes its engine
from a per-(worker process, run) cache (stages/ocr.py ``process_stage``):
a run builds one engine in each worker process its OCR tasks land on.
That count is bounded by Ray's idle-worker pool, not by
``ocr_concurrency`` (which caps only the tasks running at once); the run
summary reports it as ``ocr_processes``. Resume filters
committed partitions out right after fan-out with a broadcast set
(anti-join, SURVEY.md §2.4) — no shuffle, no re-OCR of done work.
"""

from __future__ import annotations

import uuid

import pyarrow as pa
import pyarrow.compute as pc

from ocr_agent_ray.config import PipelineSettings, PostProcessSettings
from ocr_agent_ray.stages.assemble import PartitionAssembler
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine, process_stage


class ExtractTask:
    """Task-based ``map_batches`` callable: fan-out → drop committed →
    OCR → finalize for one batch of documents.

    Deserialized afresh for every task, so it holds only constants made
    where the pipeline is built; the per-run :class:`OcrFinalizeStage`
    and its engine come from the worker process (``process_stage``),
    keyed by this run's id."""

    def __init__(self, *, engine_factory, settings: PipelineSettings,
                 math_style: str, out_dir: str | None,
                 skip_partitions: set[int] | None) -> None:
        self.run_id = uuid.uuid4().hex
        self.engine_factory = engine_factory
        self.num_partitions = settings.num_partitions
        self.ocr_batch_size = settings.ocr_batch_size
        self.fail_fast = settings.fail_fast
        self.math_style = math_style
        self.out_dir = out_dir
        self.done = (pa.array(sorted(skip_partitions), pa.int32())
                     if skip_partitions else None)

    def fan_out(self, docs: pa.Table) -> pa.Table:
        units = fan_out_documents(docs, num_partitions=self.num_partitions)
        if self.done is None:
            return units
        return units.filter(pc.invert(pc.is_in(units["partition_id"],
                                               value_set=self.done)))

    def ocr(self, units: pa.Table) -> pa.Table:
        stage = process_stage(self.run_id, self.engine_factory,
                              fail_fast=self.fail_fast, metrics_dir=self.out_dir,
                              math_style=self.math_style)
        # engine calls see at most ocr_batch_size units; an empty input
        # still makes one call, for the output schema
        step = self.ocr_batch_size
        return pa.concat_tables([stage(units.slice(lo, step))
                                 for lo in range(0, max(len(units), 1), step)])

    def __call__(self, docs: pa.Table) -> pa.Table:
        return self.ocr(self.fan_out(docs))


def build_extract_pipeline(
    docs_ds,
    *,
    engine_factory=MockOcrEngine,
    settings: PipelineSettings | None = None,
    post: PostProcessSettings | None = None,
    out_dir: str | None = None,
    skip_partitions: set[int] | None = None,
):
    """Compose and launch the extraction run; returns the assembled Dataset.

    The read → fan-out → OCR stages stream lazily into the exchange's
    split side; building therefore RUNS the pipeline up to the assembly
    reduces (launched, not awaited). Consuming the returned Dataset
    (count/take/write) waits for per-partition assembly + commit."""
    settings = settings or PipelineSettings()
    post = post or PostProcessSettings()
    task = ExtractTask(engine_factory=engine_factory, settings=settings,
                       math_style=post.math_delimiter_style, out_dir=out_dir,
                       skip_partitions=skip_partitions)
    # At most ocr_concurrency OCR tasks run at once, each reserving
    # ocr_num_cpus. A GPU deployment reserves num_gpus=1 instead, which
    # makes Ray end the worker after each task (max_calls=1, and
    # map_batches cannot override it): the model then reloads per task.
    # See the DeepSeekOcr2Engine docstring.
    ocr_args = dict(batch_format="pyarrow", concurrency=settings.ocr_concurrency,
                    num_cpus=settings.ocr_num_cpus)

    if settings.balance_blocks:
        # Skew leveling (north_rule): after per-page fan-out every unit has
        # ~equal cost (the reference's own leveling insight,
        # queue_store.py:91-123), so row-balanced blocks are cost-balanced —
        # a 200-page doc spreads across many OCR tasks instead of straggling
        # one. The repartition is an all-to-all barrier between fan-out and
        # OCR, so it is opt-in.
        units = docs_ds.map_batches(
            task.fan_out, batch_format="pyarrow",
            batch_size=settings.fanout_batch_size,
        ).repartition(settings.balance_blocks)
        final = units.map_batches(task.ocr, batch_size=settings.ocr_batch_size,
                                  **ocr_args)
    else:
        # Barrier-free (default): each task fans out, OCRs and finalizes
        # one ~fanout_batch_size-doc bundle in place, so OCR granularity
        # is the fan-out bundle (keep fanout_batch_size small and read
        # blocks smaller than it) and the pipeline streams end-to-end.
        final = docs_ds.map_batches(task, batch_size=settings.fanout_batch_size,
                                    **ocr_args)

    assembler = PartitionAssembler(out_dir=out_dir)

    def assemble_partition(group: pa.Table) -> pa.Table:
        return assembler(group)

    # THE one shuffle, as a raw-Ray hash exchange (pipelines/exchange.py):
    # partition_id is already a dense bucket id in [0, num_partitions), so
    # the sort-based groupby's O(n log n) global sort is pure overhead.
    # The exchange's split side streams with the OCR tasks; per-partition
    # assembly + atomic commit run one reduce task per non-empty partition.
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    return bucket_map_groups(
        final, assemble_partition, bucket_col="partition_id",
        num_buckets=settings.num_partitions, batch_format="pyarrow")


def run_extract_checkpointed(
    docs_ds,
    out_dir: str,
    *,
    engine_factory=MockOcrEngine,
    settings: PipelineSettings | None = None,
    post: PostProcessSettings | None = None,
) -> dict:
    """Resumable run: skip committed partitions, process the rest, commit
    each atomically. Returns a summary dict (partitions done/skipped).

    Assumes immutable input between runs (the reference's assumption too —
    its SQLite queue snapshots enqueue-time state): a committed partition
    is never re-derived, so edits to already-committed docs are invisible
    until that partition is reset (CheckpointStore.reset_partition / CLI
    ``reset``). New DOCUMENTS arriving as new shards belong to the
    incremental path (sources/watch.py), which keys exactly-once on the
    shard, not the hash partition."""
    from ocr_agent_ray.pipelines.exchange import release_finished_waves
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    settings = settings or PipelineSettings()
    post = post or PostProcessSettings()
    run_meta = {
        "num_partitions": settings.num_partitions,
        "engine": getattr(engine_factory, "__name__", str(engine_factory)),
        "math_style": post.math_delimiter_style,
    }
    store = CheckpointStore(out_dir).initialize(run_meta)
    already = store.committed_ids()
    spools_before = store.spool_names()
    pipe = build_extract_pipeline(
        docs_ds,
        engine_factory=engine_factory,
        settings=settings,
        post=post,
        out_dir=out_dir,
        skip_partitions=already,
    )
    # Consume fully but stream — count() only pulls row counts per block.
    n_docs = pipe.count()
    # every reduce has finished: drop the wave's pins now, so the run's
    # assembled output is not held in the object store after we return
    release_finished_waves()
    after = store.committed_ids()
    return {
        "partitions_committed_before": len(already),
        "partitions_committed_total": len(after),
        "partitions_processed": len(after) - len(already),
        "docs_assembled_this_run": n_docs,
        # one spool per (worker process, run) stage, so: the worker
        # processes that built an engine for this run and OCR'd rows with
        # it (compare settings.ocr_concurrency)
        "ocr_processes": len(store.spool_names() - spools_before),
    }

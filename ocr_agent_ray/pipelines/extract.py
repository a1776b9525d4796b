"""Flagship extraction pipeline: interleaved docs → extracted span docs.

Ray-Data-first restatement of the reference's enqueue→run→merge lifecycle
(/root/reference/src/ocr_agent/cli.py:161-256), one path from read to
commit:

    read docs (parquet/Lance, column-pruned)
      → map_batches(ExtractTask)             # ONE task op, N-wide, per read
                                             # bundle: fan-out (enqueue),
                                             # resume filter, OCR (the GPU
                                             # hot loop), post-process +
                                             # drop-empty + headers, per-doc
                                             # ordered assembly
      → PartitionWriter (driver)             # one Parquet file per hash
                                             # partition, fed from the output
                                             # stream; atomic commits at run end

A document is one input row, so all of its units fan out inside one
``ExtractTask`` call, and the task assembles its documents itself: no
shuffle sits between OCR and the store. The task tags each assembled
document with its hash ``partition_id``; the driver's
:class:`~ocr_agent_ray.state.checkpoint.PartitionWriter` appends it to
that partition's temp file and, when the stream ends, commits every
partition (data, then metrics, then the marker). The hash partition
stays the commit, resume and reset unit. Only the opt-in
``balance_blocks`` path, where one document's units span OCR tasks,
assembles through a hash exchange (pipelines/exchange.py) before the
same writer.

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
from ocr_agent_ray.schema import FINALIZED_UNITS_SCHEMA
from ocr_agent_ray.stages.assemble import assemble_group
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine, process_stage


class ExtractTask:
    """Task-based ``map_batches`` callable: fan-out → drop committed →
    OCR → finalize → assemble for one batch of documents, returning
    partition-tagged ``(doc_id, spans)`` rows.

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
        if not len(units):
            # nothing left after the resume filter: build no engine
            return FINALIZED_UNITS_SCHEMA.empty_table()
        stage = process_stage(self.run_id, self.engine_factory,
                              fail_fast=self.fail_fast, metrics_dir=self.out_dir,
                              math_style=self.math_style)
        # engine calls see at most ocr_batch_size units
        step = self.ocr_batch_size
        return pa.concat_tables([stage(units.slice(lo, step))
                                 for lo in range(0, len(units), step)])

    def __call__(self, docs: pa.Table) -> pa.Table:
        # every unit of these docs is in this batch, so they assemble here
        return assemble_group(self.ocr(self.fan_out(docs)), tag_partition=True)


def _assemble_partition(group: pa.Table) -> pa.Table:
    return assemble_group(group, tag_partition=True)


def _bundle_sized_blocks(docs_ds, batch_size: int):
    """Split a materialized input into fan-out-bundle-sized blocks when it
    has fewer blocks than bundles. A map task takes whole blocks, so one
    large block (``rd.from_arrow(table)``) would otherwise be one OCR
    task. Lazy reads are left as they are."""
    import ray
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    if not isinstance(docs_ds, MaterializedDataset):
        return docs_ds
    rows = docs_ds.count()
    if docs_ds.num_blocks() >= -(-rows // batch_size):
        return docs_ds
    table = pa.concat_tables(ray.get(docs_ds.to_arrow_refs()))
    return rd.from_arrow([table.slice(lo, batch_size)
                          for lo in range(0, rows, batch_size)])


def build_extract_pipeline(
    docs_ds,
    *,
    engine_factory=MockOcrEngine,
    settings: PipelineSettings | None = None,
    post: PostProcessSettings | None = None,
    out_dir: str | None = None,
    skip_partitions: set[int] | None = None,
):
    """Compose the extraction run; returns a Dataset of assembled
    ``(doc_id, spans, partition_id)`` rows, one per document with at
    least one span (:data:`~ocr_agent_ray.schema.TAGGED_ASSEMBLED_SCHEMA`).

    ``out_dir`` receives the OCR and finalize metrics spools; the rows
    are committed by :func:`run_extract_checkpointed`, not here. The
    default path is lazy and streams; with ``balance_blocks``, building
    already runs read → fan-out → OCR into the assembly exchange."""
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

    if not settings.balance_blocks:
        # Barrier-free (default): each task fans out, OCRs, finalizes and
        # assembles one ~fanout_batch_size-doc bundle in place, so OCR
        # granularity is the fan-out bundle (keep fanout_batch_size small
        # and read blocks smaller than it) and the pipeline streams
        # end-to-end.
        docs_ds = _bundle_sized_blocks(docs_ds, settings.fanout_batch_size)
        return docs_ds.map_batches(task, batch_size=settings.fanout_batch_size,
                                   **ocr_args)

    # Skew leveling (north_rule): after per-page fan-out every unit has
    # ~equal cost (the reference's own leveling insight,
    # queue_store.py:91-123), so row-balanced blocks are cost-balanced —
    # a 200-page doc spreads across many OCR tasks instead of straggling
    # one. The repartition is an all-to-all barrier between fan-out and
    # OCR, so it is opt-in. A document's units then span OCR tasks, so
    # assembly takes the hash exchange on partition_id (a dense bucket id
    # already, so no sort): one reduce task per non-empty partition.
    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    units = docs_ds.map_batches(
        task.fan_out, batch_format="pyarrow",
        batch_size=settings.fanout_batch_size,
    ).repartition(settings.balance_blocks)
    final = units.map_batches(task.ocr, batch_size=settings.ocr_batch_size,
                              **ocr_args)
    return bucket_map_groups(
        final, _assemble_partition, bucket_col="partition_id",
        num_buckets=settings.num_partitions, batch_format="pyarrow")


def run_extract_checkpointed(
    docs_ds,
    out_dir: str,
    *,
    engine_factory=MockOcrEngine,
    settings: PipelineSettings | None = None,
    post: PostProcessSettings | None = None,
) -> dict:
    """Resumable run: skip committed partitions, process the rest, and
    stream the assembled rows into one file per partition, committing
    each atomically once the stream ends. Returns a summary dict
    (partitions done/skipped). Rows of a failed run are not committed.

    Assumes immutable input between runs (the reference's assumption too —
    its SQLite queue snapshots enqueue-time state): a committed partition
    is never re-derived, so edits to already-committed docs are invisible
    until that partition is reset (CheckpointStore.reset_partition / CLI
    ``reset``). New DOCUMENTS arriving as new shards belong to the
    incremental path (sources/watch.py), which keys exactly-once on the
    shard, not the hash partition."""
    import ray

    from ocr_agent_ray.pipelines.exchange import release_finished_waves
    from ocr_agent_ray.state.checkpoint import CheckpointStore, PartitionWriter

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
    with PartitionWriter(store) as writer:
        # the blocks are fetched on this thread: iter_batches would leave a
        # prefetch thread behind per run
        bundles = pipe.iter_internal_ref_bundles()
        try:
            for bundle in bundles:
                for block in ray.get(bundle.block_refs):
                    writer.write(block)
        finally:
            del bundles  # an unfinished stream's executor shuts down with it
        writer.commit()
    # every exchange reduce has finished (the balance_blocks path's, or an
    # earlier caller's in this process): drop their pins now, so no
    # assembled output is held in the object store after we return
    release_finished_waves()
    after = store.committed_ids()
    return {
        "partitions_committed_before": len(already),
        "partitions_committed_total": len(after),
        "partitions_processed": len(after) - len(already),
        "docs_assembled_this_run": writer.docs,
        # one spool per (worker process, run) stage, so: the worker
        # processes that built an engine for this run and OCR'd rows with
        # it (compare settings.ocr_concurrency)
        "ocr_processes": len(store.spool_names() - spools_before),
    }

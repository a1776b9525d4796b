"""Flagship extraction pipeline: interleaved docs → extracted span docs.

Ray-Data-first restatement of the reference's enqueue→run→merge lifecycle
(/root/reference/src/ocr_agent/cli.py:161-256), one path from read to
commit:

    read docs (parquet/Lance, column-pruned)
      → map_batches(FanOutStage)             # doc → work units (enqueue fan-out)
      → map_batches(OcrFinalizeStage, pool)  # the GPU hot loop, N-wide, with
                                             # post-process + drop-empty +
                                             # headers in the same actor call
      → bucket_map_groups(partition_id, PartitionAssembler)
                                             # THE one shuffle (raw-Ray hash
                                             # exchange); per-doc ordered
                                             # assembly + atomic checkpoint commit

The fan-out map fuses into the OCR actor operator, so each actor task
fans out and OCRs one read bundle in place. Resume filters committed
partitions out right after fan-out with a broadcast set (anti-join,
SURVEY.md §2.4) — no shuffle, no re-OCR of done work.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ocr_agent_ray.config import PipelineSettings, PostProcessSettings
from ocr_agent_ray.stages.assemble import PartitionAssembler
from ocr_agent_ray.stages.fanout import FanOutStage
from ocr_agent_ray.stages.ocr import MockOcrEngine, OcrFinalizeStage


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

    # Barrier-free task granularity (default): the fan-out map carries the
    # pool's default resource spec, so Ray FUSES it into the OCR actor op —
    # each actor task reads a ~fanout_batch_size-doc bundle, fans it out
    # and OCRs it in place. OCR task granularity therefore equals the
    # fan-out bundle (keep fanout_batch_size small and read blocks smaller
    # than it), no repartition needed and the pipeline streams end-to-end.
    # balance_blocks instead inserts an explicit cost-leveling repartition
    # (an all-to-all barrier) between fan-out and OCR — the north-rule
    # lever for pathological per-doc skew, where one multi-thousand-page
    # doc must spread across many OCR tasks.
    units = docs_ds.map_batches(
        FanOutStage(num_partitions=settings.num_partitions),
        batch_format="pyarrow",
        batch_size=settings.fanout_batch_size,
    )

    if skip_partitions:
        done = pa.array(sorted(skip_partitions), pa.int32())

        def _drop_committed(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.invert(pc.is_in(batch["partition_id"], value_set=done))
            )

        units = units.map_batches(_drop_committed, batch_format="pyarrow")

    if settings.balance_blocks:
        # Skew leveling (north_rule): after per-page fan-out every unit has
        # ~equal cost (the reference's own leveling insight,
        # queue_store.py:91-123), so row-balanced blocks are cost-balanced —
        # a 200-page doc spreads across many OCR tasks instead of straggling
        # one. Without this, the actor pool receives a handful of fat,
        # uneven bundles and the slowest bundle sets the wall time.
        units = units.repartition(settings.balance_blocks)

    # autoscaling pool: min must stay below the CPU count or the pool
    # reserves every core and starves the read/shuffle stages; benches pin
    # min == max to skip ramp-up. GPU deployment: num_gpus=1, same callable.
    final = units.map_batches(
        OcrFinalizeStage,
        fn_constructor_kwargs={"engine_factory": engine_factory,
                               "fail_fast": settings.fail_fast,
                               "metrics_dir": out_dir,
                               "math_style": post.math_delimiter_style},
        batch_format="pyarrow",
        batch_size=settings.ocr_batch_size,
        concurrency=(min(settings.ocr_min_actors, settings.ocr_concurrency),
                     settings.ocr_concurrency),
        num_cpus=settings.ocr_num_cpus,
    )

    assembler = PartitionAssembler(out_dir=out_dir)

    def assemble_partition(group: pa.Table) -> pa.Table:
        return assembler(group)

    # THE one shuffle, as a raw-Ray hash exchange (pipelines/exchange.py):
    # partition_id is already a dense bucket id in [0, num_partitions), so
    # the sort-based groupby's O(n log n) global sort is pure overhead.
    # The exchange's split side streams with the OCR pool; per-partition
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
    after = store.committed_ids()
    return {
        "partitions_committed_before": len(already),
        "partitions_committed_total": len(after),
        "partitions_processed": len(after) - len(already),
        "docs_assembled_this_run": n_docs,
    }

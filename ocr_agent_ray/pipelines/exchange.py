"""Raw-Ray hash exchange for bucketed map_groups kernels.

Ray 2.49's groupby lowers to a SORT-based all-to-all: every
``groupby("__b").map_groups(kernel)`` pays an O(n log n) global sort (and,
in local mode, a near-serial merge) even though the bucketed kernels only
need hash partitioning — BASELINE.md measured the sort exchange as ~all
the wall time at the 5M-event window stress, and the HASH_SHUFFLE
DataContext flip is worse here (aggregator-actor spin-up dominates; it
also stalls the flagship's actor pool when set globally). This module
implements the exchange the Dataset API can't express (the documented
drop-to-raw-Ray case):

- one SPLIT task per upstream block partitions its rows by the integer
  bucket column (stable argsort + zero-copy Arrow slices, returned as
  ``num_buckets`` separate object refs, plus a per-bucket row-count
  vector);
- one REDUCE task per NON-EMPTY bucket concatenates its shards and runs
  the whole-bucket pandas kernel (identical kernel signature to the
  ``map_groups`` shape it replaces — the group frame includes the bucket
  column). Empty buckets are skipped via the count vectors, so kernels
  never see frames they wouldn't have seen under groupby, and no
  empty-frame dtype drift can poison the output schema.

Measured on a 2M-event sessionize workload (BASELINE.md, round 2, 32
CPUs, same Ray session): sort-groupby 29.6 s warm, this exchange 8.2 s
warm (3.6×); scoped HASH_SHUFFLE 52.8 s.

All movement stays in the object store (spills under pressure) and works
identically multi-node: split outputs are plain objects that Ray
transfers to wherever the reduce tasks schedule. No DataContext globals
are touched, so concurrently-running pipelines (the flagship) are
unaffected.

Partitioning assumption (same as the groupby shape it replaces): all rows
of one key land in one bucket — guaranteed by ``bucket = f(key)``
upstream (``bucket_map_groups``) or by ``key % num_buckets`` here
(``key_map_groups``). Skewed keys skew buckets; salt the bucket function
for pathological keys.
"""

from __future__ import annotations

import threading

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# Shard-pin registry. Reduce/coalesce tasks are submitted eagerly with many
# tiny shard refs as args; Ray inlines small dependencies on a background
# thread, and if the ONLY python references to those shards die while that
# SUBMISSION-TIME resolution is in flight the driver hits a fatal
# ReferenceCounter 'submitted_task_ref_count > 0' check (observed ~1-in-5
# full 180-query sweeps before round 3). Every wave therefore registers its
# task refs with a holder of its input shard refs, and the holder is
# dropped once ray.wait reports every task of the wave finished: a finished
# task needs its args no more, so Ray, not a timer, ends the pin.
# Finished waves are dropped at the next exchange call (or an explicit
# release_finished_waves() from a caller that consumed its output), on the
# caller's thread while Ray is live — dropping an ObjectRef IS a Ray API
# access (ObjectRef.__del__ calls the core worker's reference counter, a
# fatal 'core worker already shutdown' abort after ray.shutdown(): observed
# when a background reaper dropped pins as the bench shut down). So no
# thread runs here. A wave registered under an earlier Ray session is
# dropped unchecked: its tasks ended with that session, and ray.wait
# rejects refs whose owner is gone. If no further exchange or release runs,
# the last waves stay pinned to interpreter exit — bounded, and refs freed
# during interpreter finalization have never aborted. A pinned wave also
# keeps its task refs, so its outputs stay in the object store until then.
# ---------------------------------------------------------------------------
_WAVES_LOCK = threading.Lock()
_PINNED_WAVES: list[tuple] = []  # (task refs, holder, driver worker id)


def release_finished_waves() -> None:
    """Drop the pins of every wave whose tasks have all finished."""
    import ray

    if not _PINNED_WAVES:
        return
    if not ray.is_initialized():  # dropping refs now could abort
        return
    me = ray.get_runtime_context().get_worker_id()
    with _WAVES_LOCK:
        live = []
        for refs, holder, owner in _PINNED_WAVES:
            if owner != me:
                continue
            _, pending = ray.wait(refs, num_returns=len(refs), timeout=0,
                                  fetch_local=False)
            if pending:
                live.append((refs, holder, owner))
        _PINNED_WAVES[:] = live


def _pin_until_complete(refs, holder) -> None:
    """Pin ``holder`` (the wave's input shard refs) until ray.wait reports
    every task behind ``refs`` finished (checked at later exchange calls)."""
    import ray

    me = ray.get_runtime_context().get_worker_id()
    with _WAVES_LOCK:
        _PINNED_WAVES.append((list(refs), holder, me))


def pinned_waves() -> int:
    """Number of reduce/coalesce waves whose shard pins are still held
    (observability/testing hook)."""
    with _WAVES_LOCK:
        return len(_PINNED_WAVES)


def _split_block(block: pa.Table, bucket_col: str, num_buckets: int,
                 mode: str):
    """Partition one Arrow block into per-bucket sub-tables + counts.

    Stable argsort on the bucket column, one take, then zero-copy slices
    at the bucket boundaries — O(n log n) local work, no per-bucket copies
    beyond the single take. The final return is the per-bucket row-count
    vector (the driver's empty-bucket skip list).

    ``mode``: 'direct' (column already holds bucket ids in
    [0, num_buckets)), 'mod' (unbounded int keys -> key % num_buckets),
    'hash' (any dtype -> deterministic siphash % num_buckets)."""
    if isinstance(block, pd.DataFrame):
        # the dataset-level schema is advisory; a union of an Arrow-block
        # stage with a pandas-block stage can still deliver raw pandas
        # blocks here
        block = pa.Table.from_pandas(block, preserve_index=False)
    if block.num_rows == 0:
        # filter/drop stages emit schemaless empty blocks (zero columns);
        # they carry no rows for any bucket
        return (block.slice(0, 0),) * num_buckets + (
            np.zeros(num_buckets, dtype=np.int64),)
    col = block[bucket_col].to_numpy(zero_copy_only=False)
    if mode == "mod":  # unbounded int partition keys -> hash buckets
        col = col % num_buckets
    elif mode == "hash":  # string/any keys -> deterministic hash buckets
        col = (pd.util.hash_array(col) % np.uint64(num_buckets)
               ).astype(np.int64)
    order = np.argsort(col, kind="stable")
    taken = block.take(order)
    bounds = np.searchsorted(col[order], np.arange(num_buckets + 1))
    counts = np.diff(bounds).astype(np.int64)
    return tuple(
        taken.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        for i in range(num_buckets)
    ) + (counts,)


def _reduce_bucket(kernel, group_col, arrow_kernel, *shards: pa.Table) -> pa.Table:
    """Concatenate one bucket's shards and run the whole-bucket kernel.

    ``group_col=None`` runs the kernel once on the whole bucket (the
    bucket IS the group). Otherwise the kernel runs once per distinct
    ``group_col`` value (ascending), matching groupby(group_col)
    granularity for keys that were hashed into this bucket.
    ``arrow_kernel`` skips the pandas round-trip: the kernel receives the
    concatenated pa.Table directly (batch_format="pyarrow" parity)."""
    live = [s for s in shards if s.num_rows]
    table = (pa.concat_tables(live, promote_options="default")
             if live else shards[0])
    if arrow_kernel:
        if group_col is not None:
            raise ValueError("arrow kernels support bucket granularity only")
        try:
            out = kernel(table)
        except Exception:
            if table.num_rows == 0:  # schema probe on all-empty input
                return pa.table({})
            raise
        if isinstance(out, pa.Table):
            return out
        return pa.Table.from_pandas(out, preserve_index=False)
    df = table.to_pandas()
    if df.empty:
        # only reachable on an entirely-empty input (the schema probe):
        # mimic groupby, which emits nothing, but keep the kernel's
        # typed empty output when it can produce one
        try:
            out = kernel(df)
        except Exception:
            return pa.table({})
    elif group_col is None:
        out = kernel(df)
    else:
        out = pd.concat(
            [kernel(sub) for _, sub in df.groupby(group_col, sort=True)],
            ignore_index=True)
    if isinstance(out, pa.Table):
        return out
    return pa.Table.from_pandas(out, preserve_index=False)


class ExchangedShards:
    """The SPLIT side of an exchange, held as object refs for REUSE.

    Multi-pass algorithms (the ranked/scan family: a stats pass computing
    cross-range offsets, then a rank pass over the same rows) previously
    paid either a ``materialize()`` of the input plus one full exchange
    per pass, or re-ran the upstream per pass. Splitting ONCE and running
    several reduce waves over the same shards makes every pass after the
    first a bucket-local scan: no re-shuffle, no input re-execution, and
    the shards live in the object store (spill under pressure) exactly
    like materialized blocks — but already hash-partitioned."""

    def __init__(self, shard_refs, counts: np.ndarray):
        self.shard_refs = shard_refs
        self.counts = counts

    def reduce(self, kernel, *, group_col=None, arrow_kernel: bool = False):
        """One reduce wave: the kernel runs per non-empty bucket (or per
        distinct ``group_col`` value within it) — same semantics as the
        one-shot exchange's reduce."""
        import ray
        import ray.data as rd

        release_finished_waves()
        reduce_ = ray.remote(_reduce_bucket)
        # pickle the kernel once per wave; Ray hands each task the value
        kernel_ref = ray.put(kernel)
        out_refs = [
            reduce_.remote(kernel_ref, group_col, arrow_kernel,
                           *(shards[b] for shards in self.shard_refs))
            for b in np.flatnonzero(self.counts)
        ]
        if not out_refs:  # empty input: schema probe (see _reduce_bucket)
            out_refs = [reduce_.remote(kernel_ref, group_col, arrow_kernel,
                                       self.shard_refs[0][0])]
        ds = rd.from_arrow_refs(out_refs)
        # PIN the shard refs until every reduce task has finished (see the
        # registry note at the top of this module). Two guards: the Dataset
        # carries a strong ref for its own lifetime, and the registry holds
        # one (with the kernel's ref) until ray.wait reports all reduces
        # complete, covering derived datasets that drop this object early.
        ds._ocr_agent_ray_pinned_shards = self
        _pin_until_complete(out_refs, (self, kernel_ref))
        return ds

    def release(self) -> None:
        """Drop this handle's shard refs (the multi-pass working set).

        Safe at any time: waves already submitted stay pinned by the
        registry until they complete; this only ends the REUSE
        lifetime, letting the object store free the shards once no wave
        needs them."""
        self.shard_refs = []
        self.counts = np.zeros_like(self.counts)


def _coalesce_shards(*shards: pa.Table) -> pa.Table:
    """Concatenate same-bucket shards from a chunk of split outputs."""
    live = [s for s in shards if s.num_rows]
    if not live:
        return shards[0]
    return pa.concat_tables(live, promote_options="default")


def exchange_shards(ds, *, bucket_col: str, num_buckets: int,
                    mode: str = "mod",
                    max_shard_sets: int = 2048) -> ExchangedShards:
    """Run only the split side of the exchange and keep the per-bucket
    shards as object refs. ``mode`` as in ``_split_block``.

    Driver ref-count bound: the driver holds one ref per (block, bucket)
    after the split — O(blocks × num_buckets). When the upstream has more
    than ``max_shard_sets`` blocks (a 100k-block input meeting a 128-way
    exchange would otherwise park ~13M refs on the driver), same-bucket
    shards are coalesced in chunks down to ≤ ``max_shard_sets`` rows, so
    the retained set is ≤ max_shard_sets × num_buckets refs and each
    reduce task's arg list shrinks by the same factor."""
    import ray

    release_finished_waves()
    split = ray.remote(num_returns=num_buckets + 1)(_split_block)

    # launch one split per upstream block AS IT IS PRODUCED — the
    # iterator streams the upstream execution, so the exchange's map side
    # overlaps it (the same overlap the sort shuffle's map phase gets);
    # split handles pandas blocks itself, so no conversion pass is needed
    shard_refs = [
        split.remote(block_ref, bucket_col, num_buckets, mode)
        for bundle in ds.iter_internal_ref_bundles()
        for block_ref in bundle.block_refs
    ]
    if not shard_refs:
        # empty upstream: one reduce over a typed empty block so the
        # kernel still determines the output schema
        schema = ds.schema()
        empty = pa.Table.from_arrays(
            [pa.array([], type=f.type) for f in schema.base_schema],
            schema=schema.base_schema)
        shard_refs = [split.remote(ray.put(empty), bucket_col,
                                   num_buckets, mode)]
    # per-bucket totals: a num_buckets-int vector per block — the only
    # driver state. Reduces can't start before every split finishes
    # anyway (each needs all blocks' shards), so this sync adds no wall
    # time; it lets us skip empty buckets entirely.
    counts = np.sum(ray.get([s[num_buckets] for s in shard_refs]), axis=0)

    if len(shard_refs) > max_shard_sets:
        # coalesce same-bucket shards in chunks: bounded driver refs and
        # bounded reduce-task arg lists. The original split refs must
        # outlive the coalesce tasks' dependency resolution — pin them on
        # the wave like any reduce (registry note at the top of module).
        coalesce = ray.remote(_coalesce_shards)
        chunk = -(-len(shard_refs) // max_shard_sets)  # ceil
        merged = []
        for lo in range(0, len(shard_refs), chunk):
            rows = shard_refs[lo:lo + chunk]
            merged.append(tuple(
                coalesce.remote(*(r[b] for r in rows))
                for b in range(num_buckets)))
        _pin_until_complete([ref for row in merged for ref in row],
                            shard_refs)
        shard_refs = merged

    return ExchangedShards(shard_refs, counts)


def _exchange(ds, kernel, bucket_col: str, num_buckets: int, mode: str,
              group_col, arrow_kernel: bool = False):
    shards = exchange_shards(ds, bucket_col=bucket_col,
                             num_buckets=num_buckets, mode=mode)
    return shards.reduce(kernel, group_col=group_col,
                         arrow_kernel=arrow_kernel)


def bucket_map_groups(ds, kernel, *, bucket_col: str = "__b",
                      num_buckets: int = 64,
                      batch_format: str = "pandas"):
    """Drop-in replacement for
    ``ds.groupby(bucket_col).map_groups(kernel, batch_format=...)``
    over a Dataset that already carries an integer bucket column in
    ``[0, num_buckets)``. Returns a Dataset of the kernel outputs.

    The upstream executes once and its blocks stay in the object store as
    the exchange's map side; the result is a bounded set of reduce outputs
    (≤ ``num_buckets`` blocks), so downstream consumers see a normal
    Dataset. ``batch_format="pyarrow"`` hands the kernel the concatenated
    Arrow table with no pandas round-trip."""
    return _exchange(ds, kernel, bucket_col, num_buckets, mode="direct",
                     group_col=None,
                     arrow_kernel=(batch_format == "pyarrow"))


def key_map_groups(ds, kernel, *, key_col: str, num_buckets: int = 64):
    """Drop-in replacement for
    ``ds.groupby(key_col).map_groups(kernel, batch_format="pandas")``
    where ``key_col`` is an UNBOUNDED integer partition key (e.g. the
    ``__rb`` range ids of the ranked/scan family). Rows land in
    ``key % num_buckets`` hash buckets; the kernel runs once per distinct
    key within each bucket (ascending), preserving groupby granularity."""
    return _exchange(ds, kernel, key_col, num_buckets, mode="mod",
                     group_col=key_col)


def grouped_map_groups(ds, kernel, *, key_col: str, num_buckets: int = 16):
    """Drop-in replacement for
    ``ds.groupby(key_col).map_groups(kernel, batch_format="pandas")``
    for a partition key of ANY dtype (strings included). Rows land in
    ``siphash(key) % num_buckets`` buckets; the reduce regroups by the
    TRUE column value (hash collisions are therefore harmless) and runs
    the kernel once per distinct key, preserving groupby granularity."""
    return _exchange(ds, kernel, key_col, num_buckets, mode="hash",
                     group_col=key_col)

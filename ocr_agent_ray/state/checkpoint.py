"""Partitioned checkpoint store: atomic commits, lineage, exact resume.

The reference's checkpoint is its SQLite task table — statuses survive a
restart and completed work is skipped (/root/reference/src/ocr_agent/
queue_store.py:50-62, 125-138) — but a crash mid-task strands rows in
'running' forever (pop selects only 'pending'). This store fixes that with
write-then-commit per partition:

    out_dir/
      data/part-{pid}.parquet        # written under a per-writer temp
                                     # name, then os.replace
      manifest/part-{pid}.json       # existence == committed (atomic rename)
      metrics/part-{pid}.json        # per-stage lineage + metrics rows
      metrics/spool-{uid}.jsonl      # stage metrics appended by map stages

A partition either has a committed manifest entry (data file is complete)
or it doesn't (any partial tmp data is ignored and rewritten). Resume =
anti-join of work against ``committed_ids()`` — broadcast as a small set
into a ``map_batches`` filter, never a shuffle (SURVEY.md §2.4).

The flagship fills a partition's data file through :class:`PartitionWriter`
in the order its rows arrive from the OCR tasks, not in ``doc_id`` order;
``cli merge`` sorts by ``doc_id`` when it renders the output.

Concurrent-writer safety: every temp file (data, metrics, marker) has a
name no other writer uses (:func:`temp_path`), so racing runs never write
into or rename each other's files. Each rename publishes one writer's
complete file; partition contents are a pure function of the input, so
racing runs commit the same rows (perhaps in a different order) and the
last rename wins — no distributed lock needed, matching the reference's
exactly-once-by-marker design rather than its O_EXCL claim lock.

Commit markers are one file per partition, so concurrent writers never
contend on a shared manifest file; the committed set is the directory
listing. Metrics follow FIXTURES.md F3; ``groupby('status').count()`` over
them reproduces the reference's status-count query (queue_store.py:191-196).
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_agent_ray.schema import (
    ASSEMBLED_SCHEMA,
    PARTITION_MANIFEST_SCHEMA,
    STAGE_METRICS_SCHEMA,
    TAGGED_ASSEMBLED_SCHEMA,
    validate_schema,
)


class CheckpointStore:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.data_dir = os.path.join(out_dir, "data")
        self.manifest_dir = os.path.join(out_dir, "manifest")
        self.metrics_dir = os.path.join(out_dir, "metrics")

    def initialize(self, run_meta: dict | None = None) -> "CheckpointStore":
        """Create the store layout; optionally pin the run configuration.

        ``run_meta`` (num_partitions, engine id, math style, ...) is
        persisted to meta.json on first initialize. A later initialize
        with a DIFFERENT run_meta refuses to resume: committed_ids()
        reflects the old partitioning scheme, so resuming with e.g. a
        different --num-partitions would skip wrong partitions and
        silently drop documents.
        """
        for d in (self.data_dir, self.manifest_dir, self.metrics_dir):
            os.makedirs(d, exist_ok=True)
        if run_meta is not None:
            existing = self.load_meta()
            if existing:
                if existing != run_meta:
                    diff = {
                        k: {"checkpoint": existing.get(k), "run": run_meta.get(k)}
                        for k in sorted(set(existing) | set(run_meta))
                        if existing.get(k) != run_meta.get(k)
                    }
                    raise ValueError(
                        f"checkpoint at {self.out_dir} was created with a "
                        f"different run configuration ({diff}); resume with "
                        "the original settings, reset the partitions, or use "
                        "a fresh out_dir"
                    )
            else:
                _atomic_write_json(os.path.join(self.out_dir, "meta.json"), run_meta)
        return self

    def load_meta(self) -> dict:
        """The run configuration pinned by ``initialize`` ({} if none)."""
        try:
            with open(os.path.join(self.out_dir, "meta.json")) as f:
                return json.load(f)
        except FileNotFoundError:
            return {}

    # --- commit path -----------------------------------------------------

    def data_path(self, partition_id: int) -> str:
        return os.path.join(self.data_dir, f"part-{partition_id:05d}.parquet")

    def write_partition(
        self,
        partition_id: int,
        table: pa.Table,
        metrics_rows: list[dict],
        num_spans: int | None = None,
    ) -> str:
        """Atomically write one partition's output and commit it
        (:meth:`commit_partition`). ``num_spans`` is the caller's
        ``count_spans(table)`` when it already has one; otherwise it is
        counted here."""
        import pyarrow.parquet as pq

        tmp = temp_path(self.data_path(partition_id))
        try:
            pq.write_table(table, tmp)
            return self.commit_partition(
                partition_id, tmp, metrics_rows, num_docs=len(table),
                num_spans=count_spans(table) if num_spans is None else num_spans)
        finally:
            _remove_quietly(tmp)

    def commit_partition(self, partition_id: int, data_tmp: str,
                         metrics_rows: list[dict], *, num_docs: int,
                         num_spans: int) -> str:
        """Commit a partition whose complete data file is at ``data_tmp``.

        Order matters: data first (rename), then metrics, then the
        manifest marker LAST — a marker implies everything else is durable."""
        final = self.data_path(partition_id)
        os.replace(data_tmp, final)

        mpath = os.path.join(self.metrics_dir, f"part-{partition_id:05d}.json")
        _atomic_write_json(mpath, metrics_rows)

        entry = {
            "partition_id": partition_id,
            "committed_at_unix_ms": int(time.time() * 1000),
            "num_docs": num_docs,
            "num_spans": num_spans,
            "output_fragment": final,
        }
        _atomic_write_json(
            os.path.join(self.manifest_dir, f"part-{partition_id:05d}.json"), entry
        )
        return final

    def reset_partition(self, partition_id: int) -> bool:
        """:meth:`reset_partitions` for one partition; returns whether it
        had been committed."""
        return bool(self.reset_partitions([partition_id]))

    def reset_partitions(self, partition_ids) -> list[int]:
        """Un-commit partitions so the next run reprocesses them — the
        analog of the reference's queue `reset` for stale failed rows
        (README.md:75-79). Per partition, removes the manifest marker
        FIRST (the commit point), then best-effort cleans data/metrics;
        then one pass over the metrics spools drops every reset
        partition's rows, so the rerun's rows are not counted twice.
        Returns the ids that had been committed, in the order given.

        Must not overlap a running job: a spool rewrite would drop rows
        that a worker appends to it meanwhile."""
        pids = list(partition_ids)
        existed = []
        for pid in pids:
            marker = os.path.join(self.manifest_dir, f"part-{pid:05d}.json")
            if os.path.exists(marker):
                os.remove(marker)
                existed.append(pid)
            for p in (
                self.data_path(pid),
                os.path.join(self.metrics_dir, f"part-{pid:05d}.json"),
            ):
                try:
                    os.remove(p)
                except OSError:
                    pass
        self._drop_spool_rows(set(pids))
        return existed

    def spool_names(self) -> set[str]:
        """File names of the metrics spools (``spool-*.jsonl``)."""
        if not os.path.isdir(self.metrics_dir):
            return set()
        return {name for name in os.listdir(self.metrics_dir)
                if name.startswith("spool-") and name.endswith(".jsonl")}

    def _drop_spool_rows(self, partition_ids: set[int]) -> None:
        """Rewrite (tmp + rename) every spool holding rows of the partitions."""
        for name in self.spool_names():
            path = os.path.join(self.metrics_dir, name)
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")[:-1]  # a torn tail is dropped
            kept = [line for line in lines
                    if json.loads(line)["partition_id"] not in partition_ids]
            if len(kept) == len(lines):
                continue
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in kept))
            os.replace(tmp, path)

    # --- read / resume path ----------------------------------------------

    def committed_ids(self) -> set[int]:
        if not os.path.isdir(self.manifest_dir):
            return set()
        out = set()
        for name in os.listdir(self.manifest_dir):
            if name.startswith("part-") and name.endswith(".json"):
                out.add(int(name[5:-5]))
        return out

    def load_manifest(self) -> pa.Table:
        rows = []
        if os.path.isdir(self.manifest_dir):
            for name in sorted(os.listdir(self.manifest_dir)):
                if name.endswith(".json"):
                    with open(os.path.join(self.manifest_dir, name)) as f:
                        rows.append(json.load(f))
        return pa.Table.from_pylist(rows, schema=PARTITION_MANIFEST_SCHEMA)

    def load_metrics(self) -> pa.Table:
        """Commit metrics (``part-*.json``) plus every spool's JSON lines.

        A spool's last line is complete only if the file ends in a newline;
        otherwise its writer died mid-append and that torn tail is skipped."""
        rows: list[dict] = []
        if os.path.isdir(self.metrics_dir):
            for name in sorted(os.listdir(self.metrics_dir)):
                path = os.path.join(self.metrics_dir, name)
                if name.endswith(".json"):
                    with open(path) as f:
                        rows.extend(json.load(f))
                elif name.endswith(".jsonl"):
                    with open(path, encoding="utf-8") as f:
                        lines = f.read().split("\n")
                    rows.extend(json.loads(line) for line in lines[:-1])
        return pa.Table.from_pylist(rows, schema=STAGE_METRICS_SCHEMA)

    def read_output(self):
        """Committed output as a Ray Dataset (only committed fragments)."""
        import ray.data as rd

        files = [self.data_path(pid) for pid in sorted(self.committed_ids())]
        if not files:
            raise FileNotFoundError(f"no committed partitions under {self.out_dir}")
        return rd.read_parquet(files)


# Bytes of assembled rows one partition holds in memory before they go to
# its file as one row group.
WRITE_BUFFER_BYTES = 8 << 20


class _PartitionFile:
    """One partition's temp file, pending rows and counts."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.writer = None       # pq.ParquetWriter, opened on first flush
        self.pending: list[pa.Table] = []
        self.pending_bytes = 0
        self.docs = 0
        self.spans = 0
        self.seconds = 0.0       # spent writing and closing the file

    def flush(self) -> None:
        import pyarrow.parquet as pq

        t0 = time.perf_counter()
        if self.writer is None:
            self.writer = pq.ParquetWriter(self.tmp, ASSEMBLED_SCHEMA)
        self.writer.write_table(pa.concat_tables(self.pending))
        self.pending, self.pending_bytes = [], 0
        self.seconds += time.perf_counter() - t0

    def finish(self) -> None:
        """Write what is pending and close the file."""
        if self.pending:
            self.flush()
        t0 = time.perf_counter()
        self.close()
        self.seconds += time.perf_counter() - t0

    def close(self) -> None:
        writer, self.writer = self.writer, None
        if writer is not None:
            writer.close()


class PartitionWriter:
    """Streams assembled rows into one Parquet file per hash partition,
    then commits every partition it wrote.

    ``write`` takes batches of :data:`TAGGED_ASSEMBLED_SCHEMA` rows on the
    calling thread (it starts no thread or process) and routes each row to
    its ``partition_id``'s file, untagged. A partition's rows are held
    until they reach WRITE_BUFFER_BYTES and then appended as one row group
    to its temp file (:func:`temp_path`, so racing runs never share one),
    so a file holds its rows in arrival order. ``commit`` finishes every
    file, then commits each partition through
    :meth:`CheckpointStore.commit_partition`, in partition order. Used as
    a context manager, leaving the block closes every open file and
    removes this writer's uncommitted temp files, however it is left.

    A partition's ``assemble`` metrics row counts the finalized units
    (``rows_in``: assembly emits one header and one body span per unit)
    and the spans (``rows_out``); its ``wall_ms`` is the time spent
    writing and closing that partition's file."""

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store
        self.parts: dict[int, _PartitionFile] = {}
        self.docs = 0

    def __enter__(self) -> "PartitionWriter":
        return self

    def __exit__(self, *exc) -> None:
        for part in self.parts.values():
            try:
                part.close()
            except OSError:
                pass  # an uncommitted file is removed either way
            _remove_quietly(part.tmp)

    def write(self, batch: pa.Table) -> None:
        validate_schema(batch, TAGGED_ASSEMBLED_SCHEMA, "PartitionWriter")
        if not len(batch):
            return
        pids = batch["partition_id"].to_numpy()
        order = np.argsort(pids, kind="stable")
        pids = pids[order]
        rows = batch.drop_columns(["partition_id"]).take(order)
        bounds = np.flatnonzero(np.diff(pids)) + 1
        for lo, hi in zip(np.append(0, bounds), np.append(bounds, len(pids))):
            pid = int(pids[lo])
            part = self.parts.get(pid)
            if part is None:
                part = self.parts[pid] = _PartitionFile(
                    temp_path(self.store.data_path(pid)))
            chunk = rows.slice(lo, hi - lo)
            part.pending.append(chunk)
            part.pending_bytes += chunk.nbytes
            part.docs += len(chunk)
            part.spans += count_spans(chunk)
            if part.pending_bytes >= WRITE_BUFFER_BYTES:
                part.flush()
        self.docs += len(batch)

    def commit(self) -> list[int]:
        """Finish every partition's file, then commit the partitions in id
        order; returns their ids."""
        for part in self.parts.values():
            part.finish()
        for pid in sorted(self.parts):
            part = self.parts[pid]
            self.store.commit_partition(pid, part.tmp, [{
                "partition_id": pid,
                "stage": "assemble",
                "status": "completed",
                "rows_in": part.spans // 2,
                "rows_out": part.spans,
                "wall_ms": int(part.seconds * 1000),
                "error_message": None,
            }], num_docs=part.docs, num_spans=part.spans)
        return sorted(self.parts)


def count_spans(table: pa.Table) -> int:
    """Total spans over an assembled table's ``spans`` lists (one row per
    doc when there is no ``spans`` column), counted in Arrow."""
    if "spans" not in table.column_names:
        return len(table)
    return int(pc.sum(pc.list_value_length(table["spans"])).as_py() or 0)


def temp_path(final: str) -> str:
    """A temp name next to ``final`` that no other writer uses, so racing
    writers never write into, or rename, each other's file."""
    return f"{final}.{os.getpid()}-{uuid.uuid4().hex[:12]}.tmp"


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _atomic_write_json(path: str, obj) -> None:
    tmp = temp_path(path)
    try:
        with open(tmp, "w") as f:
            json.dump(obj, f)
        os.replace(tmp, path)
    finally:
        _remove_quietly(tmp)


class MetricsSpool:
    """Per-stage lineage/metrics writer usable from inside map stages.

    Append-only: each spool instance owns one ``spool-{uid}.jsonl`` under
    ``<out_dir>/metrics`` and writes each ``append`` call's rows to it as
    JSON lines, one write per call, flushed when the file closes. So:

    - totals are exact after every batch (nothing is held back waiting
      for a flush — worker teardown runs no finalizer in Ray, measured),
    - an append costs O(rows appended), and one run keeps one file per
      worker process that ran its OCR tasks,
    - a crash can tear only the final line, which ``load_metrics`` skips.

    The file name is drawn lazily in the worker (task-pool stages
    deserialize the UDF per task; a driver-assigned id would collide).
    ``CheckpointStore.load_metrics`` merges spool files with the
    per-partition commit metrics.
    """

    def __init__(self, out_dir: str) -> None:
        self.dir = os.path.join(out_dir, "metrics")
        self._path: str | None = None

    def append(self, stage: str, rows: list[dict]) -> None:
        if not rows:
            return
        if self._path is None:
            os.makedirs(self.dir, exist_ok=True)
            name = f"spool-{os.getpid()}-{uuid.uuid4().hex[:12]}.jsonl"
            self._path = os.path.join(self.dir, name)
        with open(self._path, "a", encoding="utf-8") as f:
            f.write("".join(json.dumps(r) + "\n" for r in rows))

    def rows_for(self, stage: str, batch_partition_ids, wall_ms: int,
                 rows_out: int | None = None,
                 error_message: str | None = None) -> list[dict]:
        """Build one metrics row per partition present in a batch."""
        import collections

        counts = collections.Counter(int(p) for p in batch_partition_ids)
        n = sum(counts.values()) or 1
        return [
            {
                "partition_id": pid,
                "stage": stage,
                "status": "failed" if error_message else "completed",
                "rows_in": c,
                "rows_out": c if rows_out is None else int(rows_out * c / n),
                "wall_ms": int(wall_ms * c / n),
                "error_message": error_message,
            }
            for pid, c in sorted(counts.items())
        ]


def compute_eta_seconds(metrics: pa.Table, total_partitions: int) -> float | None:
    """ETA: mean committed-partition wall time × remaining partitions.

    Parity with the reference's estimator `elapsed/completed × remaining`
    (/root/reference/gui/src-tauri/src/main.rs:800-828), with its 0-guards.
    """
    if total_partitions <= 0 or metrics.num_rows == 0:
        return None
    rows = [
        r for r in metrics.to_pylist()
        if r["stage"] == "assemble" and r["status"] == "completed"
    ]
    if not rows:
        return None
    done = len({r["partition_id"] for r in rows})
    remaining = total_partitions - done
    if remaining <= 0:
        return 0.0
    mean_ms = sum(r["wall_ms"] for r in rows) / len(rows)
    return mean_ms * remaining / 1000.0

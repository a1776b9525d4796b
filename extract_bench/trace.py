"""Spans around calls into each layer, recorded from the benchmark's side.

Two traced passes per workload:

- the Ray run: the driver-side calls that make up ``run_extract_checkpointed``
  (pipeline build; the exchange's split side, which returns once every
  upstream block is read, fanned out and OCRed; the reduce wave, which
  returns once every partition is assembled and committed) are wrapped for
  the duration of one run;
- an in-process replay of the same inputs through the public layer calls,
  batch by batch with the pipeline's batch sizes, so each layer's own time
  is measured without Ray's scheduling around it.

Spans are kept in memory and written as JSON once the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

import ocr_agent_ray.pipelines.exchange as exchange_mod
import ocr_agent_ray.pipelines.extract as extract_mod
import ocr_agent_ray.stages.postprocess as postprocess_mod
from ocr_agent_ray.schema import MEDIA_KINDS
from ocr_agent_ray.stages.assemble import assemble_group
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.stages.ocr import OcrStage
from ocr_agent_ray.stages.postprocess import FinalizeStage
from ocr_agent_ray.state.checkpoint import CheckpointStore, compute_eta_seconds


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": idx, "name": name, "parent": parent,
                           "run_id": self.run_id,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def total(self, name: str, minus: frozenset | set = frozenset()) -> float:
        """Summed duration of spans called ``name``, less their direct
        children whose names are in ``minus``."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        own = sum(s["end"] - s["start"] for s in self.spans if s["id"] in ids)
        return own - sum(s["end"] - s["start"] for s in self.spans
                         if s["parent"] in ids and s["name"] in minus)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part children cover.

        Children of one caller run one after another, so their covered
        part is the sum of their durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f)


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace ``(owner, attribute, replacement)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def traced_ray_run(tracer: Tracer, run):
    """Call ``run()`` with spans around the driver-side layer calls.

    Only objects that stay on the driver are wrapped: the stage classes
    are shipped to Ray workers by value and must not carry the tracer."""
    targets = [
        (extract_mod, "build_extract_pipeline", "ray.extract.build_extract_pipeline"),
        (exchange_mod, "bucket_map_groups", "ray.exchange.bucket_map_groups"),
        (exchange_mod, "exchange_shards", "ray.exchange.split_and_count"),
        (exchange_mod.ExchangedShards, "reduce", "ray.exchange.reduce_and_commit"),
    ]
    with patched([(o, a, tracer.wrap(getattr(o, a), n)) for o, a, n in targets]):
        with tracer.span("ray.extract.run_extract_checkpointed"):
            return run()


class _TracedEngine:
    def __init__(self, engine, tracer: Tracer) -> None:
        self.infer_batch = tracer.wrap(engine.infer_batch, "ocr.infer_batch")


def _bucket_rows(table: pa.Table) -> pa.Table:
    return pa.table({"rows": [table.num_rows]})


def replay_layers(tracer: Tracer, *, docs_ds, settings, engine_factory,
                  math_style: str, out_dir: str, ray_out_dir: str) -> dict:
    """Run the inputs through each layer's public call in this process.

    Partitions already committed in ``out_dir`` are dropped after fan-out,
    as ``build_extract_pipeline`` does on resume. Returns the per-layer
    counts and sizes; times are read from the tracer's spans afterwards."""
    store = CheckpointStore(out_dir).initialize()
    done = pa.array(sorted(store.committed_ids()), pa.int32())
    ocr = OcrStage(engine_factory=lambda: _TracedEngine(engine_factory(), tracer),
                   metrics_dir=out_dir)
    finalize = FinalizeStage(math_style=math_style, metrics_dir=out_dir)
    for spool in (ocr.spool, finalize.spool):
        spool.append = tracer.wrap(spool.append, "checkpoint.spool_append")

    counts = {"units_out": 0, "media_rows": 0, "failed_rows": 0,
              "finalize_in": 0, "finalize_out": 0}
    finalized: list[pa.Table] = []
    batches = iter(docs_ds.iter_batches(batch_format="pyarrow",
                                        batch_size=settings.fanout_batch_size))
    with patched([(postprocess_mod, "extract_main_text",
                   tracer.wrap(postprocess_mod.extract_main_text,
                               "boilerplate.extract_main_text"))]):
        while True:
            with tracer.span("corpus.read_batch"):
                docs = next(batches, None)
            if docs is None:
                break
            with tracer.span("fanout.fan_out_documents"):
                units = fan_out_documents(docs, num_partitions=settings.num_partitions)
            counts["units_out"] += len(units)
            if len(done):
                with tracer.span("extract.drop_committed"):
                    units = units.filter(pc.invert(pc.is_in(units["partition_id"],
                                                            value_set=done)))
            step = settings.ocr_batch_size
            for lo in range(0, len(units), step):
                part = units.slice(lo, step)
                counts["media_rows"] += int(pc.sum(pc.is_in(
                    part["kind"], value_set=pa.array(MEDIA_KINDS))).as_py() or 0)
                with tracer.span("ocr.OcrStage"):
                    ocred = ocr(part)
                counts["failed_rows"] += int(pc.sum(pc.is_valid(ocred["error_message"])).as_py() or 0)
                with tracer.span("finalize.FinalizeStage"):
                    final = finalize(ocred)
                counts["finalize_in"] += len(ocred)
                counts["finalize_out"] += len(final)
                finalized.append(final)

    held = pa.concat_tables(finalized)
    rows_per_bucket = [r["counts"] for r in pc.value_counts(held["partition_id"]).to_pylist()]
    counts["held_bytes"] = held.nbytes
    counts["bucket_skew"] = max(rows_per_bucket) / (sum(rows_per_bucket) / len(rows_per_bucket))

    with tracer.span("exchange.bucket_map_groups"):
        exchange_mod.bucket_map_groups(
            ray.data.from_arrow(finalized), _bucket_rows, bucket_col="partition_id",
            num_buckets=settings.num_partitions, batch_format="pyarrow").count()

    docs_out = spans_out = 0
    written = []
    for pid in sorted(int(p) for p in pc.unique(held["partition_id"]).to_pylist()):
        group = held.filter(pc.equal(held["partition_id"], pid))
        with tracer.span("assemble.assemble_group"):
            assembled = assemble_group(group)
        docs_out += len(assembled)
        spans_out += int(pc.sum(pc.list_value_length(assembled["spans"])).as_py() or 0)
        metrics = [{"partition_id": pid, "stage": "assemble", "status": "completed",
                    "rows_in": len(group), "rows_out": 0, "wall_ms": 0,
                    "error_message": None}]
        with tracer.span("checkpoint.write_partition"):
            store.write_partition(pid, assembled, metrics)
        written.append(pid)
    committed = [os.path.join(d, f"part-{pid:05d}.json") for pid in written
                 for d in (store.metrics_dir, store.manifest_dir)]
    counts.update(docs_out=docs_out, spans_out=spans_out, partitions=len(written),
                  bytes_written=sum(os.path.getsize(f) for f in committed)
                  + sum(os.path.getsize(store.data_path(pid)) for pid in written))

    ray_store = CheckpointStore(ray_out_dir)
    with tracer.span("checkpoint.status"):
        compute_eta_seconds(ray_store.load_metrics(), settings.num_partitions)
    counts["spool_files"] = sum(
        1 for n in os.listdir(ray_store.metrics_dir) if n.startswith("spool-"))
    return counts

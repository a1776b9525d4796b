"""Extraction benchmark: the checkpointed flagship, gated by the oracle.

Run from the repository root:

    python3 extract_bench/run.py --workload ocr_bound --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py): ``ocr_bound``, ``text_heavy``, ``resume_half``.

One driver process owns the Ray session and makes all the load; Ray's
workers are the system under test. The process

1. sets up once (``ray.init``, input generation, the oracle's golden
   digest, WARMUP_RUNS warm-up runs) and reports that as ``setup_s``;
2. repeats ``run_extract_checkpointed`` into a fresh ``out_dir`` until
   ``--seconds`` have passed, checking every run's committed output
   against the golden digest;
3. with ``--trace 1``, after the untraced runs, makes one traced Ray run
   and an in-process replay of the same inputs through each layer
   (trace.py), and reports per-layer metrics.

Stdout: one report line (every metric with its sample count, the box and
the configuration), then as the last line
``{"correct", "attempted", "failed", "metrics"}``. ``correct`` is false
and the exit code 1 when any run failed: it raised, stalled, committed
output that differs from the oracle or cannot be read, or recorded a
failed unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import faulthandler
import functools
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import ray  # noqa: E402

from ocr_agent_ray.config import PipelineSettings, PostProcessSettings  # noqa: E402
from ocr_agent_ray.oracle import oracle_extract  # noqa: E402
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed  # noqa: E402
from ocr_agent_ray.serialization import register_for_ray_workers  # noqa: E402
from ocr_agent_ray.sources.corpus import read_documents  # noqa: E402
from ocr_agent_ray.state.checkpoint import CheckpointStore  # noqa: E402

import extract_bench  # noqa: E402
from extract_bench import gate, workloads  # noqa: E402
from extract_bench.engine import StandInOcrEngine  # noqa: E402
from extract_bench.trace import Tracer, replay_layers, traced_ray_run  # noqa: E402

# Logical CPUs for ray.init. The pool below reserves 1; one read task (1)
# and one exchange split or reduce task (1) fit beside it, so no stage
# waits on a reservation the pool holds.
NUM_CPUS = 3
SETTINGS = PipelineSettings(
    ocr_concurrency=1,
    ocr_min_actors=1,
    ocr_num_cpus=1.0,
    ocr_batch_size=256,
    fanout_batch_size=64,
    num_partitions=workloads.NUM_PARTITIONS,
)
READ_BLOCKS = 16   # smaller than a fan-out bundle, so bundles are ~64 docs
# Idle Ray workers are kept for the whole process, five of them beside
# the actors. With Ray's defaults (kill after 1 s idle, keep num_cpus)
# every run re-spawned task workers, and that start-up made single runs
# vary by a factor of two.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000,
                     "num_workers_soft_limit": 5}
WARMUP_RUNS = 3    # the first timed run after two warm-ups was still ~50 % slow
OBJECT_STORE_BYTES = 256 * 1024 * 1024

RUN_DEADLINE_S = 40.0      # one run; a stalled run is abandoned after this
PROCESS_BUDGET_S = 150.0   # no new run starts once this could be exceeded
PROCESS_DEADLINE_S = 175.0  # hard stop without a result
QUIESCE_MAX_S = 5.0
RAY_EXIT_WAIT_S = 20.0
_SOCKET_DIR_MAX = 40       # Ray's socket paths must stay under 108 bytes


class RunStalled(RuntimeError):
    pass


def call_with_deadline(fn, seconds: float):
    """Run ``fn()`` in a daemon thread; raise RunStalled if it outlives
    ``seconds``. The stalled thread is left behind; the caller stops."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller's thread
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True, name="bench-run")
    t.start()
    t.join(seconds)
    if t.is_alive():
        raise RunStalled(f"run did not return within {seconds:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples
    beyond it (none below 11 samples), with the sample count."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "p_level": None, "p": None, "values": values}
    if n >= 11:
        level = int(100 * (1 - 10 / n))
        out["p_level"] = level
        out["p"] = statistics.quantiles(values, n=100, method="inclusive")[level - 1]
    return out


class Bench:
    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.page_ms = workloads.PAGE_MS[workload]
        self.engine_factory = functools.partial(StandInOcrEngine, page_ms=self.page_ms)
        self.post = PostProcessSettings()
        self.ray_tmp: str | None = None
        self.ray_tmp_owned = False
        self.setup_s: list[float] = []
        self.sequential_s = 0.0  # the oracle's pass over the inputs, in set-up
        self.runs: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.stalled = False
        self._out_seq = 0
        self.template: str | None = None

    def _ray_temp_dir(self) -> None:
        local = os.path.join(self.work, "ray")
        if len(local) <= _SOCKET_DIR_MAX:
            self.ray_tmp = local
        else:
            self.ray_tmp, self.ray_tmp_owned = tempfile.mkdtemp(prefix="xb-ray-"), True

    def new_out_dir(self) -> str:
        self._out_seq += 1
        return os.path.join(self.work, f"out-{self._out_seq:03d}")

    # --- set-up ---------------------------------------------------------

    def start_ray(self) -> None:
        self._ray_temp_dir()
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.ray_tmp,
                 _system_config=RAY_SYSTEM_CONFIG)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        # The stand-in engine and the replay kernels are pickled by value,
        # so workers need neither this directory nor the package on a path.
        register_for_ray_workers(force=True)
        ray.cloudpickle.register_pickle_by_value(extract_bench)

    def set_up(self) -> None:
        t0 = time.perf_counter()
        self.start_ray()
        self.docs = workloads.make_documents(self.workload, self.seed)
        self.corpus = os.path.join(self.work, "corpus")
        workloads.write_documents(self.docs, self.corpus)
        records = self.docs.to_pylist()
        engine = self.engine_factory()
        t_seq = time.perf_counter()
        golden = oracle_extract(records, engine, self.post.math_delimiter_style)
        self.sequential_s = time.perf_counter() - t_seq
        self.golden = gate.golden_digest(golden)
        self.golden_docs = sum(1 for spans in golden.values() if spans)
        for _ in range(WARMUP_RUNS):
            warm = self.new_out_dir()
            result = self.run_once(warm, fresh=True)
            if not result["ok"]:
                raise RuntimeError(f"warm-up run failed: {result}")
        if self.workload == "resume_half":
            self.template = warm
        self.setup_s.append(time.perf_counter() - t0)

    # --- one run ----------------------------------------------------------

    def prepare_out_dir(self, out_dir: str, fresh: bool) -> None:
        """resume_half: a fully committed run with every odd partition
        reset, made before the timer starts."""
        if fresh or self.workload != "resume_half":
            return
        shutil.copytree(self.template, out_dir)
        store = CheckpointStore(out_dir)
        for pid in sorted(store.committed_ids()):
            if pid % 2:
                store.reset_partition(pid)

    def quiesce(self) -> None:
        """Wait until the previous run's actor and tasks have released
        their CPUs, so a run does not start beside the last one's
        teardown."""
        # The last run's OCR actor is often released only by a garbage
        # collection. Without one it kept its CPU past QUIESCE_MAX_S in
        # some runs, and the next run started with one CPU less.
        gc.collect()
        deadline = time.perf_counter() + QUIESCE_MAX_S
        while (ray.available_resources().get("CPU", 0) < NUM_CPUS
               and time.perf_counter() < deadline):
            time.sleep(0.02)

    def run_once(self, out_dir: str, *, fresh: bool = False, tracer: Tracer | None = None) -> dict:
        self.prepare_out_dir(out_dir, fresh)
        self.quiesce()
        ds = read_documents(self.corpus, num_blocks=READ_BLOCKS)

        def call():
            return run_extract_checkpointed(ds, out_dir, engine_factory=self.engine_factory,
                                            settings=SETTINGS, post=self.post)

        run = call if tracer is None else functools.partial(traced_ray_run, tracer, call)
        start_unix = time.time()
        t0 = time.perf_counter()
        call_with_deadline(run, RUN_DEADLINE_S)
        wall = time.perf_counter() - t0
        return self.check(out_dir, start_unix, wall)

    def check(self, out_dir: str, start_unix: float, wall: float) -> dict:
        store = CheckpointStore(out_dir)
        start_ms = int(start_unix * 1000)
        fresh = [m for m in store.load_manifest().to_pylist()
                 if m["committed_at_unix_ms"] >= start_ms]
        metrics = store.load_metrics()
        error_units = metrics.filter(pc.or_(
            pc.equal(metrics["status"], "failed"),
            pc.is_valid(metrics["error_message"]))).num_rows
        digest_ok = gate.committed_digest(out_dir) == self.golden
        return {
            "wall_s": wall,
            "first_commit_s": (min(m["committed_at_unix_ms"] for m in fresh) / 1000.0
                               - start_unix) if fresh else None,
            "docs_committed": sum(m["num_docs"] for m in fresh),
            "partitions_committed": len(fresh),
            "error_units": error_units,
            "digest_ok": digest_ok,
            "ok": digest_ok and error_units == 0 and bool(fresh),
        }

    # --- measuring --------------------------------------------------------

    def measure(self, seconds: float, process_start: float) -> None:
        end = time.perf_counter() + seconds
        while True:
            self.attempted += 1
            out_dir = self.new_out_dir()
            try:
                result = self.run_once(out_dir)
            except RunStalled as exc:
                self.failed += 1
                self.stalled = True
                print(f"run {self.attempted}: {exc}", file=sys.stderr)
                return
            except Exception:
                self.failed += 1
                traceback.print_exc()
                result = None
            if result is not None:
                if result["ok"]:
                    self.runs.append(result)
                else:
                    self.failed += 1
                    print(f"run {self.attempted} failed: {result}", file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            now = time.perf_counter()
            typical = statistics.median(r["wall_s"] for r in self.runs) if self.runs else 0.0
            if now >= end or now - process_start + 3 * typical > PROCESS_BUDGET_S:
                return

    # --- reporting --------------------------------------------------------

    def input_counts(self) -> dict:
        counts = workloads.kind_counts(self.docs)
        return {"docs": len(self.docs), "units": sum(counts.values()),
                "media_units": workloads.media_units(self.docs), "kinds": counts}

    def end_to_end(self) -> dict:
        inp = self.input_counts()
        walls = [r["wall_s"] for r in self.runs]
        m = {
            "setup_s": (summarize(self.setup_s), "s"),
            "wall_s": (summarize(walls), "s"),
            "docs_per_s": (summarize([r["docs_committed"] / r["wall_s"] for r in self.runs]), "1/s"),
            "units_per_s": (summarize([inp["units"] / w for w in walls]), "1/s"),
            "first_commit_s": (summarize([r["first_commit_s"] for r in self.runs]), "s"),
            "sequential_docs_per_s": (summarize([self.golden_docs / self.sequential_s]), "1/s"),
        }
        if inp["media_units"]:
            m["pages_per_s"] = (summarize([inp["media_units"] / w for w in walls]), "1/s")
        if self.page_ms > 0:
            floor = inp["media_units"] * self.page_ms / 1000.0 / SETTINGS.ocr_concurrency
            m["model_floor_ratio"] = (summarize([w / floor for w in walls]), "ratio")
        return m

    def box(self) -> dict:
        return {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "ray_num_cpus": NUM_CPUS,
            "ray": ray.__version__,
            "pyarrow": pa.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        }

    def config(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "pool_width": SETTINGS.ocr_concurrency,
            "settings": dataclasses.asdict(SETTINGS),
            "read_blocks": READ_BLOCKS,
            "ray_system_config": RAY_SYSTEM_CONFIG,
            "warmup_runs": WARMUP_RUNS,
            "page_ms": self.page_ms,
            "engine": "StandInOcrEngine",
            **self.input_counts(),
        }


def per_layer(bench: Bench, seconds: float, process_start: float) -> dict:
    """Traced run + in-process replay; returns {name: (value, unit)}."""
    bench.measure(seconds, process_start)
    if not bench.runs or bench.stalled:
        return {}
    untraced = statistics.median(r["wall_s"] for r in bench.runs)

    tracer = Tracer()
    traced_out = bench.new_out_dir()
    replay_out = bench.new_out_dir()
    bench.prepare_out_dir(replay_out, fresh=False)
    bench.attempted += 1
    try:
        traced = bench.run_once(traced_out, tracer=tracer)
        counts = call_with_deadline(functools.partial(
            replay_layers, tracer,
            docs_ds=read_documents(bench.corpus, num_blocks=READ_BLOCKS),
            settings=SETTINGS, engine_factory=bench.engine_factory,
            math_style=bench.post.math_delimiter_style, out_dir=replay_out,
            ray_out_dir=traced_out), RUN_DEADLINE_S)
        replay_ok = gate.committed_digest(replay_out) == bench.golden
    except RunStalled as exc:
        bench.failed += 1
        bench.stalled = True
        print(f"traced run: {exc}", file=sys.stderr)
        return {}
    except Exception:
        bench.failed += 1
        traceback.print_exc()
        return {}
    if not (traced["ok"] and replay_ok):
        bench.failed += 1
        return {}

    t = tracer.total
    spool = {"checkpoint.spool_append"}
    kunits = counts["units_out"] / 1000.0
    kfinal_in = counts["finalize_in"] / 1000.0  # units past the resume filter
    kfinal_out = counts["finalize_out"] / 1000.0
    html_calls = tracer.count("boilerplate.extract_main_text")
    in_process = sum(t(n) for n in ("corpus.read_batch", "fanout.fan_out_documents",
                                    "extract.drop_committed", "ocr.OcrStage", "finalize.FinalizeStage",
                                    "assemble.assemble_group", "checkpoint.write_partition"))
    store_metrics = CheckpointStore(traced_out).load_metrics()
    store = {}
    for stage in ("ocr", "postprocess", "assemble"):
        rows = store_metrics.filter(pc.equal(store_metrics["stage"], stage))
        store[f"store.{stage}.wall_ms"] = (float(pc.sum(rows["wall_ms"]).as_py() or 0), "ms")
        store[f"store.{stage}.rows_in"] = (int(pc.sum(rows["rows_in"]).as_py() or 0), "count")

    selfs = tracer.self_times()
    layer_self = {
        "corpus.self_s": selfs.get("corpus.read_batch", 0.0),
        "fanout.self_s": selfs.get("fanout.fan_out_documents", 0.0),
        "ocr.self_s": selfs.get("ocr.OcrStage", 0.0),
        "finalize.self_s": selfs.get("finalize.FinalizeStage", 0.0),
        "boilerplate.self_s": selfs.get("boilerplate.extract_main_text", 0.0),
        "assemble.self_s": selfs.get("assemble.assemble_group", 0.0),
        "checkpoint.self_s": sum(selfs.get(n, 0.0) for n in (
            "checkpoint.write_partition", "checkpoint.spool_append", "checkpoint.status")),
        "exchange.self_s": selfs.get("exchange.bucket_map_groups", 0.0),
        "extract.self_s": selfs.get("ray.extract.run_extract_checkpointed", 0.0),
    }
    metrics = {
        "corpus.read_s": (t("corpus.read_batch"), "s"),
        "corpus.bytes": (sum(os.path.getsize(os.path.join(bench.corpus, f))
                             for f in os.listdir(bench.corpus)), "bytes"),
        "fanout.ms_per_kunit": (t("fanout.fan_out_documents") * 1000 / kunits, "ms"),
        "fanout.units_out": (counts["units_out"], "count"),
        "ocr.adapter_ms_per_kunit": (selfs.get("ocr.OcrStage", 0.0) * 1000 / kfinal_in, "ms"),
        "ocr.model_ms": (t("ocr.infer_batch") * 1000, "ms"),
        "ocr.media_rows": (counts["media_rows"], "count"),
        "ocr.failed_rows": (counts["failed_rows"], "count"),
        "finalize.ms_per_kunit": (t("finalize.FinalizeStage", minus=spool) * 1000 / kfinal_in, "ms"),
        "finalize.html_ms_per_unit": (t("boilerplate.extract_main_text") * 1000 / max(html_calls, 1), "ms"),
        "finalize.kept_frac": (counts["finalize_out"] / counts["finalize_in"], "frac"),
        "assemble.ms_per_kunit": (t("assemble.assemble_group") * 1000 / kfinal_out, "ms"),
        "assemble.docs_out": (counts["docs_out"], "count"),
        "assemble.spans_out": (counts["spans_out"], "count"),
        "checkpoint.commit_ms_per_partition": (t("checkpoint.write_partition") * 1000 / counts["partitions"], "ms"),
        "checkpoint.bytes_written": (counts["bytes_written"], "bytes"),
        "checkpoint.spool_append_ms": (t("checkpoint.spool_append") * 1000, "ms"),
        "checkpoint.spool_files": (counts["spool_files"], "count"),
        "checkpoint.status_ms": (t("checkpoint.status") * 1000, "ms"),
        "exchange.s": (t("exchange.bucket_map_groups"), "s"),
        "exchange.held_mb": (counts["held_bytes"] / 1e6, "MB"),
        "exchange.bucket_skew": (counts["bucket_skew"], "ratio"),
        "exchange.split_wait_s": (t("ray.exchange.split_and_count"), "s"),
        "extract.commit_phase_s": (t("ray.exchange.reduce_and_commit"), "s"),
        "extract.orchestration_s": (traced["wall_s"] - in_process, "s"),
        "extract.first_commit_frac": (traced["first_commit_s"] / traced["wall_s"], "frac"),
        "extract.traced_wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced, "s"),
        **store,
        **{k: (v, "s") for k, v in layer_self.items()},
    }
    tracer.dump(os.path.join(HERE, "_traces", f"trace-{bench.workload}-seed{bench.seed}.json"))
    return metrics


def stop_ray(stalled: bool) -> None:
    if not stalled:
        ray.shutdown()
        return
    # A stalled run's thread still waits inside Ray. ray.shutdown() would
    # shut the core worker down under it, which aborts this process before
    # the node's processes are killed, so kill those first.
    node = ray._private.worker._global_node
    if node is not None:
        node.kill_all_processes(check_alive=False, allow_graceful=True, wait=True)


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    faulthandler.dump_traceback_later(PROCESS_DEADLINE_S, exit=True)

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, work)
    metrics: dict = {}
    set_up = False
    try:
        bench.set_up()
        set_up = True
        if args.trace:
            metrics = per_layer(bench, args.seconds, process_start)
        else:
            bench.measure(args.seconds, process_start)
            if bench.runs:
                metrics = bench.end_to_end()
    except RunStalled as exc:
        bench.stalled = True
        print(f"set-up: {exc}", file=sys.stderr)
    except BaseException:
        tear_down(bench)
        raise

    code = 1
    if set_up:
        code = print_result(bench, metrics, trace=bool(args.trace))
    # After a stall, killing the node can make Ray end this process too;
    # the result is printed before that.
    tear_down(bench)
    if bench.stalled:
        os._exit(1)  # the stalled run's thread must not run on
    return code


def print_result(bench: Bench, metrics: dict, *, trace: bool) -> int:
    """Print the report line and the result line; return the exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer" if trace else "end_to_end"]]
    missing = [name for name in declared if name not in metrics]
    if metrics and missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    correct = bench.failed == 0
    report = {
        "box": bench.box(),
        "config": bench.config(),
        "failed_frac": bench.failed / max(bench.attempted, 1),
        "stalled": bench.stalled,
        "metrics": {k: ({"unit": u, **v} if isinstance(v, dict) else {"unit": u, "value": v})
                    for k, (v, u) in metrics.items()},
    }
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v["median"] if isinstance(v, dict) else v, "unit": u}
                    for k, (v, u) in metrics.items() if k in declared},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if correct and metrics and not missing else 1


def tear_down(bench: Bench) -> None:
    if bench.ray_tmp is None:  # Ray was never started
        shutil.rmtree(bench.work, ignore_errors=True)
        return
    stop_ray(bench.stalled)
    wait_for_exit(bench.ray_tmp, RAY_EXIT_WAIT_S)
    shutil.rmtree(bench.work, ignore_errors=True)
    if bench.ray_tmp_owned:
        shutil.rmtree(bench.ray_tmp, ignore_errors=True)


def wait_for_exit(ray_tmp: str, seconds: float) -> None:
    """Wait until no process names ``ray_tmp`` on its command line.

    ray.shutdown() returns before raylet's agents have exited, and they
    write to the session directory on their way out."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        alive = False
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    alive = ray_tmp.encode() in f.read()
            except OSError:  # the process ended while we looked
                continue
            if alive:
                break
        if not alive:
            return
        time.sleep(0.1)
    print(f"Ray processes still running after {seconds:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

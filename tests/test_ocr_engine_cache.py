"""The flagship's OCR operator across runs in one Ray session: one engine
per (worker process, run), per-run stage state, and no exchange wave
left pinned after a run returns."""

from __future__ import annotations

import collections
import functools
import os
import sys
import time

import pytest
import ray
import ray.data as rd

from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.pipelines import exchange
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.fanout import fan_out_documents
from ocr_agent_ray.state.checkpoint import CheckpointStore

SETTINGS = PipelineSettings(num_partitions=8, ocr_concurrency=2,
                            fanout_batch_size=16)


def _blocks(corpus, rows=20):
    """Many small read blocks, so a run has many OCR tasks."""
    return rd.from_arrow([corpus.slice(lo, rows)
                          for lo in range(0, len(corpus), rows)])


def _wait_for_idle_cpus(seconds=10.0):
    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.monotonic() + seconds
    while (ray.available_resources().get("CPU", 0) < total
           and time.monotonic() < deadline):
        time.sleep(0.05)


@pytest.fixture()
def package_by_value():
    """Pickle the package by value, as extract_bench/run.py does: every
    task then gets fresh copies of the package's module globals."""
    from ray import cloudpickle

    from ocr_agent_ray.serialization import register_for_ray_workers

    register_for_ray_workers(force=True)
    yield
    for name, mod in list(sys.modules.items()):
        if name.startswith("ocr_agent_ray") and mod is not None:
            try:
                cloudpickle.unregister_pickle_by_value(mod)
            except ValueError:  # was not registered
                pass


def test_engine_built_once_per_process_and_run(ray_session, package_by_value,
                                               tmp_path):
    """Every task gets fresh module globals, yet a run builds at most one
    engine per worker process, and the run summary counts them; a rerun
    after a reset builds its own and counts only those."""
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    class CountingEngine(MockOcrEngine):
        def __init__(self, log_path):
            super().__init__()
            with open(log_path, "a") as f:
                f.write(f"{os.getpid()}\n")

    log = str(tmp_path / "engines.log")
    factory = functools.partial(CountingEngine, log)
    corpus = generate_documents(200, seed=3)

    def built():
        with open(log) as f:
            return f.read().split()

    out, seen = str(tmp_path / "out"), 0
    for _ in range(2):
        summary = run_extract_checkpointed(_blocks(corpus), out,
                                           engine_factory=factory,
                                           settings=SETTINGS)
        pids = built()[seen:]
        seen += len(pids)
        assert pids and max(collections.Counter(pids).values()) == 1, pids
        assert summary["ocr_processes"] == len(pids)
        store = CheckpointStore(out)
        store.reset_partitions(store.committed_ids())


def test_resume_of_committed_work_builds_no_engine(ray_session, tmp_path):
    """A rerun into a fully committed out_dir OCRs nothing, so no worker
    process builds an engine for it and the summary counts none."""
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    class CountingEngine(MockOcrEngine):
        def __init__(self, log_path):
            super().__init__()
            with open(log_path, "a") as f:
                f.write(f"{os.getpid()}\n")

    log = tmp_path / "engines.log"
    factory = functools.partial(CountingEngine, str(log))
    corpus = generate_documents(120, seed=4)
    out = str(tmp_path / "out")
    first = run_extract_checkpointed(_blocks(corpus), out,
                                     engine_factory=factory, settings=SETTINGS)
    built = len(log.read_text().split())
    assert built and first["ocr_processes"] == built

    again = run_extract_checkpointed(_blocks(corpus), out,
                                     engine_factory=factory, settings=SETTINGS)
    assert again["partitions_processed"] == 0
    assert len(log.read_text().split()) == built
    assert again["ocr_processes"] == 0


def test_failed_run_leaves_no_state_for_next_run(ray_session, tmp_path):
    """A run whose engine fails every row aborts on the systemic-error cap;
    the next run with the same factory, on the same worker processes,
    starts with fresh error counts and writes only its own spool."""
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    class SwitchedEngine(MockOcrEngine):
        def __init__(self, flag_path):
            super().__init__()
            self.flag_path = flag_path

        def infer_batch(self, media_refs, page_indices):
            if os.path.exists(self.flag_path):
                raise RuntimeError("engine down")
            return super().infer_batch(media_refs, page_indices)

    flag = tmp_path / "down"
    flag.write_text("")
    factory = functools.partial(SwitchedEngine, str(flag))
    corpus = generate_documents(200, seed=5)
    failed_out, good_out = str(tmp_path / "failed"), str(tmp_path / "good")

    with pytest.raises(Exception, match="failing systemically"):
        run_extract_checkpointed(_blocks(corpus), failed_out,
                                 engine_factory=factory, settings=SETTINGS)
    _wait_for_idle_cpus()  # the failed run's last tasks have ended
    metrics_dir = os.path.join(failed_out, "metrics")

    def spools():
        return {n: os.path.getsize(os.path.join(metrics_dir, n))
                for n in os.listdir(metrics_dir)}

    before = spools()
    flag.unlink()
    run_extract_checkpointed(_blocks(corpus), good_out,
                             engine_factory=factory, settings=SETTINGS)

    assert spools() == before
    metrics = CheckpointStore(good_out).load_metrics().to_pylist()
    assert not [m for m in metrics
                if m["status"] == "failed" or m["error_message"]]
    units = len(fan_out_documents(corpus, num_partitions=SETTINGS.num_partitions))
    assert sum(m["rows_in"] for m in metrics if m["stage"] == "ocr") == units


def test_run_releases_its_exchange_wave(ray_session, tmp_path):
    """After run_extract_checkpointed returns, no exchange wave (and so
    none of the run's assembled output) is held by the shard-pin registry."""
    corpus = generate_documents(60, seed=9)
    run_extract_checkpointed(rd.from_arrow(corpus), str(tmp_path / "out"),
                             settings=SETTINGS)
    assert exchange.pinned_waves() == 0

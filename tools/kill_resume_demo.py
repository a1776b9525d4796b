"""Hard-kill resume demonstration: SIGKILL during OCR, then resume.

Starts the checkpointed extraction as a subprocess with a slow engine,
SIGKILLs its process group ``kill_after_sec`` seconds after OCR has
started (its first metrics spool appears), resumes in a fresh process,
and compares the result with an uninterrupted run. The flagship commits
every partition when its stream ends, so a kill during OCR leaves no
committed partition and the resume redoes the whole run; what it must
show is that the resumed output equals the uninterrupted run's. A kill
during the commit tail is covered by
tests/test_partition_writer.py::test_failure_in_commit_tail_keeps_committed_prefix.

Usage: python tools/kill_resume_demo.py [num_docs] [kill_after_sec]
Prints a one-line JSON verdict.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

NUM_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
KILL_AFTER = float(sys.argv[2]) if len(sys.argv) > 2 else 8.0
SLOW_WORK_MS = 5.0   # per page: OCR of the killed run outlasts KILL_AFTER
ROOT = "/tmp/graft_kill_demo"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_SNIPPET = r"""
import warnings, sys; warnings.filterwarnings("ignore")
import ray, functools
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import read_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
settings = PipelineSettings(ocr_concurrency=2, num_partitions=16, fanout_batch_size=64)
s = run_extract_checkpointed(
    read_documents(sys.argv[1], num_blocks=32), sys.argv[2],
    engine_factory=functools.partial(MockOcrEngine, work_ms=float(sys.argv[3])),
    settings=settings)
print("SUMMARY", s)
ray.shutdown()
"""


def run_pipeline(corpus: str, out: str, work_ms: float,
                 kill_after: float | None) -> dict:
    """Run to the end (``kill_after`` None), or SIGKILL the process group
    ``kill_after`` seconds after the first metrics spool appears."""
    proc = subprocess.Popen(
        [sys.executable, "-c", RUN_SNIPPET, corpus, out, str(work_ms)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL if kill_after else subprocess.PIPE,
        text=True, cwd=REPO, start_new_session=True,
    )
    if kill_after is None:
        out_text, err_text = proc.communicate()
        assert proc.returncode == 0, out_text + err_text[-2000:]
        return {}
    metrics_dir = os.path.join(out, "metrics")
    deadline = time.time() + 300
    ocr_started = None
    while time.time() < deadline and proc.poll() is None:
        if ocr_started is None and os.path.isdir(metrics_dir) and any(
                n.startswith("spool-") for n in os.listdir(metrics_dir)):
            ocr_started = time.time()
        if ocr_started is not None and time.time() - ocr_started >= kill_after:
            break
        time.sleep(0.05)
    finished = proc.poll() is not None
    manifest_dir = os.path.join(out, "manifest")
    markers = len(os.listdir(manifest_dir)) if os.path.isdir(manifest_dir) else 0
    if not finished:
        os.killpg(proc.pid, signal.SIGKILL)  # hard kill, no cleanup
    proc.wait()
    return {"killed_during_ocr": ocr_started is not None and not finished and markers == 0}


def span_map(out_dir: str) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocr_agent_ray.state.checkpoint import CheckpointStore

    store = CheckpointStore(out_dir)
    table = pa.concat_tables(pq.read_table(store.data_path(pid))
                             for pid in sorted(store.committed_ids()))
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                      for s in r["spans"]]
        for r in table.to_pylist()
    }


def main() -> None:
    sys.path.insert(0, REPO)
    shutil.rmtree(ROOT, ignore_errors=True)
    corpus = os.path.join(ROOT, "corpus")

    import warnings

    warnings.filterwarnings("ignore")
    from ocr_agent_ray.sources.corpus import write_corpus_parquet
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    # one row group per file: 2000 docs give 8 fragments, the 4 per slot
    # that the flagship's two OCR slot tasks need to read them themselves
    write_corpus_parquet(corpus, NUM_DOCS, rows_per_file=250)

    killed_out = os.path.join(ROOT, "killed")
    clean_out = os.path.join(ROOT, "clean")

    # 1. start with a slow engine and hard-kill during OCR
    kill = run_pipeline(corpus, killed_out, work_ms=SLOW_WORK_MS, kill_after=KILL_AFTER)
    surviving = CheckpointStore(killed_out).committed_ids()
    data_dir = os.path.join(killed_out, "data")
    temp_left = [n for n in os.listdir(data_dir) if n.endswith(".tmp")] \
        if os.path.isdir(data_dir) else []

    # 2. resume to completion in a fresh process (same engine: the store
    #    refuses to resume under another run configuration)
    run_pipeline(corpus, killed_out, work_ms=SLOW_WORK_MS, kill_after=None)
    after = CheckpointStore(killed_out).committed_ids()

    # 3. uninterrupted reference run
    run_pipeline(corpus, clean_out, work_ms=0.0, kill_after=None)

    resumed = span_map(killed_out)
    clean = span_map(clean_out)
    print(json.dumps({
        **kill,
        "partitions_before_kill": len(surviving),
        "temp_files_left_by_kill": len(temp_left),
        "partitions_total": len(after),
        "docs": len(resumed),
        "output_equals_uninterrupted_run": resumed == clean,
    }))
    shutil.rmtree(ROOT, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Hard-kill resume demonstration.

Starts the checkpointed extraction as a subprocess, SIGKILLs it mid-run,
resumes in a fresh process, and verifies: (a) partially committed
partitions survived and were not reprocessed, (b) the final output is
byte-equal per doc to an uninterrupted run.

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

NUM_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
KILL_AFTER = float(sys.argv[2]) if len(sys.argv) > 2 else 12.0
ROOT = "/tmp/graft_kill_demo"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_SNIPPET = r"""
import warnings, sys; warnings.filterwarnings("ignore")
import ray, functools
ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ocr_agent_ray.config import PipelineSettings
from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
from ocr_agent_ray.sources.corpus import read_documents
from ocr_agent_ray.stages.ocr import MockOcrEngine
settings = PipelineSettings(ocr_concurrency=12, num_partitions=64,
                            balance_blocks=64)
s = run_extract_checkpointed(
    read_documents(sys.argv[1], num_blocks=32), sys.argv[2],
    engine_factory=functools.partial(MockOcrEngine, work_ms=float(sys.argv[3])),
    settings=settings)
print("SUMMARY", s)
ray.shutdown()
"""


def run_pipeline(corpus: str, out: str, work_ms: float,
                 kill_at_commits: int | None) -> tuple[int, str]:
    """kill_at_commits: SIGKILL the process group once that many partition
    manifests exist (i.e. genuinely mid-commit-phase), None = run to end."""
    proc = subprocess.Popen(
        [sys.executable, "-c", RUN_SNIPPET, corpus, out, str(work_ms)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=REPO, start_new_session=True,
    )
    if kill_at_commits is None:
        out_text, _ = proc.communicate()
        return proc.returncode, out_text
    manifest_dir = os.path.join(out, "manifest")
    deadline = time.time() + 300
    while time.time() < deadline and proc.poll() is None:
        n = len(os.listdir(manifest_dir)) if os.path.isdir(manifest_dir) else 0
        if n >= kill_at_commits:
            break
        time.sleep(0.05)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)  # hard kill, no cleanup
    proc.wait()
    return -9, ""


def span_map(out_dir: str) -> dict:
    import warnings

    warnings.filterwarnings("ignore")
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR", ignore_reinit_error=True)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, REPO)
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    rows = CheckpointStore(out_dir).read_output().take_all()
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                      for s in r["spans"]]
        for r in rows
    }


def main() -> None:
    sys.path.insert(0, REPO)
    shutil.rmtree(ROOT, ignore_errors=True)
    corpus = os.path.join(ROOT, "corpus")

    import warnings

    warnings.filterwarnings("ignore")
    from ocr_agent_ray.sources.corpus import write_corpus_parquet

    write_corpus_parquet(corpus, NUM_DOCS, rows_per_file=2500)

    killed_out = os.path.join(ROOT, "killed")
    clean_out = os.path.join(ROOT, "clean")

    # 1. start and hard-kill once the commit phase is ~25% done
    run_pipeline(corpus, killed_out, work_ms=2.0, kill_at_commits=16)
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    surviving = CheckpointStore(killed_out).committed_ids()
    stamps = {p: os.path.getmtime(CheckpointStore(killed_out).data_path(p))
              for p in surviving}

    # 2. resume to completion in a fresh process
    rc, out_text = run_pipeline(corpus, killed_out, work_ms=2.0, kill_at_commits=None)
    assert rc == 0, out_text
    after = CheckpointStore(killed_out).committed_ids()
    untouched = all(
        os.path.getmtime(CheckpointStore(killed_out).data_path(p)) == t
        for p, t in stamps.items()
    )

    # 3. uninterrupted reference run
    rc2, _ = run_pipeline(corpus, clean_out, work_ms=0.0, kill_at_commits=None)
    assert rc2 == 0

    resumed = span_map(killed_out)
    clean = span_map(clean_out)
    print(json.dumps({
        "partitions_before_kill": len(surviving),
        "partitions_total": len(after),
        "killed_partitions_untouched_on_resume": untouched,
        "docs": len(resumed),
        "output_equals_uninterrupted_run": resumed == clean,
    }))


if __name__ == "__main__":
    main()

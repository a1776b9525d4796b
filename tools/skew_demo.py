"""Skew-leveling demonstration (north rule: explicit repartitioning by
estimated page cost).

Builds a pathological corpus — a handful of gigantic PDFs among many tiny
docs — and runs the flagship with and without the cost-balancing
repartition. Without it, whole mega-docs land in single OCR bundles and
the straggler sets the wall time; with it, their pages spread across the
pool. Prints one JSON line with both times.

Usage: python tools/skew_demo.py [num_small_docs] [num_cpus]
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys
import time
import warnings

warnings.filterwarnings("ignore")

NUM_SMALL = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
NUM_CPUS = int(sys.argv[2]) if len(sys.argv) > 2 else 32
WORK_MS = 3.0
ROOT = "/tmp/graft_skew"


def build_corpus() -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    sys.path.insert(0, "/root/repo")
    from ocr_agent_ray.schema import DOCUMENTS_SCHEMA
    from ocr_agent_ray.sources.corpus import generate_documents

    path = os.path.join(ROOT, "corpus")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    small = generate_documents(NUM_SMALL, seed=5, skew=False)
    pq.write_table(small, os.path.join(path, "small.parquet"))
    # 4 mega-docs: 2,000-page PDFs each (the 10^3-page doc of SURVEY §7.5)
    mega = []
    for k in range(4):
        spans = [
            {"kind": "pdf_page", "text": "",
             "media_ref": f"media://mega{k}/scan.pdf", "offset": i}
            for i in range(2000)
        ]
        mega.append({"doc_id": f"mega-{k}", "spans": spans})
    pq.write_table(pa.Table.from_pylist(mega, schema=DOCUMENTS_SCHEMA),
                   os.path.join(path, "mega.parquet"))
    return path


def run(corpus: str, balance: int | None) -> float:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", ignore_reinit_error=True)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ocr_agent_ray.config import PipelineSettings
    from ocr_agent_ray.pipelines.extract import build_extract_pipeline
    from ocr_agent_ray.sources.corpus import read_documents
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    settings = PipelineSettings(
        ocr_concurrency=max(2, NUM_CPUS - 2),
        ocr_batch_size=128,
        num_partitions=4 * NUM_CPUS,
        balance_blocks=balance,
    )
    t0 = time.monotonic()
    ds = build_extract_pipeline(
        read_documents(corpus, num_blocks=2 * NUM_CPUS),
        engine_factory=functools.partial(MockOcrEngine, work_ms=WORK_MS),
        settings=settings,
    )
    n = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=4096):
        n += len(b)
    sec = time.monotonic() - t0
    ray.shutdown()
    return sec


def main() -> None:
    corpus = build_corpus()
    # one warm pass (worker spawn + page cache), then measure both modes
    _ = run(corpus, 4 * NUM_CPUS)
    balanced = run(corpus, 4 * NUM_CPUS)
    unbalanced = run(corpus, None)
    print(json.dumps({
        "num_small_docs": NUM_SMALL,
        "mega_docs": 4,
        "mega_pages_each": 2000,
        "sec_unbalanced": round(unbalanced, 2),
        "sec_balanced": round(balanced, 2),
        "speedup": round(unbalanced / balanced, 2),
    }))


if __name__ == "__main__":
    main()

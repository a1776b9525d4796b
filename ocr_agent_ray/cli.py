"""CLI — the reference's enqueue/run lifecycle re-expressed for Ray Data.

Commands (analog of /root/reference/src/ocr_agent/cli.py:37-134):

  corpus   generate a deterministic interleaved-document corpus (FIXTURES F1)
  enqueue  discover input paths -> manifest parquet + diagnostics
           (exit code 2 when nothing enqueued, parity with cli.py:32,188-192)
  run      execute the checkpointed extraction pipeline (resumable)
  status   status counts, ETA and last error from the checkpoint store
           (queue_store.py:191-196, main.rs:780-828 analogs)
  merge    fold committed output into one markdown file in doc order
           (markdown_merge.py:18-47 parity surface, small outputs only)

Only this CLI owns the Ray session (guarded init); library code never
calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_NOTHING_ENQUEUED = 2


def _ray_init(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ocr_agent_ray.serialization import register_for_ray_workers

    register_for_ray_workers()


def cmd_corpus(args) -> int:
    from ocr_agent_ray.sources.corpus import write_corpus_parquet

    files = write_corpus_parquet(args.out, num_docs=args.num_docs,
                                 seed=args.seed, rows_per_file=args.rows_per_file)
    print(f"wrote {args.num_docs} docs in {len(files)} shards to {args.out}")
    return 0


def cmd_enqueue(args) -> int:
    import pyarrow.parquet as pq

    from ocr_agent_ray.sources.discovery import (
        discover_paths,
        manifest_from_report,
    )

    report = discover_paths(args.paths)
    # diagnostics parity with _print_enqueue_discovery_report (cli.py:270-297)
    for label, bucket in [
        ("missing", report.missing),
        ("unsupported", report.unsupported),
        ("directories with no supported files", report.empty_dirs),
        ("unknown", report.unknown),
    ]:
        if bucket:
            print(f"{label} ({len(bucket)}):")
            for p in bucket:
                print(f"  {p}")
    table = manifest_from_report(report)
    pq.write_table(table, args.manifest)
    n = len(report.supported)
    print(f"enqueued {n} supported files -> {args.manifest}")
    if n == 0:
        return EXIT_NOTHING_ENQUEUED
    return 0


def cmd_run(args) -> int:
    _ray_init(args.num_cpus)
    import functools

    from ocr_agent_ray.config import PipelineSettings, PostProcessSettings
    from ocr_agent_ray.pipelines.extract import run_extract_checkpointed
    from ocr_agent_ray.sources.corpus import read_documents
    from ocr_agent_ray.stages.ocr import MockOcrEngine

    settings = PipelineSettings(
        ocr_concurrency=args.ocr_concurrency,
        num_partitions=args.num_partitions,
        fail_fast=args.fail_fast,
        balance_blocks=args.balance_blocks,
        fanout_batch_size=args.fanout_batch_size,
    )
    post = PostProcessSettings(math_delimiter_style=args.math_style)
    if args.engine == "metadata":
        # reads fixture-PNG tEXt metadata; media_ref must be a file path
        from ocr_agent_ray.stages.ocr import MetadataOcrEngine

        engine_factory = MetadataOcrEngine
    elif args.engine == "deepseek":
        from ocr_agent_ray.stages.ocr import DeepSeekOcr2Engine

        engine_factory = DeepSeekOcr2Engine  # raises: needs GPU + weights
    else:
        engine_factory = functools.partial(MockOcrEngine, work_ms=args.ocr_work_ms)
    summary = run_extract_checkpointed(
        read_documents(args.input),
        args.out,
        engine_factory=engine_factory,
        settings=settings,
        post=post,
    )
    print(json.dumps(summary))
    import ray

    ray.shutdown()
    return 0


def cmd_status(args) -> int:
    from ocr_agent_ray.state.checkpoint import CheckpointStore, compute_eta_seconds

    store = CheckpointStore(args.out)
    metrics = store.load_metrics()
    counts: dict[str, int] = {}
    # the reference's last error: the failed row with the highest task id
    # (main.rs:780-798); here the highest partition_id, the last loaded of
    # its rows winning a tie
    last_error, last_pid = None, -1
    for row in metrics.to_pylist():
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        if row["status"] == "failed" and row["partition_id"] >= last_pid:
            last_error, last_pid = row["error_message"], row["partition_id"]
    manifest = store.load_manifest()
    total_partitions = store.load_meta().get("num_partitions", 0)
    out = {
        "status_counts": counts,
        "partitions_committed": manifest.num_rows,
        "eta_seconds": compute_eta_seconds(metrics, total_partitions),
        "last_error": last_error,
    }
    print(json.dumps(out))
    return 0


def cmd_reset(args) -> int:
    """Un-commit partitions so the next run redoes them — the reference's
    queue `reset` for stale failed work (README.md:75-79)."""
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    store = CheckpointStore(args.out)
    pids = (sorted(store.committed_ids()) if args.all
            else [int(p) for p in args.partitions])
    done = store.reset_partitions(pids)
    print(json.dumps({"reset_partitions": done}))
    return 0


def merge_output_markdown(store, output_md: str, *,
                          max_docs: int = 1_000_000,
                          batch_size: int = 256) -> int:
    """Fold committed output into one markdown file in doc order.

    Streams the distributed sort's result through the driver one batch
    at a time (``iter_batches``) and appends to the file as it goes —
    driver memory stays one batch regardless of corpus size (the old
    ``take_all()`` materialized the whole corpus driver-side). A single
    markdown file is a fixture-scale parity surface (markdown_merge.py
    lines 18-47); ``max_docs`` aborts loudly (raising ValueError and
    removing the partial file) if a production-scale corpus is pointed
    at it by mistake. Returns the number of docs merged."""
    ds = store.read_output().sort("doc_id")
    n_docs = 0
    with open(output_md, "w", encoding="utf-8") as f:
        f.write("# OCR Output\n")
        for batch in ds.iter_batches(batch_size=batch_size,
                                     batch_format="pyarrow"):
            for d in batch.to_pylist():
                n_docs += 1
                if max_docs and n_docs > max_docs:
                    f.close()
                    os.remove(output_md)
                    raise ValueError(
                        f"merge aborted at max_docs={max_docs}: a single"
                        " markdown file is a fixture-scale surface;"
                        " raise --max-docs only deliberately")
                spans = d["spans"]
                parts: list[str] = []
                for i in range(0, len(spans), 2):
                    parts += [spans[i]["text"], "", spans[i + 1]["text"],
                              "", "---", ""]
                if parts:
                    f.write("\n" + "\n".join(parts))
    return n_docs


def cmd_merge(args) -> int:
    _ray_init(args.num_cpus)
    from ocr_agent_ray.state.checkpoint import CheckpointStore

    store = CheckpointStore(args.out)
    try:
        n_docs = merge_output_markdown(store, args.output_md,
                                       max_docs=args.max_docs)
    except ValueError as e:
        print(json.dumps({"error": str(e)}))
        return 3
    print(f"merged {n_docs} docs -> {args.output_md}")
    import ray

    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    """Run any registered pipeline (`__ray_entry__.queries()` name) over a
    testdata directory and print rows (JSONL) or write parquet — the
    generic query entry point so a reference user can run every pipeline
    from the CLI."""
    import importlib.util
    import os

    _ray_init(args.num_cpus)
    import pandas as pd

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(here, "__ray_entry__.py"))
    entrymod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entrymod)
    qs = entrymod.queries()
    if args.name == "list":
        for name in sorted(qs):
            print(name)
        return 0
    if args.name not in qs:
        print(json.dumps({"error": f"unknown query {args.name!r}; "
                          "run `query list`"}))
        return 2
    res = qs[args.name](args.sf_dir)
    if args.explain:
        # lazy logical plan (no execution); driver-computed results have
        # no plan to show
        print(repr(res) if hasattr(res, "iter_batches")
              else f"(driver-side result: {type(res).__name__})")
        import ray

        ray.shutdown()
        return 0
    if args.output:
        # stream Dataset results to parquet — the result of e.g. a dedup
        # APPLICATION is corpus-sized and must never sit in driver pandas
        if isinstance(res, pd.DataFrame):
            res.to_parquet(args.output, index=False)
            n = len(res)
        elif args.output.endswith(".parquet"):
            import pyarrow as pa
            import pyarrow.parquet as pq

            writer, n = None, 0
            for b in res.iter_batches(batch_format="pyarrow",
                                      batch_size=None):
                if writer is None:
                    writer = pq.ParquetWriter(args.output, b.schema)
                writer.write_table(b)
                n += len(b)
            if writer is None:  # empty result: typed empty file
                schema = res.schema().base_schema
                pq.write_table(pa.Table.from_arrays(
                    [pa.array([], f.type) for f in schema], schema=schema),
                    args.output)
            else:
                writer.close()
        else:  # directory → distributed partitioned write
            import pyarrow.dataset as pads

            res.write_parquet(args.output)
            n = pads.dataset(args.output).count_rows()  # metadata-only
        print(json.dumps({"query": args.name, "rows": n,
                          "output": args.output}))
    else:
        df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
        head = df.head(args.limit)
        print(head.to_json(orient="records", lines=True,
                           date_format="iso"))
        if len(df) > args.limit:
            print(f"... {len(df) - args.limit} more rows "
                  f"(use --output to write all)", flush=True)
    import ray

    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="ocr-agent-ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("corpus")
    c.add_argument("--out", required=True)
    c.add_argument("--num-docs", type=int, default=1000)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--rows-per-file", type=int, default=2000)
    c.set_defaults(fn=cmd_corpus)

    e = sub.add_parser("enqueue")
    e.add_argument("paths", nargs="+")
    e.add_argument("--manifest", required=True)
    e.set_defaults(fn=cmd_enqueue)

    r = sub.add_parser("run")
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--num-cpus", type=int, default=None)
    r.add_argument("--ocr-concurrency", type=int, default=8)
    r.add_argument("--ocr-work-ms", type=float, default=0.0)
    r.add_argument("--engine", default="mock",
                   choices=["mock", "metadata", "deepseek"])
    r.add_argument("--num-partitions", type=int, default=32)
    r.add_argument("--math-style", default="dollar", choices=["dollar", "latex"])
    r.add_argument("--fail-fast", action="store_true")
    r.add_argument("--balance-blocks", type=int, default=None,
                   help="explicit cost-leveling repartition for pathological "
                        "per-doc skew (barrier; default: barrier-free)")
    r.add_argument("--fanout-batch-size", type=int, default=64,
                   help="docs per bundle an OCR slot task fans out, OCRs "
                        "and assembles at a time")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("status")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_status)

    x = sub.add_parser("reset")
    x.add_argument("--out", required=True)
    x.add_argument("partitions", nargs="*", default=[])
    x.add_argument("--all", action="store_true")
    x.set_defaults(fn=cmd_reset)

    m = sub.add_parser("merge")
    m.add_argument("--out", required=True)
    m.add_argument("--output-md", required=True)
    m.add_argument("--num-cpus", type=int, default=None)
    m.add_argument("--max-docs", type=int, default=1_000_000,
                   help="abort if the corpus exceeds this many docs "
                        "(0 = unlimited); one markdown file is a "
                        "fixture-scale surface")
    m.set_defaults(fn=cmd_merge)

    q = sub.add_parser("query")
    q.add_argument("name", help="query name from __ray_entry__.queries(), "
                   "or 'list'")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.add_argument("--limit", type=int, default=20)
    q.add_argument("--output", default=None,
                   help="write full result as parquet instead of printing")
    q.add_argument("--explain", action="store_true",
                   help="print the lazy execution plan without running")
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

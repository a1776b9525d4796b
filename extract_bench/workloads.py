"""Seeded workload inputs: the program under test sees only the parquet.

Every workload reads about 4,000 work units (input spans) for every seed,
and the same seed always gives the same inputs.

The default corpus mix has heavy-tailed PDF runs, so a plain sample of a
few hundred documents swings the work by over 10 % from seed to seed, and
with it every docs-per-second figure. The ``ocr_bound`` corpus is
therefore a stratified sample of ``generate_documents``: documents are
taken in index order, and each size class (units per document) is filled
to its share of a fixed reference sample of the same generator.
``resume_half`` resets every odd partition of that corpus, so each class
is also split evenly between odd and even partitions; the work a resumed
run redoes then stays the same for every seed too.
"""

from __future__ import annotations

import bisect
import functools
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_agent_ray.schema import DOCUMENTS_SCHEMA, MEDIA_KINDS
from ocr_agent_ray.sources.corpus import generate_documents
from ocr_agent_ray.stages.fanout import stable_doc_partition

WORKLOADS = ("ocr_bound", "text_heavy", "resume_half")

# Documents per corpus. Sized so one warm checkpointed run takes 1–5 s on
# a 4-vCPU box and a measuring window holds several runs. Text spans are
# about a quarter of the default mix's units, so text_heavy takes four
# times the documents to keep the unit count.
NUM_DOCS = {"ocr_bound": 400, "text_heavy": 1600, "resume_half": 400}

# Checkpoint partitions of every run (PipelineSettings.num_partitions).
NUM_PARTITIONS = 16

# Per-page wait of the GPU stand-in engine. On ocr_bound it puts the model
# floor (media units x PAGE_MS / actors) at a bit over half the run's wall.
PAGE_MS = {"ocr_bound": 1.0, "text_heavy": 0.0, "resume_half": 0.0}

# Size classes: a document with n units falls in class
# bisect_right(SIZE_EDGES, n). The top classes hold the heavy-tailed runs.
SIZE_EDGES = (5, 9, 13, 17, 25, 41, 101, 151)
REFERENCE_DOCS = 10_000  # generator sample (seed 0) the class shares come from


def units_per_doc(docs: pa.Table) -> list[int]:
    return pc.list_value_length(docs["spans"]).to_pylist()


@functools.lru_cache(maxsize=None)
def size_quotas(num_docs: int) -> tuple[int, ...]:
    """Documents per size class: each class's share of the reference
    sample x num_docs, largest remainders rounded up so the quotas sum to
    num_docs. The same for every seed."""
    counts = [0] * (len(SIZE_EDGES) + 1)
    for n in units_per_doc(generate_documents(REFERENCE_DOCS, seed=0)):
        counts[bisect.bisect_right(SIZE_EDGES, n)] += 1
    exact = [c * num_docs / REFERENCE_DOCS for c in counts]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: quotas[i] - exact[i])
    for i in by_remainder[:num_docs - sum(quotas)]:
        quotas[i] += 1
    return tuple(quotas)


def stratum(doc_id: str, units: int) -> tuple[int, int]:
    """(size class, partition parity) of a document."""
    return (bisect.bisect_right(SIZE_EDGES, units),
            stable_doc_partition(doc_id, NUM_PARTITIONS) % 2)


def _ocr_mix(seed: int, num_docs: int) -> pa.Table:
    """Stratified sample of the default ``write_corpus_parquet`` mix."""
    left = {}
    for size_class, quota in enumerate(size_quotas(num_docs)):
        left[size_class, 1] = quota // 2
        left[size_class, 0] = quota - quota // 2
    chunks: list[pa.Table] = []
    start = 0
    while any(left.values()):
        chunk = generate_documents(256, seed=seed, start=start)
        keep = []
        for i, (doc_id, n) in enumerate(zip(chunk["doc_id"].to_pylist(),
                                            units_per_doc(chunk))):
            key = stratum(doc_id, n)
            if left[key]:
                left[key] -= 1
                keep.append(i)
        chunks.append(chunk.take(pa.array(keep, pa.int64())))
        start += 256
    return pa.concat_tables(chunks)


def _text_heavy(seed: int, num_docs: int) -> pa.Table:
    """The default mix with its image and pdf_page spans dropped, offsets
    renumbered: no media, so no model time. Documents left without spans
    stay in the input and have no output."""
    rows = generate_documents(num_docs, seed=seed).to_pylist()
    for row in rows:
        row["spans"] = [s for s in row["spans"] if s["kind"] not in MEDIA_KINDS]
        for k, s in enumerate(row["spans"]):
            s["offset"] = k
    return pa.Table.from_pylist(rows, schema=DOCUMENTS_SCHEMA)


def make_documents(workload: str, seed: int, num_docs: int | None = None) -> pa.Table:
    """The workload's input documents for ``seed`` (deterministic)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    num_docs = num_docs or NUM_DOCS[workload]
    if workload == "text_heavy":
        return _text_heavy(seed, num_docs)
    return _ocr_mix(seed, num_docs)


def kind_counts(docs: pa.Table) -> dict[str, int]:
    kinds = pc.list_flatten(docs["spans"]).combine_chunks().field("kind")
    vc = pc.value_counts(kinds).to_pylist()
    return {row["values"]: int(row["counts"]) for row in vc}


def media_units(docs: pa.Table) -> int:
    counts = kind_counts(docs)
    return sum(counts.get(k, 0) for k in MEDIA_KINDS)


def write_documents(docs: pa.Table, path: str, num_files: int = 4) -> list[str]:
    """Write ``docs`` as a directory of parquet shards."""
    os.makedirs(path, exist_ok=True)
    per_file = -(-len(docs) // num_files)
    files = []
    for i, lo in enumerate(range(0, len(docs), per_file)):
        fp = os.path.join(path, f"docs-{i:03d}.parquet")
        pq.write_table(docs.slice(lo, per_file), fp)
        files.append(fp)
    return files

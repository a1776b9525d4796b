"""Stress datapoint for the round-4 curation extras (BASELINE.md).

boilerplate_strip over a planted multi-line corpus (default 200k docs
× 20 lines, 10% boilerplate lines per source): exercises the hash-only
wire + reassembly at line volume, verifies planted lines were stripped
and uniques survived.

Usage: python tools/curation_extras_stress.py [n_docs]
"""

from __future__ import annotations

import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")


def main() -> None:
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_agent_ray.pipelines.text import boilerplate_strip

    root = "/tmp/curation_stress"
    os.makedirs(root, exist_ok=True)
    n_sources = 50
    lines_per_doc = 20
    boiler_pool = [f"BOILER-{s}-{i}" for s in range(n_sources)
                   for i in range(10)]
    rows = []
    for d in range(n_docs):
        s = d % n_sources
        # rotate through the source's 10-line pool across its docs
        # (d // n_sources enumerates the docs WITHIN a source; d % 10
        # would be constant per source since d ≡ s mod n_sources)
        r = d // n_sources
        body = [f"uniq-{d}-{j}" for j in range(lines_per_doc - 2)]
        body.insert(3, boiler_pool[s * 10 + r % 10])
        body.insert(9, boiler_pool[s * 10 + (r + 3) % 10])
        rows.append((d, f"src{s}", "\n".join(body)))
    docs = pd.DataFrame(rows, columns=["doc_id", "source", "text"])
    docs["doc_id"] = docs["doc_id"].astype(np.int64)
    docs["n_chars"] = docs["text"].str.len().astype(np.int64)
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   f"{root}/documents.parquet", row_group_size=1 << 14)
    t0 = time.monotonic()
    out = boilerplate_strip(root, min_docs=2)
    stats = out.map_batches(
        lambda b: pd.DataFrame({
            "docs": [len(b)],
            "boiler": [int(b["n_boiler_lines"].sum())],
            "lines": [int(b["n_lines"].sum())]}),
        batch_format="pandas").to_pandas().sum()
    bp_sec = time.monotonic() - t0
    n_lines = n_docs * lines_per_doc
    assert stats["docs"] == n_docs
    assert stats["boiler"] == n_docs * 2, stats  # exactly the planted 2
    print(f"boilerplate: {n_docs} docs / {n_lines} lines -> "
          f"{stats['boiler']} stripped in {bp_sec:.2f} s "
          f"({n_lines / bp_sec / 1e3:.0f}k lines/s)")
    ray.shutdown()


if __name__ == "__main__":
    main()

"""Corpus profiling: the data card a dataset release ships with.

``corpus_report`` returns a tiny driver DataFrame; everything upstream
streams. Per-source stats fold as map-side partials (one row per batch),
and exact distinct counts reuse the bucketed distinct shuffle
(agg.distinct_rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ocr_agent_ray.sources.readers import read_table


def corpus_report(sf_dir: str) -> pd.DataFrame:
    """One-call corpus data card: per-source doc counts, length
    quantiles, mean quality score, exact-duplicate rate, and language
    mix — the summary a dataset release ships with. Composes the
    existing partial-fold operators (every stat streams; the report
    table is |sources| rows) and returns one wide DataFrame.

    Columns: source, n_docs, total_chars, median_chars, p90_chars,
    mean_quality, dup_rate, top_lang, top_lang_share."""
    from ocr_agent_ray.functions.textstats import (
        md5_fingerprint,
        quality_features,
        round_half_away,
    )
    from ocr_agent_ray.pipelines.agg import combine_partials_driver

    docs = read_table(sf_dir, "documents",
                      ["doc_id", "text", "lang", "source", "n_chars"])

    def _stats(batch: pd.DataFrame) -> pd.DataFrame:
        q = quality_features(batch["text"])["quality_score"]
        return pd.DataFrame({
            "source": batch["source"],
            "one": np.ones(len(batch), dtype=np.int64),
            "n_chars": batch["n_chars"],
            "quality": q.to_numpy(dtype=np.float64),
            "fingerprint": md5_fingerprint(batch["text"]),
            "lang": batch["lang"],
        })

    keyed = docs.map_batches(_stats, batch_format="pandas",
                             batch_size=65536).materialize()

    base = combine_partials_driver(
        keyed, ["source"],
        {"n_docs": ("one", "sum"), "total_chars": ("n_chars", "sum"),
         "q_sum": ("quality", "sum")})

    # exact-dup rate per source: bucketed GLOBAL distinct of
    # (source, fingerprint) — the distinct set never gathers on the
    # driver; only the per-source counts (|sources| rows) do
    from ocr_agent_ray.pipelines.agg import distinct_rows

    fp_pairs = distinct_rows(keyed, ["source", "fingerprint"],
                             num_buckets=16)
    n_distinct = combine_partials_driver(
        fp_pairs, ["source"], {"n_distinct": ("fingerprint", "count")})

    langs = combine_partials_driver(
        keyed, ["source", "lang"], {"n": ("lang", "count")})
    top_lang = (langs.sort_values(["source", "n", "lang"],
                                  ascending=[True, False, True])
                .drop_duplicates("source")
                .rename(columns={"lang": "top_lang", "n": "top_n"}))

    # exact per-source length quantiles (same shape as
    # chars_quantiles_by_source)
    def _q(g: pd.DataFrame) -> pd.DataFrame:
        v = g["n_chars"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "median_chars": [float(round_half_away(np.quantile(v, 0.5), 6))],
            "p90_chars": [float(round_half_away(np.quantile(v, 0.9), 6))],
        })

    from ocr_agent_ray.pipelines.exchange import grouped_map_groups

    quants = grouped_map_groups(keyed, _q, key_col="source",
                                num_buckets=8).to_pandas()

    out = (base.merge(n_distinct, on="source")
           .merge(quants, on="source")
           .merge(top_lang[["source", "top_lang", "top_n"]], on="source"))
    out["mean_quality"] = round_half_away(
        (out["q_sum"] / out["n_docs"]).to_numpy(), 6)
    out["dup_rate"] = round_half_away(
        (1.0 - out["n_distinct"] / out["n_docs"]).to_numpy(), 6)
    out["top_lang_share"] = round_half_away(
        (out["top_n"] / out["n_docs"]).to_numpy(), 6)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_chars"] = out["total_chars"].astype("int64")
    cols = ["source", "n_docs", "total_chars", "median_chars", "p90_chars",
            "mean_quality", "dup_rate", "top_lang", "top_lang_share"]
    return out[cols].sort_values("source").reset_index(drop=True)

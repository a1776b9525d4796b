"""Join strategies for Ray Data pipelines.

The reference has no join operator (SURVEY.md §2.4) — its closest lookup is
the watch-folder marker check, semantically an anti-join of work against a
completed set. At 100 TB the join strategy is the difference between a
broadcast lookup and an all-to-all shuffle, so each is explicit here:

- ``broadcast_join``: small side pinned ONCE in the object store via
  ``ray.put`` and merged per batch — no shuffle; the default for dimension
  tables. The object store ships the table to each worker node once.
- ``broadcast_semi_filter``: semi/anti join as a vectorized membership
  filter against a broadcast key set (the resume anti-join pattern,
  state/checkpoint.py).
- ``bucket_hash_join``: both sides large → explicit partitioned hash join:
  add ``bucket = stable_hash(key) % B`` to both sides, align to a common
  Arrow schema (typed nulls for the absent side), union, groupby(bucket),
  pandas-merge each bucket inside ``map_groups``. One union + one shuffle.
  B bounds join parallelism; salt hot keys into sub-buckets upstream if a
  single key dominates.
- Ray's native ``Dataset.join`` (hash shuffle) exists in this version; the
  explicit variants stay because their shuffle shape is documented,
  deterministic and portable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def hash_str_stable(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big") >> 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (x ^ (x >> np.uint64(31))) >> np.uint64(1)


def stable_bucket_array(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Stable (cross-process, version-independent) hash bucket per value.

    Integers: vectorized splitmix64 finalizer. Strings: blake2b per value
    (python hash() is salted per process and unusable for partitioning).
    """
    if pa.types.is_integer(col.type):
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.array((_splitmix64(v) % np.uint64(num_buckets)).astype(np.int32))
    return pa.array(
        np.fromiter(
            (hash_str_stable(str(v)) % num_buckets for v in col.to_pylist()),
            dtype=np.int32,
            count=len(col),
        )
    )


_NULLABLE_INTS = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
}


def _exact_pandas(table: pa.Table) -> pd.DataFrame:
    """Arrow → pandas with integer columns as pandas nullable integers:
    a merge's null fill then keeps them exact instead of upcasting them
    to float64, which rounds values above 2^53."""
    return table.to_pandas(types_mapper=_NULLABLE_INTS.get)


def _typed_table(df: pd.DataFrame, cols: list[str], types: dict[str, pa.DataType],
                 schema: pa.Schema) -> pa.Table:
    """pandas → Arrow with the declared per-column types (list columns
    kept as lists)."""
    return pa.Table.from_arrays(
        [pa.Array.from_pandas(df[c], type=types[c]) for c in cols],
        schema=schema)


def broadcast_join(ds, small: pd.DataFrame, on: str | list[str], how: str = "inner"):
    """Map-side join: ``small`` enters the object store once; every batch
    does a local pandas merge. No shuffle."""
    import ray

    ref = ray.put(small)

    def _merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(ref), on=on, how=how)

    return ds.map_batches(_merge, batch_format="pandas")


def broadcast_semi_filter(ds, keys, column: str, keep: bool = True):
    """Semi (keep=True) / anti (keep=False) join as a membership filter."""
    value_set = pa.array(sorted(set(keys)))

    def _filter(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[column], value_set=value_set)
        return batch.filter(mask if keep else pc.invert(mask))

    return ds.map_batches(_filter, batch_format="pyarrow")


def _arrow_schema_of(ds) -> pa.Schema:
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    # PandasBlockSchema (names + numpy dtypes) from pandas-producing stages
    fields = []
    for name, dtype in zip(base.names, base.types):
        if isinstance(dtype, pa.DataType):
            fields.append(pa.field(name, dtype))
        elif str(dtype) == "object":
            fields.append(pa.field(name, pa.string()))
        else:
            fields.append(pa.field(name, pa.from_numpy_dtype(dtype)))
    return pa.schema(fields)


def bucket_hash_join(left, right, *, on: str, num_buckets: int = 16,
                     how: str = "inner", left_cols=None, right_cols=None,
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None,
                     prep_batch_size: int = 32768):
    """Explicit partitioned hash join of two large Datasets (see module doc).

    Pass ``left_schema``/``right_schema`` when a side is a lazy pipeline:
    ``ds.schema()`` executes enough of the plan to infer it, which would run
    the upstream stages twice.
    """
    lschema = left_schema if left_schema is not None else _arrow_schema_of(left)
    rschema = right_schema if right_schema is not None else _arrow_schema_of(right)
    left_cols = list(left_cols or lschema.names)
    right_cols = list(right_cols or rschema.names)
    if on not in left_cols:
        left_cols.insert(0, on)
    if on not in right_cols:
        right_cols.insert(0, on)

    types: dict[str, pa.DataType] = {}
    for name in left_cols:
        types[name] = lschema.field(name).type
    for name in right_cols:
        types.setdefault(name, rschema.field(name).type)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    target = pa.schema(
        [pa.field(c, types[c]) for c in all_cols]
        + [pa.field("__bucket", pa.int32()), pa.field("__side", pa.string())]
    )

    def _prep(side: str, cols: list[str]):
        def _fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            arrays = []
            for c in all_cols:
                if c in cols:
                    arrays.append(batch[c].cast(types[c]))
                else:
                    arrays.append(pa.nulls(n, types[c]))
            arrays.append(stable_bucket_array(batch[on].combine_chunks(), num_buckets))
            arrays.append(pa.array([side] * n, pa.string()))
            return pa.Table.from_arrays(arrays, schema=target)

        return _fn

    # coarse prep batches: the sort-based groupby below pays a fixed
    # per-block cost, so feed it few fat blocks, not one per small task
    lt = left.select_columns(left_cols).map_batches(
        _prep("l", left_cols), batch_format="pyarrow", batch_size=prep_batch_size)
    rt = right.select_columns(right_cols).map_batches(
        _prep("r", right_cols), batch_format="pyarrow", batch_size=prep_batch_size)
    both = lt.union(rt)

    out_schema = pa.schema([pa.field(c, types[c]) for c in all_cols])

    def _join_bucket(g: pa.Table) -> pa.Table:
        # split the sides in Arrow (in the union, one side's columns are
        # null on the other side's rows) and merge on nullable integers,
        # so neither the union nor a left/outer null fill rounds int64
        is_left = pc.equal(g["__side"], "l")
        lhs = _exact_pandas(g.filter(is_left).select(left_cols))
        rhs = _exact_pandas(g.filter(pc.invert(is_left)).select(right_cols))
        merged = lhs.merge(rhs, on=on, how=how, suffixes=("_l", "_r"))
        # emit Arrow with the declared join types: Ray would re-encode
        # list-of-array object columns as its tensor extension struct,
        # breaking downstream list casts.
        return _typed_table(merged, all_cols, types, out_schema)

    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    return bucket_map_groups(both, _join_bucket, bucket_col="__bucket",
                             num_buckets=num_buckets, batch_format="pyarrow")


def skew_join(left, right, *, on: str, num_buckets: int = 16,
              how: str = "inner",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None,
              hot_keys=None, hot_share: float = 0.05,
              sample_rows: int = 100_000):
    """Skew-aware large-large join — the 'salt hot keys' strategy.

    A plain bucketed hash join routes every row of a key to ONE bucket, so
    a key holding 50% of the left side serializes half the join in one
    reducer. Here hot keys take the broadcast path instead: their (few,
    bounded) right-side rows pin in the object store once and every
    left-side batch merges map-side — hot keys cost zero shuffle — while
    the remaining cold keys run the normal bucket_hash_join. The two
    streams union.

    ``hot_keys``: pass explicitly when known; otherwise detected from a
    bounded ``sample_rows``-row prefix of the left side (keys with sampled
    share ≥ ``hot_share``). Assumes the RIGHT side's rows for the hot keys
    fit the object store (the classic case: a popular dimension value) —
    a hot key that is also heavy on the right needs pair-blowup handling
    no join strategy fixes. ``how``: 'inner' or 'left'."""
    if how not in ("inner", "left"):
        raise ValueError("skew_join supports how='inner'|'left'")

    lschema = left_schema if left_schema is not None else _arrow_schema_of(left)
    rschema = right_schema if right_schema is not None else _arrow_schema_of(right)

    if hot_keys is None:
        sample = left.limit(sample_rows).select_columns([on]).to_pandas()
        counts = sample[on].value_counts(normalize=True)
        hot_keys = list(counts[counts >= hot_share].index)
    hot_keys = list(hot_keys)
    if not hot_keys:
        return bucket_hash_join(left, right, on=on, num_buckets=num_buckets,
                                how=how, left_schema=lschema,
                                right_schema=rschema)

    key_set = pa.array(sorted(set(hot_keys)))

    def _split(ds, keep_hot: bool):
        def _f(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch[on], value_set=key_set)
            return batch.filter(mask if keep_hot else pc.invert(mask))

        return ds.map_batches(_f, batch_format="pyarrow")

    # hot path: right-side hot rows are bounded by assumption -> broadcast
    # (as nullable integers, so a left join's null fill stays exact)
    import ray

    hot_tables = ray.get(_split(right, True).to_arrow_refs())
    right_hot = _exact_pandas(
        pa.concat_tables(hot_tables, promote_options="default")
        if hot_tables else rschema.empty_table())
    hot_out = broadcast_join(_split(left, True), right_hot, on=on, how=how)

    # align the broadcast output to the join's typed Arrow schema so the
    # union's blocks agree (pandas would re-infer dtypes per batch)
    types: dict[str, pa.DataType] = {}
    all_cols: list[str] = []
    for f in list(lschema) + list(rschema):
        if f.name not in types:
            types[f.name] = f.type
            all_cols.append(f.name)
    out_schema = pa.schema([pa.field(c, types[c]) for c in all_cols])

    def _retype(batch: pd.DataFrame) -> pa.Table:
        return _typed_table(batch, all_cols, types, out_schema)

    hot_out = hot_out.map_batches(_retype, batch_format="pandas")

    cold_out = bucket_hash_join(
        _split(left, False), _split(right, False), on=on,
        num_buckets=num_buckets, how=how,
        left_schema=lschema, right_schema=rschema,
    )
    return hot_out.union(cold_out)


def bucket_anti_join(left, right_keys, *, on: str, num_buckets: int = 16,
                     left_schema: pa.Schema | None = None,
                     prep_batch_size: int = 32768):
    """Large-large ANTI join: left rows with NO matching key in
    ``right_keys`` — the scale path every broadcast anti-filter docstring
    promises for when the exclusion-key set outgrows the object store.
    Both sides bucket by the key hash (right side reduced to its key
    column first, so the wire carries keys, not rows) and each bucket
    drops left rows via one vectorized isin. Partitioning assumption:
    identical keys co-locate — true by construction of the hash."""
    return _bucket_membership_join(left, right_keys, on=on, keep=False,
                                   num_buckets=num_buckets,
                                   left_schema=left_schema,
                                   prep_batch_size=prep_batch_size)


def _bucket_membership_join(left, right_keys, *, on: str, keep: bool,
                            num_buckets: int = 16,
                            left_schema: pa.Schema | None = None,
                            prep_batch_size: int = 32768):
    lschema = left_schema if left_schema is not None else _arrow_schema_of(left)
    left_cols = list(lschema.names)
    if on not in left_cols:
        raise ValueError(f"{on!r} not in left columns {left_cols}")
    types = {c: lschema.field(c).type for c in left_cols}
    target = pa.schema(
        [pa.field(c, types[c]) for c in left_cols]
        + [pa.field("__bucket", pa.int32()), pa.field("__side", pa.string())]
    )
    def _prep(side: str):
        def _fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            arrays = []
            for c in left_cols:
                if c in batch.column_names:
                    arrays.append(batch[c].cast(types[c]))
                else:
                    arrays.append(pa.nulls(n, types[c]))
            arrays.append(stable_bucket_array(batch[on].combine_chunks(),
                                              num_buckets))
            arrays.append(pa.array([side] * n, pa.string()))
            return pa.Table.from_arrays(arrays, schema=target)

        return _fn

    keys_only = right_keys.map_batches(
        lambda b: b.select([on]) if on in b.column_names
        else b.rename_columns([on]),
        batch_format="pyarrow", batch_size=prep_batch_size)
    lt = left.map_batches(_prep("l"), batch_format="pyarrow",
                          batch_size=prep_batch_size)
    rt = keys_only.map_batches(_prep("r"), batch_format="pyarrow",
                               batch_size=prep_batch_size)

    def _membership_bucket(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g["__side"], "l")
        lhs = g.filter(is_left).select(left_cols)
        member = pc.is_in(lhs[on], value_set=g.filter(pc.invert(is_left))[on]
                          .combine_chunks())
        return lhs.filter(member if keep else pc.invert(member))

    from ocr_agent_ray.pipelines.exchange import bucket_map_groups

    return bucket_map_groups(lt.union(rt), _membership_bucket,
                             bucket_col="__bucket", num_buckets=num_buckets,
                             batch_format="pyarrow")


def bucket_semi_join(left, right_keys, *, on: str, num_buckets: int = 16,
                     left_schema: pa.Schema | None = None,
                     prep_batch_size: int = 32768):
    """Large-large SEMI join: left rows WITH a matching key in
    ``right_keys`` — the scale sibling of bucket_anti_join (same
    co-bucketed key exchange, keys-only right side, one vectorized isin
    per bucket, membership kept instead of dropped)."""
    return _bucket_membership_join(left, right_keys, on=on, keep=True,
                                   num_buckets=num_buckets,
                                   left_schema=left_schema,
                                   prep_batch_size=prep_batch_size)

"""One top-k kernel for every per-group and sampled top-k.

``top_k(ds, order, k, by=None, rank=None, project=None)`` keeps the
first ``k`` rows in ``order``, over the whole dataset or per ``by``
value. ``order`` is a ``pa.Table.sort_by``-style ``[(column,
"ascending" | "descending"), ...]`` whose last key breaks ties uniquely,
so the result never depends on how rows were split into blocks. ``k``
is an int, a ``{group value: k}`` quota mapping (an absent key means 0)
or ``None``: rank every row with no cut.

Ray shape: a per-batch ``cut`` (a combiner: at most ``k`` rows per
group leave any block, so the shuffle moves survivors, never the
corpus), then the final cut: without ``by`` one sort of the survivors
and ``limit(k)``; with ``by``, ``groupby(by).map_groups`` runs ``cut``
again per group, numbers the kept rows 1..k in an int64 ``rank`` column
when asked, and applies the caller's ``project`` (table -> table) in
the same map.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from clonehunter_ray.functions.hashing import run_ranks


def cut(table: pa.Table, order, k, by=None, rank=None) -> pa.Table:
    """The first ``k`` rows of ``table`` in ``order`` (per ``by``
    value), in that order: one stable Arrow ``sort_indices``, then
    ``run_ranks`` over the dictionary codes of the sorted ``by``."""
    keys = list(order) if by is None else [(by, "ascending"), *order]
    idx = pc.sort_indices(table, sort_keys=keys).to_numpy()
    limit = k
    if by is None:
        pos = np.arange(len(idx), dtype=np.int64)
    else:
        groups = pc.dictionary_encode(
            table[by].take(idx).combine_chunks(), null_encoding="encode"
        )
        codes = groups.indices.to_numpy(zero_copy_only=False)
        pos = run_ranks(codes)
        if isinstance(k, Mapping):
            quota = [k.get(v, 0) for v in groups.dictionary.to_pylist()]
            limit = np.array(quota, dtype=np.int64)[codes]
    if limit is not None:
        keep = pos < limit
        idx, pos = idx[keep], pos[keep]
    out = table.take(pa.array(idx, pa.int64()))
    if rank is not None:
        out = out.append_column(rank, pa.array(pos + 1, pa.int64()))
    return out


def top_k(ds, order, k, by=None, rank=None, project=None):
    """Top-``k`` of a Dataset (see the module docstring); ``rank`` and a
    quota mapping need ``by``.

    With a finite ``k`` the result is bounded and comes back
    materialized; an empty one is typed from ``ds``'s schema through
    the same cut and ``project``, because Ray's exchanges emit
    zero-column blocks for empty partitions and skip map UDFs on empty
    blocks. A ``k=None`` ranking is as large as its input and stays
    lazy."""
    if by is None and (rank is not None or k is None or isinstance(k, Mapping)):
        raise ValueError("top_k without `by` takes an int k and no rank")

    def final(table: pa.Table) -> pa.Table:
        out = cut(table, order, k, by, rank)
        return out if project is None else project(out)

    if k is None:
        return ds.groupby(by).map_groups(final, batch_format="pyarrow")
    kept = ds.map_batches(
        partial(cut, order=order, k=k, by=by), batch_format="pyarrow"
    )
    if by is not None:
        out = kept.groupby(by).map_groups(final, batch_format="pyarrow")
    else:
        out = kept.sort(
            [c for c, _ in order],
            descending=[d == "descending" for _, d in order],
        ).limit(k)
        if project is not None:
            out = out.map_batches(project, batch_format="pyarrow")
    out = out.materialize()
    schema = ds.schema() if out.count() == 0 else None
    if schema is not None:
        empty = pa.schema(list(zip(schema.names, schema.types))).empty_table()
        return ray.data.from_arrow(final(empty))
    return out

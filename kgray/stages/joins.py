"""Distributed join operators (SURVEY.md §2.4).

The reference has no relational join — its "joins" are per-record HTTP
lookups (S4, ST1-ST3 at get_updates.py:668-881).  The engine provides the
two scale-shaped join families:

* ``broadcast_join`` — small-side hash join: the dim table is materialized
  once in the calling process (small by contract), its keys are checked
  unique there, and it is shipped to the object store ONCE via
  ``ray.put``; each probe call reads it back zero-copy.  No shuffle, no
  actor pool; the fact side streams.  This is the alias-table pattern of
  SURVEY.md §2.4 generalized.
* ``hash_semi_join`` / ``hash_anti_join`` — big-big existence joins on
  Ray Data's native hash-shuffle join, with the right side first reduced to
  DISTINCT keys by a per-batch combiner so only unique keys pay exchange
  cost.  (The snapshot diff is not a join: stages/diff.py runs the bucket
  exchange of stages/shuffle.py.)
"""

from __future__ import annotations

from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc
import ray

# Reduce width of every native hash-shuffle join.  Small for test-scale
# tables (a 32-way exchange of 100k rows is per-partition overhead, measured
# 4x slower in the bench); at cluster scale it should follow data volume /
# target partition bytes (several x cluster cores).
JOIN_PARTITIONS = 8
# Probe batch rows of every broadcast join.
BROADCAST_BATCH = 65536


def _materialize_small(dim, columns: Sequence[str]) -> pa.Table:
    """Driver-side materialize of a SMALL dataset (dims: region/nation/...).
    Deliberate: broadcast joins only make sense when one side fits in one
    object; big-big joins go through hash_semi/anti or Dataset.join."""
    if isinstance(dim, pa.Table):
        return dim.select(list(columns))
    refs = dim.select_columns(list(columns)).to_arrow_refs()
    return pa.concat_tables([ray.get(r) for r in refs])


def broadcast_join(facts, dim, *, on: str, right_on: str | None = None,
                   dim_cols: Sequence[str]):
    """facts ⋈ small-dim via object-store broadcast (no shuffle): an inner
    join.  ``dim`` may be a Dataset or a pyarrow Table; ``dim_cols`` are the
    dim columns appended to each matching fact row."""
    right_on = right_on or on
    dim_cols = list(dim_cols)
    table = _materialize_small(dim, [right_on, *dim_cols]).combine_chunks()
    # pc.index_in returns the FIRST matching dim row; a dim with duplicate
    # keys would silently join arbitrary values — fail loudly instead
    n_unique = len(pc.unique(table[right_on]))
    if n_unique != len(table):
        raise ValueError(f"broadcast_join dim has duplicate '{right_on}' keys "
                         f"({len(table)} rows, {n_unique} distinct)")
    dim_ref = ray.put(table)

    def probe(batch: pa.Table) -> pa.Table:
        """Fully vectorized: ``pc.index_in`` for the gather index, its
        validity for the inner-join mask, ``take`` for the dim columns,
        which keeps their declared types, so an all-miss or zero-row
        batch has the same schema as every other."""
        dim = ray.get(dim_ref)
        idx = pc.index_in(batch[on], value_set=dim[right_on])
        valid = pc.is_valid(idx)
        batch = batch.filter(valid)
        idx = idx.filter(valid)
        for c in dim_cols:
            batch = batch.append_column(c, dim[c].take(idx))
        return batch

    return facts.map_batches(probe, batch_format="pyarrow", batch_size=BROADCAST_BATCH)


def distinct_keys(ds, key: str):
    """Reduce a dataset to its unique key values: per-batch combiner (local
    ``pyarrow`` group_by) so only unique keys cross the wire, then the global
    distinct happens inside the downstream hash join / groupby."""

    def local(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({key: batch[key]}).group_by(key).aggregate([])

    return ds.map_batches(local, batch_format="pyarrow")


def hash_semi_join(left, right, *, on: str):
    """Rows of ``left`` whose key appears in ``right`` (one hash exchange)."""
    return left.join(distinct_keys(right, on), join_type="left_semi",
                     num_partitions=JOIN_PARTITIONS, on=(on,))


def hash_anti_join(left, right, *, on: str):
    """Rows of ``left`` whose key does NOT appear in ``right``."""
    return left.join(distinct_keys(right, on), join_type="left_anti",
                     num_partitions=JOIN_PARTITIONS, on=(on,))

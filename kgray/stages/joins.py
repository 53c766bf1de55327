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
* ``equi_join`` — big-big inner, left-semi and left-anti joins on the
  engine's one exchange (stages/shuffle.bucket_groupby): both sides
  side-tagged on one shared schema, one exchange on the key, one Arrow
  ``Table.join`` per partition.  A semi or anti join's right side ships
  only its per-block distinct keys.  (The snapshot diff is not a join:
  stages/diff.py runs ``shuffle.bucket_aggregate`` on the same exchange.)
"""

from __future__ import annotations

from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .shuffle import bucket_groupby

# Probe batch rows of every broadcast join.
BROADCAST_BATCH = 65536
# equi_join's side tag, diff.tag_side's convention: int8, 1 left, 2 right
_SIDE = "__side"
_JOIN_TYPES = ("inner", "left semi", "left anti")


def _materialize_small(dim, columns: Sequence[str]) -> pa.Table:
    """Driver-side materialize of a SMALL dataset (dims: region/nation/...).
    Deliberate: broadcast joins only make sense when one side fits in one
    object; big-big joins go through equi_join."""
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


def _arrow_schema(ds) -> pa.Schema:
    s = ds.schema()
    return pa.schema(zip(s.names, s.types))


def equi_join(left, right, *, on: str, right_on: str | None = None,
              join_type: str):
    """``left`` joined with ``right`` on ``left.on = right.right_on``
    (``right_on`` defaults to ``on``), ``join_type`` one of Arrow's
    ``"inner"``, ``"left semi"`` and ``"left anti"``, with SQL's null rule:
    a null key matches nothing, so a left-anti join keeps the left rows
    whose key is null (``NOT EXISTS``).  Output columns are ``left``'s,
    then for an inner join ``right``'s other columns; the key is under
    ``on`` alone.

    One exchange: each side is projected onto one shared schema at tag
    time (the key under ``on``, cast to ``left``'s key type, each side's
    other columns, nulls in the other side's) with an int8 ``__side``, 1
    left and 2 right; a semi or anti join's right side is only its
    distinct keys per block.  ``bucket_groupby`` on the key takes both
    tagged sides (each side's bucket hash fuses into its tag map) and
    co-locates them, and each partition runs one ``Table.join`` of its two
    sides.
    The shared schema keeps a partition that holds one side only in the
    same columns as every other, which a union of differing schemas does
    not.  Non-key column names that clash between the sides raise
    ``ValueError``.  The schemas are read at build time: free on a read,
    one block's execution on a mapped Dataset (``Dataset.schema``)."""
    if join_type not in _JOIN_TYPES:
        raise ValueError(f"join_type must be one of {_JOIN_TYPES}, "
                         f"not {join_type!r}")
    right_on = right_on or on
    lschema = _arrow_schema(left)
    lcols = lschema.names
    rfields = ([f for f in _arrow_schema(right) if f.name != right_on]
               if join_type == "inner" else [])
    rrest = [f.name for f in rfields]
    names = [*lcols, *rrest, _SIDE]
    if len(set(names)) < len(names):
        clash = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"equi_join: column names on both sides: {clash}")
    fields = [*lschema, *rfields]
    shared = pa.schema([*fields, pa.field(_SIDE, pa.int8())])

    def tagger(side: int, cols: dict):
        """One side's tag map: ``cols`` maps each of its shared columns to
        the input column that fills it."""
        def tag(batch: pa.Table) -> pa.Table:
            if side == 2 and join_type != "inner":
                batch = batch.group_by(right_on, use_threads=False).aggregate([])
            n = len(batch)
            return pa.Table.from_arrays(
                [batch[cols[f.name]].cast(f.type) if f.name in cols
                 else pa.nulls(n, f.type) for f in fields]
                + [pa.repeat(pa.scalar(side, pa.int8()), n)],
                schema=shared)
        return tag

    def join(part: pa.Table) -> pa.Table:
        side = part[_SIDE]
        lhs = part.filter(pc.equal(side, 1)).select(lcols)
        rhs = part.filter(pc.equal(side, 2)).select([on, *rrest])
        return lhs.join(rhs, keys=on, join_type=join_type, use_threads=False)

    ltag = left.map_batches(tagger(1, {c: c for c in lcols}),
                            batch_format="pyarrow")
    rtag = right.map_batches(
        tagger(2, {on: right_on, **{c: c for c in rrest}}),
        batch_format="pyarrow")
    return bucket_groupby(ltag, rtag, keys=[on], fn=join)

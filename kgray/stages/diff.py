"""Snapshot diff stage: old-vs-new triple sets -> INSERT/DELETE ops
(SURVEY.md §2.4/§2.7 — the ``ttl_compare.diff_ttls`` analog).

The reference computes ``g_new - g_old`` / ``g_old - g_new`` with rdflib set
difference in memory (ttl_compare.py:168-183).  Distributed, that is a
hash anti-join in both directions, expressed as ONE exchange with no
per-group Python:

    union(old tagged side=1, new tagged side=2)
      -> per-batch combiner: collapse to one (key cols, side) row per batch
      -> hash-bucket exchange (stages/shuffle.py) -> per-bucket Arrow
         group_by min/max of side
      -> vectorized projection: min==max==2 -> INSERT (new only),
         min==max==1 -> DELETE (old only), min<max -> unchanged (dropped)

    (The bucket exchange — not ``groupby(keys).aggregate`` — because the key
    cardinality is the triple count; see stages/shuffle.py.)

An absent old side degenerates to pure INSERTs, matching the
``old_revision_id == 0`` shortcut (ttl_compare.py:339-340).  The owl /
foreign-subject filters (M17, ttl_compare.py:211-228) are applied before the
shuffle so filtered rows never pay exchange cost.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import TRIPLE_KEY

KEY_COLS = ("entity", *TRIPLE_KEY)


def filter_triples(batch: pa.Table) -> pa.Table:
    """M17 filters: drop /owl# triples, foreign wd:Q* subjects, wd:P* subjects
    (ttl_compare.py:211-228) — vectorized boolean masks."""
    subj = batch["subj"]
    owl = pc.or_(
        pc.match_substring(subj, "/owl#"),
        pc.or_(
            pc.match_substring(batch["pred"], "/owl#"),
            pc.match_substring(batch["obj"], "/owl#"),
        ),
    )
    wd_p = pc.starts_with(subj, "wd:P")
    own = pc.binary_join_element_wise("wd:", batch["entity"], "")
    foreign = pc.and_(pc.starts_with(subj, "wd:Q"), pc.not_equal(subj, own))
    keep = pc.invert(pc.or_(pc.or_(owl, wd_p), foreign))
    return batch.filter(keep)


def _tag_side(side: int):
    def fn(batch: pa.Table) -> pa.Table:
        batch = filter_triples(batch)
        # local combiner: one row per key per batch, constant side column
        t = (
            batch.select(list(KEY_COLS))
            .group_by(list(KEY_COLS), use_threads=False)
            .aggregate([])
        )
        return t.append_column(
            "side", pa.repeat(pa.scalar(side, pa.int8()), len(t)))

    return fn


def diff_snapshots(old, new):
    """old/new schema.SNAPSHOT Datasets (the side tag is added here as
    int8) -> ops Dataset with columns (``KEY_COLS``..., op), which
    ``serialize_stage`` renders as-is.

    ``old`` may be None (no prior snapshot -> pure INSERTs).
    """
    from .shuffle import bucket_groupby

    if old is None:
        tagged = new.map_batches(_tag_side(2), batch_format="pyarrow")
    else:
        tagged = old.map_batches(_tag_side(1), batch_format="pyarrow").union(
            new.map_batches(_tag_side(2), batch_format="pyarrow")
        )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        g = (
            t.group_by(list(KEY_COLS), use_threads=False)
            .aggregate([("side", "min"), ("side", "max")])
            .rename_columns(list(KEY_COLS) + ["side_min", "side_max"])
        )
        g = g.filter(pc.equal(g["side_min"], g["side_max"]))
        op = pc.if_else(
            pc.equal(g["side_min"], 2), pa.scalar("INSERT"), pa.scalar("DELETE")
        )
        return g.drop_columns(["side_min", "side_max"]).append_column("op", op)

    return bucket_groupby(tagged, KEY_COLS, reduce_bucket)

"""Snapshot diff stage: old-vs-new triple sets -> INSERT/DELETE ops
(SURVEY.md §2.4/§2.7 — the ``ttl_compare.diff_ttls`` analog).

The reference computes ``g_new - g_old`` / ``g_old - g_new`` with rdflib set
difference in memory (ttl_compare.py:168-183).  Distributed, that is a
hash anti-join in both directions, expressed as ONE exchange with no
per-group Python (``set_diff``, which ``relational.diff_ops`` shares):

    old tagged side=1, new tagged side=2 (``tag_side``)
      -> shuffle.bucket_aggregate(both sides, keys, min/max of side): a
         per-block Arrow group_by combiner and the bucket tag on each
         side (fused into that side's TTL parse), their union, the bucket
         exchange (one range of whole buckets per cluster CPU, no sample
         pass), the same group_by per partition as the merge
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


def tag_side(ds, side: int, keys):
    """``ds``'s ``keys`` columns and an int8 ``side``: one side of a
    ``set_diff`` (old 1, new 2)."""
    keys = list(keys)

    def fn(batch: pa.Table) -> pa.Table:
        return batch.select(keys).append_column(
            "side", pa.repeat(pa.scalar(side, pa.int8()), len(batch)))

    return ds.map_batches(fn, batch_format="pyarrow")


def set_diff(*tagged, keys):
    """Set difference in both directions on ``keys``, over Datasets whose
    rows carry ``keys`` and an int8 ``side`` (1 old, 2 new; ``tag_side``,
    or one stream holding both sides): ``bucket_aggregate`` over them
    takes min and max of ``side`` per key.  Output columns are ``keys``
    then ``op``, one row per key found on one side only (min == max):
    INSERT (2) or DELETE (1); keys on both sides drop, and duplicates
    within a side collapse.  With no side 1 rows every key is an
    INSERT."""
    from .shuffle import bucket_aggregate

    keys = list(keys)

    def project(g: pa.Table) -> pa.Table:
        g = g.filter(pc.equal(g["side_min"], g["side_max"]))
        op = pc.if_else(pc.equal(g["side_min"], 2),
                        pa.scalar("INSERT"), pa.scalar("DELETE"))
        return g.select(keys).append_column("op", op)

    return bucket_aggregate(*tagged, keys=keys,
                            aggs={"side_min": ("side", "min"),
                                  "side_max": ("side", "max")}
                            ).map_batches(project, batch_format="pyarrow")


def diff_snapshots(old, new):
    """old/new schema.SNAPSHOT Datasets -> ops Dataset with columns
    (``KEY_COLS``..., op), which ``serialize_stage`` renders as-is: the
    M17 filters and ``tag_side`` on each side, then ``set_diff`` on
    ``KEY_COLS``.

    ``old`` may be None (no prior snapshot -> pure INSERTs).
    """
    return set_diff(*(
        tag_side(ds.map_batches(filter_triples, batch_format="pyarrow"),
                 side, KEY_COLS)
        for ds, side in ((old, 1), (new, 2)) if ds is not None),
        keys=KEY_COLS)

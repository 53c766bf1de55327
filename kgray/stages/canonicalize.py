"""Canonicalize stage: exact triple dedup with a local combiner (SURVEY.md
§2.5 A4, §2.7).

The reference gets set semantics for free from ``rdflib.Graph`` on a single
machine (ttl_compare.py:168-183).  At scale that is a distributed distinct:

  1. **local pre-dedup** inside ``map_batches`` — the combiner that cuts
     shuffle volume before any exchange, per SURVEY.md §4;
  2. **global dedup** via the hash-bucket exchange (stages/shuffle.py): ONE
     shuffle keyed on a bounded bucket id, then the same local dedup over
     each key-complete partition.

Both passes run one kernel, ``local_dedup``: a single-threaded polars
survivor pick over the 9 OPS columns.  Polars compares full keys on a hash
hit, so the dedup is exact by construction.  Rejected shapes: Ray's
``groupby(keys).aggregate(Min)`` (per-ROW Python accumulation, 36-77 s at
sf0.1), ``map_groups(first)`` (one interpreter call per unique triple), and
Arrow ``sort_by`` + ``group_by(keys).aggregate(first)`` (3x polars on a
161k-row table).

The dedup identity is ``op`` plus the triple identity
``schema.TRIPLE_KEY``; ``src_url``/``warc_ts`` are lineage, not
identity, and the survivor is the lexicographically (warc_ts, src_url)-
smallest ROW per key — deterministic across reruns and partitionings,
which is what checkpoint-resume and the P/R comparison need.  Head-entity
skew inflates duplicate counts of a few triples; the local combiner
collapses those before the exchange, so no salting is needed here (salting
applies to per-entity aggregations, e.g. relational.salted_groupby).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schema import TRIPLE_KEY
from .shuffle import BUCKET_COL, NUM_BUCKETS, _hash_key, exchange_map

# after .shuffle, which sets POLARS_MAX_THREADS before the process's first
# polars import
import polars as pl

KEY_COLS = ("op", *TRIPLE_KEY)
LINEAGE_COLS = ("warc_ts", "src_url")


def local_dedup(batch: pa.Table) -> pa.Table:
    """One row per triple key: the (warc_ts, src_url)-smallest, ties to the
    earliest row, survivors in input order.  Input order is part of the
    contract: the materialize sort is stable, so the order survivors leave
    in is the order of rows that tie on (pred, subj, obj) in the written
    files."""
    idx = (pl.from_arrow(batch).with_row_index()
           .sort(LINEAGE_COLS, maintain_order=True)
           .unique(subset=KEY_COLS, keep="first")
           .get_column("index").sort().to_numpy())
    return batch.take(pa.array(idx, pa.int64()))


def canonicalize_stage(ops, *, size_hint_bytes: int | None = None):
    """ops Dataset -> deduped ops Dataset (set semantics over triples).

    This is the engine's only exchange that chooses its plan:
    ``size_hint_bytes`` (the source read's estimate) selects the hash
    exchange at corpus scale and the sort exchange otherwise
    (``shuffle.exchange_mode``)."""

    def combine(batch: pa.Table) -> pa.Table:
        """Combiner: local dedup, then bucket = key hash mod NUM_BUCKETS."""
        batch = local_dedup(batch)
        buckets = _hash_key(batch, KEY_COLS) % np.uint64(NUM_BUCKETS)
        return batch.append_column(BUCKET_COL,
                                   pa.array(buckets.astype(np.int32)))

    def per_bucket(group: pa.Table) -> pa.Table:
        return local_dedup(group.drop_columns([BUCKET_COL]))

    # Physical plan: shuffle.exchange_map picks the hash or sort exchange
    # from size_hint_bytes.  Whole-partition map, not
    # groupby().map_groups: local_dedup groups by the key columns itself,
    # so one call per partition suffices (see stages/shuffle.bucket_groupby
    # for the per-group-overhead math).
    # No Ray batch_size: combine fuses with extract, and a batch_size here
    # would become the fused task's input-bundle minimum in pages (see
    # extract._SLICE_PAGES).  The pre-dedup window is one fused task's
    # output.
    pre = ops.map_batches(combine, batch_format="pyarrow")
    return exchange_map(pre, per_bucket, size_hint_bytes=size_hint_bytes)

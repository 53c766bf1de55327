"""Canonicalize stage: exact triple dedup with a local combiner (SURVEY.md
§2.5 A4, §2.7).

The reference gets set semantics for free from ``rdflib.Graph`` on a single
machine (ttl_compare.py:168-183).  At scale that is a distributed distinct:

  1. **local pre-dedup** inside ``map_batches`` — the combiner that cuts
     shuffle volume before any exchange, per SURVEY.md §4;
  2. **global dedup** via ONE exchange (stages/shuffle.exchange_map), then
     the same local dedup over each key-complete partition.  The exchange
     depends on whether the caller needs the output order:

     * ordered (a write): a range sort on ``schema.TRIPLE_ORDER``.  Every
       dedup key contains ``TRIPLE_ORDER``, so equal keys land in one
       partition, and the partitions leave in the written order:
       materialize writes them without a sort of its own.
     * unordered (a lazy Dataset nothing reads in order): a bounded
       ``__bucket`` key hash, exchanged by the sort plan, or by Ray's hash
       shuffle at corpus scale (``shuffle.exchange_mode``).  Ray 2.49's
       range partition converts each string key column of a whole block
       to numpy once per bound, so a string-keyed SortMap costs rows x
       input blocks and the int32 bucket key partitions far cheaper
       (8,000 pages x r8 at 4 CPUs, ``kg_triples(...).materialize()``:
       32.7 s vs 48.8 s on the range sort, BASELINE.md).

Every pass runs one kernel, ``local_dedup``: a single-threaded polars
survivor pick over the 9 OPS columns, which returns survivors in key
order in an ordered canonicalize's last pass and in input order
elsewhere.  Polars compares full keys on a hash hit, so the dedup is
exact by construction.  Ray's ``groupby``/``map_groups`` were rejected
for their per-row and per-group Python (stages/shuffle.py), an Arrow
survivor pick for 3x the time (BASELINE.md "Rejected levers").

The dedup identity is ``op`` plus the triple identity
``schema.TRIPLE_KEY``; ``src_url``/``warc_ts`` are lineage, not
identity, and the survivor is the lexicographically (warc_ts, src_url)-
smallest ROW per key — deterministic across reruns and partitionings,
which is what checkpoint-resume and the P/R comparison need.  Head-entity
skew inflates duplicate counts of a few triples; the local combiner
collapses those before the exchange, the range bounds split a hot
``pred`` on ``subj`` and ``obj``, and the bucket hash spreads keys
uniformly, so no salting is needed here (salting applies to per-entity
aggregations, e.g. relational.salted_groupby).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from ..schema import TRIPLE_KEY, TRIPLE_ORDER
from .shuffle import BUCKET_COL, NUM_BUCKETS, _hash_key, exchange_map

# after .shuffle, which sets POLARS_MAX_THREADS before the process's first
# polars import
import polars as pl

KEY_COLS = ("op", *TRIPLE_KEY)
LINEAGE_COLS = ("warc_ts", "src_url")
# the order survivors of an ordered canonicalize leave its last pass in:
# the written order, then the rest of the key, so it is a total order on a
# deduped table
KEY_ORDER = (*TRIPLE_ORDER, "obj_type", "lang", "datatype", "op")


def local_dedup(batch: pa.Table, *, in_key_order: bool = False) -> pa.Table:
    """One row per triple key: the (warc_ts, src_url)-smallest, ties to the
    earliest row.  Survivors leave in input order, or with
    ``in_key_order`` in ``KEY_ORDER`` with nulls last: only an ordered
    canonicalize's last pass needs that order, and the sort doubles the
    kernel's time (in process on a 28,888-row block, 21 ms vs 11 ms).
    Strings compare by code point, as in Arrow's sort and in the Python
    comparisons that place Ray's range bounds, so a partition's order
    agrees with the exchange's."""
    kept = (pl.from_arrow(batch).with_row_index()
            .sort(LINEAGE_COLS, maintain_order=True)
            .unique(subset=KEY_COLS, keep="first"))
    if in_key_order:
        idx = kept.sort(KEY_ORDER, nulls_last=True,
                        multithreaded=False).get_column("index")
    else:
        idx = kept.get_column("index").sort()
    return batch.take(pa.array(idx.to_numpy(), pa.int64()))


def canonicalize_stage(ops, *, ordered: bool = True,
                       size_hint_bytes: int | None = None):
    """ops Dataset -> deduped ops Dataset (set semantics over triples).

    ``ordered=True``: range-partitioned on ``TRIPLE_ORDER`` and sorted in
    ``KEY_ORDER``, so its reduce partitions, read in order, are the
    written order; ``size_hint_bytes`` is ignored.  ``ordered=False``:
    bucket-partitioned, order unspecified; ``size_hint_bytes`` (the source
    read's estimate) selects the hash exchange at corpus scale and the sort
    exchange otherwise (``shuffle.exchange_mode``)."""
    # No Ray batch_size: the combiner fuses with extract, and a batch_size
    # here would become the fused task's input-bundle minimum in pages
    # (see extract._SLICE_PAGES).  The pre-dedup window is one fused
    # task's output.
    if ordered:
        pre = ops.map_batches(local_dedup, batch_format="pyarrow")
        return exchange_map(pre, partial(local_dedup, in_key_order=True),
                            key=TRIPLE_ORDER)

    def combine(batch: pa.Table) -> pa.Table:
        """Combiner: local dedup, then bucket = key hash mod NUM_BUCKETS."""
        batch = local_dedup(batch)
        buckets = _hash_key(batch, KEY_COLS) % np.uint64(NUM_BUCKETS)
        return batch.append_column(BUCKET_COL,
                                   pa.array(buckets.astype(np.int32)))

    def per_bucket(group: pa.Table) -> pa.Table:
        return local_dedup(group.drop_columns([BUCKET_COL]))

    pre = ops.map_batches(combine, batch_format="pyarrow")
    return exchange_map(pre, per_bucket, size_hint_bytes=size_hint_bytes)

"""Canonicalize stage: exact triple dedup with a local combiner (SURVEY.md
§2.5 A4, §2.7).

The reference gets set semantics for free from ``rdflib.Graph`` on a single
machine (ttl_compare.py:168-183).  At scale that is a distributed distinct:

  1. **local pre-dedup** inside ``map_batches`` — the combiner that cuts
     shuffle volume before any exchange, per SURVEY.md §4 — which also
     appends the exchange key;
  2. **global dedup** via ONE exchange (stages/shuffle.exchange_map), then
     the same local dedup over each key-complete partition.

``shuffle.exchange_mode`` picks the plan once, from the source size hint:

  * sort (every write, and every lazy run below the hash threshold): a
    range sort on the **order words** ``ORDER_COLS``, four uint64 words
    holding the first 32 bytes of an order-preserving byte encoding of
    ``schema.TRIPLE_ORDER`` (``order_words``).  Equal keys get equal
    words, so each dedup key lands in one partition, and the words never
    decrease along ``TRIPLE_ORDER``, so the partitions leave in the
    written order and the last pass sorts each one in ``KEY_ORDER``:
    materialize writes them without a sort of its own.
  * hash (>= 512 MiB hinted on >= 4 CPUs): Ray's hash shuffle on an int32
    ``__bucket`` key hash, partitions in no defined order, survivors in
    input order.  Ray's ``hash_partition`` loops per row in Python over
    every key column, so this plan keeps the one-column bucket.

Why words and not the strings: Ray 2.49.2's range partition
(``find_partition_index``) converts a block's whole key columns to numpy
once per range bound, which on three string columns costs rows x input
blocks (in process on a 47,410-row block at 127 bounds: 1.52 s on
``(pred, subj, obj)``, 0.042 s on the four words; a write of 8,000
pages x r8 at 4 CPUs spent 66-73 CPU-s in the string-keyed SortMap and
2.3-2.9 on the words).  Fixed-width numeric prefixes are the normalized
keys of database sort engines.  At 32 bytes, 600 pages x r8 put its
198,750 distinct keys in 158,795 word tuples, the largest holding 221
keys (11,474 at 24 bytes).

Every pass runs one kernel, ``local_dedup``: a single-threaded polars
survivor pick over the 9 OPS columns, which returns survivors in key
order in the sort plan's last pass and in input order elsewhere.  Polars
compares full keys on a hash hit, so the dedup is exact by construction.
Ray's ``groupby``/``map_groups`` were rejected for their per-row and
per-group Python (stages/shuffle.py), an Arrow survivor pick for 3x the
time (BASELINE.md "Rejected levers").

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import TRIPLE_KEY, TRIPLE_ORDER
from .shuffle import BUCKET_COL, NUM_BUCKETS, _hash_key, exchange_map, exchange_mode

# after .shuffle, which sets POLARS_MAX_THREADS before the process's first
# polars import
import polars as pl

KEY_COLS = ("op", *TRIPLE_KEY)
LINEAGE_COLS = ("warc_ts", "src_url")
# the order survivors leave the sort plan's last pass in: the written
# order, then the rest of the key, so it is a total order on a deduped
# table
KEY_ORDER = (*TRIPLE_ORDER, "obj_type", "lang", "datatype", "op")
# the sort plan's range key: the order words of every row
ORDER_COLS = ("__order0", "__order1", "__order2", "__order3")
_ORDER_BYTES = 8 * len(ORDER_COLS)
_NULL = pa.scalar(b"\xff", pa.binary())
_PAD = pa.scalar(bytes(_ORDER_BYTES), pa.binary())


def _order_field(col, *, escape: bool):
    """One ``TRIPLE_ORDER`` column's share of the encoding: its UTF-8
    bytes (the first ``_ORDER_BYTES`` are all the words can hold), NUL
    escaped as ``\\x00\\x01`` where a terminator follows, and a null as
    ``\\xff``, which no UTF-8 string starts with."""
    b = pc.binary_slice(col.cast(pa.binary()), 0, _ORDER_BYTES)
    if escape:
        b = pc.replace_substring(b, b"\x00", b"\x00\x01")
    return pc.fill_null(b, _NULL)


def order_words(batch: pa.Table) -> np.ndarray:
    """(rows, 4) uint64: the big-endian words of the first 32 bytes of
    ``pred``, ``subj`` and ``obj`` encoded and joined by ``\\x00\\x00``,
    zero-padded.  UTF-8 byte order is code point order, the escape keeps
    a terminator below every byte that continues a value, and ``\\xff``
    sorts a null last, as ``KEY_ORDER`` does; so the words never decrease
    along ``TRIPLE_ORDER`` and equal keys get equal words."""
    if len(batch) == 0:
        return np.zeros((0, len(ORDER_COLS)), np.uint64)
    pred, subj, obj = (batch.column(c) for c in TRIPLE_ORDER)
    enc = pc.binary_slice(pc.binary_join_element_wise(
        _order_field(pred, escape=True), _order_field(subj, escape=True),
        _order_field(obj, escape=False), _PAD, b"\x00\x00"), 0, _ORDER_BYTES)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    # every value is now exactly _ORDER_BYTES long: read the data buffer
    # from the first value's offset as one (rows, words) block
    start = np.frombuffer(enc.buffers()[1], np.int32, 1, 4 * enc.offset)[0]
    data = np.frombuffer(enc.buffers()[2], np.uint8,
                         _ORDER_BYTES * len(enc), start)
    return data.view(">u8").reshape(len(enc), -1).astype(np.uint64)


def local_dedup(batch: pa.Table, *, in_key_order: bool = False) -> pa.Table:
    """One row per triple key: the (warc_ts, src_url)-smallest, ties to the
    earliest row.  Survivors leave in input order, or with
    ``in_key_order`` in ``KEY_ORDER`` with nulls last: only the sort
    plan's last pass needs that order, and the sort doubles the kernel's
    time (in process on a 28,888-row block, 21 ms vs 11 ms).  Strings
    compare by code point, as the order words do, so a partition's order
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


def canonicalize_stage(ops, *, size_hint_bytes: int | None = None):
    """ops Dataset -> deduped ops Dataset (set semantics over triples).

    ``size_hint_bytes`` (the source read's estimate) picks the plan
    (``shuffle.exchange_mode``).  The sort plan exchanges on the order
    words, and its reduce partitions, read in exchange order, are in
    ``KEY_ORDER``; the hash plan exchanges on ``__bucket``, order
    unspecified."""
    hash_plan = exchange_mode(size_hint_bytes) == "hash"
    key = (BUCKET_COL,) if hash_plan else ORDER_COLS

    # No Ray batch_size: the combiner fuses with extract, and a batch_size
    # here would become the fused task's input-bundle minimum in pages
    # (see extract._SLICE_PAGES).  The pre-dedup window is one fused
    # task's output.
    def combine(batch: pa.Table) -> pa.Table:
        """Combiner: local dedup, then the exchange key columns."""
        batch = local_dedup(batch)
        if hash_plan:
            buckets = _hash_key(batch, KEY_COLS) % np.uint64(NUM_BUCKETS)
            cols = [buckets.astype(np.int32)]
        else:
            cols = order_words(batch).T
        for name, col in zip(key, cols):
            batch = batch.append_column(name, pa.array(col))
        return batch

    def per_partition(part: pa.Table) -> pa.Table:
        return local_dedup(part.drop_columns(list(key)),
                           in_key_order=not hash_plan)

    # exchange_map reads the same hint, so it runs the plan chosen here
    return exchange_map(ops.map_batches(combine, batch_format="pyarrow"),
                        per_partition, key=key,
                        size_hint_bytes=size_hint_bytes)

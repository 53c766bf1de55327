"""Canonicalize stage: exact triple dedup with a local combiner (SURVEY.md
§2.5 A4, §2.7).

The reference gets set semantics for free from ``rdflib.Graph`` on a single
machine (ttl_compare.py:168-183).  At scale that is a distributed distinct:

  1. **local pre-dedup** inside ``map_batches`` — the combiner that cuts
     shuffle volume before any exchange, per SURVEY.md §4;
  2. **global dedup** via the hash-bucket exchange (stages/shuffle.py): ONE
     shuffle keyed on a bounded bucket id, then a vectorized first-per-key
     pass inside each bucket.

Physical design notes (each alternative was measured and rejected):
  * ``groupby(keys).aggregate(Min)`` — per-ROW Python accumulation in Ray's
    aggregate path (36-77 s at sf0.1);
  * ``map_groups(first)`` — one interpreter call per unique triple;
  * Arrow ``group_by`` over the 7 raw key columns — multi-column string
    hashing per bucket cost ~197 s remote at 160k pages.
  The shipped shape hashes the 7 key columns ONCE in the combiner, ships
  the 8-byte hash through the exchange, and per bucket groups by it with
  an exact collision guard — all Arrow/numpy kernels.

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
import pyarrow.compute as pc

from ..schema import TRIPLE_KEY, str_list
from .shuffle import BUCKET_COL, NUM_BUCKETS, _hash_key, exchange_map

KEY_COLS = ("op", *TRIPLE_KEY)
LINEAGE_COLS = ("warc_ts", "src_url")
_KEY = "__triple_key"
_KEY_HASH = "__key_hash"
_SEP = "\x1f"


def _with_key(batch: pa.Table) -> pa.Table:
    """Concatenated dedup key with LENGTH-PREFIXED components: ``obj`` comes
    from extracted page text and could itself contain the separator byte,
    which would let two distinct triples alias into one key.  Prefixing each
    component with its length makes the encoding injective regardless of
    content (still one vectorized join, no hashing)."""
    parts: list = []
    for c in KEY_COLS:
        col = batch[c]
        parts.append(pc.cast(pc.binary_length(col), pa.string()))
        parts.append(col)
    key = pc.binary_join_element_wise(*parts, _SEP)
    return batch.append_column(_KEY, key)


def _survivors_by_codes(t: pa.Table, codes: np.ndarray,
                        n_codes: int) -> pa.Table:
    """Keep the (warc_ts, src_url)-min row per group code.

    Grouping needs key EQUALITY only, never key order; survivor selection
    is a vectorized per-group reduction: ``np.minimum.at`` finds each
    group's min timestamp, and only (group, min-ts) TIES — same triple
    captured at the same instant from different pages — fall through to a
    small lexsort on ``src_url`` to finish the lexicographic
    (warc_ts, src_url) rule.  Output row SET is the same for any code
    assignment that groups equal keys together; row ORDER within the batch
    is input order, which nothing downstream depends on (materialize
    applies the canonical sort; the driver compare is order-insensitive)."""
    ts = t["warc_ts"].combine_chunks().to_numpy(
        zero_copy_only=False).view("i8")
    min_ts = np.full(n_codes, np.iinfo(np.int64).max)
    np.minimum.at(min_ts, codes, ts)
    cand = np.flatnonzero(ts == min_ts[codes])
    counts = np.bincount(codes[cand], minlength=n_codes)
    if int(counts.max()) > 1:
        tie = counts[codes[cand]] > 1
        hard = cand[tie]
        urls = np.asarray(
            str_list(pc.take(t["src_url"].combine_chunks(),
                             pa.array(hard, pa.int64()))),
            dtype=object,
        )
        order = np.lexsort((urls, codes[hard]))
        hs = hard[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = codes[hs][1:] != codes[hs][:-1]
        cand = np.sort(np.concatenate([cand[~tie], hs[first]]))
    return t.take(pa.array(cand, pa.int64()))


def _first_per_key(t: pa.Table) -> pa.Table:
    """Exact key-string path: hash-group the injective ``_KEY`` column
    (``dictionary_encode`` — the previous ``sort_by(key, ts, url)`` paid a
    long-string comparison sort measured at 1160 s remote wall at 40k
    pages) and keep the (warc_ts, src_url)-min row per key.  Retained as
    the collision-fallback and the reference path for tests; the hot
    pipeline groups by the shipped 64-bit key hash instead
    (_first_per_key_hashed)."""
    if len(t) == 0:
        return t
    codes = pc.dictionary_encode(t[_KEY].combine_chunks()).indices.to_numpy(
        zero_copy_only=False
    )
    return _survivors_by_codes(t, codes, int(codes.max()) + 1)


def _rows_match_rep(t: pa.Table, rep_rows: np.ndarray) -> np.ndarray:
    """Per-row exactness guard for hash grouping: True where all 7 key
    columns equal the row's group representative (nulls compare equal to
    nulls, matching group semantics).  7 vectorized take+equal kernels —
    far cheaper than materializing the ~250-byte concatenated key."""
    idx = pa.array(rep_rows, pa.int64())
    ok = np.ones(len(t), dtype=bool)
    for c in KEY_COLS:
        col = t[c].combine_chunks()
        rep = col.take(idx)
        eq = pc.or_kleene(pc.equal(col, rep),
                          pc.and_(pc.is_null(col), pc.is_null(rep)))
        ok &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
    return ok


def _first_per_key_hashed(t: pa.Table) -> pa.Table:
    """One (warc_ts, src_url)-min row per distinct triple key, grouped by
    the precomputed 64-bit ``_KEY_HASH`` column with an EXACT collision
    guard: every row is verified (vectorized) against its hash-group
    representative on the raw key columns, and rows of any group holding
    two distinct keys — probability ~n²/2^65 per batch — fall back to the
    injective key-string path.  Dedup output is therefore EXACT, not
    probabilistic, while the hot path hashes/groups 8-byte ints instead of
    ~250-byte strings (the round-5 stats probe put the string re-derivation
    + string hash-group at 2790 s remote wall of a 6778 s total at 160k
    pages)."""
    if len(t) == 0:
        return t
    kh = t[_KEY_HASH].combine_chunks().to_numpy(zero_copy_only=False)
    uniq, first_idx, codes = np.unique(
        kh, return_index=True, return_inverse=True)
    mismatch = ~_rows_match_rep(t, first_idx[codes])
    if mismatch.any():  # pragma: no cover - ~2^-40 at any realistic batch
        bad_code = np.zeros(len(uniq), dtype=bool)
        bad_code[codes[mismatch]] = True
        bad = bad_code[codes]
        exact = _first_per_key(
            _with_key(t.take(np.flatnonzero(bad)))).drop_columns([_KEY])
        keep = np.flatnonzero(~bad)
        if not len(keep):
            return exact
        t = t.take(keep)
        uniq, codes = np.unique(kh[keep], return_inverse=True)
        return pa.concat_tables(
            [_survivors_by_codes(t, codes, len(uniq)), exact])
    return _survivors_by_codes(t, codes, len(uniq))


def local_dedup(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: one (min-lineage) row per triple key."""
    return _first_per_key(_with_key(batch)).drop_columns([_KEY])


def canonicalize_stage(ops, *, size_hint_bytes: int | None = None):
    """ops Dataset -> deduped ops Dataset (set semantics over triples).

    The ~250-byte composite key is NEVER built on the hot path at all
    (round 5): the combiner hashes the 7 raw key columns in one vectorized
    pass, dedups by hash with an exact collision guard, and ships the
    8-byte ``_KEY_HASH`` through the exchange (~+8 B/row) so the per-bucket
    pass groups ints instead of re-deriving long strings (previously 41%
    of pipeline compute at 160k pages).  Shipping the full key column was
    already rejected in round 2 (it dominated shuffle bytes: ~60% of
    pipeline compute on the 40k x 26KB corpus).

    This is the engine's only exchange that chooses its plan:
    ``size_hint_bytes`` (the source read's estimate) selects the hash
    exchange at corpus scale and the sort exchange otherwise
    (``shuffle.exchange_mode``)."""

    def combine(batch: pa.Table) -> pa.Table:
        """Combiner: ONE vectorized multi-column hash of the 7 raw key
        columns (no ~250-byte concatenated key is ever built), hash-group
        dedup with the exact collision guard, then bucket = hash mod
        NUM_BUCKETS.  The 8-byte hash SHIPS through the exchange as
        ``_KEY_HASH`` so the per-bucket pass groups ints instead of
        re-deriving and hash-grouping long strings — the round-5 stats
        probe measured that re-derivation at 41% of all pipeline compute
        (2790 s of 6778 s remote wall at 160k pages)."""
        kh = _hash_key(batch, list(KEY_COLS))
        batch = batch.append_column(_KEY_HASH, pa.array(kh))
        batch = _first_per_key_hashed(batch)
        kh2 = batch[_KEY_HASH].combine_chunks().to_numpy(
            zero_copy_only=False)
        return batch.append_column(
            BUCKET_COL,
            pa.array((kh2 % np.uint64(NUM_BUCKETS)).astype(np.int32)))

    def per_bucket(group: pa.Table) -> pa.Table:
        return _first_per_key_hashed(
            group.drop_columns([BUCKET_COL])).drop_columns([_KEY_HASH])

    # Physical plan: shuffle.exchange_map picks the hash or sort exchange
    # from size_hint_bytes.  Whole-partition map, not
    # groupby().map_groups: _first_per_key_hashed groups by the shipped key
    # hash itself, so one call per partition suffices (see
    # stages/shuffle.bucket_groupby for the per-group-overhead math).
    # No Ray batch_size: combine fuses with extract, and a batch_size here
    # would become the fused task's input-bundle minimum in pages (see
    # extract._SLICE_PAGES).  The pre-dedup window is one fused task's
    # output.
    pre = ops.map_batches(combine, batch_format="pyarrow")
    return exchange_map(pre, per_bucket, size_hint_bytes=size_hint_bytes)

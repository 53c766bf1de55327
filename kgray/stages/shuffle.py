"""The engine's exchange and the hash-bucket grouping built on it: every
grouped aggregate, pair query and big-big join of the engine runs here.

Ray Data's ``groupby(cols).aggregate(...)`` sorts fast but then works PER
ROW in Python: in Ray 2.49.2 ``table_block._aggregate`` walks every row
with ``iter_rows`` to find the group bounds, and
``_combine_aggregated_blocks`` merges the partial rows with
``heapq.merge``.  ``map_groups`` pays one interpreter call PER GROUP.  Both
are pathological when the key cardinality approaches the row count
(exact dedup, pair dedup, set diff: millions of single-row groups at
scale), and the first costs per row even on a handful of groups
(``salted_groupby`` at sf0.1, 2 Ray CPUs on a 4-vCPU host: a median
5.33 s on Ray's aggregate against 0.31 s here).

``bucket_groupby`` keeps the exchange but bounds the Python surface:

    each input -> add __bucket = hash(key cols) % NUM_BUCKETS  (vectorized)
    union      -> sort(__bucket), one range per CPU            (ONE shuffle)
               -> map_batches(fn) once per key-complete partition

``fn`` sees every row of a partition (a union of whole buckets) as one
Arrow table and does its grouped work with Arrow-native kernels
(``Table.group_by``), so the per-key cost is C, not Python.  Same-key rows
always share a bucket, so any per-key reduction computed inside ``fn`` is
globally correct.  ``bucket_aggregate`` is the two-phase aggregate on it:
an Arrow ``group_by`` per block as the combiner, the same functions again
per partition as the merge.  Every rollup runs on it: the snapshot diff
(``diff.set_diff``), exact and normalized dedup, ``lang_id``, the n-gram
Jaccard per-source sizes, ``label_stats``, and the relational suite's
distinct, window, tumbling-window, Q1, join, union and salted (two
phases) aggregates.
``block_pairs`` is the all-pairs self-join on it: a group of more than
``MAX_BLOCK_ROWS`` rows split into row blocks, one exchange on (group,
block pair), one scorer call per block pair.  Every pair query runs on
it (n-gram Jaccard, embedding near-dup, MinHash LSH and SimHash), under
the one row limit that ``block_pairs`` applies from its own count of the
input; no caller sizes its groups.
``joins.equi_join``, the inner, left-semi and left-anti join, is one
``bucket_groupby`` over both sides, side-tagged.

One plan.  Every exchange is a range sort on the caller's numeric key
(``__bucket`` for the bucket callers, canonicalize's four uint64 order
words, a prefix of its written order); Ray's hash shuffle is not used.
It won only at corpus scale on 32 CPUs, and at 2 CPUs it hung
(BASELINE.md "Rejected levers").  One sort alone, outside
``exchange_map``, range-sorts on a string column: ``views.kg_changelog``
sorts its output on ``(warc_ts_us, command)``, ``command`` a string,
and pays what that costs: Ray 2.49.2's range partition converts a
block's key columns to numpy once per bound, which costs rows x input
blocks on strings (stages/canonicalize.py).

One width rule, for every bucket exchange: ``__bucket`` is a uniform
hash over ``[0, NUM_BUCKETS)``, so its range boundaries are known before
any row exists.  The sort gets ``NUM_BUCKETS * i // w`` for ``i`` in
``1 .. w-1`` with ``w`` the cluster's CPU count (``exchange_map``): one
reduce wave of exactly ``w`` partitions of whole buckets, whatever the
input block count, and no sample pass (Ray 2.49.2 runs one sample task
per input block, then a blocking fetch, when it has no boundaries).
Sampled boundaries once collapsed multi-bucket row ranges into a handful
of reduce partitions (multi-GB, 15-minute reduce tasks at 58 M rows /
256 buckets / 384 partitions); fixed ranges cannot.  Canonicalize's
order words are data-dependent and keep Ray's sampled boundaries.

One scheduling rule, for every caller: the exchange turns off Ray Data's
per-operator reservation, which gives every map operator at least one CPU
and at 2 CPUs ran the Sort's producer (the fused page operator, the diff's
TTL parse) one task at a time (``exchange_map``).

``NUM_BUCKETS`` must stay WELL ABOVE the core count, or the ranges
quantize: at 4096 buckets and 32 CPUs each partition is 128 whole
buckets.  Per-group fn call overhead is sub-ms, so over-bucketing is
cheap.  The hash is uniform, so only aggregate-key skew (not row skew)
matters — and key skew was already collapsed by the caller's local
combiner.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# polars must run single-threaded here: its default rayon pool is one
# thread per core PER PROCESS, and hash_rows inside 32 concurrent Ray map
# tasks then runs ~cores^2 runnable threads — measured t32 SLOWER than t8
# on the scaling corpus.  The env var only binds before the first polars
# import in each process, so it is set immediately before this one; the
# process-owning entrypoints (__ray_entry__.py, bench.py, scripts/ray_job.py,
# tests/conftest.py) set it too.  If some other library still imports
# polars first with a wide pool we accept it: hash VALUES are
# pool-size-independent.
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import polars as _pl  # noqa: E402

BUCKET_COL = "__bucket"
# bucket_aggregate's int64 ones column, the input of every count
_ONE = "__one"
# bucket count of every bucket exchange; see the module docstring for why
# it must dominate the CPU count
NUM_BUCKETS = 4096


# splitmix64 finalizer constants
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def _splitmix_u64(h: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array: a bijective avalanche,
    so nearby ids land in unrelated blocks (and LSH band keys in
    unrelated buckets)."""
    h = h ^ (h >> np.uint64(30))
    h = h * _MIX2
    h = h ^ (h >> np.uint64(27))
    h = h * _MIX3
    return h ^ (h >> np.uint64(31))


def _hash_key(batch: pa.Table, key_cols: Sequence[str]) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of the key-column tuple:
    polars ``hash_rows`` straight off the Arrow buffers (Rust-vectorized).
    With a fixed seed the value is identical across the worker processes
    of a session, which is all a bucket exchange needs; the token-hash
    users in pipelines/textproc.py additionally rely on the values staying
    fixed for the pinned polars version (the expected-table cache key
    carries that version)."""
    return _pl.from_arrow(batch.select(list(key_cols))).hash_rows(
        seed=0).to_numpy()


def _cluster_cpus() -> int:
    """The live cluster's CPU count, the width of every bucket exchange.
    It is read while a plan is built, and Ray is up by then: every Dataset
    constructor (``rd.from_arrow``, ``rd.read_parquet``, ...) starts it in
    a bare process."""
    import ray

    return int(ray.cluster_resources()["CPU"])


def _bucket_bounds(width: int) -> list[int]:
    """``sort`` boundaries that cut ``[0, NUM_BUCKETS)`` into ``width``
    ranges of whole buckets.  At width 1 the one bound ``NUM_BUCKETS``
    keeps every bucket below it, so all rows share one partition and the
    one above it stays empty; no bounds at all would make Ray sample."""
    return [NUM_BUCKETS * i // width for i in range(1, width)] or [NUM_BUCKETS]


def exchange_mode(_hint=None) -> str:
    """Stub that perfbench still calls: every exchange is the sort plan."""
    return "sort"


def source_size_hint(ds) -> None:
    """Stub that perfbench still calls: no exchange reads a size hint."""
    return None


def exchange_map(
    tagged,
    per_partition: Callable[[pa.Table], pa.Table],
    *,
    key: Sequence[str] = (BUCKET_COL,),
):
    """Co-locate equal ``key`` values and run ``per_partition`` exactly
    once over each co-located partition (an Arrow table, ``key`` columns
    still attached), in ascending ``key`` order: ``sort(key)``.  Ray's
    sort places every key value wholly inside one merged reduce block
    (rows equal to a boundary fall on one consistent side;
    merge_sorted_blocks returns a single block in the pinned ray 2.49.2),
    so ``map_batches(batch_size=None)`` calls ``per_partition`` once per
    reduce partition.  That exactly-once property is pinned by a
    regression test that forces a tiny ``target_max_block_size`` with
    partitions many blocks large (tests/test_shuffle_exchange.py).

    The ``__bucket`` key gets ``_bucket_bounds`` of the cluster's CPU
    count (the module docstring's width rule); any other key
    (canonicalize's order words) keeps Ray's sampled boundaries, one
    reduce partition per input block.

    An empty reduce partition never reaches ``per_partition``.  Ray 2.49.2's
    ``BlocksToBatches`` turns a task's all-empty input into one block built
    by an empty builder, a block with no schema
    (``execution/operators/map_transformer.py``), and the batch UDF passes
    a zero-row batch through without calling the UDF
    (``planner/plan_udf_map_op.py``).  That schema-less block is what Ray
    Data's "different schema than the previous one ... new schema: ."
    warning reports.

    The exchange turns Ray Data's per-operator reservation off on
    ``tagged.context`` (never the process-global DataContext): the Sort's
    materializing barrier already bounds its producer's object-store use,
    so the reservation only splits CPUs.  The map chain from the last read
    or union through the Sort and every Dataset after it share that one
    context object, and the executor reads the executing Dataset's context
    for the whole topology, so the rule reaches every operator of the plan,
    including both branches of a union."""
    tagged.context.op_resource_reservation_enabled = False
    key = list(key)
    bounds = (_bucket_bounds(_cluster_cpus()) if key == [BUCKET_COL]
              else None)
    return tagged.sort(key, boundaries=bounds).map_batches(
        per_partition, batch_format="pyarrow", batch_size=None
    )


def bucket_groupby(*inputs, keys: Sequence[str],
                   fn: Callable[[pa.Table], pa.Table]):
    """Hash-partition the union of the Datasets ``inputs`` by ``keys``
    into ``NUM_BUCKETS`` buckets and apply vectorized ``fn`` to each
    partition of whole buckets (Arrow table, ``__bucket`` already dropped)
    through the sort exchange.  Each input gets its own tag map, ahead of
    the union, so the hash fuses into that input's map chain.

    Every ``fn`` here does its own per-key grouping internally (a hash
    bucket always contains many keys), so ``fn`` runs ONCE per partition;
    ``groupby().map_groups`` would provide the same partitions but then
    pays a slice + batch-format conversion + Python call + output block PER
    GROUP, which at 4096 buckets doubled the small-corpus bench
    (minhash_lsh 13.4 s -> 26.5 s) for machinery no consumer needed."""
    keys = list(keys)

    def tag(batch: pa.Table) -> pa.Table:
        h = _hash_key(batch, keys) % np.uint64(NUM_BUCKETS)
        return batch.append_column(BUCKET_COL, pa.array(h.astype(np.int32)))

    def per_partition(part: pa.Table) -> pa.Table:
        return fn(part.drop_columns([BUCKET_COL]))

    ds, *rest = [d.map_batches(tag, batch_format="pyarrow") for d in inputs]
    return exchange_map(ds.union(*rest) if rest else ds, per_partition)


def bucket_aggregate(*inputs, keys: Sequence[str],
                     aggs: Mapping[str, tuple[str | None, str]]):
    """Two-phase grouped aggregate, the engine's one GROUP BY: Arrow
    ``group_by(keys)`` once per block of each Dataset in ``inputs`` (the
    combiner), then ``bucket_groupby`` on ``keys`` over the combined
    inputs, which merges the partial columns with the same functions once
    per partition.  The combiner and the bucket tag fuse into each input's
    own map operator; the union feeds the exchange's Sort.

    ``aggs`` maps each output column to ``(column, fn)``: ``fn`` is min,
    max or sum of ``column``, or count with ``column`` None, SQL's
    ``count(*)``, which counts every row, null values and null keys too
    (a sum over an int64 ones column, so its partials merge by sum).
    Output columns are ``keys`` (a null key is one group, as in SQL) then
    the ``aggs`` names in order; with no ``aggs`` it is the distinct
    ``keys``."""
    keys, names = list(keys), list(aggs)
    # (input column, Arrow function) per output: a count sums the ones
    spec = [(_ONE, "sum") if fn == "count" else (col, fn)
            for col, fn in aggs.values()]
    counts = any(col == _ONE for col, _ in spec)

    def combine(batch: pa.Table) -> pa.Table:
        if counts:
            batch = batch.append_column(
                _ONE, pa.repeat(pa.scalar(1, pa.int64()), len(batch)))
        return (batch.group_by(keys, use_threads=False).aggregate(spec)
                .rename_columns(keys + names))

    def merge(part: pa.Table) -> pa.Table:
        return (part.group_by(keys, use_threads=False)
                .aggregate([(n, fn) for n, (_, fn) in zip(names, spec)])
                .rename_columns(keys + names))

    return bucket_groupby(
        *(d.map_batches(combine, batch_format="pyarrow") for d in inputs),
        keys=keys, fn=merge)


# block_pairs' exchange columns: a row's block pair and its own block;
# and a hot group's block count
_PI, _PJ, _BLK, _NB = "__pi", "__pj", "__blk", "__nb"
# block_pairs' row limit: a group of more rows is split into
# ceil(rows / MAX_BLOCK_ROWS) blocks, so a block pair holds about twice
# this many rows whatever the key distribution (a neardup_cosine block
# pair's float64 similarity matrix stays within 128 MiB)
MAX_BLOCK_ROWS = 4096


def _hot_groups(ds, group: list[str], limit: int) -> list:
    """Block refs of a table of the groups of ``ds`` holding more than
    ``limit`` rows, each with its block count ``_NB``: a count of
    ``ds.select_columns(group)`` on ``bucket_aggregate``, run now (one
    plan), the hot rows kept in the object store."""
    def hot(counts: pa.Table) -> pa.Table:
        counts = counts.filter(pc.greater(counts["n"], limit))
        nb = -(-counts["n"].to_numpy() // limit)
        return counts.select(group).append_column(_NB, pa.array(nb))

    counted = bucket_aggregate(ds.select_columns(group), keys=group,
                               aggs={"n": (None, "count")})
    return [ref for bundle in counted.map_batches(
                hot, batch_format="pyarrow").iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def block_pairs(ds, *, group: Sequence[str], id_col: str,
                score: Callable[[pa.Table, pa.Table | None],
                                Sequence[np.ndarray]],
                schema: pa.Schema):
    """All-pairs self-join within each ``group`` of ``ds``, a hot group
    split into block pairs so that no task holds a whole group (FP-Hadoop,
    VLDB 2015).

    A group of ``n > MAX_BLOCK_ROWS`` rows is split into
    ``ceil(n / MAX_BLOCK_ROWS)`` blocks.  ``block_pairs`` counts the groups
    itself, when it is called: the rows per group of
    ``ds.select_columns(group)`` on ``bucket_aggregate`` (one plan; only the
    groups above the limit are kept, as object-store blocks that the tag
    map reads), or ``ds.count()`` when ``group`` is empty (one group; a
    parquet read counts from its footers and runs nothing).  A lazy count
    would need a second exchange of every row or a join, and either costs
    more than the pre-pass (0.25-0.44 s at sf0.1, 2 Ray CPUs).  A null group
    key is never split.

    With no group above the limit and a non-empty ``group``, ``group``
    alone keys the exchange and no block column enters it: each column the
    exchange carries costs its sort map and reduce (three int32 columns of
    zeros added about 0.4 s to simhash_pairs' 2.4 s at sf0.1, 2 Ray CPUs,
    4-vCPU host).  Otherwise a row of a group of ``nb`` blocks belongs to
    block ``splitmix64(id) % nb`` and is sent once to every partner block
    ``o``, keyed ``(pi, pj) = (min, max)`` of its block and ``o``; a row of
    any other group enters once, as block 0.  One ``bucket_groupby``
    exchange co-locates each
    ``(group, pi, pj)``, and a walk of each partition calls ``score(a, b)``
    once per block pair: ``a`` the rows of block ``pi``, ``b`` those of
    block ``pj`` (``ds``'s own columns), where every (a, b) row pair is to
    be scored; on the diagonal it calls ``score(a, None)``, where every
    unordered pair of ``a`` is.  A pair of rows of one group is thus scored
    exactly once, a pair across groups never.  A diagonal block of one row
    has no pair and is not scored (at sf0.1, 1,305 of minhash_lsh's 2,481
    band buckets are one row, and 1,819 of simhash_pairs' 3,068).

    ``score`` returns its pairs as one numpy array per ``schema`` field;
    the walk builds one table per partition from them.  ``schema`` is a
    non-empty partition's output when it scores nothing (an empty one
    never reaches the walk, see ``exchange_map``).

    Peak task memory is one reduce partition, a range of whole buckets
    holding about ``1 / CPUs`` of the exchange's rows, and the pairs its
    walk emits; a scorer call holds at most two blocks.  No group at the
    board scales is above the limit:
    minhash_lsh's largest band bucket at sf0.1 holds 2,654 rows, one
    scorer call, and neardup_cosine's 2,000 vectors are one block."""
    group, limit = list(group), MAX_BLOCK_ROWS
    if group:
        hot = _hot_groups(ds, group, limit)

        def block_counts(batch: pa.Table) -> np.ndarray:
            import ray

            rows = (batch.select(group)
                    .append_column("__row", pa.array(np.arange(len(batch))))
                    .join(pa.concat_tables(ray.get(hot)), group,
                          join_type="inner", use_threads=False))
            nb = np.ones(len(batch), np.int64)
            nb[rows["__row"].to_numpy()] = rows[_NB].to_numpy()
            return nb
    else:
        n = max(1, -(-ds.count() // limit))

        def block_counts(batch: pa.Table) -> np.ndarray:
            return np.full(len(batch), n, np.int64)
    tagged = not group or bool(hot)
    keys = [*group, _PI, _PJ] if tagged else group

    def tag(batch: pa.Table) -> pa.Table:
        nb = block_counts(batch)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        blk = (_splitmix_u64(ids) % nb.astype(np.uint64)).astype(np.int64)
        rep = np.repeat(np.arange(len(batch)), nb)
        partner = np.arange(len(rep)) - np.repeat(np.cumsum(nb) - nb, nb)
        own = blk[rep]
        return (batch.take(rep)
                .append_column(_PI, pa.array(np.minimum(own, partner), pa.int32()))
                .append_column(_PJ, pa.array(np.maximum(own, partner), pa.int32()))
                .append_column(_BLK, pa.array(own, pa.int32())))

    def walk(part: pa.Table) -> pa.Table:
        part = part.sort_by([(k, "ascending") for k in keys])
        run = _pl.from_arrow(part.select(keys)).select(
            _pl.struct(keys).rle_id()).to_series().to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.diff(run, prepend=-1))
        ends = np.append(starts[1:], len(part))
        if not tagged:  # every group is its own diagonal block pair
            rows, pi = part, None
        else:
            pi, pj, own = (part[c].to_numpy() for c in (_PI, _PJ, _BLK))
            rows = part.drop_columns([_PI, _PJ, _BLK])
        out = []
        for s, e in zip(starts, ends):
            g = rows.slice(s, e - s)
            if pi is None or pi[s] == pj[s]:
                if len(g) > 1:  # a one-row block has no pair
                    out.append(score(g, None))
                continue
            in_a = own[s:e] == pi[s]
            if in_a.all() or not in_a.any():
                continue  # one block of the pair is empty
            out.append(score(g.filter(in_a), g.filter(~in_a)))
        if not out:
            return schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(col)) for col in zip(*out)],
            names=schema.names).cast(schema)

    if tagged:
        ds = ds.map_batches(tag, batch_format="pyarrow")
    return bucket_groupby(ds, keys=keys, fn=walk)

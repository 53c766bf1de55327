"""The engine's exchange and the hash-bucket grouping built on it: every
grouped aggregate and pair query of the engine runs here.

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

    rows -> add __bucket = hash(key cols) % NUM_BUCKETS        (vectorized)
         -> sort(__bucket)                                      (ONE shuffle)
         -> map_batches(fn) once per key-complete partition     (few calls)

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
``block_pairs`` is the all-pairs self-join on it: each group split into
row blocks, one exchange on (group, block pair), one scorer call per
block pair.  Every pair query runs on it: n-gram Jaccard and embedding
near-dup split a hot group into blocks; MinHash LSH and SimHash pass
``nblocks=None``, so each band bucket is one scorer call.

One plan, one exception.  Every exchange runs the sort plan, a range
sort on the caller's numeric key (``__bucket`` for the bucket callers,
canonicalize's four uint64 order words, a prefix of its written order),
except a ``canonicalize_stage`` given a size hint, the only caller that
passes one to ``exchange_map``: it takes Ray's hash-shuffle plan on
``__bucket`` at ``_HASH_MIN_BYTES`` (512 MiB) or more of source input on
a cluster of ``_HASH_MIN_CPUS`` (4) or more CPUs, and the sort plan
otherwise.  One exchange alone range-sorts on a string column, a plain
``Dataset.sort`` outside ``exchange_map``: ``views.kg_changelog`` sorts
its output on ``(warc_ts_us, command)``, ``command`` a string, and pays
what that costs: Ray 2.49.2's range partition converts a block's key
columns to numpy once per bound, which costs rows x input blocks on
strings (stages/canonicalize.py).
Hash won only at corpus scale (``bench.py --scaling``, one exchange per
side, 160k pages at 32 CPUs: 382 s vs 528 s); at small inputs its
aggregator-pool spawn loses (sf0.1 headline 77.7 s vs 55.0 s) and at 2
CPUs it hangs (BASELINE.md "Exchange selection").

One scheduling rule, for every caller: the sort plan turns off Ray Data's
per-operator reservation, which gives every map operator at least one CPU
and at 2 CPUs ran the Sort's producer (the fused page operator, the diff's
TTL parse) one task at a time; the hash plan keeps it (``exchange_map``).

``NUM_BUCKETS`` must stay WELL ABOVE both the core count and any plausible
sort-partition count:

* buckets ≲ cores quantizes the per-bucket pass into few scheduling waves
  (64 uniform buckets on 32 cores = 2 waves; the ~24 s straggler tail only
  bites at full width);
* buckets ≲ sort partitions is far worse: Ray's sort samples range
  boundaries from the bucket column, and with fewer distinct values than
  partitions the duplicate boundaries collapse entire multi-bucket row
  ranges into a handful of reduce partitions (measured: multi-GB, 15-minute
  reduce tasks at 58 M rows / 256 buckets / 384 partitions, while 14 M
  rows / 256 buckets / 122 partitions was fine).

4096 clears both for any single-node width and for the
several-hundred-partition exchanges of cluster-scale runs; per-group fn
call overhead is sub-ms, so over-bucketing is cheap.  The hash is uniform,
so only aggregate-key skew (not row skew) matters — and key skew was
already collapsed by the caller's local combiner.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

import numpy as np
import pyarrow as pa

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
# bucket count of every bucket exchange (canonicalize's hash plan and
# bucket_groupby alike); see the module docstring for why it must dominate
# partition counts
NUM_BUCKETS = 4096

# "hash" routes the co-location through Ray's HASH_SHUFFLE
# repartition-by-key (map tasks partition by hash(key) and push to
# aggregator actors that concat each partition — no sort barrier, no
# range-boundary sampling, streaming fan-in); "sort" is the sort(key)
# exchange.  Hash removes the width-dependent sort-reduce fan-in (VERDICT
# r3 #1) but pays a fixed ~3-5 s aggregator-pool spawn per exchange, so it
# needs at least this much estimated input to amortize:
_HASH_MIN_BYTES = 512 * 1024 * 1024
# ... and at least this many cluster CPUs: the aggregator reservation
# competes with the exchange's own map tasks for CPU slots, and at 2 CPUs
# it left them none (the 120-page flagship with hash forced made no
# progress in 390 s; BASELINE.md "Exchange selection").  That hang was
# measured while the linker still ran as an actor pool and has not been
# re-checked since.
_HASH_MIN_CPUS = 4
# Scheduler CPU reservation budget for ONE exchange's aggregator-actor
# pool as a fraction of cluster CPUs.  Round-3's HASH_SHUFFLE probe stalled
# because the default reservation — min(1, (CPU/2)/partitions) per
# partition — put 16 of 32 cpus on aggregators, which the map tasks then
# could not use; see _tune_hash_shuffle for the deadlock arithmetic.
_AGG_CPU_FRACTION = 16


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
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 32))
    except Exception:  # pragma: no cover - ray import/cluster race
        pass
    return 32


def default_exchange_partitions() -> int:
    """Reduce width of an exchange: ~2 partitions per cluster core, floored
    at 64 (enough waves to absorb per-partition variance) and capped at 1024
    (keeps O(maps x partitions) shuffle-object metadata bounded)."""
    return min(1024, max(64, 2 * _cluster_cpus()))


def exchange_mode(size_hint_bytes: int | None = None) -> str:
    """Physical exchange selection: "hash" at or above ``_HASH_MIN_BYTES``
    of estimated input on a cluster of at least ``_HASH_MIN_CPUS`` CPUs,
    "sort" otherwise (including when there is no estimate).  The CPU count
    is read only once the size test passes, so a missing or small hint
    never touches Ray.

    ``size_hint_bytes`` is the caller's estimate of the exchange input
    (``Dataset.size_bytes()`` on the SOURCE read — free parquet-metadata
    arithmetic there; on a mapped dataset it would execute the pipeline,
    so callers hint from the read, not from the tagged stream)."""
    if (size_hint_bytes is not None and size_hint_bytes >= _HASH_MIN_BYTES
            and _cluster_cpus() >= _HASH_MIN_CPUS):
        return "hash"
    return "sort"


def source_size_hint(ds) -> int | None:
    """Best-effort input-size estimate for exchange_mode.

    Only answers when the estimate is FREE: a bare read (parquet metadata
    arithmetic) or an already-materialized dataset.  On a lazy transformed
    dataset ``size_bytes()`` would execute the pipeline, so this returns
    None there (exchange_mode then picks the sort exchange — the conservative
    small-input default)."""
    try:
        from ray.data._internal.logical.operators.read_operator import Read

        dag = ds._logical_plan.dag
        if not (isinstance(dag, Read) or ds._plan.has_computed_output()):
            return None
        return ds.size_bytes()
    except Exception:  # pragma: no cover - ray internals moved
        return None


def _tune_hash_shuffle(ctx, num_partitions: int, cpus: int) -> None:
    """Bound the aggregator pool's scheduler footprint on ``ctx`` (the
    DATASET's own context copy — the process-global DataContext is never
    touched, so unrelated pipelines keep the default sort strategy).

    The reservation must stay SMALL: aggregator actors only concat arriving
    partition blocks (bandwidth-bound, mostly idle), but their num_cpus is
    reserved for the life of the shuffle op, and every CPU it holds is a
    slot the map tasks (num_cpus=1 each) cannot take.  If the reservations
    of a pipeline's live exchanges ever sum to the node's CPUs, no map
    task can schedule and the pipeline deadlocks — measured at num_cpus=4
    with the previous max(1.0, cpus/8) budget, at a time when two linker
    pool actors held the other two CPUs (no actor pool is left)."""
    from ray.data.context import ShuffleStrategy

    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    budget = max(0.2, cpus / _AGG_CPU_FRACTION)
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = (
        budget / num_partitions)
    # one aggregator per core (each is a single concat thread): the fan-in
    # width IS the aggregator count — 8 actors measured 815 s on the 160k
    # t32 run (8-wide concat wall) where the sort exchange's full-width
    # reduce ran 270-650 s.  The RESERVATION stays tiny (budget/partitions
    # x partitions-per-actor), so task pools keep their CPUs; it's the
    # actor COUNT that buys parallel fan-in.
    ctx.max_hash_shuffle_aggregators = max(2, min(64, cpus))


def exchange_map(
    tagged,
    per_partition: Callable[[pa.Table], pa.Table],
    *,
    key: Sequence[str] = (BUCKET_COL,),
    size_hint_bytes: int | None = None,
):
    """Co-locate equal ``key`` values and run ``per_partition`` exactly
    once over each co-located partition (an Arrow table, ``key`` columns
    still attached).  The plan is ``exchange_mode(size_hint_bytes)``; only
    canonicalize passes a hint, so every other exchange is the sort
    plan.

    sort (the default): ``sort(key)``, partitions in ascending ``key``
    order.  Ray's sort places every key value wholly inside one merged
    reduce block (rows equal to a boundary fall on one consistent side;
    merge_sorted_blocks returns a single block in the pinned ray 2.49.2),
    so ``map_batches(batch_size=None)`` calls ``per_partition`` once per
    reduce partition.

    hash (>= 512 MiB hinted and >= 4 CPUs):
    ``repartition(default_exchange_partitions(), keys=key)`` under Ray's
    HASH_SHUFFLE — map tasks hash-route rows to aggregator actors and each
    finalized partition is emitted as ONE block.  Exactly-once per key
    holds by hash routing (same key value -> same partition).  There is no
    range-boundary sampling to collapse partitions and no sort barrier —
    fan-in streams as map tasks finish; partition order is unspecified.

    Both plans' exactly-once property is pinned by a regression test that
    forces a tiny ``target_max_block_size`` with partitions many blocks
    large (tests/test_shuffle_exchange.py).

    An empty reduce partition never reaches ``per_partition``.  Ray 2.49.2's
    ``BlocksToBatches`` turns a task's all-empty input into one block built
    by an empty builder, a block with no schema
    (``execution/operators/map_transformer.py``), and the batch UDF passes
    a zero-row batch through without calling the UDF
    (``planner/plan_udf_map_op.py``).  That schema-less block is what Ray
    Data's "different schema than the previous one ... new schema: ."
    warning reports.

    The sort plan turns Ray Data's per-operator reservation off on
    ``tagged.context`` (never the process-global DataContext): the Sort's
    materializing barrier already bounds its producer's object-store use,
    so the reservation only splits CPUs.  The map chain from the last read
    or union through the Sort and every Dataset after it share that one
    context object, and the executor reads the executing Dataset's context
    for the whole topology, so the rule reaches every operator of the plan,
    including both branches of a union.  The hash plan keeps the
    reservation: its map tasks stream into the aggregators with no barrier
    between them."""
    if exchange_mode(size_hint_bytes) == "hash":
        num_partitions = default_exchange_partitions()
        _tune_hash_shuffle(tagged.context, num_partitions, _cluster_cpus())
        return tagged.repartition(
            num_partitions, keys=list(key)
        ).map_batches(per_partition, batch_format="pyarrow", batch_size=None)
    tagged.context.op_resource_reservation_enabled = False
    return tagged.sort(list(key)).map_batches(
        per_partition, batch_format="pyarrow", batch_size=None
    )


def bucket_groupby(
    ds,
    key_cols: Sequence[str],
    fn: Callable[[pa.Table], pa.Table],
    *,
    spread: bool = False,
):
    """Hash-partition ``ds`` by ``key_cols`` into ``NUM_BUCKETS`` buckets
    and apply vectorized ``fn`` to each partition of whole buckets (Arrow
    table, ``__bucket`` already dropped) through the sort exchange.

    Every ``fn`` here does its own per-key grouping internally (a hash
    bucket always contains many keys), so ``fn`` runs ONCE per partition;
    ``groupby().map_groups`` would provide the same partitions but then
    pays a slice + batch-format conversion + Python call + output block PER
    GROUP, which at 4096 buckets doubled the small-corpus bench
    (minhash_lsh 13.4 s -> 26.5 s) for machinery no consumer needed.

    ``spread=True`` asks for a wide reduce because ``fn`` is CPU-heavy per
    bucket (pairwise verification): the tagged stream is repartitioned to
    ``default_exchange_partitions()`` blocks ahead of the sort, whose reduce
    width follows its input block count."""
    key_cols = list(key_cols)

    def tag(batch: pa.Table) -> pa.Table:
        h = _hash_key(batch, key_cols) % np.uint64(NUM_BUCKETS)
        return batch.append_column(BUCKET_COL, pa.array(h.astype(np.int32)))

    def per_partition(part: pa.Table) -> pa.Table:
        return fn(part.drop_columns([BUCKET_COL]))

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    if spread:
        tagged = tagged.repartition(default_exchange_partitions())
    return exchange_map(tagged, per_partition)


def bucket_aggregate(*inputs, keys: Sequence[str],
                     aggs: Mapping[str, tuple[str | None, str]]):
    """Two-phase grouped aggregate, the engine's one GROUP BY: Arrow
    ``group_by(keys)`` once per block of each Dataset in ``inputs`` (the
    combiner, so it fuses into each input's own map operator), then the
    combined streams' union goes through ``bucket_groupby`` on ``keys``,
    which merges the partial columns with the same functions once per
    partition.

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

    ds, *rest = [d.map_batches(combine, batch_format="pyarrow") for d in inputs]
    return bucket_groupby(ds.union(*rest) if rest else ds, keys, merge)


# block_pairs' exchange columns: a row's block pair and its own block
_PI, _PJ, _BLK = "__pi", "__pj", "__blk"


def block_pairs(ds, *, group: Sequence[str], id_col: str,
                nblocks: Callable[[pa.Table], np.ndarray] | None,
                score: Callable[[pa.Table, pa.Table | None],
                                Sequence[np.ndarray]],
                schema: pa.Schema):
    """All-pairs self-join within each ``group`` of ``ds``, a hot group
    split into block pairs so that no task holds a whole group (FP-Hadoop,
    VLDB 2015).

    ``nblocks(batch)`` gives each row's block count, equal across a group.
    A row belongs to block ``splitmix64(id) % nblocks`` and is sent once to
    every partner block ``o``, keyed ``(pi, pj) = (min, max)`` of its
    block and ``o``.  One ``bucket_groupby(spread=True)`` exchange
    co-locates each ``(group, pi, pj)``, and a walk of each partition calls
    ``score(a, b)`` once per block pair: ``a`` the rows of block ``pi``,
    ``b`` those of block ``pj`` (``ds``'s own columns), where every (a, b)
    row pair is to be scored; on the diagonal it calls ``score(a, None)``,
    where every unordered pair of ``a`` is.  A pair of rows of one group is
    thus scored exactly once, a pair across groups never.  A diagonal
    block of one row has no pair and is not scored (at sf0.1, 1,305 of
    minhash_lsh's 2,481 band buckets are one row, and 1,819 of
    simhash_pairs' 3,068).  With ``nblocks`` 1 for every row, each row
    enters the exchange once, as block 0.  ``nblocks=None`` keeps every
    group one block: a non-empty ``group`` alone keys the exchange and no
    block column enters it.  Each
    column the exchange carries costs its sort map and reduce: three int32
    columns of zeros added about 0.4 s to simhash_pairs' 2.4 s at sf0.1
    (2 Ray CPUs, 4-vCPU host).

    ``score`` returns its pairs as one numpy array per ``schema`` field;
    the walk builds one table per partition from them.  ``schema`` is a
    non-empty partition's output when it scores nothing (an empty one
    never reaches the walk, see ``exchange_map``).

    Peak task memory is the block-pair groups that share one reduce
    partition.  The sort's range boundaries are sampled bucket values, so
    there are at most as many partitions as groups, and some partitions
    take two (neardup_cosine's 36 block pairs at sf0.001: 33 partitions,
    3 of them holding two pairs).  ``nblocks=None`` leaves a hot group
    whole: minhash_lsh's largest band bucket at sf0.1 holds 2,654 rows,
    one scorer call."""
    keys = [*group] if nblocks is None else [*group, _PI, _PJ]

    def tag(batch: pa.Table) -> pa.Table:
        nb = np.asarray(nblocks(batch), dtype=np.int64)
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
        if nblocks is None:  # every group is its own diagonal block pair
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

    if nblocks is not None:
        ds = ds.map_batches(tag, batch_format="pyarrow")
    return bucket_groupby(ds, keys, walk, spread=True)

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

One scheduling rule, for every caller: the exchange turns off Ray Data's
per-operator reservation, which gives every map operator at least one CPU
and at 2 CPUs ran the Sort's producer (the fused page operator, the diff's
TTL parse) one task at a time (``exchange_map``).

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
# bucket count of every bucket exchange; see the module docstring for why
# it must dominate partition counts
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

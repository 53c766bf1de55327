"""Hash-bucket exchange: the engine's workhorse for high-cardinality
grouped operations.

Ray Data's ``groupby(cols).aggregate(...)`` sorts fast but then accumulates
PER ROW in Python, and ``map_groups`` pays one interpreter call PER GROUP —
both pathological when the key cardinality approaches the row count
(exact dedup, pair dedup, set diff: millions of single-row groups at scale).

``bucket_groupby`` keeps the exchange but bounds the Python surface:

    rows -> add __bucket = hash(key cols) % NUM_BUCKETS        (vectorized)
         -> sort(__bucket)                                      (ONE shuffle)
         -> map_batches(fn) once per key-complete partition     (few calls)

``fn`` sees every row of a partition (a union of whole buckets) as one
Arrow table and does its grouped work with Arrow-native kernels
(``Table.group_by``), so the per-key cost is C, not Python.  Same-key rows
always share a bucket, so any per-key reduction computed inside ``fn`` is
globally correct.

One plan, one exception.  Every exchange runs the sort plan except
``canonicalize_stage``, the only caller that passes a size hint to
``exchange_map``: it takes Ray's hash-shuffle plan at ``_HASH_MIN_BYTES``
(512 MiB) or more of source input on a cluster of ``_HASH_MIN_CPUS`` (4) or
more CPUs, and the sort plan otherwise.  Hash won only at corpus scale
(160k pages, 32 CPUs: 382 s vs 528 s); at small inputs its aggregator-pool
spawn loses (sf0.1 headline 77.7 s vs 55.0 s) and at 2 CPUs it hangs
(BASELINE.md "Exchange selection").

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
from typing import Callable, Sequence

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
# bucket count of every exchange (canonicalize and bucket_groupby alike);
# see the module docstring for why it must dominate partition counts
NUM_BUCKETS = 4096

# "hash" routes the co-location through Ray's HASH_SHUFFLE
# repartition-by-key (map tasks partition by hash(bucket) and push to
# aggregator actors that concat each partition — no sort barrier, no
# range-boundary sampling, streaming fan-in); "sort" is the sort(__bucket)
# exchange.  Hash removes the width-dependent sort-reduce fan-in (VERDICT
# r3 #1) but pays a fixed ~3-5 s aggregator-pool spawn per exchange, so it
# needs at least this much estimated input to amortize:
_HASH_MIN_BYTES = 512 * 1024 * 1024
# ... and at least this many cluster CPUs: at 2 CPUs the aggregator pool
# and the then linker actor pool left the shuffle's map tasks no slots
# (the 120-page flagship with hash forced made no progress in 390 s).
_HASH_MIN_CPUS = 4
# Scheduler CPU reservation budget for ONE exchange's aggregator-actor
# pool as a fraction of cluster CPUs.  Round-3's HASH_SHUFFLE probe stalled
# because the default reservation — min(1, (CPU/2)/partitions) per
# partition — put 16 of 32 cpus on aggregators and starved the extract/link
# actor pool; see _tune_hash_shuffle for the deadlock arithmetic.
_AGG_CPU_FRACTION = 16


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
    reserved for the life of the shuffle op.  A pipeline can hold TWO live
    exchanges plus an actor-pool stage; if actor reservations ever sum to
    the node's CPUs, the shuffle's own map tasks (num_cpus=1 each) can
    never schedule and the pipeline deadlocks — measured at num_cpus=4
    with the previous max(1.0, cpus/8) budget (2 exchanges x 1.0 + 2 pool
    actors = 4/4 reserved, zero task slots)."""
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
    size_hint_bytes: int | None = None,
):
    """Co-locate equal ``__bucket`` values and run ``per_partition`` exactly
    once over each co-located partition (a union of whole buckets, Arrow
    table, ``__bucket`` still attached).  The plan is
    ``exchange_mode(size_hint_bytes)``; only canonicalize passes a hint, so
    every other exchange is the sort plan.

    sort (the default): ``sort(__bucket)``.  Ray's sort places every bucket
    value wholly inside one merged reduce block (rows equal to a boundary
    fall on one consistent side; merge_sorted_blocks returns a single block
    in the pinned ray 2.49.2), so ``map_batches(batch_size=None)`` calls
    ``per_partition`` once per reduce partition.

    hash (>= 512 MiB hinted and >= 4 CPUs):
    ``repartition(default_exchange_partitions(), keys=[__bucket])`` under
    Ray's HASH_SHUFFLE — map tasks hash-route rows to aggregator actors and
    each finalized partition is emitted as ONE block.  Exactly-once per
    bucket holds by hash routing (same bucket value -> same partition).
    There is no range-boundary sampling to collapse partitions and no sort
    barrier — fan-in streams as map tasks finish.

    Both plans' exactly-once property is pinned by a regression test that
    forces a tiny ``target_max_block_size`` with multi-block-sized buckets
    (tests/test_shuffle_exchange.py)."""
    if exchange_mode(size_hint_bytes) == "hash":
        num_partitions = default_exchange_partitions()
        _tune_hash_shuffle(tagged.context, num_partitions, _cluster_cpus())
        return tagged.repartition(
            num_partitions, keys=[BUCKET_COL]
        ).map_batches(per_partition, batch_format="pyarrow", batch_size=None)
    return tagged.sort(BUCKET_COL).map_batches(
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

"""Exchange contract regression (ADVICE r3, medium): every ``__bucket``
value must reach the per-partition fn EXACTLY ONCE, even when a single
bucket's rows are far larger than ``target_max_block_size``.

Both physical modes are pinned, each selected through ``exchange_mode``
by the size hint canonicalize passes (the only exchange that chooses):

* hash (size hint >= ``_HASH_MIN_BYTES`` on >= 4 CPUs): repartition-by-key
  finalization must emit one block per partition — if a future Ray splits
  finalized partitions to honor the block-size target, a bucket would
  straddle two fn calls and canonicalize dedup would silently emit
  duplicate triples.
* sort (smaller or no size hint): relies on merge_sorted_blocks returning
  a single merged block per reduce partition in the pinned ray 2.49.2.

The test forces a pathological ``target_max_block_size`` (64 KiB) with
8 buckets of ~1.5 MiB each, so any partition-splitting behavior change in
Ray is caught loudly here rather than as silent duplicates downstream.

The scheduling rule ``exchange_map`` sets for each plan is pinned here too.
"""

from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa
import pytest


def _size_hint(mode: str) -> int | None:
    """The size hint that makes ``exchange_mode`` select ``mode``."""
    from kgray.stages.shuffle import _HASH_MIN_BYTES

    return _HASH_MIN_BYTES if mode == "hash" else None


def test_exchange_mode_selects_by_size_hint(monkeypatch):
    from kgray.stages import shuffle
    from kgray.stages.shuffle import _HASH_MIN_BYTES, exchange_mode

    assert exchange_mode(None) == "sort"
    assert exchange_mode(_HASH_MIN_BYTES - 1) == "sort"
    assert exchange_mode(_HASH_MIN_BYTES) == "hash"
    # the hash exchange hangs at 2 CPUs: width guard
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 2)
    assert exchange_mode(_HASH_MIN_BYTES) == "sort"
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 4)
    assert exchange_mode(_HASH_MIN_BYTES) == "hash"


def _run_exchange(ray, mode: str) -> list[dict]:
    from kgray.stages.shuffle import BUCKET_COL, exchange_map

    n, num_buckets = 40_000, 8
    rng = np.random.default_rng(7)
    t = pa.table(
        {
            "k": rng.integers(0, 1000, n),
            "pad": pa.array([f"pad-{i % 997}" * 8 for i in range(n)]),
        }
    )

    def tag(b: pa.Table) -> pa.Table:
        bucket = (np.asarray(b["k"]) % num_buckets).astype(np.int32)
        return b.append_column(BUCKET_COL, pa.array(bucket))

    def per_partition(part: pa.Table) -> pa.Table:
        buckets = pa.compute.unique(part[BUCKET_COL]).to_pylist()
        return pa.table(
            {
                "buckets": [",".join(map(str, sorted(buckets)))],
                "rows": [len(part)],
            }
        )

    ds = ray.data.from_arrow(t)
    # per-dataset context copy: pathological block-size target, this test only
    ds.context.target_max_block_size = 64 * 1024
    tagged = ds.map_batches(tag, batch_format="pyarrow")
    out = exchange_map(tagged, per_partition,
                       size_hint_bytes=_size_hint(mode)).take_all()
    return out


@pytest.mark.parametrize("mode", ["hash", "sort"])
def test_bucket_reaches_fn_exactly_once(ray_session, mode):
    out = _run_exchange(ray_session, mode)
    seen: collections.Counter = collections.Counter()
    total_rows = 0
    for rec in out:
        total_rows += rec["rows"]
        for b in rec["buckets"].split(","):
            seen[b] += 1
    assert total_rows == 40_000
    assert sorted(seen) == [str(i) for i in range(8)]
    dups = {b: c for b, c in seen.items() if c > 1}
    assert not dups, f"buckets split across fn calls: {dups}"


@pytest.mark.parametrize("mode", ["hash", "sort"])
def test_canonicalize_rows_mode_independent(ray_session, mode):
    """The one exchange that still chooses its plan: canonicalize yields
    the same row set through either exchange, equal to the single-batch
    dedup of the same table."""
    from kgray.fixtures import gen_pages_table, raw_ops_table
    from kgray.stages.canonicalize import canonicalize_stage, local_dedup

    raw = raw_ops_table(gen_pages_table(60))

    def rows(records: list[dict]) -> collections.Counter:
        return collections.Counter(
            tuple(r[c] for c in raw.column_names) for r in records)

    expected = rows(local_dedup(raw).to_pylist())
    assert sum(expected.values()) < len(raw)
    out = canonicalize_stage(ray_session.data.from_arrow(raw),
                             size_hint_bytes=_size_hint(mode))
    assert rows(out.take_all()) == expected


def _reservation_case(ray, case: str, small_corpus):
    """The lazy Dataset each exchange caller returns."""
    from kgray.fixtures import gen_pages_table, raw_ops_table
    from kgray.pipelines.kg import kg_triples, read_pages
    from kgray.schema import SNAPSHOT
    from kgray.stages.canonicalize import canonicalize_stage
    from kgray.stages.diff import diff_snapshots
    from kgray.stages.shuffle import bucket_groupby

    if case == "kg_triples":
        return kg_triples(read_pages(small_corpus))
    if case == "diff_snapshots":
        snap = pa.Table.from_pylist([dict.fromkeys(SNAPSHOT.names, "x")],
                                    schema=SNAPSHOT)
        return diff_snapshots(ray.data.from_arrow(snap),
                              ray.data.from_arrow(snap))
    if case == "bucket_groupby":
        return bucket_groupby(ray.data.from_arrow(pa.table({"k": [1, 2]})),
                              ["k"], lambda t: t)
    raw = ray.data.from_arrow(raw_ops_table(gen_pages_table(4)))
    mode = case.removeprefix("canonicalize-")
    return canonicalize_stage(raw, size_hint_bytes=_size_hint(mode))


@pytest.mark.parametrize("case, enabled", [
    ("kg_triples", False),
    ("canonicalize-sort", False),
    ("diff_snapshots", False),
    ("bucket_groupby", False),
    ("canonicalize-hash", True),
])
def test_sort_plan_lifts_the_per_operator_reservation(
        ray_session, small_corpus, monkeypatch, case, enabled):
    """``exchange_map`` turns Ray Data's per-operator CPU reservation off
    on the Dataset's own context under the sort plan, for every caller (at
    2 CPUs it held the producer of a sort to one task at a time); the hash
    plan keeps it, and the process-global context is never touched."""
    from ray.data import DataContext

    from kgray.stages import shuffle

    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 4)
    ds = _reservation_case(ray_session, case, small_corpus)
    assert ds.context.op_resource_reservation_enabled is enabled
    assert DataContext.get_current().op_resource_reservation_enabled is True

"""Exchange contract regression (ADVICE r3, medium): every ``__bucket``
value must reach the per-partition fn EXACTLY ONCE, even when a single
bucket's rows are far larger than ``target_max_block_size``.

Both physical modes are pinned, each selected through ``exchange_mode``
by the size hint the pipelines pass:

* hash (size hint >= ``_HASH_MIN_BYTES``): repartition-by-key
  finalization must emit one block per partition — if a future Ray splits
  finalized partitions to honor the block-size target, a bucket would
  straddle two fn calls and canonicalize dedup would silently emit
  duplicate triples.
* sort (smaller or no size hint): relies on merge_sorted_blocks returning
  a single merged block per reduce partition in the pinned ray 2.49.2.

The test forces a pathological ``target_max_block_size`` (64 KiB) with
8 buckets of ~1.5 MiB each, so any partition-splitting behavior change in
Ray is caught loudly here rather than as silent duplicates downstream.
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


def test_exchange_mode_selects_by_size_hint():
    from kgray.stages.shuffle import _HASH_MIN_BYTES, exchange_mode

    assert exchange_mode(None) == "sort"
    assert exchange_mode(_HASH_MIN_BYTES - 1) == "sort"
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
    out = exchange_map(tagged, per_partition, num_partitions=16,
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


def test_bucket_groupby_results_mode_independent(ray_session):
    """Same aggregate rows out of both physical exchanges."""
    from kgray.stages.shuffle import bucket_groupby

    n = 20_000
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "key": pa.array([f"k{int(v)}" for v in rng.integers(0, 500, n)]),
            "val": rng.integers(0, 10_000, n),
        }
    )

    def per_bucket(part: pa.Table) -> pa.Table:
        return (
            part.group_by(["key"], use_threads=False)
            .aggregate([("val", "sum")])
            .rename_columns(["key", "val_sum"])
        )

    results = {}
    for mode in ("hash", "sort"):
        ds = ray_session.data.from_arrow(t)
        rows = bucket_groupby(ds, ["key"], per_bucket,
                              size_hint_bytes=_size_hint(mode)).take_all()
        results[mode] = sorted((r["key"], r["val_sum"]) for r in rows)
    assert results["hash"] == results["sort"]
    assert len(results["hash"]) == 500

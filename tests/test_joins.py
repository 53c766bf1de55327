"""``stages.joins``: ``broadcast_join``, a plain ``map_batches`` probe of a
dim table that the calling process checked and broadcast once, and
``equi_join``, the inner, left-semi and left-anti join on the bucket
exchange."""

from __future__ import annotations

import collections
import uuid

import numpy as np
import pyarrow as pa
import pytest

from kgray.stages.joins import broadcast_join, equi_join


def test_broadcast_join_is_an_inner_join(ray_session):
    import ray.data as rd

    facts = rd.from_arrow(pa.table({"k": [1, 2, 3, 2, None], "x": list("abcde")}))
    dim = pa.table({"key": [2, 1, 9], "v": ["two", "one", "nine"], "w": [20, 10, 90]})
    got = broadcast_join(facts, dim, on="k", right_on="key", dim_cols=["v", "w"])
    rows = sorted(got.take_all(), key=lambda r: r["x"])
    assert rows == [{"k": 1, "x": "a", "v": "one", "w": 10},
                    {"k": 2, "x": "b", "v": "two", "w": 20},
                    {"k": 2, "x": "d", "v": "two", "w": 20}]


def test_broadcast_join_rejects_duplicate_dim_keys(ray_session):
    """``pc.index_in`` would join the first of two rows with one key; the
    call refuses the dim before any task runs."""
    import ray.data as rd

    facts = rd.from_arrow(pa.table({"k": [1, 2]}))
    dim = rd.from_arrow(pa.table({"k": [1, 2, 1], "v": ["a", "b", "c"]}))
    with pytest.raises(ValueError, match="duplicate 'k' keys"):
        broadcast_join(facts, dim, on="k", dim_cols=["v"])


def _rows(t: pa.Table) -> collections.Counter:
    return collections.Counter(zip(*(t[c].to_pylist() for c in t.column_names)))


def test_equi_join_matches_duckdb(ray_session, monkeypatch, tmp_path):
    """The three join kinds equal DuckDB's ``JOIN``, ``EXISTS`` and ``NOT
    EXISTS``, row for row as multisets.  Both sides hold null keys (which
    match nothing, and which the anti join keeps), keys repeated on both
    sides (the inner join's rows per key are the product of the two
    counts) and keys found on one side only; the right key has its own
    name and a narrower type.  Each side is 20 blocks under a 64 KiB
    block-size target, the exchange is 64 ranges wide (a monkeypatched
    CPU count), and only 40 keys reach the right side, so some reduce
    partitions hold one side only: a spy on the exchange records the
    sides each partition holds."""
    import duckdb
    import ray.data as rd

    from kgray.stages import joins, shuffle

    rng = np.random.default_rng(5)
    n_left, n_right = 20_000, 4_000
    left = pa.table({
        "k": pa.array(rng.integers(0, 3000, n_left),
                      mask=rng.random(n_left) < 0.01),
        "a": pa.array([f"a{i % 101}" for i in range(n_left)]),
        "pad": pa.array([f"pad-{i % 997}" * 8 for i in range(n_left)]),
    })
    # 30 keys shared with the left, 10 above its range
    rkeys = np.concatenate([rng.choice(3000, 30, replace=False),
                            np.arange(5000, 5010)])
    right = pa.table({
        "rk": pa.array(rng.choice(rkeys, n_right).astype(np.int32),
                       mask=rng.random(n_right) < 0.01),
        "b": pa.array(rng.integers(-100, 100, n_right)),
        "pad_r": pa.array([f"pad-{i % 991}" * 8 for i in range(n_right)]),
    })
    assert left["k"].null_count and right["rk"].null_count
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    def spread(t: pa.Table):
        ds = rd.from_arrow(t).repartition(20)
        # per-dataset context copy: pathological block-size target, this test only
        ds.context.target_max_block_size = 64 * 1024
        return ds

    calls = tmp_path / "sides"
    calls.mkdir()
    real = joins.bucket_groupby

    def spy(*inputs, keys, fn):
        def recorded(part: pa.Table) -> pa.Table:
            sides = sorted(set(part["__side"].to_pylist()))
            (calls / uuid.uuid4().hex).write_text(",".join(map(str, sides)))
            return fn(part)
        return real(*inputs, keys=keys, fn=recorded)

    monkeypatch.setattr(joins, "bucket_groupby", spy)
    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: 64)
    cases = {
        "inner": "SELECT l.*, r.b, r.pad_r FROM l JOIN r ON l.k = r.rk",
        "left semi": "SELECT * FROM l WHERE EXISTS "
                     "(SELECT 1 FROM r WHERE r.rk = l.k)",
        "left anti": "SELECT * FROM l WHERE NOT EXISTS "
                     "(SELECT 1 FROM r WHERE r.rk = l.k)",
    }
    for join_type, sql in cases.items():
        got = pa.Table.from_pylist(equi_join(
            spread(left), spread(right), on="k", right_on="rk",
            join_type=join_type).take_all())
        want = con.sql(sql).arrow()
        assert got.column_names == want.column_names, join_type
        assert _rows(got) == _rows(want), join_type
        assert len(want) > 0
    sides = collections.Counter(f.read_text() for f in calls.iterdir())
    assert sides["1"] and sides["1,2"], sides
    per_key = collections.Counter(right["rk"].to_pylist())
    product = sum(per_key[k] for k in left["k"].to_pylist() if k is not None)
    assert len(con.sql(cases["inner"]).arrow()) == product


def test_equi_join_rejects_clashing_columns(ray_session):
    """A non-key column on both sides of an inner join has no one name in
    the shared schema; the call refuses it before any task runs."""
    import ray.data as rd

    left = rd.from_arrow(pa.table({"k": [1], "v": ["a"]}))
    right = rd.from_arrow(pa.table({"k": [1], "v": ["b"]}))
    with pytest.raises(ValueError, match=r"\['v'\]"):
        equi_join(left, right, on="k", join_type="inner")
    # a semi join takes only the right keys: no clash
    assert equi_join(left, right, on="k", join_type="left semi").take_all() == [
        {"k": 1, "v": "a"}]

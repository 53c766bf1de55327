"""Exchange contract regression (ADVICE r3, medium): every key value must
reach the per-partition fn EXACTLY ONCE, even when a single key's rows are
far larger than ``target_max_block_size``.

The one plan, the sort exchange, relies on merge_sorted_blocks returning
a single merged block per reduce partition in the pinned ray 2.49.2, on
an int bucket key and on canonicalize's four uint64 order words alike.

The tests force a pathological ``target_max_block_size`` (64 KiB) with
multi-block-sized keys, so any partition-splitting behavior change in Ray
is caught loudly here rather than as silent duplicates downstream.

Canonicalize's sort plan range-sorts on the order words of three string
columns and writes its partitions in that order, so its exactly-once and
order contracts are pinned here too, with non-ASCII keys, NUL bytes and
shared 32-byte prefixes; so is the scheduling rule ``exchange_map`` sets
for every caller.
"""

from __future__ import annotations

import collections
import datetime as dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _run_exchange(ray, key: str) -> list[dict]:
    from kgray.stages.shuffle import BUCKET_COL, NUM_BUCKETS, exchange_map

    n, num_keys = 40_000, 8
    cols = [f"w{i}" for i in range(4)] if key == "words" else [BUCKET_COL]
    rng = np.random.default_rng(7)
    t = pa.table(
        {
            "k": rng.integers(0, 1000, n),
            "pad": pa.array([f"pad-{i % 997}" * 8 for i in range(n)]),
        }
    )

    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b["k"]) % num_keys
        # bucket values spread over [0, NUM_BUCKETS), so that the known
        # ranges of the bucket exchange put them in more than one partition
        spread = k * (NUM_BUCKETS // num_keys) + 3
        b = b.append_column(BUCKET_COL, pa.array(spread.astype(np.int32)))
        # four uint64 words, the leading ones shared between keys and the
        # last at the top of the range, as canonicalize's order words are
        words = [np.full(len(k), 2**63, np.uint64), (k % 2).astype(np.uint64),
                 (k // 2).astype(np.uint64) << np.uint64(62),
                 np.uint64(2**64 - 1) - k.astype(np.uint64)]
        for c, w in zip(("w0", "w1", "w2", "w3"), words):
            b = b.append_column(c, pa.array(w))
        return b

    def per_partition(part: pa.Table) -> pa.Table:
        keys = set(zip(*(part[c].to_pylist() for c in cols)))
        return pa.table(
            {
                "keys": [",".join(sorted("/".join(map(str, k)) for k in keys))],
                "rows": [len(part)],
            }
        )

    ds = ray.data.from_arrow(t)
    # per-dataset context copy: pathological block-size target, this test only
    ds.context.target_max_block_size = 64 * 1024
    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return exchange_map(tagged, per_partition, key=cols).take_all()


@pytest.mark.parametrize("key", ["sort", "words"])
def test_bucket_reaches_fn_exactly_once(ray_session, key):
    """``sort``: the int ``__bucket`` key; ``words``: a four-column uint64
    key, the shape of canonicalize's order words."""
    out = _run_exchange(ray_session, key)
    seen: collections.Counter = collections.Counter()
    total_rows = 0
    for rec in out:
        total_rows += rec["rows"]
        for b in rec["keys"].split(","):
            seen[b] += 1
    assert total_rows == 40_000
    assert len(seen) == 8
    assert len(out) > 1
    dups = {b: c for b, c in seen.items() if c > 1}
    assert not dups, f"keys split across fn calls: {dups}"


@pytest.mark.parametrize("blocks", [8, 40])
@pytest.mark.parametrize("width", [None, 1, 3])
def test_bucket_exchange_emits_one_partition_per_cpu(
        ray_session, monkeypatch, blocks, width):
    """A bucket exchange is cut on known ranges of ``__bucket``, as many
    as the cluster has CPUs: whatever its input block count (8, or 40
    under a 64 KiB block-size target), ``bucket_groupby`` yields exactly
    that many output blocks holding rows, one ``fn`` call each, every
    call on at least one row, and every key in one call.  ``None`` is the live width (``ray_session``'s
    CPUs, read from the cluster); 1 and 3 are monkeypatched CPU counts,
    one range and a count that does not divide ``NUM_BUCKETS``."""
    from kgray.stages import shuffle
    from kgray.stages.shuffle import bucket_groupby

    cpus = int(ray_session.cluster_resources()["CPU"])
    assert shuffle._cluster_cpus() == cpus
    want = width or cpus
    if width:
        monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: width)
    n = 40_000
    t = pa.table({"k": np.arange(n) % 1000,
                  "pad": pa.array([f"pad-{i % 997}" * 8 for i in range(n)])})
    ds = ray_session.data.from_arrow(
        [t.slice(i * n // blocks, n // blocks) for i in range(blocks)])
    assert ds.num_blocks() == blocks
    # per-dataset context copy: pathological block-size target, this test only
    ds.context.target_max_block_size = 64 * 1024

    def keys(part: pa.Table) -> pa.Table:
        return pa.table({"keys": [pc.unique(part["k"]).to_pylist()],
                         "rows": [len(part)]})

    out = bucket_groupby(ds, keys=["k"], fn=keys).materialize()
    sizes = [m.num_rows for b in out.iter_internal_ref_bundles()
             for _, m in b.blocks]
    assert sum(s > 0 for s in sizes) == want, sizes
    calls = out.take_all()
    assert len(calls) == want
    assert sum(c["rows"] for c in calls) == n
    # no fn call sees an empty partition (an empty range gets none)
    assert min(c["rows"] for c in calls) > 0
    seen = collections.Counter(k for c in calls for k in c["keys"])
    assert len(seen) == 1000 and max(seen.values()) == 1


def test_canonicalize_rows_exactly_once(ray_session):
    """Canonicalize yields exactly the single-batch dedup of
    its input, row for row in key order: on a small table, and on a
    6x-duplicated one spread over 40 blocks under a 64 KiB block-size
    target, where every key's copies arrive in many blocks and the reduce
    partitions are many blocks large."""
    from kgray.fixtures import gen_pages_table, raw_ops_table
    from kgray.stages.canonicalize import canonicalize_stage, local_dedup

    raw = raw_ops_table(gen_pages_table(60))
    expected = local_dedup(raw, in_key_order=True)
    assert len(expected) < len(raw)
    out = canonicalize_stage(ray_session.data.from_arrow(raw))
    assert pa.Table.from_pylist(out.take_all(), raw.schema).equals(expected)

    dup = pa.concat_tables([raw] * 6)
    ds = ray_session.data.from_arrow(dup).repartition(40)
    # per-dataset context copy: pathological block-size target, this test only
    ds.context.target_max_block_size = 64 * 1024
    out = canonicalize_stage(ds)
    assert pa.Table.from_pylist(out.take_all(), raw.schema).equals(expected)


def test_bucket_aggregate_matches_one_pass_group_by(ray_session):
    """``bucket_aggregate`` equals DuckDB's ``GROUP BY`` over the whole
    table.  The table arrives as two inputs, as ``union_agg`` passes its
    branches, each 20 blocks under a 64 KiB block-size target, so every
    key's partials come from many blocks.  Key ``k`` and the value
    columns hold nulls: a null key is one group, and ``count(*)`` counts
    rows with null values.  Checked: min, max, an int and a float sum,
    the count and the no-aggregate distinct, each under the output name
    the call gives it; then three keys over 40 blocks, where most reduce
    partitions receive no row."""
    import duckdb

    from kgray.stages.shuffle import bucket_aggregate

    n = 40_000
    rng = np.random.default_rng(11)
    nulls = rng.random((3, n)) < 0.02
    t = pa.table({
        "k": pa.array(rng.integers(0, 3000, n), mask=nulls[0]),
        "s": pa.array([f"s{i % 7}" for i in range(n)]),
        "v": pa.array(rng.integers(-10**6, 10**6, n), mask=nulls[1]),
        # quarters: every order of summation is exact
        "f": pa.array(rng.integers(-4000, 4000, n) / 4, mask=nulls[2]),
        "pad": pa.array([f"pad-{i % 997}" * 8 for i in range(n)]),
    })
    assert t["k"].null_count > 1
    con = duckdb.connect()
    con.register("t", t)
    halves = []
    for part in (t.slice(0, n // 2), t.slice(n // 2)):
        ds = ray_session.data.from_arrow(part).repartition(20)
        # per-dataset context copy: pathological block-size target, this test only
        ds.context.target_max_block_size = 64 * 1024
        halves.append(ds)

    def check(inputs, keys, aggs, sql):
        got = pa.Table.from_pylist(
            bucket_aggregate(*inputs, keys=keys, aggs=aggs).take_all())
        assert got.column_names == [*keys, *aggs]
        want = con.sql(sql).arrow().rename_columns(got.column_names).cast(
            got.schema)
        order = [(k, "ascending") for k in keys]
        assert got.sort_by(order).to_pylist() == want.sort_by(order).to_pylist()
        return got

    got = check(halves, ["k", "s"],
                {"v_min": ("v", "min"), "v_max": ("v", "max"),
                 "v_sum": ("v", "sum"), "f_sum": ("f", "sum"),
                 "n": (None, "count")},
                "SELECT k, s, min(v), max(v), CAST(sum(v) AS BIGINT), sum(f),"
                " count(*) FROM t GROUP BY k, s")
    assert len(got.filter(pc.is_null(got["k"]))) == 7  # one per s
    check(halves, ["k", "s"], {}, "SELECT DISTINCT k, s FROM t")

    three = t.append_column("k3", pa.array(np.arange(n) % 3))
    con.register("three", three)
    ds = ray_session.data.from_arrow(three).repartition(40)
    got = check([ds], ["k3"], {"n": (None, "count"), "f_sum": ("f", "sum")},
                "SELECT k3, count(*), sum(f) FROM three GROUP BY k3")
    assert len(got) == 3


def test_canonicalize_orders_keys_by_code_point(ray_session):
    """The range bounds fall on the order words and ``local_dedup`` sorts
    each partition with polars: both must order by code point, or a
    partition's rows would interleave with its neighbours'.  U+FB01 sorts
    below U+1D11E by code point but above it in UTF-16, so the two orders
    are told apart.  ``pred``/``subj`` values hold NUL inside the first
    32 bytes, are prefixes of one another ("p" < "p\\x00" < "pa"), and
    share 32-byte prefixes, so a separator or escaping bug in the order
    words misorders the output; some objects are null and sort last."""
    from kgray.schema import OPS
    from kgray.stages.canonicalize import KEY_ORDER, canonicalize_stage

    words = ["plain", "café", "Ωmega", "日本", "ﬁn", "𝄞clef", "Zeta", "émile"]
    long = "L" * 29
    preds = words + ["p", "p\x00", "p\x00a", "p\x00\x00", "p\x01", "pa",
                     long, long + "\x00", long + "\x00b", long + "a\x00"]
    subjs = ["a", "zz", "\x00", "b\x00", "s" * 40, "s" * 40 + "\x00"]
    rows = [
        {"subj": (f"wd:Q{i % 5}{words[i % 7]}" if i % 4
                  else subjs[i // 4 % 6]),
         "pred": preds[i % 18],
         "obj": None if i % 37 == 0 else words[(i * 3) % 8] + str(i % 4),
         "obj_type": "literal",
         "lang": None if i % 3 else "ja", "datatype": "",
         "src_url": f"u{i % 2}",
         "warc_ts": dt.datetime(2024, 1, 1) + dt.timedelta(seconds=i % 3),
         "op": ("INSERT", "DELETE")[i % 2]}
        for i in range(4800)
    ]
    t = pa.Table.from_pylist(rows, OPS)
    out = canonicalize_stage(ray_session.data.from_arrow(t).repartition(24))
    # read the 24 partitions in exchange order, not completion order
    out.context.execution_options.preserve_order = True
    got = [tuple(r[c] for c in KEY_ORDER) for r in out.take_all()]
    keys = {tuple(r[c] for c in KEY_ORDER) for r in rows}
    assert len(got) == len(keys) and set(got) == keys
    assert got == sorted(got, key=lambda k: [(v is None, v or "") for v in k])
    assert any("𝄞" in k[0] for k in got) and any("ﬁ" in k[0] for k in got)


def _reservation_case(ray, case: str, small_corpus):
    """The lazy Dataset each exchange caller returns."""
    from kgray.fixtures import gen_pages_table, raw_ops_table
    from kgray.pipelines.kg import kg_triples, read_pages
    from kgray.schema import SNAPSHOT
    from kgray.stages.canonicalize import canonicalize_stage
    from kgray.stages.diff import diff_snapshots
    from kgray.stages.joins import equi_join
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
                              keys=["k"], fn=lambda t: t)
    if case == "equi_join":
        return equi_join(ray.data.from_arrow(pa.table({"k": [1, 2]})),
                         ray.data.from_arrow(pa.table({"k": [2, 3]})),
                         on="k", join_type="inner")
    return canonicalize_stage(
        ray.data.from_arrow(raw_ops_table(gen_pages_table(4))))


@pytest.mark.parametrize("case", [
    "kg_triples", "canonicalize", "diff_snapshots", "bucket_groupby",
    "equi_join",
])
def test_sort_plan_lifts_the_per_operator_reservation(
        ray_session, small_corpus, case):
    """``exchange_map`` turns Ray Data's per-operator CPU reservation off
    on the Dataset's own context, for every caller (at 2 CPUs it held the
    producer of a sort to one task at a time); the process-global context
    is never touched."""
    from ray.data import DataContext

    ds = _reservation_case(ray_session, case, small_corpus)
    assert ds.context.op_resource_reservation_enabled is False
    assert DataContext.get_current().op_resource_reservation_enabled is True


def _executed_operators(ds) -> list[str]:
    """The operator names of ``ds``'s executed plan, in Ray's stats order
    (a union's branches before the ``UnionOperator``)."""
    import re

    return re.findall(r"^Operator \d+ (.+?):", ds.materialize().stats(), re.M)


@pytest.mark.parametrize("case", ["diff_snapshots", "equi_join"])
def test_bucket_tag_fuses_ahead_of_the_union(ray_session, small_corpus, case):
    """Each input of a two-sided bucket exchange hashes ``__bucket`` in its
    own map chain: the executed plan runs the Sort straight after the
    ``UnionOperator``, with no ``MapBatches(tag)`` behind it."""
    names = _executed_operators(
        _reservation_case(ray_session, case, small_corpus))
    union = next(i for i, n in enumerate(names)
                 if n.startswith("UnionOperator("))
    assert names[union + 1] == "Sort", names
    assert not any("MapBatches(tag)" in n for n in names[union + 1:]), names


def test_block_pairs_plan_has_no_repartition(ray_session, monkeypatch):
    """``block_pairs``' exchange takes its width from its range boundaries:
    no ``Repartition`` runs ahead of the Sort, with or without a split
    group."""
    from kgray.stages import shuffle
    from kgray.stages.shuffle import block_pairs

    t = pa.table({"g": [i % 3 for i in range(30)],
                  "id": pa.array(range(30), pa.int64())})
    ds = ray_session.data.from_arrow([t.slice(i, 10) for i in (0, 10, 20)])
    schema = pa.schema([("x", pa.int64())])

    def score(a: pa.Table, b: pa.Table | None):
        return (a["id"].to_numpy()[:1],)

    for limit in (shuffle.MAX_BLOCK_ROWS, 4):
        monkeypatch.setattr(shuffle, "MAX_BLOCK_ROWS", limit)
        names = _executed_operators(block_pairs(
            ds, group=["g"], id_col="id", score=score, schema=schema))
        assert "Sort" in names, names
        assert not any("Repartition" in n for n in names), names


def test_block_pairs_scores_every_in_group_pair_once(ray_session, monkeypatch):
    """Five groups of 1, 7, 40, 1 and 3 rows under a row limit of 2 split
    into 1, 4, 20, 1 and 2 blocks: the scorer sees every unordered pair of
    rows of one group exactly once, and no pair across groups; the split
    groups are scored in part by cross block pairs.  No diagonal call gets
    fewer than two rows (one of group e's two blocks holds one row, and
    groups b and c have empty blocks).  Under a limit no group exceeds,
    every input row enters the exchange exactly once and carries only
    ``ds``'s columns; under a limit only group c exceeds, c's rows enter
    once per block of c and every other row once, as block 0.  All three
    limits give the same pairs."""
    import itertools

    import ray.data as rd

    from kgray.stages import shuffle
    from kgray.stages.shuffle import block_pairs

    sizes = {"a": 1, "b": 7, "c": 40, "d": 1, "e": 3}
    group = [g for g, n in sizes.items() for _ in range(n)]
    ds = rd.from_arrow(pa.table({
        "g": group, "id": pa.array(range(len(group)), pa.int64()),
    })).repartition(4)
    schema = pa.schema([("x", pa.int64()), ("y", pa.int64()),
                        ("cross", pa.bool_())])

    def score(a: pa.Table, b: pa.Table | None):
        ia = a["id"].to_numpy()
        if b is None:
            assert len(ia) >= 2, f"diagonal call on {len(ia)} row(s)"
            i, j = np.triu_indices(len(ia), 1)
            x, y = ia[i], ia[j]
        else:
            ib = b["id"].to_numpy()
            x, y = np.repeat(ia, len(ib)), np.tile(ib, len(ia))
        return (np.minimum(x, y), np.maximum(x, y),
                np.full(len(x), b is not None))

    monkeypatch.setattr(shuffle, "MAX_BLOCK_ROWS", 2)
    out = block_pairs(ds, group=("g",), id_col="id", score=score,
                      schema=schema).take_all()
    seen = collections.Counter((r["x"], r["y"]) for r in out)
    want = {(x, y) for x, y in itertools.combinations(range(len(group)), 2)
            if group[x] == group[y]}
    assert set(seen) == want and len(want) == 21 + 780 + 3
    assert max(seen.values()) == 1
    assert {group[r["x"]] for r in out if r["cross"]} == {"b", "c", "e"}

    entered = []

    def spy(tagged, *args, **kwargs):
        entered.append(tagged)
        return real(tagged, *args, **kwargs)

    real = shuffle.bucket_groupby
    monkeypatch.setattr(shuffle, "bucket_groupby", spy)
    for limit, hot_blocks in ((40, 1), (39, 2)):
        monkeypatch.setattr(shuffle, "MAX_BLOCK_ROWS", limit)
        one = block_pairs(ds, group=("g",), id_col="id", score=score,
                          schema=schema).take_all()
        rows = entered.pop().take_all()  # the exchange, after the count
        copies = collections.Counter(r["id"] for r in rows)
        assert copies == {i: hot_blocks if g == "c" else 1
                          for i, g in enumerate(group)}
        if hot_blocks == 1:
            assert all(set(r) == {"g", "id"} for r in rows)
        else:
            assert ({(r["__pi"], r["__pj"], r["__blk"]) for r in rows
                     if r["g"] != "c"} == {(0, 0, 0)})
        assert sorted((r["x"], r["y"]) for r in one) == sorted(want)
        assert ({group[r["x"]] for r in one if r["cross"]}
                == set("c" * (hot_blocks > 1)))

"""Relational operator suite over the testdata star schema.

Each function here is one SURVEY.md §2 operator family re-expressed
Ray-Data-first over the driver's TPC-H-ish tables, with an exact DuckDB SQL
oracle registered in ``__ray_entry__.oracle_sql``.  These are the
SQL-checkable half of the engine's surface (the KG pipeline itself runs on
the synthetic pages corpus and is oracled by ``kgray.oracle``).

Scale notes applied throughout:
* reads prune columns at the source (``read_parquet(columns=...)``);
* every aggregation is ``shuffle.bucket_aggregate``: a per-block Arrow
  ``group_by`` combiner collapses rows BEFORE the one bucket exchange
  (SURVEY.md §4 skew row), and the merge is the same Arrow ``group_by``
  per partition; no row of it passes through Python;
* small dims broadcast (stages.joins.broadcast_join), big-big joins run
  ``stages.joins.equi_join`` on the same bucket exchange;
* top-k never globally sorts the input: per-batch local top-k first, then a
  tiny global sort over ≤k·num_batches rows;
* floats that result from arithmetic are rounded identically on both sides
  (ROUND(x, 2)) so the driver's value-hash is stable.
"""

from __future__ import annotations

import datetime as _dt
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.diff import set_diff, tag_side
from ..stages.joins import broadcast_join, equi_join
from ..stages.shuffle import bucket_aggregate, bucket_groupby

# -- thresholds shared by the Ray pipelines and the SQL oracles -------------
REGEX_PATTERN = "spark"
WINDOW_START = _dt.datetime(2024, 1, 10)
WINDOW_END = _dt.datetime(2024, 1, 20)
SHIP_CUTOFF = _dt.datetime(1998, 9, 2)
TOPK_N = 20
HIGH_PRICE = 400_000.0
UNION_PRICE = 200_000.0


def read_table(sf_dir: str, name: str, columns=None):
    return rd.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"),
        columns=list(columns) if columns else None,
    )


def _round2(batch: pa.Table, cols) -> pa.Table:
    for c in cols:
        batch = batch.set_column(
            batch.column_names.index(c), c, pc.round(batch[c], 2)
        )
    return batch


def _to_int_units(batch: pa.Table, col: str, scale: float) -> pa.Table:
    """Money-sum columns become exact integers (cents): at sums ≥ ~1e8 a
    double's ulp reaches 1e-7 and PyArrow's and DuckDB's ROUND(x, 2) land
    on neighboring doubles — integer emission sidesteps the whole class."""
    i = batch.column_names.index(col)
    v = pc.cast(pc.round(pc.multiply(batch[col], scale), 0), pa.int64())
    return batch.set_column(i, col, v)


# ---------------------------------------------------------------------------
# M1 — vectorized regex filter (reference: Q\d+ title filter,
# sparql_updates.py:442; pattern matching via pc kernels, no Python rows)
# ---------------------------------------------------------------------------

def filter_regex(sf_dir: str):
    docs = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def fn(b: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.match_substring_regex(b["text"], REGEX_PATTERN),
            pc.equal(b["lang"], "en"),
        )
        return b.filter(mask).drop_columns(["text"])

    return docs.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# O3 — time-window filter + aggregate (reference: rcstart/rcend window,
# sparql_updates.py:126-127)
# ---------------------------------------------------------------------------

def window_agg(sf_dir: str):
    import pyarrow.dataset as pads

    # window predicate pushed to the SCAN: row groups wholly outside the
    # window never leave storage ("prune at the read")
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type", "value"],
        filter=(pads.field("ts") >= WINDOW_START) & (pads.field("ts") < WINDOW_END),
    )

    def in_window(b: pa.Table) -> pa.Table:
        # residual filter: pushdown prunes at row-group granularity only
        mask = pc.and_(
            pc.greater_equal(b["ts"], pa.scalar(WINDOW_START, pa.timestamp("us"))),
            pc.less(b["ts"], pa.scalar(WINDOW_END, pa.timestamp("us"))),
        )
        return b.filter(mask).drop_columns(["ts"])

    out = bucket_aggregate(
        ev.map_batches(in_window, batch_format="pyarrow"), keys=["event_type"],
        aggs={"n_events": (None, "count"), "sum_value": ("value", "sum")})
    return out.map_batches(lambda b: _round2(b, ["sum_value"]), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# A1 — grouped aggregation, per-block combiner then one exchange
# (reference: per-entity block assembly, get_updates.py:517-572; TPC-H Q1 shape)
# ---------------------------------------------------------------------------

def groupby_sum(sf_dir: str):
    li = read_table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def shipped(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b["l_shipdate"], pa.scalar(SHIP_CUTOFF, pa.timestamp("us"))))
        disc = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return b.append_column("disc", disc)

    out = bucket_aggregate(
        li.map_batches(shipped, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        aggs={"sum_qty": ("l_quantity", "sum"),
              "sum_base_price_c": ("l_extendedprice", "sum"),
              "sum_disc_price_e4": ("disc", "sum"),
              "count_order": (None, "count")})

    def finish(b: pa.Table) -> pa.Table:
        b = _round2(b, ["sum_qty"])
        b = _to_int_units(b, "sum_base_price_c", 100.0)
        # disc_price terms carry exactly 4 decimal digits, so the rounded-2
        # sum sits exactly on .005 midpoints and float noise would decide the
        # direction differently per engine — emit exact integer 1e-4 units.
        i = b.column_names.index("sum_disc_price_e4")
        e4 = pc.cast(pc.round(pc.multiply(b["sum_disc_price_e4"], 10000.0), 0), pa.int64())
        return b.set_column(i, "sum_disc_price_e4", e4)

    return out.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# O1/O2 — top-k without a global sort of the input (reference: merge+sort by
# timestamp, get_updates.py:1171-1176; limit, sparql_updates.py:128)
# ---------------------------------------------------------------------------

def topk_orders(sf_dir: str):
    orders = read_table(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    )

    def local_topk(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("o_totalprice", "descending"), ("o_orderkey", "ascending")]
        ).slice(0, TOPK_N)

    reduced = orders.map_batches(local_topk, batch_format="pyarrow")
    # global phase: tiny — at most k rows per input batch survive
    return reduced.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(TOPK_N)


# ---------------------------------------------------------------------------
# §2.4 — broadcast small-side join chain + rollup (alias-table pattern)
# ---------------------------------------------------------------------------

def broadcast_join_agg(sf_dir: str):
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    nation = read_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = read_table(sf_dir, "region", ["r_regionkey", "r_name"])

    enriched = broadcast_join(
        cust, nation, on="c_nationkey", right_on="n_nationkey",
        dim_cols=["n_regionkey"],
    )
    enriched = broadcast_join(
        enriched, region, on="n_regionkey", right_on="r_regionkey",
        dim_cols=["r_name"],
    )
    out = bucket_aggregate(
        enriched, keys=["r_name"],
        aggs={"n_customers": (None, "count"), "sum_acctbal_c": ("c_acctbal", "sum")})
    return out.map_batches(lambda b: _to_int_units(b, "sum_acctbal_c", 100.0), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# §2.4 — big-big join + rollup (equi_join on the bucket exchange)
# ---------------------------------------------------------------------------

def hash_join_agg(sf_dir: str):
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = equi_join(orders, cust, on="o_custkey", right_on="c_custkey",
                       join_type="inner")
    out = bucket_aggregate(
        joined, keys=["c_mktsegment"],
        aggs={"n_orders": (None, "count"), "sum_totalprice_c": ("o_totalprice", "sum")})
    return out.map_batches(lambda b: _to_int_units(b, "sum_totalprice_c", 100.0), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# §2.7 — existence joins (anti/semi), the diff-engine physical shape
# ---------------------------------------------------------------------------

def anti_join(sf_dir: str):
    """Customers with no order above HIGH_PRICE."""
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    big = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).filter(
        expr=f"o_totalprice > {HIGH_PRICE}")
    return equi_join(cust, big, on="c_custkey", right_on="o_custkey",
                     join_type="left anti")


def semi_join(sf_dir: str):
    """Customers with at least one order above HIGH_PRICE."""
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    big = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).filter(
        expr=f"o_totalprice > {HIGH_PRICE}")
    return equi_join(cust, big, on="c_custkey", right_on="o_custkey",
                     join_type="left semi")


# ---------------------------------------------------------------------------
# §2.7 — distinct (exact dedup of a key tuple) with local combiner
# ---------------------------------------------------------------------------

def distinct_pairs(sf_dir: str):
    docs = read_table(sf_dir, "documents", ["lang", "source"])
    return bucket_aggregate(docs, keys=["lang", "source"], aggs={})


# ---------------------------------------------------------------------------
# A2 — union of branch outputs + rollup (reference: merged change lists,
# get_updates.py:1171-1174)
# ---------------------------------------------------------------------------

def union_agg(sf_dir: str):
    orders = read_table(sf_dir, "orders", ["o_orderstatus", "o_totalprice", "o_orderpriority"])
    hi = orders.filter(expr=f"o_totalprice > {UNION_PRICE}")
    lo = orders.filter(
        expr=f"o_totalprice <= {UNION_PRICE} and o_orderpriority == '1-URGENT'"
    )
    # each branch is combined on its own blocks before the union
    return bucket_aggregate(hi, lo, keys=["o_orderstatus"], aggs={"n": (None, "count")})


# ---------------------------------------------------------------------------
# A4 — salted two-phase aggregation (head-key skew mitigation, SURVEY.md §4)
# ---------------------------------------------------------------------------

# reducers a hot key's rows spread over in phase 1
SALT_BUCKETS = 8


def salted_groupby(sf_dir: str):
    import numpy as np

    ev = read_table(sf_dir, "events", ["user_id", "value"])

    def salted(b: pa.Table) -> pa.Table:
        """Phase 1 keys on (user_id, salt): a hot key's rows split across
        ``SALT_BUCKETS`` buckets instead of one.

        The salt must be ROW-dependent, not key-derived: a key-derived salt
        sends every row of a hot key to the same reducer and the mitigation
        is a no-op.  Row position within the batch spreads a hot key evenly
        across all ``SALT_BUCKETS`` buckets."""
        salt = (np.arange(len(b), dtype=np.int64) % SALT_BUCKETS).astype(np.int32)
        return b.append_column("salt", pa.array(salt))

    phase1 = bucket_aggregate(
        ev.map_batches(salted, batch_format="pyarrow"), keys=["user_id", "salt"],
        aggs={"n_events": (None, "count"), "sum_value": ("value", "sum")})
    # Phase 2: unsalt — tiny input (≤ keys × SALT_BUCKETS rows).
    out = bucket_aggregate(
        phase1, keys=["user_id"],
        aggs={"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")})
    return out.map_batches(lambda b: _round2(b, ["sum_value"]), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# §2.8 — scalar function catalog, fully vectorized (pc kernels only)
# ---------------------------------------------------------------------------

def scalar_funcs(sf_dir: str):
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name", "p_type", "p_brand"])

    def fn(b: pa.Table) -> pa.Table:
        brand_num = pc.struct_field(
            pc.extract_regex(b["p_brand"], r"(?P<m>[0-9]+)"), "m"
        )
        return pa.Table.from_pydict(
            {
                "p_partkey": b["p_partkey"],
                "name_upper": pc.utf8_upper(b["p_name"]),
                "type_key": pc.replace_substring(b["p_type"], " ", "_"),
                "name_len": pc.cast(pc.utf8_length(b["p_name"]), pa.int64()),
                "brand_num": brand_num,
            }
        )

    return parts.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# §2.7/§2.4 — set difference both directions = snapshot diff shape
# (ttl_compare.py:180-183 EXCEPT semantics over testdata-derived snapshots)
# ---------------------------------------------------------------------------

def diff_ops(sf_dir: str):
    """old = docs with doc_id % 3 != 0, new = docs with doc_id % 2 != 0;
    emits (doc_id, op) where op = INSERT (new-only) / DELETE (old-only).
    The snapshot diff's ``set_diff`` — the distributed EXCEPT of SURVEY.md
    §2.4."""
    docs = read_table(sf_dir, "documents", ["doc_id"])

    def mod_filter(m: int):
        def fn(b: pa.Table) -> pa.Table:
            # `%` is not supported by filter(expr=...); vectorized pc kernel
            return b.filter(pc.not_equal(
                pc.subtract(b["doc_id"], pc.multiply(
                    pc.divide(b["doc_id"], m), m)), 0))
        return fn

    keys = ("doc_id",)
    old = docs.map_batches(mod_filter(3), batch_format="pyarrow")
    new = docs.map_batches(mod_filter(2), batch_format="pyarrow")
    return set_diff(tag_side(old, 1, keys), tag_side(new, 2, keys), keys=keys)


# ---------------------------------------------------------------------------
# O3+ — tumbling-window aggregate (the windowed-aggregate custom op the
# engine contract lists; expressed as bucket_aggregate on (type, window),
# the window key being a pure projection so no ordering/state is needed)
# ---------------------------------------------------------------------------

def tumbling_window(sf_dir: str):
    """events -> per (event_type, 1-day tumbling window) count + sum."""
    ev = read_table(sf_dir, "events", ["ts", "event_type", "value"])

    def windowed(b: pa.Table) -> pa.Table:
        return b.append_column("win_start", pc.floor_temporal(b["ts"], unit="day"))

    out = bucket_aggregate(
        ev.map_batches(windowed, batch_format="pyarrow"),
        keys=["event_type", "win_start"],
        aggs={"n": (None, "count"), "sum_value": ("value", "sum")})

    def finish(b: pa.Table) -> pa.Table:
        b = _round2(b, ["sum_value"])
        i = b.column_names.index("win_start")
        us = pc.cast(pc.cast(b["win_start"], pa.timestamp("us")), pa.int64())
        return b.set_column(i, pa.field("win_start_us", pa.int64()), us)

    return out.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sessionization — gap-based sessions per user (the stateful streaming-window
# op): ONE hash-bucket exchange co-locates each user's events, then session
# boundaries are a vectorized diff over the (user, ts)-sorted bucket — no
# per-user Python calls, no driver state.
# ---------------------------------------------------------------------------

SESSION_GAP_MIN = 30


def sessionize(sf_dir: str):
    """events -> one row per (user_id, session): start/end (epoch us),
    event count.  A new session starts when the gap since the user's
    previous event exceeds SESSION_GAP_MIN minutes."""
    import numpy as np

    ev = read_table(sf_dir, "events", ["user_id", "ts"])
    gap_us = SESSION_GAP_MIN * 60 * 1_000_000

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        n = len(uid)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(uid[1:], uid[:-1], out=new_user[1:])
        gap = np.empty(n, dtype=bool)
        gap[0] = True
        gap[1:] = (ts[1:] - ts[:-1]) > gap_us
        starts = new_user | gap
        # session ordinal within user = cumulative starts, reset per user
        cum = np.cumsum(starts)
        user_base = np.maximum.accumulate(np.where(new_user, cum - 1, 0))
        sess = cum - 1 - user_base  # 0-based per user
        key = np.flatnonzero(starts)
        bounds = np.append(key, n)
        return pa.table(
            {
                "user_id": pa.array(uid[key], pa.int64()),
                "session_id": pa.array(sess[key].astype(np.int64), pa.int64()),
                "session_start_us": pa.array(ts[key], pa.int64()),
                "session_end_us": pa.array(ts[bounds[1:] - 1], pa.int64()),
                "n_events": pa.array(np.diff(bounds).astype(np.int64), pa.int64()),
            }
        )

    return bucket_groupby(ev, keys=["user_id"], fn=per_bucket)


# ---------------------------------------------------------------------------
# as-of join — a custom temporal operator Ray Data lacks: each left event is
# matched to the LATEST right event with right.ts <= left.ts for the same
# key.  Physical plan: tag both sides, ONE hash-bucket exchange on the key,
# per-bucket (key, ts, side)-sort + vectorized last-state carry-forward.
# Partitioning assumption: all rows of a key share a bucket (hash-bucketed),
# so the carry-forward never crosses a partition.
# ---------------------------------------------------------------------------

ASOF_STATE_TYPE = "signup"


def asof_join_events(sf_dir: str):
    """events (non-signup) ASOF LEFT JOIN events (signup) per user_id:
    each event row gains the epoch-us timestamp of the user's most recent
    signup at-or-before it (null when none yet)."""
    import numpy as np

    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])

    def tag(b: pa.Table) -> pa.Table:
        is_state = pc.equal(b["event_type"], ASOF_STATE_TYPE)
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "event_type": b["event_type"],
                # state rows sort BEFORE left rows at equal ts, so an
                # exactly-simultaneous state is visible to the left row
                # (ASOF's <= semantics)
                "side": pc.cast(pc.invert(is_state), pa.int8()),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts_us", "ascending"),
                       ("side", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        n = len(uid)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(uid[1:], uid[:-1], out=new_user[1:])
        is_state = side == 0
        # last-state carry-forward: index of the most recent state row at or
        # before each position, reset at user boundaries
        idx = np.arange(n)
        marker = np.where(is_state, idx, -1)
        marker[new_user & ~is_state] = -1
        # segment-wise cummax that restarts at each user boundary
        seg = np.cumsum(new_user) - 1
        # offset trick: add a large per-segment base so cummax cannot leak
        base = seg.astype(np.int64) * (n + 1)
        carried = np.maximum.accumulate(np.where(marker >= 0, base + marker, base - 1))
        state_idx = carried - base
        left = ~is_state
        out_state = np.where(state_idx[left] >= 0, ts[state_idx[left].clip(0)], -1)
        return pa.table(
            {
                "user_id": pa.array(uid[left], pa.int64()),
                "ts_us": pa.array(ts[left], pa.int64()),
                "event_type": t.filter(pa.array(left))["event_type"],
                "state_ts_us": pc.if_else(
                    pc.greater_equal(pa.array(out_state, pa.int64()), 0),
                    pa.array(out_state, pa.int64()), pa.scalar(None, pa.int64())),
            }
        )

    return bucket_groupby(ev.map_batches(tag, batch_format="pyarrow"),
                          keys=["user_id"], fn=per_bucket)


# ---------------------------------------------------------------------------
# range (interval-containment) join — the third temporal custom op: count,
# per distinct event instant, the error windows [t-1h, t+1h] of the same
# user covering it.  Same bucket-exchange shape as asof_join; the per-user
# interval counting is two searchsorted calls (count(start <= t) minus
# count(end < t)), never a pairwise materialization.
# ---------------------------------------------------------------------------

RANGE_WINDOW_US = 3_600_000_000  # +/- 1 hour
RANGE_STATE_TYPE = "error"


def range_join_events(sf_dir: str):
    import numpy as np

    ev = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])

    def tag(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": b["user_id"],
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "is_win": pc.cast(
                    pc.equal(b["event_type"], RANGE_STATE_TYPE), pa.int8()),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts_us", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        is_win = t["is_win"].to_numpy(zero_copy_only=False).astype(bool)
        out_u, out_t, out_n = [], [], []
        n = len(uid)
        # per-SEGMENT iteration over vectorized user boundaries (the
        # sessionize bounds pass) — not per ROW (VERDICT r4 #5); inner work
        # stays two searchsorted calls per user
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(uid) != 0) + 1, [n]))
        for start, end in zip(bounds[:-1], bounds[1:]):
            seg_ts = ts[start:end]
            wins = seg_ts[is_win[start:end]]
            lefts = np.unique(seg_ts)
            ws = np.sort(wins - RANGE_WINDOW_US)
            we = np.sort(wins + RANGE_WINDOW_US)
            cover = (np.searchsorted(ws, lefts, side="right")
                     - np.searchsorted(we, lefts, side="left"))
            out_u.append(np.full(len(lefts), uid[start], dtype=np.int64))
            out_t.append(lefts)
            out_n.append(cover.astype(np.int64))
        return pa.table(
            {
                "user_id": pa.array(np.concatenate(out_u), pa.int64()),
                "ts_us": pa.array(np.concatenate(out_t), pa.int64()),
                "n_windows": pa.array(np.concatenate(out_n), pa.int64()),
            }
        )

    return bucket_groupby(ev.map_batches(tag, batch_format="pyarrow"),
                          keys=["user_id"], fn=per_bucket)

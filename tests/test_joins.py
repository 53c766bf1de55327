"""``stages.joins.broadcast_join``: a plain ``map_batches`` probe of a dim
table that the calling process checked and broadcast once."""

from __future__ import annotations

import pyarrow as pa
import pytest

from kgray.stages.joins import broadcast_join


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

"""Session-scoped Ray fixture: init ONCE per pytest session."""

from __future__ import annotations

import os

import pytest

os.environ.setdefault("POLARS_MAX_THREADS", "1")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """120-page deterministic corpus written once per session."""
    from kgray.fixtures import write_pages_corpus

    d = tmp_path_factory.mktemp("pages")
    paths = write_pages_corpus(str(d), 120, shard_rows=40)
    return paths


@pytest.fixture
def walk_in_process(monkeypatch):
    """``run(build, module, scorer)`` builds a ``block_pairs`` query with
    ``module.<scorer>`` counted and walks the rows entering its exchange in
    this process: it returns the walk's output table and the scorer's
    calls, one ``(a, b)`` per call.  Every row of the exchange's input is
    one key-complete partition, so the walk sees each block pair once."""
    import pyarrow as pa
    import ray

    from kgray.stages import shuffle

    def run(build, module, scorer):
        calls, entered = [], []
        real_score, real_groupby = getattr(module, scorer), shuffle.bucket_groupby

        def counted(a, b):
            calls.append((a, b))
            return real_score(a, b)

        def spy(ds, *, keys, fn):
            entered.append((ds, fn))
            return real_groupby(ds, keys=keys, fn=fn)

        with monkeypatch.context() as m:
            m.setattr(module, scorer, counted)
            m.setattr(shuffle, "bucket_groupby", spy)
            build()
        rows, walk = entered[-1]  # the exchange, after any count
        out = walk(pa.concat_tables(
            t for t in ray.get(rows.to_arrow_refs()) if t.num_rows))
        return out, calls

    return run

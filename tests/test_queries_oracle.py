"""Every SQL-expressible queries() entry vs its DuckDB oracle at sf0.001.

This mirrors the driver's correctness gate (row count + column names +
order-insensitive values) so regressions surface in CI, not in the round
report.  Rows-only queries are covered by their dedicated test modules.
"""

from __future__ import annotations

import duckdb
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _entry():
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    import __ray_entry__ as e

    return e


@pytest.fixture(scope="module")
def con():
    from kgray.oracle_check import register_views

    c = duckdb.connect()
    register_views(c, SF_DIR)
    return c


def _oracle_names():
    return sorted(_entry().oracle_sql())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(ray_session, con, name):
    from kgray.oracle_check import compare, to_pandas

    e = _entry()
    ray_df = to_pandas(e.queries()[name](SF_DIR))
    sql_df = con.sql(e.oracle_sql()[name]).df()
    problems = compare(ray_df, sql_df)
    assert not problems, f"{name}: {problems}"


def test_every_oracle_has_query():
    e = _entry()
    missing = set(e.oracle_sql()) - set(e.queries())
    assert not missing


def test_every_query_has_oracle():
    """The full board is oracled: no rows-only queries remain (VERDICT r2
    'next round' #1 — the 9 former no_oracle entries carry expected-table
    oracles from kgray.expected)."""
    e = _entry()
    missing = set(e.queries()) - set(e.oracle_sql())
    assert not missing


def test_entry_smoke(ray_session):
    ds = _entry().entry()
    n = ds.count()
    assert n > 0
    names = set(ds.schema().names)
    assert {"subj", "pred", "obj", "op"} <= names


def _edits_change_key(tmp_path, monkeypatch, key_fn):
    """``key_fn()`` follows the package's content: the same bytes in a copy
    give the same key, and an edit to any module changes it."""
    import pathlib
    import shutil

    import kgray.expected as X

    pkg = pathlib.Path(X.__file__).parent
    shutil.copytree(pkg, tmp_path / "kgray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    key = key_fn()
    monkeypatch.setattr(X, "__file__", str(tmp_path / "kgray" / "expected.py"))
    assert key_fn() == key
    for rel in ("expected.py", "pipelines/textproc.py", "pipelines/simsearch.py",
                "pipelines/multimodal.py", "stages/shuffle.py",
                "kernels/ids.py", "stages/diff.py"):
        path = tmp_path / "kgray" / rel
        src = path.read_bytes()
        path.write_bytes(src + b"\n# edited\n")
        assert key_fn() != key, rel
        path.write_bytes(src)
    assert key_fn() == key


def test_expected_cache_key_follows_builder_source(tmp_path, monkeypatch):
    """The expected-table cache key digests every module of the package
    (``kernels/ids.py`` included, which no builder imports directly): an
    edit to any of them changes the key, so a table an older builder
    wrote is rebuilt, never served."""
    import kgray.expected as X

    _edits_change_key(tmp_path, monkeypatch,
                      lambda: X._src_fingerprint(SF_DIR, "documents.parquet"))


def test_ivf_index_dir_follows_package_source(ray_session, tmp_path,
                                              monkeypatch):
    """The IVF index's ``_done`` marker holds the expected tables' key, so
    an edit to any module changes the key the index is checked against,
    while the directory stays the one of its scale and cluster count."""
    import os

    import kgray.expected as X
    import kgray.pipelines.simsearch as S

    monkeypatch.setattr(S, "_IVF_ROOT", str(tmp_path / "ivf"))
    out, _ = S.build_ivf_index(SF_DIR)
    with open(os.path.join(out, "_done")) as f:
        assert f.read() == X._src_fingerprint(SF_DIR, "embeddings.parquet")

    def marker_key():
        assert S._ivf_index_dir(SF_DIR) == out
        return X._src_fingerprint(SF_DIR, "embeddings.parquet")

    _edits_change_key(tmp_path, monkeypatch, marker_key)


def test_all_pairs_and_kg_diff_build_lazily(ray_session, monkeypatch):
    """Building ``neardup_cosine`` or ``kg_diff`` executes no plan (so
    writes nothing) and submits no Ray task of its own until the Dataset
    is consumed; only the cached input corpora may be written first, and
    ``read_parquet`` samples its files with a task of Ray's."""
    import ray.data as rd
    from ray.actor import ActorClass
    from ray.data._internal.plan import ExecutionPlan
    from ray.remote_function import RemoteFunction

    import __ray_entry__ as e

    e.pages_paths_for(SF_DIR)
    e._ensure_raw(SF_DIR)
    submit = RemoteFunction._remote

    def sample_only(self, *args, **kwargs):
        assert self._function.__name__ == "_sample_fragment", self._function
        return submit(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("ran Ray work while building a query")

    monkeypatch.setattr(RemoteFunction, "_remote", sample_only)
    for cls, attr in ((ActorClass, "_remote"), (ExecutionPlan, "execute"),
                      (ExecutionPlan, "execute_to_iterator")):
        monkeypatch.setattr(cls, attr, refuse)
    built = [e.queries()[name](SF_DIR) for name in ("neardup_cosine", "kg_diff")]
    monkeypatch.undo()
    assert all(isinstance(ds, rd.Dataset) for ds in built)
    assert all(ds.count() > 0 for ds in built)


@pytest.mark.parametrize("name,plans", [
    ("ngram_jaccard", 1), ("minhash_lsh", 1), ("simhash_pairs", 1),
    ("neardup_cosine", 0),
])
def test_pair_queries_run_only_their_count_when_built(ray_session,
                                                      monkeypatch, name,
                                                      plans):
    """Building a pair query executes ``block_pairs``' group count and
    nothing else: one plan for a grouped query (its rows per group), none
    for ``neardup_cosine``, whose one group's size comes from the parquet
    footers.  A plan runs through ``ExecutionPlan.execute`` or
    ``execute_to_iterator``; both are counted."""
    from ray.data._internal.plan import ExecutionPlan

    from kgray.pipelines import simsearch, textproc

    build = {"ngram_jaccard": textproc.ngram_jaccard_pairs,
             "minhash_lsh": textproc.minhash_lsh_pairs,
             "simhash_pairs": textproc.simhash_pairs,
             "neardup_cosine": simsearch.neardup_cosine}[name]
    runs = []
    for attr in ("execute", "execute_to_iterator"):
        real = getattr(ExecutionPlan, attr)

        def counted(self, *args, _real=real, _attr=attr, **kwargs):
            runs.append(_attr)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, attr, counted)
    build(SF_DIR)
    assert len(runs) == plans, runs

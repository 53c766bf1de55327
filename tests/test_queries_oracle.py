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


def test_expected_cache_key_follows_builder_source(tmp_path, monkeypatch):
    """The expected-table cache key digests the source of every module the
    builders run: an edit to any of them changes the key, so a table an
    older builder wrote is rebuilt, never served."""
    import pathlib
    import shutil

    import kgray.expected as X

    pkg = pathlib.Path(X.__file__).parent
    rels = ("expected.py", "pipelines/textproc.py", "pipelines/simsearch.py",
            "pipelines/multimodal.py", "stages/shuffle.py")
    for rel in rels:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(pkg / rel, tmp_path / rel)
    key = X._src_fingerprint(SF_DIR, "documents.parquet")
    # the same bytes elsewhere give the same key: it follows content
    monkeypatch.setattr(X, "__file__", str(tmp_path / "expected.py"))
    assert X._src_fingerprint(SF_DIR, "documents.parquet") == key
    for rel in rels:
        src = (tmp_path / rel).read_bytes()
        (tmp_path / rel).write_bytes(src + b"\n# edited\n")
        assert X._src_fingerprint(SF_DIR, "documents.parquet") != key, rel
        (tmp_path / rel).write_bytes(src)

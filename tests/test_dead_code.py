"""Every top-level function and class in ``kgray/`` has a caller outside the
tests: a name that only tests use is test code living in the package."""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> why it stays without a caller in the package, scripts or drivers
ALLOWED = {
    "make_extract_fn": "shim that frozen perfbench still calls",
    "_auto_concurrency": "shim that frozen perfbench still calls",
    "oracle_triples": "the reference P/R oracle (tests, perfbench)",
    "precision_recall": "the reference P/R oracle (tests, perfbench)",
    "write_conformance_file": "the S5 conformance sink, a public API",
    "parse_ttl": "one-document call of parse_ttl_docs, the codec's public "
                 "API (round-trip and property tests)",
}


def _sources() -> list[pathlib.Path]:
    return (sorted((ROOT / "kgray").rglob("*.py"))
            + sorted((ROOT / "scripts").rglob("*.py"))
            + [ROOT / "__ray_entry__.py", ROOT / "bench.py"])


def test_every_kgray_def_has_a_caller():
    """A reference is a name, attribute or import of the definition's name
    in code; docstrings and comments do not count."""
    refs: collections.Counter = collections.Counter()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name.rsplit(".", 1)[-1]] += 1
    defs = [
        (path, node)
        for path in sorted((ROOT / "kgray").rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
    ]
    unused = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path, node in defs
              if not refs[node.name] and node.name not in ALLOWED]
    assert not unused, "no caller outside tests/: " + ", ".join(unused)
    stale = sorted(set(ALLOWED) - {node.name for _, node in defs if
                                   not refs[node.name]})
    assert not stale, f"allowlisted but called or gone: {stale}"


# (module, top-level function) -> why its ``.groupby(`` stays
GROUPBY_ALLOWED = {
    ("kgray/pipelines/simsearch.py", "_topk"):
        "map_groups over the kNN queries' top-K candidates: one call per "
        "query id, 5 groups",
}


def test_no_ray_grouped_aggregate():
    """Every grouped aggregate runs on ``shuffle.bucket_aggregate``: no
    module of ``kgray/`` imports ``ray.data.aggregate`` (Ray's per-row
    aggregate functions) or calls ``.groupby(`` outside the allowlist."""
    found, seen = [], set()
    for path in sorted((ROOT / "kgray").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for top in ast.parse(path.read_text()).body:
            where = (rel, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [f"{node.module}.{a.name}" for a in node.names]
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "groupby"):
                    if where in GROUPBY_ALLOWED:
                        seen.add(where)
                    else:
                        found.append(f"{rel}:{node.lineno} .groupby(")
                    continue
                else:
                    continue
                found += [f"{rel}:{node.lineno} import {m}" for m in mods
                          if f"{m}.".startswith("ray.data.aggregate.")]
    assert not found, "Ray grouped aggregate in kgray/: " + ", ".join(found)
    assert seen == set(GROUPBY_ALLOWED), "allowlisted but gone"

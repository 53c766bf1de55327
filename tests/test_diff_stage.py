"""Snapshot diff stage: distributed EXCEPT semantics (ttl_compare analog)."""

from __future__ import annotations

import pyarrow as pa

from kgray.schema import SNAPSHOT


def _snap(rows):
    """(entity, subj, pred, obj, obj_type[, lang, datatype]) tuples ->
    SNAPSHOT table; missing lang/datatype are ''."""
    cols = SNAPSHOT.names
    return pa.Table.from_pylist(
        [dict(zip(cols, r + ("",) * (len(cols) - len(r)))) for r in rows],
        schema=SNAPSHOT,
    )


def _ops(ds):
    df = ds.to_pandas()
    return {(r.op, r.subj, r.pred, r.obj) for r in df.itertuples()}


def test_diff_both_directions(ray_session):
    import ray.data as rd

    from kgray.stages.diff import diff_snapshots

    old = rd.from_arrow(_snap([
        ("Q1", "wd:Q1", "wdt:P1", "a", "literal"),
        ("Q1", "wd:Q1", "wdt:P2", "b", "literal"),   # unchanged
    ]))
    new = rd.from_arrow(_snap([
        ("Q1", "wd:Q1", "wdt:P2", "b", "literal"),   # unchanged
        ("Q1", "wd:Q1", "wdt:P3", "c", "literal"),
    ]))
    got = _ops(diff_snapshots(old, new))
    assert got == {
        ("DELETE", "wd:Q1", "wdt:P1", "a"),
        ("INSERT", "wd:Q1", "wdt:P3", "c"),
    }


def test_diff_no_prior_snapshot_is_pure_inserts(ray_session):
    import ray.data as rd

    from kgray.stages.diff import diff_snapshots

    new = rd.from_arrow(_snap([
        ("Q1", "wd:Q1", "wdt:P1", "x", "literal"),
        ("Q2", "wd:Q2", "wdt:P1", "y", "literal"),
    ]))
    got = _ops(diff_snapshots(None, new))
    assert {op for op, *_ in got} == {"INSERT"}
    assert len(got) == 2

    # set_diff on a non-triple key: duplicates within a side collapse to
    # one row, and a key on both sides drops however often it repeats,
    # whether the sides come as two tagged streams or as one
    from kgray.stages.diff import set_diff, tag_side

    def ids(*xs):
        return rd.from_arrow(pa.table({"doc_id": pa.array(xs, pa.int64()),
                                       "pad": [str(x) for x in xs]}))

    keys = ("doc_id",)
    out = set_diff(tag_side(ids(1, 1, 2, 2, 2), 2, keys), keys=keys)
    assert sorted((r["doc_id"], r["op"]) for r in out.take_all()) == [
        (1, "INSERT"), (2, "INSERT")]
    old, new = ids(1, 1, 3, 3), ids(2, 2, 3)
    for sides in ((tag_side(old, 1, keys), tag_side(new, 2, keys)),
                  (tag_side(old, 1, keys).union(tag_side(new, 2, keys)),)):
        rows = set_diff(*sides, keys=keys).take_all()
        assert sorted((r["doc_id"], r["op"]) for r in rows) == [
            (1, "DELETE"), (2, "INSERT")]
        assert list(rows[0]) == ["doc_id", "op"]


def test_diff_filters_owl_foreign_and_wdp(ray_session):
    import ray.data as rd

    from kgray.stages.diff import diff_snapshots

    new = rd.from_arrow(_snap([
        ("Q1", "wd:Q1", "wdt:P1", "keep", "literal"),
        ("Q1", "s:Q1-abc", "ps:P1", "statement-keep", "literal"),
        ("Q1", "wd:Q1", "http://www.w3.org/2002/07/owl#sameAs", "drop", "iri"),
        ("Q1", "http://www.w3.org/2002/07/owl#Thing", "wdt:P1", "drop", "literal"),
        ("Q1", "wd:Q1", "wdt:P31", "http://www.w3.org/2002/07/owl#Thing", "iri"),
        ("Q1", "wd:Q99", "wdt:P1", "foreign-drop", "literal"),
        ("Q1", "wd:P42", "wdt:P1", "prop-drop", "literal"),
    ]))
    got = _ops(diff_snapshots(None, new))
    assert got == {("INSERT", "wd:Q1", "wdt:P1", "keep"),
                   ("INSERT", "s:Q1-abc", "ps:P1", "statement-keep")}


def test_diff_iri_to_literal_is_delete_plus_insert(ray_session):
    """An IRI never equals a literal of the same spelling (rdflib term
    equality in the reference's graph difference), so retyping an object
    is one DELETE of the IRI and one INSERT of the literal."""
    import ray.data as rd

    from kgray.stages.diff import diff_snapshots

    old = rd.from_arrow(_snap([("Q42", "wd:Q42", "wdt:P31", "wd:Q5", "iri")]))
    new = rd.from_arrow(_snap([("Q42", "wd:Q42", "wdt:P31", "wd:Q5", "literal")]))
    got = diff_snapshots(old, new).take_all()
    assert sorted((r["op"], r["obj"], r["obj_type"]) for r in got) == [
        ("DELETE", "wd:Q5", "iri"),
        ("INSERT", "wd:Q5", "literal"),
    ]


def test_ttl_revision_pair_to_commands(ray_session):
    """TTL revision pair -> parse_ttl_stage -> diff_snapshots ->
    serialize_stage: the reference's revision-to-commands job, inside the
    engine with no lookup between the stages."""
    import ray.data as rd

    from kgray.stages.diff import diff_snapshots
    from kgray.stages.serialize import serialize_stage
    from kgray.stages.ttl import parse_ttl_stage

    prefixes = (
        "@prefix wd: <http://www.wikidata.org/entity/> .\n"
        "@prefix wdt: <http://www.wikidata.org/prop/direct/> .\n"
        "@prefix schema: <http://schema.org/> .\n"
    )
    old_ttl = prefixes + (
        'wd:Q42 a schema:Thing ;\n'
        '    wdt:P31 wd:Q5 ;\n'
        '    schema:name "Douglas Adams"@en ;\n'
        '    wdt:P1082 "42" .\n'
        'wd:Q99 wdt:P31 wd:Q5 .\n'
    )
    new_ttl = prefixes + (
        'wd:Q42 a schema:Thing ;\n'
        '    wdt:P31 "wd:Q5" ;\n'
        '    schema:name "Douglas \\"DNA\\" Adams"@en ;\n'
        '    wdt:P1082 "42" .\n'
    )

    def snap(ttl: str):
        return parse_ttl_stage(rd.from_items([{"entity": "Q42", "ttl": ttl}]))

    got = serialize_stage(diff_snapshots(snap(old_ttl), snap(new_ttl)))
    assert sorted(r["command"] for r in got.take_all()) == [
        'DELETE DATA { wd:Q42 schema:name "Douglas Adams"@en . };',
        "DELETE DATA { wd:Q42 wdt:P31 wd:Q5 . };",
        'INSERT DATA { wd:Q42 schema:name "Douglas \\"DNA\\" Adams"@en . };',
        'INSERT DATA { wd:Q42 wdt:P31 "wd:Q5" . };',
    ]

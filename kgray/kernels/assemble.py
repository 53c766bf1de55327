"""Raw-claim rows -> typed RDF triple rows (SURVEY.md M5-M11 family).

Row-local, pure: every output (including statement / value-node / reference
ids) is a deterministic function of the input row, so assembly is an
embarrassingly-parallel ``map_batches`` with no joins and no shared state —
the engine's replacement for the reference's SPARQL-endpoint id resolution
(ST2/ST3, get_updates.py:734-881) and its module-global accumulation (ST4).
The assemble stage restates this row-wise kernel as one columnar pass
(``stages.assemble.assemble_batch``); the kernel itself is the oracle's
(``kgray.oracle``), an independent check of that pass.

Semantics restated from the reference:
  * full-claim scaffold: ``wd:S p:P ?stmt``, ``?stmt a wikibase:Statement``,
    ``?stmt a wikibase:BestRank``, ``psn:``/``wdtn:`` https->http link forms,
    ``wdt:`` direct form           (handle_claim_updates, get_updates.py:490-514)
  * datatype dispatch for objects  (new_entity_rdf.py:85-108)
  * qualifiers -> ``pq:`` under the statement; references -> ``pr:`` under a
    ``ref:`` node + ``prov:wasDerivedFrom`` + ``a wikibase:Reference``
                                   (handle_nested, get_updates.py:575-629)
  * time values -> 4-5-triple ``v:`` time node (``a wikibase:TimeValue``,
    timeValue/timePrecision/timeTimezone/timeCalendarModel)
                                   (handle_time_node, get_updates.py:632-658)
  * labels/descriptions/aliases -> ``schema:name`` / ``schema:description`` /
    ``skos:altLabel`` @lang, plus ``a schema:Thing``
                                   (new_entity_rdf.py:58-71)
"""

from __future__ import annotations

from .ids import reference_hash, statement_id, time_node_id
from .rdf import fix_tz, normalize_lang, normalize_scheme

# Proleptic-Gregorian calendar model QID used by Wikidata time values.
CALENDAR_GREGORIAN = "wd:Q1985727"
TIME_PRECISION_DAY = 11


def _typed_object(vtype: str, value: str, lang: str) -> tuple[str, str, str, str]:
    """datatype dispatch (new_entity_rdf.py:85-108) ->
    (obj, obj_type, lang, datatype)."""
    if vtype == "wikibase-entityid":
        return f"wd:{value}", "iri", "", ""
    if vtype == "time":
        return fix_tz(value), "literal", "", "xsd:dateTime"
    if vtype == "quantity":
        return value, "literal", "", "xsd:decimal"
    if vtype == "monolingualtext":
        return value, "literal", normalize_lang(lang) if lang else "", ""
    # string / fallback -> plain literal
    return value, "literal", "", ""


def _time_node_triples(value: str) -> tuple[str, list[tuple]]:
    """Expand one time value into its ``v:`` node quad
    (handle_time_node, get_updates.py:632-658). 1 -> 5 rows."""
    tv = fix_tz(value)
    vid = "v:" + time_node_id(tv, TIME_PRECISION_DAY, 0, CALENDAR_GREGORIAN)
    return vid, [
        (vid, "rdf:type", "wikibase:TimeValue", "iri", "", ""),
        (vid, "wikibase:timeValue", tv, "literal", "", "xsd:dateTime"),
        (vid, "wikibase:timePrecision", str(TIME_PRECISION_DAY), "literal", "", "xsd:integer"),
        (vid, "wikibase:timeTimezone", "0", "literal", "", "xsd:integer"),
        (vid, "wikibase:timeCalendarModel", CALENDAR_GREGORIAN, "iri", "", ""),
    ]


def raw_claim_to_triples(row: dict) -> list[tuple]:
    """One raw-claim row -> list of (subj, pred, obj, obj_type, lang,
    datatype, op) tuples.  op is 'INSERT' for asserted content and
    'INSERT'/'DELETE' for diff rows (M2 router semantics)."""
    ent = row["entity"]
    kind = row["kind"]
    subj = f"wd:{ent}"
    out: list[tuple] = []

    def add(s, p, o, ot, lg, dt, op="INSERT"):
        out.append((s, p, o, ot, lg, dt, op))

    if kind == "label":
        # one label row per page -> also anchors `a schema:Thing`
        add(subj, "rdf:type", "schema:Thing", "iri", "", "")
        add(subj, "schema:name", row["value"], "literal", normalize_lang(row["lang"]), "")
        return out
    if kind == "desc":
        add(subj, "schema:description", row["value"], "literal", normalize_lang(row["lang"]), "")
        return out
    if kind == "alias":
        add(subj, "skos:altLabel", row["value"], "literal", normalize_lang(row["lang"]), "")
        return out

    if kind in ("claim", "diff"):
        op = "DELETE" if row.get("op") == "delete" else "INSERT"
        pid = row["prop"]
        if not pid.startswith("P"):
            # schema-section diff line without a property link (M4 fallback)
            obj, ot, lg, dt = _typed_object(row["vtype"], row["value"], row["lang"])
            add(subj, f"schema:{pid}", obj, ot, lg, dt, op)
            return out
        sid = "s:" + statement_id(ent, pid, row["value"])
        obj, ot, lg, dt = _typed_object(row["vtype"], row["value"], row["lang"])
        add(subj, f"p:{pid}", sid, "iri", "", "", op)
        add(sid, "rdf:type", "wikibase:Statement", "iri", "", "", op)
        if row.get("rank", "normal") in ("normal", "preferred", ""):
            add(sid, "rdf:type", "wikibase:BestRank", "iri", "", "", op)
        add(sid, f"ps:{pid}", obj, ot, lg, dt, op)
        add(subj, f"wdt:{pid}", obj, ot, lg, dt, op)
        if row["vtype"] == "string" and row["value"].startswith("http"):
            # normalized https->http link forms (get_updates.py:500-510)
            link = normalize_scheme(row["value"])
            add(sid, f"psn:{pid}", f"<{link}>", "iri", "", "", op)
            add(subj, f"wdtn:{pid}", f"<{link}>", "iri", "", "", op)
        if row["vtype"] == "time":
            vid, tn = _time_node_triples(row["value"])
            add(sid, f"psv:{pid}", vid, "iri", "", "", op)
            for t in tn:
                add(*t, op)
        return out

    if kind == "qualifier":
        sid = "s:" + statement_id(ent, row["parent_prop"], row["parent_value"])
        pid = row["prop"]
        obj, ot, lg, dt = _typed_object(row["vtype"], row["value"], row["lang"])
        add(sid, f"pq:{pid}", obj, ot, lg, dt)
        if row["vtype"] == "time":
            vid, tn = _time_node_triples(row["value"])
            add(sid, f"pqv:{pid}", vid, "iri", "", "")
            for t in tn:
                add(*t)
        return out

    if kind == "reference":
        sid = "s:" + statement_id(ent, row["parent_prop"], row["parent_value"])
        pid = row["prop"]
        rid = "ref:" + reference_hash(ent, row["parent_prop"], pid, row["value"])
        obj, ot, lg, dt = _typed_object(row["vtype"], row["value"], row["lang"])
        add(sid, "prov:wasDerivedFrom", rid, "iri", "", "")
        add(rid, "rdf:type", "wikibase:Reference", "iri", "", "")
        add(rid, f"pr:{pid}", obj, ot, lg, dt)
        if row["vtype"] == "time":
            vid, tn = _time_node_triples(row["value"])
            add(rid, f"prv:{pid}", vid, "iri", "", "")
            for t in tn:
                add(*t)
        return out

    if kind == "mention":
        add(subj, "schema:mentions", f"wd:{row['value']}", "iri", "", "")
        return out

    return out

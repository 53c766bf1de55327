"""Assemble stage: raw-claim rows -> typed triple rows (SURVEY.md M5-M11).

Stateless ``map_batches``; all ids (statement / value-node / reference) are
deterministic content hashes (kernels.ids), so this stage needs no joins,
no lookups, no shared state — the key architectural departure from the
reference's SPARQL-endpoint resolution (get_updates.py:734-881).

One columnar pass per batch.  Each branch of the row-wise kernel
(``kernels.assemble.raw_claim_to_triples``, kept as the independent
oracle) is a numpy mask over the batch, and each output template (the
label, description, alias and mention rows, the ``schema:`` fallback,
the claim scaffold, the ``psn:``/``wdtn:`` link forms, the 5-row time
node, the qualifier and reference rows) reads its column vals at its
mask's rows.  A value is built by an Arrow string kernel over only the
rows, or the distinct strings, that need it (``_Col``); Python runs only
the sha1 ids, once per distinct id input.  Each output column is then
one ``take`` from its vals, with the rows in the row-wise kernel's
order: by source row, then in template order.  Fan-out is ~1->1..13
rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.assemble import CALENDAR_GREGORIAN, TIME_PRECISION_DAY
from ..kernels.ids import reference_hash, statement_id, time_node_id
from ..schema import OPS, str_list

_READS = ("entity", "kind", "prop", "vtype", "value", "lang", "rank",
          "parent_prop", "parent_value", "op")


class _Col:
    """A length-n string column held as ``values.take(at)``."""

    __slots__ = ("values", "at")

    def __init__(self, values: pa.Array, at: np.ndarray):
        self.values, self.at = values, at


def assemble_batch(batch: pa.Table) -> pa.Table:
    """Triple rows of every raw-claim row in ``batch``, in input order.
    Reads the 10 ``_READS`` string columns, which extract and link leave
    without nulls (a null raises); ``src_url``, ``warc_ts`` and ``op``
    hold for every triple of a source row and are taken by its index."""
    n = batch.num_rows
    ent, kind, prop, vtype, value, lang, rank, pprop, pval, op = (
        batch[c].combine_chunks() for c in _READS)
    kinds, vtypes, langs, ents = map(_encode, (kind, vtype, lang, ent))
    props, pprops = _encode(prop, pprop)
    vals, pvals = _encode(value, pval)
    claimish = _is(kinds, "claim", "diff")
    has_p = _starts(props, "P")
    claim, fallback = claimish & has_p, claimish & ~has_p
    qual, ref = _is(kinds, "qualifier"), _is(kinds, "reference")
    item, is_time = _is(vtypes, "wikibase-entityid"), _is(vtypes, "time")
    time = is_time & (claim | qual | ref)
    link = claim & _is(vtypes, "string") & _starts(vals, "http")
    mention = _is(kinds, "mention")

    # the typed object (new_entity_rdf.py:85-108)
    wd = _on(value, item | mention, lambda v: _cat("wd:", v))
    tv = _on(value, is_time, lambda v: pc.replace_substring(v, "+00:00", "Z"))
    tag = _Col(pc.replace_substring(langs.values, "_", "-"), langs.at)
    typed = (
        _choose([item, is_time], [wd, tv], vals),
        _choose([item], ["iri"], "literal"),
        _choose([_is(vtypes, "monolingualtext")], [tag], ""),
        _choose([is_time, _is(vtypes, "quantity")],
                ["xsd:dateTime", "xsd:decimal"], ""),
    )

    # a claim's own statement, or a qualifier's or reference's parent's
    sid = _ids(statement_id, "s:", claim | qual | ref, ents,
               _Col(props.values, np.where(claim, props.at, pprops.at)),
               _Col(vals.values, np.where(claim, vals.at, pvals.at)))
    rid = _ids(reference_hash, "ref:", ref, ents, pprops, props, vals)
    vid = _ids(partial(time_node_id, precision=TIME_PRECISION_DAY, timezone=0,
                       calendar=CALENDAR_GREGORIAN), "v:", time, tv)
    # normalized https->http link forms (get_updates.py:500-510)
    iri = _on(value, link, lambda v: _cat(
        "<", pc.replace_substring_regex(v, "^https", "http"), ">"))
    subj = _Col(_cat("wd:", ents.values), ents.at)

    def p(prefix):
        return _Col(_cat(prefix, props.values), props.at)

    label = _is(kinds, "label")
    src, cols = _emit(n, [
        (label, subj, "rdf:type", "schema:Thing", "iri", "", ""),
        (label, subj, "schema:name", vals, "literal", tag, ""),
        (_is(kinds, "desc"), subj, "schema:description", vals, "literal", tag, ""),
        (_is(kinds, "alias"), subj, "skos:altLabel", vals, "literal", tag, ""),
        # a schema-section diff line without a property link (M4)
        (fallback, subj, p("schema:"), *typed),
        (claim, subj, p("p:"), sid, "iri", "", ""),
        (claim, sid, "rdf:type", "wikibase:Statement", "iri", "", ""),
        (claim & _is(_encode(rank), "normal", "preferred", ""),
         sid, "rdf:type", "wikibase:BestRank", "iri", "", ""),
        (claim, sid, p("ps:"), *typed),
        (claim, subj, p("wdt:"), *typed),
        (link, sid, p("psn:"), iri, "iri", "", ""),
        (link, subj, p("wdtn:"), iri, "iri", "", ""),
        (claim & time, sid, p("psv:"), vid, "iri", "", ""),
        (qual, sid, p("pq:"), *typed),
        (qual & time, sid, p("pqv:"), vid, "iri", "", ""),
        (ref, sid, "prov:wasDerivedFrom", rid, "iri", "", ""),
        (ref, rid, "rdf:type", "wikibase:Reference", "iri", "", ""),
        (ref, rid, p("pr:"), *typed),
        (ref & time, rid, p("prv:"), vid, "iri", "", ""),
        # the time node, after every template that links it
        # (handle_time_node, get_updates.py:632-658)
        (time, vid, "rdf:type", "wikibase:TimeValue", "iri", "", ""),
        (time, vid, "wikibase:timeValue", tv, "literal", "", "xsd:dateTime"),
        (time, vid, "wikibase:timePrecision", str(TIME_PRECISION_DAY), "literal", "",
         "xsd:integer"),
        (time, vid, "wikibase:timeTimezone", "0", "literal", "", "xsd:integer"),
        (time, vid, "wikibase:timeCalendarModel", CALENDAR_GREGORIAN, "iri", "", ""),
        (mention, subj, "schema:mentions", wd, "iri", "", ""),
    ])
    # a diff row's op holds for all of its triples (M2 router semantics)
    ops = _choose([claimish & _is(_encode(op), "delete")], ["DELETE"], "INSERT")
    return pa.Table.from_arrays(
        [*cols, batch["url"].take(src), batch["warc_ts"].take(src),
         ops.values.take(ops.at[src])], schema=OPS)


def _cat(*parts) -> pa.Array:
    return pc.binary_join_element_wise(*parts, "")


def _encode(*cols: pa.Array) -> _Col | tuple[_Col, ...]:
    """A column as its distinct strings and each row's code among them;
    several columns share one set of distinct strings, so that equal
    strings have equal codes across them too."""
    enc = pc.dictionary_encode(cols[0] if len(cols) == 1 else pa.concat_arrays(cols))
    codes = enc.indices.to_numpy().astype(np.int64)
    if len(cols) == 1:
        return _Col(enc.dictionary, codes)
    return tuple(_Col(enc.dictionary, a) for a in np.split(codes, len(cols)))


def _is(col: _Col, *strings: str) -> np.ndarray:
    """The rows of ``col`` that hold one of ``strings``."""
    return np.array([v in strings for v in str_list(col.values)], bool)[col.at]


def _starts(col: _Col, prefix: str) -> np.ndarray:
    """The rows of ``col`` whose string starts with ``prefix``."""
    return pc.starts_with(col.values, prefix).to_numpy(zero_copy_only=False)[col.at]


def _on(col: pa.Array, mask: np.ndarray, build) -> _Col:
    """``build`` run on the ``mask`` rows of ``col`` only; equal strings
    get equal codes."""
    rows = np.flatnonzero(mask)
    built = _encode(build(col.take(rows)))
    at = np.zeros(len(mask), np.int64)
    at[rows] = built.at
    return _Col(built.values, at)


def _choose(conds: list, choices: list, default) -> _Col:
    """Per row, the first choice whose condition holds, else ``default``;
    a choice is a ``_Col`` or one string for every row."""
    parts, ats, base = [], [], 0
    for c in (*choices, default):
        if isinstance(c, str):
            parts.append(pa.array([c], pa.string()))
            ats.append(base)
        else:
            parts.append(c.values)
            ats.append(base + c.at)
        base += len(parts[-1])
    return _Col(pa.concat_arrays(parts), np.select(conds, ats[:-1], ats[-1]))


def _ids(mint, prefix: str, mask: np.ndarray, *cols: _Col) -> _Col:
    """``prefix + mint(*row)`` of each ``mask`` row of ``cols``, with one
    ``mint`` call per distinct tuple of strings; each column's codes must
    be equal exactly where its strings are.  Rows outside ``mask`` read
    no id."""
    rows = np.flatnonzero(mask)
    code, size = np.zeros(len(rows), np.int64), 1
    for c in cols:  # fold the codes into one int64 per tuple
        if size * len(c.values) >= 2**63:  # compact first
            code, size = _encode(pa.array(code)).at, len(rows)
        code, size = code * len(c.values) + c.at[rows], size * len(c.values)
    # now numbered in order of first occurrence
    code = _encode(pa.array(code)).at
    first = rows[np.flatnonzero(np.diff(np.maximum.accumulate(code), prepend=-1))]
    made = map(mint, *(str_list(c.values.take(c.at[first])) for c in cols))
    at = np.zeros(len(mask), np.int64)
    at[rows] = code
    return _Col(_cat(prefix, pa.array(made, pa.string())), at)


def _emit(n: int, templates: list) -> tuple[np.ndarray, list[pa.Array]]:
    """The rows of every ``(mask, subj, pred, obj, obj_type, lang,
    datatype)`` template, by source row and, within one, in template
    order: their source rows and their six columns.  A value is a
    ``_Col`` or one string for every row."""
    src, tmpl = np.divmod(np.flatnonzero(np.stack([t[0] for t in templates], axis=1)),
                          len(templates))
    cols = []
    for j in range(1, 7):
        slot: dict = {}  # each distinct value of the column, numbered
        which = np.array([slot.setdefault(t[j], len(slot)) for t in templates])[tmpl]
        parts, at, base = [], [], 0  # all values, and every row's index into them
        for v in slot:
            parts.append(pa.array([v], pa.string()) if isinstance(v, str) else v.values)
            at.append(np.full(n, base) if isinstance(v, str) else base + v.at)
            base += len(parts[-1])
        cols.append(pa.concat_arrays(parts).take(np.concatenate(at)[which * n + src]))
    return src, cols


def assemble_stage(raw_claims):
    return raw_claims.map_batches(assemble_batch, batch_format="pyarrow")

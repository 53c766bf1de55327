"""Minimal Turtle / N-Triples codec (SURVEY.md M12, §7 item 8).

The reference ingests dump-flavor TTL snapshots with rdflib
(ttl_compare.py:168-178) after a BCE-date preprocess (ttl_compare.py:345-369)
because naive ISO parsers reject negative years.  This module restates the
subset of Turtle those dumps actually use, from scratch, as one columnar
parse over a whole batch of documents (``parse_ttl_docs``);
``parse_ttl`` is its one-document call.

Tokens.  One regex pass per batch (polars ``str.extract_all``) splits every
document into tokens; at each position the first alternative that matches
wins:

    literal   "…" with ``\\``-escapes, then ``@lang`` or ``^^datatype``
    iri       <…>
    comment   # to end of line (dropped)
    @prefix
    blank     _:name
    pname     prefix:local
    a         rdf:type
    punct     . ; ,   ([ ] ( ) are unsupported and raise)
    \\S+       anything else: always an error

A token is read whole, so a ``#`` inside a literal or IRI is not a comment
and a negative year in a literal (``"-0347-01-01T00:00:00Z"``) is just
text: no sentinel rewrite is needed.

Grammar.  A segment starts at the start of a document or right after
``.``, ``;`` or ``,``.  A term's role is its offset inside its segment
plus the shift of the punctuation that opened the segment (start and
``.`` 0, ``;`` 1, ``,`` 2):

    0 subject     iri | pname | blank
    1 predicate   iri | pname | a
    2 object      literal | iri | pname | blank | a

so a segment opened by start or ``.`` holds 3 terms, by ``;`` 2 and by
``,`` 1, and is closed by a punctuation token.  ``@prefix name: <iri> .`` may
only open a statement.  A document that has tokens ends on ``.``.
Subject and predicate carry forward to the ``;`` and ``,`` segments of
their statement.  Each rule is a vectorized mask over the token column;
a broken one raises ``TTLParseError`` naming the document's entity —
the reference's bare ``except: continue`` (ttl_compare.py:174-178)
silently drops entities, which SURVEY.md §4 designs out.  Unsupported
Turtle (collections ``( )``, anonymous bnodes ``[ ]``, numeric / boolean
shorthand literals, triple-quoted literals) raises the same way.

Output rows use the engine's triples convention (kernels/rdf.py): full
``<iri>`` terms compacted against the ``@prefix`` declarations before them
(longest namespace first), then against the known namespaces, and kept as
``<...>`` otherwise; prefixed names kept as written; ``rdf:type`` stored
expanded (the serializer renders it as ``a``).  Only literals holding a
``\\`` and full ``<iri>`` terms reach Python, one call each.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import str_list
from .rdf import PREFIX_TO_URI, compact_uri

# single-threaded polars inside Ray workers (see stages/shuffle.py); the
# env var binds only before the process's first polars import
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import polars as pl  # noqa: E402


class TTLParseError(ValueError):
    pass


_LITERAL = (r'"(?:[^"\\]|\\.)*"'
            r'(?:\^\^(?:<[^>]*>|[A-Za-z][\w.-]*:[\w.-]+)|@[A-Za-z][A-Za-z0-9-]*)?')
_BLANK = r"_:[A-Za-z0-9_.-]+"
_PNAME = r"[A-Za-z][\w.-]*:(?:[\w-]+(?:\.[\w-]+)*)?"
# one token pattern, alternatives in priority order (module docstring)
_TOKEN = "|".join((_LITERAL, r"<[^>]*>", r"#[^\n]*", r"@prefix\b", _BLANK,
                   _PNAME, r"\ba\b", r"[;,.\[\]()]", r"\S+"))
# a literal token's body, datatype and lang; no match: a \S+ token
_LITERAL_PARTS = (r'^"(?P<body>(?:[^"\\]|\\.)*)"'
                  r'(?:\^\^(?P<datatype><[^>]*>|[A-Za-z][\w.-]*:[\w.-]+)'
                  r'|@(?P<lang>[A-Za-z][A-Za-z0-9-]*))?$')
# a whole blank node or prefixed name; no match: a \S+ token
_NAME = f"^(?:{_BLANK}|{_PNAME})$"

# token kinds, read from the token's first byte and then checked
LIT, IRI, PREFIX, PNAME, BLANK, A, DOT, SEMI, COMMA, COMMENT, BAD, GROUP = range(12)
_FIRST = np.full(256, BAD, np.int8)
_FIRST[ord('"')] = LIT
_FIRST[ord("<")] = IRI
_FIRST[ord("#")] = COMMENT
_FIRST[ord("@")] = PREFIX
_FIRST[ord("_")] = BLANK
for _c in range(ord("A"), ord("Z") + 1):
    _FIRST[_c] = _FIRST[_c + 32] = PNAME
_FIRST[ord(".")], _FIRST[ord(";")], _FIRST[ord(",")] = DOT, SEMI, COMMA
for _c in "[]()":
    _FIRST[ord(_c)] = GROUP

# role shift of the segment a punctuation token opens
_SHIFT = np.zeros(12, np.int8)
_SHIFT[SEMI], _SHIFT[COMMA] = 1, 2
# slot of a term: 0-2 subject/predicate/object, 3-5 @prefix/name/iri of a
# declaration, 6 a term past the end of its segment
SUBJ, PRED, OBJ, DECL, DECL_NAME, DECL_IRI, EXTRA = range(7)
_ALLOWED = np.zeros((7, 12), bool)
_ALLOWED[SUBJ, [IRI, PNAME, BLANK]] = True
_ALLOWED[PRED, [IRI, PNAME, A]] = True
_ALLOWED[OBJ, [LIT, IRI, PNAME, BLANK, A]] = True
_ALLOWED[DECL, PREFIX] = _ALLOWED[DECL_NAME, PNAME] = _ALLOWED[DECL_IRI, IRI] = True
# what a misplaced term breaks, by slot and then by kind
_SLOT_WHY = ("bad subject", "bad predicate", "bad object", "bad @prefix",
             "bad @prefix name", "bad @prefix iri",
             "unexpected term (missing ',', ';' or '.')")
_KIND_WHY = {BAD: "unexpected input", GROUP: "unsupported Turtle construct",
             PREFIX: "@prefix inside a statement"}
# the grammar rules a token can break (0: none)
_END, _CLOSE, _DECL_CLOSE, _TERM = 1, 2, 3, 4
_RULE_WHY = {_END: "document does not end on '.'",
             _CLOSE: "statement closed before its object",
             _DECL_CLOSE: "@prefix not '.'-terminated"}

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
# one escape: \uXXXX, \UXXXXXXXX, or a backslash and any one character
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.S)


def _unescape_one(m: re.Match) -> str:
    c = m.group(3)
    if c is None:
        code = int(m.group(1) or m.group(2), 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise TTLParseError(f"escape is not a Unicode scalar value: {m.group()!r}")
        return chr(code)
    if c in "uU":
        raise TTLParseError(f"bad \\{c} escape: {m.string[m.start():m.start() + 10]!r}")
    return _ESCAPES.get(c, c)


def _unescape(s: str) -> str:
    return _ESCAPE_RE.sub(_unescape_one, s)


def _who(entity, row: int) -> str:
    return "" if entity is None else f"entity {entity[row].as_py()!r}: "


def _compact_term(iri: str, prefixes: dict[str, str]) -> str:
    """<iri> body -> prefixed name when a namespace is known, else <iri>.

    Doc-declared prefixes are tried LONGEST-namespace-first (matching
    compact_uri's longest-prefix rule and the reference's table order):
    declaration-order first-startswith-wins would compact
    <.../prop/statement/P31> to 'p:statement/P31' whenever '@prefix p:'
    precedes '@prefix ps:', giving the same predicate two spellings and
    breaking dedup/diff keys."""
    for ns in sorted(prefixes, key=len, reverse=True):
        if iri.startswith(ns):
            return f"{prefixes[ns]}:{iri[len(ns):]}"
    c = compact_uri(iri)
    return c if c != iri else f"<{iri}>"


def _tokens(ttl) -> tuple[pa.Array, np.ndarray]:
    """Every token of every document, comments included, in document
    order, and the index of its document."""
    listed = (pl.from_arrow(ttl).cast(pl.String).fill_null("")
              .str.extract_all(_TOKEN).to_arrow())
    return listed.flatten(), np.repeat(np.arange(len(listed)),
                                       listed.value_lengths().to_numpy())


def _kinds(toks: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Each token's kind, and its last byte.  The first byte proposes a
    kind and the token must then be whole: a ``\\S+`` token shares its
    first byte with some valid kind, and reads BAD."""
    _, offsets, data = toks.buffers()
    offs = np.frombuffer(offsets, np.int64)[toks.offset:toks.offset + len(toks) + 1]
    data = np.frombuffer(data, np.uint8)
    first, last = data[offs[:-1]], data[offs[1:] - 1]  # tokens are never empty
    kind = _FIRST[first]
    kind[(kind == IRI) & (last != ord(">"))] = BAD
    kind[(kind == PREFIX) & ~np.asarray(pc.equal(toks, "@prefix"))] = BAD
    kind[(kind == PNAME) & (np.diff(offs) == 1) & (first == ord("a"))] = A
    names = np.flatnonzero((kind == PNAME) | (kind == BLANK))
    whole = pl.from_arrow(toks.take(names)).str.contains(_NAME).to_numpy()
    kind[names[~whole]] = BAD
    return kind, last


def parse_ttl_docs(ttl, entity=None) -> pa.Table:
    """Turtle documents (a string column; null reads as empty) -> one row
    per triple: ``row``, the index of its document, then the string
    columns subj, pred, obj, obj_type, lang, datatype (schema.SNAPSHOT's
    after ``entity``), in document and then token order.

    ``obj_type`` is 'iri' or 'literal'; lang/datatype are '' when absent
    (the flat-columns convention of schema.OPS).  A malformed document
    raises ``TTLParseError`` naming ``entity[row]`` when ``entity`` is
    given."""
    toks, row = _tokens(ttl)
    kind, last = _kinds(toks)
    if (kind == COMMENT).any():
        keep = kind != COMMENT
        toks, row = toks.filter(pa.array(keep)), row[keep]
        kind, last = kind[keep], last[keep]
    lits = np.flatnonzero(kind == LIT)
    parts = (pl.from_arrow(toks.take(lits)).str.extract_groups(_LITERAL_PARTS)
             .struct.unnest())
    kind[lits[parts["body"].is_null().to_numpy()]] = BAD

    # -- roles: segments, offsets and slots by scans over the token column
    n = len(kind)
    idx = np.arange(n)
    punct = (kind == DOT) | (kind == SEMI) | (kind == COMMA)
    doc_start = np.ones(n, bool)
    doc_start[1:] = row[1:] != row[:-1]
    seg_start = doc_start.copy()
    seg_start[1:] |= punct[:-1]
    heads = np.flatnonzero(seg_start)
    seg = np.cumsum(seg_start) - 1
    offset = idx - heads[seg]
    shift = np.where(doc_start[heads], 0, _SHIFT[kind[heads - 1]])[seg]
    decl = ((kind[heads] == PREFIX) & (shift[heads] == 0))[seg]
    slot = np.where(decl, DECL + offset, offset + shift)
    slot = np.minimum(np.where(~decl & (slot > OBJ), EXTRA, slot), EXTRA)

    # -- grammar: every rule one mask; the first broken token raises
    rule = np.zeros(n, np.int8)
    doc_end = np.ones(n, bool)
    doc_end[:-1] = doc_start[1:]
    rule[doc_end & (kind != DOT)] = _END
    # a segment closes after 3 - shift terms, a declaration after 3 at '.'
    rule[punct & ~decl & (offset + shift != 3)] = _CLOSE
    rule[punct & decl & ((offset != 3) | (kind != DOT))] = _DECL_CLOSE
    rule[~punct & ~_ALLOWED[slot, kind]] = _TERM
    rule[(slot == DECL_NAME) & (last != ord(":"))] = _TERM
    broken = np.flatnonzero(rule)
    if len(broken):
        i = int(broken[0])
        why = (_RULE_WHY.get(rule[i]) or _KIND_WHY.get(kind[i])
               or _SLOT_WHY[slot[i]])
        raise TTLParseError(f"{_who(entity, int(row[i]))}{why}: {toks[i].as_py()[:60]!r}")

    # -- values: only literals with a '\' and full <iri> terms reach Python
    objs = np.flatnonzero(slot == OBJ)
    body = parts["body"]
    escaped = np.flatnonzero(body.str.contains("\\", literal=True).to_numpy())
    body = body.to_arrow()
    if len(escaped):
        body = pc.replace_with_mask(body, _mask(len(body), escaped), pa.array(
            _unescape_all(str_list(body.take(escaped)), row[lits[escaped]], entity),
            body.type))
    vals = pc.replace_with_mask(toks, _mask(n, lits), body)
    vals = pc.if_else(kind == A, "rdf:type", vals)
    # every literal is an object: its lang and datatype go to its object row
    at = _mask(len(objs), np.searchsorted(objs, lits))
    lang, dt = (pc.replace_with_mask(pa.nulls(len(objs), body.type), at,
                                     parts[c].to_arrow())
                for c in ("lang", "datatype"))
    iris = np.flatnonzero((kind == IRI) & (slot <= OBJ))
    dt_iris = np.flatnonzero(pc.fill_null(pc.starts_with(dt, "<"), False))
    if len(iris) or len(dt_iris):
        full = _compact_iris(toks, row, slot, np.concatenate([iris, objs[dt_iris]]),
                             pa.concat_arrays([toks.take(iris), dt.take(dt_iris)]))
        vals = pc.replace_with_mask(vals, _mask(n, iris), full[:len(iris)])
        dt = pc.replace_with_mask(dt, _mask(len(objs), dt_iris), full[len(iris):])

    # -- triples: one per object; subject and predicate carry forward
    def carried(s: int) -> np.ndarray:
        return np.maximum.accumulate(np.where(slot == s, idx, 0))[objs]

    return pa.table({
        "row": row[objs],
        "subj": vals.take(carried(SUBJ)).cast(pa.string()),
        "pred": vals.take(carried(PRED)).cast(pa.string()),
        "obj": vals.take(objs).cast(pa.string()),
        "obj_type": pa.array(np.where(kind[objs] == LIT, "literal", "iri"),
                             pa.string()),
        "lang": pc.fill_null(lang, "").cast(pa.string()),
        "datatype": pc.fill_null(dt, "").cast(pa.string()),
    })


def _unescape_all(bodies: list, rows: np.ndarray, entity) -> list:
    """``_unescape`` of each literal body; a bad escape raises naming the
    entity of its document."""
    out = []
    for s, r in zip(bodies, rows.tolist()):
        try:
            out.append(_unescape(s))
        except TTLParseError as err:
            raise TTLParseError(f"{_who(entity, r)}{err}") from None
    return out


def _mask(n: int, at: np.ndarray) -> np.ndarray:
    m = np.zeros(n, bool)
    m[at] = True
    return m


def _compact_iris(toks: pa.Array, row: np.ndarray, slot: np.ndarray,
                  at: np.ndarray, iris: pa.Array) -> pa.Array:
    """The full <iri> terms ``iris``, at token positions ``at``, compacted
    against the @prefix declarations of their document that come before
    them."""
    decl_at = np.flatnonzero(slot == DECL_IRI)
    decls = list(zip((s[1:-1] for s in str_list(toks.take(decl_at))),
                     (s[:-1] for s in str_list(toks.take(decl_at - 1)))))
    lo = np.searchsorted(decl_at, np.searchsorted(row, row[at])).tolist()
    hi = np.searchsorted(decl_at, at).tolist()
    return pa.array([_compact_term(iri[1:-1], dict(decls[a:b]))
                     for a, b, iri in zip(lo, hi, str_list(iris))], iris.type)


def parse_ttl(text: str) -> list[tuple[str, str, str, str, str, str]]:
    """TTL text -> [(subj, pred, obj, obj_type, lang, datatype)]: the
    one-document call of :func:`parse_ttl_docs`."""
    t = parse_ttl_docs(pa.array([text], pa.string()))
    return list(zip(*(c.to_pylist() for c in t.columns[1:])))


def serialize_ttl(
    triples: list[tuple[str, str, str, str, str, str]],
    *,
    header_prefixes: dict[str, str] | None = None,
) -> str:
    """Triples -> dump-flavor Turtle text with ``;`` / ``,`` grouping.

    The inverse of :func:`parse_ttl` for round-trip tests and snapshot
    fixtures.  Consecutive same-subject rows share a subject block;
    consecutive same-predicate rows inside it share a predicate.
    """
    if header_prefixes is None:
        used = set()
        for s, p, o, ot, _, dt in triples:
            for term in (s, p, dt) + ((o,) if ot == "iri" else ()):
                head, sep, _ = term.partition(":")
                if sep and head in PREFIX_TO_URI:
                    used.add(head)
        header_prefixes = {PREFIX_TO_URI[p]: p for p in sorted(used)}

    lines = [f"@prefix {p}: <{uri}> ." for uri, p in header_prefixes.items()]
    lines.append("")

    def fmt_obj(o: str, ot: str, lg: str, dt: str) -> str:
        if ot == "iri":
            return "a" if o == "rdf:type" else o
        v = o.replace("\\", "\\\\").replace('"', '\\"')
        v = v.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        if lg:
            return f'"{v}"@{lg}'
        if dt:
            return f'"{v}"^^{dt}'
        return f'"{v}"'

    i, n = 0, len(triples)
    while i < n:
        s = triples[i][0]
        j = i
        parts: list[str] = []
        while j < n and triples[j][0] == s:
            p = triples[j][1]
            objs: list[str] = []
            while j < n and triples[j][0] == s and triples[j][1] == p:
                _, _, o, ot, lg, dt = triples[j]
                objs.append(fmt_obj(o, ot, lg, dt))
                j += 1
            ptok = "a" if p == "rdf:type" else p
            parts.append(f"{ptok} {', '.join(objs)}")
        lines.append(f"{s} " + " ;\n    ".join(parts) + " .")
        i = j
    return "\n".join(lines) + "\n"

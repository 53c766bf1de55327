"""Minimal Turtle / N-Triples codec (SURVEY.md M12, §7 item 8).

The reference ingests dump-flavor TTL snapshots with rdflib
(ttl_compare.py:168-178) after a BCE-date preprocess (ttl_compare.py:345-369)
because naive ISO parsers reject negative years.  This module restates the
subset of Turtle those dumps actually use, from scratch, as one columnar
parse over a whole batch of documents (``parse_ttl_docs``);
``parse_ttl`` is its one-document call.

Heads.  A dump-flavor document opens with a run of ``@prefix``
declarations, and the documents of a batch share a handful of distinct
runs.  ``_HEAD`` matches each document's leading run (possibly empty) in
a spelling that ``_TOKEN`` can only read as ``@prefix``, ``name:``,
``<iri>``, ``.`` quadruples; each distinct head is tokenized once, and
only the text after it goes through the token pass below.

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
text: no sentinel rewrite is needed.  Tokens stay byte ranges of the
token pass's one buffer; a ``\\S+`` token is told from a valid one by
a few bytes (a literal's closing quote, a blank node's ``_:`` and next
byte, an IRI's ``>``), and a prefixed name by ``_NAME`` once per
distinct name; only literals holding a ``\\`` (or a non-ASCII byte after
the closing quote) are split by a regex.

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
expanded (the serializer renders it as ``a``).  Values are built only for
the terms a triple reads: each is a byte range of the token buffer (a
literal's body, lang or datatype, a name, an uncompacted ``<iri>``) or
one of a few built strings (``rdf:type``, compacted IRIs, unescaped
bodies), and each output column is one ``take`` over them.  Compaction
matches the IRI bodies against the batch's distinct declared namespaces
with array operations; Python runs once per distinct namespace and per
literal holding a ``\\``.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import str_list
from .rdf import PREFIX_TO_URI, PREFIXES

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
# one token pattern, alternatives in priority order (module docstring),
# where a name's \w reads wider: as any character that is neither ASCII nor
# whitespace (Unicode \w costs the regex engine a third more time).  A
# valid document tokenizes the same either way; a name or literal that
# takes in a non-ASCII character is checked against the exact pattern, and
# one that fails it is the broken token an error names (with Unicode \w
# the name would end before the character, and the error name the rest)
_TOKEN = "|".join((_LITERAL, r"<[^>]*>", r"#[^\n]*", r"@prefix\b", _BLANK,
                   _PNAME, r"\ba\b", r"[;,.\[\]()]", r"\S+")
                  ).replace(r"\w", r"A-Za-z0-9_[^\x00-\x7F\s]")
# a literal token's body, datatype and lang; no match: a \S+ token
_LITERAL_PARTS = (r'^"(?P<body>(?:[^"\\]|\\.)*)"'
                  r'(?:\^\^(?P<datatype><[^>]*>|[A-Za-z][\w.-]*:[\w.-]+)'
                  r'|@(?P<lang>[A-Za-z][A-Za-z0-9-]*))?$')
# a document's head: whitespace only where _TOKEN skips it, and a name
# _PNAME reads up to its ':', so each declaration is four whole tokens
_HEAD = (r"^(?:[ \t\r\n]*@prefix[ \t\r\n]+[A-Za-z][A-Za-z0-9_.-]*:"
         r"[ \t\r\n]*<[^>]*>[ \t\r\n]*\.)*")
# a head's names and IRIs, alternately (its declarations in order)
_HEAD_TERMS = r"[A-Za-z][A-Za-z0-9_.-]*:|<[^>]*>"
# a whole prefixed name; no match: a \S+ token
_NAME = f"^{_PNAME}$"
_AT_PREFIX = np.frombuffer(b"@prefix", np.uint8)
# the byte after a blank node's '_:'
_BLANK_BYTE = np.zeros(256, bool)
_BLANK_BYTE[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")] = True

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
_PUNCT = np.zeros(12, bool)
_PUNCT[[DOT, SEMI, COMMA]] = True

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
# a token's place: its segment's shift (0-2) or _DECL_PLACE for a
# declaration, plus its offset in the segment, capped where the slot no
# longer changes; its slot and, by kind, the rule it breaks
_DECL_PLACE = 8
_SLOT_BY = np.array([SUBJ, PRED, OBJ] + [EXTRA] * 5 + [DECL, DECL_NAME, DECL_IRI]
                    + [EXTRA] * 3, np.int8)
_RULE_BY = np.where(_ALLOWED[_SLOT_BY], 0, _TERM).astype(np.int8)
# a segment closes after 3 - shift terms, a declaration after 3 at '.';
# a punctuation token further on follows a term that breaks _TERM first
_RULE_BY[:3, [DOT, SEMI, COMMA]] = _CLOSE
_RULE_BY[3:_DECL_PLACE, [DOT, SEMI, COMMA]] = 0
_RULE_BY[_DECL_PLACE + 1:_DECL_PLACE + 3, [DOT, SEMI, COMMA]] = _DECL_CLOSE
_RULE_BY[_DECL_PLACE + 3:, [SEMI, COMMA]] = _DECL_CLOSE
_RULE_BY[_DECL_PLACE + 3:, DOT] = 0
_RULE_WHY = {_END: "document does not end on '.'",
             _CLOSE: "statement closed before its object",
             _DECL_CLOSE: "@prefix not '.'-terminated"}

# the known namespaces' names as compacted IRIs spell them, in table order
_KNOWN = pa.array([f"{p}:" for p in PREFIXES.values()], pa.large_string())
_KNOWN_BYTES = np.array([len(ns.encode()) for ns in PREFIXES], np.int64)
_OBJ_TYPE = pa.array(["iri", "literal"], pa.string())

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


def _pieces(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> pa.Array:
    """The byte ranges ``[start[i], end[i])`` of ``buf`` (in order and
    disjoint) as entry ``2 * i`` of one string array over ``buf``; the odd
    entries are the gaps between them.  No byte is copied."""
    n = 2 * len(start)
    off = np.zeros(n or 1, np.int64)
    off[0:n:2], off[1:n:2] = start, end
    return pa.LargeStringArray.from_buffers(max(n - 1, 0), pa.py_buffer(off),
                                            pa.py_buffer(buf))


def _substrings(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> pa.Array:
    """The byte ranges ``[start[i], end[i])`` of ``buf`` as one compact
    string array."""
    return _pieces(buf, start, end).take(np.arange(0, 2 * len(start), 2))


def _split_heads(ttl) -> tuple[pa.Array, np.ndarray, pl.Series]:
    """Each document's head (``_HEAD``'s match, possibly empty) and the
    text after it: the distinct heads, each document's index into them,
    and the rests."""
    docs = pl.from_arrow(ttl).cast(pl.String).fill_null("")
    head = docs.str.extract(_HEAD, 0)
    enc = pc.dictionary_encode(head.to_arrow())
    return (enc.dictionary, enc.indices.to_numpy(zero_copy_only=False),
            docs.str.strip_prefix(head))


def _tokens(text: pl.Series) -> tuple[np.ndarray, ...]:
    """Every token of every document in ``text``, comments included, in
    document order: the token pass's bytes, each token's ``[start, end)``
    in them, and the index of its document."""
    listed = text.str.extract_all(_TOKEN).to_arrow()
    toks = listed.flatten()
    row = np.repeat(np.arange(len(listed)), listed.value_lengths().to_numpy())
    if not len(toks):
        return np.zeros(0, np.uint8), row, row, row
    _, offsets, data = toks.buffers()
    off = np.frombuffer(offsets, np.int64)[toks.offset:toks.offset + len(toks) + 1]
    return np.frombuffer(data, np.uint8), off[:-1], off[1:], row


def _holds(marks: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether ``[start, end)`` holds any of the sorted byte indices
    ``marks``."""
    return np.searchsorted(marks, start) < np.searchsorted(marks, end)


def _kinds(data: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each token's kind, read from its first byte and then checked: a
    ``\\S+`` token shares its first byte with some valid kind, and reads
    BAD.  Prefixed names are checked whole, once per distinct name."""
    first = data[start]  # tokens are never empty
    kind = _FIRST[first]
    size = end - start
    kind[(kind == IRI) & (data[end - 1] != ord(">"))] = BAD
    at = np.flatnonzero(kind == PREFIX)
    word = data[np.minimum(start[at, None] + np.arange(7), len(data) - 1)]
    kind[at[(size[at] != 7) | (word != _AT_PREFIX).any(axis=1)]] = BAD
    kind[(kind == PNAME) & (size == 1) & (first == ord("a"))] = A
    blanks = np.flatnonzero(kind == BLANK)
    after = data[np.minimum(start[blanks, None] + [1, 2], len(data) - 1)]
    kind[blanks[(size[blanks] < 3) | (after[:, 0] != ord(":"))
                | ~_BLANK_BYTE[after[:, 1]]]] = BAD
    names = np.flatnonzero(kind == PNAME)
    distinct = pc.dictionary_encode(_substrings(data, start[names], end[names]))
    whole = pl.from_arrow(distinct.dictionary).str.contains(_NAME).to_numpy()
    kind[names[~whole[distinct.indices.to_numpy()]]] = BAD
    return kind


def _literals(data: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Each literal token's closing quote (a byte index into ``data``; -1
    when the token is not a whole literal), and the literals whose body
    holds a ``\\``: their indices and their still escaped bodies.

    Without a ``\\`` the closing quote is the token's second ``"``.  A
    token holding one, or a non-ASCII byte after that quote, goes through
    ``_LITERAL_PARTS``, and its quote sits before the lang or datatype the
    regex read."""
    quotes = np.append(np.flatnonzero(data == ord('"')), len(data))
    q = quotes[np.searchsorted(quotes, start + 1)]
    q[q >= end] = -1
    odd = np.flatnonzero(_holds(np.flatnonzero(data == ord("\\")), start, end)
                         | ((q >= 0) & _holds(np.flatnonzero(data >= 0x80), q, end)))
    parts = (pl.from_arrow(_substrings(data, start[odd], end[odd]))
             .str.extract_groups(_LITERAL_PARTS).struct.unnest())
    lang, dt = (parts[c].str.len_bytes().fill_null(-1).to_numpy().astype(np.int64)
                for c in ("lang", "datatype"))
    tail = np.where(lang >= 0, lang + 1, np.where(dt >= 0, dt + 2, 0))
    q[odd] = np.where(parts["body"].is_null().to_numpy(), -1, end[odd] - 1 - tail)
    escaped = parts["body"].str.contains("\\", literal=True).fill_null(False).to_numpy()
    return q, odd[escaped], parts["body"].filter(escaped).to_arrow()


def _slots(kind: np.ndarray, row: np.ndarray, last: np.ndarray):
    """Each token's slot, and the grammar rule it breaks (0: none), both
    read from ``_SLOT_BY`` and ``_RULE_BY`` by its place in its segment."""
    n = len(kind)
    doc_start = np.ones(n, bool)
    doc_start[1:] = row[1:] != row[:-1]
    seg_start = doc_start.copy()
    seg_start[1:] |= _PUNCT[kind[:-1]]
    heads = np.flatnonzero(seg_start)
    seg = np.cumsum(seg_start) - 1
    offset = np.arange(n) - heads[seg]
    shift = np.where(doc_start[heads], 0, _SHIFT[kind[heads - 1]])
    place = (np.where((kind[heads] == PREFIX) & (shift == 0), _DECL_PLACE, shift)[seg]
             + np.minimum(offset, _DECL_PLACE - 3))
    slot = _SLOT_BY[place]
    rule = _RULE_BY[place, kind]
    rule[(slot == DECL_NAME) & (last != ord(":"))] = _TERM
    doc_end = np.ones(n, bool)
    doc_end[:-1] = doc_start[1:]
    rule[doc_end & (rule == 0) & (kind != DOT)] = _END
    return slot, rule


def _declarations(heads: pa.Array, data: np.ndarray, start: np.ndarray,
                  end: np.ndarray, row: np.ndarray, slot: np.ndarray) -> dict:
    """The batch's @prefix declarations: those of each distinct head
    (``head``: its index) and those after a document's head (``doc`` and
    token ``pos``), each with its namespace (an index into the distinct
    namespaces ``ns``) and its name (an index into ``names``, which then
    holds the known namespaces' names in table order)."""
    listed = pl.from_arrow(heads).str.extract_all(_HEAD_TERMS).to_arrow()
    terms = listed.flatten()
    head = np.repeat(np.arange(len(listed)), listed.value_lengths().to_numpy())[1::2]
    at = np.flatnonzero(slot == DECL_IRI)
    ns = pc.dictionary_encode(pa.concat_arrays([
        pc.utf8_slice_codeunits(terms.take(np.arange(1, len(terms), 2)), 1, -1),
        _substrings(data, start[at] + 1, end[at] - 1)]))
    ns_of = ns.indices.to_numpy()
    return {"ns": ns.dictionary, "head": head, "head_ns": ns_of[:len(head)],
            "doc": row[at], "pos": at, "doc_ns": ns_of[len(head):],
            "names": pa.concat_arrays([
                terms.take(np.arange(0, len(terms), 2)),
                _substrings(data, start[at - 1], end[at - 1]), _KNOWN])}


def _compact(bodies: pa.Array, doc: np.ndarray, pos: np.ndarray,
             head_of: np.ndarray, decls: dict) -> tuple[np.ndarray, np.ndarray]:
    """The compaction of each full IRI (its ``bodies``, at token ``pos``
    of document ``doc``): an index into ``decls["names"]`` (-1: kept as
    ``<iri>``) and the byte length of the namespace it drops.

    The longest namespace declared before the IRI in its document wins,
    under the name its latest such declaration gave it (a head's
    declarations come before all of its document's tokens); an IRI under
    none takes the first known namespace (``rdf.PREFIXES``, table order,
    as ``rdf.compact_uri``)."""
    ns = decls["ns"]
    nj = len(ns)
    ns_bytes = pc.binary_length(ns).to_numpy().astype(np.int64)
    name = np.full(len(bodies), -1)
    drop = np.zeros(len(bodies), np.int64)
    if nj and len(bodies):
        hits = np.column_stack([pc.starts_with(bodies, pattern=s).to_numpy(
            zero_copy_only=False) for s in ns.to_pylist()])
        ii, jj = np.nonzero(hits)
        # the latest name the IRI's head gives each namespace (a trailing
        # -1 key and name: no declaration)
        nh = len(decls["head"])
        hkey, last = np.unique((decls["head"] * nj + decls["head_ns"])[::-1],
                               return_index=True)
        hkey, hname = np.append(hkey, -1), np.append(nh - 1 - last, -1)
        qkey = head_of[doc[ii]] * nj + jj
        at = np.searchsorted(hkey[:-1], qkey)
        got = np.where(hkey[at] == qkey, hname[at], -1)
        # overridden by the latest declaration before the IRI in its own
        # document (declaration -1: the trailing -1 namespace, no match)
        span = int(max(pos.max(), decls["pos"].max(initial=0))) + 1
        rkey = decls["doc_ns"] * span + decls["pos"]
        order = np.append(np.argsort(rkey), -1)
        d = order[np.searchsorted(rkey[order[:-1]], jj * span + pos[ii]) - 1]
        mine = ((np.append(decls["doc_ns"], -1)[d] == jj)
                & (np.append(decls["doc"], -1)[d] == doc[ii]))
        got = np.where(mine, nh + d, got)
        ii, jj, got = ii[got >= 0], jj[got >= 0], got[got >= 0]
        best = np.lexsort((-ns_bytes[jj], ii))
        ii, jj, got = ii[best], jj[best], got[best]
        first = np.ones(len(ii), bool)
        first[1:] = ii[1:] != ii[:-1]
        name[ii[first]] = got[first]
        drop[ii[first]] = ns_bytes[jj[first]]
    rest = np.flatnonzero(name < 0)
    known = bodies.take(rest)
    base = len(decls["names"]) - len(_KNOWN)
    for t, uri in enumerate(PREFIXES):
        hit = rest[pc.starts_with(known, pattern=uri).to_numpy(zero_copy_only=False)]
        hit = hit[name[hit] < 0]
        name[hit], drop[hit] = base + t, _KNOWN_BYTES[t]
    return name, drop


def parse_ttl_docs(ttl, entity=None) -> pa.Table:
    """Turtle documents (a string column; null reads as empty) -> one row
    per triple: ``row``, the index of its document, then the string
    columns subj, pred, obj, obj_type, lang, datatype (schema.SNAPSHOT's
    after ``entity``), in document and then token order.

    ``obj_type`` is 'iri' or 'literal'; lang/datatype are '' when absent
    (the flat-columns convention of schema.OPS).  A malformed document
    raises ``TTLParseError`` naming ``entity[row]`` when ``entity`` is
    given."""
    heads, head_of, rest = _split_heads(ttl)
    data, start, end, row = _tokens(rest)
    kind = _kinds(data, start, end)
    if (kind == COMMENT).any():
        keep = kind != COMMENT
        start, end, row, kind = start[keep], end[keep], row[keep], kind[keep]
    lits = np.flatnonzero(kind == LIT)
    q, escaped, bodies = _literals(data, start[lits], end[lits])
    kind[lits[q < 0]] = BAD
    slot, rule = _slots(kind, row, data[end - 1])
    broken = np.flatnonzero(rule)
    if len(broken):
        i = int(broken[0])
        why = (_RULE_WHY.get(rule[i]) or _KIND_WHY.get(kind[i])
               or _SLOT_WHY[slot[i]])
        text = bytes(data[start[i]:end[i]]).decode()
        raise TTLParseError(f"{_who(entity, int(row[i]))}{why}: {text[:60]!r}")

    # -- values: the terms' byte ranges; every literal is an object term
    terms = np.flatnonzero(slot <= OBJ)
    tkind, tslot = kind[terms], slot[terms]
    vstart, vend = start[terms], end[terms].copy()
    xstart, xend = vend.copy(), vend.copy()
    lit = np.flatnonzero(tkind == LIT)
    vstart[lit] += 1
    vend[lit] = q
    sep = data[np.minimum(q + 1, len(data) - 1)]
    lang = lit[(q + 1 < xend[lit]) & (sep == ord("@"))]
    typed = lit[(q + 1 < xend[lit]) & (sep == ord("^"))]
    xstart[lang] = vend[lang] + 2
    xstart[typed] = vend[typed] + 3
    # full IRIs: the IRI terms and the <datatype>s of literals
    iri = tkind == IRI
    iri[typed[data[xstart[typed]] == ord("<")]] = True
    cand = np.flatnonzero(iri)
    cstart = np.where(tkind[cand] == IRI, vstart[cand], xstart[cand]) + 1
    cend = end[terms[cand]] - 1
    decls = _declarations(heads, data, start, end, row, slot)
    name, drop = _compact(_substrings(data, cstart, cend), row[terms[cand]],
                          terms[cand], head_of, decls)
    done = np.flatnonzero(name >= 0)
    extra = pa.concat_arrays([
        pa.array(["rdf:type"], pa.large_string()),
        pc.binary_join_element_wise(
            decls["names"].take(name[done]),
            _substrings(data, cstart[done] + drop[done], cend[done]),
            pa.scalar("", pa.large_string())),
        pa.array(_unescape_all(str_list(bodies), row[lits[escaped]], entity),
                 pa.large_string())])

    # -- triples: one per object; every column one take over the values
    nt = len(terms)
    value = 1 + 2 * np.arange(nt)  # range 0 is the empty string
    suffix = value + 1
    base = 1 + 2 * nt
    value[tkind == A] = base
    built = cand[done]
    own = tkind[built] == IRI
    value[built[own]] = base + 1 + np.flatnonzero(own)
    suffix[built[~own]] = base + 1 + np.flatnonzero(~own)
    value[lit[escaped]] = base + 1 + len(done) + np.arange(len(escaped))
    _, eoff, edata = extra.buffers()
    eoff = len(data) + np.frombuffer(eoff, np.int64)[:len(extra) + 1]
    vals = _pieces(np.concatenate([data, np.frombuffer(edata, np.uint8)]),
                   np.concatenate([[0], np.column_stack([vstart, xstart]).ravel(), eoff[:-1]]),
                   np.concatenate([[0], np.column_stack([vend, xend]).ravel(), eoff[1:]]))
    objs = np.flatnonzero(tslot == OBJ)
    idx = np.arange(nt)

    def col(r: np.ndarray) -> pa.Array:
        return vals.take(2 * r).cast(pa.string())

    def carried(s: int) -> np.ndarray:
        return value[np.maximum.accumulate(np.where(tslot == s, idx, 0))[objs]]

    lang_at, typed_at = np.zeros(nt, np.int64), np.zeros(nt, np.int64)
    lang_at[lang], typed_at[typed] = suffix[lang], suffix[typed]
    return pa.table({
        "row": row[terms[objs]],
        "subj": col(carried(SUBJ)),
        "pred": col(carried(PRED)),
        "obj": col(value[objs]),
        "obj_type": _OBJ_TYPE.take((tkind[objs] == LIT).astype(np.int8)),
        "lang": col(lang_at[objs]),
        "datatype": col(typed_at[objs]),
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

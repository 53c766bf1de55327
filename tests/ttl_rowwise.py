"""The state-machine Turtle parser, kept as the row-wise restatement that
the columnar parser (``kgray.kernels.ttl``) is tested against.

One document at a time: a regex finds the next token and a state machine
(``expect``) checks the grammar and emits triples.  Two behaviours of its
earlier engine version are left out: the BCE sentinel (``"BCE_x"`` parsed
to ``-x``) and the pre-check that rejected any document holding ``'''``.
Its literal escapes follow the engine's rules: ``\\U`` decodes too, and a
malformed ``\\u``/``\\U`` escape raises ``TTLParseError``.
"""

from __future__ import annotations

import re

import pyarrow as pa

from kgray.kernels.rdf import compact_uri
from kgray.kernels.ttl import TTLParseError
from kgray.schema import SNAPSHOT

# one scanner for every token kind; literals first so quotes win
_TOKEN_RE = re.compile(
    r"""
    (?P<literal>"(?:[^"\\]|\\.)*"
        (?:\^\^(?:<[^>]*>|[A-Za-z][\w.-]*:[\w.-]+)|@[A-Za-z][A-Za-z0-9-]*)?)
  | (?P<iri><[^>]*>)
  | (?P<prefix_decl>@prefix\b)
  | (?P<blank>_:[A-Za-z0-9_.-]+)
  | (?P<pname>[A-Za-z][\w.-]*:(?:[\w-]+(?:\.[\w-]+)*)?)
  | (?P<kw_a>\ba\b)
  | (?P<punct>[;,.\[\]()])
    """,
    re.X,
)

_COMMENT_RE = re.compile(r'#[^\n]*')
_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")


def _unescape(s: str) -> str:
    """Backslash escapes of a literal body: ``\\uXXXX`` and
    ``\\UXXXXXXXX`` decode to their Unicode scalar value, and a ``\\u``
    or ``\\U`` not followed by that many hex digits, a surrogate or a
    value above U+10FFFF raises ``TTLParseError``."""
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            nxt = s[i + 1]
            if nxt in "uU":
                width = 4 if nxt == "u" else 8
                digits = s[i + 2:i + 2 + width]
                if not _HEX_RE.fullmatch(digits) or len(digits) != width:
                    raise TTLParseError(f"bad \\{nxt} escape: {s[i:i + 10]!r}")
                code = int(digits, 16)
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    raise TTLParseError(f"escape is not a Unicode scalar value: {s[i:i + 10]!r}")
                out.append(chr(code))
                i += 2 + width
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


_MASK_RE = re.compile(r'"(?:[^"\\]|\\.)*"|<[^>\s]*>')


def _strip_comments(text: str) -> str:
    """Drop #-comments outside string literals and IRIs (both masked first —
    ``<...XMLSchema#>`` contains '#' and must not open a comment)."""
    masked = _MASK_RE.sub(lambda m: "\x00" * len(m.group()), text)
    out, last = [], 0
    for m in _COMMENT_RE.finditer(masked):
        out.append(text[last:m.start()])
        last = m.end()
    out.append(text[last:])
    return "".join(out)


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


def parse_ttl(text: str) -> list[tuple[str, str, str, str, str, str]]:
    """TTL text -> [(subj, pred, obj, obj_type, lang, datatype)].

    ``obj_type`` is 'iri' or 'literal'; lang/datatype are '' when absent
    (the flat-columns convention of schema.OPS).
    """
    text = _strip_comments(text)
    prefixes: dict[str, str] = {}  # doc-local @prefix decls, uri -> prefix
    triples: list[tuple[str, str, str, str, str, str]] = []

    # statement state
    subj = pred = None
    expect = "subj"  # subj | pred | obj | prefix_name | prefix_iri | prefix_dot
    decl_prefix = ""

    pos, n = 0, len(text)
    while pos < n:
        m = _TOKEN_RE.search(text, pos)
        if m is None:
            tail = text[pos:].strip()
            if tail:
                raise TTLParseError(f"unparseable tail: {tail[:60]!r}")
            break
        gap = text[pos:m.start()]
        if gap.strip():
            raise TTLParseError(f"unexpected input: {gap.strip()[:60]!r}")
        pos = m.end()
        kind = m.lastgroup
        tok = m.group()

        if kind == "prefix_decl":
            expect = "prefix_name"
            continue
        if expect == "prefix_name":
            if kind != "pname" or not tok.endswith(":"):
                raise TTLParseError(f"bad @prefix name: {tok!r}")
            decl_prefix = tok[:-1]
            expect = "prefix_iri"
            continue
        if expect == "prefix_iri":
            if kind != "iri":
                raise TTLParseError(f"bad @prefix iri: {tok!r}")
            prefixes[tok[1:-1]] = decl_prefix
            expect = "prefix_dot"
            continue
        if expect == "prefix_dot":
            if tok != ".":
                raise TTLParseError(f"@prefix not '.'-terminated: {tok!r}")
            expect = "subj"
            continue

        if kind == "punct":
            if tok == ".":
                if expect != "punct":
                    raise TTLParseError("'.' before any object")
                subj = pred = None
                expect = "subj"
            elif tok == ";":
                if subj is None or expect != "punct":
                    raise TTLParseError("';' outside a statement")
                expect = "pred"
            elif tok == ",":
                if pred is None or expect != "punct":
                    raise TTLParseError("',' outside an object list")
                expect = "obj"
            else:
                raise TTLParseError(f"unsupported Turtle construct: {tok!r}")
            continue

        if expect == "subj":
            if kind == "iri":
                subj = _compact_term(tok[1:-1], prefixes)
            elif kind in ("pname", "blank"):
                subj = tok
            else:
                raise TTLParseError(f"bad subject: {tok!r}")
            expect = "pred"
            continue

        if expect == "pred":
            if kind == "kw_a":
                pred = "rdf:type"
            elif kind == "iri":
                pred = _compact_term(tok[1:-1], prefixes)
            elif kind == "pname":
                pred = tok
            else:
                raise TTLParseError(f"bad predicate: {tok!r}")
            expect = "obj"
            continue

        # object position
        if expect != "obj":
            raise TTLParseError(
                f"unexpected term {tok!r} (missing ',', ';' or '.')")
        if kind == "literal":
            body = _STRING_RE.match(tok)
            val = _unescape(body.group()[1:-1])
            rest = tok[body.end():]
            lang = dt = ""
            if rest.startswith("@"):
                lang = rest[1:]
            elif rest.startswith("^^"):
                dtok = rest[2:]
                if dtok.startswith("<"):
                    dt = _compact_term(dtok[1:-1], prefixes)
                else:
                    dt = dtok
            triples.append((subj, pred, val, "literal", lang, dt))
        elif kind == "iri":
            triples.append((subj, pred, _compact_term(tok[1:-1], prefixes),
                            "iri", "", ""))
        elif kind in ("pname", "blank", "kw_a"):
            obj = "rdf:type" if kind == "kw_a" else tok
            triples.append((subj, pred, obj, "iri", "", ""))
        else:
            raise TTLParseError(f"bad object: {tok!r}")
        expect = "punct"  # only ',' / ';' / '.' may follow an object

    if subj is not None or expect != "subj":
        raise TTLParseError(f"truncated statement (state={expect})")
    return triples


def parse_ttl_batch(docs: pa.Table) -> pa.Table:
    """``kgray.stages.ttl.parse_ttl_batch`` restated one document dict at
    a time."""
    return pa.Table.from_pylist(
        [{"entity": doc["entity"], **dict(zip(SNAPSHOT.names[1:], t))}
         for doc in docs.to_pylist() for t in parse_ttl(doc["ttl"] or "")],
        schema=SNAPSHOT)

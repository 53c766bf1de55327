"""HTML -> text extraction and structured page parsing (SURVEY.md M3-M10, M19).

The reference's flagship extractor walks MediaWiki compare-API HTML with
BeautifulSoup (``convert_to_rdf``, get_updates.py:191-358): ``diff-lineno``
cells move a predicate cursor, ``diff-deletedline``/``diff-addedline`` cells
yield delete/insert values, nested ``<a>/<b>/<span>`` tags become
(predicate, object) pairs, and hrefs are mined for P-ids / QIDs
(``extract_href``, get_updates.py:883-916).

This module restates that machinery from scratch on stdlib ``html.parser``
(bs4 is not a dependency of the engine) as pure functions over one HTML
document.  They are called per-row inside vectorized ``map_batches`` UDFs by
the pipeline AND by the single-threaded oracle — the shared implementation is
what makes the "byte-identical extracted text per url" invariant
(BASELINE.json input_hint) hold by construction while still exercising the
full parquet/Arrow round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

# Elements that contribute a line break in the text rendering.
_BLOCK_TAGS = frozenset(
    "h1 h2 h3 h4 h5 h6 p div li ul ol table tr br title body html head".split()
)
_SKIP_TAGS = frozenset(("script", "style"))
_VOID_TAGS = frozenset(("br", "img", "hr", "meta", "link", "input"))

_WS_RE = re.compile(r"\s+")
_PROP_HREF_RE = re.compile(r"/wiki/Property:(P\d+)")
_QID_HREF_RE = re.compile(r"/wiki/(Q\d+)")


# ---------------------------------------------------------------------------
# minimal DOM
# ---------------------------------------------------------------------------


@dataclass
class Node:
    tag: str
    attrs: dict[str, str]
    children: list = field(default_factory=list)  # Node | str

    @property
    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    def text(self) -> str:
        """Inline text of the subtree, whitespace-collapsed and stripped."""
        out: list[str] = []

        def walk(n: Node) -> None:
            for c in n.children:
                if isinstance(c, str):
                    out.append(c)
                elif c.tag not in _SKIP_TAGS:
                    walk(c)

        walk(self)
        return _WS_RE.sub(" ", "".join(out)).strip()

    def find_all(self, tag: str | None = None, cls: str | None = None) -> list["Node"]:
        found: list[Node] = []

        def walk(n: Node) -> None:
            for c in n.children:
                if isinstance(c, Node):
                    if (tag is None or c.tag == tag) and (cls is None or cls in c.classes):
                        found.append(c)
                    walk(c)

        walk(self)
        return found

    def find(self, tag: str | None = None, cls: str | None = None) -> "Node | None":
        """The first ``find_all`` hit (pre-order), or None; stops walking
        at the hit."""
        stack = self.children[::-1]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                continue
            if (tag is None or n.tag == tag) and (cls is None or cls in n.classes):
                return n
            stack.extend(reversed(n.children))
        return None


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#root", {})
        self.stack = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v or "") for k, v in attrs})
        self.stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_endtag(self, tag: str) -> None:
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                break

    def handle_data(self, data: str) -> None:
        if data:
            self.stack[-1].children.append(data)


# Fast-path tokenizer: ONE compiled regex alternation over the common
# well-formed subset (lowercase-insensitive names, double-quoted attribute
# values only).  Anything it cannot prove it handles identically to
# html.parser — comments, declarations, processing instructions,
# single-quoted/unquoted attrs, script/style content, stray '<' — bails the
# WHOLE document to the HTMLParser slow path, so the byte-identity invariant
# never depends on the fast path being complete, only on it being correct
# where it claims competence.  Measured ~3x on the fixture corpus (the DOM
# build was 57% of per-page extract cost).
_FAST_TAG_RE = re.compile(
    r"<(/?)([a-zA-Z][a-zA-Z0-9]*)"
    r"((?:\s+[a-zA-Z_:][\-a-zA-Z0-9_:.]*(?:\s*=\s*\"[^\"<>]*\")?)*)"
    r"\s*(/?)>"
)
_FAST_ATTR_RE = re.compile(
    r"([a-zA-Z_:][\-a-zA-Z0-9_:.]*)(?:\s*=\s*\"([^\"]*)\")?"
)


class _FastPathBail(Exception):
    pass


def _parse_html_fast(html: str) -> Node:
    root = Node("#root", {})
    stack = [root]
    pos = 0
    n = len(html)
    while True:
        lt = html.find("<", pos)
        if lt < 0:
            text = html[pos:]
            if "&" in text:
                # a trailing (possibly truncated) charref at EOF is flushed
                # differently by html.parser's close() — not worth mirroring
                raise _FastPathBail
            if text:
                stack[-1].children.append(text)
            break
        if lt > pos:
            text = html[pos:lt]
            stack[-1].children.append(unescape(text) if "&" in text else text)
        m = _FAST_TAG_RE.match(html, lt)
        if m is None:
            raise _FastPathBail  # comment/decl/PI/quirky tag -> slow path
        closing, name, attr_src, selfclose = m.groups()
        tag = name.lower()
        if tag in _SKIP_TAGS:
            raise _FastPathBail  # script/style bodies need CDATA semantics
        if closing:
            if attr_src.strip() or selfclose:
                raise _FastPathBail
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
        else:
            attrs: dict[str, str] = {}
            if attr_src:
                for am in _FAST_ATTR_RE.finditer(attr_src):
                    v = am.group(2) or ""
                    attrs[am.group(1).lower()] = unescape(v) if "&" in v else v
            node = Node(tag, attrs)
            stack[-1].children.append(node)
            if not selfclose and tag not in _VOID_TAGS:
                stack.append(node)
        pos = m.end()
    return root


def parse_html(html: str | bytes) -> Node:
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8")
    try:
        return _parse_html_fast(html)
    except _FastPathBail:
        pass
    b = _TreeBuilder()
    b.feed(html)
    b.close()
    return b.root


# ---------------------------------------------------------------------------
# text extraction (the byte-identity invariant)
# ---------------------------------------------------------------------------


def extract_text(html: str | bytes) -> str:
    """Deterministic HTML -> text rendering.

    Rules (fixed; the generator stores this exact output in the ``text``
    column and the pipeline recomputes it from ``html``):
      * script/style subtrees are dropped;
      * block-level elements (headings, p, div, li, ul/ol, table, tr, br)
        start a new line; all other tags are inline;
      * whitespace runs inside a line collapse to one space; lines are
        stripped; empty lines are dropped; lines join with '\\n'.
    """
    return extract_text_from_root(parse_html(html))


def extract_text_from_root(root: Node) -> str:
    """Same as :func:`extract_text` over an already-parsed tree — lets the
    extract stage verify byte-identity and structure-parse with ONE DOM."""
    lines: list[str] = []
    buf: list[str] = []

    def flush() -> None:
        line = _WS_RE.sub(" ", "".join(buf)).strip()
        if line:
            lines.append(line)
        buf.clear()

    def walk(n: Node) -> None:
        for c in n.children:
            if isinstance(c, str):
                buf.append(c)
            elif c.tag in _SKIP_TAGS:
                continue
            else:
                block = c.tag in _BLOCK_TAGS
                if block:
                    flush()
                walk(c)
                if block:
                    flush()

    walk(root)
    flush()
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# href / QID mining (reference: extract_href, get_updates.py:883-916)
# ---------------------------------------------------------------------------


def extract_pid(node: Node) -> str | None:
    """Property id from an ``<a>`` href/title/text (get_updates.py:895-907)."""
    for source in (node.attrs.get("href", ""), node.attrs.get("title", ""), node.text()):
        m = _PROP_HREF_RE.search(source) or re.search(r"\b(P\d+)\b", source)
        if m:
            return m.group(1)
    return None


def extract_qid(node: Node) -> str | None:
    """QID from an ``<a href="/wiki/Qnnn">`` (get_updates.py:905-907)."""
    m = _QID_HREF_RE.search(node.attrs.get("href", ""))
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# structured page parse -> raw claim rows + mention rows
# ---------------------------------------------------------------------------


def _claim_value(node: Node) -> tuple[str, str, str]:
    """Extract (vtype, value, lang) from a claim/qualifier/reference element.

    Mirrors the reference's value dispatch: entity links -> QID IRI,
    ``wb-time-rendered`` -> time, ``wb-quantity-rendered`` -> quantity,
    monolingual spans -> lang-tagged text, else plain string
    (get_updates.py:883-916, new_entity_rdf.py:85-108).
    """
    a = node.find("a")
    if a is not None and extract_qid(a):
        return "wikibase-entityid", extract_qid(a), ""
    t = node.find("span", cls="wb-time-rendered")
    if t is not None:
        return "time", t.text(), ""
    q = node.find("span", cls="wb-quantity-rendered")
    if q is not None:
        return "quantity", q.text(), ""
    m = node.find("span", cls="monolingual")
    if m is not None:
        return "monolingualtext", m.text(), m.attrs.get("lang", "")
    v = node.find("span", cls="value")
    if v is not None:
        return "string", v.text(), ""
    return "string", node.text(), ""


def parse_page(html: str | bytes, url: str, root: Node | None = None) -> dict:
    """Full structured parse of one synthetic page.

    Returns ``{"entity", "lang", "claims": [raw-claim dicts], "mentions":
    [mention dicts], "body_text"}`` — the flat rows the extract stage emits
    (schema.RAW_CLAIMS rows, minus url/warc_ts which the caller supplies
    from the batch).  Pass ``root`` to reuse an existing DOM.
    """
    if root is None:
        root = parse_html(html)
    body = root.find("body")
    entity = body.attrs.get("data-entity", "") if body else ""
    page_lang = body.attrs.get("lang", "en") if body else "en"
    claims: list[dict] = []
    mentions: list[dict] = []

    def emit(kind, prop, vtype, value, lang="", rank="", pprop="", pval="", op=""):
        claims.append(
            dict(
                entity=entity,
                kind=kind,
                prop=prop,
                vtype=vtype,
                value=value,
                lang=lang,
                rank=rank,
                parent_prop=pprop,
                parent_value=pval,
                op=op,
            )
        )

    # label (h1), descriptions, aliases
    h1 = root.find("h1")
    if h1 is not None:
        emit("label", "name", "monolingualtext", h1.text(), h1.attrs.get("lang", page_lang))
    for d in root.find_all("p", cls="description"):
        emit("desc", "description", "monolingualtext", d.text(), d.attrs.get("lang", page_lang))
    for ul in root.find_all("ul", cls="aliases"):
        for li in ul.find_all("li"):
            emit("alias", "altLabel", "monolingualtext", li.text(), li.attrs.get("lang", page_lang))

    # claims with qualifiers / references
    for c in root.find_all("div", cls="claim"):
        prop = c.attrs.get("data-prop", "") or (extract_pid(c) or "")
        rank = c.attrs.get("data-rank", "normal")
        # claim value: the first value-bearing child that is NOT inside a
        # qualifier/reference sub-div
        main = Node(c.tag, c.attrs, [
            ch for ch in c.children
            if not (isinstance(ch, Node) and ({"qualifier", "reference"} & set(ch.classes)))
        ])
        # drop the property link itself from value extraction
        main.children = [
            ch for ch in main.children
            if not (isinstance(ch, Node) and ch.tag == "a" and extract_pid(ch) and not extract_qid(ch))
        ]
        vtype, value, vlang = _claim_value(main)
        emit("claim", prop, vtype, value, vlang, rank)
        for qual in c.find_all("div", cls="qualifier"):
            qprop = qual.attrs.get("data-prop", "") or (extract_pid(qual) or "")
            qt, qv, ql = _claim_value(qual)
            emit("qualifier", qprop, qt, qv, ql, "", prop, value)
        for ref in c.find_all("div", cls="reference"):
            rprop = ref.attrs.get("data-prop", "") or (extract_pid(ref) or "")
            rt, rv, rl = _claim_value(ref)
            emit("reference", rprop, rt, rv, rl, "", prop, value)

    # diff table (the convert_to_rdf analog: predicate cursor over tr rows)
    for table in root.find_all("table", cls="diff"):
        current_pred = ""
        for tr in table.find_all("tr"):
            lineno = tr.find("td", cls="diff-lineno")
            if lineno is not None:
                pid = extract_pid(lineno)
                current_pred = pid if pid else lineno.text()
                continue
            for cls_name, op in (("diff-deletedline", "delete"), ("diff-addedline", "insert")):
                td = tr.find("td", cls=cls_name)
                if td is None:
                    continue
                span = td.find("del") or td.find("ins") or td
                vtype, value, vlang = _claim_value(span)
                emit("diff", current_pred, vtype, value, vlang, "normal", op=op)

    # free-text mentions (link mentions carry an exact qid hint; plain
    # alias surfaces are resolved later by the link stage)
    body_texts: list[str] = []
    for p in root.find_all("p", cls="body-text"):
        body_text = p.text()
        body_texts.append(body_text)
        for a in p.find_all("a"):
            qid = extract_qid(a)
            if qid:
                surface = a.text()
                start = body_text.find(surface)
                mentions.append(
                    dict(
                        entity=entity,
                        mention=surface,
                        span_start=start,
                        span_end=start + len(surface) if start >= 0 else -1,
                        context=body_text,
                        qid_hint=qid,
                    )
                )

    return {
        "entity": entity,
        "lang": page_lang,
        "claims": claims,
        "mentions": mentions,
        "body_text": "\n".join(body_texts),
    }

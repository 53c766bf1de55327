"""HTML -> text extraction and structured page parsing (SURVEY.md M3-M10, M19).

The reference's flagship extractor walks MediaWiki compare-API HTML with
BeautifulSoup (``convert_to_rdf``, get_updates.py:191-358): ``diff-lineno``
cells move a predicate cursor, ``diff-deletedline``/``diff-addedline`` cells
yield delete/insert values, nested ``<a>/<b>/<span>`` tags become
(predicate, object) pairs, and hrefs are mined for P-ids / QIDs
(``extract_href``, get_updates.py:883-916).

This module restates that machinery in two forms with one meaning.  The
row-wise form (``parse_html``: stdlib ``html.parser`` builds a small DOM;
then ``parse_page`` and ``extract_text`` over it) works on one document.
It is the reference: the single-threaded oracle and the fixtures' ``text``
column use it.  The columnar form (``parse_pages``) parses a whole block
of pages at once as column operations over its own token grammar, and the
extract stage calls it once per slice of pages; a page that grammar
cannot prove bails to the row-wise form.  The two forms share no
tokenizer.  ``tests/test_row_boundary.py`` and a hypothesis test pin them
to equal output, so the "byte-identical extracted text per url" invariant
(BASELINE.json input_hint) holds on either path.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import RAW_CLAIMS, str_list

# single-threaded polars inside Ray workers (see stages/shuffle.py); the
# env var binds only before the process's first polars import
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import polars as pl  # noqa: E402

# Elements that contribute a line break in the text rendering.
_BLOCK_TAGS = frozenset(
    "h1 h2 h3 h4 h5 h6 p div li ul ol table tr br title body html head".split()
)
_SKIP_TAGS = frozenset(("script", "style"))
_VOID_TAGS = frozenset(("br", "img", "hr", "meta", "link", "input"))

_WS_RE = re.compile(r"\s+")
_PROP_HREF_RE = re.compile(r"/wiki/Property:(P\d+)")
_QID_HREF_RE = re.compile(r"/wiki/(Q\d+)")
_PID_RE = re.compile(r"\b(P\d+)\b")


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


def parse_html(html: str | bytes) -> Node:
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8")
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


def _pid_in(source: str) -> str | None:
    m = _PROP_HREF_RE.search(source) or _PID_RE.search(source)
    return m.group(1) if m else None


def extract_pid(node: Node) -> str | None:
    """Property id from an ``<a>`` href/title/text (get_updates.py:895-907)."""
    return (_pid_in(node.attrs.get("href", "")) or _pid_in(node.attrs.get("title", ""))
            or _pid_in(node.text()))


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


def parse_page(html: str | bytes, root: Node | None = None) -> dict:
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
    # alias surfaces are resolved later by the link stage).  A span indexes
    # the "\n"-joined body text, the text the linker reads.
    body_texts: list[str] = []
    offset = 0
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
                        span_start=offset + start if start >= 0 else -1,
                        span_end=(offset + start + len(surface)
                                  if start >= 0 else -1),
                        context=body_text,
                        qid_hint=qid,
                    )
                )
        offset += len(body_text) + 1

    return {
        "entity": entity,
        "lang": page_lang,
        "claims": claims,
        "mentions": mentions,
        "body_text": "\n".join(body_texts),
    }


# ---------------------------------------------------------------------------
# columnar page parse: every page of a block at once
# ---------------------------------------------------------------------------

# Python's \s, written for polars' Rust regex, whose \s lacks \x1c-\x1f
_WS = r"[\s\x1c-\x1f]"
_ATTR_ONE = rf'[a-zA-Z_:][\-a-zA-Z0-9_:.]*(?:{_WS}*={_WS}*"[^"<>]*")?'
_ATTR = rf"{_WS}+{_ATTR_ONE}"
# a tag over double-quoted attributes, a text run, or a '<' that starts
# no tag.  A tag name ends where html.parser's does: at ASCII whitespace,
# '/' or '>' (Python's \s also ends it at \x0b, \x1c-\x1f, \xa0, ...);
# html.parser's attribute scanner takes Python's \s between attributes.
_TOKEN = (rf"</?[a-zA-Z][a-zA-Z0-9]*(?:[ \t\n\r\f]{_WS}*(?:{_ATTR_ONE}(?:{_ATTR})*{_WS}*)?)?/?>"
          r"|[^<]+|<")
_TAG_NAME = r"^</?([a-zA-Z][a-zA-Z0-9]*)"
_PLAIN_CLOSE = rf"^</[a-zA-Z][a-zA-Z0-9]*{_WS}*>$"
# the attributes parse_page reads
_ATTRS = ("class", "data-entity", "lang", "data-prop", "data-rank", "href", "title")


def _attr_re(name: str) -> str:
    """An open tag's LAST ``name`` attribute (names match case-blind):
    group ``v`` its value, group ``end`` set when it is present."""
    ci = "".join(f"[{c}{c.upper()}]" if c.isalpha() else re.escape(c) for c in name)
    return (rf'^<[a-zA-Z][a-zA-Z0-9]*(?:{_ATTR})*{_WS}+{ci}'
            rf'(?:{_WS}*={_WS}*"(?P<v>[^"<>]*)")?(?P<end>{_WS}|/|>)')


# tag ids: parse_page's tags first; any other tag is len(_TAGS)
_TAGS = ("a body del div h1 ins li p span table td tr ul h2 h3 h4 h5 h6 ol "
         "br title html head img hr meta link input script style").split()
_TAG_ID = {t: i for i, t in enumerate(_TAGS)}
_IS_BLOCK, _IS_VOID, _IS_SKIP = (np.array([t in s for t in _TAGS] + [False])
                                 for s in (_BLOCK_TAGS, _VOID_TAGS, _SKIP_TAGS))
# class bits: the classes parse_page selects on
_CLASSES = ("description aliases claim qualifier reference diff diff-lineno "
            "diff-deletedline diff-addedline wb-time-rendered "
            "wb-quantity-rendered monolingual value body-text").split()
_BIT = {c: 1 << i for i, c in enumerate(_CLASSES)}
_VTYPES = np.array(["wikibase-entityid", "time", "quantity", "monolingualtext",
                    "string", "string"], object)
# parse_page's claim dict keys: the RAW_CLAIMS columns after url, warc_ts
_COLUMNS = RAW_CLAIMS.names[2:]


def _put(col: pa.Array, at: np.ndarray, values: list) -> pa.Array:
    """``col`` with ``values`` at the indices ``at``."""
    if not len(at):
        return col
    mask = np.zeros(len(col), bool)
    mask[at] = True
    return pc.replace_with_mask(col, mask, pa.array(values, col.type))


def _unescape_where(col: pa.Array) -> pa.Array:
    """``col`` with every value holding ``&`` through ``html.unescape``."""
    amp = np.flatnonzero(pc.fill_null(pc.match_substring(col, "&"), False))
    return _put(col, amp, [unescape(s) for s in str_list(col.take(amp))])


def _squeeze(col: pa.Array) -> pa.Array:
    """``_WS_RE.sub(" ", s).strip()`` of every value, once every
    whitespace run of the text tokens it joins is one space."""
    return pc.utf8_trim(pc.replace_substring_regex(col, "  +", " "), " ")


def _join(values: pa.Array, counts: np.ndarray, sep: str) -> pa.Array:
    """One string per group: its ``counts[i]`` consecutive ``values``
    joined by ``sep``."""
    offsets = pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int64())
    return pc.binary_join(pa.LargeListArray.from_arrays(offsets, values),
                          pa.scalar(sep, pa.large_string()))


def _within(at: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Every pair of a range ``(lo[i], hi[i])`` (both open) and an index
    ``j`` of the sorted ``at`` inside it, by range and then ``j``: the
    arrays ``(i, j)``."""
    a = np.searchsorted(at, lo, "right")
    counts = np.maximum(np.searchsorted(at, hi, "left") - a, 0)
    outer = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    return outer, np.arange(len(outer)) - starts[outer] + a[outer]


def _take(col: pa.Array, idx: np.ndarray) -> pa.Array:
    """``col.take(idx)``, null where ``idx`` is -1."""
    return col.take(pa.array(idx, pa.int64(), mask=idx < 0))


class _Block:
    """The element tree of a block of pages, as arrays.

    Elements are the open tags, in document order, numbered 0..m-1;
    ``pos`` is each one's token index and its content is the tokens
    strictly between ``pos`` and ``hi`` (the close tag, the page's end
    when left open, ``pos`` itself for void and self-closed tags).  A
    node of parse_page's DOM is a token range, ``find`` the first
    selected element inside it (``np.searchsorted``), ``find_all`` every
    one, and ``text()`` the whitespace-collapsed run of the text tokens
    inside it."""

    def __init__(self, toks: pa.Array, starts: np.ndarray, ends: np.ndarray) -> None:
        n = self.n = len(toks)
        tok_page = self.tok_page = np.repeat(np.arange(len(starts)), ends - starts)
        _, offs, data = toks.buffers()
        offs = np.frombuffer(offs, np.int64)[toks.offset:toks.offset + n + 1]
        lead = np.frombuffer(data, np.uint8)[offs[:-1]]
        is_tag = (lead == ord("<")) & (np.diff(offs) > 1)
        # a page repeats its tags: each tag regex runs once per distinct tag
        tags = np.flatnonzero(is_tag)
        enc = toks.take(tags).dictionary_encode()
        distinct = pl.from_arrow(enc.dictionary)
        code = np.full(n, -1)
        code[tags] = enc.indices.to_numpy()
        name = distinct.str.extract(_TAG_NAME, 1).str.to_lowercase()
        name_id = np.append(name.to_arrow().dictionary_encode().indices.to_numpy(), -1)
        tag = np.append(name.replace_strict(_TAGS, range(len(_TAGS)), default=len(_TAGS),
                                            return_dtype=pl.Int8).to_numpy(), len(_TAGS))[code]
        closing = np.append(distinct.str.starts_with("</").to_numpy(), False)
        odd = _IS_SKIP[tag[tags]] | (closing[code[tags]] & ~np.append(
            distinct.str.contains(_PLAIN_CLOSE).to_numpy(), False)[code[tags]])
        selfclose = np.append(distinct.str.ends_with("/>").to_numpy(), False)[code]
        closing = closing[code]
        # bails: a stray '<', script/style, a close tag with attributes,
        # '&' in the text after a page's last tag, and (below) a close tag
        # that does not match the innermost open element
        bad = (lead == ord("<")) & ~is_tag
        bad[tags] |= odd
        last = ends[ends > starts] - 1
        last = last[~is_tag[last]]
        bad[last] |= np.asarray(pc.match_substring(toks.take(last), "&"))

        opening = is_tag & ~closing
        push = opening & ~selfclose & ~_IS_VOID[tag]
        step = push.astype(np.int64) - closing
        depth = np.cumsum(step) - step
        depth -= depth[np.minimum(starts, n - 1)][tok_page]
        # a close tag sits one level above its element; at each level of
        # a page, pushes and closes alternate, so the entry before a close
        # in (level, position) order is the element it closes
        level = depth - closing
        bad |= closing & (level < 0)
        ev = np.flatnonzero(push | closing)
        ev = ev[np.argsort(level[ev] * (n + 1) + ev)]
        at = np.flatnonzero(closing[ev])
        shut, opener = ev[at], ev[np.maximum(at - 1, 0)]
        ok = ((at > 0) & push[opener] & (level[opener] == level[shut])
              & (tok_page[opener] == tok_page[shut])
              & (name_id[code[opener]] == name_id[code[shut]]))
        bad[shut[~ok]] = True
        hi = np.arange(n)
        hi[push] = ends[tok_page[push]]
        hi[opener[ok]] = shut[ok]
        self.bad, self.depth, self.push = bad, depth, push

        self.pos = np.flatnonzero(opening)
        self.hi, self.tag, self.code = hi[self.pos], tag[self.pos], code[self.pos]
        self.page = tok_page[self.pos]
        self.attr = {}
        for attr in _ATTRS:
            g = distinct.str.extract_groups(_attr_re(attr)).struct.unnest()
            v = pl.when(g["end"].is_not_null()).then(g["v"].fill_null(""))
            self.attr[attr] = _unescape_where(
                g.select(v).to_series().to_arrow().cast(pa.large_string()))
        words = (pl.from_arrow(self.attr["class"]).fill_null("")
                 .str.extract_all(f"[^{_WS[1:-1]}]+").to_arrow())
        cls = np.zeros(len(distinct), np.int32)
        np.bitwise_or.at(
            cls, np.repeat(np.arange(len(distinct)), words.value_lengths().to_numpy()),
            pl.from_arrow(words.flatten()).replace_strict(
                _CLASSES, list(_BIT.values()), default=0, return_dtype=pl.Int32).to_numpy())
        self.cls = cls[self.code]
        href = self.attr["href"]
        qid = pl.from_arrow(href).str.extract(r"/wiki/(Q[0-9]+)", 1).to_arrow()
        # Python's \d is Unicode: a non-ASCII href takes Python's regex
        odd = np.flatnonzero(~np.asarray(pc.fill_null(pc.string_is_ascii(href), True)))
        self.attr["qid"] = _put(qid.cast(pa.large_string()), odd, [
            m.group(1) if (m := _QID_HREF_RE.search(h)) else None
            for h in str_list(href.take(odd))])

        self.tpos = np.flatnonzero(~is_tag)
        # each whitespace run one space, so a joined run needs only _squeeze
        self.ttext = (pl.from_arrow(_unescape_where(toks.take(self.tpos)))
                      .str.replace_all(f"{_WS}+", " ").to_arrow().cast(pa.large_string()))
        self._sel: dict = {}

    def get(self, attr: str, els: np.ndarray) -> pa.Array:
        """Attribute ``attr`` (or ``"qid"``, the href's QID) of each
        element, null where absent or the element is -1."""
        return _take(self.attr[attr], np.where(els >= 0, self.code[els], -1))

    def sel(self, tag: str | None = None, cls: str | None = None) -> np.ndarray:
        if (tag, cls) not in self._sel:
            keep = np.ones(len(self.pos), bool)
            if tag is not None:
                keep &= self.tag == _TAG_ID[tag]
            if cls is not None:
                keep &= (self.cls & _BIT[cls]) != 0
            self._sel[tag, cls] = np.flatnonzero(keep)
        return self._sel[tag, cls]

    def first(self, els: np.ndarray, lo, hi, skip=None) -> np.ndarray:
        """The first of ``els`` inside each range ``(lo, hi)``, or -1;
        ``skip`` passes over the elements it holds (``_Skip``)."""
        at = self.pos[els]
        k = np.searchsorted(at, lo, "right")
        out = np.full(len(k), -1)
        if not len(at):
            return out
        todo = np.arange(len(k))
        while len(todo):
            kk = np.minimum(k[todo], len(at) - 1)
            hit = (k[todo] < len(at)) & (at[kk] < hi[todo])
            todo, kk = todo[hit], kk[hit]
            past = np.full(len(todo), -1) if skip is None else skip.over(todo, at[kk])
            out[todo[past < 0]] = els[kk[past < 0]]
            todo, past = todo[past >= 0], past[past >= 0]
            k[todo] = np.searchsorted(at, past, "right")
        return out

    def parent(self, els: np.ndarray) -> np.ndarray:
        """The token position of each element's parent, -1 at the top: the
        last push one level up before it."""
        d, at = self.depth[self.pos[els]], self.pos[els]
        pushes = np.flatnonzero(self.push)
        if not len(pushes):
            return np.full(len(els), -1)
        key = self.depth[pushes] * (self.n + 1) + pushes
        order = np.argsort(key)
        j = np.searchsorted(key[order], (d - 1) * (self.n + 1) + at) - 1
        return np.where(d > 0, pushes[order][np.maximum(j, 0)], -1)

    def within(self, els: np.ndarray, outer: np.ndarray):
        """Every (outer element, one of ``els`` inside it) pair, by outer
        element and then position."""
        i, j = _within(self.pos[els], self.pos[outer], self.hi[outer])
        return i, els[j]

    def text_in(self, lo, hi, skip=None) -> pa.Array:
        """``Node.text()`` of each range ``(lo, hi)``."""
        i, j = _within(self.tpos, lo, hi)
        if skip is not None:
            keep = skip.over(i, self.tpos[j]) < 0
            i, j = i[keep], j[keep]
        return _squeeze(_join(self.ttext.take(j), np.bincount(i, minlength=len(lo)), ""))

    def text(self, els: np.ndarray) -> pa.Array:
        return self.text_in(self.pos[els], self.hi[els])

    def pids(self, els: np.ndarray) -> list:
        """``extract_pid`` of each element."""
        return [_pid_in(h) or _pid_in(t) or _pid_in(x) or ""
                for h, t, x in zip(*(str_list(pc.fill_null(self.get(a, els), ""))
                                     for a in ("href", "title")),
                                   str_list(self.text(els)))]

    def props(self, els: np.ndarray) -> pa.Array:
        """``attrs.get("data-prop", "") or extract_pid(...) or ""``."""
        prop = pc.fill_null(self.get("data-prop", els), "")
        empty = np.flatnonzero(np.asarray(pc.equal(prop, "")))
        return _put(prop, empty, self.pids(els[empty]))

    def values(self, lo, hi, skip=None):
        """``_claim_value`` of each range: (vtype, value, lang) columns."""
        a = self.first(self.sel("a"), lo, hi, skip)
        qid = self.get("qid", a)
        picks = [self.first(self.sel("span", c), lo, hi, skip)
                 for c in ("wb-time-rendered", "wb-quantity-rendered", "monolingual", "value")]
        choice = np.select([np.asarray(qid.is_valid())] + [p >= 0 for p in picks],
                           range(5), 5)
        src = np.select([choice == c for c in range(1, 5)], picks, -1)
        texts, fall = np.flatnonzero(src >= 0), np.flatnonzero(choice == 5)
        parts = pa.concat_arrays([
            qid.filter(pa.array(choice == 0)), self.text(src[texts]),
            self.text_in(lo[fall], hi[fall], skip and skip.only(fall))])
        order = np.concatenate([np.flatnonzero(choice == 0), texts, fall])
        where = np.empty(len(order), np.int64)
        where[order] = np.arange(len(order))
        lang = pc.fill_null(self.get("lang", np.where(choice == 3, picks[2], -1)), "")
        return pa.array(_VTYPES[choice], pa.large_string()), parts.take(where), lang


class _Skip:
    """Element ranges, per query row, that a ``find`` passes over: the
    qualifier, reference and property-link children parse_page drops
    from a claim's value node.  ``row``/``lo``/``hi`` sorted by row and
    then ``lo``; an element ``x`` covers positions ``lo..hi``."""

    def __init__(self, row, lo, hi, n):
        self.n = n + 1
        key = row * self.n + lo
        order = np.argsort(key)
        self.row, self.lo, self.hi, self.key = row[order], lo[order], hi[order], key[order]

    def over(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """For each query row and position, the ``hi`` of the skipped
        range holding it, or -1."""
        if not len(self.key):
            return np.full(len(rows), -1)
        j = np.searchsorted(self.key, rows * self.n + at, "right") - 1
        jj = np.maximum(j, 0)
        inside = (j >= 0) & (self.row[jj] == rows) & (at <= self.hi[jj])
        return np.where(inside, self.hi[jj], -1)

    def only(self, rows: np.ndarray) -> "_Skip":
        """The ranges of ``rows``, renumbered 0..len(rows)-1."""
        new = np.full(max(self.row.max(initial=-1), rows.max(initial=-1)) + 1, -1)
        new[rows] = np.arange(len(rows))
        keep = new[self.row] >= 0
        return _Skip(new[self.row[keep]], self.lo[keep], self.hi[keep], self.n - 1)


class _Rows:
    """parse_page's claim rows, added section by section and put in page
    order by their keys (page, then ``key``)."""

    def __init__(self) -> None:
        self.keys: list[np.ndarray] = []
        self.cols: list[dict] = []

    def add(self, page: np.ndarray, key: tuple, **cols) -> None:
        self.keys.append(np.stack([np.broadcast_to(k, len(page)) for k in (page, *key)]))
        self.cols.append(cols)

    def table(self, entity: pa.Array, bailed: np.ndarray) -> tuple[pa.Table, np.ndarray]:
        keys = np.concatenate(self.keys, axis=1)
        order = np.lexsort(keys[::-1])
        order = order[~bailed[keys[0][order]]]
        page = keys[0][order]
        cols = {"entity": entity.take(page)}
        for name in _COLUMNS[1:]:
            cols[name] = pa.concat_arrays([
                sec[name] if isinstance(sec.get(name), pa.Array)
                else pa.repeat(pa.scalar(sec.get(name, ""), pa.large_string()), len(k[0]))
                for k, sec in zip(self.keys, self.cols)]).take(order)
        return pa.table(cols), page


def parse_pages(html) -> tuple[pa.Table, np.ndarray, pa.Array, np.ndarray]:
    """``parse_page`` and ``extract_text`` over every page of a block at
    once, as column operations.

    One polars ``str.extract_all`` pass splits every page into tag and
    text tokens (``_TOKEN``: a tag over double-quoted attributes, a text
    run, or a stray ``<``); vectorized regexes read each open tag's name and
    the attributes parse_page uses; a depth scan gives each element's
    extent (``_Block``).  Python sees only text runs and attribute values
    holding ``&`` (``html.unescape``), each mention's span offset, a
    property id parse_page reads from text (``extract_pid``), and a
    non-ASCII href's QID.

    A page the token grammar cannot prove bails to ``html.parser``: one
    holding a comment, declaration, processing instruction, script or
    style, a stray ``<`` (a ``<`` that starts no ``_TOKEN`` tag: also a
    tag name ended by a character html.parser does not end it at, or a
    single-quoted or unquoted attribute), ``&`` in the text after the last
    tag, a close tag with attributes or one that does not match its
    innermost open element, and a null page.  Its rows are not computed.

    Returns ``(rows, page, text, bailed)``: ``rows`` the RAW_CLAIMS
    columns after ``url`` and ``warc_ts`` of every other page's rows (parse_page's claims, then one
    ``mention`` row per href mention, then a ``mention_text`` row when
    the joined body text is not empty; see ``stages/extract``), in page
    order; ``page`` each row's page; ``text`` each page's
    ``extract_text``, null where bailed; ``bailed`` a mask over pages.
    """
    n_pages = len(html)
    src = pl.from_arrow(pc.cast(html, pa.large_string()))
    bailed = src.is_null().to_numpy().copy()
    listed = src.fill_null("").str.extract_all(_TOKEN).to_arrow()
    bounds = listed.offsets.to_numpy()
    bounds = bounds - bounds[0]
    toks = listed.flatten().cast(pa.large_string())
    n = len(toks)
    starts, ends = bounds[:-1], bounds[1:]
    if n == 0:
        empty = pa.table({c: pa.array([], pa.large_string()) for c in _COLUMNS})
        text = pa.array([None if b else "" for b in bailed], pa.large_string())
        return empty, np.zeros(0, np.int64), text, bailed
    b = _Block(toks, starts, ends)
    bailed[b.tok_page[b.bad]] = True

    body = b.first(b.sel("body"), starts - 1, ends)
    entity = pc.fill_null(b.get("data-entity", body), "")
    page_lang = pc.fill_null(b.get("lang", body), "en")

    def lang_of(els):
        return pc.coalesce(b.get("lang", els), page_lang.take(b.page[els]))

    rows = _Rows()
    # label, descriptions, aliases
    h1 = b.first(b.sel("h1"), starts - 1, ends)
    pages = np.flatnonzero(h1 >= 0)
    h1 = h1[pages]
    rows.add(pages, (0, 0, 0, 0), kind="label", prop="name", vtype="monolingualtext",
             value=b.text(h1), lang=lang_of(h1))
    d = b.sel("p", "description")
    rows.add(b.page[d], (1, b.pos[d], 0, 0), kind="desc", prop="description",
             vtype="monolingualtext", value=b.text(d), lang=lang_of(d))
    ul = b.sel("ul", "aliases")
    i, li = b.within(b.sel("li"), ul)
    rows.add(b.page[li], (2, b.pos[ul][i], b.pos[li], 0), kind="alias", prop="altLabel",
             vtype="monolingualtext", value=b.text(li), lang=lang_of(li))

    # claims, each followed by its qualifiers and then its references
    c = b.sel("div", "claim")
    cprop = b.props(c)
    vtype, value, lang = b.values(b.pos[c], b.hi[c], _claim_skip(b, c))
    rows.add(b.page[c], (3, b.pos[c], 0, 0), kind="claim", prop=cprop, vtype=vtype,
             value=value, lang=lang,
             rank=pc.fill_null(b.get("data-rank", c), "normal"))
    for code, kind in ((1, "qualifier"), (2, "reference")):
        i, q = b.within(b.sel("div", kind), c)
        qt, qv, ql = b.values(b.pos[q], b.hi[q])
        rows.add(b.page[q], (3, b.pos[c][i], code, b.pos[q]), kind=kind, prop=b.props(q),
                 vtype=qt, value=qv, lang=ql, parent_prop=cprop.take(i),
                 parent_value=value.take(i))

    # diff tables: a diff-lineno row moves the table's predicate cursor
    t = b.sel("table", "diff")
    i, tr = b.within(b.sel("tr"), t)
    line = b.first(b.sel("td", "diff-lineno"), b.pos[tr], b.hi[tr])
    cursor = line >= 0
    pred = pa.array([p or x for p, x in zip(b.pids(line[cursor]),
                                            str_list(b.text(line[cursor])))], pa.large_string())
    mark = np.maximum.accumulate(np.where(cursor, np.arange(len(tr)), -1)) if len(tr) else line
    held = mark >= np.searchsorted(i, i)  # a cursor row earlier in this table
    cur = pc.fill_null(_take(pred, np.where(held, np.cumsum(cursor)[mark] - 1, -1)), "")
    for code, cls, op in ((0, "diff-deletedline", "delete"), (1, "diff-addedline", "insert")):
        td = b.first(b.sel("td", cls), b.pos[tr], b.hi[tr])
        r = np.flatnonzero(~cursor & (td >= 0))
        td = td[r]
        span = b.first(b.sel("del"), b.pos[td], b.hi[td])
        ins = b.first(b.sel("ins"), b.pos[td], b.hi[td])
        span = np.where(span >= 0, span, np.where(ins >= 0, ins, td))
        vt, v, vl = b.values(b.pos[span], b.hi[span])
        rows.add(b.page[td], (4, b.pos[t][i[r]], b.pos[tr[r]], code), kind="diff",
                 prop=cur.take(r), vtype=vt, value=v, lang=vl, rank="normal", op=op)

    # body text: href mentions, then the page's joined text and spans
    p = b.sel("p", "body-text")
    ptext = b.text(p)
    per_page = np.bincount(b.page[p], minlength=n_pages)
    joined = _join(ptext, per_page, "\n")
    step = np.asarray(pc.utf8_length(ptext)) + 1
    before = np.cumsum(step) - step
    offset = before - before[(np.cumsum(per_page) - per_page)[b.page[p]]]
    i, a = b.within(b.sel("a"), p)
    hit = np.asarray(b.get("qid", a).is_valid())
    i, a = i[hit], a[hit]
    texts = str_list(ptext)
    spans = []
    for k, surface, off in zip(i.tolist(), str_list(b.text(a)), offset[i].tolist()):
        s = texts[k].find(surface)
        spans.append(f"{off + s}:{off + s + len(surface)}" if s >= 0 else None)
    rows.add(b.page[a], (5, b.pos[p][i], b.pos[a], 0), kind="mention", value=b.get("qid", a))
    spans = pa.array(spans, pa.large_string())
    found = np.asarray(spans.is_valid())
    spans = _join(spans.filter(pa.array(found)),
                  np.bincount(b.page[a][found], minlength=n_pages), ";")
    pages = np.flatnonzero(np.asarray(pc.not_equal(joined, "")))
    rows.add(pages, (6, 0, 0, 0), kind="mention_text", value=joined.take(pages),
             parent_value=spans.take(pages))
    table, page = rows.table(entity, bailed)

    # extract_text: a block element's start and end break the line
    blk = np.flatnonzero(_IS_BLOCK[b.tag])
    breaks = np.sort(np.concatenate([b.pos[blk], b.hi[blk], starts]))
    at = np.searchsorted(breaks, b.tpos, "right")
    head = np.flatnonzero(np.diff(at, prepend=-1) != 0)
    lines = _squeeze(_join(b.ttext, np.diff(np.append(head, len(at))), ""))
    kept = np.asarray(pc.not_equal(lines, ""))
    text = _join(lines.filter(pa.array(kept)),
                 np.bincount(b.tok_page[b.tpos[head[kept]]], minlength=n_pages), "\n")
    text = pc.if_else(pa.array(bailed), pa.scalar(None, pa.large_string()), text)
    return table, page, text, bailed


def _claim_skip(b: _Block, claims: np.ndarray) -> _Skip:
    """The children parse_page drops from each claim's value node: any
    with class qualifier or reference, and an ``<a>`` with a property id
    and no QID."""
    qual = (b.cls & (_BIT["qualifier"] | _BIT["reference"])) != 0
    link = (b.tag == _TAG_ID["a"]) & ~np.asarray(b.get("qid", np.arange(len(b.pos))).is_valid())
    x = np.flatnonzero(qual | link)
    at, parent = b.pos[claims], b.parent(x)
    row = np.searchsorted(at, parent)
    child = row < len(at)
    child[child] = at[row[child]] == parent[child]
    x, row = x[child], row[child]
    links = np.flatnonzero(~qual[x])
    if len(links):
        href = pc.fill_null(b.get("href", x[links]), "")
        prop = pl.from_arrow(href).str.contains(r"/wiki/Property:P[0-9]").to_numpy()
        rest = links[~prop]
        prop[~prop] = np.array([bool(s) for s in b.pids(x[rest])], bool)
        drop = np.ones(len(x), bool)
        drop[links[~prop]] = False
        x, row = x[drop], row[drop]
    return _Skip(row, b.pos[x], b.hi[x], b.n)

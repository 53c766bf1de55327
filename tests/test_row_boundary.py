"""The per-row Python boundary: ``schema.fan_out``, and the columnar
TTL parse, page parse and assemble that left it.

Link runs its per-row kernel through ``fan_out``: string columns are
read through ``schema.str_list``, and lineage columns
(``url``/``warc_ts``) go out by row index (``schema.source_rows``);
``Node.find`` stops at its first hit.  The TTL parse, the page parse
(``htmltext.parse_pages``, extract's path for every page its token
grammar proves) and assemble run once per batch and send lineage out by
one ``take``.  Each test here pins one of those against its plain
row-wise statement: ``to_pylist()`` rows in, one dict per output row
out; assemble's is the row-wise kernel ``raw_claim_to_triples``.
"""

from __future__ import annotations

import datetime as dt
import re

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from kgray.fixtures import aliases_table, gen_pages_table
from kgray.kernels.assemble import raw_claim_to_triples
from kgray.kernels.htmltext import (
    _WS, extract_text, parse_html, parse_page, parse_pages,
)
from kgray.kernels.link import detect_and_link
from kgray.kernels.ttl import serialize_ttl
from kgray.schema import (
    OPS, PAGES, RAW_CLAIMS, source_rows, str_list,
)
from kgray.stages.assemble import assemble_batch
from kgray.stages.extract import extract_batch
from kgray.stages.link import LinkerActor
from kgray.stages.ttl import parse_ttl_batch
from ttl_rowwise import parse_ttl_batch as _parse_ttl_rowwise


class TestStrList:
    @pytest.mark.parametrize("col", [
        pa.array(["a", None, "", "é"], pa.string()),
        pa.array(["a", None, "b" * 300], pa.large_string()),
        pa.array([b"\x00x", None, b""], pa.binary()),
        pa.chunked_array([["a", "b"], [], [None, "c"]], pa.string()),
        pa.chunked_array([], pa.large_string()),
        pa.array([], pa.binary()),
        pa.array([None, None], pa.string()),
    ], ids=["string", "large_string", "binary", "multi_chunk",
            "empty_chunked", "empty", "all_null"])
    def test_equals_to_pylist(self, col):
        assert str_list(col) == col.to_pylist()

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            str_list(pa.array([1, None], pa.int64()))


@pytest.mark.parametrize("fanout,rows", [
    ([2, 0, 1, 3], [0, 0, 2, 3, 3, 3]), ([0, 0], []), ([], []),
])
def test_source_rows(fanout, rows):
    got = source_rows(fanout)
    assert got.type == pa.int64() and got.to_pylist() == rows


# a comment is outside the columnar parse's token grammar: the page bails
# to the row-wise path
_SLOW_PAGE = (
    '<html><body data-entity="Q7"><!-- x --><h1>Seven</h1>'
    '<div class="claim a" data-prop="P31"><span class="value">v</span>'
    '<div class="qualifier b"><a href="/wiki/Q5">human</a></div></div>'
    '<p class="body-text">see <a href="/wiki/Q5">human</a></p></body></html>'
)


def _find_cases():
    pages = gen_pages_table(20, seed=5, richness=8)
    roots = [parse_html(h) for h in pages["html"].to_pylist()]
    assert parse_pages(pa.array([_SLOW_PAGE]))[3].tolist() == [True]
    return roots + [parse_html(_SLOW_PAGE)]


def test_find_is_first_find_all_hit():
    """``Node.find(tag, cls)`` is ``find_all``'s first hit, from the root
    and from every inner node, for every (tag, class) pair of the DOM,
    ``cls=None`` and a pair that matches nothing."""
    for root in _find_cases():
        nodes = root.find_all()
        pairs = {(None, None), ("p", "no-such-class")}
        for n in nodes:
            pairs.add((n.tag, None))
            pairs.update((n.tag, c) for c in n.classes)
            pairs.update((None, c) for c in n.classes)
        for start in [root, *nodes]:
            for tag, cls in pairs:
                assert start.find(tag, cls) is (start.find_all(tag, cls) or [None])[0]


# pages outside the fixture generator's grammar, each with whether the
# columnar parse bails on it (the row-wise path parses it instead)
CRAFTED = [
    # charrefs in text and attribute values; a close tag with a space
    ('<html><body data-entity="Q90" lang="fr"><h1 lang="fr">Paris &amp; co</h1 >'
     '<p class="description">&quot;Ville&quot; &#233;t&#xe9; &lt;x&gt;</p>'
     '<p class="body-text">Tom &amp; <a href="/wiki/Q64" title="&quot;t&quot;">'
     'Berlin &amp; co</a> here</p><div class="claim" data-prop="P&#49;">'
     '<span class="monolingual" lang="e&#110;">A&nbsp;B</span></div></body></html>', False),
    # uppercase tag and attribute names
    ('<HTML><BODY DATA-ENTITY="Q5" LANG="de"><H1>Human</H1><DIV CLASS="claims">'
     '<Div Class="claim" Data-Prop="P31" DATA-RANK="preferred">'
     '<A HREF="/wiki/Property:P31">P31</A>: <a Href="/wiki/Q16521">taxon</a>'
     '</Div></DIV></BODY></HTML>', False),
    # self-closing and void tags, attributes without a value
    ('<html><body data-entity="Q2"><h1 hidden>Earth<br>planet</h1>'
     '<p class="description"/><div class="claim" data-prop="P1"><img src="x.png">'
     '<span class="value">v<hr/>w</span><br/></div>'
     '<ul class="aliases"><li>Terra<br></li><li lang>World</li></ul></body></html>', False),
    # what parse_page drops from a claim's value node, a claim without
    # data-prop, a string fallback, a diff cursor read from text
    ('<html><body data-entity="Q3"><div class="claim" data-prop="P5">'
     '<a href="/wiki/Property:P5">P5</a>: <div class="qualifier" data-prop="P580">'
     '<span class="wb-time-rendered">2001</span></div><span class="value">main</span>'
     '<div class="reference" title="P248"><a href="/wiki/Q1">src</a></div></div>'
     '<div class="claim"><a href="/wiki/Property:P8">P8</a> <a href="/wiki/Q9">nine</a></div>'
     '<div class="claim" data-prop="P6">plain <b>text</b>'
     '<div class="qualifier" data-prop="P7">q</div> tail</div>'
     '<div class="claim" data-prop="P10"><span><a href="/wiki/Property:P10">P10</a></span>'
     ' <span class="value">x</span></div>'
     '<table class="diff"><tr><td class="diff-lineno">Line</td></tr>'
     '<tr><td class="diff-addedline">plain</td><td class="diff-deletedline">'
     '<ins>old</ins></td></tr></table>'
     '<p class="body-text">x<a href="/wiki/Q1"> </a>y</p><p class="body-text"></p>'
     '</body></html>', False),
    # elements left open at the end of the page
    ('<html><body data-entity="Q111"><div class="claim" data-prop="P2">'
     '<span class="wb-quantity-rendered">+5<p class="body-text">Mars and '
     '<a href="/wiki/Q2">Earth', False),
    # \x1c-\x1f and \u3000 are whitespace to Python's \s, not to Rust's;
    # html.parser's tag name runs on past \x1c, so <body\x1c...> is no body
    ('<html><body\x1cdata-entity="Q42"><h1>Douglas\x1c\x1dAdams\u3000</h1>'
     '<div class="claim\x1fx" data-prop="P4"><span class="value">\x1e a\x1fb \x1f</span>'
     '</div><p class="body-text">\u3000Read <a href="/wiki/Q42">Douglas\x1fAdams</a>'
     '\x1c</p></body></html>', True),
    # the same past \x0b, \u3000 and \xa0; between attributes and before
    # a close tag's '>' they are whitespace
    ('<html><body data-entity="Q1"><h1\x0b>T</h1><p\u3000class="body-text">see '
     '<a href="/wiki/Q5">human</a></p><div\xa0class="claim" data-prop="P1">v</div>'
     '<div class="claim"\x0b\xa0data-prop="P2"\u3000><span class="value">w</span>'
     '</div \x1c><h1>U</h1\x0b></body></html>', True),
    ('<html><body data-entity="Q1"><div class="claim"\x0b\xa0data-prop="P2"\u3000>'
     '<span\n\x85class="value">w</span></div \x1c></body></html>', False),
    ("", False),
    # a mismatched close tag
    ('<html><body data-entity="Q17"><div class="claim" data-prop="P3">'
     '<span class="value">x</div></span></body></html>', True),
    # the fast tokenizer's bails: a comment, script, a single-quoted
    # attribute, a stray '<', a charref after the last tag
    ('<html><!-- c --><body data-entity="Q7"><h1>Seven</h1></body></html>', True),
    ('<html><body data-entity="Q7"><script>var x = "<p>";</script><h1>Seven</h1>'
     '</body></html>', True),
    ("<html><body data-entity='Q7'><h1>Seven</h1></body></html>", True),
    ('<html><body data-entity="Q7"><h1>1 < 2</h1></body></html>', True),
    ('<html><body data-entity="Q7"><h1>Seven</h1></body></html>tail &amp;', True),
]


def pages_table(htmls: list[str], texts: list | None = None) -> pa.Table:
    """A PAGES table of ``htmls``; ``text`` is each page's
    ``extract_text`` unless ``texts`` gives it."""
    if texts is None:
        texts = [extract_text(h) for h in htmls]
    return pa.Table.from_pydict({
        "url": [f"https://pages.example.org/wiki/p{i}" for i in range(len(htmls))],
        "warc_ts": [dt.datetime(2024, 1, 1, 0, 0, i % 60) for i in range(len(htmls))],
        "html": [h.encode() for h in htmls],
        "text": texts,
        "lang": ["en"] * len(htmls),
    }, schema=PAGES)


def _crafted_block() -> pa.Table:
    """The crafted pages between fixture pages."""
    fixture = gen_pages_table(len(CRAFTED), seed=9, richness=2)
    return pa.concat_tables([
        t for i, (html, _) in enumerate(CRAFTED)
        for t in (fixture.slice(i, 1), pages_table([html]))])


def _extract_rowwise(pages: pa.Table) -> pa.Table:
    """``extract_batch`` restated one page dict at a time."""
    rows = []
    for page in pages.to_pylist():
        if page.get("text") is not None:
            assert extract_text(page["html"]) == page["text"]
        parsed = parse_page(page["html"])
        lineage = {"url": page["url"], "warc_ts": page["warc_ts"]}
        blank = dict.fromkeys(RAW_CLAIMS.names, "")
        rows += [{**blank, **lineage, **c} for c in parsed["claims"]]
        spans = []
        for m in parsed["mentions"]:
            rows.append({**blank, **lineage, "entity": parsed["entity"],
                         "kind": "mention", "value": m["qid_hint"]})
            if m["span_start"] >= 0:
                spans.append(f"{m['span_start']}:{m['span_end']}")
        if parsed["body_text"]:
            rows.append({**blank, **lineage, "entity": parsed["entity"],
                         "kind": "mention_text", "value": parsed["body_text"],
                         "parent_value": ";".join(spans)})
    return pa.Table.from_pylist(rows, schema=RAW_CLAIMS)


def _link_rowwise(raw: pa.Table, linker: LinkerActor) -> pa.Table:
    """``LinkerActor`` restated one raw-claim dict at a time: every other
    row passes through, then each ``mention_text`` row's resolved mentions
    follow, in row order."""
    kept, linked = [], []
    for row in raw.to_pylist():
        if row["kind"] != "mention_text":
            kept.append(row)
            continue
        spans = [tuple(int(x) for x in part.split(":"))
                 for part in row["parent_value"].split(";") if part]
        for _, qid, _, _ in detect_and_link(row["value"], linker.index,
                                            linker.pattern, spans):
            linked.append({**dict.fromkeys(RAW_CLAIMS.names, ""),
                           "url": row["url"], "warc_ts": row["warc_ts"],
                           "entity": row["entity"], "kind": "mention",
                           "value": qid})
    return pa.Table.from_pylist(kept + linked, schema=RAW_CLAIMS)


def _ttl_docs(ops: pa.Table) -> pa.Table:
    """One Turtle document per source page of ``ops``, then an empty one
    (a document that parses to no triples)."""
    docs: dict[str, list] = {}
    for row in ops.to_pylist():
        docs.setdefault(row["src_url"], []).append(tuple(
            row[c] for c in ("subj", "pred", "obj", "obj_type", "lang",
                             "datatype")))
    return pa.table({
        "entity": [f"Q{i}" for i in range(len(docs))] + ["Q0"],
        "ttl": [serialize_ttl(sorted(set(t))) for t in docs.values()] + [""],
    })


def _assemble_rowwise(raw: pa.Table) -> pa.Table:
    """``assemble_batch`` restated one raw-claim dict at a time."""
    names = ("subj", "pred", "obj", "obj_type", "lang", "datatype", "op")
    return pa.Table.from_pylist(
        [{**dict(zip(names, t)), "src_url": row["url"],
          "warc_ts": row["warc_ts"]}
         for row in raw.to_pylist() for t in raw_claim_to_triples(row)],
        schema=OPS)


def _null_text(pages: pa.Table, i: int) -> pa.Table:
    mask = pa.array([j == i for j in range(len(pages))])
    text = pc.if_else(mask, pa.scalar(None, pages.schema.field("text").type),
                      pages["text"])
    return pages.set_column(pages.schema.get_field_index("text"), "text", text)


@pytest.mark.parametrize("pages", [
    gen_pages_table(40, seed=3, richness=1),
    gen_pages_table(30, seed=7, richness=3),
    gen_pages_table(120, seed=1, richness=8),
    _null_text(gen_pages_table(6, seed=6, richness=2), 2),
    _crafted_block(),
    PAGES.empty_table(),
], ids=["richness1", "richness3", "richness8", "null_text", "crafted", "empty"])
def test_extract_and_assemble_equal_rowwise(pages):
    raw = extract_batch(pages)
    assert raw.equals(_extract_rowwise(pages))
    linker = LinkerActor(aliases_table().to_pylist())
    linked = linker(raw)
    assert linked.equals(_link_rowwise(raw, linker))
    # the linked stream carries resolved mention rows into assemble too
    ops = assemble_batch(linked)
    assert ops.equals(_assemble_rowwise(linked))
    # the page's triples as Turtle documents, plus one with no triples
    docs = _ttl_docs(ops)
    snap = parse_ttl_batch(docs)
    assert snap.equals(_parse_ttl_rowwise(docs))
    assert len(docs) == 1 or len(snap) > len(docs)


def test_columnar_parse_bails_exactly_the_unproven_pages():
    """``parse_pages`` parses every crafted page its token grammar proves
    and bails the rest; a bailed page has no rows and a null text."""
    rows, page, text, bailed = parse_pages(pages_table([h for h, _ in CRAFTED])["html"])
    assert bailed.tolist() == [b for _, b in CRAFTED]
    assert not set(page.tolist()) & {i for i, (_, b) in enumerate(CRAFTED) if b}
    assert [t is None for t in text.to_pylist()] == bailed.tolist()
    # a slice of 128 fixture pages takes the columnar path throughout
    assert not parse_pages(gen_pages_table(128, seed=2, richness=4)["html"])[3].any()


@pytest.mark.parametrize("at", [0, 3])
def test_text_drift_raises_naming_the_url(at):
    """A ``text`` that is not ``extract_text(html)`` fails the batch with
    the page's url, on the columnar path (page 0) and on a bailed page
    (page 3, which holds a comment)."""
    htmls = [h.decode() for h in gen_pages_table(4, seed=2, richness=2)["html"].to_pylist()]
    htmls[3] = htmls[3].replace("<body", "<!-- c --><body")
    texts = [extract_text(h) for h in htmls]
    texts[at] += " drift"
    pages = pages_table(htmls, texts)
    assert parse_pages(pages["html"])[3].tolist() == [False, False, False, True]
    url = pages["url"][at].as_py()
    with pytest.raises(ValueError, match=f"drift for url={re.escape(repr(url))}"):
        extract_batch(pages)


def test_ws_class_is_pythons_whitespace():
    """``htmltext._WS``, read by polars' Rust regex, matches exactly the
    characters Python's ``\\s`` matches (Rust's own ``\\s`` misses
    ``\\x1c``-``\\x1f``)."""
    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000]
    rust = pl.Series(chars).str.contains(f"^{_WS}$").to_list()
    assert ([c for c, m in zip(chars, rust) if m]
            == [c for c in chars if re.fullmatch(r"\s", c)])

"""The per-row Python boundary: ``schema.fan_out``, and the columnar TTL
parse that left it.

Extract, link and assemble run their per-row kernels through ``fan_out``:
string columns are read through ``schema.str_list``, and lineage columns
(``url``/``warc_ts``) go out by row index (``schema.source_rows``);
``Node.find`` stops at its first hit.  The TTL parse runs once per batch
and sends ``entity`` out by one ``take``.  Each test here pins one of
those against its plain row-wise statement: ``to_pylist()`` rows in, one
dict per output row out.
"""

from __future__ import annotations

import gc

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from kgray.fixtures import aliases_table, gen_pages_table
from kgray.kernels.assemble import raw_claim_to_triples
from kgray.kernels.htmltext import (
    _FastPathBail, _parse_html_fast, extract_text, parse_html, parse_page,
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


# a comment is outside the fast tokenizer's subset: the page bails to the
# html.parser slow path
_SLOW_PAGE = (
    '<html><body data-entity="Q7"><!-- x --><h1>Seven</h1>'
    '<div class="claim a" data-prop="P31"><span class="value">v</span>'
    '<div class="qualifier b"><a href="/wiki/Q5">human</a></div></div>'
    '<p class="body-text">see <a href="/wiki/Q5">human</a></p></body></html>'
)


def _find_cases():
    pages = gen_pages_table(20, seed=5, richness=8)
    roots = [parse_html(h) for h in pages["html"].to_pylist()]
    with pytest.raises(_FastPathBail):
        _parse_html_fast(_SLOW_PAGE)
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


def _extract_rowwise(pages: pa.Table) -> pa.Table:
    """``extract_batch`` restated one page dict at a time."""
    rows = []
    for page in pages.to_pylist():
        if page.get("text") is not None:
            assert extract_text(page["html"]) == page["text"]
        parsed = parse_page(page["html"], page["url"])
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
    gen_pages_table(12, seed=4, richness=8),
    _null_text(gen_pages_table(6, seed=6, richness=2), 2),
    PAGES.empty_table(),
], ids=["richness1", "richness8", "null_text", "empty"])
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


def test_assemble_restores_gc_state():
    """``assemble_batch`` pauses the cyclic GC for its row loop and leaves
    it as it found it, also when the call raises."""
    raw = extract_batch(gen_pages_table(2, seed=1))
    assert gc.isenabled()
    assemble_batch(raw)
    assert gc.isenabled()
    with pytest.raises(KeyError):
        assemble_batch(raw.drop_columns(["url"]))
    assert gc.isenabled()
    gc.disable()
    try:
        assemble_batch(raw)
        assert not gc.isenabled()
    finally:
        gc.enable()

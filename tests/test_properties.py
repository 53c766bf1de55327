"""Property-based tests (hypothesis) for the pure kernel layer.

SURVEY.md §5 notes the reference has no property tests; the engine adds
them where invariants are crisp: the HTML→text extractor must be total and
deterministic on arbitrary input, dedup/canonicalize invariants must hold
on arbitrary row multisets, and id minting must be injective-in-practice
and stable.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgray.kernels.htmltext import extract_text
from kgray.kernels.ids import statement_id, time_node_id
from kgray.stages.canonicalize import (KEY_COLS, KEY_ORDER, LINEAGE_COLS,
                                       local_dedup, order_words)

# text that may contain markup fragments, entities, broken tags
_html_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400
)


@settings(max_examples=60, deadline=None)
@given(_html_text)
def test_extract_text_total_and_deterministic(s):
    """Never raises on arbitrary (possibly broken) HTML; stable; output has
    no blank lines and no leading/trailing whitespace per line."""
    out1 = extract_text(s)
    out2 = extract_text(s)
    assert out1 == out2
    for line in out1.splitlines():
        assert line == line.strip()
        assert line != ""


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["INSERT", "DELETE"]),
            st.text(min_size=1, max_size=8),
            st.text(min_size=1, max_size=8),
            st.text(max_size=8),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_local_dedup_idempotent_and_exact(rows):
    """Combiner invariants on arbitrary row multisets: output keys are the
    distinct input keys; applying it twice changes nothing; the key-order
    form holds the same rows in key order; survivor lineage is the
    minimum."""
    import datetime as dt

    table = pa.Table.from_pydict(
        {
            "op": [r[0] for r in rows],
            "subj": [r[1] for r in rows],
            "pred": [r[2] for r in rows],
            "obj": [r[3] for r in rows],
            "lang": [""] * len(rows),
            "datatype": [""] * len(rows),
            "obj_type": ["literal"] * len(rows),
            "warc_ts": pa.array(
                [dt.datetime(2024, 1, 1, 0, 0, i % 60) for i in range(len(rows))],
                pa.timestamp("us"),
            ),
            "src_url": [f"u{i % 7}" for i in range(len(rows))],
        }
    )
    out = local_dedup(table)
    keys_in = {tuple(r[c][i].as_py() for c in KEY_COLS)
               for r in [table] for i in range(len(table))}
    keys_out = [tuple(out[c][i].as_py() for c in KEY_COLS) for i in range(len(out))]
    assert len(keys_out) == len(set(keys_out)) == len(keys_in)
    assert set(keys_out) == keys_in
    assert local_dedup(out).equals(out)
    # the key-order form: the same rows, in key order, strings by code
    # point (Arrow's order)
    order = pc.sort_indices(
        out, [(c, "ascending") for c in KEY_ORDER], null_placement="at_end")
    assert local_dedup(table, in_key_order=True).equals(out.take(order))
    # survivor lineage is the per-key minimum (warc_ts, src_url)
    by_key: dict[tuple, tuple] = {}
    for i in range(len(table)):
        k = tuple(table[c][i].as_py() for c in KEY_COLS)
        lin = tuple(table[c][i].as_py() for c in LINEAGE_COLS)
        by_key[k] = min(by_key.get(k, lin), lin)
    for i in range(len(out)):
        k = tuple(out[c][i].as_py() for c in KEY_COLS)
        assert tuple(out[c][i].as_py() for c in LINEAGE_COLS) == by_key[k]


# order-word values: any text (NUL, empty, astral), nulls, and values
# that share their first 32 bytes, so the words alone cannot tell them
# apart
_order_value = st.one_of(
    st.none(),
    st.builds(
        lambda head, tail: head + tail,
        st.sampled_from(["", "p", "p\x00", "x" * 31, "\x00" * 17, "é" * 16,
                         "𝄞" * 8]),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=12),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_order_value, _order_value, _order_value),
                min_size=1, max_size=24))
def test_order_words_follow_triple_order(triples):
    """Canonicalize's range key: whenever one (pred, subj, obj) sorts
    below another by code point, nulls last, its order words compare <=
    (as a tuple of uint64), and equal triples get equal words, whatever
    the table's chunk layout."""
    table = pa.table({c: pa.array([t[i] for t in triples], pa.string())
                      for i, c in enumerate(("pred", "subj", "obj"))})
    words = [tuple(int(w) for w in row) for row in order_words(table)]
    assert len(words) == len(triples)
    # the same rows as two sliced chunks (non-zero array offsets)
    half = len(table) // 2
    chunked = pa.concat_tables([table.slice(0, half), table.slice(half)])
    assert [tuple(int(w) for w in row) for row in order_words(chunked)] == words

    def rank(t):
        return [(v is None, v or "") for v in t]

    for a, wa in zip(triples, words):
        for b, wb in zip(triples, words):
            if a == b:
                assert wa == wb, (a, b)
            elif rank(a) < rank(b):
                assert wa <= wb, (a, b, wa, wb)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=10),
       st.text(max_size=20))
def test_ids_stable_and_shaped(ent, prop, value):
    a = statement_id(ent, prop, value)
    assert a == statement_id(ent, prop, value)
    assert a.startswith(f"{ent}-")
    t = time_node_id("2020-01-01T00:00:00Z", 11, 0, "wd:Q1985727")
    assert len(t) == 40 and t == time_node_id("2020-01-01T00:00:00Z", 11, 0, "wd:Q1985727")


# ---------------------------------------------------------------------------
# SurfaceMatcher: regex-equivalence on small tables, bounded time at scale
# ---------------------------------------------------------------------------

_surface = st.text(
    alphabet=st.sampled_from("abcdefg XYZ'-"), min_size=1, max_size=12
).filter(lambda s: s.strip())


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_surface, min_size=1, max_size=8),
    st.text(alphabet=st.sampled_from("abcdefg XYZ'-.,"), max_size=120),
)
def test_surface_matcher_equals_regex_alternation(surfaces, text):
    """The token-window matcher must reproduce the old longest-first
    regex alternation byte for byte on arbitrary inputs."""
    import re

    from kgray.kernels.link import SurfaceMatcher

    parts = sorted((re.escape(s) for s in set(surfaces)), key=len, reverse=True)
    pat = re.compile(r"(?<![\w])(" + "|".join(parts) + r")(?![\w])")
    expected = [(m.group(1), m.start(1), m.end(1)) for m in pat.finditer(text)
                if m.group(1)]
    got = SurfaceMatcher(surfaces).find(text)
    assert got == expected


def test_surface_matcher_100k_aliases_bounded():
    """The documented ~10^7-alias claim needs a matcher whose probe cost is
    independent of table size: build 100k synthetic aliases (the regex
    alternation path cannot compile this), match a corpus of documents, and
    require correct hits in bounded time."""
    import time

    from kgray.kernels.link import SurfaceMatcher

    surfaces = [f"alias{i} form{i % 97}" for i in range(100_000)]
    surfaces += [f"solo{i}" for i in range(10_000)]
    t0 = time.perf_counter()
    m = SurfaceMatcher(surfaces)
    build_s = time.perf_counter() - t0

    text = ("The report mentions alias123 form26 and solo42 near alias99999 "
            "form%d, but aliasX matches nothing. " % (99999 % 97)) * 50
    t0 = time.perf_counter()
    hits = m.find(text)
    match_s = time.perf_counter() - t0
    found = {h[0] for h in hits}
    assert found == {"alias123 form26", "solo42", f"alias99999 form{99999 % 97}"}
    assert len(hits) == 150
    assert build_s < 10, f"index build took {build_s:.1f}s"
    assert match_s < 2, f"matching took {match_s:.1f}s"


# ---------------------------------------------------------------------------
# TTL codec: serialize ∘ parse == identity on arbitrary well-formed triples
# ---------------------------------------------------------------------------

_pname = st.builds(
    lambda p, l: f"{p}:{l}",
    st.sampled_from(["wd", "wdt", "p", "ps", "s", "v", "ref", "schema", "skos"]),
    st.text(alphabet=st.sampled_from("ABCDEFQP0123456789abcdef"), min_size=1, max_size=12),
)
_literal_val = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=40,
)
_lang = st.sampled_from(["", "en", "pt-BR", "de"])
_dt = st.sampled_from(["", "xsd:dateTime", "xsd:integer", "xsd:decimal"])


@st.composite
def _triple(draw):
    subj = draw(_pname)
    pred = draw(st.one_of(_pname, st.just("rdf:type")))
    if draw(st.booleans()):
        obj = draw(st.one_of(_pname, st.just("<http://example.org/x>")))
        return (subj, pred, obj, "iri", "", "")
    lang = draw(_lang)
    dt = "" if lang else draw(_dt)
    val = draw(_literal_val)
    if dt == "xsd:dateTime":
        val = draw(st.sampled_from(
            ["2020-01-02T03:04:05Z", "-0347-05-12T00:00:00Z", "1999-12-31T23:59:59Z"]))
    return (subj, pred, val, "literal", lang, dt)


@settings(max_examples=80, deadline=None)
@given(st.lists(_triple(), min_size=1, max_size=12))
def test_ttl_roundtrip_property(triples):
    from kgray.kernels.ttl import parse_ttl, serialize_ttl

    assert parse_ttl(serialize_ttl(triples)) == triples


# a literal body piece: \u and \U escapes of any scalar value (either
# hex case), which serialize_ttl never writes, or plain text and escapes
_escape = st.one_of(
    st.characters(blacklist_categories=("Cs",), max_codepoint=0xFFFF).map(
        lambda c: f"\\u{ord(c):04X}"),
    st.characters(blacklist_categories=("Cs",)).map(lambda c: f"\\U{ord(c):08x}"),
    st.sampled_from(["x", "é", '\\"', "\\\\", "\\n", " "]),
)
_escaped_statement = st.lists(_escape, max_size=6).map(
    lambda parts: 'wd:Q1 wdt:P1 "' + "".join(parts) + '" .\n')


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(_triple(), max_size=8),
                          st.lists(_escaped_statement, max_size=2)), min_size=1, max_size=6))
def test_columnar_ttl_parse_equals_state_machine(docs):
    """The columnar ``parse_ttl_batch`` over a batch of documents equals
    the state-machine parser run one document at a time; a document is
    serialized triples, then statements whose literals hold ``\\u`` and
    ``\\U`` escapes."""
    import pyarrow as pa

    from kgray.kernels.ttl import serialize_ttl
    from kgray.schema import SNAPSHOT
    from kgray.stages.ttl import parse_ttl_batch
    from ttl_rowwise import parse_ttl_batch as parse_ttl_rowwise

    batch = pa.table({"entity": [f"Q{i}" for i in range(len(docs))],
                      "ttl": [serialize_ttl(t) + "".join(e) for t, e in docs]})
    got = parse_ttl_batch(batch)
    assert got.schema == SNAPSHOT
    assert got.equals(parse_ttl_rowwise(batch))


# ---------------------------------------------------------------------------
# columnar page parse ≡ row-wise extract on blocks of mixed pages
# ---------------------------------------------------------------------------

def test_fixture_pages_take_the_columnar_parse():
    """``parse_pages`` bails on none of the fixture pages at richness 1-8,
    so the generated corpora never reach the row-wise path."""
    import pyarrow as pa

    from kgray.fixtures import gen_page
    from kgray.kernels.htmltext import parse_pages

    html = pa.array([gen_page(i, richness=1 + i % 8)["html"] for i in range(120)])
    assert not parse_pages(html)[3].any()


# pieces of pages: tags the page parse selects on, charrefs, case, void
# and self-closing tags, Python-only whitespace, tag names html.parser
# runs on past such whitespace, and what the columnar parse bails on;
# joined at random they leave elements open and close tags mismatched
_PIECES = [
    '<div class="claim" data-prop="P31">', '<div class="claim">', "</div>",
    '<div class="qualifier" data-prop="P580">', '<div class="reference" title="P248">',
    '<a href="/wiki/Property:P31">P31</a>', '<a href="/wiki/Q5">human</a>',
    '<A HREF="/wiki/Q90">Paris</A>', "<a>", "</a>", '<span class="value">',
    '<span class="wb-time-rendered">', '<span class="monolingual" lang="fr">',
    '<SPAN CLASS="wb-quantity-rendered">', "</span>", '<p class="body-text">',
    '<p class="description" lang="de">', "</p>", "<h1>", "</h1 >",
    '<ul class="aliases"><li lang="en">', "<li>", "</li>", "</ul>",
    '<table class="diff"><tr><td class="diff-lineno">', '<tr><td class="diff-deletedline"><del>',
    '<tr><td class="diff-addedline">', "</td></tr>", "</table>", "<br>", "<br/>",
    '<img src="x">', '<span class="value"/>', "<b>", "</b>", " text ", "&amp;",
    "&#233;", "&quot;", '<a href="/wiki/Q42" title="&quot;t&quot;">', "\x1c", "\x1f",
    "\u3000", "  \n ", "<!-- c -->", "<a href='/wiki/Q1'>", "<script>x</script>", " < ",
    "<h1\x0b>", "<p\u3000class=\"body-text\">", '<div\xa0class="claim" data-prop="P1">',
    "</h1\x0b>",
]


@st.composite
def _page_html(draw):
    from test_row_boundary import CRAFTED

    from kgray.fixtures import gen_page

    kind = draw(st.sampled_from(["fixture", "crafted", "pieces"]))
    if kind == "fixture":
        return gen_page(draw(st.integers(0, 500)), seed=draw(st.integers(0, 9)),
                        richness=draw(st.integers(1, 8)))["html"].decode()
    if kind == "crafted":
        return draw(st.sampled_from(CRAFTED))[0]
    pieces = draw(st.lists(st.one_of(st.sampled_from(_PIECES), _html_text), max_size=30))
    return '<html><body data-entity="Q1" lang="en">' + "".join(pieces)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_page_html(), st.booleans()), min_size=1, max_size=6))
def test_columnar_extract_equals_rowwise(pages):
    """``extract_batch`` (the columnar page parse, the row-wise path for
    the pages it bails) ``Table.equals`` the row-wise restatement on a
    block of fixture pages, crafted pages and random page pieces, each
    page with its text or a null one."""
    from test_row_boundary import _extract_rowwise, pages_table

    from kgray.stages.extract import extract_batch

    block = pages_table([h for h, _ in pages],
                        [extract_text(h) if keep else None for h, keep in pages])
    assert extract_batch(block).equals(_extract_rowwise(block))


# ---------------------------------------------------------------------------
# columnar assemble ≡ the row-wise kernel on raw-claim tables
# ---------------------------------------------------------------------------

_short_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)

# raw-claim rows that reach every branch of ``raw_claim_to_triples``:
# every kind, a kind that emits nothing, props with and without a
# leading "P", every vtype with values of its own shape (link and
# non-link strings, "+00:00" times), "_" language tags, every rank and
# op; small pools repeat id inputs, and "\x1f" is the id hash's field
# separator
_KINDS = ["label", "desc", "alias", "claim", "diff", "qualifier", "reference",
          "mention", "mention_text", "unknown"]
_RANKS = ["normal", "preferred", "deprecated", ""]
_OPS = ["delete", "insert", ""]
_VALUES = {
    "wikibase-entityid": ["Q5", "Q42"],
    "string": ["http://a.org/https", "https://b.org/https", "httpx", "xhttps://c"],
    "time": ["+2001-01-01T00:00:00+00:00", "+00:00 +00:00", "-0044-03-15T00:00:00Z"],
    "quantity": ["+5", "-0.25"],
    "monolingualtext": ["Paris", "é\x1f"],
    "url": ["https://c.org"],
    "": [""],
}


@st.composite
def _raw_claim(draw):
    vtype = draw(st.sampled_from(sorted(_VALUES)))
    return {
        "entity": draw(st.sampled_from(["Q1", "Q42", "Q1\x1fP2", "Qé"])),
        "kind": draw(st.sampled_from(_KINDS)),
        "prop": draw(st.one_of(st.sampled_from(["P31", "P580", "P", "name", "p31", ""]),
                               _short_text)),
        "vtype": vtype,
        "value": draw(st.one_of(st.sampled_from(_VALUES[vtype]), _short_text)),
        "lang": draw(st.sampled_from(["en", "pt_BR", "zh_Hant_TW", "", "ü_x"])),
        "rank": draw(st.sampled_from(_RANKS)),
        "parent_prop": draw(st.sampled_from(["P31", "P1\x1f", "", "name"])),
        "parent_value": draw(st.sampled_from(["Q5", "+2001-01-01T00:00:00+00:00", ""])),
        "op": draw(st.sampled_from(_OPS)),
    }


# one row of every kind, prop shape and value of the pools, with the
# ranks and ops in turn: each branch runs in every test run
_EVERY_BRANCH = [
    {"entity": "Q1", "kind": kind, "prop": prop, "vtype": vtype, "value": value,
     "lang": "pt_BR", "parent_prop": "P31", "parent_value": "Q5"}
    for kind in _KINDS for prop in ("P31", "name")
    for vtype in sorted(_VALUES) for value in _VALUES[vtype]
]
for _i, _row in enumerate(_EVERY_BRANCH):
    _row.update(rank=_RANKS[_i % 4], op=_OPS[_i % 3])


def _raw_claims_table(rows: list[dict]):
    import datetime as dt

    import pyarrow as pa

    from kgray.schema import RAW_CLAIMS

    return pa.Table.from_pylist(
        [{**r, "url": f"https://pages.example.org/wiki/p{i % 3}",
          "warc_ts": dt.datetime(2024, 1, 1, 0, 0, i % 60)} for i, r in enumerate(rows)],
        schema=RAW_CLAIMS)


@settings(max_examples=150, deadline=None)
@given(st.lists(_raw_claim(), min_size=1, max_size=40))
@example(_EVERY_BRANCH)
def test_columnar_assemble_equals_rowwise(rows):
    """``assemble_batch`` ``Table.equals`` the row-wise kernel run one
    raw-claim dict at a time, on one chunk and on two."""
    import pyarrow as pa
    from test_row_boundary import _assemble_rowwise

    from kgray.stages.assemble import assemble_batch

    table = _raw_claims_table(rows)
    expected = _assemble_rowwise(table)
    assert assemble_batch(table).equals(expected)
    half = len(table) // 2
    assert assemble_batch(pa.concat_tables([table.slice(0, half),
                                            table.slice(half)])).equals(expected)


def test_columnar_assemble_empty_multi_chunk_and_null():
    """No rows in, no rows out; multi-chunk columns, as the linker's
    ``concat_tables`` hands them over, assemble like one chunk; a null
    in a column the kernel reads raises."""
    import pyarrow as pa
    import pytest
    from test_row_boundary import _assemble_rowwise

    from kgray.fixtures import aliases_table, gen_pages_table
    from kgray.schema import OPS, RAW_CLAIMS
    from kgray.stages.assemble import assemble_batch
    from kgray.stages.extract import extract_batch
    from kgray.stages.link import LinkerActor

    assert assemble_batch(RAW_CLAIMS.empty_table()).equals(OPS.empty_table())
    linked = LinkerActor(aliases_table().to_pylist())(
        extract_batch(gen_pages_table(12, seed=4, richness=4)))
    assert linked["value"].num_chunks > 1
    assert assemble_batch(linked).equals(_assemble_rowwise(linked))
    assert assemble_batch(linked).equals(assemble_batch(linked.combine_chunks()))
    lang = linked.schema.get_field_index("lang")
    nulled = linked.set_column(lang, "lang", pa.nulls(len(linked), pa.string()))
    with pytest.raises(pa.ArrowInvalid):
        assemble_batch(nulled)


def test_surface_matcher_fallback_overlap_regression():
    """ADVICE r2 counterexample: a consumed fallback match must not hide an
    overlapping fallback candidate that the merged sweep would select."""
    import re

    from kgray.kernels.link import SurfaceMatcher

    surfaces = ["a-b", "b-c-", "c--"]
    text = "a-b-c---d"
    parts = sorted((re.escape(s) for s in surfaces), key=len, reverse=True)
    pat = re.compile(r"(?<![\w])(" + "|".join(parts) + r")(?![\w])")
    expected = [(m.group(1), m.start(1), m.end(1)) for m in pat.finditer(text)]
    assert expected == [("a-b", 0, 3), ("c--", 4, 7)]
    assert SurfaceMatcher(surfaces).find(text) == expected


def test_bucket_hash_arrow_native():
    """The exchange hash must be deterministic across chunk layouts/slices,
    collision-free on distinct small keys, and near-uniform into buckets."""
    import numpy as np
    import pyarrow as pa

    from kgray.stages.shuffle import _hash_key

    t = pa.table({"a": ["x", "x", "y", "", "xy", "x\x00", "x"],
                  "b": [1, 1, 2, 3, 4, 5, 1]})
    h = _hash_key(t, ["a", "b"])
    assert h[0] == h[1] == h[6]
    assert len({h[0], h[2], h[3], h[4], h[5]}) == 5

    t2 = pa.Table.from_batches(t.to_batches(max_chunksize=2))
    assert (_hash_key(t2, ["a", "b"]) == h).all()
    assert (_hash_key(t.slice(2, 4), ["a", "b"]) == h[2:6]).all()

    ti = pa.table({"k": list(range(100_000))})
    hi = _hash_key(ti, ["k"]) % np.uint64(64)
    ci = np.bincount(hi.astype(np.int64), minlength=64)
    assert ci.std() / ci.mean() < 0.05

    e = pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.int64())})
    assert len(_hash_key(e, ["a", "b"])) == 0

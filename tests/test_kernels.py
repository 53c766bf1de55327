"""Unit tests for the pure kernel library (SURVEY.md §5 test plan, item 1).

Mirrors the reference's own unit coverage: formatter flavors
(test_ttl_compare.py:209-264), prefix compaction (:267-305), prefix
membership (:308-345), command serialization incl. skip rules (:128-206),
plus the scalar catalog (§2.8)."""

from __future__ import annotations

from kgray.kernels import rdf
from kgray.kernels.assemble import raw_claim_to_triples
from kgray.kernels.htmltext import extract_text, parse_page
from kgray.kernels.ids import reference_hash, statement_id, time_node_id
from kgray.kernels.link import (
    SurfaceMatcher,
    build_alias_index,
    detect_and_link,
    score_candidates,
    tokenize,
)


class TestFormatObject:
    def test_lang_literal(self):
        assert rdf.format_object("Bonjour", "literal", "fr", None) == '"Bonjour"@fr'

    def test_datatype_literal_xsd_compaction_and_tz(self):
        got = rdf.format_object(
            "2021-01-01T00:00:00+00:00", "literal", None,
            "http://www.w3.org/2001/XMLSchema#dateTime",
        )
        assert got == '"2021-01-01T00:00:00Z"^^xsd:dateTime'

    def test_quote_escaping(self):
        assert rdf.format_object('say "hi"', "literal", None, None) == '"say \\"hi\\""'

    def test_plain_literal(self):
        assert rdf.format_object("Hello World", "literal", None, None) == '"Hello World"'

    def test_full_uri(self):
        assert rdf.format_object("https://example.org/x", "iri", None, None) == "<https://example.org/x>"

    def test_known_uri_compacts(self):
        assert rdf.format_object("http://www.wikidata.org/entity/Q42", "iri", None, None) == "wd:Q42"

    def test_prefixed_passthrough(self):
        assert rdf.format_object("wd:Q42", "iri", None, None) == "wd:Q42"

    def test_blank_node(self):
        assert rdf.format_object("_:b0", "iri", None, None) == "_:b0"


class TestPrefixes:
    def test_compact_longest_wins(self):
        assert rdf.compact_uri("http://www.wikidata.org/prop/statement/P31") == "ps:P31"
        assert rdf.compact_uri("http://www.wikidata.org/prop/P31") == "p:P31"

    def test_has_prefix(self):
        assert rdf.has_prefix("wdt:P569")
        assert not rdf.has_prefix("unknown:x")
        assert not rdf.has_prefix("nocolon")

    def test_header_contains_all(self):
        for p in rdf.PREFIX_TO_URI:
            assert f"PREFIX {p}: <" in rdf.PREFIX_HEADER


class TestScalars:
    def test_lang_normalization(self):
        assert rdf.normalize_lang("pt_BR") == "pt-BR"

    def test_scheme_normalization(self):
        assert rdf.normalize_scheme("https://x.org") == "http://x.org"
        assert rdf.normalize_scheme("http://x.org") == "http://x.org"

    def test_command(self):
        got = rdf.triple_to_command("INSERT", "wd:Q42", "wdt:P569", '"1952-03-11"^^xsd:date')
        assert got == 'INSERT DATA { wd:Q42 wdt:P569 "1952-03-11"^^xsd:date . };'

    def test_rdf_type_renders_a(self):
        got = rdf.triple_to_command("DELETE", "wd:Q42", "rdf:type", "schema:Thing")
        assert got == "DELETE DATA { wd:Q42 a schema:Thing . };"


class TestIds:
    def test_deterministic(self):
        a = statement_id("Q42", "P31", "Q5")
        assert a == statement_id("Q42", "P31", "Q5")
        assert a.startswith("Q42-")
        assert statement_id("Q42", "P31", "Q6") != a
        assert len(time_node_id("2020-01-01T00:00:00Z", 11, 0, "wd:Q1985727")) == 40
        assert len(reference_hash("Q42", "P31", "P854", "x")) == 40


class TestHtml:
    HTML = (
        '<html><head><title>T</title></head><body data-entity="Q42" lang="en">'
        "<h1>Douglas Adams</h1>"
        '<p class="description" lang="pt_BR">escritor</p>'
        '<div class="claims"><div class="claim" data-prop="P569" data-type="time">'
        '<a href="/wiki/Property:P569">P569</a>: '
        '<span class="wb-time-rendered">1952-03-11T00:00:00+00:00</span></div></div>'
        '<p class="body-text">See <a href="/wiki/Q90">Paris</a> for more.</p>'
        '<table class="diff"><tr><td class="diff-lineno">'
        '<a href="/wiki/Property:P106">P106</a></td></tr>'
        '<tr><td class="diff-deletedline"><del class="diffchange">'
        '<a href="/wiki/Q36180">writer</a></del></td></tr></table>'
        "</body></html>"
    )

    def test_extract_text_rules(self):
        txt = extract_text("<p>a   b</p><div>c<span> d</span></div><p></p>")
        assert txt == "a b\nc d"

    def test_parse_page(self):
        p = parse_page(self.HTML)
        assert p["entity"] == "Q42"
        kinds = [c["kind"] for c in p["claims"]]
        assert kinds.count("label") == 1 and "claim" in kinds and "diff" in kinds
        diff = [c for c in p["claims"] if c["kind"] == "diff"][0]
        assert diff == dict(entity="Q42", kind="diff", prop="P106",
                            vtype="wikibase-entityid", value="Q36180", lang="",
                            rank="normal", parent_prop="", parent_value="", op="delete")
        assert p["mentions"][0]["qid_hint"] == "Q90"

    TWO_PARAGRAPHS = (
        '<html><body data-entity="Q42"><p class="body-text">See '
        '<a href="/wiki/Q90">Paris</a> and <a href="/wiki/Q64">Berlin</a>.</p>'
        '<p class="body-text">Then <a href="/wiki/Q84">London</a> and '
        '<a href="/wiki/Q90">Paris</a> again.</p></body></html>'
    )

    def test_mention_spans_index_the_joined_body_text(self):
        """Each href mention's span slices its surface out of the
        ``"\\n"``-joined body text, the ``mention_text`` value the linker
        reads: in ``parse_page``, on extract's columnar path, and on its
        row-wise path (the comment makes the page bail to it)."""
        import pyarrow.compute as pc
        from test_row_boundary import pages_table

        from kgray.stages.extract import extract_batch

        surfaces = ["Paris", "Berlin", "London", "Paris"]
        p = parse_page(self.TWO_PARAGRAPHS)
        assert [p["body_text"][m["span_start"]:m["span_end"]]
                for m in p["mentions"]] == surfaces
        bailing = self.TWO_PARAGRAPHS.replace("<body", "<!-- c --><body")
        raw = extract_batch(pages_table([self.TWO_PARAGRAPHS, bailing]))
        rows = raw.filter(pc.equal(raw["kind"], "mention_text")).to_pylist()
        assert len(rows) == 2
        for row in rows:
            spans = [part.split(":") for part in row["parent_value"].split(";")]
            assert [row["value"][int(s):int(e)] for s, e in spans] == surfaces

    def test_byte_identity_on_corpus(self):
        from kgray.fixtures import gen_page

        for i in range(30):
            page = gen_page(i)
            assert extract_text(page["html"]) == page["text"], page["url"]


class TestAssemble:
    def test_claim_scaffold(self):
        rows = raw_claim_to_triples(
            dict(entity="Q42", kind="claim", prop="P31", vtype="wikibase-entityid",
                 value="Q5", lang="", rank="normal", parent_prop="", parent_value="", op="")
        )
        sid = "s:" + statement_id("Q42", "P31", "Q5")
        trip = {(s, p, o) for (s, p, o, *_rest) in rows}
        assert ("wd:Q42", "p:P31", sid) in trip
        assert (sid, "rdf:type", "wikibase:Statement") in trip
        assert (sid, "rdf:type", "wikibase:BestRank") in trip
        assert (sid, "ps:P31", "wd:Q5") in trip
        assert ("wd:Q42", "wdt:P31", "wd:Q5") in trip

    def test_url_string_claim_gets_normalized_forms(self):
        rows = raw_claim_to_triples(
            dict(entity="Q42", kind="claim", prop="P856", vtype="string",
                 value="https://example.org", lang="", rank="normal",
                 parent_prop="", parent_value="", op="")
        )
        preds = {p for (_s, p, _o, *_r) in rows}
        assert {"psn:P856", "wdtn:P856"} <= preds
        objs = {o for (_s, p, o, *_r) in rows if p.endswith("n:P856")}
        assert objs == {"<http://example.org>"}

    def test_time_claim_expands_value_node(self):
        rows = raw_claim_to_triples(
            dict(entity="Q42", kind="claim", prop="P569", vtype="time",
                 value="1952-03-11T00:00:00+00:00", lang="", rank="normal",
                 parent_prop="", parent_value="", op="")
        )
        preds = [p for (_s, p, _o, *_r) in rows]
        assert "psv:P569" in preds and "wikibase:timeValue" in preds
        tv = [o for (_s, p, o, *_r) in rows if p == "wikibase:timeValue"]
        assert tv == ["1952-03-11T00:00:00Z"]  # +00:00 -> Z

    def test_diff_delete_op(self):
        rows = raw_claim_to_triples(
            dict(entity="Q42", kind="diff", prop="P106", vtype="wikibase-entityid",
                 value="Q36180", lang="", rank="normal", parent_prop="",
                 parent_value="", op="delete")
        )
        assert {op for (*_x, op) in rows} == {"DELETE"}

    def test_reference_nested(self):
        rows = raw_claim_to_triples(
            dict(entity="Q42", kind="reference", prop="P854", vtype="string",
                 value="https://src.net/1", lang="", rank="", parent_prop="P31",
                 parent_value="Q5", op="")
        )
        sid = "s:" + statement_id("Q42", "P31", "Q5")
        rid = "ref:" + reference_hash("Q42", "P31", "P854", "https://src.net/1")
        trip = {(s, p, o) for (s, p, o, *_r) in rows}
        assert (sid, "prov:wasDerivedFrom", rid) in trip
        assert (rid, "rdf:type", "wikibase:Reference") in trip
        assert (rid, "pr:P854", "https://src.net/1") in trip


class TestLinker:
    ALIASES = [
        dict(surface_form="Mercury", qid="Q308", prior=0.55,
             context_keywords="planet orbit sun"),
        dict(surface_form="Mercury", qid="Q925", prior=0.45,
             context_keywords="element metal chemistry"),
        dict(surface_form="Berlin", qid="Q64", prior=0.95,
             context_keywords="germany capital"),
    ]

    def test_context_disambiguation(self):
        idx = build_alias_index(self.ALIASES)
        pat = SurfaceMatcher(list(idx))
        got = detect_and_link("Mercury is a toxic metal element.", idx, pat)
        assert [(s, q) for s, q, *_ in got] == [("Mercury", "Q925")]
        got = detect_and_link("Mercury orbits the sun.", idx, pat)
        assert [(s, q) for s, q, *_ in got] == [("Mercury", "Q308")]

    def test_prior_tiebreak(self):
        idx = build_alias_index(self.ALIASES)
        assert score_candidates(idx["Mercury"], tokenize("no context words")) == "Q308"

    def test_linked_span_skipped(self):
        idx = build_alias_index(self.ALIASES)
        pat = SurfaceMatcher(list(idx))
        text = "Berlin and Berlin"
        got = detect_and_link(text, idx, pat, [(0, 6)])
        assert len(got) == 1 and got[0][2] == 11

    def test_word_boundaries(self):
        idx = build_alias_index(self.ALIASES)
        pat = SurfaceMatcher(list(idx))
        assert detect_and_link("Berliner things", idx, pat) == []


class TestVectorizedSerializer:
    """serialize_batch's pc-kernel fast path must be byte-identical to the
    scalar reference kernels (format_object/triple_to_command) on every
    input — canonical stored-form rows AND invariant violators that take
    the per-row fallback."""

    def _expected(self, rows):
        from kgray.kernels.rdf import format_object, triple_to_command

        return [
            triple_to_command(
                r["op"], r["subj"], r["pred"],
                format_object(r["obj"], r["obj_type"], r["lang"] or None,
                              r["datatype"] or None))
            for r in rows
        ]

    def _run(self, rows):
        import pyarrow as pa

        from kgray.stages.serialize import serialize_batch

        t = pa.Table.from_pylist(rows)
        return serialize_batch(t)["command"].to_pylist()

    def test_fixture_corpus_equivalence(self):
        """Every row of the 120-page fixture raw-ops table (all datavalue
        types, BCE dates, quotes, lang tags, qualifiers/references)."""
        from kgray.fixtures import gen_pages_table, raw_ops_table

        raw = raw_ops_table(gen_pages_table(120))
        rows = raw.select(
            ["op", "subj", "pred", "obj", "obj_type", "lang", "datatype"]
        ).to_pylist()
        assert self._run(rows) == self._expected(rows)

    def test_slow_path_rows(self):
        base = dict(op="INSERT", lang="", datatype="")
        rows = [
            # full-http subject (compacts)
            dict(base, subj="http://www.wikidata.org/entity/Q1",
                 pred="wdt:P31", obj="wd:Q5", obj_type="iri"),
            # full-http predicate
            dict(base, subj="wd:Q1",
                 pred="http://www.wikidata.org/prop/direct/P31",
                 obj="wd:Q5", obj_type="iri"),
            # bracketed KNOWN-namespace iri object (compacts)
            dict(base, subj="wd:Q1", pred="wdt:P31",
                 obj="<http://www.wikidata.org/entity/Q5>", obj_type="iri"),
            # bracketed unknown iri (fast path, stays bracketed)
            dict(base, subj="wd:Q1", pred="wdt:P856",
                 obj="<http://example.org/x>", obj_type="iri"),
            # bare non-prefixed non-http "iri" (scalar kernel quotes it)
            dict(base, subj="wd:Q1", pred="wdt:P856",
                 obj="not-an-iri", obj_type="iri"),
            # unknown full-uri datatype (compacts to xsd:)
            dict(base, subj="wd:Q1", pred="ps:P569",
                 obj="2020-01-01T00:00:00+00:00", obj_type="literal",
                 datatype="http://www.w3.org/2001/XMLSchema#dateTime"),
            # known prefixed datatype (fast path) with tz fix + escape
            dict(base, subj="wd:Q1", pred="ps:P569",
                 obj='say "hi" at 2020-01-01T00:00:00+00:00',
                 obj_type="literal", datatype="xsd:dateTime"),
            # lang wins over datatype
            dict(base, subj="wd:Q1", pred="rdfs:label", obj='quoted "x"',
                 obj_type="literal", lang="pt-BR", datatype="xsd:string"),
            # rdf:type in full-uri form renders as 'a'
            dict(base, subj="wd:Q1",
                 pred="http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                 obj="wd:Q5", obj_type="iri"),
            # blank node object
            dict(base, subj="wd:Q1", pred="prov:wasDerivedFrom", obj="_:b0",
                 obj_type="iri"),
            # DELETE op, plain literal
            dict(op="DELETE", subj="wd:Q1", pred="rdfs:label", obj="plain",
                 obj_type="literal", lang="", datatype=""),
        ]
        assert self._run(rows) == self._expected(rows)

    def test_empty_batch(self):
        import pyarrow as pa

        from kgray.stages.serialize import serialize_batch

        t = pa.Table.from_pydict(
            {c: pa.array([], pa.string())
             for c in ("op", "subj", "pred", "obj", "obj_type", "lang", "datatype")}
        )
        out = serialize_batch(t)
        assert out.num_rows == 0 and out.column_names == ["command"]


class TestCanonicalizeSurvivor:
    """``local_dedup`` must implement the exact lexicographic
    (warc_ts, src_url)-min rule, including separator bytes in content,
    timestamp ties across pages and null key components, and return the
    survivors in input order, or with ``in_key_order`` in key order, nulls
    last."""

    def _table(self):
        import datetime as dt

        import numpy as np
        import pyarrow as pa

        rng = np.random.default_rng(3)
        keys = rng.integers(0, 400, 3000)
        return pa.table({
            "op": [("INSERT", "DELETE")[k % 2] for k in keys],
            "subj": [f"wd:Q{k}" for k in keys],
            "pred": [f"p:P{k % 11}" for k in keys],
            # separator byte inside content: keys must still compare whole
            "obj": [f"v\x1fal{k % 5}" for k in keys],
            "lang": ["" for _ in keys],
            "datatype": ["" for _ in keys],
            "obj_type": ["iri" for _ in keys],
            "src_url": [f"https://x/{rng.integers(0, 40)}" for _ in keys],
            # coarse timestamps force (key, min-ts) ties resolved by url
            "warc_ts": [dt.datetime(2024, 1, 1)
                        + dt.timedelta(seconds=int(rng.integers(0, 3)))
                        for _ in keys],
        })

    @staticmethod
    def _bruteforce(t, in_key_order: bool):
        from kgray.stages.canonicalize import KEY_COLS, KEY_ORDER

        rows = t.to_pylist()
        best = {}
        for i, r in enumerate(rows):
            k = tuple(r[c] for c in KEY_COLS)
            lin = (r["warc_ts"], r["src_url"])
            if k not in best or lin < (
                    rows[best[k]]["warc_ts"], rows[best[k]]["src_url"]):
                best[k] = i
        if not in_key_order:
            return [rows[i] for i in sorted(best.values())]
        return sorted((rows[i] for i in best.values()),
                      key=lambda r: [(r[c] is None, r[c] or "")
                                     for c in KEY_ORDER])

    def test_matches_bruteforce_lexicographic_min(self):
        from kgray.stages.canonicalize import local_dedup

        t = self._table()
        for in_key_order in (False, True):
            assert (local_dedup(t, in_key_order=in_key_order).to_pylist()
                    == self._bruteforce(t, in_key_order))

    def test_null_key_components_group_together(self):
        import pyarrow as pa

        from kgray.stages.canonicalize import local_dedup

        t = self._table()
        n = len(t)
        # null lang on every third row and null datatype on every fourth:
        # null equals null within a key, and a null never equals ""
        lang = pa.array([None if i % 3 == 0 else "" for i in range(n)],
                        pa.string())
        datatype = pa.array([None if i % 4 == 0 else "" for i in range(n)],
                            pa.string())
        t = (t.set_column(t.schema.get_field_index("lang"), "lang", lang)
             .set_column(t.schema.get_field_index("datatype"), "datatype",
                         datatype))
        for in_key_order in (False, True):
            got = local_dedup(t, in_key_order=in_key_order)
            assert got.to_pylist() == self._bruteforce(t, in_key_order)
        assert got["lang"].null_count > 0 and got["datatype"].null_count > 0

    def test_empty_input(self):
        from kgray.stages.canonicalize import local_dedup

        t = self._table().slice(0, 0)
        assert len(local_dedup(t)) == 0

"""TTL codec (M12) + distributed TTL-snapshot diff.

Mirrors the reference's diff tests (test_ttl_compare.py:86-126: addition,
deletion, no-change over two TTL revisions of wd:Q42) against the engine's
parse_ttl_stage -> diff_snapshots -> serialize_stage composition, plus
codec-level unit tests for the Turtle subset dump snapshots use.
"""

from __future__ import annotations

import pytest

PREFIXES = """@prefix wd: <http://www.wikidata.org/entity/> .
@prefix wdt: <http://www.wikidata.org/prop/direct/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""

OLD_TTL = PREFIXES + """
wd:Q42 wdt:P31 wd:Q5 .
wd:Q42 wdt:P21 wd:Q6581097 .
"""

NEW_TTL = PREFIXES + """
wd:Q42 wdt:P31 wd:Q5 .
wd:Q42 wdt:P21 wd:Q6581097 .
wd:Q42 wdt:P569 "1952-03-11"^^xsd:date .
"""


class TestParse:
    def test_prefixes_continuations_and_types(self):
        from kgray.kernels.ttl import parse_ttl

        ttl = PREFIXES + """
# comment with "quotes" and . dots
wd:Q42 a wd:Q5 ;
    wdt:P1448 "The \\"Answer\\""@pt-BR ;
    wdt:P569 "1952-03-11T00:00:00Z"^^xsd:dateTime, "-0347-01-01T00:00:00Z"^^xsd:dateTime ;
    wdt:P856 <http://example.org/x> .
"""
        got = parse_ttl(ttl)
        assert got == [
            ("wd:Q42", "rdf:type", "wd:Q5", "iri", "", ""),
            ("wd:Q42", "wdt:P1448", 'The "Answer"', "literal", "pt-BR", ""),
            ("wd:Q42", "wdt:P569", "1952-03-11T00:00:00Z", "literal", "", "xsd:dateTime"),
            # a BCE year is literal text like any other (M13)
            ("wd:Q42", "wdt:P569", "-0347-01-01T00:00:00Z", "literal", "", "xsd:dateTime"),
            ("wd:Q42", "wdt:P856", "<http://example.org/x>", "iri", "", ""),
        ]

    def test_full_iri_terms_compact_against_known_namespaces(self):
        from kgray.kernels.ttl import parse_ttl

        ttl = ('<http://www.wikidata.org/entity/Q42> '
               '<http://www.wikidata.org/prop/direct/P31> '
               '<http://www.wikidata.org/entity/Q5> .')
        assert parse_ttl(ttl) == [("wd:Q42", "wdt:P31", "wd:Q5", "iri", "", "")]

    def test_unsupported_construct_raises(self):
        from kgray.kernels.ttl import TTLParseError, parse_ttl

        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 wdt:P1 [ a wd:Q2 ] .")
        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 wdt:P1 wd:Q2")  # missing terminator

    def test_serialize_parse_roundtrip(self):
        from kgray.kernels.ttl import parse_ttl, serialize_ttl

        triples = [
            ("wd:Q42", "rdf:type", "schema:Thing", "iri", "", ""),
            ("wd:Q42", "schema:name", 'line\nbreak "q"', "literal", "en", ""),
            ("wd:Q42", "wdt:P1082", "331000000", "literal", "", "xsd:decimal"),
            ("s:abc", "ps:P569", "-0100-01-01T00:00:00Z", "literal", "", "xsd:dateTime"),
        ]
        assert parse_ttl(serialize_ttl(triples)) == triples


class TestDistributedDiff:
    """Reference parity: diff_ttls addition / deletion / no-change
    (test_ttl_compare.py:106-126), via the streaming stages."""

    def _diff_commands(self, ray, old_ttl: str, new_ttl: str) -> list[str]:
        import ray.data as rd

        from kgray.stages.diff import diff_snapshots
        from kgray.stages.serialize import serialize_stage
        from kgray.stages.ttl import parse_ttl_stage

        def snap(ttl: str):
            return parse_ttl_stage(rd.from_items([{"entity": "Q42", "ttl": ttl}]))

        out = serialize_stage(diff_snapshots(snap(old_ttl), snap(new_ttl)))
        return [r["command"] for r in out.take_all()]

    def test_addition(self, ray_session):
        cmds = self._diff_commands(ray_session, OLD_TTL, NEW_TTL)
        assert cmds == ['INSERT DATA { wd:Q42 wdt:P569 "1952-03-11"^^xsd:date . };']

    def test_deletion(self, ray_session):
        cmds = self._diff_commands(ray_session, NEW_TTL, OLD_TTL)
        assert cmds == ['DELETE DATA { wd:Q42 wdt:P569 "1952-03-11"^^xsd:date . };']

    def test_no_change(self, ray_session):
        assert self._diff_commands(ray_session, OLD_TTL, OLD_TTL) == []


class TestParseStrictness:
    """Malformed input must raise, never silently mis-parse (the module's
    design contract vs the reference's bare-except silent drops)."""

    def test_missing_separator_between_objects(self):
        from kgray.kernels.ttl import TTLParseError, parse_ttl

        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 wdt:P1 wd:Q2 wd:Q3 .")

    def test_triple_quoted_literal_rejected(self):
        from kgray.kernels.ttl import TTLParseError, parse_ttl

        with pytest.raises(TTLParseError):
            parse_ttl('wd:Q1 wdt:P1 """long\ntext""" .')

    def test_punct_without_object(self):
        from kgray.kernels.ttl import TTLParseError, parse_ttl

        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 wdt:P1 ; wdt:P2 .")
        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 wdt:P1 , wd:Q2 .")

    def test_prefix_inside_open_statement(self):
        from kgray.kernels.ttl import TTLParseError, parse_ttl

        with pytest.raises(TTLParseError):
            parse_ttl("wd:Q1 @prefix x: <http://x/> . wd:Q2 wd:P2 wd:Q3 .")

    def test_error_names_the_entity(self):
        import pyarrow as pa

        from kgray.kernels.ttl import TTLParseError
        from kgray.stages.ttl import parse_ttl_batch

        docs = pa.table({"entity": ["Q1", "Q2"],
                         "ttl": ["wd:Q1 wdt:P1 wd:Q2 .", "wd:Q2 wdt:P1 ( ) ."]})
        with pytest.raises(TTLParseError, match="'Q2'.*unsupported"):
            parse_ttl_batch(docs)


class TestEscapes:
    """``\\u`` and ``\\U`` escapes decode; a malformed one raises
    ``TTLParseError`` naming the entity."""

    def test_unicode_escapes_decode(self):
        from kgray.kernels.ttl import parse_ttl
        from ttl_rowwise import parse_ttl as parse_ttl_rowwise

        for parse in (parse_ttl, parse_ttl_rowwise):
            got = parse('wd:Q1 wd:P1 "\\u00e9\\U0001F600\\n\\"\\\\" .')
            assert got == [("wd:Q1", "wd:P1", 'é😀\n"\\', "literal", "", "")]

    @pytest.mark.parametrize("lit", ["\\uZZZZ", "\\u12", "\\u+123", "\\U0000FFF",
                                     "\\UFFFFFFFF", "\\uD800"])
    def test_bad_escape_raises(self, lit):
        """Both the engine's parser and the row-wise oracle refuse it."""
        from kgray.kernels.ttl import TTLParseError, parse_ttl
        from ttl_rowwise import parse_ttl as parse_ttl_rowwise

        for parse in (parse_ttl, parse_ttl_rowwise):
            with pytest.raises(TTLParseError):
                parse(f'wd:Q1 wd:P1 "{lit}" .')

    def test_bad_escape_names_the_entity(self):
        import pyarrow as pa

        from kgray.kernels.ttl import TTLParseError
        from kgray.stages.ttl import parse_ttl_batch

        docs = pa.table({"entity": ["Q1", "Q2"],
                         "ttl": ['wd:Q1 wdt:P1 "\\u00e9" .', 'wd:Q2 wdt:P1 "\\uZZZZ" .']})
        with pytest.raises(TTLParseError, match="'Q2'.*escape"):
            parse_ttl_batch(docs)


class TestParseRegressions:
    """Inputs the document-level pre-passes (comment masking, the BCE
    sentinel, the triple-quote check) once parsed wrongly."""

    def test_comment_with_odd_quote_ends_at_end_of_line(self):
        from kgray.kernels.ttl import parse_ttl

        ttl = '# it\'s "unbalanced\nwd:Q1 wd:P1 "x" .\nwd:Q2 wd:P2 wd:Q3 .'
        assert parse_ttl(ttl) == [
            ("wd:Q1", "wd:P1", "x", "literal", "", ""),
            ("wd:Q2", "wd:P2", "wd:Q3", "iri", "", ""),
        ]

    def test_bce_spelled_text_is_kept_verbatim(self):
        from kgray.kernels.ttl import parse_ttl

        ttl = ('wd:Q1 wd:P1 "BCE_abc", '
               '<http://x/"-0001-01-01T00:00:00Z"> .')
        assert parse_ttl(ttl) == [
            ("wd:Q1", "wd:P1", "BCE_abc", "literal", "", ""),
            ("wd:Q1", "wd:P1", '<http://x/"-0001-01-01T00:00:00Z">', "iri", "", ""),
        ]

    def test_triple_single_quotes_inside_a_literal(self):
        from kgray.kernels.ttl import parse_ttl, serialize_ttl

        triples = [("wd:Q1", "wdt:P1", "a '''quoted''' word", "literal", "", "")]
        assert parse_ttl(serialize_ttl(triples)) == triples


class TestPrefixCompaction:
    """Doc-declared prefixes must compact longest-namespace-first, matching
    compact_uri's longest-prefix rule — declaration order must not matter
    (ADVICE r2: 'p:' declared before 'ps:' produced 'p:statement/P31')."""

    def test_longest_prefix_wins_regardless_of_declaration_order(self):
        from kgray.kernels.ttl import parse_ttl

        for decls in (
            "@prefix p: <http://www.wikidata.org/prop/> .\n"
            "@prefix ps: <http://www.wikidata.org/prop/statement/> .\n",
            "@prefix ps: <http://www.wikidata.org/prop/statement/> .\n"
            "@prefix p: <http://www.wikidata.org/prop/> .\n",
        ):
            doc = decls + (
                "<http://www.wikidata.org/entity/Q1> "
                "<http://www.wikidata.org/prop/statement/P31> "
                "<http://www.wikidata.org/prop/P31> .\n"
            )
            triples = parse_ttl(doc)
            assert triples == [("wd:Q1", "ps:P31", "p:P31", "iri", "", "")]

    def test_full_iri_and_pname_spell_identically(self):
        """Real dump TTL mixes full IRIs and pnames for the same predicate;
        both spellings must land on one canonical string or dedup/diff keys
        split."""
        from kgray.kernels.ttl import parse_ttl

        doc = (
            "@prefix p: <http://www.wikidata.org/prop/> .\n"
            "@prefix ps: <http://www.wikidata.org/prop/statement/> .\n"
            "<http://www.wikidata.org/entity/Q1> ps:P31 <http://www.wikidata.org/entity/Q5> .\n"
            "<http://www.wikidata.org/entity/Q1> "
            "<http://www.wikidata.org/prop/statement/P31> "
            "<http://www.wikidata.org/entity/Q5> .\n"
        )
        t = parse_ttl(doc)
        assert t[0] == t[1]

    def test_declaration_applies_from_where_it_stands(self):
        """A full IRI compacts only against the @prefix declarations that
        come before it in its document."""
        from kgray.kernels.ttl import parse_ttl

        stmt = "<http://x.org/{}> <http://x.org/p> \"v\"^^<http://x.org/t> .\n"
        doc = stmt.format("a") + "@prefix x: <http://x.org/> .\n" + stmt.format("b")
        assert parse_ttl(doc) == [
            ("<http://x.org/a>", "<http://x.org/p>", "v", "literal", "", "<http://x.org/t>"),
            ("x:b", "x:p", "v", "literal", "", "x:t"),
        ]


class TestPerDocumentDeclarations:
    """A batch compacts each full IRI against its own document's
    declarations: the columnar ``parse_ttl_batch`` equals the row-wise
    state machine run one document at a time."""

    DOCS = {
        # declares ex:; the next document does not
        "Q1": "@prefix ex: <http://example.org/ns/> .\n"
              "<http://example.org/ns/a> <http://example.org/ns/p> <http://example.org/ns/b> .\n",
        "Q2": "<http://example.org/ns/a> <http://example.org/ns/p> \"v\" .\n",
        # one namespace under two names: the later name wins
        "Q3": "@prefix a1: <http://example.org/two/> .\n"
              "@prefix a2: <http://example.org/two/> .\n"
              "<http://example.org/two/x> a <http://example.org/two/T> .\n",
        # n: redeclared to a second namespace, after statements
        "Q4": "@prefix n: <http://example.org/first/> .\n"
              "<http://example.org/first/x> n:p \"v\" .\n"
              "@prefix n: <http://example.org/second/> .\n"
              "<http://example.org/first/x> <http://example.org/second/p> "
              "<http://example.org/first/y> .\n",
        # a document's own name for a known namespace
        "Q5": "@prefix foo: <http://www.wikidata.org/entity/> .\n"
              "<http://www.wikidata.org/entity/Q1> <http://www.wikidata.org/prop/direct/P31> "
              "<http://www.wikidata.org/entity/Q5> .\n",
        # nested namespaces: both declared here, only the shorter one next
        "Q6": "@prefix ps: <http://www.wikidata.org/prop/statement/> .\n"
              "@prefix p: <http://www.wikidata.org/prop/> .\n"
              "<http://www.wikidata.org/prop/statement/P31> "
              "<http://www.wikidata.org/prop/P31> \"v\" .\n",
        "Q7": "@prefix p: <http://www.wikidata.org/prop/> .\n"
              "<http://www.wikidata.org/prop/statement/P31> "
              "<http://www.wikidata.org/prop/P31> \"v\" .\n",
        # full IRIs in every position, some under no namespace, and
        # declarations that come only after a comment or a statement
        "Q8": "# no leading run of declarations\n"
              "@prefix e: <http://e.org/a/b/> .\n"
              "@prefix a: <http://e.org/a/> .\n"
              "@prefix e: <http://e.org/> .\n"
              "<http://e.org/a/b/x> <http://nowhere.org/p> \"1\"^^<http://e.org/a/t> , "
              "\"2\"^^<http://nowhere.org/dt> , <http://nowhere.org/o> .\n"
              "@prefix z: <http://nowhere.org/> .\n",
        "Q9": "<http://nowhere.org/s> <http://e.org/a/p> <http://nowhere.org/o> .\n"
              "@prefix z: <http://nowhere.org/> .\n"
              "<http://nowhere.org/s> <http://e.org/a/p> \"3\"^^<http://nowhere.org/dt> .\n",
    }

    def _batch(self, docs):
        import pyarrow as pa

        return pa.table({"entity": list(docs), "ttl": list(docs.values())})

    def test_batch_equals_rowwise(self):
        from ttl_rowwise import parse_ttl_batch as rowwise

        from kgray.stages.ttl import parse_ttl_batch

        batch = self._batch(self.DOCS)
        got = parse_ttl_batch(batch)
        assert got.equals(rowwise(batch))
        rows = {(r["entity"], r["subj"], r["pred"], r["obj"], r["datatype"])
                for r in got.to_pylist()}
        assert ("Q1", "ex:a", "ex:p", "ex:b", "") in rows
        assert ("Q2", "<http://example.org/ns/a>", "<http://example.org/ns/p>", "v", "") in rows
        assert ("Q3", "a2:x", "rdf:type", "a2:T", "") in rows
        assert ("Q4", "n:x", "n:p", "n:y", "") in rows
        assert ("Q5", "foo:Q1", "wdt:P31", "foo:Q5", "") in rows
        assert ("Q6", "ps:P31", "p:P31", "v", "") in rows
        assert ("Q7", "p:statement/P31", "p:P31", "v", "") in rows
        assert ("Q8", "e:x", "<http://nowhere.org/p>", "1", "a:t") in rows
        assert ("Q8", "e:x", "<http://nowhere.org/p>", "2", "<http://nowhere.org/dt>") in rows
        assert ("Q9", "<http://nowhere.org/s>", "<http://e.org/a/p>", "<http://nowhere.org/o>", "") in rows
        assert ("Q9", "z:s", "<http://e.org/a/p>", "3", "z:dt") in rows

    def test_malformed_declaration_names_its_entity(self):
        from kgray.kernels.ttl import TTLParseError
        from kgray.stages.ttl import parse_ttl_batch

        docs = dict(self.DOCS)
        docs["Q10"] = ("@prefix ok: <http://ok.org/> .\n"
                       "ok:a ok:p \"v\" .\n@prefix bad:x <http://bad.org/> .\n")
        with pytest.raises(TTLParseError, match="entity 'Q10': bad @prefix name"):
            parse_ttl_batch(self._batch(docs))

    def test_declarations_after_every_iri(self):
        """Declarations that stand after the batch's last full IRI, of
        namespaces that other documents declared first."""
        from ttl_rowwise import parse_ttl_batch as rowwise

        from kgray.stages.ttl import parse_ttl_batch

        batch = self._batch({
            "Q1": "# c\n@prefix e: <http://e.org/a/b/> .\n@prefix p: <http://f.org/> .\n"
                  "@prefix a: <http://e.org/a/> .\n"
                  "@prefix f: <http://www.wikidata.org/entity/> .\n"
                  "@prefix e: <http://e.org/> .\n"
                  "<http://e.org/a/b/x> <http://www.wikidata.org/prop/statement/é> \"q\\\"x\" .\n"
                  "<http://e.org/a/b/> <http://www.wikidata.org/prop/b/c> \"1\"^^<http://f.org/> .\n"
                  "@prefix f: <http://e.org/a/> .\n",
            "Q2": "# c\n@prefix ab: <http://f.org/> .\n@prefix wd: <http://g.org/é/> .\n"
                  "@prefix ps: <http://e.org/a/> .\n"
                  "@prefix y: <http://www.wikidata.org/prop/statement/> .\n"
                  "@prefix x: <http://e.org/a/b/> .\n",
            "Q3": "@prefix e: <http://e.org/> .\n@prefix y: <http://e.org/a/b/> .\n"
                  "@prefix ps: <http://www.wikidata.org/entity/> .\n"
                  "@prefix y: <http://f.org/> .\n"
                  "<http://e.org/a/b/b/c> <http://e.org/a/b/Q5> \"1\"^^<http://e.org/a/é> .\n"
                  "@prefix wd: <http://e.org/> .\n@prefix wd: <http://e.org/> .\n"
                  "@prefix x: <http://g.org/é/> .\n",
        })
        got = parse_ttl_batch(batch)
        assert got.equals(rowwise(batch))
        assert got["subj"].to_pylist() == ["e:x", "e:", "y:b/c"]

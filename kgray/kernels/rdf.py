"""RDF/SPARQL scalar kernels (SURVEY.md §2.8, M14-M18).

Re-states the reference's serialization semantics from scratch:
  - prefix table               (reference: get_updates.py:28-93, ttl_compare.py:101-129)
  - object formatter           (reference: ttl_compare.py:243-284)
  - quote escaping             (reference: ttl_compare.py:259)
  - xsd compaction, +00:00->Z  (reference: ttl_compare.py:263-266)
  - lang normalization _->-    (reference: get_updates.py:474)
  - https->http normalization  (reference: get_updates.py:503)
  - per-triple command text    (reference: ttl_compare.py:210-240, sample_result.txt)

Reference bugs deliberately NOT reproduced (SURVEY.md §7): the `ll` prefix
typo (get_updates.py:398), `o_ost` typo (ttl_compare.py:268), dead
PREDICATE_BLACKLIST, block-vs-command return drift (ttl_compare.py:236-240).
"""

from __future__ import annotations

# namespace URI -> prefix, longest-first compaction order
# (reference: ttl_compare.py:101-129 / get_updates.py:28-93; the duplicated
# `prov` key and the two non-prefix `wikibase:statement/reference` entries in
# the reference dict are quirks, not semantics, and are dropped).
PREFIXES: dict[str, str] = {
    "http://www.wikidata.org/prop/direct-normalized/": "wdtn",
    "http://www.wikidata.org/prop/statement/value-normalized/": "psn",
    "http://www.wikidata.org/prop/reference/value-normalized/": "prn",
    "http://www.wikidata.org/prop/reference/value/": "prv",
    "http://www.wikidata.org/prop/statement/value/": "psv",
    "http://www.wikidata.org/prop/qualifier/value/": "pqv",
    "http://www.wikidata.org/entity/statement/": "s",
    "http://www.wikidata.org/prop/statement/": "ps",
    "http://www.wikidata.org/prop/qualifier/": "pq",
    "http://www.wikidata.org/prop/reference/": "pr",
    "http://www.wikidata.org/prop/direct/": "wdt",
    "http://www.wikidata.org/reference/": "ref",
    "http://www.wikidata.org/value/": "v",
    "http://www.wikidata.org/prop/": "p",
    "http://www.wikidata.org/entity/": "wd",
    "https://www.wikidata.org/wiki/Special:EntityData/": "data",
    "http://www.w3.org/ns/prov#": "prov",
    "http://schema.org/": "schema",
    "http://www.w3.org/2004/02/skos/core#": "skos",
    "http://wikiba.se/ontology#": "wikibase",
    "http://www.w3.org/2001/XMLSchema#": "xsd",
    "http://www.w3.org/2000/01/rdf-schema#": "rdfs",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#": "rdf",
}

# prefix -> namespace URI (for expansion / membership tests)
PREFIX_TO_URI: dict[str, str] = {p: u for u, p in PREFIXES.items()}

# SPARQL PREFIX header block (reference: get_updates.py:28-93 PREFIXES string)
PREFIX_HEADER = "\n".join(
    f"PREFIX {p}: <{u}>" for u, p in sorted(PREFIXES.items(), key=lambda kv: kv[1])
)

def escape_quotes(s: str) -> str:
    """Escape internal double quotes (reference: ttl_compare.py:259)."""
    return s.replace('"', '\\"')


def normalize_lang(tag: str) -> str:
    """``pt_BR`` -> ``pt-BR`` (reference: get_updates.py:474)."""
    return tag.replace("_", "-")


def normalize_scheme(url: str) -> str:
    """https -> http for normalized link forms (reference: get_updates.py:503)."""
    return url.replace("https", "http", 1) if url.startswith("https") else url


def compact_uri(uri: str) -> str:
    """Longest-prefix URI compaction (reference: ttl_compare.py:287-299)."""
    for ns, prefix in PREFIXES.items():
        if uri.startswith(ns):
            return f"{prefix}:{uri[len(ns):]}"
    return uri


def has_prefix(token: str) -> bool:
    """Is ``token`` a known prefixed name (reference: ttl_compare.py:302-316)."""
    head, sep, _ = token.partition(":")
    return bool(sep) and head in PREFIX_TO_URI


def fix_tz(ts: str) -> str:
    """``+00:00`` suffix -> ``Z`` (reference: ttl_compare.py:266)."""
    return ts.replace("+00:00", "Z")


def format_object(obj: str, obj_type: str, lang: str | None, datatype: str | None) -> str:
    """Serialize one RDF object term (reference: ttl_compare.py:243-284).

    literal + lang      -> "v"@lang
    literal + datatype  -> "v"^^xsd:T (xsd-compacted, +00:00 -> Z)
    literal             -> "v"
    iri (full http)     -> <v>
    iri (prefixed name) -> v as-is
    blank node          -> v as-is (_:n3)
    """
    if obj_type == "literal":
        v = escape_quotes(obj)
        if lang:
            return f'"{v}"@{lang}'
        if datatype:
            dt = datatype if has_prefix(datatype) else compact_uri(datatype)
            return f'"{fix_tz(v)}"^^{dt}'
        return f'"{v}"'
    # IRI / blank node path
    if obj.startswith("_:"):
        return obj
    bare = obj.strip("<>")
    if bare.startswith("http"):
        compacted = compact_uri(bare)
        return compacted if compacted != bare else f"<{bare}>"
    if has_prefix(bare):
        return bare
    return f'"{bare}"'


def format_predicate(pred: str) -> str:
    """``rdf:type`` renders as ``a`` (reference: ttl_compare.py:221-222)."""
    if pred in ("rdf:type", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "a"):
        return "a"
    return compact_uri(pred) if pred.startswith("http") else pred


def triple_to_command(op: str, subj: str, pred: str, obj_formatted: str) -> str:
    """One per-triple change command — the canonical output contract
    (reference: ttl_compare.py:236, sample_result.txt, test_ttl_compare.py:142-147).
    """
    s = compact_uri(subj) if subj.startswith("http") else subj
    return f"{op} DATA {{ {s} {format_predicate(pred)} {obj_formatted} . }};"


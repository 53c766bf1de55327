"""Deterministic synthetic corpus (SURVEY.md §7 step 1, FIXTURES.md).

Generates the ``pages`` table in exactly the BASELINE.json input_hint shape
``(url:string, warc_ts:timestamp[us], html:binary, text:large_string,
lang:string)`` plus the ``aliases`` / ``properties`` broadcast side tables.

Everything derives from a fixed seed and the page index — ``gen_page(i)`` is
a pure function, so corpus generation itself parallelizes as a Ray Data
``range(n).map_batches`` and any page can be regenerated independently
(checkpoint/resume-friendly).  The ``text`` column is produced by
``kernels.htmltext.extract_text``, the ``html.parser`` reference; the
pipeline's columnar page parse recomputes it from ``html`` and raises on
any difference, pinning the byte-identity invariant per url.

Content exercises every reference semantic catalogued in SURVEY.md §2:
all five datavalue types (new_entity_rdf.py:85-108), BCE dates
(ttl_compare.py:354), quotes needing escaping (ttl_compare.py:259),
underscore language tags (get_updates.py:474), https URLs (get_updates.py:503),
qualifier/reference structures (get_updates.py:575-629), diff tables with
predicate cursors (get_updates.py:191-358), ambiguous alias surfaces for
context disambiguation, and head entities on a large fraction of pages to
exercise skew (SURVEY.md §4).
"""

from __future__ import annotations

import datetime as _dt
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from .kernels.htmltext import extract_text
from . import schema as _schema

SEED = 42
_BASE_TS = _dt.datetime(2024, 1, 1, 0, 0, 0)

# --------------------------------------------------------------------------
# vocabulary
# --------------------------------------------------------------------------

# head entities appear on a large fraction of pages (skew); the tail is flat.
HEAD_ENTITIES = ["Q5", "Q30", "Q142"]

ENTITIES: dict[str, dict] = {
    "Q5": {"label": "human", "cls": "Q16521"},
    "Q30": {"label": "United States of America", "cls": "Q6256"},
    "Q142": {"label": "France", "cls": "Q6256"},
    "Q42": {"label": "Douglas Adams", "cls": "Q5"},
    "Q90": {"label": "Paris", "cls": "Q515"},
    "Q1000": {"label": "Gabon", "cls": "Q6256"},
    "Q308": {"label": "Mercury", "cls": "Q634"},
    "Q925": {"label": "mercury", "cls": "Q11344"},
    "Q64": {"label": "Berlin", "cls": "Q515"},
    "Q84": {"label": "London", "cls": "Q515"},
    "Q1339": {"label": "Johann Sebastian Bach", "cls": "Q5"},
    "Q7251": {"label": "Alan Turing", "cls": "Q5"},
    "Q937": {"label": "Albert Einstein", "cls": "Q5"},
    "Q2": {"label": "Earth", "cls": "Q634"},
    "Q111": {"label": "Mars", "cls": "Q634"},
    "Q60": {"label": "New York City", "cls": "Q515"},
    "Q148": {"label": "China", "cls": "Q6256"},
    "Q17": {"label": "Japan", "cls": "Q6256"},
    "Q155": {"label": "Brazil", "cls": "Q6256"},
    "Q183": {"label": "Germany", "cls": "Q6256"},
    "Q36180": {"label": "writer", "cls": "Q28640"},
    "Q214917": {"label": "playwright", "cls": "Q28640"},
    "Q82955": {"label": "politician", "cls": "Q28640"},
    "Q901": {"label": "scientist", "cls": "Q28640"},
    "Q11344": {"label": "chemical element", "cls": "Q16521"},
    "Q634": {"label": "planet", "cls": "Q16521"},
    "Q515": {"label": "city", "cls": "Q16521"},
    "Q6256": {"label": "country", "cls": "Q16521"},
}
_QIDS = sorted(ENTITIES, key=lambda q: int(q[1:]))

# (surface_form, qid, prior, context_keywords) — includes ambiguous surfaces.
ALIASES: list[tuple[str, str, float, str]] = [
    ("Douglas Adams", "Q42", 0.99, "writer author hitchhiker galaxy novel"),
    ("Paris", "Q90", 0.80, "france capital seine city eiffel"),
    ("Paris", "Q1339", 0.20, "composer music organ baroque"),  # deliberate ambiguity
    ("Mercury", "Q308", 0.55, "planet orbit sun solar astronomy"),
    ("Mercury", "Q925", 0.45, "element metal chemistry liquid toxic"),
    ("Berlin", "Q64", 0.95, "germany capital city spree"),
    ("London", "Q84", 0.95, "england capital city thames"),
    ("Bach", "Q1339", 0.90, "composer music organ baroque"),
    ("Alan Turing", "Q7251", 0.99, "mathematician computer enigma logic"),
    ("Einstein", "Q937", 0.99, "physicist relativity nobel theory"),
    ("Earth", "Q2", 0.90, "planet orbit sun solar world"),
    ("Mars", "Q111", 0.90, "planet orbit sun solar red"),
    ("New York", "Q60", 0.90, "city usa manhattan borough"),
    ("China", "Q148", 0.95, "country asia beijing"),
    ("Japan", "Q17", 0.95, "country asia tokyo island"),
    ("Brazil", "Q155", 0.95, "country america brasilia portuguese"),
    ("Germany", "Q183", 0.95, "country europe berlin federal"),
    ("France", "Q142", 0.95, "country europe paris republic"),
    ("United States", "Q30", 0.95, "country america washington federal"),
    ("Gabon", "Q1000", 0.95, "country africa libreville"),
]

# Wikidata-style property vocabulary (datatype dispatch per new_entity_rdf.py:85-108).
PROPERTIES: list[tuple[str, str, str]] = [
    ("P31", "instance of", "wikibase-entityid"),
    ("P106", "occupation", "wikibase-entityid"),
    ("P569", "date of birth", "time"),
    ("P570", "date of death", "time"),
    ("P580", "start time", "time"),
    ("P582", "end time", "time"),
    ("P1082", "population", "quantity"),
    ("P2044", "elevation above sea level", "quantity"),
    ("P856", "official website", "string"),
    ("P854", "reference URL", "string"),
    ("P1448", "official name", "monolingualtext"),
    ("P248", "stated in", "wikibase-entityid"),
]

_LANGS = ["en", "fr", "de", "pt_BR", "es"]
_DESC_WORDS = {
    "Q5": "any member of Homo sapiens",
    "Q30": 'country in North America, the "USA"',
    "Q142": "country in Western Europe",
}
_FILLER = (
    "archive report study survey article record history overview summary "
    "chronicle journal bulletin digest notes review"
).split()


def _ts(i: int) -> _dt.datetime:
    return _BASE_TS + _dt.timedelta(seconds=37 * i)


def _pick_entity(rng: random.Random) -> str:
    # ~20% of pages land on one of 3 head entities -> heavy group skew.
    if rng.random() < 0.20:
        return rng.choice(HEAD_ENTITIES)
    return rng.choice(_QIDS)


def _claim_html(rng: random.Random, qid: str) -> str:
    """One <div class='claim'> block with 0-2 qualifiers / references."""
    pid, _, dtyp = rng.choice(PROPERTIES[:11])
    parts = [f'<div class="claim" data-prop="{pid}" data-type="{dtyp}" data-rank="normal">']
    parts.append(f'<a href="/wiki/Property:{pid}">{pid}</a>: ')
    if dtyp == "wikibase-entityid":
        tq = rng.choice(_QIDS)
        parts.append(f'<a href="/wiki/{tq}">{ENTITIES[tq]["label"]}</a>')
    elif dtyp == "time":
        if rng.random() < 0.1:  # BCE dates (ttl_compare.py:354)
            val = f"-{rng.randint(100, 900):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T00:00:00Z"
        else:
            val = f"{rng.randint(1200, 2023):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T00:00:00+00:00"
        parts.append(f'<span class="wb-time-rendered">{val}</span>')
    elif dtyp == "quantity":
        parts.append(f'<span class="wb-quantity-rendered">+{rng.randint(1, 10_000_000)}</span>')
    elif dtyp == "monolingualtext":
        lang = rng.choice(_LANGS)
        parts.append(f'<span class="monolingual" lang="{lang}">The "official" name {rng.randint(1,999)}</span>')
    else:  # string
        parts.append(f'<span class="value">https://example.org/site/{qid.lower()}/{rng.randint(1,9999)}</span>')
    if rng.random() < 0.4:
        d = f"{rng.randint(1400, 2020):04d}-01-01T00:00:00Z"
        parts.append(
            f'<div class="qualifier" data-prop="P580" data-type="time">'
            f'<span class="wb-time-rendered">{d}</span></div>'
        )
    if rng.random() < 0.4:
        parts.append(
            f'<div class="reference" data-prop="P854" data-type="string">'
            f'<span class="value">https://source.example.net/ref/{rng.randint(1,99999)}</span></div>'
        )
    if rng.random() < 0.15:
        sq = rng.choice(_QIDS)
        parts.append(
            f'<div class="reference" data-prop="P248" data-type="wikibase-entityid">'
            f'<a href="/wiki/{sq}">{ENTITIES[sq]["label"]}</a></div>'
        )
    parts.append("</div>")
    return "".join(parts)


def _body_text_html(rng: random.Random) -> str:
    """Free text with link mentions and plain (ambiguous) alias surfaces whose
    surrounding words come from the correct sense's context keywords."""
    sents: list[str] = []
    for _ in range(rng.randint(2, 4)):
        surface, qid, _, kws = rng.choice(ALIASES)
        kw = rng.sample(kws.split(), k=min(3, len(kws.split())))
        filler = rng.sample(_FILLER, k=2)
        if rng.random() < 0.5:
            m = f'<a href="/wiki/{qid}">{surface}</a>'
        else:
            m = surface
        sents.append(f"The {filler[0]} about {m} covers {kw[0]} and {kw[1]} {kw[2] if len(kw)>2 else filler[1]}.")
    return '<p class="body-text">' + " ".join(sents) + "</p>"


def _diff_table_html(rng: random.Random) -> str:
    """MediaWiki-diff-shaped table: diff-lineno predicate cursor rows, then
    deleted/added value rows (convert_to_rdf analog, get_updates.py:191-358)."""
    rows: list[str] = ['<table class="diff">']
    for _ in range(rng.randint(1, 2)):
        pid, _, dtyp = rng.choice([p for p in PROPERTIES if p[2] == "wikibase-entityid"])
        rows.append(f'<tr><td class="diff-lineno"><a href="/wiki/Property:{pid}">{pid}</a></td></tr>')
        if rng.random() < 0.8:
            tq = rng.choice(_QIDS)
            rows.append(
                f'<tr><td class="diff-deletedline"><del class="diffchange">'
                f'<a href="/wiki/{tq}">{ENTITIES[tq]["label"]}</a></del></td></tr>'
            )
        if rng.random() < 0.8:
            tq = rng.choice(_QIDS)
            rows.append(
                f'<tr><td class="diff-addedline"><ins class="diffchange">'
                f'<a href="/wiki/{tq}">{ENTITIES[tq]["label"]}</a></ins></td></tr>'
            )
    rows.append("</table>")
    return "".join(rows)


def gen_page(i: int, seed: int = SEED, richness: int = 1) -> dict:
    """Pure function of (index, seed) -> one pages row.

    ``richness`` scales page size toward realistic Common-Crawl documents
    (the default fixture page is ~3 KB; real pages run 10-100 KB): each
    extra unit appends another claims block + body paragraph.  Extra draws
    happen strictly AFTER the base draws, so ``richness=1`` output is
    byte-identical to the historical corpus.
    """
    rng = random.Random((seed << 32) ^ i)
    qid = _pick_entity(rng)
    ent = ENTITIES[qid]
    lang = rng.choice(_LANGS)
    # the url carries the revision PAIR the change spans, like the
    # reference's block header (sparql_updates.py:443 "between old_revid: …
    # and new_revid: …"); `old=` precedes `rev=` so `rev=(\d+)$`-anchored
    # extraction keeps working everywhere
    url = f"https://pages.example.org/wiki/{qid}?old={max(0, i - 1)}&rev={i}"

    html_parts = [
        "<html><head><title>", ent["label"], "</title></head>",
        f'<body data-entity="{qid}" lang="{lang}">',
        f'<h1 lang="en">{ent["label"]}</h1>',
    ]
    desc = _DESC_WORDS.get(qid, f'notable {ENTITIES.get(ent["cls"], {"label": "thing"})["label"]}')
    html_parts.append(f'<p class="description" lang="{lang}">{desc}</p>')
    if rng.random() < 0.7:
        alts = [a for a in ALIASES if a[1] == qid]
        if alts:
            lis = "".join(
                f'<li lang="{rng.choice(_LANGS)}">{a[0]}</li>' for a in alts[: rng.randint(1, 2)]
            )
            html_parts.append(f'<ul class="aliases">{lis}</ul>')
    # the P31 claim everyone has, plus 1-5 random claims
    html_parts.append('<div class="claims">')
    html_parts.append(
        f'<div class="claim" data-prop="P31" data-type="wikibase-entityid" data-rank="normal">'
        f'<a href="/wiki/Property:P31">P31</a>: '
        f'<a href="/wiki/{ent["cls"]}">{ENTITIES.get(ent["cls"], {"label": "?"})["label"]}</a></div>'
    )
    for _ in range(rng.randint(1, 5)):
        html_parts.append(_claim_html(rng, qid))
    html_parts.append("</div>")
    html_parts.append(_body_text_html(rng))
    if rng.random() < 0.6:
        html_parts.append(_diff_table_html(rng))
    for _ in range(max(0, richness - 1)):
        html_parts.append('<div class="claims">')
        for _ in range(rng.randint(3, 6)):
            html_parts.append(_claim_html(rng, qid))
        html_parts.append("</div>")
        html_parts.append(_body_text_html(rng))
    html_parts.append("</body></html>")
    html = "".join(html_parts)

    return {
        "url": url,
        "warc_ts": _ts(i),
        "html": html.encode("utf-8"),
        "text": extract_text(html),
        "lang": lang,
    }


def gen_pages_table(n: int, seed: int = SEED, start: int = 0,
                    richness: int = 1) -> pa.Table:
    rows = [gen_page(i, seed, richness) for i in range(start, start + n)]
    return pa.Table.from_pylist(rows, schema=_schema.PAGES)


# Bump when extract/link/assemble semantics OR page-generation content
# change: corpora are cached under versioned dirnames so stale caches are
# ignored.  v3: urls carry the old/new revision pair.  v4: mention spans
# index the joined body text (extract_batch feeds the raw-ops and TTL corpora).
FIXTURE_VERSION = "v4"
RAW_DIRNAME = f"raw_{FIXTURE_VERSION}"


def raw_ops_table(pages: pa.Table, alias_rows: list[dict] | None = None) -> pa.Table:
    """pages Table -> raw (PRE-canonicalize) ops Table, by running the SAME
    batch functions the distributed stages use, sequentially in-process.

    This is the kernel-produced ``raw_triples`` table the DuckDB oracles
    restate the relational tail over (dedup / serialization / diff): the
    Ray pipeline recomputes the same rows through the distributed DAG, the
    SQL side reads this table — so the exchange plumbing (shuffles, fused
    stages, canonicalize) is externally verified even though the extraction
    kernels are shared (VERDICT r1, "Next round" #1)."""
    from .stages.assemble import assemble_batch
    from .stages.extract import extract_batch
    from .stages.link import LinkerActor

    if alias_rows is None:
        alias_rows = aliases_table().to_pylist()
    raw = extract_batch(pages)
    linked = LinkerActor(alias_rows)(raw)
    return assemble_batch(linked)


def write_raw_ops_corpus(corpus_dir: str, n: int, seed: int = SEED,
                         shard_rows: int = 5000) -> list[str]:
    """Write the raw-ops oracle table for the ``n``-page corpus, sharded and
    resume-skipped like the pages corpus, under ``corpus_dir``/raw_vN.

    Each row carries an ``n_pages`` discriminator column so one SQL glob
    over every cached corpus can select the right scale via
    ``WHERE n_pages = ...`` (the oracle SQL cannot take parameters)."""
    alias_rows = aliases_table().to_pylist()

    def shard(start: int, cnt: int) -> pa.Table:
        t = raw_ops_table(gen_pages_table(cnt, seed, start=start), alias_rows)
        return t.append_column("n_pages", pa.array([n] * len(t), pa.int64()))

    return _write_shards(os.path.join(corpus_dir, RAW_DIRNAME), "raw", n,
                         shard_rows, None, shard)


TTL_DIRNAME = f"ttl_{FIXTURE_VERSION}"


def write_ttl_corpus(corpus_dir: str, n: int) -> tuple[str, str]:
    """Derive a TTL snapshot corpus from the raw-ops corpus (which must
    already exist under ``corpus_dir``): per entity, the distinct triple
    set serialized as dump-flavor Turtle with ``;``/``,`` grouping.

    Writes ``ttl_docs.parquet`` (entity, ttl, n_pages) — the engine input —
    and ``ttl_expected.parquet`` (the pre-serialization triples + n_pages)
    — the oracle side.  Parser and serializer are independent codecs, so a
    match is a genuine round-trip check of M12, not self-grading."""
    import glob

    import pyarrow.compute as pc

    from .kernels.ttl import serialize_ttl
    from .pipelines.views import ENTITY_PAT

    out_dir = os.path.join(corpus_dir, TTL_DIRNAME)
    docs_path = os.path.join(out_dir, "ttl_docs.parquet")
    exp_path = os.path.join(out_dir, "ttl_expected.parquet")
    if os.path.exists(docs_path) and os.path.exists(exp_path):
        return docs_path, exp_path

    raw_files = sorted(glob.glob(os.path.join(corpus_dir, RAW_DIRNAME, "raw-*.parquet")))
    if not raw_files:
        raise FileNotFoundError(f"raw-ops corpus missing under {corpus_dir}")
    # entity + the triple identity, in parse_ttl's tuple order
    key_cols = _schema.SNAPSHOT.names
    cols = key_cols[1:] + ["src_url"]
    raw = pa.concat_tables([pq.read_table(f, columns=cols) for f in raw_files])
    ent = pc.replace_substring_regex(
        raw["src_url"], pattern=ENTITY_PAT, replacement=r"\1")
    distinct = (
        raw.drop_columns(["src_url"])
        .append_column("entity", ent)
        .group_by(key_cols, use_threads=False)
        .aggregate([])
        .sort_by([(c, "ascending") for c in key_cols])
    )

    ents = distinct["entity"].to_pylist()
    rows = list(zip(*(distinct[c].to_pylist() for c in key_cols[1:])))
    doc_ents: list[str] = []
    doc_ttls: list[str] = []
    start = 0
    for end in range(1, len(ents) + 1):
        if end < len(ents) and ents[end] == ents[start]:
            continue
        doc_ents.append(ents[start])
        doc_ttls.append(serialize_ttl(list(rows[start:end])))
        start = end

    os.makedirs(out_dir, exist_ok=True)
    n_col_docs = pa.array([n] * len(doc_ents), pa.int64())
    docs = pa.Table.from_pydict(
        {"entity": pa.array(doc_ents, pa.string()),
         "ttl": pa.array(doc_ttls, pa.string()),
         "n_pages": n_col_docs}
    )
    expected = distinct.append_column(
        "n_pages", pa.array([n] * len(distinct), pa.int64())
    )
    for path, table in ((docs_path, docs), (exp_path, expected)):
        tmp = path + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
    return docs_path, exp_path


def aliases_table() -> pa.Table:
    return pa.Table.from_pylist(
        [
            dict(surface_form=s, qid=q, prior=p, context_keywords=k)
            for s, q, p, k in ALIASES
        ],
        schema=_schema.ALIASES,
    )


def write_pages_corpus(out_dir: str, n: int, seed: int = SEED, shard_rows: int = 5000,
                       parallel: bool | None = None, richness: int = 1) -> list[str]:
    """Write the corpus as sharded parquet (one file per row-range) so reads
    parallelize and a rerun can regenerate any shard independently.

    When Ray is initialised (or ``parallel=True``), missing shards are
    generated by Ray tasks — ``gen_page`` is a pure function of
    ``(index, seed)``, so each shard is an independent unit of work.
    """
    return _write_shards(
        out_dir, "pages", n, shard_rows, parallel,
        lambda start, cnt: gen_pages_table(cnt, seed, start=start,
                                           richness=richness))


def _write_shards(out_dir: str, prefix: str, n: int, shard_rows: int,
                  parallel: bool | None, shard) -> list[str]:
    """Write ``shard(start, cnt)`` as ``<prefix>-<start>.parquet`` for each
    ``shard_rows`` range of ``n`` rows, skipping files that already exist
    (resume).  Missing shards run as Ray tasks when ``parallel`` is True, or
    when it is None, Ray is initialised and more than one shard is missing.
    Returns every shard path in row order."""
    os.makedirs(out_dir, exist_ok=True)
    starts = range(0, n, shard_rows)
    paths = [os.path.join(out_dir, f"{prefix}-{s:08d}.parquet") for s in starts]
    todo = [(s, min(shard_rows, n - s), p)
            for s, p in zip(starts, paths) if not os.path.exists(p)]

    def write(start: int, cnt: int, path: str) -> None:
        pq.write_table(shard(start, cnt), path + ".tmp")
        os.replace(path + ".tmp", path)  # atomic: partial shards never count as done

    import ray

    if parallel is None:
        parallel = ray.is_initialized() and len(todo) > 1
    if parallel:
        remote = ray.remote(write)
        ray.get([remote.remote(*t) for t in todo])
    else:
        for t in todo:
            write(*t)
    return paths

"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline; ``queries()`` maps
every implemented operator from SURVEY.md §2 (plus the training-data ops:
dedup / similarity search / text analysis) to a callable over ``sf_dir``;
``oracle_sql()`` gives the DuckDB restatement for every SQL-expressible one.

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

Column-name + rounding contract: every aggregate/computed column is named
identically in the Ray pipeline and the SQL (AS ...); floats produced by
arithmetic are rounded the same way on both sides, and ratio-valued outputs
are emitted as exact integer numerator/denominator pairs where a rounded
dyadic float could hash-mismatch (see pipelines/textproc.py).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

# entrypoint owns the process: cap polars' rayon pool before any polars
# import (the exchange row hash runs inside many concurrent Ray tasks;
# per-core pools per process oversubscribe the node ~cores-fold)
os.environ.setdefault("POLARS_MAX_THREADS", "1")

_CORPUS_ROOT = "/tmp/kgray_corpus"
# synthetic pages per testdata scale factor (BASELINE.json input_hint shape;
# synthesised deterministically — no external data)
_SF_PAGES = {"sf0.001": 240, "sf0.01": 1200, "sf0.1": 6000}


def _corpus_dir(tag: str, n: int) -> str:
    """Versioned cache dir: a fixture-content change (FIXTURE_VERSION bump)
    invalidates previously cached corpora instead of silently mixing."""
    from kgray.fixtures import FIXTURE_VERSION

    return os.path.join(_CORPUS_ROOT, f"{tag}-{n}-{FIXTURE_VERSION}")


def pages_paths_for(sf_dir: str) -> list[str]:
    """Deterministic pages corpus sized to the testdata scale factor, written
    once under /tmp (sharded parquet; shards are resume-skipped)."""
    from kgray.fixtures import write_pages_corpus

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = _SF_PAGES.get(tag, 240)
    return write_pages_corpus(_corpus_dir(tag, n), n,
                              shard_rows=max(60, n // 16))


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale: pages -> extract -> link ->
    assemble -> canonicalize.  Returns the lazy ops Dataset."""
    from kgray.pipelines.kg import read_pages, kg_triples

    paths = pages_paths_for("/root/testdata/sf0.001")
    return kg_triples(read_pages(paths))


def _ensure_raw(sf_dir: str) -> None:
    """Make sure the kernel-produced raw-ops oracle corpus exists for this
    scale (resume-skipped once written).  Only the driver's correctness
    scales get one — bench at sf0.1 never pays this."""
    from kgray.fixtures import write_raw_ops_corpus

    tag = os.path.basename(os.path.normpath(sf_dir))
    if tag not in ("sf0.001", "sf0.01"):
        return
    n = _SF_PAGES[tag]
    write_raw_ops_corpus(_corpus_dir(tag, n), n, shard_rows=max(60, n // 16))


def _kg_ops(sf_dir: str):
    from kgray.pipelines.kg import read_pages, kg_triples

    _ensure_raw(sf_dir)
    return kg_triples(read_pages(pages_paths_for(sf_dir)))


def _warc_ts_us(ops):
    """``ops`` with a hash-stable projection: ``warc_ts`` is emitted as
    int64 epoch-microseconds (``warc_ts_us``) so the driver's value-hash
    compare sees identical representations on the Ray and DuckDB sides."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def stable(b: pa.Table) -> pa.Table:
        i = b.column_names.index("warc_ts")
        return b.set_column(i, pa.field("warc_ts_us", pa.int64()),
                            pc.cast(b["warc_ts"], pa.int64()))

    return ops.map_batches(stable, batch_format="pyarrow")


def _kg_triples_query(sf_dir: str):
    """Flagship query, ``warc_ts`` as ``warc_ts_us`` (``_warc_ts_us``)."""
    return _warc_ts_us(_kg_ops(sf_dir))


def _kg_commands(sf_dir: str):
    from kgray.stages.serialize import serialize_stage

    return serialize_stage(_kg_ops(sf_dir))


def _kg_blocks(sf_dir: str):
    from kgray.pipelines.views import kg_blocks

    return kg_blocks(_kg_ops(sf_dir))


def _kg_changelog(sf_dir: str):
    from kgray.pipelines.views import kg_changelog

    return kg_changelog(_kg_ops(sf_dir))


def _kg_diff(sf_dir: str):
    """Snapshot-diff over the KG pipeline's own triples: the corpus is
    split into an 'old' and a 'new' snapshot by page revision parity, and
    the diff emits INSERT (new-only) / DELETE (old-only) ops — the
    distributed ttl_compare.diff_ttls analog (SURVEY.md §2.4/§2.7).  One
    pass over the flagship's output tags each row once, after the M17
    filters, with side = 1 + its revision's parity (even old, odd new),
    and ``set_diff`` diffs that single stream."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from kgray.pipelines.views import ENTITY_PAT, REV_PAT
    from kgray.schema import TRIPLE_KEY
    from kgray.stages.diff import KEY_COLS, filter_triples, set_diff

    def tag(b: pa.Table) -> pa.Table:
        url = b["src_url"]
        rev = pc.cast(pc.replace_substring_regex(
            url, pattern=REV_PAT, replacement=r"\1"), pa.int64())
        return filter_triples(pa.table({
            "entity": pc.replace_substring_regex(
                url, pattern=ENTITY_PAT, replacement=r"\1"),
            **{c: b[c] for c in TRIPLE_KEY},
            "side": pc.cast(pc.add(pc.bit_wise_and(rev, 1), 1), pa.int8()),
        }))

    return set_diff(_kg_ops(sf_dir).map_batches(tag, batch_format="pyarrow"),
                    keys=KEY_COLS)


def _with_expected(fn) -> Callable[[str], Any]:
    """``fn`` after the sequentially-computed expected tables of this scale
    (kgray.expected) exist — the driver's oracle side reads them as
    parquet."""
    def run(sf_dir: str):
        from kgray.expected import ensure_expected

        ensure_expected(sf_dir)
        return fn(sf_dir)

    return run


def _sha1_payload(ds):
    """Driver-stable projection: opaque binary payloads hash to sha1 hex so
    the value compare never ships raw bytes (same pattern as the
    warc_ts -> warc_ts_us projection in _warc_ts_us)."""
    import hashlib

    import pyarrow as pa

    from kgray.schema import str_list

    def stable(b: pa.Table) -> pa.Table:
        sha = pa.array(
            [hashlib.sha1(p).hexdigest() for p in str_list(b["payload"])],
            pa.string(),
        )
        i = b.column_names.index("payload")
        return b.remove_column(i).add_column(i, "payload_sha1", sha)

    return ds.map_batches(stable, batch_format="pyarrow")


def _media_features(sf_dir: str):
    """hist (list<int64>) renders as a csv string for the driver's value
    hash; the library API (pipelines.multimodal.media_features) keeps the
    typed list column."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from kgray.pipelines.multimodal import media_features

    def stable(b: pa.Table) -> pa.Table:
        csv = pc.binary_join(b["hist"].cast(pa.list_(pa.string())), ",")
        i = b.column_names.index("hist")
        return b.remove_column(i).add_column(i, "hist_csv", csv)

    return media_features(sf_dir).map_batches(stable, batch_format="pyarrow")


def _media_resize(sf_dir: str):
    from kgray.pipelines.multimodal import media_resize

    return _sha1_payload(media_resize(sf_dir))


def _frame_sample(sf_dir: str):
    from kgray.pipelines.multimodal import frame_sample

    return _sha1_payload(frame_sample(sf_dir))


def _ensure_ttl(sf_dir: str) -> str | None:
    """TTL snapshot corpus (derived from the raw-ops corpus) for this scale;
    returns the ttl_docs path, or None for non-oracle scales."""
    from kgray.fixtures import write_ttl_corpus

    tag = os.path.basename(os.path.normpath(sf_dir))
    if tag not in ("sf0.001", "sf0.01"):
        tag = "sf0.001"  # TTL corpus exists at the oracle scales
        sf_dir = "/root/testdata/sf0.001"
    _ensure_raw(sf_dir)
    n = _SF_PAGES[tag]
    docs_path, _ = write_ttl_corpus(_corpus_dir(tag, n), n)
    return docs_path


def _ttl_parse(sf_dir: str):
    """M12: parse dump-flavor Turtle snapshot docs back into the triples
    schema.  The oracle side reads the independent pre-serialization table,
    so this is an externally-checked parser/serializer round-trip."""
    import ray.data as rd

    from kgray.stages.ttl import parse_ttl_stage

    docs_path = _ensure_ttl(sf_dir)
    snapshots = rd.read_parquet(docs_path, columns=["entity", "ttl"])
    return parse_ttl_stage(snapshots)


_GOLDEN_PARQUET = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "tests", "golden", "extract_expected.parquet")
_GOLDEN_PAGES = 50


def _kg_golden(sf_dir: str):
    """Independent extraction oracle on the driver board: the distributed
    pipeline over the fixed 50-page golden corpus vs the frozen output of
    scripts/golden_extract.py (a from-scratch second extractor that shares
    no code with kernels/htmltext.py or kernels/assemble.py).  Scale-
    independent by design — the corpus is the same at every sf."""
    from kgray.fixtures import write_pages_corpus
    from kgray.pipelines.kg import kg_triples, read_pages

    paths = write_pages_corpus(
        _corpus_dir("golden", _GOLDEN_PAGES), _GOLDEN_PAGES, shard_rows=10)
    return _warc_ts_us(kg_triples(read_pages(paths)))


def queries() -> dict[str, Callable[[str], Any]]:
    from kgray.pipelines import multimodal as M
    from kgray.pipelines import relational as R
    from kgray.pipelines import simsearch as S
    from kgray.pipelines import textproc as T

    return {
        # --- relational operator suite (SURVEY.md §2 mappings) ---
        "filter_regex": R.filter_regex,          # M1
        "window_agg": R.window_agg,              # O3
        "groupby_sum": R.groupby_sum,            # A1 (partial/combiner)
        "topk_orders": R.topk_orders,            # O1/O2 local+global top-k
        "broadcast_join_agg": R.broadcast_join_agg,  # §2.4 broadcast join
        "hash_join_agg": R.hash_join_agg,        # §2.4 big-big shuffle join
        "anti_join": R.anti_join,                # §2.7 EXCEPT shape
        "semi_join": R.semi_join,                # §2.4 existence join
        "distinct_pairs": R.distinct_pairs,      # §2.7 exact distinct
        "union_agg": R.union_agg,                # A2 union of branches
        "salted_groupby": R.salted_groupby,      # A4 skew-salted two-phase
        "scalar_funcs": R.scalar_funcs,          # §2.8 scalar catalog
        "diff_ops": R.diff_ops,                  # §2.4 snapshot-diff anti-join
        "tumbling_window": R.tumbling_window,    # windowed aggregate
        "sessionize": R.sessionize,              # gap-based sessionization
        "asof_join": R.asof_join_events,         # temporal as-of join
        "range_join": R.range_join_events,       # interval-containment join
        # --- training-data text ops ---
        "dedup_exact": T.dedup_exact,
        "dedup_normalized": T.dedup_normalized,
        "token_stats": T.token_stats,
        "quality_score": T.quality_score,
        "lang_id": T.lang_id,
        "ngram_jaccard": T.ngram_jaccard_pairs,
        # expected-table oracled (kgray.expected computes the truth tables
        # sequentially; the SQL restates them as read_parquet selects):
        "minhash_lsh": _with_expected(T.minhash_lsh_pairs),
        "simhash": _with_expected(T.simhash_signatures),
        "simhash_pairs": _with_expected(T.simhash_pairs),
        "fingerprints": _with_expected(T.fingerprints),
        # --- multimodal (binary payloads; synthetic codecs, real plumbing;
        #     payloads project to sha1 for the driver compare) ---
        "media_features": _with_expected(_media_features),
        "media_resize": _with_expected(_media_resize),
        "frame_sample": _with_expected(_frame_sample),
        "audio_features": _with_expected(M.audio_features),
        # --- similarity search ---
        "knn_brute": S.knn_brute,
        "knn_ivf": _with_expected(S.knn_ivf),
        "neardup_cosine": S.neardup_cosine,
        "label_stats": S.label_stats,
        # --- KG flagship (synthetic pages corpus).  DuckDB-oracled via the
        #     kernel-produced raw-ops table (fixtures.write_raw_ops_corpus):
        #     the SQL restates the relational tail (canonical dedup,
        #     serialization, parity diff) independently ---
        "kg_triples": _kg_triples_query,
        "kg_golden": _kg_golden,                 # independent-extractor oracle
        "kg_commands": _kg_commands,
        "kg_diff": _kg_diff,
        "kg_blocks": _kg_blocks,                 # A1 per-entity block render
        "kg_changelog": _kg_changelog,           # newest-first change log
        "ttl_parse": _ttl_parse,                 # M12 TTL codec round-trip
    }


def oracle_sql() -> dict[str, str]:
    from kgray.expected import SCALE_KEY_SQL as _XKEY
    from kgray.expected import ensure_expected
    from kgray.expected import expected_glob as _xglob
    from kgray.fixtures import RAW_DIRNAME, TTL_DIRNAME
    from kgray.pipelines.relational import (
        HIGH_PRICE, REGEX_PATTERN, SESSION_GAP_MIN, SHIP_CUTOFF, TOPK_N,
        UNION_PRICE, WINDOW_END, WINDOW_START,
    )

    SESSION_GAP_US = SESSION_GAP_MIN * 60 * 1_000_000
    from kgray.pipelines.simsearch import N_QUERIES, NEARDUP_SIM, TOP_K
    from kgray.pipelines.textproc import JACCARD_THRESHOLD, WS_PATTERN_SQL

    # The KG oracles read the kernel-produced raw-ops parquet (the shared
    # table; see fixtures.raw_ops_table).  Ensure it exists for the driver's
    # correctness scales: cheap resume-skip once written.  sf0.001 is small
    # enough to write sequentially; sf0.01 only when Ray can parallelize.
    try:
        import ray as _ray

        _ensure_ttl("/root/testdata/sf0.001")  # also ensures raw
        if _ray.is_initialized():
            _ensure_ttl("/root/testdata/sf0.01")
        for _sf in ("sf0.001", "sf0.01"):
            ensure_expected(f"/root/testdata/{_sf}")
    except Exception:
        pass  # oracle strings are still valid; the query side also ensures

    # corpus selector: the SQL gets no sf parameter, so the right cached
    # corpus is picked by the registered views' own row count (orders is
    # 1500 / 15000 at sf0.001 / 0.01 -> 240 / 1200 pages) and the n_pages
    # column stamped into every raw-ops row.  The kg_* oracles are only
    # valid at sf0.001 / sf0.01; any other scale maps to the impossible
    # sentinel -1 so the oracle comes back EMPTY and fails loudly instead
    # of silently comparing against the wrong corpus.
    raw_glob = f"{_CORPUS_ROOT}/*/{RAW_DIRNAME}/raw-*.parquet"
    kg_raw = f"""
        SELECT * FROM read_parquet('{raw_glob}')
        WHERE n_pages = (SELECT CASE count(*) WHEN 1500 THEN 240
                                WHEN 15000 THEN 1200 ELSE -1 END
                         FROM orders)
    """
    # canonicalize restated: one surviving row per triple key, survivor =
    # lexicographically smallest (warc_ts, src_url) lineage (stages/
    # canonicalize.py semantics, restated independently as a window rank)
    kg_canon = f"""
        SELECT * FROM ({kg_raw})
        QUALIFY row_number() OVER (
            PARTITION BY op, subj, pred, obj, lang, datatype, obj_type
            ORDER BY warc_ts, src_url) = 1
    """

    # serialization restated once, shared by kg_commands / kg_blocks /
    # kg_changelog (expects an `esc` = quote-escaped obj column in scope)
    kg_cmd_expr = """op || ' DATA { ' || subj || ' '
            || CASE WHEN pred = 'rdf:type' THEN 'a' ELSE pred END || ' '
            || CASE WHEN obj_type <> 'literal' THEN obj
                    WHEN lang <> '' THEN '"' || esc || '"@' || lang
                    WHEN datatype <> '' THEN
                        '"' || replace(esc, '+00:00', 'Z') || '"^^' || datatype
                    ELSE '"' || esc || '"' END
            || ' . };'"""
    kg_cmdrows = rf"""
        SELECT regexp_extract(src_url, '/wiki/(Q\d+)[?]', 1) AS entity,
               CAST(regexp_extract(src_url, 'old=(\d+)&', 1) AS BIGINT) AS old_rev,
               CAST(regexp_extract(src_url, 'rev=(\d+)$', 1) AS BIGINT) AS rev,
               src_url, epoch_us(warc_ts) AS warc_ts_us, op,
               {kg_cmd_expr} AS command
        FROM (SELECT *, replace(obj, '"', '\"') AS esc FROM ({kg_canon}))
    """

    norm = "trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))"
    return {
        "filter_regex": f"""
            SELECT doc_id, lang, n_chars FROM documents
            WHERE regexp_matches(text, '{REGEX_PATTERN}') AND lang = 'en'
        """,
        "window_agg": f"""
            SELECT event_type, count(*) AS n_events, ROUND(SUM(value), 2) AS sum_value
            FROM events
            WHERE ts >= TIMESTAMP '{WINDOW_START}' AND ts < TIMESTAMP '{WINDOW_END}'
            GROUP BY event_type
        """,
        "groupby_sum": f"""
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   CAST(ROUND(SUM(l_extendedprice) * 100, 0) AS BIGINT) AS sum_base_price_c,
                   CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000, 0) AS BIGINT)
                       AS sum_disc_price_e4,
                   count(*) AS count_order
            FROM lineitem WHERE l_shipdate <= TIMESTAMP '{SHIP_CUTOFF}'
            GROUP BY l_returnflag, l_linestatus
        """,
        "topk_orders": f"""
            SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT {TOPK_N}
        """,
        "broadcast_join_agg": """
            SELECT r_name, count(*) AS n_customers,
                   CAST(ROUND(SUM(c_acctbal) * 100, 0) AS BIGINT) AS sum_acctbal_c
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "hash_join_agg": """
            SELECT c_mktsegment, count(*) AS n_orders,
                   CAST(ROUND(SUM(o_totalprice) * 100, 0) AS BIGINT) AS sum_totalprice_c
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "anti_join": f"""
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_totalprice > {HIGH_PRICE})
        """,
        "semi_join": f"""
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (
                SELECT o_custkey FROM orders WHERE o_totalprice > {HIGH_PRICE})
        """,
        "distinct_pairs": "SELECT DISTINCT lang, source FROM documents",
        "union_agg": f"""
            SELECT o_orderstatus, count(*) AS n FROM (
                SELECT * FROM orders WHERE o_totalprice > {UNION_PRICE}
                UNION ALL
                SELECT * FROM orders
                WHERE o_totalprice <= {UNION_PRICE} AND o_orderpriority = '1-URGENT'
            ) GROUP BY o_orderstatus
        """,
        "salted_groupby": """
            SELECT user_id, count(*) AS n_events, ROUND(SUM(value), 2) AS sum_value
            FROM events GROUP BY user_id
        """,
        "scalar_funcs": """
            SELECT p_partkey, upper(p_name) AS name_upper,
                   replace(p_type, ' ', '_') AS type_key,
                   length(p_name) AS name_len,
                   regexp_extract(p_brand, '[0-9]+') AS brand_num
            FROM part
        """,
        "diff_ops": """
            SELECT doc_id, 'INSERT' AS op FROM (
                SELECT doc_id FROM documents WHERE doc_id % 2 <> 0
                EXCEPT SELECT doc_id FROM documents WHERE doc_id % 3 <> 0)
            UNION ALL
            SELECT doc_id, 'DELETE' AS op FROM (
                SELECT doc_id FROM documents WHERE doc_id % 3 <> 0
                EXCEPT SELECT doc_id FROM documents WHERE doc_id % 2 <> 0)
        """,
        "tumbling_window": """
            SELECT event_type, epoch_us(CAST(date_trunc('day', ts) AS TIMESTAMP)) AS win_start_us,
                   count(*) AS n, ROUND(SUM(value), 2) AS sum_value
            FROM events GROUP BY event_type, win_start_us
        """,
        "sessionize": f"""
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events),
            d AS (SELECT user_id, ts_us,
                    CASE WHEN lag(ts_us) OVER (PARTITION BY user_id ORDER BY ts_us)
                              IS NULL
                           OR ts_us - lag(ts_us) OVER (PARTITION BY user_id
                                                       ORDER BY ts_us)
                              > {SESSION_GAP_US} THEN 1 ELSE 0 END AS is_start
                  FROM e),
            s AS (SELECT user_id, ts_us,
                    CAST(SUM(is_start) OVER (PARTITION BY user_id ORDER BY ts_us
                                             ROWS UNBOUNDED PRECEDING) - 1
                         AS BIGINT) AS session_id
                  FROM d)
            SELECT user_id, session_id, min(ts_us) AS session_start_us,
                   max(ts_us) AS session_end_us, count(*) AS n_events
            FROM s GROUP BY user_id, session_id
        """,
        "asof_join": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_type
                       FROM events),
            l AS (SELECT * FROM e WHERE event_type <> 'signup'),
            r AS (SELECT user_id, ts_us AS state_ts_us FROM e
                  WHERE event_type = 'signup')
            SELECT l.user_id, l.ts_us, l.event_type, r.state_ts_us
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.user_id AND l.ts_us >= r.state_ts_us
        """,
        "range_join": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, event_type
                       FROM events),
            l AS (SELECT DISTINCT user_id, ts_us FROM e),
            w AS (SELECT user_id, ts_us - 3600000000 AS ws,
                         ts_us + 3600000000 AS we
                  FROM e WHERE event_type = 'error')
            SELECT l.user_id, l.ts_us, count(w.ws) AS n_windows
            FROM l LEFT JOIN w
              ON l.user_id = w.user_id AND l.ts_us BETWEEN w.ws AND w.we
            GROUP BY l.user_id, l.ts_us
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_hash, min(doc_id) AS keep_id,
                   count(*) AS dup_cnt
            FROM documents GROUP BY md5(text)
        """,
        "dedup_normalized": f"""
            SELECT md5({norm}) AS text_hash, min(doc_id) AS keep_id,
                   count(*) AS dup_cnt
            FROM documents GROUP BY md5({norm})
        """,
        "token_stats": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE length(string_split_regex(trim(text), '\s+')) END AS n_tokens,
                   length(text) AS text_len
            FROM documents
        """,
        "quality_score": r"""
            SELECT doc_id,
                   length(lower(text)) - length(regexp_replace(lower(text), '[a-z]', '', 'g')) AS alpha_cnt,
                   length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS digit_cnt,
                   length(text) - length(regexp_replace(text, '\s', '', 'g')) AS space_cnt,
                   length(regexp_extract_all(lower(text), '\b(the|a|of|and|to)\b')) AS stop_cnt
            FROM documents
        """,
        "lang_id": r"""
            WITH s AS (
                SELECT lang,
                    length(regexp_extract_all(lower(text), '\b(the|and|of|to|in|is)\b')) AS en_s,
                    length(regexp_extract_all(lower(text), '\b(le|la|les|et|des|une)\b')) AS fr_s,
                    length(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|nicht)\b')) AS de_s,
                    length(regexp_extract_all(lower(text), '\b(el|los|las|y|una|que)\b')) AS es_s
                FROM documents)
            SELECT lang,
                   CASE WHEN en_s + fr_s + de_s + es_s = 0 THEN 'other'
                        WHEN en_s >= fr_s AND en_s >= de_s AND en_s >= es_s THEN 'en'
                        WHEN fr_s >= de_s AND fr_s >= es_s THEN 'fr'
                        WHEN de_s >= es_s THEN 'de'
                        ELSE 'es' END AS lang_pred,
                   count(*) AS n
            FROM s GROUP BY lang, lang_pred
        """,
        "ngram_jaccard": f"""
            WITH toks AS (
                -- tokenizer restated on the SHARED explicit whitespace
                -- class (textproc.WS_PATTERN_SQL): DuckDB RE2's \\s is
                -- narrower than the pipeline's Python-\\s set (ADVICE r4
                -- #1), and empty fragments from leading/trailing
                -- whitespace are filtered exactly like the pipeline does
                SELECT doc_id, source,
                       list_distinct(list_filter(
                           string_split_regex(text, '{WS_PATTERN_SQL}'),
                           x -> x <> '')) AS t
                FROM documents)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   length(list_intersect(a.t, b.t)) AS inter_cnt,
                   length(list_distinct(list_concat(a.t, b.t))) AS union_cnt
            FROM toks a JOIN toks b ON a.source = b.source AND a.doc_id < b.doc_id
            WHERE length(list_intersect(a.t, b.t)) > 0
              AND length(list_intersect(a.t, b.t)) * 1.0
                  / length(list_distinct(list_concat(a.t, b.t))) >= {JACCARD_THRESHOLD}
        """,
        # --- expected-table oracles (kgray.expected; scale selected via
        #     the orders-count key, unmapped scales fail loudly on -1) ---
        "simhash": f"""
            SELECT doc_id, simhash FROM read_parquet('{_xglob("simhash")}')
            WHERE scale_key = {_XKEY}
        """,
        "simhash_pairs": f"""
            SELECT doc_a, doc_b, hamming
            FROM read_parquet('{_xglob("simhash_pairs")}')
            WHERE scale_key = {_XKEY}
        """,
        "fingerprints": f"""
            SELECT doc_id, fingerprint
            FROM read_parquet('{_xglob("fingerprints")}')
            WHERE scale_key = {_XKEY}
        """,
        "minhash_lsh": f"""
            SELECT doc_a, doc_b, jac FROM read_parquet('{_xglob("minhash_lsh")}')
            WHERE scale_key = {_XKEY}
        """,
        "knn_ivf": f"""
            SELECT query_id, neighbor_id, sim
            FROM read_parquet('{_xglob("knn_ivf")}')
            WHERE scale_key = {_XKEY}
        """,
        "media_features": f"""
            SELECT media_id, byte_len, sha1, mean_px, hist_csv
            FROM read_parquet('{_xglob("media_features")}')
            WHERE scale_key = {_XKEY}
        """,
        "media_resize": f"""
            SELECT media_id, payload_sha1, width, height
            FROM read_parquet('{_xglob("media_resize")}')
            WHERE scale_key = {_XKEY}
        """,
        "frame_sample": f"""
            SELECT media_id, frame_idx, payload_sha1
            FROM read_parquet('{_xglob("frame_sample")}')
            WHERE scale_key = {_XKEY}
        """,
        "audio_features": f"""
            SELECT media_id, n_samples, rms, zero_crossings
            FROM read_parquet('{_xglob("audio_features")}')
            WHERE scale_key = {_XKEY}
        """,
        "knn_brute": f"""
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
                 q AS (SELECT vec_id AS qid, v AS qv FROM e WHERE vec_id < {N_QUERIES})
            SELECT qid AS query_id, vec_id AS neighbor_id,
                   ROUND(list_cosine_similarity(qv, v), 4) AS sim
            FROM q, e WHERE vec_id <> qid
            QUALIFY row_number() OVER (
                PARTITION BY qid
                ORDER BY list_cosine_similarity(qv, v) DESC, vec_id) <= {TOP_K}
        """,
        "neardup_cosine": f"""
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   ROUND(list_cosine_similarity(a.v, b.v), 4) AS sim
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= {NEARDUP_SIM}
        """,
        "label_stats": """
            SELECT CAST(label AS BIGINT) AS label, count(*) AS n,
                   ROUND(AVG(sqrt(list_aggregate(
                       list_transform(CAST(embedding AS DOUBLE[]), x -> x * x),
                       'sum'))), 4) AS avg_norm
            FROM embeddings GROUP BY label
        """,
        # --- KG flagship: relational tail restated over the shared
        #     kernel-produced raw-ops table (see kg_raw above) ---
        "kg_triples": f"""
            SELECT subj, pred, obj, obj_type, lang, datatype, src_url,
                   epoch_us(warc_ts) AS warc_ts_us, op
            FROM ({kg_canon})
        """,
        # frozen output of the independent second-implementation extractor
        # (scripts/golden_extract.py; checked in, reviewed on regeneration)
        "kg_golden": f"""
            SELECT * FROM read_parquet('{_GOLDEN_PARQUET}')
        """,
        # serialization restated: triple_to_command + format_object
        # (kernels/rdf.py) as SQL string building.  subj/pred/datatype are
        # stored prefix-compacted and iri objects are stored in final form
        # (prefixed or <bracketed>), so only the literal branch needs work:
        # quote-escape, then lang / datatype(+00:00->Z) / plain.
        "kg_commands": f"""
            SELECT command FROM ({kg_cmdrows})
        """,
        # A1 block render: per-page header + command-sorted string_agg; the
        # header is the reference's golden block contract
        # (sparql_updates.py:443 / sample_result.txt)
        "kg_blocks": f"""
            SELECT entity, old_rev, rev, warc_ts_us, count(*) AS n_commands,
                   'changes for entity: ' || entity || ' between old_revid: '
                       || CAST(old_rev AS VARCHAR) || ' and new_revid: '
                       || CAST(rev AS VARCHAR) || chr(10) || chr(10)
                       || string_agg(command, chr(10) ORDER BY command) AS block
            FROM ({kg_cmdrows})
            GROUP BY entity, old_rev, rev, warc_ts_us, src_url
        """,
        # newest-first change log (content check; ordering is a sort key)
        "kg_changelog": f"""
            SELECT warc_ts_us, entity, op, command FROM ({kg_cmdrows})
        """,
        # parity snapshot diff restated: entity/rev from src_url, M17
        # filters, DISTINCT per side, EXCEPT both directions; an IRI and a
        # literal of the same spelling are different triples
        "kg_diff": rf"""
            WITH snap AS (
                SELECT DISTINCT
                       regexp_extract(src_url, '/wiki/(Q\d+)[?]', 1) AS entity,
                       CAST(regexp_extract(src_url, 'rev=(\d+)$', 1) AS BIGINT) % 2
                           AS parity,
                       subj, pred, obj, lang, datatype, obj_type
                FROM ({kg_canon})
            ),
            filt AS (
                SELECT * FROM snap
                WHERE subj NOT LIKE '%/owl#%' AND pred NOT LIKE '%/owl#%'
                  AND obj NOT LIKE '%/owl#%'
                  AND subj NOT LIKE 'wd:P%'
                  AND NOT (subj LIKE 'wd:Q%' AND subj <> 'wd:' || entity)
            ),
            oldx AS (SELECT entity, subj, pred, obj, lang, datatype, obj_type
                     FROM filt WHERE parity = 0),
            newx AS (SELECT entity, subj, pred, obj, lang, datatype, obj_type
                     FROM filt WHERE parity = 1)
            SELECT *, 'INSERT' AS op FROM (SELECT * FROM newx EXCEPT SELECT * FROM oldx)
            UNION ALL
            SELECT *, 'DELETE' AS op FROM (SELECT * FROM oldx EXCEPT SELECT * FROM newx)
        """,
        # M12 round-trip: the Ray side parses serialized TTL docs; the
        # oracle reads the independent pre-serialization triples table
        "ttl_parse": f"""
            SELECT entity, subj, pred, obj, obj_type, lang, datatype
            FROM read_parquet('{_CORPUS_ROOT}/*/{TTL_DIRNAME}/ttl_expected.parquet')
            WHERE n_pages = (SELECT CASE count(*) WHEN 1500 THEN 240
                                    WHEN 15000 THEN 1200 ELSE -1 END
                             FROM orders)
        """,
    }

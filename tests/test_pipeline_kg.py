"""End-to-end flagship pipeline tests (SURVEY.md §5 items 2-3).

Runs the Ray pipeline over the deterministic corpus and compares the triple
set against the single-threaded reference-semantics oracle, order-insensitive
(P/R target >= 0.95 per BASELINE.json; shared kernels should give 1.0)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from kgray.fixtures import aliases_table, write_pages_corpus
from kgray.oracle import oracle_triples, precision_recall
from kgray.pipelines.kg import kg_triples, read_pages, run_kg_pipeline


def _pages_rows(paths):
    rows = []
    for p in paths:
        rows.extend(pq.read_table(p).to_pylist())
    return rows


def _triples(tbl) -> set:
    """The oracle's triple key for every row of an ops DataFrame."""
    return set(zip(tbl["op"], tbl["subj"], tbl["pred"], tbl["obj"],
                   tbl["lang"], tbl["datatype"]))


def test_pipeline_matches_oracle(ray_session, small_corpus):
    # the extract stage raises on any page whose text != extract(html), so
    # a clean run is also the positive byte-identity check per url
    got_tbl = kg_triples(read_pages(small_corpus)).to_pandas()
    got = _triples(got_tbl)
    expected = oracle_triples(_pages_rows(small_corpus), aliases_table().to_pylist())
    p, r = precision_recall(got, expected)
    assert p >= 0.95 and r >= 0.95, (p, r, len(got), len(expected))
    # shared kernels -> should actually be exact
    assert p == 1.0 and r == 1.0
    # canonicalize produced a set: no duplicate triple identities
    assert len(got) == len(got_tbl)


def test_materialize_and_resume(ray_session, small_corpus, tmp_path):
    out = tmp_path / "triples"
    m1 = run_kg_pipeline(small_corpus, str(out))
    assert m1["rows"] > 0 and m1["files"]
    t = pq.read_table(str(out / m1["files"][0]))
    # sorted by (pred, subj, obj)
    import pyarrow.compute as pc

    preds = t["pred"].to_pylist()
    assert preds == sorted(preds)
    # link counters from the accumulator side channel (north rule: link
    # metrics in the partition manifest; unresolved blocks are invisible
    # in the output, so only the stage-side counters can know them)
    link = m1["metrics"]["link"]
    assert link["mention_blocks"] > 0 and link["mentions_linked"] > 0
    assert link["mentions_per_block"] == round(
        link["mentions_linked"] / link["mention_blocks"], 4)
    # extract, link, assemble and the dedup combiner run as ONE fused task
    # operator: an actor (or any non-fusable) link stage would split it
    fused = [s["stage"] for s in m1["stages"] if "link_batch" in s["stage"]]
    assert len(fused) == 1, m1["stages"]
    assert "extract_batch" in fused[0] and "assemble_batch" in fused[0]
    assert fused[0].endswith("MapBatches(combine)")
    # resume: second run with an existing valid manifest skips the write
    m2 = run_kg_pipeline(small_corpus, str(out))
    assert m2 == m1


def test_fused_operator_runs_one_task_per_read_block(ray_session, small_corpus,
                                                     tmp_path):
    """No stage fused with extract passes a Ray ``batch_size``, so the
    fused page operator runs one task per read block; a ``batch_size``
    there becomes the fused task's input-bundle minimum in pages (65,536
    from the combiner once ran the whole corpus as one task)."""
    m = run_kg_pipeline(small_corpus, str(tmp_path / "triples"))
    fused = [s for s in m["stages"] if "extract_batch" in s["stage"]]
    assert len(fused) == 1, m["stages"]
    read_blocks = read_pages(small_corpus).materialize().num_blocks()
    assert read_blocks >= len(small_corpus)
    assert fused[0]["tasks"] == read_blocks, m["stages"]


def test_manifest_records_each_exchange_operator(ray_session, small_corpus,
                                                 tmp_path):
    """The manifest lists every operator with its own wall time, an
    exchange's SortMap and SortReduce included: the flagship runs one
    exchange, canonicalize's range sort, whose last dedup pass fuses with
    the write, and no operator's wall exceeds the whole write's."""
    m = run_kg_pipeline(small_corpus, str(tmp_path / "triples"))
    names = [s["stage"] for s in m["stages"]]
    assert names.count("SortMap") == names.count("SortReduce") == 1, names
    assert names[-3:] == ["SortMap", "SortReduce",
                          "MapBatches(per_partition)->Write"], names
    assert all(0 <= s["wall_sec"] <= m["write_sec"] for s in m["stages"]), (
        m["stages"], m["write_sec"])


def test_manifest_stage_rows_show_the_exchange_yield(ray_session,
                                                     small_corpus, tmp_path):
    """Each stage record carries its output rows and bytes: every combiner
    row enters the exchange, and the final dedup pass drops the
    cross-block duplicates among them."""
    m = run_kg_pipeline(small_corpus, str(tmp_path / "triples"))
    fused = next(s for s in m["stages"] if "extract_batch" in s["stage"])
    reduce = next(s for s in m["stages"] if s["stage"] == "SortReduce")
    assert fused["rows_out"] == reduce["rows_out"] >= m["rows"] > 0
    assert all(s["bytes_out"] > 0 for s in m["stages"]), m["stages"]


def test_manifest_stage_ledger(ray_session, small_corpus, tmp_path):
    """Each stage record carries its CPU and UDF seconds and its output
    block count from Ray's block stats.  Ray keeps one task record for a
    whole AllToAll operator, so SortMap and SortReduce record no task
    count; the exchange's width shows as SortReduce's blocks, one per
    block entering the sort."""
    m = run_kg_pipeline(small_corpus, str(tmp_path / "triples"))
    stages = {s["stage"]: s for s in m["stages"]}
    fused = next(s for s in m["stages"] if "extract_batch" in s["stage"])
    assert stages["SortMap"]["tasks"] is None
    assert stages["SortReduce"]["tasks"] is None
    assert stages["SortReduce"]["blocks_out"] == fused["blocks_out"] > 1
    assert fused["tasks"] >= 1, m["stages"]
    assert all(s["cpu_sec"] >= 0 and s["udf_sec"] >= 0
               for s in m["stages"]), m["stages"]


def test_lazy_and_write_paths_run_one_plan(ray_session, small_corpus,
                                           tmp_path):
    """A lazy ``kg_triples(...)`` below the hash threshold runs the
    write's plan: its output carries neither exchange key, and its blocks,
    read in exchange order, are the written rows in the written order."""
    from kgray.stages.canonicalize import ORDER_COLS
    from kgray.stages.shuffle import BUCKET_COL

    m = run_kg_pipeline(small_corpus, str(tmp_path / "triples"))
    written = pa.concat_tables(
        pq.read_table(str(tmp_path / "triples" / f)) for f in m["files"])
    ds = kg_triples(read_pages(small_corpus))
    ds.context.execution_options.preserve_order = True
    blocks = ray_session.get(ds.materialize().to_arrow_refs())
    assert len(blocks) > 1
    names = blocks[0].column_names
    assert BUCKET_COL not in names and not set(ORDER_COLS) & set(names)
    assert pa.concat_tables(blocks).equals(written)


def test_files_concatenate_in_key_order(ray_session, small_corpus, tmp_path,
                                        monkeypatch):
    """The written files, read in name order, are one total order: sorted
    by (pred, subj, obj) and then the rest of the dedup key, nulls last,
    and the same rows in the same order however many files the writer
    splits them into."""
    import pyarrow.compute as pc

    from kgray.stages import materialize
    from kgray.stages.canonicalize import KEY_ORDER

    def written(out_dir):
        m = run_kg_pipeline(small_corpus, str(out_dir))
        assert m["files"] == sorted(m["files"])
        return len(m["files"]), pa.concat_tables(
            pq.read_table(str(out_dir / f)) for f in m["files"])

    n_one, one = written(tmp_path / "one")
    monkeypatch.setattr(materialize, "_MIN_ROWS_PER_FILE", 1_000)
    n_many, many = written(tmp_path / "many")
    assert n_one == 1 and n_many > 1, (n_one, n_many)
    order = pc.sort_indices(many, [(c, "ascending") for c in KEY_ORDER],
                            null_placement="at_end")
    assert many.take(order).equals(many)
    assert many.equals(one)


def test_clean_runs_write_identical_files(ray_session, small_corpus, tmp_path):
    """Two clean runs of one corpus write the same rows in the same order:
    canonicalize emits each partition in key order, a total order on the
    deduped rows, so no tie is left to the order rows arrive in."""
    def written(out_dir):
        m = run_kg_pipeline(small_corpus, str(out_dir))
        return [pq.read_table(str(out_dir / f)) for f in m["files"]]

    a = written(tmp_path / "a")
    b = written(tmp_path / "b")
    assert len(a) == len(b) and all(x.equals(y) for x, y in zip(a, b))


def test_runs_share_one_accumulator_with_exact_counts(ray_session, small_corpus,
                                                     tmp_path):
    """One counter actor per driver job serves every run; each run adds
    under its own key and pops it, so counts never carry over."""
    from kgray.stages import metrics

    a = run_kg_pipeline(small_corpus, str(tmp_path / "a"))
    actors = list(metrics._ACCUMULATOR.values())
    b = run_kg_pipeline(small_corpus, str(tmp_path / "b"))
    assert len(actors) == 1 and list(metrics._ACCUMULATOR.values()) == actors
    assert a["metrics"]["link"] == b["metrics"]["link"]
    assert a["metrics"]["link"]["mention_blocks"] == 120

    one, two = metrics.run_counters(), metrics.run_counters()
    assert one.actor is two.actor is actors[0] and one.run != two.run
    one.add({"mention_blocks": 2})
    one.add({"mention_blocks": 3})
    assert two.pop() == {}
    assert one.pop() == {"mention_blocks": 5}
    assert one.pop() == {}


def test_slicing_does_not_change_output():
    """extract slices a block inside the function to bound the per-call
    heap, and assemble is row-local: the output of either is the
    concatenation of its calls on slices of the block."""
    from kgray.fixtures import gen_pages_table
    from kgray.stages import assemble, extract

    pages = gen_pages_table(300)
    raw = extract.extract_batch(pages)
    n = extract._SLICE_PAGES
    assert len(pages) > 2 * n
    assert raw.equals(pa.concat_tables(
        [extract.extract_batch(pages.slice(i, n)) for i in range(0, len(pages), n)]))

    raw = pa.concat_tables([raw] * 3)
    n = 4096
    assert len(raw) > 2 * n
    ops = assemble.assemble_batch(raw)
    assert ops.equals(pa.concat_tables(
        [assemble.assemble_batch(raw.slice(i, n)) for i in range(0, len(raw), n)]))


def test_truncated_output_recomputes(ray_session, small_corpus, tmp_path):
    """A manifest validates only against its files' byte sizes and parquet
    footers: a truncated output file, or one rewritten with the same row
    count in a different size, makes the partition recompute, with the
    same rows as the clean run."""
    import os

    from kgray.stages.materialize import is_complete

    out = tmp_path / "triples"
    m1 = run_kg_pipeline(small_corpus, str(out))
    assert sum(m1["file_rows"].values()) == m1["rows"]
    assert m1["file_bytes"] == {
        f: os.path.getsize(out / f) for f in m1["files"]}
    before = sorted(pq.read_table(str(out)).to_pylist(), key=repr)
    victim = out / m1["files"][0]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    assert not is_complete(str(out))

    m2 = run_kg_pipeline(small_corpus, str(out))
    assert is_complete(str(out))
    assert m2["rows"] == m1["rows"]
    assert sorted(pq.read_table(str(out)).to_pylist(), key=repr) == before

    victim = out / m2["files"][0]
    pq.write_table(pq.read_table(victim), victim, compression="none")
    assert pq.read_metadata(victim).num_rows == m2["file_rows"][victim.name]
    assert os.path.getsize(victim) != m2["file_bytes"][victim.name]
    assert not is_complete(str(out))

    m3 = run_kg_pipeline(small_corpus, str(out))
    assert is_complete(str(out))
    assert m3["rows"] == m1["rows"]
    assert sorted(pq.read_table(str(out)).to_pylist(), key=repr) == before


def test_console_sink(ray_session, small_corpus, capsys):
    """S6: bounded debug preview — n command lines, golden shape."""
    from kgray.stages.serialize import console_sink

    n = console_sink(kg_triples(read_pages(small_corpus)), n=5)
    out = capsys.readouterr().out.strip().splitlines()
    assert n == 5 and len(out) == 5
    assert all(l.startswith(("INSERT DATA { ", "DELETE DATA { ")) for l in out)


def test_write_conformance_file(ray_session, tmp_path):
    """S5: the prefix header, one blank line, then one command per ops
    row in row order; the returned count is the row count."""
    from kgray.kernels.rdf import PREFIX_HEADER
    from kgray.schema import OPS
    from kgray.stages.serialize import write_conformance_file

    rows = [
        ("wdt:P31", "wd:Q5", "iri", "", "", "INSERT"),
        ("rdfs:label", 'Douglas "DNA" Adams', "literal", "en", "", "DELETE"),
        ("wdt:P569", "1952-03-11T00:00:00+00:00", "literal", "",
         "xsd:dateTime", "INSERT"),
        ("rdf:type", "wikibase:Item", "iri", "", "", "INSERT"),
    ]
    ops = pa.Table.from_pylist(
        [dict(subj="wd:Q42", pred=p, obj=o, obj_type=t, lang=lg, datatype=d,
              src_url="u", warc_ts=None, op=op)
         for p, o, t, lg, d, op in rows], schema=OPS)
    path = tmp_path / "changes.sparql"
    n = write_conformance_file(ray_session.data.from_arrow(ops), str(path))
    assert n == len(rows)
    assert path.read_text() == PREFIX_HEADER + "\n\n" + "".join(
        line + "\n" for line in [
            "INSERT DATA { wd:Q42 wdt:P31 wd:Q5 . };",
            'DELETE DATA { wd:Q42 rdfs:label "Douglas \\"DNA\\" Adams"@en . };',
            'INSERT DATA { wd:Q42 wdt:P569 "1952-03-11T00:00:00Z"^^xsd:dateTime . };',
            "INSERT DATA { wd:Q42 a wikibase:Item . };",
        ])


def test_partitioned_run_and_per_partition_resume(ray_session, small_corpus, tmp_path):
    """North rule: per-partition lineage manifests + checkpoint-resume at
    partition granularity; stage metrics recorded per partition."""
    import json
    import os

    from kgray.pipelines.kg import run_kg_pipeline_partitioned

    out = str(tmp_path / "parts")
    m1 = run_kg_pipeline_partitioned(small_corpus, out, shards_per_partition=2)
    assert len(m1) == 2  # 3 shards of 40 pages -> partitions of 2+1
    assert all(not m.get("resumed") for m in m1.values())
    for d, m in m1.items():
        assert os.path.exists(os.path.join(d, "_manifest.json"))
        assert m["rows"] > 0
        assert m["metrics"]["docs"] > 0
        assert any(s["stage"].startswith("MapBatches") for s in m["stages"])
        # the shared accumulator keeps each partition's counts its own
        assert m["metrics"]["link"]["mention_blocks"] == m["metrics"]["docs"]
    assert sorted(m["metrics"]["docs"] for m in m1.values()) == [40, 80]

    # sabotage nothing; rerun must resume every partition untouched
    m2 = run_kg_pipeline_partitioned(small_corpus, out, shards_per_partition=2)
    assert all(m.get("resumed") for m in m2.values())

    # invalidate one partition -> only that one recomputes
    victim = sorted(m1)[0]
    os.remove(os.path.join(victim, "_manifest.json"))
    m3 = run_kg_pipeline_partitioned(small_corpus, out, shards_per_partition=2)
    assert not m3[victim].get("resumed")
    assert all(m.get("resumed") for d, m in m3.items() if d != victim)
    assert m3[victim]["rows"] == m1[victim]["rows"]


def test_drift_raises(ray_session, tmp_path):
    """A corrupted text cell must fail the run loudly, not drift silently."""
    import pyarrow.parquet as _pq
    import pytest as _pytest

    from kgray import schema as _schema
    from kgray.fixtures import gen_pages_table

    t = gen_pages_table(10)
    texts = t["text"].to_pylist()
    texts[3] = texts[3] + " CORRUPTED"
    t = t.set_column(t.column_names.index("text"), "text",
                     pa.array(texts, pa.large_string()))
    p = tmp_path / "bad.parquet"
    _pq.write_table(t.cast(_schema.PAGES), str(p))
    with _pytest.raises(Exception, match="text extraction drift"):
        kg_triples(read_pages([str(p)])).materialize()


def test_empty_input(ray_session, tmp_path):
    """Zero-row input -> zero-row output, no crash anywhere in the DAG."""
    import pyarrow.parquet as _pq

    from kgray import schema as _schema

    p = tmp_path / "empty.parquet"
    _pq.write_table(_schema.PAGES.empty_table(), str(p))
    assert kg_triples(read_pages([str(p)])).count() == 0


def test_linker_skew_page(ray_session, tmp_path):
    """One page with a pathological body text (thousands of ambiguous alias
    surfaces in a single paragraph) flows through the fused link stage
    without stalling or erroring, and its mentions resolve by context —
    the backpressure probe of VERDICT r2 next-round #10.  The skewed page
    is one batch task; its cost must stay bounded by the
    matcher's O(word_runs x surface_lengths) probe, not alias-table size."""
    import datetime as _dt

    import pyarrow.parquet as _pq

    from kgray import schema as _schema
    from kgray.fixtures import gen_pages_table
    from kgray.kernels.htmltext import extract_text
    t = gen_pages_table(8)
    body = " ".join(["Paris hosts composer organ baroque recitals ."] * 3000)
    html = (
        '<html><body data-entity="Q42" lang="en"><h1 lang="en">Douglas Adams'
        f'</h1><p class="body-text">{body}</p></body></html>'
    )
    skew = {
        "url": "https://pages.example.org/wiki/Q42?old=998&rev=999",
        "warc_ts": _dt.datetime(2024, 6, 1),
        "html": html.encode(),
        "text": extract_text(html),
        "lang": "en",
    }
    t = pa.concat_tables([t, pa.Table.from_pylist([skew], schema=_schema.PAGES)])
    p = tmp_path / "skew.parquet"
    _pq.write_table(t, str(p))
    df = kg_triples(read_pages([str(p)])).to_pandas()
    mentions = df[(df["subj"] == "wd:Q42") & (df["pred"] == "schema:mentions")
                  & (df["src_url"].str.contains("rev=999"))]
    # context keywords (composer/organ/baroque) disambiguate Paris -> the
    # composer sense Q1339, not the default-prior city Q90
    assert set(mentions["obj"]) == {"wd:Q1339"}


def test_linker_cache_follows_alias_table(ray_session, small_corpus):
    """Runs in one session with different alias tables: each worker
    process caches ONE linker keyed by the alias broadcast, so a reused
    worker must rebuild it for the next table, not link with the last.
    The pages are split into many more blocks than the session has CPUs,
    and the tables alternate, so runs share worker processes."""
    import ray

    from kgray.stages import link

    pages = _pages_rows(small_corpus)
    base = aliases_table().to_pylist()
    remapped = [dict(r, qid="Q1055") if r["surface_form"] == "Berlin" else r
                for r in base]

    # the cache itself, in this process: one entry, replaced per broadcast
    ref_a, ref_b = ray.put(base), ray.put(remapped)
    first = link._cached_linker(ref_a)
    assert link._cached_linker(ref_a) is first
    assert link._cached_linker(ref_b) is not first
    assert len(link._LINKER) == 1

    got = []
    for alias_rows in (base, remapped, base):
        pages_ds = read_pages(small_corpus).repartition(24)
        g = _triples(kg_triples(pages_ds, alias_rows).to_pandas())
        assert precision_recall(g, oracle_triples(pages, alias_rows)) == (1.0, 1.0)
        got.append(g)
    only_base, only_remapped = got[0] - got[1], got[1] - got[0]
    assert only_base and only_remapped
    assert {(t[2], t[3]) for t in only_base} == {("schema:mentions", "wd:Q64")}
    assert {(t[2], t[3]) for t in only_remapped} == {("schema:mentions", "wd:Q1055")}


def _run_on_own_node(script: str, *, num_cpus: int, store_mib: int,
                     timeout: int) -> None:
    """Run ``script`` in a subprocess that starts its own Ray node with
    ``num_cpus`` CPUs and a ``store_mib`` MiB object store, because the
    test session's Ray has 4 CPUs and a large store.  The subprocess is its
    own process group: on timeout the driver AND the Ray node it started are
    killed, so a hang leaves no processes behind."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    prelude = f"""
import ray
ray.init(address="local", num_cpus={num_cpus},
         object_store_memory={store_mib} * 2**20,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
"""
    # Ray workers import kgray from PYTHONPATH, not from the driver's sys.path
    env = dict(os.environ, PYTHONPATH=repo)
    script = prelude + script + "ray.shutdown()\n"
    proc = subprocess.Popen([sys.executable, "-c", script],
                            cwd=repo, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, err[-2000:]


def _manifest(out_dir) -> dict:
    import json

    with open(out_dir / "_manifest.json") as f:
        return json.load(f)


def test_single_cpu_liveness(tmp_path):
    """The flagship finishes on a 1-CPU Ray node (an actor-pool linker held
    the only CPU and hung it)."""
    out = tmp_path / "out"
    _run_on_own_node(f"""
from kgray.fixtures import write_pages_corpus
from kgray.pipelines.kg import run_kg_pipeline
paths = write_pages_corpus({str(tmp_path / "pages")!r}, 60, shard_rows=20)
run_kg_pipeline(paths, {str(out)!r})
""", num_cpus=1, store_mib=256, timeout=120)
    m = _manifest(out)
    assert m["rows"] > 0
    assert m["metrics"]["link"]["mention_blocks"] == 60


def _diff_keys(ent: str, rows) -> set:
    """The diff's keys of one revision's (subj, pred, obj, obj_type, lang,
    datatype) rows, after the M17 filters restated: no /owl# terms, no wd:P
    subjects, no wd:Q subjects other than the revision's own entity."""
    return {(ent, s, p, o, lg, dt, ot) for s, p, o, ot, lg, dt in rows
            if "/owl#" not in s + p + o and not s.startswith("wd:P")
            and not (s.startswith("wd:Q") and s != f"wd:{ent}")}


def _revision_pairs(n: int, docs_per_file: int, out_dir) -> tuple[dict, set]:
    """``n`` old/new Turtle revision pairs from the fixture pages' triples,
    written as (entity, ttl) parquet files per side, and the exact op set
    the diff must emit.  Every 10th triple is edited in the new revision:
    a literal gets a new value (one DELETE + one INSERT), an IRI object is
    removed (one DELETE)."""
    import re

    from kgray.fixtures import gen_pages_table, raw_ops_table
    from kgray.kernels.ttl import serialize_ttl

    raw = raw_ops_table(gen_pages_table(n))
    per_page: dict[str, set] = {}
    for url, *t in zip(*(raw[c].to_pylist() for c in (
            "src_url", "subj", "pred", "obj", "obj_type", "lang", "datatype"))):
        per_page.setdefault(url, set()).add(tuple(t))
    docs: dict[str, list] = {"old": [], "new": []}
    old_keys: set = set()
    new_keys: set = set()
    for i, url in enumerate(sorted(per_page)):
        ent = re.search(r"/wiki/(Q\d+)\?", url).group(1)
        old = sorted(per_page[url])
        new = []
        for j, (s, p, o, ot, lg, dt) in enumerate(old):
            if (i + j) % 10:
                new.append((s, p, o, ot, lg, dt))
            elif ot == "literal":
                new.append((s, p, f"{o} rev{i}", ot, lg, dt))
        docs["old"].append((ent, serialize_ttl(old)))
        docs["new"].append((ent, serialize_ttl(sorted(new))))
        old_keys |= _diff_keys(ent, old)
        new_keys |= _diff_keys(ent, new)
    paths = {}
    for side, rows in docs.items():
        (out_dir / side).mkdir(parents=True)
        paths[side] = []
        for start in range(0, n, docs_per_file):
            part = rows[start:start + docs_per_file]
            path = str(out_dir / side / f"{side}-{start:06d}.parquet")
            pq.write_table(pa.table({"entity": [e for e, _ in part],
                                     "ttl": [t for _, t in part]}), path)
            paths[side].append(path)
    # one snapshot per side: pages of the same entity share its keys
    return paths, ({("DELETE",) + k for k in old_keys - new_keys}
                   | {("INSERT",) + k for k in new_keys - old_keys})


# Both runs below take ~4 s at 2 CPUs and an 80 MiB object store.  With Ray
# Data's per-operator reservation on, the diff's TTL parse ran one task at a
# time and the diff took 44 s to over 60 s; shuffle.exchange_map turns the
# reservation off under the sort plan.
_SMALL_STORE = dict(num_cpus=2, store_mib=80, timeout=60)


def test_revision_diff_under_small_object_store(tmp_path):
    """600 revision pairs: parse both sides, diff, write; exact op set."""
    paths, expected = _revision_pairs(600, 150, tmp_path / "ttl")
    out = tmp_path / "out"
    _run_on_own_node(f"""
import ray.data as rd
from kgray.stages.diff import diff_snapshots
from kgray.stages.ttl import parse_ttl_stage
old = parse_ttl_stage(rd.read_parquet({paths["old"]!r}))
new = parse_ttl_stage(rd.read_parquet({paths["new"]!r}))
diff_snapshots(old, new).write_parquet({str(out)!r})
""", **_SMALL_STORE)
    t = pq.read_table(str(out))
    got = list(zip(*(t[c].to_pylist() for c in (
        "op", "entity", "subj", "pred", "obj", "lang", "datatype", "obj_type"))))
    assert {k[0] for k in expected} == {"INSERT", "DELETE"}
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_flagship_under_small_object_store(tmp_path):
    """The 120-page, richness-8 flagship; P/R 1.0 against the oracle."""
    corpus = write_pages_corpus(str(tmp_path / "pages"), 120, shard_rows=30,
                                parallel=False, richness=8)
    out = tmp_path / "out"
    _run_on_own_node(f"""
from kgray.pipelines.kg import run_kg_pipeline
run_kg_pipeline({corpus!r}, {str(out)!r})
""", **_SMALL_STORE)
    t = pa.concat_tables(
        [pq.read_table(out / f) for f in _manifest(out)["files"]])
    expected = oracle_triples(_pages_rows(corpus), aliases_table().to_pylist())
    assert precision_recall(_triples(t.to_pydict()), expected) == (1.0, 1.0)


def test_partitioned_run_resume_at_width(ray_session, tmp_path):
    """VERDICT r3 #8 (slow, ~1-2 min): >=16-shard partitioned run with a
    killed partition — resume must skip every finished partition, recompute
    only the victim, and the resumed run's GLOBAL triple set must equal an
    uninterrupted run's."""
    import glob
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    from kgray.fixtures import write_pages_corpus
    from kgray.pipelines.kg import run_kg_pipeline_partitioned

    paths = write_pages_corpus(str(tmp_path / "pages"), 800, shard_rows=50)
    assert len(paths) >= 16

    def triple_set(root):
        t = pq.read_table(
            sorted(glob.glob(os.path.join(root, "part-*", "*.parquet"))))
        cols = ["op", "subj", "pred", "obj", "lang", "datatype", "obj_type"]
        return set(zip(*[t[c].to_pylist() for c in cols]))

    ref_out = str(tmp_path / "ref")
    run_kg_pipeline_partitioned(paths, ref_out, shards_per_partition=1)

    out = str(tmp_path / "run")
    m1 = run_kg_pipeline_partitioned(paths, out, shards_per_partition=1)
    assert len(m1) == 16

    # simulate a partition killed mid-write: data gone, stray tmp left
    victim = sorted(m1)[5]
    shutil.rmtree(victim)
    os.makedirs(victim)
    with open(os.path.join(victim, "_manifest.json.tmp"), "w") as f:
        f.write("{")  # torn write

    m2 = run_kg_pipeline_partitioned(paths, out, shards_per_partition=1)
    assert not m2[victim].get("resumed")
    resumed = [d for d, m in m2.items() if m.get("resumed")]
    assert len(resumed) == 15
    assert m2[victim]["rows"] == m1[victim]["rows"]
    assert triple_set(out) == triple_set(ref_out)

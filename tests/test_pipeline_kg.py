"""End-to-end flagship pipeline tests (SURVEY.md §5 items 2-3).

Runs the Ray pipeline over the deterministic corpus and compares the triple
set against the single-threaded reference-semantics oracle, order-insensitive
(P/R target >= 0.95 per BASELINE.json; shared kernels should give 1.0)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from kgray.fixtures import aliases_table
from kgray.oracle import oracle_triples, precision_recall
from kgray.pipelines.kg import read_pages, run_kg_pipeline


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
    ops = run_kg_pipeline(small_corpus)
    got_tbl = ops.to_pandas()
    got = _triples(got_tbl)
    expected = oracle_triples(_pages_rows(small_corpus), aliases_table().to_pylist())
    p, r = precision_recall(got, expected)
    assert p >= 0.95 and r >= 0.95, (p, r, len(got), len(expected))
    # shared kernels -> should actually be exact
    assert p == 1.0 and r == 1.0
    # canonicalize produced a set: no duplicate triple identities
    assert len(got) == len(got_tbl)


def test_byte_identity_enforced(ray_session, small_corpus):
    # verify_text=True raises inside the extract stage on drift; a clean run
    # over the corpus is the positive check that text == extract(html) per url
    ops = run_kg_pipeline(small_corpus, verify_text=True)
    assert ops.count() > 0


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
    # extract, link, assemble and combine run as ONE fused task operator:
    # an actor (or any non-fusable) link stage would split it
    fused = [s["stage"] for s in m1["stages"] if "link_batch" in s["stage"]]
    assert len(fused) == 1, m1["stages"]
    assert "extract_batch" in fused[0] and "assemble_batch" in fused[0]
    # the exchange canonicalize ran, and the inputs of that choice
    exchange = m1["metrics"]["exchange"]
    assert exchange["mode"] == "sort"
    assert exchange["size_hint_bytes"] > 0 and exchange["cpus"] > 0
    # resume: second run with an existing valid manifest skips the write
    m2 = run_kg_pipeline(small_corpus, str(out))
    assert m2 == m1


def test_truncated_output_recomputes(ray_session, small_corpus, tmp_path):
    """A manifest validates only against its files' parquet footers: a
    truncated output file makes the partition recompute, with the same
    rows as the clean run."""
    from kgray.stages.materialize import is_complete

    out = tmp_path / "triples"
    m1 = run_kg_pipeline(small_corpus, str(out))
    assert sum(m1["file_rows"].values()) == m1["rows"]
    before = sorted(pq.read_table(str(out)).to_pylist(), key=repr)
    victim = out / m1["files"][0]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    assert not is_complete(str(out))

    m2 = run_kg_pipeline(small_corpus, str(out))
    assert is_complete(str(out))
    assert m2["rows"] == m1["rows"]
    assert sorted(pq.read_table(str(out)).to_pylist(), key=repr) == before


def test_console_sink(ray_session, small_corpus, capsys):
    """S6: bounded debug preview — n command lines, golden shape."""
    from kgray.pipelines.kg import read_pages, kg_triples
    from kgray.stages.serialize import console_sink

    n = console_sink(kg_triples(read_pages(small_corpus)), n=5)
    out = capsys.readouterr().out.strip().splitlines()
    assert n == 5 and len(out) == 5
    assert all(l.startswith(("INSERT DATA { ", "DELETE DATA { ")) for l in out)


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
        run_kg_pipeline([str(p)]).materialize()


def test_empty_input(ray_session, tmp_path):
    """Zero-row input -> zero-row output, no crash anywhere in the DAG."""
    import pyarrow.parquet as _pq

    from kgray import schema as _schema

    p = tmp_path / "empty.parquet"
    _pq.write_table(_schema.PAGES.empty_table(), str(p))
    assert run_kg_pipeline([str(p)]).count() == 0


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
    from kgray.pipelines.kg import kg_triples, read_pages

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

    from kgray.pipelines.kg import kg_triples
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


def test_single_cpu_liveness(tmp_path):
    """The flagship finishes on a 1-CPU Ray node (an actor-pool linker held
    the only CPU and hung it).  Runs in its own Ray session, in a
    subprocess, because the test session's Ray has 4 CPUs."""
    import json
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = f"""
import json, ray
ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from kgray.fixtures import write_pages_corpus
from kgray.pipelines.kg import run_kg_pipeline
paths = write_pages_corpus({str(tmp_path / "pages")!r}, 60, shard_rows=20)
m = run_kg_pipeline(paths, {str(tmp_path / "out")!r})
print(json.dumps({{"rows": m["rows"], "link": m["metrics"]["link"]}}))
ray.shutdown()
"""
    # Ray workers import kgray from PYTHONPATH, not from the driver's sys.path
    env = dict(os.environ, PYTHONPATH=repo)
    # own process group: on timeout, kill the driver AND the Ray node it
    # started, so a hang leaves no processes behind
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=repo, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, err[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["rows"] > 0
    assert result["link"]["mention_blocks"] == 60


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

"""Cluster job entrypoint for the flagship KG pipeline.

North rule: "run via ray job submit on a fixed-size multi-node Ray
cluster".  This is that job's driver script.  On a real cluster:

    ray job submit --address http://<head>:8265 \
        --working-dir /root/repo \
        -- python scripts/ray_job.py \
            --input '/data/pages/*.parquet' \
            --out /data/out/triples \
            --shards-per-partition 8

Inside a submitted job the supervisor exports RAY_ADDRESS and
``ray.init()`` attaches to the hosting cluster; run standalone (this
sandbox has no job server — no dashboard) the same script starts a local
session.  Either way it never re-inits a session it does not own, so the
``main()`` body is also directly testable under the pytest Ray fixture.

Re-submitting with the same ``--out`` RESUMES: every partition whose
lineage manifest validates is skipped and only dead partitions recompute
(kgray/pipelines/kg.py:run_kg_pipeline_partitioned) — the job-level
retry story for a multi-day 10^12-document run is therefore "just submit
it again".

The one JSON line on stdout is the job's machine-readable result:
partition count, resumed count, triple rows, docs (input page rows from
the parquet footers, summed over partitions — exact, because partitions are
disjoint groups of input shards), docs/sec over the partitions recomputed
by this submit (None when every partition resumed), triples/doc, and the
mention-link block — the per-run rollup of the per-partition manifest
metrics the north rule asks for.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# one polars thread per process: the exchange row hash runs inside many
# concurrent Ray workers (same rationale as __ray_entry__.py)
os.environ.setdefault("POLARS_MAX_THREADS", "1")


def run_job(paths: list[str], out_root: str, shards_per_partition: int) -> dict:
    """Execute the partitioned flagship run and roll the per-partition
    manifests up into one job summary (pure function of an existing Ray
    session — callable from tests)."""
    from kgray.pipelines.kg import run_kg_pipeline_partitioned
    from kgray.stages.metrics import link_metrics

    manifests = run_kg_pipeline_partitioned(
        paths, out_root, shards_per_partition=shards_per_partition)

    parts = list(manifests.values())
    # resumed partitions add docs but no wall time: the rate counts only
    # the partitions this submit recomputed
    fresh = [m for m in parts if not m.get("resumed")]

    def docs_of(ms: list[dict]) -> int:
        return sum((m.get("metrics") or {}).get("docs") or 0 for m in ms)

    rows = sum(m.get("rows", 0) for m in parts)
    docs = docs_of(parts)
    wall = sum(m.get("write_sec") or 0.0 for m in fresh)
    link = {k: sum(((m.get("metrics") or {}).get("link") or {}).get(k) or 0
                   for m in parts)
            for k in ("mention_blocks", "mentions_linked")}
    return {
        "out_root": out_root,
        "partitions": len(parts),
        "resumed": len(parts) - len(fresh),
        "rows": rows,
        "docs": docs,
        "docs_per_sec": round(docs_of(fresh) / wall, 2) if wall > 0 else None,
        "triples_per_doc": round(rows / docs, 2) if docs else None,
        "link": link_metrics(link),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--input", default=None,
                    help="glob of pages parquet shards (url, warc_ts, html, "
                         "text, lang); default: deterministic synthetic corpus")
    ap.add_argument("--out", required=True, help="output root; one "
                    "part-NNNN dir + lineage manifest per partition")
    ap.add_argument("--shards-per-partition", type=int, default=8)
    ap.add_argument("--synthetic-pages", type=int, default=240,
                    help="corpus size when --input is omitted")
    args = ap.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        # under `ray job submit` RAY_ADDRESS points at the hosting cluster;
        # standalone it is unset (or "local" in this sandbox) and a local
        # session starts
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    try:
        if args.input:
            paths = sorted(glob.glob(args.input))
            if not paths:
                print(json.dumps({"error": f"no shards match {args.input}"}))
                return 2
        else:
            from kgray.fixtures import FIXTURE_VERSION, write_pages_corpus

            n = args.synthetic_pages
            paths = write_pages_corpus(
                os.path.join("/tmp/kgray_corpus", f"job-{n}-{FIXTURE_VERSION}"),
                n, shard_rows=max(60, n // 16))
        summary = run_job(paths, args.out, args.shards_per_partition)
        print(json.dumps(summary))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())

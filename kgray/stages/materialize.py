"""Materialize stage: sorted, partitioned Parquet + per-partition lineage
manifests + checkpoint-resume (SURVEY.md S5/O1, §4).

The reference writes one ordered text file from an in-memory list
(write_to_file, sparql_updates.py:313-333; sort at get_updates.py:1171-1176).
At scale that becomes: a directory of parquet part files (never one giant
file), written in the order its input arrives in — canonicalize's range
sort already produced the output order, so there is no second exchange —
and a ``_manifest.json`` recording inputs, row counts, byte sizes and
stage metrics, written only after the data lands, so "resume" = "skip any
output dir whose manifest validates".
"""

from __future__ import annotations

import json
import os
import time

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..schema import TRIPLE_ORDER

# the writer's file-size floor of every materialized partition
_MIN_ROWS_PER_FILE = 100_000


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.json")


def is_complete(out_dir: str) -> bool:
    """A partition is done iff its manifest exists and every file it lists
    has the byte size and, in its parquet footer, the row count the
    manifest recorded — a missing, truncated or rewritten file makes the
    partition recompute."""
    try:
        with open(manifest_path(out_dir)) as f:
            m = json.load(f)
        file_rows, file_bytes = m["file_rows"], m["file_bytes"]
        return all(
            os.path.getsize(os.path.join(out_dir, p)) == file_bytes[p]
            and pq.read_metadata(os.path.join(out_dir, p)).num_rows == n
            for p, n in file_rows.items())
    except (OSError, ValueError, KeyError):
        # missing file; torn manifest or unreadable footer; a manifest
        # without file_rows or file_bytes
        return False


def _stage_summary(ds) -> list[dict]:
    """One {stage, tasks, blocks_out, wall_sec, cpu_sec, udf_sec, rows_out,
    bytes_out} record per executed operator of the write, in plan order,
    an exchange's sub-operators (SortMap, SortReduce) included.
    ``wall_sec`` is the operator's own first-start to last-end span, not
    the whole dataset's time that ``ds.stats()`` prints for an AllToAll
    stage; ``cpu_sec`` and ``udf_sec`` sum its tasks (``udf_sec`` is Ray's
    wall time inside UDF calls, counted once per fused UDF around the
    ones it pulls from, so a fused operator's can exceed its
    ``cpu_sec``).  ``tasks`` is None
    for a sub-operator: Ray keeps one task record for the whole AllToAll
    operator, so its width shows in ``blocks_out`` (the count of the
    operator's block stats).  ``rows_out`` and ``bytes_out`` sum the
    operator's output blocks: SortReduce's ``rows_out`` against the
    manifest's ``rows`` is the exchange's dedup yield.  A ``...->Write``
    record counts the rows of Write's own stat table (one per write task),
    not triples."""
    out: list[dict] = []

    def total(stat) -> float | None:
        return None if stat is None else round(stat["sum"], 3)

    def walk(summary, stats) -> None:
        for parent, parent_stats in zip(summary.parents, stats.parents):
            walk(parent, parent_stats)
        for op, blocks in zip(summary.operators_stats,
                              stats.metadata.values()):
            out.append({
                "stage": op.operator_name,
                "tasks": (None if op.is_sub_operator
                          else (op.task_rows or {}).get("count")),
                "blocks_out": len(blocks),
                "wall_sec": round(op.time_total_s, 3),
                "cpu_sec": total(op.cpu_time),
                "udf_sec": total(op.udf_time),
                "rows_out": (op.output_num_rows or {}).get("sum"),
                "bytes_out": (op.output_size_bytes or {}).get("sum"),
            })

    stats = ds._write_ds._plan.stats()
    walk(stats.to_summary(), stats)
    return out


def materialize_stage(
    ds,
    out_dir: str,
    *,
    sort_key=TRIPLE_ORDER,
    inputs: list[str] | None = None,
    metrics_actor=None,
):
    """Write, manifest.  Returns the manifest dict.

    ``ds`` must already be in ``sort_key`` order, as canonicalize's sort
    plan (``kg_triples(..., ordered=True)``) guarantees: its blocks are
    written in order, one file name after another, and ``sort_key`` is
    only recorded in the manifest.

    If the partition already has a valid manifest the write is skipped
    entirely (checkpoint-resume).  ``docs`` is the row count of the
    ``inputs`` parquet files, read from their footers: a partition is a
    disjoint group of input shards, so per-partition counts are exact and
    sum exactly across a job.
    """
    if is_complete(out_dir):
        with open(manifest_path(out_dir)) as f:
            return json.load(f)

    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    # no valid manifest => any parquet here is debris from a crashed or
    # invalidated run; clear it so the rewrite can't double-count rows
    for stale in os.listdir(out_dir):
        if stale.endswith(".parquet"):
            os.remove(os.path.join(out_dir, stale))
    ds.write_parquet(out_dir, min_rows_per_file=_MIN_ROWS_PER_FILE)
    elapsed = time.perf_counter() - t0
    stage_metrics = _stage_summary(ds)

    files = sorted(p for p in os.listdir(out_dir) if p.endswith(".parquet"))
    file_rows = {p: pq.read_metadata(os.path.join(out_dir, p)).num_rows
                 for p in files}
    file_bytes = {p: os.path.getsize(os.path.join(out_dir, p)) for p in files}
    rows = sum(file_rows.values())
    metrics = {}
    if metrics_actor is not None:
        # stage-side counters (e.g. the linker's mention counts — invisible
        # in the output), popped from the run's ``metrics.RunCounters``; the
        # write above has executed the pipeline, and stage flushes are
        # blocking, so the counts are complete.  north rule: link metrics in
        # every partition manifest.
        from .metrics import link_metrics

        metrics["link"] = link_metrics(metrics_actor.pop())
    if inputs:
        # per-partition lineage metrics (north rule): docs/sec, triples/doc
        n_docs = pads.dataset(inputs, format="parquet").count_rows()
        metrics.update(
            {
                "docs": n_docs,
                "docs_per_sec": round(n_docs / elapsed, 2) if elapsed > 0 else None,
                "rows_per_sec": round(rows / elapsed, 2) if elapsed > 0 else None,
                "rows_per_doc": round(rows / n_docs, 2) if n_docs else None,
            }
        )
    manifest = {
        "inputs": inputs or [],
        "files": files,
        "file_rows": file_rows,
        "file_bytes": file_bytes,
        "rows": rows,
        "sort_key": list(sort_key) if sort_key else [],
        "write_sec": round(elapsed, 3),
        "metrics": metrics,
        # per-stage wall/task breakdown (north rule: metrics logged for
        # every stage), from the executed plan's stats
        "stages": stage_metrics,
    }
    tmp = manifest_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path(out_dir))  # atomic completion marker
    return manifest

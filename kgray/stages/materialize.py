"""Materialize stage: sorted, partitioned Parquet + per-partition lineage
manifests + checkpoint-resume (SURVEY.md S5/O1, §4).

The reference writes one ordered text file from an in-memory list
(write_to_file, sparql_updates.py:313-333; sort at get_updates.py:1171-1176).
At scale that becomes: a range-partitioned ``Dataset.sort`` shuffle, a
directory of parquet part files (never one giant file), and a ``_manifest.json``
recording inputs, row counts and stage metrics — written only after the data
lands, so "resume" = "skip any output dir whose manifest validates".
"""

from __future__ import annotations

import json
import os
import time

import pyarrow.dataset as pads
import pyarrow.parquet as pq


# sort direction and the writer's file-size floor of every materialized
# partition
_DESCENDING = False
_MIN_ROWS_PER_FILE = 100_000


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.json")


def is_complete(out_dir: str) -> bool:
    """A partition is done iff its manifest exists and every file it lists
    has, in its parquet footer, the row count the manifest recorded — a
    missing, truncated or rewritten file makes the partition recompute."""
    try:
        with open(manifest_path(out_dir)) as f:
            file_rows = json.load(f)["file_rows"]
        return all(
            pq.read_metadata(os.path.join(out_dir, p)).num_rows == n
            for p, n in file_rows.items())
    except (OSError, ValueError, KeyError):
        # missing file; torn manifest or unreadable footer; no file_rows
        return False


def _stage_summary(ds) -> list[dict]:
    """Compact per-operator metrics from the executed Dataset's stats():
    one {stage, tasks, wall} entry per operator line."""
    import re

    out: list[dict] = []
    try:
        stats = ds.stats()
    except Exception:
        return out
    for line in stats.splitlines():
        m = re.match(
            r"Operator (\d+) (\S+?):? (?:(\d+) tasks executed, )?"
            r".*?in ([0-9.]+)s", line)
        if m:
            out.append({
                "stage": m.group(2).rstrip(":"),
                "tasks": int(m.group(3)) if m.group(3) else None,
                "wall_sec": float(m.group(4)),
            })
    return out


def materialize_stage(
    ds,
    out_dir: str,
    *,
    sort_key=("pred", "subj", "obj"),
    inputs: list[str] | None = None,
    extra_metrics: dict | None = None,
    metrics_actor=None,
):
    """Sort, write, manifest.  Returns the manifest dict.

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
    if sort_key:
        ds = ds.sort(list(sort_key), descending=_DESCENDING)
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
    rows = sum(file_rows.values())
    metrics = dict(extra_metrics or {})
    if metrics_actor is not None:
        # stage-side accumulator counters (e.g. the linker's mention
        # counts — invisible in the output); the write above has executed
        # the pipeline, and stage flushes are blocking, so the snapshot is
        # complete.  north rule: link metrics in every partition manifest.
        import ray as _ray

        from .metrics import link_metrics

        metrics["link"] = link_metrics(
            _ray.get(metrics_actor.snapshot.remote()))
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
        "rows": rows,
        "sort_key": list(sort_key) if sort_key else [],
        "descending": _DESCENDING,
        "write_sec": round(elapsed, 3),
        "metrics": metrics,
        # per-stage wall/task breakdown (north rule: metrics logged for
        # every stage), parsed from the executed plan's stats
        "stages": stage_metrics,
    }
    tmp = manifest_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path(out_dir))  # atomic completion marker
    return manifest

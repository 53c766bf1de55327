"""Flagship KG-construction pipeline (SURVEY.md §3.4 lifecycle).

    pages -> extract -> link -> assemble -> canonicalize -> write

One streaming DAG with one exchange:

    Read -> fused(extract..combine) -> Sort -> MapBatches(per_partition)->Write

The parquet read, extract, link, assemble and the dedup combiner are
stateless Arrow ``map_batches`` that Ray fuses into one task operator
running one task per read block (no stage passes a Ray ``batch_size``;
see extract._SLICE_PAGES) on every CPU (shuffle.exchange_map lifts Ray
Data's per-operator reservation).  Canonicalize range-sorts on the order
words of ``schema.TRIPLE_ORDER``, which both co-locates every dedup key
and produces the written order, so the final dedup pass fuses with the
write.  A lazy ``kg_triples`` runs the same plan.  The link counters go
to the job's one accumulator actor under a fresh key per run
(stages/metrics.py).  No driver-side row loops; the driver only
composes stages and reads small aggregates.
"""

from __future__ import annotations

import ray.data as rd

from ..fixtures import aliases_table
from ..stages.assemble import assemble_stage
from ..stages.canonicalize import canonicalize_stage
from ..stages.extract import extract_stage
from ..stages.link import link_stage
from ..stages.materialize import materialize_stage


# Prune at the read: only the columns the pipeline touches leave storage.
_PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def read_pages(paths):
    return rd.read_parquet(paths, columns=_PAGE_COLUMNS)


def _auto_concurrency() -> None:
    """Stub whose only caller is ``perfbench/workloads.py staged()``."""
    return None


def kg_triples(pages, alias_rows=None, *, metrics_actor=None):
    """pages Dataset -> canonical deduped ops Dataset (lazy).  Its reduce
    partitions, read in exchange order (a write's file names follow it),
    are in ``schema.TRIPLE_ORDER``."""
    if alias_rows is None:
        alias_rows = aliases_table().to_pylist()
    raw = extract_stage(pages)
    linked = link_stage(raw, alias_rows, metrics_actor=metrics_actor)
    ops = assemble_stage(linked)
    return canonicalize_stage(ops)


def run_kg_pipeline_partitioned(paths, out_root: str, *,
                                shards_per_partition: int = 8,
                                alias_rows=None) -> dict:
    """Partitioned flagship run: input shards are grouped into partitions,
    each written to ``out_root/part-NNNN`` with its own lineage manifest —
    so a failed 100 TB run resumes by skipping every partition whose
    manifest validates, re-doing only the partition that died (the
    checkpoint-resume granularity the north rule asks for; a single-dir
    run can only resume all-or-nothing).

    Canonical dedup is exact WITHIN a partition; duplicates whose survivors
    land in different partitions are deduped by the deterministic
    (warc_ts, src_url)-min rule at read time if global set semantics are
    needed (the reference itself never dedupes across runs).

    Returns {partition dir -> manifest}, with skipped (resumed) partitions
    marked ``"resumed": True``.
    """
    from ..stages.materialize import is_complete, manifest_path
    import json as _json
    import os as _os

    paths = list(paths)
    manifests: dict[str, dict] = {}
    for p0 in range(0, len(paths), shards_per_partition):
        part = paths[p0:p0 + shards_per_partition]
        out_dir = _os.path.join(out_root, f"part-{p0 // shards_per_partition:04d}")
        if is_complete(out_dir):
            with open(manifest_path(out_dir)) as f:
                m = _json.load(f)
            m["resumed"] = True
            manifests[out_dir] = m
            continue
        manifests[out_dir] = run_kg_pipeline(part, out_dir, alias_rows=alias_rows)
    return manifests


def run_kg_pipeline(paths, out_dir: str, *, alias_rows=None) -> dict:
    """Full run: read -> ... -> canonicalize -> write+manifest; returns
    the write manifest dict.  ``kg_triples(read_pages(paths))`` is the
    same pipeline as a lazy Dataset, for further composition.
    """
    from ..stages.metrics import run_counters

    pages = read_pages(paths)
    # this run's key on the job's accumulator, for counters that are
    # invisible in the OUTPUT (the linker drops unresolved free-text
    # blocks): the manifest's link block (north rule: link metrics per
    # partition)
    metrics_actor = run_counters()
    ops = kg_triples(pages, alias_rows, metrics_actor=metrics_actor)
    return materialize_stage(
        ops,
        out_dir,
        inputs=[str(p) for p in (paths if isinstance(paths, (list, tuple)) else [paths])],
        metrics_actor=metrics_actor,
    )

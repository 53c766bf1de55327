"""Flagship KG-construction pipeline (SURVEY.md §3.4 lifecycle).

    pages -> extract -> link -> assemble -> canonicalize -> [sort -> write]

One streaming DAG: stateless Arrow ``map_batches`` for extract/assemble, an
actor pool for linking, one dedup shuffle, one sort shuffle at materialize.
No driver-side row loops; the driver only composes stages and reads small
aggregates.
"""

from __future__ import annotations

import ray.data as rd

from ..fixtures import aliases_table
from ..stages.assemble import assemble_stage
from ..stages.canonicalize import canonicalize_stage
from ..stages.extract import extract_stage
from ..stages.link import link_stage
from ..stages.materialize import materialize_stage


def read_pages(paths, *, columns=("url", "warc_ts", "html", "text", "lang")):
    """Prune at the read: only the columns the pipeline touches leave storage."""
    return rd.read_parquet(paths, columns=list(columns))


def _auto_concurrency() -> tuple[int, int]:
    """Size the linker pool to the cluster: eager floor of half the cores
    (actor startup overlaps the read instead of lagging behind the queue),
    ceiling of all cores.  Falls back to (1, 8) when Ray isn't up yet.

    Do NOT floor at the full core count: the pool's CPU reservations then
    starve the task-pool operators (read/assemble/sort) and the whole
    pipeline crawls near-idle — measured as an 81%-idle stall at
    num_cpus=8 when the floor equaled the core count."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    return (max(1, cpus // 2), max(2, cpus))


def kg_triples(pages, alias_rows=None, *, verify_text: bool = True,
               link_concurrency=None, metrics_actor=None):
    """pages Dataset -> canonical deduped ops Dataset (lazy)."""
    from ..stages.shuffle import source_size_hint

    if alias_rows is None:
        alias_rows = aliases_table().to_pylist()
    if link_concurrency is None:
        link_concurrency = _auto_concurrency()
    # exchange-size hint from the SOURCE read (free parquet-metadata
    # estimate; selects the hash exchange for corpus-scale runs)
    size_hint = source_size_hint(pages)
    raw = extract_stage(pages, verify_text=verify_text)
    linked = link_stage(raw, alias_rows, concurrency=link_concurrency,
                        metrics_actor=metrics_actor)
    ops = assemble_stage(linked)
    return canonicalize_stage(ops, size_hint_bytes=size_hint)


def run_kg_pipeline_partitioned(paths, out_root: str, *,
                                shards_per_partition: int = 8,
                                alias_rows=None, verify_text: bool = True,
                                link_concurrency=None) -> dict:
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
        manifests[out_dir] = run_kg_pipeline(
            part, out_dir, alias_rows=alias_rows, verify_text=verify_text,
            link_concurrency=link_concurrency)
    return manifests


def run_kg_pipeline(paths, out_dir: str | None = None, *, alias_rows=None,
                    verify_text: bool = True, link_concurrency=None):
    """Full run: read -> ... -> canonicalize [-> sort+write+manifest].

    Returns the ops Dataset when ``out_dir`` is None (for tests / further
    composition), else the write manifest dict.
    """
    pages = read_pages(paths)
    metrics_actor = None
    if out_dir is not None:
        # partition-scoped accumulator for counters that are invisible in
        # the OUTPUT (the linker drops unresolved free-text blocks): the
        # manifest's link block (north rule: link metrics per partition)
        from ..stages.metrics import MetricsAccumulator

        metrics_actor = MetricsAccumulator.remote()
    ops = kg_triples(pages, alias_rows, verify_text=verify_text,
                     link_concurrency=link_concurrency,
                     metrics_actor=metrics_actor)
    if out_dir is None:
        return ops
    # which exchange canonicalize ran and why: the same hint and selector
    # calls that kg_triples makes on the same read
    from ..stages.shuffle import _cluster_cpus, exchange_mode, source_size_hint

    size_hint = source_size_hint(pages)
    exchange = {"mode": exchange_mode(size_hint), "size_hint_bytes": size_hint,
                "cpus": _cluster_cpus()}
    return materialize_stage(
        ops,
        out_dir,
        sort_key=("pred", "subj", "obj"),
        inputs=[str(p) for p in (paths if isinstance(paths, (list, tuple)) else [paths])],
        extra_metrics={"exchange": exchange},
        metrics_actor=metrics_actor,
    )

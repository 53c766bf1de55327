"""Linker stage: alias-table + context-score QID linking (SURVEY.md ST1, §2.4).

An actor-pool ``map_batches`` stage: the alias index and the compiled
surface-alternation regex are built ONCE per actor in ``__init__`` from a
``ray.put`` broadcast (the broadcast small-side hash join of SURVEY.md §2.4 —
the alias table is shipped to the object store once, never per batch).

Consumes the combined raw-claim stream from the extract stage: rewrites each
``mention_text`` row into zero-or-more resolved ``mention`` rows and passes
every other row through untouched.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..kernels.link import (
    build_alias_index,
    compile_surface_pattern,
    detect_and_link,
)
from ..schema import RAW_CLAIMS


class LinkerActor:
    """Stateful linker: per-actor state is the broadcast alias index + the
    compiled automaton (the reference's per-run HTTP caches ST1 become real
    local state)."""

    def __init__(self, alias_ref, metrics_actor=None):
        alias_rows = ray.get(alias_ref) if not isinstance(alias_ref, list) else alias_ref
        self.index = build_alias_index(alias_rows)
        self.pattern = compile_surface_pattern(list(self.index))
        self.metrics = metrics_actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        # vectorized dispatch mask (ADVICE/VERDICT r3 #7): pc kernels for
        # the hot passthrough split; Python touches only actual
        # mention_text rows (per-doc mention detection is per-row work)
        is_mention = pc.equal(batch["kind"], "mention_text")
        if not pc.any(is_mention).as_py():
            return batch
        passthrough = batch.filter(pc.invert(is_mention))
        mentions = batch.filter(is_mention)

        cols: dict[str, list] = {name: [] for name in batch.column_names}
        urls = mentions["url"].to_pylist()
        tss = mentions["warc_ts"].to_pylist()
        ents = mentions["entity"].to_pylist()
        vals = mentions["value"].to_pylist()
        pvals = mentions["parent_value"].to_pylist()
        for i in range(len(mentions)):
            spans = []
            if pvals[i]:
                for part in pvals[i].split(";"):
                    s, _, e = part.partition(":")
                    spans.append((int(s), int(e)))
            for _, qid, _, _ in detect_and_link(vals[i], self.index, self.pattern, spans):
                cols["url"].append(urls[i])
                cols["warc_ts"].append(tss[i])
                cols["entity"].append(ents[i])
                cols["kind"].append("mention")
                cols["value"].append(qid)
                for f in ("prop", "vtype", "lang", "rank", "parent_prop", "parent_value", "op"):
                    cols[f].append("")
        linked = pa.Table.from_pydict(cols, schema=RAW_CLAIMS)
        if self.metrics is not None:
            # blocking flush: sub-ms actor RTT per batch, and snapshot()
            # after pipeline execution can never race a queued delta
            ray.get(self.metrics.add_many.remote(
                {"mention_blocks": len(mentions),
                 "mentions_linked": len(linked)}))
        return pa.concat_tables([passthrough.cast(RAW_CLAIMS), linked])


def link_stage(raw_claims, alias_rows: list[dict], *, concurrency=(1, 8),
               batch_size: int = 128, num_cpus: float = 1,
               metrics_actor=None):
    """raw-claims Dataset -> raw-claims Dataset with mentions resolved.

    ``alias_rows`` is broadcast once via ``ray.put``; actors fetch it in
    ``__init__``.  ``concurrency`` bounds the pool so it shares the node with
    the extract and assemble stages instead of starving them (SURVEY.md §4).
    ``metrics_actor`` (optional ``MetricsAccumulator`` handle) receives
    per-batch mention counters for the partition's lineage manifest.
    """
    alias_ref = ray.put(alias_rows)
    return raw_claims.map_batches(
        LinkerActor,
        fn_constructor_args=(alias_ref, metrics_actor),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )

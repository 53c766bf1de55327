"""Run-scoped metrics accumulator (north rule: link-accuracy and other
per-stage counters logged into every partition's lineage manifest).

Counters that are NOT derivable from the written output need a side
channel: the linker drops unresolved ``mention_text`` rows, so the
mentions-seen denominator of the link rate exists only inside the link
tasks while the stream is live.  A single ``num_cpus=0`` accumulator actor
per partition run collects those counts; the link stage function flushes
per batch with a BLOCKING call (one sub-ms actor RTT per multi-hundred-row
batch — noise next to the per-batch linking work) so a post-execution
``snapshot()`` can never race a still-queued delta.

Semantics under failure: Ray re-executes failed tasks, and a re-executed
batch re-flushes its delta, so counters are AT-LEAST-ONCE — exact on every
clean run, upper bounds across retries.  Manifests carry the counts as
observability metrics, never as data; the triple output itself stays
exactly-once via the manifest/resume protocol (materialize.py).

This is the deliberate re-introduction of the reference's run accumulators
(SURVEY.md ST4, ``sparql_updates.py``'s module-level counters) in the only
shape that works on a cluster: reference counts lived in one process's
globals; here every worker process shares one accumulator actor.
"""

from __future__ import annotations

import ray


@ray.remote(num_cpus=0)
class MetricsAccumulator:
    """Additive counters keyed by string; zero CPU reservation so the actor
    never competes with pipeline tasks for scheduler budget."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add_many(self, deltas: dict[str, int]) -> None:
        for k, v in deltas.items():
            self._counts[k] = self._counts.get(k, 0) + int(v)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)


def link_metrics(counts: dict[str, int]) -> dict:
    """Derive the manifest's link block from raw accumulator counts.

    ``mention_blocks``: free-text blocks the linker scanned (one
    ``mention_text`` row per page); ``mentions_linked``: resolved mention
    rows emitted from those blocks.  The RATE is yield per block — the
    linker's score_candidates never abstains, so resolved == detected and
    a resolved/detected ratio would be vacuously 1.0.  Link ACCURACY
    (right QID for ambiguous surfaces) needs ground truth and is pinned
    where ground truth exists: tests/test_kernels.py
    ``test_context_disambiguation`` and the independent golden-extractor
    agreement (`kg_golden`), both at fixture scale."""
    blocks = int(counts.get("mention_blocks", 0))
    linked = int(counts.get("mentions_linked", 0))
    return {
        "mention_blocks": blocks,
        "mentions_linked": linked,
        "mentions_per_block": round(linked / blocks, 4) if blocks else None,
    }

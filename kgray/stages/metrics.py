"""Run-scoped metrics counters (north rule: link-accuracy and other
per-stage counters logged into every partition's lineage manifest).

Counters that are NOT derivable from the written output need a side
channel: the linker drops unresolved ``mention_text`` rows, so the
mentions-seen denominator of the link rate exists only inside the link
tasks while the stream is live.  One ``num_cpus=0`` accumulator actor per
driver job collects those counts, spawned on the job's first run and
reused by every later one (a spawn costs about a second, which a run
would otherwise wait out at its first flush).  Each run adds under its
own fresh run key and the run's manifest pops that key, so counts stay
exact per run.  The link stage function flushes per call with a BLOCKING
call (one sub-ms actor RTT per block — noise next to the linking work) so
a post-execution ``pop()`` can never race a still-queued delta.

Semantics under failure: Ray re-executes failed tasks, and a re-executed
batch re-flushes its delta, so counters are AT-LEAST-ONCE — exact on every
clean run, upper bounds across retries.  Manifests carry the counts as
observability metrics, never as data; the triple output itself stays
exactly-once via the manifest/resume protocol (materialize.py).  A run
that fails before its manifest leaves its few counts in the actor.

This is the deliberate re-introduction of the reference's run accumulators
(SURVEY.md ST4, ``sparql_updates.py``'s module-level counters) in the only
shape that works on a cluster: reference counts lived in one process's
globals; here every worker process shares one accumulator actor.
"""

from __future__ import annotations

import uuid
from typing import NamedTuple

import ray


@ray.remote(num_cpus=0)
class MetricsAccumulator:
    """Additive counters keyed by run, then by name; zero CPU reservation
    so the actor never competes with pipeline tasks for scheduler budget."""

    def __init__(self) -> None:
        self._runs: dict[str, dict[str, int]] = {}

    def add_many(self, run: str, deltas: dict[str, int]) -> None:
        counts = self._runs.setdefault(run, {})
        for k, v in deltas.items():
            counts[k] = counts.get(k, 0) + int(v)

    def pop(self, run: str) -> dict[str, int]:
        return self._runs.pop(run, {})


class RunCounters(NamedTuple):
    """One run's counters: the job's accumulator and the run's key."""

    actor: ray.actor.ActorHandle
    run: str

    def add(self, deltas: dict[str, int]) -> None:
        """Blocking, so that ``pop()`` after execution sees every delta."""
        ray.get(self.actor.add_many.remote(self.run, deltas))

    def pop(self) -> dict[str, int]:
        """The run's counts, removed from the accumulator."""
        return ray.get(self.actor.pop.remote(self.run))


# This driver's accumulator under its job key; one entry, so a new Ray
# session in the same process spawns its own instead of calling a dead one.
_ACCUMULATOR: dict[str, ray.actor.ActorHandle] = {}


def run_counters() -> RunCounters:
    """A fresh run key on the job's accumulator, spawned on first use.  The
    key is the Ray job id plus the driver's node id: a new local cluster
    numbers its first job 01000000 again."""
    ctx = ray.get_runtime_context()
    job = f"{ctx.get_job_id()}@{ctx.get_node_id()}"
    if job not in _ACCUMULATOR:
        _ACCUMULATOR.clear()
        _ACCUMULATOR[job] = MetricsAccumulator.remote()
    return RunCounters(_ACCUMULATOR[job], uuid.uuid4().hex)


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

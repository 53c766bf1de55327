"""Linker stage: alias-table + context-score QID linking (SURVEY.md ST1, §2.4).

A stateless ``map_batches`` function, so Ray fuses it with extract,
assemble and combine into one task operator.  The alias table is shipped
once via ``ray.put`` (the broadcast small-side hash join of SURVEY.md §2.4);
each worker process builds its linker from it once, on first use.

Consumes the combined raw-claim stream from the extract stage: rewrites each
``mention_text`` row into zero-or-more resolved ``mention`` rows and passes
every other row through untouched.  The ``mention_text`` rows run through
``schema.fan_out``: only their text and already-linked spans become Python
objects, and each resolved row takes ``url``/``warc_ts``/``entity`` from
its source row by index.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..kernels.link import SurfaceMatcher, build_alias_index, detect_and_link
from ..schema import RAW_CLAIMS, fan_out

# the columns a resolved mention takes from its mention_text row
_LINEAGE = {"url": "url", "warc_ts": "warc_ts", "entity": "entity"}


class LinkerActor:
    """In-process linker over a row list or its ``ObjectRef``: alias index
    + surface matcher (the reference's per-run HTTP caches ST1).  Not a Ray
    actor; the name is kept for ``perfbench/workloads.py kernels()``."""

    def __init__(self, alias_rows):
        if isinstance(alias_rows, ray.ObjectRef):
            alias_rows = ray.get(alias_rows)
        self.index = build_alias_index(alias_rows)
        self.pattern = SurfaceMatcher(list(self.index))

    def __call__(self, batch: pa.Table) -> pa.Table:
        # vectorized dispatch mask (ADVICE/VERDICT r3 #7): pc kernels for
        # the hot passthrough split; Python touches only actual
        # mention_text rows (per-doc mention detection is per-row work)
        is_mention = pc.equal(batch["kind"], "mention_text")
        if not pc.any(is_mention).as_py():
            return batch
        passthrough = batch.filter(pc.invert(is_mention))
        linked = fan_out(batch.filter(is_mention), self._mentions,
                         reads=("value", "parent_value"), carry=_LINEAGE,
                         schema=RAW_CLAIMS)
        return pa.concat_tables([passthrough.cast(RAW_CLAIMS), linked])

    def _mentions(self, text, pval) -> list[tuple]:
        """One resolved ``mention`` row per hit in one ``mention_text``."""
        spans = []
        if pval:
            for part in pval.split(";"):
                s, _, e = part.partition(":")
                spans.append((int(s), int(e)))
        hits = detect_and_link(text, self.index, self.pattern, spans)
        return [("mention", "", "", qid, "", "", "", "", "")
                for _, qid, _, _ in hits]


# This process's linker under the id (not the ref: nothing stays pinned) of
# the broadcast it was built from; one entry, so a reused worker never links
# with an earlier run's table and holds at most one alias index.
_LINKER: dict[str, LinkerActor] = {}


def _cached_linker(alias_ref) -> LinkerActor:
    key = alias_ref.hex()
    if key not in _LINKER:
        _LINKER.clear()
        _LINKER[key] = LinkerActor(alias_ref)
    return _LINKER[key]


def link_stage(raw_claims, alias_rows: list[dict], *, metrics_actor=None,
               concurrency=None):
    """raw-claims Dataset -> raw-claims Dataset with mentions resolved.

    ``metrics_actor`` (optional ``metrics.RunCounters``) receives
    per-call mention counters for the run's lineage manifest.
    ``concurrency`` is ignored; its only caller is ``perfbench/workloads.py
    staged()``."""
    alias_ref = ray.put(alias_rows)

    def link_batch(batch: pa.Table) -> pa.Table:
        out = _cached_linker(alias_ref)(batch)
        blocks = pc.sum(pc.equal(batch["kind"], "mention_text")).as_py()
        if metrics_actor is not None and blocks:
            # each block row became its resolved mentions
            metrics_actor.add(
                {"mention_blocks": blocks,
                 "mentions_linked": len(out) - (len(batch) - blocks)})
        return out

    # no Ray batch_size: one call per block of the fused operator (see
    # extract._SLICE_PAGES)
    return raw_claims.map_batches(link_batch, batch_format="pyarrow")

"""Assemble stage: raw-claim rows -> typed triple rows (SURVEY.md M5-M11).

Stateless ``map_batches``; all ids (statement / value-node / reference) are
deterministic content hashes minted row-locally (kernels.ids), so this stage
needs no joins, no lookups, no shared state — the key architectural departure
from the reference's SPARQL-endpoint resolution (get_updates.py:734-881).
Fan-out is ~1->4..12 rows (claim scaffolds, time-node quads), run per
raw-claim row through ``schema.fan_out``.
"""

from __future__ import annotations

import gc

import pyarrow as pa

from ..kernels.assemble import raw_claim_to_triples
from ..schema import OPS, fan_out

# raw-claim rows per assemble slice, taken inside ``assemble_batch`` to
# bound the per-call Python heap; not a Ray ``batch_size`` (see
# extract._SLICE_PAGES)
_SLICE_ROWS = 8192
_ROW_FIELDS = ("entity", "kind", "prop", "vtype", "value", "lang", "rank",
               "parent_prop", "parent_value", "op")


def assemble_batch(batch: pa.Table) -> pa.Table:
    """Triple rows of every raw-claim row in ``batch``, assembled
    ``_SLICE_ROWS`` rows at a time; the output keeps the input order.
    The kernel reads the 10 ``_ROW_FIELDS``; ``src_url`` and ``warc_ts``
    are the source row's ``url`` and ``warc_ts``, taken by row index."""
    # The kernel allocates a dict, a list and several tuples per row and
    # builds no reference cycles, yet the allocations trigger the cyclic
    # collector's full passes over the worker's whole heap: ~40% of this
    # function's time on 120 richness-8 pages.  Pause it for the call.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return fan_out(batch, _triples, reads=_ROW_FIELDS,
                       carry={"src_url": "url", "warc_ts": "warc_ts"},
                       schema=OPS, slice_rows=_SLICE_ROWS)
    finally:
        if gc_was_on:
            gc.enable()


def _triples(ent, kind, prop, vtype, value, lang, rank, pprop, pval, op):
    return raw_claim_to_triples({
        "entity": ent, "kind": kind, "prop": prop, "vtype": vtype,
        "value": value, "lang": lang, "rank": rank,
        "parent_prop": pprop, "parent_value": pval, "op": op,
    })


def assemble_stage(raw_claims):
    return raw_claims.map_batches(assemble_batch, batch_format="pyarrow")

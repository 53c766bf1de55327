"""Assemble stage: raw-claim rows -> typed triple rows (SURVEY.md M5-M11).

Stateless ``map_batches``; all ids (statement / value-node / reference) are
deterministic content hashes minted row-locally (kernels.ids), so this stage
needs no joins, no lookups, no shared state — the key architectural departure
from the reference's SPARQL-endpoint resolution (get_updates.py:734-881).
Fan-out is ~1->4..12 rows (claim scaffolds, time-node quads).
"""

from __future__ import annotations

import gc

import pyarrow as pa

from ..kernels.assemble import raw_claim_to_triples
from ..schema import OPS, source_rows, str_list

# raw-claim rows per assemble slice, taken inside ``assemble_batch`` to
# bound the per-call Python heap; not a Ray ``batch_size`` (see
# extract._SLICE_PAGES)
_SLICE_ROWS = 8192
_ROW_FIELDS = ("entity", "kind", "prop", "vtype", "value", "lang", "rank",
               "parent_prop", "parent_value", "op")


def assemble_batch(batch: pa.Table) -> pa.Table:
    """Triple rows of every raw-claim row in ``batch``, assembled
    ``_SLICE_ROWS`` rows at a time; the output keeps the input order."""
    slices = batch.to_batches(max_chunksize=_SLICE_ROWS)
    if not slices:
        return OPS.empty_table()
    # The kernel loop allocates a dict, a list and several tuples per row
    # and builds no reference cycles, yet the allocations trigger the
    # cyclic collector's full passes over the worker's whole heap: ~40% of
    # this function's time on 120 richness-8 pages.  Pause it for the call.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return pa.concat_tables([_assemble_slice(b) for b in slices])
    finally:
        if gc_was_on:
            gc.enable()


def _assemble_slice(batch: pa.RecordBatch) -> pa.Table:
    """The kernel reads the 10 ``_ROW_FIELDS`` as Python strings (one
    ``str_list`` pass per column); ``url`` and ``warc_ts`` never leave
    Arrow: ``src_url``/``warc_ts`` are one ``take`` each by
    ``source_rows`` of the per-row fan-out.  Triples accumulate as tuples
    and transpose ONCE into columns."""
    out: list[tuple] = []
    fanout: list[int] = []
    for ent, kind, prop, vtype, value, lang, rank, pprop, pval, op in zip(
        *(str_list(batch[f]) for f in _ROW_FIELDS)
    ):
        triples = raw_claim_to_triples({
            "entity": ent, "kind": kind, "prop": prop, "vtype": vtype,
            "value": value, "lang": lang, "rank": rank,
            "parent_prop": pprop, "parent_value": pval, "op": op,
        })
        out += triples
        fanout.append(len(triples))
    if not out:
        return OPS.empty_table()
    parents = source_rows(fanout)
    s, p, o, ot, lg, dt, ops = zip(*out)
    return pa.Table.from_pydict(
        {
            "subj": s, "pred": p, "obj": o, "obj_type": ot, "lang": lg,
            "datatype": dt, "src_url": batch["url"].take(parents),
            "warc_ts": batch["warc_ts"].take(parents), "op": ops,
        },
        schema=OPS,
    )


def assemble_stage(raw_claims):
    return raw_claims.map_batches(assemble_batch, batch_format="pyarrow")

"""Assemble stage: raw-claim rows -> typed triple rows (SURVEY.md M5-M11).

Stateless ``map_batches``; all ids (statement / value-node / reference) are
deterministic content hashes minted row-locally (kernels.ids), so this stage
needs no joins, no lookups, no shared state — the key architectural departure
from the reference's SPARQL-endpoint resolution (get_updates.py:734-881).
Fan-out is ~1->4..12 rows (claim scaffolds, time-node quads).
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels.assemble import raw_claim_to_triples
from ..schema import OPS

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
    return pa.concat_tables([_assemble_slice(b) for b in slices])


def _assemble_slice(batch: pa.RecordBatch) -> pa.Table:
    """Row iteration is a single zip over the column lists (no per-row
    indexed dict rebuild), fan-out rows accumulate as tuples and transpose
    ONCE into arrays — the per-row Python surface is the kernel call plus
    one dict literal."""
    out: list[tuple] = []
    col_lists = [batch[f].to_pylist() for f in ("url", "warc_ts", *_ROW_FIELDS)]
    for url, ts, ent, kind, prop, vtype, value, lang, rank, pprop, pval, op in zip(
        *col_lists
    ):
        row = {
            "entity": ent, "kind": kind, "prop": prop, "vtype": vtype,
            "value": value, "lang": lang, "rank": rank,
            "parent_prop": pprop, "parent_value": pval, "op": op,
        }
        for t in raw_claim_to_triples(row):
            out.append((*t, url, ts))
    if not out:
        return OPS.empty_table()
    s, p, o, ot, lg, dt, op_, url_, ts_ = zip(*out)
    return pa.Table.from_pydict(
        {
            "subj": list(s), "pred": list(p), "obj": list(o),
            "obj_type": list(ot), "lang": list(lg), "datatype": list(dt),
            "src_url": list(url_), "warc_ts": list(ts_), "op": list(op_),
        },
        schema=OPS,
    )


def assemble_stage(raw_claims):
    return raw_claims.map_batches(assemble_batch, batch_format="pyarrow")

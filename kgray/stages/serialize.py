"""Serialize stage: ops rows -> per-triple SPARQL command text (SURVEY.md
M16/M18).

The canonical output contract is the per-triple command
``{INSERT|DELETE} DATA { s p o . };`` established by the reference's tests
and golden file (test_ttl_compare.py:142-147, sample_result.txt) — NOT the
drifted block format at ttl_compare.py:239-240 (see SURVEY.md §5 format-drift
finding).  Serialization is a final projection over structured columns; text
never exists mid-pipeline.

The hot path is pure ``pyarrow.compute`` string kernels (the grammar is
string concatenation — the DuckDB oracle restates it as ``||`` chains).
Canonical ops rows satisfy the stored-form invariants (subj/pred/datatype
prefix-compacted, iri objects in final form); rows that DON'T (full-http
subjects, bracketed known-namespace iris, unknown datatypes) are detected
with vectorized masks and routed through the per-row reference kernels
(``kernels.rdf.format_object``/``triple_to_command``), so the output is
byte-identical to the scalar path for every input (equivalence asserted in
tests/test_kernels.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.rdf import (
    PREFIX_HEADER, PREFIX_TO_URI, PREFIXES, format_object, triple_to_command,
)
from ..schema import str_list

# ops rows per serialize call
_BATCH_SIZE = 65536
_RDF_TYPE_URI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_TYPE_SET = pa.array(["rdf:type", "a", _RDF_TYPE_URI], pa.string())
# anchored known-prefixed-name test (has_prefix restated as one regex)
_PNAME_RE = "^(?:" + "|".join(sorted(PREFIX_TO_URI)) + "):"


def _arr(batch: pa.Table, name: str) -> pa.Array:
    col = batch[name]
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def serialize_batch(batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        return pa.Table.from_pydict({"command": pa.array([], pa.string())})
    subj = _arr(batch, "subj")
    pred = _arr(batch, "pred")
    obj = _arr(batch, "obj")
    ot = _arr(batch, "obj_type")
    # every producer in this engine uses '' sentinels, but a null that slips
    # through would otherwise propagate: not_equal/if_else yield null,
    # pc.any(bad) skips nulls, and the row's command comes out null instead
    # of falling back to the scalar kernel (ADVICE r3 #3) — normalize here
    lang = pc.fill_null(_arr(batch, "lang"), "")
    dt = pc.fill_null(_arr(batch, "datatype"), "")
    op = _arr(batch, "op")
    # a null in the identity columns is a producer bug the scalar path must
    # surface (format_object/triple_to_command raise on None) — route it
    null_bad = pc.is_null(subj)
    for col in (pred, obj, ot, op):
        null_bad = pc.or_(null_bad, pc.is_null(col))

    # --- object formatting (format_object restated vectorized) ---
    is_lit = pc.equal(ot, "literal")
    esc = pc.replace_substring(obj, '"', '\\"')
    has_lang = pc.not_equal(lang, "")
    has_dt = pc.not_equal(dt, "")
    lit = pc.if_else(
        has_lang,
        pc.binary_join_element_wise('"', esc, '"@', lang, ""),
        pc.if_else(
            has_dt,
            pc.binary_join_element_wise(
                '"', pc.replace_substring(esc, "+00:00", "Z"), '"^^', dt, ""),
            pc.binary_join_element_wise('"', esc, '"', ""),
        ),
    )
    obj_fmt = pc.if_else(is_lit, lit, obj)

    # --- predicate + full command ---
    is_type = pc.is_in(pred, value_set=_TYPE_SET)
    pred_fmt = pc.if_else(is_type, "a", pred)
    cmd = pc.binary_join_element_wise(
        op, " DATA { ", subj, " ", pred_fmt, " ", obj_fmt, " . };", "")

    # --- stored-form invariant masks; violators take the scalar kernels ---
    bad = pc.starts_with(subj, "http")                      # would compact
    bad = pc.or_(bad, pc.and_(pc.invert(is_type), pc.starts_with(pred, "http")))
    dt_known = pc.match_substring_regex(dt, _PNAME_RE)
    bad = pc.or_(bad, pc.and_(pc.and_(is_lit, has_dt), pc.invert(dt_known)))
    iri_ok = pc.or_(pc.starts_with(obj, "_:"),
                    pc.match_substring_regex(obj, _PNAME_RE))
    brack = pc.and_(pc.starts_with(obj, "<http"), pc.ends_with(obj, ">"))
    known_ns = pc.starts_with(obj, "\x00never")             # all-false seed
    for ns in PREFIXES:
        known_ns = pc.or_(known_ns, pc.starts_with(obj, f"<{ns}"))
    iri_ok = pc.or_(iri_ok, pc.and_(brack, pc.invert(known_ns)))
    bad = pc.or_(bad, pc.and_(pc.invert(is_lit), pc.invert(iri_ok)))
    bad = pc.fill_null(pc.or_(bad, null_bad), True)

    if pc.any(bad).as_py():
        idx = np.flatnonzero(bad.to_numpy(zero_copy_only=False))
        take = pa.array(idx, pa.int64())
        slow = [
            triple_to_command(o, s, p, format_object(ob, t, lg or None, d or None))
            for o, s, p, ob, t, lg, d in zip(
                *(str_list(c.take(take))
                  for c in (op, subj, pred, obj, ot, lang, dt))
            )
        ]
        cmd = pc.replace_with_mask(cmd, bad, pa.array(slow, pa.string()))
    return pa.Table.from_pydict({"command": pc.cast(cmd, pa.string())})


def serialize_stage(ops):
    """ops Dataset -> one-column ``command`` Dataset."""
    return ops.map_batches(serialize_batch, batch_format="pyarrow",
                           batch_size=_BATCH_SIZE)


def write_conformance_file(ops, path: str) -> int:
    """Small-scale conformance sink: prefix header then one command per line
    (write_to_file analog, sparql_updates.py:313-333).  Driver-side iteration
    is deliberate — this sink is for test-sized outputs only."""
    n = 0
    with open(path, "w") as f:
        f.write(PREFIX_HEADER + "\n\n")
        for b in serialize_stage(ops).iter_batches(batch_size=_BATCH_SIZE,
                                                   batch_format="pyarrow"):
            for cmd in b["command"].to_pylist():
                f.write(cmd + "\n")
                n += 1
    return n


def console_sink(ops, n: int = 20) -> int:
    """S6 console sink: print the first ``n`` commands (the reference's
    PRINT_OUTPUT debug path, get_updates.py:565-571).  Bounded by
    ``Dataset.limit`` — never pulls more than ``n`` rows to the driver."""
    shown = 0
    for b in serialize_stage(ops.limit(n)).iter_batches(
        batch_size=max(1, n), batch_format="pyarrow"
    ):
        for cmd in b["command"].to_pylist():
            print(cmd)
            shown += 1
    return shown

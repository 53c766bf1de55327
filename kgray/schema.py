"""Declared Arrow schemas for every logical table (SURVEY.md §1.2).

The reference is stringly-typed record-at-a-time Python; the engine fixes a
columnar schema per stage so every ``map_batches`` can run
``batch_format="pyarrow"`` zero-copy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def source_rows(fanout: list[int]) -> pa.Array:
    """Source row index of every output row, in order, when source row
    ``i`` produced ``fanout[i]`` output rows: the ``take`` indices that
    carry a source column (url, warc_ts, entity) to the output without
    one Python object per row."""
    return pa.array(np.repeat(np.arange(len(fanout)), fanout), pa.int64())


def str_list(col: pa.Array | pa.ChunkedArray) -> list:
    """``col.to_pylist()`` for a string, large_string or binary column, at
    a fraction of its cost (one numpy object-array pass instead of a
    Python scalar per row).  Any other type raises ``TypeError``: an int
    column with nulls would come back as float NaN, and a timestamp would
    cost a ``datetime`` per row — carry those by row index (``take``)."""
    t = col.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t)):
        raise TypeError(f"str_list takes string or binary columns, not {t}")
    return col.to_numpy(zero_copy_only=False).tolist()


def fan_out(batch, kernel, *, reads, carry, schema):
    """The one row boundary: run a per-row Python kernel over ``batch``
    and return its output rows as one ``schema`` table.

    ``kernel(*row)`` gets the ``reads`` columns of one input row (through
    ``str_list``) and returns a list of tuples, one per output row,
    holding the ``schema`` columns that are not in ``carry``, in schema
    order; the tuples transpose into columns once.  Each ``carry`` column
    (output name -> input column) never becomes Python objects: one
    ``take`` by ``source_rows`` of the fan-out."""
    rows: list[tuple] = []
    fanout: list[int] = []
    for row in zip(*(str_list(batch[c]) for c in reads)):
        out = kernel(*row)
        rows += out
        fanout.append(len(out))
    made = [name for name in schema.names if name not in carry]
    cols = dict(zip(made, zip(*rows) if rows else [()] * len(made)))
    parents = source_rows(fanout)
    cols.update((name, batch[src].take(parents)) for name, src in carry.items())
    return pa.Table.from_pydict(cols, schema=schema)


# Primary input — authoritative shape from BASELINE.json input_hint.
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)

# Output of the extract stage: one row per raw claim/fact found on a page.
# Flat columns (not structs) so downstream shuffles can key on them directly.
# kind: label | desc | alias | claim | qualifier | reference | diff | mention
RAW_CLAIMS = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("entity", pa.string()),  # page subject QID
        ("kind", pa.string()),
        ("prop", pa.string()),  # P-id or schema section name
        ("vtype", pa.string()),  # wikibase-entityid|string|time|quantity|monolingualtext
        ("value", pa.string()),
        ("lang", pa.string()),  # nullable language tag
        ("rank", pa.string()),  # normal|preferred|deprecated ('' for non-claims)
        # for qualifier/reference rows: identity of the parent claim so the
        # deterministic statement id can be minted row-locally (no join)
        ("parent_prop", pa.string()),
        ("parent_value", pa.string()),
        # for diff rows: 'insert' | 'delete'; '' otherwise
        ("op", pa.string()),
    ]
)

# What makes two triples the same: canonicalize dedups on ``op`` plus these
# columns and the snapshot diff on ``entity`` plus these.  ``obj_type`` is
# part of it because an IRI never equals a literal of the same spelling
# (rdflib term equality, ttl_compare.py:168-183).  The order fixes the
# column order of the 64-bit key hash, and so the bucket of every triple.
TRIPLE_KEY = ("subj", "pred", "obj", "lang", "datatype", "obj_type")

# The written order of the triple tables (the reference sorts its output
# the same way, get_updates.py:1171-1176).  Every dedup key contains these
# columns, so canonicalize's one range sort on their order words (a
# fixed-width numeric prefix of them, canonicalize.order_words) co-locates
# each key and yields the output order in the same pass.
TRIPLE_ORDER = ("pred", "subj", "obj")

# ops table (SURVEY.md §1.2): one triple per row plus its op ('INSERT' |
# 'DELETE').  Flat columns beat a struct for shuffle keys.
# obj_type: 'iri' | 'literal'.
OPS = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("lang", pa.string()),
        ("datatype", pa.string()),
        ("src_url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("op", pa.string()),
    ]
)

# One entity's triple set (a parsed TTL revision): the diff's input.
SNAPSHOT = pa.schema(
    [pa.field("entity", pa.string())] + [f for f in OPS if f.name in TRIPLE_KEY]
)

# Broadcast side tables.
ALIASES = pa.schema(
    [
        ("surface_form", pa.string()),
        ("qid", pa.string()),
        ("prior", pa.float32()),
        ("context_keywords", pa.string()),  # space-joined disambiguation vocab
    ]
)

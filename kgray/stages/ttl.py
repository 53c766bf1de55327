"""TTL ingest stage: snapshot documents -> triples Dataset (SURVEY.md M12).

The reference reads whole-entity TTL revisions into rdflib graphs one HTTP
response at a time (ttl_compare.py:150-183).  Distributed, a snapshot is a
Dataset of (entity, ttl-text) rows; parsing is a stateless ``map_batches``
over the pure ``kernels.ttl`` codec with ~1->hundreds row fan-out, run per
document through ``schema.fan_out`` exactly like the HTML extract stage —
so TTL snapshots stream through the same downstream machinery
(diff_snapshots, canonicalize, serialize) as pages.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels.ttl import parse_ttl
from ..schema import SNAPSHOT, fan_out

# Small because one TTL document fans out into hundreds of rows and dump
# snapshots run to MBs per entity.
_BATCH_SIZE = 64


def parse_ttl_batch(batch: pa.Table) -> pa.Table:
    """(entity, ttl) rows -> one schema.SNAPSHOT row per parsed triple;
    ``entity`` goes out by row index."""
    return fan_out(batch, _parse, reads=("ttl",), carry={"entity": "entity"},
                   schema=SNAPSHOT)


def _parse(text) -> list[tuple]:
    return parse_ttl(text or "")


def parse_ttl_stage(snapshots):
    """(entity, ttl) Dataset -> schema.SNAPSHOT Dataset."""
    return snapshots.map_batches(parse_ttl_batch, batch_format="pyarrow",
                                 batch_size=_BATCH_SIZE)

"""TTL ingest stage: snapshot documents -> triples Dataset (SURVEY.md M12).

The reference reads whole-entity TTL revisions into rdflib graphs one HTTP
response at a time (ttl_compare.py:150-183).  Distributed, a snapshot is a
Dataset of (entity, ttl-text) rows; parsing is a stateless ``map_batches``
with ~1->hundreds row fan-out that runs the columnar ``kernels.ttl`` parse
once per block, so TTL snapshots stream through the same downstream
machinery (diff_snapshots, canonicalize, serialize) as pages.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels.ttl import parse_ttl_docs
from ..schema import SNAPSHOT


def parse_ttl_batch(batch: pa.Table) -> pa.Table:
    """(entity, ttl) rows -> one schema.SNAPSHOT row per parsed triple;
    ``entity`` goes out by one ``take`` on each triple's source row."""
    entity = batch["entity"]
    t = parse_ttl_docs(batch["ttl"], entity)
    return pa.Table.from_arrays(
        [entity.take(t["row"])] + [t[c] for c in SNAPSHOT.names[1:]],
        schema=SNAPSHOT)


def parse_ttl_stage(snapshots):
    """(entity, ttl) Dataset -> schema.SNAPSHOT Dataset, one parse per
    block."""
    return snapshots.map_batches(parse_ttl_batch, batch_format="pyarrow")

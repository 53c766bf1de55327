"""Deterministic node-id minting (SURVEY.md §2.3 ST2/ST3 replacement).

The reference resolves statement ids (``s:Qnnn-UUID``) and time-value node
ids (``v:<32-hex>``) by querying a live SPARQL endpoint with a TTL-parse
fallback (get_updates.py:734-881).  The engine replaces both lookups with
pure content-hash functions, so resolution is a row-local computation — no
network, no shared mutable state, and stable across reruns (which is what
makes checkpoint-resume and the P/R comparison deterministic).
"""

from __future__ import annotations

import hashlib


def _sha(parts: tuple[str, ...]) -> str:
    return hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()


def statement_id(entity: str, prop: str, value: str) -> str:
    """``s:Q513-d17ea72f-...`` shaped statement node id.

    Wikidata statement ids are entity-scoped UUIDs; the engine mints them as
    a content hash of (entity, property, mainsnak value) formatted uuid-like
    (reference shape: sample_result.txt statement nodes, get_updates.py:806-881).
    """
    h = _sha((entity, prop, value))
    return f"{entity}-{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}"


def time_node_id(time_value: str, precision: int, timezone: int, calendar: str) -> str:
    """``v:`` time-value node id — content hash of the 4-field time node,
    matching Wikidata's content-hash scheme (reference consumer:
    get_updates.py:734-803)."""
    return _sha((time_value, str(precision), str(timezone), calendar))


def reference_hash(entity: str, prop: str, ref_prop: str, ref_value: str) -> str:
    """40-hex ``ref:`` node id (reference consumer: get_updates.py:695-701)."""
    return _sha((entity, prop, ref_prop, ref_value))

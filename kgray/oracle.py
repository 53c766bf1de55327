"""Single-threaded reference-semantics oracle (SURVEY.md §5 test plan, item 2).

A small, sequential, pure-Python re-statement of the full extraction →
linking → assembly → dedup flow, mirroring how the reference processes one
change at a time in a loop (sparql_updates.py:441-457).  It calls the SAME
kernel functions as the Ray pipeline UDFs, so it defines the expected output
(the pipeline must reach P/R >= 0.95 against it; by construction it reaches
1.0 unless the distributed plumbing — batching, shuffles, dedup, per-worker
state — breaks something, which is exactly what the comparison is for).
"""

from __future__ import annotations

from typing import Iterable

from .kernels.assemble import raw_claim_to_triples
from .kernels.htmltext import parse_page
from .kernels.link import build_alias_index, compile_surface_pattern, detect_and_link

TripleKey = tuple[str, str, str, str, str, str]  # (op, subj, pred, obj, lang, datatype)


def oracle_triples(pages_rows: Iterable[dict], alias_rows: list[dict]) -> set[TripleKey]:
    """pages rows (dicts with url/warc_ts/html/text/lang) -> canonical triple-key set."""
    index = build_alias_index(alias_rows)
    pattern = compile_surface_pattern(list(index))
    out: set[TripleKey] = set()
    for page in pages_rows:
        parsed = parse_page(page["html"], page["url"])
        rows = list(parsed["claims"])
        # href mentions carry exact QIDs
        linked_spans: list[tuple[int, int]] = []
        for m in parsed["mentions"]:
            rows.append(
                dict(entity=parsed["entity"], kind="mention", prop="", vtype="",
                     value=m["qid_hint"], lang="", rank="", parent_prop="",
                     parent_value="", op="")
            )
            if m["span_start"] >= 0:
                linked_spans.append((m["span_start"], m["span_end"]))
        # plain alias surfaces -> context-scored linking
        for _, qid, _, _ in detect_and_link(parsed["body_text"], index, pattern, linked_spans):
            rows.append(
                dict(entity=parsed["entity"], kind="mention", prop="", vtype="",
                     value=qid, lang="", rank="", parent_prop="",
                     parent_value="", op="")
            )
        for r in rows:
            for (s, p, o, _ot, lg, dt, op) in raw_claim_to_triples(r):
                out.add((op, s, p, o, lg, dt))
    return out


def precision_recall(
    got: set[TripleKey], expected: set[TripleKey]
) -> tuple[float, float]:
    if not got or not expected:
        return (0.0, 0.0) if expected or got else (1.0, 1.0)
    tp = len(got & expected)
    return tp / len(got), tp / len(expected)

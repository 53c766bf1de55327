"""Mention detection + QID disambiguation kernels (SURVEY.md ST1/M19, §2.4).

The reference resolves surface forms to QIDs by mining hrefs and querying
live endpoints (extract_href get_updates.py:883-916, get_entity_json
:668-674).  The engine replaces that with a broadcast alias table probed
locally: exact-match surface lookup + a context score for ambiguous
surfaces (token overlap between the mention's context window and the
candidate sense's keyword vocabulary), ties broken by prior then QID.

Pure functions; the alias index is built once per worker process from a
``ray.put`` broadcast — the broadcast small-side join of SURVEY.md §2.4.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9'-]*")


def build_alias_index(
    rows: list[dict],
) -> dict[str, list[tuple[str, float, frozenset[str]]]]:
    """surface_form -> [(qid, prior, context_keyword_set)], prior-descending.

    ~10^7-row scale: this dict is built once on the driver and broadcast via
    ``ray.put``; each worker process gets it zero-copy-ish from the local
    object store instead of re-shipping per batch.
    """
    index: dict[str, list[tuple[str, float, frozenset[str]]]] = {}
    for r in rows:
        index.setdefault(r["surface_form"], []).append(
            (r["qid"], float(r["prior"]), frozenset(r["context_keywords"].split()))
        )
    for cands in index.values():
        cands.sort(key=lambda c: (-c[1], c[0]))
    return index


_WORD_RUN_RE = re.compile(r"\w+")


class SurfaceMatcher:
    """Token-window + hash-set surface matcher (the scalable replacement for
    a giant regex alternation, which Python ``re`` cannot compile at the
    ~10^7-alias scale this stage targets; VERDICT r1 "what's wrong" #5).

    Semantics are byte-identical to the old pattern
    ``(?<![\\w])(s1|s2|...)(?![\\w])`` with surfaces sorted longest-first:

    * candidate spans are word-run windows of the text, so match boundaries
      are exactly the non-word-char boundary assertions;
    * the raw text span must equal the surface verbatim (case-sensitive;
      separator differences like double spaces reject, as the literal
      alternation would);
    * selection is left-to-right, longest-at-a-position, non-overlapping —
      finditer's scan behavior restated as a greedy sweep.

    Build cost is one dict entry per surface (token-tuple -> surfaces) plus
    a first-word prefilter set; probe cost is O(word_runs × distinct
    surface lengths) dict lookups per document, independent of alias-table
    size.  The rare surface that starts or ends with a NON-word character
    cannot sit on word-run boundaries and falls back to a small regex
    alternation over just those surfaces.
    """

    def __init__(self, surfaces: list[str]):
        self.index: dict[tuple[str, ...], set[str]] = {}
        self.first_words: set[str] = set()
        self.lengths: list[int] = []
        fallback: list[str] = []
        lengths: set[int] = set()
        for s in set(surfaces):
            if not s:
                continue
            toks = tuple(_WORD_RUN_RE.findall(s))
            word_bounded = (
                bool(toks)
                and s[0] == toks[0][0] and re.match(r"\w", s[0])
                and s[-1] == toks[-1][-1] and re.match(r"\w", s[-1])
            )
            if not word_bounded:
                fallback.append(s)
                continue
            self.index.setdefault(toks, set()).add(s)
            self.first_words.add(toks[0])
            lengths.add(len(toks))
        self.lengths = sorted(lengths)
        # The alternation sits inside a LOOKAHEAD so candidate generation
        # never consumes text: a plain finditer would hide overlapping
        # fallback occurrences behind an earlier fallback match that the
        # merged greedy sweep later rejects (e.g. surfaces 'b-c-' and 'c--'
        # on 'a-b-c---d': the consuming scan eats 'b-c-' and never emits
        # 'c--', which the combined longest-first regex WOULD select).
        # The zero-width scan emits, at every boundary-valid position, the
        # longest matching fallback surface — exactly the candidate the
        # original single-alternation finditer could pick there — and the
        # sweep below restates finditer selection globally.
        self.fallback_re = (
            re.compile(
                r"(?<![\w])(?=("
                + "|".join(sorted((re.escape(s) for s in fallback),
                                  key=len, reverse=True))
                + r")(?![\w]))"
            )
            if fallback
            else None
        )

    def find(self, text: str) -> list[tuple[str, int, int]]:
        """[(surface, start, end)] — non-overlapping, longest-first."""
        runs = [(m.group(), m.start(), m.end())
                for m in _WORD_RUN_RE.finditer(text)]
        cands: list[tuple[int, int, str]] = []
        n = len(runs)
        for i, (w, s0, _) in enumerate(runs):
            if w not in self.first_words:
                continue
            for L in self.lengths:
                if i + L > n:
                    break
                key = tuple(r[0] for r in runs[i:i + L])
                surfs = self.index.get(key)
                if not surfs:
                    continue
                e = runs[i + L - 1][2]
                frag = text[s0:e]
                if frag in surfs:
                    cands.append((s0, e, frag))
        if self.fallback_re is not None:
            for m in self.fallback_re.finditer(text):
                cands.append((m.start(1), m.end(1), m.group(1)))
        # finditer restated: earliest start wins, longest at equal start,
        # next scan resumes after the accepted match's end
        cands.sort(key=lambda t: (t[0], -(t[1] - t[0])))
        out: list[tuple[str, int, int]] = []
        cursor = -1
        for s0, e, frag in cands:
            if s0 >= cursor:
                out.append((frag, s0, e))
                cursor = e
        return out


def compile_surface_pattern(surfaces: list[str]) -> SurfaceMatcher:
    """Build the surface matcher (name kept from the regex era; ST1 state,
    built once per worker process)."""
    return SurfaceMatcher(surfaces)


def tokenize(text: str) -> frozenset[str]:
    return frozenset(t.lower() for t in _TOKEN_RE.findall(text))


def score_candidates(
    candidates: list[tuple[str, float, frozenset[str]]], context_tokens: frozenset[str]
) -> str:
    """Pick the QID whose keyword set overlaps the context most; break ties
    by prior (descending) then QID (candidates arrive prior-sorted)."""
    best_qid, best_key = "", None
    for qid, prior, kws in candidates:
        overlap = len(kws & context_tokens) if kws else 0
        key = (overlap, prior, qid)
        if best_key is None or key > best_key:
            best_qid, best_key = qid, key
    return best_qid


def detect_and_link(
    body_text: str,
    index: dict[str, list[tuple[str, float, frozenset[str]]]],
    matcher: SurfaceMatcher,
    linked_spans: list[tuple[int, int]] | None = None,
) -> list[tuple[str, str, int, int]]:
    """Find alias surfaces in free text and resolve each to a QID.

    Returns [(surface, qid, start, end)].  Spans already consumed by exact
    href mentions are skipped (they carry their own qid_hint).
    """
    if not body_text:
        return []
    taken = sorted(linked_spans or [])
    ctx = tokenize(body_text)
    out: list[tuple[str, str, int, int]] = []
    for surface, s, e in matcher.find(body_text):
        if any(ts < e and s < te for ts, te in taken):
            continue
        cands = index.get(surface)
        if not cands:
            continue
        out.append((surface, score_candidates(cands, ctx), s, e))
    return out

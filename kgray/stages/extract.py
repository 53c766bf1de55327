"""Extract stage: pages -> raw-claim rows (SURVEY.md M1-M10 analog).

Stateless ``map_batches`` over zero-copy Arrow batches; per-row work is the
pure ``kernels.htmltext`` parser (stdlib html.parser — the reference's
BeautifulSoup walk at get_updates.py:191-358, restated).  Emits one combined
row stream (schema.RAW_CLAIMS) containing:

  * label/desc/alias/claim/qualifier/reference/diff rows,
  * ``mention`` rows for exact href mentions (QID already known),
  * one ``mention_text`` row per page carrying the page's free text in
    ``value`` and already-linked spans in ``parent_value`` ("s:e;s:e") for
    the downstream linker.

A single linear stream (no branch/union) keeps the whole pipeline one
back-pressured streaming DAG.  The byte-identity invariant ``text ==
extract_text(html)`` (BASELINE.json input_hint) is enforced inline when
``verify_text`` is set: violations raise, failing the run loudly rather than
silently drifting (the reference's bare ``except:`` swallows parse errors —
ttl_compare.py:174-178 — which SURVEY.md §4 designs out).
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels.htmltext import extract_text_from_root, parse_html, parse_page
from ..schema import RAW_CLAIMS


def make_extract_fn(verify_text: bool = True):
    def extract_batch(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {name: [] for name in RAW_CLAIMS.names}
        urls = batch["url"].to_pylist()
        tss = batch["warc_ts"].to_pylist()
        htmls = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * len(urls)

        def emit(url, ts, row):
            cols["url"].append(url)
            cols["warc_ts"].append(ts)
            for k in ("entity", "kind", "prop", "vtype", "value", "lang", "rank",
                      "parent_prop", "parent_value", "op"):
                cols[k].append(row.get(k, ""))

        for url, ts, html, text in zip(urls, tss, htmls, texts):
            root = parse_html(html)  # ONE DOM for verify + structure parse
            if verify_text and text is not None:
                recomputed = extract_text_from_root(root)
                if recomputed != text:
                    raise ValueError(f"text extraction drift for url={url!r}")
            parsed = parse_page(html, url, root=root)
            ent = parsed["entity"]
            for row in parsed["claims"]:
                emit(url, ts, row)
            spans = []
            for m in parsed["mentions"]:
                emit(url, ts, dict(entity=ent, kind="mention", value=m["qid_hint"]))
                if m["span_start"] >= 0:
                    spans.append(f"{m['span_start']}:{m['span_end']}")
            if parsed["body_text"]:
                emit(url, ts, dict(entity=ent, kind="mention_text",
                                   value=parsed["body_text"],
                                   parent_value=";".join(spans)))
        return pa.Table.from_pydict(cols, schema=RAW_CLAIMS)

    return extract_batch


def extract_stage(pages, *, verify_text: bool = True, batch_size: int = 128):
    """pages Dataset -> raw-claims Dataset.

    ``batch_size`` is modest because each page row fans out ~15-40 claim
    rows and html payloads are KB-scale; at 100 TB the same setting bounds
    per-task heap no matter the corpus size.  It also sets the TASK
    granularity (input bundles of >= 128 pages) of the fused extract->link->
    assemble->combine operator, which keeps the heaviest stage ~10
    scheduling waves deep on a 32-wide pool (a 2-wave schedule quantizes
    the tail ~20% at full width while costing nothing at low width —
    measured as a width-dependent efficiency loss on the scaling corpus).
    """
    return pages.map_batches(
        make_extract_fn(verify_text),
        batch_format="pyarrow",
        batch_size=batch_size,
    )

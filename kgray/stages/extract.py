"""Extract stage: pages -> raw-claim rows (SURVEY.md M1-M10 analog).

Stateless ``map_batches`` over Arrow batches.  Each ``_SLICE_PAGES``
slice of pages goes through ONE columnar parse
(``kernels.htmltext.parse_pages``: a polars token pass over every page,
the DOM as element extents, ``find``/``find_all`` as searchsorted, the
reference's BeautifulSoup walk at get_updates.py:191-358, restated), and
each output row's ``url`` and ``warc_ts`` are taken from its page by row
index.  A page the token grammar cannot prove (a comment, script, stray
``<``, a tag name html.parser reads differently, mismatched close tag,
...) bails to the row-wise path instead: ``_page_rows`` (``parse_html``,
i.e. stdlib html.parser, then ``parse_page``) through ``schema.fan_out``,
and its rows rejoin the slice's in page order.  Emits one combined row
stream (schema.RAW_CLAIMS) containing:

  * label/desc/alias/claim/qualifier/reference/diff rows,
  * ``mention`` rows for exact href mentions (QID already known),
  * one ``mention_text`` row per page carrying the page's free text (its
    ``p.body-text`` paragraphs joined by ``"\n"``) in ``value`` and the
    href mentions' spans in that text in ``parent_value`` ("s:e;s:e")
    for the downstream linker.

A single linear stream (no branch/union) keeps the whole pipeline one
back-pressured streaming DAG.  The byte-identity invariant ``text ==
extract_text(html)`` (BASELINE.json input_hint) is enforced inline on
every page that carries ``text``: violations raise, failing the run
loudly rather than silently drifting (the reference's bare ``except:``
swallows parse errors — ttl_compare.py:174-178 — which SURVEY.md §4
designs out).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.htmltext import extract_text_from_root, parse_html, parse_page, parse_pages
from ..schema import RAW_CLAIMS, fan_out


# Pages per parse slice, taken inside ``extract_batch``: each page row fans
# out ~15-40 claim rows and html payloads are KB-scale, so the slice bounds
# the per-call heap however large a read block is.  It is NOT a Ray
# ``batch_size``: Ray makes the largest ``batch_size`` of the stages fused
# with extract the fused task's input-bundle minimum, so the stage passes
# none and each task runs over exactly one read block.
_SLICE_PAGES = 128
# every RAW_CLAIMS column but the two carried by page index
_ROW_FIELDS = RAW_CLAIMS.names[2:]
# a bailed page's rows, with the index of their page in the slice
_PAGED = RAW_CLAIMS.append(pa.field("page", pa.int64()))


def extract_batch(batch: pa.Table) -> pa.Table:
    """Raw-claim rows of every page in ``batch``, parsed ``_SLICE_PAGES``
    pages at a time; the output is the pages' rows in page order."""
    if "text" not in batch.column_names:
        batch = batch.append_column("text", pa.nulls(len(batch), pa.large_string()))
    slices = batch.to_batches(max_chunksize=_SLICE_PAGES)
    if not slices:
        return RAW_CLAIMS.empty_table()
    return pa.concat_tables([_extract_slice(pa.Table.from_batches([b])) for b in slices])


def _extract_slice(pages: pa.Table) -> pa.Table:
    rows, page, text, bailed = parse_pages(pages["html"])
    drift = ~bailed & np.asarray(pc.fill_null(
        pc.not_equal(pc.cast(pages["text"], pa.large_string()), text), False))
    if drift.any():
        url = pages["url"][int(np.flatnonzero(drift)[0])].as_py()
        raise ValueError(f"text extraction drift for url={url!r}")
    cols = {"url": pages["url"].take(page), "warc_ts": pages["warc_ts"].take(page)}
    cols.update((c, rows[c].cast(pa.string())) for c in _ROW_FIELDS)
    out = pa.table(cols, schema=RAW_CLAIMS)
    if not bailed.any():
        return out
    bailed_pages = pages.filter(pa.array(bailed))
    slow = fan_out(bailed_pages.append_column("page", pa.array(np.flatnonzero(bailed))),
                   _page_rows, reads=("url", "html", "text"),
                   carry={"url": "url", "warc_ts": "warc_ts", "page": "page"}, schema=_PAGED)
    both = pa.concat_tables([out.append_column("page", pa.array(page, pa.int64())), slow])
    order = np.argsort(both["page"].to_numpy(), kind="stable")
    return both.take(order).drop_columns(["page"])


def _row(fields: dict) -> tuple:
    return tuple([fields.get(k, "") for k in _ROW_FIELDS])


def _page_rows(url, html, text) -> list[tuple]:
    """The ``_ROW_FIELDS`` of one page's raw-claim rows."""
    root = parse_html(html)  # ONE DOM for verify + structure parse
    if text is not None and extract_text_from_root(root) != text:
        raise ValueError(f"text extraction drift for url={url!r}")
    parsed = parse_page(html, root=root)
    ent = parsed["entity"]
    rows = [_row(c) for c in parsed["claims"]]
    spans = []
    for m in parsed["mentions"]:
        rows.append(_row({"entity": ent, "kind": "mention",
                          "value": m["qid_hint"]}))
        if m["span_start"] >= 0:
            spans.append(f"{m['span_start']}:{m['span_end']}")
    if parsed["body_text"]:
        rows.append(_row({"entity": ent, "kind": "mention_text",
                          "value": parsed["body_text"],
                          "parent_value": ";".join(spans)}))
    return rows


def make_extract_fn(verify_text: bool = True):
    """Returns ``extract_batch``; the text check is always on and
    ``verify_text`` is ignored.  Its only caller is
    ``perfbench/workloads.py kernels()``."""
    return extract_batch


def extract_stage(pages):
    """pages Dataset -> raw-claims Dataset."""
    return pages.map_batches(extract_batch, batch_format="pyarrow")

"""Extract stage: pages -> raw-claim rows (SURVEY.md M1-M10 analog).

Stateless ``map_batches`` over Arrow batches; the per-page work is the
pure ``kernels.htmltext`` parser (a regex tokenizer over the well-formed
subset, stdlib html.parser for anything else — the reference's
BeautifulSoup walk at get_updates.py:191-358, restated).  Only ``url``,
``html`` and ``text`` become Python objects; each output row's ``url``
and ``warc_ts`` are taken from its page by row index.  Emits one combined
row stream (schema.RAW_CLAIMS) containing:

  * label/desc/alias/claim/qualifier/reference/diff rows,
  * ``mention`` rows for exact href mentions (QID already known),
  * one ``mention_text`` row per page carrying the page's free text in
    ``value`` and already-linked spans in ``parent_value`` ("s:e;s:e") for
    the downstream linker.

A single linear stream (no branch/union) keeps the whole pipeline one
back-pressured streaming DAG.  The byte-identity invariant ``text ==
extract_text(html)`` (BASELINE.json input_hint) is enforced inline on
every page that carries ``text``: violations raise, failing the run
loudly rather than silently drifting (the reference's bare ``except:``
swallows parse errors — ttl_compare.py:174-178 — which SURVEY.md §4
designs out).
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels.htmltext import extract_text_from_root, parse_html, parse_page
from ..schema import RAW_CLAIMS, source_rows, str_list


# Pages per parse slice, taken inside ``extract_batch``: each page row fans
# out ~15-40 claim rows and html payloads are KB-scale, so the slice bounds
# the per-call Python heap however large a read block is.  It is NOT a Ray
# ``batch_size``: Ray makes the largest ``batch_size`` of the stages fused
# with extract the fused task's input-bundle minimum, so the stage passes
# none and each task runs over exactly one read block.
_SLICE_PAGES = 128
# every RAW_CLAIMS column but the two carried by page index
_ROW_FIELDS = RAW_CLAIMS.names[2:]


def extract_batch(batch: pa.Table) -> pa.Table:
    """Raw-claim rows of every page in ``batch``, parsed ``_SLICE_PAGES``
    pages at a time; the output is the slices' rows in page order."""
    slices = batch.to_batches(max_chunksize=_SLICE_PAGES)
    if not slices:
        return RAW_CLAIMS.empty_table()
    return pa.concat_tables([_extract_slice(b) for b in slices])


def _extract_slice(batch: pa.RecordBatch) -> pa.Table:
    """Raw-claim rows of one slice.  The parser reads ``url``, ``html``
    and ``text`` as Python objects (one ``str_list`` pass per column);
    ``url`` and ``warc_ts`` go OUT by row index instead (``source_rows``
    of the per-page row counts, then one ``take`` per column), so no
    per-row ``datetime`` is ever built."""
    cols: dict[str, list] = {name: [] for name in _ROW_FIELDS}
    counts: list[int] = []  # output rows per page
    urls = str_list(batch["url"])
    htmls = str_list(batch["html"])
    texts = (str_list(batch["text"]) if "text" in batch.column_names
             else [None] * len(urls))

    def emit(row):
        for k in _ROW_FIELDS:
            cols[k].append(row.get(k, ""))

    for url, html, text in zip(urls, htmls, texts):
        start = len(cols["kind"])
        root = parse_html(html)  # ONE DOM for verify + structure parse
        if text is not None and extract_text_from_root(root) != text:
            raise ValueError(f"text extraction drift for url={url!r}")
        parsed = parse_page(html, url, root=root)
        ent = parsed["entity"]
        for row in parsed["claims"]:
            emit(row)
        spans = []
        for m in parsed["mentions"]:
            emit(dict(entity=ent, kind="mention", value=m["qid_hint"]))
            if m["span_start"] >= 0:
                spans.append(f"{m['span_start']}:{m['span_end']}")
        if parsed["body_text"]:
            emit(dict(entity=ent, kind="mention_text",
                      value=parsed["body_text"],
                      parent_value=";".join(spans)))
        counts.append(len(cols["kind"]) - start)
    parents = source_rows(counts)
    return pa.Table.from_pydict(
        {"url": batch["url"].take(parents),
         "warc_ts": batch["warc_ts"].take(parents), **cols},
        schema=RAW_CLAIMS)


def make_extract_fn(verify_text: bool = True):
    """Returns ``extract_batch``; the text check is always on and
    ``verify_text`` is ignored.  Its only caller is
    ``perfbench/workloads.py kernels()``."""
    return extract_batch


def extract_stage(pages):
    """pages Dataset -> raw-claims Dataset."""
    return pages.map_batches(extract_batch, batch_format="pyarrow")

"""kgray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the query/data-processing capabilities of the reference
(``sinaazimii/Wikidata-tools``, a single-threaded HTTP-driven CLI) as
streaming ``ray.data.Dataset`` pipelines over zero-copy Arrow batches:

    pages (url, warc_ts, html, text, lang)
      -> extract   (HTML -> text + raw claims + mention candidates)   [stateless map_batches]
      -> link      (alias-table + context-score QID linking)          [stateless map_batches]
      -> assemble  (claims -> typed RDF triples, scaffolds, ids)      [stateless map_batches]
      -> canonicalize (exact dedup, salted groupby for head keys)     [shuffle]
      -> diff      (old vs new snapshot anti-join -> INSERT/DELETE)   [shuffle]
      -> materialize (sort, partitioned parquet, lineage manifests)   [shuffle + sink]

Everything is built on public APIs only: Ray Data, pyarrow, pandas, numpy.
Shared state rides in actor constructors or ``ray.put`` broadcasts (the
reference's module globals at ``get_updates.py:95-102`` are designed out,
per SURVEY.md §2.3/ST4); the one module global is ``stages/link.py``'s
per-process linker cache, keyed by the alias broadcast.
"""

# NOTE: importing the library mutates NO process-global state (ADVICE r3
# #2).  The POLARS_MAX_THREADS=1 cap that keeps the exchange row hash from
# oversubscribing Ray workers lives in stages/shuffle.py (setdefault
# immediately before ITS OWN polars import — the consumer that needs it)
# and in the process-owning entrypoints (__ray_entry__.py, bench.py,
# scripts/ray_job.py, tests/conftest.py).

__version__ = "0.1.0"

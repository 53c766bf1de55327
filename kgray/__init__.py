"""kgray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the query/data-processing capabilities of the reference
(``sinaazimii/Wikidata-tools``, a single-threaded HTTP-driven CLI) as
streaming ``ray.data.Dataset`` pipelines over zero-copy Arrow batches:

    pages (url, warc_ts, html, text, lang)
      -> extract   (HTML -> text + raw claims + mention candidates)   [stateless map_batches]
      -> link      (alias-table + context-score QID linking)          [stateless map_batches]
      -> assemble  (claims -> typed RDF triples, scaffolds, ids)      [stateless map_batches]
      -> canonicalize (exact dedup, local combiner + one exchange: a range
                       sort on order words of (pred, subj, obj), the
                       output order)                                 [shuffle]
      -> diff      (old vs new snapshot anti-join -> INSERT/DELETE)   [shuffle]
      -> materialize (partitioned parquet, lineage manifests)         [sink]

Built on Ray Data, pyarrow, pandas, numpy and polars (the bucket row hash
in ``stages/shuffle.py`` and the survivor pick in
``stages/canonicalize.py``).  Ray Data internals are read in one place:
``materialize._stage_summary`` reads ``_write_ds._plan.stats()`` for the
per-operator stats of a write.

Every ``map_batches`` stage is a stateless task map, never an actor
pool.  Shared state rides in ``ray.put`` broadcasts (the
reference's module globals at ``get_updates.py:95-102`` are designed out,
per SURVEY.md §2.3/ST4).  There are two module globals, both one-entry
caches: ``stages/link.py``'s per-process linker, keyed by the alias
broadcast, and ``stages/metrics.py``'s per-driver counter actor, keyed
by the Ray job (``tests/test_dead_code.py`` allows no other).
"""

# NOTE: importing the library mutates NO process-global state (ADVICE r3
# #2).  The POLARS_MAX_THREADS=1 cap that keeps the exchange row hash from
# oversubscribing Ray workers lives in stages/shuffle.py (setdefault
# immediately before ITS OWN polars import — the consumer that needs it)
# and in the process-owning entrypoints (__ray_entry__.py, bench.py,
# scripts/ray_job.py, tests/conftest.py).

__version__ = "0.1.0"

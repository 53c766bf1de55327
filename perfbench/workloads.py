"""The benchmark's three workloads: seeded inputs, their oracles, the
untraced job, the stage-by-stage traced job and the in-process kernel pass.

Inputs and expected outputs are built before any clock starts; the engine
only ever sees the generated parquet files.
"""

from __future__ import annotations

import glob
import os
import random
import re
import time
from unittest import mock

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import kgray.oracle
from kgray.fixtures import aliases_table, gen_pages_table, raw_ops_table, write_pages_corpus
from kgray.kernels.ttl import serialize_ttl

# name -> (docs, page richness, docs per input file): sized so that a pass
# takes 5-7 s on a 4-vCPU host and a run holds five timed passes or more
SIZES = {
    "pages_rich": (120, 8, 30),
    "revision_delta": (1500, 1, 375),
}
EDIT_SHARE = 0.10
PAGE_KEY = ("op", "subj", "pred", "obj", "lang", "datatype")
# diff_snapshots keys a claim by these columns (obj_type is not a key)
DIFF_COLS = ("entity", "subj", "pred", "obj", "lang", "datatype")
DIFF_KEY = ("op",) + DIFF_COLS
_ENTITY_RE = re.compile(r"/wiki/(Q\d+)\?")


def _mb(nbytes: float) -> float:
    return nbytes / 1e6


def _read_keys(out_dir: str, cols) -> tuple[set, int]:
    """Output directory -> (distinct key set, row count)."""
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    if not files:
        return set(), 0
    t = pa.concat_tables([pq.read_table(f, columns=list(cols)) for f in files])
    return set(zip(*(t[c].to_pylist() for c in cols))), len(t)


def check(got: set, rows: int, expected: set) -> dict:
    """Precision and recall of one pass's output against the oracle.  A
    duplicate output row breaks set semantics and fails the pass too."""
    tp = len(got & expected)
    precision = tp / len(got) if got else float(not expected)
    recall = tp / len(expected) if expected else float(not got)
    return {"precision": precision, "recall": recall,
            "ok": precision == 1.0 and recall == 1.0 and rows == len(got)}


def _fresh(out_dir: str) -> None:
    if os.path.exists(out_dir):
        raise RuntimeError(f"pass output dir is not fresh: {out_dir}")


def _stage(tracer, m: dict, name: str, build):
    """Run one public stage to completion inside its own span and add its
    wall time, rows and MB out to ``m`` (summed when a stage runs twice)."""
    with tracer.span(name) as counts:
        ds = build().materialize()
    rows, mb = ds.count(), _mb(ds.size_bytes())
    counts.update(rows_out=rows, mb_out=mb)
    m[f"{name}.wall_s"] = tracer.total(name)
    m[f"{name}.rows_out"] = m.get(f"{name}.rows_out", 0) + rows
    m[f"{name}.mb_out"] = m.get(f"{name}.mb_out", 0.0) + mb
    return ds


def _batches(table: pa.Table, size: int):
    for b in table.to_batches(max_chunksize=size):
        yield pa.Table.from_batches([b], schema=table.schema)


class PagesWorkload:
    """Pages -> ``run_kg_pipeline`` -> sorted parquet plus manifest."""

    def __init__(self, name: str, workdir: str, seed: int, docs: int | None):
        n, richness, shard = SIZES[name]
        self.name, self.docs = name, docs or n
        self.paths = write_pages_corpus(
            os.path.join(workdir, "pages"), self.docs, seed=seed,
            shard_rows=min(shard, self.docs), parallel=False,
            richness=richness)
        self.alias_rows = aliases_table().to_pylist()
        self.table = pa.concat_tables([pq.read_table(p) for p in self.paths])
        self.expected, counts = self._oracle()
        self.props = {
            "pages": self.docs,
            "richness": richness,
            "input_files": len(self.paths),
            "html_mb": _mb(pc.sum(pc.binary_length(self.table["html"])).as_py()),
            "mentions_per_page": counts["linked"] / self.docs,
            "assembled_rows": counts["rows"],
            "canonical_triples": len(self.expected),
            "dedup_yield": len(self.expected) / counts["rows"],
        }

    def _oracle(self):
        """``kgray.oracle.oracle_triples`` over every page, counting on the
        way the rows the kernels emit before dedup and the alias mentions
        the linker resolves."""
        counts = {"rows": 0, "linked": 0}
        to_triples = kgray.oracle.raw_claim_to_triples
        link = kgray.oracle.detect_and_link

        def count_rows(row):
            out = to_triples(row)
            counts["rows"] += len(out)
            return out

        def count_linked(*args):
            out = link(*args)
            counts["linked"] += len(out)
            return out

        with mock.patch.object(kgray.oracle, "raw_claim_to_triples", count_rows), \
                mock.patch.object(kgray.oracle, "detect_and_link", count_linked):
            expected = kgray.oracle.oracle_triples(
                self.table.to_pylist(), self.alias_rows)
        return expected, counts

    def source(self):
        from kgray.pipelines.kg import read_pages

        return read_pages(self.paths)

    def run(self, out_dir: str) -> int:
        """One untraced pass into a fresh ``out_dir``; returns output rows."""
        from kgray.pipelines.kg import run_kg_pipeline
        from kgray.stages.materialize import manifest_path

        _fresh(out_dir)
        t0 = time.time()
        manifest = run_kg_pipeline(self.paths, out_dir)
        mp = manifest_path(out_dir)
        # a manifest left by an earlier pass would make the pass resume
        if not os.path.exists(mp) or os.path.getmtime(mp) < t0:
            raise RuntimeError("the pass did not write its own manifest")
        return manifest["rows"]

    def verify(self, out_dir: str) -> dict:
        return check(*_read_keys(out_dir, PAGE_KEY), self.expected)

    def staged(self, out_dir: str, tracer) -> dict:
        """Every public stage of the flagship run to completion on its own,
        in pipeline order, one span each under one ``job`` span."""
        from kgray.pipelines.kg import _auto_concurrency
        from kgray.stages.assemble import assemble_stage
        from kgray.stages.canonicalize import canonicalize_stage
        from kgray.stages.extract import extract_stage
        from kgray.stages.link import link_stage
        from kgray.stages.materialize import materialize_stage
        from kgray.stages.shuffle import source_size_hint

        _fresh(out_dir)
        m: dict = {}
        with tracer.span("job"):
            read = self.source()
            hint = source_size_hint(read)
            pages = _stage(tracer, m, "pipelines.kg.read_pages", lambda: read)
            raw = _stage(tracer, m, "stages.extract", lambda: extract_stage(pages))
            linked = _stage(tracer, m, "stages.link", lambda: link_stage(
                raw, self.alias_rows, concurrency=_auto_concurrency()))
            ops = _stage(tracer, m, "stages.assemble", lambda: assemble_stage(linked))
            canon = _stage(tracer, m, "stages.canonicalize",
                           lambda: canonicalize_stage(ops, size_hint_bytes=hint))
            with tracer.span("stages.materialize") as counts:
                manifest = materialize_stage(
                    canon, out_dir, sort_key=("pred", "subj", "obj"),
                    inputs=list(self.paths))
        mb = _mb(sum(os.path.getsize(os.path.join(out_dir, f))
                     for f in manifest["files"]))
        counts.update(rows_out=manifest["rows"], mb_out=mb)
        m.update({
            "stages.materialize.wall_s": tracer.total("stages.materialize"),
            "stages.materialize.rows_out": manifest["rows"],
            "stages.materialize.mb_out": mb,
            "stages.materialize.files": len(manifest["files"]),
            "stages.canonicalize.dedup_yield":
                m["stages.canonicalize.rows_out"] / m["stages.assemble.rows_out"],
            "stages.shuffle.partitions": canon.num_blocks(),
        })
        return m

    def kernels(self, tracer) -> dict:
        """The per-document kernels in this process, Ray out of the
        picture, at the batch sizes their stages use."""
        from kgray.stages.assemble import assemble_batch
        from kgray.stages.extract import make_extract_fn
        from kgray.stages.link import LinkerActor

        extract = make_extract_fn(True)
        with tracer.span("kernels.extract"):
            raw = []
            for b in _batches(self.table, 128):
                with tracer.span("stages.extract.udf"):
                    raw.append(extract(b))
        with tracer.span("kernels.link"):
            linker = LinkerActor(self.alias_rows)
            linked, blocks, n_linked = [], 0, 0
            for b in _batches(pa.concat_tables(raw), 128):
                n_blocks = pc.sum(pc.equal(b["kind"], "mention_text")).as_py() or 0
                with tracer.span("stages.link.udf"):
                    out = linker(b)
                blocks += n_blocks
                # each scanned block row is replaced by its resolved mentions
                n_linked += len(out) - (len(b) - n_blocks)
                linked.append(out)
        with tracer.span("kernels.assemble"):
            for b in _batches(pa.concat_tables(linked), 8192):
                with tracer.span("stages.assemble.udf"):
                    assemble_batch(b)
        return {
            "stages.extract.udf_s": tracer.total("stages.extract.udf"),
            "stages.link.udf_s": tracer.total("stages.link.udf"),
            "stages.link.mention_blocks": blocks,
            "stages.link.mentions_linked": n_linked,
            "stages.assemble.udf_s": tracer.total("stages.assemble.udf"),
        }


def _keep(ent: str, s: str, p: str, o: str) -> bool:
    """The diff's M17 filter restated: no /owl# terms, no wd:P subjects, no
    wd:Q subjects other than the revision's own entity."""
    if "/owl#" in s or "/owl#" in p or "/owl#" in o or s.startswith("wd:P"):
        return False
    return not (s.startswith("wd:Q") and s != f"wd:{ent}")


class RevisionWorkload:
    """Old/new Turtle revision pairs -> ``parse_ttl_stage`` on both sides
    -> ``diff_snapshots`` -> ``write_parquet``."""

    def __init__(self, name: str, workdir: str, seed: int, docs: int | None):
        n, _, shard = SIZES[name]
        self.name, self.docs = name, docs or n
        alias_rows = aliases_table().to_pylist()
        raw = raw_ops_table(gen_pages_table(self.docs, seed), alias_rows)
        per_page: dict[str, set] = {}
        for url, *t in zip(*(raw[c].to_pylist() for c in (
                "src_url", "subj", "pred", "obj", "obj_type", "lang", "datatype"))):
            per_page.setdefault(url, set()).add(tuple(t))
        old_docs, new_docs = [], []
        old_keys: set = set()
        new_keys: set = set()
        for i, url in enumerate(sorted(per_page)):
            ent = _ENTITY_RE.search(url).group(1)
            rng = random.Random(f"{seed}/{i}")
            old = sorted(per_page[url])
            new = []
            for s, p, o, ot, lg, dt in old:
                if rng.random() >= EDIT_SHARE:
                    new.append((s, p, o, ot, lg, dt))
                elif ot == "literal":  # edited value: one DELETE + one INSERT
                    new.append((s, p, f"{o} rev{i}", ot, lg, dt))
                # an edited IRI object is removed: one DELETE
            new.sort()
            old_docs.append((ent, serialize_ttl(old)))
            new_docs.append((ent, serialize_ttl(new)))
            for side, rows in ((old_keys, old), (new_keys, new)):
                side.update((ent, s, p, o, lg, dt) for s, p, o, _, lg, dt in rows
                            if _keep(ent, s, p, o))
        # the generator's own set difference, before any serialization
        self.expected = ({("INSERT",) + k for k in new_keys - old_keys}
                         | {("DELETE",) + k for k in old_keys - new_keys})
        self.union_keys = len(old_keys | new_keys)
        self.old_paths = self._write(workdir, "old", old_docs, shard)
        self.new_paths = self._write(workdir, "new", new_docs, shard)
        inserts = sum(1 for k in self.expected if k[0] == "INSERT")
        self.props = {
            "revision_pairs": self.docs,
            "input_files": len(self.old_paths) + len(self.new_paths),
            "ttl_mb": _mb(sum(len(t.encode()) for _, t in old_docs + new_docs)),
            "edit_share": EDIT_SHARE,
            "diff_keys": self.union_keys,
            "expected_inserts": inserts,
            "expected_deletes": len(self.expected) - inserts,
        }

    @staticmethod
    def _write(workdir: str, side: str, docs: list, shard: int) -> list[str]:
        os.makedirs(os.path.join(workdir, side), exist_ok=True)
        paths = []
        for start in range(0, len(docs), shard):
            part = docs[start:start + shard]
            path = os.path.join(workdir, side, f"{side}-{start:08d}.parquet")
            pq.write_table(pa.table({"entity": [e for e, _ in part],
                                     "ttl": [t for _, t in part]}), path)
            paths.append(path)
        return paths

    def source(self):
        import ray.data as rd

        return rd.read_parquet(self.old_paths)

    def run(self, out_dir: str) -> int:
        import ray.data as rd

        from kgray.stages.diff import diff_snapshots
        from kgray.stages.ttl import parse_ttl_stage

        _fresh(out_dir)
        old = parse_ttl_stage(rd.read_parquet(self.old_paths))
        new = parse_ttl_stage(rd.read_parquet(self.new_paths))
        diff_snapshots(old, new).write_parquet(out_dir)
        files = glob.glob(os.path.join(out_dir, "*.parquet"))
        if not files:
            raise RuntimeError("the pass wrote no output")
        return sum(pq.read_metadata(f).num_rows for f in files)

    def verify(self, out_dir: str) -> dict:
        return check(*_read_keys(out_dir, DIFF_KEY), self.expected)

    def staged(self, out_dir: str, tracer) -> dict:
        import ray.data as rd

        from kgray.stages.diff import diff_snapshots
        from kgray.stages.ttl import parse_ttl_stage

        _fresh(out_dir)
        m: dict = {}
        with tracer.span("job"):
            with tracer.span("read_parquet"):
                old_in = rd.read_parquet(self.old_paths).materialize()
                new_in = rd.read_parquet(self.new_paths).materialize()
            old = _stage(tracer, m, "stages.ttl", lambda: parse_ttl_stage(old_in))
            new = _stage(tracer, m, "stages.ttl", lambda: parse_ttl_stage(new_in))
            ops = _stage(tracer, m, "stages.diff", lambda: diff_snapshots(old, new))
            with tracer.span("write_parquet"):
                ops.write_parquet(out_dir)
        counts = ops.groupby("op").count().take_all()
        by_op = {r["op"]: r["count()"] for r in counts}
        inserts, deletes = by_op.get("INSERT", 0), by_op.get("DELETE", 0)
        m.update({
            "stages.diff.inserts": inserts,
            "stages.diff.deletes": deletes,
            # diff keys present on both sides, which cancel in the exchange
            "stages.diff.cancel_share": 1 - (inserts + deletes) / self.union_keys,
            "stages.shuffle.partitions": ops.num_blocks(),
        })
        return m

    def kernels(self, tracer) -> dict:
        from kgray.stages.ttl import parse_ttl_batch

        triples = 0
        with tracer.span("kernels.ttl"):
            for path in self.old_paths + self.new_paths:
                for b in _batches(pq.read_table(path), 64):
                    with tracer.span("stages.ttl.udf"):
                        triples += len(parse_ttl_batch(b))
        return {"stages.ttl.udf_s": tracer.total("stages.ttl.udf"),
                "stages.ttl.triples": triples}


WORKLOADS = {
    "pages_rich": PagesWorkload,
    "revision_delta": RevisionWorkload,
}

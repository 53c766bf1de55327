"""Similarity search: IVF recall vs brute force; determinism."""

from __future__ import annotations

import pytest

SF_DIR = "/root/testdata/sf0.001"


def _topk_sets(df):
    out = {}
    for q, grp in df.groupby("query_id"):
        out[q] = set(grp["neighbor_id"])
    return out


def test_ivf_recall_vs_brute(ray_session):
    from kgray.pipelines.simsearch import knn_brute, knn_ivf

    brute = _topk_sets(knn_brute(SF_DIR).to_pandas())
    ivf = _topk_sets(knn_ivf(SF_DIR).to_pandas())
    assert set(brute) == set(ivf)
    recalls = [len(brute[q] & ivf[q]) / len(brute[q]) for q in brute]
    avg = sum(recalls) / len(recalls)
    # uniform-ish random vectors: probing 4/16 clusters still finds a
    # substantial share of true neighbors; the exact bound is data-dependent
    assert avg >= 0.3, f"IVF recall {avg:.2f}"


def test_ivf_matches_uncached_expected_table(ray_session):
    """``knn_ivf`` equals ``kgray.expected``'s restatement built here, not
    read from the oracle's on-disk cache, which a stale builder passes."""
    from kgray.expected import _expected_knn_ivf
    from kgray.oracle_check import compare, to_pandas
    from kgray.pipelines.simsearch import knn_ivf

    want = _expected_knn_ivf(SF_DIR).to_pandas()
    assert len(want) > 0
    assert not compare(to_pandas(knn_ivf(SF_DIR)), want)


def test_ivf_reads_minority_of_corpus(ray_session):
    """Real-IVF criterion: the probe must touch < 50% of the corpus rows
    (partition-path pruning, not full-scan-with-pruned-scoring)."""
    import glob
    import os

    import pyarrow.parquet as pq

    from kgray.pipelines.simsearch import (
        _load_queries, _normalize, _probe_plan, build_ivf_index,
    )

    out, cent = build_ivf_index(SF_DIR)
    _, qm = _load_queries(SF_DIR)
    probe, union = _probe_plan(cent, _normalize(qm))
    # rows per cluster partition, from the parquet footers
    sizes = {
        int(d.rsplit("=", 1)[1]): sum(
            pq.read_metadata(f).num_rows
            for f in glob.glob(os.path.join(d, "*.parquet")))
        for d in glob.glob(os.path.join(out, "cluster=*"))
    }
    total = sum(sizes.values())
    # the UNION of probed partitions is what the batched 5-query run reads;
    # one query's probe set is what its scoring touches
    per_q = [sum(sizes.get(c, 0) for c in p.tolist()) / max(total, 1)
             for p in probe]
    s = {"total_rows": total,
         "union_frac": sum(sizes.get(c, 0) for c in union) / max(total, 1),
         "per_query_frac_mean": sum(per_q) / len(per_q)}
    assert s["total_rows"] > 0
    assert s["union_frac"] < 0.5, s
    assert s["per_query_frac_mean"] < 0.3, s


@pytest.mark.parametrize("blocks", [1, 3, 8])
def test_neardup_block_pairs_match_singleblock(ray_session, monkeypatch,
                                               walk_in_process, blocks):
    """Exactness: the block-pair self-join must emit exactly the
    brute-force O(n²) pair set at any block count — a wrong cross-block
    orientation guard would silently DROP pairs without producing
    duplicates, so shape checks alone are not enough.  ``block_pairs``'
    row limit is chosen to split the corpus into ``blocks`` blocks; it is
    read on the driver, so the patched limit reaches the workers.  The
    scorer runs once per block pair."""
    import numpy as np
    import pyarrow.parquet as pq

    from kgray.pipelines import simsearch as S
    from kgray.stages import shuffle

    t = pq.read_table(SF_DIR + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    limit = -(-len(t) // blocks)
    assert -(-len(t) // limit) == blocks
    monkeypatch.setattr(shuffle, "MAX_BLOCK_ROWS", limit)
    df = S.neardup_cosine(SF_DIR).to_pandas().sort_values(
        ["vec_a", "vec_b"], ignore_index=True)
    assert (df["vec_a"] < df["vec_b"]).all()
    assert not df.duplicated(["vec_a", "vec_b"]).any()

    ids = np.asarray(t["vec_id"].to_pylist())
    m = S._normalize(np.array(t["embedding"].to_pylist(), dtype=np.float64))
    sims = m @ m.T
    ri, ci = np.nonzero(sims >= S.NEARDUP_SIM)
    expected = {(int(min(ids[a], ids[b])), int(max(ids[a], ids[b])))
                for a, b in zip(ri, ci) if ids[a] != ids[b]}
    got = set(zip(df["vec_a"], df["vec_b"]))
    assert got == expected

    out, calls = walk_in_process(lambda: S.neardup_cosine(SF_DIR), S,
                                 "_score_block_pair")
    assert set(zip(out["vec_a"].to_pylist(), out["vec_b"].to_pylist())) == got
    assert len(calls) == blocks * (blocks + 1) // 2


def test_brute_topk_shape(ray_session):
    from kgray.pipelines.simsearch import N_QUERIES, TOP_K, knn_brute

    df = knn_brute(SF_DIR).to_pandas()
    assert len(df) == N_QUERIES * TOP_K
    assert (df.groupby("query_id").size() == TOP_K).all()
    # no self-matches
    assert (df["query_id"] != df["neighbor_id"]).all()


def test_ivf_rebuild_keeps_one_directory_per_scale(ray_session, tmp_path,
                                                   monkeypatch):
    """A changed fingerprint rebuilds the index in its one directory; an
    unchanged one serves it without a rebuild."""
    import os

    import kgray.expected as X
    import kgray.pipelines.simsearch as S

    monkeypatch.setattr(S, "_IVF_ROOT", str(tmp_path))
    dirs, stamps = [], []
    for fp in ("source-a", "source-b", "source-b"):
        monkeypatch.setattr(X, "_src_fingerprint", lambda *_, fp=fp: fp)
        out, _ = S.build_ivf_index(SF_DIR)
        dirs.append(out)
        with open(os.path.join(out, "_done")) as f:
            assert f.read() == fp
        stamps.append(os.stat(os.path.join(out, "centroids.npy")).st_mtime_ns)
    assert os.listdir(tmp_path) == [os.path.basename(out)]
    assert len(set(dirs)) == 1
    assert stamps[2] == stamps[1]

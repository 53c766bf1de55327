"""Rows-only text ops: MinHash/LSH recall, SimHash + fingerprint determinism."""

from __future__ import annotations

import pytest

SF_DIR = "/root/testdata/sf0.001"


def _pairs(df):
    return {(a, b) for a, b in zip(df["doc_a"], df["doc_b"])}


def test_minhash_recall_vs_exhaustive(ray_session):
    """LSH candidates (verified with true Jaccard) must recover nearly all
    same-source pairs found by the exhaustive bucketed Jaccard pass.  With
    2 rows/band x 16 bands, detection probability at jac=0.5 is
    1-(1-0.25)^16 ≈ 0.99."""
    from kgray.pipelines.textproc import minhash_lsh_pairs, ngram_jaccard_pairs

    exhaustive = _pairs(ngram_jaccard_pairs(SF_DIR).to_pandas())
    lsh = _pairs(minhash_lsh_pairs(SF_DIR).to_pandas())
    assert exhaustive, "fixture should contain near-dup pairs"
    recall = len(exhaustive & lsh) / len(exhaustive)
    assert recall >= 0.9, f"LSH recall {recall:.3f} too low"
    # every LSH-emitted pair is Jaccard-verified, so none below threshold
    from kgray.pipelines.textproc import JACCARD_THRESHOLD
    import pandas as pd

    lsh_df = minhash_lsh_pairs(SF_DIR).to_pandas()
    assert (lsh_df["jac"] >= JACCARD_THRESHOLD).all()


@pytest.fixture(scope="module")
def lsh_expected():
    """kgray.expected's exhaustive MinHash and SimHash pair tables, built
    here rather than read from the oracle's on-disk cache."""
    from kgray.expected import _expected_minhash_lsh, _expected_simhash_pairs

    return {"minhash_lsh_pairs": _expected_minhash_lsh(SF_DIR).to_pandas(),
            "simhash_pairs": _expected_simhash_pairs(SF_DIR).to_pandas()}


@pytest.mark.parametrize("width", [1, 256])
def test_lsh_pairs_match_uncached_expected_tables(ray_session, monkeypatch,
                                                  lsh_expected, width):
    """Both LSH queries equal their expected tables whether the exchange
    puts every band bucket into one reduce partition or spreads them over
    256 (the width every bucket exchange takes from the cluster's CPU
    count)."""
    from kgray.oracle_check import compare, to_pandas
    from kgray.pipelines import textproc
    from kgray.stages import shuffle

    monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: width)
    for name, want in lsh_expected.items():
        assert len(want) > 0
        got = to_pandas(getattr(textproc, name)(SF_DIR))
        assert not compare(got, want), name


def test_simhash_deterministic_and_close_for_similar(ray_session):
    from kgray.pipelines.textproc import simhash_signatures

    a = simhash_signatures(SF_DIR).to_pandas().sort_values("doc_id", ignore_index=True)
    b = simhash_signatures(SF_DIR).to_pandas().sort_values("doc_id", ignore_index=True)
    assert a.equals(b)
    assert a["simhash"].str.len().eq(16).all()


def test_fingerprints_deterministic(ray_session):
    from kgray.pipelines.textproc import fingerprints

    a = fingerprints(SF_DIR).to_pandas().sort_values("doc_id", ignore_index=True)
    b = fingerprints(SF_DIR).to_pandas().sort_values("doc_id", ignore_index=True)
    assert a.equals(b)
    assert len(a) == 500


def test_simhash_hamming_tracks_jaccard():
    """Property: token-identical docs get identical simhash; disjoint docs
    differ.  Pure-kernel test, no Ray."""
    from kgray.expected import _simhash_scalar

    s1 = _simhash_scalar({"alpha", "beta", "gamma", "delta"})
    s2 = _simhash_scalar({"alpha", "beta", "gamma", "delta"})
    s3 = _simhash_scalar({"zeta", "omega", "kappa", "lambda"})
    assert s1 == s2
    assert bin(s1 ^ s3).count("1") > 8


def test_simhash_pairs_bucketed(ray_session):
    """simhash_pairs: exactly-once emission, symmetric-dedup ordering, and
    every exhaustive high-Jaccard pair within the Hamming budget is found
    when its signatures agree in >=1 band (pigeonhole at dist<=3)."""
    import numpy as np

    from kgray.expected import _simhash_scalar, _token_set
    from kgray.pipelines.textproc import SIMHASH_MAX_HAMMING, simhash_pairs

    df = simhash_pairs(SF_DIR).to_pandas()
    assert (df["doc_a"] < df["doc_b"]).all()
    assert not df.duplicated(["doc_a", "doc_b"]).any()
    assert (df["hamming"] <= SIMHASH_MAX_HAMMING).all()

    # cross-check a sample of emitted pairs against direct signatures
    import pyarrow.parquet as pq

    docs = pq.read_table(SF_DIR + "/documents.parquet", columns=["doc_id", "text"])
    sig = {i: _simhash_scalar(_token_set(t)) for i, t in zip(
        docs["doc_id"].to_pylist(), docs["text"].to_pylist())}
    for r in df.head(50).itertuples():
        assert bin(sig[r.doc_a] ^ sig[r.doc_b]).count("1") == r.hamming


def test_fingerprint_vectorized_matches_scalar_loop():
    """_fp_window_min must be bit-identical to the scalar
    ``acc = (acc*B + h) % M`` rolling loop on random inputs, including
    docs shorter than the window."""
    import numpy as np

    from kgray.pipelines.textproc import _FP_BASE, _FP_MOD, _fp_window_min

    rng = np.random.RandomState(3)
    for n in (1, 2, 3, 4, 5, 7, 50, 500):
        for _ in range(5):
            hashes = rng.randint(0, _FP_MOD, size=n, dtype=np.int64).astype(np.uint64)
            window = 4
            best = None
            hl = [int(x) for x in hashes]
            for i in range(max(1, n - window + 1)):
                acc = 0
                for h in hl[i:i + window]:
                    acc = (acc * _FP_BASE + h) % _FP_MOD
                best = acc if best is None else min(best, acc)
            assert _fp_window_min(hashes, window) == best, (n, best)


def _verify_blocks():
    """Two blocks of ``_score_jaccard``/``_score_band_bucket`` rows (300
    and 200): a near-duplicate cluster around one token set (Jaccard 0.8
    to 1 within it), a few empty sets, and random sets, each row with its MinHash signature and band
    2, the band that masks the pairs agreeing in band 0 or 1."""
    import numpy as np
    import pyarrow as pa

    import kgray.pipelines.textproc as T

    rng = np.random.RandomState(11)
    base = np.unique(rng.randint(0, 5000, size=40).astype(np.uint64))

    def block(n, first_id):
        toks = []
        for i in range(n):
            if i % 3 == 0:  # the cluster: base less 0-4 random tokens
                t = np.delete(base, rng.choice(len(base), i % 5, False))
            elif i % 50 == 1:
                t = np.empty(0, np.uint64)
            else:
                t = np.unique(rng.randint(0, 10**6, size=rng.randint(5, 60))
                              .astype(np.uint64))
            toks.append(np.sort(t))
        sig = np.stack([T._minhash_sig_from(t) for t in toks])
        return pa.table({
            "doc_id": pa.array(np.arange(n) + first_id, pa.int64()),
            "band": pa.array([2] * n, pa.int32()),
            "sig": pa.Array.from_buffers(
                pa.binary(T.MINHASH_PERMS * 8), n,
                [None, pa.py_buffer(sig.astype("<i8").tobytes())]),
            "toks": pa.array([t.tobytes() for t in toks], pa.binary()),
        })

    return block(300, 0), block(200, 1000)


def _brute_pairs(a, b, band=None):
    """Every qualifying (doc_a, doc_b, inter, union) of a block (``b``
    None) or a cross block pair by Python sets, restricted with ``band``
    to the pairs whose MinHash signatures agree in ``band`` and in no
    earlier band."""
    import numpy as np

    import kgray.pipelines.textproc as T

    def rows(t):
        r = T.MINHASH_PERMS // T.LSH_BANDS
        sig = np.frombuffer(t["sig"].combine_chunks().buffers()[1], np.int64)
        sig = sig.reshape(len(t), T.MINHASH_PERMS)
        return [(i, set(np.frombuffer(x, np.uint64).tolist()),
                 [tuple(s[k * r:(k + 1) * r]) for k in range(T.LSH_BANDS)])
                for i, x, s in zip(t["doc_id"].to_pylist(),
                                   t["toks"].to_pylist(), sig)]

    ra = rows(a)
    pairs = ([(x, y) for i, x in enumerate(ra) for y in ra[i + 1:]]
             if b is None else [(x, y) for x in ra for y in rows(b)])
    out = []
    for (i, s, c), (j, s2, c2) in pairs:
        if band is not None and (c[band] != c2[band] or any(
                c[k] == c2[k] for k in range(band))):
            continue
        inter, uni = len(s & s2), len(s | s2)
        if inter and inter / uni >= T.JACCARD_THRESHOLD:
            out.append((min(i, j), max(i, j), inter, uni))
    return sorted(out)


def _scored(score, a, b):
    return sorted(zip(*(c.tolist() for c in score(a, b))))


def test_jaccard_verify_paths_match_brute_force(monkeypatch):
    """``_jaccard_verify`` counts intersections by one incidence matmul
    (a per-pair token priced at infinite multiply-adds) or per pair (at
    none), 64 rows of a block at a time; either way the n-gram scorer (no mask)
    and the MinHash scorer (the first-agreeing-band mask) give exactly the
    Python-set pairs, on a diagonal block and on a cross block pair."""
    import kgray.pipelines.textproc as T

    monkeypatch.setattr(T, "_VERIFY_ROWS", 64)
    a, b = _verify_blocks()
    for pair_token_macs in (float("inf"), 0):
        monkeypatch.setattr(T, "_PAIR_TOKEN_MACS", pair_token_macs)
        for x, y in ((a, None), (a, b)):
            want = _brute_pairs(x, y)
            assert len(want) > 50
            assert _scored(T._score_jaccard, x, y) == want
            want = _brute_pairs(x, y, band=2)
            got = _scored(T._score_band_bucket, x, y)
            assert want and [g[:2] for g in got] == [w[:2] for w in want]
            assert [g[2] for g in got] == [round(w[2] / w[3], 4)
                                           for w in want]


def test_jaccard_verify_builds_no_incidence_above_byte_cap(monkeypatch):
    """With the byte cap below a block's incidence matrices, chunks the
    work comparison sends to the matmul count per pair instead: the pairs
    are unchanged and no incidence matrix is built."""
    import kgray.pipelines.textproc as T

    monkeypatch.setattr(T, "_VERIFY_ROWS", 64)
    monkeypatch.setattr(T, "_PAIR_TOKEN_MACS", float("inf"))
    a, b = _verify_blocks()
    want = [_scored(T._score_jaccard, x, y) for x, y in ((a, None), (a, b))]
    built, real = [], T._incidence

    def spy(toks, sizes, vocab):
        built.append(len(toks) * len(vocab) * 4)
        return real(toks, sizes, vocab)

    monkeypatch.setattr(T, "_incidence", spy)
    _scored(T._score_jaccard, a, None)
    assert built  # under the default cap the matmul path builds them
    monkeypatch.setattr(T, "_INCIDENCE_BYTES", built[0] - 1)
    built.clear()
    got = [_scored(T._score_jaccard, x, y) for x, y in ((a, None), (a, b))]
    assert got == want and not built


def test_jaccard_verify_skips_matmul_when_few_pairs_survive(monkeypatch):
    """A 4,096-row diagonal block of 30-token sets over a 4,000-token
    vocabulary whose mask keeps a few hundred pairs per chunk: the matmul
    would cost chunk rows x vocabulary x block rows whatever survives, so
    the work comparison counts per pair.  The pairs equal the forced
    per-pair path's, no incidence matrix is built, and the CPU time stays
    within 1.5x of the forced per-pair path's."""
    import time

    import numpy as np

    import kgray.pipelines.textproc as T

    rng = np.random.default_rng(7)
    toks = [np.sort(rng.choice(4000, 30, replace=False)).astype(np.uint64)
            for _ in range(4096)]
    for i in range(0, 4096, 8):  # a near-duplicate beside every 8th row
        toks[i + 1] = np.sort(np.concatenate(
            [toks[i][:28], np.setdiff1d(rng.choice(4000, 4, replace=False),
                                        toks[i])[:2].astype(np.uint64)]))

    def keep(xi, yi):
        planted = (xi % 8 == 0) & (yi == xi + 1)
        return planted | ((xi * 7919 + yi * 104729) % 10007 == 0)

    def run():
        best, out = float("inf"), None
        for _ in range(3):
            t0 = time.process_time()
            out = T._jaccard_verify(toks, None, keep)
            best = min(best, time.process_time() - t0)
        return best, [c.tolist() for c in out]

    built, real = [], T._incidence
    monkeypatch.setattr(T, "_incidence",
                        lambda *a: built.append(1) or real(*a))
    t_auto, auto = run()
    monkeypatch.setattr(T, "_PAIR_TOKEN_MACS", 0)
    t_pair, pair = run()
    assert len(auto[0]) >= 512 and auto == pair and not built
    assert t_auto <= 1.5 * t_pair, (t_auto, t_pair)


def test_jaccard_skewed_bucket_bounded(ray_session):
    """One source holding ~85% of docs (5,100 rows, above ``block_pairs``'
    row limit) completes as block pairs, each verified 1,024 rows at a
    time, and finds the planted duplicate pairs."""
    import os
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import kgray.pipelines.textproc as T

    rng = np.random.RandomState(5)
    n = 6000
    rows = []
    words = [f"w{i}" for i in range(4000)]
    for i in range(n):
        src = "hot" if i < int(n * 0.85) else f"cold{i % 7}"
        k = 5 + (i % 37)
        text = " ".join(words[j] for j in rng.randint(0, 4000, size=k))
        if i % 500 == 0:  # a few exact dup pairs to find
            text = "alpha beta gamma delta epsilon"
        rows.append(dict(doc_id=i, text=text, source=src))
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.Table.from_pylist(rows),
                       os.path.join(d, "documents.parquet"))
        got = T.ngram_jaccard_pairs(d).materialize().take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    expected = {(a, b) for a in range(0, n, 500) for b in range(0, n, 500)
                if a < b and (a < n * 0.85) == (b < n * 0.85)
                and (a < n * 0.85 or (a % 7) == (b % 7))}
    assert expected <= pairs


def _hot_corpus(tmp_path) -> str:
    """46 documents: 24 copies of one 30-word text and 12 one-word
    variants of it (Jaccard 29/31 with the text), all in source ``hot``,
    and 10 unrelated texts over three cold sources.  Every LSH band bucket
    of the copies holds at least 24 rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(words)] * 24
    for i in range(12):
        texts.append(" ".join(words[:i] + [f"v{i}"] + words[i + 1:]))
    for i in range(10):
        texts.append(" ".join(f"r{int(x)}" for x in rng.integers(0, 500, 30)))
    d = tmp_path / "hot"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": [("hot" if i < 36 else f"cold{i % 3}")
                   for i in range(len(texts))],
    }), str(d / "documents.parquet"))
    return str(d)


def _assert_split_equals_unsplit(monkeypatch, walk_in_process, sf_dir,
                                 query, scorer, group_of):
    """``query`` gives the same pairs, each once, with the shared row limit
    at its default (no group above it) and at 8; at 8 the scorer is
    called more than once for one group."""
    import collections

    from kgray.pipelines import textproc as tp
    from kgray.stages import shuffle

    cols = ["doc_a", "doc_b"]

    def rows(ds):
        return ds.to_pandas().sort_values(cols, ignore_index=True)

    unsplit = rows(getattr(tp, query)(sf_dir))
    assert len(unsplit), "fixture must contain duplicate pairs"
    monkeypatch.setattr(shuffle, "MAX_BLOCK_ROWS", 8)
    split = rows(getattr(tp, query)(sf_dir))
    assert not split.duplicated(cols).any()
    assert split.equals(unsplit)

    out, calls = walk_in_process(lambda: getattr(tp, query)(sf_dir), tp,
                                 scorer)
    walked = out.to_pandas().sort_values(cols, ignore_index=True)
    assert walked.equals(unsplit)
    per_group = collections.Counter(group_of(a) for a, _ in calls)
    assert max(per_group.values()) > 1, per_group


def test_ngram_jaccard_hot_source_splits_into_block_tasks(
        ray_session, tmp_path, monkeypatch, walk_in_process):
    """VERDICT r3 #3: a source holding most of the docs must fan out into
    more than one scoring task (block pairs) under ``block_pairs``' row
    limit, and the split must not change the emitted pair set."""
    _assert_split_equals_unsplit(
        monkeypatch, walk_in_process, _hot_corpus(tmp_path),
        "ngram_jaccard_pairs", "_score_jaccard",
        lambda a: a["source"][0].as_py())


@pytest.mark.parametrize("query,scorer,group", [
    ("minhash_lsh_pairs", "_score_band_bucket", ("band", "bucket")),
    ("simhash_pairs", "_score_simhash_bucket", ("bucket",)),
], ids=["minhash_lsh", "simhash_pairs"])
def test_lsh_hot_bucket_splits_into_block_tasks(
        ray_session, tmp_path, monkeypatch, walk_in_process, query, scorer,
        group):
    """A band bucket above ``block_pairs``' row limit is scored as block
    pairs, and the first-agreeing-band rule and the per-band checks hold
    across blocks: the pairs equal the unsplit run's, each once."""
    _assert_split_equals_unsplit(
        monkeypatch, walk_in_process, _hot_corpus(tmp_path), query, scorer,
        lambda a: tuple(a[c][0].as_py() for c in group))


def test_simhash_scorer_exact_and_bounded_at_row_limit():
    """``_score_simhash_bucket`` emits exactly the pairs within
    ``SIMHASH_MAX_HAMMING`` bits that agree in no earlier band, on a
    diagonal block and on a cross block pair larger than its row chunk,
    and a cross pair of two blocks at ``block_pairs``' row limit stays
    within 128 MiB of Python-traced memory (a whole-pair enumeration
    needed about 1.5 GB there)."""
    import tracemalloc

    import numpy as np
    import pyarrow as pa

    from kgray.pipelines.textproc import (SIMHASH_MAX_HAMMING,
                                          _score_simhash_bucket)
    from kgray.stages.shuffle import MAX_BLOCK_ROWS

    rng = np.random.default_rng(5)
    centers = rng.integers(0, 2**63, 6, dtype=np.int64).astype(np.uint64)

    def block(n, first_id, band=2, near=True):
        s = (centers[rng.integers(0, 6, n)] if near else
             rng.integers(0, 2**63, n, dtype=np.int64).astype(np.uint64))
        for _ in range(3):  # up to three random bit flips per row
            flip = rng.random(n) < 0.5
            bit = rng.integers(0, 64, flip.sum()).astype(np.uint64)
            s[flip] ^= np.uint64(1) << bit
        return pa.table({"band": pa.array([band] * n, pa.int32()),
                         "sig": pa.array(s.view(np.int64)),
                         "doc_id": pa.array(np.arange(n) + first_id)})

    def brute(a, b):
        b_ = a if b is None else b
        sa, sb = (t["sig"].to_numpy().view(np.uint64) for t in (a, b_))
        x = sa[:, None] ^ sb[None, :]
        dist = sum((x >> np.uint64(k)) & np.uint64(1) for k in range(64))
        ok = dist <= SIMHASH_MAX_HAMMING
        for k in range(a["band"][0].as_py()):
            ok &= ((x >> np.uint64(16 * k)) & np.uint64(0xFFFF)) != 0
        if b is None:
            ok &= np.triu(np.ones_like(ok), 1)
        xi, yi = np.nonzero(ok)
        ia, ib = a["doc_id"].to_numpy()[xi], b_["doc_id"].to_numpy()[yi]
        return sorted(zip(np.minimum(ia, ib).tolist(),
                          np.maximum(ia, ib).tolist(), dist[xi, yi].tolist()))

    a, b = block(1500, 0), block(1100, 10_000)
    for pair in ((a, None), (a, b)):
        got = sorted(zip(*(c.tolist() for c in _score_simhash_bucket(*pair))))
        assert got and got == brute(*pair)

    a, b = (block(MAX_BLOCK_ROWS, i * MAX_BLOCK_ROWS, near=False)
            for i in range(2))
    tracemalloc.start()
    try:
        _score_simhash_bucket(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak


def test_ws_class_equals_python_backslash_s():
    """WS_CHARS must be exactly Python re's \\s set (str mode): the Arrow
    RE2 tokenizer, the Python tokenizer, and the DuckDB oracle all split on
    this explicit class (ADVICE r4 #1)."""
    import re

    from kgray.pipelines.textproc import WS_CHARS

    expect = {chr(c) for c in range(0x11000) if re.match(r"\s", chr(c))}
    assert set(WS_CHARS) == expect
    assert len(WS_CHARS) == len(set(WS_CHARS))


def test_fingerprint_unicode_whitespace_matches_oracle():
    """Docs containing NBSP/\\x0b/U+2028 (whitespace Python's \\s matches
    but RE2's \\s does not) must fingerprint identically in the vectorized
    pipeline kernel and the scalar oracle (ADVICE r4 #1)."""
    import pyarrow as pa

    from kgray.expected import _fingerprint_scalar
    from kgray.pipelines.textproc import _fingerprint_col

    docs = [
        "a\xa0b\x0bc d e f g",
        "one two three four five six",
        "\x1ctab\x1dsep\x1eand\x1fmore tokens here now",
        "plain ascii control case",
        "\xa0",  # whitespace-only -> empty fingerprint sentinel
    ]
    got = _fingerprint_col(pa.array(docs, pa.string()), 4).to_pylist()
    want = [_fingerprint_scalar(t) for t in docs]
    assert got == want


def test_batch_token_hashes_matches_scalar():
    """The batched tokenize+hash pass must produce, per doc, exactly the
    sorted-distinct hash array of the scalar reference path (VERDICT r4
    #4: both route through the one vectorized column hash)."""
    import numpy as np

    from kgray.expected import _token_set
    from kgray.pipelines.textproc import _batch_token_hashes, _token_hashes

    texts = ["hello world hello", "a\xa0b　c", "", "   \t ", "x y z x"]
    batch = _batch_token_hashes(texts)
    for t, h in zip(texts, batch):
        ref = _token_hashes(_token_set(t))
        assert np.array_equal(h, ref), t

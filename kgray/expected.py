"""Sequentially-computed expected tables for the rows-only queries.

The driver's hard oracle gate needs a DuckDB-queryable truth table per
query.  For the deterministic-but-not-SQL-expressible pipelines (simhash,
fingerprints, MinHash-LSH pair set, IVF top-k, the four media ops) this
module computes the expected output SEQUENTIALLY in one process — no Ray,
no shuffles, no broadcasts — and writes it as parquet that ``oracle_sql``
restates as ``SELECT ... FROM read_parquet(...)``.  A match then externally
verifies the DISTRIBUTED plumbing: bucket exchanges, exactly-once pair
emission across LSH/simhash bands, broadcast query state, IVF partition
pruning (the raw-ops pattern of ``fixtures.write_raw_ops_corpus``, extended
per VERDICT r2 "next round" #1b).

Where a cheap independent restatement exists it is used instead of the
pipeline kernel (scalar simhash bit loop, scalar rolling-hash fingerprint,
struct-level media decode), so those checks also catch kernel bugs, not
just plumbing bugs.  MinHash signatures deliberately reuse the pipeline's
permutation arithmetic: its int64 wrap behavior IS the contract, and the
check targets banding/exchange/verify, not the hash function.

Tables are cached under ``/tmp/kgray_expected/<scale-tag>/`` and
invalidated by a content fingerprint of the source parquet (rows + size +
mtime — the IVF cache rule) together with a digest of the package's code
(``_code_fingerprint``, the IVF index's code key too), so an edit to any
builder or pipeline kernel rebuilds them and no hand-bumped version key
is needed.  Every row carries ``scale_key`` (the orders
row count of its scale) so the parameterless oracle SQL can select the
right scale via the registered views; unmapped scales map to the impossible
sentinel -1 and fail loudly.
"""

from __future__ import annotations

import glob
import hashlib
import os
import re
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_ROOT = "/tmp/kgray_expected"
# scale tag -> orders row count (the discriminator the oracle SQL can see)
SCALE_KEY = {"sf0.001": 1500, "sf0.01": 15000}

# SQL fragment shared by every expected-table oracle: resolves the current
# scale to its key, or -1 (matches nothing -> loud empty-oracle failure)
SCALE_KEY_SQL = (
    "(SELECT CASE count(*) WHEN 1500 THEN 1500 WHEN 15000 THEN 15000 "
    "ELSE -1 END FROM orders)"
)

_WS_RE = re.compile(r"\s+")
_FP_BASE = 1_000_003
_FP_MOD = (1 << 61) - 1

NAMES = (
    "simhash", "simhash_pairs", "fingerprints", "minhash_lsh", "knn_ivf",
    "media_features", "media_resize", "frame_sample", "audio_features",
)


def expected_glob(name: str) -> str:
    return f"{_ROOT}/*/{name}.parquet"


# ---------------------------------------------------------------------------
# independent scalar kernels (restate, don't import, the pipeline math)
# ---------------------------------------------------------------------------


def _token_set(text: str) -> set[str]:
    return set(_WS_RE.split(text.strip())) - {""}


def _simhash_scalar(tokens: set[str]) -> int:
    """Per-hash per-bit vote loop.  The pipeline's vectorized layout puts
    vote k (for hash bit k, LSB) at bit 63-k of the packed signature —
    restated here arithmetically.  Token-hash VALUES are shared with the
    pipeline by design (the MinHash rule, module docstring): since VERDICT
    r4 #4 every dedup token hash routes through the one vectorized column
    hash, so this check targets tokenization + voting + packing, not the
    hash function."""
    from .pipelines.textproc import _token_hashes

    if not tokens:
        return 0
    votes = [0] * 64
    for h in (int(v) for v in _token_hashes(tokens)):
        for k in range(64):
            votes[k] += 1 if (h >> k) & 1 else -1
    sig = 0
    for k in range(64):
        if votes[k] > 0:
            sig |= 1 << (63 - k)
    return sig


def _fingerprint_scalar(text: str, window: int = 4) -> str:
    """Naive per-window rolling polynomial in plain Python ints (the
    pipeline computes all windows of all docs at once with exact
    mod-2^61-1 uint64 arithmetic).  The token-hash VALUES are shared with
    the pipeline by design (same rule as MinHash signatures, module
    docstring): this check targets tokenization + window-min, not the hash
    function."""
    from .pipelines.textproc import _fp_token_hashes

    toks = [t for t in _WS_RE.split(text.strip()) if t]
    if not toks:
        return "0" * 16
    hs = [int(v) for v in _fp_token_hashes(pa.array(toks, pa.string()))]
    best: int | None = None
    for i in range(max(1, len(hs) - window + 1)):
        acc = 0
        for h in hs[i:i + window]:
            acc = (acc * _FP_BASE + h) % _FP_MOD
        best = acc if best is None else min(best, acc)
    return f"{best:016x}"


# ---------------------------------------------------------------------------
# per-query expected tables
# ---------------------------------------------------------------------------


def _docs_texts(sf_dir: str) -> tuple[np.ndarray, list[str]]:
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    return (t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["text"].to_pylist())


def _expected_simhash(sf_dir: str) -> pa.Table:
    ids, texts = _docs_texts(sf_dir)
    sigs = [f"{_simhash_scalar(_token_set(t)):016x}" for t in texts]
    return pa.Table.from_pydict(
        {"doc_id": pa.array(ids, pa.int64()),
         "simhash": pa.array(sigs, pa.string())}
    )


def _expected_simhash_pairs(sf_dir: str) -> pa.Table:
    """All pairs within SIMHASH_MAX_HAMMING that agree in >=1 16-bit band —
    the exactly-once union the banded pipeline must emit."""
    from .pipelines.textproc import SIMHASH_BANDS, SIMHASH_MAX_HAMMING

    ids, texts = _docs_texts(sf_dir)
    sigs = np.array([_simhash_scalar(_token_set(t)) for t in texts],
                    dtype=np.uint64)
    xi, yi = np.triu_indices(len(ids), 1)
    x = sigs[xi] ^ sigs[yi]
    dist = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(
        axis=1).astype(np.int64)
    cand = np.zeros(len(xi), dtype=bool)
    for band in range(SIMHASH_BANDS):
        cx = (sigs[xi] >> np.uint64(16 * band)) & np.uint64(0xFFFF)
        cy = (sigs[yi] >> np.uint64(16 * band)) & np.uint64(0xFFFF)
        cand |= cx == cy
    keep = cand & (dist <= SIMHASH_MAX_HAMMING)
    ia, ib = ids[xi[keep]], ids[yi[keep]]
    return pa.Table.from_pydict(
        {"doc_a": pa.array(np.minimum(ia, ib), pa.int64()),
         "doc_b": pa.array(np.maximum(ia, ib), pa.int64()),
         "hamming": pa.array(dist[keep], pa.int64())}
    )


def _expected_fingerprints(sf_dir: str) -> pa.Table:
    ids, texts = _docs_texts(sf_dir)
    fps = [_fingerprint_scalar(t) for t in texts]
    return pa.Table.from_pydict(
        {"doc_id": pa.array(ids, pa.int64()),
         "fingerprint": pa.array(fps, pa.string())}
    )


def _expected_minhash_lsh(sf_dir: str) -> pa.Table:
    """Exhaustive restatement of the LSH contract: a pair belongs in the
    output iff some band's signature rows agree AND true Jaccard >= the
    threshold — computed pair-by-pair with no banding shuffle, no bucket
    keys, no exactly-once machinery (signature arithmetic shared with the
    pipeline by design; see module docstring)."""
    from .pipelines.textproc import (
        JACCARD_THRESHOLD, LSH_BANDS, MINHASH_PERMS,
        _minhash_sig_from, _token_hashes,
    )

    rows_per_band = MINHASH_PERMS // LSH_BANDS
    ids, texts = _docs_texts(sf_dir)
    toks = [_token_hashes(_token_set(t)) for t in texts]
    sigs = np.stack([_minhash_sig_from(th) for th in toks])
    n = len(ids)
    xi, yi = np.triu_indices(n, 1)
    cand = np.zeros(len(xi), dtype=bool)
    for band in range(LSH_BANDS):
        seg = sigs[:, band * rows_per_band:(band + 1) * rows_per_band]
        cand |= (seg[xi] == seg[yi]).all(axis=1)
    out_a, out_b, out_j = [], [], []
    for k in np.flatnonzero(cand):
        a, b = int(xi[k]), int(yi[k])
        inter = len(np.intersect1d(toks[a], toks[b], assume_unique=True))
        if not inter:
            continue
        uni = len(toks[a]) + len(toks[b]) - inter
        jac = inter / uni
        if jac >= JACCARD_THRESHOLD:
            out_a.append(min(ids[a], ids[b]))
            out_b.append(max(ids[a], ids[b]))
            out_j.append(np.round(jac, 4))
    return pa.Table.from_pydict(
        {"doc_a": pa.array(out_a, pa.int64()),
         "doc_b": pa.array(out_b, pa.int64()),
         "jac": pa.array(out_j, pa.float64())}
    )


def _expected_knn_ivf(sf_dir: str) -> pa.Table:
    """IVF ANN restated without the index: same centroids (deterministic
    Lloyd on the first _TRAIN_SAMPLE rows), same probe plan, then a direct
    full-matrix scan masked to the probed clusters.  A match proves the
    cluster-partitioned index + path pruning return exactly what the
    geometry says they should."""
    from .pipelines.simsearch import (
        IVF_CLUSTERS, N_QUERIES, TOP_K, _TRAIN_SAMPLE,
        _normalize, _probe_plan, train_centroids,
    )

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    cent = train_centroids(mat[:_TRAIN_SAMPLE], IVF_CLUSTERS)
    q_mask = ids < N_QUERIES
    order = np.argsort(ids[q_mask], kind="stable")
    qids = ids[q_mask][order]
    qn = _normalize(mat[q_mask][order])
    probe, _ = _probe_plan(cent, qn)
    xn = _normalize(mat)
    cl = (xn @ cent.T).argmax(axis=1)
    out = {"query_id": [], "neighbor_id": [], "sim": []}
    for j, qid in enumerate(qids):
        sims = xn @ qn[j]
        mask = (ids != qid) & np.isin(cl, probe[j])
        cand = np.flatnonzero(mask)
        # global rule: sim desc, neighbor_id asc
        take = cand[np.lexsort((ids[cand], -sims[cand]))][:TOP_K]
        for i in take:
            out["query_id"].append(int(qid))
            out["neighbor_id"].append(int(ids[i]))
            out["sim"].append(round(float(sims[i]), 4))
    return pa.Table.from_pydict(
        {"query_id": pa.array(out["query_id"], pa.int64()),
         "neighbor_id": pa.array(out["neighbor_id"], pa.int64()),
         "sim": pa.array(out["sim"], pa.float64())}
    )


# --- media: payloads regenerated from the synthetic codecs, decoded here
#     with direct struct/numpy (independent of decode_image / the stage functions) ---


def _expected_media_features(sf_dir: str) -> pa.Table:
    from .pipelines.multimodal import HIST_BINS, MEDIA_N, synth_payload

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = MEDIA_N[tag]
    bins = np.linspace(0, 256, HIST_BINS + 1)
    out = {"media_id": [], "byte_len": [], "sha1": [], "mean_px": [],
           "hist_csv": []}
    for i in range(n):
        w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
        p = synth_payload(i, w, h)
        pw, ph = struct.unpack("<II", p[4:12])
        img = np.frombuffer(p[12:12 + pw * ph], dtype=np.uint8).reshape(ph, pw)
        hist, _ = np.histogram(img, bins=bins)
        out["media_id"].append(i)
        out["byte_len"].append(len(p))
        out["sha1"].append(hashlib.sha1(p).hexdigest())
        out["mean_px"].append(round(float(img.mean()), 4))
        out["hist_csv"].append(",".join(str(int(v)) for v in hist))
    return pa.Table.from_pydict(
        {"media_id": pa.array(out["media_id"], pa.int64()),
         "byte_len": pa.array(out["byte_len"], pa.int64()),
         "sha1": pa.array(out["sha1"], pa.string()),
         "mean_px": pa.array(out["mean_px"], pa.float64()),
         "hist_csv": pa.array(out["hist_csv"], pa.string())}
    )


def _expected_media_resize(sf_dir: str) -> pa.Table:
    from .pipelines.multimodal import MAGIC, MEDIA_N, synth_payload

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = MEDIA_N[tag]
    target = 8
    out = {"media_id": [], "payload_sha1": [], "width": [], "height": []}
    for i in range(n):
        w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
        p = synth_payload(i, w, h)
        pw, ph = struct.unpack("<II", p[4:12])
        img = np.frombuffer(p[12:12 + pw * ph], dtype=np.uint8).reshape(ph, pw)
        small = np.ascontiguousarray(
            img[::max(1, ph // target), ::max(1, pw // target)])
        sh, sw = small.shape
        payload = MAGIC + struct.pack("<II", sw, sh) + small.tobytes()
        out["media_id"].append(i)
        out["payload_sha1"].append(hashlib.sha1(payload).hexdigest())
        out["width"].append(sw)
        out["height"].append(sh)
    return pa.Table.from_pydict(
        {"media_id": pa.array(out["media_id"], pa.int64()),
         "payload_sha1": pa.array(out["payload_sha1"], pa.string()),
         "width": pa.array(out["width"], pa.int32()),
         "height": pa.array(out["height"], pa.int32())}
    )


def _expected_frame_sample(sf_dir: str) -> pa.Table:
    from .pipelines.multimodal import MAGIC, SMALL_MEDIA_N, synth_video

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = SMALL_MEDIA_N[tag]
    stride = 4
    out = {"media_id": [], "frame_idx": [], "payload_sha1": []}
    for i in range(n):
        p = synth_video(i, 16 + (i % 4) * 4, 16, 8 + (i % 3) * 4)
        w, h, nf = struct.unpack("<III", p[4:16])
        plane = np.frombuffer(p[16:16 + nf * w * h], dtype=np.uint8)
        for f in range(0, nf, stride):
            frame = plane[f * w * h:(f + 1) * w * h]
            payload = MAGIC + struct.pack("<II", w, h) + frame.tobytes()
            out["media_id"].append(i)
            out["frame_idx"].append(f)
            out["payload_sha1"].append(hashlib.sha1(payload).hexdigest())
    return pa.Table.from_pydict(
        {"media_id": pa.array(out["media_id"], pa.int64()),
         "frame_idx": pa.array(out["frame_idx"], pa.int32()),
         "payload_sha1": pa.array(out["payload_sha1"], pa.string())}
    )


def _expected_audio_features(sf_dir: str) -> pa.Table:
    from .pipelines.multimodal import SMALL_MEDIA_N, synth_audio

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = SMALL_MEDIA_N[tag]
    out = {"media_id": [], "n_samples": [], "rms": [], "zero_crossings": []}
    for i in range(n):
        p = synth_audio(i, 4000 + (i % 7) * 500)
        (ns,) = struct.unpack("<I", p[4:8])
        wave = np.frombuffer(p[8:8 + 2 * ns], dtype=np.int16).astype(np.float64)
        out["media_id"].append(i)
        out["n_samples"].append(ns)
        out["rms"].append(round(float(np.sqrt(np.mean(wave ** 2))), 4))
        out["zero_crossings"].append(
            int(np.count_nonzero(np.diff(np.signbit(wave)))))
    return pa.Table.from_pydict(
        {"media_id": pa.array(out["media_id"], pa.int64()),
         "n_samples": pa.array(out["n_samples"], pa.int64()),
         "rms": pa.array(out["rms"], pa.float64()),
         "zero_crossings": pa.array(out["zero_crossings"], pa.int64())}
    )


_BUILDERS = {
    "simhash": (_expected_simhash, "documents.parquet"),
    "simhash_pairs": (_expected_simhash_pairs, "documents.parquet"),
    "fingerprints": (_expected_fingerprints, "documents.parquet"),
    "minhash_lsh": (_expected_minhash_lsh, "documents.parquet"),
    "knn_ivf": (_expected_knn_ivf, "embeddings.parquet"),
    # media corpora are pure functions of (scale tag, codec version) — the
    # fingerprint is synthetic, so these only rebuild when the code changes
    "media_features": (_expected_media_features, None),
    "media_resize": (_expected_media_resize, None),
    "frame_sample": (_expected_frame_sample, None),
    "audio_features": (_expected_audio_features, None),
}


def _code_fingerprint() -> str:
    """Digest of every ``kgray/**/*.py`` (relative path and bytes) plus
    the polars version (the token hash is polars' ``hash_rows``): the code
    key of the derived /tmp caches, the expected tables here and the IVF
    index (``simsearch._ivf_index_dir``).  Any edit under ``kgray/``
    rebuilds them, so a changed builder cannot hide behind a table an
    older one wrote."""
    import polars as _pl

    h = hashlib.blake2b(_pl.__version__.encode(), digest_size=8)
    pkg = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, pkg).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _src_fingerprint(sf_dir: str, src: str | None) -> str:
    if src is None:
        return f"synthetic-{_code_fingerprint()}"
    path = os.path.join(sf_dir, src)
    st = os.stat(path)
    return (f"{pq.read_metadata(path).num_rows}-{st.st_size}-"
            f"{int(st.st_mtime)}-{_code_fingerprint()}")


def ensure_expected(sf_dir: str, names=NAMES) -> None:
    """Idempotently (re)compute the expected tables for this scale.  A
    stale cache (source parquet regenerated) is detected via the stored
    fingerprint and overwritten atomically IN PLACE, so the SQL glob never
    sees two generations of the same scale."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    key = SCALE_KEY.get(tag)
    if key is None:
        return  # expected-table oracles exist only at the driver scales
    out_dir = os.path.join(_ROOT, tag)
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        builder, src = _BUILDERS[name]
        fp = _src_fingerprint(sf_dir, src)
        path = os.path.join(out_dir, f"{name}.parquet")
        marker = path + ".src"
        if os.path.exists(path) and os.path.exists(marker):
            with open(marker) as f:
                if f.read() == fp:
                    continue
        t = builder(sf_dir)
        t = t.append_column("scale_key", pa.array([key] * len(t), pa.int64()))
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
        with open(marker + ".tmp", "w") as f:
            f.write(fp)
        os.replace(marker + ".tmp", marker)

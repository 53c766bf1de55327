"""Multimodal (binary-column) plumbing: opaque payloads + typed metadata.

Design per the engine contract: image/audio payloads are opaque ``binary``
columns with typed metadata columns beside them; decode / feature-extract
run as stateless task ``map_batches`` stages, with SMALL batch sizes
because payload bytes — not row counts — dominate batch heap size.

The container has no image/audio codecs, so the real decode is STUBBED:
``decode_image`` raises ``NotImplementedError`` unless the payload is in the
engine's own deterministic synthetic format (magic ``KGIM``), which the
fixture generator emits.  The Ray-side plumbing — schema, batch sizing,
output layout — is real and tested (tests/test_multimodal.py).  Each
stage runs a module-level per-item function through ``schema.fan_out``:
only ``payload`` becomes Python objects, and ``media_id`` goes out by row
index into one of the four output schemas.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..schema import fan_out

MAGIC = b"KGIM"
HIST_BINS = 16
RESIZE_TARGET = 8  # resize: each side strided down to about this many pixels
FRAME_STRIDE = 4   # frame sampling: every 4th frame

# Ray batch sizes of the media stages: small, because payload bytes, not
# row counts, dominate batch heap, so one call's heap stays bounded
# regardless of item size (the 100-TB sizing rule from SURVEY.md §4).  A
# video row is ~n_frames x an image row.
IMAGE_BATCH = 64
FRAME_BATCH = 16
AUDIO_BATCH = 64

# synthetic media corpus sizes per testdata scale tag (image table and the
# smaller video/audio tables); shared with kgray.expected's oracle writers
MEDIA_N = {"sf0.001": 128, "sf0.01": 512, "sf0.1": 2048}
SMALL_MEDIA_N = {"sf0.001": 64, "sf0.01": 256, "sf0.1": 1024}


def synth_payload(media_id: int, width: int, height: int) -> bytes:
    """Deterministic fake image: KGIM header + seeded byte plane."""
    rng = np.random.RandomState(media_id & 0x7FFFFFFF)
    plane = rng.randint(0, 256, size=width * height, dtype=np.uint8).tobytes()
    return MAGIC + struct.pack("<II", width, height) + plane


def decode_image(payload: bytes) -> np.ndarray:
    """Decode a payload to a (h, w) uint8 array.

    STUB: only the synthetic ``KGIM`` format decodes here.  A production
    deployment swaps this for PIL/libvips inside the same function — the
    surrounding plumbing does not change.
    """
    if payload[:4] != MAGIC:
        raise NotImplementedError(
            "real image codecs are not available in this environment; "
            "only the synthetic KGIM format is decodable"
        )
    w, h = struct.unpack("<II", payload[4:12])
    return np.frombuffer(payload[12:12 + w * h], dtype=np.uint8).reshape(h, w)


FEATURES = pa.schema([
    ("media_id", pa.int64()), ("byte_len", pa.int64()), ("sha1", pa.string()),
    ("mean_px", pa.float64()), ("hist", pa.list_(pa.int64())),
])
RESIZED = pa.schema([
    ("media_id", pa.int64()), ("payload", pa.binary()),
    ("width", pa.int32()), ("height", pa.int32()),
])
FRAMES = pa.schema([
    ("media_id", pa.int64()), ("frame_idx", pa.int32()), ("payload", pa.binary()),
])
AUDIO_FEATURES = pa.schema([
    ("media_id", pa.int64()), ("n_samples", pa.int64()), ("rms", pa.float64()),
    ("zero_crossings", pa.int64()),
])


def _payload_stage(ds, rows, schema: pa.Schema, batch_size: int):
    """A ``map_batches`` of ``rows`` over ``ds``'s (media_id, payload)
    batches: ``rows(payload)`` gives one item's output rows (the
    ``schema`` columns after ``media_id``), run through
    ``schema.fan_out``, which carries ``media_id`` by index."""
    def stage(batch: pa.Table) -> pa.Table:
        return fan_out(batch, rows, reads=("payload",),
                       carry={"media_id": "media_id"}, schema=schema)

    return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)


def _media_ds(sf_dir: str, kind: str, sizes: dict, row) -> "rd.Dataset":
    """The synthetic ``kind`` corpus of this scale (``sizes`` by scale tag,
    the sf0.001 size otherwise), item ``i`` being the dict ``row(i)``:
    written once under /tmp/kgray_media by ``fixtures._write_shards``
    (atomic per shard), then read as (media_id, payload)."""
    from ..fixtures import _write_shards

    tag = os.path.basename(os.path.normpath(sf_dir))
    n = sizes.get(tag, sizes["sf0.001"])

    def shard(start: int, cnt: int) -> pa.Table:
        return pa.Table.from_pylist([row(i) for i in range(start, start + cnt)])

    paths = _write_shards(f"/tmp/kgray_media/{kind}-{tag}-{n}", kind, n,
                          256, None, shard)  # 256 items a shard
    return rd.read_parquet(paths, columns=["media_id", "payload"])


def _image_row(i: int) -> dict:
    w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
    return dict(media_id=i, kind="image", payload=synth_payload(i, w, h),
                width=w, height=h, fmt="kgim")


def _image_ds(sf_dir: str):
    return _media_ds(sf_dir, "image", MEDIA_N, _image_row)


# histogram bin edges of image_features
_HIST_EDGES = np.linspace(0, 256, HIST_BINS + 1)


def image_features(p: bytes) -> list[tuple]:
    """Decode + histogram + checksum: one ``FEATURES`` row."""
    img = decode_image(p)
    h, _ = np.histogram(img, bins=_HIST_EDGES)
    return [(len(p), hashlib.sha1(p).hexdigest(), round(float(img.mean()), 4),
             h.astype(np.int64).tolist())]


def media_features(sf_dir: str):
    """media table -> per-item features (schema ``FEATURES``)."""
    return _payload_stage(_image_ds(sf_dir), image_features, FEATURES,
                          IMAGE_BATCH)


# ---------------------------------------------------------------------------
# resize (image), frame sampling (video), audio features — the remaining
# modality stages from the engine contract, same plumbing.  Payload
# formats are the engine's own deterministic synthetic codecs (KGIM plane /
# KGVD frame stack / KGAU int16 waveform); a production deployment swaps
# the decode internals per function, nothing else moves.
# ---------------------------------------------------------------------------

VIDEO_MAGIC = b"KGVD"
AUDIO_MAGIC = b"KGAU"


def synth_video(media_id: int, width: int, height: int, n_frames: int) -> bytes:
    rng = np.random.RandomState((media_id ^ 0x5EED) & 0x7FFFFFFF)
    frames = rng.randint(0, 256, size=n_frames * width * height, dtype=np.uint8)
    return VIDEO_MAGIC + struct.pack("<III", width, height, n_frames) + frames.tobytes()


def synth_audio(media_id: int, n_samples: int) -> bytes:
    rng = np.random.RandomState((media_id ^ 0xA0D10) & 0x7FFFFFFF)
    wave = (rng.randn(n_samples) * 8192).astype(np.int16)
    return AUDIO_MAGIC + struct.pack("<I", n_samples) + wave.tobytes()


def resize_image(p: bytes) -> list[tuple]:
    """Image resize: decode -> strided nearest-neighbor downsample ->
    re-encode.  Output stays an opaque payload column, so resize stages
    compose (resize -> features) without schema changes."""
    img = decode_image(p)
    sy = max(1, img.shape[0] // RESIZE_TARGET)
    sx = max(1, img.shape[1] // RESIZE_TARGET)
    small = np.ascontiguousarray(img[::sy, ::sx])
    h, w = small.shape
    return [(MAGIC + struct.pack("<II", w, h) + small.tobytes(), w, h)]


def sample_frames(p: bytes) -> list[tuple]:
    """Video -> sampled frame rows (1 -> n_frames/stride fan-out), each
    frame re-encoded as a standalone KGIM payload so downstream image
    stages (resize/features) consume it unchanged."""
    if p[:4] != VIDEO_MAGIC:
        raise NotImplementedError(
            "real video codecs unavailable; only synthetic KGVD decodes")
    w, h, n = struct.unpack("<III", p[4:16])
    plane = np.frombuffer(p[16:16 + n * w * h], dtype=np.uint8)
    return [(f, MAGIC + struct.pack("<II", w, h)
             + plane[f * w * h:(f + 1) * w * h].tobytes())
            for f in range(0, n, FRAME_STRIDE)]


def audio_stats(p: bytes) -> list[tuple]:
    """Audio -> (n_samples, rms, zero-crossing count)."""
    if p[:4] != AUDIO_MAGIC:
        raise NotImplementedError(
            "real audio codecs unavailable; only synthetic KGAU decodes")
    (n,) = struct.unpack("<I", p[4:8])
    wave = np.frombuffer(p[8:8 + 2 * n], dtype=np.int16).astype(np.float64)
    return [(n, round(float(np.sqrt(np.mean(wave ** 2))), 4),
             int(np.count_nonzero(np.diff(np.signbit(wave)))))]


def media_resize(sf_dir: str):
    return _payload_stage(_image_ds(sf_dir), resize_image, RESIZED,
                          IMAGE_BATCH)


def frame_sample(sf_dir: str):
    ds = _media_ds(sf_dir, "video", SMALL_MEDIA_N, lambda i: dict(
        media_id=i, kind="video",
        payload=synth_video(i, 16 + (i % 4) * 4, 16, 8 + (i % 3) * 4)))
    return _payload_stage(ds, sample_frames, FRAMES, FRAME_BATCH)


def audio_features(sf_dir: str):
    ds = _media_ds(sf_dir, "audio", SMALL_MEDIA_N, lambda i: dict(
        media_id=i, kind="audio", payload=synth_audio(i, 4000 + (i % 7) * 500)))
    return _payload_stage(ds, audio_stats, AUDIO_FEATURES, AUDIO_BATCH)

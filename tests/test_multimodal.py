"""Multimodal binary-column plumbing: schema, task stages, stubbed decode;
plus the execution model of every per-item stage outside the flagship."""

from __future__ import annotations

import numpy as np
import pytest

SF_DIR = "/root/testdata/sf0.001"


def test_decode_stub_rejects_foreign_payloads():
    from kgray.pipelines.multimodal import decode_image

    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG\r\n\x1a\n....")


def test_synth_roundtrip():
    from kgray.pipelines.multimodal import decode_image, synth_payload

    img = decode_image(synth_payload(7, 20, 12))
    assert img.shape == (12, 20)
    assert img.dtype == np.uint8
    # deterministic
    assert (img == decode_image(synth_payload(7, 20, 12))).all()


def test_media_features_pipeline(ray_session):
    from kgray.pipelines.multimodal import HIST_BINS, media_features

    df = media_features(SF_DIR).to_pandas().sort_values("media_id", ignore_index=True)
    assert len(df) == 128
    assert set(df.columns) == {"media_id", "byte_len", "sha1", "mean_px", "hist"}
    assert df["hist"].map(len).eq(HIST_BINS).all()
    # histogram mass == pixel count == byte_len - 12-byte header
    assert (df["hist"].map(sum) == df["byte_len"] - 12).all()
    # rerun -> identical features (content-hash stability)
    again = media_features(SF_DIR).to_pandas().sort_values("media_id", ignore_index=True)
    assert (df["sha1"] == again["sha1"]).all()


def test_media_resize_composes_with_features(ray_session):
    """resize emits valid KGIM payloads that the feature function consumes:
    each resized image's histogram mass is its pixel count."""
    from kgray.pipelines.multimodal import (
        HIST_BINS, decode_image, image_features, media_resize,
    )

    df = media_resize(SF_DIR).to_pandas()
    assert len(df) == 128
    assert (df["width"] <= 12).all() and (df["height"] <= 12).all()
    img = decode_image(df.iloc[0]["payload"])
    assert img.shape == (df.iloc[0]["height"], df.iloc[0]["width"])
    for p, w, h in zip(df["payload"], df["width"], df["height"]):
        [(byte_len, _, _, hist)] = image_features(p)
        assert byte_len == len(p) and len(hist) == HIST_BINS
        assert sum(hist) == w * h


def test_frame_sample_fanout(ray_session):
    from kgray.pipelines.multimodal import decode_image, frame_sample

    df = frame_sample("/root/testdata/sf0.001").to_pandas()
    # stride 4 over 8..16 frames -> 2..4 frames per video, 64 videos
    per = df.groupby("media_id").size()
    assert len(per) == 64
    assert per.between(2, 4).all()
    assert (df["frame_idx"] % 4 == 0).all()
    decode_image(df.iloc[0]["payload"])  # frames are standalone images


def test_audio_features(ray_session):
    from kgray.pipelines.multimodal import audio_features

    df = audio_features("/root/testdata/sf0.001").to_pandas()
    assert len(df) == 64
    assert (df["rms"] > 0).all()
    assert (df["zero_crossings"] > 0).all()
    assert (df["n_samples"] >= 4000).all()


@pytest.mark.parametrize("stage", [
    "multimodal.media_features", "multimodal.media_resize",
    "multimodal.frame_sample", "multimodal.audio_features",
    "simsearch.knn_brute", "simsearch.knn_ivf",
])
def test_stage_maps_run_as_task_pools(ray_session, stage):
    """Every ``map_batches`` of the media stages and the kNN scorers is a
    stateless task map: an actor pool restarts its workers in a loop on a
    worker fault that a task reports (and warns that its constructor
    arguments live in the object store)."""
    import importlib

    from ray.data import ActorPoolStrategy
    from ray.data._internal.logical.operators.map_operator import AbstractUDFMap

    module, name = stage.split(".")
    ds = getattr(importlib.import_module(f"kgray.pipelines.{module}"), name)(SF_DIR)
    maps, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        todo += op.input_dependencies
        if isinstance(op, AbstractUDFMap):
            maps.append(op)
    assert maps
    assert not [op.name for op in maps
                if isinstance(op._compute, ActorPoolStrategy)]


def test_corpus_shards_are_written_atomically(tmp_path, monkeypatch):
    """``fixtures._write_shards`` (the media, pages and raw-ops corpora's
    one writer): a shard that fails partway, in its shard function or in
    its parquet write, leaves no ``<prefix>-*.parquet`` behind, and the
    next call writes it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from kgray import fixtures as F

    def shard(start: int, cnt: int) -> pa.Table:
        return pa.table({"i": pa.array(range(start, start + cnt), pa.int64())})

    def dies_at_20(start: int, cnt: int) -> pa.Table:
        if start == 20:
            raise RuntimeError("generator died")
        return shard(start, cnt)

    out = str(tmp_path)
    with pytest.raises(RuntimeError):
        F._write_shards(out, "media", 35, 10, False, dies_at_20)
    assert sorted(p.name for p in tmp_path.glob("media-*.parquet")) == [
        "media-00000000.parquet", "media-00000010.parquet"]

    write = pq.write_table

    def dies_midway(table, where, **kwargs):
        write(table.slice(0, 1), where, **kwargs)  # a truncated file
        raise OSError("killed mid-write")

    monkeypatch.setattr(pq, "write_table", dies_midway)
    with pytest.raises(OSError):
        F._write_shards(out, "media", 35, 10, False, shard)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("media-*.parquet"))) == 2

    paths = F._write_shards(out, "media", 35, 10, False, shard)
    assert pq.read_table(paths).column("i").to_pylist() == list(range(35))

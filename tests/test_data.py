import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqens import data as D
from seqens.data import (
    Checkpoint,
    DatasetSpec,
    FormatError,
    Sample,
    SpecError,
    checkpoint_from_generation,
    decode_pgm,
    decode_ppm,
    encode_pgm,
    encode_ppm,
    generate_dataset,
    generate_sample,
    generation_from_checkpoint,
    load_checkpoint,
    load_split,
    read_sample,
    save_checkpoint,
    write_manifest,
    write_sample,
)
from seqens.nets import BackboneConfig, build_generation, flatten_parameters


def test_generation_deterministic():
    spec = DatasetSpec(count=4, height=24, width=24, seed=9)
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.label, sb.label)


def test_generation_independent_of_order():
    spec = DatasetSpec(count=6, height=16, width=16, seed=2)
    s3 = generate_sample(spec, 3)
    full = generate_dataset(spec)
    np.testing.assert_array_equal(s3.image, full[3].image)


def test_labels_below_num_classes_and_image_range():
    spec = DatasetSpec(count=8, height=32, width=32, num_classes=4, seed=1)
    for s in generate_dataset(spec):
        assert s.label.max() < 4 and s.label.min() >= 0
        assert np.all(s.image >= 0) and np.all(s.image <= 1)
        assert np.all(np.isfinite(s.image))


def test_rectangle_area_matches_label_count():
    spec = DatasetSpec(
        count=1,
        height=32,
        width=32,
        shapes_per_image=(1, 1),
        shape_kinds=("rectangle",),
        noise_std=0.0,
        texture=False,
        seed=4,
    )
    s = generate_sample(spec, 0)
    area = int((s.label == 1).sum())
    assert area > 0
    # rectangle pixels share an exact colour; count them directly in the image
    ys, xs = np.nonzero(s.label == 1)
    h = ys.max() - ys.min() + 1
    w = xs.max() - xs.min() + 1
    assert area == h * w


def test_no_shapes_gives_background_only():
    spec = DatasetSpec(count=2, height=16, width=16, shapes_per_image=(0, 0), seed=3)
    for s in generate_dataset(spec):
        assert np.all(s.label == 0)


def test_spec_validation():
    with pytest.raises(SpecError):
        DatasetSpec(shapes_per_image=(3, 1))
    with pytest.raises(SpecError):
        DatasetSpec(num_classes=1)
    with pytest.raises(SpecError):
        DatasetSpec(num_classes=2, shape_kinds=("rectangle", "disk"))
    with pytest.raises(SpecError):
        DatasetSpec(noise_std=-0.1)


# ---------------------------------------------------------------------------
# PPM / PGM


def test_label_roundtrip_exact(tmp_path):
    spec = DatasetSpec(count=1, height=20, width=24, seed=5)
    s = generate_sample(spec, 0)
    write_sample(str(tmp_path), 0, s)
    back = read_sample(str(tmp_path), 0)
    np.testing.assert_array_equal(back.label, s.label)


def test_labels_are_one_byte_from_generation_through_a_loaded_split(tmp_path):
    spec = DatasetSpec(count=3, height=12, width=10, seed=4)
    samples = [generate_sample(spec, i) for i in range(spec.count)]
    rows = []
    for i, s in enumerate(samples):
        assert s.label.dtype == np.uint8
        ip, lp = write_sample(str(tmp_path), i, s)
        rows.append((i, "val", os.path.basename(ip), os.path.basename(lp)))
    write_manifest(str(tmp_path), rows)
    loaded = load_split(str(tmp_path), "val")
    for s, back in zip(samples, loaded, strict=True):
        assert back.label.dtype == np.uint8 and back.label.flags.writeable
        np.testing.assert_array_equal(back.label, s.label)
    label = np.array([[0, 3], [255, 1]], dtype=np.uint8)
    back = decode_pgm(encode_pgm(label))
    assert back.dtype == np.uint8 and back.flags.writeable
    np.testing.assert_array_equal(back, label)


def test_image_roundtrip_quantization(tmp_path):
    spec = DatasetSpec(count=1, height=20, width=24, seed=6)
    s = generate_sample(spec, 0)
    write_sample(str(tmp_path), 0, s)
    back = read_sample(str(tmp_path), 0)
    assert np.abs(back.image - s.image).max() <= 1.0 / 255.0 + 1e-7


def test_hand_built_ppm_bytes():
    payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
    blob = b"P6\n2 2\n255\n" + payload
    img = decode_ppm(blob)
    assert img.shape == (3, 2, 2)
    assert img[0, 0, 0] == 1.0 and img[1, 0, 0] == 0.0
    assert img[2, 0, 1] == 0.0 and img[1, 0, 1] == 1.0
    assert np.all(img[:, 1, 1] == 1.0)


def test_ppm_comment_and_errors():
    blob = b"P6\n# a comment\n1 1\n255\n\x01\x02\x03"
    img = decode_ppm(blob)
    assert img.shape == (3, 1, 1)
    with pytest.raises(FormatError, match="magic"):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(FormatError, match="maxval"):
        decode_ppm(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(FormatError, match="truncated"):
        decode_ppm(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        decode_pgm(b"P5\n2 2\n")


@pytest.mark.parametrize("size", [b"-2 -2", b"0 3", b"3 0"])
def test_netpbm_non_positive_size_is_format_error(size):
    # -2 x -2 asks for 4 payload bytes, so the size check, not the length check, must fire
    with pytest.raises(FormatError, match="non-positive"):
        decode_pgm(b"P5 " + size + b" 255\n" + bytes(4))
    with pytest.raises(FormatError, match="non-positive"):
        decode_ppm(b"P6 " + size + b" 255\n" + bytes(12))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_pgm_roundtrip_property(h, w, seed):
    label = np.random.default_rng(seed).integers(0, 255, size=(h, w))
    np.testing.assert_array_equal(decode_pgm(encode_pgm(label)), label)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(
        tensors={
            "a.weight": rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
            "a.bias": rng.normal(size=3).astype(np.float32),
            "scalar": np.asarray(1.5, dtype=np.float32),
        },
        metadata={"conditioning": "none", "generation_index": "0"},
    )
    p1 = str(tmp_path / "one.ckpt")
    p2 = str(tmp_path / "two.ckpt")
    save_checkpoint(p1, ckpt)
    loaded = load_checkpoint(p1)
    for name, arr in ckpt.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)
    assert loaded.metadata == ckpt.metadata
    save_checkpoint(p2, loaded)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_empty_checkpoint_is_16_bytes(tmp_path):
    path = str(tmp_path / "empty.ckpt")
    save_checkpoint(path, Checkpoint(tensors={}))
    blob = open(path, "rb").read()
    assert blob == b"SQEN" + struct.pack("<III", 2, 0, 0)


def test_save_checkpoint_writes_one_file(tmp_path):
    g = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=1)
    save_checkpoint(str(tmp_path / "g.ckpt"), checkpoint_from_generation(g))
    assert os.listdir(tmp_path) == ["g.ckpt"]


def _ckpt_bytes(meta: bytes, tensors: bytes = b"", count: int = 0, version: int = 2) -> bytes:
    return b"SQEN" + struct.pack("<III", version, count, len(meta)) + meta + tensors


def test_v1_checkpoint_rejected(tmp_path):
    path = tmp_path / "v1.ckpt"
    # a version-1 file: magic, <II (version, count), then the tensor records
    path.write_bytes(b"SQEN" + struct.pack("<II", 1, 1) + b"\x01\x00t\x01" + struct.pack("<If", 1, 2.5))
    with pytest.raises(FormatError, match="unsupported version 1 at byte 4"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "blob, match",
    [
        (_ckpt_bytes(b"seed=1\n") + b"\x00", "1 trailing bytes at byte 23"),
        (_ckpt_bytes(b"seed=1\n")[:-2], "metadata of 7 bytes at byte 16 runs past the end"),
        (_ckpt_bytes(b"seed=\xff\n"), "metadata is not UTF-8 at byte 21"),
        (_ckpt_bytes(b"seed=1\nconditioning\n"), "metadata line 2 has no '='"),
        (_ckpt_bytes(b"seed=1\nseed=2\n"), "metadata line 2 repeats key 'seed'"),
        (_ckpt_bytes(b"seed=1"), "metadata does not end with a newline at byte 21"),
    ],
    ids=["trailing_bytes", "metadata_past_end", "not_utf8", "no_equals", "duplicate_key", "no_final_newline"],
)
def test_malformed_checkpoint_is_format_error(tmp_path, blob, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key, value", [("a=b", "1"), ("a\nb", "1"), ("a", "1\n2")])
def test_save_checkpoint_rejects_unwritable_metadata(tmp_path, key, value):
    path = tmp_path / "m.ckpt"
    with pytest.raises(FormatError, match="checkpoint metadata"):
        save_checkpoint(str(path), Checkpoint(tensors={}, metadata={key: value}))
    assert not path.exists()


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, Checkpoint(tensors={"t": np.ones(3, dtype=np.float32)}, metadata={"seed": "1"}))
    old = open(path, "rb").read()

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(path, Checkpoint(tensors={"t": np.zeros(5, dtype=np.float32)}, metadata={"seed": "2"}))
    assert open(path, "rb").read() == old
    assert os.listdir(tmp_path) == ["c.ckpt"]


def test_corrupt_checkpoint_detected(tmp_path):
    path = str(tmp_path / "c.ckpt")
    arr = np.arange(8, dtype=np.float32).reshape(2, 4)
    save_checkpoint(path, Checkpoint(tensors={"t": arr}))
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # flip a payload byte
    open(path, "wb").write(bytes(blob))
    loaded = load_checkpoint(path)
    assert not np.array_equal(loaded.tensors["t"], arr)

    blob[0] ^= 0xFF  # now break the magic too
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_checkpoint(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, Checkpoint(tensors={"t": np.ones(5, dtype=np.float32)}))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_generation_checkpoint_roundtrip(tmp_path):
    cfg = BackboneConfig(
        layer_channels=(4, 6, 8),
        adon_latent=4,
        conditioning="adon",
        adon_placements=("early", "late"),
    )
    g = build_generation(cfg, seed=11, index=2)
    g.parameters["head.weight"].data += 0.3  # make it differ from fresh init
    path = str(tmp_path / "g.ckpt")
    save_checkpoint(path, checkpoint_from_generation(g))
    back = generation_from_checkpoint(load_checkpoint(path))
    np.testing.assert_array_equal(flatten_parameters(back), flatten_parameters(g))
    assert back.config == cfg
    assert back.generation_index == 2


def test_generation_from_checkpoint_does_not_alias_the_source():
    # checkpoint_from_generation shares its arrays with the live generation
    g = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=4)
    back = generation_from_checkpoint(checkpoint_from_generation(g))
    for name, t in g.parameters.items():
        assert back.parameters[name].data.dtype == np.float32
        assert not np.shares_memory(back.parameters[name].data, t.data), name
    before = flatten_parameters(g)
    back.parameters["head.weight"].data += 1.0
    np.testing.assert_array_equal(flatten_parameters(g), before)


def test_checkpoint_architecture_mismatch(tmp_path):
    g = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=1)
    ckpt = checkpoint_from_generation(g)
    ckpt.metadata["arch.layer_channels"] = "8,6,8"
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError):
        generation_from_checkpoint(load_checkpoint(path))


# ---------------------------------------------------------------------------
# batched inference split over the CPUs


def _numbered(n):
    """Samples whose images hold their own index."""
    return [Sample(np.full((3, 2, 2), i, np.float32), np.zeros((2, 2), np.int64)) for i in range(n)]


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in BLAS thread setting, and a split into three slices whatever the machine."""
    threads = [4]
    monkeypatch.setattr(D, "_openblas_threads", lambda: (lambda: threads[0], lambda k: threads.__setitem__(0, k)))
    monkeypatch.setattr(D, "_split_workers", lambda: 3)
    return threads


def test_split_batches_come_back_in_image_order_from_several_threads(fake_blas, monkeypatch):
    seen, blas_inside = set(), set()

    def fn(images):
        seen.add(threading.get_ident())
        blas_inside.add(fake_blas[0])
        return np.array([sum(float(v) for _ in range(200)) for v in images[:, 0, 0, 0]]) / 100

    monkeypatch.setattr(D, "_split_workers", lambda: 7)  # more slices than the pool has threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = D._batched_probs(fn, _numbered(37))  # batches of 16, 16 and 5, each cut into slices
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(out, np.arange(37) * 2)
    assert len(seen) > 1 and threading.get_ident() in seen
    assert blas_inside == {1} and fake_blas[0] == 4


def test_an_error_in_a_slice_propagates_unchanged_and_blas_is_restored(fake_blas):
    boom = KeyError("slice")

    def fn(images):
        if (images[:, 0, 0, 0] == 23).any():  # the second batch's middle slice, on a pool thread
            raise boom
        return images[:, 0, 0, 0]

    with pytest.raises(KeyError) as info:
        D._batched_probs(fn, _numbered(32))
    assert info.value is boom and fake_blas[0] == 4


def test_slices_on_the_pool_keep_the_callers_error_state(fake_blas):
    def fn(images):
        v = images[:, 0, 0, 0] - 13  # zero only in the last of three slices, which a pool thread runs
        return v / v

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        D._batched_probs(fn, _numbered(16))


def test_a_call_from_inside_a_slice_runs_serially(fake_blas):
    inner, out = _numbered(5), []

    def fn(images):
        return np.stack([D._batched_probs(lambda im: im[:, 0, 0, 0], inner)] * len(images))

    # a nested split would wait on pool threads busy with its caller's slices
    caller = threading.Thread(target=lambda: out.append(D._batched_probs(fn, _numbered(16))), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    np.testing.assert_array_equal(out[0], np.tile(np.arange(5, dtype=np.float32), (16, 1)))


@pytest.mark.skipif(D._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
def test_blas_thread_count_reads_the_same_before_and_after_a_split():
    get, _ = D._openblas_threads()
    before, inside = get(), set()
    D._batched_probs(lambda im: (inside.add(get()), im)[1], _numbered(20))
    assert get() == before
    if len(os.sched_getaffinity(0)) > 1:
        assert inside == {1}

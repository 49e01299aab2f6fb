"""Fuzzing the file parsers: any input gives a value or the parser's documented error."""

import os
import struct
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqens.config import ConfigFileError, parse_config_text
from seqens.data import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    FormatError,
    decode_pgm,
    decode_ppm,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)

FUZZ = settings(max_examples=300, deadline=None)

# netpbm: a magic, three header fields and a payload, each mostly plausible
_field = st.one_of(
    st.integers(-3, 6).map(lambda v: str(v).encode()),
    st.sampled_from([b"255", b"0", b"65535", b"1_0", b"+2", b"0x4", b"", b"\xff", b"#x\n"]),
    st.binary(max_size=4),
)
_sep = st.sampled_from([b" ", b"\n", b"\t", b"  ", b" #c\n", b"\r\n", b""])
NETPBM = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        st.sampled_from([b"P5", b"P6", b"P3", b"P", b""]),
        _sep, _field, _sep, _field, _sep, _field, _sep, st.binary(max_size=80),
    ).map(b"".join),
)


def _assert_parses_or_format_error(decode, blob):
    try:
        out = decode(blob)
    except FormatError:
        return
    assert isinstance(out, np.ndarray) and out.size > 0


@FUZZ
@given(NETPBM)
@example(b"P5 -2 -2 255\n")
@example(b"P6 -2 -2 255\n")
def test_decode_pgm_fuzz(blob):
    _assert_parses_or_format_error(decode_pgm, blob)


@FUZZ
@given(NETPBM)
@example(b"P6 -2 -2 255\n")
def test_decode_ppm_fuzz(blob):
    _assert_parses_or_format_error(decode_ppm, blob)


def _valid_checkpoint_bytes() -> bytes:
    ckpt = Checkpoint(
        tensors={"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.float32(1.5)},
        metadata={"conditioning": "none", "seed": "3"},
    )
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.ckpt")
        save_checkpoint(path, ckpt)
        with open(path, "rb") as f:
            return f.read()


def _header(count: int = 1, meta: bytes = b"") -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, count, len(meta)) + meta


VALID_CKPT = _valid_checkpoint_bytes()
VALID_META = b"conditioning=none\nseed=3\n"
RECORDS = VALID_CKPT[16 + len(VALID_META) :]  # the valid file's two tensor records
# metadata blocks of `key=value` lines, some without '=', with a repeated key or not UTF-8
_meta_key = st.sampled_from([b"seed", b"conditioning", b"\xff"])
_meta_line = st.one_of(
    st.tuples(_meta_key, st.sampled_from([b"=", b""]), st.binary(max_size=4)).map(b"".join),
    st.binary(max_size=8),
)
_META = st.lists(_meta_line, max_size=4).map(lambda lines: b"".join(line + b"\n" for line in lines))
CHECKPOINT_BLOBS = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: _header() + tail),
    # a metadata block before the valid tensor records, which may be cut short or run on
    st.tuples(_META, st.integers(0, len(RECORDS)), st.binary(max_size=2)).map(
        lambda t: _header(2, t[0]) + RECORDS[: t[1]] + t[2]
    ),
    # a valid file, cut short or with one byte replaced
    st.integers(0, len(VALID_CKPT)).map(lambda n: VALID_CKPT[:n]),
    st.tuples(st.integers(0, len(VALID_CKPT) - 1), st.integers(0, 255)).map(
        lambda t: VALID_CKPT[: t[0]] + bytes([t[1]]) + VALID_CKPT[t[0] + 1 :]
    ),
)


def _load_checkpoint_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fuzz.ckpt")
        with open(path, "wb") as f:
            f.write(blob)
        return load_checkpoint(path)


# a one-byte tensor name that is not UTF-8; four dims of 65536, whose product
# wraps to 0 in int64; and the valid file with its first ndim byte set to 5,
# which reads payload bytes as dims (2, 3, 0, 1065353216, 1073741824): zero
# elements, but more than numpy can index
NAME_NOT_UTF8 = _header() + b"\x01\x00\x80"
SIZE_WRAPS = _header() + b"\x01\x00w\x04" + struct.pack("<4I", *(65536,) * 4)
_NDIM_AT = 16 + len(VALID_META) + 2 + len(b"a.weight")
ZERO_SIZE_HUGE_DIMS = VALID_CKPT[:_NDIM_AT] + b"\x05" + VALID_CKPT[_NDIM_AT + 1 :]
# the metadata block: its length past the end of the file, a byte that is not
# UTF-8, a line without '=', a repeated key; and the valid file with a byte appended
META_PAST_END = CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, 0, 64) + b"seed=3\n"
META_NOT_UTF8 = _header(0, b"seed=\xff\n")
META_NO_EQUALS = _header(0, b"seed\n")
META_REPEATED_KEY = _header(0, b"seed=3\nseed=4\n")
TRAILING_BYTE = VALID_CKPT + b"\x00"


@FUZZ
@given(CHECKPOINT_BLOBS)
@example(VALID_CKPT)
@example(NAME_NOT_UTF8)
@example(SIZE_WRAPS)
@example(ZERO_SIZE_HUGE_DIMS)
@example(META_PAST_END)
@example(META_NOT_UTF8)
@example(META_NO_EQUALS)
@example(META_REPEATED_KEY)
@example(TRAILING_BYTE)
def test_load_checkpoint_fuzz(blob):
    try:
        ckpt = _load_checkpoint_bytes(blob)
    except FormatError:
        return
    assert all(isinstance(a, np.ndarray) for a in ckpt.tensors.values())


_row = st.lists(
    st.one_of(st.sampled_from(["0", "1", "-1", "x", "train", "val", "a.ppm", ""]), st.text(max_size=6)),
    min_size=0,
    max_size=6,
).map(",".join)
MANIFESTS = st.one_of(
    st.binary(max_size=80),
    st.lists(_row, max_size=4)
    .map(lambda rows: "\n".join(["index,split,image_path,label_path", *rows]).encode("utf-8")),
)


def _read_manifest_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "manifest.csv"), "wb") as f:
            f.write(blob)
        return read_manifest(d)


MANIFEST_HEADER = b"index,split,image_path,label_path\n"


@FUZZ
@given(MANIFESTS)
@example(b"\x80")
@example(MANIFEST_HEADER + b"0,train")
@example(MANIFEST_HEADER + b"x,train,a.ppm,a.pgm")
def test_read_manifest_fuzz(blob):
    try:
        rows = _read_manifest_bytes(blob)
    except FormatError:
        return
    for index, split, ip, lp in rows:
        assert isinstance(index, int)
        assert all(isinstance(v, str) for v in (split, ip, lp))


_line = st.one_of(
    st.text(max_size=20),
    st.tuples(
        st.sampled_from(["train.lr0", "data.count", "arch.conditioning", "bogus", ""]),
        st.sampled_from([" = ", "=", " ", "==", " # "]),
        st.text(max_size=8),
    ).map("".join),
)
CONFIG_TEXTS = st.one_of(st.text(max_size=80), st.lists(_line, max_size=5).map("\n".join))


@FUZZ
@given(CONFIG_TEXTS)
def test_parse_config_text_fuzz(text):
    try:
        values = parse_config_text(text)
    except ConfigFileError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())

"""Synthetic shape datasets, image codecs and the checkpoint format.

Every sample is a pure function of (spec, index): each image gets its own
counter-based Philox stream keyed by (spec.seed, index), so generation order
and parallelism cannot change the data.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import multiprocessing
import os
import pickle
import signal
import struct
from dataclasses import dataclass, field

import numpy as np

SHAPE_KINDS = ("rectangle", "disk", "triangle")
CHECKPOINT_MAGIC = b"SQEN"
CHECKPOINT_VERSION = 2
IGNORE_LABEL = 255  # label value that the loss and every metric skip (pad from augmentation)


class FormatError(ValueError):
    """Malformed file content; message carries the offending position."""


class SpecError(ValueError):
    pass


@dataclass
class DatasetSpec:
    count: int = 300
    height: int = 64
    width: int = 64
    num_classes: int = 4
    shapes_per_image: tuple[int, int] = (2, 4)
    shape_kinds: tuple[str, ...] = SHAPE_KINDS
    noise_std: float = 0.06
    texture: bool = True
    seed: int = 0

    def __post_init__(self):
        self.shape_kinds = tuple(self.shape_kinds)
        lo, hi = self.shapes_per_image
        if lo > hi or lo < 0:
            raise SpecError("shapes_per_image must satisfy 0 <= min <= max")
        if self.num_classes < 2:
            raise SpecError("num_classes must be >= 2")
        for k in self.shape_kinds:
            if k not in SHAPE_KINDS:
                raise SpecError(f"unknown shape kind {k!r}")
        if len(self.shape_kinds) > self.num_classes - 1:
            raise SpecError("need a foreground class per shape kind")
        if not 0 <= self.noise_std < math.inf:  # false for a NaN too
            raise SpecError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.count < 0 or self.height < 1 or self.width < 1:
            raise SpecError("invalid dataset dimensions")


@dataclass
class Sample:
    image: np.ndarray  # (3, H, W) float32 in [0, 1]
    label: np.ndarray  # (H, W) uint8 in {0..C-1}, or IGNORE_LABEL


# fixed class id and colour family per shape kind (class 0 is background)
_KIND_CLASS = {k: i + 1 for i, k in enumerate(SHAPE_KINDS)}
_KIND_BASE_COLOR = {
    "rectangle": np.array([0.85, 0.25, 0.25]),
    "disk": np.array([0.25, 0.8, 0.3]),
    "triangle": np.array([0.25, 0.35, 0.9]),
}


def _image_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rasterize(kind: str, rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Boolean mask for one randomly placed shape, evaluated at pixel centers."""
    if kind == "rectangle":
        rw = int(rng.integers(max(2, w // 8), max(3, w // 2)))
        rh = int(rng.integers(max(2, h // 8), max(3, h // 2)))
        x0 = int(rng.integers(0, w - rw + 1))
        y0 = int(rng.integers(0, h - rh + 1))
        mask = np.zeros((h, w), dtype=bool)
        mask[y0 : y0 + rh, x0 : x0 + rw] = True
        return mask
    ys, xs = np.mgrid[0:h, 0:w]
    if kind == "disk":
        r = float(rng.uniform(min(h, w) / 10, min(h, w) / 4))
        cy = float(rng.uniform(r, h - r))
        cx = float(rng.uniform(r, w - r))
        return (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
    # triangle: three random vertices, inside test via signed areas
    vx = rng.uniform(0, w, size=3)
    vy = rng.uniform(0, h, size=3)

    def cross(ax, ay, bx, by, px, py):
        return (bx - ax) * (py - ay) - (by - ay) * (px - ax)

    d1 = cross(vx[0], vy[0], vx[1], vy[1], xs, ys)
    d2 = cross(vx[1], vy[1], vx[2], vy[2], xs, ys)
    d3 = cross(vx[2], vy[2], vx[0], vy[0], xs, ys)
    neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(neg & pos)


def generate_sample(spec: DatasetSpec, index: int) -> Sample:
    rng = _image_rng(spec.seed, index)
    h, w = spec.height, spec.width
    base = rng.uniform(0.25, 0.75, size=3)
    image = np.broadcast_to(base[:, None, None], (3, h, w)).astype(np.float64).copy()
    if spec.texture:
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        ys, xs = np.mgrid[0:h, 0:w]
        wave = 0.08 * np.sin(2 * np.pi * fy * ys / h + phase[0]) * np.sin(
            2 * np.pi * fx * xs / w + phase[1]
        )
        image += wave[None]
    label = np.zeros((h, w), dtype=np.uint8)
    lo, hi = spec.shapes_per_image
    n_shapes = int(rng.integers(lo, hi + 1)) if hi > 0 else 0
    for _ in range(n_shapes):
        kind = spec.shape_kinds[int(rng.integers(0, len(spec.shape_kinds)))]
        mask = _rasterize(kind, rng, h, w)
        color = np.clip(_KIND_BASE_COLOR[kind] + rng.uniform(-0.12, 0.12, size=3), 0, 1)
        image[:, mask] = color[:, None]
        label[mask] = _KIND_CLASS[kind]  # later shapes occlude earlier ones
    if spec.noise_std > 0:
        image += rng.normal(0.0, spec.noise_std, size=image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, label=label)


def generate_dataset(spec: DatasetSpec) -> list[Sample]:
    return [generate_sample(spec, i) for i in range(spec.count)]


# ---------------------------------------------------------------------------
# PPM / PGM codecs (binary, maxval 255)


def _encode_netpbm(magic: bytes, arr: np.ndarray) -> bytes:
    h, w = arr.shape[-2:]
    header = magic + b"\n%d %d\n255\n" % (w, h)
    if magic == b"P6":
        payload = np.moveaxis(arr, 0, -1).astype(np.uint8).tobytes()
    else:
        payload = arr.astype(np.uint8).tobytes()
    return header + payload


def _parse_netpbm(blob: bytes, expect_magic: bytes):
    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos : pos + 1].isspace():
                pos += 1
            elif blob[pos : pos + 1] == b"#":
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"truncated header at byte {start}")
        return blob[start:pos]

    magic = token()
    if magic != expect_magic:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {expect_magic!r}")
    try:
        w = int(token())
        h = int(token())
        maxval = int(token())
    except ValueError as e:
        raise FormatError(f"non-numeric header field near byte {pos}") from e
    if w <= 0 or h <= 0:
        raise FormatError(f"non-positive image size {w}x{h} near byte {pos}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} near byte {pos}")
    pos += 1  # single whitespace byte after maxval
    channels = 3 if expect_magic == b"P6" else 1
    need = w * h * channels
    payload = blob[pos : pos + need]
    if len(payload) != need:
        raise FormatError(f"truncated payload at byte {pos + len(payload)}, need {need} bytes")
    data = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return np.moveaxis(data.reshape(h, w, 3), -1, 0), (h, w)
    return data.reshape(h, w), (h, w)


def encode_ppm(image: np.ndarray) -> bytes:
    """image: (3, H, W) float in [0,1] -> binary P6 bytes."""
    q = np.clip(np.rint(image * 255.0), 0, 255)
    return _encode_netpbm(b"P6", q)


def decode_ppm(blob: bytes) -> np.ndarray:
    raw, _ = _parse_netpbm(blob, b"P6")
    return (raw.astype(np.float32) / 255.0).copy()


def encode_pgm(label: np.ndarray) -> bytes:
    """label: (H, W) class ids < 256 -> binary P5 bytes."""
    if label.max(initial=0) > 255 or label.min(initial=0) < 0:
        raise FormatError("labels must fit into 8 bits")
    return _encode_netpbm(b"P5", label)


def decode_pgm(blob: bytes) -> np.ndarray:
    raw, _ = _parse_netpbm(blob, b"P5")
    return raw.copy()  # writable, unlike the view of `blob`


def write_sample(directory: str, index: int, sample: Sample) -> tuple[str, str]:
    image_path = os.path.join(directory, f"image_{index:05d}.ppm")
    label_path = os.path.join(directory, f"label_{index:05d}.pgm")
    _write_atomic(image_path, encode_ppm(sample.image))
    _write_atomic(label_path, encode_pgm(sample.label))
    return image_path, label_path


def _read_sample(directory: str, image_name: str, label_name: str) -> Sample:
    with open(os.path.join(directory, image_name), "rb") as f:
        image = decode_ppm(f.read())
    with open(os.path.join(directory, label_name), "rb") as f:
        return Sample(image=image, label=decode_pgm(f.read()))


def read_sample(directory: str, index: int) -> Sample:
    return _read_sample(directory, f"image_{index:05d}.ppm", f"label_{index:05d}.pgm")


# ---------------------------------------------------------------------------
# manifest


def write_manifest(directory: str, rows: list[tuple[int, str, str, str]]) -> str:
    """rows: (index, split, image_path, label_path)."""
    path = os.path.join(directory, "manifest.csv")
    _write_csv(path, ["index", "split", "image_path", "label_path"], [[str(i), *rest] for i, *rest in rows])
    return path


def read_manifest(directory: str) -> list[tuple[int, str, str, str]]:
    path = os.path.join(directory, "manifest.csv")
    rows = []
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().splitlines()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not UTF-8 text") from e
    header = lines[0].strip() if lines else ""
    if header != "index,split,image_path,label_path":
        raise FormatError(f"unexpected manifest header: {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise FormatError(f"{path}: line {lineno} has {len(fields)} fields, expected 4")
        try:
            index = int(fields[0])
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: index {fields[0]!r} is not an integer") from e
        rows.append((index, *fields[1:]))
    return rows


def load_split(directory: str, split: str) -> list[Sample]:
    return [_read_sample(directory, ip, lp) for _, sp, ip, lp in read_manifest(directory) if sp == split]


# ---------------------------------------------------------------------------
# CSV reports and batched inference


def fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_atomic(path: str, blob: bytes) -> None:
    """Write through a temp file beside `path` renamed over it: readers see the old file or the
    new one, never a torn mix. No fsync, so this survives a crash of the program, not power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))


@functools.cache
def _openblas_threads():
    """(getter, setter) of the thread count of numpy's bundled OpenBLAS, or None without it."""
    try:
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
        lib = ctypes.CDLL(libs[0])  # the copy numpy has loaded already
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers, from <malloc.h>


@functools.cache
def _keep_freed_memory():
    """Have glibc's malloc keep freed blocks in the process; True if it took both values, None without glibc.

    By default every block above 128 KiB (rising to the largest freed so far) is
    its own mmap, and a free heap top over twice that goes back to the kernel, so
    each forward faults its conv temporaries in again as fresh zero pages. Either
    call also turns off glibc's adjustment of both thresholds, so both are set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no mallopt in the process (macOS, Windows)
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    took_mmap = mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest on 64-bit
    took_trim = mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    return took_mmap == took_trim == 1


def _split_workers() -> int:
    """How many CPUs a split may use: those this process may run on."""
    if _openblas_threads() is None or not hasattr(os, "sched_getaffinity"):  # not on every OS
        return 1
    return len(os.sched_getaffinity(0))


_BATCH = 16  # images per batch when a model runs over a split
_NESTED = False  # this process runs a part of a split (for good in a worker): a split asked for now runs serially


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread inside the block, set back after it (or after it raised)."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _slices(n: int, parts: int) -> list[slice]:
    """`parts` contiguous slices of range(n) whose lengths differ by at most one; n of them if n < parts."""
    bounds = np.linspace(0, n, min(parts, n) + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class _Worker:
    """A forked daemon process with one duplex pipe. It runs one pickled (fn, args, errstate)
    request at a time, and each request gets exactly one reply: (ok, value or exception)."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")  # safe: the program starts no thread
        self.conn, child = ctx.Pipe()
        inherited = [self.conn] + [w.conn for w in _WORKERS]
        self.process = ctx.Process(target=_serve, args=(child, inherited), name="seqens-split", daemon=True)
        self.process.start()
        child.close()

    def send(self, request: bytes) -> None:
        self._exchange(self.conn.send_bytes, request)

    def reply(self) -> tuple[bool, object]:
        return self._exchange(self.conn.recv)

    def _exchange(self, io, *args):
        try:
            return io(*args)
        except BaseException as e:  # the worker died, or an interrupt cut the exchange short: drop it
            self.drop()
            if isinstance(e, (EOFError, OSError)):
                raise RuntimeError("a split worker process exited unexpectedly") from e
            raise

    def drop(self) -> None:
        _WORKERS.remove(self)
        self.conn.close()
        self.process.terminate()
        self.process.join()


_WORKERS: list[_Worker] = []  # _WORKERS[k - 1] runs part k of a split; forked on first use, kept for good


def _serve(conn, inherited) -> None:
    """A worker's loop. It ends when the parent's end of its pipe closes, as it does when the parent
    exits or is killed; an interrupt is the parent's to handle."""
    global _NESTED
    for end in inherited:  # the parent's ends of this and the earlier workers' pipes: else EOF never comes
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _NESTED = True
    with _one_blas_thread():
        while True:
            try:
                request = conn.recv_bytes()
            except EOFError:
                return
            try:
                fn, args, err = pickle.loads(request)
                with np.errstate(**err):  # the caller's
                    reply = True, fn(*args)
            except Exception as e:
                reply = False, e
            try:
                conn.send(reply)
            except (pickle.PicklingError, AttributeError, TypeError):  # an exception that does not pickle
                conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))
            except OSError:  # the parent is gone
                return


def _split(fn, parts: list[tuple]) -> list:
    """[fn(*part) for part in parts]: this process runs part 0 while worker k runs part k, all at once.

    Each worker gets one pickle of (fn, its part, this process's `np.geterr()`),
    so the caller's error state holds there, and arguments that share an object
    (a self-loop provider and the generation it reads) share the worker's copy.
    OpenBLAS is held at one thread while the parts run. Every part has ended
    before this returns, even when part 0 raised, and the earliest part's
    exception is re-raised. A worker whose reply cannot be read (it died, or an
    interrupt came first) is stopped and dropped; the next split forks another.
    The parts run here, one after another, when there is no CPU for each, when
    `fn` does not pickle (a closure, say), or inside a part of another split.
    """
    global _NESTED
    if len(parts) == 1:
        return [fn(*parts[0])]
    requests = None
    if not _NESTED and len(parts) <= _split_workers():
        try:
            err = np.geterr()
            requests = [pickle.dumps((fn, part, err), protocol=pickle.HIGHEST_PROTOCOL) for part in parts[1:]]
        except (pickle.PicklingError, AttributeError, TypeError):
            pass
    with _one_blas_thread():
        if requests is None:
            return [fn(*part) for part in parts]
        while len(_WORKERS) < len(requests):
            _WORKERS.append(_Worker())
        sent, replies = [], []
        _NESTED = True
        try:
            for w, request in zip(_WORKERS, requests):
                w.send(request)
                sent.append(w)
            own = fn(*parts[0])
        finally:  # read every reply, even after an error here: each pipe stays in step
            _NESTED = False
            try:
                for w in sent:
                    replies.append(w.reply())
            finally:
                for w in sent[len(replies) + 1 :]:  # left unread after the reply before them raised
                    w.drop()
    for ok, value in replies:
        if not ok:
            raise value
    return [own] + [value for _, value in replies]


def _batched_probs(fn, dataset) -> np.ndarray:
    """Run `fn` (image batch -> per-image maps) over the split in batches; one array, image on axis 0.

    `fn` is an `ensembling.Chain` (a single generation is a chain of one), one
    of its bound methods, or a function bound to a list of members: each
    pickles with its models, so the slices can run in the split workers. Each
    batch is cut into one contiguous slice per CPU of the process's affinity
    set, and `_split` runs the slices. An image's maps do not depend on its
    batch, so the result is the serial one bit for bit.
    """
    if not dataset:
        raise FormatError("empty split: no samples to run the model over")
    maps = []
    for start in range(0, len(dataset), _BATCH):
        batch = np.stack([s.image for s in dataset[start : start + _BATCH]])
        maps += _split(fn, [(batch[s],) for s in _slices(len(batch), _split_workers())])
    return np.concatenate(maps)


# ---------------------------------------------------------------------------
# checkpoint format


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """One self-describing file: `SQEN`, `<III` (version, tensor count, metadata bytes), the
    metadata as UTF-8 `key=value` lines sorted by key, then per tensor `<H` name length,
    UTF-8 name, `<B` ndim, `<I` per dim and the little-endian float32 data."""
    names = list(ckpt.tensors)
    for k, v in ckpt.metadata.items():
        if "=" in k or "\n" in k or "\n" in v:
            raise FormatError(f"checkpoint metadata {k!r}: a key holds no '=' or newline, a value no newline")
    meta = "".join(f"{k}={ckpt.metadata[k]}\n" for k in sorted(ckpt.metadata)).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<III", CHECKPOINT_VERSION, len(names), len(meta)), meta]
    for name in names:
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        parts += [struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape), arr.tobytes()]
    _write_atomic(path, b"".join(parts))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise FormatError(f"file too short ({len(blob)} bytes)")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} at byte 0")
    version, count, meta_len = struct.unpack_from("<III", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    pos = 16 + meta_len
    if pos > len(blob):
        raise FormatError(f"checkpoint metadata of {meta_len} bytes at byte 16 runs past the end of the file")
    try:
        *lines, tail = blob[16:pos].decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise FormatError(f"checkpoint metadata is not UTF-8 at byte {16 + e.start}") from e
    if tail:
        raise FormatError(f"checkpoint metadata does not end with a newline at byte {pos - 1}")
    metadata: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"checkpoint metadata line {lineno} has no '='")
        if key in metadata:
            raise FormatError(f"checkpoint metadata line {lineno} repeats key {key!r}")
        metadata[key] = value
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 2 > len(blob):
            raise FormatError(f"truncated name length at byte {pos}")
        (nlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        try:
            name = blob[pos : pos + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"tensor name at byte {pos} is not UTF-8") from e
        pos += nlen
        if pos + 1 > len(blob):
            raise FormatError(f"truncated ndim at byte {pos}")
        ndim = blob[pos]
        pos += 1
        if pos + 4 * ndim > len(blob):
            raise FormatError(f"truncated shape at byte {pos}")
        shape = struct.unpack_from(f"<{ndim}I", blob, pos) if ndim else ()
        pos += 4 * ndim
        nbytes = 4 * math.prod(shape)  # exact: an int64 product can wrap negative
        if pos + nbytes > len(blob):
            raise FormatError(f"truncated payload for {name!r} at byte {pos}")
        try:
            arr = np.frombuffer(blob[pos : pos + nbytes], dtype="<f4").reshape(shape).copy()
        except ValueError as e:  # e.g. a zero dim beside dims numpy cannot index
            raise FormatError(f"unusable shape {shape} for {name!r} at byte {pos}") from e
        pos += nbytes
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        tensors[name] = arr
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes at byte {pos}")
    return Checkpoint(tensors=tensors, metadata=metadata)


# ---------------------------------------------------------------------------
# generation <-> checkpoint glue


def checkpoint_from_generation(g) -> Checkpoint:
    cfg = g.config
    meta = {
        "arch.in_channels": str(cfg.in_channels),
        "arch.num_classes": str(cfg.num_classes),
        "arch.layer_channels": ",".join(str(c) for c in cfg.layer_channels),
        "arch.adon_latent": str(cfg.adon_latent),
        "arch.adon_placements": ",".join(cfg.adon_placements),
        "generation_index": str(g.generation_index),
        "conditioning": cfg.conditioning,
        "seed": str(g.seed),
    }
    tensors = {name: t.data for name, t in sorted(g.parameters.items())}
    return Checkpoint(tensors=tensors, metadata=meta)


def generation_from_checkpoint(ckpt: Checkpoint):
    from .nets import BackboneConfig, build_generation

    m = ckpt.metadata
    try:
        placements = tuple(p for p in m.get("arch.adon_placements", "").split(",") if p)
        cfg = BackboneConfig(
            in_channels=int(m["arch.in_channels"]),
            num_classes=int(m["arch.num_classes"]),
            layer_channels=tuple(int(c) for c in m["arch.layer_channels"].split(",")),
            adon_latent=int(m["arch.adon_latent"]),
            adon_placements=placements,
            conditioning=m["conditioning"],
        )
        g = build_generation(cfg, seed=int(m.get("seed", "0")), index=int(m["generation_index"]))
    except (KeyError, ValueError) as e:
        raise FormatError(f"checkpoint metadata missing or malformed: {e}") from e
    if set(ckpt.tensors) != set(g.parameters):
        missing = set(g.parameters) ^ set(ckpt.tensors)
        raise FormatError(f"checkpoint does not match architecture: {sorted(missing)}")
    for name, arr in ckpt.tensors.items():
        if g.parameters[name].data.shape != arr.shape:
            raise FormatError(f"shape mismatch for {name!r}")
        g.parameters[name].data = np.array(arr, dtype=np.float32)
    return g

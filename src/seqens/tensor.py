"""Dense tensors with reverse-mode automatic differentiation.

Everything trainable in this package flows through the small op set below:
conv2d, relu, channel softmax, bilinear resize, affine modulation, channel
concatenation and per-pixel cross entropy, plus the elementwise glue needed
to compose them. Gradients are recorded on an explicit :class:`Graph` tape
and replayed in reverse topological order by :func:`gradients`, which hands
back each leaf's gradient: training passes them to :class:`SgdMomentum` and
:func:`grad_check` compares them with finite differences. :func:`backward`
adds them into each leaf's `.grad` instead; it serves the benchmark's
gradient oracle.

The tape names an op's output by an integer slot and holds a `Tensor` only
for a leaf; each op's backward function keeps just the arrays it reads, so
an intermediate that no backward reads is freed as soon as the forward
drops it.

Training runs in float32; :func:`grad_check` re-executes in float64 so the
finite-difference oracle is not limited by single precision.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Invalid use of the autodiff tape (e.g. double backward)."""


class Tensor:
    """Dense N-d array of reals with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        self.data = np.asarray(arr, dtype=dtype, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.slot: int | None = None  # the tape slot of the op that made it; None for a leaf

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class _Node:
    slot: int
    inputs: tuple  # per input: its slot if this graph made it, the leaf Tensor, or None (no gradient)
    backward_fn: object  # callable(grad_out) -> tuple of grads aligned with inputs


class Graph:
    """Tape of executed operations, replayable exactly once in reverse."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.slots: set[int] = set()  # the slots of `nodes`
        self.consumed = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.graphs.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.graphs.pop()
        assert popped is self


class _GraphStack(threading.local):
    """One stack per thread: an op records on a tape its own thread opened, never another's."""

    def __init__(self):
        self.graphs: list[Graph] = []


_GRAPH_STACK = _GraphStack()
# Slots are process-wide and never reused, unlike id(): an intermediate the tape
# no longer holds can die, and a new array could take its id.
_SLOTS = itertools.count()


def _active_graph() -> Graph | None:
    return _GRAPH_STACK.graphs[-1] if _GRAPH_STACK.graphs else None


def _recording(inputs: tuple) -> Graph | None:
    """The graph an op on `inputs` records on: this thread's open one, if a gradient can flow."""
    g = _active_graph()
    if g is not None and any(isinstance(t, Tensor) and t.requires_grad for t in inputs):
        return g
    return None


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    g = _recording(inputs)
    if g is not None:
        out.requires_grad = True
        out.slot = next(_SLOTS)
        refs = tuple(
            None if not (isinstance(t, Tensor) and t.requires_grad)
            else t.slot if t.slot in g.slots
            else t  # a leaf, or an output of another graph, which this one treats as a leaf
            for t in inputs
        )
        g.nodes.append(_Node(out.slot, refs, backward_fn))
        g.slots.add(out.slot)
    return out


def gradients(graph: Graph, loss: Tensor) -> list[tuple[Tensor, np.ndarray]]:
    """(leaf, d(loss)/d(leaf)) for every requires_grad leaf the loss reaches; no `.grad` is touched."""
    if graph.consumed:
        raise GraphError("graph already consumed by a previous backward pass")
    if loss.data.size != 1:
        raise GraphError("backward requires a scalar loss")
    if loss.slot not in graph.slots:
        raise GraphError("loss was not produced by this graph")
    graph.consumed = True

    flowing: dict[int, np.ndarray] = {loss.slot: np.ones_like(loss.data)}
    leaf_grads: dict[int, tuple[Tensor, np.ndarray]] = {}
    for node in reversed(graph.nodes):
        gout = flowing.pop(node.slot, None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for ref, gin in zip(node.inputs, gins):
            if gin is None or ref is None:
                continue
            if isinstance(ref, Tensor):
                key = id(ref)  # the node holds the leaf, so its id is not reused
                if key in leaf_grads:
                    leaf_grads[key] = (ref, leaf_grads[key][1] + gin)
                else:
                    leaf_grads[key] = (ref, gin)
            elif ref in flowing:
                flowing[ref] = flowing[ref] + gin
            else:
                flowing[ref] = gin
    return list(leaf_grads.values())


def backward(graph: Graph, loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into the `.grad` of every requires_grad leaf, in the leaf's dtype."""
    for t, g in gradients(graph, loss):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g.astype(t.data.dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def add_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data + a.dtype.type(c))
    return _record(out, (a,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _record(Tensor(ad * bd), (a, b), lambda g: (g * bd, g * ad))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = a.dtype.type(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(dtype=a.dtype), dtype=a.dtype))
    shape = a.shape
    return _record(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, x.dtype.type(0)))
    # backward reads only the sign, kept as one byte a pixel; an inference forward builds none
    mask = x.data > 0 if _recording((x,)) else None
    return _record(out, (x,), lambda g: (g * mask,))  # subgradient at 0 is 0


def affine_modulate(x: Tensor, sigma: Tensor, beta: Tensor) -> Tensor:
    if not (x.shape == sigma.shape == beta.shape):
        raise ShapeError(
            f"affine_modulate: shapes differ {x.shape}, {sigma.shape}, {beta.shape}"
        )
    xd, sd = x.data, sigma.data
    out = Tensor(sd * xd + beta.data)
    return _record(out, (x, sigma, beta), lambda g: (g * sd, g * xd, g))


def concat_channels(xs: list[Tensor]) -> Tensor:
    if not xs:
        raise ShapeError("concat_channels: empty input list")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        if t.shape[0] != n or t.shape[2:] != (h, w):
            raise ShapeError(f"concat_channels: incompatible shape {t.shape}")
    out = Tensor(np.concatenate([t.data for t in xs], axis=1))
    splits = np.cumsum([t.shape[1] for t in xs])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return _record(out, tuple(xs), bwd)


# ---------------------------------------------------------------------------
# conv2d


# Offsets are stacked until one GEMM reduces at least _GROUP_DEPTH deep, and the
# columns stream through blocks of at most _BLOCK_COLS; conv2d explains both.
_GROUP_DEPTH = 64
_BLOCK_COLS = 4096


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding. x: (N,Cin,H,W), weight: (Cout,Cin,kh,kw).

    Kernel offsets read shifted views of channel-major phase buffers (kn2row,
    Anderson et al., 2017). Shallow inputs stack consecutive offsets into one
    patch block, so each GEMM reduces at least _GROUP_DEPTH deep: a 3- or
    4-channel input becomes a single im2col GEMM (Chellapilla et al., 2006),
    and an input of 64 or more channels, or a 1x1 conv, stays one GEMM per
    offset over a view. The columns stream through blocks of at most
    _BLOCK_COLS: the patch block, the per-group product and the input-gradient
    columns stay that size whatever the batch or image size.
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d: kernel dims must be odd")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({cout},)")
    if stride < 1:
        raise ShapeError("conv2d: stride must be >= 1")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError("conv2d: kernel larger than padded input")
    s = stride
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
    # Parity phase (a, b) of the zero-padded input holds padded pixel
    # (a + s*r, b + s*c) at column (n*hs + r)*ws + c of a channel-major
    # (C, L + tail) buffer. Output pixel (oy, ox) sits at column
    # q = (n*hs + oy)*ws + ox of a (Cout, L) buffer, and kernel offset (i, j)
    # reads it at column q + d of phase (i % s, j % s), d = (i // s)*ws + j // s.
    # Columns with oy >= oh or ox >= ow, and columns past N*hs*ws, are junk: they
    # read across row and image ends or into the zero tail, and are cropped.
    # L is rounded up to a multiple of 32 because the weight gradient reduces
    # over L, and OpenBLAS sums a long reduction in an order that depends on its
    # thread count unless the length is such a multiple (seen with 0.3.31 at
    # 1, 2 and 4 threads); the rounding keeps results bit-identical across them.
    hs, ws = -(-hp // s), -(-wp // s)
    L = -(-(n * hs * ws) // 32) * 32
    tail = (kh - 1) // s * ws + (kw - 1) // s

    def grid(flat, c):
        """The (N, c, hs, ws) view of the first N*hs*ws columns of a (c, L + ...) buffer."""
        return flat[:, : n * hs * ws].reshape(c, n, hs, ws).transpose(1, 0, 2, 3)

    def image_part(a, b):
        """Phase (a, b)'s pixels inside the image: (rows, cols) there and in the phase grid."""
        r0, c0 = -(-(padding - a) // s), -(-(padding - b) // s)
        y0, x0 = a + s * r0 - padding, b + s * c0 - padding
        nr, nc = len(range(y0, h, s)), len(range(x0, w, s))
        return (slice(y0, h, s), slice(x0, w, s)), (slice(r0, r0 + nr), slice(c0, c0 + nc))

    phases = {}
    for a in range(min(s, kh)):
        for b in range(min(s, kw)):
            (ys, xs), (rs, cs) = image_part(a, b)
            phases[a, b] = np.zeros((cin, L + tail), dtype=x.dtype)
            grid(phases[a, b], cin)[:, :, rs, cs] = x.data[:, :, ys, xs]
    # Offset k = i*kw + j owns columns [k*Cin, (k+1)*Cin) of the (Cout, kh*kw*Cin)
    # weight matrix, so a run of consecutive offsets is one column slice of it,
    # and its input rows are their (Cin, B) slices stacked into a patch block.
    # Both constants come from timing the 12 conv shapes of the default
    # backbone and its ADON blocks (2-vCPU Xeon, OpenBLAS 0.3.31). A GEMM that
    # reduces only 3 or 4 deep runs far below the machine's rate: one 27-deep
    # im2col GEMM made the stem's forward 2x faster than nine 3-deep ones and
    # eight accumulating passes, and 36 deep did 2.5x for ADON's 4-channel
    # input. Deeper groups than 64 cost more in patch copies than they gained
    # in training (the 16-channel stride-2 conv slowed by a quarter at 576).
    # Blocks of 4096 columns keep a 64-deep float32 patch block at 1 MB and its
    # (Cout, B) product in cache: at one BLAS thread they beat whole-L GEMMs by
    # a fifth over all shapes, while blocks of 2048 or fewer lost at two threads
    # to per-call overhead. Each block starts at a multiple of 32 and L is one,
    # so every block length is too.
    kk = kh * kw
    per_group = min(-(-_GROUP_DEPTH // cin), kk)
    offsets = [((k // kw % s, k % kw % s), k // kw // s * ws + k % kw // s) for k in range(kk)]
    groups = [
        (slice(k * cin, min(k + per_group, kk) * cin), offsets[k : k + per_group])
        for k in range(0, kk, per_group)
    ]
    wmat = np.ascontiguousarray(weight.data.transpose(0, 2, 3, 1)).reshape(cout, kk * cin)
    bcols = min(L, _BLOCK_COLS)
    blocks = [(c0, min(bcols, L - c0)) for c0 in range(0, L, bcols)]

    def stacked(offs, c0, width, patch):
        """A group's (len(offs)*Cin, width) input rows for output columns [c0, c0 + width)."""
        if len(offs) == 1:  # a view, no copy
            ab, d = offs[0]
            return phases[ab][:, c0 + d : c0 + d + width]
        for k, (ab, d) in enumerate(offs):
            patch[k * cin : (k + 1) * cin, :width] = phases[ab][:, c0 + d : c0 + d + width]
        return patch[: len(offs) * cin, :width]

    patch = np.empty((per_group * cin, bcols), dtype=x.dtype)
    term = np.empty((cout, bcols), dtype=x.dtype)
    wide = np.empty((cout, L), dtype=x.dtype)
    for c0, width in blocks:
        acc = wide[:, c0 : c0 + width]
        for k, (wcols, offs) in enumerate(groups):
            cols = stacked(offs, c0, width, patch)
            np.matmul(wmat[:, wcols], cols, out=term[:, :width] if k else acc)
            if k:
                acc += term[:, :width]
    out = np.empty((n, cout, oh, ow), dtype=x.dtype)
    np.add(grid(wide, cout)[:, :, :oh, :ow], bias.data[:, None, None], out=out)
    # backward reads the phase buffers, not x: the tape keeps no conv input alive
    x_shape, x_needs_grad = x.shape, x.requires_grad

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3))
        gwide = np.zeros((cout, L), dtype=g.dtype)
        grid(gwide, cout)[:, :, :oh, :ow] = g
        patch = np.empty((per_group * cin, bcols), dtype=g.dtype)
        gwmat = np.empty_like(wmat)
        gwpart = np.empty((cout, per_group * cin), dtype=g.dtype)
        gbufs = gcol = None
        if x_needs_grad:  # an input image or a frozen map needs no gradient
            gbufs = {ab: np.zeros_like(buf) for ab, buf in phases.items()}
            gcol = np.empty_like(patch)
        for c0, width in blocks:
            gblk = gwide[:, c0 : c0 + width]
            for wcols, offs in groups:
                cols = stacked(offs, c0, width, patch)
                # each block's weight gradient reduces over its own columns, and
                # the blocks add up in order, whatever the BLAS thread count
                if c0 == 0:
                    np.matmul(gblk, cols.T, out=gwmat[:, wcols])
                else:
                    part = gwpart[:, : cols.shape[0]]
                    np.matmul(gblk, cols.T, out=part)
                    gwmat[:, wcols] += part
                if gbufs is not None:
                    gcols = gcol[: cols.shape[0], :width]
                    np.matmul(wmat[:, wcols].T, gblk, out=gcols)
                    for k, (ab, d) in enumerate(offs):
                        gbufs[ab][:, c0 + d : c0 + d + width] += gcols[k * cin : (k + 1) * cin]
        gx = None
        if gbufs is not None:
            gx = np.zeros(x_shape, dtype=g.dtype)
            for (a, b), gbuf in gbufs.items():
                (ys, xs), (rs, cs) = image_part(a, b)
                gx[:, :, ys, xs] = grid(gbuf, cin)[:, :, rs, cs]
        return gx, gwmat.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2), gb

    return _record(Tensor(out), (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# channel softmax


def channel_softmax(logits: Tensor) -> Tensor:
    """Per-pixel softmax over axis 1 of an (N,C,H,W) tensor, max-stabilized."""
    if logits.data.ndim != 4 or logits.shape[1] < 2:
        raise ShapeError("channel_softmax expects (N,C,H,W) with C >= 2")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return ((g - dot) * p,)

    return _record(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# bilinear resize (half-pixel centers, clamped borders)


def _interp_matrix(size: int, out_size: int, dtype) -> np.ndarray:
    """Dense (out_size, size) bilinear weights along one axis."""
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * (size / out_size) - 0.5
    src = np.clip(src, 0.0, size - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, size - 1)
    frac = src - lo
    mat = np.zeros((out_size, size), dtype=np.float64)
    rows = np.arange(out_size)
    np.add.at(mat, (rows, lo), 1.0 - frac)
    np.add.at(mat, (rows, hi), frac)  # taps coincide at a clamped border
    return mat.astype(dtype)


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    if out_h < 1 or out_w < 1:
        raise ShapeError("bilinear_resize: target dims must be >= 1")
    h, w = x.shape[2:]
    if (out_h, out_w) == (h, w):
        out = Tensor(x.data.copy())
        return _record(out, (x,), lambda g: (g,))
    rh = _interp_matrix(h, out_h, x.dtype)
    rw = _interp_matrix(w, out_w, x.dtype)
    out = Tensor(rh @ x.data @ rw.T)
    return _record(out, (x,), lambda g: (rh.T @ g @ rw,))


def resize_nearest(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize of the trailing two axes (labels, not differentiable)."""
    h, w = data.shape[-2:]
    ys = np.clip(np.floor((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.int64), 0, h - 1)
    xs = np.clip(np.floor((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.int64), 0, w - 1)
    return data[..., ys[:, None], xs[None, :]]


# ---------------------------------------------------------------------------
# loss

LOG_CLAMP = 1e-12


def pixel_cross_entropy(p: Tensor, y: np.ndarray, ignore_label: int | None = None) -> Tensor:
    """Mean over non-ignored pixels of -log p[y]. p: (N,C,H,W), y: (N,H,W) ints."""
    n, c, h, w = p.shape
    y = np.asarray(y)
    if y.shape != (n, h, w):
        raise ShapeError(f"pixel_cross_entropy: labels {y.shape} vs probs {p.shape}")
    valid = np.ones_like(y, dtype=bool) if ignore_label is None else (y != ignore_label)
    if np.any((y[valid] < 0) | (y[valid] >= c)):
        raise ShapeError("pixel_cross_entropy: label out of range")
    n_valid = int(valid.sum())
    shape, dtype = p.shape, p.dtype
    if n_valid == 0:
        # empty-mean convention: loss 0, no gradient
        out = Tensor(np.asarray(0.0, dtype=dtype))
        return _record(out, (p,), lambda g: (np.zeros(shape, dtype=dtype),))

    ys = np.where(valid, y, 0)[:, None]  # each pixel's labelled class, on the class axis
    picked = np.take_along_axis(p.data, ys, axis=1)[:, 0]
    clamped = np.maximum(picked, dtype.type(LOG_CLAMP))
    loss = -(np.log(clamped) * valid).sum(dtype=np.float64) / n_valid
    out = Tensor(np.asarray(loss, dtype=dtype))

    def bwd(g):
        gp = np.zeros(shape, dtype=dtype)
        coeff = np.where(valid & (picked >= LOG_CLAMP), -1.0 / (clamped * n_valid), 0.0)
        np.put_along_axis(gp, ys, (coeff * float(g)).astype(dtype)[:, None], axis=1)
        return (gp,)

    return _record(out, (p,), bwd)


# ---------------------------------------------------------------------------
# finite-difference gradient oracle


def grad_check(f, x: Tensor, eps: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Runs both sides in float64 regardless of x's dtype.
    """
    if not (0 < eps <= 1e-2):
        raise ValueError("grad_check: eps must lie in (0, 1e-2]")
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    with Graph() as g:
        loss = f(x64)
    if loss.data.size != 1:
        raise ShapeError("grad_check: f must return a scalar")
    g_ad = next((gr for t, gr in gradients(g, loss) if t is x64), np.zeros_like(x64.data))

    flat = x64.data.ravel()
    g_fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(Tensor(x64.data.astype(np.float64))).data)
        flat[i] = orig - eps
        f_minus = float(f(Tensor(x64.data.astype(np.float64))).data)
        flat[i] = orig
        g_fd[i] = (f_plus - f_minus) / (2.0 * eps)
    g_fd = g_fd.reshape(x64.data.shape)
    denom = np.maximum(1e-8, np.abs(g_ad) + np.abs(g_fd))
    return float(np.max(np.abs(g_ad - g_fd) / denom))


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class LrSchedule:
    """Polynomial decay: lr(t) = lr0 * (1 - t/total_steps)^power."""

    lr0: float
    total_steps: int
    power: float = 0.9

    def __post_init__(self):
        # lr0 = 0 is a schedule that never moves the weights
        if self.lr0 < 0 or self.total_steps <= 0 or self.power <= 0:
            raise ValueError("LrSchedule needs lr0 >= 0 and positive total_steps and power")


def poly_lr_at(sched: LrSchedule, step: int) -> float:
    step = min(max(step, 0), sched.total_steps)
    return sched.lr0 * (1.0 - step / sched.total_steps) ** sched.power


@dataclass
class SgdMomentum:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    params: list[Tensor]
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float, grads: list[np.ndarray]):
        """One update from `grads`, one gradient per parameter in `params` order."""
        if lr < 0:
            raise ValueError("lr must be >= 0")
        if len(grads) != len(self.params):  # checked before any parameter moves
            raise ValueError(f"step needs {len(self.params)} gradients, got {len(grads)}")
        for p, v, g in zip(self.params, self.velocity, grads):
            v *= p.data.dtype.type(self.momentum)
            v += g
            if self.weight_decay:
                v += p.data.dtype.type(self.weight_decay) * p.data
            p.data -= p.data.dtype.type(lr) * v

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqens import tensor as T
from seqens.tensor import Graph, GraphError, LrSchedule, SgdMomentum, Tensor, backward


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_example():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
    w = Tensor(np.array([[[[2.0]]]], dtype=np.float32))
    b = Tensor(np.array([1.0], dtype=np.float32))
    out = T.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data[0, 0], [[3.0, 5.0], [7.0, 9.0]])


def test_conv2d_zero_weight_gives_bias():
    x = Tensor(rand((2, 3, 5, 5)))
    w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
    b = Tensor(np.array([0.5, -1, 2, 0], dtype=np.float32))
    out = T.conv2d(x, w, b, padding=1)
    for c, bc in enumerate(b.data):
        assert np.all(out.data[:, c] == bc)


def test_conv2d_identity_kernel():
    x = Tensor(rand((1, 2, 4, 4)))
    w = np.zeros((2, 2, 1, 1), dtype=np.float32)
    w[0, 0] = w[1, 1] = 1.0
    out = T.conv2d(x, Tensor(w), Tensor(np.zeros(2, dtype=np.float32)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_shape_arithmetic_and_errors():
    x = Tensor(rand((1, 3, 9, 7)))
    w = Tensor(rand((5, 3, 3, 3), seed=1))
    b = Tensor(np.zeros(5, dtype=np.float32))
    assert T.conv2d(x, w, b, stride=2, padding=1).shape == (1, 5, 5, 4)
    with pytest.raises(T.ShapeError):
        T.conv2d(Tensor(rand((1, 2, 9, 7))), w, b)
    with pytest.raises(T.ShapeError):
        T.conv2d(x, Tensor(rand((5, 3, 2, 2))), b)


def test_conv2d_linearity():
    a, bcoef = 1.7, -0.6
    x = rand((1, 2, 6, 6), seed=3)
    y = rand((1, 2, 6, 6), seed=4)
    w = Tensor(rand((3, 2, 3, 3), seed=5))
    zero_b = Tensor(np.zeros(3, dtype=np.float32))
    lhs = T.conv2d(Tensor(a * x + bcoef * y), w, zero_b, padding=1).data
    rhs = a * T.conv2d(Tensor(x), w, zero_b, padding=1).data + bcoef * T.conv2d(
        Tensor(y), w, zero_b, padding=1
    ).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)


def conv_reference(x, w, b, stride, padding, g):
    """Output and the gradients (gx, gw, gb) of sum(g * conv), one output pixel at a time."""
    n, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, cout, oh, ow))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for k in range(n):
        for oy in range(oh):
            for ox in range(ow):
                rows = slice(oy * stride, oy * stride + kh)
                cols = slice(ox * stride, ox * stride + kw)
                patch = xp[k, :, rows, cols]
                for o in range(cout):
                    y[k, o, oy, ox] = np.sum(w[o] * patch) + b[o]
                    gw[o] += g[k, o, oy, ox] * patch
                    gxp[k, :, rows, cols] += g[k, o, oy, ox] * w[o]
    gx = gxp[:, :, padding : padding + h, padding : padding + wd]
    return y, gx, gw, g.sum(axis=(0, 2, 3))


# (9, 7): both padded sizes odd, so for stride 2 the odd-row and odd-column phases
# are one shorter; (8, 11): H + 2p - k is odd, not a multiple of stride 2
CONV_CASES = [
    pytest.param(stride, padding, kernel, hw, 2, id=f"{stride}-{padding}-{kernel}-hw{i}")
    for stride in (1, 2)
    for padding in (0, 1, 2)
    for kernel in (1, 3, 5)
    for i, hw in enumerate([(9, 7), (8, 11)])
]
# 3x3 kernels over 1, 3 or 4 channels stack all nine offsets into one GEMM,
# over 16 channels four at a time, over 32 two at a time, over 64 one at a time
CONV_CASES += [
    pytest.param(stride, 1, 3, (9, 7), cin, id=f"{stride}-1-3-hw0-cin{cin}")
    for stride in (1, 2)
    for cin in (1, 3, 4, 16, 32, 64)
]
CONV_CASES += [
    # 25 offsets over 4 channels: a group of 16 and a group of 9
    pytest.param(1, 2, 5, (8, 11), 4, id="1-2-5-hw1-cin4"),
    # L = 5312 and 5056 columns (3*42*42 and 3*41*41, rounded up to multiples
    # of 32): one full 4096-column block and a partial one
    pytest.param(1, 1, 3, (40, 40), 4, id="1-1-3-blocks-cin4"),
    pytest.param(2, 1, 3, (80, 80), 16, id="2-1-3-blocks-cin16"),
]


@pytest.mark.parametrize("stride, padding, kernel, hw, cin", CONV_CASES)
def test_conv2d_matches_direct_loop(stride, padding, kernel, hw, cin):
    rng = np.random.default_rng(stride * 100 + padding * 10 + kernel + hw[0])
    x = rng.normal(size=(3, cin, *hw))
    w = rng.normal(size=(4, cin, kernel, kernel))
    b = rng.normal(size=4)
    oh, ow = ((size + 2 * padding - kernel) // stride + 1 for size in hw)
    g = rng.normal(size=(3, 4, oh, ow))
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Graph() as graph:
        out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
        loss = T.sum_all(T.mul(out, Tensor(g)))
    backward(graph, loss)
    y, gx, gw, gb = conv_reference(x, w, b, stride, padding, g)
    assert out.dtype == np.float64
    x32, w32, b32 = (Tensor(a.astype(np.float32)) for a in (x, w, b))
    assert T.conv2d(x32, w32, b32, stride=stride, padding=padding).dtype == np.float32
    for got, want in ((out.data, y), (xt.grad, gx), (wt.grad, gw), (bt.grad, gb)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_conv2d_stride2_3x3_grad_check_input_and_weight():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 2, 7, 6)))
    w = Tensor(rng.normal(scale=0.5, size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(scale=0.1, size=3))
    # (7 + 2 - 3) // 2 + 1 = 4 rows, (6 + 2 - 3) // 2 + 1 = 3 columns
    proj = Tensor(rng.normal(size=(2, 3, 4, 3)))
    wrt_x = lambda t: T.sum_all(T.mul(T.conv2d(t, w, b, stride=2, padding=1), proj))
    wrt_w = lambda t: T.sum_all(T.mul(T.conv2d(x, t, b, stride=2, padding=1), proj))
    assert T.grad_check(wrt_x, x, 1e-3) < 1e-6
    assert T.grad_check(wrt_w, w, 1e-3) < 1e-6


# ---------------------------------------------------------------------------
# elementwise / structural


def test_relu_examples():
    np.testing.assert_array_equal(
        T.relu(Tensor(np.array([-1.0, 0.0, 2.0]))).data, [0.0, 0.0, 2.0]
    )
    x = np.abs(rand((7,)))
    np.testing.assert_array_equal(T.relu(Tensor(x)).data, x)
    assert np.all(T.relu(Tensor(-np.abs(rand((7,), seed=1)) - 0.1)).data == 0)


def test_affine_modulate():
    x = Tensor(rand((1, 2, 3, 3)))
    ones = Tensor(np.ones_like(x.data))
    zeros = Tensor(np.zeros_like(x.data))
    np.testing.assert_array_equal(T.affine_modulate(x, ones, zeros).data, x.data)
    out = T.affine_modulate(
        Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32)),
        Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32)),
        Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float32)),
    )
    assert out.data.item() == 7.0
    np.testing.assert_array_equal(
        T.affine_modulate(x, zeros, ones).data, np.ones_like(x.data)
    )
    with pytest.raises(T.ShapeError):
        T.affine_modulate(x, Tensor(rand((1, 2, 3, 4))), zeros)


def test_concat_channels():
    a = Tensor(rand((1, 3, 4, 4)))
    b = Tensor(rand((1, 2, 4, 4), seed=1))
    out = T.concat_channels([a, b])
    assert out.shape == (1, 5, 4, 4)
    np.testing.assert_array_equal(T.concat_channels([a]).data, a.data)
    assert not np.array_equal(out.data, T.concat_channels([b, a]).data[:, [3, 4, 0, 1, 2]])
    with pytest.raises(T.ShapeError):
        T.concat_channels([a, Tensor(rand((1, 2, 5, 4)))])


# ---------------------------------------------------------------------------
# channel softmax


def test_softmax_symmetry_and_closed_form():
    logits = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    np.testing.assert_allclose(T.channel_softmax(logits).data.ravel(), [0.5, 0.5])
    logits = Tensor(np.array([np.log(2.0), 0.0], dtype=np.float32).reshape(1, 2, 1, 1))
    np.testing.assert_allclose(
        T.channel_softmax(logits).data.ravel(), [2 / 3, 1 / 3], rtol=1e-6
    )


def test_softmax_shift_invariance():
    z = rand((2, 3, 4, 4), seed=7)
    p1 = T.channel_softmax(Tensor(z)).data
    p2 = T.channel_softmax(Tensor(z + 13.5)).data
    np.testing.assert_allclose(p1, p2, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
def test_softmax_is_probability_map(seed, c):
    z = np.random.default_rng(seed).normal(0, 5, size=(1, c, 3, 3)).astype(np.float32)
    p = T.channel_softmax(Tensor(z)).data
    assert np.all(p >= 0) and np.all(p <= 1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# bilinear resize


def test_resize_constant_and_identity():
    const = Tensor(np.full((1, 2, 5, 4), 3.25, dtype=np.float32))
    np.testing.assert_allclose(T.bilinear_resize(const, 9, 2).data, 3.25, rtol=1e-6)
    x = Tensor(rand((1, 3, 6, 6)))
    np.testing.assert_array_equal(T.bilinear_resize(x, 6, 6).data, x.data)


def _resize_reference(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Four-tap bilinear resize of one (H, W) map, pixel by pixel, in float64."""
    h, w = x.shape

    def taps(i, size, out_size):
        s = min(max((i + 0.5) * size / out_size - 0.5, 0.0), size - 1.0)
        lo = int(np.floor(s))
        return lo, min(lo + 1, size - 1), s - lo

    out = np.zeros((oh, ow))
    for i in range(oh):
        y0, y1, fy = taps(i, h, oh)
        for j in range(ow):
            x0, x1, fx = taps(j, w, ow)
            out[i, j] = (
                (1 - fy) * (1 - fx) * x[y0, x0]
                + (1 - fy) * fx * x[y0, x1]
                + fy * (1 - fx) * x[y1, x0]
                + fy * fx * x[y1, x1]
            )
    return out


@pytest.mark.parametrize(
    "h, w, oh, ow",
    [(4, 4, 9, 9), (9, 9, 4, 4), (5, 3, 2, 8), (2, 2, 1, 1), (4, 6, 1, 5)],
    ids=["up", "down", "non_square", "1x1", "1_row"],
)
def test_resize_half_pixel_example(h, w, oh, ow):
    x = np.random.default_rng(h * 100 + w).normal(size=(2, 3, h, w))
    ref = np.stack([[_resize_reference(m, oh, ow) for m in img] for img in x])
    out = T.bilinear_resize(Tensor(x), oh, ow).data  # x is float64
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    out32 = T.bilinear_resize(Tensor(x.astype(np.float32)), oh, ow).data
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32, ref, rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_one_hot_correct():
    y = np.zeros((1, 2, 2), dtype=np.int64)
    p = np.zeros((1, 3, 2, 2), dtype=np.float32)
    p[:, 0] = 1.0
    assert float(T.pixel_cross_entropy(Tensor(p), y).data) == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_uniform():
    y = np.random.default_rng(0).integers(0, 4, size=(1, 3, 3))
    p = np.full((1, 4, 3, 3), 0.25, dtype=np.float32)
    assert float(T.pixel_cross_entropy(Tensor(p), y).data) == pytest.approx(
        np.log(4.0), rel=1e-5
    )


def test_cross_entropy_all_ignored_and_errors():
    y = np.full((1, 2, 2), 255, dtype=np.int64)
    p = np.full((1, 4, 2, 2), 0.25, dtype=np.float32)
    assert float(T.pixel_cross_entropy(Tensor(p), y, ignore_label=255).data) == 0.0
    with pytest.raises(T.ShapeError):
        T.pixel_cross_entropy(Tensor(p), np.full((1, 2, 2), 9, dtype=np.int64))


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 4)), requires_grad=True)
    with Graph() as g:
        loss = T.sum_all(x)
    backward(g, loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_backward_relu_subgradient():
    x = Tensor(np.array([2.0, -3.0, 0.0], dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = T.sum_all(T.relu(x))
    backward(g, loss)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_backward_fanout_accumulates():
    x = Tensor(np.array([1.5], dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = T.sum_all(T.add(x, x))
    backward(g, loss)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_consumed_graph_rejected():
    x = Tensor(rand((2,)), requires_grad=True)
    with Graph() as g:
        loss = T.sum_all(x)
    backward(g, loss)
    with pytest.raises(GraphError):
        backward(g, loss)


def test_backward_requires_scalar_from_graph():
    x = Tensor(rand((2,)), requires_grad=True)
    with Graph() as g:
        out = T.relu(x)
    with pytest.raises(GraphError):
        backward(g, out)
    other = Tensor(np.array(1.0))
    with pytest.raises(GraphError):
        backward(g, other)


def test_an_op_on_another_thread_is_not_recorded_on_this_threads_graph():
    x = Tensor(rand((2, 3)), requires_grad=True)
    with Graph() as g:
        other = threading.Thread(target=T.relu, args=(x,))
        other.start()
        other.join(timeout=60)
        assert not other.is_alive() and g.nodes == []
        y = T.relu(x)
    assert [n.slot for n in g.nodes] == [y.slot]


# ---------------------------------------------------------------------------
# grad_check oracle


def test_grad_check_quadratic_exact():
    def f(t):
        return T.mul_scalar(T.sum_all(T.mul(t, t)), 0.5)

    assert T.grad_check(f, Tensor(rand((5,))), 1e-3) < 1e-8


def test_grad_check_composite_network():
    w = Tensor(rand((3, 2, 3, 3), seed=1, scale=0.5))
    b = Tensor(rand((3,), seed=2, scale=0.1))
    y = np.random.default_rng(3).integers(0, 3, size=(1, 4, 4))

    def f(t):
        wt = Tensor(w.data.astype(t.dtype))
        bt = Tensor(b.data.astype(t.dtype))
        probs = T.channel_softmax(T.relu(T.conv2d(t, wt, bt, padding=1)))
        return T.pixel_cross_entropy(probs, y)

    assert T.grad_check(f, Tensor(rand((1, 2, 4, 4), seed=4)), 1e-3) < 1e-3


def test_grad_check_negative_control():
    # a deliberately wrong adjoint must be caught
    def f(t):
        out = T.mul(t, t)  # d/dt = 2t
        return T.sum_all(out)

    x = Tensor(rand((4,), seed=9) + 2.0)
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    with Graph() as g:
        loss = f(x64)
    backward(g, loss)
    corrupted = x64.grad * 3.0  # corrupt the adjoint
    fd = np.array(
        [
            (
                float(f(Tensor(x64.data + np.eye(4)[i] * 1e-3)).data)
                - float(f(Tensor(x64.data - np.eye(4)[i] * 1e-3)).data)
            )
            / 2e-3
            for i in range(4)
        ]
    )
    rel = np.abs(corrupted - fd) / np.maximum(1e-8, np.abs(corrupted) + np.abs(fd))
    assert rel.max() > 1e-2


def test_grad_check_rejects_bad_eps_and_nonscalar():
    with pytest.raises(ValueError):
        T.grad_check(lambda t: T.sum_all(t), Tensor(rand((2,))), eps=0.5)
    with pytest.raises(T.ShapeError):
        T.grad_check(lambda t: T.relu(t), Tensor(rand((2,))))


# ---------------------------------------------------------------------------
# optimizer / schedule


def test_sgd_plain_step():
    w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = SgdMomentum([w], momentum=0.0, weight_decay=0.0)
    opt.step(0.1, [np.array([2.0], dtype=np.float32)])
    np.testing.assert_allclose(w.data, [0.8])


def test_sgd_zero_lr_updates_velocity_only():
    w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = SgdMomentum([w], momentum=0.9)
    opt.step(0.0, [np.array([2.0], dtype=np.float32)])
    np.testing.assert_allclose(w.data, [1.0])
    np.testing.assert_allclose(opt.velocity[0], [2.0])


def test_sgd_fixed_point():
    w = Tensor(np.array([0.7], dtype=np.float32), requires_grad=True)
    opt = SgdMomentum([w], momentum=0.9, weight_decay=0.0)
    opt.step(0.5, [np.zeros(1, dtype=np.float32)])
    np.testing.assert_allclose(w.data, [0.7])


def test_sgd_step_with_a_gradient_missing_moves_nothing():
    ws = [Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True) for _ in range(3)]
    opt = SgdMomentum(ws, momentum=0.9, weight_decay=1e-3)
    opt.step(0.1, [np.array([0.5, 0.25], dtype=np.float32)] * 3)  # a non-zero velocity to keep
    before = [(w.data.copy(), v.copy()) for w, v in zip(ws, opt.velocity)]
    with pytest.raises(ValueError, match="3 gradients, got 2"):
        opt.step(0.1, [np.ones(2, dtype=np.float32)] * 2)
    for w, v, (data, vel) in zip(ws, opt.velocity, before):
        np.testing.assert_array_equal(w.data, data)
        np.testing.assert_array_equal(v, vel)


def test_poly_lr():
    sched = LrSchedule(lr0=0.01, total_steps=100, power=0.9)
    assert T.poly_lr_at(sched, 0) == pytest.approx(0.01)
    assert T.poly_lr_at(sched, 100) == 0.0
    assert T.poly_lr_at(sched, 50) == pytest.approx(0.01 * 0.5**0.9)
    assert T.poly_lr_at(sched, -5) == pytest.approx(0.01)  # clamped
    assert T.poly_lr_at(sched, 1000) == 0.0


def test_poly_lr_monotone():
    sched = LrSchedule(lr0=0.05, total_steps=37, power=1.7)
    values = [T.poly_lr_at(sched, t) for t in range(38)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# per-op finite-difference sweep (randomized)


@pytest.mark.parametrize("trial", range(5))
def test_gradcheck_each_op(trial):
    rng = np.random.default_rng(100 + trial)
    y = rng.integers(0, 3, size=(1, 3, 3))

    w = Tensor(rng.normal(0, 0.5, size=(3, 2, 3, 3)))
    b = Tensor(rng.normal(0, 0.1, size=3))
    proj3 = Tensor(rng.normal(size=(1, 3, 3, 3)))
    proj2 = Tensor(rng.normal(size=(1, 2, 3, 3)))
    proj4 = Tensor(rng.normal(size=(1, 4, 3, 3)))
    proj57 = Tensor(rng.normal(size=(1, 2, 5, 7)))
    sigma = Tensor(rng.normal(size=(1, 2, 3, 3)))
    beta = Tensor(rng.normal(size=(1, 2, 3, 3)))

    cases = {
        "conv2d": lambda t: T.sum_all(
            T.mul(T.conv2d(t, w, b, stride=1, padding=1), proj3)
        ),
        "relu": lambda t: T.sum_all(T.mul(T.relu(t), proj2)),
        "softmax": lambda t: T.sum_all(T.mul(T.channel_softmax(t), proj2)),
        "resize": lambda t: T.sum_all(T.mul(T.bilinear_resize(t, 5, 7), proj57)),
        "modulate": lambda t: T.sum_all(T.affine_modulate(t, sigma, beta)),
        "concat": lambda t: T.sum_all(T.mul(T.concat_channels([t, t]), proj4)),
        "xent": lambda t: T.pixel_cross_entropy(T.channel_softmax(t), y),
    }
    for name, f in cases.items():
        shape = (1, 2, 3, 3) if name != "xent" else (1, 3, 3, 3)
        x = Tensor(rng.normal(0, 1, size=shape))
        err = T.grad_check(f, x, 1e-3)
        assert err < 1e-3, f"{name}: {err}"


# ---------------------------------------------------------------------------
# BLAS thread count


CONV_GRADIENT_DIGEST = """
import hashlib
import numpy as np
from seqens import tensor as T

rng = np.random.default_rng(3)
h = hashlib.sha256()
# odd sizes: the einsum conv's weight gradients differed at 1 and 2 threads here;
# the third shape's 9216 columns span three column blocks, the last one partial
for shape, wshape, stride in [
    ((8, 32, 17, 19), (32, 32, 3, 3), 1),
    ((8, 16, 37, 35), (32, 16, 3, 3), 2),
    ((4, 4, 45, 47), (32, 4, 3, 3), 1),
]:
    x = T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(size=wshape).astype(np.float32), requires_grad=True)
    b = T.Tensor(np.zeros(wshape[0], np.float32), requires_grad=True)
    with T.Graph() as graph:
        y = T.conv2d(x, w, b, stride=stride, padding=1)
        loss = T.sum_all(T.mul(y, y))
    T.backward(graph, loss)
    for a in (x.grad, w.grad, b.grad):
        h.update(a.tobytes())
print(h.hexdigest())
"""


def test_conv2d_gradients_do_not_depend_on_blas_threads():
    import seqens

    src = os.path.dirname(os.path.dirname(seqens.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-c", CONV_GRADIENT_DIGEST], env=env, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        digests.add(res.stdout.strip())
    assert len(digests) == 1

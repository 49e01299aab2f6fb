import weakref

import numpy as np
import pytest

from seqens import tensor as T
from seqens.nets import (
    AdonBlock,
    BackboneConfig,
    ConfigError,
    adon_forward,
    build_generation,
    flatten_parameters,
    forward_logits,
    predict,
)
from seqens.tensor import Tensor


def rand_image(n=1, h=16, w=16, seed=0):
    return np.random.default_rng(seed).uniform(size=(n, 3, h, w)).astype(np.float32)


def rand_probs(n=1, c=4, h=16, w=16, seed=1):
    p = np.random.default_rng(seed).uniform(0.01, 1, size=(n, c, h, w)).astype(np.float32)
    return p / p.sum(axis=1, keepdims=True)


ADON_CFG = BackboneConfig(
    layer_channels=(8, 16, 32),
    adon_latent=8,
    conditioning="adon",
    adon_placements=("early", "middle"),
)


def conv_count(cout, cin, k):
    return cout * cin * k * k + cout


def parameter_count(g):
    return sum(t.data.size for t in g.parameters.values())


def test_parameter_count_closed_form():
    g = build_generation(BackboneConfig(), seed=7)
    expected = (
        conv_count(16, 3, 3)
        + conv_count(16, 16, 3)
        + conv_count(32, 16, 3)
        + conv_count(64, 32, 3)
        + conv_count(4, 64, 1)
    )
    assert parameter_count(g) == expected


def test_adon_parameter_count_closed_form():
    g = build_generation(ADON_CFG, seed=7, index=1)
    backbone = (
        conv_count(8, 3, 3)
        + conv_count(8, 8, 3)
        + conv_count(16, 8, 3)
        + conv_count(32, 16, 3)
        + conv_count(4, 32, 1)
    )
    block = lambda d: (
        conv_count(8, 4, 3) + conv_count(8, 8, 3) + conv_count(d, 8, 1) + conv_count(d, 8, 1)
    )
    assert parameter_count(g) == backbone + block(8) + block(16)


def test_build_determinism():
    a = build_generation(BackboneConfig(), seed=3)
    b = build_generation(BackboneConfig(), seed=3)
    np.testing.assert_array_equal(flatten_parameters(a), flatten_parameters(b))
    c = build_generation(BackboneConfig(), seed=4)
    assert not np.array_equal(flatten_parameters(a), flatten_parameters(c))


def test_unconditioned_has_no_blocks():
    g = build_generation(BackboneConfig(), seed=0)
    assert not g.adon_blocks
    assert not any(name.startswith("adon") for name in g.parameters)


def test_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(conditioning="adon")  # no placements
    with pytest.raises(ConfigError):
        BackboneConfig(adon_placements=("early",))  # placements without adon
    with pytest.raises(ConfigError):
        BackboneConfig(conditioning="adon", adon_placements=("nowhere",))
    with pytest.raises(ConfigError):
        build_generation(BackboneConfig(conditioning="adon", adon_placements=("early",)), 0, 0)
    with pytest.raises(ConfigError):
        build_generation(BackboneConfig(), 0, index=1)


def test_zero_init_adon_identity_bits():
    g = build_generation(ADON_CFG, seed=5, index=1)
    for trial in range(5):
        img = Tensor(rand_image(seed=trial))
        p = Tensor(rand_probs(seed=100 + trial))
        conditioned = forward_logits(g, img, p)
        bypassed = forward_logits(g, img, p, bypass_conditioning=True)
        np.testing.assert_array_equal(conditioned.data, bypassed.data)


def test_adon_forward_identity_and_uniform_input():
    g = build_generation(ADON_CFG, seed=5, index=1)
    block = g.adon_blocks["early"]
    x = Tensor(rand_image(seed=2)[:, :1].repeat(block.depth, axis=1))
    p = Tensor(rand_probs(seed=3, h=16, w=16))
    np.testing.assert_array_equal(adon_forward(block, x, p).data, x.data)

    # after perturbing the scale head, a spatially uniform map yields uniform sigma
    block.params["fscale.weight"].data += 0.05
    uniform = np.full((1, 4, 16, 16), 0.25, dtype=np.float32)
    x1 = Tensor(np.ones((1, block.depth, 16, 16), dtype=np.float32))
    out = adon_forward(block, x1, Tensor(uniform)).data
    interior = out[:, :, 2:-2, 2:-2]  # two 3x3 convs with zero padding: margin 2
    assert np.allclose(interior, interior[:, :, :1, :1], atol=1e-6)


def test_adon_gradients_pass_gradcheck():
    g = build_generation(
        BackboneConfig(
            layer_channels=(4, 6, 8),
            adon_latent=4,
            conditioning="adon",
            adon_placements=("early", "middle"),
        ),
        seed=2,
        index=1,
    )
    img = rand_image(h=8, w=8, seed=4)
    probs = rand_probs(h=8, w=8, seed=5)
    labels = np.random.default_rng(6).integers(0, 4, size=(1, 8, 8))
    for name in ("adon_early.fscale.weight", "adon_middle.fbias.weight"):
        param = g.parameters[name]
        prefix, short = name.split(".", 1)
        block_key = prefix.removeprefix("adon_")

        def f(t, name=name, short=short, block_key=block_key, param=param):
            g.parameters[name] = t
            g.adon_blocks[block_key].params[short] = t
            try:
                logits = forward_logits(g, Tensor(img.astype(t.dtype)), Tensor(probs.astype(t.dtype)))
                return T.pixel_cross_entropy(T.channel_softmax(logits), labels)
            finally:
                g.parameters[name] = param
                g.adon_blocks[block_key].params[short] = param

        assert T.grad_check(f, param, 1e-3) < 1e-3


def test_the_tape_keeps_no_array_that_no_backward_reads(monkeypatch):
    g = build_generation(
        BackboneConfig(
            layer_channels=(4, 6, 8),
            adon_latent=4,
            conditioning="adon",
            adon_placements=("early", "middle", "late"),
        ),
        seed=3,
        index=1,
    )
    fbias = {id(b.params["fbias.weight"]) for b in g.adon_blocks.values()}
    watched = {"pre-ReLU conv output": [], "logits": [], "fbias output": []}
    relu, conv2d, softmax = T.relu, T.conv2d, T.channel_softmax

    def watching_relu(x):
        watched["pre-ReLU conv output"].append(weakref.ref(x.data))
        return relu(x)

    def watching_conv2d(x, weight, bias, **kwargs):
        out = conv2d(x, weight, bias, **kwargs)
        if id(weight) in fbias:
            watched["fbias output"].append(weakref.ref(out.data))
        return out

    def watching_softmax(logits):
        watched["logits"].append(weakref.ref(logits.data))
        return softmax(logits)

    monkeypatch.setattr(T, "relu", watching_relu)
    monkeypatch.setattr(T, "conv2d", watching_conv2d)
    monkeypatch.setattr(T, "channel_softmax", watching_softmax)
    labels = np.random.default_rng(6).integers(0, 4, size=(2, 16, 16)).astype(np.uint8)
    with T.Graph() as graph:
        probs = T.channel_softmax(forward_logits(g, Tensor(rand_image(n=2)), Tensor(rand_probs(n=2))))
        loss = T.pixel_cross_entropy(probs, labels, 255)
    del probs
    for what, refs in watched.items():
        assert refs and all(r() is None for r in refs), f"the tape keeps a {what} alive"
    grads = T.gradients(graph, loss)
    assert sorted(id(t) for t, _ in grads) == sorted(id(t) for t in g.trainable())
    for t, gr in grads:
        assert gr.shape == t.shape and gr.dtype == np.float32 and np.isfinite(gr).all()


def test_predict_contracts():
    g0 = build_generation(BackboneConfig(), seed=1)
    img = rand_image(n=2, h=32, w=32)
    bundle = predict(g0, img)
    np.testing.assert_allclose(bundle.probs.sum(axis=1), 1.0, atol=1e-6)
    assert bundle.probs.shape == bundle.logits.shape == (2, 4, 32, 32)
    with pytest.raises(T.ShapeError):
        predict(g0, img, rand_probs(n=2, h=32, w=32))

    g1 = build_generation(ADON_CFG, seed=1, index=1)
    with pytest.raises(T.ShapeError):
        predict(g1, img)  # missing conditioning


def test_predict_output_resolution_all_modes():
    img = rand_image(n=1, h=24, w=16, seed=8)
    p = rand_probs(n=1, h=24, w=16, seed=9)
    for mode in ("none", "adon", "early_fusion", "late_fusion", "fixed_embedding"):
        placements = ("late",) if mode in ("adon", "fixed_embedding") else ()
        cfg = BackboneConfig(
            layer_channels=(4, 6, 8),
            adon_latent=4,
            conditioning=mode,
            adon_placements=placements,
        )
        idx = 0 if mode in ("none", "fixed_embedding") else 1
        g = build_generation(cfg, seed=3, index=idx)
        bundle = predict(g, img, None if mode in ("none", "fixed_embedding") else p)
        assert bundle.probs.shape == (1, 4, 24, 16)


def test_conditioning_sensitivity_after_update():
    g = build_generation(ADON_CFG, seed=6, index=1)
    g.parameters["adon_early.fscale.weight"].data += 0.1
    img = Tensor(rand_image(seed=10))
    pa = Tensor(rand_probs(seed=11))
    pb = Tensor(rand_probs(seed=12))
    la = forward_logits(g, img, pa).data
    lb = forward_logits(g, img, pb).data
    assert not np.array_equal(la, lb)


def test_fixed_embedding_ignores_p_prev_and_persists():
    cfg = BackboneConfig(
        layer_channels=(4, 6, 8),
        adon_latent=4,
        conditioning="fixed_embedding",
        adon_placements=("middle",),
    )
    g = build_generation(cfg, seed=9, index=0)
    assert g.fixed_embedding is not None
    assert "fixed_embedding" in g.parameters
    assert not g.parameters["fixed_embedding"].requires_grad
    img = rand_image(seed=13)
    a = predict(g, img)
    b = predict(g, img, rand_probs(seed=14))  # ignored
    np.testing.assert_array_equal(a.logits, b.logits)


def test_fixed_embedding_predicts_at_any_resolution():
    cfg = BackboneConfig(
        layer_channels=(4, 6, 8),
        adon_latent=4,
        conditioning="fixed_embedding",
        adon_placements=("early", "late"),
    )
    g = build_generation(cfg, seed=9, index=0)
    emb = g.fixed_embedding.data
    assert emb.shape == (cfg.num_classes,)
    assert float(emb.sum()) == pytest.approx(1.0, rel=1e-6)
    for h, w in ((16, 16), (24, 32)):
        bundle = predict(g, rand_image(n=2, h=h, w=w, seed=h))
        assert bundle.probs.shape == (2, cfg.num_classes, h, w)
        assert np.all(np.isfinite(bundle.logits))


def test_flatten_parameters_stable():
    g = build_generation(BackboneConfig(), seed=2)
    v1 = flatten_parameters(g)
    v2 = flatten_parameters(g)
    np.testing.assert_array_equal(v1, v2)
    assert v1.size == parameter_count(g)
    names = [n for n, _ in g.named_parameters()]
    assert names == sorted(names)

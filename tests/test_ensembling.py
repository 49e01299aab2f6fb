import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqens.data import DatasetSpec, _batched_probs, generate_dataset
from seqens.ensembling import (
    Chain,
    CombineStrategy,
    Forest,
    chain_predict,
    chain_provider,
    combine,
    forest_predict,
)
from seqens.nets import BackboneConfig, build_generation, flatten_parameters, predict
from seqens.training import AugmentConfig, TrainConfig, train_generation

SMALL = BackboneConfig(layer_channels=(4, 6, 8))
SMALL_ADON = BackboneConfig(
    layer_channels=(4, 6, 8),
    adon_latent=4,
    conditioning="adon",
    adon_placements=("middle",),
)


def rand_maps(m, c=3, h=4, w=4, seed=0, n=1):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(m, n, c, h, w))
    return list((raw / raw.sum(axis=2, keepdims=True)).astype(np.float32))


def assert_valid(p):
    assert np.all(p >= 0) and np.all(p <= 1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# combine


def test_uniform_hand_case():
    a = np.array([0.8, 0.2], dtype=np.float32).reshape(1, 2, 1, 1)
    b = np.array([0.6, 0.4], dtype=np.float32).reshape(1, 2, 1, 1)
    out = combine([a, b], CombineStrategy("uniform"))
    np.testing.assert_allclose(out.ravel(), [0.7, 0.3], atol=1e-7)


def test_singleton_identity_all_strategies():
    (m,) = rand_maps(1, seed=1)
    for kind in ("uniform", "confidence_weighted", "median"):
        np.testing.assert_allclose(combine([m], CombineStrategy(kind)), m, atol=1e-7)
    v = combine([m], CombineStrategy("vote"))
    np.testing.assert_array_equal(np.argmax(v, axis=1), np.argmax(m, axis=1))
    assert set(np.unique(v)) <= {0.0, 1.0}


def test_median_sort_and_pick_oracle():
    maps = rand_maps(5, seed=2)
    out = combine(maps, CombineStrategy("median"))
    stack = np.stack(maps)
    for n in range(stack.shape[1]):
        for i in range(stack.shape[3]):
            for j in range(stack.shape[4]):
                picked = [sorted(stack[:, n, c, i, j])[2] for c in range(stack.shape[2])]
                for c in range(stack.shape[2]):
                    assert out[n, c, i, j] == pytest.approx(picked[c] / sum(picked), abs=1e-7)


def test_median_three_value_hand_case():
    maps = [np.full((1, 2, 1, 1), v, dtype=np.float32) for v in (0.2, 0.5, 0.9)]
    out = combine(maps, CombineStrategy("median"))
    assert out.ravel()[0] == pytest.approx(0.5)  # medians (0.5, 0.5) already sum to one
    assert_valid(out)


def test_confidence_weighted_matches_manual():
    maps = rand_maps(3, seed=3)
    out = combine(maps, CombineStrategy("confidence_weighted"))
    stack = np.stack(maps).astype(np.float64)
    conf = stack.max(axis=2, keepdims=True)
    manual = (conf / conf.sum(axis=0) * stack).sum(axis=0)
    np.testing.assert_allclose(out, manual, atol=1e-7)
    assert_valid(out)


def test_confidence_weighted_equal_confidence_reduces_to_uniform():
    a = np.array([0.6, 0.4], dtype=np.float32).reshape(1, 2, 1, 1)
    b = np.array([0.4, 0.6], dtype=np.float32).reshape(1, 2, 1, 1)
    np.testing.assert_allclose(
        combine([a, b], CombineStrategy("confidence_weighted")),
        combine([a, b], CombineStrategy("uniform")),
        atol=1e-7,
    )


def test_vote_modal_and_tie_breaks():
    def onehotish(c, n=3):
        v = np.full(n, 0.1, dtype=np.float32)
        v[c] = 0.8
        return v.reshape(1, n, 1, 1)

    out = combine([onehotish(2), onehotish(2), onehotish(0)], CombineStrategy("vote"))
    assert np.argmax(out, axis=1).item() == 2
    # 1-1-1 three-way tie goes to the lowest class index
    out = combine([onehotish(2), onehotish(1), onehotish(0)], CombineStrategy("vote"))
    assert np.argmax(out, axis=1).item() == 0
    assert_valid(out)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.sampled_from(list(range(4))))
def test_combine_valid_and_permutation_invariant(seed, m, kind_i):
    kind = ("uniform", "confidence_weighted", "median", "vote")[kind_i]
    maps = rand_maps(m, seed=seed, n=3)
    strategy = CombineStrategy(kind)
    out = combine(maps, strategy)
    assert_valid(out)
    # a batch combines to the concatenation of its images' combines, bit for bit
    per_image = [combine([mp[i : i + 1] for mp in maps], strategy) for i in range(3)]
    assert np.array_equal(out, np.concatenate(per_image))
    if kind != "confidence_weighted":  # weighted is also invariant; tested separately
        perm = np.random.default_rng(seed).permutation(m)
        np.testing.assert_allclose(out, combine([maps[i] for i in perm], strategy), atol=1e-7)


def test_confidence_weighted_permutation_invariant():
    maps = rand_maps(4, seed=9)
    strategy = CombineStrategy("confidence_weighted")
    np.testing.assert_allclose(
        combine(maps, strategy), combine(maps[::-1], strategy), atol=1e-7
    )


def test_uniform_of_copies_preserves_argmax():
    (m,) = rand_maps(1, seed=4)
    out = combine([m, m, m], CombineStrategy("uniform"))
    np.testing.assert_array_equal(np.argmax(out, axis=1), np.argmax(m, axis=1))


def test_combine_errors():
    with pytest.raises(ValueError):
        combine([], CombineStrategy("uniform"))
    a, b = rand_maps(2, seed=5)
    with pytest.raises(ValueError):
        combine([a, b[:, :, :2]], CombineStrategy("uniform"))
    with pytest.raises(ValueError):
        CombineStrategy("geometric")


# ---------------------------------------------------------------------------
# chains and forests


def test_chain_validation():
    g0 = build_generation(SMALL, seed=0)
    g1 = build_generation(SMALL_ADON, seed=1, index=1)
    Chain([g0, g1])
    with pytest.raises(ValueError):
        Chain([])
    with pytest.raises(ValueError):
        Chain([g1, g1])  # conditioned head
    with pytest.raises(ValueError):
        Chain([g0, g0])  # unconditioned non-head
    with pytest.raises(ValueError):
        Chain([g0, g1], self_loops=-1)
    with pytest.raises(ValueError):
        Forest([])
    other = build_generation(BackboneConfig(layer_channels=(4, 6, 8), num_classes=3), seed=2)
    with pytest.raises(ValueError):
        Forest([Chain([g0]), Chain([other])])


def _image_batch(n=2, hw=16, seed=0):
    return np.random.default_rng(seed).uniform(size=(n, 3, hw, hw)).astype(np.float32)


def test_chain_predict_bundle_counts_and_flow():
    g0 = build_generation(SMALL, seed=0)
    g1 = build_generation(SMALL_ADON, seed=1, index=1)
    g1.parameters["adon_middle.fscale.weight"].data += 0.1  # break identity
    img = _image_batch()
    bundles = chain_predict(Chain([g0, g1]), img)
    assert len(bundles) == 2
    np.testing.assert_array_equal(bundles[0].probs, predict(g0, img).probs)
    np.testing.assert_array_equal(
        bundles[1].probs, predict(g1, img, bundles[0].probs).probs
    )


def test_self_loops_counts_and_s0_bit_identity():
    g0 = build_generation(SMALL, seed=0)
    g1 = build_generation(SMALL_ADON, seed=1, index=1)
    g1.parameters["adon_middle.fbias.weight"].data += 0.1
    img = _image_batch(seed=3)
    plain = chain_predict(Chain([g0, g1], self_loops=0), img)
    looped = chain_predict(Chain([g0, g1], self_loops=3), img)
    assert len(plain) == 2 and len(looped) == 5
    for a, b in zip(plain, looped):
        np.testing.assert_array_equal(a.probs, b.probs)
    # each loop feeds the previous output back in
    np.testing.assert_array_equal(
        looped[2].probs, predict(g1, img, looped[1].probs).probs
    )
    with pytest.raises(ValueError, match="self-refinement"):
        Chain([g0], self_loops=1)  # refused when built, before any forward


def test_forest_predict_matches_manual_combination():
    c1 = Chain([build_generation(SMALL, seed=0)])
    c2 = Chain([build_generation(SMALL, seed=1)])
    img = _image_batch(seed=4)
    probs = forest_predict(Forest([c1, c2]), img)
    manual = combine(
        [chain_predict(c, img)[-1].probs for c in (c1, c2)], CombineStrategy("uniform")
    )
    np.testing.assert_allclose(probs, manual, atol=1e-7)


# ---------------------------------------------------------------------------
# chain training and batched inference


def test_chain_provider_runs_frozen_prefix():
    g0 = build_generation(SMALL, seed=5)
    g1 = build_generation(SMALL_ADON, seed=6, index=1)
    g1.parameters["adon_middle.fbias.weight"].data += 0.1  # break identity
    img = _image_batch(seed=6)
    prefix = [g0]
    provider = chain_provider(prefix)
    prefix.append(g1)  # the chain was fixed when the provider was made
    np.testing.assert_array_equal(provider(img), predict(g0, img).probs)
    with pytest.raises(ValueError, match="chain head"):
        chain_provider([g1])

    # training G1 on the provider leaves every G0 parameter bit-identical
    data = generate_dataset(DatasetSpec(count=8, height=16, width=16, seed=13))
    before = flatten_parameters(g0)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=2, augment=AugmentConfig(crop=(16, 16)))
    train_generation(build_generation(SMALL_ADON, seed=2, index=1), data[:6], data[6:], cfg, provider)
    np.testing.assert_array_equal(flatten_parameters(g0), before)


def test_batched_probs_matches_one_whole_split_forward():
    # 21 images: one full batch of 16, then a partial batch of 5
    data = generate_dataset(DatasetSpec(count=21, height=16, width=16, seed=17))
    images = np.stack([s.image for s in data])
    g0 = build_generation(SMALL, seed=7)
    g1 = build_generation(SMALL_ADON, seed=8, index=1)
    g1.parameters["adon_middle.fbias.weight"].data += 0.1
    for fn in (lambda im: predict(g0, im).probs, chain_provider([g0, g1])):
        batched = _batched_probs(fn, data)
        assert batched.shape == (21, 4, 16, 16)
        np.testing.assert_array_equal(batched, fn(images))


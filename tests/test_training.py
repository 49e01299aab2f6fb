import threading

import numpy as np
import pytest

from seqens import data as D
from seqens import tensor as T
from seqens.data import DatasetSpec, checkpoint_from_generation, generate_dataset, save_checkpoint
from seqens.ensembling import chain_provider
from seqens.nets import (
    BACKBONE_PARAM_NAMES,
    BackboneConfig,
    build_generation,
    flatten_parameters,
    forward_logits,
)
from seqens.tensor import Graph, Tensor, backward
from seqens.training import (
    AugmentConfig,
    NonFiniteError,
    TrainConfig,
    _shard_gradients,
    augment_sample,
    evaluate_miou,
    train_generation,
)

SMALL = BackboneConfig(layer_channels=(4, 6, 8))
SMALL_ADON = BackboneConfig(
    layer_channels=(4, 6, 8),
    adon_latent=4,
    conditioning="adon",
    adon_placements=("middle",),
)


def tiny_data(n=6, hw=16, seed=0):
    spec = DatasetSpec(count=n, height=hw, width=hw, seed=seed)
    return generate_dataset(spec)


def tiny_cfg(**kw):
    kw.setdefault("epochs", 1)
    kw.setdefault("batch_size", 4)
    kw.setdefault("augment", AugmentConfig(crop=(16, 16)))
    return TrainConfig(**kw)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_identity():
    s = tiny_data(1)[0]
    params = AugmentConfig(flip_prob=0.0, resize_range=(1.0, 1.0), crop=(16, 16))
    img, lab = augment_sample(s.image, s.label, params, np.random.default_rng(0))
    np.testing.assert_array_equal(img, s.image)
    np.testing.assert_array_equal(lab, s.label)


def test_augment_forced_flip_is_involution():
    s = tiny_data(1, seed=1)[0]
    params = AugmentConfig(flip_prob=1.0, resize_range=(1.0, 1.0), crop=(16, 16))
    once = augment_sample(s.image, s.label, params, np.random.default_rng(0))
    twice = augment_sample(once[0], once[1], params, np.random.default_rng(0))
    np.testing.assert_array_equal(twice[0], s.image)
    np.testing.assert_array_equal(twice[1], s.label)
    assert not np.array_equal(once[1], s.label) or np.array_equal(s.label, s.label[:, ::-1])


def test_augment_preserves_label_palette():
    rng = np.random.default_rng(2)
    for s in tiny_data(4, seed=3):
        img, lab = augment_sample(s.image, s.label, AugmentConfig(crop=(16, 16)), rng)
        assert img.shape == (3, 16, 16) and lab.shape == (16, 16)
        allowed = set(np.unique(s.label)) | {255}
        assert set(np.unique(lab)) <= allowed


def test_augment_pads_with_ignore_label():
    s = tiny_data(1, seed=4)[0]
    # forced strong downsize then crop back to full size: padding must appear
    params = AugmentConfig(flip_prob=0.0, resize_range=(0.5, 0.5), crop=(16, 16))
    _, lab = augment_sample(s.image, s.label, params, np.random.default_rng(0))
    assert (lab == 255).sum() > 0


def test_augment_rejects_bad_resize_range():
    with pytest.raises(ValueError):
        AugmentConfig(resize_range=(2.0, 0.5))
    with pytest.raises(ValueError):
        AugmentConfig(resize_range=(0.0, 1.0))


# ---------------------------------------------------------------------------
# weights and warm starts


def test_warmstart_copies_backbone_keeps_own_head_and_blocks(tmp_path):
    data = tiny_data(seed=1)
    base = build_generation(SMALL, seed=7)
    base.parameters["stem.weight"].data += 0.25
    base.parameters["head.weight"].data += 0.25
    ckpt = checkpoint_from_generation(base)
    path = str(tmp_path / "base.ckpt")  # a config file names the checkpoint by its path
    save_checkpoint(path, ckpt)
    g0 = build_generation(SMALL, seed=5)
    members = []
    for seed, warm in ((8, ckpt), (9, path)):
        g = build_generation(SMALL_ADON, seed=seed, index=1)
        # setting the checkpoint alone is the warm start
        cfg = tiny_cfg(lr0=0.0, seed=seed + 10, warmstart_checkpoint=warm)
        train_generation(g, data[:4], [], cfg, chain_provider([g0]))
        own = build_generation(SMALL_ADON, seed=seed, index=1)
        for name, t in g.parameters.items():
            src = base if name in BACKBONE_PARAM_NAMES else own
            np.testing.assert_array_equal(t.data, src.parameters[name].data)
        members.append(g)
    # two warm starts share the backbone but not the head
    a, b = (m.parameters["head.weight"].data for m in members)
    assert not np.array_equal(a, b)


def test_warmstart_architecture_mismatch_rejected():
    ckpt = checkpoint_from_generation(build_generation(BackboneConfig(layer_channels=(6, 6, 8)), seed=0))
    g = build_generation(SMALL, seed=0)
    with pytest.raises(ValueError, match="incompatible"):
        train_generation(g, tiny_data()[:4], [], tiny_cfg(warmstart_checkpoint=ckpt))


# ---------------------------------------------------------------------------
# training loop


def test_zero_lr_leaves_parameters_unchanged():
    data = tiny_data()
    g = build_generation(SMALL, seed=1)
    before = flatten_parameters(build_generation(SMALL, seed=1))
    # cfg.seed keys data order and augmentation only; it never re-draws g
    hist = train_generation(g, data[:4], data[4:], tiny_cfg(lr0=0.0, seed=2))
    np.testing.assert_array_equal(flatten_parameters(g), before)
    assert len(hist.step_loss) == 1 and hist.step_loss[0] > 0
    assert len(hist.epoch_val_miou) == 1


def test_training_is_deterministic():
    data = tiny_data(seed=5)
    cfg = tiny_cfg(epochs=2, seed=11)
    g1 = build_generation(SMALL, seed=11)
    h1 = train_generation(g1, data[:4], data[4:], cfg)
    g2 = build_generation(SMALL, seed=11)
    h2 = train_generation(g2, data[:4], data[4:], cfg)
    np.testing.assert_array_equal(flatten_parameters(g1), flatten_parameters(g2))
    assert h1.step_loss == h2.step_loss
    assert h1.epoch_val_miou == h2.epoch_val_miou
    assert h1.final_lr == h2.final_lr


EASY = dict(
    num_classes=2,
    shape_kinds=("rectangle",),
    noise_std=0.0,
    texture=False,
    shapes_per_image=(1, 2),
)
MED2 = BackboneConfig(layer_channels=(8, 12, 16), num_classes=2)


def test_overfits_four_images():
    data = generate_dataset(DatasetSpec(count=4, height=32, width=32, seed=6, **EASY))
    g = build_generation(MED2, seed=2)
    cfg = TrainConfig(
        epochs=300,
        batch_size=4,
        lr0=0.2,
        weight_decay=0.0,
        seed=2,
        augment=AugmentConfig(flip_prob=0.0, resize_range=(1.0, 1.0), crop=(32, 32)),
    )
    hist = train_generation(g, data, [], cfg)
    assert hist.step_loss[-1] < 0.05


def test_loss_decreases_on_default_task():
    data = tiny_data(16, hw=16, seed=7)
    g = build_generation(SMALL, seed=4)
    hist = train_generation(g, data[:12], data[12:], tiny_cfg(epochs=10, seed=4))
    losses = np.asarray(hist.step_loss)
    k = len(losses) // 4
    assert losses[-k:].mean() < losses[:k].mean()
    assert len(hist.epoch_val_miou) == 10
    assert 0.0 < hist.final_lr < 0.05


def test_provider_is_frozen_and_required():
    data = tiny_data(seed=8)
    g0 = build_generation(SMALL, seed=5)
    train_generation(g0, data[:4], [], tiny_cfg(seed=5))
    g0_before = flatten_parameters(g0).copy()

    g1 = build_generation(SMALL_ADON, seed=6, index=1)
    train_generation(g1, data[:4], [], tiny_cfg(seed=6), chain_provider([g0]))
    np.testing.assert_array_equal(flatten_parameters(g0), g0_before)

    with pytest.raises(ValueError):
        train_generation(g1, data[:4], [], tiny_cfg(seed=6))  # provider missing
    with pytest.raises(ValueError):
        train_generation(g0, data[:4], [], tiny_cfg(seed=5), chain_provider([g0]))
    with pytest.raises(ValueError):
        train_generation(g0, [], [], tiny_cfg(seed=5))


def test_training_leaves_no_gradient_buffer_on_any_parameter():
    data = tiny_data(seed=8)
    g0 = build_generation(SMALL, seed=5)
    g1 = build_generation(SMALL_ADON, seed=6, index=1)
    hist = train_generation(g1, data, [], tiny_cfg(epochs=2, seed=6), chain_provider([g0]))
    assert len(hist.step_loss) == 4
    # the optimizer takes each step's summed gradients as an argument
    for g in (g0, g1):
        assert all(t.grad is None for t in g.parameters.values())


def test_training_moves_validation_miou_above_collapse():
    data = generate_dataset(DatasetSpec(count=24, height=32, width=32, seed=9, **EASY))
    g = build_generation(MED2, seed=12)
    cfg = TrainConfig(
        epochs=100,
        batch_size=4,
        lr0=0.2,
        weight_decay=0.0,
        seed=12,
        augment=AugmentConfig(resize_range=(1.0, 1.0), crop=(32, 32)),
    )
    train_generation(g, data[:18], [], cfg)
    # a background-only predictor scores ~0.42 mIoU on this 2-class task
    assert evaluate_miou(g, data[18:]) > 0.6


def test_non_finite_loss_stops_training_before_the_update():
    data = tiny_data(seed=10)
    g = build_generation(SMALL, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        train_generation(g, data, [], tiny_cfg(lr0=1e6, epochs=5, seed=3))
    # the step that raised did not update: every parameter is still finite
    assert np.isfinite(flatten_parameters(g)).all()


# ---------------------------------------------------------------------------
# training steps split into two shards


@pytest.mark.parametrize("adon", [False, True], ids=["g0", "adon_g1"])
def test_sharded_training_does_not_depend_on_the_worker_count(monkeypatch, adon):
    data = tiny_data(7, seed=12)  # batches of 4 and 3: shards of 2+2 and 1+2 images
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(D, "_split_workers", lambda: workers)
        provider = chain_provider([build_generation(SMALL, seed=3)]) if adon else None
        g = build_generation(SMALL_ADON if adon else SMALL, seed=13, index=int(adon))
        hist = train_generation(g, data, [], tiny_cfg(epochs=2, seed=13), provider)
        runs.append((flatten_parameters(g), hist.step_loss))
    (p1, loss1), (p2, loss2) = runs
    np.testing.assert_array_equal(p1, p2)
    assert loss1 == loss2 and len(loss1) == 4


@pytest.mark.parametrize("ignored", ["first_shard", "corners"])
def test_shard_gradients_sum_to_the_whole_batch_gradient_in_float64(ignored):
    data = tiny_data(5, seed=13)
    g0 = build_generation(SMALL, seed=4)
    g = build_generation(SMALL_ADON, seed=14, index=1)
    for t in g.parameters.values():
        t.data = t.data.astype(np.float64) + 0.05  # off zero init: every ADON block carries gradient
    images = np.stack([s.image for s in data]).astype(np.float64)
    labels = np.stack([s.label for s in data])
    if ignored == "first_shard":
        labels[:2] = 255  # the first shard (images 0-1 of 5) counts no pixel
    else:
        for i in range(5):
            labels[i, :6, : 2 + 3 * i] = 255  # a corner of each image, a different size in each
    provider = chain_provider([g0])

    def cond(im):
        return provider(im.astype(np.float32)).astype(np.float64)

    shards = _shard_gradients(g, images, labels, cond)
    assert [len(grads) for _, grads in shards] == [len(g.trainable())] * 2
    assert (float(shards[0][0].data) == 0.0) == (ignored == "first_shard")
    with Graph() as graph:
        probs = T.channel_softmax(forward_logits(g, Tensor(images), Tensor(cond(images))))
        whole = T.pixel_cross_entropy(probs, labels, 255)
    backward(graph, whole)
    summed = {}
    for _, grads in shards:
        for t, gr in grads:
            summed[id(t)] = summed.get(id(t), 0.0) + gr
    assert sum(float(loss.data) for loss, _ in shards) == pytest.approx(float(whole.data), rel=1e-12)
    for t in g.trainable():
        scale = max(np.abs(t.grad).max(), 1e-30)
        assert np.abs(summed[id(t)] - t.grad).max() / scale < 1e-12


def test_training_restores_the_blas_thread_count(monkeypatch):
    threads, inside = [4], set()
    monkeypatch.setattr(D, "_openblas_threads", lambda: (lambda: threads[0], lambda k: threads.__setitem__(0, k)))
    monkeypatch.setattr(D, "_split_workers", lambda: 2)
    g0 = build_generation(SMALL, seed=5)
    provider = chain_provider([g0])

    def recording(images):
        inside.add(threads[0])
        return provider(images)

    data = tiny_data(seed=14)
    train_generation(build_generation(SMALL_ADON, seed=6, index=1), data[:4], [], tiny_cfg(seed=6), recording)
    assert inside == {1} and threads[0] == 4
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        train_generation(build_generation(SMALL, seed=3), data, [], tiny_cfg(lr0=1e6, epochs=5, seed=3))
    assert threads[0] == 4


def test_an_error_in_the_pool_shard_propagates_unchanged(monkeypatch):
    monkeypatch.setattr(D, "_split_workers", lambda: 2)
    caller, boom = threading.current_thread(), KeyError("shard")
    provider = chain_provider([build_generation(SMALL, seed=5)])

    def failing(images):
        if threading.current_thread() is not caller:  # the second shard, on the pool
            raise boom
        return provider(images)

    g = build_generation(SMALL_ADON, seed=6, index=1)
    before = flatten_parameters(g).copy()
    with pytest.raises(KeyError) as info:
        train_generation(g, tiny_data(seed=15)[:4], [], tiny_cfg(seed=6), failing)
    assert info.value is boom
    np.testing.assert_array_equal(flatten_parameters(g), before)

"""Augmentation, warm starts and the per-generation training loop."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .analysis import segmentation_metrics
from .data import (
    IGNORE_LABEL,
    Checkpoint,
    Sample,
    _batched_probs,
    _one_blas_thread,
    _slices,
    _split,
    load_checkpoint,
)
from .nets import BACKBONE_PARAM_NAMES, Generation, forward_logits, predict
from .tensor import Graph, LrSchedule, SgdMomentum, Tensor, gradients, poly_lr_at

_SHARDS = 2  # every training batch is cut into this many, whatever the CPU count


class NonFiniteError(ValueError):
    """A training step produced a non-finite loss, gradient or parameter."""


@dataclass
class AugmentConfig:
    flip_prob: float = 0.5
    resize_range: tuple[float, float] = (0.5, 2.0)
    crop: tuple[int, int] = (64, 64)

    def __post_init__(self):
        lo, hi = self.resize_range
        if not 0 < lo <= hi < math.inf:  # false for a NaN too
            raise ValueError(f"resize_range must satisfy 0 < low <= high < inf, got {self.resize_range}")
        if min(self.crop) < 1:
            raise ValueError(f"crop must be at least 1x1, got {self.crop}")
        if not 0 <= self.flip_prob <= 1:
            raise ValueError(f"flip_prob must lie in [0, 1], got {self.flip_prob}")


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 8
    lr0: float = 0.05
    weight_decay: float = 5e-4
    seed: int = 0  # keys data order and augmentation; the weights come with g
    warmstart_checkpoint: Checkpoint | str | None = None  # a Checkpoint or its path
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("lr0", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class TrainHistory:
    step_loss: list[float] = field(default_factory=list)
    epoch_val_miou: list[float] = field(default_factory=list)
    final_lr: float = 0.0


def augment_sample(
    image: np.ndarray,
    label: np.ndarray,
    params: AugmentConfig,
    rng: np.random.Generator,
    ignore_label: int | None = IGNORE_LABEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Identical geometric transform for image (bilinear) and label (nearest)."""
    h, w = label.shape
    lo, hi = params.resize_range
    scale = float(rng.uniform(lo, hi))
    nh, nw = max(1, round(h * scale)), max(1, round(w * scale))
    if (nh, nw) != (h, w):
        image = T.bilinear_resize(Tensor(image[None]), nh, nw).data[0]
        label = T.resize_nearest(label, nh, nw)
    if rng.uniform() < params.flip_prob:
        image = image[:, :, ::-1].copy()
        label = label[:, ::-1].copy()
    ch, cw = params.crop
    pad_h, pad_w = max(0, ch - image.shape[1]), max(0, cw - image.shape[2])
    if pad_h or pad_w:
        fill = 0 if ignore_label is None else ignore_label
        image = np.pad(image, ((0, 0), (0, pad_h), (0, pad_w)))
        label = np.pad(label, ((0, pad_h), (0, pad_w)), constant_values=fill)
    y0 = int(rng.integers(0, image.shape[1] - ch + 1))
    x0 = int(rng.integers(0, image.shape[2] - cw + 1))
    return (
        np.ascontiguousarray(image[:, y0 : y0 + ch, x0 : x0 + cw]),
        np.ascontiguousarray(label[y0 : y0 + ch, x0 : x0 + cw]),
    )


def _val_labels(g: Generation, provider, images: np.ndarray) -> np.ndarray:
    return predict(g, images, None if provider is None else provider(images)).probs.argmax(axis=1)


def evaluate_miou(g: Generation, dataset: list[Sample], provider=None) -> float:
    """mIoU of `g` on `dataset`, each batch split over this process's CPUs."""
    # argmax per batch: the split's labels take half the memory of its probability maps
    labels = _batched_probs(functools.partial(_val_labels, g, provider), dataset)
    return segmentation_metrics(labels, [s.label for s in dataset], g.config.num_classes).miou


def _shard_loss(g: Generation, provider, images, labels, share: float):
    """A shard's loss, scaled by its `share` of the batch's counted pixels, and its gradient for
    each of `g.trainable()` in order (None where no gradient flows)."""
    cond = None if provider is None else Tensor(provider(images))  # frozen: plain constant
    with Graph() as graph:
        probs = T.channel_softmax(forward_logits(g, Tensor(images), cond))
        loss = T.mul_scalar(T.pixel_cross_entropy(probs, labels, IGNORE_LABEL), share)
    grads = {id(leaf): gr for leaf, gr in gradients(graph, loss)}
    return float(loss.data), [grads.get(id(t)) for t in g.trainable()]


def _shard_gradients(g: Generation, images, labels, provider) -> list:
    """(loss, gradients) of each of the batch's _SHARDS contiguous shards, in batch order.

    The batch's loss is the mean over its counted pixels, so each shard's own
    mean is weighted by its share of them: the shard losses, and the shard
    gradients, add up to the batch's. `_split` runs the shards, each on its own
    CPU where there are two; `g` and `provider` reach a worker in one pickle, so
    a provider that reads `g` (a self-loop) reads the worker's copy.
    """
    counted = (labels != IGNORE_LABEL).reshape(len(labels), -1).sum(axis=1)
    total = max(1, counted.sum())
    shards = [(images[s], labels[s], counted[s].sum() / total) for s in _slices(len(images), _SHARDS)]
    return _split(functools.partial(_shard_loss, g, provider), shards)


def train_generation(
    g: Generation,
    train: list[Sample],
    val: list[Sample],
    cfg: TrainConfig,
    condition_provider=None,
) -> TrainHistory:
    """Train `g` in place: SGD with momentum 0.9 under a power-0.9 polynomial LR schedule.

    Deterministic in `g`'s weights and `cfg.seed`. The weights are `g`'s own,
    as `build_generation` made them; a warm start first copies the backbone
    from `cfg.warmstart_checkpoint`, keeping `g`'s head, blocks and embedding.

    condition_provider maps a batch of images (N,3,H,W) to a probability map
    (N,C,H,W); it must be frozen — no gradients reach it because its output
    enters the graph as a constant.

    On two or more CPUs a forked worker process runs the second shard of every
    step and a slice of every val batch (`data._split`); the checkpoint bits do
    not change. A provider that does not pickle (a closure) runs both shards in
    this process, as on one CPU.
    """
    if g.config.takes_map and condition_provider is None:
        raise ValueError(f"{g.config.conditioning} conditioning needs a provider")
    if not g.config.takes_map and condition_provider is not None:
        raise ValueError("provider given but this generation takes no conditioning input")
    if not train:
        raise ValueError("empty training set")

    warm = cfg.warmstart_checkpoint
    if warm is not None:
        if not isinstance(warm, Checkpoint):
            warm = load_checkpoint(warm)
        for name in BACKBONE_PARAM_NAMES:
            src = warm.tensors.get(name)
            if src is None or src.shape != g.parameters[name].data.shape:
                raise ValueError(f"warmstart checkpoint incompatible at {name!r}")
            g.parameters[name].data = np.array(src, dtype=np.float32)

    rng = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(cfg.seed), np.uint64(0x5E9)], dtype=np.uint64))
    )
    params = g.trainable()
    opt = SgdMomentum(params, weight_decay=cfg.weight_decay)
    steps_per_epoch = (len(train) + cfg.batch_size - 1) // cfg.batch_size
    sched = LrSchedule(cfg.lr0, max(1, cfg.epochs * steps_per_epoch))

    history = TrainHistory()
    step = 0
    lr = cfg.lr0
    with _one_blas_thread():  # each shard runs its GEMMs on its own CPU
        for _ in range(cfg.epochs):
            order = rng.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                images, labels = [], []
                for i in idx:
                    im, lb = augment_sample(train[i].image, train[i].label, cfg.augment, rng)
                    images.append(im)
                    labels.append(lb)
                images = np.stack(images)
                labels = np.stack(labels)
                shards = _shard_gradients(g, images, labels, condition_provider)

                lr = poly_lr_at(sched, step)
                grads = [np.zeros_like(t.data) for t in params]
                for _, shard_grads in shards:  # shard by shard, in batch order: the sum has one order
                    for summed, gr in zip(grads, shard_grads):
                        if gr is not None:
                            summed += gr.astype(summed.dtype, copy=False)
                loss = sum(shard_loss for shard_loss, _ in shards)
                # stop before the update: a NaN/inf step would poison every parameter
                if not np.isfinite(loss) or not all(np.isfinite(gr).all() for gr in grads):
                    raise NonFiniteError(f"non-finite loss or gradient at training step {step}")
                opt.step(lr, grads)
                history.step_loss.append(loss)
                step += 1
            if val:
                history.epoch_val_miou.append(evaluate_miou(g, val, condition_provider))
    # the guard above reads each update's result at the next step: the last update has none
    if not all(np.isfinite(t.data).all() for t in params):
        raise NonFiniteError(f"non-finite parameter after {step} training steps")
    history.final_lr = lr
    return history

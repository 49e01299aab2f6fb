"""Augmentation, warm starts and the per-generation training loop."""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import tensor as T
from .analysis import segmentation_metrics
from .data import (
    _BATCH,
    IGNORE_LABEL,
    Checkpoint,
    Sample,
    _batched_probs,
    _one_blas_thread,
    _slices,
    load_checkpoint,
)
from .nets import BACKBONE_PARAM_NAMES, Generation, forward_logits, predict
from .tensor import Graph, LrSchedule, SgdMomentum, Tensor, gradients, poly_lr_at

_SHARDS = 2  # every training batch is cut into this many, whatever the CPU count


class NonFiniteError(ValueError):
    """A training step produced a non-finite loss or gradient."""


@dataclass
class AugmentConfig:
    flip_prob: float = 0.5
    resize_range: tuple[float, float] = (0.5, 2.0)
    crop: tuple[int, int] = (64, 64)

    def __post_init__(self):
        lo, hi = self.resize_range
        if lo > hi or lo <= 0:
            raise ValueError("resize_range must satisfy 0 < low <= high")


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 8
    lr0: float = 0.05
    weight_decay: float = 5e-4
    seed: int = 0  # keys data order and augmentation; the weights come with g
    warmstart_checkpoint: Checkpoint | str | None = None  # a Checkpoint or its path
    augment: AugmentConfig = field(default_factory=AugmentConfig)


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


def _val_slices(n: int) -> tuple[list[slice], list[slice]]:
    """The caller's and the worker's slices of an n-image val split: each _BATCH-image batch cut in
    _SHARDS contiguous parts, the first the caller's (a one-image batch stays whole, with the caller)."""
    cuts = [
        [slice(a + s.start, a + s.stop) for s in _slices(min(_BATCH, n - a), _SHARDS)]
        for a in range(0, n, _BATCH)
    ]
    return [c[0] for c in cuts], [c[1] for c in cuts if len(c) > 1]


def evaluate_miou(g: Generation, dataset: list[Sample], provider=None, worker=None) -> float:
    """mIoU of `g` on `dataset`. `worker`, a training worker set up with `dataset` as its val split,
    runs the second slice of each batch; without it the batches are split over this process's CPUs."""
    # argmax per batch: the split's labels take half the memory of its probability maps
    labels_fn = functools.partial(_val_labels, g, provider)
    if worker is None:
        labels = _batched_probs(labels_fn, dataset)
    else:
        mine, theirs = _val_slices(len(dataset))
        worker.send("val", [t.data for t in g.trainable()], np.geterr())
        try:
            own = [labels_fn(np.stack([s.image for s in dataset[part]])) for part in mine]
        finally:
            ok, remote = worker.reply()  # always read, even after an error here: the pipe stays in step
        if not ok:
            raise remote
        labels = [None] * len(dataset)
        for part, maps in zip(mine + theirs, own + remote):
            labels[part] = list(maps)
    return segmentation_metrics(labels, [s.label for s in dataset], g.config.num_classes).miou


def _shard_loss(g: Generation, provider, images, labels, share: float):
    """A shard's loss, scaled by its `share` of the batch's counted pixels, and its leaf gradients."""
    cond = None if provider is None else Tensor(provider(images))  # frozen: plain constant
    with Graph() as graph:
        probs = T.channel_softmax(forward_logits(g, Tensor(images), cond))
        loss = T.mul_scalar(T.pixel_cross_entropy(probs, labels, IGNORE_LABEL), share)
    return loss, gradients(graph, loss)


def _shard_gradients(g: Generation, images, labels, provider, worker=None) -> list:
    """(loss, [(leaf, gradient)]) of each of the batch's _SHARDS contiguous shards, in batch order.

    The batch's loss is the mean over its counted pixels, so each shard's own
    mean is weighted by its share of them: the shard losses, and the shard
    gradients, add up to the batch's. With a `worker` set up for `g`, it runs
    the second shard while this process runs the first.
    """
    counted = (labels != IGNORE_LABEL).reshape(len(labels), -1).sum(axis=1)
    total = max(1, counted.sum())
    shards = [(images[s], labels[s], counted[s].sum() / total) for s in _slices(len(images), _SHARDS)]
    if worker is None or len(shards) == 1:
        return [_shard_loss(g, provider, *shard) for shard in shards]
    params = g.trainable()
    worker.send("step", [t.data for t in params], np.geterr(), *shards[1])
    try:
        first = _shard_loss(g, provider, *shards[0])
    finally:
        ok, remote = worker.reply()  # always read, even after an error here: the pipe stays in step
    if not ok:
        raise remote
    loss, grads = remote
    return [first, (Tensor(loss), [(params[i], gr) for i, gr in grads])]


# ---------------------------------------------------------------------------
# the training worker: a forked process for the second shard of every step


class _Worker:
    """A forked daemon process with one duplex pipe; each request gets one reply: (ok, value or exception)."""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child, self.conn), name="seqens-shard", daemon=True)
        self.process.start()
        child.close()

    def send(self, *request) -> None:
        self.conn.send(request)

    def reply(self) -> tuple[bool, object]:
        global _WORKER
        try:
            return self.conn.recv()
        except BaseException as e:  # the worker died, or an interrupt left its reply unread: drop it
            _WORKER = None
            self.conn.close()
            self.process.terminate()
            self.process.join()
            if isinstance(e, EOFError):
                raise RuntimeError("the training worker process exited unexpectedly") from e
            raise


_WORKER: _Worker | None = None  # forked by the first training on two or more CPUs; lives with the process


def _setup_worker(g: Generation, provider, val: list[Sample]) -> _Worker | None:
    """The worker, given `g`, `provider` and the worker's slices of `val` in one pickle, so that a
    provider that reads `g` (a self-loop) reads the worker's copy. None on one CPU, or when the
    provider does not pickle (a closure): then both shards run in this process."""
    global _WORKER
    if D._split_workers() == 1:
        return None
    try:
        state = pickle.dumps(
            (g, provider, [np.stack([s.image for s in val[part]]) for part in _val_slices(len(val))[1]]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    if _WORKER is None:
        _WORKER = _Worker()
    _WORKER.send("setup", state)
    ok, error = _WORKER.reply()
    if not ok:
        raise error
    return _WORKER


def _serve(conn, parent_end) -> None:
    """The worker's loop. It ends when the parent's end of the pipe closes, as it does when the parent
    exits or is killed; an interrupt is the parent's to handle."""
    parent_end.close()  # else this process would hold its own pipe open
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    g = provider = val = None
    with _one_blas_thread():
        while True:
            try:
                kind, *args = conn.recv()
            except EOFError:
                return
            try:
                if kind == "setup":
                    g, provider, val = pickle.loads(args[0])
                    reply = True, None
                else:
                    weights, err, *args = args
                    params = g.trainable()
                    for t, w in zip(params, weights):
                        t.data = w
                    with np.errstate(**err):  # the caller's, as a thread of the caller would have it
                        if kind == "step":
                            loss, grads = _shard_loss(g, provider, *args)
                            index = {id(t): i for i, t in enumerate(params)}
                            reply = True, (loss.data, [(index[id(t)], gr) for t, gr in grads])
                        else:
                            reply = True, [_val_labels(g, provider, images) for images in val]
            except Exception as e:
                reply = False, e
            try:
                conn.send(reply)
            except (pickle.PicklingError, AttributeError, TypeError):  # an exception that does not pickle
                conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))
            except OSError:  # the parent is gone
                return


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
    step and the second slice of every val batch, given `g` and the provider
    once; the checkpoint bits do not change. A provider that does not pickle
    (a closure) runs both shards in this process, as on one CPU.
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
    worker = _setup_worker(g, condition_provider, val)
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
                shards = _shard_gradients(g, images, labels, condition_provider, worker)

                lr = poly_lr_at(sched, step)
                summed = {id(t): np.zeros_like(t.data) for t in params}
                for _, grads in shards:  # shard by shard, in batch order: the sum has one order
                    for t, gr in grads:
                        summed[id(t)] += gr.astype(t.data.dtype, copy=False)
                grads = list(summed.values())
                loss = sum(float(shard_loss.data) for shard_loss, _ in shards)
                # stop before the update: a NaN/inf step would poison every parameter
                if not np.isfinite(loss) or not all(np.isfinite(gr).all() for gr in grads):
                    raise NonFiniteError(f"non-finite loss or gradient at training step {step}")
                opt.step(lr, grads)
                history.step_loss.append(loss)
                step += 1
            if val:
                history.epoch_val_miou.append(evaluate_miou(g, val, condition_provider, worker))
    history.final_lr = lr
    return history

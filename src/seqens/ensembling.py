"""Combination rules, sequential chains with self-refinement, and chain forests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Generation, PredictionBundle, predict
from .tensor import Tensor

COMBINE_KINDS = ("uniform", "confidence_weighted", "median", "vote")


@dataclass
class CombineStrategy:
    kind: str = "uniform"

    def __post_init__(self):
        if self.kind not in COMBINE_KINDS:
            raise ValueError(f"unknown combine strategy {self.kind!r}")


@dataclass
class Chain:
    generations: list[Generation]
    self_loops: int = 0

    def __post_init__(self):
        if not self.generations:
            raise ValueError("chain needs at least one generation")
        if self.self_loops < 0:
            raise ValueError("self_loops must be >= 0")
        g0 = self.generations[0]
        if g0.config.takes_map:
            raise ValueError("chain head must be unconditioned")
        for i, g in enumerate(self.generations[1:], start=1):
            if g.config.conditioning == "none":
                raise ValueError(f"generation {i} must be conditioned")
        if self.self_loops and not self.generations[-1].config.takes_map:
            raise ValueError("self-refinement needs a conditioned tail generation")


@dataclass
class Forest:
    chains: list[Chain]

    def __post_init__(self):
        if not self.chains:
            raise ValueError("forest needs at least one chain")
        classes = {c.generations[0].config.num_classes for c in self.chains}
        if len(classes) != 1:
            raise ValueError("all chains must share the class count")


def combine(maps: list[np.ndarray], strategy: CombineStrategy) -> np.ndarray:
    if len(maps) == 0:
        raise ValueError("combine needs at least one probability map")
    maps = [np.asarray(m) for m in maps]
    shape = maps[0].shape
    if any(m.shape != shape for m in maps):
        raise ValueError("probability maps must share one shape")
    if shape[0] > 1:
        # every rule is per pixel: image by image gives the same bits, with a one-image float64 stack
        return np.concatenate([combine([m[i : i + 1] for m in maps], strategy) for i in range(shape[0])])
    stack = np.stack(maps).astype(np.float64)  # (M, N, C, H, W)

    if strategy.kind == "uniform":
        out = stack.mean(axis=0)
    elif strategy.kind == "confidence_weighted":
        conf = stack.max(axis=2, keepdims=True)  # (M, N, 1, H, W)
        weights = conf / conf.sum(axis=0, keepdims=True)
        out = (weights * stack).sum(axis=0)
    elif strategy.kind == "median":
        out = np.median(stack, axis=0)
        out = out / out.sum(axis=1, keepdims=True)
    else:  # vote
        votes = np.argmax(stack, axis=2)  # (M, N, H, W), ties to lowest class
        c = shape[1]
        onehots = np.stack([(votes == k).sum(axis=0) for k in range(c)], axis=1)
        winner = np.argmax(onehots, axis=1)  # modal class, ties to lowest index
        out = np.zeros(shape, dtype=np.float64)
        np.put_along_axis(out, winner[:, None], 1.0, axis=1)
    return out.astype(maps[0].dtype, copy=False)


def chain_predict(chain: Chain, image) -> list[PredictionBundle]:
    """Run the conditional chain; optionally re-feed the tail its own output."""
    image = image if isinstance(image, Tensor) else Tensor(np.asarray(image))
    bundles = [predict(chain.generations[0], image)]
    for g in chain.generations[1:]:
        bundles.append(predict(g, image, bundles[-1].probs))
    tail = chain.generations[-1]
    for _ in range(chain.self_loops):
        bundles.append(predict(tail, image, bundles[-1].probs))
    return bundles


def stage_labels(maps: list[np.ndarray]) -> np.ndarray:
    """Each stage's (N, C, H, W) map as argmax labels, the stage on axis 1: (N, stages, H, W)."""
    return np.stack([m.argmax(axis=1) for m in maps], axis=1)


def forest_predict(forest: Forest, image) -> np.ndarray:
    """The uniform mean of each chain's final probability map."""
    return combine([chain_predict(c, image)[-1].probs for c in forest.chains], CombineStrategy("uniform"))


def chain_provider(prefix: list[Generation], self_loops: int = 0):
    """Map images to the final probability map of a frozen chain prefix.

    This is the map that conditions the next generation. The chain is built
    and validated here, once: later changes to `prefix` do not reach it.
    """
    chain = Chain(list(prefix), self_loops=self_loops)

    def provider(images: np.ndarray) -> np.ndarray:
        return chain_predict(chain, images)[-1].probs

    return provider


"""Temperature scaling, expected calibration error and confidence histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import IGNORE_LABEL
from .tensor import Tensor


@dataclass
class CalibrationConfig:
    num_bins: int = 10
    temperature_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

    def __post_init__(self):
        self.temperature_grid = tuple(self.temperature_grid)
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if not all(t > 0 for t in self.temperature_grid):  # NaN too
            raise ValueError("temperatures must be > 0")
        if list(self.temperature_grid) != sorted(self.temperature_grid):
            raise ValueError("temperature grid must be sorted ascending")
        if 1.0 not in self.temperature_grid:  # also rejects an empty grid
            raise ValueError("temperature grid must contain 1.0")


@dataclass
class CalibrationReport:
    per_temperature_ece: list[tuple[float, float]]
    best_temperature: float
    # (count, mean confidence, accuracy) per bin at each grid temperature
    per_bin_by_temperature: dict[float, list[tuple[int, float, float]]]


def temperature_scale(logits, temperature: float) -> np.ndarray:
    if not temperature > 0:  # NaN too
        raise ValueError("temperature must be > 0")
    t = logits if isinstance(logits, Tensor) else Tensor(np.asarray(logits))
    scaled = T.mul_scalar(t, 1.0 / temperature)
    return T.channel_softmax(scaled).data


def _bin_index(conf: np.ndarray, num_bins: int) -> np.ndarray:
    # equal-width bins on (0, 1], right-closed: bin m covers (m/B, (m+1)/B]
    idx = np.ceil(conf * num_bins).astype(np.int64) - 1
    return np.clip(idx, 0, num_bins - 1)


def _flatten_pixels(probs, labels):
    # accepts per-image (C,H,W)/(H,W) or batched (N,C,H,W)/(N,H,W) pairs
    confs, hits = [], []
    for p, y in zip(probs, labels, strict=True):
        p = np.asarray(p, dtype=np.float64)
        y = np.asarray(y)
        valid = y != IGNORE_LABEL
        conf = p.max(axis=-3)
        pred = np.argmax(p, axis=-3)
        confs.append(conf[valid])
        hits.append((pred == y)[valid])
    if not confs:
        raise ValueError("no inputs")
    conf = np.concatenate(confs)
    hit = np.concatenate(hits)
    if conf.size == 0:
        raise ValueError("no valid pixels")
    return conf, hit


def bin_statistics(probs, labels, cfg: CalibrationConfig):
    """Per-bin (count, mean confidence, accuracy); empty bins report zeros."""
    conf, hit = _flatten_pixels(probs, labels)
    idx = _bin_index(conf, cfg.num_bins)
    stats = []
    for m in range(cfg.num_bins):
        mask = idx == m
        n = int(mask.sum())
        if n == 0:
            stats.append((0, 0.0, 0.0))
        else:
            stats.append((n, float(conf[mask].mean()), float(hit[mask].mean())))
    return stats


def _ece_from_bins(stats) -> float:
    total = sum(n for n, _, _ in stats)
    return float(sum(n / total * abs(acc - conf) for n, conf, acc in stats if n))


def expected_calibration_error(probs, labels, cfg: CalibrationConfig) -> float:
    return _ece_from_bins(bin_statistics(probs, labels, cfg))


def confidence_histogram(probs, labels, cfg: CalibrationConfig):
    conf, hit = _flatten_pixels(probs, labels)
    idx = _bin_index(conf, cfg.num_bins)
    correct = np.bincount(idx[hit], minlength=cfg.num_bins)[: cfg.num_bins]
    incorrect = np.bincount(idx[~hit], minlength=cfg.num_bins)[: cfg.num_bins]
    return list(map(int, correct)), list(map(int, incorrect))


def temperature_sweep(logits, labels, cfg: CalibrationConfig) -> CalibrationReport:
    """Evaluate ECE on cached logits (N,C,H,W) at each grid temperature and pick the best.

    labels are the N ground-truth maps (H,W). Ties in ECE break toward the
    temperature closest to 1.
    """
    rows = []
    per_bin = {}
    for t in cfg.temperature_grid:
        per_bin[t] = bin_statistics(temperature_scale(logits, t), labels, cfg)
        rows.append((t, _ece_from_bins(per_bin[t])))
    best_t = min(rows, key=lambda r: (r[1], abs(r[0] - 1.0)))[0]
    return CalibrationReport(rows, best_t, per_bin)


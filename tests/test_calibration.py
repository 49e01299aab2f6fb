import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqens import tensor as T
from seqens.calibration import (
    CalibrationConfig,
    bin_statistics,
    confidence_histogram,
    expected_calibration_error,
    temperature_scale,
    temperature_sweep,
)
from seqens.data import Sample
from seqens.tensor import Tensor


def brute_force_ece(probs, labels, num_bins, ignore_label=None):
    """Flat pixel loop, no vectorized binning; the implementation must match."""
    pixels = []
    for p, y in zip(probs, labels):
        p, y = np.asarray(p), np.asarray(y)
        for i in range(y.shape[0]):
            for j in range(y.shape[1]):
                if ignore_label is not None and y[i, j] == ignore_label:
                    continue
                conf = p[:, i, j].max()
                hit = int(np.argmax(p[:, i, j]) == y[i, j])
                pixels.append((conf, hit))
    bins = [[] for _ in range(num_bins)]
    for conf, hit in pixels:
        m = min(num_bins - 1, max(0, int(np.ceil(conf * num_bins)) - 1))
        bins[m].append((conf, hit))
    n = len(pixels)
    ece = 0.0
    for b in bins:
        if not b:
            continue
        acc = sum(h for _, h in b) / len(b)
        conf = sum(c for c, _ in b) / len(b)
        ece += len(b) / n * abs(acc - conf)
    return ece


def _probs_from_conf(confs):
    """2-class probability maps with chosen max-confidence per pixel."""
    conf = np.asarray(confs, dtype=np.float64)
    return np.stack([conf, 1 - conf])[None].transpose(1, 0, 2, 3)[0]


def test_temperature_identity():
    z = np.random.default_rng(0).normal(size=(1, 3, 4, 4)).astype(np.float32)
    np.testing.assert_array_equal(
        temperature_scale(z, 1.0), T.channel_softmax(Tensor(z)).data
    )


def test_temperature_closed_form():
    z = np.array([2.0, 0.0], dtype=np.float32).reshape(1, 2, 1, 1)
    p = temperature_scale(z, 2.0).ravel()
    e = np.exp(1.0)
    np.testing.assert_allclose(p, [e / (1 + e), 1 / (1 + e)], rtol=1e-5)
    np.testing.assert_allclose(p, [0.73106, 0.26894], atol=1e-5)


def test_temperature_argmax_invariance():
    rng = np.random.default_rng(1)
    z = rng.normal(0, 3, size=(2, 5, 6, 6)).astype(np.float32)
    ref = np.argmax(temperature_scale(z, 1.0), axis=1)
    for t in (0.25, 0.5, 2.0, 4.0, 8.0, 64.0):
        np.testing.assert_array_equal(np.argmax(temperature_scale(z, t), axis=1), ref)


def test_temperature_rejects_nonpositive():
    z = np.zeros((1, 2, 1, 1), dtype=np.float32)
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            temperature_scale(z, t)
        with pytest.raises(ValueError):
            CalibrationConfig(temperature_grid=(t, 1.0))


def test_ece_perfect_predictions():
    y = np.random.default_rng(2).integers(0, 3, size=(4, 4))
    p = np.eye(3, dtype=np.float64)[y].transpose(2, 0, 1)
    assert expected_calibration_error([p], [y], CalibrationConfig()) == pytest.approx(0.0)


def test_ece_hand_case():
    # confidences/correctness: 0.9 hit, 0.8 miss, 0.6 hit, 0.55 hit; 2 bins
    conf = np.array([[0.9, 0.8], [0.6, 0.55]])
    p = np.stack([conf, 1 - conf])
    y = np.array([[0, 1], [0, 0]])  # argmax is class 0 everywhere
    cfg = CalibrationConfig(num_bins=2)
    assert expected_calibration_error([p], [y], cfg) == pytest.approx(0.0375)
    correct, incorrect = confidence_histogram([p], [y], cfg)
    assert correct == [0, 3]
    assert incorrect == [0, 1]


def test_ece_duplication_invariance():
    rng = np.random.default_rng(3)
    conf = rng.uniform(0.5, 1.0, size=(5, 5))
    p = np.stack([conf, 1 - conf])
    y = rng.integers(0, 2, size=(5, 5))
    cfg = CalibrationConfig()
    once = expected_calibration_error([p], [y], cfg)
    twice = expected_calibration_error([p, p], [y, y], cfg)
    assert once == pytest.approx(twice)


def test_histogram_partition():
    rng = np.random.default_rng(4)
    conf = rng.uniform(0.5, 1.0, size=(6, 6))
    p = np.stack([conf, 1 - conf])
    y = rng.integers(0, 2, size=(6, 6))
    cfg = CalibrationConfig()
    correct, incorrect = confidence_histogram([p], [y], cfg)
    assert sum(correct) + sum(incorrect) == 36
    yy = np.zeros((6, 6), dtype=int)
    correct, incorrect = confidence_histogram([p], [yy], cfg)
    assert sum(incorrect) == int((np.argmax(p, axis=0) != 0).sum())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
def test_ece_matches_brute_force(seed, num_bins):
    rng = np.random.default_rng(seed)
    c = rng.integers(2, 5)
    raw = rng.uniform(0.01, 1.0, size=(int(c), 8, 8))
    p = raw / raw.sum(axis=0)
    y = rng.integers(0, c, size=(8, 8))
    y = np.where(rng.uniform(size=(8, 8)) < 0.15, 255, y)
    if np.all(y == 255):
        y[0, 0] = 0
    cfg = CalibrationConfig(num_bins=num_bins)
    got = expected_calibration_error([p], [y], cfg)
    want = brute_force_ece([p], [y], num_bins, ignore_label=255)
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 1.0


def _sweep_inputs(seed=0, n=4):
    rng = np.random.default_rng(seed)
    data = [
        Sample(
            image=rng.uniform(size=(3, 8, 8)).astype(np.float32),
            label=rng.integers(0, 3, size=(8, 8)),
        )
        for _ in range(n)
    ]
    logits = rng.normal(0, 4, size=(n, 3, 8, 8)).astype(np.float32)
    return logits, [s.label for s in data]


def test_sweep_singleton_grid():
    logits, labels = _sweep_inputs()
    report = temperature_sweep(logits, labels, CalibrationConfig(temperature_grid=(1.0,)))
    assert report.best_temperature == 1.0
    assert len(report.per_temperature_ece) == 1


def test_sweep_best_not_worse_than_identity():
    logits, labels = _sweep_inputs(seed=5)
    cfg = CalibrationConfig(temperature_grid=(0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0))
    report = temperature_sweep(logits, labels, cfg)
    eces = dict(report.per_temperature_ece)
    assert eces[report.best_temperature] <= eces[1.0]
    assert len(report.per_bin_by_temperature[report.best_temperature]) == cfg.num_bins


def test_sweep_requires_identity_in_grid():
    logits, labels = _sweep_inputs()
    with pytest.raises(ValueError):
        temperature_sweep(logits, labels, CalibrationConfig(temperature_grid=(2.0, 4.0)))


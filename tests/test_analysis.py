import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqens.analysis import (
    cosine_similarity,
    four_case_table,
    mean_offdiagonal,
    parameter_similarity_matrix,
    prediction_similarity_matrix,
    segmentation_metrics,
)
from seqens.data import Sample
from seqens.nets import BackboneConfig, build_generation, predict


def brute_force_metrics(pred, gt, num_classes, ignore_label=None):
    """Flat per-pixel double loop; the oracle segmentation_metrics must match."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(pred, gt):
        for pv, gv in zip(np.asarray(p).ravel(), np.asarray(g).ravel()):
            if ignore_label is not None and gv == ignore_label:
                continue
            confusion[gv, pv] += 1
    ious = {}
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        if tp + fp + fn:
            ious[c] = tp / (tp + fp + fn)
    miou = float(np.mean(list(ious.values())))
    acc = float(np.trace(confusion) / confusion.sum())
    return miou, acc, confusion


def test_perfect_prediction():
    gt = np.random.default_rng(0).integers(0, 3, size=(8, 8))
    r = segmentation_metrics([gt], [gt], 3)
    assert r.miou == 1.0 and r.pixel_accuracy == 1.0


def test_hand_confusion_example():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    r = segmentation_metrics([pred], [gt], 2)
    assert r.miou == pytest.approx(7 / 12)
    assert dict(r.per_class_iou)[0] == pytest.approx(1 / 2)
    assert dict(r.per_class_iou)[1] == pytest.approx(2 / 3)


def test_inverted_binary_prediction():
    gt = np.random.default_rng(1).integers(0, 2, size=(6, 6))
    r = segmentation_metrics([1 - gt], [gt], 2)
    assert r.miou == 0.0


def test_absent_class_excluded():
    gt = np.zeros((4, 4), dtype=np.int64)
    r = segmentation_metrics([gt], [gt], 5)
    assert r.miou == 1.0
    assert dict(r.per_class_iou)[3] is None


def test_one_byte_labels_give_the_int64_confusion():
    # with 17 classes the pair index g * 17 + p reaches 288, past a byte
    rng = np.random.default_rng(17)
    gt = rng.integers(0, 17, size=(2, 24, 24))
    pred = rng.integers(0, 17, size=(2, 24, 24))
    want = segmentation_metrics(pred, gt, 17)
    np.testing.assert_array_equal(want.confusion, brute_force_metrics(pred, gt, 17)[2])
    for p in (pred, pred.astype(np.uint8)):
        got = segmentation_metrics(p, gt.astype(np.uint8), 17)
        np.testing.assert_array_equal(got.confusion, want.confusion)
        assert got.miou == want.miou


def test_metrics_errors():
    with pytest.raises(ValueError):
        segmentation_metrics([np.zeros((2, 2), int)], [np.full((2, 2), 255)], 3)
    with pytest.raises(ValueError):
        segmentation_metrics([np.zeros((2, 2), int)], [np.full((2, 2), 9)], 3)


@pytest.mark.parametrize("bad", [9, 4, -1])
def test_metrics_reject_predicted_class_out_of_range(bad):
    gt = np.zeros((2, 2), int)
    pred = gt.copy()
    pred[0, 1] = bad
    with pytest.raises(ValueError, match="predicted class"):
        segmentation_metrics([pred], [gt], 4)
    # a prediction under an ignored pixel is not scored
    gt[0, 1] = 255
    assert segmentation_metrics([pred], [gt], 4).miou == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.booleans())
def test_metrics_match_brute_force(seed, c, use_ignore):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, c, size=(9, 11))
    pred = rng.integers(0, c, size=(9, 11))
    ignore = 255 if use_ignore else None
    if use_ignore:
        gt = np.where(rng.uniform(size=gt.shape) < 0.2, 255, gt)
    r = segmentation_metrics([pred], [gt], c)
    miou, acc, confusion = brute_force_metrics([pred], [gt], c, ignore)
    assert r.miou == pytest.approx(miou)
    assert r.pixel_accuracy == pytest.approx(acc)
    np.testing.assert_array_equal(r.confusion, confusion)


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_basics():
    assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 2], [-1, -2]) == pytest.approx(-1.0)
    assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        cosine_similarity([0, 0], [1, 0])


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert cosine_similarity(a, b) == pytest.approx(
        cosine_similarity(3.7 * a, 3.7 * b), abs=1e-6
    )


def _toy_dataset(n=3, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Sample(
            image=rng.uniform(size=(3, h, w)).astype(np.float32),
            label=rng.integers(0, 4, size=(h, w)),
        )
        for _ in range(n)
    ]


def test_prediction_similarity_matrix_properties():
    data = _toy_dataset()
    g1 = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=1)
    g2 = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=2)
    images = np.stack([s.image for s in data])
    maps = [predict(g, images).probs for g in (g1, g2, g1)]
    mat = prediction_similarity_matrix(maps)
    np.testing.assert_allclose(np.diag(mat), 1.0)
    np.testing.assert_allclose(mat, mat.T)
    assert np.all(mat >= -1 - 1e-9) and np.all(mat <= 1 + 1e-9)
    assert mat[0, 2] == pytest.approx(1.0)  # identical members
    with pytest.raises(ValueError):
        prediction_similarity_matrix(maps[:1])


def test_parameter_similarity_matrix():
    g1 = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=1)
    g2 = build_generation(BackboneConfig(layer_channels=(4, 6, 8)), seed=2)
    mat = parameter_similarity_matrix([g1, g2, g1])
    assert mat[0, 0] == 1.0
    assert mat[0, 2] == pytest.approx(1.0)
    # independent recomputation of the off-diagonal entry
    from seqens.nets import flatten_parameters

    v1 = flatten_parameters(g1).astype(np.float64)
    v2 = flatten_parameters(g2).astype(np.float64)
    manual = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
    assert mat[0, 1] == pytest.approx(manual, abs=1e-12)

    g3 = build_generation(BackboneConfig(layer_channels=(8, 6, 8)), seed=3)
    with pytest.raises(ValueError):
        parameter_similarity_matrix([g1, g3])


def test_mean_offdiagonal():
    mat = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.0]])
    assert mean_offdiagonal(mat) == pytest.approx((0.5 + 0.1 + 0.3) * 2 / 6)


# ---------------------------------------------------------------------------
# four-case table


def test_four_case_all_correct():
    gt = np.random.default_rng(0).integers(0, 3, size=(5, 5))
    t = four_case_table([gt], [gt], [gt])
    assert t.fractions["both_correct"] == 1.0
    assert sum(t.counts.values()) == 25


def test_four_case_g0_only():
    gt = np.random.default_rng(1).integers(0, 2, size=(4, 4))
    t = four_case_table([gt], [1 - gt], [gt])
    assert t.fractions["g0_only"] == 1.0


def test_four_case_hand_enumeration():
    gt = np.array([[0, 0, 0]])
    p0 = np.array([[0, 1, 1]])
    p1 = np.array([[0, 0, 1]])
    t = four_case_table([p0], [p1], [gt])
    assert t.fractions["both_correct"] == pytest.approx(1 / 3)
    assert t.fractions["g0_only"] == pytest.approx(0.0)
    assert t.fractions["g1_only"] == pytest.approx(1 / 3)
    assert t.fractions["both_wrong"] == pytest.approx(1 / 3)
    assert sum(t.fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_four_case_rejects_mismatched_inputs():
    maps = [np.zeros((3, 3), int)] * 3
    with pytest.raises(ValueError, match="count"):
        four_case_table(maps, maps[:1], maps)
    with pytest.raises(ValueError, match="count"):
        four_case_table(maps, maps, maps[:2])
    with pytest.raises(ValueError, match="shape"):
        four_case_table([np.zeros((3, 3), int)], [np.zeros((3, 1), int)], [np.zeros((3, 3), int)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_four_case_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, 3, size=(7, 7))
    gt = np.where(rng.uniform(size=gt.shape) < 0.1, 255, gt)
    p0 = rng.integers(0, 3, size=(7, 7))
    p1 = rng.integers(0, 3, size=(7, 7))
    t = four_case_table([p0], [p1], [gt])
    counts = dict.fromkeys(("both_correct", "g0_only", "g1_only", "both_wrong"), 0)
    for i in range(7):
        for j in range(7):
            if gt[i, j] == 255:
                continue
            a, b = p0[i, j] == gt[i, j], p1[i, j] == gt[i, j]
            key = (
                "both_correct" if a and b else "g0_only" if a else "g1_only" if b else "both_wrong"
            )
            counts[key] += 1
    assert t.counts == counts
    assert sum(t.fractions.values()) == pytest.approx(1.0, abs=1e-9)

"""Accuracy metrics, ensemble diversity measures and the four-case error table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IGNORE_LABEL


@dataclass
class MetricsReport:
    miou: float
    per_class_iou: list[tuple[int, float | None]]
    pixel_accuracy: float
    confusion: np.ndarray  # (C, C) int64, rows = ground truth


@dataclass
class FourCaseTable:
    counts: dict[str, int]
    fractions: dict[str, float]


_CASES = ("both_correct", "g0_only", "g1_only", "both_wrong")


def segmentation_metrics(pred, gt, num_classes: int) -> MetricsReport:
    if len(pred) != len(gt):
        raise ValueError("prediction/ground-truth count mismatch")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(pred, gt):
        p = np.asarray(p)
        g = np.asarray(g)
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
        valid = g != IGNORE_LABEL
        # int64 before the arithmetic: uint8 labels times num_classes would wrap
        gv, pv = g[valid].astype(np.int64, copy=False), p[valid].astype(np.int64, copy=False)
        if np.any((gv < 0) | (gv >= num_classes)):
            raise ValueError("ground-truth label out of range")
        if np.any((pv < 0) | (pv >= num_classes)):
            raise ValueError("predicted class out of range")
        confusion += np.bincount(
            (gv * num_classes + pv).ravel(), minlength=num_classes * num_classes
        ).reshape(num_classes, num_classes)
    total = int(confusion.sum())
    if total == 0:
        raise ValueError("no valid pixels")
    per_class: list[tuple[int, float | None]] = []
    ious = []
    for c in range(num_classes):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum()) - tp
        fn = int(confusion[c, :].sum()) - tp
        if tp + fp + fn == 0:
            per_class.append((c, None))  # class absent from both: excluded from the mean
        else:
            iou = tp / (tp + fp + fn)
            per_class.append((c, iou))
            ious.append(iou)
    return MetricsReport(
        miou=float(np.mean(ious)),
        per_class_iou=per_class,
        pixel_accuracy=float(np.trace(confusion) / total),
        confusion=confusion,
    )


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def _similarity_from_vectors(vectors: list[np.ndarray]) -> np.ndarray:
    n = len(vectors)
    mat = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = cosine_similarity(vectors[i], vectors[j])
    return mat


def prediction_similarity_matrix(maps) -> np.ndarray:
    """Cosine similarity between members' probability maps over one split.

    Each member's maps are one (N,C,H,W) array, images in the same order.
    """
    if len(maps) < 2:
        raise ValueError("need at least two members")
    # float32 views: cosine_similarity upcasts one pair at a time
    return _similarity_from_vectors([np.asarray(m).ravel() for m in maps])


def parameter_similarity_matrix(members) -> np.ndarray:
    from .nets import flatten_parameters

    vecs = [flatten_parameters(g) for g in members]
    if len({v.size for v in vecs}) != 1:
        raise ValueError("members must share one architecture")
    return _similarity_from_vectors(vecs)


def mean_offdiagonal(mat: np.ndarray) -> float:
    n = mat.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(mat[mask].mean())


def four_case_table(p0, p1, gt) -> FourCaseTable:
    if not (len(p0) == len(p1) == len(gt)):
        raise ValueError(f"map count mismatch: {len(p0)}, {len(p1)} and {len(gt)}")
    counts = dict.fromkeys(_CASES, 0)
    for a, b, g in zip(p0, p1, gt):
        a, b, g = np.asarray(a), np.asarray(b), np.asarray(g)
        if not (a.shape == b.shape == g.shape):
            raise ValueError(f"shape mismatch {a.shape}, {b.shape} vs {g.shape}")
        valid = g != IGNORE_LABEL
        c0 = (a == g) & valid
        c1 = (b == g) & valid
        counts["both_correct"] += int((c0 & c1).sum())
        counts["g0_only"] += int((c0 & ~c1).sum())
        counts["g1_only"] += int((~c0 & c1 & valid).sum())
        counts["both_wrong"] += int((~c0 & ~c1 & valid).sum())
    total = sum(counts.values())
    if total == 0:
        fractions = dict.fromkeys(_CASES, 0.0)
    else:
        fractions = {k: v / total for k, v in counts.items()}
    return FourCaseTable(counts=counts, fractions=fractions)

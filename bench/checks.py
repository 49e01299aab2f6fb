"""Correctness checks on the files the seqens CLI writes.

Each check reads the program's outputs with the benchmark's own parsers and
compares them against computations made here (confusion counts, softmax
means, cosines) or against properties the method must have. Every check
returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

# CSV values are written with six decimals
CSV_TOL = 5e-7 + 1e-12


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in f if line.strip()]


def read_pgm(path: str) -> np.ndarray:
    """Binary P5 with a `P5\\n<w> <h>\\n255\\n` header, as the program writes it."""
    with open(path, "rb") as f:
        blob = f.read()
    fields = blob.split(b"\n", 3)
    if fields[0] != b"P5" or len(fields) < 4 or fields[2] != b"255":
        raise ValueError(f"{path}: not a P5 file with maxval 255")
    w, h = (int(v) for v in fields[1].split())
    data = np.frombuffer(fields[3], dtype=np.uint8)
    if data.size != w * h:
        raise ValueError(f"{path}: payload has {data.size} bytes, expected {w * h}")
    return data.reshape(h, w).astype(np.int64)


def read_labels(data_dir: str, split: str) -> list[np.ndarray]:
    with open(os.path.join(data_dir, "manifest.csv"), encoding="utf-8") as f:
        rows = [line.strip().split(",") for line in f.readlines()[1:] if line.strip()]
    return [read_pgm(os.path.join(data_dir, r[3])) for r in rows if r[1] == split]


def read_dump(directory: str, count: int, num_classes: int) -> list[np.ndarray]:
    """Label maps written by `--dump`, which stores class c as c * (255 // (C - 1))."""
    scale = 255 // (num_classes - 1)
    maps = [read_pgm(os.path.join(directory, f"pred_{i:05d}.pgm")) for i in range(count)]
    for m in maps:
        if np.any(m % scale) or m.max(initial=0) > scale * (num_classes - 1):
            raise ValueError(f"{directory}: dumped values are not multiples of {scale}")
    return [m // scale for m in maps]


def tree_digest(directory: str) -> str:
    """SHA-256 over the relative paths and bytes of every file under `directory`."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _close(value: str, expected: float) -> bool:
    try:
        return abs(float(value) - expected) <= CSV_TOL
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# training


def check_history(path: str, steps_per_epoch: int, epochs: int) -> list[str]:
    rows = read_csv(path)
    losses = [float(r["value"]) for r in rows if r["record"] == "step_loss"]
    problems = []
    if len(losses) != steps_per_epoch * epochs:
        problems.append(f"{len(losses)} step losses, expected {steps_per_epoch * epochs}")
        return problems
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite step loss at steps {bad[:5]}")
        return problems
    first = sum(losses[:steps_per_epoch]) / steps_per_epoch
    last = sum(losses[-steps_per_epoch:]) / steps_per_epoch
    if not last < first:
        problems.append(f"last epoch mean loss {last:.6f} is not below the first {first:.6f}")
    return problems


def check_gradients(points, rtol: float = 1e-4, atol: float = 1e-8) -> list[str]:
    """points: (part, coordinate, tape gradient, central difference)."""
    problems = []
    for part, label, tape, diff in points:
        if not (math.isfinite(tape) and abs(tape - diff) <= atol + rtol * max(abs(tape), abs(diff))):
            problems.append(f"{part} {label}: tape {tape:.9g} vs central difference {diff:.9g}")
    return problems


# ---------------------------------------------------------------------------
# evaluation


def confusion(preds, gts, num_classes: int, ignore_label: int | None = 255) -> np.ndarray:
    conf = np.zeros(num_classes * num_classes, dtype=np.int64)
    for p, g in zip(preds, gts, strict=True):
        valid = g != ignore_label if ignore_label is not None else np.ones(g.shape, bool)
        conf += np.bincount(g[valid] * num_classes + p[valid], minlength=num_classes**2)
    return conf.reshape(num_classes, num_classes)


def scores(conf: np.ndarray) -> tuple[float, float, list[float | None]]:
    """(mIoU over classes present in prediction or truth, pixel accuracy, per-class IoU)."""
    ious = []
    for c in range(conf.shape[0]):
        union = conf[c, :].sum() + conf[:, c].sum() - conf[c, c]
        ious.append(None if union == 0 else conf[c, c] / union)
    present = [v for v in ious if v is not None]
    return sum(present) / len(present), np.trace(conf) / conf.sum(), ious


def check_metrics_row(row: dict[str, str], preds, gts, num_classes: int) -> list[str]:
    miou, acc, ious = scores(confusion(preds, gts, num_classes))
    problems = []
    where = f"{row.get('mode')}/{row.get('member_or_generation')}"
    if not _close(row["miou"], miou):
        problems.append(f"{where}: miou {row['miou']} but the dumped labels give {miou:.6f}")
    if not _close(row["pixel_acc"], acc):
        problems.append(f"{where}: pixel_acc {row['pixel_acc']} but the labels give {acc:.6f}")
    for c, iou in enumerate(ious):
        cell = row.get(f"iou_class{c}", "")
        if (iou is None) != (cell == "") or (iou is not None and not _close(cell, iou)):
            problems.append(f"{where}: iou_class{c} {cell!r} but the labels give {iou}")
    return problems


def softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sim_expected(member_logits, temperature: float):
    """Argmax of the mean of temperature-scaled member softmaxes, and its top-2 gap.

    member_logits: one (N, C, H, W) array per member.
    """
    mean = np.mean([softmax(np.asarray(l, np.float64) / temperature, 1) for l in member_logits], 0)
    top2 = np.sort(mean, axis=1)[:, -2:]
    return np.argmax(mean, axis=1), top2[:, 1] - top2[:, 0]


def near_tie_pixels(logits, tol: float = 1e-5) -> int:
    """Pixels whose top two logits (N, C, H, W) are closer than float32 can order reliably."""
    top2 = np.sort(np.asarray(logits, np.float64), axis=1)[:, -2:]
    return int((top2[:, 1] - top2[:, 0] <= tol * np.maximum(1.0, np.abs(top2[:, 1]))).sum())


def check_sim_labels(dumped, expected, gap, tie_gap: float = 1e-5) -> list[str]:
    """The program combines in float32; pixels whose top two classes lie within
    float32 rounding of each other may break either way."""
    got = np.stack(dumped)
    wrong = (got != expected) & (gap > tie_gap)
    if wrong.any():
        return [f"SIM labels differ from the mean of tempered softmaxes at {int(wrong.sum())} pixels"]
    return []


def check_calibration(path: str, correct: int, valid_pixels: int, near_ties: int) -> list[str]:
    """ECE in [0, 1]; the correct-pixel count at T = 1 equals `correct`, and at
    other temperatures differs from it by at most the `near_ties` pixels whose
    top two logits lie within float32 rounding of each other."""
    problems = []
    for row in read_csv(path):
        ece = float(row["ece"])
        if not 0.0 <= ece <= 1.0:
            problems.append(f"T={row['T']}: ECE {ece} outside [0, 1]")
        bins = sorted({k.split("_")[0] for k in row if k.startswith("bin")})
        counts = [int(row[f"{b}_count"]) for b in bins]
        hits = sum(round(int(row[f"{b}_count"]) * float(row[f"{b}_acc"])) for b in bins)
        if sum(counts) != valid_pixels:
            problems.append(f"T={row['T']}: bins hold {sum(counts)} pixels, expected {valid_pixels}")
        slack = 0 if float(row["T"]) == 1.0 else near_ties
        if abs(hits - correct) > slack:
            problems.append(f"T={row['T']}: {hits} correct pixels, the chain's labels give {correct}")
    return problems


def check_fourcase(path: str, valid_pixels: int, g0_correct: int) -> list[str]:
    counts = {r["case"]: int(r["count"]) for r in read_csv(path)}
    problems = []
    if sum(counts.values()) != valid_pixels:
        problems.append(f"four-case counts sum to {sum(counts.values())}, expected {valid_pixels}")
    if counts.get("both_correct", 0) + counts.get("g0_only", 0) != g0_correct:
        problems.append(f"both_correct + g0_only != {g0_correct} correct G0 pixels")
    return problems


def check_diversity(path: str, param_vectors: list[np.ndarray]) -> list[str]:
    rows = read_csv(path)
    n = len(param_vectors)
    cells = {(int(r["i"]), int(r["j"])): r for r in rows}
    problems = []
    if set(cells) != {(i, j) for i in range(n) for j in range(n)}:
        return [f"diversity report does not hold an {n}x{n} matrix"]
    for (i, j), r in cells.items():
        for col in ("pred_cosine", "param_cosine"):
            if i == j and r[col] != "1.000000":
                problems.append(f"{col}[{i},{i}] = {r[col]}, expected 1")
            if r[col] != cells[(j, i)][col]:
                problems.append(f"{col} not symmetric at ({i},{j})")
        if i != j:
            a, b = param_vectors[i], param_vectors[j]
            cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            if not _close(r["param_cosine"], cos):
                problems.append(f"param_cosine[{i},{j}] = {r['param_cosine']}, expected {cos:.6f}")
    return problems


def flat_parameters(tensors: dict[str, np.ndarray]) -> np.ndarray:
    """One float64 vector of a checkpoint's tensors in name order."""
    return np.concatenate([tensors[k].ravel() for k in sorted(tensors)]).astype(np.float64)


def correct_pixels(preds, gts, ignore_label: int | None = 255) -> int:
    return int(sum(((p == g) & (g != ignore_label)).sum() for p, g in zip(preds, gts, strict=True)))


def check_chain_differs(chain, g0) -> list[str]:
    if all(np.array_equal(a, b) for a, b in zip(chain, g0, strict=True)):
        return ["the chain's labels equal G0's on every pixel"]
    return []

"""Self-tests of the benchmark's correctness checks.

Each check must pass on real program output and reject a deliberately
corrupted copy of it. Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pytest

import checks
import run


class TinyStudy(run.StudyEval):
    """The study workload shrunk to a 4-image 32x32 val split."""

    train_count, val_count, side = 8, 4, 32


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("study"))
    wl = TinyStudy(run.import_program(), work, seed=3)
    wl.setup()
    for argv in wl.commands():
        assert wl.cli.run(argv) == 0, argv
    shutil.copytree(wl.out(), os.path.join(work, "pristine"))
    return wl


@pytest.fixture
def copy(study):
    """The round's outputs as the program wrote them, to corrupt."""
    shutil.rmtree(study.out())
    shutil.copytree(os.path.join(study.work, "pristine"), study.out())
    return study


def write_pgm(path, arr):
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h) + arr.astype(np.uint8).tobytes())


def flip_pixel(path, where=(0, 0), scale=85):
    arr = checks.read_pgm(path)
    arr[where] = (arr[where] + scale) % (4 * scale)
    write_pgm(path, arr)


def edit_csv(path, row, column, fn):
    rows = checks.read_csv(path)
    header = list(rows[0])
    rows[row][column] = fn(rows[row][column])
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(r[h] for h in header) + "\n")


def test_round_outputs_pass(copy):
    assert copy.check() == []


def test_member_label_off_by_one_pixel(copy):
    flip_pixel(copy.out("members/member2/pred_00001.pgm"), (5, 7))
    assert any("single/2" in p for p in copy.check())


def test_miou_off_by_one_pixel(copy):
    conf = checks.confusion(
        checks.read_dump(copy.out("chain"), copy.val_count, 4), copy.gts, 4
    )
    union = conf.sum(0) + conf.sum(1) - np.diag(conf)
    one_pixel = 1.0 / union.max() / 4  # the smallest change one pixel makes to the mean
    edit_csv(copy.out("eval_chain.csv"), 0, "miou", lambda v: f"{float(v) + one_pixel:.6f}")
    assert any("miou" in p for p in copy.check())


def test_sim_label_corrupted(copy):
    gap = copy.sim_gap[0]
    y, x = np.unravel_index(np.argmax(gap), gap.shape)
    flip_pixel(copy.out("sim/pred_00000.pgm"), (y, x))
    assert any("SIM" in p for p in copy.check())


def test_calibration_ece_out_of_range(copy):
    edit_csv(copy.out("calibrate.csv"), 2, "ece", lambda v: "1.500000")
    assert any("ECE" in p for p in copy.check())


def test_calibration_correct_count_changed(copy):
    edit_csv(copy.out("calibrate.csv"), 1, "bin9_count", lambda v: str(int(v) + 1))
    assert copy.check()


def test_fourcase_one_count_short(copy):
    edit_csv(copy.out("fourcase.csv"), 0, "count", lambda v: str(int(v) - 1))
    assert any("four-case" in p for p in copy.check())


def test_fourcase_g0_correct_mismatch(copy):
    edit_csv(copy.out("fourcase.csv"), 0, "count", lambda v: str(int(v) - 1))
    edit_csv(copy.out("fourcase.csv"), 3, "count", lambda v: str(int(v) + 1))
    assert any("G0" in p for p in copy.check())


def test_diversity_param_cosine_off(copy):
    edit_csv(copy.out("diversity.csv"), 1, "param_cosine", lambda v: f"{float(v) + 1e-5:.6f}")
    assert any("param_cosine" in p for p in copy.check())


def test_diversity_not_symmetric(copy):
    edit_csv(copy.out("diversity.csv"), 1, "pred_cosine", lambda v: f"{float(v) - 1e-4:.6f}")
    assert any("symmetric" in p for p in copy.check())


def test_chain_equal_to_g0(copy):
    for i in range(copy.val_count):
        shutil.copy(
            copy.out(f"members/member0/pred_{i:05d}.pgm"), copy.out(f"chain/pred_{i:05d}.pgm")
        )
    assert any("equal G0" in p for p in copy.check())


def history(path, losses):
    with open(path, "w", encoding="utf-8") as f:
        f.write("record,index,value\n")
        f.writelines(f"step_loss,{i},{v:.6f}\n" for i, v in enumerate(losses))
        f.write("val_miou,0,0.200000\nfinal_lr,0,0.000000\n")
    return path


def test_round_digest(copy):
    before = checks.tree_digest(copy.out())
    flip_pixel(copy.out("chain/pred_00003.pgm"), (1, 1))
    assert checks.tree_digest(copy.out()) != before


def test_history(tmp_path):
    good = list(np.linspace(1.4, 1.0, 50))
    assert checks.check_history(history(tmp_path / "h.csv", good), 25, 2) == []
    assert checks.check_history(history(tmp_path / "h.csv", good[:-1] + [math.nan]), 25, 2)
    assert checks.check_history(history(tmp_path / "h.csv", good[::-1]), 25, 2)
    assert checks.check_history(history(tmp_path / "h.csv", good[:-1]), 25, 2)


@pytest.mark.parametrize("generation", [0, 1])
def test_gradients(study, generation):
    ckpt = study.chain_ckpts[generation]
    cond = study.chain_ckpts[0] if generation else None
    points = run.gradient_points(ckpt, study.data, seed=5, cond_ckpt=cond, per_part=1)
    parts = {p[0] for p in points}
    assert {"stem", "layer1", "layer2", "layer3", "head"} <= parts
    assert generation == 0 or {"adon_early", "adon_middle", "adon_late"} <= parts
    assert checks.check_gradients(points) == []
    # the largest tape gradient, off by 1%
    i = max(range(len(points)), key=lambda j: abs(points[j][2]))
    part, label, tape, diff = points[i]
    assert checks.check_gradients([(part, label, tape * 1.01, diff)])
    assert checks.check_gradients([(part, label, math.nan, diff)])

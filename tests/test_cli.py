import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from seqens.cli import run

BASE_CFG = """
data.count = 12
data.val_count = 4
data.height = 16
data.width = 16
data.seed = 3
arch.layer_channels = 4,6,8
arch.adon_latent = 4
train.epochs = 1
train.batch_size = 4
train.seed = 5
train.crop_h = 16
train.crop_w = 16
"""

ADON_CFG = BASE_CFG.replace("train.seed = 5", "train.seed = 6") + """
arch.conditioning = adon
arch.adon_placements = middle
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(BASE_CFG)
    adon_cfg = root / "adon.cfg"
    adon_cfg.write_text(ADON_CFG)
    data = str(root / "data")
    assert run(["gen-data", "--spec", str(cfg), "--out", data]) == 0
    g0 = str(root / "g0")
    assert run(["train", "--config", str(cfg), "--data", data, "--out", g0]) == 0
    g0b_cfg = root / "runb.cfg"
    g0b_cfg.write_text(BASE_CFG.replace("train.seed = 5", "train.seed = 7"))
    g0b = str(root / "g0b")
    assert run(["train", "--config", str(g0b_cfg), "--data", data, "--out", g0b]) == 0
    g1 = str(root / "g1")
    assert (
        run(
            [
                "train", "--config", str(adon_cfg), "--data", data, "--out", g1,
                "--condition", os.path.join(g0, "generation.ckpt"),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "cfg": str(cfg),
        "data": data,
        "g0": os.path.join(g0, "generation.ckpt"),
        "g0b": os.path.join(g0b, "generation.ckpt"),
        "g1": os.path.join(g1, "generation.ckpt"),
    }


def read_csv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_gen_data_layout(workspace):
    data = workspace["data"]
    assert os.path.exists(os.path.join(data, "manifest.csv"))
    assert os.path.exists(os.path.join(data, "config.resolved"))
    names = os.listdir(data)
    assert sum(n.endswith(".ppm") for n in names) == 12
    assert sum(n.endswith(".pgm") for n in names) == 12


def test_gen_data_rerun_is_byte_identical(workspace, tmp_path):
    again = str(tmp_path / "data2")
    assert run(["gen-data", "--spec", workspace["cfg"], "--out", again]) == 0
    for name in sorted(os.listdir(workspace["data"])):
        a = open(os.path.join(workspace["data"], name), "rb").read()
        b = open(os.path.join(again, name), "rb").read()
        assert a == b, name


def test_train_outputs(workspace):
    out = os.path.dirname(workspace["g0"])
    header, rows = read_csv(os.path.join(out, "history.csv"))
    assert header == ["record", "index", "value"]
    kinds = {r[0] for r in rows}
    assert kinds == {"step_loss", "val_miou", "final_lr"}


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    out = str(tmp_path / "retrain")
    assert run(["train", "--config", workspace["cfg"], "--data", workspace["data"], "--out", out]) == 0
    a = open(workspace["g0"], "rb").read()
    b = open(os.path.join(out, "generation.ckpt"), "rb").read()
    assert a == b


def test_eval_report_columns(workspace, tmp_path):
    report = str(tmp_path / "eval.csv")
    assert run(["eval", "--ckpt", workspace["g0"], "--ckpt", workspace["g0b"], "--data", workspace["data"], "--report", report]) == 0
    header, rows = read_csv(report)
    assert header[:8] == ["run_id", "mode", "member_or_generation", "N", "strategy", "T", "miou", "pixel_acc"]
    assert header[8:] == [f"iou_class{c}" for c in range(4)]
    assert len(rows) == 2
    for row in rows:
        assert row[1] == "single"
        float(row[6])  # miou parses
        assert "." in row[6] and len(row[6].split(".")[1]) == 6


def test_eval_chain_and_dump(workspace, tmp_path):
    report = str(tmp_path / "chain.csv")
    dump = str(tmp_path / "dump")
    assert (
        run(
            [
                "eval", "--ckpt", workspace["g0"], "--ckpt", workspace["g1"],
                "--data", workspace["data"], "--report", report, "--chain",
                "--self-loops", "1", "--dump", dump,
            ]
        )
        == 0
    )
    _, rows = read_csv(report)
    assert len(rows) == 1 and rows[0][1] == "seq"
    assert sorted(os.listdir(dump)) == [f"pred_{i:05d}.pgm" for i in range(4)]
    from seqens.data import decode_pgm

    lab = decode_pgm(open(os.path.join(dump, "pred_00000.pgm"), "rb").read())
    assert lab.shape == (16, 16)


def test_ensemble_modes_and_rerun_identical(workspace, tmp_path):
    sim = str(tmp_path / "sim.csv")
    args = [
        "ensemble", "--mode", "sim", "--strategy", "median",
        "--ckpt", workspace["g0"], "--ckpt", workspace["g0b"],
        "--data", workspace["data"], "--report", sim,
    ]
    assert run(args) == 0
    first = open(sim, "rb").read()
    assert run(args) == 0
    assert open(sim, "rb").read() == first
    header, rows = read_csv(sim)
    assert rows[0][1] == "sim" and rows[0][4] == "median" and rows[0][3] == "2"


def test_calibrate_grid(workspace, tmp_path):
    report = str(tmp_path / "cal.csv")
    assert (
        run(
            [
                "calibrate", "--ckpt", workspace["g0"], "--data", workspace["data"],
                "--grid", "1", "--bins", "4", "--report", report,
            ]
        )
        == 0
    )
    header, rows = read_csv(report)
    assert len(rows) == 1
    assert header[:2] == ["T", "ece"]
    assert len(header) == 2 + 3 * 4
    assert float(rows[0][0]) == 1.0


def test_calibrate_requires_identity_in_grid(workspace, tmp_path, capsys):
    report = str(tmp_path / "cal2.csv")
    code = run(
        [
            "calibrate", "--ckpt", workspace["g0"], "--data", workspace["data"],
            "--grid", "2,4", "--report", report,
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_diversity_report(workspace, tmp_path):
    report = str(tmp_path / "div.csv")
    assert (
        run(
            [
                "diversity", "--ckpt", workspace["g0"], "--ckpt", workspace["g0b"],
                "--data", workspace["data"], "--report", report,
            ]
        )
        == 0
    )
    header, rows = read_csv(report)
    assert header == ["i", "j", "pred_cosine", "param_cosine"]
    assert len(rows) == 4
    diag = [r for r in rows if r[0] == r[1]]
    for r in diag:
        assert float(r[2]) == pytest.approx(1.0)
        assert float(r[3]) == pytest.approx(1.0)


def test_fourcase_report(workspace, tmp_path):
    report = str(tmp_path / "fc.csv")
    assert (
        run(
            [
                "fourcase", "--ckpt", workspace["g0"], "--ckpt", workspace["g1"],
                "--data", workspace["data"], "--report", report,
            ]
        )
        == 0
    )
    header, rows = read_csv(report)
    assert header == ["case", "count", "fraction"]
    assert [r[0] for r in rows] == ["both_correct", "g0_only", "g1_only", "both_wrong"]
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-5)
    assert sum(int(r[1]) for r in rows) == 4 * 16 * 16


def test_fourcase_runs_each_generation_once_per_image(workspace, tmp_path, monkeypatch):
    from seqens import nets
    from seqens.analysis import four_case_table
    from seqens.data import generation_from_checkpoint, load_checkpoint, load_split
    from seqens.ensembling import chain_provider

    forwarded, real = [], nets.forward_logits

    def counting(g, image, *args, **kwargs):
        forwarded.append(image.shape[0])
        return real(g, image, *args, **kwargs)

    report = tmp_path / "fc.csv"
    monkeypatch.setattr(nets, "forward_logits", counting)
    args = ["--ckpt", workspace["g0"], "--ckpt", workspace["g1"], "--data", workspace["data"]]
    assert run(["fourcase", *args, "--report", str(report)]) == 0
    assert sum(forwarded) == 2 * 4  # G0 and G1, once over each of the 4 val images
    monkeypatch.undo()

    # the table of one G0 pass and a separate chain pass
    g0, g1 = (generation_from_checkpoint(load_checkpoint(workspace[k])) for k in ("g0", "g1"))
    val = load_split(workspace["data"], "val")
    images = np.stack([s.image for s in val])
    l0 = nets.predict(g0, images).probs.argmax(axis=1)
    l1 = chain_provider([g0, g1])(images).argmax(axis=1)
    table = four_case_table(l0, l1, [s.label for s in val])
    _, rows = read_csv(report)
    assert {r[0]: int(r[1]) for r in rows} == table.counts


def test_unwritable_outputs_exit_2_before_anything_loads(workspace, tmp_path, capsys, monkeypatch):
    import seqens.cli as cli
    from seqens import nets

    events, load, forward = [], cli._load_generations, nets.forward_logits
    monkeypatch.setattr(cli, "_load_generations", lambda paths: events.append("load") or load(paths))
    monkeypatch.setattr(nets, "forward_logits", lambda *a, **k: events.append("forward") or forward(*a, **k))
    folder = str(tmp_path)  # a directory where a file belongs
    afile = tmp_path / "a_file"
    afile.write_text("")  # a file where a directory belongs
    two = ["--ckpt", workspace["g0"], "--ckpt", workspace["g0b"], "--data", workspace["data"]]
    chain = ["--ckpt", workspace["g0"], "--ckpt", workspace["g1"], "--data", workspace["data"]]
    ok = str(tmp_path / "r.csv")
    for argv in (
        ["eval", *two, "--report", folder],
        ["eval", *two, "--report", str(afile / "r.csv")],
        ["eval", "--chain", *chain, "--report", ok, "--dump", str(afile)],
        ["ensemble", "--mode", "sim", *two, "--report", folder],
        ["ensemble", "--mode", "sim", *two, "--report", ok, "--dump", str(afile / "sub")],
        ["calibrate", *chain, "--report", folder],
        ["diversity", *two, "--report", folder],
        ["fourcase", *chain, "--report", folder],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert events == [], argv
    assert not os.path.exists(ok)


SPLIT_RUN = """
import os, sys
from seqens.cli import run

cpus, g0, g0b, g1, data, out = sys.argv[1:]
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
chain = ["--ckpt", g0, "--ckpt", g1, "--data", data]
for argv in (
    ["eval", "--chain", "--self-loops", "1", *chain, "--report", out + "/chain.csv", "--dump", out + "/chain"],
    ["calibrate", *chain, "--report", out + "/calibrate.csv"],
    ["ensemble", "--mode", "sim", "--ckpt", g0, "--ckpt", g0b, "--data", data,
     "--report", out + "/sim.csv", "--dump", out + "/sim"],
):
    assert run(argv) == 0, argv
"""


def test_reports_and_dumps_match_on_one_cpu_and_on_all(workspace, tmp_path):
    import seqens

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqens.__file__)))
    trees = []
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        ckpts = [workspace[k] for k in ("g0", "g0b", "g1")]
        res = subprocess.run(
            [sys.executable, "-c", SPLIT_RUN, cpus, *ckpts, workspace["data"], str(out)],
            env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        trees.append({
            os.path.relpath(os.path.join(d, f), out): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(out) for f in files
        })
    assert len(trees[0]) == 3 + 2 * 4  # three reports, two dumps of 4 maps
    assert trees[0] == trees[1]


def test_usage_errors_exit_1(workspace, capsys, tmp_path, monkeypatch):
    import seqens.cli as cli

    assert run(["eval", "--data", workspace["data"], "--report", "r.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["reproduce", "--name", "nonexistent", "--out", str(tmp_path)]) == 1
    assert run(["fourcase", "--ckpt", workspace["g0"], "--data", workspace["data"], "--report", str(tmp_path / "x.csv")]) == 1
    # refused before any checkpoint or split loads
    loads, load = [], cli._load_generations
    monkeypatch.setattr(cli, "_load_generations", lambda paths: loads.append(paths) or load(paths))
    assert run(["diversity", "--ckpt", workspace["g0"], "--data", workspace["data"], "--report", str(tmp_path / "x.csv")]) == 1
    assert "two --ckpt" in capsys.readouterr().err
    one = ["--ckpt", workspace["g0"], "--data", workspace["data"]]
    two = ["--ckpt", workspace["g1"], *one]
    report = ["--report", str(tmp_path / "x.csv")]
    for argv in (
        ["calibrate", *one, "--grid", "abc"],
        ["calibrate", *one, "--grid", "2,4"],
        ["calibrate", *one, "--grid", "1,nan"],
        ["calibrate", *one, "--bins", "0"],
        ["ensemble", "--mode", "sim", *two, "--t", "0"],
        ["eval", "--chain", *two, "--self-loops", "-1"],
        ["eval", *two, "--self-loops", "3"],
        # a chain is evaluated by `eval --chain`; `ensemble` has no seq mode
        ["ensemble", "--mode", "seq", *two],
        ["ensemble", "--mode", "sim", *two, "--self-loops", "1"],
    ):
        assert run(argv + report) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert loads == []
    assert not os.path.exists(tmp_path / "x.csv")


def test_data_errors_exit_2(workspace, capsys, tmp_path):
    assert run(["gen-data", "--spec", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "d")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("data.bogus = 1\n")
    assert run(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    truncated = tmp_path / "broken.ckpt"
    truncated.write_bytes(b"SQEN\x01\x00")
    assert (
        run(["eval", "--ckpt", str(truncated), "--data", workspace["data"], "--report", str(tmp_path / "r.csv")])
        == 2
    )

    # a checkpoint cut short inside its metadata block
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(open(workspace["g0"], "rb").read()[:40])
    assert run(["eval", "--ckpt", str(cut), "--data", workspace["data"], "--report", str(tmp_path / "r.csv")]) == 2
    assert "checkpoint metadata" in capsys.readouterr().err


def test_unreadable_path_exits_2_without_a_traceback(workspace, tmp_path, capsys):
    folder = str(tmp_path)  # a directory where a file belongs
    eval_args = ["eval", "--data", workspace["data"]]
    for argv in (
        eval_args + ["--ckpt", folder, "--report", str(tmp_path / "r.csv")],
        eval_args + ["--ckpt", workspace["g0"], "--report", folder],
        ["gen-data", "--spec", folder, "--out", str(tmp_path / "d")],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_checkpoint_copied_alone_evaluates_like_the_original(workspace, tmp_path):
    copy = tmp_path / "renamed.ckpt"
    copy.write_bytes(open(workspace["g1"], "rb").read())
    rows = []
    for i, ckpt in enumerate((workspace["g1"], str(copy))):
        report = str(tmp_path / f"{i}.csv")
        args = ["eval", "--chain", "--ckpt", workspace["g0"], "--ckpt", ckpt, "--data", workspace["data"]]
        assert run(args + ["--report", report]) == 0
        rows.append(read_csv(report)[1])  # run_id hashes the checkpoint bytes, not the paths
    assert rows[0] == rows[1]


def test_empty_val_split_exits_2_from_every_evaluation_command(workspace, tmp_path, capsys):
    spec = tmp_path / "noval.cfg"
    spec.write_text(BASE_CFG.replace("data.val_count = 4", "data.val_count = 0"))
    data = str(tmp_path / "noval")
    assert run(["gen-data", "--spec", str(spec), "--out", data]) == 0
    two = ["--ckpt", workspace["g0"], "--ckpt", workspace["g1"], "--data", data]
    for cmd in (
        ["eval"], ["eval", "--chain"], ["ensemble", "--mode", "sim"],
        ["calibrate"], ["diversity"], ["fourcase"],
    ):
        report = tmp_path / "r.csv"
        assert run(cmd + two + ["--report", str(report)]) == 2, cmd
        assert "empty split" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("val_count", [-3, 13])
def test_gen_data_rejects_val_count_outside_count(tmp_path, capsys, val_count):
    spec = tmp_path / "task.cfg"
    spec.write_text(BASE_CFG.replace("data.val_count = 4", f"data.val_count = {val_count}"))
    assert run(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
    assert "data.val_count" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_non_finite_training_exits_2_and_saves_nothing(workspace, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(BASE_CFG.replace("train.epochs = 1", "train.epochs = 4") + "train.lr0 = 1e6\n")
    out = tmp_path / "diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["train", "--config", str(cfg), "--data", workspace["data"], "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(out / "generation.ckpt")
    assert not os.path.exists(out / "history.csv")


def test_repeated_condition_trains_the_next_generation_of_a_chain(workspace, tmp_path, capsys):
    from seqens.config import backbone_config_from, load_config, train_config_from
    from seqens.data import generation_from_checkpoint, load_checkpoint, load_split
    from seqens.ensembling import chain_provider
    from seqens.nets import build_generation, flatten_parameters
    from seqens.training import train_generation

    cfg_path = tmp_path / "g2.cfg"
    cfg_path.write_text(ADON_CFG.replace("train.seed = 6", "train.seed = 8"))
    out = str(tmp_path / "g2")
    args = ["train", "--config", str(cfg_path), "--data", workspace["data"], "--out", out]
    assert run(args + ["--condition", workspace["g0"], "--condition", workspace["g1"]]) == 0
    ckpt = load_checkpoint(os.path.join(out, "generation.ckpt"))
    assert ckpt.metadata["generation_index"] == "2"

    cfg = load_config(str(cfg_path))
    tcfg = train_config_from(cfg)
    prefix = [generation_from_checkpoint(load_checkpoint(workspace[k])) for k in ("g0", "g1")]
    g2 = build_generation(backbone_config_from(cfg), seed=tcfg.seed, index=2)
    data = workspace["data"]
    train_generation(g2, load_split(data, "train"), load_split(data, "val"), tcfg, chain_provider(prefix))
    np.testing.assert_array_equal(
        flatten_parameters(generation_from_checkpoint(ckpt)), flatten_parameters(g2)
    )

    # the prefix must start at an unconditioned head
    assert run(args + ["--condition", workspace["g1"]]) == 2
    assert "chain head" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    import seqens

    src = os.path.dirname(os.path.dirname(seqens.__file__))
    code = (
        "import sys, seqens.cli, seqens.recipes; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


ONE_IMAGE_CFG = BASE_CFG.replace("data.count = 12", "data.count = 1").replace("data.val_count = 4", "data.val_count = 0")

# one cli.run, then ten cycles that each allocate and drop three 16 MB arrays;
# prints the minor page faults of the last nine cycles
FREED_MEMORY_PROBE = """
import resource, sys
import numpy as np
from seqens.cli import run

assert run(["gen-data", "--spec", sys.argv[1], "--out", sys.argv[2]]) == 0


def cycle():
    arrays = [np.ones(4 << 20, np.float32) for _ in range(3)]
    del arrays


cycle()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
def test_memory_freed_after_cli_run_is_reused_without_page_faults(tmp_path):
    import seqens

    spec = tmp_path / "one.cfg"
    spec.write_text(ONE_IMAGE_CFG)
    src = os.path.dirname(os.path.dirname(seqens.__file__))
    res = subprocess.run(
        [sys.executable, "-c", FREED_MEMORY_PROBE, str(spec), str(tmp_path / "d")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    # glibc's defaults mmap each block afresh and fault it in again: about 9,600
    assert int(res.stdout.strip().splitlines()[-1]) < 100


def test_cli_runs_without_mallopt(tmp_path, monkeypatch):
    from seqens import data

    data._openblas_threads()  # cached now, so the failing lookup below cannot reach it
    monkeypatch.setattr(data.ctypes, "CDLL", lambda name: object())  # a C library with no mallopt
    data._keep_freed_memory.cache_clear()
    try:
        assert data._keep_freed_memory() is None
        assert run(["reproduce", "--name", "nonexistent", "--out", str(tmp_path)]) == 1
        spec = tmp_path / "one.cfg"
        spec.write_text(ONE_IMAGE_CFG)
        assert run(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
    finally:
        data._keep_freed_memory.cache_clear()

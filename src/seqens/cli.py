"""Experiment harness: reproducible runs emitting CSV reports and PGM dumps."""

from __future__ import annotations

import argparse
import errno
import hashlib
import os
import sys

import numpy as np

from . import config as cfgmod
from .analysis import (
    four_case_table,
    parameter_similarity_matrix,
    prediction_similarity_matrix,
    segmentation_metrics,
)
from .calibration import CalibrationConfig, temperature_scale, temperature_sweep
from .data import (
    _batched_probs,
    _keep_freed_memory,
    _write_atomic,
    _write_csv,
    checkpoint_from_generation,
    encode_pgm,
    fmt,
    generate_sample,
    generation_from_checkpoint,
    load_checkpoint,
    load_split,
    save_checkpoint,
    write_manifest,
    write_sample,
)
from .ensembling import (
    COMBINE_KINDS, Chain, CombineStrategy, chain_predict, chain_provider, combine, stage_labels,
)
from .nets import build_generation, predict
from .training import train_generation


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_id(ckpt_paths: list[str], mode: str = "") -> str:
    """Names the models, not the paths they were read from: hashes each file's bytes."""
    h = hashlib.sha256(mode.encode("utf-8"))
    for path in ckpt_paths:
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:8]


def _metrics_header(num_classes: int) -> list[str]:
    return [
        "run_id",
        "mode",
        "member_or_generation",
        "N",
        "strategy",
        "T",
        "miou",
        "pixel_acc",
    ] + [f"iou_class{c}" for c in range(num_classes)]


def _metrics_row(run_id, mode, member, n, strategy, t, report) -> list[str]:
    row = [run_id, mode, str(member), str(n), strategy, fmt(t), fmt(report.miou), fmt(report.pixel_accuracy)]
    for _, iou in report.per_class_iou:
        row.append("" if iou is None else fmt(iou))
    return row


def dump_labels(directory: str, labels_list, num_classes: int) -> None:
    os.makedirs(directory, exist_ok=True)
    scale = 255 // (num_classes - 1)
    for i, lab in enumerate(labels_list):
        _write_atomic(os.path.join(directory, f"pred_{i:05d}.pgm"), encode_pgm(np.asarray(lab) * scale))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = cfgmod.load_config(args.spec)
    spec = cfgmod.dataset_spec_from(cfg)
    val_count = cfgmod.val_count_from(cfg)
    if not 0 <= val_count <= spec.count:
        raise UsageError(f"data.val_count {val_count} is outside 0..data.count ({spec.count})")
    os.makedirs(args.out, exist_ok=True)
    rows = []
    train_count = spec.count - val_count
    for i in range(spec.count):
        ip, lp = write_sample(args.out, i, generate_sample(spec, i))
        split = "train" if i < train_count else "val"
        rows.append((i, split, os.path.basename(ip), os.path.basename(lp)))
    write_manifest(args.out, rows)
    _write_atomic(os.path.join(args.out, "config.resolved"), cfgmod.resolved_text(cfg).encode("utf-8"))
    return 0


def _check_writable(path: str | None, is_dir: bool = False) -> None:
    """Raise the OSError that writing `path` would raise, before anything loads or runs."""
    if path is None:
        return
    if os.path.exists(path) and os.path.isdir(path) != is_dir:
        code = errno.ENOTDIR if is_dir else errno.EISDIR
        raise OSError(code, os.strerror(code), path)
    base = os.path.abspath(path if is_dir else os.path.dirname(os.path.abspath(path)))
    while not os.path.exists(base):  # the writer creates the missing directories below it
        base = os.path.dirname(base)
    if not os.path.isdir(base) or not os.access(base, os.W_OK):
        code = errno.EACCES if os.path.isdir(base) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), base)


def _load_generations(paths: list[str]):
    return [generation_from_checkpoint(load_checkpoint(p)) for p in paths]


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    arch = cfgmod.backbone_config_from(cfg)
    tcfg = cfgmod.train_config_from(cfg)
    train = load_split(args.data, "train")
    val = load_split(args.data, "val")

    # repeated --condition flags are the ordered chain prefix G0..G(k-1); this is G(k)
    conditions = _load_generations(args.condition)
    provider = None
    if arch.takes_map:
        if not conditions:
            raise UsageError("conditioned training needs at least one --condition checkpoint")
        provider = chain_provider(conditions)
    elif conditions:
        raise UsageError("--condition given but this architecture takes no conditioning")

    g = build_generation(arch, seed=tcfg.seed, index=len(conditions))
    history = train_generation(g, train, val, tcfg, provider)

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "generation.ckpt"), checkpoint_from_generation(g))
    _write_atomic(os.path.join(args.out, "config.resolved"), cfgmod.resolved_text(cfg).encode("utf-8"))
    rows = [["step_loss", str(i), fmt(v)] for i, v in enumerate(history.step_loss)]
    rows += [["val_miou", str(i), fmt(v)] for i, v in enumerate(history.epoch_val_miou)]
    rows.append(["final_lr", "0", fmt(history.final_lr)])
    _write_csv(os.path.join(args.out, "history.csv"), ["record", "index", "value"], rows)
    return 0


def cmd_eval(args) -> int:
    if args.self_loops < 0:
        raise UsageError("--self-loops must be >= 0")
    if args.self_loops and not args.chain:
        raise UsageError("--self-loops needs --chain")
    _check_writable(args.report)
    _check_writable(args.dump, is_dir=True)
    gens = _load_generations(args.ckpt)
    val = load_split(args.data, "val")
    num_classes = gens[0].config.num_classes
    gts = [s.label for s in val]
    run_id = _run_id(args.ckpt)
    rows = []
    if args.chain:
        labels = _batched_probs(chain_provider(gens, args.self_loops), val).argmax(axis=1)
        report = segmentation_metrics(labels, gts, num_classes)
        rows.append(
            _metrics_row(run_id, "seq", len(gens) - 1, len(gens), "chain", 1.0, report)
        )
        if args.dump:
            dump_labels(args.dump, labels, num_classes)
    else:
        for i, g in enumerate(gens):
            labels = _batched_probs(lambda im: predict(g, im).probs, val).argmax(axis=1)
            report = segmentation_metrics(labels, gts, num_classes)
            rows.append(_metrics_row(run_id, "single", i, 1, "none", 1.0, report))
            if args.dump:
                dump_labels(os.path.join(args.dump, f"member{i}"), labels, num_classes)
    _write_csv(args.report, _metrics_header(num_classes), rows)
    return 0


def cmd_ensemble(args) -> int:
    if not args.temperature > 0:
        raise UsageError("--t must be > 0")
    _check_writable(args.report)
    _check_writable(args.dump, is_dir=True)
    gens = _load_generations(args.ckpt)
    val = load_split(args.data, "val")
    num_classes = gens[0].config.num_classes
    gts = [s.label for s in val]
    run_id = _run_id(args.ckpt, args.mode)
    # at T = 1 this equals predict().probs bit for bit: scaling by 1.0 is exact
    member_probs = [
        temperature_scale(_batched_probs(lambda im, g=g: predict(g, im).logits, val), args.temperature)
        for g in gens
    ]
    labels = combine(member_probs, CombineStrategy(args.strategy)).argmax(axis=1)
    report = segmentation_metrics(labels, gts, num_classes)
    rows = [
        _metrics_row(
            run_id, args.mode, "ensemble", len(gens), args.strategy, args.temperature, report
        )
    ]
    _write_csv(args.report, _metrics_header(num_classes), rows)
    if args.dump:
        dump_labels(args.dump, labels, num_classes)
    return 0


def _calibration_rows(report, num_bins):
    rows = []
    for t, ece in report.per_temperature_ece:
        row = [fmt(t), fmt(ece)]
        for n, conf, acc in report.per_bin_by_temperature[t]:
            row += [str(n), fmt(conf), fmt(acc)]
        rows.append(row)
    header = ["T", "ece"]
    for b in range(num_bins):
        header += [f"bin{b}_count", f"bin{b}_conf", f"bin{b}_acc"]
    return header, rows


def cmd_calibrate(args) -> int:
    try:
        grid = tuple(sorted(float(t) for t in args.grid.split(",")))
        cfg = CalibrationConfig(num_bins=args.bins, temperature_grid=grid)
    except ValueError as e:
        raise UsageError(f"--grid/--bins: {e}") from None
    _check_writable(args.report)
    gens = _load_generations(args.ckpt)
    val = load_split(args.data, "val")

    chain = Chain(gens)  # one checkpoint is a chain of one
    logits = _batched_probs(lambda im: chain_predict(chain, im)[-1].logits, val)
    report = temperature_sweep(logits, [s.label for s in val], cfg)
    header, rows = _calibration_rows(report, cfg.num_bins)
    _write_csv(args.report, header, rows)
    return 0


def cmd_diversity(args) -> int:
    if len(args.ckpt) < 2:
        raise UsageError("diversity needs at least two --ckpt checkpoints")
    _check_writable(args.report)
    gens = _load_generations(args.ckpt)
    val = load_split(args.data, "val")
    pred_mat = prediction_similarity_matrix(
        [_batched_probs(lambda im, g=g: predict(g, im).probs, val) for g in gens]
    )
    param_mat = parameter_similarity_matrix(gens)
    rows = []
    for i in range(len(gens)):
        for j in range(len(gens)):
            rows.append([str(i), str(j), fmt(pred_mat[i, j]), fmt(param_mat[i, j])])
    _write_csv(args.report, ["i", "j", "pred_cosine", "param_cosine"], rows)
    return 0


def cmd_fourcase(args) -> int:
    if len(args.ckpt) != 2:
        raise UsageError("fourcase needs exactly two --ckpt checkpoints")
    _check_writable(args.report)
    g0, g1 = _load_generations(args.ckpt)
    val = load_split(args.data, "val")
    chain = Chain([g0, g1]) if g1.config.takes_map else None

    def labels_fn(im):
        # a chain's first stage is G0's own forward, so G1 reuses the map G0's labels come from
        bundles = chain_predict(chain, im) if chain else [predict(g, im) for g in (g0, g1)]
        return stage_labels([b.probs for b in bundles])

    labels = _batched_probs(labels_fn, val)
    table = four_case_table(labels[:, 0], labels[:, 1], [s.label for s in val])
    rows = [
        [case, str(table.counts[case]), fmt(table.fractions[case])]
        for case in ("both_correct", "g0_only", "g1_only", "both_wrong")
    ]
    _write_csv(args.report, ["case", "count", "fraction"], rows)
    return 0


def cmd_reproduce(args) -> int:
    from .recipes import RECIPES, reproduce_figure

    if args.name not in RECIPES:
        raise UsageError(f"unknown recipe {args.name!r}; choose from {sorted(RECIPES)}")
    reproduce_figure(args.name, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="seqens", description="sequential segmentation ensembling lab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train", help="train one generation")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--condition", action="append", default=[], metavar="CKPT")
    sp.set_defaults(fn=cmd_train)

    # the checkpoints, the dataset and the report path every evaluation command takes
    evaluation = _Parser(add_help=False)
    evaluation.add_argument("--ckpt", action="append", required=True)
    evaluation.add_argument("--data", required=True)
    evaluation.add_argument("--report", required=True)

    sp = sub.add_parser("eval", parents=[evaluation], help="evaluate checkpoints on the val split")
    sp.add_argument("--chain", action="store_true")
    sp.add_argument("--self-loops", type=int, default=0, dest="self_loops")
    sp.add_argument("--dump", default=None)
    sp.set_defaults(fn=cmd_eval)

    # --mode keeps one choice so existing command lines parse; `eval --chain` evaluates a chain
    sp = sub.add_parser(
        "ensemble", parents=[evaluation], help="evaluate a plain ensemble of independent members"
    )
    sp.add_argument("--mode", choices=("sim",), required=True)
    sp.add_argument("--strategy", choices=COMBINE_KINDS, default="uniform")
    sp.add_argument("--t", type=float, default=1.0, dest="temperature")
    sp.add_argument("--dump", default=None)
    sp.set_defaults(fn=cmd_ensemble)

    sp = sub.add_parser("calibrate", parents=[evaluation], help="temperature sweep on cached logits")
    sp.add_argument("--grid", default="0.5,1,2,4,8")
    sp.add_argument("--bins", type=int, default=10)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser(
        "diversity", parents=[evaluation], help="pairwise prediction/parameter cosine matrices"
    )
    sp.set_defaults(fn=cmd_diversity)

    sp = sub.add_parser("fourcase", parents=[evaluation], help="error transition table between two stages")
    sp.set_defaults(fn=cmd_fourcase)

    sp = sub.add_parser("reproduce", help="run a named desk-scale figure recipe")
    sp.add_argument("--name", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_reproduce)

    return p


def run(argv: list[str]) -> int:
    _keep_freed_memory()  # a process policy: set at the entry, not at import
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    # FormatError, SpecError and ConfigFileError are ValueErrors; an unreadable
    # path (missing, a directory, no permission) is an OSError
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

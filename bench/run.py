"""Benchmark of a seqens SEQ-vs-SIM study: G0 and ADON-G1 training, then evaluation.

    python3 bench/run.py --workload train_g1_adon --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Each workload calls the program through `seqens.cli.run(argv)` in this
process, on inputs made from `--seed` under bench/_work/. After a cold set-up
it repeats whole rounds of CLI commands for `--seconds` seconds, checks their
outputs, and prints one JSON object as the last line of stdout. With
`--trace 1` it alternates traced and untraced rounds and reports per-layer
metrics instead of end-to-end ones. See bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("train_g0", "train_g1_adon", "study_eval")
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "images/s",
    "cpu_ms_per_image": "ms",
    "peak_rss_mb": "MB",
}
NUM_CLASSES = 4
ADON = "early,middle,late"


def process_age() -> float:
    """Seconds since this process started, from the kernel's record of its start."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqens", "cli.py")):
        sys.exit(f"error: no program at {os.path.join(src, 'seqens')}; run from a seqens checkout")
    sys.path.insert(0, src)
    import seqens.cli

    if not os.path.abspath(seqens.cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported seqens from {seqens.cli.__file__}, not from {src}")
    return seqens.cli


def machine_info() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "numpy": np.__version__, "python": sys.version.split()[0]}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        info["blas"] = "unknown"
    try:
        import ctypes
        import glob

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        info["blas_threads"] = fn()
    except (IndexError, OSError, AttributeError):
        info["blas_threads"] = "unknown"
    return info


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def task_config(seed: int, count: int, val: int, side: int, extra: str = "") -> str:
    """The default task: 8-image batches of 64x64 crops, scale jitter 0.5-2, two epochs."""
    return (
        f"data.count = {count}\ndata.val_count = {val}\n"
        f"data.height = {side}\ndata.width = {side}\ndata.seed = {seed}\n"
        f"train.epochs = 2\ntrain.batch_size = 8\ntrain.seed = {seed}\n"
        "train.resize_lo = 0.5\ntrain.resize_hi = 2.0\ntrain.crop_h = 64\ntrain.crop_w = 64\n"
        + extra
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one round of CLI commands, and the checks on a round's outputs."""

    min_traced_rounds = 1

    def __init__(self, cli, work: str, seed: int):
        self.cli, self.work, self.seed = cli, work, seed
        self.data = os.path.join(work, "data")

    def gen_data(self, count, val, side, extra=""):
        """Writes the task config, generates the dataset and returns the config's path."""
        spec = write_text(os.path.join(self.work, "task.cfg"), task_config(self.seed, count, val, side, extra))
        if self.cli.run(["gen-data", "--spec", spec, "--out", self.data]) != 0:
            raise RuntimeError("set-up: gen-data failed")
        return spec

    def out(self, name: str = "") -> str:
        """Where a round writes; every round overwrites the one before."""
        return os.path.join(self.work, "round", name)


class TrainWorkload(Workload):
    """`seqens train` of an unconditioned G0 on 200 train / 100 val images at 64x64, two epochs."""

    train_count, val_count, epochs, batch = 200, 100, 2, 8
    images_per_round = epochs * train_count
    min_traced_rounds = 2  # two 50-step rounds give the step-time p90 its 100 samples
    extra = ""
    g0 = None

    def setup(self):
        self.config = self.gen_data(self.train_count + self.val_count, self.val_count, 64, self.extra)

    def commands(self):
        return [["train", "--config", self.config, "--data", self.data, "--out", self.out()]]

    def check(self):
        from checks import check_gradients, check_history

        steps = -(-self.train_count // self.batch)
        problems = check_history(self.out("history.csv"), steps, self.epochs)
        ckpt = self.out("generation.ckpt")
        return problems + check_gradients(gradient_points(ckpt, self.data, self.seed, self.g0))


class TrainG1Adon(TrainWorkload):
    extra = f"arch.conditioning = adon\narch.adon_placements = {ADON}\n"

    def setup(self):
        super().setup()
        from seqens.data import load_split

        train = load_split(self.data, "train")
        self.g0 = os.path.join(self.work, "g0.ckpt")
        train_library_generation(train[:16], self.g0, self.seed + 1, [])

    def commands(self):
        return [super().commands()[0] + ["--condition", self.g0]]


class StudyEval(Workload):
    """Evaluation half of a SEQ-vs-SIM study on a 128x128 val split."""

    train_count, val_count, side, members = 16, 16, 128, 4
    images_per_round = 6 * val_count
    temperature = 2.0

    def setup(self):
        from seqens.data import load_split

        self.gen_data(self.train_count + self.val_count, self.val_count, self.side)
        train = load_split(self.data, "train")
        ck = os.path.join(self.work, "ckpt")
        os.makedirs(ck)
        self.member_ckpts = [os.path.join(ck, f"member{i}.ckpt") for i in range(self.members)]
        for i, path in enumerate(self.member_ckpts):
            train_library_generation(train, path, self.seed * 10 + i, [])
        # the chain's head is member 0; G1..G3 are conditioned on the frozen prefix
        self.chain_ckpts = self.member_ckpts[:1]
        for k in (1, 2, 3):
            path = os.path.join(ck, f"gen{k}.ckpt")
            g = train_library_generation(train, path, self.seed * 10 + 4 + k, self.chain_ckpts)
            for block in g.adon_blocks.values():
                for head in ("fscale.weight", "fbias.weight"):
                    if not block.params[head].data.any():
                        raise RuntimeError(f"set-up: G{k} {block.prefix}.{head} is still zero")
            self.chain_ckpts = self.chain_ckpts + [path]

    def commands(self):
        d = ["--data", self.data]
        members = [a for p in self.member_ckpts for a in ("--ckpt", p)]
        chain = [a for p in self.chain_ckpts for a in ("--ckpt", p)]
        o = self.out
        return [
            ["eval", *members, *d, "--report", o("eval_members.csv"), "--dump", o("members")],
            ["eval", "--chain", *chain, *d, "--report", o("eval_chain.csv"), "--dump", o("chain")],
            ["ensemble", "--mode", "sim", "--t", str(self.temperature), *members, *d,
             "--report", o("sim.csv"), "--dump", o("sim")],
            ["calibrate", *chain, *d, "--report", o("calibrate.csv")],
            ["fourcase", *chain[:4], *d, "--report", o("fourcase.csv")],
            ["diversity", *members, *d, "--report", o("diversity.csv")],
        ]

    def reference(self):
        """Facts the checks need, computed once: labels, member and chain logits."""
        if hasattr(self, "gts"):
            return
        import checks
        import numpy as np
        from seqens.data import generation_from_checkpoint, load_checkpoint, load_split
        from seqens.ensembling import Chain, chain_predict
        from seqens.nets import predict

        self.gts = checks.read_labels(self.data, "val")
        self.valid = int(sum((g != 255).sum() for g in self.gts))
        images = np.stack([s.image for s in load_split(self.data, "val")])
        gens = lambda paths: [generation_from_checkpoint(load_checkpoint(p)) for p in paths]  # noqa: E731
        logits = [_batched(lambda x, g=g: predict(g, x).logits, images) for g in gens(self.member_ckpts)]
        self.sim_labels, self.sim_gap = checks.sim_expected(logits, self.temperature)
        chain = Chain(gens(self.chain_ckpts))
        chain_logits = _batched(lambda x: chain_predict(chain, x)[-1].logits, images)
        self.chain_near_ties = checks.near_tie_pixels(chain_logits)
        self.params = [checks.flat_parameters(load_checkpoint(p).tensors) for p in self.member_ckpts]

    def check(self):
        import checks

        self.reference()
        n, c = self.val_count, NUM_CLASSES
        members = [checks.read_dump(self.out(f"members/member{i}"), n, c) for i in range(self.members)]
        chain = checks.read_dump(self.out("chain"), n, c)
        sim = checks.read_dump(self.out("sim"), n, c)
        problems = []
        for csv, dumps in (("eval_members.csv", members), ("eval_chain.csv", [chain]), ("sim.csv", [sim])):
            rows = checks.read_csv(self.out(csv))
            if len(rows) != len(dumps):
                problems.append(f"{csv}: {len(rows)} rows, expected {len(dumps)}")
            for row, preds in zip(rows, dumps):
                problems += checks.check_metrics_row(row, preds, self.gts, c)
        problems += checks.check_sim_labels(sim, self.sim_labels, self.sim_gap)
        chain_correct = checks.correct_pixels(chain, self.gts)
        problems += checks.check_calibration(
            self.out("calibrate.csv"), chain_correct, self.valid, self.chain_near_ties
        )
        problems += checks.check_fourcase(
            self.out("fourcase.csv"), self.valid, checks.correct_pixels(members[0], self.gts)
        )
        problems += checks.check_diversity(self.out("diversity.csv"), self.params)
        problems += checks.check_chain_differs(chain, members[0])
        return problems


def _batched(fn, images, batch=16):
    import numpy as np

    return np.concatenate([fn(images[i : i + batch]) for i in range(0, len(images), batch)])


def train_library_generation(train, path, seed, prefix_ckpts):
    """A briefly trained generation for set-up, made through the library.

    One epoch over `train` at lr 0.002: enough to move every ADON head off
    zero, too little to collapse onto the background class, which the default
    rate does within two steps. Evaluation cost does not depend on accuracy.
    Without scale jitter, set-up adds no seed-dependent matrices to the
    process-wide resize cache, whose size would otherwise vary peak memory.
    """
    from seqens.data import (
        checkpoint_from_generation, generation_from_checkpoint, load_checkpoint, save_checkpoint,
    )
    from seqens.ensembling import chain_provider
    from seqens.nets import BackboneConfig, build_generation
    from seqens.training import AugmentConfig, TrainConfig, train_generation

    index = len(prefix_ckpts)
    arch = BackboneConfig(
        num_classes=NUM_CLASSES,
        conditioning="adon" if index else "none",
        adon_placements=tuple(ADON.split(",")) if index else (),
    )
    g = build_generation(arch, seed=seed, index=index)
    prefix = [generation_from_checkpoint(load_checkpoint(p)) for p in prefix_ckpts]
    cfg = TrainConfig(epochs=1, seed=seed, lr0=0.002, augment=AugmentConfig(resize_range=(1.0, 1.0)))
    train_generation(g, train, [], cfg, chain_provider(prefix) if index else None)
    save_checkpoint(path, checkpoint_from_generation(g))
    return g


def gradient_points(ckpt, data_dir, seed, cond_ckpt=None, per_part=2, steps=(1e-5, 1e-7), tries=8):
    """Tape gradient vs float64 central differences on one augmented 8-image batch.

    Returns (part, coordinate, tape gradient, central difference) at
    `per_part` seeded coordinates in each part of the network. A central
    difference is only exact where the loss is smooth, so a step is used only
    if no ReLU input changes sign between its two evaluations; otherwise a
    smaller step, then another seeded coordinate, is tried. The batch is
    scaled up only (jitter 1-2), never padded: a padded region feeds each
    layer one constant, so its pixels share one pre-activation and would all
    sit on a kink together.
    """
    import numpy as np
    from seqens import tensor as T
    from seqens.data import generation_from_checkpoint, load_checkpoint, load_split
    from seqens.nets import forward_logits, predict
    from seqens.training import AugmentConfig, augment_sample

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x6C0], dtype=np.uint64)))
    train = load_split(data_dir, "train")
    jitter = AugmentConfig(resize_range=(1.0, 2.0))
    batch = [
        augment_sample(train[i].image, train[i].label, jitter, rng, 255)
        for i in rng.choice(len(train), 8, replace=False)
    ]
    images = np.stack([b[0] for b in batch])
    labels = np.stack([b[1] for b in batch])
    cond = None
    if cond_ckpt:
        g0 = generation_from_checkpoint(load_checkpoint(cond_ckpt))
        cond = T.Tensor(predict(g0, images).probs.astype(np.float64))
    g = generation_from_checkpoint(load_checkpoint(ckpt))
    for t in g.parameters.values():
        t.data = t.data.astype(np.float64)
    x = T.Tensor(images.astype(np.float64))

    def loss():
        return T.pixel_cross_entropy(T.channel_softmax(forward_logits(g, x, cond)), labels, 255)

    with T.Graph() as graph:
        out = loss()
    T.backward(graph, out)

    relu, signs = T.relu, []

    def sign_recording_relu(t):
        signs.append(t.data > 0)
        return relu(t)

    def loss_and_signs():
        signs.clear()
        value = float(loss().data)
        return value, list(signs)

    parts: dict[str, list[str]] = {}
    for name in sorted(g.parameters):
        parts.setdefault(name.split(".", 1)[0], []).append(name)
    points = []
    T.relu = sign_recording_relu
    try:
        for part, names in parts.items():
            found = 0
            for _ in range(tries):
                if found == per_part:
                    break
                name = names[int(rng.integers(len(names)))]
                t = g.parameters[name]
                i = int(rng.integers(t.data.size))
                orig = t.data.flat[i]
                for eps in steps:
                    t.data.flat[i] = orig + eps
                    up, up_signs = loss_and_signs()
                    t.data.flat[i] = orig - eps
                    down, down_signs = loss_and_signs()
                    t.data.flat[i] = orig
                    if all(np.array_equal(a, b) for a, b in zip(up_signs, down_signs)):
                        tape = float(t.grad.flat[i]) if t.grad is not None else 0.0
                        points.append((part, f"{name}[{i}]", tape, (up - down) / (2 * eps)))
                        found += 1
                        break
            if found < per_part:
                points.append((part, "no coordinate off every ReLU kink", math.nan, math.nan))
    finally:
        T.relu = relu
    return points


WORKLOAD_TYPES = {"train_g0": TrainWorkload, "train_g1_adon": TrainG1Adon, "study_eval": StudyEval}


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(args) -> dict:
    cli = import_program()
    sys.path.insert(0, HERE)
    from checks import tree_digest
    from tracing import ROUND, SETUP, Tracer

    tracer = Tracer() if args.trace else None
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOAD_TYPES[args.workload](cli, work, args.seed)
        if tracer:
            tracer.install()
        with tracer.span(SETUP) if tracer else nullcontext():
            wl.setup()
        if tracer:
            tracer.uninstall()
        setup_s = process_age()

        # traced runs alternate untraced and traced rounds; round 0 is untraced
        # and warms the process, so the overhead ratio leaves it out
        rounds, digests, attempted, failed = [], set(), 0, 0
        start = time.perf_counter()
        while True:
            k = len(rounds)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            with tracer.span(ROUND) if traced else nullcontext():
                codes = [call(cli, argv) for argv in wl.commands()]
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if traced:
                tracer.uninstall()
            attempted += len(codes)
            failed += sum(c != 0 for c in codes)
            if not any(codes):
                digests.add(tree_digest(wl.out()))
            rounds.append((wall, cpu, traced))
            print(f"round {k}: {wall:.3f} s wall, {cpu:.3f} s cpu{' (traced)' if traced else ''}", file=sys.stderr)
            need = 2 * wl.min_traced_rounds + (wl.min_traced_rounds == 1) if tracer else 1
            if len(rounds) >= need and time.perf_counter() - start >= args.seconds:
                break
        # rounds repeat identical seeded commands, so every successful round must
        # write the same bytes; the last round's are checked in full, after the
        # peak is read, which keeps the checks' own memory out of it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = [f"rounds wrote {len(digests)} different outputs"] if len(digests) > 1 else []
        if not any(codes):
            problems += wl.check()
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)

        if tracer:
            metrics = tracer.layer_metrics()
            traced_walls = [r[0] for r in rounds if r[2]]
            warm_walls = [r[0] for r in rounds[1:] if not r[2]]
            metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(warm_walls)
            units = layer_units()
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write(
                os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"),
                {"workload": args.workload, "seed": args.seed, "machine": machine_info()},
            )
            out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        else:
            n = wl.images_per_round
            values = {
                "setup_s": setup_s,
                "images_per_s": statistics.median(n / r[0] for r in rounds),
                "cpu_ms_per_image": statistics.median(1e3 * r[1] / n for r in rounds),
                "peak_rss_mb": peak_rss_mb,
            }
            out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def call(cli, argv) -> int:
    try:
        return cli.run(argv)
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return -1


def layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


# ---------------------------------------------------------------------------
# every workload, one child process each


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)  # waits
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
            merged["metrics"][f"{name}.{metric}"] = v
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        import_program()
        return run_all(args)
    print(f"machine: {json.dumps(machine_info())}", file=sys.stderr)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Named desk-scale experiment recipes behind `seqens reproduce`.

Each recipe is fully seeded and emits deterministic CSVs: running one twice
from the same machine state yields byte-identical reports.
"""

from __future__ import annotations

import os

from .analysis import (
    mean_offdiagonal,
    parameter_similarity_matrix,
    prediction_similarity_matrix,
    segmentation_metrics,
)
from .calibration import CalibrationConfig, temperature_sweep
from .data import (
    DatasetSpec,
    _batched_probs,
    _write_csv,
    checkpoint_from_generation,
    fmt,
    generate_dataset,
)
from .ensembling import Chain, CombineStrategy, chain_predict, chain_provider, combine, stage_labels
from .nets import BLOCK_MODES, PLACEMENTS, BackboneConfig, build_generation, predict
from .training import TrainConfig, train_generation


# Short-budget regime: models stay clear of the all-background collapse but
# remain undertrained enough for conditioning to matter. Smaller tasks
# (e.g. 32x32 with <100 samples) collapse and flatten every comparison.
def _task():
    spec = DatasetSpec(count=300, height=64, width=64, num_classes=4, seed=7)
    samples = generate_dataset(spec)
    return samples[:200], samples[200:], spec


def _train_cfg(seed: int, epochs: int = 6, **kw) -> TrainConfig:
    # Scale-jitter augmentation is load-bearing at this budget: without it
    # every member collapses to the background class.
    return TrainConfig(epochs=epochs, seed=seed, **kw)


def _arch(conditioning: str = "none") -> BackboneConfig:
    placements = PLACEMENTS if conditioning in BLOCK_MODES else ()
    return BackboneConfig(conditioning=conditioning, adon_placements=placements)


def _train_g0(train, seed: int):
    g = build_generation(_arch("none"), seed=seed, index=0)
    train_generation(g, train, [], _train_cfg(seed))  # no val pass: nothing reads the history
    return g


def _miou(labels, dataset):
    return segmentation_metrics(labels, [s.label for s in dataset], 4).miou  # the task's four classes


# ---------------------------------------------------------------------------


def recipe_seq_vs_sim(out_dir: str):
    """Median-free single-run comparison of SIM-ENS and SEQ-ENS for N in 1..4."""
    seeds = [101, 102, 103, 104]
    train, val, _ = _task()
    members = [_train_g0(train, s) for s in seeds]

    chain_gens = [members[0]]
    for i, seed in enumerate(seeds[1:], start=1):
        g = build_generation(_arch("adon"), seed=seed, index=i)
        train_generation(g, train, [], _train_cfg(seed), chain_provider(chain_gens))
        chain_gens.append(g)

    def sim_labels(im):  # SIM at N = n combines the first n members' maps
        maps = [predict(g, im).probs for g in members]
        return stage_labels([combine(maps[:n], CombineStrategy("uniform")) for n in range(1, 5)])

    # SEQ at N = n is generation n-1's map: a chain's prediction is its final generation's map
    chain = Chain(chain_gens)
    labels = {
        "sim": _batched_probs(sim_labels, val),
        "seq": _batched_probs(lambda im: stage_labels([b.probs for b in chain_predict(chain, im)]), val),
    }
    rows = [[mode, str(n), fmt(_miou(labels[mode][:, n - 1], val))] for n in range(1, 5) for mode in labels]
    _write_csv(os.path.join(out_dir, "seq_vs_sim.csv"), ["mode", "N", "miou"], rows)


def recipe_ece_sweep(out_dir: str):
    """ECE across a temperature grid for a single trained model."""
    train, val, _ = _task()
    g = _train_g0(train, seed=201)
    cfg = CalibrationConfig(num_bins=10, temperature_grid=(0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0))
    logits = _batched_probs(lambda im: predict(g, im).logits, val)
    report = temperature_sweep(logits, [s.label for s in val], cfg)
    rows = [[fmt(t), fmt(e)] for t, e in report.per_temperature_ece]
    rows.append([fmt(report.best_temperature), "best"])
    _write_csv(os.path.join(out_dir, "ece_sweep.csv"), ["T", "ece"], rows)


def recipe_diversity_init(out_dir: str):
    """Member similarity under random vs warm-start initialization."""
    seeds = [301, 302, 303]
    train, val, _ = _task()
    random_members = [_train_g0(train, s) for s in seeds]

    base_ckpt = checkpoint_from_generation(_train_g0(train, seed=300))
    warm_members = []
    for s in seeds:
        g = build_generation(_arch("none"), seed=s, index=0)
        train_generation(g, train, [], _train_cfg(s, epochs=3, warmstart_checkpoint=base_ckpt))
        warm_members.append(g)

    rows = []
    for name, members in (("random", random_members), ("warmstart", warm_members)):
        pred = prediction_similarity_matrix(
            [_batched_probs(lambda im, g=g: predict(g, im).probs, val) for g in members]
        )
        param = parameter_similarity_matrix(members)
        for i in range(len(members)):
            for j in range(len(members)):
                rows.append(
                    [name, str(i), str(j), fmt(pred[i, j]), fmt(param[i, j])]
                )
        rows.append(
            [name, "mean", "offdiag", fmt(mean_offdiagonal(pred)), fmt(mean_offdiagonal(param))]
        )
    _write_csv(
        os.path.join(out_dir, "diversity_init.csv"),
        ["init", "i", "j", "pred_cosine", "param_cosine"],
        rows,
    )


RECIPES = {
    "seq_vs_sim": recipe_seq_vs_sim,
    "ece_sweep": recipe_ece_sweep,
    "diversity_init": recipe_diversity_init,
}


def reproduce_figure(name: str, out_dir: str):
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}")
    os.makedirs(out_dir, exist_ok=True)
    RECIPES[name](out_dir)

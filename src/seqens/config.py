"""Flat `section.key = value` run configuration files."""

from __future__ import annotations

from .data import DatasetSpec
from .nets import BackboneConfig
from .training import AugmentConfig, TrainConfig


class ConfigFileError(ValueError):
    pass


_KNOWN_KEYS = {
    "data.count": int,
    "data.val_count": int,
    "data.height": int,
    "data.width": int,
    "data.num_classes": int,
    "data.shapes_min": int,
    "data.shapes_max": int,
    "data.shape_kinds": str,
    "data.noise_std": float,
    "data.texture": bool,
    "data.seed": int,
    "arch.layer_channels": str,
    "arch.adon_latent": int,
    "arch.adon_placements": str,
    "arch.conditioning": str,
    "train.epochs": int,
    "train.batch_size": int,
    "train.lr0": float,
    "train.momentum": float,
    "train.weight_decay": float,
    "train.poly_power": float,
    "train.seed": int,
    "train.init_strategy": str,
    "train.warmstart_checkpoint": str,
    "train.flip_prob": float,
    "train.resize_lo": float,
    "train.resize_hi": float,
    "train.crop_h": int,
    "train.crop_w": int,
}


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected `section.key = value`")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def _get(cfg: dict[str, str], key: str, default):
    if key not in cfg:
        return default
    kind = _KNOWN_KEYS[key]
    raw = cfg[key]
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigFileError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as e:
        raise ConfigFileError(f"{key}: {e}") from e


def dataset_spec_from(cfg: dict[str, str]) -> DatasetSpec:
    kinds = _get(cfg, "data.shape_kinds", "rectangle,disk,triangle")
    return DatasetSpec(
        count=_get(cfg, "data.count", 300),
        height=_get(cfg, "data.height", 64),
        width=_get(cfg, "data.width", 64),
        num_classes=_get(cfg, "data.num_classes", 4),
        shapes_per_image=(_get(cfg, "data.shapes_min", 2), _get(cfg, "data.shapes_max", 4)),
        shape_kinds=tuple(k for k in kinds.split(",") if k),
        noise_std=_get(cfg, "data.noise_std", 0.06),
        texture=_get(cfg, "data.texture", True),
        seed=_get(cfg, "data.seed", 0),
    )


def val_count_from(cfg: dict[str, str]) -> int:
    spec = dataset_spec_from(cfg)
    return _get(cfg, "data.val_count", spec.count // 3)


def backbone_config_from(cfg: dict[str, str]) -> BackboneConfig:
    channels = tuple(
        int(c) for c in _get(cfg, "arch.layer_channels", "16,32,64").split(",")
    )
    placements = tuple(
        p for p in _get(cfg, "arch.adon_placements", "").split(",") if p
    )
    return BackboneConfig(
        num_classes=_get(cfg, "data.num_classes", 4),
        layer_channels=channels,
        adon_latent=_get(cfg, "arch.adon_latent", 32),
        adon_placements=placements,
        conditioning=_get(cfg, "arch.conditioning", "none"),
    )


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    aug = AugmentConfig(
        flip_prob=_get(cfg, "train.flip_prob", 0.5),
        resize_range=(_get(cfg, "train.resize_lo", 0.5), _get(cfg, "train.resize_hi", 2.0)),
        crop=(
            _get(cfg, "train.crop_h", _get(cfg, "data.height", 64)),
            _get(cfg, "train.crop_w", _get(cfg, "data.width", 64)),
        ),
    )
    return TrainConfig(
        epochs=_get(cfg, "train.epochs", 40),
        batch_size=_get(cfg, "train.batch_size", 8),
        lr0=_get(cfg, "train.lr0", 0.05),
        momentum=_get(cfg, "train.momentum", 0.9),
        weight_decay=_get(cfg, "train.weight_decay", 5e-4),
        poly_power=_get(cfg, "train.poly_power", 0.9),
        seed=_get(cfg, "train.seed", 0),
        init_strategy=_get(cfg, "train.init_strategy", "random"),
        warmstart_checkpoint=_get(cfg, "train.warmstart_checkpoint", None),
        augment=aug,
    )


def resolved_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))

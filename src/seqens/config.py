"""Flat `section.key = value` run configuration files."""

from __future__ import annotations

from .data import DatasetSpec
from .nets import BackboneConfig
from .training import AugmentConfig, TrainConfig


class ConfigFileError(ValueError):
    pass


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(c) for c in raw.split(","))


def _names(raw: str) -> tuple[str, ...]:
    return tuple(p for p in raw.split(",") if p)


# each key's parser; the defaults live in the dataclasses the keys fill
_KNOWN_KEYS = {
    "data.count": int,
    "data.val_count": int,
    "data.height": int,
    "data.width": int,
    "data.num_classes": int,
    "data.shapes_min": int,
    "data.shapes_max": int,
    "data.shape_kinds": _names,
    "data.noise_std": float,
    "data.texture": _bool,
    "data.seed": int,
    "arch.layer_channels": _ints,
    "arch.adon_latent": int,
    "arch.adon_placements": _names,
    "arch.conditioning": str,
    "train.epochs": int,
    "train.batch_size": int,
    "train.lr0": float,
    "train.weight_decay": float,
    "train.seed": int,
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


def _get(cfg: dict[str, str], key: str, default=None):
    if key not in cfg:
        return default
    try:
        return _KNOWN_KEYS[key](cfg[key])
    except ValueError as e:
        raise ConfigFileError(f"{key}: {e}") from e


def _fields(cfg: dict[str, str], section: str, names: str) -> dict:
    """Arguments for the `section.name` keys the file sets; the dataclass fills the rest."""
    return {n: _get(cfg, f"{section}.{n}") for n in names.split() if f"{section}.{n}" in cfg}


def _pair(cfg: dict[str, str], keys: tuple[str, str], default: tuple) -> tuple:
    return tuple(_get(cfg, k, d) for k, d in zip(keys, default))


def dataset_spec_from(cfg: dict[str, str]) -> DatasetSpec:
    return DatasetSpec(
        shapes_per_image=_pair(cfg, ("data.shapes_min", "data.shapes_max"), DatasetSpec.shapes_per_image),
        **_fields(cfg, "data", "count height width num_classes shape_kinds noise_std texture seed"),
    )


def val_count_from(cfg: dict[str, str]) -> int:
    return _get(cfg, "data.val_count", dataset_spec_from(cfg).count // 3)


def backbone_config_from(cfg: dict[str, str]) -> BackboneConfig:
    return BackboneConfig(
        num_classes=_get(cfg, "data.num_classes", DatasetSpec.num_classes),
        **_fields(cfg, "arch", "layer_channels adon_latent adon_placements conditioning"),
    )


def train_config_from(cfg: dict[str, str]) -> TrainConfig:
    # crops follow the image size unless set
    image_hw = _pair(cfg, ("data.height", "data.width"), (DatasetSpec.height, DatasetSpec.width))
    aug = AugmentConfig(
        resize_range=_pair(cfg, ("train.resize_lo", "train.resize_hi"), AugmentConfig.resize_range),
        crop=_pair(cfg, ("train.crop_h", "train.crop_w"), image_hw),
        **_fields(cfg, "train", "flip_prob"),
    )
    return TrainConfig(
        augment=aug,
        **_fields(cfg, "train", "epochs batch_size lr0 weight_decay seed warmstart_checkpoint"),
    )


def resolved_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))

import pytest

from seqens.config import (
    ConfigFileError,
    backbone_config_from,
    dataset_spec_from,
    parse_config_text,
    resolved_text,
    train_config_from,
    val_count_from,
)
from seqens.data import DatasetSpec
from seqens.nets import BackboneConfig
from seqens.training import TrainConfig


def test_empty_text_gives_all_defaults():
    cfg = parse_config_text("")
    spec = dataset_spec_from(cfg)
    assert (spec.count, spec.height, spec.width, spec.num_classes) == (300, 64, 64, 4)
    assert val_count_from(cfg) == 100
    arch = backbone_config_from(cfg)
    assert arch.layer_channels == (16, 32, 64)
    assert arch.conditioning == "none"
    tcfg = train_config_from(cfg)
    assert (tcfg.epochs, tcfg.batch_size, tcfg.lr0) == (40, 8, 0.05)
    assert tcfg.augment.crop == (64, 64)
    # every default is the dataclass's own
    assert (spec, arch, tcfg) == (DatasetSpec(), BackboneConfig(), TrainConfig())


def test_parse_comments_and_values():
    cfg = parse_config_text(
        """
        # full-line comment
        data.count = 30   # trailing comment
        data.num_classes = 5
        arch.conditioning = adon
        arch.adon_placements = early,late
        train.lr0 = 0.1
        data.texture = false
        """
    )
    assert dataset_spec_from(cfg).count == 30
    arch = backbone_config_from(cfg)
    assert arch.conditioning == "adon"
    assert arch.adon_placements == ("early", "late")
    assert arch.num_classes == 5
    assert train_config_from(cfg).lr0 == 0.1
    assert dataset_spec_from(cfg).texture is False


def test_unknown_key_rejected():
    for text in (
        "data.bogus = 1", "ensemble.n = 2", "train.ignore_label = 255", "train.init_strategy = warmstart"
    ):
        with pytest.raises(ConfigFileError, match="unknown key"):
            parse_config_text(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigFileError, match="duplicate"):
        parse_config_text("data.count = 1\ndata.count = 2")


def test_malformed_line_rejected():
    with pytest.raises(ConfigFileError, match="line 1"):
        parse_config_text("data.count 5")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigFileError):
        dataset_spec_from(parse_config_text("data.count = many"))
    with pytest.raises(ConfigFileError):
        dataset_spec_from(parse_config_text("data.texture = maybe"))


def test_resolved_text_is_sorted_and_parseable():
    cfg = parse_config_text("train.lr0 = 0.1\ndata.count = 9")
    text = resolved_text(cfg)
    assert text.splitlines() == ["data.count = 9", "train.lr0 = 0.1"]
    assert parse_config_text(text) == cfg

"""The settings dataclasses as the one declaration of each config key."""

import dataclasses
import os

import pytest

from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.config import SECTIONS, ConfigError, RunConfig
from irrfactors.settings import BadSetting
from test_pipeline import SMALL_CONFIG

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("path, digest", [
    ("configs/demo.cfg", "103a9caee058"),
    ("perfbench/train_demo.cfg", "1c842fa6ae3b"),
    ("perfbench/resume_wide.cfg", "63ad360674eb"),
])
def test_config_hashes_are_pinned(path, digest):
    assert RunConfig.from_file(os.path.join(ROOT, path)).config_hash() == digest


def test_small_config_hash_is_pinned(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    assert RunConfig.from_file(path).config_hash() == "8a720d8b4f3c"


def test_an_unset_key_gives_its_field_the_dataclass_default():
    # model.window, seed and ablation feed several classes: each gets its own default
    cfg = RunConfig(values={"split.train_end": "100"})
    for section, cls in SECTIONS.items():
        built = cfg.build(section)
        for f in dataclasses.fields(cls):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(built, f.name) == default, f"{section}.{f.name}"


@pytest.mark.parametrize("cls, kwargs, field", [
    (mf.MarketFactorHyper, {"batch": 1}, "batch"),
    (fc.ForecasterHyper, {"heads": 0}, "heads"),
    (fc.ForecasterHyper, {"width": 6, "heads": 4}, "heads"),
    (sf.StockFactorHyper, {"lambda1": -0.5}, "lambda1"),
    (mf.MarketFactorHyper, {"lambda2": -0.5}, "lambda2"),
    (fc.ForecasterHyper, {"lambda3": -0.5}, "lambda3"),
    (mf.MarketFactorHyper, {"window": 0}, "window"),
    (fc.ForecasterHyper, {"window": 0}, "window"),
    (fc.ForecasterHyper, {"ablation": "NX"}, "ablation"),
])
def test_a_setting_out_of_bounds_raises_a_named_error(cls, kwargs, field):
    with pytest.raises(BadSetting, match=f"^{field} ") as info:
        cls(**kwargs)
    assert info.value.field == field


@pytest.mark.parametrize("values, key", [
    ({"model.window": 0}, "model.window"),
    ({"ablation": "NX"}, "ablation"),
    ({"synthetic.events.prob": 1.5}, "synthetic.events.prob"),
    ({"synthetic.n_stocks": 1}, "synthetic.n_stocks"),
    # a given value goes through its key's coercion, as a file's text does
    ({"model.window": "six"}, "model.window"),
    ({"model.window": 6.5}, "model.window"),
    ({"synthetic.base_volatility": "high"}, "synthetic.base_volatility"),
    ({"data.normalize_features": "maybe"}, "data.normalize_features"),
])
def test_the_config_names_the_key_of_a_field_out_of_bounds(values, key):
    with pytest.raises(ConfigError, match=f"^{key} "):
        RunConfig(values={"split.train_end": "100", **values})


def test_a_given_unknown_key_is_refused_as_in_a_file():
    with pytest.raises(ConfigError, match="^unknown config key 'model.windw'$"):
        RunConfig(values={"split.train_end": "100", "model.windw": 6})


@pytest.mark.parametrize("value", [1, 1.0, "1", "1.0"])
def test_an_int_for_a_float_key_hashes_as_the_float(tmp_path, value):
    path = tmp_path / "run.cfg"
    path.write_text("split.train_end = 100\nsynthetic.base_volatility = 1\n")
    given = RunConfig(values={"split.train_end": "100", "synthetic.base_volatility": value})
    assert given.config_hash() == RunConfig.from_file(path).config_hash() == "1375a7c78fae"

"""Run configuration: flat `key = value` files with dotted section prefixes.

One assignment per line, `#` comments, blank lines ignored. A section's keys
are the int and float fields of its settings class (SECTIONS), which declare
their types, defaults and bounds; _SCHEMA holds the run-level keys. Unknown
keys, uncoercible values, keys set twice and values out of bounds raise
ConfigError naming the key, whether the values come from a file or are given
to RunConfig directly. Plants use numbered keys (`synthetic.plant.0 =
target=0 sources=6,7 betas=0.5,0.2 rho=0.4 scale=1.2 kick=0.0`); one without
rho, scale or kick keeps CointegrationPlant's default for it.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from typing import get_type_hints

from .evaluation import PortfolioConfig
from .files import read_text
from .forecaster import ForecasterHyper
from .marketfactor import MarketFactorHyper
from .panel import SynchronismConfig
from .settings import BadSetting
from .stockfactor import StockFactorHyper
from .synthetic import CointegrationPlant, SentimentPlant, SyntheticSpec


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    low = text.strip().lower()
    if low not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(f"not a boolean: {text!r}")
    return low in ("true", "1", "yes", "on")


# section -> the settings class whose fields its keys set
SECTIONS = {
    "factors": StockFactorHyper,
    "market": MarketFactorHyper,
    "forecast": ForecasterHyper,
    "sync": SynchronismConfig,
    "portfolio": PortfolioConfig,
    "synthetic": SyntheticSpec,
    "synthetic.events": SentimentPlant,
}

# run-level key -> (coercion, default); a key that sets fields takes their default
_SCHEMA = {
    "seed": (int, SyntheticSpec.seed),
    "out_dir": (str, "runs/latest"),
    "data.source": (str, "synthetic"),
    "data.csv_path": (str, ""),
    "data.normalize_features": (_parse_bool, True),
    "split.train_end": (str, ""),
    "model.window": (int, ForecasterHyper.window),
    "ablation": (str, ForecasterHyper.ablation),
}
_RUN_FIELDS = {"seed": "seed", "window": "model.window", "ablation": "ablation"}


def _declare(section: str, cls) -> dict:
    """{field: key} for the fields of `cls` that keys set; adds the section's
    own keys to _KEYS."""
    keyed = {}
    for name, kind in get_type_hints(cls).items():
        if name in _RUN_FIELDS:
            keyed[name] = _RUN_FIELDS[name]
        elif kind in (int, float):
            keyed[name] = f"{section}.{name}"
            _KEYS[keyed[name]] = (kind, kind(getattr(cls, name)))
    return keyed


_KEYS = dict(_SCHEMA)                   # every key -> (coercion, default)
_FIELD_KEYS = {section: _declare(section, cls) for section, cls in SECTIONS.items()}


def _coerce(key: str, value):
    """`value` as its key's type (1 for a float key is 1.0); ConfigError names
    an unknown key or a bad value. An int key refuses 6.5 instead of truncating."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    coerce, _ = _KEYS[key]
    try:
        out = coerce(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{key} has a bad value: {e}") from None
    if coerce is int and not isinstance(value, str) and out != value:
        raise ConfigError(f"{key} has a bad value: {value!r} is not a whole number")
    return out


_PLANT_PREFIX = "synthetic.plant."
_PLANT_OPTIONAL = {"rho": "noise_rho", "scale": "noise_scale", "kick": "event_kick"}
_PLANT_FIELDS = ("target", "sources", "betas", *_PLANT_OPTIONAL)


def _parse_plant(key: str, text: str) -> CointegrationPlant:
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ConfigError(f"{key}: expected name=value tokens, got {token!r}")
        name, value = token.split("=", 1)
        if name not in _PLANT_FIELDS:
            raise ConfigError(f"{key}: unknown plant field {name!r}")
        fields[name] = value
    try:
        return CointegrationPlant(
            target=int(fields["target"]),
            sources=tuple(int(s) for s in fields["sources"].split(",")),
            betas=tuple(float(b) for b in fields["betas"].split(",")),
            **{_PLANT_OPTIONAL[n]: float(v) for n, v in fields.items() if n in _PLANT_OPTIONAL},
        )
    except (KeyError, ValueError) as e:
        raise ConfigError(f"{key}: {e}") from None


@dataclass
class RunConfig:
    """Validated, fully-resolved run configuration."""

    values: dict = field(default_factory=dict)
    plants: dict = field(default_factory=dict)   # index -> CointegrationPlant

    def __post_init__(self):
        given = {key: _coerce(key, value) for key, value in self.values.items()}
        self.values = {**{k: default for k, (_, default) in _KEYS.items()}, **given}
        self._validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def _validate(self):
        if self["data.source"] not in ("synthetic", "csv"):
            raise ConfigError("data.source must be 'synthetic' or 'csv'")
        if self["data.source"] == "csv" and not self["data.csv_path"]:
            raise ConfigError("data.csv_path is required when data.source = csv")
        if not self["split.train_end"]:
            raise ConfigError("split.train_end is required")
        for section in SECTIONS:
            if section != "synthetic.events":     # building synthetic builds it
                self.build(section)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        values, plants, first_line = {}, {}, {}
        # universal newlines, as a file opened in text mode reads them
        for lineno, raw in enumerate(io.StringIO(read_text(path, ConfigError), newline=None), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            plant = key.startswith(_PLANT_PREFIX)
            if plant:
                suffix = key[len(_PLANT_PREFIX):]
                if not suffix.isdigit():
                    raise ConfigError(f"unknown config key {key!r}")
                key = f"{_PLANT_PREFIX}{int(suffix)}"     # plant.01 is plant.1
            elif key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: {key!r} is set again; line "
                                  f"{first_line[key]} set it first")
            first_line[key] = lineno
            if plant:
                plants[int(suffix)] = _parse_plant(key, value)
            else:
                values[key] = _coerce(key, value)
        return cls(values=values, plants=plants)

    def with_overrides(self, seed=None, out_dir=None, ablation=None) -> "RunConfig":
        given = {"seed": seed, "out_dir": out_dir, "ablation": ablation}
        values = {**self.values, **{k: v for k, v in given.items() if v is not None}}
        return RunConfig(values=values, plants=dict(self.plants))

    def canonical_text(self) -> str:
        """Stable one-line-per-key rendering, used for hashing and stamping.

        out_dir is excluded: where a run lands does not change what it is.
        """
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values) if k != "out_dir"]
        for idx in sorted(self.plants):
            p = self.plants[idx]
            lines.append(
                f"{_PLANT_PREFIX}{idx} = target={p.target}"
                f" sources={','.join(str(s) for s in p.sources)}"
                f" betas={','.join(repr(b) for b in p.betas)}"
                f" rho={p.noise_rho!r} scale={p.noise_scale!r} kick={p.event_kick!r}"
            )
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:12]

    def stamp(self) -> str:
        """The `config_hash=... seed=...` line that marks what a run writes."""
        return f"config_hash={self.config_hash()} seed={self['seed']}"

    def build(self, section: str):
        """The settings object of `section`, each field read from its key.

        A field out of its bounds raises ConfigError naming the key.
        """
        args = {name: self[key] for name, key in _FIELD_KEYS[section].items()}
        if section == "synthetic":
            args.update(plants=[self.plants[i] for i in sorted(self.plants)],
                        sentiment=self.build("synthetic.events"))
        try:
            return SECTIONS[section](**args)
        except BadSetting as e:
            key = _FIELD_KEYS[section].get(e.field, f"{section}.{e.field}")
            raise ConfigError(f"{key} {e.rule}") from None

    def synthetic_spec(self) -> SyntheticSpec:
        return self.build("synthetic")

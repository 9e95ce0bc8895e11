"""Run configuration: flat `key = value` files with dotted section prefixes.

The format is one assignment per line, `#` comments, blank lines ignored.
Every key is declared in _SCHEMA with its type and default; unknown keys,
uncoercible values and keys set twice raise ConfigError naming the key (a
repeat also names both lines). Cointegration plants use numbered keys
(`synthetic.plant.0 = target=0 sources=6,7 betas=0.5,0.2 rho=0.4 scale=1.2
kick=0.0`); a plant without rho, scale or kick keeps CointegrationPlant's
default for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .panel import SynchronismConfig
from .evaluation import PortfolioConfig
from .synthetic import BadSpec, CointegrationPlant, SentimentPlant, SyntheticSpec

ABLATIONS = ("none", "NS", "NM", "NR", "ND")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (coercion, default); None default means required-when-relevant
_SCHEMA = {
    "seed": (int, 42),
    "out_dir": (str, "runs/latest"),
    "data.source": (str, "synthetic"),
    "data.csv_path": (str, ""),
    "data.normalize_features": (_parse_bool, True),
    "split.train_end": (str, ""),
    "sync.delta_threshold": (float, 0.5),
    "sync.hm_ratio": (float, 0.7),
    "model.window": (int, 10),
    "factors.lambda1": (float, 0.5),
    "factors.lr": (float, 0.02),
    "factors.steps": (int, 1200),
    "market.lambda2": (float, 1.0),
    "market.lr": (float, 0.01),
    "market.epochs": (int, 30),
    "market.batch": (int, 32),
    "forecast.lambda3": (float, 0.1),
    "forecast.lr": (float, 0.003),
    "forecast.width": (int, 32),
    "forecast.blocks": (int, 1),
    "forecast.heads": (int, 2),
    "forecast.max_epochs": (int, 40),
    "forecast.patience": (int, 10),
    "forecast.val_fraction": (float, 0.15),
    "portfolio.n_fraction": (float, 0.10),
    "portfolio.cost_rate": (float, 0.001),
    "portfolio.trading_days": (int, 252),
    "ablation": (str, "none"),
    "synthetic.n_stocks": (int, 16),
    "synthetic.n_periods": (int, 460),
    "synthetic.base_volatility": (float, 1.5),
    "synthetic.volatility_spread": (float, 0.85),
    "synthetic.event_sensitivity_spread": (float, 0.0),
    "synthetic.events.prob": (float, 0.65),
    "synthetic.events.magnitude": (float, 3.0),
    "synthetic.events.precursor": (float, 0.8),
    "synthetic.events.precursor_noise": (float, 1.5),
}

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
        merged = {k: default for k, (_, default) in _SCHEMA.items()}
        merged.update(self.values)
        self.values = merged
        self._validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def _validate(self):
        if self["data.source"] not in ("synthetic", "csv"):
            raise ConfigError("data.source must be 'synthetic' or 'csv'")
        if self["data.source"] == "csv" and not self["data.csv_path"]:
            raise ConfigError("data.csv_path is required when data.source = csv")
        if self["ablation"] not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}")
        for key in ("factors.lambda1", "market.lambda2", "forecast.lambda3"):
            if self[key] < 0:
                raise ConfigError(f"{key} must be non-negative")
        if not self["split.train_end"]:
            raise ConfigError("split.train_end is required")
        if self["model.window"] < 1:
            raise ConfigError("model.window must be positive")
        if self["forecast.heads"] < 1 or self["forecast.width"] % self["forecast.heads"]:
            raise ConfigError("forecast.width must be a multiple of forecast.heads")
        if not 0.0 < self["forecast.val_fraction"] < 1.0:
            raise ConfigError("forecast.val_fraction must lie in (0, 1)")
        if self["market.batch"] < 2:
            raise ConfigError("market.batch must be at least 2: the contrastive loss "
                              "needs a negative")
        for section, build in (("sync", self.synchronism), ("portfolio", self.portfolio)):
            try:
                build()
            except ValueError as e:
                raise ConfigError(f"{section}.{e}") from None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        values, plants, first_line = {}, {}, {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
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
                elif key not in _SCHEMA:
                    raise ConfigError(f"unknown config key {key!r}")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: {key!r} is set again; line "
                                      f"{first_line[key]} set it first")
                first_line[key] = lineno
                if plant:
                    plants[int(suffix)] = _parse_plant(key, value)
                    continue
                coerce, _ = _SCHEMA[key]
                try:
                    values[key] = coerce(value)
                except ValueError as e:
                    raise ConfigError(f"bad value for {key!r}: {e}") from None
        return cls(values=values, plants=plants)

    def with_overrides(self, seed=None, out_dir=None, ablation=None) -> "RunConfig":
        values = dict(self.values)
        if seed is not None:
            values["seed"] = int(seed)
        if out_dir is not None:
            values["out_dir"] = str(out_dir)
        if ablation is not None:
            values["ablation"] = str(ablation)
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

    # -- derived sub-configurations ------------------------------------

    def synchronism(self) -> SynchronismConfig:
        return SynchronismConfig(delta_threshold=self["sync.delta_threshold"],
                                 hm_ratio=self["sync.hm_ratio"])

    def portfolio(self) -> PortfolioConfig:
        return PortfolioConfig(n_fraction=self["portfolio.n_fraction"],
                               cost_rate=self["portfolio.cost_rate"],
                               trading_days_per_year=self["portfolio.trading_days"])

    def synthetic_spec(self) -> SyntheticSpec:
        for idx in self.plants:
            if idx >= self["synthetic.n_stocks"]:
                raise ConfigError(f"plant index {idx} exceeds the stock universe")
        spec = SyntheticSpec(
            n_stocks=self["synthetic.n_stocks"],
            n_periods=self["synthetic.n_periods"],
            plants=[self.plants[i] for i in sorted(self.plants)],
            sentiment=SentimentPlant(
                event_prob=self["synthetic.events.prob"],
                event_magnitude=self["synthetic.events.magnitude"],
                precursor_strength=self["synthetic.events.precursor"],
                precursor_noise=self["synthetic.events.precursor_noise"],
            ),
            base_volatility=self["synthetic.base_volatility"],
            volatility_spread=self["synthetic.volatility_spread"],
            event_sensitivity_spread=self["synthetic.event_sensitivity_spread"],
            seed=self["seed"],
        )
        try:
            spec.validate()
        except BadSpec as e:
            raise ConfigError(str(e)) from None
        return spec

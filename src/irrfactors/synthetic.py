"""Synthetic markets with planted structure, used as test oracles.

Two kinds of structure can be planted:

* cointegration: a target stock's price is overwritten with a linear
  combination of source prices plus an AR(1) residual, so the "right"
  combination weights and residual autocorrelation are known exactly;
* sentiment events: on event days every stock moves by a common signed
  magnitude, and the day before carries a weak per-stock precursor drift
  whose cross-sectional average reveals the coming direction.

Features are derived from prices: open gaps off the previous close, high/low
bracket the day, volume is lognormal, and vwap lags the close by a fixed
fraction of the day's move (so the signed move is readable from vwap-close).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .panel import FEATURE_NAMES, MarketPanel, compute_returns
from .rng import stream
from .settings import BadSetting, require


START_DATE = "2020-01-01"
PRICE_RANGE = (60.0, 140.0)   # initial prices are drawn uniformly from this range
VWAP_LAG = 0.4                # fraction of the day's move missing from vwap
VOLUME_COUPLING = 0.4         # log-volume shift per percent of precursor


class BadSpec(BadSetting):
    """Synthetic specification violates its invariants."""


_check = partial(require, error=BadSpec)


@dataclass(frozen=True)
class CointegrationPlant:
    """Overwrite `target`'s price with sum(betas * sources) + AR(1) noise.

    event_kick couples the residual to market sentiment: on an event day with
    sign s, the residual receives an extra s * event_kick * tanh(u/sd) (price
    units), i.e. sentiment pushes mispriced stocks proportionally to their
    current mispricing. Zero disables the coupling.
    """

    target: int
    sources: tuple[int, ...]
    betas: tuple[float, ...]
    noise_rho: float = 0.5
    noise_scale: float = 1.5
    event_kick: float = 0.0

    def __post_init__(self):
        _check(abs(self.noise_rho) < 1.0, "noise_rho", f"must lie in (-1, 1): {self.noise_rho}")
        _check(0 < len(self.betas) == len(self.sources), "betas", "must pair up with sources")
        _check(self.target not in self.sources, "sources", "cannot hold the target")


@dataclass(frozen=True)
class SentimentPlant:
    """Synchronized event days with a noisy precursor one day earlier.

    The precursor leaves two traces in the features of the day before an
    event: a small price drift in the event direction and a signed tilt of
    trading volume (both per-stock noisy, so the direction is only readable
    by pooling across stocks). prob is the chance of an event on a period;
    the other settings are strengths in percent units. precursor = 0
    disables the directional terms entirely, while the per-stock noise
    channels stay on, so their mere presence carries no event information.
    """

    prob: float = 0.0
    magnitude: float = 3.0
    precursor: float = 0.0
    precursor_noise: float = 0.6

    def __post_init__(self):
        _check(0.0 <= self.prob <= 1.0, "prob", "must lie in [0, 1]")
        for name in ("magnitude", "precursor", "precursor_noise"):
            _check(getattr(self, name) >= 0, name, "must be non-negative")


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator specification; deterministic given `seed`."""

    n_stocks: int = 16
    n_periods: int = 400
    plants: list[CointegrationPlant] = field(default_factory=list)
    sentiment: SentimentPlant = field(default_factory=SentimentPlant)
    base_volatility: float = 1.0      # percent daily, mid of the per-stock range
    volatility_spread: float = 0.5    # per-stock vol ~ U(base*(1-s), base*(1+s))
    event_sensitivity_spread: float = 0.5  # per-stock event beta ~ U(1-s, 1+s)
    seed: int = 0

    def __post_init__(self):
        _check(self.n_stocks >= 2, "n_stocks", "must be at least 2")
        _check(self.n_periods >= 3, "n_periods", "must be at least 3")
        named = [s for p in self.plants for s in (p.target, *p.sources)]
        _check(all(0 <= s < self.n_stocks for s in named), "plants",
               f"may name only stocks 0..{self.n_stocks - 1}")
        targets = [p.target for p in self.plants]
        _check(len(set(targets)) == len(targets), "plants", "repeat a target")


def _business_days(start: str, n: int) -> list[str]:
    return np.busday_offset(start, np.arange(n), roll="forward").astype(str).tolist()


def generate_synthetic(spec: SyntheticSpec) -> MarketPanel:
    """Generate a dense panel; bit-identical for identical specs."""
    I, T = spec.n_stocks, spec.n_periods
    sent = spec.sentiment

    vol_rng = stream(spec.seed, "synthetic", "vols")
    vols = spec.base_volatility * vol_rng.uniform(
        1.0 - spec.volatility_spread, 1.0 + spec.volatility_spread, size=I)
    sens = vol_rng.uniform(1.0 - spec.event_sensitivity_spread,
                           1.0 + spec.event_sensitivity_spread, size=I)

    # Event schedule: sign in {-1, 0, +1} per period; events never fall on the
    # first two periods so the precursor day always exists inside the panel.
    ev_rng = stream(spec.seed, "synthetic", "events")
    signs = np.zeros(T, dtype=np.int64)
    if sent.prob > 0:
        draws = ev_rng.uniform(size=T)
        direction = np.where(ev_rng.uniform(size=T) < 0.5, 1, -1)
        signs[2:] = np.where(draws[2:] < sent.prob, direction[2:], 0)

    # Percent returns per stock/period; column 0 unused.
    ret_rng = stream(spec.seed, "synthetic", "returns")
    rets = ret_rng.standard_normal((I, T)) * vols[:, None]
    rets[:, 1:] += signs[None, 1:] * sent.magnitude * sens[:, None]

    # Precursor: noise channels on every day; directional terms only on days
    # immediately preceding an event and only when strength > 0. The price
    # drift goes into returns here; the volume tilt is applied in
    # _features_from_prices from the same pre_volume array.
    pre_rng = stream(spec.seed, "synthetic", "precursor")
    pre_price = pre_rng.standard_normal((I, T)) * sent.precursor_noise
    pre_volume = pre_rng.standard_normal((I, T)) * sent.precursor_noise
    if sent.precursor > 0:
        upcoming = np.zeros(T)
        upcoming[:-1] = signs[1:]
        pre_price += upcoming[None, :] * sent.precursor
        pre_volume += upcoming[None, :] * sent.precursor
    rets[:, 1:] += pre_price[:, 1:]

    p0_rng = stream(spec.seed, "synthetic", "prices")
    p0 = p0_rng.uniform(*PRICE_RANGE, size=I)
    prices = np.empty((I, T))
    prices[:, 0] = p0
    for t in range(1, T):
        prices[:, t] = prices[:, t - 1] * (1.0 + rets[:, t] / 100.0)

    # Overwrite planted targets: price = sum(beta * source_price) + AR(1) noise.
    for k, plant in enumerate(spec.plants):
        ar_rng = stream(spec.seed, "synthetic", "plant", k)
        eps = ar_rng.standard_normal(T) * plant.noise_scale
        u_sd = plant.noise_scale / np.sqrt(1.0 - plant.noise_rho ** 2)
        u = np.empty(T)
        u[0] = eps[0] / np.sqrt(1.0 - plant.noise_rho ** 2)
        for t in range(1, T):
            u[t] = plant.noise_rho * u[t - 1] + eps[t]
            if plant.event_kick and signs[t]:
                u[t] += signs[t] * plant.event_kick * np.tanh(u[t - 1] / u_sd)
        combo = np.zeros(T)
        for s, b in zip(plant.sources, plant.betas):
            combo += b * prices[s]
        prices[plant.target] = combo + u

    if np.any(prices <= 0):
        raise BadSpec("base_volatility", "or a plant's noise scale is too high: generated "
                      "prices hit zero")

    features = _features_from_prices(spec, prices, VOLUME_COUPLING * pre_volume)
    return MarketPanel.from_prices([f"S{i:03d}" for i in range(I)],
                                   _business_days(START_DATE, T), features, prices)


def _features_from_prices(spec: SyntheticSpec, prices: np.ndarray,
                          log_volume_shift: np.ndarray) -> np.ndarray:
    I, T = prices.shape
    rng = stream(spec.seed, "synthetic", "features")
    close = prices
    prev = np.empty_like(close)
    prev[:, 0] = close[:, 0]
    prev[:, 1:] = close[:, :-1]
    day_ret = (close - prev) / prev  # fractional

    open_ = prev * (1.0 + rng.standard_normal((I, T)) * 0.002)
    hi_pad = np.abs(rng.standard_normal((I, T))) * 0.003
    lo_pad = np.abs(rng.standard_normal((I, T))) * 0.003
    high = np.maximum(open_, close) * (1.0 + hi_pad)
    low = np.minimum(open_, close) * (1.0 - lo_pad)
    # vwap sits partway through the day's move, plus microstructure noise
    vwap = close * (1.0 - VWAP_LAG * day_ret
                    + rng.standard_normal((I, T)) * 0.0005)
    volume = 1e6 * np.exp(rng.standard_normal((I, T)) * 0.3 + log_volume_shift)

    canonical = {"open": open_, "close": close, "high": high, "low": low,
                 "vwap": vwap, "volume": volume}
    return np.stack([canonical[name] for name in FEATURE_NAMES], axis=-1)

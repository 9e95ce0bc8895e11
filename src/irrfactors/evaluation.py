"""Long-short hedging backtest with transaction costs, plus forecast metrics.

Conventions:

* panel-shaped arrays are (I, T): stocks in rows, periods in columns;
* the panel carries percent returns; this module converts them to fractions
  at its boundary, and every strategy number (returns, wealth, drawdown)
  is a fraction;
* std is the population standard deviation throughout;
* undefined ratios (zero volatility, zero drawdown, constant vectors) are
  reported as 0 and flagged rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .panel import BadShape
from .settings import require


class UniverseTooSmall(ValueError):
    """Fewer stocks than the two portfolio legs need."""


class NonFiniteForecast(ValueError):
    """A NaN or infinite forecast or return given to the backtest."""


@dataclass(frozen=True)
class PortfolioConfig:
    """Long-short portfolio sizing and cost model.

    n_fraction sets each leg to N = max(1, floor(n_fraction * I)) stocks;
    cost_rate is the fraction lost per transacted stock (0.001 = 0.1%).
    """

    n_fraction: float = 0.10
    cost_rate: float = 0.001
    trading_days: int = 252   # per year

    def __post_init__(self):
        require(0.0 < self.n_fraction <= 0.5, "n_fraction", "must lie in (0, 0.5]")
        require(self.cost_rate >= 0, "cost_rate", "must be non-negative")
        require(self.trading_days >= 1, "trading_days", "must be positive")

    def portfolio_size(self, n_stocks: int) -> int:
        return max(1, int(np.floor(self.n_fraction * n_stocks)))


@dataclass
class BacktestReport:
    """Per-period strategy series plus the full metric suite."""

    gross: np.ndarray           # y_STR per period, fractions
    net: np.ndarray             # cost-adjusted return per period
    wealth: np.ndarray          # cumulative wealth on net returns
    turnover: np.ndarray        # transacted stock count per period
    metrics: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)


# -- panel helpers -----------------------------------------------------------
#
# These take an (I,) vector (one period) or an (I, P) panel and reduce over
# axis 0, the stocks. numpy sums a vector, or each row of a C-contiguous
# array, pairwise, but sums down columns sequentially; reducing over a
# C-contiguous (P, I) copy gives each period the bits it gets on its own.


def _stocks_last(x) -> np.ndarray:
    """C-contiguous float64 copy with the stock axis moved last."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=np.float64), 0, -1))


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..I along the stock axis with ties averaged.

    Each NaN ranks above every number and in a group of its own.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[0]
    order = np.argsort(v, axis=0, kind="stable")
    s = np.take_along_axis(v, order, axis=0)
    pos = np.arange(n).reshape((n,) + (1,) * (v.ndim - 1))
    first = np.ones(v.shape, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    last = np.roll(first, -1, axis=0)      # a tie group ends where the next starts
    starts = np.maximum.accumulate(np.where(first, pos, 0), axis=0)
    ends = np.minimum.accumulate(np.where(last, pos + 1, n)[::-1], axis=0)[::-1]
    ranks = np.empty(v.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (starts + 1 + ends) / 2.0, axis=0)
    return ranks


def pearson(a, b):
    """Per-period population-moment Pearson correlation; 0 where either side is constant."""
    a, b = _stocks_last(a), _stocks_last(b)
    ac = a - a.mean(axis=-1, keepdims=True)
    bc = b - b.mean(axis=-1, keepdims=True)
    sa = np.sqrt((ac * ac).mean(axis=-1))
    sb = np.sqrt((bc * bc).mean(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (ac * bc).mean(axis=-1) / (sa * sb)
    return np.where((sa == 0.0) | (sb == 0.0), 0.0, r)[()]


# -- strategy ----------------------------------------------------------------


def long_short_return(y_hat, y_true, cfg: PortfolioConfig):
    """The hedge: each period, long the top-N forecasts and short the bottom-N.

    y_true is in percent and converted to fractions here. Ties in the
    forecast are broken by stock index (stable sort). Returns the gross
    strategy return per period and the (..., N) long and short index arrays.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    n_stocks = y_hat.shape[0]
    n = cfg.portfolio_size(n_stocks)
    if n_stocks < 2 * n:
        raise UniverseTooSmall(f"need at least {2 * n} stocks, have {n_stocks}")
    order = np.moveaxis(np.argsort(-y_hat, axis=0, kind="stable"), 0, -1)
    # contiguous legs keep the gathers C-ordered, so each period sums pairwise
    longs = np.ascontiguousarray(order[..., :n])
    shorts = np.ascontiguousarray(order[..., -n:])
    y_frac = _stocks_last(y_true) / 100.0
    gross = (np.take_along_axis(y_frac, longs, axis=-1).sum(axis=-1)
             - np.take_along_axis(y_frac, shorts, axis=-1).sum(axis=-1)) / n
    return gross[()], longs, shorts


def apply_costs(gross, longs, shorts, cfg: PortfolioConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """Net returns after transaction costs, from (P, N) long and short legs.

    The transacted count TC sums positions opened and closed on both books;
    the first period opens both full legs, so TC = 2N there. Net return is
    gross - cost_rate * TC / N.
    """
    gross = np.asarray(gross, dtype=np.float64)
    legs = np.stack([np.asarray(longs), np.asarray(shorts)])     # (2, P, N)
    held = np.zeros(legs.shape[:2] + (1 + legs.max(initial=-1),), dtype=bool)
    np.put_along_axis(held, legs, True, axis=-1)
    # a position is transacted where its holding flips; the book starts empty
    tc = np.diff(held, axis=1, prepend=False).sum(axis=(0, 2)).astype(np.float64)
    net = gross - cfg.cost_rate * tc / legs.shape[-1]
    return net, tc


def cumulative_wealth(returns) -> np.ndarray:
    """Running product of (1 + r)."""
    return np.cumprod(1.0 + np.asarray(returns, dtype=np.float64))


_DEGENERATE_STD = 1e-12  # below this a std is treated as zero (float residue)


def ar_av_sr(returns, cfg: PortfolioConfig) -> tuple[float, float, float, bool]:
    """Annualized return, annualized volatility, Sharpe ratio.

    Returns (AR, AV, SR, degenerate); SR is 0 and degenerate is True when
    the volatility vanishes (constant return series).
    """
    r = np.asarray(returns, dtype=np.float64)
    ar = float(r.mean() * cfg.trading_days)
    av = float(r.std() * np.sqrt(cfg.trading_days))
    if av < _DEGENERATE_STD:
        return ar, av, 0.0, True
    return ar, av, ar / av, False


def mdd(returns) -> float:
    """Maximum drawdown of the running sum of returns (single pass)."""
    cums = np.cumsum(np.asarray(returns, dtype=np.float64))
    peaks = np.maximum.accumulate(cums)
    return float((peaks - cums).max())


def calmar(ar: float, max_drawdown: float) -> tuple[float, bool]:
    """AR / MDD; 0 and flagged when the drawdown is zero."""
    if max_drawdown == 0.0:
        return 0.0, True
    return ar / max_drawdown, False


# -- forecast metrics ---------------------------------------------------------


def rank_ic_series(y_hat: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Per-period correlation between forecast ranks and true-return ranks."""
    return pearson(average_ranks(y_hat), average_ranks(y_true))


def information_ratio(series: np.ndarray) -> tuple[float, bool]:
    """Mean of a per-period series divided by its population std."""
    sd = float(series.std())
    if sd < _DEGENERATE_STD:
        return 0.0, True
    return float(series.mean() / sd), False


def forecast_metrics(y_hat: np.ndarray, y_true: np.ndarray) -> tuple[dict, list]:
    """RMSE, MAE, IC, ICIR, RankIC, RankICIR over panel-shaped (I, T) arrays.

    RMSE and MAE are in the units of the inputs (percent returns here).
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_hat.shape != y_true.shape:
        raise ValueError("prediction and target shapes differ")
    err = y_hat - y_true
    true_ranks = average_ranks(y_true)
    ic = pearson(y_hat, true_ranks)
    rank_ic = pearson(average_ranks(y_hat), true_ranks)
    icir, ic_flat = information_ratio(ic)
    rank_icir, rank_flat = information_ratio(rank_ic)
    flags = []
    if ic_flat:
        flags.append("icir_undefined")
    if rank_flat:
        flags.append("rank_icir_undefined")
    metrics = {
        "rmse": float(np.sqrt((err * err).mean())),
        "mae": float(np.abs(err).mean()),
        "ic": float(ic.mean()),
        "icir": icir,
        "rank_ic": float(rank_ic.mean()),
        "rank_icir": rank_icir,
    }
    return metrics, flags


# -- full backtest -------------------------------------------------------------


def run_backtest(y_hat: np.ndarray, y_true: np.ndarray, cfg: PortfolioConfig) -> BacktestReport:
    """Backtest panel-shaped forecasts (I, T) against percent returns (I, T).

    Cumulative wealth compounds net (cost-adjusted) returns. Raises BadShape
    unless both are 2-D of one shape, NonFiniteForecast at the first stock row
    and period column that holds a NaN or infinite forecast or return.
    """
    shapes = np.shape(y_hat), np.shape(y_true)
    if len(shapes[0]) != 2 or shapes[0] != shapes[1]:
        raise BadShape(f"forecasts {shapes[0]} and returns {shapes[1]} are not (stocks, "
                       f"periods) arrays of one shape")
    for name, values in (("forecast", np.asarray(y_hat)), ("return", np.asarray(y_true))):
        bad = ~np.isfinite(values)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise NonFiniteForecast(f"{name} of stock row {row}, period column {col} is "
                                    f"{values[row, col]}")
    gross, longs, shorts = long_short_return(y_hat, y_true, cfg)
    net, tc = apply_costs(gross, longs, shorts, cfg)
    wealth = cumulative_wealth(net)

    ar, av, sr, sr_flat = ar_av_sr(net, cfg)
    max_dd = mdd(net)
    cr, cr_flat = calmar(ar, max_dd)
    metrics, flags = forecast_metrics(y_hat, y_true)
    metrics.update({
        "ar": ar, "av": av, "sr": sr, "mdd": max_dd, "cr": cr,
        "final_wealth": float(wealth[-1]),
    })
    if sr_flat:
        flags.append("sr_undefined")
    if cr_flat:
        flags.append("cr_undefined")
    return BacktestReport(gross=gross, net=net, wealth=wealth, turnover=tc,
                          metrics=metrics, flags=flags)

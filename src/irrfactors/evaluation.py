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


class UniverseTooSmall(ValueError):
    """Fewer stocks than the two portfolio legs need."""


@dataclass(frozen=True)
class PortfolioConfig:
    """Long-short portfolio sizing and cost model.

    n_fraction sets each leg to N = max(1, floor(n_fraction * I)) stocks;
    cost_rate is the fraction lost per transacted stock (0.001 = 0.1%).
    """

    n_fraction: float = 0.10
    cost_rate: float = 0.001
    trading_days_per_year: int = 252

    def __post_init__(self):
        if not 0.0 < self.n_fraction <= 0.5:
            raise ValueError("n_fraction must lie in (0, 0.5]")
        if self.cost_rate < 0:
            raise ValueError("cost_rate must be non-negative")
        if self.trading_days_per_year < 1:
            raise ValueError("trading_days_per_year must be positive")

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


# -- ranking helpers ---------------------------------------------------------


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..n with ties averaged."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    s = v[order]
    new_group = np.empty(v.size, dtype=bool)
    new_group[:1] = True
    new_group[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def pearson(a, b) -> float:
    """Population-moment Pearson correlation; 0 if either vector is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.sqrt((ac * ac).mean())
    sb = np.sqrt((bc * bc).mean())
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float((ac * bc).mean() / (sa * sb))


# -- strategy ----------------------------------------------------------------


def long_short_return(y_hat_t, y_true_t, cfg: PortfolioConfig
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """One period of the hedge: long the top-N forecasts, short the bottom-N.

    y_true_t is in percent and converted to fractions here. Ties in the
    forecast are broken by stock index (stable sort). Returns the gross
    strategy return and the long/short index arrays.
    """
    y_hat_t = np.asarray(y_hat_t, dtype=np.float64)
    y_frac = np.asarray(y_true_t, dtype=np.float64) / 100.0
    n_stocks = y_hat_t.size
    n = cfg.portfolio_size(n_stocks)
    if n_stocks < 2 * n:
        raise UniverseTooSmall(f"need at least {2 * n} stocks, have {n_stocks}")
    order = np.argsort(-y_hat_t, kind="stable")
    longs = order[:n]
    shorts = order[-n:]
    gross = (y_frac[longs].sum() - y_frac[shorts].sum()) / n
    return float(gross), longs, shorts


def apply_costs(gross: np.ndarray, memberships, cfg: PortfolioConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """Net returns after transaction costs.

    The transacted count TC sums positions opened and closed on both books;
    the first period opens both full legs, so TC = 2N there. Net return is
    gross - cost_rate * TC / N.
    """
    gross = np.asarray(gross, dtype=np.float64)
    tc = np.zeros(gross.size)
    if gross.size == 0:
        return gross.copy(), tc
    prev_long: frozenset = frozenset()
    prev_short: frozenset = frozenset()
    n = None
    for t, (longs, shorts) in enumerate(memberships):
        cur_long = frozenset(int(i) for i in longs)
        cur_short = frozenset(int(i) for i in shorts)
        if n is None:
            n = len(cur_long)
        tc[t] = (len(cur_long ^ prev_long) + len(cur_short ^ prev_short))
        prev_long, prev_short = cur_long, cur_short
    net = gross - cfg.cost_rate * tc / n
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
    ar = float(r.mean() * cfg.trading_days_per_year)
    av = float(r.std() * np.sqrt(cfg.trading_days_per_year))
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


def ic_series(y_hat: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Per-period correlation between forecasts and true-return ranks."""
    return np.array([pearson(y_hat[:, t], average_ranks(y_true[:, t]))
                     for t in range(y_hat.shape[1])])


def rank_ic_series(y_hat: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Per-period correlation between forecast ranks and true-return ranks."""
    return np.array([pearson(average_ranks(y_hat[:, t]), average_ranks(y_true[:, t]))
                     for t in range(y_hat.shape[1])])


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
    ic = ic_series(y_hat, y_true)
    rank_ic = rank_ic_series(y_hat, y_true)
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

    Cumulative wealth compounds net (cost-adjusted) returns.
    """
    n_periods = y_hat.shape[1]
    gross = np.empty(n_periods)
    memberships = []
    for t in range(n_periods):
        g, longs, shorts = long_short_return(y_hat[:, t], y_true[:, t], cfg)
        gross[t] = g
        memberships.append((longs, shorts))
    net, tc = apply_costs(gross, memberships, cfg)
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

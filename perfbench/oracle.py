"""Report metrics recomputed from predictions.csv, independently of the program.

Nothing here comes from `irrfactors.evaluation`: ranks are counted from
pairwise comparisons, correlations from column moments, and the long-short
hedge from a Python sort on (-forecast, stock index). The formulas are the
paper's: IC and RankIC are per-period correlations with the ranks of the
true returns, averaged over the test periods; SR is annualised mean over
annualised population std of the cost-adjusted returns; MDD is the largest
drop of their running sum; final wealth compounds them.
"""

from __future__ import annotations

import csv
import math

import numpy as np

CHECKED = ("ic", "rank_ic", "sr", "mdd", "final_wealth")
TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with what the benchmark expects."""


def _data_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        header = next(reader)
        return header, list(reader)


def read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    """Forecasts and true returns as (stocks, periods), in file order."""
    header, rows = _data_rows(path)
    if header != ["date", "stock_id", "y_hat", "y_true"]:
        raise CheckFailed(f"{path}: unexpected header {header}")
    dates, stocks = [], []
    for date, sid, _, _ in rows:
        if not dates or dates[-1] != date:
            dates.append(date)
        if len(dates) == 1:
            stocks.append(sid)
    if len(rows) != len(dates) * len(stocks):
        raise CheckFailed(f"{path}: {len(rows)} rows for {len(dates)} dates "
                          f"x {len(stocks)} stocks")
    values = np.array([[float(r[2]), float(r[3])] for r in rows])
    values = values.reshape(len(dates), len(stocks), 2)
    return values[:, :, 0].T.copy(), values[:, :, 1].T.copy()


def read_report(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or ":" not in line:
                continue
            key, value = (part.strip() for part in line.split(":", 1))
            out[key] = value
    return out


def ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks 1..n down each column, ties sharing their mean rank."""
    below = (values[None, :, :] < values[:, None, :]).sum(axis=1)
    equal = (values[None, :, :] == values[:, None, :]).sum(axis=1)
    return below + (equal + 1) / 2.0


def column_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Population Pearson correlation of matching columns; 0 where one is flat."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    scale = np.sqrt((ac * ac).mean(axis=0) * (bc * bc).mean(axis=0))
    cov = (ac * bc).mean(axis=0)
    return np.divide(cov, scale, out=np.zeros_like(cov), where=scale > 0)


def hedge_returns(y_hat: np.ndarray, y_true: np.ndarray, n_fraction: float,
                  cost_rate: float) -> np.ndarray:
    """Cost-adjusted returns (fractions) of the equal-weight top-N/bottom-N hedge."""
    n_stocks, n_periods = y_hat.shape
    n = max(1, math.floor(n_fraction * n_stocks))
    net = []
    prev_long, prev_short = set(), set()
    for t in range(n_periods):
        order = sorted(range(n_stocks), key=lambda i: (-y_hat[i, t], i))
        longs, shorts = set(order[:n]), set(order[-n:])
        gross = (sum(y_true[i, t] for i in longs) - sum(y_true[i, t] for i in shorts)) / 100.0 / n
        traded = len(longs ^ prev_long) + len(shorts ^ prev_short)
        net.append(gross - cost_rate * traded / n)
        prev_long, prev_short = longs, shorts
    return np.array(net)


def recompute(predictions_path, n_fraction: float, cost_rate: float,
              trading_days: int) -> dict:
    y_hat, y_true = read_predictions(predictions_path)
    true_ranks = ranks(y_true)
    net = hedge_returns(y_hat, y_true, n_fraction, cost_rate)
    vol = net.std() * math.sqrt(trading_days)
    running, peak, drawdown, wealth = 0.0, 0.0, 0.0, 1.0
    for k, r in enumerate(net):
        running += r
        peak = running if k == 0 else max(peak, running)
        drawdown = max(drawdown, peak - running)
        wealth *= 1.0 + r
    return {
        "ic": float(column_corr(y_hat, true_ranks).mean()),
        "rank_ic": float(column_corr(ranks(y_hat), true_ranks).mean()),
        "sr": 0.0 if vol < 1e-12 else float(net.mean() * trading_days / vol),
        "mdd": drawdown,
        "final_wealth": wealth,
    }


def check_report(run_dir, n_fraction: float, cost_rate: float,
                 trading_days: int) -> dict:
    """Compare report.txt with the recomputation; return the recomputed metrics."""
    expected = recompute(f"{run_dir}/predictions.csv", n_fraction, cost_rate, trading_days)
    report = read_report(f"{run_dir}/report.txt")
    for key in CHECKED:
        got = float(report[key])
        if not abs(got - expected[key]) <= TOLERANCE * max(1.0, abs(expected[key])):
            raise CheckFailed(f"report {key} = {got!r}, recomputed {expected[key]!r}")
    return expected


def check_finite_cells(path) -> None:
    """Every numeric cell of an artifact is finite; text cells are skipped."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            for cell in line.replace(":", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    raise CheckFailed(f"{path}: non-finite value in {line.strip()!r}")

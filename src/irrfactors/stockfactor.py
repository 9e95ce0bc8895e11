"""Stock-level irrationality factors via learned soft cointegration.

Each stock gets a virtual rational price: an attention-weighted combination
of the other stocks' scaled prices. The residual between virtual and actual
price is the stock-level factor; a regression loss pulls the virtual price
onto the actual one and an AR(1) stationarity penalty (with |rho| < 1 by
tanh reparameterization) keeps the residual mean-reverting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .panel import BadPrice, BadShape, PanelMismatch, TooShort
from .settings import require

ATT_MASK = -1e30  # additive logit mask that zeroes the diagonal after softmax


class TooFewStocks(ValueError):
    """The operation needs at least 2 stocks."""


class TooShortSeries(ValueError):
    """The operation needs more periods than were provided."""


def init_params(n_stocks: int) -> ad.ParamSet:
    """Learnable combination weights at their fixed start: betas (I, I) = 1,
    attention logits w_att (I, I) = 0 and AR coefficients rho_raw (I,) = 0;
    the diagonals of beta and w_att are unused.

    rho is stored unconstrained as rho_raw; tanh keeps |rho| < 1 for every
    finite value, so the stationarity constraint holds by construction.
    """
    if n_stocks < 2:
        raise TooFewStocks("cointegration attention needs at least 2 stocks")
    return ad.ParamSet({"beta": np.ones((n_stocks, n_stocks)),
                        "w_att": np.zeros((n_stocks, n_stocks)),
                        "rho_raw": np.zeros(n_stocks)})


def rho(params: ad.ParamSet) -> np.ndarray:
    return np.tanh(params["rho_raw"].data)


@dataclass
class StockFactorSeries:
    """Residual factor u and the virtual price it came from; u = p_tilde - p."""

    u: np.ndarray        # (I, T)
    p_tilde: np.ndarray  # (I, T)


def _attention(params: ad.ParamSet) -> np.ndarray:
    """Row-softmax of the attention logits with the diagonal masked out, (I, I)."""
    w_att = params["w_att"].data
    return ad.softmax(w_att + np.where(np.eye(w_att.shape[0], dtype=bool), ATT_MASK, 0.0))


def _check_prices(prices: np.ndarray) -> None:
    """BadPrice naming the stock and period of the first NaN, infinite or
    non-positive price of (I, T) prices."""
    bad = ~((prices > 0.0) & (prices < np.inf))
    if bad.any():
        i, t = np.argwhere(bad)[0]
        raise BadPrice(f"prices: stock {i} at period {t} is {float(prices[i, t])!r}, not a "
                       f"finite positive price")


def residual(prices: np.ndarray, params: ad.ParamSet) -> StockFactorSeries:
    """Factor series u = p_tilde - p of prices (I, T); PanelMismatch when I is
    not the parameters' stock count, and what _check_prices raises."""
    n_stocks = params["beta"].shape[0]
    if prices.shape[0] != n_stocks:
        raise PanelMismatch(f"prices have {prices.shape[0]} stocks; the stock parameters "
                            f"beta hold {n_stocks}")
    _check_prices(prices)
    p_tilde = (_attention(params) * params["beta"].data) @ prices
    return StockFactorSeries(u=p_tilde - prices, p_tilde=p_tilde)


def _rho_penalty(u: np.ndarray, rho_raw: np.ndarray):
    """AR(1) stationarity penalty mean((u_t - tanh(rho_raw) u_{t-1})^2) of a
    residual series u (I, T); the penalty and vjp(g) -> (g_u, g_rho_raw)."""
    if u.shape[1] < 2:
        raise TooShortSeries("stationarity penalty needs at least 2 periods")
    rho = np.tanh(rho_raw)
    rho_col = rho.reshape(-1, 1)
    prev = u[:, :-1]
    diff = u[:, 1:] - rho_col * prev
    penalty = np.add.reduce(diff * diff, axis=None) / diff.size

    def vjp(g):
        g_sq = np.broadcast_to(g / diff.size, diff.shape)
        g_diff = g_sq * diff + g_sq * diff
        g_scaled = -g_diff
        g_rho_col = ad.unbroadcast(g_scaled * prev, rho_col.shape)
        g_u = np.zeros_like(u)
        g_u[:, :-1] += g_scaled * rho_col       # prev's rows, then cur's
        g_cur = np.zeros_like(u)
        g_cur[:, 1:] += g_diff
        g_rho = g_rho_col.reshape(rho.shape)
        return g_u + g_cur, g_rho * (1.0 - rho * rho)

    return penalty, vjp


def _loss_op(prices: np.ndarray, params: ad.ParamSet, regression: bool,
             lambda1: float | None) -> Tensor:
    """The regression MSE, lambda1 times the stationarity penalty, or their sum
    (lambda1 None: no penalty); one tape node whose parents are beta, w_att
    and rho_raw. Forward and VJP repeat the numpy expressions of the chain of
    tape primitives it replaces (tests/taped.py keeps it as the oracle) and sum
    each gradient's terms in the tape's order, so every value keeps its bits.
    """
    beta, rho_raw = params["beta"].data, params["rho_raw"].data
    att = _attention(params)
    weights = att * beta
    p_tilde = weights @ prices
    if regression:
        diff = prices - p_tilde
        loss = mse = np.add.reduce(diff * diff, axis=None) / diff.size
    if lambda1 is not None:
        penalty, penalty_vjp = _rho_penalty(p_tilde - prices, rho_raw)
        loss = lambda1 * penalty
        if regression:
            loss = mse + loss

    def vjp(g):
        g_p_tilde = g_rho_raw = None
        if lambda1 is not None:
            g_p_tilde, g_rho_raw = penalty_vjp(g * lambda1)
        if regression:
            g_sq = np.broadcast_to(g / diff.size, diff.shape)
            g_diff = -(g_sq * diff + g_sq * diff)
            g_p_tilde = g_diff if g_p_tilde is None else g_p_tilde + g_diff
        g_weights, _ = ad.matmul_vjp(g_p_tilde, weights, prices, need_b=False)
        return g_weights * att, ad.softmax_vjp(att, g_weights * beta), g_rho_raw

    return ad.record(loss, (params["beta"], params["w_att"], params["rho_raw"]), vjp)


def loss_beta(prices: np.ndarray, params: ad.ParamSet) -> Tensor:
    """Mean squared regression error between actual and virtual prices."""
    return _loss_op(prices, params, True, None)


def loss_rho(prices: np.ndarray, params: ad.ParamSet) -> Tensor:
    """AR(1) stationarity penalty on the residual series."""
    return _loss_op(prices, params, False, 1.0)


def loss_S(prices: np.ndarray, params: ad.ParamSet, lambda1: float) -> Tensor:
    """Joint objective: regression loss plus lambda1 times the AR(1) penalty."""
    return _loss_op(prices, params, True, lambda1)


@dataclass(frozen=True)
class StockFactorHyper:
    lambda1: float = 0.5
    lr: float = 0.02
    steps: int = 2000

    def __post_init__(self):
        require(self.lambda1 >= 0, "lambda1", "must be non-negative")


def train_stock_factors(prices: np.ndarray, hyper: StockFactorHyper,
                        train_end: int) -> ad.ParamSet:
    """Fit the combination parameters on prices (I, T) before train_end.

    Full-batch Adam from the fixed initialization (beta = 1, logits = 0,
    rho_raw = 0); deterministic. `residual` gives the factor series. Raises
    BadShape for prices that are not (I, T), TooShort for a train_end not in
    1..T and what _check_prices raises on the periods it reads.
    """
    if prices.ndim != 2:
        raise BadShape(f"prices {prices.shape} are not (stocks, periods)")
    if not 0 < train_end <= prices.shape[1]:
        raise TooShort(f"train_end {train_end} is not within the panel's {prices.shape[1]} "
                       f"periods")
    train = prices[:, :train_end]
    _check_prices(train)
    params = init_params(prices.shape[0])
    opt = ad.adam_init(params)
    for _ in range(hyper.steps):
        ad.train_step(params, opt, lambda: loss_S(train, params, hyper.lambda1), hyper.lr)
    return params


def stationarity_diagnostic(series: np.ndarray) -> float:
    """Least-squares AR(1) coefficient (no intercept) of a series.

    rho_hat = sum(u_t * u_{t-1}) / sum(u_{t-1}^2); values near or above 1
    indicate a unit root, values well below 1 a mean-reverting series.
    All-zero input is degenerate and reports 0.
    """
    u = np.asarray(series, dtype=np.float64).reshape(-1)
    if u.size < 10:
        raise TooShortSeries("AR(1) diagnostic needs at least 10 observations")
    denom = float(np.dot(u[:-1], u[:-1]))
    if denom == 0.0:
        return 0.0
    return float(np.dot(u[1:], u[:-1]) / denom)

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


def _attention_op(params: ad.ParamSet) -> Tensor:
    n = params["w_att"].shape[0]
    mask = ad.constant(np.where(np.eye(n, dtype=bool), ATT_MASK, 0.0))
    return ad.softmax_row(params["w_att"] + mask)


def _virtual_price_op(prices: Tensor, params: ad.ParamSet) -> Tensor:
    att = _attention_op(params)
    return (att * params["beta"]) @ prices


def residual(prices: np.ndarray, params: ad.ParamSet) -> StockFactorSeries:
    """Factor series u = p_tilde - p of prices (I, T)."""
    p_tilde = _virtual_price_op(ad.constant(prices), params).data
    return StockFactorSeries(u=p_tilde - prices, p_tilde=p_tilde)


def _fit_op(prices: np.ndarray, params: ad.ParamSet) -> tuple[Tensor, Tensor]:
    """Actual and virtual prices (p, p_tilde)."""
    p = ad.constant(prices)
    return p, _virtual_price_op(p, params)


def _mse(p: Tensor, p_tilde: Tensor) -> Tensor:
    diff = p - p_tilde
    return (diff * diff).mean()


def loss_beta(prices: np.ndarray, params: ad.ParamSet) -> Tensor:
    """Mean squared regression error between actual and virtual prices."""
    return _mse(*_fit_op(prices, params))


def loss_rho(prices: np.ndarray, params: ad.ParamSet) -> Tensor:
    """AR(1) stationarity penalty on the residual series."""
    p, p_tilde = _fit_op(prices, params)
    return _rho_penalty(p_tilde - p, params)


def _rho_penalty(u: Tensor, params: ad.ParamSet) -> Tensor:
    if u.shape[1] < 2:
        raise TooShortSeries("stationarity penalty needs at least 2 periods")
    rho = ad.tanh(params["rho_raw"]).reshape(-1, 1)
    cur = u[(slice(None), slice(1, None))]
    prev = u[(slice(None), slice(0, -1))]
    diff = cur - rho * prev
    return (diff * diff).mean()


def loss_S(prices: np.ndarray, params: ad.ParamSet, lambda1: float) -> Tensor:
    """Joint objective: regression loss plus lambda1 times the AR(1) penalty."""
    p, p_tilde = _fit_op(prices, params)
    return _mse(p, p_tilde) + lambda1 * _rho_penalty(p_tilde - p, params)


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
    rho_raw = 0); deterministic. `residual` gives the factor series.
    """
    params = init_params(prices.shape[0])
    opt = ad.adam_init(params)
    train = prices[:, :train_end]
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

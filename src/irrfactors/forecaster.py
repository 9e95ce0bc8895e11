"""Next-period return forecaster on factor-augmented feature windows.

Per stock, an L-step window of feature vectors concatenated with the
stock-level factor runs through a small transformer encoder; a relation
attention layer mixes the per-stock encodings across the market; an MLP head
maps encoding, relation context, and the previous period's market factor to
a scalar return forecast. Training minimizes MSE plus a rank-correlation
regularizer so the cross-sectional ordering of forecasts matters, not just
their magnitudes.

Everything a prediction for period t consumes has period index <= t - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluation import average_ranks, pearson
from .marketfactor import MarketFactorSeries
from .panel import windows
from .rng import stream
from .settings import BadSetting, require
from .stockfactor import StockFactorSeries


CHUNK_WINDOWS = 128  # stock windows per frozen predict call; bounds its peak memory
# Ablations leave out: NS the stock factor, NM the market factor, NR the IC loss, ND relations
ABLATIONS = ("none", "NS", "NM", "NR", "ND")


class AlignmentError(ValueError):
    """Factor series and panel disagree on shape, or a factor row read is missing."""


class EmptyTrainingSlice(BadSetting):
    """The validation tail leaves no period to train on."""


@dataclass(frozen=True)
class ForecasterHyper:
    window: int = 20
    width: int = 64
    blocks: int = 2
    heads: int = 4
    lr: float = 1e-3
    max_epochs: int = 60
    patience: int = 10
    val_fraction: float = 0.15
    lambda3: float = 0.1
    ablation: str = "none"   # one of ABLATIONS
    seed: int = 0

    def __post_init__(self):
        require(self.window >= 1, "window", "must be positive")
        require(self.heads >= 1 and self.width % self.heads == 0, "heads",
                f"must be positive and divide width {self.width}")
        require(self.val_fraction > 0, "val_fraction", "must be positive")
        require(self.val_fraction < 1, "val_fraction",
                f"{self.val_fraction} leaves no period for training", EmptyTrainingSlice)
        require(self.lambda3 >= 0, "lambda3", "must be non-negative")
        require(self.ablation in ABLATIONS, "ablation", f"must be one of {ABLATIONS}")


def init_params(n_features: int, hyper: ForecasterHyper,
                rng: np.random.Generator | None = None) -> ad.ParamSet:
    """Learnable state: input projection, encoder blocks, relation layer, head.

    Block i's tensors are named "blk{i}.w_q" and so on. The relation layer,
    p_c (width, 2D_e) into the relation space and the bilinear map w_y
    (2D_e, 2D_e), is absent under the ND ablation. rng defaults to the hyper
    seed's forecaster init stream.
    """
    rng = stream(hyper.seed, "forecaster", "init") if rng is None else rng
    w = hyper.width
    d_in = n_features + (0 if hyper.ablation == "NS" else 1)
    two_d = 2 * n_features
    blocks = {}
    for i in range(hyper.blocks):     # drawn before w_in: the draw order fixes the values
        blk = {
            "w_q": ad.glorot(rng, w, w),
            "w_k": ad.glorot(rng, w, w),
            "w_v": ad.glorot(rng, w, w),
            "w_o": ad.glorot(rng, w, w),
            "ln1_g": np.ones(w),
            "ln1_b": np.zeros(w),
            "ff_w1": ad.glorot(rng, w, 2 * w),
            "ff_b1": np.zeros(2 * w),
            "ff_w2": ad.glorot(rng, 2 * w, w),
            "ff_b2": np.zeros(w),
            "ln2_g": np.ones(w),
            "ln2_b": np.zeros(w),
        }
        blocks.update({f"blk{i}.{key}": value for key, value in blk.items()})
    arrays = {"w_in": ad.glorot(rng, d_in, w), "b_in": np.zeros(w), **blocks}
    if hyper.ablation != "ND":
        arrays["p_c"] = ad.glorot(rng, w, two_d)
        arrays["w_y"] = ad.glorot(rng, two_d, two_d)
    head_in = w + (0 if hyper.ablation == "ND" else w) + two_d
    arrays.update(head_w1=ad.glorot(rng, head_in, w), head_b1=np.zeros(w),
                  head_w2=ad.glorot(rng, w, 1), head_b2=np.zeros(1))
    return ad.ParamSet(arrays)


@functools.lru_cache(maxsize=8)
def _sinusoidal(length: int, width: int) -> np.ndarray:
    """Positional encoding (length, width); cached for every call, so read-only."""
    pos = np.arange(length)[:, None]
    dim = np.arange(width)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / width)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


@dataclass
class Prediction:
    """Forecasts for the test periods, panel-shaped (I, n_periods)."""

    periods: list[int]
    y_hat: np.ndarray
    y_true: np.ndarray


# -- model pieces ----------------------------------------------------------


def augment_features(features: np.ndarray, u: np.ndarray,
                     use_stock_factor: bool = True) -> np.ndarray:
    """Per-stock model inputs by period, (I, T, D_in): the features with the
    factor series as a last column, which the NS ablation leaves out."""
    I, T, _ = features.shape
    if u.shape != (I, T):
        raise AlignmentError(f"factor series {u.shape} does not match panel ({I}, {T})")
    if not use_stock_factor:
        return features
    return np.concatenate([features, u[..., None]], axis=-1)


def _encoder_block(x: Tensor, params: ad.ParamSet, index: int, heads: int,
                   rows: int | None) -> Tensor:
    """Transformer block `index` over (..., L, width) windows.

    With `rows`, queries and everything after them run on the last `rows`
    positions alone, (..., rows, width); keys and values still cover all L.
    rows=1 projects the query from position L-1 alone, a one-row product
    that numpy sends to gemv: frozen scoring's form, whose bits differ
    slightly from the full block's. When only position L-1 of the output
    reaches the loss, rows >= 2 keeps the full block's bits, in its values
    and every gradient, by two rules:

    1. Every product stays a gemm, which rounds each kept row as in the
       full product. This rests on OpenBLAS's gemm (measured with 0.3.31).
    2. The gradient of the block's input sums in the full block's order,
       ((residual + v) + k) + q: q is projected on all L rows and attention
       takes the trailing rows itself, and the residual's rows are taken
       after the k and v projections.
    """
    def blk(key: str) -> Tensor:
        return params[f"blk{index}.{key}"]

    first = x.shape[-2] - (rows or x.shape[-2])
    if rows == 1:       # frozen form: the query projected from one row
        x_q = x[..., first:, :]
        mixed = ad.attention(x_q @ blk("w_q"), x @ blk("w_k"), x @ blk("w_v"), heads)
    else:
        mixed = ad.attention(x @ blk("w_q"), x @ blk("w_k"), x @ blk("w_v"), heads, rows)
        x_q = x[..., first:, :] if first else x    # after the k and v projections (rule 2)
    x = ad.layer_norm(x_q + mixed @ blk("w_o"), blk("ln1_g"), blk("ln1_b"))
    hidden = ad.relu(ad.linear(x, blk("ff_w1"), blk("ff_b1")))
    ff = ad.linear(hidden, blk("ff_w2"), blk("ff_b2"))
    return ad.layer_norm(x + ff, blk("ln2_g"), blk("ln2_b"))


def _temporal_encode_op(params: ad.ParamSet, hyper: ForecasterHyper, g: np.ndarray,
                        frozen: bool = False) -> Tensor:
    """Encode (..., I, L, D_in) windows into per-stock vectors (..., I, width).

    Only position L-1 of the final block is read out, so that block runs on
    the last two positions in training, bit for bit the full block, and on
    position L-1 alone when frozen (see _encoder_block).
    """
    x = ad.linear(g, params["w_in"], params["b_in"])
    x = x + ad.constant(_sinusoidal(g.shape[-2], hyper.width))
    rows = 1 if frozen else (2 if g.shape[-2] > 2 else None)
    for i in range(hyper.blocks):
        x = _encoder_block(x, params, i, hyper.heads, rows if i == hyper.blocks - 1 else None)
    return x[..., -1, :]


def _relation_op(params: ad.ParamSet, c: Tensor, r_prev: np.ndarray) -> Tensor:
    """Relation-attention context: softmax over pairwise scores, mixing c.

    c is (..., I, width) and r_prev (..., I, 2D_e); stocks mix only within
    their own period.
    """
    v = ad.linear(c, params["p_c"], r_prev)
    z = v @ ad.swapaxes(params["w_y"], -1, -2)
    scores = z @ ad.swapaxes(z, -1, -2)
    att = ad.softmax_row(scores)
    return att @ c


def _head_op(params: ad.ParamSet, parts: list[Tensor]) -> Tensor:
    x = ad.concat(parts, axis=-1)
    hidden = ad.relu(ad.linear(x, params["head_w1"], params["head_b1"]))
    out = ad.linear(hidden, params["head_w2"], params["head_b2"])
    return out.reshape(out.shape[:-1])


def _predict_op(params: ad.ParamSet, hyper: ForecasterHyper,
                g: np.ndarray, r_prev: np.ndarray, m_prev: np.ndarray,
                frozen: bool = False) -> Tensor:
    """Forecasts (..., I) from windows (..., I, L, D_in).

    r_prev is (..., I, 2D_e) and m_prev (..., 2D_e); the leading axes index
    periods. frozen selects the encoder's frozen-scoring form.
    """
    c = _temporal_encode_op(params, hyper, g, frozen)
    m_prev = np.asarray(m_prev, dtype=np.float64)
    m_shape = c.shape[:-1] + m_prev.shape[-1:]
    if hyper.ablation != "NM":
        m_rows = np.broadcast_to(m_prev[..., None, :], m_shape)
    else:
        m_rows = np.zeros(m_shape)
    parts = [c]
    if hyper.ablation != "ND":
        parts.append(_relation_op(params, c, r_prev))
    parts.append(ad.constant(m_rows))
    return _head_op(params, parts)


def predict(params: ad.ParamSet, hyper: ForecasterHyper, g: np.ndarray,
            r_prev: np.ndarray, m_prev: np.ndarray) -> np.ndarray:
    """Frozen-parameter forecast for one period, (I,), or a block of periods.

    Block inputs carry a leading period axis, g (P, I, L, D_in), r_prev
    (P, I, 2D_e) and m_prev (P, 2D_e), and give (P, I).
    """
    return _predict_op(params, hyper, g, r_prev, m_prev, frozen=True).data


# -- objective -------------------------------------------------------------


def _ic_op(y_hat: Tensor, z: np.ndarray) -> Tensor:
    z = np.asarray(z, dtype=np.float64)
    zc = ad.constant(z - z.mean())
    z_sd = float(z.std())
    if z_sd == 0.0:
        return ad.constant(0.0)
    centered = y_hat - y_hat.mean()
    cov = (centered * zc).mean()
    return cov / (y_hat.std() * z_sd)


def loss_total(y_hat: Tensor, y: np.ndarray, z: np.ndarray, lambda3: float) -> Tensor:
    """Per-period objective: mean squared error minus lambda3 times the IC."""
    diff = y_hat - ad.constant(np.asarray(y, dtype=np.float64))
    mse = (diff * diff).mean()
    if lambda3 == 0.0:
        return mse
    return mse + (-lambda3) * _ic_op(y_hat, z)


# -- training ---------------------------------------------------------------


def train_forecaster(features: np.ndarray, returns: np.ndarray,
                     stock_factors: StockFactorSeries,
                     market_factors: MarketFactorSeries,
                     hyper: ForecasterHyper, train_end: int) -> ad.ParamSet:
    """Train on periods before train_end; `predict_periods` gives the forecasts.

    The factor inputs are frozen; one optimization step consumes one period
    (all stocks). A tail slice of the training range serves as validation:
    training stops when the validation rank correlation has not improved for
    `patience` epochs, and the best-validation parameters are restored.
    Deterministic given the hyper seed.
    """
    I, T = returns.shape
    u = stock_factors.u
    if u.shape != (I, T) or market_factors.m.shape[0] != T:
        raise AlignmentError("factor series do not match the panel")
    eligible = np.arange(max(hyper.window, market_factors.window), train_end)
    if eligible.size < 10:
        raise ValueError("not enough training periods for the forecaster window")
    n_val = max(2, int(round(hyper.val_fraction * eligible.size)))
    train_periods = eligible[:-n_val]
    val_periods = eligible[-n_val:]
    if train_periods.size == 0:
        raise EmptyTrainingSlice("val_fraction", f"{hyper.val_fraction} leaves none of the "
                                 f"{eligible.size} eligible periods for training")

    params = init_params(features.shape[2], hyper)
    opt = ad.adam_init(params)
    # Per-step invariants, built once per call: the augmented inputs and the
    # target ranks of each training and validation period, which every epoch reuses.
    inputs = augment_features(features, u, hyper.ablation != "NS")
    lambda3 = 0.0 if hyper.ablation == "NR" else hyper.lambda3
    ranks = average_ranks(returns[:, train_periods])
    val_ranks = average_ranks(returns[:, val_periods])

    def loss(t: int) -> Tensor:
        y_hat = _predict_op(params, hyper, windows(inputs, t, hyper.window),
                            market_factors.r[:, t - 1], market_factors.m[t - 1])
        return loss_total(y_hat, returns[:, t], ranks[:, t - train_periods[0]], lambda3)

    def val_rank_ic() -> float:
        y_hat = predict_periods(params, hyper, features, u, market_factors, val_periods)
        return float(pearson(average_ranks(y_hat), val_ranks).mean())

    best_metric = -np.inf
    best_snap = params.snapshot()
    bad_epochs = 0
    for epoch in range(hyper.max_epochs):
        order = stream(hyper.seed, "forecaster", "order", epoch).permutation(train_periods)
        for t in order:
            ad.train_step(params, opt, lambda: loss(int(t)), hyper.lr)
        metric = val_rank_ic()
        if metric > best_metric + 1e-9:
            best_metric = metric
            best_snap = params.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hyper.patience:
                break
    params.restore(best_snap)
    return params


def predict_periods(params: ad.ParamSet, hyper: ForecasterHyper,
                    features: np.ndarray, u: np.ndarray,
                    market_factors: MarketFactorSeries, periods) -> np.ndarray:
    """Frozen forecasts for the given periods, (I, len(periods)).

    Periods are scored in blocks of about CHUNK_WINDOWS stock windows, one
    predict call per block; each block's output equals that of one predict
    call per period exactly. A period whose market factor row t - 1 is NaN
    raises AlignmentError before any predict call.
    """
    periods = np.asarray(periods, dtype=np.int64)
    # A period outside the panel fails below, in windows(), with TooEarly.
    inside = periods[(periods >= 1) & (periods <= market_factors.m.shape[0])]
    unknown = np.isnan(market_factors.m[inside - 1]).any(axis=1)
    if unknown.any():
        t = int(inside[unknown.argmax()])
        raise AlignmentError(f"period {t} reads market factor row {t - 1}, which is NaN "
                             f"(never computed)")
    n_stocks = features.shape[0]
    step = max(1, CHUNK_WINDOWS // n_stocks)
    out = np.empty((n_stocks, periods.size))
    inputs = augment_features(features, u, hyper.ablation != "NS")
    for lo in range(0, periods.size, step):
        block = periods[lo:lo + step]
        g = windows(inputs, block, hyper.window)
        r_prev = np.swapaxes(market_factors.r[:, block - 1], 0, 1)
        out[:, lo:lo + step] = predict(params, hyper, g, r_prev,
                                       market_factors.m[block - 1]).T
    return out

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
from .panel import _require_finite, check_windows
from .rng import stream
from .settings import BadSetting, require


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


def _check_inputs(features: np.ndarray, u: np.ndarray, market_factors: MarketFactorSeries,
                  periods: np.ndarray, window: int) -> None:
    """Raise AlignmentError when u (I, T), m (T, 2d) or the summaries
    (I, T - first, d) do not match the (I, T, d) panel, or a period t reads a
    market row t - 1 that is NaN or before the summaries' first, and TooEarly
    (check_windows) when a period's window does not fit the panel."""
    I, T, d = features.shape
    first = market_factors.first
    shapes = (u.shape, market_factors.m.shape, market_factors.summary.shape)
    if shapes != ((I, T), (T, 2 * d), (I, T - first, d)):
        raise AlignmentError(f"factors u, m, summary {shapes} does not match panel "
                             f"{features.shape} with summaries from period {first}")
    check_windows(periods, window, T)
    early = periods <= first
    if early.any():
        t = int(periods[early.argmax()])
        raise AlignmentError(f"period {t} reads market factor row {t - 1}, before the "
                             f"series' summaries start at row {first}")
    unknown = np.isnan(market_factors.m[periods - 1]).any(axis=1)
    if unknown.any():
        t = int(periods[unknown.argmax()])
        raise AlignmentError(f"period {t} reads market factor row {t - 1}, which is NaN "
                             f"(never computed)")


def _inputs(features: np.ndarray, u: np.ndarray, market_factors: MarketFactorSeries,
            periods, hyper: ForecasterHyper) -> tuple:
    """Inputs of periods that _check_inputs accepted: windows (P, I, L, D_in),
    the features with u as a last column unless NS leaves it out, r_{t-1}
    (P, I, 2D_e) and m_{t-1} (P, 2D_e).

    r_{t-1} joins features[:, t-1] to the series' summary row t - 1 - first,
    so the features must be those the series was computed from, as in the
    pipeline.
    """
    periods = np.asarray(periods)
    n_stocks, _, d = features.shape
    length = hyper.window
    # C-contiguous: a strided operand would send predict's matmuls to
    # numpy's own loop, which rounds differently from BLAS
    g = np.empty((periods.size, n_stocks, length, d + (hyper.ablation != "NS")))
    r_prev = np.empty((periods.size, n_stocks, 2 * d))
    for k, t in enumerate(periods):
        g[k, ..., :d] = features[:, t - length:t]
        g[k, ..., d:] = u[:, t - length:t, None]     # no column under NS
        r_prev[k, :, :d] = features[:, t - 1]
        r_prev[k, :, d:] = market_factors.summary[:, t - 1 - market_factors.first]
    return g, r_prev, market_factors.m[periods - 1]


# The model and its loss are one tape node each: _predict_op's parents are
# the parameters, loss_total's is y_hat. Each piece below returns its output
# and a VJP closure that writes its parameters' gradients into `grads`, or
# None when no tape records (keep=False), so that untaped scoring frees each
# intermediate once it is used. Forward and VJP repeat the numpy expressions
# of the chain of tape primitives they replace (tests/taped.py keeps it as
# the oracle). Where a gradient has several terms they are summed in the
# order the tape summed them, the reverse of the order in which the chain
# created their nodes, and a zero-filled scatter adds (+=) as take's VJP
# does; so every value and gradient keeps the chain's bits.


# Measured with OpenBLAS 0.3.31 on an AVX-512 core: a product a @ b.T with an
# inner dimension of 32 or more runs in a small-matrix kernel while its output
# has at most this many elements, and in the blocked kernel beyond; the two
# round differently.
SMALL_GEMM_ELEMENTS = 1200


def _prunes_exactly(length: int, width: int, heads: int) -> bool:
    """Whether the final block run on its last two positions keeps the full
    block's bits (rule 1 of _encoder_block). Attention's products round a
    kept row by the row count with one dimension per head (gemv), and at
    some windows with 2 or 3 or with 32 or more. The read-out rows' input
    gradients g @ w.T through ff_w2 (n = 2 * width, k = width), ff_w1
    (n = width, k = 2 * width) and w_o (n = k = width, within ff_w2's
    bound, as is the query projection) must stay in the full product's
    kernel."""
    dh = width // heads
    return 4 <= dh < 32 and all(k < 32 or length * n <= SMALL_GEMM_ELEMENTS
                                for n, k in ((2 * width, width), (width, 2 * width)))


def _encoder_block(x: np.ndarray, p: dict, index: int, heads: int, first: int, keep: bool):
    """Transformer block `index` over (..., L, width) windows; the output
    (..., L - first, width) and vjp(g, grads) -> the input's gradient.

    The queries are projected from positions first..L-1 and everything after
    them runs on those rows; keys and values cover all L. Frozen scoring keeps
    position L-1 alone: a one-row query projection, which numpy sends to gemv,
    so its bits differ slightly from the full block's; it is never
    differentiated. In training only position L-1 of the output reaches the
    loss, and two or more rows keep the full block's bits, in its values and
    every gradient, by two rules:

    1. Every product rounds each kept row as the full product does; the query
       projection is of mixed @ w_o's class. With OpenBLAS (measured with
       0.3.31) that holds only at the shapes _prunes_exactly admits;
       elsewhere the block runs on all L positions.
    2. The gradient of the block's input sums in the full block's order,
       ((residual + v) + k) + q: q's gradient and the residual's are both
       written back full-shaped, zero on the rows before `first`.
    """
    def blk(key: str) -> str:
        return f"blk{index}.{key}"

    w_q, w_k, w_v, w_o = (p[blk(key)] for key in ("w_q", "w_k", "w_v", "w_o"))
    x_q = np.array(x[..., first:, :]) if first else x
    mixed, attention_vjp = ad.attention_fwd(x_q @ w_q, x @ w_k, x @ w_v, heads, keep)
    h1, ln1_vjp = ad.layer_norm_fwd(x_q + mixed @ w_o, p[blk("ln1_g")], p[blk("ln1_b")],
                                    keep)
    hidden, ff1_vjp = ad.linear_fwd(h1, p[blk("ff_w1")], p[blk("ff_b1")], keep)
    np.maximum(hidden, 0.0, out=hidden)     # relu; hidden > 0 where its input was
    ff, ff2_vjp = ad.linear_fwd(hidden, p[blk("ff_w2")], p[blk("ff_b2")], keep)
    out, ln2_vjp = ad.layer_norm_fwd(h1 + ff, p[blk("ln2_g")], p[blk("ln2_b")], keep)

    def vjp(g: np.ndarray, grads: dict) -> np.ndarray:
        g_a2, grads[blk("ln2_g")], grads[blk("ln2_b")] = ln2_vjp(g)     # a2 = h1 + ff
        g_hidden, grads[blk("ff_w2")], grads[blk("ff_b2")] = ff2_vjp(g_a2)
        g_h1, grads[blk("ff_w1")], grads[blk("ff_b1")] = ff1_vjp(g_hidden * (hidden > 0.0))
        g_h1 = g_a2 + g_h1                      # ff residual + ff_w1 path
        g_a1, grads[blk("ln1_g")], grads[blk("ln1_b")] = ln1_vjp(g_h1)  # a1 = x_q + mixed @ w_o
        g_mixed, grads[blk("w_o")] = ad.matmul_vjp(g_a1, mixed, w_o)
        gq, gk, gv = attention_vjp(g_mixed)
        g_residual = g_a1
        if first:       # q's rows written back, the residual's scattered as take's VJP does
            gq_full = np.zeros_like(x)
            gq_full[..., first:, :] = gq
            gq = gq_full
            g_residual = np.zeros_like(x)
            g_residual[..., first:, :] += g_a1
        g_from_q, grads[blk("w_q")] = ad.matmul_vjp(gq, x, w_q)
        g_from_k, grads[blk("w_k")] = ad.matmul_vjp(gk, x, w_k)
        g_from_v, grads[blk("w_v")] = ad.matmul_vjp(gv, x, w_v)
        return ((g_residual + g_from_v) + g_from_k) + g_from_q

    return out, vjp if keep else None


def _temporal_encode(p: dict, hyper: ForecasterHyper, g: np.ndarray, frozen: bool = False,
                     keep: bool = False):
    """Encode (..., I, L, D_in) windows into per-stock vectors (..., I, width);
    the encoding and vjp(g, grads).

    Only position L-1 of the final block is read out, so that block runs on
    the last two positions in training where that keeps the full block's
    bits (on all of them elsewhere), and on position L-1 alone when frozen
    (see _encoder_block).
    """
    length = g.shape[-2]
    x, in_vjp = ad.linear_fwd(g, p["w_in"], p["b_in"], keep)
    x = x + _sinusoidal(length, hyper.width)
    if frozen:
        first = length - 1
    else:
        first = max(length - 2, 0) if _prunes_exactly(length, hyper.width, hyper.heads) else 0
    block_vjps = []
    for i in range(hyper.blocks):
        x, block_vjp = _encoder_block(x, p, i, hyper.heads,
                                      first if i == hyper.blocks - 1 else 0, keep)
        block_vjps.append(block_vjp)

    def vjp(g_c: np.ndarray, grads: dict) -> None:
        g_x = np.zeros_like(x)
        g_x[..., -1, :] += g_c
        for block_vjp in reversed(block_vjps):
            g_x = block_vjp(g_x, grads)
        _, grads["w_in"], grads["b_in"] = in_vjp(g_x, need=(False, True, True))

    return np.array(x[..., -1, :]), vjp if keep else None


def _relation(p: dict, c: np.ndarray, r_prev: np.ndarray, keep: bool = False):
    """Relation-attention context: softmax over pairwise scores, mixing c;
    the context and vjp(g_c_head, g, grads) -> c's gradient.

    c is (..., I, width) and r_prev (..., I, 2D_e); stocks mix only within
    their own period. c also feeds the head, whose gradient g_c_head comes
    first in c's sum.
    """
    v, v_vjp = ad.linear_fwd(c, p["p_c"], r_prev, keep)
    w_y_t = p["w_y"].swapaxes(-1, -2)
    z = v @ w_y_t
    z_t = z.swapaxes(-1, -2)
    att = ad.softmax(z @ z_t)

    def vjp(g_c_head: np.ndarray, g: np.ndarray, grads: dict) -> np.ndarray:
        g_att, g_c = ad.matmul_vjp(g, att, c)
        g_z, g_z_t = ad.matmul_vjp(ad.softmax_vjp(att, g_att), z, z_t)
        g_z = g_z + g_z_t.swapaxes(-1, -2)
        g_v, g_w_y_t = ad.matmul_vjp(g_z, v, w_y_t)
        grads["w_y"] = g_w_y_t.swapaxes(-1, -2)
        g_from_v, grads["p_c"], _ = v_vjp(g_v, need=(True, True, False))
        return (g_c_head + g_c) + g_from_v

    return att @ c, vjp if keep else None


def _predict_op(params: ad.ParamSet, hyper: ForecasterHyper,
                g: np.ndarray, r_prev: np.ndarray, m_prev: np.ndarray,
                frozen: bool = False) -> Tensor | np.ndarray:
    """Forecasts (..., I) from windows (..., I, L, D_in), as one tape node
    whose parents are the parameters.

    r_prev is (..., I, 2D_e) and m_prev (..., 2D_e); the leading axes index
    periods. frozen selects the encoder's frozen-scoring form, which is never
    differentiated: it records no node and returns the plain array.
    """
    p = params.arrays()
    keep = not frozen and ad.recording(params)
    c, encode_vjp = _temporal_encode(p, hyper, g, frozen, keep)
    m_prev = np.asarray(m_prev, dtype=np.float64)
    m_shape = c.shape[:-1] + m_prev.shape[-1:]
    if hyper.ablation != "NM":
        m_rows = np.broadcast_to(m_prev[..., None, :], m_shape)
    else:
        m_rows = np.zeros(m_shape)
    relations = hyper.ablation != "ND"
    parts = [c]
    if relations:
        context, relation_vjp = _relation(p, c, r_prev, keep)
        parts.append(context)
    x = np.concatenate(parts + [m_rows], axis=-1)
    hidden, h1_vjp = ad.linear_fwd(x, p["head_w1"], p["head_b1"], keep)
    np.maximum(hidden, 0.0, out=hidden)
    out, h2_vjp = ad.linear_fwd(hidden, p["head_w2"], p["head_b2"], keep)

    def vjp(g: np.ndarray) -> tuple:
        grads = {}
        g_hidden, grads["head_w2"], grads["head_b2"] = h2_vjp(g.reshape(out.shape))
        g_x, grads["head_w1"], grads["head_b1"] = h1_vjp(g_hidden * (hidden > 0.0))
        width = c.shape[-1]
        g_c = g_x[..., :width]
        if relations:
            g_c = relation_vjp(g_c, g_x[..., width:2 * width], grads)
        encode_vjp(g_c, grads)
        return tuple(grads[name] for name in p)

    y_hat = out.reshape(out.shape[:-1])
    return y_hat if frozen else ad.record(y_hat, tuple(params), vjp)


def predict(params: ad.ParamSet, hyper: ForecasterHyper, g: np.ndarray,
            r_prev: np.ndarray, m_prev: np.ndarray) -> np.ndarray:
    """Frozen-parameter forecast for one period, (I,), or a block of periods.

    Block inputs carry a leading period axis, g (P, I, L, D_in), r_prev
    (P, I, 2D_e) and m_prev (P, 2D_e), and give (P, I).
    """
    return _predict_op(params, hyper, g, r_prev, m_prev, frozen=True)


# -- objective -------------------------------------------------------------


def loss_total(y_hat: Tensor, y: np.ndarray, z: np.ndarray, lambda3: float) -> Tensor:
    """Per-period objective: mean squared error minus lambda3 times the IC, the
    Pearson correlation of y_hat with the target ranks z (0 when z is constant).
    One tape node whose parent is y_hat."""
    f = y_hat.data
    n = f.size
    diff = f - np.asarray(y, dtype=np.float64)
    mse = np.add.reduce(diff * diff, axis=None) / n
    z = np.asarray(z, dtype=np.float64)
    z_sd = float(z.std())
    with_ic = lambda3 != 0.0 and z_sd != 0.0      # else the IC adds -0.0: mse's bits
    if with_ic:
        zc = z - z.mean()
        centered = f - np.add.reduce(f, axis=None) / n
        cov = np.add.reduce(centered * zc, axis=None) / n
        sd = np.sqrt(np.add.reduce(centered * centered, axis=None) / n + ad.STD_EPS)
        den = sd * z_sd
        ic = cov / den
        loss = mse + (-lambda3) * ic
    else:
        loss = mse

    def vjp(g: np.ndarray) -> tuple:
        g_sq = g / n                            # each element's share of the mean
        g_diff = g_sq * diff + g_sq * diff      # diff * diff: a-slot plus b-slot
        if not with_ic:
            return (g_diff,)
        # y_hat's gradient sums ((std + centered) + mean) + diff, as the chain did
        g_ic = g * (-lambda3)
        g_cov = g_ic / den
        g_den = -g_ic * cov / (den * den)
        g_f = g_den * z_sd * centered / (n * sd)            # the std's term
        g_centered = g_cov / n * zc
        g_f = g_f + g_centered
        g_f = g_f + ad.unbroadcast(-g_centered, ()) / n     # the mean's term
        return (g_f + g_diff,)

    return ad.record(loss, (y_hat,), vjp)


# -- training ---------------------------------------------------------------


def train_forecaster(features: np.ndarray, returns: np.ndarray, u: np.ndarray,
                     market_factors: MarketFactorSeries,
                     hyper: ForecasterHyper, train_end: int) -> ad.ParamSet:
    """Train on periods before train_end; `predict_periods` gives the forecasts.

    The factor inputs are frozen; one optimization step consumes one period
    (all stocks). A tail slice of the training range serves as validation:
    training stops when the validation rank correlation has not improved for
    `patience` epochs, and the best-validation parameters are restored.
    Deterministic given the hyper seed. Raises what _check_inputs raises, and
    NonFiniteFeature for a NaN or infinite return on a period it reads.
    """
    if returns.shape != features.shape[:2]:
        raise AlignmentError(f"returns {returns.shape} does not match panel {features.shape[:2]}")
    eligible = np.arange(max(hyper.window, market_factors.window), train_end)
    if eligible.size < 10:
        raise ValueError("not enough training periods for the forecaster window")
    _check_inputs(features, u, market_factors, eligible, hyper.window)
    _require_finite(returns[:, eligible, None], ("return",), range(features.shape[0]),
                    [f"period {t}" for t in eligible], "returns: ")
    n_val = max(2, int(round(hyper.val_fraction * eligible.size)))
    train_periods = eligible[:-n_val]
    val_periods = eligible[-n_val:]
    if train_periods.size == 0:
        raise EmptyTrainingSlice("val_fraction", f"{hyper.val_fraction} leaves none of the "
                                 f"{eligible.size} eligible periods for training")

    params = init_params(features.shape[2], hyper)
    opt = ad.adam_init(params)
    # The target ranks of the training and validation periods, reused every epoch
    lambda3 = 0.0 if hyper.ablation == "NR" else hyper.lambda3
    ranks = average_ranks(returns[:, train_periods])
    val_ranks = average_ranks(returns[:, val_periods])

    def loss(t: int) -> Tensor:
        g, r_prev, m_prev = _inputs(features, u, market_factors, [t], hyper)
        y_hat = _predict_op(params, hyper, g[0], r_prev[0], m_prev[0])
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

    Once _check_inputs passes, periods are scored in blocks of about
    CHUNK_WINDOWS stock windows, one predict call on each block's _inputs;
    each block's output equals that of one predict call per period exactly.
    """
    periods = np.asarray(periods, dtype=np.int64)
    _check_inputs(features, u, market_factors, periods, hyper.window)
    step = max(1, CHUNK_WINDOWS // features.shape[0])
    out = np.empty((features.shape[0], periods.size))
    for lo in range(0, periods.size, step):
        g, r_prev, m_prev = _inputs(features, u, market_factors, periods[lo:lo + step], hyper)
        out[:, lo:lo + step] = predict(params, hyper, g, r_prev, m_prev).T
    return out


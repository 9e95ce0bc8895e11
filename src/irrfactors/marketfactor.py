"""Market-level irrationality factors via self-supervised representation learning.

Per period, each stock gets a dynamic representation: its current feature
vector concatenated with a self-attention summary of a short history window.
An ID-involved non-negative weight combines the stock representations into a
market representation m_t. Two tasks shape m_t: contrastive agreement between
two random sub-market halves of the same period (InfoNCE), and prediction of
the next period's market synchronism label from m_{t-1}.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .panel import BadShape, PanelMismatch, TooShort, _require_finite, windows
from .rng import stream
from .settings import require
from .stockfactor import TooFewStocks

logger = logging.getLogger(__name__)

CHUNK_WINDOWS = 1024  # stock windows per frozen encoding call; bounds market_series' peak memory


class NoNegatives(ValueError):
    """Contrastive loss needs at least 2 periods in the batch."""


def init_params(n_stocks: int, n_features: int, hyper: MarketFactorHyper,
                rng: np.random.Generator | None = None) -> ad.ParamSet:
    """All learnable state of the market encoder and its two task heads.

    w_s (D_e, D_e) and b_s (D_e,) project the window attention; w_id (2D_e, I)
    holds per-stock ID embeddings (columns) and w_eta (2D_e,) is the weight
    head; w_crit (4D_e,) and b_crit () score contrastive pairs; cls_w1
    (2D_e, 2D_e), cls_b1, cls_w2 (2D_e, 3) and cls_b2 classify synchronism.
    rng defaults to the hyper seed's market init stream.
    """
    rng = stream(hyper.seed, "market", "init") if rng is None else rng
    d = n_features
    two_d = 2 * d
    id_scale = 1.0 / np.sqrt(two_d)
    w_eta = rng.uniform(-1.0, 1.0, size=two_d) / np.sqrt(two_d)
    # Shift the ID embeddings along w_eta so the weight preactivations
    # start positive: ReLU would otherwise begin in its dead zone for
    # entire periods and the weight head would never receive gradient.
    w_id = rng.uniform(-id_scale, id_scale, size=(two_d, n_stocks))
    w_id += (1.5 * w_eta / np.dot(w_eta, w_eta))[:, None]
    return ad.ParamSet({
        "w_s": np.eye(d) + rng.normal(scale=0.02, size=(d, d)),
        "b_s": np.zeros(d),
        "w_id": w_id,
        "w_eta": w_eta,
        "w_crit": rng.uniform(-1.0, 1.0, size=4 * d) / np.sqrt(4 * d),
        "b_crit": 0.0,
        "cls_w1": ad.glorot(rng, two_d, two_d),
        "cls_b1": np.zeros(two_d),
        "cls_w2": ad.glorot(rng, two_d, 3),
        "cls_b2": np.zeros(3),
    })


@dataclass
class MarketFactorSeries:
    """Frozen outputs: market vectors m (T, 2D_e), the attention summaries
    (I, T - first, D_e) of the stocks' history windows at periods first..T-1,
    and per period whether m fell back to uniform stock weights (T,).

    A stock's representation r_t is its feature vector at t joined to its
    summary, row t - first; only the summary is stored, so a reader of r
    joins it to the features this series was computed from
    (forecaster._inputs does). Rows before window - 1 are NaN (the history
    window does not fit there), and so is every row a restricted
    `market_series` call left out; neither fell back.
    """

    m: np.ndarray
    summary: np.ndarray
    window: int
    first: int = 0
    fallback: np.ndarray | None = None


# -- representation extraction -------------------------------------------
#
# The market objective is one tape node whose parents are the ten parameters
# (_loss_op). Each piece below takes the parameter arrays and returns its
# output and a VJP closure, or None for it unless keep, so that frozen
# evaluation keeps no intermediate past its use. A VJP returns the gradient
# of the piece's input and adds its parameters' gradients into `grads`.
# Forward and VJP repeat the numpy expressions of the chain of tape
# primitives they replace (tests/taped.py keeps it as the oracle); where a
# gradient has several terms they are summed in the order the tape summed
# them, the reverse of the order in which the chain created their nodes, so
# every value and gradient keeps the chain's bits.


def _accumulate(grads: dict, name: str, g: np.ndarray) -> None:
    """Add g to a parameter's gradient after the terms already there."""
    grads[name] = g if name not in grads else grads[name] + g


def _stock_reprs(features: np.ndarray, p: dict, periods: np.ndarray, window: int,
                 keep: bool = False):
    """Dynamic stock representations for a batch of periods, (P, I, 2D_e), and
    vjp(g, grads)."""
    win = windows(features, periods + 1, window)                        # (P, I, L, D)
    w_s_t = p["w_s"].swapaxes(0, 1)
    proj, proj_vjp = ad.linear_fwd(win, w_s_t, p["b_s"], keep)         # (P, I, L, D)
    query = np.array(proj[:, :, window - 1:window])                     # (P, I, 1, D)
    mix, attention_vjp = ad.attention_fwd(query, proj, win, 1, grad=keep)
    n_p, n_i, _, d = win.shape
    current = np.ascontiguousarray(win[:, :, window - 1, :])
    out = np.concatenate([current, mix.reshape(n_p, n_i, d)], axis=-1)

    def vjp(g: np.ndarray, grads: dict) -> None:
        g_query, g_proj, _ = attention_vjp(g[..., d:].reshape(mix.shape), (True, True, False))
        g_take = np.zeros_like(proj)
        g_take[:, :, window - 1:window] += g_query
        _, g_w_s_t, g_b_s = proj_vjp(g_proj + g_take, need=(False, True, True))
        _accumulate(grads, "w_s", g_w_s_t.swapaxes(0, 1))
        _accumulate(grads, "b_s", g_b_s)

    return out, vjp if keep else None


def _market_repr(reprs: np.ndarray, p: dict, subset: np.ndarray, keep: bool = False):
    """Weighted market representation over a stock subset, (P, 2D_e), which
    of its rows fell back (P,), and vjp(g, grads) -> the gradient of reprs.

    Rows whose weights are all zero fall back to a uniform average (the
    normalizer would otherwise be 0/0); the event is logged.
    """
    sub = reprs[:, subset]                                               # (P, n, 2D)
    w_id_t = p["w_id"].swapaxes(0, 1)
    ids = w_id_t[subset]                                                 # (n, 2D)
    two_d = p["w_eta"].shape[0]
    w_eta = p["w_eta"].reshape(two_d, 1)
    shifted = sub + ids
    pre = shifted @ w_eta                                                # (P, n, 1)
    eta = np.maximum(pre, 0.0)
    fell_back = eta.sum(axis=1)[:, 0] == 0.0
    if fell_back.any():
        logger.debug("all stock weights zero for %d period(s); using uniform fallback",
                     int(fell_back.sum()))
        eta = eta + np.where(fell_back[:, None, None], 1.0, 0.0)
    eta_t = eta.swapaxes(-1, -2)
    weighted = eta_t @ sub                                               # (P, 1, 2D)
    denom = np.add.reduce(eta, axis=1, keepdims=True)                    # (P, 1, 1)
    ratio = weighted / denom

    def vjp(g: np.ndarray, grads: dict) -> np.ndarray:
        g = g.reshape(ratio.shape)
        g_denom = ad.unbroadcast(-g * weighted / (denom * denom), denom.shape)
        g_eta_t, g_sub = ad.matmul_vjp(g / denom, eta_t, sub)
        g_eta = np.broadcast_to(g_denom, eta.shape) + g_eta_t.swapaxes(-1, -2)
        g_shifted, g_w_eta = ad.matmul_vjp(g_eta * (pre > 0.0), shifted, w_eta)
        g_ids = np.zeros_like(w_id_t)
        np.add.at(g_ids, (subset,), ad.unbroadcast(g_shifted, ids.shape))
        _accumulate(grads, "w_id", g_ids.swapaxes(0, 1))
        _accumulate(grads, "w_eta", g_w_eta.reshape(two_d))
        g_reprs = np.zeros_like(reprs)
        np.add.at(g_reprs, (slice(None), subset), g_sub + g_shifted)
        return g_reprs

    return ratio.reshape(reprs.shape[0], two_d), fell_back, vjp if keep else None


def submarket_split(n: int, seed: int, epoch) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint exhaustive halves of stocks 0..n-1, resampled deterministically
    per epoch."""
    if n < 2:
        raise TooFewStocks("cannot split fewer than 2 stocks")
    perm = stream(seed, "submarket", epoch).permutation(n)
    half = (n + 1) // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# -- self-supervised objectives -------------------------------------------


def _pair_logits(p: dict, m1: np.ndarray, m2: np.ndarray, periods: np.ndarray,
                 keep: bool = False):
    """Damped criterion logits for all anchor/candidate pairs, (P, P), and
    vjp(g, grads) -> (g_m1, g_m2)."""
    two_d = p["w_eta"].shape[0]
    w1 = p["w_crit"][:two_d].reshape(two_d, 1)
    w2 = p["w_crit"][two_d:2 * two_d].reshape(two_d, 1)
    n_p = len(periods)
    u = (m1 @ w1).reshape(n_p, 1)
    v = (m2 @ w2).reshape(1, n_p)
    gaps = np.abs(periods[:, None] - periods[None, :]).astype(np.float64)
    damp = 1.0 / (gaps + 1.0)
    logits = (u + v + p["b_crit"]) * damp

    def vjp(g: np.ndarray, grads: dict) -> tuple:
        g = g * damp
        _accumulate(grads, "b_crit", ad.unbroadcast(g, ()))
        g_m2, g_w2 = ad.matmul_vjp(ad.unbroadcast(g, v.shape).reshape(n_p, 1), m2, w2)
        g_m1, g_w1 = ad.matmul_vjp(ad.unbroadcast(g, u.shape).reshape(n_p, 1), m1, w1)
        g_w_crit = np.zeros_like(p["w_crit"])
        g_w_crit[two_d:2 * two_d] += g_w2.reshape(two_d)
        g_first = np.zeros_like(p["w_crit"])
        g_first[:two_d] += g_w1.reshape(two_d)
        _accumulate(grads, "w_crit", g_w_crit + g_first)
        return g_m1, g_m2

    return logits, vjp if keep else None


def _submarket_logits(p: dict, features: np.ndarray, periods: np.ndarray, window: int,
                      halves: tuple, keep: bool = False):
    """Damped criterion logits (P, P) of first-half market representations
    against second-half ones, and vjp(g, grads)."""
    reprs, reprs_vjp = _stock_reprs(features, p, periods, window, keep)
    m1, _, m1_vjp = _market_repr(reprs, p, halves[0], keep)
    m2, _, m2_vjp = _market_repr(reprs, p, halves[1], keep)
    logits, pair_vjp = _pair_logits(p, m1, m2, periods, keep)

    def vjp(g: np.ndarray, grads: dict) -> None:
        g_m1, g_m2 = pair_vjp(g, grads)
        g_reprs = m2_vjp(g_m2, grads)
        reprs_vjp(g_reprs + m1_vjp(g_m1, grads), grads)

    return logits, vjp if keep else None


def _sync_logits(p: dict, features: np.ndarray, periods: np.ndarray, window: int,
                 keep: bool = False):
    """Synchronism class logits (P, 3) of periods t from the market of t - 1,
    and vjp(g, grads)."""
    reprs, reprs_vjp = _stock_reprs(features, p, periods - 1, window, keep)
    m_prev, _, market_vjp = _market_repr(reprs, p, np.arange(features.shape[0]), keep)
    pre, h1_vjp = ad.linear_fwd(m_prev, p["cls_w1"], p["cls_b1"], keep)
    hidden = np.maximum(pre, 0.0)
    logits, h2_vjp = ad.linear_fwd(hidden, p["cls_w2"], p["cls_b2"], keep)

    def vjp(g: np.ndarray, grads: dict) -> None:
        g_hidden, grads["cls_w2"], grads["cls_b2"] = h2_vjp(g)
        g_m, grads["cls_w1"], grads["cls_b1"] = h1_vjp(g_hidden * (pre > 0.0))
        reprs_vjp(market_vjp(g_m, grads), grads)

    return logits, vjp if keep else None


def cross_entropy(logits: np.ndarray, labels: np.ndarray, keep: bool = False):
    """Mean negative log-likelihood of integer labels under row logits, and
    vjp(g) -> the logits' gradient."""
    idx = np.arange(logits.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    shift = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    total = np.add.reduce(e, axis=-1)
    nll = (np.log(total) + np.squeeze(shift, axis=-1)) - logits[idx, labels]
    loss = np.add.reduce(nll, axis=None) / nll.size

    def vjp(g: np.ndarray) -> np.ndarray:
        g_nll = np.broadcast_to(g / nll.size, nll.shape)
        g_picked = np.zeros_like(logits)
        np.add.at(g_picked, (idx, labels), -g_nll)
        return np.broadcast_to((g_nll / total)[:, None], e.shape) * e + g_picked

    return loss, vjp if keep else None


def _loss_op(params: ad.ParamSet, features: np.ndarray, periods, window: int,
             halves: tuple | None = None, labels=None, lambda2: float = 1.0) -> Tensor:
    """The contrastive loss on the sub-market halves, plus lambda2 times the
    prediction loss of the labels, or either term alone (its argument None);
    one tape node whose parents are the ten parameters."""
    p = params.arrays()
    keep = ad.recording(params)
    periods = np.asarray(periods, dtype=np.int64)
    if halves is not None:
        if periods.size < 2:
            raise NoNegatives("contrastive loss needs a batch of at least 2 periods")
        logits, logits_vjp = _submarket_logits(p, features, periods, window, halves, keep)
        loss, ce_vjp = cross_entropy(logits, np.arange(len(periods)), keep)
    if labels is not None:
        sync, sync_vjp = _sync_logits(p, features, periods, window, keep)
        target = np.array([int(labels[t]) for t in periods], dtype=np.int64)
        prediction, prediction_vjp = cross_entropy(sync, target, keep)
        weighted = lambda2 * prediction
        loss = weighted if halves is None else loss + weighted

    def vjp(g: np.ndarray) -> tuple:
        grads = {}
        if labels is not None:
            sync_vjp(prediction_vjp(g * lambda2), grads)
        if halves is not None:
            logits_vjp(ce_vjp(g), grads)
        return tuple(grads.get(name) for name in p)

    return ad.record(loss, tuple(params), vjp)


def infonce_loss(params: ad.ParamSet, features: np.ndarray,
                 periods, window: int, seed: int, epoch: int) -> Tensor:
    """Sub-market contrastive loss over a batch of periods.

    Positives pair the two halves of the same period; negatives pair the
    anchor's first half with other periods' second halves within the batch,
    so the loss is the cross-entropy of each anchor's own period.
    """
    halves = submarket_split(features.shape[0], seed, epoch)
    return _loss_op(params, features, periods, window, halves=halves)


def loss_P(params: ad.ParamSet, features: np.ndarray, labels, periods,
           window: int) -> Tensor:
    """Synchronism-prediction loss: cross-entropy of the label of period t
    predicted from the full-market representation of period t - 1."""
    return _loss_op(params, features, periods, window, labels=labels)


def loss_M(params: ad.ParamSet, features: np.ndarray, labels, periods,
           lambda2: float, window: int, seed: int, epoch: int) -> Tensor:
    """Joint market objective: contrastive loss plus lambda2 * prediction loss.

    The prediction term for period t reads the market representation of
    period t - 1 only, so it never sees the period it labels.
    """
    halves = submarket_split(features.shape[0], seed, epoch)
    return _loss_op(params, features, periods, window, halves, labels, lambda2)


# -- training --------------------------------------------------------------


CLS_WEIGHT_DECAY = 0.1  # decoupled decay on the classifier head


@dataclass(frozen=True)
class MarketFactorHyper:
    lambda2: float = 1.0
    window: int = 20
    lr: float = 0.01
    epochs: int = 40
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        require(self.lambda2 >= 0, "lambda2", "must be non-negative")
        require(self.window >= 1, "window", "must be positive")
        require(self.batch >= 2, "batch", "must be at least 2, for a contrastive negative")


def _check_features(features: np.ndarray) -> None:
    """BadShape unless features are (I, T, D_e); NonFiniteFeature naming the stock,
    period and feature of the first NaN or infinite cell."""
    if np.ndim(features) != 3:
        raise BadShape(f"features {np.shape(features)} are not (stocks, periods, features)")
    I, T, d = features.shape
    _require_finite(features, [f"feature {j}" for j in range(d)], range(I),
                    [f"period {t}" for t in range(T)], "features: ")


def train_market_factors(features: np.ndarray, labels, hyper: MarketFactorHyper,
                         train_end: int) -> ad.ParamSet:
    """Minibatch-train the market encoder on features (I, T, D_e) and the
    per-period synchronism labels, on the periods before train_end.

    Splits the market into fresh halves every epoch. Deterministic given the
    hyper seed; `market_series` gives the frozen m_t / r_t. Raises what
    _check_features raises, BadShape unless there is one label per period and
    TooShort for a train_end not in 1..T.
    """
    _check_features(features)
    if len(labels) != features.shape[1]:
        raise BadShape(f"{len(labels)} labels for {features.shape[1]} periods")
    if not 0 < train_end <= features.shape[1]:
        raise TooShort(f"train_end {train_end} is not within the panel's {features.shape[1]} "
                       f"periods")
    params = init_params(features.shape[0], features.shape[2], hyper)
    eligible = np.arange(hyper.window, train_end)
    if eligible.size < 2:
        raise ValueError("not enough training periods for the market window")
    opt = ad.adam_init(params)
    # Decaying the prediction head keeps it from memorizing the drifting
    # level coordinates of m on markets where the label is unpredictable;
    # it then settles near the class-prior solution instead.
    head = [params["cls_w1"], params["cls_w2"]]
    for epoch in range(hyper.epochs):
        order = stream(hyper.seed, "market", "order", epoch).permutation(eligible)
        halves = submarket_split(features.shape[0], hyper.seed, epoch)
        for start in range(0, len(order), hyper.batch):
            batch = order[start:start + hyper.batch]
            if batch.size < 2:
                continue
            ad.train_step(params, opt, lambda: _loss_op(
                params, features, batch, hyper.window, halves, labels, hyper.lambda2),
                hyper.lr)
            for p in head:
                p.data -= hyper.lr * CLS_WEIGHT_DECAY * p.data
    return params


def market_series(features: np.ndarray, params: ad.ParamSet, window: int,
                  rows=None, first: int = 0) -> MarketFactorSeries:
    """Frozen m_t, computed from the whole of r_t, for every period where the
    window fits, or only for those of `rows`; every other row is NaN. The
    summary half of r_t is kept from period `first` on, or from the first
    row a `rows` call encodes.

    Periods are encoded in chunks of max(1, CHUNK_WINDOWS // I), which bounds
    the working memory by stock windows, not by the panel; every row has the
    same bits whatever the chunk. Raises what _check_features raises,
    PanelMismatch when the stock or feature count is not the parameters',
    TooShort when the window is longer than the panel.
    """
    _check_features(features)
    I, T, d = features.shape
    n_stocks, n_features = params["w_id"].shape[1], params["w_s"].shape[0]
    if I != n_stocks:
        raise PanelMismatch(f"features have {I} stocks; the market parameters w_id hold "
                            f"{n_stocks}")
    if d != n_features:
        raise PanelMismatch(f"features have {d} features; the market parameters w_s hold "
                            f"{n_features}")
    if window > T:
        raise TooShort(f"features have {T} periods, fewer than the window of {window}")
    if rows is None:
        periods = np.arange(window - 1, T)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        periods = rows[rows >= window - 1]
        first = int(periods.min(initial=T))
    m = np.full((T, 2 * d), np.nan)
    summary = np.full((I, T - first, d), np.nan)
    fallback = np.zeros(T, dtype=bool)
    p = params.arrays()
    full = np.arange(I)
    chunk = max(1, CHUNK_WINDOWS // I)
    for start in range(0, len(periods), chunk):
        ts = periods[start:start + chunk]
        reprs, _ = _stock_reprs(features, p, ts, window)
        kept = ts >= first
        summary[:, ts[kept] - first, :] = reprs[kept, :, d:].transpose(1, 0, 2)
        m[ts, :], fallback[ts], _ = _market_repr(reprs, p, full)
    return MarketFactorSeries(m=m, summary=summary, window=window, first=first,
                              fallback=fallback)


def contrastive_separation(params: ad.ParamSet, features: np.ndarray,
                           periods, window: int, seed: int) -> tuple[float, float]:
    """Mean positive-pair and negative-pair criterion values, exp of the
    training logits on the "eval" halves, over the given periods."""
    periods = np.asarray(periods, dtype=np.int64)
    halves = submarket_split(features.shape[0], seed, "eval")
    values = np.exp(_submarket_logits(params.arrays(), features, periods, window, halves)[0])
    positive = np.eye(len(periods), dtype=bool)
    return float(values[positive].mean()), float(values[~positive].mean())


def classifier_accuracy(params: ad.ParamSet, features: np.ndarray, labels,
                        periods, window: int) -> float:
    """Held-out accuracy of the synchronism classifier on the given periods."""
    periods = np.asarray(periods, dtype=np.int64)
    predicted = _sync_logits(params.arrays(), features, periods, window)[0].argmax(axis=1)
    target = np.array([int(labels[t]) for t in periods])
    return float((predicted == target).mean())

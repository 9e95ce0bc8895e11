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
from .panel import windows
from .rng import stream
from .settings import require
from .stockfactor import TooFewStocks

logger = logging.getLogger(__name__)


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
    """Frozen outputs: market vectors m (T, 2D_e) and stock vectors r (I, T, 2D_e).

    Rows before window - 1 are NaN (the history window does not fit there),
    and so is every row a restricted `market_series` call left out.
    """

    m: np.ndarray
    r: np.ndarray
    window: int


# -- representation extraction -------------------------------------------


def _stock_reprs_op(features: np.ndarray, params: ad.ParamSet,
                    periods: np.ndarray, window: int) -> Tensor:
    """Dynamic stock representations for a batch of periods, (P, I, 2D_e)."""
    win = ad.constant(windows(features, periods + 1, window))           # (P, I, L, D)
    proj = ad.linear(win, ad.swapaxes(params["w_s"], 0, 1), params["b_s"])  # (P, I, L, D)
    query = proj[(slice(None), slice(None), slice(window - 1, window))] # (P, I, 1, D)
    mix = ad.attention(query, proj, win, heads=1)                       # (P, I, 1, D)
    p, i, _, d = win.shape
    current = ad.constant(np.ascontiguousarray(win.data[:, :, window - 1, :]))
    return ad.concat([current, mix.reshape(p, i, d)], axis=-1)


def _market_repr_op(reprs: Tensor, params: ad.ParamSet,
                    subset: np.ndarray) -> Tensor:
    """Weighted market representation over a stock subset, (P, 2D_e).

    Rows whose weights are all zero fall back to a uniform average (the
    normalizer would otherwise be 0/0); the event is logged.
    """
    sub = reprs[(slice(None), subset)]                                   # (P, n, 2D)
    ids = ad.swapaxes(params["w_id"], 0, 1)[(subset,)]                   # (n, 2D)
    two_d = params["w_eta"].shape[0]
    pre = (sub + ids) @ params["w_eta"].reshape(two_d, 1)                # (P, n, 1)
    eta = ad.relu(pre)
    totals = eta.data.sum(axis=1)
    if np.any(totals == 0.0):
        logger.debug("all stock weights zero for %d period(s); using uniform fallback",
                     int((totals == 0.0).sum()))
        fallback = np.where(totals[:, None, :] == 0.0, 1.0, 0.0)
        fallback = np.broadcast_to(fallback, eta.shape).copy()
        eta = eta + ad.constant(fallback)
    weighted = ad.swapaxes(eta, -1, -2) @ sub                            # (P, 1, 2D)
    denom = eta.sum(axis=1, keepdims=True)                               # (P, 1, 1)
    p = reprs.shape[0]
    return (weighted / denom).reshape(p, two_d)


def submarket_split(n: int, seed: int, epoch) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint exhaustive halves of stocks 0..n-1, resampled deterministically
    per epoch."""
    if n < 2:
        raise TooFewStocks("cannot split fewer than 2 stocks")
    perm = stream(seed, "submarket", epoch).permutation(n)
    half = (n + 1) // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# -- self-supervised objectives -------------------------------------------


def _pair_logits_op(params: ad.ParamSet, m1: Tensor, m2: Tensor,
                    periods: np.ndarray) -> Tensor:
    """Damped criterion logits for all anchor/candidate pairs, (P, P)."""
    two_d = params["w_eta"].shape[0]
    w1 = params["w_crit"][(slice(0, two_d),)].reshape(two_d, 1)
    w2 = params["w_crit"][(slice(two_d, 2 * two_d),)].reshape(two_d, 1)
    p = len(periods)
    u = (m1 @ w1).reshape(p, 1)
    v = (m2 @ w2).reshape(1, p)
    gaps = np.abs(periods[:, None] - periods[None, :]).astype(np.float64)
    damp = ad.constant(1.0 / (gaps + 1.0))
    return (u + v + params["b_crit"]) * damp


def _submarket_logits_op(params: ad.ParamSet, features: np.ndarray,
                         periods: np.ndarray, window: int, seed: int, epoch) -> Tensor:
    """Damped criterion logits (P, P) of first-half market representations
    against second-half ones, on the halves drawn for (seed, epoch)."""
    sub1, sub2 = submarket_split(features.shape[0], seed, epoch)
    reprs = _stock_reprs_op(features, params, periods, window)
    m1 = _market_repr_op(reprs, params, sub1)
    m2 = _market_repr_op(reprs, params, sub2)
    return _pair_logits_op(params, m1, m2, periods)


def infonce_loss(params: ad.ParamSet, features: np.ndarray,
                 periods, window: int, seed: int, epoch: int) -> Tensor:
    """Sub-market contrastive loss over a batch of periods.

    Positives pair the two halves of the same period; negatives pair the
    anchor's first half with other periods' second halves within the batch,
    so the loss is the cross-entropy of each anchor's own period.
    """
    periods = np.asarray(periods, dtype=np.int64)
    if periods.size < 2:
        raise NoNegatives("contrastive loss needs a batch of at least 2 periods")
    logits = _submarket_logits_op(params, features, periods, window, seed, epoch)
    return cross_entropy(logits, np.arange(len(periods)))


def _sync_logits_op(params: ad.ParamSet, features: np.ndarray, periods: np.ndarray,
                    window: int) -> Tensor:
    """Synchronism class logits (P, 3) of periods t from the market of t - 1."""
    reprs = _stock_reprs_op(features, params, periods - 1, window)
    m_prev = _market_repr_op(reprs, params, np.arange(features.shape[0]))
    hidden = ad.relu(ad.linear(m_prev, params["cls_w1"], params["cls_b1"]))
    return ad.linear(hidden, params["cls_w2"], params["cls_b2"])


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row logits."""
    idx = np.arange(logits.shape[0])
    picked = logits[(idx, np.asarray(labels, dtype=np.int64))]
    return (ad.logsumexp_row(logits) - picked).mean()


def loss_P(params: ad.ParamSet, features: np.ndarray, labels, periods,
           window: int) -> Tensor:
    """Synchronism-prediction loss: cross-entropy of the label of period t
    predicted from the full-market representation of period t - 1."""
    periods = np.asarray(periods, dtype=np.int64)
    logits = _sync_logits_op(params, features, periods, window)
    target = np.array([int(labels[t]) for t in periods], dtype=np.int64)
    return cross_entropy(logits, target)


def loss_M(params: ad.ParamSet, features: np.ndarray, labels, periods,
           lambda2: float, window: int, seed: int, epoch: int) -> Tensor:
    """Joint market objective: contrastive loss plus lambda2 * prediction loss.

    The prediction term for period t reads the market representation of
    period t - 1 only, so it never sees the period it labels.
    """
    contrastive = infonce_loss(params, features, periods, window, seed, epoch)
    return contrastive + lambda2 * loss_P(params, features, labels, periods, window)


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


def train_market_factors(features: np.ndarray, labels, hyper: MarketFactorHyper,
                         train_end: int) -> ad.ParamSet:
    """Minibatch-train the market encoder on features (I, T, D_e) and the
    per-period synchronism labels, on the periods before train_end.

    Splits the market into fresh halves every epoch. Deterministic given the
    hyper seed; `market_series` gives the frozen m_t / r_t.
    """
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
        for start in range(0, len(order), hyper.batch):
            batch = order[start:start + hyper.batch]
            if batch.size < 2:
                continue
            ad.train_step(params, opt, lambda: loss_M(
                params, features, labels, batch, hyper.lambda2, hyper.window,
                hyper.seed, epoch), hyper.lr)
            for p in head:
                p.data -= hyper.lr * CLS_WEIGHT_DECAY * p.data
    return params


def market_series(features: np.ndarray, params: ad.ParamSet, window: int,
                  rows=None) -> MarketFactorSeries:
    """Frozen m_t and r_t for every period where the window fits, or only for
    those of `rows`; every other row is NaN."""
    I, T, d = features.shape
    m = np.full((T, 2 * d), np.nan)
    r = np.full((I, T, 2 * d), np.nan)
    if rows is None:
        periods = np.arange(window - 1, T)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        periods = rows[rows >= window - 1]
    full = np.arange(I)
    chunk = 64
    for start in range(0, len(periods), chunk):
        ts = periods[start:start + chunk]
        reprs = _stock_reprs_op(features, params, ts, window)
        ms = _market_repr_op(reprs, params, full)
        r[:, ts, :] = reprs.data.transpose(1, 0, 2)
        m[ts, :] = ms.data
    return MarketFactorSeries(m=m, r=r, window=window)


def contrastive_separation(params: ad.ParamSet, features: np.ndarray,
                           periods, window: int, seed: int) -> tuple[float, float]:
    """Mean positive-pair and negative-pair criterion values, exp of the
    training logits on the "eval" halves, over the given periods."""
    periods = np.asarray(periods, dtype=np.int64)
    values = np.exp(_submarket_logits_op(params, features, periods, window, seed,
                                         "eval").data)
    positive = np.eye(len(periods), dtype=bool)
    return float(values[positive].mean()), float(values[~positive].mean())


def classifier_accuracy(params: ad.ParamSet, features: np.ndarray, labels,
                        periods, window: int) -> float:
    """Held-out accuracy of the synchronism classifier on the given periods."""
    periods = np.asarray(periods, dtype=np.int64)
    predicted = _sync_logits_op(params, features, periods, window).data.argmax(axis=1)
    target = np.array([int(labels[t]) for t in periods])
    return float((predicted == target).mean())

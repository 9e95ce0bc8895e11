"""The elementwise tape: the test oracle for the models' hand-written nodes.

Each primitive below records one tape node of plain numpy math with its own
VJP; the taped chains at the end compose them into the stock, market and
forecaster losses as the models computed them before their nodes were fused.
A fused node repeats its chain's numpy expressions in the chain's order and
sums each gradient in the tape's order, so tests compare the two byte for
byte; the primitives' own VJPs are checked against finite differences and
hand-derived values in test_autodiff.py and test_fused_primitives.py.

Importing this module gives ad.Tensor its operator sugar (+, -, *, /, @,
indexing, sum, mean, std, reshape, swapaxes); nothing else does.
"""

import math

import numpy as np

from irrfactors import autodiff as ad
from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.panel import windows


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation (log, division)."""


def parameter(data) -> ad.Tensor:
    """A trainable leaf tensor."""
    return ad.Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data) -> ad.Tensor:
    return ad.Tensor(data, requires_grad=False)


def _wrap(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def add(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data
    return ad.record(data, (a, b), lambda g: (
        ad.unbroadcast(g, a.data.shape) if a.requires_grad else None,
        ad.unbroadcast(g, b.data.shape) if b.requires_grad else None))


def sub(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data
    return ad.record(data, (a, b), lambda g: (
        ad.unbroadcast(g, a.data.shape) if a.requires_grad else None,
        ad.unbroadcast(-g, b.data.shape) if b.requires_grad else None))


def mul(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    return ad.record(data, (a, b), lambda g: (
        ad.unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        ad.unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def div(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    data = a.data / b.data
    return ad.record(data, (a, b), lambda g: (
        ad.unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
        ad.unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad
        else None))


def matmul(a, b) -> ad.Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires operands with ndim >= 2")
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return ad.record(data, (a, b),
                  lambda g: ad.matmul_vjp(g, a.data, b.data, a.requires_grad, b.requires_grad))


def linear(x, w, b) -> ad.Tensor:
    """x @ w + b, with b broadcast against the product."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim < 2 or w.data.ndim < 2:
        raise ShapeError("linear requires operands with ndim >= 2")
    try:
        data, vjp = ad.linear_fwd(x.data, w.data, b.data)
    except ValueError as e:
        raise ShapeError(f"linear: x {x.data.shape} @ w {w.data.shape} + bias "
                         f"{b.data.shape} does not fit ({e})") from None
    return ad.record(data, (x, w, b),
                  lambda g: vjp(g, (x.requires_grad, w.requires_grad, b.requires_grad)))


def attention(q, k, v, heads: int) -> ad.Tensor:
    """Multi-head scaled dot-product attention over (..., L, width) inputs:
    q (..., Lq, width) attends over k and v (..., L, width); see ad.attention_fwd."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    width = q.data.shape[-1]
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or width % heads != 0
            or k.data.shape != v.data.shape
            or k.data.shape[:-2] + k.data.shape[-1:] != q.data.shape[:-2] + (width,)):
        raise ShapeError(f"attention needs q (..., Lq, width) and k, v (..., L, width) "
                         f"with width divisible by {heads} heads; got {q.data.shape}, "
                         f"{k.data.shape}, {v.data.shape}")
    data, vjp = ad.attention_fwd(q.data, k.data, v.data, heads)
    return ad.record(data, (q, k, v),
                  lambda g: vjp(g, (q.requires_grad, k.requires_grad, v.requires_grad)))


def layer_norm(x, gain, bias) -> ad.Tensor:
    """(x - mean) / std * gain + bias over the last axis, std as in tstd."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    data, vjp = ad.layer_norm_fwd(x.data, gain.data, bias.data)
    return ad.record(data, (x, gain, bias), vjp)


def concat(tensors, axis: int = -1) -> ad.Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return ad.record(data, tuple(tensors), vjp)


def softmax_row(x) -> ad.Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    x = _wrap(x)
    p = ad.softmax(x.data)
    return ad.record(p, (x,), lambda g: (ad.softmax_vjp(p, g),))


def relu(x) -> ad.Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)
    return ad.record(data, (x,), lambda g: (g * (x.data > 0.0),))


def tanh(x) -> ad.Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)
    return ad.record(data, (x,), lambda g: (g * (1.0 - data * data),))


def exp(x) -> ad.Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    return ad.record(data, (x,), lambda g: (g * data,))


def log(x) -> ad.Tensor:
    x = _wrap(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    data = np.log(x.data)
    return ad.record(data, (x,), lambda g: (g / x.data,))


def _axis_count(shape, axis):
    if axis is None:
        return math.prod(shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= shape[ax]
    return n


def _expand_reduced(g, shape, axis, keepdims):
    """Reshape a reduced-axis gradient back to broadcastable form."""
    if axis is None or keepdims:
        return g
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(shape) for ax in axes)
    return np.expand_dims(g, axes)


def tsum(x, axis=None, keepdims=False) -> ad.Tensor:
    x = _wrap(x)
    data = np.add.reduce(x.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return ad.record(data, (x,), vjp)


def tmean(x, axis=None, keepdims=False) -> ad.Tensor:
    x = _wrap(x)
    n = _axis_count(x.data.shape, axis)
    data = np.add.reduce(x.data, axis=axis, keepdims=keepdims) / n

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (np.broadcast_to(g / n, x.data.shape).copy(),)

    return ad.record(data, (x,), vjp)


def tstd(x, axis=None, keepdims=False) -> ad.Tensor:
    """Population standard deviation with an epsilon guard under the root.

    std = sqrt(mean((x - mu)^2) + ad.STD_EPS); the guard keeps the gradient
    finite on constant inputs.
    """
    x = _wrap(x)
    n = _axis_count(x.data.shape, axis)
    centered = x.data - np.add.reduce(x.data, axis=axis, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=axis, keepdims=True) / n
    std_k = np.sqrt(var + ad.STD_EPS)
    if keepdims:
        data = std_k
    elif axis is None:
        data = std_k.reshape(())
    else:
        data = np.squeeze(std_k, axis=axis)

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (g * centered / (n * std_k),)

    return ad.record(data, (x,), vjp)


def swapaxes(x, a: int, b: int) -> ad.Tensor:
    x = _wrap(x)
    data = x.data.swapaxes(a, b)
    return ad.record(data, (x,), lambda g: (g.swapaxes(a, b),))


def reshape(x, *shape) -> ad.Tensor:
    x = _wrap(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = x.data.reshape(shape)
    return ad.record(data, (x,), lambda g: (g.reshape(x.data.shape),))


def _selects_once(key) -> bool:
    """True for a key of slices, ints and Ellipsis only: basic indexing, which
    selects each element at most once."""
    return all(k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in (key if isinstance(key, tuple) else (key,)))


def take(x, key) -> ad.Tensor:
    """Indexing/slicing; the backward pass scatter-adds into the source shape."""
    x = _wrap(x)
    data = np.array(x.data[key])
    once = _selects_once(key)

    def vjp(g):
        full = np.zeros_like(x.data)
        if once:
            full[key] += g      # 0.0 + g per element: the bits of np.add.at
        else:
            np.add.at(full, key, g)     # repeated indices accumulate
        return (full,)

    return ad.record(data, (x,), vjp)


def logsumexp_row(x) -> ad.Tensor:
    """log(sum(exp(x))) along the last axis, max-shifted for stability."""
    x = _wrap(x)
    shift = constant(x.data.max(axis=-1, keepdims=True))
    s = tsum(exp(sub(x, shift)), axis=-1)
    return add(log(s), constant(np.squeeze(shift.data, axis=-1)))


def gradient_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps the (mutated in place) params to a scalar ad.Tensor and must be
    deterministic. Error per entry is |analytic - central| / max(1, |central|).
    """
    saved = [p.grad for p in params]
    ad.zero_grads(params)
    with ad.Tape() as tape:
        loss = f(params)
        if not np.isfinite(loss.data).all():
            raise ad.NumericalFailure("loss is not finite")
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    ad.zero_grads(params)
    for p, g in zip(params, saved):
        p.grad = g

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f(params).data)
            flat[i] = orig - eps
            down = float(f(params).data)
            flat[i] = orig
            central = (up - down) / (2.0 * eps)
            if not (np.isfinite(central) and np.isfinite(ana.reshape(-1)[i])):
                raise ad.NumericalFailure("non-finite value in gradient check")
            err = abs(ana.reshape(-1)[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst


# -- operator sugar on ad.Tensor ---------------------------------------------


def _sugar(cls) -> None:
    ops = {
        "__add__": lambda a, b: add(a, b), "__radd__": lambda a, b: add(b, a),
        "__sub__": lambda a, b: sub(a, b), "__rsub__": lambda a, b: sub(b, a),
        "__mul__": lambda a, b: mul(a, b), "__rmul__": lambda a, b: mul(b, a),
        "__truediv__": lambda a, b: div(a, b), "__rtruediv__": lambda a, b: div(b, a),
        "__neg__": lambda a: mul(a, -1.0),
        "__matmul__": lambda a, b: matmul(a, b),
        "__getitem__": lambda a, key: take(a, key),
        "sum": lambda a, axis=None, keepdims=False: tsum(a, axis=axis, keepdims=keepdims),
        "mean": lambda a, axis=None, keepdims=False: tmean(a, axis=axis, keepdims=keepdims),
        "std": lambda a, axis=None, keepdims=False: tstd(a, axis=axis, keepdims=keepdims),
        "reshape": lambda a, *shape: reshape(a, *shape),
        "swapaxes": lambda a, i, j: swapaxes(a, i, j),
    }
    for name, op in ops.items():
        setattr(cls, name, op)


_sugar(ad.Tensor)


# -- the stock factor's loss as a chain ---------------------------------------


def _stock_fit(prices, params):
    """Actual and virtual prices (p, p_tilde), as sf.residual."""
    p = constant(prices)
    n = params["w_att"].shape[0]
    mask = constant(np.where(np.eye(n, dtype=bool), sf.ATT_MASK, 0.0))
    att = softmax_row(params["w_att"] + mask)
    return p, (att * params["beta"]) @ p


def _stock_mse(p, p_tilde):
    diff = p - p_tilde
    return (diff * diff).mean()


def _rho_penalty(u, params):
    if u.shape[1] < 2:
        raise sf.TooShortSeries("stationarity penalty needs at least 2 periods")
    rho = tanh(params["rho_raw"]).reshape(-1, 1)
    cur = u[(slice(None), slice(1, None))]
    prev = u[(slice(None), slice(0, -1))]
    diff = cur - rho * prev
    return (diff * diff).mean()


def loss_beta(prices, params):
    """sf.loss_beta as a chain."""
    return _stock_mse(*_stock_fit(prices, params))


def loss_rho(prices, params):
    """sf.loss_rho as a chain."""
    p, p_tilde = _stock_fit(prices, params)
    return _rho_penalty(p_tilde - p, params)


def loss_S(prices, params, lambda1):
    """sf.loss_S as a chain."""
    p, p_tilde = _stock_fit(prices, params)
    return _stock_mse(p, p_tilde) + lambda1 * _rho_penalty(p_tilde - p, params)


# -- the market factor's losses as a chain -------------------------------------


def _stock_reprs(features, params, periods, window):
    """Stock representations (P, I, 2D_e), as mf._stock_reprs."""
    win = constant(windows(features, periods + 1, window))
    proj = linear(win, swapaxes(params["w_s"], 0, 1), params["b_s"])
    query = proj[(slice(None), slice(None), slice(window - 1, window))]
    mix = attention(query, proj, win, heads=1)
    p, i, _, d = win.shape
    current = constant(np.ascontiguousarray(win.data[:, :, window - 1, :]))
    return concat([current, mix.reshape(p, i, d)], axis=-1)


def _market_repr(reprs, params, subset):
    """Market representation (P, 2D_e) over a stock subset, as mf._market_repr."""
    sub = reprs[(slice(None), subset)]
    ids = swapaxes(params["w_id"], 0, 1)[(subset,)]
    two_d = params["w_eta"].shape[0]
    pre = (sub + ids) @ params["w_eta"].reshape(two_d, 1)
    eta = relu(pre)
    totals = eta.data.sum(axis=1)
    if np.any(totals == 0.0):
        fallback = np.where(totals[:, None, :] == 0.0, 1.0, 0.0)
        eta = eta + constant(np.broadcast_to(fallback, eta.shape).copy())
    weighted = swapaxes(eta, -1, -2) @ sub
    denom = eta.sum(axis=1, keepdims=True)
    return (weighted / denom).reshape(reprs.shape[0], two_d)


def _pair_logits(params, m1, m2, periods):
    two_d = params["w_eta"].shape[0]
    w1 = params["w_crit"][(slice(0, two_d),)].reshape(two_d, 1)
    w2 = params["w_crit"][(slice(two_d, 2 * two_d),)].reshape(two_d, 1)
    p = len(periods)
    u = (m1 @ w1).reshape(p, 1)
    v = (m2 @ w2).reshape(1, p)
    gaps = np.abs(periods[:, None] - periods[None, :]).astype(np.float64)
    return (u + v + params["b_crit"]) * constant(1.0 / (gaps + 1.0))


def cross_entropy(logits, labels):
    """mf.cross_entropy as a chain."""
    idx = np.arange(logits.shape[0])
    picked = logits[(idx, np.asarray(labels, dtype=np.int64))]
    return (logsumexp_row(logits) - picked).mean()


def infonce_loss(params, features, periods, window, seed, epoch):
    """mf.infonce_loss as a chain."""
    periods = np.asarray(periods, dtype=np.int64)
    sub1, sub2 = mf.submarket_split(features.shape[0], seed, epoch)
    reprs = _stock_reprs(features, params, periods, window)
    m1 = _market_repr(reprs, params, sub1)
    m2 = _market_repr(reprs, params, sub2)
    return cross_entropy(_pair_logits(params, m1, m2, periods), np.arange(len(periods)))


def loss_P(params, features, labels, periods, window):
    """mf.loss_P as a chain."""
    periods = np.asarray(periods, dtype=np.int64)
    reprs = _stock_reprs(features, params, periods - 1, window)
    m_prev = _market_repr(reprs, params, np.arange(features.shape[0]))
    hidden = relu(linear(m_prev, params["cls_w1"], params["cls_b1"]))
    logits = linear(hidden, params["cls_w2"], params["cls_b2"])
    return cross_entropy(logits, np.array([int(labels[t]) for t in periods], dtype=np.int64))


def loss_M(params, features, labels, periods, lambda2, window, seed, epoch):
    """mf.loss_M as a chain."""
    contrastive = infonce_loss(params, features, periods, window, seed, epoch)
    return contrastive + lambda2 * loss_P(params, features, labels, periods, window)


# -- the forecaster as a chain ------------------------------------------------


def encoder_block(x, params, index, heads, frozen=False):
    """The forecaster's transformer block on all L positions, or with frozen
    scoring's form: the query projected from position L-1 alone."""
    def blk(key):
        return params[f"blk{index}.{key}"]

    x_q = x[..., x.shape[-2] - 1:, :] if frozen else x
    mixed = attention(x_q @ blk("w_q"), x @ blk("w_k"), x @ blk("w_v"), heads)
    x = layer_norm(x_q + mixed @ blk("w_o"), blk("ln1_g"), blk("ln1_b"))
    hidden = relu(linear(x, blk("ff_w1"), blk("ff_b1")))
    ff = linear(hidden, blk("ff_w2"), blk("ff_b2"))
    return layer_norm(x + ff, blk("ln2_g"), blk("ln2_b"))


def predict(params, hyper, g, r_prev, m_prev, frozen=False):
    """Forecasts (..., I) from windows (..., I, L, D_in), as fc._predict_op."""
    x = linear(g, params["w_in"], params["b_in"])
    x = x + constant(fc._sinusoidal(g.shape[-2], hyper.width))
    for i in range(hyper.blocks):
        x = encoder_block(x, params, i, hyper.heads, frozen and i == hyper.blocks - 1)
    c = x[..., -1, :]
    m_prev = np.asarray(m_prev, dtype=np.float64)
    m_shape = c.shape[:-1] + m_prev.shape[-1:]
    if hyper.ablation != "NM":
        m_rows = np.broadcast_to(m_prev[..., None, :], m_shape)
    else:
        m_rows = np.zeros(m_shape)
    parts = [c]
    if hyper.ablation != "ND":      # the relation attention
        v = linear(c, params["p_c"], r_prev)
        z = v @ swapaxes(params["w_y"], -1, -2)
        parts.append(softmax_row(z @ swapaxes(z, -1, -2)) @ c)
    x = concat(parts + [constant(m_rows)], axis=-1)
    hidden = relu(linear(x, params["head_w1"], params["head_b1"]))
    out = linear(hidden, params["head_w2"], params["head_b2"])
    return out.reshape(out.shape[:-1])


def loss_total(y_hat, y, z, lambda3):
    """Mean squared error minus lambda3 times the IC, as fc.loss_total."""
    diff = y_hat - constant(np.asarray(y, dtype=np.float64))
    mse = (diff * diff).mean()
    if lambda3 == 0.0:
        return mse
    z = np.asarray(z, dtype=np.float64)
    z_sd = float(z.std())
    if z_sd == 0.0:
        ic = constant(0.0)
    else:
        centered = y_hat - y_hat.mean()
        ic = (centered * constant(z - z.mean())).mean() / (y_hat.std() * z_sd)
    return mse + (-lambda3) * ic

"""Minimal dense-tensor autodiff engine.

Tensors wrap float64 numpy arrays. Operations executed while a Tape is
active are recorded in creation order (a Wengert list); Tape.backward
replays the adjoints in reverse, visiting each node exactly once.
Outside a tape, the same operations run as plain numpy computations with
no recording overhead, which is how frozen models are evaluated.

A Tape is single-threaded; distinct tapes may run on distinct threads.

Importing this module fixes glibc's malloc thresholds (_pin_heap), so what
one step frees is reused by the next instead of being faulted in again.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import weakref
import zipfile
from itertools import zip_longest

import numpy as np

from .files import atomic_open

STD_EPS = 1e-12  # guard under the square root of the population std


def _pin_heap() -> bool:
    """Fix glibc's malloc trim threshold at 64 MB and mmap threshold at 32 MB;
    True if both were set. By default both slide with the blocks freed, so a
    step that frees its working set hands the heap's top back to the kernel
    and the next step faults it in again page by page. Setting either stops
    the sliding of both, so both are set. Elsewhere (macOS, musl, Windows)
    nothing is done."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # <malloc.h>: M_TRIM_THRESHOLD is -1, M_MMAP_THRESHOLD is -3
    return mallopt(-1, 64 << 20) == 1 and mallopt(-3, 32 << 20) == 1


HEAP_PINNED = _pin_heap()


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation (log, division)."""


class NotScalar(ValueError):
    """backward() requires a scalar loss."""


class NumericalFailure(RuntimeError):
    """Non-finite value encountered where a finite one is required."""


class MissingGradient(RuntimeError):
    """A parameter reached an optimizer step without a gradient."""


class CheckpointMismatch(ValueError):
    """A checkpoint's stamp, names or shapes do not fit the parameter set."""


class CorruptCheckpoint(CheckpointMismatch):
    """A checkpoint file that cannot be read: truncated or damaged."""


_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tape:
    """Ordered record of primitive operations, replayed in reverse by backward().

    Use as a context manager around loss construction:

        with Tape() as tape:
            loss = build_loss(params)
            tape.backward(loss)
    """

    def __init__(self):
        self._nodes: list[Tensor] = []
        # Nodes point back through a weak reference, so a finished tape and
        # its intermediate arrays are freed at once by reference counting
        # instead of waiting for the cyclic garbage collector.
        self._ref = weakref.ref(self)

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("tapes do not nest; close the active tape first")
        _STATE.tape = self
        return self

    def __exit__(self, *exc):
        _STATE.tape = None
        return False

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(x) into .grad of every reachable requires_grad tensor.

        Repeated calls without zeroing grads accumulate. Raises NotScalar for
        non-scalar losses and ValueError if the loss is not recorded on this tape.
        """
        if loss.data.size != 1:
            raise NotScalar(f"loss must be scalar, got shape {loss.data.shape}")
        if loss._tape is not self._ref:
            raise ValueError("loss is not connected to this tape")
        adjoint: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = adjoint.pop(node, None)
            if g is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = adjoint.get(parent)
                adjoint[parent] = pg if acc is None else acc + pg
            node.grad = g if node.grad is None else node.grad + g
        for leaf, g in adjoint.items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


class Tensor:
    """A float64 array plus optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def std(self, axis=None, keepdims=False):
        return tstd(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(data, parents, vjp) -> Tensor:
    """A tensor holding `data`, computed from the `parents` tensors.

    On an active tape, when some parent needs a gradient, it is also a node:
    `vjp` maps its gradient to one gradient (or None) per parent. Every
    primitive ends here, and so may an op that fuses a chain of them.
    """
    out = Tensor(data)
    if recording(parents):
        tape = _active_tape()
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        out._tape = tape._ref
        tape._nodes.append(out)
    return out


def recording(tensors) -> bool:
    """True when an op on `tensors` would be recorded: a tape is active and
    one of them needs a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in tensors)


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- primitives ---------------------------------------------------------
#
# A VJP computes no gradient for an operand that needs none; the backward
# pass would drop it.


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data
    return record(data, (a, b), lambda g: (
        unbroadcast(g, a.data.shape) if a.requires_grad else None,
        unbroadcast(g, b.data.shape) if b.requires_grad else None))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data
    return record(data, (a, b), lambda g: (
        unbroadcast(g, a.data.shape) if a.requires_grad else None,
        unbroadcast(-g, b.data.shape) if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    return record(data, (a, b), lambda g: (
        unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    data = a.data / b.data
    return record(data, (a, b), lambda g: (
        unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
        unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad
        else None))


def matmul_vjp(g, a, b, need_a: bool = True, need_b: bool = True):
    """Gradients of a @ b's operands, each None where not needed."""
    ga = unbroadcast(g @ b.swapaxes(-1, -2), a.shape) if need_a else None
    gb = unbroadcast(a.swapaxes(-1, -2) @ g, b.shape) if need_b else None
    return ga, gb


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires operands with ndim >= 2")
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return record(data, (a, b),
                  lambda g: matmul_vjp(g, a.data, b.data, a.requires_grad, b.requires_grad))


# -- fused primitives ------------------------------------------------------
#
# Each records one node in place of a chain of the elementary primitives
# above. Its math is a plain-numpy helper, name_fwd, which returns the output
# and a VJP closure; the forecaster's fused model calls the same helpers.
# With grad=False a helper returns None for the VJP, so nothing is kept for
# it and its intermediates are freed on return, as in untaped scoring.
# Forward and VJP repeat the chain's numpy expressions in its order, so
# values and gradients are bit for bit those of the chain; only the per-node
# bookkeeping is saved.


def linear_fwd(x, w, b, grad: bool = True):
    """x @ w + b on arrays, b broadcast against the product; the output and
    vjp(g, need=(x, w, b)) -> (gx, gw, gb), None where not needed."""
    data = x @ w
    data += b          # the bits of product + b, without a second array

    def vjp(g, need=(True, True, True)):
        gx, gw = matmul_vjp(g, x, w, need[0], need[1])
        return gx, gw, unbroadcast(g, b.shape) if need[2] else None

    return data, vjp if grad else None


def linear(x, w, b) -> Tensor:
    """x @ w + b, with b broadcast against the product."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim < 2 or w.data.ndim < 2:
        raise ShapeError("linear requires operands with ndim >= 2")
    try:
        data, vjp = linear_fwd(x.data, w.data, b.data)
    except ValueError as e:
        raise ShapeError(f"linear: x {x.data.shape} @ w {w.data.shape} + bias "
                         f"{b.data.shape} does not fit ({e})") from None
    return record(data, (x, w, b),
                  lambda g: vjp(g, (x.requires_grad, w.requires_grad, b.requires_grad)))


def attention_fwd(q, k, v, heads: int, first: int = 0, grad: bool = True):
    """Multi-head scaled dot-product attention on arrays; the output and
    vjp(g, need=(q, k, v)) -> (gq, gk, gv), None where not needed.

    q (..., Lq, width) attends over k and v (..., L, width); each is split
    into `heads` slices of width // heads, and the mixed slices are merged
    back. Only q's rows from `first` on attend: the output is
    (..., Lq - first, width), and q's gradient keeps q's shape, zero on the
    rows before `first`.

    When only the output's last row reaches the loss, `first` keeps the full
    attention's bits by two rules. (1) With two or more attending rows every
    product stays a gemm, which rounds each kept row as in the full product;
    numpy sends a one-row product to gemv, which rounds differently. This
    rests on OpenBLAS's gemm. (2) q's producer gets a full-shaped gradient,
    so it sums its input's gradient as the full chain does.
    """
    n_q, width = q.shape[-2:]
    dh = width // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a):  # (..., L, width) -> (..., heads, L, dh)
        return a.reshape(*a.shape[:-1], heads, dh).swapaxes(-3, -2)

    qh, kh, vh = split(q)[..., first:, :], split(k), split(v)
    p = softmax(qh @ kh.swapaxes(-1, -2) * scale)
    mixed = p @ vh
    data = mixed.swapaxes(-3, -2).reshape(q.shape[:-2] + (n_q - first, width))

    def vjp(g, need=(True, True, True)):
        g = g.reshape(mixed.swapaxes(-3, -2).shape).swapaxes(-3, -2)
        gp = g @ vh.swapaxes(-1, -2)
        gv = p.swapaxes(-1, -2) @ g
        gs = softmax_vjp(p, gp) * scale
        gq = gs @ kh
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        if first:
            gq_full = np.zeros(qh.shape[:-2] + (n_q, dh))
            gq_full[..., first:, :] = gq
            gq = gq_full
        return tuple(gh.swapaxes(-3, -2).reshape(shape) if want else None
                     for gh, shape, want in zip((gq, gk, gv), (q.shape, k.shape, v.shape), need))

    return data, vjp if grad else None


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (..., L, width) inputs:
    q (..., Lq, width) attends over k and v (..., L, width); see attention_fwd."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    width = q.data.shape[-1]
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or width % heads != 0
            or k.data.shape != v.data.shape
            or k.data.shape[:-2] + k.data.shape[-1:] != q.data.shape[:-2] + (width,)):
        raise ShapeError(f"attention needs q (..., Lq, width) and k, v (..., L, width) "
                         f"with width divisible by {heads} heads; got {q.data.shape}, "
                         f"{k.data.shape}, {v.data.shape}")
    data, vjp = attention_fwd(q.data, k.data, v.data, heads)
    return record(data, (q, k, v),
                  lambda g: vjp(g, (q.requires_grad, k.requires_grad, v.requires_grad)))


def layer_norm_fwd(x, gain, bias, grad: bool = True):
    """(x - mean) / std * gain + bias over the last axis of arrays, std as in
    tstd; the output and vjp(g) -> (gx, g_gain, g_bias)."""
    # ndarray.mean is add.reduce divided by the count; calling them directly
    # gives the same bits without numpy's Python-level mean wrapper. The
    # in-place updates below compute the chain's expressions in its order.
    n = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    sd = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / n + STD_EPS)
    normed = centered / sd
    data = normed * gain
    data += bias

    def vjp(g):
        g_normed = g * gain
        g_centered = g_normed / sd
        t = -g_normed
        t *= centered
        t /= sd * sd
        g_sd = np.add.reduce(t, axis=-1, keepdims=True)
        g_mu = np.add.reduce(np.negative(g_centered, out=t), axis=-1, keepdims=True)
        gx = g_sd * centered
        gx /= n * sd
        gx += g_centered    # (g_centered + g_sd * centered / (n * sd)) + g_mu / n
        gx += g_mu / n
        return gx, unbroadcast(g * normed, gain.shape), unbroadcast(g, bias.shape)

    return data, vjp if grad else None


def layer_norm(x, gain, bias) -> Tensor:
    """(x - mean) / std * gain + bias over the last axis, std as in tstd."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    data, vjp = layer_norm_fwd(x.data, gain.data, bias.data)
    return record(data, (x, gain, bias), vjp)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return record(data, tuple(tensors), vjp)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of an array, max-shifted; softmax_row's math."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input's gradient, given softmax's output p and the output's gradient g."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def softmax_row(x) -> Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    x = _wrap(x)
    p = softmax(x.data)
    return record(p, (x,), lambda g: (softmax_vjp(p, g),))


def relu(x) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)
    return record(data, (x,), lambda g: (g * (x.data > 0.0),))


def tanh(x) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)
    return record(data, (x,), lambda g: (g * (1.0 - data * data),))


def exp(x) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    return record(data, (x,), lambda g: (g * data,))


def log(x) -> Tensor:
    x = _wrap(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    data = np.log(x.data)
    return record(data, (x,), lambda g: (g / x.data,))


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


# ndarray.sum and .mean are np.add.reduce, then a division by the count for
# the mean; calling the ufunc directly gives the same bits without numpy's
# Python-level wrappers.
def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    data = np.add.reduce(x.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return record(data, (x,), vjp)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    n = _axis_count(x.data.shape, axis)
    data = np.add.reduce(x.data, axis=axis, keepdims=keepdims) / n

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (np.broadcast_to(g / n, x.data.shape).copy(),)

    return record(data, (x,), vjp)


def tstd(x, axis=None, keepdims=False) -> Tensor:
    """Population standard deviation with an epsilon guard under the root.

    std = sqrt(mean((x - mu)^2) + STD_EPS); the guard keeps the gradient
    finite on constant inputs.
    """
    x = _wrap(x)
    n = _axis_count(x.data.shape, axis)
    centered = x.data - np.add.reduce(x.data, axis=axis, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=axis, keepdims=True) / n
    std_k = np.sqrt(var + STD_EPS)
    if keepdims:
        data = std_k
    elif axis is None:
        data = std_k.reshape(())
    else:
        data = np.squeeze(std_k, axis=axis)

    def vjp(g):
        g = _expand_reduced(np.asarray(g), x.data.shape, axis, keepdims)
        return (g * centered / (n * std_k),)

    return record(data, (x,), vjp)


def swapaxes(x, a: int, b: int) -> Tensor:
    x = _wrap(x)
    data = x.data.swapaxes(a, b)
    return record(data, (x,), lambda g: (g.swapaxes(a, b),))


def reshape(x, *shape) -> Tensor:
    x = _wrap(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = x.data.reshape(shape)
    return record(data, (x,), lambda g: (g.reshape(x.data.shape),))


def _selects_once(key) -> bool:
    """True for a key of slices, ints and Ellipsis only: basic indexing, which
    selects each element at most once."""
    return all(k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in (key if isinstance(key, tuple) else (key,)))


def take(x, key) -> Tensor:
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

    return record(data, (x,), vjp)


def logsumexp_row(x) -> Tensor:
    """log(sum(exp(x))) along the last axis, max-shifted for stability."""
    x = _wrap(x)
    shift = constant(x.data.max(axis=-1, keepdims=True))
    s = tsum(exp(sub(x, shift)), axis=-1)
    return add(log(s), constant(np.squeeze(shift.data, axis=-1)))


# -- gradient checking and optimizers ------------------------------------


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def gradient_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps the (mutated in place) params to a scalar Tensor and must be
    deterministic. Error per entry is |analytic - central| / max(1, |central|).
    """
    saved = [p.grad for p in params]
    zero_grads(params)
    with Tape() as tape:
        loss = f(params)
        if not np.isfinite(loss.data).all():
            raise NumericalFailure("loss is not finite")
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)
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
                raise NumericalFailure("non-finite value in gradient check")
            err = abs(ana.reshape(-1)[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst


def adam_init(params: ParamSet) -> dict:
    return {"t": 0, "m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat),
            "scratch": np.empty_like(params.flat)}


def adam_step(params: ParamSet, state: dict, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> dict:
    """Standard Adam update in place, one elementwise pass over the set's flat
    buffer; state carries the moment estimates and a scratch buffer.

    Computed in place, in the order of m = beta1 * m + (1 - beta1) * g,
    v = beta2 * v + (1 - beta2) * g * g and flat -= lr * (m / (1 - beta1**t))
    / (sqrt(v / (1 - beta2**t)) + eps), so each value has those bits.
    """
    for name, p in params.items():
        if p.grad is None:
            raise MissingGradient(f"parameter {name!r} received no gradient")
    g = np.concatenate([p.grad.reshape(-1) for p in params])
    if not np.isfinite(g).all():
        raise NumericalFailure("non-finite gradient in adam_step")
    state["t"] += 1
    t = state["t"]
    m, v, s = state["m"], state["v"], state["scratch"]
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=s)
    v *= beta2
    np.multiply(1.0 - beta2, g, out=s)
    s *= g
    v += s
    denom = np.divide(v, 1.0 - beta2 ** t, out=g)      # g is spent; its buffer is reused
    np.sqrt(denom, out=denom)
    denom += eps
    step = np.divide(m, 1.0 - beta1 ** t, out=s)
    step *= lr
    step /= denom
    params.flat -= step
    return state


def train_step(params: ParamSet, state: dict, loss_fn, lr: float) -> None:
    """One optimizer step: tape loss_fn(), backpropagate, then Adam.

    Raises NumericalFailure on a non-finite loss before any parameter or
    optimizer state changes.
    """
    zero_grads(params)
    with Tape() as tape:
        loss = loss_fn()
        if not np.isfinite(loss.data):
            raise NumericalFailure(f"loss diverged ({float(loss.data)})")
        tape.backward(loss)
    adam_step(params, state, lr=lr)


# -- parameter sets ---------------------------------------------------------


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform initial weights, (fan_in, fan_out)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ParamSet:
    """Ordered name -> trainable Tensor map over one flat float64 buffer.

    Every tensor's data is a view into `flat`, so a snapshot, a restore and an
    optimizer step are each one operation on the buffer. Write parameters in
    place (`-=`, `[...] =`): rebinding a tensor's `.data` detaches it from the
    buffer. Iteration yields the tensors in order, so a set serves wherever a
    list of tensors does.
    """

    def __init__(self, arrays: dict):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.flat = np.empty(sum(a.size for a in arrays.values()))
        self._tensors: dict[str, Tensor] = {}
        start = 0
        for name, a in arrays.items():
            view = self.flat[start:start + a.size].reshape(a.shape)
            view[...] = a
            self._tensors[name] = Tensor(view, requires_grad=True)
            start += a.size

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name) -> bool:
        return name in self._tensors

    def __iter__(self):
        return iter(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.flat[...] = snap

    def save(self, path, stamp: str) -> None:
        """Write the stamp, then every parameter in order, as one npz file.

        The file appears under its name only once it is complete.
        """
        with atomic_open(path, "wb") as fh:
            np.savez(fh, __stamp__=np.array(stamp),
                     **{name: t.data for name, t in self.items()})

    def load(self, path, stamp: str) -> None:
        """Fill the set in place from a file written by save().

        Raises CheckpointMismatch, before changing any parameter, when the
        stamp differs or the file's names or shapes differ from the set's,
        and CorruptCheckpoint when the file cannot be read.
        """
        try:
            with np.load(path) as data:
                stored = {name: data[name] for name in data.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as e:
            raise CorruptCheckpoint(f"checkpoint {path} is damaged ({e}); delete it "
                                    f"to retrain") from e
        found = str(stored.pop("__stamp__", "<unstamped>"))
        if found != stamp:
            raise CheckpointMismatch(
                f"checkpoint {path} belongs to a different run ({found}); "
                f"clear the run directory to retrain")
        if list(stored) != list(self._tensors):
            have, want = next(pair for pair in zip_longest(stored, self._tensors)
                              if pair[0] != pair[1])
            raise CheckpointMismatch(f"checkpoint {path} holds parameter {have!r} "
                                     f"where {want!r} belongs")
        arrays = list(stored.values())
        for (name, t), array in zip(self.items(), arrays):
            if array.shape != t.shape:
                raise CheckpointMismatch(f"checkpoint {path}: parameter {name!r} has "
                                         f"shape {array.shape}, expected {t.shape}")
        for t, array in zip(self, arrays):
            t.data[...] = array

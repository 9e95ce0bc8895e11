"""Reverse-mode differentiation through hand-written tape nodes.

Each model's loss records a few nodes on a Tape (a Wengert list): a fused
forward over plain numpy arrays whose VJP is written by hand. Tape.backward
replays the VJPs in reverse, visiting each node exactly once. Outside a
tape the same forwards keep no VJP, which is how frozen models are
evaluated. The helpers below (linear_fwd, attention_fwd, layer_norm_fwd,
softmax, matmul_vjp, unbroadcast) are the pieces the nodes are built from;
tests/taped.py keeps the elementwise chain of primitives each node
replaces, as the oracle it matches bit for bit.

A Tape is single-threaded; distinct tapes may run on distinct threads.

Importing this module fixes glibc's malloc thresholds (_pin_heap), so what
one step frees is reused by the next instead of being faulted in again.
"""

from __future__ import annotations

import ctypes
import os
import threading
import tokenize
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
    """Ordered record of tape nodes, replayed in reverse by backward().

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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def record(data, parents, vjp) -> Tensor:
    """A tensor holding `data`, computed from the `parents` tensors.

    On an active tape, when some parent needs a gradient, it is also a node:
    `vjp` maps its gradient to one gradient (or None) per parent.
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


# -- plain-numpy helpers ---------------------------------------------------
#
# A VJP computes no gradient for an operand that needs none; the backward
# pass would drop it. A helper with grad=False returns None for its VJP, so
# nothing is kept for it and its intermediates are freed on return.


def matmul_vjp(g, a, b, need_a: bool = True, need_b: bool = True):
    """Gradients of a @ b's operands, each None where not needed."""
    ga = unbroadcast(g @ b.swapaxes(-1, -2), a.shape) if need_a else None
    gb = unbroadcast(a.swapaxes(-1, -2) @ g, b.shape) if need_b else None
    return ga, gb


def linear_fwd(x, w, b, grad: bool = True):
    """x @ w + b on arrays, b broadcast against the product; the output and
    vjp(g, need=(x, w, b)) -> (gx, gw, gb), None where not needed."""
    data = x @ w
    data += b          # the bits of product + b, without a second array

    def vjp(g, need=(True, True, True)):
        gx, gw = matmul_vjp(g, x, w, need[0], need[1])
        return gx, gw, unbroadcast(g, b.shape) if need[2] else None

    return data, vjp if grad else None


def attention_fwd(q, k, v, heads: int, grad: bool = True):
    """Multi-head scaled dot-product attention on arrays; the output and
    vjp(g, need=(q, k, v)) -> (gq, gk, gv), None where not needed.

    q (..., Lq, width) attends over k and v (..., L, width); each is split
    into `heads` slices of width // heads, and the mixed slices are merged
    back into the (..., Lq, width) output.
    """
    width = q.shape[-1]
    dh = width // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a):  # (..., L, width) -> (..., heads, L, dh)
        return a.reshape(*a.shape[:-1], heads, dh).swapaxes(-3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    p = softmax(qh @ kh.swapaxes(-1, -2) * scale)
    mixed = p @ vh
    data = mixed.swapaxes(-3, -2).reshape(q.shape)

    def vjp(g, need=(True, True, True)):
        g = g.reshape(mixed.swapaxes(-3, -2).shape).swapaxes(-3, -2)
        gp = g @ vh.swapaxes(-1, -2)
        gv = p.swapaxes(-1, -2) @ g
        gs = softmax_vjp(p, gp) * scale
        gq = gs @ kh
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return tuple(gh.swapaxes(-3, -2).reshape(shape) if want else None
                     for gh, shape, want in zip((gq, gk, gv), (q.shape, k.shape, v.shape), need))

    return data, vjp if grad else None


def layer_norm_fwd(x, gain, bias, grad: bool = True):
    """(x - mean) / std * gain + bias over the last axis of arrays, std the
    population std with STD_EPS under the root; the output and
    vjp(g) -> (gx, g_gain, g_bias)."""
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


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of an array, max-shifted."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input's gradient, given softmax's output p and the output's gradient g."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


# -- optimizers -------------------------------------------------------------

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def adam_init(params: ParamSet) -> dict:
    return {"t": 0, "m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat),
            "scratch": np.empty_like(params.flat)}


def adam_step(params: ParamSet, state: dict, lr: float = 1e-3) -> dict:
    """Standard Adam update in place, one elementwise pass over the set's flat
    buffer; state carries the moment estimates and a scratch buffer.

    Computed in place, in the order of m = BETA1 * m + (1 - BETA1) * g,
    v = BETA2 * v + (1 - BETA2) * g * g and flat -= lr * (m / (1 - BETA1**t))
    / (sqrt(v / (1 - BETA2**t)) + ADAM_EPS), so each value has those bits.
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
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=s)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=s)
    s *= g
    v += s
    denom = np.divide(v, 1.0 - BETA2 ** t, out=g)      # g is spent; its buffer is reused
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = np.divide(m, 1.0 - BETA1 ** t, out=s)
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

    def __iter__(self):
        return iter(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def arrays(self) -> dict:
        """name -> the tensor's data, the views the models' nodes compute with."""
        return {name: t.data for name, t in self._tensors.items()}

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
        and CorruptCheckpoint when the archive cannot be read (a missing
        file raises FileNotFoundError).
        """
        with open(path, "rb") as fh:        # a missing file is not a damaged one
            try:
                with np.load(fh) as data:
                    stored = {name: data[name] for name in data.files}
            except (zipfile.BadZipFile, EOFError, ValueError, NotImplementedError,
                    RuntimeError, OSError, tokenize.TokenError) as e:
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

"""Fused linear, attention and layer norm against the elementary chains they replace.

The oracles below are the elementary compositions each primitive replaces.
A fused primitive repeats their numpy expressions in their order, so its
forward values and every gradient must match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad

import taped


def _linear_oracle(x, w, b):
    return x @ w + b


def _attention_oracle(q, k, v, heads, rows=None):
    width = q.shape[-1]
    dh = width // heads

    def split(t):
        return taped.swapaxes(t.reshape(*t.shape[:-1], heads, dh), -3, -2)

    scores = (split(q) @ taped.swapaxes(split(k), -1, -2)) * (1.0 / np.sqrt(dh))
    mixed = taped.swapaxes(taped.softmax_row(scores) @ split(v), -3, -2).reshape(q.shape)
    return mixed if rows is None else mixed[..., q.shape[-2] - rows:, :]


def _layer_norm_oracle(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return (x - mu) / sd * gain + bias


def _attention_rows(q, k, v, heads, rows):
    """One node of attention_fwd on q's last `rows` rows, with q's gradient
    written back full-shaped, as the forecaster's fused node runs its final
    block in training."""
    first = q.shape[-2] - rows
    data, vjp = ad.attention_fwd(np.array(q.data[..., first:, :]), k.data, v.data, heads)

    def full_vjp(g):
        gq_rows, gk, gv = vjp(g)
        gq = np.zeros_like(q.data)
        gq[..., first:, :] = gq_rows
        return gq, gk, gv

    return ad.record(data, (q, k, v), full_vjp)


def _forward_and_grads(op, arrays, weights):
    """Output of op on fresh parameters, and each parameter's gradient of
    sum(output * weights)."""
    params = [taped.parameter(a) for a in arrays]
    with ad.Tape() as tape:
        out = op(*params)
        tape.backward((out * taped.constant(weights)).sum())
    return out.data, [p.grad for p in params]


def _assert_bitwise(fused, oracle, arrays, rng, read_out=False):
    """Compare outputs and gradients bytewise; return the fused gradients.

    With read_out, only the output's last row reaches the loss, as in the
    forecaster's read-out; otherwise all rows but the first do.
    """
    weights = rng.normal(size=oracle(*[taped.constant(a) for a in arrays]).shape)
    if weights.shape[-2] > 1:   # rows that do not reach the loss, as in training's read-out
        weights[..., slice(None, -1) if read_out else 0, :] = 0.0
    out_f, grads_f = _forward_and_grads(fused, arrays, weights)
    out_o, grads_o = _forward_and_grads(oracle, arrays, weights)
    for a_f, a_o in zip([out_f, *grads_f], [out_o, *grads_o]):
        assert a_f.shape == a_o.shape
        assert a_f.tobytes() == a_o.tobytes()    # unlike array_equal, tells -0.0 from 0.0
    return grads_f


batch_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**16), batch=batch_shapes, rows=st.integers(1, 5),
       d_in=st.integers(1, 6), d_out=st.integers(1, 6),
       bias=st.sampled_from(["vector", "full"]))
def test_linear_matches_its_oracle_bitwise(seed, batch, rows, d_in, d_out, bias):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=batch + (rows, d_in)), rng.normal(size=(d_in, d_out)),
              rng.normal(size=(d_out,) if bias == "vector" else batch + (rows, d_out))]
    _assert_bitwise(taped.linear, _linear_oracle, arrays, rng)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**16), batch=batch_shapes, length=st.integers(1, 5),
       heads=st.sampled_from([1, 2, 4]), dh=st.integers(1, 3), last_only=st.booleans())
def test_attention_matches_its_oracle_bitwise(seed, batch, length, heads, dh, last_only):
    rng = np.random.default_rng(seed)
    width = heads * dh
    q_rows = 1 if last_only else length
    arrays = [rng.normal(size=batch + (q_rows, width)),
              rng.normal(size=batch + (length, width)),
              rng.normal(size=batch + (length, width))]

    def fused(q, k, v):
        return taped.attention(q, k, v, heads)

    def oracle(q, k, v):
        return _attention_oracle(q, k, v, heads)

    _assert_bitwise(fused, oracle, arrays, rng)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**16), batch=batch_shapes, length=st.integers(2, 6),
       heads=st.sampled_from([1, 2, 4]), dh=st.integers(1, 3), data=st.data())
def test_attention_rows_match_the_full_attentions_rows_bitwise(seed, batch, length, heads,
                                                               dh, data):
    # Two or more query rows keep every product a gemm (one row would go to
    # gemv). The loss reads the last row only: k's and v's gradients sum over
    # the kept query rows, which rounds as the full sum with one nonzero term.
    rows = data.draw(st.integers(2, length))
    rng = np.random.default_rng(seed)
    width = heads * dh
    arrays = [rng.normal(size=batch + (length, width)) for _ in range(3)]

    def fused(q, k, v):
        return _attention_rows(q, k, v, heads, rows)

    def oracle(q, k, v):
        return _attention_oracle(q, k, v, heads, rows)

    gq = _assert_bitwise(fused, oracle, arrays, rng, read_out=True)[0]
    assert gq.shape == arrays[0].shape
    skipped = gq[..., :length - rows, :]
    assert skipped.tobytes() == np.zeros_like(skipped).tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**16), batch=batch_shapes, rows=st.integers(1, 5),
       width=st.integers(1, 8), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_layer_norm_matches_its_oracle_bitwise(seed, batch, rows, width, scale):
    rng = np.random.default_rng(seed)
    arrays = [scale * rng.normal(size=batch + (rows, width)),
              rng.normal(size=width), rng.normal(size=width)]
    _assert_bitwise(taped.layer_norm, _layer_norm_oracle, arrays, rng)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**16), batch=batch_shapes, length=st.integers(1, 4),
       heads=st.sampled_from([1, 2, 4]), last_only=st.booleans())
def test_fused_primitives_pass_the_gradient_check(seed, batch, length, heads, last_only):
    rng = np.random.default_rng(seed)
    width = 2 * heads
    q_rows = 1 if last_only else length
    q = taped.parameter(rng.normal(size=batch + (q_rows, width)))
    k = taped.parameter(rng.normal(size=batch + (length, width)))
    v = taped.parameter(rng.normal(size=batch + (length, width)))
    w = taped.parameter(rng.normal(size=(width, 3)))
    b = taped.parameter(rng.normal(size=3))
    gain = taped.parameter(rng.normal(size=width))
    bias = taped.parameter(rng.normal(size=width))
    x = taped.parameter(rng.normal(size=batch + (length, width)))
    r_att = taped.constant(rng.normal(size=batch + (q_rows, width)))
    r_lin = taped.constant(rng.normal(size=batch + (length, 3)))
    r_ln = taped.constant(rng.normal(size=batch + (length, width)))
    rows = (q_rows + 1) // 2
    r_rows = taped.constant(rng.normal(size=batch + (rows, width)))

    assert taped.gradient_check(lambda _: (taped.attention(q, k, v, heads) * r_att).sum(),
                             [q, k, v]) <= 1e-4
    assert taped.gradient_check(lambda _: (_attention_rows(q, k, v, heads, rows) * r_rows).sum(),
                             [q, k, v]) <= 1e-4
    assert taped.gradient_check(lambda _: (taped.linear(x, w, b) * r_lin).sum(),
                             [x, w, b]) <= 1e-4
    assert taped.gradient_check(lambda _: (taped.layer_norm(x, gain, bias) * r_ln).sum(),
                             [x, gain, bias]) <= 1e-4


def test_fused_primitives_record_one_node_each():
    rng = np.random.default_rng(0)
    x = taped.parameter(rng.normal(size=(3, 4, 4)))
    w = taped.parameter(rng.normal(size=(4, 4)))
    b = taped.parameter(rng.normal(size=4))
    with ad.Tape() as tape:
        h = taped.linear(x, w, b)
        h = taped.attention(h, h, h, 2)
        taped.layer_norm(h, b, b)
    assert len(tape._nodes) == 3


def test_fused_primitives_reject_mismatched_shapes():
    rng = np.random.default_rng(0)
    with pytest.raises(taped.ShapeError):
        taped.linear(rng.normal(size=(2, 3)), rng.normal(size=(4, 5)), np.zeros(5))
    with pytest.raises(taped.ShapeError):    # a bias may not widen the product
        taped.linear(rng.normal(size=(2, 3)), rng.normal(size=(3, 5)),
                  rng.normal(size=(4, 2, 5)))
    with pytest.raises(taped.ShapeError):    # width 6 does not split into 4 heads
        x = rng.normal(size=(2, 6))
        taped.attention(x, x, x, 4)
    with pytest.raises(taped.ShapeError):    # keys and values of different lengths
        taped.attention(rng.normal(size=(1, 4)), rng.normal(size=(3, 4)),
                     rng.normal(size=(2, 4)), 2)

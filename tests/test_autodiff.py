import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad

import taped
from conftest import DAMAGE, damaged


def test_the_package_keeps_no_elementwise_tape():
    # the primitives and the Tensor operators live in tests/taped.py, which
    # attaches the operators on import; a fresh interpreter has neither
    script = ("import irrfactors, irrfactors.autodiff as ad; "
              "print(sorted(n for n in vars(ad.Tensor) if n.startswith('__') and n not in "
              "('__init__', '__repr__', '__slots__', '__module__', '__doc__'))); "
              "print(sorted(n for n in ('add', 'mul', 'take', 'linear', 'attention', "
              "'layer_norm', 'softmax_row', 'logsumexp_row', 'parameter', 'constant', "
              "'gradient_check') if hasattr(ad, n)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "[]\n[]\n"


def test_sum_backward_gives_ones():
    x = taped.parameter([3.0, -1.0, 2.0])
    with ad.Tape() as tape:
        tape.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_elementwise_square_gradient():
    x = taped.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        tape.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_softmax_of_zeros_is_uniform():
    out = taped.softmax_row(taped.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = taped.softmax_row(taped.constant(rng.normal(size=(5, 7)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_relu_forward():
    out = taped.relu(taped.constant([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_std_constant_input_has_finite_gradient():
    x = taped.parameter([1.0, 1.0, 1.0, 1.0])
    with ad.Tape() as tape:
        out = x.std()
        tape.backward(out)
    assert out.item() == pytest.approx(0.0, abs=1e-5)
    assert np.isfinite(x.grad).all()


def test_backward_requires_scalar():
    x = taped.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        y = x * 2.0
        with pytest.raises(ad.NotScalar):
            tape.backward(y)


def test_backward_requires_tape_connection():
    x = taped.parameter(1.0)
    with ad.Tape() as tape:
        with pytest.raises(ValueError):
            tape.backward(x)


def test_repeated_backward_accumulates():
    x = taped.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        loss = (x * x).sum()
        tape.backward(loss)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(7)
    w = taped.parameter(rng.normal(size=(4, 4)))
    x = taped.constant(rng.normal(size=(3, 4)))

    def run():
        w.grad = None
        with ad.Tape() as tape:
            h = taped.tanh(x @ w)
            tape.backward((h * h).mean() + taped.softmax_row(h).std())
        return w.grad.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_finished_tape_is_freed_by_reference_counting():
    import gc
    import weakref

    x = taped.parameter([1.0, 2.0])
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = (taped.tanh(x) * x).sum()
            tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None, "tape and its nodes form a reference cycle"
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, np.tanh(x.data) + x.data / np.cosh(x.data) ** 2)


def test_matmul_skips_the_gradient_of_a_constant_operand():
    a = taped.parameter(np.ones((2, 3)))
    b = taped.constant(np.ones((3, 4)))
    with ad.Tape() as tape:
        out = a @ b
    ga, gb = out._vjp(np.ones((2, 4)))
    assert gb is None
    np.testing.assert_array_equal(ga, np.full((2, 3), 4.0))


def test_shape_error_on_matmul_mismatch():
    with pytest.raises(taped.ShapeError):
        taped.constant(np.ones((2, 3))) @ taped.constant(np.ones((4, 2)))
    with pytest.raises(taped.ShapeError):
        taped.constant(np.ones(3)) @ taped.constant(np.ones((3, 2)))


def test_domain_errors():
    with pytest.raises(taped.DomainError):
        taped.log(taped.constant([1.0, 0.0]))
    with pytest.raises(taped.DomainError):
        taped.constant([1.0]) / taped.constant([0.0])


def test_quadratic_form_gradient_matches_closed_form():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    x = taped.parameter(rng.normal(size=(4, 1)))

    def f(params):
        (p,) = params
        return (taped.swapaxes(p, 0, 1) @ taped.constant(a) @ p).reshape(())

    err = taped.gradient_check(f, [x])
    assert err <= 1e-9
    with ad.Tape() as tape:
        tape.backward(f([x]))
    np.testing.assert_allclose(x.grad, 2 * a @ x.data, atol=1e-9)


def test_gradient_check_covers_primitives():
    rng = np.random.default_rng(5)
    w = taped.parameter(rng.normal(size=(3, 5)))
    b = taped.parameter(rng.normal(size=(5,)))
    x = taped.constant(rng.normal(size=(6, 3)))
    idx = np.array([0, 2, 4])

    def f(params):
        w, b = params
        h = taped.relu(x @ w + b)
        s = taped.softmax_row(taped.tanh(h))
        picked = s[(slice(None), idx)]
        joined = taped.concat([picked, taped.exp(picked * 0.1)], axis=-1)
        return joined.mean() + joined.std(axis=0).sum() + taped.logsumexp_row(h).mean()

    assert taped.gradient_check(f, [w, b]) <= 1e-6


def test_batched_matmul_gradients():
    rng = np.random.default_rng(9)
    a = taped.parameter(rng.normal(size=(2, 3, 4, 5)))
    b = taped.parameter(rng.normal(size=(5, 4)))

    def f(params):
        a, b = params
        return (taped.swapaxes(a @ b, -1, -2) @ (a @ b)).std()

    assert taped.gradient_check(f, [a, b]) <= 1e-6


# Broadcast pairs: size-1 axes on either side, missing leading axes, a 0-d
# parameter, and a plain float (None) that takes no gradient.
_BROADCAST_SHAPES = [((3, 4), (3, 1)), ((1, 4), (3, 1)), ((2, 3, 4), (4,)),
                     ((3, 1), (2, 3, 4)), ((2, 3, 4), (3, 1)), ((3, 4), ()),
                     ((), (2, 3)), ((3, 4), None), (None, (3, 4))]


@pytest.mark.parametrize("op", [taped.add, taped.sub, taped.mul, taped.div])
@pytest.mark.parametrize("a_shape, b_shape", _BROADCAST_SHAPES)
def test_broadcasting_vjps_pass_the_gradient_check(op, a_shape, b_shape):
    rng = np.random.default_rng(0)

    def operand(shape, is_denominator):
        data = rng.normal(size=() if shape is None else shape)
        if is_denominator:                 # kept away from zero
            data = np.sign(data) * (0.5 + np.abs(data))
        return float(data) if shape is None else taped.parameter(data)

    a, b = operand(a_shape, False), operand(b_shape, op is taped.div)
    params = [x for x in (a, b) if isinstance(x, ad.Tensor)]
    weights = taped.constant(rng.normal(size=op(a, b).data.shape))
    assert taped.gradient_check(lambda _: (op(a, b) * weights).sum(), params) <= 1e-4


@pytest.mark.parametrize("op", [taped.add, taped.sub, taped.mul, taped.div])
@pytest.mark.parametrize("a_shape, b_shape", [s for s in _BROADCAST_SHAPES if None not in s])
@pytest.mark.parametrize("constant", [0, 1])
def test_elementwise_vjps_skip_the_slot_of_a_constant_operand(op, a_shape, b_shape, constant):
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=a_shape), 0.5 + rng.random(size=b_shape)]
    with ad.Tape():
        both = op(*map(taped.parameter, arrays))
        one = op(*(taped.constant(a) if i == constant else taped.parameter(a)
                   for i, a in enumerate(arrays)))
    g = rng.normal(size=both.shape)
    slots_both, slots_one = both._vjp(g), one._vjp(g)
    assert slots_one[constant] is None
    kept = 1 - constant
    assert slots_one[kept].tobytes() == slots_both[kept].tobytes()


def _add_at_oracle(shape, key, g):
    full = np.zeros(shape)
    np.add.at(full, key, g)
    return full


_basic_index = st.one_of(st.integers(-3, 2), st.slices(3), st.just(Ellipsis))


@settings(max_examples=80)
@given(seed=st.integers(0, 2**16), key=st.lists(_basic_index, min_size=1, max_size=3)
       .filter(lambda k: k.count(Ellipsis) <= 1).map(tuple), signed_zeros=st.booleans())
def test_take_scatters_a_basic_key_as_add_at_does_bitwise(seed, key, signed_zeros):
    rng = np.random.default_rng(seed)
    x = taped.parameter(rng.normal(size=(3, 3, 3)))
    with ad.Tape():
        out = x[key]
    g = rng.normal(size=out.shape)
    if signed_zeros:            # 0.0 + -0.0 is +0.0 in either scatter
        g[g < 0] = -0.0
    (full,) = out._vjp(g)
    assert full.tobytes() == _add_at_oracle(x.shape, key, g).tobytes()


def test_take_accumulates_a_repeated_index():
    x = taped.parameter(np.arange(4.0))
    with ad.Tape() as tape:
        loss = (x[np.array([1, 1, 3])] * taped.constant([1.0, 2.0, 5.0])).sum()
        tape.backward(loss)
    assert x.grad.tolist() == [0.0, 3.0, 0.0, 5.0]


def test_adam_first_step_moves_against_gradient_sign():
    params = ad.ParamSet({"p": [1.0, 1.0]})
    p = params["p"]
    p.grad = np.array([3.0, -0.25])
    state = ad.adam_init(params)
    ad.adam_step(params, state, lr=0.05)
    assert p.data[0] < 1.0 and p.data[1] > 1.0


def test_distinct_tapes_on_distinct_threads():
    import threading

    results = {}

    def worker(key, scale):
        x = taped.parameter([1.0 * scale, 2.0 * scale])
        for _ in range(50):
            x.grad = None
            with ad.Tape() as tape:
                tape.backward((x * x).sum())
        results[key] = x.grad.copy()

    threads = [threading.Thread(target=worker, args=(k, k + 1)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(4):
        np.testing.assert_allclose(results[k], [2.0 * (k + 1), 4.0 * (k + 1)])


def test_nonfinite_gradient_raises():
    params = ad.ParamSet({"p": 1.0})
    params["p"].grad = np.asarray(np.nan)
    with pytest.raises(ad.NumericalFailure):
        ad.adam_step(params, ad.adam_init(params), lr=0.1)


def test_train_step_matches_tape_and_adam_bitwise():
    params = ad.ParamSet({"w": [0.5, -1.5], "b": 0.25})
    ref = ad.ParamSet({"w": [0.5, -1.5], "b": 0.25})
    state, ref_state = ad.adam_init(params), ad.adam_init(ref)

    def loss(p):
        z = p["w"] * p["w"] + p["b"]
        return (z * z).sum()

    for _ in range(3):
        ad.train_step(params, state, lambda: loss(params), 0.1)
        ad.zero_grads(ref)
        with ad.Tape() as tape:
            tape.backward(loss(ref))
        ad.adam_step(ref, ref_state, lr=0.1)
    assert params.flat.tobytes() == ref.flat.tobytes()
    assert state["t"] == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_step_on_a_nonfinite_loss_changes_nothing(bad):
    params = ad.ParamSet({"w": [0.5, -1.5]})
    state = ad.adam_init(params)
    ad.train_step(params, state, lambda: (params["w"] * params["w"]).sum(), 0.1)
    flat, m, v = params.flat.copy(), state["m"].copy(), state["v"].copy()
    with pytest.raises(ad.NumericalFailure, match="diverged"):
        ad.train_step(params, state, lambda: params["w"].sum() * bad, 0.1)
    assert params.flat.tobytes() == flat.tobytes()
    assert state["t"] == 1
    assert state["m"].tobytes() == m.tobytes() and state["v"].tobytes() == v.tobytes()


# -- parameter sets ----------------------------------------------------------


def _random_set(seed=0):
    rng = np.random.default_rng(seed)
    return ad.ParamSet({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
                        "s": rng.normal(), "blk0.w_q": rng.normal(size=(2, 2))})


def _zeroed_like(params):
    return ad.ParamSet({name: np.zeros(t.shape) for name, t in params.items()})


def _assert_views(params):
    for t in params:
        assert np.shares_memory(t.data, params.flat)


def test_param_set_round_trip_is_bit_exact(tmp_path):
    params = _random_set()
    path = tmp_path / "params.npz"
    params.save(path, "run-a")
    with np.load(path) as data:
        assert data.files == ["__stamp__", "w", "b", "s", "blk0.w_q"]
    loaded = _zeroed_like(params)
    loaded.load(path, "run-a")
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert [p.shape for p in loaded] == [p.shape for p in params]
    assert [p for p in tmp_path.iterdir()] == [path]   # no temporary file left


@pytest.mark.parametrize("change, message", [
    (lambda arrays: {("v" if k == "w" else k): a for k, a in arrays.items()}, "'w'"),
    (lambda arrays: {**arrays, "b": arrays["b"].reshape(2, 2)}, "'b'"),
    (lambda arrays: {k: a for k, a in arrays.items() if k != "blk0.w_q"}, "'blk0.w_q'"),
    (lambda arrays: {**arrays, "extra": np.zeros(2)}, "'extra'"),
])
def test_param_set_load_names_the_first_mismatching_parameter(tmp_path, change, message):
    params = _random_set()
    arrays = {name: t.data for name, t in params.items()}
    path = tmp_path / "params.npz"
    np.savez(path, __stamp__=np.array("run-a"), **change(arrays))
    target = _zeroed_like(params)
    with pytest.raises(ad.CheckpointMismatch, match=message):
        target.load(path, "run-a")
    assert not target.flat.any()          # nothing was half-loaded


def test_param_set_load_rejects_another_runs_stamp(tmp_path):
    params = _random_set()
    path = tmp_path / "params.npz"
    params.save(path, "run-a")
    with pytest.raises(ad.CheckpointMismatch, match="different run"):
        _zeroed_like(params).load(path, "run-b")


def test_a_damaged_npy_header_is_a_corrupt_checkpoint(tmp_path):
    # numpy re-tokenizes a header that literal_eval rejects, and an unclosed
    # bracket raised tokenize.TokenError before zipfile checked the entry's
    # CRC. A 1-element entry would be read whole first and fail its CRC.
    params = ad.ParamSet({"w": np.ones((64, 64))})
    path = tmp_path / "params.npz"
    params.save(path, "run-a")
    raw = path.read_bytes()
    assert raw.count(b"'shape': (64, 64)") == 1
    path.write_bytes(raw.replace(b"'shape': (64, 64)", b"'shape': (64, 64\n"))
    with pytest.raises(ad.CorruptCheckpoint, match="params.npz is damaged"):
        _zeroed_like(params).load(path, "run-a")


@given(damage=DAMAGE)
@settings(max_examples=200)
def test_a_mutated_checkpoint_loads_the_saved_values_or_fails_by_name(tmp_path_factory,
                                                                      damage):
    params = _random_set()
    path = tmp_path_factory.mktemp("mutate") / "params.npz"
    params.save(path, "run-a")
    path.write_bytes(damaged(path.read_bytes(), damage))
    target = _zeroed_like(params)
    try:
        target.load(path, "run-a")
    except ad.CheckpointMismatch:
        assert not target.flat.any()          # nothing was half-loaded
    else:
        assert target.flat.tobytes() == params.flat.tobytes()


def test_param_set_views_survive_adam_restore_and_load(tmp_path):
    params = _random_set()
    _assert_views(params)
    snap = params.snapshot()
    state = ad.adam_init(params)
    for p in params:
        p.grad = np.ones(p.shape)
    ad.adam_step(params, state, lr=0.1)
    _assert_views(params)
    assert not np.array_equal(params.flat, snap)
    params.restore(snap)
    _assert_views(params)
    assert params.flat.tobytes() == snap.tobytes()
    path = tmp_path / "params.npz"
    _random_set(1).save(path, "run-a")
    params.load(path, "run-a")
    _assert_views(params)
    assert params.flat.tobytes() == _random_set(1).flat.tobytes()


def test_adam_step_names_a_parameter_without_gradient():
    params = _random_set()
    for p in params:
        p.grad = np.zeros(p.shape)
    params["b"].grad = None
    with pytest.raises(ad.MissingGradient, match="'b'"):
        ad.adam_step(params, ad.adam_init(params))


def _reference_adam_step(arrays, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: Adam as a loop over the tensors, one update per tensor."""
    state["t"] += 1
    t = state["t"]
    for i, (p, g) in enumerate(zip(arrays, grads)):
        state["m"][i] = beta1 * state["m"][i] + (1.0 - beta1) * g
        state["v"][i] = beta2 * state["v"][i] + (1.0 - beta2) * g * g
        m_hat = state["m"][i] / (1.0 - beta1 ** t)
        v_hat = state["v"][i] / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_matches_per_tensor_loop_bitwise():
    from irrfactors import forecaster as fc
    hyper = fc.ForecasterHyper(window=10, width=32, blocks=1, heads=2)
    params = fc.init_params(6, hyper)
    assert len(list(params)) == 20
    arrays = [p.data.copy() for p in params]
    ref_state = {"t": 0, "m": [np.zeros_like(a) for a in arrays],
                 "v": [np.zeros_like(a) for a in arrays]}
    state = ad.adam_init(params)
    rng = np.random.default_rng(17)
    for _ in range(300):
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.uniform(-6, 2, size=a.shape)
                 for a in arrays]
        for p, g in zip(params, grads):
            p.grad = g
        ad.adam_step(params, state, lr=3e-3)
        _reference_adam_step(arrays, grads, ref_state, lr=3e-3)
        for p, a in zip(params, arrays):
            assert p.data.tobytes() == a.tobytes()


def _out_of_place_adam_step(flat, g, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: the flat Adam update with a fresh array per expression."""
    state["t"] += 1
    t = state["t"]
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * g
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * g * g
    m_hat = state["m"] / (1.0 - beta1 ** t)
    v_hat = state["v"] / (1.0 - beta2 ** t)
    flat -= lr * m_hat / (np.sqrt(v_hat) + eps)


@given(shapes=st.lists(st.lists(st.integers(1, 5), max_size=3), min_size=1, max_size=5),
       steps=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       lr=st.floats(1e-6, 1.0), zero_share=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_in_place_adam_matches_the_out_of_place_expressions_bitwise(shapes, steps, seed, lr,
                                                                    zero_share):
    rng = np.random.default_rng(seed)
    params = ad.ParamSet({f"p{k}": rng.normal(size=shape) for k, shape in enumerate(shapes)})
    flat = params.flat.copy()
    state = ad.adam_init(params)
    ref = {"t": 0, "m": np.zeros_like(flat), "v": np.zeros_like(flat)}
    for _ in range(steps):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 8, size=p.shape)
                 * (rng.random(p.shape) >= zero_share) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        ad.adam_step(params, state, lr=lr)
        _out_of_place_adam_step(flat, np.concatenate([g.reshape(-1) for g in grads]), ref, lr)
        assert params.flat.tobytes() == flat.tobytes()
        assert state["m"].tobytes() == ref["m"].tobytes()
        assert state["v"].tobytes() == ref["v"].tobytes()
    assert state["t"] == ref["t"] == steps

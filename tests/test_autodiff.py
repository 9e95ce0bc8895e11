import numpy as np
import pytest

from irrfactors import autodiff as ad


def test_sum_backward_gives_ones():
    x = ad.parameter([3.0, -1.0, 2.0])
    with ad.Tape() as tape:
        tape.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_elementwise_square_gradient():
    x = ad.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        tape.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax_row(ad.constant([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = ad.softmax_row(ad.constant(rng.normal(size=(5, 7)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_relu_forward():
    out = ad.relu(ad.constant([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_std_constant_input_has_finite_gradient():
    x = ad.parameter([1.0, 1.0, 1.0, 1.0])
    with ad.Tape() as tape:
        out = x.std()
        tape.backward(out)
    assert out.item() == pytest.approx(0.0, abs=1e-5)
    assert np.isfinite(x.grad).all()


def test_backward_requires_scalar():
    x = ad.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        y = x * 2.0
        with pytest.raises(ad.NotScalar):
            tape.backward(y)


def test_backward_requires_tape_connection():
    x = ad.parameter(1.0)
    with ad.Tape() as tape:
        with pytest.raises(ValueError):
            tape.backward(x)


def test_repeated_backward_accumulates():
    x = ad.parameter([1.0, 2.0])
    with ad.Tape() as tape:
        loss = (x * x).sum()
        tape.backward(loss)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(7)
    w = ad.parameter(rng.normal(size=(4, 4)))
    x = ad.constant(rng.normal(size=(3, 4)))

    def run():
        w.grad = None
        with ad.Tape() as tape:
            h = ad.tanh(x @ w)
            tape.backward((h * h).mean() + ad.softmax_row(h).std())
        return w.grad.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_finished_tape_is_freed_by_reference_counting():
    import gc
    import weakref

    x = ad.parameter([1.0, 2.0])
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = (ad.tanh(x) * x).sum()
            tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None, "tape and its nodes form a reference cycle"
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, np.tanh(x.data) + x.data / np.cosh(x.data) ** 2)


def test_shape_error_on_matmul_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.constant(np.ones((2, 3))) @ ad.constant(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError):
        ad.constant(np.ones(3)) @ ad.constant(np.ones((3, 2)))


def test_domain_errors():
    with pytest.raises(ad.DomainError):
        ad.log(ad.constant([1.0, 0.0]))
    with pytest.raises(ad.DomainError):
        ad.constant([1.0]) / ad.constant([0.0])


def test_quadratic_form_gradient_matches_closed_form():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    x = ad.parameter(rng.normal(size=(4, 1)))

    def f(params):
        (p,) = params
        return (ad.transpose(p) @ ad.constant(a) @ p).reshape(())

    err = ad.gradient_check(f, [x])
    assert err <= 1e-9
    with ad.Tape() as tape:
        tape.backward(f([x]))
    np.testing.assert_allclose(x.grad, 2 * a @ x.data, atol=1e-9)


def test_gradient_check_covers_primitives():
    rng = np.random.default_rng(5)
    w = ad.parameter(rng.normal(size=(3, 5)))
    b = ad.parameter(rng.normal(size=(5,)))
    x = ad.constant(rng.normal(size=(6, 3)))
    idx = np.array([0, 2, 4])

    def f(params):
        w, b = params
        h = ad.relu(x @ w + b)
        s = ad.softmax_row(ad.tanh(h))
        picked = s[(slice(None), idx)]
        joined = ad.concat([picked, ad.exp(picked * 0.1)], axis=-1)
        return joined.mean() + joined.std(axis=0).sum() + ad.logsumexp_row(h).mean()

    assert ad.gradient_check(f, [w, b]) <= 1e-6


def test_batched_matmul_gradients():
    rng = np.random.default_rng(9)
    a = ad.parameter(rng.normal(size=(2, 3, 4, 5)))
    b = ad.parameter(rng.normal(size=(5, 4)))

    def f(params):
        a, b = params
        return (ad.swapaxes(a @ b, -1, -2) @ (a @ b)).std()

    assert ad.gradient_check(f, [a, b]) <= 1e-6


def test_sgd_step_example():
    p = ad.parameter(1.0)
    p.grad = np.asarray(2.0)
    ad.sgd_step([p], lr=0.1)
    assert p.item() == pytest.approx(0.8)


def test_sgd_zero_gradient_leaves_params():
    p = ad.parameter([1.0, -2.0])
    p.grad = np.zeros(2)
    ad.sgd_step([p], lr=0.5)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_moves_against_gradient_sign():
    p = ad.parameter([1.0, 1.0])
    p.grad = np.array([3.0, -0.25])
    state = ad.adam_init([p])
    ad.adam_step([p], state, lr=0.05)
    assert p.data[0] < 1.0 and p.data[1] > 1.0


def test_distinct_tapes_on_distinct_threads():
    import threading

    results = {}

    def worker(key, scale):
        x = ad.parameter([1.0 * scale, 2.0 * scale])
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
    p = ad.parameter(1.0)
    p.grad = np.asarray(np.nan)
    with pytest.raises(ad.NumericalFailure):
        ad.sgd_step([p], lr=0.1)
    with pytest.raises(ad.NumericalFailure):
        ad.adam_step([p], ad.adam_init([p]), lr=0.1)

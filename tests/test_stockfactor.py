import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfactors import stockfactor as sf
from conftest import random_panel, train_record
import taped


def _naive_virtual_price(prices, params):
    """Two-loop oracle for the attention-weighted combination."""
    I, T = prices.shape
    w = params["w_att"].data
    beta = params["beta"].data
    out = np.zeros((I, T))
    for i in range(I):
        logits = np.array([w[i, j] for j in range(I) if j != i])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        others = [j for j in range(I) if j != i]
        for t in range(T):
            out[i, t] = sum(a * beta[i, j] * prices[j, t]
                            for a, j in zip(weights, others))
    return out


def test_uniform_attention_hand_value():
    params = sf.init_params(3)
    prices = np.array([[10.0], [20.0], [30.0]])
    assert sf.residual(prices, params).p_tilde[0, 0] == pytest.approx(25.0)


def test_attention_saturation():
    params = sf.init_params(3)
    params["beta"].data[0, 1] = 2.0
    params["w_att"].data[0, 1] = 40.0
    prices = np.array([[10.0], [20.0], [30.0]])
    assert sf.residual(prices, params).p_tilde[0, 0] == pytest.approx(40.0)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    params = sf.init_params(4)
    params["w_att"].data[...] = rng.normal(size=(4, 4)) * 3
    att = sf._attention(params)
    np.testing.assert_allclose(att.sum(axis=1), np.ones(4), atol=1e-12)
    np.testing.assert_array_equal(np.diag(att), np.zeros(4))


def test_too_few_stocks():
    with pytest.raises(sf.TooFewStocks):
        sf.init_params(1)


def test_residual_is_difference():
    panel = random_panel(2)
    params = sf.init_params(panel.n_stocks)
    series = sf.residual(panel.prices, params)
    np.testing.assert_array_equal(series.u, series.p_tilde - panel.prices)


def test_loss_beta_single_cell():
    params = sf.init_params(2)
    # I=2: each stock's virtual price is the other's price, so both cells err by 2
    assert sf.loss_beta(np.array([[1.0], [3.0]]), params).item() == pytest.approx(4.0)


def test_loss_beta_matches_naive_oracle():
    panel = random_panel(5)
    params = sf.init_params(panel.n_stocks)
    rng = np.random.default_rng(8)
    params["beta"].data[...] = rng.normal(size=params["beta"].shape)
    params["w_att"].data[...] = rng.normal(size=params["w_att"].shape)
    p_tilde = _naive_virtual_price(panel.prices, params)
    expected = ((panel.prices - p_tilde) ** 2).mean()
    assert sf.loss_beta(panel.prices, params).item() == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(sf.residual(panel.prices, params).p_tilde, p_tilde, rtol=1e-12)


def _rho_penalty(u, rho):
    """The stationarity penalty on a fixed residual series u (I, T) at the
    AR(1) coefficients rho."""
    return float(sf._rho_penalty(u, np.arctanh(rho))[0])


def test_loss_rho_hand_values():
    assert _rho_penalty(np.array([[1.0, 1.0]]), np.array([0.5])) == pytest.approx(0.25)
    assert _rho_penalty(np.zeros((1, 6)), np.array([0.9])) == 0.0


def test_loss_rho_matches_naive_oracle():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(3, 7))
    rho = rng.uniform(-0.9, 0.9, size=3)
    expected = np.mean([(u[i, t] - rho[i] * u[i, t - 1]) ** 2
                        for i in range(3) for t in range(1, 7)])
    assert _rho_penalty(u, rho) == pytest.approx(expected, rel=1e-12)


def test_loss_s_composition():
    panel = random_panel(6)
    params = sf.init_params(panel.n_stocks)
    rng = np.random.default_rng(9)
    params["beta"].data[...] = rng.normal(size=params["beta"].shape)
    params["rho_raw"].data[...] = rng.normal(size=params["rho_raw"].shape)
    lb = sf.loss_beta(panel.prices, params).item()
    lr = sf.loss_rho(panel.prices, params).item()
    assert sf.loss_S(panel.prices, params, 0.0).item() == pytest.approx(lb, rel=1e-12)
    assert sf.loss_S(panel.prices, params, 0.5).item() == pytest.approx(lb + 0.5 * lr,
                                                                          rel=1e-12)


def test_rho_constraint_by_construction():
    params = sf.init_params(3)
    params["rho_raw"].data[...] = np.array([-15.0, 0.0, 15.0])
    assert np.all(np.abs(sf.rho(params)) < 1.0)


def test_loss_gradients_match_finite_differences():
    panel = random_panel(7, n_stocks=4, n_periods=6)
    params = sf.init_params(4)
    rng = np.random.default_rng(3)
    params["beta"].data += rng.normal(scale=0.1, size=(4, 4))
    params["w_att"].data += rng.normal(scale=0.1, size=(4, 4))
    params["rho_raw"].data += rng.normal(scale=0.1, size=4)
    err = taped.gradient_check(lambda _: sf.loss_S(panel.prices, params, 0.5), params)
    assert err <= 1e-4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(2, 40), n_periods=st.integers(2, 40),
       lambda1=st.sampled_from([0.5, 0.0, 3.0]),
       term=st.sampled_from(["joint", "regression", "stationarity"]))
# The demo's shapes: 16 stocks over its 330 training periods
@example(seed=1, n_stocks=16, n_periods=330, lambda1=0.5, term="joint")
def test_fused_loss_is_bitwise_the_taped_chain(seed, n_stocks, n_periods, lambda1, term):
    # the loss and every gradient, and for the joint loss the parameters
    # after each of 3 Adam steps; lambda1 = 0 still runs the penalty's terms
    rng = np.random.default_rng(seed)
    prices = 50.0 + rng.normal(size=(n_stocks, n_periods)).cumsum(axis=1)
    start = [rng.normal(scale=0.3, size=(n_stocks, n_stocks)) for _ in range(2)]

    def record(module):
        params = sf.init_params(n_stocks)
        params["beta"].data += start[0]
        params["w_att"].data += start[1]
        loss = {"joint": lambda: module.loss_S(prices, params, lambda1),
                "regression": lambda: module.loss_beta(prices, params),
                "stationarity": lambda: module.loss_rho(prices, params)}[term]
        return train_record(params, loss, 3 if term == "joint" else 1, 0.02)

    assert record(sf) == record(taped)


def test_training_decreases_loss(planted_panel):
    prices = planted_panel.prices
    hyper = sf.StockFactorHyper(steps=150)
    initial = sf.loss_S(prices, sf.init_params(8), hyper.lambda1).item()
    params = sf.train_stock_factors(prices, hyper, planted_panel.n_periods)
    final = sf.loss_S(prices, params, hyper.lambda1).item()
    assert final <= initial


def test_training_finds_planted_partner(planted_panel):
    prices = planted_panel.prices
    params = sf.train_stock_factors(prices, sf.StockFactorHyper(steps=800),
                                    planted_panel.n_periods)
    series = sf.residual(prices, params)
    att = sf._attention(params)
    assert att[0].argmax() == 1
    assert abs(sf.stationarity_diagnostic(series.u[0])) < \
        abs(sf.stationarity_diagnostic(planted_panel.prices[0]))


def test_stationarity_diagnostic_known_processes():
    rng = np.random.default_rng(1)
    u = np.empty(1000)
    u[0] = 0.0
    eps = rng.standard_normal(1000)
    for t in range(1, 1000):
        u[t] = 0.5 * u[t - 1] + eps[t]
    assert 0.4 <= sf.stationarity_diagnostic(u) <= 0.6
    walk = np.cumsum(rng.standard_normal(1000)) + 50
    assert sf.stationarity_diagnostic(walk) > 0.95
    assert sf.stationarity_diagnostic(np.full(20, 3.0)) == pytest.approx(1.0)
    assert sf.stationarity_diagnostic(np.zeros(20)) == 0.0
    with pytest.raises(sf.TooShortSeries):
        sf.stationarity_diagnostic(np.ones(5))

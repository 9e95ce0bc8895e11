import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import evaluation as ev
from irrfactors.panel import BadShape


CFG = ev.PortfolioConfig(n_fraction=0.25, cost_rate=0.001)


# -- independent oracles -------------------------------------------------


def sort_rank_oracle(values):
    """Full-sort average ranks, built independently of the shipped helper."""
    v = np.asarray(values, dtype=float)
    ranks = np.zeros(v.size)
    for i, x in enumerate(v):
        less = np.sum(v < x)
        equal = np.sum(v == x)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def two_pass_pearson(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    am, bm = a - a.mean(), b - b.mean()
    denom = np.sqrt((am ** 2).mean()) * np.sqrt((bm ** 2).mean())
    return 0.0 if denom == 0 else float((am * bm).mean() / denom)


def brute_force_mdd(returns):
    cums = np.cumsum(returns)
    worst = 0.0
    for tau in range(len(cums)):
        for t in range(tau + 1):
            worst = max(worst, cums[t] - cums[tau])
    return worst


def brute_force_long_short(y_hat, y_true_pct, n):
    order = sorted(range(len(y_hat)), key=lambda i: (-y_hat[i], i))
    top, bottom = order[:n], order[-n:]
    y = np.asarray(y_true_pct) / 100.0
    return (sum(y[i] for i in top) - sum(y[i] for i in bottom)) / n


# -- per-period loop oracles ----------------------------------------------------
#
# The earlier one-period-at-a-time implementations, kept verbatim so the panel
# helpers can be held to their bits.


def loop_average_ranks(values):
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    s = v[order]
    new_group = np.empty(v.size, dtype=bool)
    new_group[:1] = True
    new_group[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def loop_pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.sqrt((ac * ac).mean())
    sb = np.sqrt((bc * bc).mean())
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float((ac * bc).mean() / (sa * sb))


def loop_ic_series(y_hat, y_true):
    return np.array([loop_pearson(y_hat[:, t], loop_average_ranks(y_true[:, t]))
                     for t in range(y_hat.shape[1])])


def loop_rank_ic_series(y_hat, y_true):
    return np.array([loop_pearson(loop_average_ranks(y_hat[:, t]),
                                  loop_average_ranks(y_true[:, t]))
                     for t in range(y_hat.shape[1])])


def loop_long_short_return(y_hat_t, y_true_t, cfg):
    y_hat_t = np.asarray(y_hat_t, dtype=np.float64)
    y_frac = np.asarray(y_true_t, dtype=np.float64) / 100.0
    n = cfg.portfolio_size(y_hat_t.size)
    order = np.argsort(-y_hat_t, kind="stable")
    longs = order[:n]
    shorts = order[-n:]
    gross = (y_frac[longs].sum() - y_frac[shorts].sum()) / n
    return float(gross), longs, shorts


def loop_apply_costs(gross, memberships, cfg):
    gross = np.asarray(gross, dtype=np.float64)
    tc = np.zeros(gross.size)
    prev_long: frozenset = frozenset()
    prev_short: frozenset = frozenset()
    n = None
    for t, (longs, shorts) in enumerate(memberships):
        cur_long = frozenset(int(i) for i in longs)
        cur_short = frozenset(int(i) for i in shorts)
        if n is None:
            n = len(cur_long)
        tc[t] = (len(cur_long ^ prev_long) + len(cur_short ^ prev_short))
        prev_long, prev_short = cur_long, cur_short
    net = gross - cfg.cost_rate * tc / n
    return net, tc


def _laid_out(x, layout):
    """The same values as C-ordered, F-ordered or a column slice of a wider array."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    wide = np.full((x.shape[0], 2 * x.shape[1] + 1), np.inf)
    wide[:, 1::2] = x
    return wide[:, 1::2]


def _draw_values(rng, shape, tie_levels):
    """Normal draws, or small integers when tie_levels is set, so ties are common."""
    if tie_levels:
        return rng.integers(0, tie_levels, size=shape).astype(np.float64)
    return rng.normal(size=shape)


@given(n_stocks=st.integers(2, 120), n_periods=st.integers(1, 9),
       n_fraction=st.sampled_from([0.1, 0.2, 0.5]),
       layout=st.sampled_from(["C", "F", "sliced"]),
       hat_ties=st.sampled_from([0, 2, 5]), true_ties=st.sampled_from([0, 3]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_panel_helpers_match_the_per_period_loops_bit_for_bit(
        n_stocks, n_periods, n_fraction, layout, hat_ties, true_ties, seed):
    rng = np.random.default_rng(seed)
    cfg = ev.PortfolioConfig(n_fraction=n_fraction, cost_rate=0.001)
    y_hat = _laid_out(_draw_values(rng, (n_stocks, n_periods), hat_ties), layout)
    y_true = _laid_out(2.0 * _draw_values(rng, (n_stocks, n_periods), true_ties), layout)
    columns = range(n_periods)

    ranks = np.stack([loop_average_ranks(y_true[:, t]) for t in columns], axis=1)
    assert ev.average_ranks(y_true).tobytes() == ranks.tobytes()
    assert ev.pearson(y_hat, ev.average_ranks(y_true)).tobytes() == \
        loop_ic_series(y_hat, y_true).tobytes()
    assert ev.rank_ic_series(y_hat, y_true).tobytes() == \
        loop_rank_ic_series(y_hat, y_true).tobytes()

    per_period = [loop_long_short_return(y_hat[:, t], y_true[:, t], cfg) for t in columns]
    gross, longs, shorts = ev.long_short_return(y_hat, y_true, cfg)
    assert gross.tobytes() == np.array([g for g, _, _ in per_period]).tobytes()
    assert longs.tobytes() == np.stack([lg for _, lg, _ in per_period]).tobytes()
    assert shorts.tobytes() == np.stack([sh for _, _, sh in per_period]).tobytes()
    net, tc = ev.apply_costs(gross, longs, shorts, cfg)
    loop_net, loop_tc = loop_apply_costs(gross, [(lg, sh) for _, lg, sh in per_period], cfg)
    assert tc.tobytes() == loop_tc.tobytes()
    assert net.tobytes() == loop_net.tobytes()

    report = ev.run_backtest(y_hat, y_true, cfg)
    assert report.gross.tobytes() == gross.tobytes()
    assert report.net.tobytes() == net.tobytes()

    # one (I,) period gives the loop's scalar
    g0, longs0, _ = ev.long_short_return(y_hat[:, 0], y_true[:, 0], cfg)
    assert (g0, longs0.tolist()) == (per_period[0][0], per_period[0][1].tolist())
    assert ev.pearson(y_hat[:, 0], y_true[:, 0]) == loop_pearson(y_hat[:, 0], y_true[:, 0])


def test_panel_ranks_give_each_nan_its_own_top_rank_per_period():
    rng = np.random.default_rng(13)
    values = rng.integers(0, 3, size=(11, 6)).astype(float)
    values[rng.random(values.shape) < 0.3] = np.nan
    for layout in ("C", "F", "sliced"):
        panel = _laid_out(values, layout)
        expected = np.stack([loop_average_ranks(panel[:, t]) for t in range(6)], axis=1)
        assert ev.average_ranks(panel).tobytes() == expected.tobytes()


# -- ranks and correlations ------------------------------------------------


def test_average_ranks_with_ties():
    ranks = ev.average_ranks([3.0, 1.0, 3.0, 2.0])
    np.testing.assert_array_equal(ranks, [3.5, 1.0, 3.5, 2.0])


def test_average_ranks_match_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.integers(0, 5, size=9).astype(float)
        np.testing.assert_array_equal(ev.average_ranks(v), sort_rank_oracle(v))


@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-1e6, 1e6, allow_nan=False)), max_size=60))
def test_average_ranks_match_oracle_on_random_ties(values):
    np.testing.assert_array_equal(ev.average_ranks(values), sort_rank_oracle(values))


def test_average_ranks_give_each_nan_its_own_top_rank():
    np.testing.assert_array_equal(ev.average_ranks([np.nan, 1.0, np.nan, 1.0]),
                                  [3.0, 1.5, 4.0, 1.5])


def test_pearson_perfect_and_inverted():
    z = ev.average_ranks([1.0, 3.0, 2.0, 5.0])
    assert ev.pearson(z, z) == pytest.approx(1.0)
    assert ev.pearson(-z, z) == pytest.approx(-1.0)


def test_pearson_constant_forecast_is_zero():
    assert ev.pearson(np.full(5, 2.0), ev.average_ranks(np.arange(5.0))) == 0.0


def test_pearson_matches_two_pass_pearson_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y_hat = rng.normal(size=8)
        z = ev.average_ranks(rng.normal(size=8))
        a, b = y_hat - y_hat.mean(), z - z.mean()
        oracle = (a * b).mean() / np.sqrt((a * a).mean() * (b * b).mean())
        assert ev.pearson(y_hat, z) == pytest.approx(oracle, abs=1e-10)


def test_pearson_consistent_for_monotone_transforms_of_ranks():
    z = ev.average_ranks(np.array([0.3, -1.2, 0.9, 2.2, -0.4]))
    transformed = np.exp(z)       # strictly increasing, nonlinear
    assert ev.pearson(transformed, z) == pytest.approx(two_pass_pearson(transformed, z),
                                                       abs=1e-12)
    assert ev.pearson(2.0 * z + 3.0, z) == pytest.approx(1.0)


# -- strategy ----------------------------------------------------------------


def test_long_short_hand_example():
    # 4 stocks, N=1: top forecast is stock A (+2%), bottom is D (-3%)
    cfg = ev.PortfolioConfig(n_fraction=0.25)
    y_hat = np.array([9.0, 5.0, 4.0, 1.0])
    y_true = np.array([2.0, 0.5, 0.1, -3.0])
    gross, longs, shorts = ev.long_short_return(y_hat, y_true, cfg)
    assert gross == pytest.approx(0.05)
    assert list(longs) == [0] and list(shorts) == [3]


def test_long_short_equal_returns_is_flat():
    cfg = ev.PortfolioConfig(n_fraction=0.25)
    gross, *_ = ev.long_short_return(np.array([4.0, 3.0, 2.0, 1.0]),
                                     np.full(4, 1.7), cfg)
    assert gross == pytest.approx(0.0)


def test_long_short_matches_brute_force():
    rng = np.random.default_rng(1)
    cfg = ev.PortfolioConfig(n_fraction=0.2)
    for _ in range(100):
        y_hat = rng.normal(size=10)
        y_true = rng.normal(size=10) * 2.0
        gross, *_ = ev.long_short_return(y_hat, y_true, cfg)
        assert gross == brute_force_long_short(y_hat, y_true, 2)


def test_long_short_universe_too_small():
    cfg = ev.PortfolioConfig(n_fraction=0.5)
    with pytest.raises(ev.UniverseTooSmall):
        ev.long_short_return(np.array([1.0]), np.array([1.0]), cfg)


def test_backtest_invariant_under_monotone_transform_of_forecasts():
    rng = np.random.default_rng(2)
    cfg = ev.PortfolioConfig(n_fraction=0.2)
    y_hat = rng.normal(size=(10, 30))
    y_true = rng.normal(size=(10, 30))
    base = ev.run_backtest(y_hat, y_true, cfg)
    warped = ev.run_backtest(np.exp(y_hat * 0.5) * 3.0, y_true, cfg)
    np.testing.assert_array_equal(base.gross, warped.gross)
    np.testing.assert_array_equal(base.net, warped.net)


# -- costs ----------------------------------------------------------------


def test_costs_zero_when_portfolio_is_static():
    cfg = ev.PortfolioConfig(n_fraction=0.25, cost_rate=0.001)
    gross = np.array([0.01, 0.02])
    net, tc = ev.apply_costs(gross, [(0, 1), (0, 1)], [(2, 3), (2, 3)], cfg)
    # first period opens both legs (2N = 4 transacted), second reuses them
    np.testing.assert_array_equal(tc, [4.0, 0.0])
    assert net[1] == pytest.approx(gross[1])


def test_costs_full_turnover():
    # N = 10, complete turnover: close 20, open 20 -> TC = 40, cost 0.4%
    cfg = ev.PortfolioConfig(n_fraction=0.25, cost_rate=0.001)
    longs = [tuple(range(10)), tuple(range(20, 30))]
    shorts = [tuple(range(10, 20)), tuple(range(30, 40))]
    net, tc = ev.apply_costs(np.array([0.0, 0.0]), longs, shorts, cfg)
    assert tc[1] == 40.0
    assert net[1] == pytest.approx(-0.004)


def test_costs_first_period_convention():
    # first period, N = 5: TC = 10, cost = 0.1% * 10 / 5 = 0.2%
    cfg = ev.PortfolioConfig(n_fraction=0.25, cost_rate=0.001)
    net, tc = ev.apply_costs(np.array([0.01]), [tuple(range(5))], [tuple(range(5, 10))], cfg)
    assert tc[0] == 10.0
    assert net[0] == pytest.approx(0.01 - 0.002)


# -- wealth and ratios -------------------------------------------------------


def test_cumulative_wealth_hand_values():
    np.testing.assert_allclose(ev.cumulative_wealth([0.1, 0.1]), [1.1, 1.21])
    np.testing.assert_array_equal(ev.cumulative_wealth(np.zeros(4)), np.ones(4))


def test_cumulative_wealth_matches_log_oracle():
    rng = np.random.default_rng(3)
    r = rng.uniform(-0.05, 0.05, size=200)
    oracle = np.exp(np.cumsum(np.log1p(r)))
    np.testing.assert_allclose(ev.cumulative_wealth(r), oracle, rtol=1e-12)


def test_ar_av_sr_degenerate_and_zero_mean():
    cfg = ev.PortfolioConfig()
    ar, av, sr, flat = ev.ar_av_sr(np.full(10, 0.001), cfg)
    assert ar == pytest.approx(0.252)
    assert av == pytest.approx(0.0, abs=1e-15) and sr == 0.0 and flat
    ar, av, sr, flat = ev.ar_av_sr(np.array([0.01, -0.01]), cfg)
    assert ar == pytest.approx(0.0) and sr == pytest.approx(0.0) and not flat


def test_ar_av_sr_matches_naive_oracle():
    rng = np.random.default_rng(4)
    cfg = ev.PortfolioConfig()
    r = rng.normal(scale=0.01, size=120)
    ar, av, sr, _ = ev.ar_av_sr(r, cfg)
    assert ar == pytest.approx(r.mean() * 252, rel=1e-12)
    assert av == pytest.approx(r.std() * np.sqrt(252), rel=1e-12)
    assert sr == pytest.approx(ar / av, rel=1e-12)


def test_mdd_hand_example():
    assert ev.mdd([0.1, -0.2, 0.05, -0.1]) == pytest.approx(0.25)
    assert ev.mdd([0.01, 0.02, 0.03]) == 0.0
    assert ev.mdd([0.05]) == 0.0


def test_mdd_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.normal(scale=0.02, size=40)
        assert ev.mdd(r) == pytest.approx(brute_force_mdd(r), abs=1e-15)
    assert ev.mdd(np.full(10, -0.01)) == pytest.approx(brute_force_mdd(np.full(10, -0.01)))
    assert ev.mdd(np.full(10, 0.01)) == 0.0


def test_calmar():
    assert ev.calmar(0.25, 0.125) == (2.0, False)
    assert ev.calmar(0.25, 0.0) == (0.0, True)


# -- forecast metrics ----------------------------------------------------------


def test_forecast_metrics_perfect_rank_linear_prediction():
    # per-period targets affine in their ranks, so IC is exactly 1 as well
    rng = np.random.default_rng(6)
    y_true = np.stack([rng.permutation(5).astype(float) for _ in range(7)], axis=1)
    metrics, flags = ev.forecast_metrics(y_true, y_true)
    assert metrics["rmse"] == 0.0 and metrics["mae"] == 0.0
    assert metrics["ic"] == pytest.approx(1.0)
    assert metrics["rank_ic"] == pytest.approx(1.0)
    assert "icir_undefined" in flags       # constant IC series has zero std


def test_monotone_transform_keeps_rank_ic_only():
    rng = np.random.default_rng(7)
    y_true = rng.normal(size=(8, 5))
    y_hat = y_true ** 3                    # strictly monotone, nonlinear
    metrics, _ = ev.forecast_metrics(y_hat, y_true)
    assert metrics["rank_ic"] == pytest.approx(1.0)
    assert metrics["ic"] < 1.0


def test_rank_ic_invariant_under_monotone_transforms_of_both_sides():
    rng = np.random.default_rng(8)
    y_hat = rng.normal(size=(9, 6))
    y_true = rng.normal(size=(9, 6))
    base = ev.rank_ic_series(y_hat, y_true)
    warped = ev.rank_ic_series(np.tanh(y_hat), np.exp(y_true))
    np.testing.assert_allclose(base, warped, atol=1e-12)


def test_all_metrics_match_independent_oracles():
    rng = np.random.default_rng(9)
    y_hat = rng.normal(size=(7, 25))
    y_true = rng.normal(size=(7, 25)) * 2.0
    metrics, _ = ev.forecast_metrics(y_hat, y_true)

    err = y_hat - y_true
    assert metrics["rmse"] == pytest.approx(np.sqrt((err ** 2).mean()), abs=1e-12)
    assert metrics["mae"] == pytest.approx(np.abs(err).mean(), abs=1e-12)

    ic = [two_pass_pearson(y_hat[:, t], sort_rank_oracle(y_true[:, t])) for t in range(25)]
    rank_ic = [two_pass_pearson(sort_rank_oracle(y_hat[:, t]), sort_rank_oracle(y_true[:, t]))
               for t in range(25)]
    assert metrics["ic"] == pytest.approx(np.mean(ic), abs=1e-10)
    assert metrics["rank_ic"] == pytest.approx(np.mean(rank_ic), abs=1e-10)
    assert metrics["icir"] == pytest.approx(np.mean(ic) / np.std(ic), abs=1e-10)
    assert metrics["rank_icir"] == pytest.approx(np.mean(rank_ic) / np.std(rank_ic), abs=1e-10)


def test_net_return_never_exceeds_gross_with_costs():
    rng = np.random.default_rng(10)
    cfg = ev.PortfolioConfig(n_fraction=0.2, cost_rate=0.002)
    report = ev.run_backtest(rng.normal(size=(10, 40)), rng.normal(size=(10, 40)), cfg)
    assert np.all(report.net <= report.gross + 1e-15)
    assert report.turnover[0] == 2 * cfg.portfolio_size(10)


def test_backtest_names_the_first_non_finite_forecast_or_return():
    # all-NaN forecasts once gave a final wealth near 1 and no flag
    rng = np.random.default_rng(12)
    y_hat, y_true = rng.normal(size=(20, 30)), rng.normal(size=(20, 30))
    with pytest.raises(ev.NonFiniteForecast, match="forecast of stock row 0, period column 0"):
        ev.run_backtest(np.full((20, 30), np.nan), y_true, CFG)
    y_true[3, 7] = np.inf
    y_true[5, 2] = np.nan
    with pytest.raises(ev.NonFiniteForecast, match="return of stock row 3, period column 7 is inf"):
        ev.run_backtest(y_hat, y_true, CFG)


@pytest.mark.parametrize("y_hat, y_true, shapes", [
    (np.arange(20.0), np.arange(20.0), r"\(20,\) and returns \(20,\)"),
    (np.full(20, np.nan), np.arange(20.0), r"\(20,\) and returns \(20,\)"),
    (np.zeros((20, 30)), np.zeros((20, 29)), r"\(20, 30\) and returns \(20, 29\)"),
    (np.zeros((20, 30)), np.zeros((30, 20)), r"\(20, 30\) and returns \(30, 20\)"),
], ids=["one-period", "one-period-nan", "fewer-periods", "transposed"])
def test_backtest_names_a_bad_shape_before_any_arithmetic(y_hat, y_true, shapes):
    # a one-period vector died in take_along_axis, or unpacking argwhere for a NaN
    with pytest.raises(BadShape, match=f"forecasts {shapes} are not"):
        ev.run_backtest(y_hat, y_true, CFG)


def test_wealth_compounds_net_returns():
    rng = np.random.default_rng(11)
    cfg = ev.PortfolioConfig(n_fraction=0.2, cost_rate=0.005)
    y_hat, y_true = rng.normal(size=(10, 25)), rng.normal(size=(10, 25))
    net_report = ev.run_backtest(y_hat, y_true, cfg)
    np.testing.assert_allclose(net_report.wealth, np.cumprod(1 + net_report.net))


def test_portfolio_config_validation():
    with pytest.raises(ValueError):
        ev.PortfolioConfig(n_fraction=0.6)
    with pytest.raises(ValueError):
        ev.PortfolioConfig(cost_rate=-0.1)
    assert ev.PortfolioConfig(n_fraction=0.1).portfolio_size(16) == 1
    assert ev.PortfolioConfig(n_fraction=0.1).portfolio_size(5) == 1

import numpy as np
import pytest

from irrfactors import autodiff as ad
from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.evaluation import average_ranks
from irrfactors.marketfactor import MarketFactorSeries
from irrfactors.panel import windows
from irrfactors.rng import stream

import taped
from conftest import augmented, reprs


def _setup(seed=0, n_stocks=4, n_periods=12, n_features=3, window=3, **kw):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_stocks, n_periods, n_features))
    u = rng.normal(size=(n_stocks, n_periods))
    mseries = MarketFactorSeries(
        m=rng.normal(size=(n_periods, 2 * n_features)),
        summary=rng.normal(size=(n_stocks, n_periods, n_features)),
        window=window)
    hyper = fc.ForecasterHyper(window=window, width=8, blocks=1, heads=2,
                               seed=seed, **kw)
    params = fc.init_params(n_features, hyper, stream(seed, "fc", "init"))
    return feats, u, mseries, hyper, params


def _arrays(params) -> dict:
    return {name: t.data for name, t in params.items()}


def test_build_inputs_appends_factor_column():
    feats, u, mseries, hyper, _ = _setup(n_features=6)
    g, r_prev, m_prev = fc._inputs(feats, u, mseries, [5], hyper)
    assert g.shape == (1, 4, 3, 7) and g.flags.c_contiguous
    assert r_prev.shape == (1, 4, 12) and r_prev.flags.c_contiguous
    np.testing.assert_array_equal(g[0, :, :, :6], feats[:, 2:5, :])
    np.testing.assert_array_equal(g[0, :, :, 6], u[:, 2:5])
    np.testing.assert_array_equal(r_prev[0], reprs(feats, mseries)[:, 4])
    np.testing.assert_array_equal(m_prev[0], mseries.m[4])


def test_build_inputs_zero_factor_reduces_to_features():
    feats, u, mseries, hyper, _ = _setup()
    g, *_ = fc._inputs(feats, np.zeros_like(u), mseries, [5], hyper)
    np.testing.assert_array_equal(g[0, :, :, -1], 0.0)
    np.testing.assert_array_equal(g[0, :, :, :-1], feats[:, 2:5])


def test_build_inputs_ns_ablation_drops_the_column():
    feats, u, mseries, hyper, _ = _setup(ablation="NS")
    g, *_ = fc._inputs(feats, u, mseries, [5], hyper)
    assert g.shape == (1, 4, 3, 3)
    np.testing.assert_array_equal(g[0], feats[:, 2:5])


def test_build_inputs_alignment_error():
    # training and frozen scoring check their inputs one way
    feats, u, mseries, hyper, params = _setup(n_periods=20)
    returns = np.zeros((4, 20))
    with pytest.raises(fc.AlignmentError, match="does not match panel"):
        fc.train_forecaster(feats, returns, u[:, :-1], mseries, hyper, train_end=18)
    with pytest.raises(fc.AlignmentError, match="does not match panel"):
        fc.train_forecaster(feats, returns[:, :-1], u, mseries, hyper, train_end=18)
    # a longer series still fits the block's windows
    longer = np.concatenate([u, u[:, :1]], axis=1)
    with pytest.raises(fc.AlignmentError, match="does not match panel"):
        fc.predict_periods(params, hyper, feats, longer, mseries, [5])
    short_m = MarketFactorSeries(mseries.m[:-1], mseries.summary, 3)
    with pytest.raises(fc.AlignmentError, match="does not match panel"):
        fc.predict_periods(params, hyper, feats, u, short_m, [5])
    # a series that stores the whole of r is not a series of summaries
    whole_r = MarketFactorSeries(mseries.m, reprs(feats, mseries), 3)
    with pytest.raises(fc.AlignmentError, match="does not match panel"):
        fc.predict_periods(params, hyper, feats, u, whole_r, [5])


def test_temporal_encode_shape_and_position_sensitivity():
    feats, u, mseries, hyper, params = _setup(seed=3)
    g = windows(augmented(feats, u), 6, 3)
    c, _ = fc._temporal_encode(_arrays(params), hyper, g)
    assert c.shape == (4, 8)
    permuted = g[:, ::-1, :].copy()
    c_perm, _ = fc._temporal_encode(_arrays(params), hyper, permuted)
    assert not np.allclose(c, c_perm)      # positional encoding is active


def test_temporal_encode_single_step_window():
    feats, u, mseries, hyper, params = _setup(seed=4, window=1)
    g = windows(augmented(feats, u), 6, 1)
    assert fc._temporal_encode(_arrays(params), hyper, g)[0].shape == (4, 8)


def test_relation_attention_single_stock_is_identity():
    feats, u, mseries, hyper, params = _setup(seed=5, n_stocks=1)
    c = np.random.default_rng(0).normal(size=(1, 8))
    d, _ = fc._relation(_arrays(params), c, reprs(feats, mseries)[:, 4])
    np.testing.assert_allclose(d, c, atol=1e-12)


def test_relation_attention_uniform_when_scores_equal():
    feats, u, mseries, hyper, params = _setup(seed=6)
    params["w_y"].data[...] = 0.0   # all scores 0
    c = np.random.default_rng(1).normal(size=(4, 8))
    d, _ = fc._relation(_arrays(params), c, reprs(feats, mseries)[:, 4])
    np.testing.assert_allclose(d, np.tile(c.mean(axis=0), (4, 1)), atol=1e-12)


def test_relation_attention_rows_sum_to_one():
    feats, u, mseries, hyper, params = _setup(seed=7)
    c = taped.constant(np.random.default_rng(2).normal(size=(4, 8)))
    v = c @ params["p_c"] + taped.constant(reprs(feats, mseries)[:, 4])
    z = v @ taped.swapaxes(params["w_y"], 0, 1)
    att = taped.softmax_row(z @ taped.swapaxes(z, 0, 1))
    np.testing.assert_allclose(att.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_predict_with_zero_head_is_bias():
    feats, u, mseries, hyper, params = _setup(seed=8)
    params["head_w1"].data[...] = 0.0
    params["head_b1"].data[...] = 0.0
    params["head_w2"].data[...] = 0.0
    params["head_b2"].data[...] = 0.7
    g = windows(augmented(feats, u), 6, 3)
    y_hat = fc.predict(params, hyper, g, reprs(feats, mseries)[:, 5], mseries.m[5])
    np.testing.assert_allclose(y_hat, np.full(4, 0.7))


def test_nm_ablation_ignores_market_vector():
    feats, u, mseries, hyper, params = _setup(seed=9, ablation="NM")
    g = windows(augmented(feats, u), 6, 3)
    r = reprs(feats, mseries)
    a = fc.predict(params, hyper, g, r[:, 5], mseries.m[5])
    b = fc.predict(params, hyper, g, r[:, 5], mseries.m[5] * 100.0)
    np.testing.assert_array_equal(a, b)


def test_nd_ablation_shrinks_head_input():
    *_, params_full = _setup(seed=10)
    *_, params_nd = _setup(seed=10, ablation="ND")
    assert "p_c" not in params_nd
    assert params_nd["head_w1"].shape[0] == params_full["head_w1"].shape[0] - 8


def test_loss_total_reduces_to_mse():
    rng = np.random.default_rng(13)
    y = rng.normal(size=5)
    y_hat = taped.constant(rng.normal(size=5))
    z = average_ranks(y)
    expected = float(((y_hat.data - y) ** 2).mean())
    assert fc.loss_total(y_hat, y, z, 0.0).item() == pytest.approx(expected, rel=1e-12)


def test_loss_total_perfect_rank_linear_prediction():
    # targets spaced so that values are affine in their ranks: exact MSE = 0
    # and correlation = 1, hence loss = -lambda3 (up to the std epsilon guard)
    y = np.array([0.1, 0.4, 0.2, 0.3])
    z = average_ranks(y)
    y_hat = taped.constant(y.copy())
    assert fc.loss_total(y_hat, y, z, 0.1).item() == pytest.approx(-0.1, abs=1e-9)


def test_full_loss_gradients_match_finite_differences():
    feats, u, mseries, hyper, params = _setup(seed=14)
    g = windows(augmented(feats, u), 6, 3)
    r = reprs(feats, mseries)
    rng = np.random.default_rng(15)
    y = rng.normal(size=4)
    z = average_ranks(y)

    def f(_):
        y_hat = fc._predict_op(params, hyper, g, r[:, 5], mseries.m[5])
        return fc.loss_total(y_hat, y, z, 0.1)

    assert taped.gradient_check(f, params) <= 1e-4


def _demo_step(model: str):
    """A loss at the demo's shapes (16 stocks, 330 training periods, 6
    features, window 10, market batch 32, width 32, one block, two heads)."""
    rng = np.random.default_rng(16)
    if model == "stock":
        prices = 50.0 + rng.normal(size=(16, 330)).cumsum(axis=1)
        params = sf.init_params(16)
        return lambda: sf.loss_S(prices, params, 0.5)
    if model == "market":
        feats = rng.normal(size=(16, 60, 6))
        labels = rng.integers(0, 3, size=60)
        params = mf.init_params(16, 6, mf.MarketFactorHyper(window=10))
        return lambda: mf.loss_M(params, feats, labels, np.arange(20, 52), 1.0, 10, 0, 0)
    feats, u, mseries, _, _ = _setup(seed=16, n_stocks=16, n_periods=12, n_features=6,
                                     window=10)
    hyper = fc.ForecasterHyper(window=10, width=32, blocks=1, heads=2)
    params = fc.init_params(6, hyper, stream(16, "fc", "init"))
    g = windows(augmented(feats, u), 11, 10)
    r_prev = reprs(feats, mseries)[:, 10]
    y = rng.normal(size=16)
    return lambda: fc.loss_total(fc._predict_op(params, hyper, g, r_prev, mseries.m[10]),
                                 y, average_ranks(y), 0.1)


@pytest.mark.parametrize("model, nodes", [("stock", 1), ("market", 1), ("forecaster", 2)])
def test_training_step_records_its_tape_nodes(model, nodes):
    # each loss is hand-written nodes: the stock loss one, the market loss
    # one, the forecaster's model and loss one each, where the chains of
    # elementary primitives recorded 18, 80 and 67 nodes
    loss = _demo_step(model)
    with ad.Tape() as tape:
        tape.backward(loss())
    assert len(tape._nodes) == nodes


def test_the_final_block_runs_on_the_read_out_rows_only(monkeypatch):
    # demo shapes: training runs the last block's layer norms on the last two
    # positions of each window, frozen scoring on the last one
    feats, u, mseries, _, _ = _setup(seed=16, n_stocks=16, n_periods=12, n_features=6,
                                     window=10)
    hyper = fc.ForecasterHyper(window=10, width=32, blocks=1, heads=2)
    params = fc.init_params(6, hyper, stream(16, "fc", "init"))
    g = windows(augmented(feats, u), 11, 10)
    r_prev = reprs(feats, mseries)[:, 10]
    shapes = []
    layer_norm = ad.layer_norm_fwd
    monkeypatch.setattr(ad, "layer_norm_fwd", lambda x, *a: shapes.append(x.shape) or
                        layer_norm(x, *a))
    y = np.random.default_rng(17).normal(size=16)
    ad.train_step(params, ad.adam_init(params), lambda: fc.loss_total(
        fc._predict_op(params, hyper, g, r_prev, mseries.m[10]), y,
        average_ranks(y), 0.1), 1e-3)
    assert shapes == [(16, 2, 32)] * 2
    fc.predict(params, hyper, g, r_prev, mseries.m[10])
    assert shapes[2:] == [(16, 1, 32)] * 2


@pytest.mark.skipif(not ad.HEAP_PINNED, reason="glibc's mallopt is not available")
def test_training_steps_reuse_the_heap_without_page_faults():
    # Without the pinned malloc thresholds, each step's freed working set went
    # back to the kernel and the next step faulted it in again: thousands of
    # minor faults per 100 steps at the demo's shapes.
    resource = pytest.importorskip("resource")
    feats, u, mseries, _, _ = _setup(seed=16, n_stocks=16, n_periods=40, n_features=6,
                                     window=10)
    hyper = fc.ForecasterHyper(window=10, width=32, blocks=1, heads=2)
    params = fc.init_params(6, hyper, stream(16, "fc", "init"))
    opt = ad.adam_init(params)
    inputs = augmented(feats, u)
    r = reprs(feats, mseries)
    y = np.random.default_rng(17).normal(size=(16, 40))
    z = average_ranks(y)

    def steps(n):
        for k in range(n):
            t = 11 + k % 29
            ad.train_step(params, opt, lambda: fc.loss_total(
                fc._predict_op(params, hyper, windows(inputs, t, 10), r[:, t - 1],
                               mseries.m[t - 1]), y[:, t], z[:, t], 0.1), 1e-3)

    steps(20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(100)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def _quick_train(seed, n_periods=80, **kw):
    rng = np.random.default_rng(seed)
    n_stocks, n_features, window = 5, 3, 3
    feats = rng.normal(size=(n_stocks, n_periods, n_features))
    signal = rng.normal(size=(n_stocks, n_periods))
    returns = np.empty((n_stocks, n_periods))
    returns[:, 0] = np.nan
    returns[:, 1:] = signal[:, :-1] + 0.3 * rng.normal(size=(n_stocks, n_periods - 1))
    u = signal
    mseries = MarketFactorSeries(m=rng.normal(size=(n_periods, 2 * n_features)),
                                 summary=rng.normal(size=(n_stocks, n_periods, n_features)),
                                 window=window)
    settings = dict(window=window, width=8, blocks=1, heads=2,
                    max_epochs=4, patience=3, seed=seed)
    settings.update(kw)
    hyper = fc.ForecasterHyper(**settings)
    params = fc.train_forecaster(feats, returns, u, mseries, hyper, train_end=60)
    periods = list(range(60, n_periods))
    y_hat = fc.predict_periods(params, hyper, feats, u, mseries, periods)
    return (params, fc.Prediction(periods, y_hat, returns[:, periods])), returns


def test_training_names_a_market_row_never_computed():
    # a series encoded only at the rows that frozen scoring reads leaves the
    # training periods' market rows NaN; training read them as a diverged loss
    rng = np.random.default_rng(23)
    feats = rng.normal(size=(5, 40, 3))
    market = mf.init_params(5, 3, mf.MarketFactorHyper(window=3))
    mseries = mf.market_series(feats, market, 3, rows=np.arange(29, 39))
    hyper = fc.ForecasterHyper(window=3, width=8, blocks=1, heads=2, max_epochs=1)
    with pytest.raises(fc.AlignmentError, match="period 3 reads market factor row 2"):
        fc.train_forecaster(feats, rng.normal(size=(5, 40)), rng.normal(size=(5, 40)),
                            mseries, hyper, train_end=30)


@pytest.mark.parametrize("caller, message", [
    ("train_forecaster", "period 3 reads market factor row 2, before the series' summaries "
                         "start at row 20"),
    ("predict_periods", "period 20 reads market factor row 19, before"),
], ids=["train_forecaster", "predict_periods"])
def test_a_summary_that_starts_late_names_the_period(caller, message):
    # row t - 1 - first of a row before `first` is negative: numpy would read
    # it from the summary's end
    rng = np.random.default_rng(29)
    feats = rng.normal(size=(5, 40, 3))
    u, returns = rng.normal(size=(5, 40)), rng.normal(size=(5, 40))
    mseries = mf.market_series(feats, mf.init_params(5, 3, mf.MarketFactorHyper(window=3)), 3,
                               first=20)
    hyper = fc.ForecasterHyper(window=3, width=8, blocks=1, heads=2, max_epochs=1)
    with pytest.raises(fc.AlignmentError, match=message):
        if caller == "train_forecaster":
            fc.train_forecaster(feats, returns, u, mseries, hyper, train_end=30)
        else:
            fc.predict_periods(fc.init_params(3, hyper), hyper, feats, u, mseries, [25, 20, 33])


def test_training_is_deterministic():
    (params_a, pred_a), _ = _quick_train(21)
    (params_b, pred_b), _ = _quick_train(21)
    assert np.array_equal(pred_a.y_hat, pred_b.y_hat)


def test_training_learns_planted_linear_signal():
    (params, pred), returns = _quick_train(22, max_epochs=12, lr=3e-3)
    from irrfactors.evaluation import rank_ic_series
    assert rank_ic_series(pred.y_hat, pred.y_true).mean() > 0.3


def test_predictions_ignore_future_data():
    (params, pred), _ = _quick_train(23)
    rng = np.random.default_rng(33)
    feats = rng.normal(size=(5, 80, 3))
    u = rng.normal(size=(5, 80))
    mseries = MarketFactorSeries(m=rng.normal(size=(80, 6)),
                                 summary=rng.normal(size=(5, 80, 3)), window=3)
    hyper = fc.ForecasterHyper(window=3, width=8, blocks=1, heads=2, seed=23)
    base = fc.predict_periods(params, hyper, feats, u, mseries, [70, 72, 75])
    feats2 = feats.copy()
    feats2[:, 75:, :] += 100.0             # perturb period 75 and later
    u2 = u.copy()
    u2[:, 75:] -= 50.0
    after = fc.predict_periods(params, hyper, feats2, u2, mseries, [70, 72, 75])
    np.testing.assert_array_equal(base, after)


def test_validation_tail_that_covers_every_period_is_named():
    with pytest.raises(fc.EmptyTrainingSlice, match="val_fraction 1.5"):
        _quick_train(24, val_fraction=1.5)

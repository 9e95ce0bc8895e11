import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad
from irrfactors import marketfactor as mf
from irrfactors.panel import FeatureScaler, TooEarly
from irrfactors.rng import stream
from conftest import sentiment_market_spec, linear_probe_accuracy, sync_labels
from irrfactors.synthetic import generate_synthetic


def _params(feats, seed=0):
    return mf.init_params(feats.shape[0], feats.shape[2], mf.MarketFactorHyper(),
                          stream(seed, "t", "init"))


@pytest.fixture
def feats(small_panel):
    return small_panel.features


@pytest.fixture
def labels(small_panel):
    return sync_labels(small_panel)


def test_window_of_one_duplicates_current_features(feats):
    params = _params(feats)
    r = mf.dynamic_stock_repr(feats, params, stock=1, t=5, window=1)
    e = feats[1, 5]
    np.testing.assert_allclose(r, np.concatenate([e, e]), atol=1e-12)


def test_identical_window_features_average_to_current(feats):
    feats = feats.copy()
    feats[2, 3:7, :] = feats[2, 6, :]          # constant window for stock 2
    params = _params(feats)
    r = mf.dynamic_stock_repr(feats, params, stock=2, t=6, window=4)
    np.testing.assert_allclose(r[feats.shape[2]:], feats[2, 6], atol=1e-12)


def test_orthonormal_window_attention_scores():
    # identity projection, zero bias, D_e = 4, orthonormal window vectors:
    # the raw scores are 0 off the final position and 1/2 at it
    feats = np.zeros((1, 3, 4))
    feats[0, 0] = [1, 0, 0, 0]
    feats[0, 1] = [0, 1, 0, 0]
    feats[0, 2] = [0, 0, 1, 0]
    params = _params(feats)
    params["w_s"].data[...] = np.eye(4)
    params["b_s"].data[...] = 0.0
    r = mf.dynamic_stock_repr(feats, params, stock=0, t=2, window=3)
    weights = np.exp([0.0, 0.0, 0.5])
    weights /= weights.sum()
    expected = weights[0] * feats[0, 0] + weights[1] * feats[0, 1] + weights[2] * feats[0, 2]
    np.testing.assert_allclose(r[4:], expected, atol=1e-12)


def test_window_underflow_raises(feats):
    with pytest.raises(TooEarly):
        mf.dynamic_stock_repr(feats, _params(feats), stock=0, t=2, window=5)


@pytest.mark.parametrize("offset", [0, 5])
def test_period_past_the_panel_end_raises(feats, offset):
    t = feats.shape[1] + offset
    with pytest.raises(TooEarly, match=f"{t - 4}..{t}"):
        mf.dynamic_stock_repr(feats, _params(feats), stock=0, t=t, window=5)


def test_contrastive_batch_past_the_panel_end_raises(feats):
    with pytest.raises(TooEarly):
        mf.infonce_loss(_params(feats), feats, [10, feats.shape[1]],
                        window=3, seed=0, epoch=0)


def test_stock_weight_relu_and_id_dependence(feats):
    params = _params(feats)
    r = np.zeros(2 * feats.shape[2])
    params["w_eta"].data[...] = 0.0
    assert mf.stock_weight(params, 0, r) == 0.0
    params["w_eta"].data[...] = 1.0
    params["w_id"].data[:, 0] = -3.0 / params["w_id"].shape[0]
    assert mf.stock_weight(params, 0, r) == 0.0        # negative preactivation
    params["w_id"].data[:, 1] = 1.0
    assert mf.stock_weight(params, 1, r) > mf.stock_weight(params, 0, r)


def test_market_repr_single_stock_equals_its_repr(feats):
    params = _params(feats)
    r = mf.dynamic_stock_repr(feats, params, stock=2, t=6, window=3)
    m = mf.market_repr(feats, params, [2], t=6, window=3)
    np.testing.assert_allclose(m, r, atol=1e-12)


def test_market_repr_uniform_weights_average(feats):
    params = _params(feats)
    params["w_eta"].data[...] = 0.0   # all eta 0 -> fallback
    subset = [0, 1, 3]
    m = mf.market_repr(feats, params, subset, t=6, window=3)
    rs = np.stack([mf.dynamic_stock_repr(feats, params, s, 6, 3) for s in subset])
    np.testing.assert_allclose(m, rs.mean(axis=0), atol=1e-12)


def test_market_repr_scale_invariance(feats):
    params = _params(feats, seed=4)
    subset = np.arange(feats.shape[0])
    base = mf.market_repr(feats, params, subset, t=7, window=4)
    params["w_eta"].data *= 2.0
    scaled = mf.market_repr(feats, params, subset, t=7, window=4)
    np.testing.assert_allclose(scaled, base, atol=1e-10)


def test_market_repr_is_convex_combination(feats):
    params = _params(feats, seed=5)
    subset = np.arange(feats.shape[0])
    m = mf.market_repr(feats, params, subset, t=7, window=4)
    rs = np.stack([mf.dynamic_stock_repr(feats, params, s, 7, 4) for s in subset])
    assert np.all(m >= rs.min(axis=0) - 1e-12)
    assert np.all(m <= rs.max(axis=0) + 1e-12)


def test_empty_subset_raises(feats):
    with pytest.raises(mf.EmptySubset):
        mf.market_repr(feats, _params(feats), [], t=6, window=3)


def test_submarket_split_properties():
    a1, a2 = mf.submarket_split(9, seed=3, epoch=0)
    assert len(a1) == 5 and len(a2) == 4
    assert not set(a1) & set(a2)
    assert sorted(np.concatenate([a1, a2]).tolist()) == list(range(9))
    b1, b2 = mf.submarket_split(9, seed=3, epoch=0)
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a2, b2)


def test_submarket_split_varies_over_epochs():
    seen = {tuple(mf.submarket_split(16, seed=1, epoch=e)[0]) for e in range(100)}
    assert len(seen) > 90      # 12870 possible halves, collisions are rare


def test_split_needs_two_stocks():
    with pytest.raises(mf.TooFewStocks):
        mf.submarket_split(1, seed=0, epoch=0)


def test_criterion_values(feats):
    params = _params(feats)
    params["w_crit"].data[...] = 0.0
    params["b_crit"].data[...] = 0.0
    m = np.ones(2 * feats.shape[2])
    assert mf.criterion(params, m, m, 3, 9) == pytest.approx(1.0)
    params["b_crit"].data[...] = 2.0
    assert mf.criterion(params, m, m, 5, 5) == pytest.approx(np.exp(2.0))
    assert mf.criterion(params, m, m, 1, 5) == pytest.approx(np.exp(2.0 / 5.0))


def test_infonce_uniform_logits_give_log_batch(feats):
    params = _params(feats)
    params["w_crit"].data[...] = 0.0
    params["b_crit"].data[...] = 0.0
    loss = mf.infonce_loss(params, feats, [4, 6, 8, 10], window=3, seed=0, epoch=0)
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_infonce_dominant_positive_drives_loss_to_zero(feats):
    params = _params(feats)
    params["w_crit"].data[...] = 0.0
    params["b_crit"].data[...] = 200.0     # positives get the full logit
    loss = mf.infonce_loss(params, feats, [4, 6, 8, 10], window=3, seed=0, epoch=0)
    assert loss.item() < 1e-6


def test_infonce_matches_naive_oracle(feats):
    params = _params(feats, seed=9)
    periods = np.array([4, 6, 7, 10])
    loss = mf.infonce_loss(params, feats, periods, window=3, seed=2, epoch=5)
    sub1, sub2 = mf.submarket_split(feats.shape[0], 2, 5)
    m1 = np.stack([mf.market_repr(feats, params, sub1, int(t), 3) for t in periods])
    m2 = np.stack([mf.market_repr(feats, params, sub2, int(t), 3) for t in periods])
    total = 0.0
    for a, ta in enumerate(periods):
        pos = mf.criterion(params, m1[a], m2[a], int(ta), int(ta))
        denom = pos + sum(mf.criterion(params, m1[a], m2[b], int(ta), int(tb))
                          for b, tb in enumerate(periods) if b != a)
        total += -np.log(pos / denom)
    assert loss.item() == pytest.approx(total / len(periods), abs=1e-10)


def test_infonce_needs_two_periods(feats):
    with pytest.raises(mf.NoNegatives):
        mf.infonce_loss(params=_params(feats), features=feats,
                        periods=[5], window=3, seed=0, epoch=0)


def test_synchronism_predict_distribution(feats):
    params = _params(feats)
    for name in ("cls_w1", "cls_b1", "cls_w2", "cls_b2"):
        params[name].data[...] = 0.0
    probs = mf.synchronism_predict(params, np.ones(2 * feats.shape[2]))
    np.testing.assert_allclose(probs, np.full(3, 1.0 / 3.0), atol=1e-12)
    params2 = _params(feats, seed=11)
    probs2 = mf.synchronism_predict(params2, np.ones(2 * feats.shape[2]) * 0.3)
    assert probs2.sum() == pytest.approx(1.0, abs=1e-12)


def test_cross_entropy_of_perfect_prediction_is_zero():
    logits = ad.constant(np.array([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]]))
    assert mf.cross_entropy(logits, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-10)


def test_loss_m_reduces_to_infonce_at_lambda_zero(feats, labels):
    params = _params(feats, seed=6)
    periods = [4, 6, 9]
    joint = mf.loss_M(params, feats, labels, periods, 0.0, 3, seed=1, epoch=2)
    contrastive = mf.infonce_loss(params, feats, periods, 3, seed=1, epoch=2)
    assert joint.item() == pytest.approx(contrastive.item(), rel=1e-12)


def test_loss_m_prediction_term_never_reads_the_labeled_period(feats, labels):
    params = _params(feats, seed=2)
    t = 7
    before = mf.loss_P(params, feats, labels, [t], 3).item()
    feats = feats.copy()
    feats[:, t, :] += 5.0                   # perturb the labeled period itself
    after = mf.loss_P(params, feats, labels, [t], 3).item()
    assert before == after


def test_loss_m_gradients_match_finite_differences(feats, labels):
    params = _params(feats, seed=3)
    err = ad.gradient_check(
        lambda _: mf.loss_M(params, feats, labels, np.array([4, 6, 9]), 1.0, 3,
                            seed=7, epoch=0),
        params)
    assert err <= 1e-4


def test_training_improves_loss_and_separates_pairs():
    panel = generate_synthetic(sentiment_market_spec(5))
    train_end = 300
    scaler = FeatureScaler.fit(panel.features, train_end)
    feats = scaler.transform(panel.features)
    labels = sync_labels(panel)
    hyper = mf.MarketFactorHyper(window=10, epochs=6, seed=5)
    eval_periods = np.arange(hyper.window, 60)

    init = mf.init_params(panel.n_stocks, panel.n_features, mf.MarketFactorHyper(),
                          stream(5, "market", "init"))
    before = mf.loss_M(init, feats, labels, eval_periods, 1.0, hyper.window,
                       seed=5, epoch=0).item()
    params = mf.train_market_factors(feats, labels, hyper, train_end)
    series = mf.market_series(feats, params, hyper.window)
    after = mf.loss_M(params, feats, labels, eval_periods, 1.0, hyper.window,
                      seed=5, epoch=0).item()
    assert after <= before

    held = np.arange(train_end, train_end + 60)
    pos, neg = mf.contrastive_separation(params, feats, held, hyper.window, 5)
    assert pos > neg

    # frozen m separates the synchrony classes linearly better than chance
    labels = np.array([int(l) for l in labels])
    tr = np.arange(hyper.window, train_end)
    te = np.arange(train_end, panel.n_periods)
    acc = linear_probe_accuracy(series.m[tr], labels[tr], series.m[te], labels[te])
    assert acc > 0.5


_T = 150


@settings(max_examples=40)
@given(window=st.integers(1, 12), rows=st.one_of(
    st.lists(st.integers(0, _T - 1), max_size=_T),
    st.integers(0, _T - 70).flatmap(lambda lo: st.permutations(range(lo, lo + 70)))))
def test_market_series_on_rows_matches_the_full_series(window, rows):
    # Unsorted rows, repeats, rows whose window does not fit and sets that
    # span more than one 64-period chunk.
    feats = np.random.default_rng(3).normal(size=(4, _T, 3))
    params = _params(feats)
    full = mf.market_series(feats, params, window)
    part = mf.market_series(feats, params, window, rows=rows)
    kept = sorted({t for t in rows if t >= window - 1})
    assert part.m[kept].tobytes() == full.m[kept].tobytes()
    assert part.r[:, kept].tobytes() == full.r[:, kept].tobytes()
    others = sorted(set(range(_T)) - set(kept))
    assert np.isnan(part.m[others]).all() and np.isnan(part.r[:, others]).all()

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad
from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.panel import (BadPrice, BadShape, FeatureScaler, NonFiniteFeature, PanelMismatch,
                              TooEarly, TooShort)
from irrfactors.rng import stream
from conftest import sentiment_market_spec, linear_probe_accuracy, sync_labels, train_record
import taped
from irrfactors.synthetic import generate_synthetic


def _params(feats, seed=0):
    return mf.init_params(feats.shape[0], feats.shape[2], mf.MarketFactorHyper(),
                          stream(seed, "t", "init"))


def _reprs(feats, params, t, window):
    """Stock representations at period t, (I, 2D_e)."""
    return mf._stock_reprs(feats, params.arrays(), np.array([t]), window)[0][0]


def _market(feats, params, subset, t, window):
    """Market representation over a stock subset at period t, (2D_e,)."""
    reprs, _ = mf._stock_reprs(feats, params.arrays(), np.array([t]), window)
    return mf._market_repr(reprs, params.arrays(), np.asarray(subset))[0][0]


def naive_criterion(params, m1, m2, t, t_other):
    """Pair criterion: exp of one dot product over [m1, m2], damped by the time gap."""
    joint = np.concatenate([m1, m2])
    logit = float(params["w_crit"].data @ joint + params["b_crit"].data)
    return float(np.exp(logit / (abs(t - t_other) + 1.0)))


@pytest.fixture
def feats(small_panel):
    return small_panel.features


@pytest.fixture
def labels(small_panel):
    return sync_labels(small_panel)


def test_window_of_one_duplicates_current_features(feats):
    params = _params(feats)
    r = _reprs(feats, params, 5, 1)[1]
    e = feats[1, 5]
    np.testing.assert_allclose(r, np.concatenate([e, e]), atol=1e-12)


def test_identical_window_features_average_to_current(feats):
    feats = feats.copy()
    feats[2, 3:7, :] = feats[2, 6, :]          # constant window for stock 2
    params = _params(feats)
    r = _reprs(feats, params, 6, 4)[2]
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
    r = _reprs(feats, params, 2, 3)[0]
    weights = np.exp([0.0, 0.0, 0.5])
    weights /= weights.sum()
    expected = weights[0] * feats[0, 0] + weights[1] * feats[0, 1] + weights[2] * feats[0, 2]
    np.testing.assert_allclose(r[4:], expected, atol=1e-12)


def test_window_underflow_raises(feats):
    with pytest.raises(TooEarly):
        _reprs(feats, _params(feats), 2, 5)


@pytest.mark.parametrize("offset", [0, 5])
def test_period_past_the_panel_end_raises(feats, offset):
    t = feats.shape[1] + offset
    with pytest.raises(TooEarly, match=f"{t - 4}..{t}"):
        _reprs(feats, _params(feats), t, 5)


def test_contrastive_batch_past_the_panel_end_raises(feats):
    with pytest.raises(TooEarly):
        mf.infonce_loss(_params(feats), feats, [10, feats.shape[1]],
                        window=3, seed=0, epoch=0)


def test_stock_weight_relu_and_id_dependence(feats):
    # Stock i weighs relu(w_eta . (w_id[:, i] + r_i)). The two representations
    # are orthogonal to an all-ones w_eta, so the ID embeddings set the weights.
    params = _params(feats)
    two_d = 2 * feats.shape[2]
    r = np.zeros((1, 2, two_d))
    r[0, 0, :2] = [1.0, -1.0]
    r[0, 1, 2:4] = [2.0, -2.0]
    both = np.arange(2)
    params["w_eta"].data[...] = 0.0           # every weight 0: the uniform fallback
    m = mf._market_repr(r, params.arrays(), both)[0][0]
    np.testing.assert_array_equal(m, r[0].mean(axis=0))
    params["w_eta"].data[...] = 1.0
    params["w_id"].data[:, 0] = -3.0 / two_d  # negative preactivation: weight 0
    params["w_id"].data[:, 1] = 1.0
    m = mf._market_repr(r, params.arrays(), both)[0][0]
    np.testing.assert_allclose(m, r[0, 1], rtol=0, atol=1e-15)   # stock 1 alone


def test_market_repr_single_stock_equals_its_repr(feats):
    params = _params(feats)
    r = _reprs(feats, params, 6, 3)[2]
    m = _market(feats, params, [2], 6, 3)
    np.testing.assert_allclose(m, r, atol=1e-12)


def test_market_repr_uniform_weights_average(feats):
    params = _params(feats)
    params["w_eta"].data[...] = 0.0   # all eta 0 -> fallback
    subset = [0, 1, 3]
    m = _market(feats, params, subset, 6, 3)
    rs = _reprs(feats, params, 6, 3)[subset]
    np.testing.assert_allclose(m, rs.mean(axis=0), atol=1e-12)


def test_market_repr_scale_invariance(feats):
    params = _params(feats, seed=4)
    subset = np.arange(feats.shape[0])
    base = _market(feats, params, subset, 7, 4)
    params["w_eta"].data *= 2.0
    scaled = _market(feats, params, subset, 7, 4)
    np.testing.assert_allclose(scaled, base, atol=1e-10)


def test_market_repr_is_convex_combination(feats):
    params = _params(feats, seed=5)
    subset = np.arange(feats.shape[0])
    m = _market(feats, params, subset, 7, 4)
    rs = _reprs(feats, params, 7, 4)[subset]
    assert np.all(m >= rs.min(axis=0) - 1e-12)
    assert np.all(m <= rs.max(axis=0) + 1e-12)


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

    def criterion(t, t_other):
        pair = np.stack([m, m])
        logits, _ = mf._pair_logits(params.arrays(), pair, pair, np.array([t, t_other]))
        value = float(np.exp(logits[0, 1]))
        assert value == pytest.approx(naive_criterion(params, m, m, t, t_other), rel=1e-12)
        return value

    assert criterion(3, 9) == pytest.approx(1.0)
    params["b_crit"].data[...] = 2.0
    assert criterion(5, 5) == pytest.approx(np.exp(2.0))
    assert criterion(1, 5) == pytest.approx(np.exp(2.0 / 5.0))


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
    m1 = np.stack([_market(feats, params, sub1, int(t), 3) for t in periods])
    m2 = np.stack([_market(feats, params, sub2, int(t), 3) for t in periods])
    total = 0.0
    for a, ta in enumerate(periods):
        pos = naive_criterion(params, m1[a], m2[a], int(ta), int(ta))
        denom = pos + sum(naive_criterion(params, m1[a], m2[b], int(ta), int(tb))
                          for b, tb in enumerate(periods) if b != a)
        total += -np.log(pos / denom)
    assert loss.item() == pytest.approx(total / len(periods), abs=1e-10)


_periods = st.lists(st.integers(3, 11), min_size=2, max_size=6)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**16), split_seed=st.integers(0, 50), periods=st.one_of(
    _periods, _periods.map(lambda p: p + p[:1])))
def test_contrastive_separation_matches_the_naive_pair_loop(seed, split_seed, periods):
    # A pair is positive by its place in the list, so a repeated period also
    # forms negatives with itself.
    feats = np.random.default_rng(seed).normal(size=(5, 12, 3))
    params = _params(feats, seed=seed)
    pos, neg = mf.contrastive_separation(params, feats, periods, 3, split_seed)
    sub1, sub2 = mf.submarket_split(5, split_seed, "eval")
    m1 = [_market(feats, params, sub1, t, 3) for t in periods]
    m2 = [_market(feats, params, sub2, t, 3) for t in periods]
    pairs = [(a == b, naive_criterion(params, m1[a], m2[b], ta, tb))
             for a, ta in enumerate(periods) for b, tb in enumerate(periods)]
    assert pos == pytest.approx(np.mean([v for same, v in pairs if same]), rel=1e-12)
    assert neg == pytest.approx(np.mean([v for same, v in pairs if not same]), rel=1e-12)
    # the values are those of the training logits, bit for bit
    values = np.exp(mf._submarket_logits(params.arrays(), feats, np.array(periods), 3,
                                         (sub1, sub2))[0])
    assert (pos, neg) == (values.diagonal().mean(),
                          values[~np.eye(len(periods), dtype=bool)].mean())


def test_infonce_needs_two_periods(feats):
    with pytest.raises(mf.NoNegatives):
        mf.infonce_loss(params=_params(feats), features=feats,
                        periods=[5], window=3, seed=0, epoch=0)


def test_synchronism_predict_distribution(feats):
    def probs(params):
        logits, _ = mf._sync_logits(params.arrays(), feats, np.array([7]), 3)
        return ad.softmax(logits)[0]

    params = _params(feats)
    for name in ("cls_w1", "cls_b1", "cls_w2", "cls_b2"):
        params[name].data[...] = 0.0
    np.testing.assert_allclose(probs(params), np.full(3, 1.0 / 3.0), atol=1e-12)
    assert probs(_params(feats, seed=11)).sum() == pytest.approx(1.0, abs=1e-12)


def test_cross_entropy_of_perfect_prediction_is_zero():
    logits = np.array([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
    assert mf.cross_entropy(logits, np.array([0, 1]))[0] == pytest.approx(0.0, abs=1e-10)


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
    err = taped.gradient_check(
        lambda _: mf.loss_M(params, feats, labels, np.array([4, 6, 9]), 1.0, 3,
                            seed=7, epoch=0),
        params)
    assert err <= 1e-4


class _Count(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = 0

    def emit(self, record):
        self.records += 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(2, 40), window=st.integers(1, 12),
       n_features=st.integers(1, 3), batch=st.integers(2, 6),
       lambda2=st.sampled_from([1.0, 0.0, 0.5]),
       weights=st.sampled_from(["init", "all fall back", "none fall back"]),
       term=st.sampled_from(["joint", "contrastive", "prediction"]))
# The demo's shapes: 16 stocks, 6 features, window 10 and a batch of 32
@example(seed=1, n_stocks=16, window=10, n_features=6, batch=32, lambda2=1.0, weights="init",
         term="joint")
@example(seed=2, n_stocks=16, window=10, n_features=6, batch=32, lambda2=1.0,
         weights="all fall back", term="joint")
def test_fused_loss_is_bitwise_the_taped_chain(seed, n_stocks, window, n_features, batch,
                                               lambda2, weights, term):
    # the loss and every gradient, and for the joint loss the parameters
    # after each of 3 Adam steps; w_eta = 0 sends every period to the
    # uniform fallback (and its zero gradient keeps it there), a large
    # shift of the ID embeddings along w_eta sends none
    rng = np.random.default_rng(seed)
    n_periods = window + batch + 1
    feats = rng.normal(size=(n_stocks, n_periods, n_features))
    labels = rng.integers(0, 3, size=n_periods)
    periods = rng.permutation(np.arange(window, n_periods))[:batch]

    def record(module):
        params = _params(feats, seed)
        if weights == "all fall back":
            params["w_eta"].data[...] = 0.0
        elif weights == "none fall back":
            w_eta = params["w_eta"].data
            params["w_id"].data += (50.0 * w_eta / np.dot(w_eta, w_eta))[:, None]
        loss = {"joint": lambda: module.loss_M(params, feats, labels, periods, lambda2, window,
                                               seed, 0),
                "contrastive": lambda: module.infonce_loss(params, feats, periods, window,
                                                           seed, 0),
                "prediction": lambda: module.loss_P(params, feats, labels, periods, window)}
        return train_record(params, loss[term], 3 if term == "joint" else 1, 0.01)

    logger, count = logging.getLogger(mf.__name__), _Count()
    level = logger.level
    logger.addHandler(count)
    logger.setLevel(logging.DEBUG)
    try:
        fused = record(mf)
    finally:
        logger.removeHandler(count)
        logger.setLevel(level)
    if weights != "init":
        assert (count.records > 0) == (weights == "all fall back")
    assert fused == record(taped)


def test_training_is_bitwise_the_taped_chain(feats, labels):
    # the trainer draws each epoch's halves once, where the chain drew them per step
    hyper = mf.MarketFactorHyper(window=3, epochs=2, batch=3, seed=4)
    trained = mf.train_market_factors(feats, labels, hyper, train_end=12)
    params = mf.init_params(feats.shape[0], feats.shape[2], hyper)
    opt = ad.adam_init(params)
    for epoch in range(hyper.epochs):
        order = stream(hyper.seed, "market", "order", epoch).permutation(np.arange(3, 12))
        for start in range(0, len(order), hyper.batch):
            batch = order[start:start + hyper.batch]
            if batch.size < 2:
                continue
            ad.train_step(params, opt, lambda: taped.loss_M(
                params, feats, labels, batch, hyper.lambda2, hyper.window, hyper.seed, epoch),
                hyper.lr)
            for p in (params["cls_w1"], params["cls_w2"]):
                p.data -= hyper.lr * mf.CLS_WEIGHT_DECAY * p.data
    assert trained.flat.tobytes() == params.flat.tobytes()


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
@given(n_stocks=st.sampled_from([16, 100, 130]), window=st.integers(1, 12), rows=st.one_of(
    st.lists(st.integers(0, _T - 1), max_size=_T),
    st.integers(0, _T - 70).flatmap(lambda lo: st.permutations(range(lo, lo + 70)))))
def test_market_series_on_rows_matches_the_full_series(n_stocks, window, rows):
    # Unsorted rows, repeats, rows whose window does not fit and sets that
    # span more than one chunk: 64 periods at 16 stocks, 10 at 100, 7 at 130.
    # The summaries start at the first row encoded; the fallback flags are
    # the full series' on the rows encoded and False elsewhere.
    feats = np.random.default_rng(3).normal(size=(n_stocks, _T, 3))
    params = _params(feats)
    full = mf.market_series(feats, params, window)
    part = mf.market_series(feats, params, window, rows=rows)
    kept = sorted({t for t in rows if t >= window - 1})
    first = kept[0] if kept else _T
    assert part.first == first and part.summary.shape == (n_stocks, _T - first, 3)
    assert part.m[kept].tobytes() == full.m[kept].tobytes()
    at = np.array(kept, dtype=np.int64) - first
    assert part.summary[:, at].tobytes() == full.summary[:, kept].tobytes()
    assert part.fallback[kept].tolist() == full.fallback[kept].tolist()
    others = sorted(set(range(_T)) - set(kept))
    skipped = [t - first for t in others if t >= first]
    assert np.isnan(part.m[others]).all() and np.isnan(part.summary[:, skipped]).all()
    assert not part.fallback[others].any()


@pytest.mark.parametrize("n_stocks, chunk", [(16, 64), (100, 10), (130, 7)])
def test_market_series_encodes_at_most_its_window_budget_per_call(monkeypatch, n_stocks,
                                                                  chunk):
    feats = np.random.default_rng(4).normal(size=(n_stocks, _T, 3))
    params = _params(feats)
    sizes = []
    encode = mf._stock_reprs

    def spy(features, p, periods, window, keep=False):
        sizes.append(len(periods))
        return encode(features, p, periods, window, keep)

    monkeypatch.setattr(mf, "_stock_reprs", spy)
    mf.market_series(feats, params, 5)
    assert sum(sizes) == _T - 4
    assert sizes[:-1] == [chunk] * (len(sizes) - 1) and sizes[-1] <= chunk
    assert chunk * n_stocks <= mf.CHUNK_WINDOWS


def test_market_series_stores_the_summary_half_of_r_only():
    # r's first half is the features themselves, so the series holds no
    # (I, T, 2D_e) array
    feats = np.random.default_rng(5).normal(size=(5, 30, 3))
    params = _params(feats)
    series = mf.market_series(feats, params, 4)
    assert series.m.shape == (30, 6) and series.summary.shape == (5, 30, 3)
    assert (5, 30, 6) not in [np.shape(value) for value in vars(series).values()]
    assert series.summary[:, 12].tobytes() == _reprs(feats, params, 12, 4)[:, 3:].tobytes()


@settings(max_examples=30)
@given(n_stocks=st.sampled_from([1, 16, 100]), window=st.integers(1, 12),
       restricted=st.booleans(), data=st.data())
def test_forecaster_inputs_rebuild_the_stock_representations(n_stocks, window, restricted,
                                                             data):
    # r_{t-1} of the forecaster's inputs, joined from the features and the
    # stored summaries, keeps every bit of the encoder's r_{t-1}
    n_periods = 40
    periods = np.array(data.draw(st.lists(st.integers(window, n_periods), min_size=1,
                                          max_size=12)))
    feats = np.random.default_rng(6).normal(size=(n_stocks, n_periods, 3))
    params = _params(feats)
    series = mf.market_series(feats, params, window, rows=periods - 1 if restricted else None)
    hyper = fc.ForecasterHyper(window=window, width=8, blocks=1, heads=2)
    _, r_prev, _ = fc._inputs(feats, np.zeros(feats.shape[:2]), series, periods, hyper)
    expected, _ = mf._stock_reprs(feats, params.arrays(), periods - 1, window)
    assert r_prev.shape == expected.shape and r_prev.tobytes() == expected.tobytes()


def _panel_arrays(n_stocks, n_periods, n_features, bad=None):
    """Random features, with the value bad[1] at the (stock, period, feature) bad[0]."""
    x = np.random.default_rng(8).normal(size=(n_stocks, n_periods, n_features))
    if bad is not None:
        x[bad[0]] = bad[1]
    return x


_MARKET_SIX = mf.init_params(6, 3, mf.MarketFactorHyper(window=5))


def _prices(bad):
    """4 x 80 positive prices, with the value bad[1] + 50 at the (stock, period, 0) bad[0]."""
    return 50.0 + _panel_arrays(4, 80, 1, bad)[..., 0]


def _train_forecaster_on(returns):
    """train_forecaster on 6 x 80 random features at train_end 60; periods 5..51
    train it and 52..59 validate it."""
    feats = _panel_arrays(6, 80, 3)
    hyper = fc.ForecasterHyper(window=5, width=8, blocks=1, heads=2, max_epochs=1)
    return fc.train_forecaster(feats, returns, np.zeros((6, 80)),
                               mf.market_series(feats, _MARKET_SIX, 5), hyper, 60)


@pytest.mark.parametrize("probe, error, message", [
    (lambda: mf.market_series(_panel_arrays(4, 80, 3), _MARKET_SIX, 5), PanelMismatch,
     "features have 4 stocks; the market parameters w_id hold 6"),
    (lambda: mf.market_series(_panel_arrays(8, 80, 3), _MARKET_SIX, 5), PanelMismatch,
     "features have 8 stocks; the market parameters w_id hold 6"),
    (lambda: mf.market_series(_panel_arrays(6, 80, 2), _MARKET_SIX, 5), PanelMismatch,
     "features have 2 features; the market parameters w_s hold 3"),
    (lambda: mf.market_series(_panel_arrays(6, 80, 3), _MARKET_SIX, 100), TooShort,
     "features have 80 periods, fewer than the window of 100"),
    (lambda: sf.residual(50.0 + _panel_arrays(4, 80, 1)[..., 0], sf.init_params(6)),
     PanelMismatch, "prices have 4 stocks; the stock parameters beta hold 6"),
    (lambda: mf.market_series(_panel_arrays(6, 80, 3)[..., 0], _MARKET_SIX, 5), BadShape,
     r"features \(6, 80\) are not \(stocks, periods, features\)"),
    (lambda: mf.market_series(_panel_arrays(6, 80, 3, ((2, 7, 1), np.nan)), _MARKET_SIX, 5),
     NonFiniteFeature, "features: feature 1 of stock 2 on period 7 is nan"),
    (lambda: mf.market_series(_panel_arrays(6, 80, 3, ((5, 0, 2), -np.inf)), _MARKET_SIX, 5),
     NonFiniteFeature, "features: feature 2 of stock 5 on period 0 is -inf"),
    (lambda: sf.residual(_prices(((1, 17, 0), np.nan)), sf.init_params(4)), BadPrice,
     "prices: stock 1 at period 17 is nan, not a finite positive price"),
    (lambda: sf.residual(_prices(((3, 0, 0), -60.0)), sf.init_params(4)), BadPrice,
     "prices: stock 3 at period 0 is -10.0"),
    (lambda: sf.residual(_prices(((0, 79, 0), np.inf)), sf.init_params(4)), BadPrice,
     "prices: stock 0 at period 79 is inf"),
], ids=["fewer-stocks", "more-stocks", "fewer-features", "window-past-panel",
        "residual-fewer-stocks", "features-2d", "nan-feature", "infinite-feature",
        "residual-nan-price", "residual-negative-price", "residual-infinite-price"])
def test_frozen_factor_passes_name_a_panel_that_does_not_fit(probe, error, message):
    # each returned a silent result or failed deep inside numpy; a NaN price
    # gave a NaN u for every stock at its period
    with pytest.raises(error, match=message):
        probe()


@pytest.mark.parametrize("probe, error, message", [
    (lambda: sf.train_stock_factors(50.0 + _panel_arrays(4, 80, 1)[..., 0],
                                    sf.StockFactorHyper(steps=1), 500),
     TooShort, "train_end 500 is not within the panel's 80 periods"),
    (lambda: sf.train_stock_factors(50.0 + _panel_arrays(4, 80, 1)[..., 0],
                                    sf.StockFactorHyper(steps=1), -5),
     TooShort, "train_end -5 is not within the panel's 80 periods"),
    (lambda: sf.train_stock_factors(50.0 + np.arange(80.0), sf.StockFactorHyper(steps=1), 60),
     BadShape, r"prices \(80,\) are not \(stocks, periods\)"),
    (lambda: mf.train_market_factors(_panel_arrays(6, 80, 3), [0] * 40,
                                     mf.MarketFactorHyper(window=5, epochs=1), 60),
     BadShape, "40 labels for 80 periods"),
    (lambda: mf.train_market_factors(_panel_arrays(6, 80, 3), [0] * 80,
                                     mf.MarketFactorHyper(window=5, epochs=1), 500),
     TooShort, "train_end 500 is not within the panel's 80 periods"),
    (lambda: mf.train_market_factors(_panel_arrays(6, 80, 3)[0], [0] * 80,
                                     mf.MarketFactorHyper(window=5, epochs=1), 60),
     BadShape, r"features \(80, 3\) are not \(stocks, periods, features\)"),
    (lambda: mf.train_market_factors(_panel_arrays(6, 80, 3, ((3, 40, 0), np.inf)), [0] * 80,
                                     mf.MarketFactorHyper(window=5, epochs=1), 60),
     NonFiniteFeature, "features: feature 0 of stock 3 on period 40 is inf"),
    (lambda: sf.train_stock_factors(_prices(((1, 17, 0), np.nan)),
                                    sf.StockFactorHyper(steps=1), 60),
     BadPrice, "prices: stock 1 at period 17 is nan, not a finite positive price"),
    (lambda: sf.train_stock_factors(_prices(((2, 40, 0), -60.0)),
                                    sf.StockFactorHyper(steps=1), 60),
     BadPrice, "prices: stock 2 at period 40 is -10.0"),
    (lambda: sf.train_stock_factors(_prices(((3, 59, 0), np.inf)),
                                    sf.StockFactorHyper(steps=1), 60),
     BadPrice, "prices: stock 3 at period 59 is inf"),
    (lambda: _train_forecaster_on(_panel_arrays(6, 80, 1, ((2, 30, 0), np.nan))[..., 0]),
     NonFiniteFeature, "returns: return of stock 2 on period 30 is nan"),
    (lambda: _train_forecaster_on(_panel_arrays(6, 80, 1, ((4, 55, 0), -np.inf))[..., 0]),
     NonFiniteFeature, "returns: return of stock 4 on period 55 is -inf"),
], ids=["stock-train-end-past-panel", "stock-train-end-negative", "stock-prices-1d",
        "market-fewer-labels", "market-train-end-past-panel", "market-features-2d",
        "market-infinite-feature", "stock-nan-price", "stock-negative-price",
        "stock-infinite-price", "forecaster-nan-return", "forecaster-infinite-return"])
def test_trainers_name_an_input_that_does_not_fit(probe, error, message):
    # the stock train_end cases trained silently, on the whole panel or on a slice
    # counted from its end; the market train_end raised TooEarly for a shuffled
    # window; an infinite feature, a NaN or infinite price and a NaN return
    # gave "loss diverged (nan)"; a negative price and an infinite validation
    # return trained silently; the others failed with an IndexError or
    # unpacking a shape
    with pytest.raises(error, match=message):
        probe()

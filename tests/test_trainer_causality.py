"""Each factor trainer reads only the periods before train_end.

Perturbing everything from train_end on must leave the trained parameters
bit-identical. Criterion 8 checks the frozen pipeline; these properties
check the two factor trainers themselves, on small random markets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(2, 5), n_periods=st.integers(4, 30),
       cut=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3))
def test_stock_trainer_ignores_prices_from_train_end_on(seed, n_stocks, n_periods, cut, scale):
    rng = np.random.default_rng(seed)
    train_end = 2 + int(cut * (n_periods - 3))          # 2 .. n_periods - 1
    prices = 50.0 + rng.random((n_stocks, n_periods)).cumsum(axis=1)
    perturbed = prices.copy()
    perturbed[:, train_end:] *= 1.0 + scale * rng.random((n_stocks, n_periods - train_end))
    hyper = sf.StockFactorHyper(steps=5)
    before = sf.train_stock_factors(prices, hyper, train_end)
    after = sf.train_stock_factors(perturbed, hyper, train_end)
    assert before.flat.tobytes() == after.flat.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(2, 5), window=st.integers(1, 3),
       n_train=st.integers(2, 8), n_test=st.integers(1, 6), batch=st.integers(2, 4),
       scale=st.floats(1e-3, 1e3))
def test_market_trainer_ignores_features_and_labels_from_train_end_on(
        seed, n_stocks, window, n_train, n_test, batch, scale):
    rng = np.random.default_rng(seed)
    train_end = window + n_train
    n_periods = train_end + n_test
    feats = rng.normal(size=(n_stocks, n_periods, 3))
    labels = rng.integers(0, 3, n_periods)
    feats_p, labels_p = feats.copy(), labels.copy()
    feats_p[:, train_end:] += scale * rng.normal(size=(n_stocks, n_test, 3))
    labels_p[train_end:] = (labels[train_end:] + rng.integers(1, 3, n_test)) % 3
    hyper = mf.MarketFactorHyper(window=window, epochs=2, batch=batch, seed=seed)
    before = mf.train_market_factors(feats, labels, hyper, train_end)
    after = mf.train_market_factors(feats_p, labels_p, hyper, train_end)
    assert before.flat.tobytes() == after.flat.tobytes()

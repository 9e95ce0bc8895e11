from datetime import date, timedelta

import numpy as np
import pytest

from irrfactors.panel import SynchronismConfig, compute_deltas, compute_synchronism_labels
from irrfactors.synthetic import (BadSpec, CointegrationPlant, SentimentPlant,
                                  SyntheticSpec, _business_days, generate_synthetic)


def _ols_ar1(series):
    """Independent least-squares AR(1) fit used as the oracle."""
    u = np.asarray(series, dtype=float)
    return float(np.dot(u[1:], u[:-1]) / np.dot(u[:-1], u[:-1]))


def test_planted_residual_is_mean_reverting(planted_panel):
    residual = planted_panel.prices[0] - 0.7 * planted_panel.prices[1]
    assert abs(_ols_ar1(residual)) < 0.9
    assert _ols_ar1(planted_panel.prices[0]) > 0.95


def test_no_events_means_no_synchronism_labels():
    spec = SyntheticSpec(n_stocks=10, n_periods=300,
                         sentiment=SentimentPlant(prob=0.0), seed=4)
    panel = generate_synthetic(spec)
    cfg = SynchronismConfig()
    labels = compute_synchronism_labels(compute_deltas(panel.returns, cfg), cfg)
    h_m = cfg.market_threshold(panel.n_stocks)
    sums = compute_deltas(panel.returns, cfg).sum(axis=0)
    assert np.abs(sums).max() <= h_m
    assert all(int(l) == 2 for l in labels)


def test_same_seed_is_bit_identical():
    spec = SyntheticSpec(n_stocks=5, n_periods=50, seed=9)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.prices, b.prices)
    assert a.periods == b.periods


def test_different_seeds_differ():
    a = generate_synthetic(SyntheticSpec(n_stocks=5, n_periods=50, seed=1))
    b = generate_synthetic(SyntheticSpec(n_stocks=5, n_periods=50, seed=2))
    assert not np.array_equal(a.prices, b.prices)


def test_unstable_plant_rejected():
    with pytest.raises(BadSpec):
        CointegrationPlant(target=0, sources=(1,), betas=(0.5,), noise_rho=1.0)


def test_bad_probability_rejected():
    with pytest.raises(BadSpec):
        SentimentPlant(prob=1.5)


def test_residual_window_means_more_stable_than_price():
    # the planted residual is stationary, the price is not: window means of
    # the residual vary less than window means of the price itself
    for seed in range(3):
        spec = SyntheticSpec(
            n_stocks=6, n_periods=500,
            plants=[CointegrationPlant(target=0, sources=(1,), betas=(0.7,),
                                       noise_rho=0.5, noise_scale=1.5)],
            sentiment=SentimentPlant(prob=0.0), seed=seed)
        panel = generate_synthetic(spec)
        residual = panel.prices[0] - 0.7 * panel.prices[1]
        window_means = lambda x: np.array([x[k:k + 100].mean() for k in range(0, 400, 100)])
        assert window_means(residual).var() < window_means(panel.prices[0]).var()


def test_event_days_move_the_market_together():
    spec = SyntheticSpec(
        n_stocks=12, n_periods=300, event_sensitivity_spread=0.0,
        sentiment=SentimentPlant(prob=0.5, magnitude=3.0), seed=3)
    panel = generate_synthetic(spec)
    cfg = SynchronismConfig()
    labels = compute_synchronism_labels(compute_deltas(panel.returns, cfg), cfg)
    counts = np.bincount([int(l) for l in labels], minlength=3)
    assert counts[0] > 20 and counts[1] > 20   # both directions appear
    assert counts[2] > 20                      # and plenty of calm days remain


def test_volume_precursor_carries_direction():
    spec = SyntheticSpec(
        n_stocks=16, n_periods=400,
        sentiment=SentimentPlant(prob=0.5, magnitude=3.0, precursor=1.0,
                                 precursor_noise=0.5),
        seed=6)
    panel = generate_synthetic(spec)
    cfg = SynchronismConfig()
    labels = np.array([int(l) for l in compute_synchronism_labels(
        compute_deltas(panel.returns, cfg), cfg)])
    log_vol = np.log(panel.features[:, :, 5]).mean(axis=0)
    ups = log_vol[np.where(labels == 0)[0] - 1].mean()
    downs = log_vol[np.where(labels == 1)[0] - 1].mean()
    assert ups > downs + 0.1


def test_business_days_match_the_weekday_loop():
    def loop(start, n):          # the generator's period labels before numpy made them
        day, out = date.fromisoformat(start), []
        while len(out) < n:
            if day.weekday() < 5:
                out.append(day.isoformat())
            day += timedelta(days=1)
        return out

    for start in ("2020-01-01", "2020-01-04", "2020-01-05", "2021-12-31", "2024-02-28"):
        for n in (0, 1, 5, 460, 2000):
            assert _business_days(start, n) == loop(start, n)

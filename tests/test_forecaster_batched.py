"""Batched frozen prediction against per-period references, and the fused
forecaster's training and frozen scoring against the chain of tape
primitives in taped.py, bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad
from irrfactors import forecaster as fc
from irrfactors.evaluation import average_ranks
from irrfactors.marketfactor import MarketFactorSeries
from irrfactors.panel import TooEarly, windows
from irrfactors.rng import stream

import taped
from conftest import augmented, reprs


def _model(seed, n_stocks, n_periods, n_features, window, width, heads, blocks,
           ablation="none"):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_stocks, n_periods, n_features))
    u = rng.normal(size=(n_stocks, n_periods))
    mseries = MarketFactorSeries(
        m=rng.normal(size=(n_periods, 2 * n_features)),
        summary=rng.normal(size=(n_stocks, n_periods, n_features)),
        window=window)
    hyper = fc.ForecasterHyper(window=window, width=width, blocks=blocks, heads=heads,
                               seed=seed, ablation=ablation)
    params = fc.init_params(n_features, hyper, stream(seed, "fc", "init"))
    return feats, u, mseries, hyper, params


widths_and_heads = st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (12, 3)])
ablations = st.sampled_from(fc.ABLATIONS)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.one_of(st.integers(1, 40),
                                                      st.integers(120, 140)),
       window=st.integers(1, 6), width_heads=widths_and_heads,
       blocks=st.sampled_from([1, 2]), ablation=ablations, extra=st.integers(1, 20),
       data=st.data())
def test_predict_periods_matches_per_period_predict(seed, n_stocks, window, width_heads,
                                                    blocks, ablation, extra, data):
    # enough periods that P * I crosses the chunk boundary at least once
    per_chunk = max(1, fc.CHUNK_WINDOWS // n_stocks)
    n_periods = window + per_chunk + extra
    width, heads = width_heads
    feats, u, mseries, hyper, params = _model(seed, n_stocks, n_periods, 2, window,
                                              width, heads, blocks, ablation)
    periods = data.draw(st.permutations(range(window, n_periods + 1)))

    batched = fc.predict_periods(params, hyper, feats, u, mseries, periods)

    inputs = augmented(feats, u, ablation != "NS")
    r = reprs(feats, mseries)
    single = np.stack([fc.predict(params, hyper, windows(inputs, t, window),
                                  r[:, t - 1], mseries.m[t - 1])
                       for t in periods], axis=1)
    np.testing.assert_array_equal(batched, single)

    def forecasts(predict_op):
        return np.stack([predict_op(params, hyper, windows(inputs, t, window),
                                    r[:, t - 1], mseries.m[t - 1]).data
                         for t in periods], axis=1)

    full = forecasts(taped.predict)
    with ad.Tape():
        fused = forecasts(fc._predict_op)
    np.testing.assert_array_equal(fused, full)
    # frozen scoring's one-row query projection goes to gemv, which rounds differently
    np.testing.assert_allclose(batched, full, rtol=1e-12,
                               atol=1e-12 * np.abs(full).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(1, 40), window=st.integers(1, 40),
       width_heads=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (4, 4), (32, 2), (64, 4)]),
       blocks=st.sampled_from([1, 2]), ablation=ablations,
       lambda3=st.sampled_from([0.1, 0.0]), flat_target=st.booleans())
# The demo's shapes, the ForecasterHyper defaults, the largest windows that
# prune the final block at those widths (its two-row products nearest
# OpenBLAS's small-matrix switch), and two shapes where pruning would change
# the bits (see forecaster._prunes_exactly): past that switch, and two
# dimensions per head.
@example(seed=1, n_stocks=16, window=10, width_heads=(32, 2), blocks=1, ablation="none",
         lambda3=0.1, flat_target=False)
@example(seed=1, n_stocks=16, window=20, width_heads=(64, 4), blocks=2, ablation="none",
         lambda3=0.1, flat_target=False)
@example(seed=1, n_stocks=16, window=18, width_heads=(32, 2), blocks=1, ablation="none",
         lambda3=0.1, flat_target=False)
@example(seed=1, n_stocks=16, window=9, width_heads=(64, 4), blocks=2, ablation="none",
         lambda3=0.1, flat_target=False)
@example(seed=2, n_stocks=16, window=19, width_heads=(32, 2), blocks=1, ablation="NS",
         lambda3=0.1, flat_target=False)
@example(seed=2, n_stocks=5, window=20, width_heads=(4, 2), blocks=1, ablation="none",
         lambda3=0.1, flat_target=False)
def test_fused_training_is_bitwise_the_taped_chain(seed, n_stocks, window, width_heads,
                                                   blocks, ablation, lambda3, flat_target):
    # loss, every gradient and the parameters, step by step over 3 Adam
    # steps; a flat target has z.std() == 0, which drops the IC term
    width, heads = width_heads
    steps = 3
    if ablation == "NR":
        lambda3 = 0.0

    def train(predict_op, loss_op):
        feats, u, mseries, hyper, params = _model(seed, n_stocks, window + steps + 1, 2,
                                                  window, width, heads, blocks, ablation)
        inputs = augmented(feats, u, ablation != "NS")
        r = reprs(feats, mseries)
        y = np.random.default_rng(seed).normal(size=(n_stocks, window + steps + 1))
        if flat_target:
            y[...] = 0.5
        opt = ad.adam_init(params)
        record = []

        def loss(t):
            y_hat = predict_op(params, hyper, windows(inputs, t, window),
                               r[:, t - 1], mseries.m[t - 1])
            value = loss_op(y_hat, y[:, t], average_ranks(y[:, t]), lambda3)
            record.append(value.data.tobytes())
            return value

        for t in range(window + 1, window + steps + 1):
            ad.train_step(params, opt, lambda: loss(t), 0.01)
            record += [p.grad.tobytes() for p in params]
            record.append(params.flat.tobytes())   # tobytes tells -0.0 from 0.0
        return record

    assert train(fc._predict_op, fc.loss_total) == train(taped.predict, taped.loss_total)


@pytest.mark.parametrize("window, width, heads, prunes", [
    (10, 32, 2, True), (18, 32, 2, True), (19, 32, 2, False), (20, 64, 4, False),
    (9, 64, 4, True), (16, 4, 2, False), (10, 4, 4, False)])
def test_the_demo_shapes_train_a_pruned_final_block(window, width, heads, prunes):
    # the demo's shapes come first; the bits at each shape are checked above
    assert fc._prunes_exactly(window, width, heads) is prunes


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(1, 40), window=st.integers(1, 12),
       width_heads=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4)]),
       blocks=st.sampled_from([1, 2]), ablation=ablations, n_periods=st.integers(1, 4))
def test_fused_frozen_predict_is_bitwise_the_taped_frozen_form(seed, n_stocks, window,
                                                                width_heads, blocks,
                                                                ablation, n_periods):
    width, heads = width_heads
    feats, u, mseries, hyper, params = _model(seed, n_stocks, window + n_periods, 2, window,
                                              width, heads, blocks, ablation)
    periods = np.arange(window, window + n_periods)
    g = windows(augmented(feats, u, ablation != "NS"), periods, window)
    r_prev = np.swapaxes(reprs(feats, mseries)[:, periods - 1], 0, 1)
    fused = fc.predict(params, hyper, g, r_prev, mseries.m[periods - 1])
    chain = taped.predict(params, hyper, g, r_prev, mseries.m[periods - 1], frozen=True).data
    assert fused.shape == (n_periods, n_stocks)
    assert fused.tobytes() == chain.tobytes()


def test_frozen_predict_records_no_node_under_a_tape():
    # frozen scoring is never differentiated, so it keeps no VJP even when a
    # tape is active
    feats, u, mseries, hyper, params = _model(0, 4, 12, 2, 3, 8, 2, 1)
    g = windows(augmented(feats, u), 10, 3)
    with ad.Tape() as tape:
        y_hat = fc.predict(params, hyper, g, reprs(feats, mseries)[:, 9], mseries.m[9])
    assert isinstance(y_hat, np.ndarray) and y_hat.shape == (4,)
    assert tape._nodes == []


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), n_stocks=st.integers(2, 5), window=st.integers(1, 4),
       width_heads=st.sampled_from([(4, 1), (4, 2)]), ablation=ablations)
def test_two_block_gradients_match_finite_differences(seed, n_stocks, window,
                                                      width_heads, ablation):
    width, heads = width_heads
    feats, u, mseries, hyper, params = _model(seed, n_stocks, window + 2, 2, window,
                                              width, heads, 2, ablation)
    t = window + 1
    g = windows(augmented(feats, u, ablation != "NS"), t, window)
    r_prev = reprs(feats, mseries)[:, t - 1]
    y = np.random.default_rng(seed).normal(size=n_stocks)
    z = average_ranks(y)

    def f(_):
        y_hat = fc._predict_op(params, hyper, g, r_prev, mseries.m[t - 1])
        return fc.loss_total(y_hat, y, z, 0.1)

    assert taped.gradient_check(f, params) <= 1e-4


def test_predict_periods_names_a_market_row_never_computed(monkeypatch):
    feats, u, mseries, hyper, params = _model(0, 4, 30, 2, 3, 8, 2, 1)
    mseries.m[20] = np.nan
    calls = []
    monkeypatch.setattr(fc, "predict", lambda *args: calls.append(args))
    with pytest.raises(fc.AlignmentError, match="period 21 reads market factor row 20"):
        fc.predict_periods(params, hyper, feats, u, mseries, [10, 25, 21, 22])
    assert calls == []


def test_build_inputs_stacks_period_windows():
    feats, u, mseries, hyper, _ = _model(0, 4, 12, 3, 3, 8, 2, 1)
    periods = np.array([7, 3, 12])
    inputs = augmented(feats, u)
    stacked = windows(inputs, periods, 3)
    g, r_prev, m_prev = fc._inputs(feats, u, mseries, periods, hyper)
    assert stacked.shape == g.shape == (3, 4, 3, 4)
    for k, t in enumerate(periods):
        np.testing.assert_array_equal(stacked[k], windows(inputs, int(t), 3))
        np.testing.assert_array_equal(g[k], stacked[k])
        np.testing.assert_array_equal(r_prev[k], reprs(feats, mseries)[:, t - 1])
        np.testing.assert_array_equal(m_prev[k], mseries.m[t - 1])


def test_build_inputs_rejects_a_period_without_history(monkeypatch):
    feats, u, mseries, hyper, params = _model(0, 4, 12, 3, 3, 8, 2, 1)
    with pytest.raises(ValueError, match="period 2"):
        windows(augmented(feats, u), np.array([5, 2, 13]), 3)
    # frozen scoring checks every window before it reads a market row
    mseries.m[:] = np.nan
    monkeypatch.setattr(fc, "predict", lambda *args: pytest.fail("predict was called"))
    with pytest.raises(TooEarly, match="period 2"):
        fc.predict_periods(params, hyper, feats, u, mseries, [5, 2, 13])


_SCRIPT_PRELUDE = """
import hashlib, os, sys
import numpy as np
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from irrfactors import forecaster as fc

def digest(array):
    print(hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest())
"""

_FROZEN_SCRIPT = _SCRIPT_PRELUDE + """
from irrfactors.marketfactor import MarketFactorSeries
from irrfactors.panel import windows
from irrfactors.rng import stream
rng = np.random.default_rng(5)
I, T, F = 100, 60, 5
feats = rng.normal(size=(I, T, F))
u = rng.normal(size=(I, T))
mseries = MarketFactorSeries(m=rng.normal(size=(T, 2 * F)),
                             summary=rng.normal(size=(I, T, F)), window=10)
hyper = fc.ForecasterHyper(window=10, width=64, blocks=2, heads=4)
params = fc.init_params(F, hyper, stream(5, "fc", "init"))
digest(fc.predict_periods(params, hyper, feats, u, mseries, range(10, T + 1)))
"""

# The three training loops on the demo market at cut budgets.
_TRAINING_SCRIPT = _SCRIPT_PRELUDE + """
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.config import RunConfig
from irrfactors.panel import FeatureScaler, compute_deltas, compute_synchronism_labels
from irrfactors.synthetic import generate_synthetic
cfg = RunConfig.from_file(os.path.join(sys.argv[1], "configs", "demo.cfg"))
panel = generate_synthetic(cfg.synthetic_spec())
train_end = 330
feats = FeatureScaler.fit(panel.features, train_end).transform(panel.features)
sync = cfg.build("sync")
labels = compute_synchronism_labels(compute_deltas(panel.returns, sync), sync)
sf_params = sf.train_stock_factors(panel.prices, sf.StockFactorHyper(steps=100), train_end)
factors = sf.residual(panel.prices, sf_params)
mf_params = mf.train_market_factors(feats, labels, mf.MarketFactorHyper(window=10, epochs=2),
                                    train_end)
mseries = mf.market_series(feats, mf_params, 10)
fc_hyper = fc.ForecasterHyper(window=10, width=32, blocks=1, heads=2, lr=0.003,
                              max_epochs=2)
fc_params = fc.train_forecaster(feats, panel.returns, factors.u, mseries, fc_hyper,
                               train_end)
y_hat = fc.predict_periods(fc_params, fc_hyper, feats, factors.u, mseries,
                           range(train_end, panel.n_periods))
for array in (sf_params.flat, mf_params.flat, fc_params.flat, y_hat):
    digest(array)
"""


def _digests_per_thread_count(script: str) -> set:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", script, root], env=env,
                                capture_output=True, text=True, check=True)
        outputs.add(result.stdout)
    return outputs


@pytest.mark.slow
def test_frozen_predictions_do_not_depend_on_blas_threads():
    assert len(_digests_per_thread_count(_FROZEN_SCRIPT)) == 1


@pytest.mark.slow
def test_training_does_not_depend_on_blas_threads():
    outputs = _digests_per_thread_count(_TRAINING_SCRIPT)
    assert len(outputs) == 1
    assert len(outputs.pop().split()) == 4

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The learning checks run on synthetic markets with planted structure; the
metric checks compare against independent naive oracles.
"""

import time

import numpy as np
import pytest

from irrfactors import autodiff as ad
from irrfactors import evaluation as ev
from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import stockfactor as sf
from irrfactors.config import RunConfig
from irrfactors.evaluation import average_ranks, rank_ic_series
from irrfactors.panel import FeatureScaler, windows
from irrfactors.pipeline import run_pipeline
from irrfactors.rng import stream
from irrfactors.synthetic import (CointegrationPlant, SentimentPlant, SyntheticSpec,
                                  generate_synthetic)
from conftest import (ablation_market_spec, augmented, random_panel, sentiment_market_spec,
                      sync_labels)
import taped

from test_evaluation import (brute_force_long_short, brute_force_mdd,
                             sort_rank_oracle, two_pass_pearson)


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nacceptance criterion {number} ({name}): {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# -- 1: gradient fidelity ------------------------------------------------------


def _stock_loss_cases(seed):
    panel = random_panel(seed, n_stocks=4, n_periods=7, n_features=3)
    params = sf.init_params(4)
    rng = np.random.default_rng(seed + 100)
    params["beta"].data += rng.normal(scale=0.2, size=(4, 4))
    params["w_att"].data += rng.normal(scale=0.2, size=(4, 4))
    params["rho_raw"].data += rng.normal(scale=0.2, size=4)
    return [
        ("regression", lambda: sf.loss_beta(panel.prices, params), params),
        ("stationarity", lambda: sf.loss_rho(panel.prices, params), params),
        ("joint-stock", lambda: sf.loss_S(panel.prices, params, 0.5), params),
    ]


def _market_loss_cases(seed):
    panel = random_panel(seed + 1, n_stocks=5, n_periods=8, n_features=3)
    feats, labels = panel.features, sync_labels(panel)
    params = mf.init_params(5, 3, mf.MarketFactorHyper(), stream(seed, "acc", "market"))
    periods = np.array([3, 5, 7])
    return [
        ("contrastive", lambda: mf.infonce_loss(params, feats, periods, 2,
                                                seed=seed, epoch=0), params),
        ("synchronism", lambda: mf.loss_P(params, feats, labels, periods, 2), params),
        ("joint-market", lambda: mf.loss_M(params, feats, labels, periods, 1.0, 2,
                                           seed=seed, epoch=0), params),
    ]


def _forecaster_loss_cases(seed):
    rng = np.random.default_rng(seed + 2)
    n_stocks, n_periods, d = 4, 8, 3
    feats = rng.normal(size=(n_stocks, n_periods, d))
    u = rng.normal(size=(n_stocks, n_periods))
    m = rng.normal(size=(n_periods, 2 * d))
    r = rng.normal(size=(n_stocks, n_periods, 2 * d))
    hyper = fc.ForecasterHyper(window=2, width=8, blocks=1, heads=2, seed=seed)
    params = fc.init_params(d, hyper, stream(seed, "acc", "fc"))
    g = windows(augmented(feats, u), 5, 2)
    y = rng.normal(size=n_stocks)
    z = average_ranks(y)

    def loss(lambda3):
        y_hat = fc._predict_op(params, hyper, g, r[:, 4], m[4])
        return fc.loss_total(y_hat, y, z, lambda3)

    return [
        ("mse", lambda: loss(0.0), params),
        ("full-objective", lambda: loss(0.1), params),
    ]


def test_criterion_1_gradient_fidelity():
    started = time.monotonic()
    worst = {}
    for seed in range(5):
        cases = (_stock_loss_cases(seed) + _market_loss_cases(seed)
                 + _forecaster_loss_cases(seed))
        assert len(cases) == 8
        for name, loss_fn, params in cases:
            err = taped.gradient_check(lambda _: loss_fn(), params)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.monotonic() - started
    ok = all(err <= 1e-4 for err in worst.values()) and elapsed < 60.0
    detail = (f"max rel err {max(worst.values()):.2e} over {sorted(worst)} "
              f"in {elapsed:.1f}s")
    _report(1, "gradient fidelity", ok, detail)


# -- 2: cointegration recovery ---------------------------------------------------


def test_criterion_2_cointegration_recovery():
    started = time.monotonic()
    passed_seeds = 0
    details = []
    for seed in range(5):
        spec = SyntheticSpec(
            n_stocks=8, n_periods=500,
            plants=[CointegrationPlant(target=0, sources=(1,), betas=(0.7,),
                                       noise_rho=0.6, noise_scale=2.0)],
            sentiment=SentimentPlant(prob=0.0),
            seed=seed)
        panel = generate_synthetic(spec)
        params = sf.train_stock_factors(
            panel.prices, sf.StockFactorHyper(lambda1=0.5, lr=0.02, steps=2000),
            panel.n_periods)
        series = sf.residual(panel.prices, params)
        att = sf._attention(params)[0, 1]
        eff = att * params["beta"].data[0, 1]
        rho_u = abs(sf.stationarity_diagnostic(series.u[0]))
        rho_p = abs(sf.stationarity_diagnostic(panel.prices[0]))
        ok = att >= 0.5 and 0.55 <= eff <= 0.85 and rho_u <= 0.9 and rho_p >= 0.95
        passed_seeds += ok
        details.append(f"s{seed}:att={att:.2f},eff={eff:.2f},"
                       f"rho_u={rho_u:.2f},rho_p={rho_p:.3f}")
    elapsed = time.monotonic() - started
    ok = passed_seeds >= 4 and elapsed < 300.0
    _report(2, "cointegration recovery", ok,
            f"{passed_seeds}/5 seeds in {elapsed:.0f}s  " + " ".join(details))


# -- 3: synchronism learnability ---------------------------------------------------


def _classifier_run(seed, strength):
    panel = generate_synthetic(sentiment_market_spec(seed, precursor_strength=strength))
    labels = sync_labels(panel)
    train_end = 300
    scaler = FeatureScaler.fit(panel.features, train_end)
    feats = scaler.transform(panel.features)
    hyper = mf.MarketFactorHyper(window=10, epochs=40, lr=0.01, seed=seed + 100)
    params = mf.train_market_factors(feats, labels, hyper, train_end)
    held = np.arange(train_end, panel.n_periods)
    acc = mf.classifier_accuracy(params, feats, labels, held, hyper.window)
    lab = np.array([int(l) for l in labels])
    majority = np.bincount(lab[held], minlength=3).max() / held.size
    return acc, majority


def test_criterion_3_synchronism_learnability():
    acc, majority = _classifier_run(seed=0, strength=0.8)
    learnable_ok = acc >= 0.60 and majority <= 0.50
    acc0, majority0 = _classifier_run(seed=0, strength=0.0)
    leak_ok = abs(acc0 - majority0) <= 0.10
    _report(3, "synchronism learnability", learnable_ok and leak_ok,
            f"signal acc={acc:.2f} (majority {majority:.2f}); "
            f"no-signal acc={acc0:.2f} vs majority {majority0:.2f}")


# -- 4: contrastive separation ---------------------------------------------------


def test_criterion_4_contrastive_separation():
    wins = 0
    details = []
    for seed in range(5):
        panel = generate_synthetic(sentiment_market_spec(seed))
        train_end = 300
        scaler = FeatureScaler.fit(panel.features, train_end)
        feats = scaler.transform(panel.features)
        hyper = mf.MarketFactorHyper(window=10, epochs=25, lr=0.01, seed=seed)
        params = mf.train_market_factors(feats, sync_labels(panel), hyper, train_end)
        held = np.arange(train_end, train_end + 60)
        pos, neg = mf.contrastive_separation(params, feats, held, hyper.window, seed)
        wins += pos > neg
        details.append(f"s{seed}:{pos:.1f}>{neg:.1f}")
    _report(4, "contrastive separation", wins >= 4,
            f"{wins}/5 seeds  " + " ".join(details))


# -- 5: metric oracles -------------------------------------------------------------


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(123)
    cfg = ev.PortfolioConfig()
    worst = 0.0
    for _ in range(100):
        n_stocks = int(rng.integers(4, 12))
        n_periods = int(rng.integers(5, 30))
        y_hat = rng.normal(size=(n_stocks, n_periods))
        y_true = rng.normal(size=(n_stocks, n_periods)) * 2.0
        metrics, _ = ev.forecast_metrics(y_hat, y_true)

        err = y_hat - y_true
        ic = np.array([two_pass_pearson(y_hat[:, t], sort_rank_oracle(y_true[:, t]))
                       for t in range(n_periods)])
        rank_ic = np.array([two_pass_pearson(sort_rank_oracle(y_hat[:, t]),
                                             sort_rank_oracle(y_true[:, t]))
                            for t in range(n_periods)])
        checks = [
            metrics["rmse"] - np.sqrt((err ** 2).mean()),
            metrics["mae"] - np.abs(err).mean(),
            metrics["ic"] - ic.mean(),
            metrics["icir"] - ic.mean() / ic.std(),
            metrics["rank_ic"] - rank_ic.mean(),
            metrics["rank_icir"] - rank_ic.mean() / rank_ic.std(),
        ]

        r = rng.normal(scale=0.02, size=n_periods)
        ar, av, sr, _ = ev.ar_av_sr(r, cfg)
        max_dd = ev.mdd(r)
        cr, _ = ev.calmar(ar, max_dd)
        oracle_dd = brute_force_mdd(r)
        oracle_cr = 0.0 if oracle_dd == 0 else (r.mean() * 252) / oracle_dd
        checks.extend([
            ar - r.mean() * 252,
            av - r.std() * np.sqrt(252),
            sr - (r.mean() * 252) / (r.std() * np.sqrt(252)),
            max_dd - oracle_dd,
            cr - oracle_cr,
        ])
        worst = max(worst, max(abs(c) for c in checks))
    _report(5, "metric oracles", worst <= 1e-10, f"max abs deviation {worst:.2e}")


# -- 6: backtest hand-checks --------------------------------------------------------


def test_criterion_6_backtest_hand_checks():
    cfg = ev.PortfolioConfig(n_fraction=0.25, cost_rate=0.001)
    gross, *_ = ev.long_short_return(np.array([9.0, 5.0, 4.0, 1.0]),
                                     np.array([2.0, 0.5, 0.1, -3.0]), cfg)
    hedge_ok = gross == pytest.approx(0.05, abs=1e-15)

    longs = [tuple(range(10)), tuple(range(20, 30))]
    shorts = [tuple(range(10, 20)), tuple(range(30, 40))]
    net, tc = ev.apply_costs(np.zeros(2), longs, shorts, cfg)
    turnover_ok = tc[1] == 40.0 and net[1] == pytest.approx(-0.004, abs=1e-15)

    net0, tc0 = ev.apply_costs(np.array([0.01]), [tuple(range(5))], [tuple(range(5, 10))], cfg)
    first_ok = tc0[0] == 10.0 and net0[0] == pytest.approx(0.008, abs=1e-15)

    _report(6, "backtest hand-checks", hedge_ok and turnover_ok and first_ok,
            f"hedge={gross:.3f} turnover_tc={tc[1]:.0f} first_tc={tc0[0]:.0f}")


# -- 7: ablation direction -----------------------------------------------------------


def _ablation_run(seed, variant, panel, feats, factors, mseries, train_end):
    hyper = fc.ForecasterHyper(
        window=10, width=32, blocks=1, heads=2, lr=3e-3,
        max_epochs=40, patience=10, seed=seed, lambda3=0.1,
        ablation="none" if variant == "full" else variant)
    params = fc.train_forecaster(feats, panel.returns, factors.u, mseries, hyper, train_end)
    periods = np.arange(train_end, panel.n_periods)
    y_hat = fc.predict_periods(params, hyper, feats, factors.u, mseries, periods)
    return float(rank_ic_series(y_hat, panel.returns[:, periods]).mean())


@pytest.mark.slow
def test_criterion_7_ablation_direction():
    started = time.monotonic()
    scores = {v: [] for v in ("full", "NS", "NM", "NR")}
    for seed in range(5):
        panel = generate_synthetic(ablation_market_spec(seed))
        train_end = 330
        scaler = FeatureScaler.fit(panel.features, train_end)
        feats = scaler.transform(panel.features)
        cparams = sf.train_stock_factors(panel.prices, sf.StockFactorHyper(steps=1200),
                                         train_end)
        factors = sf.residual(panel.prices, cparams)
        mhyper = mf.MarketFactorHyper(window=10, epochs=30, seed=seed)
        mparams = mf.train_market_factors(feats, sync_labels(panel), mhyper, train_end)
        mseries = mf.market_series(feats, mparams, mhyper.window)
        for variant in scores:
            scores[variant].append(
                _ablation_run(seed, variant, panel, feats, factors, mseries, train_end))
    elapsed = time.monotonic() - started
    means = {v: float(np.mean(s)) for v, s in scores.items()}
    margin_ns = means["full"] - means["NS"]
    margin_nm = means["full"] - means["NM"]
    margin_nr = means["full"] - means["NR"]
    ok = margin_ns > 0 and margin_nm > 0 and margin_nr > 0 and elapsed < 900.0
    _report(7, "ablation direction", ok,
            f"mean RankIC full={means['full']:.3f} NS={means['NS']:.3f} "
            f"NM={means['NM']:.3f} NR={means['NR']:.3f}; margins "
            f"NS=+{margin_ns:.3f} NM=+{margin_nm:.3f} NR=+{margin_nr:.3f} "
            f"in {elapsed:.0f}s")


# -- 8: causality ----------------------------------------------------------------------


def test_criterion_8_causality(tmp_path):
    cfg = RunConfig(values={
        "seed": 11, "split.train_end": "140", "model.window": 6,
        "factors.steps": 300, "market.epochs": 5,
        "forecast.width": 16, "forecast.heads": 2,
        "forecast.max_epochs": 3, "forecast.patience": 3,
        "synthetic.n_stocks": 10, "synthetic.n_periods": 200,
        "synthetic.events.prob": 0.5,
        # config defaults at the time this criterion was written
        "forecast.lr": 0.003, "forecast.blocks": 1,
        "synthetic.base_volatility": 1.5, "synthetic.volatility_spread": 0.85,
        "synthetic.event_sensitivity_spread": 0.0,
        "synthetic.events.precursor": 0.8, "synthetic.events.precursor_noise": 1.5,
    }, plants={0: CointegrationPlant(target=0, sources=(5,), betas=(0.6,),
                                     noise_rho=0.4, noise_scale=1.2)})
    artifacts = run_pipeline(cfg, str(tmp_path / "causality"))
    panel = artifacts.panel
    test_periods = np.array(artifacts.prediction.periods)
    base = artifacts.prediction.y_hat

    from irrfactors.panel import MarketPanel
    from irrfactors.pipeline import predict_with_artifacts
    rng = np.random.default_rng(77)
    violations = 0
    propagations = 0
    for _ in range(20):
        t = int(rng.choice(test_periods[2:-2]))
        feats = panel.features.copy()
        prices = panel.prices.copy()
        feats[:, t, :] += rng.normal(scale=5.0, size=(panel.n_stocks, panel.n_features))
        prices[:, t] *= rng.uniform(1.2, 1.8)
        perturbed = MarketPanel.from_prices(panel.stock_ids, panel.periods,
                                            feats, prices)
        after = predict_with_artifacts(artifacts, perturbed, test_periods)
        unchanged = test_periods <= t
        if not np.array_equal(base[:, unchanged], after[:, unchanged]):
            violations += 1
        if not np.array_equal(base[:, ~unchanged], after[:, ~unchanged]):
            propagations += 1
    ok = violations == 0 and propagations == 20
    _report(8, "causality", ok,
            f"{violations} violations, perturbation visible downstream in "
            f"{propagations}/20 trials")


# -- 9: determinism -----------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg = RunConfig(values={
        "seed": 5, "split.train_end": "120", "model.window": 6,
        "factors.steps": 200, "market.epochs": 3,
        "forecast.width": 16, "forecast.heads": 2,
        "forecast.max_epochs": 2, "forecast.patience": 2,
        "synthetic.n_stocks": 8, "synthetic.n_periods": 170,
        "synthetic.events.prob": 0.4,
        # config defaults at the time this criterion was written
        "forecast.lr": 0.003, "forecast.blocks": 1,
        "synthetic.base_volatility": 1.5, "synthetic.volatility_spread": 0.85,
        "synthetic.event_sensitivity_spread": 0.0,
        "synthetic.events.precursor": 0.8, "synthetic.events.precursor_noise": 1.5,
    })
    run_pipeline(cfg, str(tmp_path / "a"))
    run_pipeline(cfg, str(tmp_path / "b"))
    identical = True
    for name in ("factors.csv", "market_repr.csv", "predictions.csv",
                 "series.csv", "report.txt"):
        with open(tmp_path / "a" / name, "rb") as fa, \
                open(tmp_path / "b" / name, "rb") as fb:
            identical = identical and fa.read() == fb.read()
    _report(9, "determinism", identical, "two runs, all artifacts byte-compared")

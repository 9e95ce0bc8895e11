import csv
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors import forecaster as fc
from irrfactors import marketfactor as mf
from irrfactors import pipeline
from irrfactors import stockfactor as sf
from irrfactors.autodiff import CorruptCheckpoint, NumericalFailure
from irrfactors.config import SECTIONS, ConfigError, RunConfig
from irrfactors.panel import (MarketPanel, compute_deltas, compute_synchronism_labels,
                              write_panel_csv)
from irrfactors.pipeline import (REPORT_METRICS, BadReport, MissingArtifact, PanelMismatch,
                                 PipelineStageError, format_report, predict_with_artifacts,
                                 read_report, run_pipeline)
from irrfactors.synthetic import generate_synthetic

from conftest import DAMAGE, damaged

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"

SMALL_CONFIG = """
seed = 7
data.source = synthetic
split.train_end = 140
model.window = 6
factors.steps = 200
market.epochs = 4
forecast.width = 16
forecast.heads = 2
forecast.max_epochs = 3
forecast.patience = 3
synthetic.n_stocks = 10
synthetic.n_periods = 200
synthetic.events.prob = 0.5
synthetic.events.precursor = 0.8
synthetic.plant.0 = target=0 sources=5 betas=0.6 rho=0.4 scale=1.2 kick=1.0
synthetic.plant.1 = target=1 sources=6 betas=0.6 rho=0.4 scale=1.2 kick=1.0
# config defaults when these tests were written, which the dataclass defaults replaced
forecast.lr = 0.003
forecast.blocks = 1
synthetic.base_volatility = 1.5
synthetic.volatility_spread = 0.85
synthetic.event_sensitivity_spread = 0.0
synthetic.events.precursor_noise = 1.5
"""


def _write_config(tmp_path, text=SMALL_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    cfg = RunConfig.from_file(_write_config(tmp))
    run_dir = str(tmp / "out")
    artifacts = run_pipeline(cfg, run_dir)
    return cfg, run_dir, artifacts


# -- config ------------------------------------------------------------------


def test_unknown_key_is_named(tmp_path):
    path = _write_config(tmp_path, SMALL_CONFIG + "\nfactors.lambda9 = 1\n")
    with pytest.raises(ConfigError, match="factors.lambda9"):
        RunConfig.from_file(path)


def test_bad_value_is_named(tmp_path):
    text = SMALL_CONFIG.replace("market.epochs = 4", "market.epochs = many")
    with pytest.raises(ConfigError, match="market.epochs"):
        RunConfig.from_file(_write_config(tmp_path, text))


@pytest.mark.parametrize("line, key, first", [
    ("seed = 2", "seed", 2),
    ("synthetic.plant.1 = target=2 sources=7 betas=0.5", "synthetic.plant.1", 17),
    ("synthetic.plant.01 = target=2 sources=7 betas=0.5", "synthetic.plant.1", 17),
])
def test_a_repeated_key_names_both_lines(tmp_path, line, key, first):
    path = _write_config(tmp_path, SMALL_CONFIG + f"{line}\n")
    with pytest.raises(ConfigError, match=f"run.cfg:25: '{key}' is set again; "
                                          f"line {first} set it first"):
        RunConfig.from_file(path)


def test_missing_train_end_rejected(tmp_path):
    text = SMALL_CONFIG.replace("split.train_end = 140", "")
    with pytest.raises(ConfigError, match="train_end"):
        RunConfig.from_file(_write_config(tmp_path, text))


def test_negative_lambda_rejected(tmp_path):
    text = SMALL_CONFIG + "\nforecast.lambda3 = -0.5\n"
    with pytest.raises(ConfigError):
        RunConfig.from_file(_write_config(tmp_path, text))


def test_csv_source_requires_path(tmp_path):
    text = SMALL_CONFIG.replace("data.source = synthetic", "data.source = csv")
    with pytest.raises(ConfigError, match="csv_path"):
        RunConfig.from_file(_write_config(tmp_path, text))


@pytest.mark.parametrize("line, key", [
    ("forecast.heads = 3", "forecast.heads"),
    ("forecast.heads = 0", "forecast.heads"),
    ("portfolio.n_fraction = 0.9", "portfolio.n_fraction"),
    ("portfolio.n_fraction = 0", "portfolio.n_fraction"),
    ("forecast.val_fraction = 1.5", "forecast.val_fraction"),
    ("forecast.val_fraction = 0", "forecast.val_fraction"),
    ("market.batch = 1", "market.batch"),
    ("sync.hm_ratio = 1.5", "sync.hm_ratio"),
])
def test_bad_settings_are_rejected_before_any_stage_runs(tmp_path, line, key):
    # a key SMALL_CONFIG sets has its line replaced, since a repeat is an error
    text = re.sub(f"^{re.escape(key)} = .*$", line, SMALL_CONFIG, flags=re.M)
    if text == SMALL_CONFIG:
        text += f"\n{line}\n"
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_file(_write_config(tmp_path, text))


@pytest.mark.parametrize("key", ["factors.normalize_prices", "market.hidden",
                                 "market.cls_weight_decay", "synthetic.n_features",
                                 "synthetic.price_low", "synthetic.price_high",
                                 "synthetic.vwap_lag", "synthetic.start_date",
                                 "synthetic.events.volume_coupling"])
def test_removed_settings_are_unknown_keys(tmp_path, key):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        RunConfig.from_file(_write_config(tmp_path, SMALL_CONFIG + f"\n{key} = 1\n"))


def test_train_end_accepts_dates(tmp_path):
    cfg = RunConfig.from_file(_write_config(tmp_path))
    # boundary may also be given as a period label; bad labels are reported
    bad = cfg.with_overrides()
    bad.values["split.train_end"] = "1999-01-01"
    with pytest.raises(PipelineStageError, match="data"):
        run_pipeline(bad, str(tmp_path / "x"))


def test_split_after_panel_end_rejected(tmp_path):
    cfg = RunConfig.from_file(_write_config(tmp_path))
    cfg.values["split.train_end"] = "200"
    with pytest.raises(PipelineStageError, match="data"):
        run_pipeline(cfg, str(tmp_path / "y"))


def test_config_hash_ignores_out_dir(tmp_path):
    cfg = RunConfig.from_file(_write_config(tmp_path))
    assert cfg.config_hash() == cfg.with_overrides(out_dir="elsewhere").config_hash()
    assert cfg.config_hash() != cfg.with_overrides(seed=8).config_hash()


def test_balance_weight_grids_are_accepted(tmp_path):
    # the documented sensitivity grids all validate as configuration
    for key, grid in (("factors.lambda1", (0, 0.25, 0.5, 0.75, 1)),
                      ("market.lambda2", (0, 0.5, 1, 1.5, 2)),
                      ("forecast.lambda3", (0, 0.05, 0.1, 0.15, 0.2))):
        for value in grid:
            text = SMALL_CONFIG + f"\n{key} = {value}\n"
            cfg = RunConfig.from_file(_write_config(tmp_path, text, name="grid.cfg"))
            assert cfg[key] == value


@given(damage=DAMAGE)
@settings(max_examples=200)
def test_a_mutated_config_builds_every_section_or_fails_by_name(tmp_path_factory, damage):
    path = tmp_path_factory.mktemp("mutate") / "demo.cfg"
    path.write_bytes(damaged(DEMO_CONFIG.read_bytes(), damage))
    try:
        cfg = RunConfig.from_file(path)
        for section in SECTIONS:
            cfg.build(section)
    except ConfigError:
        pass


# -- pipeline artifacts ---------------------------------------------------------


def test_run_produces_all_artifacts(small_run):
    _, run_dir, artifacts = small_run
    for name in ("factors.csv", "market_repr.csv", "labels.csv",
                 "predictions.csv", "series.csv", "report.txt"):
        assert os.path.exists(os.path.join(run_dir, name))
    report = read_report(run_dir)
    for key in ("rmse", "mae", "ic", "icir", "rank_ic", "rank_icir",
                "ar", "av", "sr", "mdd", "cr"):
        assert key in report
    assert report["train_end"] == 140


def test_unnormalized_features_reach_the_stages_unchanged(tmp_path):
    # data.normalize_features = false takes FeatureScaler.identity; cut budgets
    text = (SMALL_CONFIG.replace("factors.steps = 200", "factors.steps = 20")
            .replace("market.epochs = 4", "market.epochs = 1")
            .replace("forecast.max_epochs = 3", "forecast.max_epochs = 1"))
    cfg = RunConfig.from_file(_write_config(tmp_path, text + "data.normalize_features = false\n"))
    run_dir = str(tmp_path / "out")
    artifacts = run_pipeline(cfg, run_dir)
    features = artifacts.panel.features
    assert artifacts.scaler.transform(features).tobytes() == features.tobytes()
    assert read_report(run_dir)["train_end"] == 140


def test_artifacts_are_stamped(small_run):
    cfg, run_dir, _ = small_run
    stamp = f"# config_hash={cfg.config_hash()} seed=7"
    for name in ("factors.csv", "market_repr.csv", "predictions.csv",
                 "series.csv", "report.txt"):
        with open(os.path.join(run_dir, name)) as fh:
            assert fh.readline().strip() == stamp


def test_rerun_is_byte_identical(small_run, tmp_path):
    cfg, run_dir, _ = small_run
    other = str(tmp_path / "again")
    run_pipeline(cfg, other)
    for name in ("factors.csv", "market_repr.csv", "predictions.csv",
                 "series.csv", "report.txt"):
        with open(os.path.join(run_dir, name), "rb") as a, \
                open(os.path.join(other, name), "rb") as b:
            assert a.read() == b.read()


def test_stale_checkpoints_are_rejected(small_run, tmp_path):
    cfg, run_dir, _ = small_run
    import shutil
    clone = str(tmp_path / "stale")
    shutil.copytree(run_dir, clone)
    with pytest.raises(PipelineStageError, match="different run"):
        run_pipeline(cfg.with_overrides(seed=99), clone)


def test_stage_resume_reproduces_downstream(small_run, tmp_path):
    cfg, run_dir, _ = small_run
    partial = str(tmp_path / "partial")
    run_pipeline(cfg, partial)
    for name in ("predictions.csv", "series.csv", "report.txt", "params_forecaster.npz"):
        os.remove(os.path.join(partial, name))
    run_pipeline(cfg, partial)
    for name in ("predictions.csv", "series.csv", "report.txt"):
        with open(os.path.join(run_dir, name), "rb") as a, \
                open(os.path.join(partial, name), "rb") as b:
            assert a.read() == b.read()


ARTIFACTS = ("factors.csv", "market_repr.csv", "labels.csv", "predictions.csv",
             "series.csv", "report.txt")


def _assert_same_artifacts(run_dir, other):
    for name in ARTIFACTS:
        with open(os.path.join(run_dir, name), "rb") as a, \
                open(os.path.join(other, name), "rb") as b:
            assert a.read() == b.read(), name


def _checkpoints_only(run_dir, tmp_path) -> str:
    """A copy of run_dir without its artifacts: rerun, it resumes from every checkpoint."""
    clone = str(tmp_path / "resume")
    shutil.copytree(run_dir, clone)
    for name in ARTIFACTS:
        os.remove(os.path.join(clone, name))
    return clone


def test_full_resume_reproduces_every_artifact(small_run, tmp_path):
    cfg, run_dir, _ = small_run
    clone = _checkpoints_only(run_dir, tmp_path)
    run_pipeline(cfg, clone)
    _assert_same_artifacts(run_dir, clone)


def test_a_resumed_run_drops_its_panel_sized_inputs_before_the_backtest(small_run, tmp_path,
                                                                         monkeypatch):
    # the features, the market series and u were once held through the backtest
    cfg, run_dir, _ = small_run
    clone = _checkpoints_only(run_dir, tmp_path)
    seen, predict, backtest = {}, fc.predict_periods, pipeline.run_backtest

    def spy_predict(params, hyper, feats, u, mseries, periods):
        seen.update(predict=tracemalloc.get_traced_memory()[0],
                    inputs=feats.nbytes + mseries.summary.nbytes)
        return predict(params, hyper, feats, u, mseries, periods)

    def spy_backtest(*args):
        seen["backtest"] = tracemalloc.get_traced_memory()[0]
        return backtest(*args)

    monkeypatch.setattr(fc, "predict_periods", spy_predict)
    monkeypatch.setattr(pipeline, "run_backtest", spy_backtest)
    tracemalloc.start()
    try:
        run_pipeline(cfg, clone)
    finally:
        tracemalloc.stop()
    assert seen["predict"] - seen["backtest"] >= seen["inputs"], seen
    _assert_same_artifacts(run_dir, clone)


def test_a_resumed_run_keeps_the_summaries_of_the_scored_rows_only(small_run, tmp_path,
                                                                    monkeypatch):
    # a resumed run once kept the summaries of all T periods, though it scores
    # the test span only, reading rows train_end - 1 .. T - 2
    cfg, run_dir, artifacts = small_run
    clone = _checkpoints_only(run_dir, tmp_path)
    seen, predict = [], fc.predict_periods

    def spy(params, hyper, feats, u, mseries, periods):
        seen.append((mseries.first, mseries.summary.shape[1]))
        return predict(params, hyper, feats, u, mseries, periods)

    monkeypatch.setattr(fc, "predict_periods", spy)
    run_pipeline(cfg, clone)
    T, train_end = artifacts.panel.n_periods, artifacts.train_end
    assert seen == [(train_end - 1, T - train_end + 1)]
    _assert_same_artifacts(run_dir, clone)


def test_the_demo_market_falls_back_to_uniform_weights_on_194_of_451_rows():
    # a regression value, not a bound: the demo's weight head is all zero on
    # 194 of the 451 rows the frozen series encodes (193 of the 450 rows,
    # 9..458, that the forecaster reads)
    cfg = RunConfig.from_file(DEMO_CONFIG)
    panel, train_end, scaler = pipeline._load_data(cfg)
    feats = scaler.transform(panel.features)
    sync = cfg.build("sync")
    labels = compute_synchronism_labels(compute_deltas(panel.returns, sync), sync)
    hyper = cfg.build("market")
    series = mf.market_series(feats, mf.train_market_factors(feats, labels, hyper, train_end),
                              hyper.window)
    encoded = ~np.isnan(series.m).any(axis=1)
    assert (int(encoded.sum()), int(series.fallback.sum())) == (451, 194)
    assert not series.fallback[~encoded].any()


def _rewrite_checkpoint(path, change):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    np.savez(path, **change(arrays))


@pytest.mark.parametrize("name, change, message", [
    ("params_market.npz",
     lambda a: {("w_eta_old" if k == "w_eta" else k): v for k, v in a.items()}, "'w_eta'"),
    ("params_stock.npz", lambda a: {**a, "beta": a["beta"].reshape(-1)}, "'beta'"),
    ("params_forecaster.npz",
     lambda a: {**a, "__stamp__": np.array("config_hash=0 seed=7")}, "different run"),
])
def test_mismatched_checkpoint_is_rejected(small_run, tmp_path, name, change, message):
    cfg, run_dir, _ = small_run
    import shutil
    clone = str(tmp_path / "tampered")
    shutil.copytree(run_dir, clone)
    _rewrite_checkpoint(os.path.join(clone, name), change)
    with pytest.raises(PipelineStageError, match=message):
        run_pipeline(cfg, clone)


def _first_central_entry(raw: bytes, offset: int, value: int) -> bytes:
    """raw with byte `offset` of the zip's first central directory entry set
    to `value`: its general-purpose flags at 8, its compression method at 10."""
    at = raw.index(b"PK\x01\x02") + offset
    return raw[:at] + bytes([value]) + raw[at + 1:]


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:len(raw) // 2],                                  # truncated
    lambda raw: raw[:len(raw) // 2] + bytes([raw[len(raw) // 2] ^ 1])  # one bit flipped
    + raw[len(raw) // 2 + 1:],
    lambda raw: _first_central_entry(raw, 8, raw[raw.index(b"PK\x01\x02") + 8] | 1),  # encrypted
    lambda raw: _first_central_entry(raw, 10, 0x63),                  # unknown compression
])
def test_damaged_checkpoint_is_named(small_run, tmp_path, damage):
    cfg, run_dir, _ = small_run
    import shutil
    clone = str(tmp_path / "damaged")
    shutil.copytree(run_dir, clone)
    ckpt = os.path.join(clone, "params_forecaster.npz")
    with open(ckpt, "rb") as fh:
        raw = fh.read()
    with open(ckpt, "wb") as fh:
        fh.write(damage(raw))
    with pytest.raises(PipelineStageError, match=r"\[forecaster\] checkpoint .*"
                       r"params_forecaster.npz is damaged .*delete it") as info:
        run_pipeline(cfg, clone)
    assert isinstance(info.value.cause, CorruptCheckpoint)


def test_artifacts_match_the_row_writer(small_run, tmp_path):
    """The column writers give the bytes of the per-row csv.writer code they replaced."""
    cfg, run_dir, art = small_run
    panel, prediction, report = art.panel, art.prediction, art.report
    stamp = f"config_hash={cfg.config_hash()} seed=7"
    factors = sf.residual(panel.prices, art.coint_params)
    mseries = mf.market_series(art.scaler.transform(panel.features), art.market_params,
                               art.fc_hyper.window)
    sync = cfg.build("sync")
    deltas = compute_deltas(panel.returns, sync)
    labels, sums = compute_synchronism_labels(deltas, sync), deltas.sum(axis=0)
    rows = {
        "factors.csv": (["stock_id", "date", "u", "p_tilde"],
                        ([sid, date, repr(float(factors.u[i, t])),
                          repr(float(factors.p_tilde[i, t]))]
                         for i, sid in enumerate(panel.stock_ids)
                         for t, date in enumerate(panel.periods))),
        "market_repr.csv": (["date"] + [f"m_{j + 1}" for j in range(mseries.m.shape[1])],
                            ([date] + [repr(float(v)) for v in mseries.m[t]]
                             for t, date in enumerate(panel.periods)
                             if not np.isnan(mseries.m[t]).any())),
        "labels.csv": (["date", "sum_delta", "label"],
                       ([date, int(sums[t]), labels[t].name]
                        for t, date in enumerate(panel.periods))),
        "predictions.csv": (["date", "stock_id", "y_hat", "y_true"],
                            ([panel.periods[t], sid, repr(float(prediction.y_hat[i, k])),
                              repr(float(prediction.y_true[i, k]))]
                             for k, t in enumerate(prediction.periods)
                             for i, sid in enumerate(panel.stock_ids))),
        "series.csv": (["date", "y_str", "net_return", "cumulative_wealth"],
                       ([panel.periods[t], repr(float(report.gross[k])),
                         repr(float(report.net[k])), repr(float(report.wealth[k]))]
                        for k, t in enumerate(prediction.periods))),
    }
    for name, (header, records) in rows.items():
        expected = tmp_path / name
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# {stamp}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(records)
        with open(os.path.join(run_dir, name), "rb") as fh:
            assert fh.read() == expected.read_bytes(), name


def test_interrupted_checkpoint_write_leaves_no_checkpoint(small_run, tmp_path, monkeypatch):
    cfg, run_dir, _ = small_run
    real_savez = np.savez

    def savez_then_fail(file, **arrays):
        if isinstance(file, str):               # a writer that was given a path
            file = open(file, "wb")
        file.write(b"PK partial")
        file.close()
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    broken = str(tmp_path / "broken")
    with pytest.raises(PipelineStageError, match="stock-factors"):
        run_pipeline(cfg, broken)
    left = os.listdir(broken)
    assert not [f for f in left if f.startswith("params_") or f.endswith(".tmp")], left
    monkeypatch.setattr(np, "savez", real_savez)
    run_pipeline(cfg, broken)
    _assert_same_artifacts(run_dir, broken)


def test_diverging_training_stops_the_stage_that_diverged(tmp_path):
    cfg = RunConfig.from_file(_write_config(tmp_path, SMALL_CONFIG + "factors.lr = 1e200\n"))
    run_dir = tmp_path / "diverged"
    with pytest.raises(PipelineStageError, match=r"\[stock-factors\] loss diverged") as info:
        run_pipeline(cfg, str(run_dir))
    assert isinstance(info.value.cause, NumericalFailure)
    assert not [f for f in os.listdir(run_dir) if f.startswith("params_")]


@pytest.mark.parametrize("owner, name, stage", [
    (pipeline, "generate_synthetic", "data"),
    (sf, "residual", "stock-factors"),
    (mf, "market_series", "market-factors"),
    (fc, "predict_periods", "forecaster"),
    (pipeline, "run_backtest", "backtest"),
    (pipeline, "write_csv", None),          # artifact writes belong to no stage
], ids=lambda value: value if isinstance(value, str) else None)
def test_each_stage_names_its_failures(small_run, tmp_path, monkeypatch, owner, name, stage):
    cfg, run_dir, _ = small_run
    clone = str(tmp_path / "resumed")
    shutil.copytree(run_dir, clone)
    sentinel = OSError("sentinel")

    def fail(*args, **kwargs):
        raise sentinel

    monkeypatch.setattr(owner, name, fail)
    with pytest.raises(Exception) as info:
        run_pipeline(cfg, clone)
    if stage is None:
        assert info.value is sentinel
    else:
        assert isinstance(info.value, PipelineStageError)
        assert (info.value.stage, info.value.cause) == (stage, sentinel)


def test_predictions_only_depend_on_the_past(small_run):
    _, _, artifacts = small_run
    panel = artifacts.panel
    periods = [150, 155, 160]
    base = predict_with_artifacts(artifacts, panel, periods)
    bumped = panel.features.copy()
    bumped[:, 160:, :] += 7.0
    from irrfactors.panel import MarketPanel
    prices = panel.prices.copy()
    prices[:, 160:] *= 1.5
    perturbed = MarketPanel.from_prices(panel.stock_ids, panel.periods, bumped, prices)
    after = predict_with_artifacts(artifacts, perturbed, periods)
    np.testing.assert_array_equal(base, after)


def test_frozen_scoring_encodes_only_the_rows_its_forecasts_read(small_run, monkeypatch):
    _, _, artifacts = small_run
    panel = artifacts.panel
    periods = np.array([190, 150, 151, 175, 199])
    feats = artifacts.scaler.transform(panel.features)
    full = fc.predict_periods(
        artifacts.fc_params, artifacts.fc_hyper, feats,
        sf.residual(panel.prices, artifacts.coint_params).u,
        mf.market_series(feats, artifacts.market_params, artifacts.fc_hyper.window),
        periods)
    encoded = []
    encode = mf._stock_reprs

    def spy(features, params, rows, window, keep=False):
        encoded.append(rows)
        return encode(features, params, rows, window, keep)

    monkeypatch.setattr(mf, "_stock_reprs", spy)
    y_hat = predict_with_artifacts(artifacts, panel, periods)
    assert np.concatenate(encoded).tolist() == (periods - 1).tolist()
    assert y_hat.tobytes() == full.tobytes()


@given(t0=st.integers(140, 199), magnitude=st.floats(0.01, 20.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_predictions_up_to_t0_ignore_a_panel_redrawn_from_t0(small_run, t0, magnitude, seed):
    _, _, artifacts = small_run
    panel = artifacts.panel
    periods = np.arange(140, panel.n_periods)
    base = predict_with_artifacts(artifacts, panel, periods)
    rng = np.random.default_rng(seed)
    features = panel.features.copy()
    prices = panel.prices.copy()
    features[:, t0:] = magnitude * rng.normal(size=features[:, t0:].shape)
    steps = np.exp(0.01 * magnitude * rng.normal(size=prices[:, t0:].shape))
    prices[:, t0:] = prices[:, t0 - 1:t0] * np.cumprod(steps, axis=1)
    redrawn = MarketPanel.from_prices(panel.stock_ids, panel.periods, features, prices)
    after = predict_with_artifacts(artifacts, redrawn, periods)
    assert after[:, periods <= t0].tobytes() == base[:, periods <= t0].tobytes()
    assert t0 == periods[-1] or not np.array_equal(after[:, periods > t0],
                                                   base[:, periods > t0])


def test_predictions_reject_a_panel_of_other_stocks(small_run):
    _, _, artifacts = small_run
    panel = artifacts.panel
    renamed = MarketPanel.from_prices([f"X{sid}" for sid in panel.stock_ids],
                                      panel.periods, panel.features, panel.prices)
    reversed_rows = MarketPanel.from_prices(panel.stock_ids[::-1], panel.periods,
                                            panel.features[::-1], panel.prices[::-1])
    other_features = MarketPanel.from_prices(
        panel.stock_ids, panel.periods, panel.features, panel.prices,
        tuple(reversed(panel.feature_names)))
    for other, field in ((renamed, "stock_ids"), (reversed_rows, "stock_ids"),
                         (other_features, "features")):
        with pytest.raises(PanelMismatch, match=field):
            predict_with_artifacts(artifacts, other, [150, 151])


def test_csv_checkpoints_reject_a_changed_csv(tmp_path):
    cfg = RunConfig.from_file(_write_config(tmp_path))
    panel_csv = tmp_path / "panel.csv"
    write_panel_csv(generate_synthetic(cfg.synthetic_spec()), panel_csv)
    csv_cfg = SMALL_CONFIG.replace("data.source = synthetic",
                                   f"data.source = csv\ndata.csv_path = {panel_csv}")
    csv_cfg = csv_cfg.replace("factors.steps = 200", "factors.steps = 20").replace(
        "market.epochs = 4", "market.epochs = 1").replace(
        "forecast.max_epochs = 3", "forecast.max_epochs = 1")
    csv_run = RunConfig.from_file(_write_config(tmp_path, csv_cfg, name="csv.cfg"))
    run_dir = str(tmp_path / "csvrun")
    run_pipeline(csv_run, run_dir)
    other_market = generate_synthetic(cfg.with_overrides(seed=8).synthetic_spec())
    write_panel_csv(other_market, panel_csv)
    with pytest.raises(PipelineStageError, match="different run"):
        run_pipeline(csv_run, run_dir)


def test_report_formatting(small_run):
    _, run_dir, _ = small_run
    text = format_report(run_dir)
    lines = text.splitlines()
    assert lines[1].startswith("RMSE")
    # Table-style precision: 4 decimals for errors, 3 for ratios
    assert len(lines[1].split()[1].split(".")[1]) == 4
    sr_line = [l for l in lines if l.startswith("SR")][0]
    assert len(sr_line.split()[1].split(".")[1]) == 3


def test_report_missing_artifact(tmp_path):
    with pytest.raises(MissingArtifact):
        format_report(str(tmp_path))


def test_report_missing_predictions(small_run, tmp_path):
    _, run_dir, _ = small_run
    import shutil
    clone = tmp_path / "clone"
    shutil.copytree(run_dir, clone)
    os.remove(clone / "predictions.csv")
    with pytest.raises(MissingArtifact, match="predictions"):
        format_report(str(clone))


# Each fault printed a traceback before the report named it: a KeyError, a
# format code applied to a string, and a UnicodeDecodeError.
REPORT_FAULTS = [
    pytest.param(lambda raw: re.sub(rb"(?m)^sr: .*\n", b"", raw), ": no line for sr",
                 id="missing"),
    pytest.param(lambda raw: re.sub(rb"(?m)^ar: .*$", b"ar: abc", raw),
                 ":13: ar 'abc' is not a number", id="not-a-number"),
    pytest.param(lambda raw: raw + b"\xff", ":20: byte 0xff at column 1 is not UTF-8",
                 id="not-utf8"),
]


def _report_with(small_run, tmp_path, edit) -> str:
    _, run_dir, _ = small_run
    clone = str(tmp_path / "edited")
    shutil.copytree(run_dir, clone)
    path = Path(clone, "report.txt")
    path.write_bytes(edit(path.read_bytes()))
    return clone


@pytest.mark.parametrize("edit, message", REPORT_FAULTS)
def test_a_bad_report_is_named(small_run, tmp_path, edit, message):
    clone = _report_with(small_run, tmp_path, edit)
    with pytest.raises(BadReport) as info:
        format_report(clone)
    assert str(info.value) == os.path.join(clone, "report.txt") + message


_REPORTED = (*REPORT_METRICS, "final_wealth")


def _plain_report(raw: bytes):
    """report.txt read another way: split at universal newlines, each line of
    a metric a number, the last line of a key winning; None where that fails."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    values = {}
    for line in re.split(r"\r\n|\r|\n", text):
        key, colon, value = line.partition(":")
        if not colon or line.startswith("#"):
            continue
        key, value = key.strip(), value.strip()
        try:
            values[key] = float(value)
        except ValueError:
            if key in _REPORTED:
                return None
            values[key] = value
    return values if all(key in values for key in _REPORTED) else None


@given(damage=DAMAGE)
@settings(max_examples=200)
def test_a_mutated_report_reads_as_written_or_fails_by_name(small_run, tmp_path_factory,
                                                            damage):
    _, run_dir, artifacts = small_run
    raw = Path(run_dir, "report.txt").read_bytes()
    written = _plain_report(raw)
    assert [repr(written[k]) for k in _REPORTED] == [repr(artifacts.report.metrics[k])
                                                      for k in _REPORTED]
    path = tmp_path_factory.mktemp("mutate") / "report.txt"
    path.write_bytes(damaged(raw, damage))
    expected = _plain_report(path.read_bytes())
    try:
        values = read_report(str(path.parent))
    except BadReport:
        assert expected is None
    else:
        assert repr(values) == repr(expected)


# -- CLI ------------------------------------------------------------------------


def _cli(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "irrfactors.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cli_synth_writes_panel(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "panel.csv"
    result = _cli("synth", "--config", str(cfg_path), "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2 + 10 * 200      # stamp + header + I*T rows

    again = tmp_path / "panel2.csv"
    _cli("synth", "--config", str(cfg_path), "--out", str(again))
    assert out.read_bytes().split(b"\n", 1)[1] == again.read_bytes().split(b"\n", 1)[1]
    assert out.read_bytes() == again.read_bytes()


def test_cli_rejects_malformed_config(tmp_path):
    cfg_path = _write_config(tmp_path, SMALL_CONFIG + "\nnot.a.key = 3\n")
    result = _cli("synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 1
    assert "not.a.key" in result.stderr


def test_cli_names_a_config_byte_that_is_not_utf8(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(SMALL_CONFIG.encode() + b"# caf\xe9\n")
    lineno = SMALL_CONFIG.count("\n") + 1
    result = _cli("pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run"))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: {cfg_path}:{lineno}: byte 0xe9 at column 6 is not UTF-8"]


def test_cli_report_on_missing_dir(tmp_path):
    result = _cli("report", str(tmp_path / "nope"))
    assert result.returncode == 1
    assert "missing artifact" in result.stderr


@pytest.mark.parametrize("edit, message", REPORT_FAULTS)
def test_cli_report_names_a_bad_report(small_run, tmp_path, edit, message):
    clone = _report_with(small_run, tmp_path, edit)
    result = _cli("report", clone)
    assert result.returncode == 1
    assert result.stderr == f"error: {os.path.join(clone, 'report.txt')}{message}\n"


def test_cli_names_a_damaged_checkpoint(small_run, tmp_path):
    _, run_dir, _ = small_run
    clone = tmp_path / "damaged"
    shutil.copytree(run_dir, clone)
    ckpt = clone / "params_stock.npz"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    result = _cli("pipeline", "--config", str(_write_config(tmp_path)), "--out", str(clone))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: [stock-factors] checkpoint {ckpt} is damaged ("), line


def test_csv_pipeline_round_trip(tmp_path):
    # synth a panel, then run the pipeline from the CSV instead of inline
    cfg_path = _write_config(tmp_path)
    panel_csv = tmp_path / "panel.csv"
    assert _cli("synth", "--config", str(cfg_path), "--out", str(panel_csv)).returncode == 0
    csv_cfg = SMALL_CONFIG.replace("data.source = synthetic",
                                   "data.source = csv\ndata.csv_path = "
                                   + str(panel_csv))
    cfg = RunConfig.from_file(_write_config(tmp_path, csv_cfg, name="csv.cfg"))
    artifacts = run_pipeline(cfg, str(tmp_path / "csvrun"))
    assert artifacts.prediction.y_hat.shape[1] == 60

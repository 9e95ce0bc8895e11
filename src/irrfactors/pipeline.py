"""End-to-end orchestration: data, both factor stages, forecaster, backtest.

The stages run strictly in order, each one training on the periods before
the split boundary and then freezing its parameters:

1. stock factors   (cointegration attention on prices)
2. market factors  (contrastive + synchronism encoder on features)
3. forecaster      (temporal + relation model on factor-augmented windows)
4. backtest        (long-short hedge on the test-period forecasts)

Each stage checkpoints its parameters in the run directory; rerunning with
artifacts present reloads them instead of retraining, so deleting only the
downstream files reproduces them from the upstream checkpoints. All outputs
are stamped with the config hash and seed (plus a hash of the loaded panel
when it comes from a CSV), and a rerun with identical config and seed is
byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import forecaster as fc
from . import marketfactor as mf
from . import stockfactor as sf
from .autodiff import ParamSet
from .config import RunConfig
from .evaluation import BacktestReport, run_backtest
from .files import atomic_open, read_text
from .panel import (FeatureScaler, MarketPanel, PanelMismatch, compute_deltas,
                    compute_synchronism_labels, load_panel, write_csv)
from .synthetic import generate_synthetic

# report.txt's metrics in order, each with the label and format format_report shows
REPORT_METRICS = {
    "rmse": ("RMSE", "{:.4f}"), "mae": ("MAE", "{:.4f}"),
    "ic": ("IC", "{:.3f}"), "icir": ("ICIR", "{:.3f}"),
    "rank_ic": ("RankIC", "{:.3f}"), "rank_icir": ("RankICIR", "{:.3f}"),
    "ar": ("AR", "{:.3f}"), "av": ("AV", "{:.3f}"), "sr": ("SR", "{:.3f}"),
    "mdd": ("MDD", "{:.3f}"), "cr": ("CR", "{:.3f}"),
}


class PipelineStageError(RuntimeError):
    """A stage failed; carries the stage name for the CLI exit message."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage, self.cause = stage, cause


class MissingArtifact(FileNotFoundError):
    """A required run-directory file is absent."""


class BadReport(ValueError):
    """A report.txt that does not decode, or lacks a metric or holds a non-number there."""


@dataclass
class TrainedArtifacts:
    """Everything the frozen pipeline needs to map a panel to predictions."""

    panel: MarketPanel
    train_end: int
    scaler: FeatureScaler
    coint_params: ParamSet
    market_params: ParamSet
    fc_params: ParamSet
    fc_hyper: fc.ForecasterHyper
    prediction: fc.Prediction
    report: BacktestReport


@contextmanager
def _stage(name: str):
    """Any exception but a PipelineStageError leaves the block as one naming the stage."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as e:
        raise PipelineStageError(name, e) from e


def _load_data(cfg: RunConfig) -> tuple[MarketPanel, int, FeatureScaler]:
    if cfg["data.source"] == "csv":
        panel = load_panel(cfg["data.csv_path"])
    else:
        panel = generate_synthetic(cfg.synthetic_spec())
    boundary = cfg["split.train_end"]
    train_end = panel.resolve_period(int(boundary) if boundary.lstrip("-").isdigit()
                                     else boundary)
    window = cfg["model.window"]
    if not window + 10 <= train_end < panel.n_periods:
        raise ValueError(
            f"train_end {train_end} leaves no room for training or testing "
            f"(panel has {panel.n_periods} periods, window {window})")
    if cfg["data.normalize_features"]:
        scaler = FeatureScaler.fit(panel.features, train_end)
    else:
        scaler = FeatureScaler.identity(panel.n_stocks, panel.n_features)
    return panel, train_end, scaler


def _run_stamp(cfg: RunConfig, panel: MarketPanel) -> str:
    """Config hash and seed; a CSV-sourced run also hashes the loaded panel,
    so that overwriting the CSV invalidates the checkpoints."""
    stamp = cfg.stamp()
    if cfg["data.source"] == "csv":
        h = hashlib.sha256()
        for names in (panel.stock_ids, panel.periods, panel.feature_names):
            h.update("\n".join(names).encode("utf-8") + b"\0")
        for array in (panel.features, panel.prices):
            h.update(np.ascontiguousarray(array, dtype=np.float64))
        stamp += f" data_hash={h.hexdigest()[:12]}"
    return stamp


def _trained(run_dir: str, name: str, stamp: str, init, train) -> ParamSet:
    """A stage's parameters: loaded from params_<name>.npz when it exists (into
    init()'s set), otherwise from train() and then saved there."""
    ckpt = os.path.join(run_dir, f"params_{name}.npz")
    if os.path.exists(ckpt):
        params = init()
        params.load(ckpt, stamp)
    else:
        params = train()
        params.save(ckpt, stamp)
    return params


def run_pipeline(cfg: RunConfig, run_dir: str | None = None) -> TrainedArtifacts:
    """Execute all stages and write the run artifacts.

    Writes factors.csv, market_repr.csv, labels.csv, predictions.csv,
    series.csv and report.txt into the run directory, plus per-stage
    parameter checkpoints.
    """
    run_dir = cfg["out_dir"] if run_dir is None else run_dir
    os.makedirs(run_dir, exist_ok=True)

    with _stage("data"):
        panel, train_end, scaler = _load_data(cfg)
    stamp = _run_stamp(cfg, panel)
    feats = scaler.transform(panel.features)

    with _stage("stock-factors"):
        hyper = cfg.build("factors")
        coint_params = _trained(run_dir, "stock", stamp, lambda: sf.init_params(panel.n_stocks),
                                lambda: sf.train_stock_factors(panel.prices, hyper, train_end))
        factors = sf.residual(panel.prices, coint_params)
    I, T = panel.n_stocks, panel.n_periods
    sids = np.array(panel.stock_ids, dtype=object)
    dates = np.array(panel.periods, dtype=object)
    write_csv(os.path.join(run_dir, "factors.csv"), ["stock_id", "date", "u", "p_tilde"],
              [sids.repeat(T), np.tile(dates, I), factors.u.ravel(), factors.p_tilde.ravel()],
              stamp)
    u = factors.u
    del factors                     # p_tilde's last reader was factors.csv

    # Synchronism labels per period: the market stage's prediction targets,
    # also written to labels.csv for auditing.
    sync = cfg.build("sync")
    deltas = compute_deltas(panel.returns, sync)
    labels = compute_synchronism_labels(deltas, sync)
    sum_delta = deltas.sum(axis=0)
    del deltas
    with _stage("market-factors"):
        hyper = cfg.build("market")
        market_params = _trained(run_dir, "market", stamp,
                                 lambda: mf.init_params(panel.n_stocks, panel.n_features, hyper),
                                 lambda: mf.train_market_factors(feats, labels, hyper, train_end))
        # a forecaster loaded from its checkpoint reads summary rows train_end - 1 on
        loads = os.path.exists(os.path.join(run_dir, "params_forecaster.npz"))
        mseries = mf.market_series(feats, market_params, hyper.window,
                                   first=train_end - 1 if loads else 0)
    known = ~np.isnan(mseries.m).any(axis=1)
    write_csv(os.path.join(run_dir, "market_repr.csv"),
              ["date"] + [f"m_{j + 1}" for j in range(mseries.m.shape[1])],
              [dates[known], *mseries.m[known].T], stamp)
    names = np.array([label.name for label in labels], dtype=object)
    write_csv(os.path.join(run_dir, "labels.csv"), ["date", "sum_delta", "label"],
              [dates, sum_delta, names], stamp)

    with _stage("forecaster"):
        fc_hyper = cfg.build("forecast")
        fc_params = _trained(run_dir, "forecaster", stamp,
                             lambda: fc.init_params(panel.n_features, fc_hyper),
                             lambda: fc.train_forecaster(feats, panel.returns, u,
                                                         mseries, fc_hyper, train_end))
        periods = list(range(train_end, T))
        y_hat = fc.predict_periods(fc_params, fc_hyper, feats, u, mseries, periods)
        del feats, mseries, u       # the last readers of the panel-sized inputs
        prediction = fc.Prediction(periods, y_hat, panel.returns[:, periods])
    tested = dates[prediction.periods]
    write_csv(os.path.join(run_dir, "predictions.csv"), ["date", "stock_id", "y_hat", "y_true"],
              [tested.repeat(I), np.tile(sids, len(tested)), prediction.y_hat.T.ravel(),
               prediction.y_true.T.ravel()], stamp)

    with _stage("backtest"):
        report = run_backtest(prediction.y_hat, prediction.y_true, cfg.build("portfolio"))
    write_csv(os.path.join(run_dir, "series.csv"),
              ["date", "y_str", "net_return", "cumulative_wealth"],
              [tested, report.gross, report.net, report.wealth], stamp)
    _write_report(os.path.join(run_dir, "report.txt"), cfg, panel, train_end,
                  prediction, report, stamp)

    return TrainedArtifacts(
        panel=panel, train_end=train_end, scaler=scaler,
        coint_params=coint_params, market_params=market_params,
        fc_params=fc_params, fc_hyper=fc_hyper,
        prediction=prediction, report=report)


def predict_with_artifacts(artifacts: TrainedArtifacts, panel: MarketPanel,
                           periods) -> np.ndarray:
    """Frozen-pipeline forecasts for `periods` of a (possibly modified) panel.

    Re-derives the factor series from the given panel with the trained
    parameters, so the output for period t depends only on panel data at
    periods <= t - 1. The factor parameters are bound to stock rows, so the
    panel must list the training panel's stocks and features in the same
    order; PanelMismatch is raised otherwise.
    """
    trained = artifacts.panel
    if list(panel.stock_ids) != list(trained.stock_ids):
        raise PanelMismatch("panel stock_ids differ from the training panel's "
                            "(names or order)")
    if tuple(panel.feature_names) != tuple(trained.feature_names):
        raise PanelMismatch(f"panel features {tuple(panel.feature_names)} differ from "
                            f"the training panel's {tuple(trained.feature_names)}")
    feats = artifacts.scaler.transform(panel.features)
    factors = sf.residual(panel.prices, artifacts.coint_params)
    periods = np.asarray(periods, dtype=np.int64)
    # A forecast for period t reads the factor rows of t - 1 only.
    mseries = mf.market_series(feats, artifacts.market_params, artifacts.fc_hyper.window,
                               rows=periods - 1)
    return fc.predict_periods(artifacts.fc_params, artifacts.fc_hyper, feats,
                              factors.u, mseries, periods)


# -- artifact files -----------------------------------------------------------


def _write_report(path, cfg: RunConfig, panel, train_end: int,
                  prediction: fc.Prediction, report: BacktestReport, stamp: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {stamp}\n")
        fh.write(f"n_stocks: {panel.n_stocks}\n")
        fh.write(f"n_periods: {panel.n_periods}\n")
        fh.write(f"train_end: {train_end}\n")
        fh.write(f"n_test_periods: {len(prediction.periods)}\n")
        fh.write(f"ablation: {cfg['ablation']}\n")
        for key in (*REPORT_METRICS, "final_wealth"):
            fh.write(f"{key}: {report.metrics[key]!r}\n")
        fh.write(f"flags: {','.join(report.flags) if report.flags else 'none'}\n")


def read_report(run_dir: str) -> dict:
    """report.txt as a dict of strings/floats. A byte that is not UTF-8, or a metric
    (REPORT_METRICS, final_wealth) missing or not a number, raises BadReport."""
    path = os.path.join(run_dir, "report.txt")
    out = {}
    for lineno, line in enumerate(io.StringIO(read_text(path, BadReport), newline=None), 1):
        if line.startswith("#") or ":" not in line:
            continue
        key, value = (part.strip() for part in line.split(":", 1))
        try:
            out[key] = float(value)
        except ValueError:
            if key in REPORT_METRICS or key == "final_wealth":
                raise BadReport(f"{path}:{lineno}: {key} {value!r} is not a number") from None
            out[key] = value
    missing = [key for key in (*REPORT_METRICS, "final_wealth") if key not in out]
    if missing:
        raise BadReport(f"{path}: no line for {', '.join(missing)}")
    return out


def format_report(run_dir: str) -> str:
    """Human-readable metric block for a completed run directory."""
    for name in ("predictions.csv", "series.csv", "report.txt"):
        if not os.path.exists(os.path.join(run_dir, name)):
            raise MissingArtifact(f"missing artifact: {os.path.join(run_dir, name)}")
    values = read_report(run_dir)
    return "\n".join([f"run: {run_dir}"] + [f"{name:<10}{fmt.format(values[key])}"
                                            for key, (name, fmt) in REPORT_METRICS.items()])

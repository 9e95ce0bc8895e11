"""The three benchmark workloads: train-demo, score-frozen and resume-wide.

A workload sets up its inputs from the seed, then offers rounds of ops. The
runner times only `op`; `prepare` and `check` run outside the timed region.
`check` raises CheckFailed when an output is wrong, and `corrupt` damages an
op's output on purpose so the benchmark's own tests can see that caught.
Only the public API is called: `run_pipeline`, `predict_with_artifacts`,
`write_panel_csv`, `RunConfig`, `generate_synthetic` and `MarketPanel`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import subprocess
import sys

import numpy as np

import irrfactors
from irrfactors.panel import write_panel_csv
from irrfactors.synthetic import BadSpec
from oracle import CheckFailed, check_finite_cells, check_report

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACTS = ("factors.csv", "market_repr.csv", "labels.csv", "predictions.csv",
             "series.csv", "report.txt")
CHECKPOINTS = ("params_stock.npz", "params_market.npz", "params_forecaster.npz")


def _config(name: str, *overrides: dict) -> irrfactors.RunConfig:
    cfg = irrfactors.RunConfig.from_file(os.path.join(HERE, name))
    values = dict(cfg.values)
    for more in overrides:
        values.update(more)
    return irrfactors.RunConfig(values=values, plants=cfg.plants)


def _valid_seeds(cfg, start: int):
    """Seeds from `start` on whose synthetic market the generator accepts.

    On a few percent of seeds the planted markets' prices reach zero and the
    generator raises BadSpec; those seeds are skipped, not run as ops.
    """
    for seed in itertools.count(start):
        try:
            irrfactors.generate_synthetic(cfg.with_overrides(seed=seed).synthetic_spec())
        except BadSpec:
            continue
        yield seed


def _train(cfg, run_dir: str, csv_path: str | None = None) -> None:
    if csv_path is not None:
        write_panel_csv(irrfactors.generate_synthetic(cfg.synthetic_spec()), csv_path)
    shutil.rmtree(run_dir, ignore_errors=True)
    irrfactors.run_pipeline(cfg, run_dir)


def _train_in_child(cfg, run_dir: str, csv_path: str | None = None) -> None:
    """Train into run_dir in a child process, so the training's memory peak
    stays out of this process's peak RSS."""
    cfg_path = run_dir + ".cfg"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.canonical_text())
    src = os.path.dirname(os.path.dirname(os.path.abspath(irrfactors.__file__)))
    subprocess.run([sys.executable, os.path.abspath(__file__), cfg_path, run_dir]
                   + ([csv_path] if csv_path else []),
                   check=True, env={**os.environ, "PYTHONPATH": src})


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bump_first_forecast(run_dir) -> None:
    """Add one percent to the first forecast in predictions.csv."""
    path = os.path.join(run_dir, "predictions.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    date, sid, y_hat, y_true = lines[row].rstrip("\n").split(",")
    lines[row] = f"{date},{sid},{float(y_hat) + 1.0!r},{y_true}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _portfolio(cfg) -> tuple:
    return (cfg["portfolio.n_fraction"], cfg["portfolio.cost_rate"],
            cfg["portfolio.trading_days"])


class Workload:
    name = ""
    spans: tuple = ()          # layer spans that must fire on every traced run
    run_dir: str | None = None  # where ops write files, if they do

    def __init__(self, out_dir: str, seed: int, smoke: bool):
        self.out_dir, self.seed, self.smoke = out_dir, seed, smoke

    def setup(self) -> None: ...
    def check_setup(self) -> None: ...
    def round(self, r: int) -> list: ...
    def prepare(self, item) -> None: ...
    def op(self, item): ...
    def check(self, item, result) -> None: ...
    def corrupt(self, item, result): ...
    def finish(self) -> None: ...


class TrainDemo(Workload):
    """Train the whole pipeline on the demo planted market, one seed per op."""

    name = "train-demo"
    spans = ("pipeline.run_pipeline", "synthetic.generate", "stockfactor.train",
             "stockfactor.residual", "marketfactor.train", "marketfactor.market_series",
             "forecaster.train", "forecaster.predict_periods", "forecaster.predict",
             "autodiff.backward", "autodiff.adam", "evaluation.average_ranks",
             "evaluation.run_backtest")
    SMOKE = {"synthetic.n_periods": 160, "split.train_end": "120", "factors.steps": 20,
             "market.epochs": 1, "forecast.max_epochs": 1, "forecast.patience": 1}

    def setup(self):
        self.cfg = _config("train_demo.cfg", self.SMOKE if self.smoke else {})
        self.run_dir = os.path.join(self.out_dir, "run")
        self.op_seeds = _valid_seeds(self.cfg, self.seed * 1000)
        # A warm-up training on a short panel runs every code path once.
        warm = _config("train_demo.cfg", self.SMOKE)
        _train(warm.with_overrides(seed=next(_valid_seeds(warm, self.seed * 1000))),
               self.run_dir)
        self.rank_ics = []

    def round(self, r):
        return [next(self.op_seeds)]

    def prepare(self, op_seed):
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def op(self, op_seed):
        return irrfactors.run_pipeline(self.cfg.with_overrides(seed=op_seed), self.run_dir)

    def corrupt(self, op_seed, artifacts):
        _bump_first_forecast(self.run_dir)
        return artifacts

    def check(self, op_seed, artifacts):
        for name in ARTIFACTS:
            check_finite_cells(os.path.join(self.run_dir, name))
        metrics = check_report(self.run_dir, *_portfolio(self.cfg))
        self.rank_ics.append(metrics["rank_ic"])

    def finish(self):
        mean = float(np.mean(self.rank_ics))
        print(f"mean RankIC over {len(self.rank_ics)} seeds: {mean:.4f}", file=sys.stderr)
        # The planted market is learnable at the benchmark's budgets, not at smoke size.
        if not self.smoke and not mean > 0:
            raise CheckFailed(f"mean RankIC {mean!r} over {len(self.rank_ics)} seeds "
                              f"is not positive")


class ScoreFrozen(Workload):
    """Frozen forecasts on panels whose latest periods are re-drawn."""

    name = "score-frozen"
    spans = ("stockfactor.residual", "marketfactor.market_series",
             "forecaster.predict_periods", "forecaster.predict")
    TRAIN = {"factors.steps": 100, "market.epochs": 2, "forecast.max_epochs": 1,
             "forecast.patience": 1}
    SMOKE = {"synthetic.n_periods": 160, "split.train_end": "120", "factors.steps": 20,
             "market.epochs": 1}
    REDRAWN_PER_ROUND = 3

    def setup(self):
        cfg = _config("train_demo.cfg", self.TRAIN, self.SMOKE if self.smoke else {})
        cfg = cfg.with_overrides(seed=next(_valid_seeds(cfg, self.seed * 1000)))
        run_dir = os.path.join(self.out_dir, "trained")
        _train_in_child(cfg, run_dir)
        # Resuming from the checkpoints gives the trained artifacts in memory.
        self.artifacts = irrfactors.run_pipeline(cfg, run_dir)
        panel = self.artifacts.panel
        # The held-out span plus the next, unobserved period.
        self.periods = np.arange(self.artifacts.train_end, panel.n_periods + 1)

    def check_setup(self):
        self.reference = irrfactors.predict_with_artifacts(
            self.artifacts, self.artifacts.panel, self.periods)
        if not np.array_equal(self.reference[:, :-1], self.artifacts.prediction.y_hat):
            raise CheckFailed("frozen forecasts differ from the trained run's test predictions")
        if not np.isfinite(self.reference).all():
            raise CheckFailed("non-finite frozen forecast")

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        first = int(self.periods[1])
        starts = rng.integers(first, self.artifacts.panel.n_periods, self.REDRAWN_PER_ROUND)
        return [(None, self.artifacts.panel)] + [
            (int(t0), self._redraw(int(t0), np.random.default_rng([self.seed, r, k])))
            for k, t0 in enumerate(starts)]

    def _redraw(self, t0: int, rng) -> "irrfactors.MarketPanel":
        """The panel with every period from t0 on re-drawn as a new random walk."""
        panel = self.artifacts.panel
        prices = panel.prices.copy()
        for t in range(t0, panel.n_periods):
            prices[:, t] = prices[:, t - 1] * (1.0 + rng.normal(0.0, 0.015, panel.n_stocks))
        feats = panel.features.copy()
        volume = panel.feature_names.index("volume")
        moved = [j for j in range(panel.n_features) if j != volume]
        feats[:, t0:, moved] *= (prices[:, t0:] / panel.prices[:, t0:])[:, :, None]
        feats[:, t0:, volume] *= np.exp(rng.normal(0.0, 0.3, prices[:, t0:].shape))
        return irrfactors.MarketPanel.from_prices(panel.stock_ids, panel.periods, feats,
                                                  prices, panel.feature_names)

    def op(self, item):
        return irrfactors.predict_with_artifacts(self.artifacts, item[1], self.periods)

    def corrupt(self, item, y_hat):
        y_hat = y_hat.copy()
        y_hat[0, 0] += 1e-6
        return y_hat

    def check(self, item, y_hat):
        t0 = item[0]
        if y_hat.shape != self.reference.shape or not np.isfinite(y_hat).all():
            raise CheckFailed("forecasts have the wrong shape or are not finite")
        if t0 is None:
            if not np.array_equal(y_hat, self.reference):
                raise CheckFailed("forecasts on the unmodified panel changed")
            return
        # Causality: forecasts for periods up to t0 use data before t0 only.
        kept = self.periods <= t0
        if not np.array_equal(y_hat[:, kept], self.reference[:, kept]):
            raise CheckFailed(f"re-drawing periods from {t0} changed earlier forecasts")
        after = self.periods == t0 + 1
        if np.array_equal(y_hat[:, after], self.reference[:, after]):
            raise CheckFailed(f"re-drawing periods from {t0} left the forecast for {t0 + 1}")


class ResumeWide(Workload):
    """Rerun a trained pipeline from its CSV panel and its checkpoints."""

    name = "resume-wide"
    spans = ("pipeline.run_pipeline", "panel.load_panel", "stockfactor.residual",
             "marketfactor.market_series", "forecaster.predict_periods",
             "forecaster.predict", "evaluation.run_backtest", "evaluation.average_ranks")
    SMOKE = {"synthetic.n_stocks": 60, "synthetic.n_periods": 120, "split.train_end": "90",
             "factors.steps": 20}

    def setup(self):
        self.csv_path = os.path.join(self.out_dir, "panel.csv")
        self.run_dir = os.path.join(self.out_dir, "run")
        size = self.SMOKE if self.smoke else {}
        seed = next(_valid_seeds(_config("resume_wide.cfg", size), self.seed * 1000))
        self.cfg = _config("resume_wide.cfg", size, {
            "seed": seed, "data.source": "csv", "data.csv_path": self.csv_path})
        _train_in_child(self.cfg, self.run_dir, self.csv_path)

    def check_setup(self):
        self.panel = irrfactors.generate_synthetic(self.cfg.synthetic_spec())
        check_report(self.run_dir, *_portfolio(self.cfg))
        self.hashes = {name: _sha256(os.path.join(self.run_dir, name))
                       for name in ARTIFACTS + CHECKPOINTS}

    def _check_panel(self, loaded):
        same = (loaded.stock_ids == self.panel.stock_ids
                and loaded.periods == self.panel.periods
                and np.array_equal(loaded.features, self.panel.features)
                and np.array_equal(loaded.prices, self.panel.prices))
        if not same:
            raise CheckFailed("the panel loaded from CSV differs from the generated one")

    def round(self, r):
        return [r]

    def prepare(self, item):
        for name in os.listdir(self.run_dir):
            if not (name.startswith("params_") and name.endswith(".npz")):
                os.remove(os.path.join(self.run_dir, name))

    def op(self, item):
        return irrfactors.run_pipeline(self.cfg, self.run_dir)

    def corrupt(self, item, artifacts):
        _bump_first_forecast(self.run_dir)
        return artifacts

    def check(self, item, artifacts):
        self._check_panel(artifacts.panel)
        for name, digest in self.hashes.items():
            if _sha256(os.path.join(self.run_dir, name)) != digest:
                raise CheckFailed(f"{name} differs from the one the training run wrote")


WORKLOADS = {cls.name: cls for cls in (TrainDemo, ScoreFrozen, ResumeWide)}


if __name__ == "__main__":
    # The child of _train_in_child: workloads.py CONFIG RUN_DIR [CSV_PATH]
    _train(irrfactors.RunConfig.from_file(sys.argv[1]), *sys.argv[2:])

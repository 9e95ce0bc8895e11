"""Span tracing of the pipeline's layers, installed from outside the program.

Each wrapper replaces a function under the name its caller looks up: the
pipeline calls `load_panel`, `generate_synthetic` and `run_backtest` through
names it imported, and the forecaster calls `average_ranks` the same way, so
those are patched in the importing module. A patch whose target is gone
raises, so a later rename cannot quietly zero a layer.

A span records its name, its parent span and its start and end; spans stay
in memory and are folded into per-name totals after each op.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute as the caller looks it up, span name)
PATCHES = (
    ("irrfactors", "run_pipeline", "pipeline.run_pipeline"),
    ("irrfactors.pipeline", "generate_synthetic", "synthetic.generate"),
    ("irrfactors.pipeline", "load_panel", "panel.load_panel"),
    ("irrfactors.pipeline", "run_backtest", "evaluation.run_backtest"),
    ("irrfactors.stockfactor", "train_stock_factors", "stockfactor.train"),
    ("irrfactors.stockfactor", "residual", "stockfactor.residual"),
    ("irrfactors.marketfactor", "train_market_factors", "marketfactor.train"),
    ("irrfactors.marketfactor", "market_series", "marketfactor.market_series"),
    ("irrfactors.forecaster", "train_forecaster", "forecaster.train"),
    ("irrfactors.forecaster", "predict_periods", "forecaster.predict_periods"),
    ("irrfactors.forecaster", "predict", "forecaster.predict"),
    ("irrfactors.forecaster", "average_ranks", "evaluation.average_ranks"),
    ("irrfactors.evaluation", "average_ranks", "evaluation.average_ranks"),
    ("irrfactors.autodiff", "Tape.backward", "autodiff.backward"),
    ("irrfactors.autodiff", "adam_step", "autodiff.adam"),
)

# Spans that own the backward and Adam calls made inside them.
STAGES = {"stockfactor.train": "stockfactor", "marketfactor.train": "marketfactor",
          "forecaster.train": "forecaster"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or None, start, end]
        self._open: list[int] = []
        self.totals = defaultdict(float)   # "<span>.ms", "<span>.self_ms", "<span>.calls", ...
        self.fired: set[str] = set()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._open[-1] if self._open else None,
                               time.perf_counter(), None])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][3] = time.perf_counter()
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        restore = []
        try:
            for module_name, attr, span in PATCHES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if leaf not in vars(owner):
                    raise AttributeError(f"trace target {module_name}.{attr} does not exist")
                original = vars(owner)[leaf]
                restore.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(span, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)
            self.fold()

    def fold(self) -> None:
        """Add the recorded spans to the totals and forget them."""
        child_ms = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        for index, (name, parent, start, end) in enumerate(self.spans):
            ms = (end - start) * 1e3
            self.fired.add(name)
            self.totals[f"{name}.ms"] += ms
            self.totals[f"{name}.self_ms"] += ms - child_ms[index]
            self.totals[f"{name}.calls"] += 1
            stage = self._stage_of(parent)
            if stage is not None:
                self.totals[f"{name}.ms@{stage}"] += ms
        self.spans.clear()

    def _stage_of(self, index):
        while index is not None:
            name, parent = self.spans[index][:2]
            if name in STAGES:
                return STAGES[name]
            index = parent
        return None

"""Closed-loop benchmark of the irrfactors pipeline, one workload per process.

    python3 perfbench/run.py --workload train-demo --seed 1 --seconds 30 --trace 0

One client runs whole rounds of ops back to back until `--seconds` have
passed, checking every op's outputs between ops, outside the timed region.
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of BENCHMARK.json with `--trace 1`.
`--smoke` shrinks every input for the benchmark's own tests, and
`--corrupt` damages the first op's output so that it must count as failed.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

from oracle import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3   # set-up repeats per run; setup_s is their median
_REF_M = np.random.default_rng(0).random((128, 128))


def _per_layer(totals: dict, n_ops: int, bytes_written: int, overhead_ms: float) -> dict:
    """Per-op layer metrics from the tracer's totals over `n_ops` traced ops."""
    def ms(key):
        return {"value": totals.get(key, 0.0) / n_ops, "unit": "ms"}

    def count(key):
        return {"value": totals.get(key, 0) / n_ops, "unit": "count"}

    metrics = {
        "synthetic.generate_ms": ms("synthetic.generate.ms"),
        "stockfactor.train_ms": ms("stockfactor.train.ms"),
        "marketfactor.train_ms": ms("marketfactor.train.ms"),
        "forecaster.train_ms": ms("forecaster.train.ms"),
        "forecaster.train_self_ms": ms("forecaster.train.self_ms"),
        "autodiff.backward_ms": ms("autodiff.backward.ms"),
        "autodiff.backward_calls": count("autodiff.backward.calls"),
        "autodiff.adam_ms": ms("autodiff.adam.ms"),
        "autodiff.adam_calls": count("autodiff.adam.calls"),
    }
    for stage in ("stockfactor", "marketfactor", "forecaster"):
        metrics[f"{stage}.backward_ms"] = ms(f"autodiff.backward.ms@{stage}")
        metrics[f"{stage}.adam_ms"] = ms(f"autodiff.adam.ms@{stage}")
    metrics.update({
        "stockfactor.residual_ms": ms("stockfactor.residual.ms"),
        "marketfactor.market_series_ms": ms("marketfactor.market_series.ms"),
        "forecaster.predict_periods_ms": ms("forecaster.predict_periods.ms"),
        "forecaster.predict_calls": count("forecaster.predict.calls"),
        "panel.load_panel_ms": ms("panel.load_panel.ms"),
        "pipeline.self_ms": ms("pipeline.run_pipeline.self_ms"),
        "pipeline.bytes_written": {"value": bytes_written / n_ops, "unit": "bytes"},
        "evaluation.run_backtest_ms": ms("evaluation.run_backtest.ms"),
        "evaluation.average_ranks_calls": count("evaluation.average_ranks.calls"),
        "evaluation.average_ranks_ms": ms("evaluation.average_ranks.ms"),
        "trace.overhead_ms": {"value": overhead_ms, "unit": "ms"},
    })
    return metrics


def _files(run_dir) -> dict:
    if run_dir is None or not os.path.isdir(run_dir):
        return {}
    out = {}
    for entry in os.scandir(run_dir):
        st = entry.stat()
        out[entry.name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def _bytes_written(before: dict, after: dict) -> int:
    return sum(sig[1] for name, sig in after.items() if before.get(name) != sig)


def _reference_ms() -> float:
    """Wall time of a fixed loop: interpreter work, then 128 x 128 matmuls.

    Each op is timed in units of this loop, run just before and just after
    it. Co-tenant load on a shared host slows the loop and the op alike, so
    the ratio holds steady where wall times drift by a third between runs.
    The two halves take about equal time; of the mixes tried, this one's
    ratio to each workload's op moved least with the host's load.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    for _ in range(60):
        _REF_M @ _REF_M
    return (time.perf_counter() - start) * 1e3


def _time_ms(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1e3


def run(workload, seconds: float, trace: bool, corrupt: bool) -> dict:
    setup_s = []
    for _ in range(SETUPS):
        _, ms = _time_ms(workload.setup)
        setup_s.append(ms / 1e3)
    workload.check_setup()

    tracer = Tracer() if trace else None
    op_ms, ref_ms, overhead_ms = [], [], []
    attempted = failed = traced_ops = 0
    bytes_written = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for item in workload.round(r):
            # A traced run does each op untraced, then traced, to pair them.
            pair = []
            for traced in ((False, True) if trace else (False,)):
                attempted += 1
                try:
                    workload.prepare(item)
                    if traced:
                        traced_ops += 1
                        before = _files(workload.run_dir)
                        with tracer.installed():
                            result, ms = _time_ms(workload.op, item)
                        bytes_written += _bytes_written(before, _files(workload.run_dir))
                    elif trace:
                        result, ms = _time_ms(workload.op, item)
                    else:
                        ref = _reference_ms()
                        result, ms = _time_ms(workload.op, item)
                        ref = (ref + _reference_ms()) / 2
                    if corrupt and attempted == 1:
                        result = workload.corrupt(item, result)
                    workload.check(item, result)
                except Exception:
                    failed += 1
                    print(f"op {attempted} failed:", file=sys.stderr)
                    traceback.print_exc()
                    continue
                pair.append(ms)
                if not trace:
                    op_ms.append(ms)
                    ref_ms.append(ref)
            if len(pair) == 2:
                overhead_ms.append(pair[1] - pair[0])
        r += 1

    correct = True
    try:
        workload.finish()
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    if trace:
        missing = [s for s in workload.spans if s not in tracer.fired]
        if missing:
            raise RuntimeError(f"spans never fired on {workload.name}: {missing}")
        metrics = _per_layer(tracer.totals, traced_ops, bytes_written,
                             statistics.median(overhead_ms))
    else:
        print(f"setup_s {setup_s}; op wall ms: min {min(op_ms):.1f} "
              f"p50 {statistics.median(op_ms):.1f}; reference ms p50 "
              f"{statistics.median(ref_ms):.2f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_p50_ref": {"value": statistics.median(o / f for o, f in zip(op_ms, ref_ms)),
                           "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first op's output; it must count as failed")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "irrfactors", "__init__.py")):
        print(f"no irrfactors sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        workload = WORKLOADS[args.workload](out_dir, args.seed, args.smoke)
        result = run(workload, args.seconds, bool(args.trace), args.corrupt)
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        result = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every committed BENCH_*.json carries the fields a bench record needs.

A record states what changed, on which machine and how it was measured; it
gives parent and change medians of each end-to-end metric on each workload
of BENCHMARK.json, the Tier-1 wall time, and the demo RankIC, SR and final
wealth. The bench's tracer finds every function it patches.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_has_the_required_fields(path):
    record = json.loads(path.read_text())
    for key in ("change", "machine", "method"):
        assert isinstance(record.get(key), str) and record[key], f"{path.name}: {key}"
    workloads, metrics = _benchmark()
    for workload in workloads:
        measured = record["end_to_end"][workload]["metrics"]
        for metric in metrics:
            for side in ("parent", "change"):
                median = measured[metric][side]["median"]
                assert _is_number(median), f"{path.name}: {workload} {metric} {side}"
    assert _is_number(record["tier1"]["change"]["wall_s"]), f"{path.name}: tier1"
    for key in ("rank_ic", "sr", "final_wealth"):
        assert _is_number(record["demo"][key]), f"{path.name}: demo {key}"


def test_the_bench_tracer_resolves_every_target():
    # perfbench/tracing.py patches its targets by name and raises, inside a
    # bench run only, when one is gone; here a rename fails the suite
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from irrfactors import autodiff as ad
    backward = ad.Tape.backward
    with tracing.Tracer().installed():
        assert ad.Tape.backward is not backward
    assert ad.Tape.backward is backward

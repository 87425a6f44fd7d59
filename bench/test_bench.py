"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the repository:

    python -m pytest -q bench/test_bench.py

Each workload is run once untraced and twice traced on one seed, each run
as short as the benchmark allows: one untraced pass, followed in a traced
run by one traced pass. The whole file takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("intlinalg.reduce_calls", "intlinalg.kernel_calls", "pipedreams.trace_calls",
         "intlinalg.reduce_distinct_frac", "intlinalg.transform_bits_max")
SEED = 7


def measure(workload: str, trace: bool) -> dict:
    workdir = run.WORK_DIR / f"test-{workload}"
    try:
        return run.measure(workload, SEED, 0, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    return request.param, measure(request.param, True), measure(request.param, True)


def test_spec_names_match_the_code():
    assert sorted(WORKLOADS) == sorted(workloads.GENERATORS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    outcome = measure(workload, False)
    assert outcome["failed"] == 0, outcome["notes"]
    metrics = outcome["metrics"]
    for spec in SPEC["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"]
        assert math.isfinite(value) and value > 0, spec["name"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_runs_repeat_counts_and_cover_the_wall_time(traced_pair):
    workload, first, second = traced_pair
    assert first["failed"] == 0 and second["failed"] == 0, first["notes"] + second["notes"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    # Layer self times plus the time outside every span add up to the pass.
    for outcome in (first, second):
        times = sum(value for name, (value, unit) in outcome["metrics"].items()
                    if unit == "s")
        assert times == pytest.approx(sum(outcome["traced_walls"]) / len(outcome["traced_walls"]),
                                      rel=1e-6)
    if workload == "sweep":
        # 7 normal forms of M and 2 of extend(M) per board: the tracer sees
        # calls made inside the program, not only the ones the bench makes.
        boards = workloads.SWEEP_COMMANDS * workloads.SWEEP_BOARDS
        assert first["metrics"]["intlinalg.reduce_calls"][0] == 9 * boards
        assert first["metrics"]["intlinalg.reduce_distinct_frac"][0] == pytest.approx(2 / 9)


@pytest.mark.parametrize("count", [40, 41, 47, 56, 61])
def test_tail_percentile_has_ten_ops_beyond_it(count):
    def beyond(pct):
        return sum(1 for i in range(count) if i > pct / 100 * (count - 1))

    pct = run.tail_percentile(count)
    assert beyond(pct) >= run.TAIL_BEYOND > beyond(pct + 1)

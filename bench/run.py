"""The pideg benchmark: one closed-loop caller, one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload diagram --seed 1 --seconds 20 --trace 0

A run imports pideg from ``src/``, generates the workload's inputs from the
seed, and then repeats whole passes over the inputs in one thread: each
operation starts when the previous one has returned. Commands go through
``pideg.cli.main(argv)`` in this process, matrices through
``pideg.pi_degree_qas``. Each pass imports pideg afresh, so no state of
the program carries over from one pass to the next. Passes repeat until
the next one would end after ``--seconds``. Every answer is checked after
its pass, outside the timed region.

The host's speed drifts by up to half over seconds to minutes, so an
untraced pass also times a fixed reference kernel (``speed.py``) between
every two operations. An operation's latency is the median over the
run's passes of its time divided by the kernel's time next to it, scaled
to ms at the kernel's reference speed. The end-to-end metrics are taken
over these per-operation latencies; the unscaled wall-clock figures are
printed on the line before the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics instead; the
spans are written to ``.bench_work/`` when the run ends. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from speed import REFERENCE_MS, reference_seconds  # noqa: E402

SETUP_REPEATS = 9
# op_ms_tail is the highest percentile with at least TAIL_BEYOND ops beyond it.
TAIL_BEYOND = 10


def load_program():
    """Import pideg from the checkout, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "pideg" or n.startswith("pideg.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    lib = importlib.import_module("pideg")
    importlib.import_module("pideg.cli")
    return lib


def program_args(lib, ops) -> list:
    """The library-call arguments of the ops, made with this import of pideg."""
    return [lib.SkewIntMatrix(op.matrix) for op in ops if op.matrix]


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and generate the inputs; returns (seconds, lib, ops)."""
    start = time.perf_counter()
    lib = load_program()
    ops = workloads.GENERATORS[workload](seed, workdir)
    program_args(lib, ops)
    return time.perf_counter() - start, lib, ops


def run_op(lib, op, matrix):
    """Run one operation: a PiDegree for a matrix, else (exit status, stdout)."""
    if matrix is not None:
        return lib.pi_degree_qas(matrix, op.ell)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["pideg.cli"].main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
    return rc, out.getvalue()


def run_pass(lib, ops, args, tracer: Tracer | None):
    """One timed pass; returns (wall seconds, latencies, reference times, outputs).

    An untraced pass times the reference kernel between every two ops; an
    op's reference time is the mean of the runs just before and after it.
    A traced pass leaves the kernel out and returns no reference times.
    """
    latencies, references, outputs = [], [], []
    if tracer is not None:
        tracer.reset_pass()
        tracer.install()
    try:
        start = time.perf_counter()
        before = reference_seconds() if tracer is None else 0.0
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            t0 = time.perf_counter()
            try:
                result = run_op(lib, op, args[index] if args else None)
            except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                result = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(result)
            if tracer is not None:
                tracer.end_op()
            else:
                after = reference_seconds()
                references.append((before + after) / 2)
                before = after
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, latencies, references, outputs


class Checker:
    """Checks the first answer to each op against references, and every
    later answer to the same op against the first."""

    def __init__(self, workload: str, lib):
        if str(ROOT / "tests") not in sys.path:
            sys.path.insert(0, str(ROOT / "tests"))
        from oracles import textbook_smith

        self.smith = textbook_smith
        self.check = workloads.CHECKS[workload]
        self.lib = lib
        self.first: dict[int, object] = {}
        self.problems: list[str] = []

    def failures(self, ops, outputs) -> int:
        failed = 0
        for index, (op, result) in enumerate(zip(ops, outputs)):
            problems = self._check(index, op, result)
            if problems:
                failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.cell}: {problems[0]}")
        return failed

    def _check(self, index, op, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"{type(result).__name__}: {result}"]
        if index in self.first:
            # repr, because each pass imports pideg afresh and its classes with it
            return [] if repr(result) == self.first[index] else ["answer differs from the first pass"]
        try:
            problems = self.check(op, result, self.smith, self.lib)
        except (ValueError, KeyError, TypeError) as exc:  # output not in the expected form
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if not problems:
            self.first[index] = repr(result)
        return problems


def tail_percentile(count: int) -> int:
    """The highest percentile of `count` samples with TAIL_BEYOND samples beyond it.

    Percentile p sits at position p/100 * (count - 1) of the sorted samples,
    which has TAIL_BEYOND samples above it while it is below count - TAIL_BEYOND.
    """
    return -(-100 * (count - TAIL_BEYOND) // (count - 1)) - 1


def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run; returns attempted and failed op counts, the metrics as
    name -> (value, unit), notes for the report, and the traced pass walls."""
    setups = []  # each set-up's time over the reference kernel's around it
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        elapsed, lib, ops = setup(workload, seed, workdir)
        after = reference_seconds()
        setups.append(2 * elapsed / (before + after))
        before = after
    checker = Checker(workload, lib)
    tracer = Tracer() if trace else None

    ratios, raw, walls, traced_walls, layer_rows = [], [], [], [], []
    attempted = failed = 0
    while True:
        for pass_tracer in (None, tracer) if trace else (None,):
            lib = load_program()
            wall, lat, refs, outputs = run_pass(lib, ops, program_args(lib, ops), pass_tracer)
            attempted += len(outputs)
            failed += checker.failures(ops, outputs)
            if pass_tracer is None:
                walls.append(wall)
                raw.append(lat)
                ratios.append([t / r for t, r in zip(lat, refs)])
            else:
                traced_walls.append(wall)
                layer_rows.append(tracer.pass_metrics(wall))
        spent = sum(walls) + sum(traced_walls)
        step = walls[-1] + (traced_walls[-1] if trace else 0.0)
        if spent + step > seconds:
            break

    notes = [f"workload {workload}: {len(ops)} ops per pass, {len(walls)} untraced passes"]
    if trace:
        metrics = {name: (statistics.fmean(row[name] for row in layer_rows), unit)
                   for name, unit in PER_LAYER_UNITS.items() if name != "bench.trace_overhead_frac"}
        untraced = statistics.median(sum(lat) for lat in raw)
        metrics["bench.trace_overhead_frac"] = (statistics.median(traced_walls) / untraced - 1, "ratio")
        trace_path = WORK_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.dump(trace_path)
        notes.append(f"traced passes: {len(traced_walls)}, wall per traced pass "
                     f"{statistics.fmean(traced_walls):.4f} s; spans in {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            notes.append("not found, reported as 0: " + ", ".join(tracer.missing))
    else:
        # An op's latency: the median over passes of its time over the
        # reference kernel's, in ms at the reference speed (see speed.py).
        op_ms = [statistics.median(column) * REFERENCE_MS for column in zip(*ratios)]
        raw_ms = [statistics.median(column) * 1000 for column in zip(*raw)]
        tail = tail_percentile(len(ops))
        metrics = {
            "ops_per_s": (1000 * len(ops) / sum(op_ms), "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_tail": (percentile(op_ms, tail), "ms"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (statistics.median(setups) * REFERENCE_MS / 1000, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        slowdown = statistics.median(r / n for r, n in zip(raw_ms, op_ms))
        notes.append(f"op latencies are medians of {len(walls)} passes at the reference speed; "
                     f"op_ms_tail is p{tail} of {len(ops)} ops")
        notes.append(f"unscaled wall clock: ops_per_s {1000 * len(ops) / sum(raw_ms):.4g}, "
                     f"op_ms_p50 {statistics.median(raw_ms):.4g}, op_ms_tail "
                     f"{percentile(raw_ms, tail):.4g}; this host ran at 1/{slowdown:.3f} "
                     f"of the reference speed")
    notes += [f"wrong: {p}" for p in checker.problems]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes, "traced_walls": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}"
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ImportError as exc:
        print(f"bench: cannot import the program or its test oracles: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome["notes"]:
        print(line)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans and exact counters around calls into each pideg module.

The tracer replaces each public function listed in TARGETS at every module
binding inside the package (``cli``, ``degrees`` and ``reps`` import
``skew_normal_form`` by name, so patching ``intlinalg`` alone would miss
their calls) and restores the originals on ``uninstall``. A span is
(name, start, end, parent, op id); spans stay in memory until ``dump``.

A span's self time is its duration minus the durations of its direct
children. Self times are summed per layer, so the layer times of a pass
plus the time outside every span add up to the pass's wall time. A target
that no longer exists is skipped and its layer reports 0.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps
from pathlib import Path

# (module, function, layer). `reduce` is split into `reduce` and `extended`
# at call time, by whether the input came out of `extend`.
TARGETS = (
    ("pideg.intlinalg", "skew_normal_form", "reduce"),
    ("pideg.intlinalg", "matrix_from_diagram", "matrix"),
    ("pideg.intlinalg", "extend", "matrix"),
    ("pideg.intlinalg", "kernel_basis_rational", "kernel"),
    ("pideg.intlinalg", "one_perp", "kernel"),
    ("pideg.intlinalg", "cycle_kernel_vectors", "kernel"),
    ("pideg.intlinalg", "cycle_sum", "kernel"),
    ("pideg.intlinalg", "kernel_dim_mod_p", "kernel"),
    ("pideg.intlinalg", "kernel_basis_mod_p", "kernel"),
    ("pideg.intlinalg", "one_perp_mod_p", "kernel"),
    ("pideg.intlinalg", "inverse_unimodular", "inverse"),
    ("pideg.pipedreams", "toric_permutation", "trace"),
    ("pideg.pipedreams", "white_exit_labels", "trace"),
    ("pideg.diagrams", "diagram_from_text", "parse"),
    ("pideg.diagrams", "determinantal_diagram", "parse"),
    ("pideg.diagrams", "young_diagram", "parse"),
    ("pideg.degrees", "analyze_diagram", "degrees"),
    ("pideg.degrees", "pi_degree_qas", "degrees"),
    ("pideg.degrees", "pi_degree_from_factors", "degrees"),
    ("pideg.reps", "qas_representation", "rep_build"),
    ("pideg.reps", "find_relation_violation", "relations"),
    ("pideg.reps", "verify_relations", "relations"),
    ("pideg.reps", "irreducibility_check", "irreducible"),
    ("pideg.cli", "main", "report"),
)

LAYER_METRICS = {
    "reduce": "intlinalg.reduce_s",
    "extended": "intlinalg.extended_s",
    "kernel": "intlinalg.kernel_s",
    "matrix": "intlinalg.matrix_s",
    "inverse": "intlinalg.inverse_s",
    "trace": "pipedreams.trace_s",
    "parse": "diagrams.parse_s",
    "degrees": "degrees.degrees_s",
    "rep_build": "reps.rep_build_s",
    "relations": "reps.relations_s",
    "irreducible": "reps.irreducible_s",
    "report": "cli.report_s",
}
COUNTED_LAYERS = {
    "reduce": "intlinalg.reduce_calls",
    "kernel": "intlinalg.kernel_calls",
    "trace": "pipedreams.trace_calls",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_METRICS.values()},
    **{name: "count" for name in COUNTED_LAYERS.values()},
    "intlinalg.reduce_distinct_frac": "ratio",
    "intlinalg.transform_bits_max": "bits",
    "bench.untraced_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


class Tracer:
    """Collects spans and per-layer totals for the passes it is installed for."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index, child time]
        self._op = -1
        self._extended: dict[int, object] = {}
        self._op_inputs: set = set()
        self.reset_pass()

    # -- per pass ---------------------------------------------------------

    def reset_pass(self) -> None:
        self.self_time = dict.fromkeys(LAYER_METRICS, 0.0)
        self.calls = dict.fromkeys(COUNTED_LAYERS, 0)
        self.root_time = 0.0
        self.distinct_inputs = 0
        self.transform_bits = 0

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self.distinct_inputs += len(self._op_inputs)
        self._op_inputs.clear()
        self._extended.clear()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pideg" or name.startswith("pideg."))]
        self.missing = []
        for module_name, func_name, layer in TARGETS:
            original = getattr(sys.modules.get(module_name), func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name.removeprefix('pideg.')}.{func_name}", layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, layer, fn, args, kwargs)

        return traced

    def _call(self, name, layer, fn, args, kwargs):
        if layer == "reduce" and args and id(args[0]) in self._extended:
            layer = "extended"
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == "intlinalg.extend":
                self._extended[id(result)] = result
            elif layer in ("reduce", "extended"):
                self._op_inputs.add(args[0].rows)
                bits = max((abs(x).bit_length() for row in getattr(result, "transform", ()) for x in row), default=0)
                self.transform_bits = max(self.transform_bits, bits)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent, self._op)
            self.self_time[layer] += duration - frame[1]
            counted = "reduce" if layer == "extended" else layer
            if counted in self.calls:
                self.calls[counted] += 1
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.root_time += duration

    # -- results ----------------------------------------------------------

    def pass_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer numbers of the pass just run, which took `wall` seconds."""
        out = {LAYER_METRICS[k]: v for k, v in self.self_time.items()}
        out.update({COUNTED_LAYERS[k]: v for k, v in self.calls.items()})
        calls = self.calls["reduce"]
        out["intlinalg.reduce_distinct_frac"] = self.distinct_inputs / calls if calls else 0.0
        out["intlinalg.transform_bits_max"] = self.transform_bits
        out["bench.untraced_s"] = wall - self.root_time
        return out

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

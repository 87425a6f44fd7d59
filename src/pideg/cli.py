"""Command line driver.

Subcommands (see README for worked examples):

- diagram        analyze a diagram file: toric cycles, invariant factors,
                 kernel data, generic PI degrees (any ell >= 2)
- partition      closed-form PI degree of a Young shape (odd ell)
- detring        determinantal board: closed form, toric cycles (ell >= 3)
- schubert       extended Schubert cell algebra closed form
- grassmannian   quantum Grassmannian closed form
- rep            build the monomial representation, verify relations,
                 certify irreducibility over a finite field
- sweep          run property checks over a diagram corpus, deterministic
                 given the seed; exit status 0 exactly when all pass

Output is a readable table by default, or a JSON document with --json.
Huge PI degree values are replaced by their exponent form when they exceed
the digit budget (environment variable PIDEG_DIGIT_BUDGET, default 400).
All randomness is seeded, so sweep summaries are byte-identical across runs
with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .degrees import (
    DiagramAnalysis,
    PiDegree,
    analyze_diagram,
    determinantal_toric_cycles,
    pi_degree_determinantal,
    pi_degree_grassmannian,
    pi_degree_partition,
    pi_degree_qas,
    pi_degree_schubert,
)
from .diagrams import (
    Diagram,
    Partition,
    PluckerIndex,
    determinantal_diagram,
    diagram_from_text,
    is_cauchon_le,
    partition_from_plucker,
    young_diagram,
)
from .errors import (
    BadEll,
    BadRange,
    BadSpec,
    HypothesisViolated,
    InternalVerificationFailed,
    PidegError,
    SkewSymmetryViolated,
)
from .intlinalg import (
    SkewIntMatrix,
    checked_cycle_sum,
    cycle_kernel_vectors,
    extend,
    is_prime,
    kernel_basis_rational,
    kernel_dim_mod_p,
    matrix_from_diagram,
    one_perp,
    one_perp_mod_p,
    skew_normal_form,
)
from .pipedreams import toric_permutation
from .reps import (
    SPAN_BOUND,
    find_relation_violation,
    irreducibility_check,
    qas_representation,
)

DIGIT_BUDGET_VAR = "PIDEG_DIGIT_BUDGET"
SWEEP_PRIMES = (3, 5, 7)


def digit_budget() -> int:
    raw = os.environ.get(DIGIT_BUDGET_VAR)
    if raw is None:
        return 400
    try:
        budget = int(raw)
    except ValueError:
        raise BadSpec(f"{DIGIT_BUDGET_VAR} must be an integer, got {raw!r}")
    if budget < 1:
        raise BadSpec(f"{DIGIT_BUDGET_VAR} must be positive, got {budget}")
    return budget


def decimal_digits(value: int) -> int:
    """Number of decimal digits of a nonnegative integer, without converting it.

    Starts from the estimate bit_length * log10(2), which is at most the
    true count, and settles it by exact comparison with powers of ten.
    """
    digits = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10**digits <= value:
        digits += 1
    return digits


def decimal_string(value: int, digits: int | None = None) -> str:
    """str(value) for a nonnegative integer of any size.

    Python refuses int -> str conversions past a digit limit (4300 by
    default); larger values are split by a power of ten into pieces under
    it. `digits` is decimal_digits(value) when the caller knows it.
    """
    if digits is None:
        digits = decimal_digits(value)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or digits <= limit:
        return str(value)
    low_digits = digits // 2
    high, low = divmod(value, 10**low_digits)
    return decimal_string(high, digits - low_digits) + decimal_string(low).zfill(low_digits)


def degree_dict(pi: PiDegree, budget: int) -> dict:
    value = pi.value
    digits = decimal_digits(value)
    return {
        "ell": pi.ell,
        "exponent": pi.exponent,
        "divisor": decimal_string(pi.divisor),
        "digits": digits,
        "value": decimal_string(value, digits) if digits <= budget else None,
        "factors": None if pi.factors is None else [str(f) for f in pi.factors],
    }


def degree_line(label: str, pi: PiDegree, budget: int) -> str:
    entry = degree_dict(pi, budget)
    if entry["value"] is None:
        return f"{label} at ell={pi.ell}: {pi} ({entry['digits']} digits, value suppressed)"
    return f"{label} at ell={pi.ell}: {pi} = {entry['value']}"


def require_algebra_ells(ells: list[int]) -> tuple[int, ...]:
    if not ells:
        raise BadEll("give at least one --ell")
    for ell in ells:
        if ell < 3:
            raise BadEll(
                f"ell = {ell} is not accepted here; the diagram subcommand "
                "computes generic PI degrees for any ell >= 2"
            )
    return tuple(ells)


# ---------------------------------------------------------------------------
# Corpora (also reused by the test suite)
# ---------------------------------------------------------------------------


def exhaustive_diagrams(m: int, n: int) -> list[Diagram]:
    """Every black/white m x n board, in binary counting order."""
    out = []
    for mask in range(1 << (m * n)):
        rows = tuple(
            tuple(bool(mask >> (r * n + c) & 1) for c in range(n))
            for r in range(m)
        )
        out.append(Diagram(rows))
    return out


def random_diagrams(m: int, n: int, count: int, seed: int) -> list[Diagram]:
    """Seeded uniform random boards; deterministic for a given seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = tuple(
            tuple(bool(rng.getrandbits(1)) for _ in range(n)) for _ in range(m)
        )
        out.append(Diagram(rows))
    return out


def mutation_matrices(n: int, count: int, seed: int) -> list[list[list[int]]]:
    """Seeded random nonzero symmetric matrices (never skew-symmetric)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = rng.randrange(-3, 4)
        if any(x for row in mat for x in row):
            out.append(mat)
    return out


def parse_corpus(spec: str, seed: int):
    """Parse a corpus spec: 'exhaustive MxN', 'random MxN xK', 'mutation NxN xK'."""
    words = spec.split()
    try:
        if len(words) == 2 and words[0] == "exhaustive":
            m, n = (int(x) for x in words[1].split("x"))
            if m < 1 or n < 1 or m * n > 16:
                raise BadSpec(f"exhaustive corpus too large or empty: {spec!r}")
            return "diagram", exhaustive_diagrams(m, n)
        if len(words) == 3 and words[0] == "random" and words[2].startswith("x"):
            m, n = (int(x) for x in words[1].split("x"))
            count = int(words[2][1:])
            if m < 1 or n < 1 or count < 1:
                raise BadSpec(f"bad random corpus: {spec!r}")
            return "diagram", random_diagrams(m, n, count, seed)
        if len(words) == 3 and words[0] == "mutation" and words[2].startswith("x"):
            m, n = (int(x) for x in words[1].split("x"))
            count = int(words[2][1:])
            if m != n or m < 1 or count < 1:
                raise BadSpec(f"bad mutation corpus: {spec!r}")
            return "matrix", mutation_matrices(n, count, seed)
    except (ValueError, BadSpec) as exc:
        raise BadSpec(f"cannot parse corpus spec {spec!r}") from exc
    raise BadSpec(f"cannot parse corpus spec {spec!r}")


# ---------------------------------------------------------------------------
# Sweep properties
# ---------------------------------------------------------------------------


def _prop_powers_of_2(d: Diagram) -> list[str]:
    h = skew_normal_form(matrix_from_diagram(d)).invariant_factors
    bad = [x for x in h if x & (x - 1)]
    return [f"invariant factors not powers of 2: {h}"] if bad else []


def _prop_kernel_cycles(d: Diagram) -> list[str]:
    M = matrix_from_diagram(d)
    snf = skew_normal_form(M)
    r_cycles = toric_permutation(d).cycles.odd_cycle_count
    failures = []
    if r_cycles != snf.kernel_dim:
        failures.append(
            f"odd cycles {r_cycles} != kernel dim {snf.kernel_dim}"
        )
    if 2 * len(snf.invariant_factors) + snf.kernel_dim != M.n:
        failures.append("rank + kernel does not fill the matrix size")
    if len(kernel_basis_rational(M)) != snf.kernel_dim:
        failures.append("rational kernel basis size mismatch")
    if len(cycle_kernel_vectors(d)) != r_cycles:
        failures.append("cycle kernel vector count mismatch")
    return failures


def _prop_cycle_sums(d: Diagram) -> list[str]:
    tau = toric_permutation(d)
    failures = []
    for ckv in cycle_kernel_vectors(d, tau):
        try:
            checked_cycle_sum(ckv, tau, d.m)
        except PidegError as exc:
            failures.append(f"cycle {ckv.cycle}: {exc}")
    return failures


def _prop_extended_laws(d: Diagram) -> list[str]:
    M = matrix_from_diagram(d)
    snf = skew_normal_form(M)
    esnf = skew_normal_form(extend(M))
    h, h_ext = snf.invariant_factors, esnf.invariant_factors
    failures = []
    expected_jump = 1 if one_perp(M) else -1
    if esnf.kernel_dim - snf.kernel_dim != expected_jump:
        failures.append(
            f"kernel jump {esnf.kernel_dim - snf.kernel_dim}, expected {expected_jump}"
        )
    for i in range(min(len(h), len(h_ext))):
        if h[i] % h_ext[i]:
            failures.append(f"h_ext[{i}] = {h_ext[i]} does not divide h[{i}] = {h[i]}")
    if len(h_ext) == len(h) + 1 and min(d.shape) >= 1:
        odd = h_ext[len(h)]
        while odd % 2 == 0:
            odd //= 2
        f = 3
        while f * f <= odd:
            if odd % f == 0:
                if f > min(d.shape):
                    failures.append(f"odd prime {f} of extra factor exceeds {min(d.shape)}")
                while odd % f == 0:
                    odd //= f
            f += 2
        if odd > 1 and odd > min(d.shape):
            failures.append(f"odd prime {odd} of extra factor exceeds {min(d.shape)}")
    return failures


def _prop_mod_p(d: Diagram) -> list[str]:
    M = matrix_from_diagram(d)
    snf = skew_normal_form(M)
    h_ext = skew_normal_form(extend(M)).invariant_factors
    failures = []
    for p in SWEEP_PRIMES:
        if kernel_dim_mod_p(M, p) < snf.kernel_dim:
            failures.append(f"mod-{p} kernel smaller than rational kernel")
        s_prime = sum(1 for x in snf.invariant_factors if x % p)
        lhs = s_prime >= len(h_ext) or h_ext[s_prime] % p == 0
        rhs = one_perp_mod_p(M, p)
        if lhs != rhs:
            failures.append(
                f"mod-{p} criterion: factor divisibility {lhs} vs kernel in "
                f"sum-zero hyperplane {rhs}"
            )
    return failures


def _prop_pi_closed(d: Diagram) -> list[str]:
    M = matrix_from_diagram(d)
    snf = skew_normal_form(M)
    r = snf.kernel_dim
    n_white = M.n
    failures = []
    for ell in (3, 5):
        generic = pi_degree_qas(M, ell).value
        closed = ell ** ((n_white - r) // 2)
        if generic != closed:
            failures.append(f"ell={ell}: generic {generic} != closed {closed}")
    return failures


def _prop_skew_reject(mat: list[list[int]]) -> list[str]:
    try:
        SkewIntMatrix(tuple(tuple(row) for row in mat))
    except SkewSymmetryViolated:
        return []
    return ["symmetric matrix was not rejected"]


DIAGRAM_PROPERTIES = {
    "powers-of-2": _prop_powers_of_2,
    "kernel-cycles": _prop_kernel_cycles,
    "cycle-sums": _prop_cycle_sums,
    "extended-laws": _prop_extended_laws,
    "mod-p": _prop_mod_p,
    "pi-closed": _prop_pi_closed,
}
MATRIX_PROPERTIES = {
    "skew-reject": _prop_skew_reject,
}


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def analysis_dict(
    analysis: DiagramAnalysis,
    budget: int,
    with_cycles: bool = False,
    with_kernel: bool = False,
) -> dict:
    d = analysis.diagram
    report = {
        "diagram": {
            "text": d.to_text(),
            "m": d.m,
            "n": d.n,
            "white_count": d.white_count,
            "cauchon_le": is_cauchon_le(d),
        },
        "tau": {
            "one_line": list(analysis.tau.image),
            "cycles": [list(c) for c in analysis.tau.cycles.cycles],
            "cycle_string": str(analysis.tau.cycles),
            "odd_cycle_count": analysis.tau.cycles.odd_cycle_count,
        },
        "invariant_factors": [str(x) for x in analysis.invariant_factors],
        "kernel_dim": analysis.kernel_dim,
        "one_perp": analysis.one_perp,
        "pi_degrees": [degree_dict(pi, budget) for pi in analysis.degrees],
        "extended": None,
    }
    if analysis.extended is not None:
        report["extended"] = {
            "invariant_factors": [str(x) for x in analysis.extended.invariant_factors],
            "kernel_dim": analysis.extended.kernel_dim,
            "kernel_jump": analysis.extended.kernel_dim - analysis.kernel_dim,
            "pi_degrees": [degree_dict(pi, budget) for pi in analysis.extended.degrees],
        }
    if with_cycles or with_kernel:
        entries = []
        for ckv in analysis.cycle_vectors:
            entry = {
                "cycle": list(ckv.cycle),
                "cycle_sum": checked_cycle_sum(ckv, analysis.tau, d.m),
            }
            if with_kernel:
                entry["kernel_vector"] = list(ckv.vector)
            entries.append(entry)
        report["even_cycles"] = entries
    return report


def analysis_lines(report: dict) -> list[str]:
    lines = []
    diag = report["diagram"]
    lines.append(f"diagram: {diag['m']}x{diag['n']}, {diag['white_count']} white squares")
    for row in diag["text"].splitlines():
        lines.append(f"  {row}")
    lines.append(f"Cauchon-Le: {'yes' if diag['cauchon_le'] else 'no'}")
    lines.append(f"toric permutation: {report['tau']['cycle_string']}")
    lines.append(f"odd cycles: {report['tau']['odd_cycle_count']}")
    lines.append("invariant factors: " + (" ".join(report["invariant_factors"]) or "(none)"))
    lines.append(f"kernel dimension: {report['kernel_dim']}")
    lines.append(f"kernel inside sum-zero hyperplane: {'yes' if report['one_perp'] else 'no'}")
    for entry in report["pi_degrees"]:
        shown = entry["value"] if entry["value"] is not None else f"({entry['digits']} digits)"
        lines.append(
            f"PI degree at ell={entry['ell']}: "
            f"{entry['ell']}^{entry['exponent']}"
            + (f"/{entry['divisor']}" if entry["divisor"] != "1" else "")
            + f" = {shown}"
        )
    ext = report.get("extended")
    if ext:
        lines.append("extended algebra:")
        lines.append("  invariant factors: " + (" ".join(ext["invariant_factors"]) or "(none)"))
        lines.append(f"  kernel dimension: {ext['kernel_dim']} (jump {ext['kernel_jump']:+d})")
        for entry in ext["pi_degrees"]:
            shown = entry["value"] if entry["value"] is not None else f"({entry['digits']} digits)"
            lines.append(
                f"  PI degree at ell={entry['ell']}: "
                f"{entry['ell']}^{entry['exponent']}"
                + (f"/{entry['divisor']}" if entry["divisor"] != "1" else "")
                + f" = {shown}"
            )
    for entry in report.get("even_cycles", ()):
        lines.append(
            f"even cycle {tuple(entry['cycle'])}: sum {entry['cycle_sum']}"
            + (f", kernel vector {tuple(entry['kernel_vector'])}" if "kernel_vector" in entry else "")
        )
    return lines


def emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        text = json.dumps(report, indent=2, sort_keys=True)
        parsed = json.loads(text)
        if parsed != report:
            raise InternalVerificationFailed("JSON round trip failed")
        print(text)
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_diagram(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = tuple(args.ell or ())
    for ell in ells:
        if ell < 2:
            raise BadEll(f"ell must be at least 2, got {ell}")
    d = diagram_from_text(Path(args.file).read_text())
    analysis = analyze_diagram(d, ells, extended=args.extended)
    report = analysis_dict(
        analysis, budget, with_cycles=args.cycles, with_kernel=args.kernel
    )
    emit(report, analysis_lines(report), args.json)
    return 0


def _parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadRange(f"cannot parse partition {text!r}")


def _parse_box(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        m, n = (int(x) for x in text.lower().split("x"))
        return m, n
    except ValueError:
        raise BadRange(f"cannot parse box {text!r}, expected like 3x5")


def cmd_partition(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = require_algebra_ells(args.ell)
    parts = _parse_parts(args.parts)
    box = _parse_box(args.box)
    shape = (
        Partition(parts) if box is None else Partition(parts, box_m=box[0], box_n=box[1])
    )
    d = young_diagram(shape)
    tau = toric_permutation(d)
    report = {
        "partition": list(shape.parts),
        "box": [shape.box_m, shape.box_n],
        "white_count": shape.size,
        "tau_cycles": [list(c) for c in tau.cycles.cycles],
        "odd_cycle_count": tau.cycles.odd_cycle_count,
        "pi_degrees": [],
        "cross_checked": bool(args.verify),
    }
    lines = [
        f"partition: {shape} in box {shape.box_m}x{shape.box_n}",
        f"boxes: {shape.size}",
        f"toric permutation: {tau.cycles}",
        f"odd cycles: {tau.cycles.odd_cycle_count}",
    ]
    for ell in ells:
        pi = pi_degree_partition(shape, ell, cross_check=args.verify)
        report["pi_degrees"].append(degree_dict(pi, budget))
        lines.append(degree_line("PI degree", pi, budget))
    if args.verify:
        lines.append("cross check against the generic route: passed")
    emit(report, lines, args.json)
    return 0


def cmd_detring(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = require_algebra_ells(args.ell)
    n, t = args.n, args.t
    cycles = determinantal_toric_cycles(n, t)
    d = determinantal_diagram(n, t)
    report = {
        "n": n,
        "t": t,
        "white_count": d.white_count,
        "toric_cycles": [list(c) for c in cycles.cycles],
        "odd_cycle_count": cycles.odd_cycle_count,
        "pi_degrees": [],
        "cross_checked": bool(args.verify),
    }
    lines = [
        f"determinantal board: n = {n}, t = {t}, {d.white_count} white squares",
        f"toric cycles: {cycles}",
        f"odd cycles: {cycles.odd_cycle_count}",
    ]
    if args.verify and cycles != toric_permutation(d).cycles:
        raise InternalVerificationFailed("closed-form cycles differ from traced cycles")
    for ell in ells:
        pi = pi_degree_determinantal(n, t, ell, cross_check=args.verify)
        report["pi_degrees"].append(degree_dict(pi, budget))
        lines.append(degree_line("PI degree", pi, budget))
    if args.verify:
        lines.append("cross check against the generic route: passed")
    emit(report, lines, args.json)
    return 0


def cmd_schubert(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = require_algebra_ells(args.ell)
    gamma = _parse_parts(args.gamma)
    idx = PluckerIndex(gamma, args.n)
    shape = partition_from_plucker(idx)
    report = {
        "gamma": list(idx.gamma),
        "ambient": idx.n,
        "partition": list(shape.parts),
        "box": [shape.box_m, shape.box_n],
        "pi_degrees": [],
        "cross_checked": bool(args.verify),
    }
    lines = [
        f"Schubert cell gamma = {idx.gamma} in (m, n) = ({idx.m}, {idx.n})",
        f"Young shape: {shape} in box {shape.box_m}x{shape.box_n}",
    ]
    for ell in ells:
        entry, line = _closed_or_generic(
            lambda: pi_degree_schubert(idx, ell, cross_check=args.verify),
            lambda: pi_degree_qas(
                extend(matrix_from_diagram(young_diagram(shape))), ell
            ),
            budget,
        )
        report["pi_degrees"].append(entry)
        lines.append(line)
    if args.verify:
        lines.append("cross check against the generic route: passed")
    emit(report, lines, args.json)
    return 0


def _closed_or_generic(closed_fn, generic_fn, budget: int) -> tuple[dict, str]:
    """Run a closed form, fall back to the generic route when its theorem
    hypothesis is not met, and label the result accordingly."""
    try:
        pi = closed_fn()
        entry = degree_dict(pi, budget)
        entry["route"] = "closed"
        return entry, degree_line("PI degree", pi, budget)
    except HypothesisViolated as exc:
        pi = generic_fn()
        entry = degree_dict(pi, budget)
        entry["route"] = "generic (hypothesis not met)"
        return entry, (
            degree_line("PI degree", pi, budget)
            + f" [generic route; {exc}]"
        )


def cmd_grassmannian(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = require_algebra_ells(args.ell)
    m, n = args.m, args.n
    report = {"m": m, "n": n, "pi_degrees": [], "cross_checked": bool(args.verify)}
    lines = [f"Grassmannian of {m}-planes in {n}-space"]
    shape = Partition(((n - m),) * m, box_m=m, box_n=n - m) if n > m else None
    for ell in ells:
        entry, line = _closed_or_generic(
            lambda: pi_degree_grassmannian(m, n, ell, cross_check=args.verify),
            lambda: pi_degree_qas(
                extend(matrix_from_diagram(young_diagram(shape))), ell
            ),
            budget,
        )
        report["pi_degrees"].append(entry)
        lines.append(line)
    if args.verify:
        lines.append("cross check against the generic route: passed")
    emit(report, lines, args.json)
    return 0


def _rep_matrix(args: argparse.Namespace) -> SkewIntMatrix:
    sources = [
        args.diagram is not None,
        args.matrix is not None,
        args.detring is not None,
        args.partition is not None,
    ]
    if sum(sources) != 1:
        raise BadRange(
            "give exactly one of --diagram, --matrix, --detring, --partition"
        )
    if args.diagram is not None:
        return matrix_from_diagram(diagram_from_text(Path(args.diagram).read_text()))
    if args.matrix is not None:
        try:
            rows = json.loads(Path(args.matrix).read_text())
            return SkewIntMatrix(tuple(tuple(int(x) for x in row) for row in rows))
        except (ValueError, TypeError) as exc:
            raise BadSpec(f"cannot read a matrix from {args.matrix}: {exc}")
    if args.detring is not None:
        try:
            n, t = (int(x) for x in args.detring.split(","))
        except ValueError:
            raise BadRange(f"cannot parse --detring {args.detring!r}, expected like 4,2")
        return matrix_from_diagram(determinantal_diagram(n, t))
    parts = _parse_parts(args.partition)
    box = _parse_box(args.box)
    shape = (
        Partition(parts) if box is None else Partition(parts, box_m=box[0], box_n=box[1])
    )
    return matrix_from_diagram(young_diagram(shape))


def cmd_rep(args: argparse.Namespace) -> int:
    require_algebra_ells([args.ell])
    M = _rep_matrix(args)
    rep = qas_representation(M, args.ell)
    report = {
        "ell": rep.ell,
        "matrix_size": M.n,
        "dimension": rep.dim,
        "invariant_factors": [str(x) for x in rep.invariant_factors],
        "kernel_dim": rep.kernel_dim,
    }
    lines = [
        f"matrix size: {M.n}",
        f"ell: {rep.ell}",
        f"representation dimension: {rep.dim}",
        "invariant factors: " + (" ".join(report["invariant_factors"]) or "(none)"),
        f"kernel dimension: {rep.kernel_dim}",
    ]
    if args.verify:
        witness = find_relation_violation(rep, M)
        report["relations_hold"] = witness is None
        report["violation"] = None if witness is None else list(witness)
        lines.append(
            "relations: all verified"
            if witness is None
            else f"relations: FAILED at generator pair {witness}"
        )
    if args.irreducible is not None:
        p = args.irreducible
        if p == 0:
            p = args.ell + 1
            while not (p % args.ell == 1 and is_prime(p)):
                p += 1
        ok = irreducibility_check(rep, p, bound=args.bound)
        report["irreducible_mod_p"] = {"p": p, "irreducible": ok}
        lines.append(f"irreducible over F_{p}: {'yes' if ok else 'NO'}")
    emit(report, lines, args.json)
    if args.verify and not report["relations_hold"]:
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    kind, items = parse_corpus(args.corpus, args.seed)
    registry = DIAGRAM_PROPERTIES if kind == "diagram" else MATRIX_PROPERTIES
    if args.properties:
        names = args.properties.split(",")
        unknown = [x for x in names if x not in registry]
        if unknown:
            raise BadSpec(
                f"unknown properties for a {kind} corpus: {', '.join(unknown)}; "
                f"available: {', '.join(sorted(registry))}"
            )
    else:
        names = (
            ["powers-of-2", "kernel-cycles"] if kind == "diagram" else ["skew-reject"]
        )
    out_dir = Path(args.out)
    failures_total = 0
    lines = [
        f"sweep corpus: {args.corpus}",
        f"seed: {args.seed}",
        f"items: {len(items)}",
    ]
    report = {
        "corpus": args.corpus,
        "seed": args.seed,
        "items": len(items),
        "properties": [],
    }
    dumped = 0
    for name in names:
        prop = registry[name]
        fail_count = 0
        first_message = None
        for index, item in enumerate(items):
            messages = prop(item)
            if messages:
                fail_count += 1
                if first_message is None:
                    first_message = f"item {index}: {messages[0]}"
                if dumped < 20:
                    out_dir.mkdir(parents=True, exist_ok=True)
                    path = out_dir / f"counterexample-{name}-{index}.txt"
                    body = (
                        item.to_text()
                        if isinstance(item, Diagram)
                        else json.dumps(item)
                    )
                    path.write_text(
                        body + "\n# property: " + name + "\n# " + "\n# ".join(messages) + "\n"
                    )
                    dumped += 1
        failures_total += fail_count
        status = "PASS" if fail_count == 0 else f"FAIL ({fail_count} failures)"
        lines.append(f"property {name}: {status} ({len(items)} checked)")
        entry = {"name": name, "failures": fail_count, "checked": len(items)}
        if first_message is not None:
            entry["first_failure"] = first_message
            lines.append(f"  first failure: {first_message}")
        report["properties"].append(entry)
    verdict = "PASS" if failures_total == 0 else "FAIL"
    lines.append(f"result: {verdict}")
    report["result"] = verdict
    emit(report, lines, args.json)
    return 0 if failures_total == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pideg",
        description="PI degrees of quantum algebras at roots of unity, "
        "via diagram combinatorics and exact integer linear algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="analyze a diagram file")
    p.add_argument("file", help="path to a text diagram ('.' white, '#' black)")
    p.add_argument("--ell", action="append", type=int, help="root of unity order (>= 2), repeatable")
    p.add_argument("--extended", action="store_true", help="also analyze the bordered matrix")
    p.add_argument("--cycles", action="store_true", help="list even toric cycles and their sums")
    p.add_argument("--kernel", action="store_true", help="list the combinatorial kernel vectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("partition", help="closed-form PI degree of a Young shape")
    p.add_argument("parts", help="comma separated parts, e.g. 5,3,2 (use - for empty)")
    p.add_argument("--box", help="bounding box like 3x5 (default: tight box)")
    p.add_argument("--ell", action="append", type=int, help="odd ell >= 3, repeatable")
    p.add_argument("--verify", action="store_true", help="cross-check against the generic route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("detring", help="determinantal board closed forms")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--ell", action="append", type=int, help="ell >= 3, repeatable")
    p.add_argument("--verify", action="store_true", help="cross-check cycles and degrees")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detring)

    p = sub.add_parser("schubert", help="extended Schubert cell closed form")
    p.add_argument("gamma", help="comma separated index set, e.g. 1,3,4,7")
    p.add_argument("n", type=int, help="ambient dimension")
    p.add_argument("--ell", action="append", type=int, help="odd ell >= 3, repeatable")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("grassmannian", help="quantum Grassmannian closed form")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--ell", action="append", type=int, help="odd ell >= 3, repeatable")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grassmannian)

    p = sub.add_parser("rep", help="monomial representation of a quantum affine space")
    p.add_argument("--diagram", help="diagram file")
    p.add_argument("--matrix", help="JSON file with an integer skew matrix")
    p.add_argument("--detring", help="determinantal board as n,t")
    p.add_argument("--partition", help="Young shape parts, e.g. 5,3,2")
    p.add_argument("--box", help="bounding box for --partition")
    p.add_argument("--ell", type=int, required=True, help="ell >= 3")
    p.add_argument("--verify", action="store_true", help="verify all commutation relations")
    p.add_argument(
        "--irreducible",
        type=int,
        nargs="?",
        const=0,
        default=None,
        help="certify irreducibility over F_p (omit the value to pick p automatically)",
    )
    p.add_argument(
        "--bound",
        type=int,
        default=SPAN_BOUND,
        help=f"bound on dim**2 for the span certificate (default {SPAN_BOUND})",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("sweep", help="property sweep over a corpus")
    p.add_argument(
        "corpus",
        help="'exhaustive MxN', 'random MxN xK', or 'mutation NxN xK'",
    )
    p.add_argument(
        "--properties",
        help="comma separated property names (default depends on corpus kind); "
        "diagram properties: " + ", ".join(sorted(DIAGRAM_PROPERTIES)) + "; "
        "matrix properties: " + ", ".join(sorted(MATRIX_PROPERTIES)),
    )
    p.add_argument("--seed", type=int, default=20_240_601)
    p.add_argument("--out", default="sweep-failures", help="directory for counterexample dumps")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PidegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

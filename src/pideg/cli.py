"""Command line driver: parses arguments and formats reports.

Subcommands (see README for worked examples): diagram, partition, detring,
schubert, grassmannian, rep and sweep. Each prints a readable table by
default, or a JSON document with --json, where every PI degree names its
route. Huge PI degree values are replaced by their exponent form when
they exceed the digit budget (environment variable PIDEG_DIGIT_BUDGET,
default 400). The computations, and every choice of what to compute,
live in degrees, reps and sweep.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from .degrees import (
    DiagramFacts, PiDegree, determinantal_toric_cycles, pi_degree_determinantal,
    pi_degree_grassmannian, pi_degree_partition, pi_degree_schubert,
)
from .diagrams import (
    Partition,
    PluckerIndex,
    determinantal_diagram,
    diagram_from_text,
    is_cauchon_le,
    partition_from_plucker,
    young_diagram,
)
from .errors import BadEll, BadRange, BadSpec, InternalVerificationFailed, PidegError
from .intlinalg import SkewIntMatrix, checked_cycle_sum, matrix_from_diagram
from .pipedreams import partition_toric_permutation
from .reps import (
    find_relation_violation, irreducibility_check, least_prime_1_mod, qas_representation,
)
from .sweep import DIAGRAM_PROPERTIES, MATRIX_PROPERTIES, parse_corpus, run_sweep

DIGIT_BUDGET_VAR = "PIDEG_DIGIT_BUDGET"


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


def _digits(log10_value: float, value, scale: float = 0.0) -> int:
    """Digits of value(), floor(log10_value) + 1, counted exactly where rounding could err."""
    if abs(log10_value - round(log10_value)) < 1e-6 + 1e-12 * max(scale, log10_value):
        return decimal_digits(value())
    return math.floor(log10_value) + 1


def degree_digits(pi: PiDegree) -> int:
    """Decimal digits of pi.value, from exponent log10 ell - log10 divisor."""
    whole = pi.exponent * math.log10(pi.ell)
    return _digits(whole - math.log10(pi.divisor), lambda: pi.value, whole)


def degree_dict(pi: PiDegree, budget: int) -> dict:
    """A degree's report entry; a value or divisor past the digit budget is None."""
    digits = degree_digits(pi)
    divisor_digits = _digits(math.log10(pi.divisor), lambda: pi.divisor)
    return {
        "ell": pi.ell,
        "exponent": pi.exponent,
        "divisor": decimal_string(pi.divisor, divisor_digits) if divisor_digits <= budget else None,
        "digits": digits,
        "value": decimal_string(pi.value, digits) if digits <= budget else None,
        "factors": None if pi.factors is None else [str(f) for f in pi.factors],
        "route": pi.route,
        **({"divisor_digits": divisor_digits} if divisor_digits > budget else {}),
        **({"reason": pi.reason} if pi.reason else {}),
    }


def degree_line(entry: dict) -> str:
    """The table line of a degree_dict entry, e.g. 'PI degree at ell=5: 5^4 = 625'."""
    line = f"PI degree at ell={entry['ell']}: {entry['ell']}^{entry['exponent']}"
    if entry["divisor"] is None:
        line += f"/({entry['divisor_digits']}-digit divisor)"
    elif entry["divisor"] != "1":
        line += f"/{entry['divisor']}"
    if entry["value"] is None:
        line += f" ({entry['digits']} digits, value suppressed)"
    else:
        line += f" = {entry['value']}"
    return line + (f" [generic route; {entry['reason']}]" if "reason" in entry else "")


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
# Report builders
# ---------------------------------------------------------------------------


def analysis_dict(
    facts: DiagramFacts,
    ells: tuple[int, ...],
    budget: int,
    extended: bool = False,
    with_cycles: bool = False,
    with_kernel: bool = False,
) -> dict:
    """The generic route's report on one diagram, read from its DiagramFacts."""
    d = facts.diagram
    tau = facts.tau
    snf = facts.snf
    report = {
        "diagram": {
            "text": d.to_text(),
            "m": d.m,
            "n": d.n,
            "white_count": d.white_count,
            "cauchon_le": is_cauchon_le(d),
        },
        "tau": {
            "one_line": list(tau.image),
            "cycles": [list(c) for c in tau.cycles.cycles],
            "cycle_string": str(tau.cycles),
            "odd_cycle_count": tau.cycles.odd_cycle_count,
        },
        "invariant_factors": [str(x) for x in snf.invariant_factors],
        "kernel_dim": snf.kernel_dim,
        "one_perp": facts.one_perp,
        "pi_degrees": [degree_dict(facts.pi_degree(ell), budget) for ell in ells],
        "extended": None,
    }
    if extended:
        ext = facts.extended_snf
        report["extended"] = {
            "invariant_factors": [str(x) for x in ext.invariant_factors],
            "kernel_dim": ext.kernel_dim,
            "kernel_jump": ext.kernel_dim - snf.kernel_dim,
            "pi_degrees": [degree_dict(facts.extended_pi_degree(ell), budget) for ell in ells],
        }
    if with_cycles or with_kernel:
        entries = []
        for ckv in facts.cycle_vectors:
            entry = {
                "cycle": list(ckv.cycle),
                "cycle_sum": checked_cycle_sum(ckv, tau, d.m),
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
        lines.append(degree_line(entry))
    ext = report.get("extended")
    if ext:
        lines.append("extended algebra:")
        lines.append("  invariant factors: " + (" ".join(ext["invariant_factors"]) or "(none)"))
        lines.append(f"  kernel dimension: {ext['kernel_dim']} (jump {ext['kernel_jump']:+d})")
        for entry in ext["pi_degrees"]:
            lines.append("  " + degree_line(entry))
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
    report = analysis_dict(
        DiagramFacts(d), ells, budget, args.extended, args.cycles, args.kernel
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


def _parse_shape(parts_text: str, box: str | None) -> Partition:
    """The Young shape of comma separated parts, in a box like 3x5 if given."""
    parts = _parse_parts(parts_text)
    if box is None:
        return Partition(parts)
    try:
        m, n = (int(x) for x in box.lower().split("x"))
    except ValueError:
        raise BadRange(f"cannot parse box {box!r}, expected like 3x5")
    return Partition(parts, box_m=m, box_n=n)


def closed_form_command(header):
    """A closed-form subcommand from header(args), which returns the report
    fields and lines of its input and its degree function of ell and
    cross_check; the per-ell degree entries and lines are shared. Only a
    closed entry is compared with the generic route, so --verify reports a
    cross check only when some entry is closed."""

    def command(args: argparse.Namespace) -> int:
        budget = digit_budget()
        ells = require_algebra_ells(args.ell)
        fields, lines, degree = header(args)
        entries = [degree_dict(degree(ell, cross_check=args.verify), budget) for ell in ells]
        lines += map(degree_line, entries)
        checked = args.verify and any(entry["route"] == "closed" for entry in entries)
        report = {**fields, "pi_degrees": entries, "cross_checked": checked}
        if args.verify:
            outcome = "passed" if checked else "nothing to compare (generic route answered)"
            lines.append(f"cross check against the generic route: {outcome}")
        emit(report, lines, args.json)
        return 0

    return command


@closed_form_command
def cmd_partition(args: argparse.Namespace):
    shape = _parse_shape(args.parts, args.box)
    tau = partition_toric_permutation(shape, cross_check=args.verify)
    fields = {
        "partition": list(shape.parts),
        "box": [shape.box_m, shape.box_n],
        "white_count": shape.size,
        "tau_cycles": [list(c) for c in tau.cycles.cycles],
        "odd_cycle_count": tau.cycles.odd_cycle_count,
    }
    lines = [
        f"partition: {shape} in box {shape.box_m}x{shape.box_n}",
        f"boxes: {shape.size}",
        f"toric permutation: {tau.cycles}",
        f"odd cycles: {tau.cycles.odd_cycle_count}",
    ]
    # Only --verify runs the generic route, once for all the ells.
    facts = DiagramFacts(young_diagram(shape)) if args.verify else None
    return fields, lines, partial(pi_degree_partition, shape, tau=tau, facts=facts)


@closed_form_command
def cmd_detring(args: argparse.Namespace):
    n, t = args.n, args.t
    cycles = determinantal_toric_cycles(n, t, cross_check=args.verify)
    white_count = n * n - (n - t) ** 2  # all but the top-left (n - t) x (n - t) block
    fields = {
        "n": n,
        "t": t,
        "white_count": white_count,
        "toric_cycles": [list(c) for c in cycles.cycles],
        "odd_cycle_count": cycles.odd_cycle_count,
    }
    lines = [
        f"determinantal board: n = {n}, t = {t}, {white_count} white squares",
        f"toric cycles: {cycles}",
        f"odd cycles: {cycles.odd_cycle_count}",
    ]
    facts = DiagramFacts(determinantal_diagram(n, t)) if args.verify else None
    return fields, lines, partial(pi_degree_determinantal, n, t, facts=facts)


@closed_form_command
def cmd_schubert(args: argparse.Namespace):
    idx = PluckerIndex(_parse_parts(args.gamma), args.n)
    shape = partition_from_plucker(idx)
    fields = {
        "gamma": list(idx.gamma),
        "ambient": idx.n,
        "partition": list(shape.parts),
        "box": [shape.box_m, shape.box_n],
    }
    lines = [
        f"Schubert cell gamma = {idx.gamma} in (m, n) = ({idx.m}, {idx.n})",
        f"Young shape: {shape} in box {shape.box_m}x{shape.box_n}",
    ]
    # Every ell reads the shape's board; a fallback or --verify reduces it once.
    facts = DiagramFacts(young_diagram(shape))
    return fields, lines, partial(pi_degree_schubert, idx, facts=facts)


@closed_form_command
def cmd_grassmannian(args: argparse.Namespace):
    m, n = args.m, args.n
    lines = [f"Grassmannian of {m}-planes in {n}-space"]
    return {"m": m, "n": n}, lines, partial(pi_degree_grassmannian, m, n)


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
        except ValueError as exc:
            raise BadSpec(f"cannot read a matrix from {args.matrix}: {exc}")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise BadSpec(f"{args.matrix} must hold a JSON list of rows of integers")
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if type(x) is not int:  # not isinstance: JSON true must not pass as 1
                    raise BadSpec(
                        f"{args.matrix}: entry ({i}, {j}) is {json.dumps(x)}, not an integer"
                    )
        return SkewIntMatrix(tuple(map(tuple, rows)))
    if args.detring is not None:
        try:
            n, t = (int(x) for x in args.detring.split(","))
        except ValueError:
            raise BadRange(f"cannot parse --detring {args.detring!r}, expected like 4,2")
        return matrix_from_diagram(determinantal_diagram(n, t))
    return matrix_from_diagram(young_diagram(_parse_shape(args.partition, args.box)))


def cmd_rep(args: argparse.Namespace) -> int:
    if args.ell < 3:
        raise BadEll(f"rep needs ell >= 3, got {args.ell}")
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
        p = args.irreducible or least_prime_1_mod(args.ell)
        ok = irreducibility_check(rep, p)
        report["irreducible_mod_p"] = {"p": p, "irreducible": ok}
        lines.append(f"irreducible over F_{p}: {'yes' if ok else 'NO'}")
    emit(report, lines, args.json)
    if args.verify and not report["relations_hold"]:
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    kind, items = parse_corpus(args.corpus, args.seed)
    names = None if args.properties is None else [x for x in args.properties.split(",") if x]
    results = run_sweep(kind, items, names, Path(args.out))
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
    for result in results:
        status = "PASS" if result.failures == 0 else f"FAIL ({result.failures} failures)"
        lines.append(f"property {result.name}: {status} ({len(items)} checked)")
        entry = {"name": result.name, "failures": result.failures, "checked": len(items)}
        if result.dumps:
            index, messages = result.dumps[0]
            entry["first_failure"] = f"item {index}: {messages[0]}"
            lines.append(f"  first failure: {entry['first_failure']}")
        report["properties"].append(entry)
    verdict = "FAIL" if any(r.failures for r in results) else "PASS"
    lines.append(f"result: {verdict}")
    report["result"] = verdict
    emit(report, lines, args.json)
    return 0 if verdict == "PASS" else 1


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
    p.add_argument("--ell", action="append", type=int, help="ell >= 3, repeatable")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("grassmannian", help="quantum Grassmannian closed form")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--ell", action="append", type=int, help="ell >= 3, repeatable")
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
    except (PidegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

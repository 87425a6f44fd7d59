"""Command line driver: parses arguments and formats reports.

Subcommands (see README for worked examples): diagram, partition, detring,
schubert, grassmannian, rep and sweep. Each prints a readable table by
default, or a JSON document with --json, where every PI degree names its
route. Huge PI degree values and representation dimensions are replaced
by their exponent form past the digit budget (environment variable
PIDEG_DIGIT_BUDGET, default 400). The computations, and every choice of
what to compute, live in degrees, reps and sweep.

The subcommands are one table, COMMANDS, of help lines, handlers and
argument specs. main registers every subcommand by name and help line, so
the top-level help and usage errors list them all. Only the subcommand the
command line names gets a parser, with -h and its arguments; the others are
registered by name and help line only, with no parser for argparse to read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from functools import partial
from pathlib import Path

from .degrees import (
    DiagramFacts, PiDegree, check_ell, determinantal_toric_cycles, pi_degree_determinantal,
    pi_degree_from_factors, pi_degree_grassmannian, pi_degree_partition, pi_degree_schubert,
)
from .diagrams import (
    Partition, PluckerIndex, determinantal_diagram, diagram_from_text, is_cauchon_le,
    partition_from_plucker, young_diagram,
)
from .errors import BadEll, BadRange, BadSpec, InternalVerificationFailed, PidegError
from .intlinalg import SkewIntMatrix, check_matrix_cost, checked_cycle_sum, matrix_from_diagram
from .pipedreams import partition_toric_permutation
from .reps import irreducibility_check, least_prime_1_mod, qas_representation
from .sweep import DIAGRAM_PROPERTIES, MATRIX_PROPERTIES, parse_corpus, run_sweep

DIGIT_BUDGET_VAR = "PIDEG_DIGIT_BUDGET"


def digit_budget() -> int:
    raw = os.environ.get(DIGIT_BUDGET_VAR, "400")
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


def _str_digit_limit() -> float:
    """Python's int <-> str digit limit (4300 by default), or inf if none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf


def decimal_string(value: int, digits: int | None = None) -> str:
    """str(value) for a nonnegative integer of any size.

    Python refuses int -> str conversions past a digit limit (4300 by
    default); larger values are split by a power of ten into pieces under
    it. `digits` is decimal_digits(value) when the caller knows it.
    """
    if digits is None:
        digits = decimal_digits(value)
    if digits <= _str_digit_limit():
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


def exponent_form(entry: dict) -> str:
    """A degree_dict entry as 'ell^exponent[/divisor]', e.g. '4^3/2'."""
    form = f"{entry['ell']}^{entry['exponent']}"
    if entry["divisor"] is None:
        return form + f"/({entry['divisor_digits']}-digit divisor)"
    return form if entry["divisor"] == "1" else form + f"/{entry['divisor']}"


def suppressed_value(digits: int) -> str:
    return f" ({digits} digits, value suppressed)"


def degree_line(entry: dict) -> str:
    """The table line of a degree_dict entry, e.g. 'PI degree at ell=5: 5^4 = 625'."""
    line = f"PI degree at ell={entry['ell']}: {exponent_form(entry)}"
    line += suppressed_value(entry["digits"]) if entry["value"] is None else f" = {entry['value']}"
    return line + (f" [generic route; {entry['reason']}]" if "reason" in entry else "")


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
        "invariant_factors": [decimal_string(x) for x in snf.invariant_factors],
        "kernel_dim": snf.kernel_dim,
        "one_perp": facts.one_perp,
        "pi_degrees": [degree_dict(facts.pi_degree(ell), budget) for ell in ells],
        "extended": None,
    }
    if extended:
        ext = facts.extended_snf
        report["extended"] = {
            "invariant_factors": [decimal_string(x) for x in ext.invariant_factors],
            "kernel_dim": ext.kernel_dim,
            "kernel_jump": ext.kernel_dim - snf.kernel_dim,
            "pi_degrees": [degree_dict(facts.extended_pi_degree(ell), budget) for ell in ells],
        }
    if with_cycles or with_kernel:
        report["even_cycles"] = [
            {
                "cycle": list(ckv.cycle),
                "cycle_sum": checked_cycle_sum(ckv, tau, d.m),
                **({"kernel_vector": list(ckv.vector)} if with_kernel else {}),
            }
            for ckv in facts.cycle_vectors
        ]
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


def rep_dict(M: SkewIntMatrix, ell: int, budget: int, verify: bool, irreducible: bool) -> dict:
    """The report on the monomial representation of M at ell. verify reads
    the legs, each checked as it is built, and reports the pairing that
    qas_representation checked against this M, which together prove every
    relation; irreducible adds the irreducibility certificate, which holds
    over every F_p with ell | p - 1 and names the least such p. The
    dimension is None past the budget or what JSON writes as an int."""
    rep = qas_representation(M, ell)
    shown = decimal_digits(rep.dim) <= min(budget, _str_digit_limit())
    report = {
        "ell": rep.ell,
        "matrix_size": M.n,
        "dimension": rep.dim if shown else None,
        "invariant_factors": [decimal_string(x) for x in rep.invariant_factors],
        "kernel_dim": rep.kernel_dim,
    }
    if not shown:
        entry = degree_dict(pi_degree_from_factors(rep.invariant_factors, ell), budget)
        report.update(dimension_digits=entry["digits"], dimension_exponent_form=exponent_form(entry))
    if verify:
        rep.legs  # built, and so checked, on first read
        report["relations_hold"] = True
        report["violation"] = None
    if irreducible:
        certified = irreducibility_check(rep)
        report["irreducible_mod_p"] = {"p": least_prime_1_mod(ell), "irreducible": certified}
    return report


def rep_lines(report: dict) -> list[str]:
    lines = [
        f"matrix size: {report['matrix_size']}",
        f"ell: {report['ell']}",
        "representation dimension: " + str(report["dimension"] or report["dimension_exponent_form"]
                                           + suppressed_value(report["dimension_digits"])),
        "invariant factors: " + (" ".join(report["invariant_factors"]) or "(none)"),
        f"kernel dimension: {report['kernel_dim']}",
    ]
    if "relations_hold" in report:
        lines.append("relations: all verified")
    if "irreducible_mod_p" in report:
        cert = report["irreducible_mod_p"]
        lines.append(f"irreducible over F_{cert['p']}: {'yes' if cert['irreducible'] else 'NO'}")
    return lines


def sweep_dict(corpus: str, seed: int, names: list[str] | None, out_dir: Path) -> dict:
    """The report of run_sweep over the corpus spec at seed: each property's
    failure count and first failure, and the verdict."""
    checked, results = run_sweep(*parse_corpus(corpus, seed), names, out_dir)
    properties = []
    for result in results:
        entry = {"name": result.name, "failures": result.failures, "checked": checked}
        if result.dumps:
            index, messages = result.dumps[0]
            entry["first_failure"] = f"item {index}: {messages[0]}"
        properties.append(entry)
    return {
        "corpus": corpus,
        "seed": seed,
        "items": checked,
        "properties": properties,
        "result": "FAIL" if any(r.failures for r in results) else "PASS",
    }


def sweep_lines(report: dict) -> list[str]:
    lines = [
        f"sweep corpus: {report['corpus']}", f"seed: {report['seed']}", f"items: {report['items']}",
    ]
    for entry in report["properties"]:
        failures = entry["failures"]
        status = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
        lines.append(f"property {entry['name']}: {status} ({entry['checked']} checked)")
        if "first_failure" in entry:
            lines.append(f"  first failure: {entry['first_failure']}")
    lines.append(f"result: {report['result']}")
    return lines


def emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if json.loads(text) != report:
            raise InternalVerificationFailed("JSON round trip failed")
        print(text)
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    """The text of the file at path; one that is not UTF-8 is a BadSpec naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadSpec(f"{path} is not UTF-8 text: {exc}")


def cmd_diagram(args: argparse.Namespace) -> int:
    budget = digit_budget()
    ells = tuple(map(check_ell, args.ell or ()))
    d = diagram_from_text(_read_text(args.file))
    report = analysis_dict(DiagramFacts(d), ells, budget, args.extended, args.cycles, args.kernel)
    emit(report, analysis_lines(report), args.json)
    return 0


def _parse_parts(text: str, what: str) -> tuple[int, ...]:
    """Comma separated integers, `what` naming them in the error message."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadRange(f"cannot parse {what} {text!r}")


def _parse_shape(parts_text: str, box: str | None) -> Partition:
    """The Young shape of comma separated parts, in a box like 3x5 if given."""
    parts = _parse_parts(parts_text, "partition")
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
    cross_check; the per-ell degree entries and lines are shared. Every ell
    is checked before the header, so a bad one builds nothing. Only a
    closed entry is compared with the generic route, so --verify reports a
    cross check only when some entry is closed."""

    def command(args: argparse.Namespace) -> int:
        budget = digit_budget()
        ells = tuple(map(check_ell, args.ell or ()))
        if not ells:
            raise BadEll("give at least one --ell")
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
    tau = partition_toric_permutation(shape)
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
    # Only --verify traces the board and runs the generic route, once for all the ells.
    facts = DiagramFacts(partial(young_diagram, shape))
    return fields, lines, partial(pi_degree_partition, shape, tau=tau, facts=facts)


@closed_form_command
def cmd_detring(args: argparse.Namespace):
    n, t = args.n, args.t
    cycles = determinantal_toric_cycles(n, t)
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
    facts = DiagramFacts(partial(determinantal_diagram, n, t))
    return fields, lines, partial(pi_degree_determinantal, n, t, facts=facts)


@closed_form_command
def cmd_schubert(args: argparse.Namespace):
    idx = PluckerIndex(_parse_parts(args.gamma, "index set"), args.n)
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
    # Only a fallback or --verify builds the shape's board, reduced once for all the ells.
    facts = DiagramFacts(partial(young_diagram, shape))
    return fields, lines, partial(pi_degree_schubert, idx, facts=facts)


@closed_form_command
def cmd_grassmannian(args: argparse.Namespace):
    m, n = args.m, args.n
    lines = [f"Grassmannian of {m}-planes in {n}-space"]
    facts = DiagramFacts(lambda: young_diagram(Partition((n - m,) * m)))
    return {"m": m, "n": n}, lines, partial(pi_degree_grassmannian, m, n, facts=facts)


def _rep_matrix(args: argparse.Namespace) -> SkewIntMatrix:
    sources = (args.diagram, args.matrix, args.detring, args.partition)
    if sum(source is not None for source in sources) != 1:
        raise BadRange("give exactly one of --diagram, --matrix, --detring, --partition")
    if args.box is not None and args.partition is None:
        raise BadRange("--box needs --partition")
    if args.diagram is not None:
        return matrix_from_diagram(diagram_from_text(_read_text(args.diagram)))
    if args.matrix is not None:
        try:
            rows = json.loads(_read_text(args.matrix))
        except (ValueError, RecursionError) as exc:
            raise BadSpec(f"cannot read a matrix from {args.matrix}: {exc}")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise BadSpec(f"{args.matrix} must hold a JSON list of rows of integers")
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if type(x) is not int:  # not isinstance: JSON true must not pass as 1
                    raise BadSpec(
                        f"{args.matrix}: entry ({i}, {j}) is {json.dumps(x)}, not an integer"
                    )
        M = SkewIntMatrix(tuple(map(tuple, rows)))
        check_matrix_cost(M)
        return M
    if args.detring is not None:
        try:
            n, t = (int(x) for x in args.detring.split(","))
        except ValueError:
            raise BadRange(f"cannot parse --detring {args.detring!r}, expected like 4,2")
        return matrix_from_diagram(determinantal_diagram(n, t))
    return matrix_from_diagram(young_diagram(_parse_shape(args.partition, args.box)))


def cmd_rep(args: argparse.Namespace) -> int:
    check_ell(args.ell)  # before the source is read or built
    budget = digit_budget()
    report = rep_dict(_rep_matrix(args), args.ell, budget, args.verify, args.irreducible)
    emit(report, rep_lines(report), args.json)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    names = None if args.properties is None else [x for x in args.properties.split(",") if x]
    report = sweep_dict(args.corpus, args.seed, names, Path(args.out))
    emit(report, sweep_lines(report), args.json)
    return 0 if report["result"] == "PASS" else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

ALGEBRA_ELLS = ("--ell", dict(action="append", type=int, help="ell >= 2, repeatable"))
VERIFY = ("--verify", dict(action="store_true"))

# Each subcommand: its help line, handler and arguments as (name, add_argument
# options) in help order; every subcommand also takes --json, added last.
COMMANDS = {
    "diagram": ("analyze a diagram file", cmd_diagram, [
        ("file", dict(help="path to a text diagram ('.' white, '#' black)")),
        ("--ell", dict(action="append", type=int, help="root of unity order (>= 2), repeatable")),
        ("--extended", dict(action="store_true", help="also analyze the bordered matrix")),
        ("--cycles", dict(action="store_true", help="list even toric cycles and their sums")),
        ("--kernel", dict(action="store_true", help="list the combinatorial kernel vectors")),
    ]),
    "partition": ("closed-form PI degree of a Young shape", cmd_partition, [
        ("parts", dict(help="comma separated parts, e.g. 5,3,2 (use - for empty)")),
        ("--box", dict(help="bounding box like 3x5 (default: tight box)")),
        ALGEBRA_ELLS,
        ("--verify", dict(action="store_true", help="cross-check against the generic route")),
    ]),
    "detring": ("determinantal board closed forms", cmd_detring, [
        ("n", dict(type=int)), ("t", dict(type=int)),
        ALGEBRA_ELLS,
        ("--verify", dict(action="store_true", help="cross-check cycles and degrees")),
    ]),
    "schubert": ("extended Schubert cell closed form", cmd_schubert, [
        ("gamma", dict(help="comma separated index set, e.g. 1,3,4,7")),
        ("n", dict(type=int, help="ambient dimension")),
        ALGEBRA_ELLS,
        VERIFY,
    ]),
    "grassmannian": ("quantum Grassmannian closed form", cmd_grassmannian, [
        ("m", dict(type=int)), ("n", dict(type=int)),
        ALGEBRA_ELLS,
        VERIFY,
    ]),
    "rep": ("monomial representation of a quantum affine space", cmd_rep, [
        ("--diagram", dict(help="diagram file")),
        ("--matrix", dict(help="JSON file with an integer skew matrix")),
        ("--detring", dict(help="determinantal board as n,t")),
        ("--partition", dict(help="Young shape parts, e.g. 5,3,2")),
        ("--box", dict(help="bounding box for --partition")),
        ("--ell", dict(type=int, required=True, help="ell >= 2")),
        ("--verify", dict(action="store_true", help="verify all commutation relations")),
        ("--irreducible", dict(
            action="store_true", help="certify irreducibility over every F_p with ell | p - 1",
        )),
    ]),
    "sweep": ("property sweep over a corpus", cmd_sweep, [
        ("corpus", dict(help="'exhaustive MxN', 'random MxN xK', or 'mutation NxN xK'")),
        ("--properties", dict(
            help="comma separated property names (default depends on corpus kind); "
            "diagram properties: " + ", ".join(sorted(DIAGRAM_PROPERTIES)) + "; "
            "matrix properties: " + ", ".join(sorted(MATRIX_PROPERTIES)),
        )),
        ("--seed", dict(type=int, default=20_240_601)),
        ("--out", dict(default="sweep-failures", help="directory for counterexample dumps")),
    ]),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The width HelpFormatter reads from the terminal when given none, read
    # once per call rather than once for every formatter argparse makes.
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="pideg",
        description="PI degrees of quantum algebras at roots of unity, "
        "via diagram combinatorics and exact integer linear algebra.",
        formatter_class=formatter,
    )
    # The top-level parser takes no option with a value, so the first
    # subcommand name in argv is the one it dispatches to, and only that one
    # is built, with -h and its arguments. The others are listed by name and
    # help line, and their parser is None, which argparse never reads.
    chosen = next((word for word in argv if word in COMMANDS), None)

    def subparser(arguments, **options):
        if arguments is None:
            return None
        p = argparse.ArgumentParser(formatter_class=formatter, **options)
        for argument, argument_options in arguments:
            p.add_argument(argument, **argument_options)
        p.add_argument("--json", action="store_true")
        return p

    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)
    for name, (help_line, _, arguments) in COMMANDS.items():
        sub.add_parser(name, help=help_line, arguments=arguments if name == chosen else None)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except (PidegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

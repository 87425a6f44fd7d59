"""Seeded, stratified inputs for the four workloads, and the per-op checks.

A workload is a fixed list of operations (one *pass*). Every input cell
(board size x black-square count, matrix size, representation source) has
a fixed count, so a new seed changes which squares are black, which
entries a matrix has and which shape a partition has, but not the cost
mix. The program only ever sees the generated board files, command-line
arguments and matrices.

Checks run outside the timed region. Invariant factors are compared with
``textbook_smith`` from ``tests/oracles.py``, applied to commutation
matrices that this module builds itself from the board text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path

README_BOARD = ".#.#.\n.#...\n###..\n"
WHITE_SIZE = 8
# Board size -> boards per black fraction. A board's cost grows steeply
# with its count of white squares and varies by about a fifth with where
# they fall, so the small sizes get several boards each: a new seed then
# moves the pass total and the percentiles little, and a pass stays short
# enough for several in one run.
DIAGRAM_COUNTS = {8: 5, 9: 5, 10: 4, 11: 2, 12: 1, 13: 1}
DIAGRAM_BLACK_FRACS = (0.5, 0.6, 0.7)
DIAGRAM_ELLS = (3, 4)

SWEEP_COMMANDS = 40
SWEEP_BOARDS = 8
SWEEP_PROPERTIES = "powers-of-2,kernel-cycles,cycle-sums,extended-laws,mod-p,pi-closed"

# Matrix size -> matrices per pass. Sizes step by 3, so both parities
# appear (an odd-size skew matrix always has a kernel) and op costs spread
# evenly instead of clustering; small sizes get more copies so that a pass
# has enough samples for a tail percentile.
MATRIX_COUNTS = {16: 5, 19: 5, 22: 4, 25: 4, 28: 3, 31: 3, 34: 3, 37: 3, 40: 2,
                 43: 2, 46: 2, 49: 2, 52: 1, 55: 1}
MATRIX_ENTRY = 5
MATRIX_ELLS = (2, 3, 4, 5, 6)

# (n, t, ell) determinantal boards.
REP_DETRING = ((3, 1, 3), (4, 1, 3), (5, 1, 3), (4, 2, 3), (5, 2, 3),
               (3, 1, 5), (4, 1, 5), (5, 1, 5), (4, 2, 5))
# (cells, s) -> every partition in a 4x4 box with that many cells whose
# commutation matrix has s invariant factors. All shapes in one group give
# a representation of dimension ell**s on the same number of generators,
# so they cost about the same.
SHAPES = {
    (4, 2): ("4", "3,1", "2,1,1", "1,1,1,1"),
    (5, 2): ("4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1"),
    (6, 3): ("4,1,1", "3,3", "3,2,1", "3,1,1,1", "2,2,2"),
    (7, 3): ("4,3", "4,2,1", "4,1,1,1", "3,3,1", "3,2,2", "3,2,1,1", "2,2,2,1"),
    (8, 4): ("4,4", "4,3,1", "4,2,2", "3,3,1,1", "3,2,2,1", "2,2,2,2"),
    (9, 4): ("4,4,1", "4,3,2", "4,3,1,1", "4,2,2,1", "3,3,2,1", "3,2,2,2"),
    (10, 5): ("4,4,2", "4,4,1,1", "4,2,2,2", "3,3,2,2"),
    (11, 5): ("4,4,3", "4,4,2,1", "4,3,3,1", "4,3,2,2", "3,3,3,2"),
    (12, 6): ("4,4,4", "4,4,3,1", "4,3,3,2", "3,3,3,3"),
}
# (ell, group) -> shapes per pass: the partition part of a rep pass, of
# dimension 9 to 729 at ell = 3 and 25 to 625 at ell = 5. Many small cells
# spread the op costs evenly, so the latency percentiles do not sit on a
# step between two cost classes. The two dimension-81 groups hold the
# median op cost, so they get more copies and op_ms_p50 falls inside them.
REP_PARTITIONS = {
    (3, (5, 2)): 3, (3, (6, 3)): 3, (3, (7, 3)): 3, (3, (8, 4)): 6, (3, (9, 4)): 6,
    (3, (10, 5)): 3, (3, (11, 5)): 3, (3, (12, 6)): 3,
    (5, (4, 2)): 3, (5, (5, 2)): 3, (5, (6, 3)): 3, (5, (7, 3)): 3, (5, (8, 4)): 3,
    (5, (9, 4)): 3,
}
# Span certificates at dimension 9 (ell = 3). The certificate costs about
# dim**6: dimension 25 takes over 5 s, longer than a whole pass.
REP_IRREDUCIBLE_SHAPES = SHAPES[(4, 2)]
REP_IRREDUCIBLE_COUNTS = {3: 4}


@dataclass(frozen=True)
class Op:
    """One operation: a pideg command line, or one library call on a matrix."""

    cell: str
    argv: tuple[str, ...] = ()
    matrix: tuple[tuple[int, ...], ...] = ()
    ell: int = 0
    board: str = ""
    expect: dict | None = None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _board_text(rng: random.Random, size: int, blacks: int) -> str:
    black = set(rng.sample(range(size * size), blacks))
    return "\n".join(
        "".join("#" if r * size + c in black else "." for c in range(size))
        for r in range(size)
    ) + "\n"


def diagram_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    boards = [("readme-3x5", README_BOARD),
              (f"white-{WHITE_SIZE}x{WHITE_SIZE}", ("." * WHITE_SIZE + "\n") * WHITE_SIZE)]
    for size, count in DIAGRAM_COUNTS.items():
        for frac in DIAGRAM_BLACK_FRACS:
            for _ in range(count):
                boards.append((f"{size}x{size}-b{frac}", _board_text(rng, size, round(frac * size * size))))
    ops = []
    for index, (cell, text) in enumerate(boards):
        path = workdir / f"board-{index}.txt"
        path.write_text(text)
        argv = ["diagram", str(path)]
        for ell in DIAGRAM_ELLS:
            argv += ["--ell", str(ell)]
        ops.append(Op(cell, tuple(argv + ["--extended", "--cycles", "--json"]), board=text))
    return ops


def sweep_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    out = str(workdir / "sweep-failures")
    return [
        Op(
            "random-6x6",
            ("sweep", f"random 6x6 x{SWEEP_BOARDS}", "--properties", SWEEP_PROPERTIES,
             "--seed", str(rng.randrange(2**31)), "--out", out, "--json"),
        )
        for _ in range(SWEEP_COMMANDS)
    ]


def _skew(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-MATRIX_ENTRY, MATRIX_ENTRY)
            rows[i][j], rows[j][i] = v, -v
    return tuple(map(tuple, rows))


def matrix_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op(f"n{n}", matrix=_skew(rng, n), ell=rng.choice(MATRIX_ELLS))
        for n, count in MATRIX_COUNTS.items()
        for _ in range(count)
    ]


def rep_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        Op(f"detring-{n},{t}-ell{ell}",
           ("rep", "--detring", f"{n},{t}", "--ell", str(ell), "--verify", "--json"),
           expect={"detring": (n, t)})
        for n, t, ell in REP_DETRING
    ]
    for (ell, (cells, s)), count in REP_PARTITIONS.items():
        for _ in range(count):
            text = rng.choice(SHAPES[cells, s])
            ops.append(Op(f"partition-{cells}cells-dim{ell**s}",
                          ("rep", "--partition", text, "--ell", str(ell), "--verify", "--json"),
                          expect={"partition": tuple(map(int, text.split(",")))}))
    for ell, count in REP_IRREDUCIBLE_COUNTS.items():
        for _ in range(count):
            text = rng.choice(REP_IRREDUCIBLE_SHAPES)
            ops.append(Op(f"irreducible-ell{ell}",
                          ("rep", "--partition", text, "--ell", str(ell), "--verify",
                           "--irreducible", "--json"),
                          expect={"partition": tuple(map(int, text.split(","))),
                                  "irreducible": True}))
    return ops


GENERATORS = {
    "diagram": diagram_ops,
    "sweep": sweep_ops,
    "rep": rep_ops,
    "matrix": matrix_ops,
}


# ---------------------------------------------------------------------------
# Reference computations (independent of the package's linear algebra)
# ---------------------------------------------------------------------------


def board_matrix(text: str) -> list[list[int]]:
    """Commutation matrix of a board: +1 at (i, j) when white square j lies
    below square i in its column or right of it in its row."""
    squares = [(r, c) for r, line in enumerate(text.split()) for c, ch in enumerate(line) if ch == "."]
    return [
        [(1 if (ci == cj and rj > ri) or (ri == rj and cj > ci) else
          -1 if (ci == cj and rj < ri) or (ri == rj and cj < ci) else 0)
         for rj, cj in squares]
        for ri, ci in squares
    ]


def bordered(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    return [list(row) + [1] for row in rows] + [[-1] * n + [0]]


def skew_factors(rows, smith) -> tuple[int, ...]:
    """One copy of each paired Smith invariant factor of a skew matrix."""
    factors = smith([list(r) for r in rows])
    return tuple(factors[::2])


def degree_value(h: tuple[int, ...], ell: int) -> int:
    return prod(ell // gcd(x, ell) for x in h)


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the answer is right
# ---------------------------------------------------------------------------


def _check_degrees(entries: list[dict], h: tuple[int, ...], ells, where: str) -> list[str]:
    got = [(e["ell"], e["value"]) for e in entries]
    want = [(ell, str(degree_value(h, ell))) for ell in ells]
    return [] if got == want else [f"{where} PI degrees {got}, expected {want}"]


def check_diagram(op: Op, result, smith, lib) -> list[str]:
    rc, out = result
    if rc != 0:
        return [f"exit status {rc}"]
    report = json.loads(out)
    M = board_matrix(op.board)
    h = skew_factors(M, smith)
    h_ext = skew_factors(bordered(M), smith)
    problems = []
    if report["invariant_factors"] != [str(x) for x in h]:
        problems.append(f"invariant factors {report['invariant_factors']}, reference {h}")
    if any(x & (x - 1) for x in h):
        problems.append(f"reference factors not powers of two: {h}")
    kernel = len(M) - 2 * len(h)
    if report["kernel_dim"] != kernel or report["tau"]["odd_cycle_count"] != kernel:
        problems.append(f"kernel dim {report['kernel_dim']}, odd cycles "
                        f"{report['tau']['odd_cycle_count']}, reference {kernel}")
    problems += _check_degrees(report["pi_degrees"], h, DIAGRAM_ELLS, "")
    ext = report["extended"]
    if ext["invariant_factors"] != [str(x) for x in h_ext]:
        problems.append(f"extended factors {ext['invariant_factors']}, reference {h_ext}")
    if ext["kernel_dim"] != len(M) + 1 - 2 * len(h_ext):
        problems.append(f"extended kernel dim {ext['kernel_dim']}")
    problems += _check_degrees(ext["pi_degrees"], h_ext, DIAGRAM_ELLS, "extended")
    even = [c for c in report["tau"]["cycles"] if len(c) % 2 == 0]
    if [e["cycle"] for e in report["even_cycles"]] != even:
        problems.append("cycle report does not list the even cycles of tau")
    return problems


def check_sweep(op: Op, result, smith, lib) -> list[str]:
    rc, out = result
    report = json.loads(out)
    problems = [] if rc == 0 and report["result"] == "PASS" else [f"sweep {report['result']}"]
    names = [p["name"] for p in report["properties"]]
    if names != SWEEP_PROPERTIES.split(",") or any(p["checked"] != SWEEP_BOARDS for p in report["properties"]):
        problems.append(f"sweep checked {report['properties']}")
    return problems


def check_rep(op: Op, result, smith, lib) -> list[str]:
    rc, out = result
    if rc != 0:
        return [f"exit status {rc}"]
    report = json.loads(out)
    ell = report["ell"]
    if "detring" in op.expect:
        n, t = op.expect["detring"]
        board = lib.determinantal_diagram(n, t)
        closed = lib.pi_degree_determinantal(n, t, ell)
    else:
        board = lib.young_diagram(lib.Partition(op.expect["partition"]))
        closed = lib.pi_degree_partition(lib.Partition(op.expect["partition"]), ell)
    h = skew_factors(board_matrix(board.to_text()), smith)
    problems = []
    if report["invariant_factors"] != [str(x) for x in h]:
        problems.append(f"invariant factors {report['invariant_factors']}, reference {h}")
    if report["dimension"] != closed.value or report["dimension"] != degree_value(h, ell):
        problems.append(f"dimension {report['dimension']}, closed form {closed.value}")
    if report.get("relations_hold") is not True:
        problems.append(f"relations failed at {report.get('violation')}")
    if op.expect.get("irreducible") and report["irreducible_mod_p"]["irreducible"] is not True:
        problems.append("representation not certified irreducible")
    return problems


def check_matrix(op: Op, pi, smith, lib) -> list[str]:
    h = skew_factors(op.matrix, smith)
    want = (op.ell, len(h), prod(gcd(x, op.ell) for x in h), degree_value(h, op.ell))
    got = (pi.ell, pi.exponent, pi.divisor, pi.value)
    return [] if got == want else [f"PI degree {got}, reference {want}"]


CHECKS = {
    "diagram": check_diagram,
    "sweep": check_sweep,
    "rep": check_rep,
    "matrix": check_matrix,
}

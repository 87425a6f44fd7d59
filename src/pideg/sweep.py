"""Property sweeps: the corpora, the property registry and the run loop.

A sweep checks the paper's theorems on every board of a corpus. The loop
visits each board once and hands every property the same per-board record,
a DiagramFacts (degrees.py), whose fields are computed on first use: the
commutation matrix, its normal form and that of the bordered matrix, the
toric permutation and the cycle kernel vectors. The bordered form is read
from the first one, so a board costs at most one full normal form whatever
properties are asked for, and only the facts some property reads. A matrix
corpus hands each property the matrix itself.

Items are built one at a time, as the loop reaches them, and a random or
mutation corpus is refused before any is built when one item would pass
diagrams.MAX_BOARD_CELLS cells. A property returns a list of failure
messages, empty when it holds. The first DUMP_LIMIT failures, in property
order and then board order, are written to the output directory as
counterexample files; the loop keeps only the items those files may need.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .degrees import DiagramFacts, smallest_prime_factor
from .diagrams import Diagram, check_board_cells
from .errors import BadSpec, InternalVerificationFailed, PidegError, SkewSymmetryViolated
from .intlinalg import SkewIntMatrix, checked_cycle_sum, ranks_mod

SWEEP_PRIMES = (3, 5, 7)
DUMP_LIMIT = 20


# ---------------------------------------------------------------------------
# Corpora
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


def random_diagrams(m: int, n: int, count: int, seed: int) -> Iterator[Diagram]:
    """Seeded uniform random boards, one at a time; deterministic for a
    given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield Diagram(tuple(
            tuple(bool(rng.getrandbits(1)) for _ in range(n)) for _ in range(m)
        ))


def mutation_matrices(n: int, count: int, seed: int) -> Iterator[list[list[int]]]:
    """Seeded random nonzero symmetric matrices (never skew-symmetric), one
    at a time."""
    rng = random.Random(seed)
    while count:
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = rng.randrange(-3, 4)
        if any(x for row in mat for x in row):
            count -= 1
            yield mat


def parse_corpus(spec: str, seed: int) -> tuple[str, Callable[[], Iterable]]:
    """The kind of a corpus spec, 'exhaustive MxN', 'random MxN xK' or
    'mutation NxN xK', and a builder of its items; nothing is built here.
    The exhaustive corpus is listed whole (at most 2^16 boards); the others
    yield one item at a time, and TooLarge refuses them here when an item
    would pass diagrams.MAX_BOARD_CELLS cells, as young_diagram does."""
    words = spec.split()
    counted = len(words) == 3 and words[2].startswith("x")
    source = words[0] if len(words) == 2 + counted else None
    try:
        m, n = (int(x) for x in words[1].split("x"))
        count = int(words[2][1:]) if counted else 1
    except (IndexError, ValueError):
        source = None
    if source not in (("random", "mutation") if counted else ("exhaustive",)):
        raise BadSpec(f"cannot parse corpus spec {spec!r}")
    if source == "exhaustive":
        if m < 1 or n < 1 or m * n > 16:
            raise BadSpec(f"exhaustive corpus too large or empty: {spec!r}")
        return "diagram", partial(exhaustive_diagrams, m, n)
    if m < 1 or n < 1 or count < 1 or source == "mutation" and m != n:
        raise BadSpec(f"bad {source} corpus: {spec!r}")
    check_board_cells(m, n)
    if source == "random":
        return "diagram", partial(random_diagrams, m, n, count, seed)
    return "matrix", partial(mutation_matrices, n, count, seed)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _prop_powers_of_2(facts: DiagramFacts) -> list[str]:
    h = facts.snf.invariant_factors
    bad = [x for x in h if x & (x - 1)]
    return [f"invariant factors not powers of 2: {h}"] if bad else []


def _prop_kernel_cycles(facts: DiagramFacts) -> list[str]:
    snf = facts.snf
    r_cycles = facts.tau.cycles.odd_cycle_count
    failures = []
    if r_cycles != snf.kernel_dim:
        failures.append(
            f"odd cycles {r_cycles} != kernel dim {snf.kernel_dim}"
        )
    if 2 * len(snf.invariant_factors) + snf.kernel_dim != facts.matrix.n:
        failures.append("rank + kernel does not fill the matrix size")
    try:
        facts.cycle_vectors  # independent, so a basis when r_cycles == kernel_dim
    except InternalVerificationFailed as exc:
        failures.append(f"cycle kernel vectors: {exc}")
    return failures


def _prop_cycle_sums(facts: DiagramFacts) -> list[str]:
    failures = []
    for ckv in facts.cycle_vectors:
        try:
            checked_cycle_sum(ckv, facts.tau, facts.diagram.m)
        except PidegError as exc:
            failures.append(f"cycle {ckv.cycle}: {exc}")
    return failures


def _prop_extended_laws(facts: DiagramFacts) -> list[str]:
    snf, esnf = facts.snf, facts.extended_snf
    h, h_ext = snf.invariant_factors, esnf.invariant_factors
    failures = []
    expected_jump = 1 if facts.one_perp else -1
    if esnf.kernel_dim - snf.kernel_dim != expected_jump:
        failures.append(
            f"kernel jump {esnf.kernel_dim - snf.kernel_dim}, expected {expected_jump}"
        )
    for i in range(min(len(h), len(h_ext))):
        if h[i] % h_ext[i]:
            failures.append(f"h_ext[{i}] = {h_ext[i]} does not divide h[{i}] = {h[i]}")
    side = min(facts.diagram.shape)
    if len(h_ext) == len(h) + 1 and side >= 1:
        odd = h_ext[len(h)]
        while odd % 2 == 0:
            odd //= 2
        while odd > 1:
            p = smallest_prime_factor(odd)
            if p > side:
                failures.append(f"odd prime {p} of extra factor exceeds {side}")
            while odd % p == 0:
                odd //= p
    return failures


def _prop_mod_p(facts: DiagramFacts) -> list[str]:
    M = facts.matrix
    kernel_dim = facts.snf.kernel_dim
    h = facts.snf.invariant_factors
    h_ext = facts.extended_snf.invariant_factors
    failures = []
    # One elimination mod 3 * 5 * 7 gives each prime's rank, and whether
    # the ones row is in the row space of M mod p, which holds exactly
    # when the mod-p kernel lies in the sum-zero hyperplane.
    for p, (rank, rhs) in zip(SWEEP_PRIMES, ranks_mod(M.rows, SWEEP_PRIMES)):
        if M.n - rank < kernel_dim:
            failures.append(f"mod-{p} kernel smaller than rational kernel")
        s_prime = sum(1 for x in h if x % p)
        lhs = s_prime >= len(h_ext) or h_ext[s_prime] % p == 0
        if lhs != rhs:
            failures.append(
                f"mod-{p} criterion: factor divisibility {lhs} vs kernel in "
                f"sum-zero hyperplane {rhs}"
            )
    return failures


def _prop_pi_closed(facts: DiagramFacts) -> list[str]:
    snf = facts.snf
    failures = []
    for ell in (3, 5):
        generic = facts.pi_degree(ell).value
        closed = ell ** ((facts.matrix.n - snf.kernel_dim) // 2)
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
DEFAULT_PROPERTIES = {
    "diagram": ["powers-of-2", "kernel-cycles"],
    "matrix": ["skew-reject"],
}


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


@dataclass
class PropertyResult:
    """One property over a corpus: its failure count, and the (item index,
    messages) of its first DUMP_LIMIT failures."""

    name: str
    failures: int = 0
    dumps: list[tuple[int, list[str]]] = field(default_factory=list)


def run_sweep(
    kind: str, build: Callable[[], Iterable], names: list[str] | None, out_dir: Path
) -> tuple[int, list[PropertyResult]]:
    """Check each named property on every item that build() yields; the
    item count, and one result per name, in order.

    names None asks for the corpus kind's DEFAULT_PROPERTIES; an empty list,
    or a name not in the kind's registry, is a BadSpec, raised before any
    item is built.
    Diagram properties share one DiagramFacts per board. Each item is
    dropped once checked, unless it is among the first DUMP_LIMIT failures
    of some property; the counterexamples are written to out_dir from
    those, as described in the module docstring.
    """
    registry = DIAGRAM_PROPERTIES if kind == "diagram" else MATRIX_PROPERTIES
    if names is None:
        names = DEFAULT_PROPERTIES[kind]
    if not names:
        raise BadSpec("no properties given")
    unknown = [x for x in names if x not in registry]
    if unknown:
        raise BadSpec(
            f"unknown properties for a {kind} corpus: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(registry))}"
        )
    checks = [(registry[name], PropertyResult(name)) for name in names]
    checked = 0
    kept = {}  # index -> item, for the items of recorded failures
    for index, item in enumerate(build()):
        checked += 1
        record = DiagramFacts(item) if kind == "diagram" else item
        for prop, result in checks:
            messages = prop(record)
            if messages:
                result.failures += 1
                if len(result.dumps) < DUMP_LIMIT:
                    result.dumps.append((index, messages))
                    kept[index] = item
    results = [result for _, result in checks]
    dumps = [(r.name, index, messages) for r in results for index, messages in r.dumps]
    for name, index, messages in dumps[:DUMP_LIMIT]:
        item = kept[index]
        body = item.to_text() if isinstance(item, Diagram) else json.dumps(item)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"counterexample-{name}-{index}.txt").write_text(
            body + "\n# property: " + name + "\n# " + "\n# ".join(messages) + "\n"
        )
    return checked, results

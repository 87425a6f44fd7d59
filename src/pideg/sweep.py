"""Property sweeps: the corpora, the property registry and the run loop.

A sweep checks the paper's theorems on every board of a corpus. The loop
visits each board once and hands every property the same per-board record,
a DiagramFacts (degrees.py), whose fields are computed on first use: the
commutation matrix, its normal form and that of the bordered matrix, the
toric permutation and the cycle kernel vectors. The bordered form is read
from the first one, so a board costs at most one full normal form whatever
properties are asked for, and only the facts some property reads. A matrix
corpus hands each property the matrix itself.

A property returns a list of failure messages, empty when it holds. The
first DUMP_LIMIT failures, in property order and then board order, are
written to the output directory as counterexample files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .degrees import DiagramFacts, smallest_prime_factor
from .diagrams import Diagram
from .errors import BadSpec, InternalVerificationFailed, PidegError, SkewSymmetryViolated
from .intlinalg import SkewIntMatrix, checked_cycle_sum, rank_mod_p

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
    except ValueError as exc:
        raise BadSpec(f"cannot parse corpus spec {spec!r}") from exc
    raise BadSpec(f"cannot parse corpus spec {spec!r}")


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
    for p in SWEEP_PRIMES:
        # The ones row is in the row space of M mod p exactly when the
        # mod-p kernel lies in the sum-zero hyperplane.
        rank, rhs = rank_mod_p(M.rows, p)
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
    kind: str, items: list, names: list[str] | None, out_dir: Path
) -> list[PropertyResult]:
    """Check each named property on every item; one result per name, in order.

    names None asks for the corpus kind's DEFAULT_PROPERTIES; an empty list,
    or a name not in the kind's registry, is a BadSpec, raised before any
    item is checked.
    Diagram properties share one DiagramFacts per board. Counterexamples
    are written to out_dir as described in the module docstring.
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
    for index, item in enumerate(items):
        record = DiagramFacts(item) if kind == "diagram" else item
        for prop, result in checks:
            messages = prop(record)
            if messages:
                result.failures += 1
                if len(result.dumps) < DUMP_LIMIT:
                    result.dumps.append((index, messages))
    results = [result for _, result in checks]
    dumps = [(r.name, index, messages) for r in results for index, messages in r.dumps]
    for name, index, messages in dumps[:DUMP_LIMIT]:
        item = items[index]
        body = item.to_text() if isinstance(item, Diagram) else json.dumps(item)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"counterexample-{name}-{index}.txt").write_text(
            body + "\n# property: " + name + "\n# " + "\n# ".join(messages) + "\n"
        )
    return results

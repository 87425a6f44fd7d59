"""Internal checks raise exceptions rather than assert, so they survive `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs under -O. Each check is driven to fail by patching a helper it relies on.
SCRIPT = r"""
import sys

if __debug__:
    sys.exit("the interpreter is not running with -O")

import oracles
from pideg import (
    Diagram,
    InternalVerificationFailed,
    RaggedRows,
    SkewIntMatrix,
    diagram_from_text,
    find_relation_violation,
    intlinalg,
    matrix_from_diagram,
    pi_degree_qas,
    qas_representation,
    reps,
    residues,
)


def expect(exc, fn, *args, match=""):
    try:
        fn(*args)
    except exc as err:
        if match not in str(err):
            sys.exit(f"{fn.__name__} raised {err!r}, not {match!r}")
        return
    sys.exit(f"{fn.__name__} did not raise {exc.__name__}")


expect(RaggedRows, Diagram, ((True,), (True, False)))

# A remainder in Bareiss' exact division can only come from a bug; force one.
oracles.divmod = lambda a, b: (0, 1)
expect(InternalVerificationFailed, oracles.kernel_basis_rational, [[1, 2], [3, 4], [5, 6]])
expect(InternalVerificationFailed, oracles.determinant, [[1, 2], [3, 4]])

# Dependent vectors fail the independence proof at their first zero Gram
# minor, the last one for the second set.
expect(InternalVerificationFailed, intlinalg._prove_independent, [(1, -1, 0), (1, -1, 0)])
expect(
    InternalVerificationFailed, intlinalg._prove_independent, [(1, 0), (0, 1), (1, 1)],
    match="the Gram minor of the first 3 is 0",
)

# A log whose last step is dropped, or that gains a step with i == j, fails
# the replay over Z.
reduce = intlinalg._reduce


def reduce_then(tamper):
    def tampered_reduce(M):
        log = reduce(M)
        tamper(log)
        return log

    return tampered_reduce


intlinalg._reduce = reduce_then(lambda log: log.__delitem__(slice(-3, None)))
expect(
    InternalVerificationFailed, intlinalg.skew_normal_form, SkewIntMatrix(((0, -2), (2, 0))),
    match="block shape broken",
)
intlinalg._reduce = reduce_then(lambda log: log.extend((1, 1, 1)))
expect(
    InternalVerificationFailed, intlinalg.skew_normal_form, SkewIntMatrix(((0, 2), (-2, 0))),
    match="not elementary",
)
intlinalg._reduce = reduce

# A log mod ell q that gains a step with i == j fails the replay mod ell q.
residue_reduce = residues._residue_reduce


def residue_reduce_with_i_equal_to_j(M, N):
    factors, log = residue_reduce(M, N)
    return factors, log + [1, 1, 1]


residues._residue_reduce = residue_reduce_with_i_equal_to_j
expect(
    InternalVerificationFailed, pi_degree_qas, SkewIntMatrix(((0, 2), (-2, 0))), 3,
    match="not elementary",
)
residues._residue_reduce = residue_reduce

# A replay mod ell q with one nonzero of E^T dropped fails E M E^T = S.
residue_transforms = residues._residue_transforms


def replay_dropping_an_entry(log, n, N):
    Et = residue_transforms(log, n, N)
    Et[-1].popitem()
    return Et


residues._residue_transforms = replay_dropping_an_entry
expect(
    InternalVerificationFailed, pi_degree_qas, SkewIntMatrix(((0, 2), (-2, 0))), 3,
    match="E M E^T is not the block form",
)

# A packed replay whose slot reduction is off by one leaves wrong residues
# in E^T, which the certificate mod ell q rejects.
reduce = residues._ResidueRows.reduce


def replay_off_by_one(log, n, N):
    residues._ResidueRows.reduce = lambda rows, row: reduce(rows, row) + rows.ones
    try:
        return residue_transforms(log, n, N)
    finally:
        residues._ResidueRows.reduce = reduce


residues._residue_transforms = replay_off_by_one
expect(
    InternalVerificationFailed, pi_degree_qas,
    SkewIntMatrix(((0, 1, 2, 3), (-1, 0, 4, 5), (-2, -4, 0, 6), (-3, -5, -6, 0))), 3,
)
residues._residue_transforms = residue_transforms

# A round that writes the rows of its shears but not their columns leaves
# the remainders in place; the reduction raises instead of looping forever.
round_ = intlinalg._pair_round


def round_without_columns(A, log, p):
    top, bottom = A[p], A[p + 1]
    a = top[p + 1]
    touched = [k for k in range(p + 2, len(A)) if top[k] or bottom[k]]
    for k in touched:
        u, v = -(top[k] // a), -(bottom[k] // -a)
        row = A[k]
        row[p:] = [x + u * y + v * z for x, y, z in zip(row[p:], bottom[p:], top[p:])]
        row[k] = 0
        log += (k, p + 1, u) if u else ()
        log += (k, p, v) if v else ()
    return touched


intlinalg._pair_round = round_without_columns
expect(
    InternalVerificationFailed,
    intlinalg.skew_normal_form,
    matrix_from_diagram(diagram_from_text(".#.#.\n.#...\n###..")),
    match="the pivot did not shrink",
)
intlinalg._pair_round = round_
shear = intlinalg._pair_add


# A divisibility repair (the only shear into the pivot row) that does
# nothing would be found again forever; 3 is no multiple of the pivot 2.
def shear_without_repair(A, log, dst, src, q, live):
    if dst != live:
        shear(A, log, dst, src, q, live)


intlinalg._pair_add = shear_without_repair
expect(
    InternalVerificationFailed,
    intlinalg.skew_normal_form,
    SkewIntMatrix(((0, 2, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0))),
    match="a divisibility repair left no remainder",
)
intlinalg._pair_add = shear

# A swap that does nothing leaves the pivot behind.
intlinalg._pair_swap = lambda *args: None
expect(
    InternalVerificationFailed,
    intlinalg.skew_normal_form,
    SkewIntMatrix(((0, 0, 0), (0, 0, 1), (0, -1, 0))),
)
# A pairing that misses M is reported as the pair, not raised.
M = SkewIntMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
rep = qas_representation(M, 3)
wrong = SkewIntMatrix(((0, 1, 1), (-1, 0, 1), (-1, -1, 0)))
if find_relation_violation(rep, wrong) != (0, 2):
    sys.exit("a broken pairing was not reported as the pair (0, 2)")

# A shift that is the clock again breaks the leg relation.
clock_shift = reps.clock_shift
reps.clock_shift = lambda ell, h: (clock_shift(ell, h)[0],) * 2
expect(InternalVerificationFailed, find_relation_violation, qas_representation(M, 3), M)
print("ok")
"""


def test_checks_raise_under_optimize():
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr or result.stdout
    assert result.stdout.strip() == "ok"


def test_package_has_no_assert_statements():
    for path in sorted((ROOT / "src" / "pideg").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"

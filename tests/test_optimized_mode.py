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

# Dependent vectors fail the independence proof once the primes pass the bound.
expect(InternalVerificationFailed, intlinalg._prove_independent, [(1, -1, 0), (1, -1, 0)])

# A transform with one nonzero of F dropped fails E F = I.
transforms, residue_transforms = intlinalg._transforms, residues._residue_transforms


def dropping_f_entry(replay):
    def replay_dropping_f_entry(log, n, *modulus):
        Et, F = replay(log, n, *modulus)
        F[-1].popitem()
        return Et, F

    return replay_dropping_f_entry


intlinalg._transforms = dropping_f_entry(transforms)
expect(InternalVerificationFailed, intlinalg.skew_normal_form, SkewIntMatrix(((0, 2), (-2, 0))))
# The same tamper fails the certificate of the congruence form mod ell q.
residues._residue_transforms = dropping_f_entry(residue_transforms)
expect(
    InternalVerificationFailed, pi_degree_qas, SkewIntMatrix(((0, 2), (-2, 0))), 3,
    match="E F is not the identity",
)
intlinalg._transforms = transforms

# A packed replay whose slot reduction is off by one leaves wrong residues
# in E and F, which the certificate mod ell q rejects.
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

# A shear that skips its column write leaves the remainders in place; the
# reduction raises instead of looping forever.
shear = intlinalg._pair_add


def shear_without_column(A, log, dst, src, q, live):
    row = A[dst]
    row[live:] = [x + q * y for x, y in zip(row[live:], A[src][live:])]
    row[dst] = 0
    log += (dst, src, q)


intlinalg._pair_add = shear_without_column
expect(
    InternalVerificationFailed,
    intlinalg.skew_normal_form,
    matrix_from_diagram(diagram_from_text(".#.#.\n.#...\n###..")),
    match="the pivot did not shrink",
)


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

"""PI degrees of quantum algebras at roots of unity.

The pipeline: a black/white diagram determines a skew integer commutation
matrix and a toric pipe-dream permutation; an exact unimodular congruence
puts the matrix in skew normal form; the invariant factors give the PI
degree at any root of unity, and the congruence transform lifts clock and
shift matrices to an irreducible monomial representation of that dimension.
Closed forms cover Young shapes, determinantal boards, Schubert cells and
Grassmannians, each cross-checkable against the generic route.
"""

from .degrees import (
    DiagramFacts,
    PiDegree,
    determinantal_invariant_exponent,
    determinantal_toric_cycles,
    pi_degree_determinantal,
    pi_degree_from_factors,
    pi_degree_grassmannian,
    pi_degree_partition,
    pi_degree_qas,
    pi_degree_schubert,
    smallest_prime_factor,
)
from .diagrams import (
    Diagram,
    Partition,
    PluckerIndex,
    determinantal_diagram,
    diagram_from_text,
    is_cauchon_le,
    partition_from_plucker,
    plucker_from_partition,
    young_diagram,
)
from .errors import (
    BadEll,
    BadRange,
    BadSpec,
    EmptyInput,
    FormulaMismatch,
    InternalVerificationFailed,
    PidegError,
    RaggedRows,
    ShapeOverflow,
    SkewSymmetryViolated,
    TooLarge,
    UnknownCharacter,
    ZeroDim,
)
from .intlinalg import (
    CycleKernelVector,
    SkewIntMatrix,
    SkewNormalForm,
    checked_cycle_sum,
    cycle_kernel_vectors,
    is_prime,
    matrix_from_diagram,
    skew_normal_form,
)
from .pipedreams import (
    CycleDecomposition,
    Permutation,
    cycle_decomposition,
    partition_permutation,
    partition_toric_permutation,
    toric_permutation,
    white_exit_labels,
)
from .reps import (
    MonomialMatrix,
    QASRepresentation,
    clock_shift,
    find_relation_violation,
    irreducibility_check,
    kron,
    qas_representation,
)

__version__ = "0.1.0"

__all__ = [
    "BadEll",
    "BadRange",
    "BadSpec",
    "CycleDecomposition",
    "CycleKernelVector",
    "Diagram",
    "DiagramFacts",
    "EmptyInput",
    "FormulaMismatch",
    "InternalVerificationFailed",
    "MonomialMatrix",
    "Partition",
    "Permutation",
    "PiDegree",
    "PidegError",
    "PluckerIndex",
    "QASRepresentation",
    "RaggedRows",
    "ShapeOverflow",
    "SkewIntMatrix",
    "SkewNormalForm",
    "SkewSymmetryViolated",
    "TooLarge",
    "UnknownCharacter",
    "ZeroDim",
    "checked_cycle_sum",
    "clock_shift",
    "cycle_decomposition",
    "cycle_kernel_vectors",
    "determinantal_diagram",
    "determinantal_invariant_exponent",
    "determinantal_toric_cycles",
    "diagram_from_text",
    "find_relation_violation",
    "irreducibility_check",
    "is_cauchon_le",
    "is_prime",
    "kron",
    "matrix_from_diagram",
    "partition_from_plucker",
    "partition_permutation",
    "partition_toric_permutation",
    "pi_degree_determinantal",
    "pi_degree_from_factors",
    "pi_degree_grassmannian",
    "pi_degree_partition",
    "pi_degree_qas",
    "pi_degree_schubert",
    "plucker_from_partition",
    "qas_representation",
    "skew_normal_form",
    "smallest_prime_factor",
    "toric_permutation",
    "white_exit_labels",
    "young_diagram",
]

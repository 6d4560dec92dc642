"""Determinantal representations of general plane curves.

Exact decision procedures for whether a general plane curve of degree d
is the determinant of a matrix of forms with a prescribed degree
matrix, and whether it contains a zero-dimensional subscheme with a
prescribed presentation; plus the resolution invariants (Hilbert
functions, h-vectors, Betti numbers), linear-series queries, and
randomized verification over a prime field.
"""

from .decide import (
    CorollaryResult,
    Decision,
    census,
    containment_profile,
    contains_subscheme,
    corollary_case,
    iter_dhb_matrices,
    representable,
    representable_2x2,
    scan,
    stable_threshold,
)
from .degree_matrix import (
    DegreeMatrix,
    DHBMatrix,
    WellOrderedSquare,
    canonicalize,
    erase_row,
    grid_from_potentials,
    insert_row_sorted,
    is_homogeneous,
    potentials,
    transversal_degree,
)
from .errors import (
    CensusBudgetError,
    CofactorBudgetError,
    CurvedetError,
    DegenerateEmptyError,
    EmptySchemeDegenerateError,
    FieldTooSmallError,
    InadmissibleHVectorError,
    IncompatibleRowError,
    InfeasibleQueryError,
    InvalidDHBError,
    InvalidResolutionError,
    InvalidWitnessParameterError,
    NotHomogeneousError,
    NotMinimalError,
    ScanBudgetError,
)
from .resolution import (
    BettiData,
    betti_of_matrix,
    generic_betti,
    h0_ideal,
    hilbert_function,
    hvector_from_betti,
    incidence_dimension,
    is_admissible_hvector,
    is_numerically_minimal,
    minimalize,
    plane_dim,
    scheme_degree,
    stabilization_bound,
)
from .series import (
    SeriesAnswer,
    SeriesQuery,
    SeriesRow,
    ShiftedProperty,
    analyze,
    enumerate_hvectors,
    genus,
    hf_constraints,
)
from .witness import (
    DEFAULT_PRIME,
    Form,
    FormMatrix,
    WitnessReport,
    det_degree_on_lines,
    det_form,
    ideal_dim,
    maximal_minors,
    random_form,
    sample_matrix,
    verify_representable,
    verify_subscheme,
)

__version__ = "0.1.0"

"""Determinantal representations of general plane curves.

Exact decision procedures for whether a general plane curve of degree d
is the determinant of a matrix of forms with a prescribed degree
matrix, and whether it contains a zero-dimensional subscheme with a
prescribed presentation; plus the resolution invariants (Hilbert
functions, h-vectors, Betti numbers), linear-series queries, and
randomized verification over a prime field.

The decision, degree-matrix, error and resolution names load with the
package.  The rest load on first use, so that a decision never imports
them: `series` and its names `SeriesAnswer`, `SeriesQuery`,
`SeriesRow`, `ShiftedProperty`, `analyze`, `enumerate_hvectors`,
`genus` and `hf_constraints`; `witness` and its names `DEFAULT_PRIME`,
`Form`, `FormMatrix`, `WitnessReport`, `det_form`, `ideal_dim`,
`maximal_minors`, `sample_matrix`, `verify_representable` and
`verify_subscheme`.
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
    SeriesBudgetError,
    WitnessBudgetError,
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

# name -> submodule of the names that load on first use (PEP 562)
_LAZY = {
    "series": "series",
    **dict.fromkeys((
        "SeriesAnswer", "SeriesQuery", "SeriesRow", "ShiftedProperty",
        "analyze", "enumerate_hvectors", "genus", "hf_constraints",
    ), "series"),
    "witness": "witness",
    **dict.fromkeys((
        "DEFAULT_PRIME", "Form", "FormMatrix", "WitnessReport", "det_form", "ideal_dim",
        "maximal_minors", "sample_matrix", "verify_representable", "verify_subscheme",
    ), "witness"),
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
# `from curvedet import *` binds every public name, the lazy ones included
__all__ = [name for name in __dir__() if not name.startswith("_")]

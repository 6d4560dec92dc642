"""The package namespace: every public name, eager or loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedet

SRC = str(Path(curvedet.__file__).resolve().parents[1])

# every public name of `curvedet` before `series` and `witness` loaded lazily,
# by the submodule that defines it
PUBLIC = {
    "decide": [
        "CorollaryResult", "Decision", "census", "containment_profile", "contains_subscheme",
        "corollary_case", "iter_dhb_matrices", "representable", "representable_2x2", "scan",
        "stable_threshold",
    ],
    "degree_matrix": [
        "DHBMatrix", "DegreeMatrix", "WellOrderedSquare", "canonicalize", "erase_row",
        "grid_from_potentials", "insert_row_sorted", "is_homogeneous", "potentials",
        "transversal_degree",
    ],
    "errors": [
        "CensusBudgetError", "CofactorBudgetError", "CurvedetError", "DegenerateEmptyError",
        "EmptySchemeDegenerateError", "FieldTooSmallError", "InadmissibleHVectorError",
        "IncompatibleRowError", "InfeasibleQueryError", "InvalidDHBError", "InvalidResolutionError",
        "InvalidWitnessParameterError", "NotHomogeneousError", "NotMinimalError", "ScanBudgetError",
        "SeriesBudgetError", "WitnessBudgetError",
    ],
    "resolution": [
        "BettiData", "betti_of_matrix", "generic_betti", "h0_ideal", "hilbert_function",
        "hvector_from_betti", "incidence_dimension", "is_admissible_hvector",
        "is_numerically_minimal", "minimalize", "plane_dim", "scheme_degree", "stabilization_bound",
    ],
    "series": [
        "SeriesAnswer", "SeriesQuery", "SeriesRow", "ShiftedProperty", "analyze",
        "enumerate_hvectors", "genus", "hf_constraints",
    ],
    "witness": [
        "DEFAULT_PRIME", "Form", "FormMatrix", "WitnessReport", "det_form", "ideal_dim",
        "maximal_minors", "sample_matrix", "verify_representable", "verify_subscheme",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in [module, *names]]


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
    ).stdout


class TestPublicNamespace:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_a_public_name_resolves_to_its_definition(self, module, name):
        submodule = importlib.import_module(f"curvedet.{module}")
        expected = submodule if name == module else getattr(submodule, name)
        namespace = {}
        exec(f"from curvedet import {name}", namespace)
        assert getattr(curvedet, name) is expected
        assert namespace[name] is expected
        assert name in dir(curvedet)

    def test_series_and_witness_load_on_first_use(self):
        out = _fresh(
            "import sys\n"
            "import curvedet\n"
            "listed = set(dir(curvedet))\n"
            "print(sorted(m for m in ('curvedet.series', 'curvedet.witness') if m in sys.modules))\n"
            "print(curvedet.witness.verify_subscheme.__module__)\n"
            "from curvedet import analyze\n"
            "print(analyze.__module__, sorted(listed - set(dir(curvedet))))\n"
        )
        assert out.splitlines() == ["[]", "curvedet.witness", "curvedet.series []"]

    def test_a_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from curvedet import *", namespace)
        assert {name for _, name in NAMES} <= set(namespace)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            curvedet.no_such_name
        with pytest.raises(ImportError):
            exec("from curvedet import no_such_name", {})

"""Command-line contract: JSON bodies, exit codes, schema errors."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import curvedet
from curvedet import decide, resolution, witness
from curvedet.cli import _render_table, run

SRC = str(Path(curvedet.__file__).resolve().parents[1])


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheckRepresentable:
    def test_degree_eight(self, capsys):
        code, body = invoke(
            capsys,
            "check-representable",
            "--matrix",
            "[[0,1,10,11],[-1,0,9,10],[-5,-4,5,6],[-8,-7,2,3]]",
        )
        assert code == 0
        assert body == {"answer": "yes", "degree": 8}

    def test_no_with_certificate(self, capsys):
        code, body = invoke(
            capsys, "check-representable", "--matrix", "[[2,3,8],[-3,-2,3],[-4,-3,2]]"
        )
        assert code == 0
        assert body["answer"] == "no"
        assert body["reason"] == "DiagonalNegative"
        assert body["k"] == 2

    def test_verbose_includes_normalized(self, capsys):
        code, body = invoke(
            capsys, "check-representable", "--matrix", "[[-1,2],[1,4]]", "--verbose"
        )
        assert code == 0
        assert body["normalized"] == [[1, 4], [-1, 2]]

    def test_verdict_is_not_the_exit_code(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", "[[1,3],[-1,1]]")
        assert code == 0
        assert body["answer"] == "no"


class TestCheckSubscheme:
    def test_no_at_degree_five(self, capsys):
        code, body = invoke(
            capsys, "check-subscheme", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "5"
        )
        assert code == 0
        assert body["answer"] == "no"
        assert body["reason"] == "SubdiagonalBlockDegree"
        assert body["k"] == 3
        assert body["blockDegree"] == 1

    def test_yes_at_degree_four(self, capsys):
        code, body = invoke(
            capsys, "check-subscheme", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "4"
        )
        assert code == 0
        assert body["answer"] == "yes"
        assert body["insertedRowPosition"] == 3

    def test_invalid_presentation_is_input_error(self, capsys):
        code, body = invoke(
            capsys, "check-subscheme", "--matrix", "[[1,2,3],[-2,-1,0]]", "--degree", "4"
        )
        assert code == 1
        assert body["error"] == "InvalidDHB"


class TestCorollaryAndThreshold:
    def test_case_tags(self, capsys):
        code, body = invoke(
            capsys, "corollary", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "9"
        )
        assert code == 0
        assert body["case"] == "i"
        assert body["answer"] == "yes"

    def test_threshold(self, capsys):
        code, body = invoke(capsys, "threshold", "--matrix", "[[2,3,5],[1,2,4]]")
        assert code == 0
        assert body == {"threshold": 7}

    @pytest.mark.parametrize("argv", [
        ["threshold", "--matrix", "[[2,3,5],[1,2,4]]"],
        ["witness", "--matrix", "[[1,1],[1,1]]", "--trials", "2"],
        ["witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "5", "--trials", "2"],
    ])
    def test_verbose_is_accepted_and_ignored(self, capsys, argv):
        outputs = []
        for extra in ([], ["--verbose"]):
            code = run(argv + extra)
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_verbose_help_names_the_commands_that_read_it(self, capsys):
        with pytest.raises(SystemExit):
            run(["threshold", "--help"])
        assert ("check-representable, check-subscheme, corollary and scan add the normalized matrix "
                "and trailing degrees; threshold and witness ignore it") in " ".join(capsys.readouterr().out.split())

    def test_scan(self, capsys):
        code, body = invoke(
            capsys, "scan", "--matrix", "[[2,3,5],[1,2,4]]", "--dmax", "9"
        )
        assert code == 0
        answers = [entry["answer"] for entry in body["scan"]]
        assert answers == ["no", "no", "no", "yes", "no", "yes", "yes", "yes", "yes"]

    def test_threshold_at_the_entry_bound(self, capsys):
        # a bisection of the Hilbert function, not about 2 * 10^6 levels
        assert run(["threshold", "--matrix", "[[1000000,1000000]]"]) == 0
        assert capsys.readouterr().out == '{"threshold": 1999998}\n'

    def test_scan_over_the_budget_is_refused_at_once(self, capsys):
        code, body = invoke(capsys, "scan", "--matrix", "[[2,3,5],[1,2,4]]", "--dmax", "1000000000")
        assert code == 1
        assert body["error"] == "ScanBudgetExceeded"
        assert (body["cells"], body["budget"]) == (3_000_000_000, 3_000_000)


class TestResolutionCommands:
    def test_hf(self, capsys):
        code, body = invoke(
            capsys, "hf", "--gens", "[7,6,4]", "--syz", "[9,8]", "--tmax", "7"
        )
        assert code == 0
        assert body["delta"] == 22
        assert body["stabilizationBound"] == 7
        assert body["hf"][4] == {"t": 4, "hf": 14, "h0": 1}
        assert body["hf"][7]["hf"] == 22

    @pytest.mark.parametrize("argv, tmax, cells", [
        (["--gens", "[2,2]", "--syz", "[4]", "--tmax", "1000000000"], "1000000000", "2,000,000,002"),
        # the default tmax is b_1 - 1
        (["--gens", "[1000000000,1000000000]", "--syz", "[2000000000]"], "1999999999", "4,000,000,000"),
    ])
    def test_hf_over_the_budget_is_refused_at_once(self, capsys, monkeypatch, argv, tmax, cells):
        def tabulate_anyway(*args):
            raise AssertionError("hf tabulated past its budget")

        monkeypatch.setattr(resolution, "hilbert_function", tabulate_anyway)
        code, body = invoke(capsys, "hf", *argv)
        assert code == 1
        assert body == {
            "error": "ScanBudgetExceeded",
            "message": f"hf to tmax = {tmax} over n = 2 would fill {cells} cells, over the budget of 3,000,000",
            "cells": int(cells.replace(",", "")),
            "budget": decide.SCAN_BUDGET,
        }

    def test_hf_budget_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(decide, "SCAN_BUDGET", 27)
        code, body = invoke(capsys, "hf", "--gens", "[7,6,4]", "--syz", "[9,8]")
        assert code == 0 and len(body["hf"]) == 9  # the default tmax 8 over n = 3: 27 cells, at the budget
        monkeypatch.setattr(decide, "SCAN_BUDGET", 26)
        code, body = invoke(capsys, "hf", "--gens", "[7,6,4]", "--syz", "[9,8]")
        assert code == 1 and (body["cells"], body["budget"]) == (27, 26)

    @pytest.mark.parametrize("argv, error", [
        (["--gens", "[2,2]", "--syz", "[5]", "--tmax", "1000000000"], "InvalidResolution"),
        (["--gens", "[2,2]", "--syz", "[4,4]", "--tmax", "1000000000"], "InvalidResolution"),
        (["--gens", "[2,2.5]", "--syz", "[4]", "--tmax", "1000000000"], "InputError"),
    ])
    def test_hf_input_errors_come_before_the_budget(self, capsys, argv, error):
        code, body = invoke(capsys, "hf", *argv)
        assert code == 1 and body["error"] == error

    def test_hf_at_tmax_zero(self, capsys):
        code, body = invoke(capsys, "hf", "--gens", "[2,2]", "--syz", "[4]", "--tmax", "0")
        assert code == 0 and body["hf"] == [{"t": 0, "hf": 1, "h0": 0}]

    def test_the_readme_hf_calls_are_within_the_budget(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        calls = [shlex.split(line)[1:] for line in readme.splitlines() if line.startswith("curvedet hf ")]
        assert calls
        for argv in calls:
            assert run(argv) == 0, argv

    def test_betti_from_hf(self, capsys):
        code, body = invoke(capsys, "betti-from-hf", "--h", "[1,2,3,4,5,3,2]")
        assert code == 0
        assert body == {"gens": [7, 5, 5, 5], "syz": [8, 8, 6]}

    def test_inadmissible_h_is_input_error(self, capsys):
        code, body = invoke(capsys, "betti-from-hf", "--h", "[1,3,1]")
        assert code == 1
        assert body["error"] == "InadmissibleHVector"


class TestSeriesCommand:
    def test_over_the_budget_is_refused(self, capsys, monkeypatch):
        from curvedet import series

        monkeypatch.setattr(series, "SERIES_BUDGET", 10)
        code, body = invoke(capsys, "series", "--curve-degree", "8", "--divisor-degree", "20", "--series-dim", "2")
        assert code == 1
        assert body["error"] == "SeriesBudgetExceeded"
        assert (body["prefixes"], body["budget"]) == (11, 10)

    def test_g20_table(self, capsys):
        code, body = invoke(
            capsys,
            "series",
            "--curve-degree", "8",
            "--divisor-degree", "20",
            "--series-dim", "2",
            "--properties", '[{"z":1,"kind":"nonspecial"},{"z":-1,"kind":"effective"}]',
        )
        assert code == 0
        assert len(body["rows"]) == 4
        assert all(row["existsOnGeneralCurve"] for row in body["rows"])
        flags = [tuple(row["flags"].values()) for row in body["rows"]]
        assert flags == [(True, False), (True, True), (False, False), (False, True)]

    def test_h_vector_longer_than_the_recursion_limit(self, capsys):
        code, body = invoke(
            capsys,
            "series",
            "--curve-degree", "4",
            "--divisor-degree", "3000",
            "--series-dim", "2998",
        )
        assert code == 0
        assert [row["h"] for row in body["rows"]] == [[1] * 3000]

    def test_unknown_property_field_rejected(self, capsys):
        code, body = invoke(
            capsys,
            "series",
            "--curve-degree", "8",
            "--divisor-degree", "20",
            "--series-dim", "2",
            "--properties", '[{"z":1,"kind":"nonspecial","extra":true}]',
        )
        assert code == 1
        assert "/properties/0" in body["message"]


class TestWitnessCommand:
    def test_square_matrix(self, capsys):
        code, body = invoke(
            capsys,
            "witness",
            "--matrix", "[[1,3],[-1,1]]",
            "--trials", "3",
            "--seed", "5",
        )
        assert code == 0
        assert body["mismatches"] == []
        assert body["observedDegrees"] == [2, 2, 2]

    def test_dhb_needs_degree(self, capsys):
        code, body = invoke(capsys, "witness", "--matrix", "[[2,3,5],[1,2,4]]")
        assert code == 1
        assert "degree" in body["message"]

    def test_subscheme_witness(self, capsys):
        code, body = invoke(
            capsys,
            "witness",
            "--matrix", "[[2,3,5],[1,2,4]]",
            "--degree", "4",
            "--trials", "2",
            "--seed", "5",
        )
        assert code == 0
        assert body["observedDegrees"] == [4, 4]
        assert body["hfProfile"][4]["observed"] == 14

    def test_negative_containment_is_witnessed(self, capsys):
        code, body = invoke(
            capsys, "witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "5", "--trials", "3"
        )
        assert code == 0
        assert body["mismatches"] == []
        assert body["verdictChecked"] == {
            "answer": "no", "degree": 5, "reason": "SubdiagonalBlockDegree",
            "k": 3, "blockDegree": 1, "insertedRowPosition": 3,
        }
        assert len(body["observedDegrees"]) == 3

    @pytest.mark.parametrize("prime", ["4294967311", "9"])
    def test_unusable_prime_is_input_error(self, capsys, prime):
        code, body = invoke(
            capsys,
            "witness",
            "--matrix", "[[1,1,1],[1,1,1]]",
            "--degree", "4",
            "--prime", prime,
        )
        assert code == 1
        assert body["error"] == "InvalidWitnessParameter"
        assert (body["parameter"], body["value"]) == ("prime", int(prime))

    def test_largest_prime_below_two_to_the_31(self, capsys):
        code, body = invoke(
            capsys,
            "witness",
            "--matrix", "[[1,1,1],[1,1,1]]",
            "--degree", "4",
            "--trials", "2",
            "--prime", "2147483647",
        )
        assert code == 0
        assert body["mismatches"] == []
        assert body["prime"] == 2147483647

    def test_presentation_beyond_the_cofactor_budget(self, capsys):
        # a 6 x 7 presentation (n = 7) is decided, but its minors are not expanded
        matrix = json.dumps([[1] * 7] * 6)
        code, body = invoke(capsys, "check-subscheme", "--matrix", matrix, "--degree", "7")
        assert (code, body["answer"]) == (0, "yes")
        code, body = invoke(capsys, "witness", "--matrix", matrix, "--degree", "7", "--trials", "1")
        assert code == 1
        assert body == {
            "error": "CofactorBudgetExceeded",
            "message": "cofactor expansion budget is n <= 6, got n = 7",
        }

    @pytest.mark.parametrize("matrix", [
        "[[1000000,1000000],[1000000,1000000]]",  # an OverflowError in the sampling before
        "[[3000,3000],[3000,3000]]",  # a MemoryError in the monomial tables before
        "[[3000,3000,3000],[3000,3000,3000]]",
    ])
    def test_a_witness_over_its_budget_is_refused(self, capsys, monkeypatch, matrix):
        monkeypatch.setattr(witness, "_residues", lambda *args: pytest.fail("drew"))
        code, body = invoke(
            capsys, "witness", "--matrix", matrix, "--degree", "9000", "--prime", "2147483629",
            "--trials", "1",
        )
        assert code == 1
        assert body["error"] == "WitnessBudgetExceeded"
        assert body["estimate"] > body["budget"] == witness.WITNESS_BUDGET

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("matrix", ["[[1,1],[1,1]]", "[[1,1,1],[1,1,1]]"])
    def test_trials_must_be_positive(self, capsys, matrix, trials):
        code, body = invoke(
            capsys, "witness", "--matrix", matrix, "--degree", "4", "--trials", trials
        )
        assert code == 1
        assert body["error"] == "InvalidWitnessParameter"
        assert (body["parameter"], body["value"]) == ("trials", int(trials))


# the README's call of each command that only decides or counts
DECISION_COMMANDS = [
    ["check-representable", "--matrix", "[[0,1,10,11],[-1,0,9,10],[-5,-4,5,6],[-8,-7,2,3]]"],
    ["check-subscheme", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "5"],
    ["corollary", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "9"],
    ["threshold", "--matrix", "[[2,3,5],[1,2,4]]"],
    ["scan", "--matrix", "[[2,3,5],[1,2,4]]", "--dmax", "9"],
    ["hf", "--gens", "[7,6,4]", "--syz", "[9,8]", "--tmax", "8"],
    ["betti-from-hf", "--h", "[1,2,3,4,5,3,2]"],
    ["enumerate", "--n", "3", "--degree", "4", "--bound", "3", "--minimal"],
]
# the README's series and witness calls, and a witness on the README's square
SERIES_AND_WITNESS_COMMANDS = {
    "series": ["series", "--curve-degree", "8", "--divisor-degree", "20", "--series-dim", "2",
               "--properties", '[{"z":1,"kind":"nonspecial"},{"z":-1,"kind":"effective"}]'],
    "witness-subscheme": ["witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "4", "--trials", "10",
                          "--seed", "1"],
    "witness-square": ["witness", "--matrix", DECISION_COMMANDS[0][2]],
}


class TestLazyNumpy:
    @staticmethod
    def _loaded(code: str, modules) -> list[str]:
        """Which of `modules` a fresh interpreter has loaded after `code`."""
        probe = f"import sys\n{code}\nprint(*[m in sys.modules for m in {list(modules)!r}])"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
        ).stdout
        flags = out.strip().splitlines()[-1].split()
        return [m for m, flag in zip(modules, flags) if flag == "True"]

    @classmethod
    def _loads_numpy(cls, code: str) -> bool:
        return cls._loaded(code, ["numpy"]) == ["numpy"]

    @pytest.mark.parametrize("argv", DECISION_COMMANDS, ids=[argv[0] for argv in DECISION_COMMANDS])
    def test_a_decision_command_loads_only_what_it_runs(self, argv):
        loaded = self._loaded(
            f"from curvedet import cli\nassert cli.run({argv!r}) == 0",
            ["curvedet.series", "curvedet.witness", "dataclasses", "inspect", "numpy"],
        )
        assert loaded == []

    @pytest.mark.parametrize("argv", SERIES_AND_WITNESS_COMMANDS.values(), ids=SERIES_AND_WITNESS_COMMANDS)
    def test_series_and_witness_do_not_load_dataclasses(self, argv):
        loaded = self._loaded(f"from curvedet import cli\nassert cli.run({argv!r}) == 0", ["dataclasses", "inspect"])
        assert loaded == []

    def test_decisions_do_not_load_numpy(self):
        assert not self._loads_numpy(
            "from curvedet import cli\n"
            "cli.run(['check-representable', '--matrix', '[[0,1,10,11],[-1,0,9,10],[-5,-4,5,6],[-8,-7,2,3]]'])"
        )

    def test_a_subscheme_witness_proved_by_coprime_minors_does_not_load_numpy(self):
        assert not self._loads_numpy(
            "from curvedet import cli\n"
            "cli.run(['witness', '--matrix', '[[2,3,5],[1,2,4]]', '--degree', '4'])"
        )

    def test_a_graded_rank_loads_numpy(self):
        assert self._loads_numpy(
            "import random\n"
            "from curvedet import ideal_dim, sample_matrix\n"
            "ideal_dim(sample_matrix([[2]], random.Random(0)).entries[0], 3)"
        )


class TestEnumerateCommand:
    def test_census(self, capsys):
        code, body = invoke(
            capsys, "enumerate", "--n", "2", "--degree", "3", "--bound", "3"
        )
        assert code == 0
        assert body["total"] == body["yes"] + body["no"] > 0

    def test_over_the_budget_is_refused_at_once(self, capsys):
        code, body = invoke(capsys, "enumerate", "--n", "8", "--degree", "5", "--bound", "8")
        assert code == 1
        assert body["error"] == "CensusBudgetExceeded"
        assert (body["candidates"], body["budget"]) == (1_577_585_295, 10_000_000)

    def test_degree_zero_is_an_input_error(self, capsys):
        code, body = invoke(capsys, "enumerate", "--n", "3", "--degree", "0", "--bound", "2")
        assert code == 1
        assert body == {"error": "InputError", "message": "curve degree must be >= 1, got 0"}


class TestPinnedStdout:
    """Whole stdout, compared as text so that key order counts."""

    SERIES_G20 = (
        '{"curveDegree": 8, "divisorDegree": 20, "seriesDim": 2, "constraints": ['
        '{"level": 5, "relation": "==", "value": 18, "mandatory": true, "label": "complete series dimension 2"}, '
        '{"level": 4, "relation": "==", "value": 15, "mandatory": false, "label": "D+1H nonspecial"}, '
        '{"level": 6, "relation": "<=", "value": 19, "mandatory": false, "label": "D-1H effective"}], "rows": ['
        '{"h": [1, 2, 3, 4, 5, 3, 2], "hf": [1, 3, 6, 10, 15, 18, 20, 20], "gens": [7, 5, 5, 5], '
        '"syz": [8, 8, 6], "existsOnGeneralCurve": true, '
        '"flags": {"D+1H nonspecial": true, "D-1H effective": false}}, '
        '{"h": [1, 2, 3, 4, 5, 3, 1, 1], "hf": [1, 3, 6, 10, 15, 18, 19, 20, 20], "gens": [8, 5, 5, 5], '
        '"syz": [9, 7, 7], "existsOnGeneralCurve": true, '
        '"flags": {"D+1H nonspecial": true, "D-1H effective": true}}, '
        '{"h": [1, 2, 3, 4, 4, 4, 2], "hf": [1, 3, 6, 10, 14, 18, 20, 20], "gens": [6, 6, 4], '
        '"syz": [8, 8], "existsOnGeneralCurve": true, '
        '"flags": {"D+1H nonspecial": false, "D-1H effective": false}}, '
        '{"h": [1, 2, 3, 4, 4, 4, 1, 1], "hf": [1, 3, 6, 10, 14, 18, 19, 20, 20], "gens": [8, 6, 6, 6, 4], '
        '"syz": [9, 7, 7, 7], "existsOnGeneralCurve": true, '
        '"flags": {"D+1H nonspecial": false, "D-1H effective": true}}]}\n'
    )

    @pytest.mark.parametrize("argv, code, stdout", [
        (
            ["series", "--curve-degree", "8", "--divisor-degree", "20", "--series-dim", "2",
             "--properties", '[{"z":1,"kind":"nonspecial"},{"z":-1,"kind":"effective"}]'],
            0,
            SERIES_G20,
        ),
        (
            ["enumerate", "--n", "8", "--degree", "5", "--bound", "8"],
            1,
            '{"error": "CensusBudgetExceeded", "message": "census over n = 8, bound = 8 would examine '
            '1,577,585,295 candidate presentations, over the budget of 10,000,000", '
            '"candidates": 1577585295, "budget": 10000000}\n',
        ),
        (
            ["witness", "--matrix", "[[1,1],[1,1]]", "--prime", "9"],
            1,
            '{"error": "InvalidWitnessParameter", "message": "prime must be a prime below 2^31, got 9", '
            '"parameter": "prime", "value": 9}\n',
        ),
        (
            ["witness", "--matrix", "[[1,1],[1,1]]", "--trials", "0"],
            1,
            '{"error": "InvalidWitnessParameter", "message": "trials must be at least 1, got 0", '
            '"parameter": "trials", "value": 0}\n',
        ),
    ], ids=["series-g20", "census-budget", "witness-prime", "witness-trials"])
    def test_stdout(self, capsys, argv, code, stdout):
        assert run(argv) == code
        assert capsys.readouterr().out == stdout


class TestInputValidation:
    def test_bad_json(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", "[[1,")
        assert code == 1
        assert body["error"] == "InputError"

    def test_pointer_paths(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", '[[1,2],[3,"x"]]')
        assert code == 1
        assert "/matrix/1/1" in body["message"]

    @pytest.mark.parametrize("matrix, message", [
        ("{}", "/matrix: expected a non-empty array of rows"),
        ("[]", "/matrix: expected a non-empty array of rows"),
        ("[[]]", "/matrix/0: expected a non-empty array of integers"),
        ("[[1,2],5]", "/matrix/1: expected a non-empty array of integers"),
        ("[[1,true]]", "/matrix/0/1: expected an integer"),
        ("[[1,2],[3,4],[5,null]]", "/matrix/2/1: expected an integer"),
        # an entry is checked before the row's length
        ('[[1],[2,"x"]]', "/matrix/1/1: expected an integer"),
        ("[[1,2,3],[1,2]]", "/matrix/1: row length 2 != 3"),
    ])
    def test_matrix_schema_messages(self, capsys, matrix, message):
        code, body = invoke(capsys, "check-representable", "--matrix", matrix)
        assert code == 1
        assert body == {"error": "InputError", "message": message}

    def test_ragged_matrix(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", "[[1,2],[3]]")
        assert code == 1
        assert "/matrix/1" in body["message"]

    def test_not_homogeneous(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", "[[1,2],[2,2]]")
        assert code == 1
        assert body["error"] == "NotHomogeneous"
        assert body["rows"] == [1, 2]

    def test_unknown_command(self, capsys):
        code, body = invoke(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, body = invoke(capsys, "check-subscheme", "--matrix", "[[2,3,5],[1,2,4]]")
        assert code == 1

    def test_negative_degree_matrix_is_input_error(self, capsys):
        code, body = invoke(capsys, "check-representable", "--matrix", "[[-2]]")
        assert code == 1
        assert body["error"] == "InputError"

    SERIES = ["series", "--curve-degree", "8", "--divisor-degree", "20", "--series-dim", "2", "--properties"]

    @pytest.mark.parametrize("argv, message", [
        (["check-subscheme", "--matrix", "[[1,1],[1,1]]", "--degree", "2"], "/matrix: expected an (n-1) x n matrix"),
        (["witness", "--matrix", "[[1,2,3]]"], "/matrix: expected n x n or (n-1) x n, got 1 x 3"),
        ([*SERIES, '{"z": 1}'], "/properties: expected an array of {z, kind} objects"),
        ([*SERIES, "[1]"], "/properties/0: expected an object"),
        ([*SERIES, '[{"z": "1", "kind": "nonspecial"}]'], "/properties/0/z: expected an integer"),
        ([*SERIES, '[{"z": 1, "kind": "ample"}]'], "/properties/0/kind: expected 'nonspecial' or 'effective'"),
        (["hf", "--gens", "[2,2]", "--syz", "[4]", "--tmax", "-1"], "tmax must be >= 0, got -1"),
        (["hf", "--gens", "[2,2]", "--syz", "[4]", "--tmax", "-3"], "tmax must be >= 0, got -3"),
    ], ids=["subscheme-on-a-square", "witness-on-1x3", "properties-not-an-array", "property-not-an-object",
            "property-z-not-an-integer", "property-unknown-kind", "hf-tmax-minus-1", "hf-tmax-minus-3"])
    def test_input_errors(self, capsys, argv, message):
        code, body = invoke(capsys, *argv)
        assert code == 1
        assert body == {"error": "InputError", "message": message}


class TestMismatchExitCode:
    def test_contradicting_witness_exits_2(self, capsys, monkeypatch):
        # a determinant that vanishes everywhere contradicts a yes; both the
        # value at the line's direction and the restriction see it
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        code, body = invoke(capsys, "witness", "--matrix", "[[1,1],[1,1]]", "--trials", "2")
        assert code == 2
        assert body["verdictChecked"]["answer"] == "yes"
        assert body["mismatches"] == ["no trial realized the full degree 2"]

    def test_zero_curve_exits_2(self, capsys, monkeypatch):
        # F(1, 0, 0) read as 0 sends the trial to its forms, whose full draw, of Q's
        # 6 + 10 + 21 + 3 + 6 + 15 coefficients and the inserted row (-3, -2, 0)'s
        # one, ends with that row: drawn as 0, F vanishes
        true_residues = witness._residues
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        monkeypatch.setattr(witness, "_residues",
                            lambda rng, count, p: true_residues(rng, count, p)[:-1] + [0] if count == 62
                            else true_residues(rng, count, p))
        code, body = invoke(capsys, "witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "4", "--trials", "1")
        assert code == 2
        assert body["verdictChecked"]["answer"] == "yes"
        assert body["mismatches"] == ["trial 0: curve degree None != 4"]

    def test_zero_curve_in_one_trial_is_no_contradiction(self, capsys):
        # the inserted row is (c, 0) for a constant c, and trial 1 draws c = 0 at p = 7
        code, body = invoke(capsys, "witness", "--matrix", "[[3,4]]", "--degree", "3", "--prime", "7",
                            "--trials", "5")
        assert code == 0
        assert body["observedDegrees"] == [3, None, 3, 3, 3]
        assert body["mismatches"] == []

    def test_a_hilbert_function_off_at_one_level_exits_2(self, capsys, monkeypatch):
        # the levels are ranked, not proved by coprime minors, so every trial sees it
        true_hf = witness.hilbert_function
        monkeypatch.setattr(witness, "hilbert_function", lambda B, t: true_hf(B, t) + (t == 5))
        monkeypatch.setattr(witness, "_coprime", lambda f, g, p: False)
        code, body = invoke(capsys, "witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "4", "--trials", "3")
        assert code == 2
        assert body["mismatches"] == [f"trial {i}: Hilbert function at level 5 is 18, predicted 19" for i in range(3)]

    def test_curve_on_the_line_direction_is_no_contradiction(self, capsys):
        # d = 8 is above the stable threshold 7; at p = 101 trial 2 samples a
        # curve through the direction of the line that trial would draw
        code, body = invoke(capsys, "witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "8",
                            "--trials", "5", "--prime", "101", "--seed", "5")
        assert code == 0
        assert body["mismatches"] == []

    def test_a_block_degree_lost_on_one_line_is_no_contradiction(self, capsys):
        # trial 3's line lowers the leading block's degree from 5 to 4
        code, body = invoke(capsys, "witness", "--matrix",
                            "[[2,2,5,6,5],[-3,-3,0,1,0],[-3,-3,0,1,0],[3,3,6,7,6],[-1,-1,2,3,2]]",
                            "--seed", "604815836", "--trials", "4")
        assert code == 0
        assert body["observedDegrees"] == [8, 8, 8, 7]
        assert body["mismatches"] == []

    def test_blocks_that_do_not_multiply_exit_2(self, capsys, monkeypatch):
        # doubled values keep each 1 x 1 block's degree but break det = lead * trail
        true_det = witness._det_numeric

        def det(mat, p):
            value = true_det(mat, p)
            return 2 * value % p if len(mat) < 2 else value

        monkeypatch.setattr(witness, "_det_numeric", det)
        code, body = invoke(capsys, "witness", "--matrix", "[[1,3],[-1,1]]", "--trials", "3")
        assert code == 2
        assert body["verdictChecked"]["reason"] == "SubdiagonalBlockDegree"
        assert body["mismatches"] == [
            f"trial {i}: block determinants do not multiply to the determinant" for i in range(3)
        ]


class TestClosedStdout:
    def test_reader_closing_the_pipe_is_not_an_error(self):
        # 189 KB of JSON: more than a pipe holds, so the writer meets the closed end
        proc = subprocess.Popen(
            [sys.executable, "-m", "curvedet.cli", "series", "--curve-degree", "4",
             "--divisor-degree", "20000", "--series-dim", "19998"],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(20) == b'{"curveDegree": 4, "'
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr

    def test_a_contradiction_still_exits_2(self, monkeypatch):
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert run(["witness", "--matrix", "[[1,1],[1,1]]", "--trials", "2"]) == 2


SCAN_TABLE = """\
scan:
  d: 1
  answer: no
  degree: 1
  reason: DiagonalNegative
  k: 3
  insertedRowPosition: 3

  d: 2
  answer: no
  degree: 2
  reason: DiagonalNegative
  k: 3
  insertedRowPosition: 3

  d: 3
  answer: no
  degree: 3
  reason: DiagonalNegative
  k: 3
  insertedRowPosition: 3

  d: 4
  answer: yes
  degree: 4
  insertedRowPosition: 3

  d: 5
  answer: no
  degree: 5
  reason: SubdiagonalBlockDegree
  k: 3
  blockDegree: 1
  insertedRowPosition: 3
"""

# the last entry of `scan --dmax 4 --verbose`: a list nested in a list
# renders on one line
VERBOSE_SCAN_TABLE_TAIL = """\

  d: 4
  answer: yes
  degree: 4
  insertedRowPosition: 3
  normalized:
    - [2, 3, 5]
    - [1, 2, 4]
    - [-3, -2, 0]
  trailingDegrees:
    - [3, 0]
"""


class TestTableFormat:
    def test_table_renders(self, capsys):
        code = run(["threshold", "--matrix", "[[2,3,5],[1,2,4]]", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "threshold: 7" in out

    def test_scan_renders_a_list_of_decisions(self, capsys):
        code = run(["scan", "--matrix", "[[2,3,5],[1,2,4]]", "--dmax", "5", "--format", "table"])
        assert code == 0
        assert capsys.readouterr().out == SCAN_TABLE

    def test_verbose_scan_renders_nested_lists(self, capsys):
        code = run(["scan", "--matrix", "[[2,3,5],[1,2,4]]", "--dmax", "4", "--format", "table", "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scan:\n  d: 1\n")
        assert out.endswith(VERBOSE_SCAN_TABLE_TAIL)
        # d = 1..3 have no trailing blocks; an empty list stays visible
        assert out.count("  trailingDegrees: []\n") == 3
        assert "\n\n\n" not in out

    @pytest.mark.parametrize("argv", [
        ["hf", "--gens", "[2,2,2]", "--syz", "[3,3]"],
        ["betti-from-hf", "--h", "[1,2,1]"],
        ["enumerate", "--n", "2", "--degree", "2", "--bound", "1"],
        ["threshold", "--matrix", "[[2,3,5],[1,2,4]]"],
    ])
    def test_every_subcommand_takes_the_format_option(self, capsys, argv):
        assert run(argv + ["--format", "table"]) == 0
        assert not capsys.readouterr().out.startswith("{")
        code, body = invoke(capsys, *argv, "--format", "xml")
        assert code == 1 and body["error"] == "InputError"

    def test_empty_containers_render_inline(self):
        assert _render_table({"a": [], "b": {}, "c": [[]]}) == "a: []\nb: {}\nc:\n  - []"


class TestDeterminism:
    def test_witness_deterministic_given_seed(self, capsys):
        argv = ["witness", "--matrix", "[[2,3,5],[1,2,4]]", "--degree", "4", "--trials", "3", "--seed", "9"]
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(json.loads(out1)["observedDegrees"]) == 3

    def test_normalized_round_trip(self, capsys):
        code, body = invoke(
            capsys, "check-representable", "--matrix", "[[-1,2],[1,4]]", "--verbose"
        )
        code2, body2 = invoke(
            capsys, "check-representable", "--matrix", json.dumps(body["normalized"]), "--verbose"
        )
        assert body2["normalized"] == body["normalized"]
        assert (body2["answer"], body2.get("reason"), body2.get("k")) == (
            body["answer"],
            body.get("reason"),
            body.get("k"),
        )

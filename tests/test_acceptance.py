"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact except the randomized witness suites,
which run at p = 32003 with fixed seeds and the documented allowance of
a single reseeded rerun.
"""

import random
import time
from contextlib import contextmanager

from curvedet import (
    BettiData,
    canonicalize,
    contains_subscheme,
    corollary_case,
    erase_row,
    generic_betti,
    grid_from_potentials,
    h0_ideal,
    hilbert_function,
    hvector_from_betti,
    incidence_dimension,
    iter_dhb_matrices,
    minimalize,
    representable,
    representable_2x2,
    scan,
    scheme_degree,
    stabilization_bound,
    stable_threshold,
    verify_representable,
    verify_subscheme,
)
from curvedet.resolution import betti_of_matrix
from curvedet.series import SeriesQuery, ShiftedProperty, analyze


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def dhb(grid):
    Q, _, _ = canonicalize(grid)
    return Q


def test_criterion_1_degree_22_scheme_decision_vector():
    with criterion(1, "decision vector for the 22-point presentation and its threshold"):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        verdicts = [decision.verdict for _, decision in scan(Q, 9)]
        assert verdicts == [False, False, False, True, False, True, True, True, True]
        assert stable_threshold(Q) == 7


def test_criterion_2_degree_eight_matrix_and_erasure():
    with criterion(2, "4x4 degree-8 matrix is representable; erasing row 1 is invalid"):
        grid = [[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]]
        decision = representable(grid)
        assert decision.verdict and decision.degree == 8
        M, _, _ = canonicalize(grid)
        R = erase_row(M, 1)
        assert R.entries[0][0] == -1
        assert not R.diag_nonnegative
        assert not R.is_valid


def test_criterion_3_twenty_points_and_cancellation():
    with criterion(3, "20-point presentation at degree 6; h-vector Betti data; cancellation"):
        Q = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
        assert contains_subscheme(Q, 6).verdict
        B = generic_betti((1, 2, 3, 4, 5, 3, 2))
        assert sorted(B.gens) == [5, 5, 5, 7]
        assert sorted(B.syz) == [6, 8, 8]
        assert minimalize(BettiData.of([7, 7, 5, 5, 5], [8, 8, 7, 6])) == B


def test_criterion_4_linear_series_table():
    with criterion(4, "four complete g^2_20 classes on an octic with exact flags"):
        answer = analyze(
            SeriesQuery(8, 20, 2, (ShiftedProperty(1, "nonspecial"), ShiftedProperty(-1, "effective")))
        )
        assert len(answer.rows) == 4
        assert [row.hilbert_values(7) for row in answer.rows] == [
            (1, 3, 6, 10, 15, 18, 20, 20),
            (1, 3, 6, 10, 15, 18, 19, 20),
            (1, 3, 6, 10, 14, 18, 20, 20),
            (1, 3, 6, 10, 14, 18, 19, 20),
        ]
        assert all(row.exists_on_general_curve for row in answer.rows)
        assert [tuple(ok for _, ok in row.flags) for row in answer.rows] == [
            (True, False),
            (True, True),
            (False, False),
            (False, True),
        ]


def test_criterion_5_ideal_sections_and_incidence_dimensions():
    with criterion(5, "quartic/quintic section counts and incidence dimensions"):
        B = BettiData.of([7, 6, 4], [9, 8])
        assert h0_ideal(B, 4) == 1
        assert h0_ideal(B, 5) == 3
        assert incidence_dimension(21, B, 4)[0] == 21
        assert incidence_dimension(21, B, 5)[0] == 23


def test_criterion_6_closed_form_equals_procedure_exhaustively():
    with criterion(6, "closed form == insertion procedure on all minimal cases (n <= 5, bound 6)"):
        start = time.monotonic()
        cases = 0
        for n in range(2, 6):
            for Q in iter_dhb_matrices(n, 6, minimal_only=True):
                top = Q.shifts[0] + 2
                for d in range(1, top + 1):
                    # the whole certificate, every field of the Decision
                    assert corollary_case(Q, d).decision == contains_subscheme(Q, d), (Q.entries, d)
                    cases += 1
        elapsed = time.monotonic() - start
        assert cases >= 10_000
        assert elapsed < 60, f"took {elapsed:.1f}s"
        print(f"  ({cases} cases in {elapsed:.1f}s)", end=" ")


def test_criterion_7_two_by_two_exhaustive():
    with criterion(7, "2x2 closed form == general test for all entries in [-10, 10]"):
        checked = 0
        for m11 in range(-10, 11):
            for m12 in range(-10, 11):
                for m21 in range(-10, 11):
                    m22 = m12 + m21 - m11
                    if not -10 <= m22 <= 10 or m11 + m22 < 0:
                        continue
                    grid = [[m11, m12], [m21, m22]]
                    assert representable_2x2(grid).verdict == representable(grid).verdict
                    checked += 1
        assert checked == 3311


def _random_valid_betti(rng: random.Random, max_n=6, cap=15) -> BettiData:
    while True:
        n = rng.randint(2, max_n)
        u = sorted((rng.randint(-4, 4) for _ in range(n - 1)), reverse=True)
        v = sorted(rng.randint(0, 4) for _ in range(n))
        v = [x - v[0] for x in v]
        diag = [u[k] + v[k] for k in range(n - 1)]
        lift = max(0, -min(diag), 1 - max(diag))
        u = [x + lift for x in u]
        Q = dhb(grid_from_potentials(u, v))
        B = betti_of_matrix(Q)
        if B.syz[0] <= cap:
            return B


def test_criterion_8_hilbert_function_stabilization():
    with criterion(8, "Hilbert function reaches the degree at b_1 - 2 on 200 random resolutions"):
        rng = random.Random(20240810)
        for _ in range(200):
            B = _random_valid_betti(rng)
            delta = scheme_degree(B)
            bound = stabilization_bound(B)
            for t in range(max(bound, 0), max(bound, 0) + 4):
                assert hilbert_function(B, t) == delta
            assert sum(hvector_from_betti(B)) == delta


def _random_square_decision(rng: random.Random):
    n = rng.randint(2, 5)
    u = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
    v = sorted(rng.randint(0, 3) for _ in range(n))
    grid = grid_from_potentials(u, v)
    d = sum(grid[i][i] for i in range(n))
    if d < 0:
        return None, None, None
    return grid, representable(grid), d


def _witness_positive_suite(seed: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    found = 0
    while found < 50:
        grid, decision, d = _random_square_decision(rng)
        if decision is None or not decision.verdict or not 1 <= d <= 12:
            continue
        found += 1
        report = verify_representable(grid, trials=10, seed=rng.randrange(2**31))
        if not report.ok:
            failures.append(f"positive #{found}: {report.mismatches}")
        elif report.observed_degrees and max(
            deg for deg in report.observed_degrees if deg is not None
        ) != d:
            failures.append(f"positive #{found}: never saw degree {d}")
    return failures


def _witness_negative_suite(seed: int) -> list[str]:
    rng = random.Random(seed)
    failures = []
    diag_found = block_found = 0
    while diag_found < 20 or block_found < 20:
        grid, decision, d = _random_square_decision(rng)
        if decision is None or decision.verdict:
            continue
        if decision.reason == "DiagonalNegative" and diag_found < 20:
            diag_found += 1
            report = verify_representable(grid, trials=5, seed=rng.randrange(2**31))
            if not report.ok or any(deg is not None for deg in report.observed_degrees):
                failures.append(f"diagonal #{diag_found}: {report.mismatches}")
        elif decision.reason == "SubdiagonalBlockDegree" and block_found < 20:
            block_found += 1
            report = verify_representable(grid, trials=5, seed=rng.randrange(2**31))
            if not report.ok:
                failures.append(f"block #{block_found}: {report.mismatches}")
    return failures


def _run_with_one_reseed(suite, base_seed: int, label: str):
    failures = suite(base_seed)
    if failures:
        print(f"  {label}: reseeding after {failures[:2]} (seed {base_seed} -> {base_seed + 1})")
        failures = suite(base_seed + 1)
    assert not failures, failures


def test_criterion_9_witness_degree_suites():
    with criterion(9, "witness suites: 50 positive, 20 vanishing, 20 factoring samples"):
        _run_with_one_reseed(_witness_positive_suite, 909090, "positive suite")
        _run_with_one_reseed(_witness_negative_suite, 606060, "negative suite")


def _witness_hf_suite(seed: int) -> tuple[int, int, list[str]]:
    rng = random.Random(seed)
    failures = []
    total_trials = 0
    good_trials = 0
    for index in range(25):
        while True:
            n = rng.randint(2, 4)
            u = sorted((rng.randint(-2, 2) for _ in range(n - 1)), reverse=True)
            v = sorted(rng.randint(0, 2) for _ in range(n))
            v = [x - v[0] for x in v]
            diag = [u[k] + v[k] for k in range(n - 1)]
            lift = max(0, -min(diag), 1 - max(diag))
            u = [x + lift for x in u]
            grid = grid_from_potentials(u, v)
            if all(abs(x) <= 4 for row in grid for x in row):
                break
        Q = dhb(grid)
        d = stable_threshold(Q)
        for trial_seed in range(4):
            total_trials += 1
            report = verify_subscheme(Q, d, trials=1, seed=seed + 1000 * index + trial_seed)
            if report.ok:
                good_trials += 1
            else:
                failures.append(f"presentation {index} (d={d}): {report.mismatches[:1]}")
    return total_trials, good_trials, failures


def test_criterion_10_witness_hilbert_function_suite():
    with criterion(10, "minor-ideal graded dimensions match the Hilbert function; membership holds"):
        total, good, failures = _witness_hf_suite(101010)
        if good < total:
            print(f"  hf suite: {failures[:3]}")
        assert total == 100
        assert good / total >= 0.99, failures[:5]

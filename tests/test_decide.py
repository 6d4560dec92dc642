"""Decision procedures: representability, containment, fast paths, thresholds."""

import json
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedet import (
    CensusBudgetError,
    DHBMatrix,
    EmptySchemeDegenerateError,
    InvalidDHBError,
    NotMinimalError,
    ScanBudgetError,
    canonicalize,
    census,
    containment_profile,
    contains_subscheme,
    corollary_case,
    grid_from_potentials,
    iter_dhb_matrices,
    potentials,
    representable,
    representable_2x2,
    scan,
    stable_threshold,
)
from curvedet import decide
from curvedet.decide import (
    CENSUS_BUDGET,
    REASON_DEGREE_ZERO,
    REASON_DIAGONAL,
    REASON_OK,
    REASON_SUBDIAGONAL,
    SCAN_BUDGET,
    Decision,
    _census_candidates,
    _iter_potentials,
)
from curvedet.resolution import betti_of_matrix, hilbert_function, scheme_degree

DEGREE8_GRID = [[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]]


def dhb(grid):
    Q, _, _ = canonicalize(grid)
    return Q


Q_61 = dhb([[2, 3, 5], [1, 2, 4]])
Q_64 = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
Q_CI22 = dhb([[2, 2]])


class TestRepresentable:
    def test_degree_eight_four_by_four(self):
        decision = representable(DEGREE8_GRID)
        assert decision.verdict
        assert decision.degree == 8
        # both negative subdiagonal entries force trailing blocks of full degree
        assert decision.trailing_degrees == ((2, 8), (3, 8))

    def test_negative_diagonal(self):
        decision = representable([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]])
        assert not decision.verdict
        assert decision.reason == "DiagonalNegative"
        assert decision.k == 2

    def test_bad_block_degree(self):
        decision = representable([[1, 3], [-1, 1]])
        assert not decision.verdict
        assert decision.reason == "SubdiagonalBlockDegree"
        assert (decision.k, decision.block_degree) == (2, 1)

    def test_trailing_block_of_degree_zero(self):
        decision = representable([[2, 3], [-1, 0]])
        assert decision.verdict
        assert decision.degree == 2

    def test_degree_zero_convention(self):
        decision = representable([[0, 0], [0, 0]])
        assert decision.verdict
        assert decision.reason == "DegreeZeroTrivial"

    def test_degree_zero_with_negative_diagonal_is_no(self):
        # trace zero but a diagonal entry is negative: the determinant
        # vanishes identically, so a general constant is not reachable
        decision = representable([[-1, 3], [-3, 1]])
        assert decision.degree == 0
        assert not decision.verdict
        assert decision.reason == "DiagonalNegative"

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            representable([[-2]])

    def test_unsorted_input_is_canonicalized(self):
        decision = representable([[-1, 2], [1, 4]])
        assert decision.normalized == ((1, 4), (-1, 2))
        assert decision.degree == 3

    def test_one_by_one(self):
        assert representable([[5]]).verdict

    def test_smallest_offending_diagonal_reported(self):
        grid = grid_from_potentials((5, -3, -4), (0, 1, 2))  # diagonal (5, -2, -2)
        decision = representable(grid)
        assert decision.reason == "DiagonalNegative"
        assert decision.k == 2


class TestRepresentable2x2:
    def test_all_nonnegative(self):
        assert representable_2x2([[1, 1], [1, 1]]).verdict

    def test_bad_block(self):
        assert not representable_2x2([[1, 3], [-1, 1]]).verdict

    def test_corner_equals_degree(self):
        decision = representable_2x2([[3, 5], [-2, 0]])
        assert decision.verdict
        assert decision.degree == 3

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            representable_2x2([[1, 2, 3], [0, 1, 2], [-1, 0, 1]])

    def test_exhaustive_agreement_with_general_test(self):
        """Acceptance-sized sweep: entries in [-10, 10], no discrepancies."""
        count = 0
        for m11 in range(-10, 11):
            for m12 in range(-10, 11):
                for m21 in range(-10, 11):
                    m22 = m12 + m21 - m11
                    if not -10 <= m22 <= 10:
                        continue
                    grid = [[m11, m12], [m21, m22]]
                    if m11 + m22 < 0:
                        with pytest.raises(ValueError):
                            representable(grid)
                        with pytest.raises(ValueError):
                            representable_2x2(grid)
                        continue
                    count += 1
                    assert representable_2x2(grid).verdict == representable(grid).verdict, grid
        assert count == 3311


class TestContainsSubscheme:
    def test_quartic_contains_22_points(self):
        decision = contains_subscheme(Q_61, 4)
        assert decision.verdict
        assert decision.inserted_row_position == 3
        assert decision.normalized == ((2, 3, 5), (1, 2, 4), (-3, -2, 0))

    def test_quintic_fails_with_unit_block(self):
        decision = contains_subscheme(Q_61, 5)
        assert not decision.verdict
        assert decision.reason == "SubdiagonalBlockDegree"
        assert (decision.k, decision.block_degree) == (3, 1)
        assert decision.normalized == ((2, 3, 5), (1, 2, 4), (-2, -1, 1))

    def test_sextic_contains_20_points(self):
        decision = contains_subscheme(Q_64, 6)
        assert decision.verdict
        assert decision.inserted_row_position == 5

    def test_cubic_contains_complete_intersection_of_conics(self):
        assert contains_subscheme(Q_CI22, 3).verdict

    def test_small_degree_fails_on_diagonal(self):
        decision = contains_subscheme(Q_61, 1)
        assert not decision.verdict
        assert decision.reason == "DiagonalNegative"
        assert decision.k == 3

    def test_invalid_presentation_rejected(self):
        bad = dhb([[1, 2, 3], [-2, -1, 0]])
        assert not bad.diag_nonnegative
        with pytest.raises(InvalidDHBError):
            contains_subscheme(bad, 4)

    def test_empty_scheme_rejected(self):
        degenerate = dhb([[0, 0]])
        with pytest.raises(EmptySchemeDegenerateError):
            contains_subscheme(degenerate, 4)

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            contains_subscheme(Q_61, 0)


class TestScan:
    def test_degree_22_scheme(self):
        verdicts = [dec.verdict for _, dec in scan(Q_61, 9)]
        assert verdicts == [False, False, False, True, False, True, True, True, True]

    def test_single_point(self):
        # one point = complete intersection of two lines sits on every curve;
        # the procedure and the closed form both say yes from degree 1 on
        Q = dhb([[1, 1]])
        verdicts = [dec.verdict for _, dec in scan(Q, 3)]
        assert verdicts == [True, True, True]
        for d in (1, 2, 3):
            assert corollary_case(Q, d).decision.verdict

    def test_20_points_scan_ends_yes(self):
        assert scan(Q_64, 6)[-1][1].verdict


class TestCorollaryCase:
    def test_cases_on_22_points(self):
        result = corollary_case(Q_61, 4)
        assert result.case == "ii" and result.decision.verdict
        result = corollary_case(Q_61, 5)
        assert result.case == "ii" and not result.decision.verdict
        result = corollary_case(Q_61, 9)
        assert result.case == "i" and result.decision.verdict
        result = corollary_case(Q_61, 8)
        assert result.case == "iii" and result.decision.verdict

    def test_refuses_non_minimal(self):
        with pytest.raises(NotMinimalError):
            corollary_case(Q_64, 6)  # 7 is both a generator and a syzygy degree

    def test_negative_subdiagonal_splitting_case(self):
        # minimal presentation with a negative subdiagonal entry: generators
        # of degrees (6, 2, 2) sharing a linear factor in two of them.  A
        # general conic cannot contain the scheme even though d = a_n.
        Q = dhb([[1, 5, 5], [-3, 1, 1]])
        assert Q.is_numerically_minimal
        assert Q.minor_degrees == (6, 2, 2)
        assert Q.shifts == (7, 3)
        for d in range(1, 10):
            lhs = corollary_case(Q, d)
            rhs = contains_subscheme(Q, d)
            assert lhs.decision.verdict == rhs.verdict, d
        assert not corollary_case(Q, 2).decision.verdict
        assert corollary_case(Q, 6).decision.verdict

    def test_agreement_small_sample(self, monkeypatch):
        expected = {}
        for Q in iter_dhb_matrices(3, 3, minimal_only=True):
            for d in range(1, Q.shifts[0] + 3):
                expected[Q, d] = contains_subscheme(Q, d)

        # the closed form calls no decision kernel, so it runs with both patched out
        def kernel(*args):
            raise AssertionError("corollary_case called a decision kernel")

        monkeypatch.setattr(decide, "_decide_potentials", kernel)
        monkeypatch.setattr(decide, "_decide_entries", kernel)
        for (Q, d), procedure in expected.items():
            # the whole certificate: verdict, reason, k, block degree,
            # normalized square, landing position and trailing degrees
            assert corollary_case(Q, d).decision == procedure, (Q.entries, d)
        assert len(expected) > 500


class TestStableThreshold:
    def test_values(self):
        assert stable_threshold(Q_61) == 7
        assert stable_threshold(Q_CI22) == 2
        assert stable_threshold(Q_64) == 6

    def test_monotone_after_threshold(self):
        for Q in (Q_61, Q_64, Q_CI22):
            t = stable_threshold(Q)
            for d in range(t, t + 6):
                assert contains_subscheme(Q, d).verdict

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_on_random_presentations(self, n, data):
        u = sorted(data.draw(st.lists(st.integers(-3, 4), min_size=n - 1, max_size=n - 1)), reverse=True)
        v = sorted(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        v = [x - v[0] for x in v]
        diag = [u[k] + v[k] for k in range(n - 1)]
        lift = max(0, -min(diag), 1 - max(diag))
        u = [x + lift for x in u]
        Q = dhb(grid_from_potentials(u, v))
        t = stable_threshold(Q)
        for d in range(t, t + 5):
            assert contains_subscheme(Q, d).verdict


def reference_stable_threshold(Q):
    """`stable_threshold` as first written: a Hilbert-function sum and a
    `contains_subscheme` call at every degree up to b_1."""
    B = betti_of_matrix(Q)
    delta = scheme_degree(B)
    for d in range(1, B.syz[0] + 1):
        if hilbert_function(B, d) == delta and contains_subscheme(Q, d).verdict:
            return d
    raise AssertionError("no threshold up to b_1")


def in_profile(profile, d):
    return any(lo <= d and (hi is None or d <= hi) for lo, hi in profile)


class TestContainmentProfile:
    def test_degree_22_scheme(self):
        assert containment_profile(Q_61) == ((4, 4), (6, None))

    def test_invalid_presentation_rejected(self):
        with pytest.raises(InvalidDHBError):
            containment_profile(dhb([[-1, 0, 0], [-2, -1, -1]]))

    # every presentation of these enumerations, minimal or not, at every
    # degree d = 1..b_1 + 3
    @pytest.mark.parametrize("n, bound", [(2, 3), (3, 3), (4, 3), (5, 3), (6, 2)])
    def test_scan_profile_and_threshold_match_the_procedure(self, n, bound):
        for Q in iter_dhb_matrices(n, bound):
            dmax = Q.shifts[0] + 3
            expected = [(d, contains_subscheme(Q, d)) for d in range(1, dmax + 1)]
            # Decision equality compares every field, the certificate included
            assert scan(Q, dmax) == expected, Q.entries
            for cut in {1, *Q.shifts}:
                assert scan(Q, cut) == expected[:cut], (Q.entries, cut)
            profile = containment_profile(Q)
            for d, decision in expected:
                assert in_profile(profile, d) == decision.verdict, (Q.entries, d, profile)
            # sorted, disjoint and not adjacent, the last one unbounded
            assert all(lo <= hi and hi + 1 < nxt for (lo, hi), (nxt, _) in zip(profile, profile[1:]))
            assert profile[-1][1] is None
            threshold = stable_threshold(Q)
            assert threshold == reference_stable_threshold(Q), Q.entries
            # the docstring's claim: containment holds at every degree from
            # the threshold on
            assert profile[-1][0] <= threshold, (Q.entries, profile, threshold)


class TestScanBudget:
    def test_rejects_before_deciding(self, monkeypatch):
        def decide_anyway(*args):
            raise AssertionError("scan decided past its budget")

        monkeypatch.setattr(decide, "_landing_intervals", decide_anyway)
        with pytest.raises(ScanBudgetError) as info:
            scan(Q_61, 10**9)
        assert info.value.payload() == {
            "error": "ScanBudgetExceeded",
            "message": "scan to dmax = 1000000000 over n = 3 would fill 3,000,000,000 cells, "
            "over the budget of 3,000,000",
            "cells": 3 * 10**9,
            "budget": SCAN_BUDGET,
        }

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(decide, "SCAN_BUDGET", 27)
        assert len(scan(Q_61, 9)) == 9  # 27 cells, at the budget
        monkeypatch.setattr(decide, "SCAN_BUDGET", 29)
        with pytest.raises(ScanBudgetError) as info:
            scan(Q_61, 10)  # 30 cells, one past it
        assert (info.value.cells, info.value.budget) == (30, 29)

    def test_argument_errors_come_first(self):
        with pytest.raises(ValueError, match="dmax must be >= 1, got 0"):
            scan(Q_61, 0)
        with pytest.raises(InvalidDHBError):
            scan(dhb([[-1, 0, 0], [-2, -1, -1]]), 10**9)


class TestConditionTwoSymmetry:
    @given(st.integers(2, 5), st.data())
    @settings(max_examples=100)
    def test_trailing_degree_d_means_leading_zero(self, n, data):
        u = sorted(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), reverse=True)
        v = sorted(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        grid = grid_from_potentials(u, v)
        M, _, _ = canonicalize(grid)
        d = M.degree
        for k, e in zip(range(2, n + 1), [sum(M.diagonal[k - 1 :]) for k in range(2, n + 1)]):
            leading = sum(M.diagonal[: k - 1])
            assert (e == d) == (leading == 0)
            assert leading + e == d


def reference_iter_dhb_matrices(n, bound, minimal_only=False):
    """The enumeration as first written: a tuple diagonal and an n^2 zero test."""
    for u in combinations_with_replacement(range(bound, -bound - 1, -1), n - 1):
        if u[0] < 0:
            continue
        for v_rest in combinations_with_replacement(range(bound + 1), n - 1):
            v = (0,) + v_rest
            diag = tuple(u[k] + v[k] for k in range(n - 1))
            if any(x < 0 for x in diag) or max(diag) == 0:
                continue
            if minimal_only and any(ui + vj == 0 for ui in u for vj in v):
                continue
            yield DHBMatrix(grid_from_potentials(u, v))


def reference_runs(n, bound, minimal_only=False):
    """Each row potential u of `reference_iter_dhb_matrices` with the list
    of (v, sum(v)) for its column potentials v, in order."""
    runs = {}
    for Q in reference_iter_dhb_matrices(n, bound, minimal_only):
        u, v = potentials(Q.entries)
        runs.setdefault(u, []).append((v, sum(v)))
    return runs


class TestEnumeration:
    @pytest.mark.parametrize("minimal_only", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_sequence_as_the_reference(self, n, minimal_only):
        # n = 6 has the most negative row potentials, where the lower
        # bounds v_k >= -u_k prune the most
        for bound in range(1, 5 if n < 6 else 4):
            expected = list(reference_iter_dhb_matrices(n, bound, minimal_only))
            assert list(iter_dhb_matrices(n, bound, minimal_only)) == expected

    @pytest.mark.parametrize("n, bound", [(3, 3), (4, 2), (5, 2), (6, 2)])
    def test_minimal_only_yields_nothing_for_a_row_potential_zero(self, n, bound):
        # v_1 = 0 = -u_i makes an entry zero, whatever the other v_k
        with_zero = {u for u, _ in _iter_potentials(n, bound, False) if 0 in u}
        assert with_zero
        assert not with_zero & {u for u, _ in _iter_potentials(n, bound, True)}

    def test_stays_lazy_for_a_large_bound(self):
        Q = next(iter_dhb_matrices(3, 10**5))
        assert Q.entries == ((10**5,) * 3,) * 2

    def test_stays_lazy_for_a_large_bound_with_minimal_only(self):
        Q = next(iter_dhb_matrices(3, 10**5, minimal_only=True))
        assert Q.entries == ((10**5,) * 3,) * 2

    @pytest.mark.parametrize("minimal_only", [False, True])
    @pytest.mark.parametrize("n, bound", [(3, 6), (4, 4), (5, 3)])
    def test_a_run_left_unread_or_unfinished_is_not_replayed(self, n, bound, minimal_only):
        # a run is skipped unread, left after its first v, or read in full,
        # in turn; a later u with the same run must still yield all of it
        expected = reference_runs(n, bound, minimal_only)
        read = 0
        for i, (u, run) in enumerate(_iter_potentials(n, bound, minimal_only)):
            if i % 3 == 1:
                next(iter(run), None)
            elif i % 3 == 2:
                assert list(run) == expected.get(u, []), u
                read += 1
        assert read

    @pytest.mark.parametrize("minimal_only", [False, True])
    @pytest.mark.parametrize("n, bound", [(3, 4), (4, 3)])
    def test_runs_read_after_the_enumeration_ends(self, n, bound, minimal_only):
        # with minimal_only the value range changes with u, and a run read
        # late must still read the range of its own u
        groups = list(_iter_potentials(n, bound, minimal_only))
        expected = reference_runs(n, bound, minimal_only)
        assert [(u, list(run)) for u, run in groups] == [(u, expected.get(u, [])) for u, _ in groups]

    def test_census_shape(self):
        result = census(2, 3, 3)
        assert result["total"] == result["yes"] + result["no"]
        assert result["total"] > 0
        assert sum(result["byReason"].values()) == result["total"]

    def test_minimal_filter(self):
        full = sum(1 for _ in iter_dhb_matrices(3, 3))
        minimal = sum(1 for _ in iter_dhb_matrices(3, 3, minimal_only=True))
        assert 0 < minimal < full

    def test_all_yielded_matrices_are_valid(self):
        for Q in iter_dhb_matrices(3, 2):
            assert Q.is_valid
            assert Q.is_well_ordered()


def reference_census(n, d, bound, minimal_only=False, matrices=None):
    """The census as first written: `contains_subscheme` over every
    `DHBMatrix` of `iter_dhb_matrices` (or of `matrices`, that list)."""
    if matrices is None:
        matrices = iter_dhb_matrices(n, bound, minimal_only=minimal_only)
    total = 0
    yes = 0
    by_reason = {}
    for Q in matrices:
        verdict = contains_subscheme(Q, d)
        total += 1
        if verdict.verdict:
            yes += 1
        by_reason[verdict.reason] = by_reason.get(verdict.reason, 0) + 1
    return {
        "n": n,
        "d": d,
        "bound": bound,
        "minimalOnly": minimal_only,
        "total": total,
        "yes": yes,
        "no": total - yes,
        "byReason": by_reason,
    }


class TestCensus:
    @pytest.mark.parametrize("minimal_only", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_counts_as_the_reference(self, n, minimal_only):
        for bound in range(1, 5):
            matrices = list(iter_dhb_matrices(n, bound, minimal_only))
            for d in range(1, 15):
                expected = reference_census(n, d, bound, minimal_only, matrices)
                result = census(n, d, bound, minimal_only)
                assert result == expected
                assert list(result["byReason"]) == list(expected["byReason"])
                assert list(result) == list(expected)

    # taken at the commit before census decided on potentials, `byReason`
    # key order included
    @pytest.mark.parametrize("args, expected", [
        ((5, 8, 6), {
            "n": 5, "d": 8, "bound": 6, "minimalOnly": False, "total": 164220, "yes": 12738,
            "no": 151482,
            "byReason": {"DiagonalNegative": 134118, "OK": 12738, "SubdiagonalBlockDegree": 17364},
        }),
        ((4, 10, 8), {
            "n": 4, "d": 10, "bound": 8, "minimalOnly": False, "total": 68046, "yes": 8964,
            "no": 59082,
            "byReason": {"DiagonalNegative": 46328, "OK": 8964, "SubdiagonalBlockDegree": 12754},
        }),
        ((5, 5, 5, True), {
            "n": 5, "d": 5, "bound": 5, "minimalOnly": True, "total": 18255, "yes": 13,
            "no": 18242,
            "byReason": {"DiagonalNegative": 18103, "OK": 13, "SubdiagonalBlockDegree": 139},
        }),
        ((6, 15, 3), {
            "n": 6, "d": 15, "bound": 3, "minimalOnly": False, "total": 12264, "yes": 11041,
            "no": 1223,
            "byReason": {"OK": 11041, "DiagonalNegative": 1188, "SubdiagonalBlockDegree": 35},
        }),
    ])
    def test_pinned_outputs(self, args, expected):
        assert json.dumps(census(*args)) == json.dumps(expected)

    # n is checked before bound, and bound before d
    @pytest.mark.parametrize("args, message", [
        ((1, 3, 2), "need n >= 2"),
        ((3, 3, 0), "need bound >= 1"),
        ((3, 0, 2), "curve degree must be >= 1, got 0"),
        ((1, 0, 0), "need n >= 2"),
        ((2, -1, 0), "need bound >= 1"),
    ])
    def test_argument_errors(self, args, message):
        with pytest.raises(ValueError) as info:
            census(*args)
        assert type(info.value) is ValueError
        assert str(info.value) == message


class TestCensusBudget:
    def test_estimate(self):
        assert _census_candidates(5, 6) == 382_200
        assert _census_candidates(8, 8) == 1_577_585_295

    def test_admits_every_census_in_use(self):
        # (n, bound) of the largest census in the tests, the CLI and
        # perfbench (workloads and reference figures), and n = 6 at bound 6
        for n, bound in [(5, 6), (4, 8), (6, 3), (5, 5), (5, 4), (4, 5), (3, 6), (6, 6)]:
            assert _census_candidates(n, bound) <= CENSUS_BUDGET

    def test_rejects_before_enumerating(self, monkeypatch):
        def enumerate_anyway(*args):
            raise AssertionError("census enumerated past its budget")

        monkeypatch.setattr(decide, "_iter_potentials", enumerate_anyway)
        with pytest.raises(CensusBudgetError) as info:
            census(8, 5, 8)
        assert info.value.payload() == {
            "error": "CensusBudgetExceeded",
            "message": "census over n = 8, bound = 8 would examine 1,577,585,295 candidate "
            "presentations, over the budget of 10,000,000",
            "candidates": 1_577_585_295,
            "budget": CENSUS_BUDGET,
        }

    def test_argument_errors_come_first(self):
        with pytest.raises(ValueError, match="curve degree must be >= 1, got 0"):
            census(8, 0, 8)


def reference_decide_entries(entries, d):
    """`_decide_entries` as it was before the potentials kernel: the
    diagonal scan on the grid, then a `_trailing_degrees` pass."""
    for k in range(len(entries)):
        if entries[k][k] < 0:
            return Decision(False, REASON_DIAGONAL, d, entries, k=k + 1)
    trailing = []
    tail = 0
    for k in range(len(entries), 1, -1):
        tail += entries[k - 1][k - 1]
        if entries[k - 1][k - 2] < 0:
            trailing.append((k, tail))
    trailing = tuple(reversed(trailing))
    for k, e in trailing:
        if e not in (0, d):
            return Decision(False, REASON_SUBDIAGONAL, d, entries, k=k, block_degree=e,
                            trailing_degrees=trailing)
    reason = REASON_DEGREE_ZERO if d == 0 else REASON_OK
    return Decision(True, reason, d, entries, trailing_degrees=trailing)


class TestDecisionKernel:
    @given(st.integers(2, 6), st.data())
    @settings(max_examples=400)
    def test_certificate_equals_the_grid_scan(self, n, data):
        u = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        assume(sum(u) + sum(v) >= 0)
        grid = grid_from_potentials(u, v)
        M, _, _ = canonicalize(grid)
        got = representable(grid)
        expected = reference_decide_entries(M.entries, M.degree)
        for name in Decision._fields:
            assert getattr(got, name) == getattr(expected, name), name


class TestDecisionRecord:
    def test_repr_hash_immutability_and_json(self):
        # the README's d = 5 decision
        decision = contains_subscheme(Q_61, 5)
        assert repr(decision) == (
            "Decision(verdict=False, reason='SubdiagonalBlockDegree', degree=5, "
            "normalized=((2, 3, 5), (1, 2, 4), (-2, -1, 1)), k=3, block_degree=1, "
            "inserted_row_position=3, trailing_degrees=((3, 1),))"
        )
        again = scan(Q_61, 5)[-1][1]
        assert again == decision and again is not decision
        assert hash(again) == hash(decision)
        with pytest.raises(AttributeError):
            decision.verdict = True
        assert json.dumps(decision.to_json()).encode() == (
            b'{"answer": "no", "degree": 5, "reason": "SubdiagonalBlockDegree", '
            b'"k": 3, "blockDegree": 1, "insertedRowPosition": 3}'
        )


class TestDecisionInvariance:
    @given(st.integers(2, 4), st.data())
    @settings(max_examples=120)
    def test_row_and_column_shuffles_do_not_change_the_decision(self, n, data):
        # duplicated potentials produce tied (identical) rows or columns, so
        # any input order must canonicalize to the same matrix and decision
        u = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            u[data.draw(st.integers(0, n - 1))] = u[0]
        grid = [list(row) for row in grid_from_potentials(u, v)]
        if sum(u) + sum(v) < 0:
            return  # negative degree: malformed for both orderings alike
        rows = data.draw(st.permutations(range(n)))
        cols = data.draw(st.permutations(range(n)))
        shuffled = [[grid[i][j] for j in cols] for i in rows]
        lhs = representable(grid)
        rhs = representable(shuffled)
        assert lhs.verdict == rhs.verdict
        assert lhs.reason == rhs.reason
        assert lhs.normalized == rhs.normalized
        assert (lhs.k, lhs.block_degree) == (rhs.k, rhs.block_degree)


@pytest.mark.parametrize("call, message", [
    (lambda: representable([[2, 3, 5], [1, 2, 4]]), "representability is a question about square matrices"),
    (lambda: corollary_case(Q_61, 0), "curve degree must be >= 1, got 0"),
    (lambda: contains_subscheme(Q_61, 4.5), "curve degree must be an integer, got 4.5"),
    (lambda: corollary_case(Q_61, 5.0), "curve degree must be an integer, got 5.0"),
    (lambda: census(3, 4.5, 3), "curve degree must be an integer, got 4.5"),
    (lambda: contains_subscheme(Q_61, True), "curve degree must be an integer, got True"),
    (lambda: corollary_case(Q_61, False), "curve degree must be an integer, got False"),
    (lambda: census(3, True, 3), "curve degree must be an integer, got True"),
    (lambda: scan(Q_61, True), "dmax must be an integer, got True"),
    (lambda: scan(Q_61, 3.0), "dmax must be an integer, got 3.0"),
    (lambda: census(3, 4, True), "bound must be an integer, got True"),
    (lambda: census(3, 4, 2.0), "bound must be an integer, got 2.0"),
    (lambda: census(3.0, 4, 2), "n must be an integer, got 3.0"),
    (lambda: next(iter_dhb_matrices(3, 2.5)), "bound must be an integer, got 2.5"),
    (lambda: next(iter_dhb_matrices(True, 3)), "n must be an integer, got True"),
], ids=["representable-on-a-non-square", "corollary-at-degree-zero", "containment-at-a-float", "corollary-at-a-float",
        "census-at-a-float", "containment-at-a-bool", "corollary-at-a-bool", "census-at-a-bool", "scan-to-a-bool",
        "scan-to-a-float", "census-bound-a-bool", "census-bound-a-float", "census-n-a-float",
        "enumeration-bound-a-float", "enumeration-n-a-bool"])
def test_input_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

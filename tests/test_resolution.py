"""Resolution invariants: degrees, Hilbert functions, h-vectors, cancellation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedet import (
    BettiData,
    InadmissibleHVectorError,
    InvalidResolutionError,
    generic_betti,
    grid_from_potentials,
    h0_ideal,
    hilbert_function,
    hvector_from_betti,
    incidence_dimension,
    is_admissible_hvector,
    is_numerically_minimal,
    iter_dhb_matrices,
    minimalize,
    plane_dim,
    scheme_degree,
    stabilization_bound,
)
from curvedet.degree_matrix import canonicalize
from curvedet.resolution import betti_of_matrix

B_22 = BettiData.of([7, 6, 4], [9, 8])  # 22 points
B_CI22 = BettiData.of([2, 2], [4])  # complete intersection of two conics
B_20 = BettiData.of([7, 7, 5, 5, 5], [8, 8, 7, 6])  # 20 points, one ghost pair


@st.composite
def valid_betti(draw, max_n=6, bound=6):
    """Betti data read off a random valid presentation grid."""
    n = draw(st.integers(2, max_n))
    u = sorted(draw(st.lists(st.integers(-bound, bound), min_size=n - 1, max_size=n - 1)), reverse=True)
    v = sorted(draw(st.lists(st.integers(0, bound), min_size=n, max_size=n)))
    v = [x - v[0] for x in v]
    diag = [u[k] + v[k] for k in range(n - 1)]
    # shift the row potentials until the diagonal is valid and not all zero
    lift = max(0, -min(diag), 1 - max(diag))
    u = [x + lift for x in u]
    Q, _, _ = canonicalize(grid_from_potentials(u, v))
    return betti_of_matrix(Q)


class TestSchemeDegree:
    def test_known_scheme_degrees(self):
        assert scheme_degree(B_22) == 22
        assert scheme_degree(B_CI22) == 4
        assert scheme_degree(B_20) == 20

    def test_unbalanced_is_rejected(self):
        with pytest.raises(InvalidResolutionError):
            scheme_degree(BettiData.of([1, 1], [4]))

    def test_nonpositive_is_rejected(self):
        with pytest.raises(InvalidResolutionError):
            scheme_degree(BettiData.of([3], []))

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(InvalidResolutionError):
            BettiData.of([2, 2], [4, 3])


class TestHilbertFunction:
    def test_reaches_degree(self):
        assert hilbert_function(B_22, 7) == 22

    def test_unique_quartic(self):
        assert hilbert_function(B_22, 4) == 14
        assert h0_ideal(B_22, 4) == 1

    def test_three_quintics(self):
        assert h0_ideal(B_22, 5) == 3

    def test_no_conic_constraints_in_degree_one(self):
        assert hilbert_function(B_CI22, 1) == 3

    def test_empty_ideal_in_degree_zero(self):
        for B in (B_22, B_CI22, B_20):
            assert h0_ideal(B, 0) == 0

    def test_negative_levels_vanish(self):
        assert hilbert_function(B_22, -1) == 0

    @given(valid_betti())
    @settings(max_examples=200)
    def test_stabilizes_at_bound(self, B):
        delta = scheme_degree(B)
        bound = stabilization_bound(B)
        for t in range(max(bound, 0), max(bound, 0) + 4):
            assert hilbert_function(B, t) == delta


class TestStabilizationBound:
    def test_values(self):
        assert stabilization_bound(B_22) == 7
        assert stabilization_bound(B_CI22) == 2
        assert stabilization_bound(B_20) == 6


class TestMinimality:
    def test_disjoint_is_minimal(self):
        assert is_numerically_minimal(B_22)

    def test_shared_degree_is_not(self):
        assert not is_numerically_minimal(B_20)

    def test_minimalize_cancels_ghost_pair(self):
        M = minimalize(B_20)
        assert M.gens == (7, 5, 5, 5)
        assert M.syz == (8, 8, 6)
        assert is_numerically_minimal(M)

    def test_minimalize_is_idempotent(self):
        assert minimalize(minimalize(B_20)) == minimalize(B_20)
        assert minimalize(B_22) == B_22

    def test_over_cancellation_leaves_hypersurface(self):
        B = BettiData.of([3, 3], [3])
        M = minimalize(B)
        assert M.gens == (3,) and M.syz == ()
        with pytest.raises(InvalidResolutionError):
            scheme_degree(M)  # principal ideal: not a zero-dimensional scheme

    def test_cancellation_always_leaves_a_generator(self):
        # one more generator than syzygies, so minimalize cannot empty gens;
        # DegenerateEmptyError guards the invariant all the same
        for B in (B_20, BettiData.of([3, 3], [3]), BettiData.of([5, 2], [5])):
            assert minimalize(B).gens

    @given(valid_betti())
    @settings(max_examples=150)
    def test_hilbert_function_invariant_under_minimalize(self, B):
        M = minimalize(B)
        for t in range(stabilization_bound(B) + 2):
            assert hilbert_function(B, t) == hilbert_function(M, t)


class TestHVector:
    def test_twenty_points(self):
        assert hvector_from_betti(B_20) == (1, 2, 3, 4, 5, 3, 2)

    def test_complete_intersections(self):
        assert hvector_from_betti(B_CI22) == (1, 2, 1)
        assert hvector_from_betti(BettiData.of([1, 4], [5])) == (1, 1, 1, 1)

    def test_sum_is_scheme_degree(self):
        for B in (B_22, B_CI22, B_20):
            assert sum(hvector_from_betti(B)) == scheme_degree(B)

    @given(valid_betti())
    @settings(max_examples=150)
    def test_sum_property(self, B):
        assert sum(hvector_from_betti(B)) == scheme_degree(B)


class TestAdmissibility:
    def test_known_point_hvectors(self):
        assert is_admissible_hvector((1, 2, 3, 4, 5, 3, 2), 6)
        assert is_admissible_hvector((1, 2, 3, 4, 4, 4, 2), 8)

    def test_growth_after_decay_is_rejected(self):
        assert not is_admissible_hvector((1, 2, 3, 4, 3, 5))

    def test_basic_shape(self):
        assert not is_admissible_hvector(())
        assert not is_admissible_hvector((2,))
        assert not is_admissible_hvector((1, 3))  # growth by two
        assert not is_admissible_hvector((1, -1))
        assert is_admissible_hvector((1,))

    def test_curve_bound(self):
        assert is_admissible_hvector((1, 2, 3), 3)
        assert not is_admissible_hvector((1, 2, 3), 2)


class TestGenericBetti:
    def test_twenty_points_minimal(self):
        B = generic_betti((1, 2, 3, 4, 5, 3, 2))
        assert B.gens == (7, 5, 5, 5)
        assert B.syz == (8, 8, 6)

    def test_four_points_on_a_line(self):
        B = generic_betti((1, 1, 1, 1))
        assert B.gens == (4, 1)
        assert B.syz == (5,)

    def test_five_points(self):
        # hand expansion of (1-s)^2 (1 + 2s + 2s^2)
        B = generic_betti((1, 2, 2))
        assert B.gens == (3, 3, 2)
        assert B.syz == (4, 4)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleHVectorError):
            generic_betti((1, 3, 1))

    @st.composite
    @staticmethod
    def admissible_hvector(draw, max_total=60):
        h = [1]
        total = 1
        while True:
            t = len(h)
            cap = min(h[-1] + 1, t + 1, max_total - total)
            if h[-1] <= t - 1:
                cap = min(cap, h[-1])
            if cap < 1:
                break
            value = draw(st.integers(0, cap))
            if value == 0:
                break
            h.append(value)
            total += value
        return tuple(h)

    @given(admissible_hvector())
    @settings(max_examples=250)
    def test_round_trip(self, h):
        B = generic_betti(h)
        assert is_numerically_minimal(B)
        assert hvector_from_betti(B) == h
        assert scheme_degree(B) == sum(h)

    def test_round_trip_exhaustive_small(self):
        # every admissible h-vector with total at most 12
        frontier = [(1,)]
        seen = []
        while frontier:
            h = frontier.pop()
            seen.append(h)
            t = len(h)
            cap = min(h[-1] + 1, t + 1, 12 - sum(h))
            if h[-1] <= t - 1:
                cap = min(cap, h[-1])
            for value in range(1, cap + 1):
                frontier.append(h + (value,))
        assert len(seen) >= 60
        for h in seen:
            assert hvector_from_betti(generic_betti(h)) == h


class TestIncidenceDimension:
    def test_unique_quartic_fiber(self):
        assert incidence_dimension(21, B_22, 4) == (21, True)

    def test_quintic_fiber(self):
        assert incidence_dimension(21, B_22, 5) == (23, True)

    def test_zero_dimensional_stratum(self):
        assert incidence_dimension(0, B_22, 4)[0] == 0

    def test_dominance_necessity_flag(self):
        assert incidence_dimension(5, B_22, 7) == (5 + 14 - 1, False)


def test_plane_dim_truncation():
    assert [plane_dim(x) for x in (-2, -1, 0, 1, 2, 3)] == [0, 0, 1, 3, 6, 10]


def delta_h(B, top):
    """First differences of the Hilbert function of B at levels 0..top."""
    h = [hilbert_function(B, k) for k in range(top + 1)]
    return [h[0], *[y - x for x, y in zip(h, h[1:])]]


def complete_intersection_delta_h(s, t, k):
    """First difference of the Hilbert function of a complete intersection
    of type (s, t) at level k: the number of monomials x^i y^j of degree k
    with i < s and j < t."""
    return max(0, min(k + 1, s, t, s + t - 1 - k))


class TestLiaison:
    """Linkage as an oracle (Peskine-Szpiro; Davis-Geramita-Orecchia).

    A scheme Z with generator degrees a and syzygy degrees b lies on a
    complete intersection X of type (s, t) whenever s, t >= a_1.  The
    mapping cone resolves the linked scheme Z' by the generators
    {s + t - b_i} and {s, t} and the syzygies {s + t - a_j}, possibly with
    cancellable pairs.  Then deg Z + deg Z' = st and, with c = s + t - 2,
    dh_Z'(k) = dh_X(c - k) - dh_Z(c - k) for every k.
    """

    def test_degrees_and_hilbert_functions_of_linked_schemes(self):
        linkages = 0
        for n in range(2, 6):
            for Q in iter_dhb_matrices(n, 3, minimal_only=True):
                B = betti_of_matrix(Q)
                a1 = B.gens[0]
                dh = delta_h(B, 2 * a1 + 4)  # c is at most 2 a_1 + 4
                for s in range(a1, a1 + 3):
                    for t in range(s, s + 3):
                        if sorted(B.gens) == [s, t]:
                            continue  # Z = X links to the empty scheme
                        linked = BettiData.of([s + t - b for b in B.syz] + [s, t], [s + t - a for a in B.gens])
                        assert scheme_degree(B) + scheme_degree(linked) == s * t, (B, s, t)
                        c = s + t - 2
                        # dh_Z'(k) for k = 0..c + 1; dh_Z' and dh_X vanish from c + 1 on
                        assert delta_h(linked, c + 1) == [
                            complete_intersection_delta_h(s, t, c - k) - (dh[c - k] if k <= c else 0)
                            for k in range(c + 2)
                        ], (B, s, t)
                        linkages += 1
        assert linkages == 10572


@pytest.mark.parametrize("call, error, message", [
    (lambda: BettiData((2, 3), (4,)), InvalidResolutionError, "degrees must be sorted non-increasing"),
    (lambda: incidence_dimension(-1, B_22, 4), ValueError, "stratum dimension must be non-negative"),
], ids=["unsorted-betti-data", "negative-stratum"])
def test_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

"""Finite-field witness engine: forms, determinants, ranks, verification."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedet import (
    BettiData,
    CofactorBudgetError,
    CurvedetError,
    FieldTooSmallError,
    Form,
    InvalidWitnessParameterError,
    WitnessBudgetError,
    canonicalize,
    contains_subscheme,
    det_form,
    hilbert_function,
    ideal_dim,
    iter_dhb_matrices,
    maximal_minors,
    plane_dim,
    representable,
    sample_matrix,
    verify_representable,
    verify_subscheme,
)
from curvedet import degree_matrix, witness
from curvedet.decide import REASON_DIAGONAL, REASON_SUBDIAGONAL, Decision
from curvedet.degree_matrix import DegreeMatrix
from curvedet.witness import (
    DEFAULT_PRIME,
    FormMatrix,
    _coprime,
    _det_numeric,
    _form_dot,
    _graded_piece_rows,
    _is_prime,
    _layout,
    _poly_degree,
    _rank,
    _ratios,
    _residues,
    _subscheme_lines,
    _unsettled,
    restrict_det_to_line,
    zero_form,
)

DEGREE8_GRID = [[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]]
# no, by a subdiagonal block of degree 3 at k = 3: the leading block has degree 5
BLOCK_LOST_ON_A_LINE = [[2, 2, 5, 6, 5], [-3, -3, 0, 1, 0], [-3, -3, 0, 1, 0], [3, 3, 6, 7, 6], [-1, -1, 2, 3, 2]]
P = DEFAULT_PRIME
KERNEL_PRIMES = (2, 3, 32003, 2**31 - 1)
STREAM_PRIMES = (2, 3, 7, 32003, 2**31 - 1)


def yes_verdicts_by_position() -> dict:
    """(n, inserted row position): the (Q, d) of every yes containment
    verdict there, Q with n = 2..4 and potentials within 2, d up to b_1 + 1."""
    cases: dict = {}
    for n in (2, 3, 4):
        for Q in iter_dhb_matrices(n, 2):
            for d in range(1, Q.shifts[0] + 2):
                decision = contains_subscheme(Q, d)
                if decision.verdict:
                    cases.setdefault((n, decision.inserted_row_position), []).append((Q, d))
    return cases


YES_BY_POSITION = yes_verdicts_by_position()


def monomials(m: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree m in graded-lex order, x > y > z."""
    return tuple((i, j, m - i - j) for i in range(m, -1, -1) for j in range(m - i, -1, -1))


def random_form(m: int, rng: random.Random, p: int = P) -> Form:
    """A form of degree m: one rng.randrange(p) per coefficient."""
    return Form(m, tuple(rng.randrange(p) for _ in range(plane_dim(m))), p)


def random_line(rng: random.Random, p: int):
    """A point and a direction: six rng.randrange(p) calls."""
    values = [rng.randrange(p) for _ in range(6)]
    return tuple(values[:3]), tuple(values[3:])


def reference_rank(rows: list[list[int]], p: int) -> int:
    """Rank mod p by row-at-a-time Gauss-Jordan elimination, kept apart from the kernel."""
    if not rows:
        return 0
    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = a[rank] * inv % p
        for r in range(m):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == m:
            break
    return rank


def reference_evaluate(f: Form, point, p: int) -> int:
    """f at the point mod p, one power-table product per term."""
    if f.is_zero:
        return 0
    x, y, z = (c % p for c in point)
    powers = [[pow(c, e, p) for e in range(f.degree + 1)] for c in (x, y, z)]
    total = 0
    for c, (i, j, k) in zip(f.coeffs, monomials(f.degree)):
        if c:
            total += c * powers[0][i] % p * powers[1][j] % p * powers[2][k]
    return total % p


def power_sum(coeffs, m: int, point, p: int) -> int:
    """The degree-m form with these coefficients at the point mod p, one pow per variable and term."""
    x, y, z = point
    if m < 0:
        return 0
    return sum(c * pow(x, i, p) * pow(y, j, p) * pow(z, k, p) for c, (i, j, k) in zip(coeffs, monomials(m))) % p


def permutation_sign(perm) -> int:
    """+1 or -1 by the parity of the inversions of the permutation."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def reference_restrict(N, line, max_degree: int) -> list[int]:
    """Every entry evaluated at each of s = 0..max_degree, kept apart from the kernel."""
    p = N.prime
    (p0, p1, p2), (q0, q1, q2) = line
    values = []
    for s in range(max_degree + 1):
        point = (p0 + s * q0, p1 + s * q1, p2 + s * q2)
        numeric = [[reference_evaluate(f, point, p) for f in row] for row in N.entries]
        values.append(_det_numeric(numeric, p))
    return values


def primes_above(k: int, count: int) -> list[int]:
    """The `count` smallest primes above k."""
    return [q for q in range(k + 1, 2 * k + 2 * count + 2) if _is_prime(q)][:count]


def form_matrix(grid, rng: random.Random, p: int, zero_share: float = 0.0) -> FormMatrix:
    """Random forms of the grid's degrees; a share of them all-zero of their degree."""
    def entry(m):
        if m < 0:
            return zero_form(p)
        if rng.random() < zero_share:
            return Form(m, (0,) * plane_dim(m), p)
        return random_form(m, rng, p)

    entries = tuple(tuple(entry(m) for m in row) for row in grid)
    return FormMatrix(entries, DegreeMatrix.from_grid(grid), p)


def line_degrees(N, max_degree: int, trials: int, rng: random.Random) -> list:
    """The degree of det(N) on each of `trials` random lines, None where it vanishes."""
    p = N.prime
    return [_poly_degree(restrict_det_to_line(N, random_line(rng, p), max_degree), p) for _ in range(trials)]


def patch_zero_inserted_row(monkeypatch, Q, d: int, trials=None):
    # F(1, 0, 0), the only determinant a yes subscheme trial takes, read as 0
    # sends every trial to its forms; the inserted row's coefficients end the
    # full draw made there, and drawn as zeros, in the given trials or in
    # all, they make F vanish as a form
    row = sum(plane_dim(d - aj) for aj in Q.minor_degrees if aj <= d)
    full = sum(plane_dim(m) for entries in Q.entries for m in entries if m >= 0) + row
    true_residues = witness._residues
    drawn = itertools.count()

    def draw(rng, count, p):
        coeffs = true_residues(rng, count, p)
        if count != full or trials is not None and next(drawn) not in trials:
            return coeffs
        return coeffs[: count - row] + [0] * row

    monkeypatch.setattr(witness, "_residues", draw)
    monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)


def patch_blocks_off_the_product(monkeypatch, full: int):
    # doubled values keep each block's degree but break det = lead * trail
    true_det = witness._det_numeric

    def det(mat, p):
        value = true_det(mat, p)
        return 2 * value % p if len(mat) < full else value

    monkeypatch.setattr(witness, "_det_numeric", det)


def force_full_path(monkeypatch):
    # a square trial told that its grid has no zero corner tries no proof at
    # the line's direction Q, so it evaluates N at its d + 1 nodes
    true_trial = witness._square_trial
    monkeypatch.setattr(witness, "_square_trial", lambda decision, corner, *args: true_trial(decision, False, *args))


def trace_square_points(monkeypatch) -> list:
    """Each square trial's points of evaluation (`_values_at`) in order, the
    proof at Q first where the trial tries it; filled as the trials run."""
    trials = []
    true_trial, true_values = witness._square_trial, witness._values_at

    def values_at(coeffs, layout, n, point, p):
        trials[-1].append(list(point))
        return true_values(coeffs, layout, n, point, p)

    monkeypatch.setattr(witness, "_square_trial", lambda *args: trials.append([]) or true_trial(*args))
    monkeypatch.setattr(witness, "_values_at", values_at)
    return trials


def dhb(grid):
    Q, _, _ = canonicalize(grid)
    return Q


class TestMonomialOrder:
    def test_graded_lex_degree_two(self):
        assert monomials(2) == (
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        )

    def test_counts(self):
        for m in range(8):
            assert len(monomials(m)) == plane_dim(m)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_ratio_prefixes_are_the_monomials_at_one_u_v(self, p):
        # the degree-m prefix holds x^i y^j z^k of `monomials(m)` at (1, u, v)
        rng = random.Random(p)
        for u, v in ((0, 0), (0, 1), (1, 0), (0, rng.randrange(p)), (rng.randrange(p), 0),
                     (rng.randrange(p), rng.randrange(p))):
            flat = _ratios(u, v, 12, p)
            assert len(flat) == plane_dim(12)
            for m in range(13):
                assert flat[: plane_dim(m)] == [pow(u, j, p) * pow(v, k, p) % p for _, j, k in monomials(m)]


class TestForms:
    def test_product_degree_and_commutation_with_evaluation(self):
        rng = random.Random(3)
        f = random_form(2, rng)
        g = random_form(3, rng)
        h = f * g
        assert h.degree == 5
        for _ in range(5):
            pt = tuple(rng.randrange(P) for _ in range(3))
            assert reference_evaluate(h, pt, P) == reference_evaluate(f, pt, P) * reference_evaluate(g, pt, P) % P

    def test_zero_absorbs_products(self):
        rng = random.Random(5)
        assert (random_form(2, rng) * zero_form(P)).is_zero

    def test_products_reduce_coefficients_outside_the_field(self):
        assert Form(1, (-1, 0, 0), P) * Form(1, (1, 0, 0), P) == Form(2, (P - 1,) + (0,) * 5, P)
        assert Form(1, (P + 2, -P, 2**70), P) * Form(0, (-1,), P) == -Form(1, (2, 0, 2**70 % P), P)
        # a factor that is zero mod p makes the zero form
        assert Form(1, (P, 0, -P), P) * Form(1, (1, 2, 3), P) == zero_form(P)

    def test_zero_has_one_representation(self):
        rng = random.Random(6)
        f = random_form(3, rng)
        all_zero = Form(3, (0,) * 10, P)
        assert -all_zero == -zero_form(P) == zero_form(P)
        assert f * all_zero == all_zero * f == zero_form(P)
        assert -Form(1, (P, -P, 2 * P), P) == Form(1, (P, -P, 2 * P), P) * f == zero_form(P)
        assert _form_dot([(f, f, False), (f, f, True)], P) == zero_form(P)


class TestPolyDegree:
    @given(st.integers(0, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, degree, data):
        n = data.draw(st.integers(degree + 1, degree + 6))
        p = data.draw(st.sampled_from(primes_above(n - 1, 2) + [2**31 - 1]))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
        coeffs.append(data.draw(st.integers(1, p - 1)))
        values = [sum(c * pow(s, i, p) for i, c in enumerate(coeffs)) % p for s in range(n)]
        assert _poly_degree(values, p) == degree

    @pytest.mark.parametrize("p", [5, 7, 32003])
    def test_zero(self, p):
        assert _poly_degree([0] * 5, p) is None
        assert _poly_degree([p, -3 * p, 2 * p, 7 * p, p], p) is None


class TestSampling:
    def test_negative_slots_vanish(self):
        rng = random.Random(7)
        M, _, _ = canonicalize(DEGREE8_GRID)
        N = sample_matrix(M, rng)
        zero_slots = sum(
            1
            for i in range(4)
            for j in range(4)
            if M.entries[i][j] < 0
        )
        assert zero_slots == 5
        for i in range(4):
            for j in range(4):
                entry = N.entries[i][j]
                if M.entries[i][j] < 0:
                    assert entry.is_zero
                else:
                    assert entry.degree == M.entries[i][j]

    def test_one_by_one(self):
        rng = random.Random(8)
        N = sample_matrix([[4]], rng)
        assert N.entries[0][0].degree == 4

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_matrix_is_one_random_form_per_entry(self, rows, cols, data):
        # homogeneous grids m_ij = v_j - u_i, negative entries included
        u = data.draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows))
        v = data.draw(st.lists(st.integers(-3, 6), min_size=cols, max_size=cols))
        p = data.draw(st.sampled_from(STREAM_PRIMES))
        grid = [[vj - ui for vj in v] for ui in u]
        self.assert_one_random_form_per_entry(grid, data.draw(st.integers(0, 2**32)), p)

    @pytest.mark.parametrize("grid", [
        [[4]],
        [[0]],
        [[-3, -2, 0]],  # an inserted row of a subscheme witness
        [[2, -1, 3, 0]],
        [[-1, -2], [-2, -3]],  # no entry is drawn
        DEGREE8_GRID,
    ])
    @pytest.mark.parametrize("p", STREAM_PRIMES)
    def test_a_matrix_is_one_random_form_per_entry_at_the_edges(self, grid, p):
        for seed in range(3):
            self.assert_one_random_form_per_entry(grid, seed, p)

    @staticmethod
    def assert_one_random_form_per_entry(grid, seed: int, p: int):
        batched, single = random.Random(seed), random.Random(seed)
        N = sample_matrix(grid, batched, p)
        assert N.entries == tuple(
            tuple(random_form(m, single, p) if m >= 0 else zero_form(p) for m in row) for row in grid
        )
        assert batched.getstate() == single.getstate()

    @pytest.mark.parametrize("p", STREAM_PRIMES)
    def test_batched_residues_are_the_randrange_stream(self, p):
        for count in range(plane_dim(30) + 1):
            batched, single = random.Random(count), random.Random(count)
            assert _residues(batched, count, p) == [single.randrange(p) for _ in range(count)]
            assert batched.getstate() == single.getstate()

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_square_trial_draws_the_coefficients_of_sample_matrix(self, n, data):
        # a square trial evaluates its drawn stream and builds no Form
        u = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        p = data.draw(st.sampled_from(STREAM_PRIMES))
        seed = data.draw(st.integers(0, 2**32))
        grid = [[ui + vj for vj in v] for ui in u]
        drawn, sampled = random.Random(seed), random.Random(seed)
        layout = witness._layout(grid)
        coeffs = witness._residues(drawn, layout[-1][2], p)
        entries = [(m, tuple(coeffs[a:b])) for m, a, b in layout]
        N = sample_matrix(grid, sampled, p)
        assert [(max(m, -1), c) for m, c in entries] == [(f.degree, f.coeffs) for row in N.entries for f in row]
        assert drawn.getstate() == sampled.getstate()

    @pytest.mark.parametrize("n, pos", sorted(YES_BY_POSITION))
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_subscheme_trial_draws_q_and_its_row_at_once(self, n, pos, data):
        # one draw of Q's rows stacked over the inserted row is Q's draw and then the row's
        Q, d = data.draw(st.sampled_from(YES_BY_POSITION[n, pos]))
        p = data.draw(st.sampled_from(STREAM_PRIMES))
        seed = data.draw(st.integers(0, 2**32))
        row = contains_subscheme(Q, d).normalized[pos - 1]
        once, twice = random.Random(seed), random.Random(seed)
        stacked = sample_matrix(DegreeMatrix(Q.entries + (row,)), once, p)
        first = sample_matrix(Q, twice, p)
        assert stacked.entries == first.entries + sample_matrix(DegreeMatrix((row,)), twice, p).entries
        assert once.getstate() == twice.getstate()


class TestDeterminantRestriction:
    def test_restriction_commutes_with_determinant(self):
        """(det N) restricted to a line equals det of the restricted entries."""
        rng = random.Random(9)
        # the last two are the inserted squares of a subscheme witness,
        # whose curve degree is read from det_form alone
        inserted = [contains_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), d).normalized for d in (4, 8)]
        for grid in ([[1, 2], [0, 1]], [[1, 1, 2], [1, 1, 2], [0, 0, 1]], *inserted):
            M, _, _ = canonicalize(grid)
            N = sample_matrix(M, rng)
            F = det_form(N)
            d = M.degree
            line = (
                tuple(rng.randrange(P) for _ in range(3)),
                tuple(rng.randrange(P) for _ in range(3)),
            )
            via_entries = restrict_det_to_line(N, line, d)
            (p0, p1, p2), (q0, q1, q2) = line
            direct = [
                reference_evaluate(F, (p0 + s * q0, p1 + s * q1, p2 + s * q2), P) for s in range(d + 1)
            ]
            assert direct == via_entries

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_restriction_matches_the_reference(self, n, data):
        u = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        grid = [[ui + vj for vj in v] for ui in u]
        d = sum(grid[i][i] for i in range(n))
        # below d too: both sides take the values at the same nodes
        max_degree = data.draw(st.integers(0, max(d, 0) + 1))
        p = data.draw(st.sampled_from(primes_above(max_degree, 2) + [P, 2**31 - 1]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        N = form_matrix(grid, rng, p, zero_share=data.draw(st.sampled_from([0.0, 0.2])))
        line = tuple(tuple(rng.randrange(-2 * p, 2 * p) for _ in range(3)) for _ in range(2))
        assert restrict_det_to_line(N, line, max_degree) == reference_restrict(N, line, max_degree)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_evaluator_matches_powers_along_the_line(self, n, data):
        # x = 0 at the direction, at a node or everywhere, y or z = 0, and the zero point
        p = data.draw(st.sampled_from(STREAM_PRIMES))
        u, v = (data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n)) for _ in range(2))
        grid = [[ui + vj for vj in v] for ui in u]
        coordinate = st.one_of(st.sampled_from([0, p, 1, p - 1]), st.integers(-2 * p, 2 * p))
        start, direction = (list(data.draw(st.tuples(coordinate, coordinate, coordinate))) for _ in range(2))
        max_degree = data.draw(st.integers(0, 6))
        x_vanishes_at = data.draw(st.none() | st.integers(0, max_degree))
        if x_vanishes_at is not None:
            start[0] = -x_vanishes_at * direction[0]
        layout = witness._layout(grid)
        coeffs = data.draw(st.lists(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1),
                                    min_size=layout[-1][2], max_size=layout[-1][2]))
        for s in range(max_degree + 1):
            point = [a + s * b for a, b in zip(start, direction)]
            mat = witness._values_at(coeffs, layout, n, point, p)
            expected = [power_sum(coeffs[a:b], m, point, p) for m, a, b in layout]
            assert [v for row in mat for v in row] == expected

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_restriction_is_the_determinant_along_the_line(self, n, data):
        p = data.draw(st.sampled_from(STREAM_PRIMES))
        u = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        grid = [[ui + vj for vj in v] for ui in u]
        max_degree = data.draw(st.integers(0, min(p - 1, 8)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        N = form_matrix(grid, rng, p, zero_share=data.draw(st.sampled_from([0.0, 0.3])))
        start, direction = (list(data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))) for _ in range(2))
        kind = data.draw(st.sampled_from(["any", "direction", "node"]))
        if kind == "direction":
            direction[0] = 0
        elif kind == "node":
            start[0] = -data.draw(st.integers(0, max_degree)) * direction[0]
        expected = []
        for s in range(max_degree + 1):
            point = [a + s * b for a, b in zip(start, direction)]
            values = [[power_sum(f.coeffs, f.degree, point, p) for f in row] for row in N.entries]
            expected.append(sum(math.prod(values[i][j] for i, j in enumerate(perm)) * permutation_sign(perm)
                                for perm in itertools.permutations(range(n))) % p)
        assert restrict_det_to_line(N, (start, direction), max_degree) == expected

    @pytest.mark.parametrize("grid, max_degree", [
        ([[0, 5], [-5, 0]], 0),  # both entries of degree 5 sit above d = 0
        ([[5]], 0),
        ([[-1]], 0),
        ([[7, 9], [1, 3]], 10),
        ([[2, 4, 7], [1, 3, 6], [-2, 0, 3]], 8),
    ])
    def test_restriction_edge_cases(self, grid, max_degree):
        # the two smallest primes the degree allows, and the default
        for p in primes_above(max_degree, 2) + [P]:
            rng = random.Random(p)
            for zero_share in (0.0, 0.5, 1.0):
                N = form_matrix(grid, rng, p, zero_share)
                line = random_line(rng, p)
                assert restrict_det_to_line(N, line, max_degree) == reference_restrict(N, line, max_degree)

    def test_observed_degree_matches(self):
        rng = random.Random(10)
        M, _, _ = canonicalize(DEGREE8_GRID)
        N = sample_matrix(M, rng)
        # not identically zero, and the highest degree seen is the full 8
        assert max((deg for deg in line_degrees(N, 8, 5, rng) if deg is not None), default=None) == 8

    def test_structurally_zero_determinant(self):
        rng = random.Random(11)
        M, _, _ = canonicalize([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]])
        N = sample_matrix(M, rng)
        assert line_degrees(N, 2, 5, rng) == [None] * 5

    def test_observed_degree_never_exceeds_total(self):
        rng = random.Random(12)
        for _ in range(10):
            u = sorted((rng.randint(-2, 3) for _ in range(3)), reverse=True)
            v = sorted(rng.randint(0, 3) for _ in range(3))
            grid = [[ui + vj for vj in v] for ui in u]
            d = sum(grid[i][i] for i in range(3))
            if d < 0:
                continue
            N = sample_matrix(grid, rng)
            assert all(deg is None or deg <= d for deg in line_degrees(N, d, 3, rng))

    def test_small_field_rejected(self):
        rng = random.Random(13)
        N = sample_matrix([[5]], rng, prime=5)
        with pytest.raises(FieldTooSmallError):
            line_degrees(N, 5, 1, rng)


class TestInputsOverMixedFields:
    """Inputs that do not fit together are refused, not silently accepted."""

    x = Form(1, (1, 0, 0), 7)

    @pytest.mark.parametrize("entries", [
        ((x,),),  # fewer entries than the 1 x 2 degree matrix
        ((x, x, x),),  # more
        ((x, x), (x, x)),  # more rows
    ])
    def test_form_matrix_of_another_shape(self, entries):
        with pytest.raises(ValueError, match=r"1 x 2 shape"):
            FormMatrix(entries, DegreeMatrix(((1, 1),)), 7)

    def test_form_matrix_entry_over_another_field(self):
        with pytest.raises(ValueError, match=r"entry \(1,2\) is over F_11, expected F_7"):
            FormMatrix(((self.x, Form(1, (1, 2, 3), 11)),), DegreeMatrix(((1, 1),)), 7)
        with pytest.raises(ValueError, match="over F_11"):
            FormMatrix(((zero_form(11),),), DegreeMatrix(((-1,),)), 7)

    @pytest.mark.parametrize("f, g", [
        (Form(1, (1, 2, 3), 7), Form(1, (1, 2, 3), 11)),
        (Form(1, (1, 2, 3), 11), Form(1, (1, 2, 3), 7)),
        (zero_form(7), Form(1, (1, 2, 3), 11)),
        (Form(2, (1,) * 6, 7), zero_form(11)),
    ])
    def test_arithmetic_across_fields(self, f, g):
        with pytest.raises(ValueError, match="F_7 and F_11|F_11 and F_7"):
            f * g

    def test_ideal_of_forms_over_two_fields(self):
        with pytest.raises(ValueError, match="one field"):
            ideal_dim([Form(1, (1, 0, 0), 7), Form(1, (0, 1, 0), 11)], 2)


class TestMaximalMinors:
    def test_complete_intersection_of_conics(self):
        rng = random.Random(14)
        A = sample_matrix(dhb([[2, 2]]), rng)
        minors = maximal_minors(A)
        assert [g.degree for g in minors] == [2, 2]

    def test_degrees_22_points(self):
        rng = random.Random(15)
        A = sample_matrix(dhb([[2, 3, 5], [1, 2, 4]]), rng)
        assert [g.degree for g in maximal_minors(A)] == [7, 6, 4]

    def test_degrees_20_points(self):
        rng = random.Random(16)
        Q = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
        assert [g.degree for g in maximal_minors(sample_matrix(Q, rng))] == [7, 7, 5, 5, 5]

    def test_six_by_seven_is_beyond_the_cofactor_budget(self):
        Q = dhb([[1] * 7] * 6)
        A = sample_matrix(Q, random.Random(17))
        with pytest.raises(CofactorBudgetError) as info:
            maximal_minors(A)
        assert isinstance(info.value, CurvedetError) and isinstance(info.value, ValueError)
        assert info.value.payload() == {
            "error": "CofactorBudgetExceeded",
            "message": "cofactor expansion budget is n <= 6, got n = 7",
        }
        with pytest.raises(CofactorBudgetError):
            verify_subscheme(Q, 7, trials=1)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_det_form_at_a_point_is_the_determinant_of_the_values(self, n, p):
        # evaluation is a ring map, so det(N) at a point is det of N's values
        # there; reference_evaluate shares nothing with the cofactor sums
        rng = random.Random(f"det {n} {p}")
        for _ in range(4):
            u = [rng.randint(-1, 2 if n <= 4 else 1) for _ in range(n)]
            v = [rng.randint(0, 3 if n <= 4 else 1) for _ in range(n)]
            N = form_matrix([[ui + vj for vj in v] for ui in u], rng, p, zero_share=0.1)
            F = det_form(N)
            for _ in range(3):
                point = tuple(rng.randrange(p) for _ in range(3))
                values = [[reference_evaluate(f, point, p) for f in row] for row in N.entries]
                assert reference_evaluate(F, point, p) == _det_numeric(values, p)

    def test_laplace_expansion_identity(self):
        # expanding the square determinant along the row appended at
        # position 3: det = (-1)^3 sum row_j * minor_j
        rng = random.Random(17)
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        A = sample_matrix(Q, rng)
        minors = maximal_minors(A)
        row = [random_form(d, rng) for d in (2, 3, 5)]
        entries = A.entries + (tuple(row),)
        grid = DegreeMatrix.from_grid([[2, 3, 5], [1, 2, 4], [2, 3, 5]])
        square = FormMatrix(entries, grid, P)
        F = det_form(square)
        assert F == -dense_dot([(f, g, False) for f, g in zip(row, minors)], P)


class TestIdealDim:
    def test_two_conics(self):
        rng = random.Random(18)
        conics = [random_form(2, rng) for _ in range(2)]
        assert ideal_dim(conics, 2) == 2
        # 12 products of the two conics with the 6 quadric monomials minus
        # the single linear relation between them
        assert ideal_dim(conics, 4) == 11

    def test_unique_quartic_through_22_points(self):
        rng = random.Random(19)
        minors = maximal_minors(sample_matrix(dhb([[2, 3, 5], [1, 2, 4]]), rng))
        assert ideal_dim(minors, 4) == 1

    def test_empty_input(self):
        assert ideal_dim([], 3) == 0
        assert ideal_dim([zero_form(P)], 3) == 0

    def test_generators_above_the_level(self):
        rng = random.Random(20)
        assert ideal_dim([random_form(3, rng)], 2) == 0

    @staticmethod
    def rows_by_monomial_index(gens, t):
        """Each multiple's row, one coefficient at a time through a dict from
        (x-exponent, y-exponent) to its position in degree t."""
        index = {(i, j): idx for idx, (i, j, _) in enumerate(monomials(t))}
        rows = []
        for g in gens:
            if g.is_zero or g.degree > t:
                continue
            for a, b, _ in monomials(t - g.degree):
                row = [0] * plane_dim(t)
                for coeff, (i, j, _) in zip(g.coeffs, monomials(g.degree)):
                    if coeff:
                        row[index[(i + a, j + b)]] = coeff
                rows.append(row)
        return rows

    @pytest.mark.parametrize("p", (7, 32003))
    def test_rows_place_the_runs_where_the_monomials_go(self, p):
        rng = random.Random(p)
        gens = []
        for e in range(7):
            # about half the coefficients vanish
            g = Form(e, tuple(rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(plane_dim(e))), p)
            gens.append(g)
            for t in range(e, e + 6):
                assert _graded_piece_rows([g], t, p) == self.rows_by_monomial_index([g], t)
        gens.append(Form(3, (1,) * 6 + (0,) * 4, p))  # its last run, free of x, vanishes
        for t in range(12):
            assert _graded_piece_rows(gens, t, p) == self.rows_by_monomial_index(gens, t)


class TestEchelonKernel:
    @given(st.sampled_from(KERNEL_PRIMES), st.integers(0, 40), st.integers(1, 40),
           st.integers(0, 40), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_rank_of_low_rank_products(self, p, m, n, k, seed):
        rng = random.Random(seed)
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        rows = [[sum(x * right[i][j] for i, x in enumerate(row)) % p for j in range(n)] for row in left]
        assert _rank(rows, p) == reference_rank(rows, p)

    def test_prime_bound_guards_the_int64_products(self):
        rng = random.Random(22)
        with pytest.raises(InvalidWitnessParameterError):
            ideal_dim([random_form(2, rng, 4294967311)], 3)


class TestPrimality:
    def test_matches_trial_division(self):
        def by_division(n):
            return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

        assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if by_division(n)]

    def test_strong_pseudoprimes_and_the_bound(self):
        # strong pseudoprimes to bases {2}, {2, 3} and {2, 3, 5}
        for n in (2047, 1373653, 25326001, 2**31 + 1, 4294967297):
            assert not _is_prime(n)
        for n in (2**31 - 1, 4294967311, 32003):
            assert _is_prime(n)


class TestVerifyRepresentable:
    def test_positive_degree_eight(self):
        report = verify_representable(DEGREE8_GRID, trials=6, seed=2)
        assert report.ok
        assert set(report.observed_degrees) == {8}

    def test_negative_diagonal_vanishes(self):
        report = verify_representable([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], trials=6, seed=2)
        assert report.ok
        assert all(deg is None for deg in report.observed_degrees)

    def test_block_factorization(self):
        report = verify_representable([[1, 3], [-1, 1]], trials=6, seed=2)
        assert report.ok
        assert set(report.observed_degrees) == {2}

    def test_blocks_that_do_not_multiply_are_reported(self, monkeypatch):
        patch_blocks_off_the_product(monkeypatch, full=2)
        report = verify_representable([[1, 3], [-1, 1]], trials=3, seed=2)
        assert report.mismatches == [
            f"trial {i}: block determinants do not multiply to the determinant" for i in range(3)
        ]
        assert report.observed_degrees == [2, 2, 2]

    def test_block_product_is_checked_at_the_last_node(self, monkeypatch):
        # in full, the trial reads its 1 x 1 blocks lead then trail at each
        # node, so the fifth read is the leading block at the last node d = 2
        true_det = witness._det_numeric
        reads = []

        def det(mat, p):
            value = true_det(mat, p)
            if len(mat) < 2:
                reads.append(value)
                return (value + 1) % p if len(reads) == 5 else value
            return value

        force_full_path(monkeypatch)
        monkeypatch.setattr(witness, "_det_numeric", det)
        report = verify_representable([[1, 3], [-1, 1]], trials=1, seed=2)
        assert "trial 0: block determinants do not multiply to the determinant" in report.mismatches

    def test_a_block_degree_lost_on_one_line_is_no_mismatch(self):
        # trial 3 draws a line on which the leading block has degree 4, not 5
        report = verify_representable(BLOCK_LOST_ON_A_LINE, trials=4, seed=604815836)
        assert report.verdict_checked["reason"] == REASON_SUBDIAGONAL
        assert report.observed_degrees == [8, 8, 8, 7]
        assert report.mismatches == []

    def test_a_block_degree_above_its_own_is_reported(self, monkeypatch):
        # each 1 x 1 block of degree 1 is given the squares of its values,
        # which have degree 2 on its line
        true_det = witness._det_numeric

        def det(mat, p):
            value = true_det(mat, p)
            return value * value % p if len(mat) < 2 else value

        monkeypatch.setattr(witness, "_det_numeric", det)
        report = verify_representable([[1, 3], [-1, 1]], trials=2, seed=2)
        assert report.mismatches == [
            text
            for i in range(2)
            for text in (
                f"trial {i}: leading block degree 2 exceeds 1",
                f"trial {i}: trailing block degree 2 exceeds 1",
                f"trial {i}: block determinants do not multiply to the determinant",
            )
        ]

    def test_a_wrong_diagonal_verdict_is_never_settled(self, monkeypatch):
        # [[1, 1], [1, 1]] has no zero corner, so each trial runs in full
        wrong = Decision(False, REASON_DIAGONAL, 2, ((1, 1), (1, 1)), k=2)
        monkeypatch.setattr(witness, "representable", lambda grid: wrong)
        report = verify_representable([[1, 1], [1, 1]], trials=3, seed=2)
        assert report.mismatches == [
            f"trial {i}: expected zero determinant, saw degree 2" for i in range(3)
        ]

    def test_a_wrong_subdiagonal_verdict_is_never_settled(self, monkeypatch):
        wrong = Decision(False, REASON_SUBDIAGONAL, 2, ((1, 1), (1, 1)), k=2, block_degree=1)
        monkeypatch.setattr(witness, "representable", lambda grid: wrong)
        report = verify_representable([[1, 1], [1, 1]], trials=3, seed=2)
        assert report.observed_degrees == [2, 2, 2]
        assert report.mismatches == [
            f"trial {i}: block determinants do not multiply to the determinant" for i in range(3)
        ]

    def test_a_grid_without_the_corner_runs_in_full(self, monkeypatch):
        # [[1, 1], [1, 1]] has no zero corner, so no trial tries the proof at
        # the direction Q = (0, 0, 1), though N[2][1] = x vanishes there and
        # L T = det(N(Q)): each runs at its d + 1 nodes, where det(N) != lead * trail
        wrong = Decision(False, REASON_SUBDIAGONAL, 2, ((1, 1), (1, 1)), k=2, block_degree=1)
        monkeypatch.setattr(witness, "representable", lambda grid: wrong)
        true_draw = witness._residues

        def draw(rng, count, p):
            coeffs = true_draw(rng, count, p)
            coeffs[6:9] = (1, 0, 0)  # N[2][1] = x: the third entry's coefficients, in row order
            coeffs[-6:] = (1, 2, 3, 0, 0, 1)  # the line's point and direction end the draw
            return coeffs

        monkeypatch.setattr(witness, "_residues", draw)
        points = trace_square_points(monkeypatch)
        report = verify_representable([[1, 1], [1, 1]], trials=2, seed=2)
        assert report.mismatches == [
            f"trial {i}: block determinants do not multiply to the determinant" for i in range(2)
        ]
        assert points == [[[1, 2, 3], [1, 2, 4], [1, 2, 5]]] * 2

    def test_blocks_off_the_determinant_at_the_direction_are_no_proof(self, monkeypatch):
        # [[1, 3], [-1, 1]] has its zero corner, and each trial is proved at Q;
        # trial 0's blocks there, made to multiply to 2 det(N(Q)), send it in full
        grid = [[1, 3], [-1, 1]]
        expected = verify_representable(grid, trials=3, seed=2).to_json()
        points = trace_square_points(monkeypatch)
        assert verify_representable(grid, trials=3, seed=2).to_json() == expected
        assert [len(trial) for trial in points] == [1, 1, 1]
        true_blocks = witness._block_dets
        calls = []

        def blocks(mat, k, p):
            lead, trail = true_blocks(mat, k, p)
            calls.append(mat)
            return (2 * lead % p, trail) if len(calls) == 1 else (lead, trail)

        monkeypatch.setattr(witness, "_block_dets", blocks)
        points.clear()
        assert verify_representable(grid, trials=3, seed=2).to_json() == expected
        assert [len(trial) for trial in points] == [1 + 3, 1, 1]

    @pytest.mark.parametrize("grid, prime, seed, evaluations", [
        ([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], DEFAULT_PRIME, 3, []),
        ([[5, 6, 8, 9], [2, 3, 5, 6], [-2, -1, 1, 2], [-3, -2, 0, 1]], DEFAULT_PRIME, 3, [1] * 4),
        # at p = 7 trials 1 and 2 fail the proof and evaluate N at the d + 1 = 4 nodes too
        ([[2, 2, 4], [-1, -1, 1], [0, 0, 2]], 7, 0, [1, 5, 5, 1]),
    ])
    def test_negative_squares_settle_without_a_restriction(self, monkeypatch, grid, prime, seed, evaluations):
        # a zero corner proves a diagonal verdict outright; a subdiagonal one
        # evaluates N once, at the line's direction, and reads det(N) and
        # both blocks from those values, as a trial in full does at each node
        points = trace_square_points(monkeypatch)
        report = verify_representable(grid, trials=4, seed=seed, prime=prime)
        assert report.ok
        assert [len(trial) for trial in points] == evaluations

    @pytest.mark.parametrize("forced", [False, True], ids=["settled", "full"])
    @pytest.mark.parametrize("grid, prime", [
        (DEGREE8_GRID, DEFAULT_PRIME),
        ([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], DEFAULT_PRIME),
        ([[1, 3], [-1, 1]], DEFAULT_PRIME),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 7),  # trials 1 and 3 run in full unforced
        ([[2, 2, 4], [-1, -1, 1], [0, 0, 2]], 7),  # trials 1 and 2 run in full unforced
    ])
    def test_a_square_trial_builds_no_form(self, monkeypatch, grid, prime, forced):
        if forced:
            force_full_path(monkeypatch)
        expected = verify_representable(grid, trials=4, seed=0, prime=prime).to_json()
        monkeypatch.setattr(Form, "__init__", lambda *args: pytest.fail("built a Form"))
        assert verify_representable(grid, trials=4, seed=0, prime=prime).to_json() == expected
        assert expected["mismatches"] == []

    def test_a_square_report_checks_homogeneity_once(self, monkeypatch):
        true_check = degree_matrix._check_homogeneous
        calls = []
        monkeypatch.setattr(degree_matrix, "_check_homogeneous", lambda rows: calls.append(rows) or true_check(rows))
        assert verify_representable(DEGREE8_GRID, trials=2, seed=2).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("forced", [False, True], ids=["settled", "full"])
    @pytest.mark.parametrize("grid, layouts", [
        (DEGREE8_GRID, 1),
        ([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], 0),  # a diagonal no whose grid has the corner draws nothing
        ([[5, 6, 8, 9], [2, 3, 5, 6], [-2, -1, 1, 2], [-3, -2, 0, 1]], 1),
    ], ids=["yes", "diagonal", "subdiagonal"])
    def test_a_square_report_lays_out_its_draw_once(self, monkeypatch, grid, layouts, forced):
        if forced:
            force_full_path(monkeypatch)
        true_layout = witness._layout
        calls = []
        monkeypatch.setattr(witness, "_layout", lambda rows: calls.append(rows) or true_layout(rows))
        assert verify_representable(grid, trials=5, seed=2).ok
        assert len(calls) == layouts

    @pytest.mark.parametrize("call", [
        lambda: verify_representable([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], trials=5, seed=2),
        lambda: verify_representable([[60, 80, 100], [0, 20, 40], [-45, -25, -5]], trials=5),
        lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 3, trials=3, prime=7),
    ], ids=["representable", "large-representable", "subscheme"])
    def test_a_diagonal_no_whose_grid_has_the_corner_samples_nothing(self, monkeypatch, call):
        # the degree grid's zero corner forces det(N) = 0 for every N of its degrees
        for name in ("_trial_rng", "_residues"):
            monkeypatch.setattr(witness, name, lambda *args: pytest.fail("sampled"))
        report = call()
        assert report.verdict_checked["reason"] == REASON_DIAGONAL
        assert report.observed_degrees == [None] * report.trials
        assert report.ok

    def test_degree_zero(self):
        report = verify_representable([[0, 0], [0, 0]], trials=4, seed=2)
        assert report.ok
        assert set(report.observed_degrees) == {0}

    @pytest.mark.parametrize("prime", [9, 1, 0, -7, 2**31, 4294967311])
    def test_rejects_unusable_primes(self, prime):
        with pytest.raises(InvalidWitnessParameterError) as info:
            verify_representable([[1, 1], [1, 1]], trials=1, prime=prime)
        assert info.value.payload()["parameter"] == "prime"

    @pytest.mark.parametrize("build", [
        lambda p, rng: sample_matrix([[1, 1, 1], [1, 1, 1]], rng, p),
        lambda p, rng: Form(1, (5, 6, 7), p),
    ], ids=["sample_matrix", "Form"])
    @pytest.mark.parametrize("prime", [4, 1, 0, -7, 2**31, 7.0])
    def test_forms_need_a_witness_prime(self, build, prime):
        rng = random.Random(0)
        with pytest.raises(InvalidWitnessParameterError) as info:
            build(prime, rng)
        assert info.value.payload()["parameter"] == "prime"
        assert rng.getstate() == random.Random(0).getstate()  # nothing drawn

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_empty_trial_counts(self, trials):
        with pytest.raises(InvalidWitnessParameterError) as info:
            verify_representable([[1, 1], [1, 1]], trials=trials)
        assert info.value.payload()["parameter"] == "trials"

    @pytest.mark.parametrize("seed", [2.5, True, "x"])
    def test_rejects_seeds_that_are_not_integers(self, seed):
        for witness_of in (lambda: verify_representable([[1, 1], [1, 1]], trials=1, seed=seed),
                           lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=1, seed=seed)):
            with pytest.raises(InvalidWitnessParameterError) as info:
                witness_of()
            assert info.value.payload()["parameter"] == "seed"

    def test_largest_prime_below_the_bound(self):
        report = verify_representable(DEGREE8_GRID, trials=2, seed=2, prime=2**31 - 1)
        assert report.ok

    def test_report_json_shape(self):
        payload = verify_representable([[1]], trials=2, seed=3).to_json()
        assert set(payload) == {
            "seed",
            "prime",
            "trials",
            "verdictChecked",
            "observedDegrees",
            "hfProfile",
            "mismatches",
        }


class TestVerifySubscheme:
    def test_22_points_on_quartic(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        report = verify_subscheme(Q, 4, trials=3, seed=4)
        assert report.ok
        profile = [(entry["t"], entry["predicted"]) for entry in report.hf_profile]
        assert [v for _, v in profile] == [1, 3, 6, 10, 14, 18, 21, 22, 22, 22]
        assert all(entry["predicted"] == entry["observed"] for entry in report.hf_profile)

    def test_conics_on_cubic(self):
        report = verify_subscheme(dhb([[2, 2]]), 3, trials=4, seed=5)
        assert report.ok
        assert set(report.observed_degrees) == {3}

    def test_20_points_on_sextic(self):
        Q = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
        report = verify_subscheme(Q, 6, trials=2, seed=6)
        assert report.ok

    def test_negative_decision_is_witnessed(self):
        # the square [[2,3,5],[1,2,4],[-2,-1,1]] has a trailing block of degree 1
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        report = verify_subscheme(Q, 5, trials=3, seed=7)
        assert report.ok
        assert report.verdict_checked == contains_subscheme(Q, 5).to_json()
        assert report.verdict_checked["reason"] == REASON_SUBDIAGONAL
        assert len(report.observed_degrees) == 3
        assert report.hf_profile == []

    def test_negative_verdict_sweep(self):
        reasons = Counter()
        for Q in iter_dhb_matrices(3, 3):
            for d in range(1, Q.shifts[0] + 2):
                decision = contains_subscheme(Q, d)
                if decision.verdict:
                    continue
                report = verify_subscheme(Q, d, trials=1, seed=d)
                assert report.ok, (Q.entries, d, report.mismatches)
                assert report.verdict_checked == decision.to_json()
                reasons[decision.reason] += 1
        assert reasons[REASON_DIAGONAL] > 100 and reasons[REASON_SUBDIAGONAL] > 50

    @pytest.mark.parametrize("prime, trials", [(9, 1), (4294967311, 1), (P, 0), (P, -1)])
    def test_rejects_bad_parameters(self, prime, trials):
        with pytest.raises(InvalidWitnessParameterError):
            verify_subscheme(dhb([[1, 1, 1], [1, 1, 1]]), 4, trials=trials, prime=prime)

    def test_largest_prime_below_the_bound(self):
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=1, seed=4, prime=2**31 - 1)
        assert report.ok
        assert all(entry["predicted"] == entry["observed"] for entry in report.hf_profile)

    def test_the_form_path_at_a_large_degree_and_the_largest_prime_gives_the_same_report(self, monkeypatch):
        # F(1, 0, 0) read as zero and no line proving coprimality send every
        # trial to its forms: minors of degree 20 and F of degree 30, whose
        # coefficient products near 2^62 are summed before they are reduced
        Q, p = dhb([[10, 10, 10], [10, 10, 10]]), 2**31 - 1
        expected = verify_subscheme(Q, 30, trials=1, seed=3, prime=p).to_json()
        forms = []
        true_form_dot = witness._form_dot
        monkeypatch.setattr(witness, "_form_dot", lambda terms, p: forms.append(p) or true_form_dot(terms, p))
        monkeypatch.setattr(witness, "_subscheme_lines", lambda *args: False)
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        assert verify_subscheme(Q, 30, trials=1, seed=3, prime=p).to_json() == expected
        assert expected["verdictChecked"]["answer"] == "yes" and expected["mismatches"] == []
        assert forms

    def test_curve_degree_is_read_from_the_determinant(self):
        # d = 8 is above the stable threshold 7, so every trial must see
        # degree 8; at p = 101 trial 2 samples a curve through the
        # direction of the line that trial would draw
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 8, trials=5, seed=5, prime=101)
        assert report.ok, report.mismatches
        assert report.observed_degrees == [8] * 5

    def test_zero_curve_is_reported(self, monkeypatch):
        patch_zero_inserted_row(monkeypatch, dhb([[2, 3, 5], [1, 2, 4]]), 4)
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=1, seed=4)
        assert report.mismatches == ["trial 0: curve degree None != 4"]
        assert report.observed_degrees == [None]

    def test_negative_verdict_blocks_that_do_not_multiply_are_reported(self, monkeypatch):
        # d = 5 is witnessed on the inserted 3 x 3 square, which splits after row 2
        patch_blocks_off_the_product(monkeypatch, full=3)
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 5, trials=3, seed=5)
        assert report.verdict_checked["reason"] == REASON_SUBDIAGONAL
        assert report.mismatches == [
            f"trial {i}: block determinants do not multiply to the determinant" for i in range(3)
        ]

    def test_zero_curve_in_every_trial_is_reported(self, monkeypatch):
        patch_zero_inserted_row(monkeypatch, dhb([[2, 3, 5], [1, 2, 4]]), 4)
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=3, seed=4)
        assert report.mismatches == [f"trial {i}: curve degree None != 4" for i in range(3)]

    def test_a_trial_whose_curve_is_zero_checks_no_level(self, monkeypatch):
        # trial 0's curve is zero; trial 1's rank falls short at level 5, the
        # only trial that checks it, so that level is a mismatch
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        patch_zero_inserted_row(monkeypatch, Q, 4, trials={0})
        monkeypatch.setattr(witness, "_subscheme_lines", lambda *args: False)  # every trial ranks its levels
        true_ideal_dim = witness.ideal_dim
        monkeypatch.setattr(witness, "ideal_dim", lambda gens, t: true_ideal_dim(gens, t) + (t == 5))
        report = verify_subscheme(Q, 4, trials=2, seed=4)
        h = hilbert_function(BettiData(Q.minor_degrees, Q.shifts), 5)
        assert report.observed_degrees == [None, 4]
        assert report.mismatches == [f"trial 1: Hilbert function at level 5 is {h - 1}, predicted {h}"]

    @pytest.mark.parametrize("p", [7, 11])
    def test_no_report_of_the_small_prime_sweep_is_a_mismatch(self, p):
        # every minimal presentation with n = 2, 3 and potentials within 3, at every d < p
        for Q in (Q for n in (2, 3) for Q in iter_dhb_matrices(n, 3, minimal_only=True)):
            for d in range(1, p):
                report = verify_subscheme(Q, d, trials=5, seed=0, prime=p)
                assert report.ok, (Q.entries, d, report.mismatches)

    def test_a_proved_trial_observes_the_prediction(self, monkeypatch):
        # coprime minors settle all three trials, so nothing is ranked: the
        # prediction, the alternating sum of the Hilbert-Burch twists, is what
        # they prove, so a trial records it whatever it is
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        true_hf = witness.hilbert_function
        monkeypatch.setattr(witness, "hilbert_function", lambda B, t: true_hf(B, t) + (t == 5))
        monkeypatch.setattr(witness, "ideal_dim", lambda *args: pytest.fail("ranked"))
        report = verify_subscheme(Q, 4, trials=3, seed=0)
        B = BettiData(Q.minor_degrees, Q.shifts)
        predicted = [true_hf(B, t) + (t == 5) for t in range(Q.shifts[0] + 1)]
        assert report.ok
        assert report.hf_profile == [{"t": t, "predicted": h, "observed": h} for t, h in enumerate(predicted)]

    def test_a_trial_checks_nothing_it_built(self, monkeypatch):
        # [[3, 4]] at d = 4, p = 7, seed 0: trial 3's minors are not shown
        # coprime, so that trial ranks every level
        cases = [(dhb([[3, 4]]), 4, 7, 0, 4), (dhb([[2, 3, 5], [1, 2, 4]]), 4, P, 4, 3)]
        expected = [verify_subscheme(Q, d, trials, seed, p).to_json() for Q, d, p, seed, trials in cases]

        def checked(*args):
            pytest.fail("a trial checked what it built")

        monkeypatch.setattr(DegreeMatrix, "__init__", checked)
        monkeypatch.setattr(FormMatrix, "__init__", checked)
        monkeypatch.setattr(degree_matrix, "_check_homogeneous", checked)
        ranked = []
        true_ideal_dim = witness.ideal_dim
        monkeypatch.setattr(witness, "ideal_dim", lambda gens, t: ranked.append(t) or true_ideal_dim(gens, t))
        for (Q, d, p, seed, trials), report in zip(cases, expected):
            assert verify_subscheme(Q, d, trials, seed, p).to_json() == report
            assert report["mismatches"] == []
        assert ranked == list(range(8))

    def test_hilbert_profile_matches_formula(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        B = BettiData(Q.minor_degrees, Q.shifts)
        report = verify_subscheme(Q, 4, trials=1, seed=8)
        for entry in report.hf_profile:
            assert entry["predicted"] == hilbert_function(B, entry["t"])


# (Q, d) like witness-mix's subscheme reports: generic-Betti presentations
# with three generators at d = 12..20
MIX_LIKE = [
    ([[1, 2, 2], [1, 2, 2]], 20), ([[1, 3, 4], [-1, 1, 2]], 18), ([[1, 1, 2], [1, 1, 2]], 12),
    ([[1, 4, 4], [-2, 1, 1]], 16), ([[1, 5, 6], [-3, 1, 2]], 19), ([[1, 4, 5], [-2, 1, 2]], 17),
    ([[2, 2, 2], [2, 2, 2]], 18), ([[2, 2, 2], [1, 1, 1]], 14), ([[1, 4, 6], [-2, 1, 3]], 19),
]
# [[3,3,4],[3,3,4]] has minor degrees (7, 7, 6), at and above p = 7
MINOR_DEGREE_AT_P = (
    '{"seed": 169, "prime": 7, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 6, '
    '"insertedRowPosition": 3}, "observedDegrees": [6, 6, 6], "hfProfile": ['
    + ", ".join(f'{{"t": {t}, "predicted": {h}, "observed": {h}}}'
                for t, h in enumerate([1, 3, 6, 10, 15, 21, 27, 31, 33, 33, 33]))
    + '], "mismatches": []}'
)


CURVE_LOST = "trial 0: curve degree None != 4"
LEVEL_SHORT = "trial 1: Hilbert function at level 1 is 2, predicted 3"
BLOCK_LOST = "no trial realized the leading block degree 2"


@pytest.mark.parametrize("outcomes, mismatches", [
    ([(None, "trial 0: block determinants do not multiply to the determinant"), ("leading block", BLOCK_LOST),
      ("leading block", BLOCK_LOST)], ["trial 0: block determinants do not multiply to the determinant"]),
    ([("curve", CURVE_LOST), ("curve", None), (0, None), (1, None)], []),
    ([("curve", CURVE_LOST), ("curve", None), (0, None), (1, LEVEL_SHORT)], [LEVEL_SHORT]),
    ([("curve", CURVE_LOST), ("curve", "trial 1: curve degree None != 4")],
     [CURVE_LOST, "trial 1: curve degree None != 4"]),
    ([("leading block", BLOCK_LOST), ("trailing block", None)] * 3, [BLOCK_LOST]),
    ([("full", None)] * 3, []),
    ([], []),
], ids=["hard-texts-suppress-the-summaries", "settled-by-a-later-trial", "a-zero-curve-makes-no-level",
        "failed-in-every-trial", "a-repeated-summary-once", "no-failure", "no-check"])
def test_one_rule_settles_every_check(outcomes, mismatches):
    # (check, message or None) per check a trial makes, in trial order; check None is a hard text
    assert _unsettled(outcomes) == mismatches


def unreduced_cases():
    """(name, call): each call takes form(m, coeffs) -> a degree-m form over F_7."""
    def square(form):
        f, g = form(0, (-1,)), form(0, (3,))
        return det_form(FormMatrix(((f, g), (g, f)), DegreeMatrix(((0, 0), (0, 0))), 7))

    def minors(form):
        row = (form(1, (-1, 8, 2**64)), form(1, (7, -7, 14)), form(2, (-8, 1, 2**70, -1, 0, 15)))
        lower = (form(0, (-3,)), form(0, (10,)), form(1, (2**64 + 1, -2, 7)))
        return maximal_minors(FormMatrix((row, lower), DegreeMatrix(((1, 1, 2), (0, 0, 1))), 7))

    return [
        ("det-form", square),
        ("det-form-of-one-entry", lambda form: det_form(
            FormMatrix(((form(2, (-1, 2**64, 7, -8, 0, 3)),),), DegreeMatrix(((2,),)), 7))),
        ("maximal-minors", minors),
        ("maximal-minors-of-one-row", lambda form: maximal_minors(
            FormMatrix(((form(1, (-1, 8, 2**70)), form(0, (-5,))),), DegreeMatrix(((1, 0),)), 7))),
        ("ideal-dim", lambda form: ideal_dim([form(1, (2**64, 2, 3))], 2)),
        ("ideal-dim-of-a-zero-residue", lambda form: ideal_dim([form(1, (7, -7, 14)), form(2, (-1,) * 6)], 3)),
        ("product", lambda form: form(1, (-1, 0, 2**64)) * form(2, (-3, 7, 2**70, 1, -1, 0))),
        ("negation", lambda form: -form(2, (-3, 7, 2**70, 1, -1, 0))),
    ]


@pytest.mark.parametrize("call", [call for _, call in unreduced_cases()], ids=[name for name, _ in unreduced_cases()])
def test_unreduced_coefficients_give_what_their_residues_give(call):
    # coefficients below 0 or at 2^64 and above, against forms that hold their residues unchecked
    expected = call(lambda m, coeffs: Form._trusted(m, tuple(c % 7 for c in coeffs), 7))
    assert call(lambda m, coeffs: Form(m, coeffs, 7)) == expected


class TestSubschemeLines:
    """A yes subscheme trial is settled on its lines when it can, and its
    forms are expanded only when the lines leave it unsettled; the report
    is the same either way."""

    @staticmethod
    def count(monkeypatch, name: str) -> list:
        """Record the results of each call of witness.`name`."""
        true = getattr(witness, name)
        seen = []
        monkeypatch.setattr(witness, name, lambda *args: seen.append(true(*args)) or seen[-1])
        return seen

    @pytest.mark.parametrize("index", range(len(MIX_LIKE)))
    def test_mix_like_trials_build_no_form(self, monkeypatch, index):
        grid, d = MIX_LIKE[index]
        Q = dhb(grid)
        expected = verify_subscheme(Q, d, trials=2, seed=index).to_json()
        for name in ("maximal_minors", "sample_matrix", "ideal_dim"):
            monkeypatch.setattr(witness, name, lambda *args: pytest.fail("expanded forms"))
        monkeypatch.setattr(Form, "__init__", lambda *args: pytest.fail("built a form"))
        report = verify_subscheme(Q, d, trials=2, seed=index)
        assert report.ok and report.to_json() == expected

    def test_a_minor_degree_at_the_prime_is_restricted_to_the_lines(self, monkeypatch):
        # the restrictions are polynomials in z of degree 7 over F_7: trials 0
        # and 1 settle on them; trial 2 has F(1, 0, 0) = 0 and finds no coprime
        # pair, so only it expands its forms and ranks
        curves = self.count(monkeypatch, "_det_numeric")
        settled = self.count(monkeypatch, "_subscheme_lines")
        minors = self.count(monkeypatch, "maximal_minors")
        ranked = self.count(monkeypatch, "ideal_dim")
        report = verify_subscheme(dhb([[3, 3, 4], [3, 3, 4]]), 6, trials=3, seed=169, prime=7)
        assert json.dumps(report.to_json()) == MINOR_DEGREE_AT_P
        assert [bool(value) for value in curves] == [True, True, False]
        assert settled == [True, True, False]
        assert len(minors) == 1 and len(ranked) == 11

    @pytest.mark.parametrize("grid, d, prime, seed, trials, formed", [
        ([[3, 3, 4], [3, 3, 4]], 6, 7, 169, 3, 1),  # trial 2 expands its forms
        ([[2, 3, 5], [1, 2, 4]], 4, 7, 0, 3, 3),  # F(1, 0, 0) = 0 in every trial
        ([[2, 3, 5], [1, 2, 4]], 4, 7, 4, 1, 1),  # no coprime pair: every level is ranked
        ([[2, 3, 5], [1, 2, 4]], 4, P, 4, 3, 0),
    ])
    def test_a_trial_draws_once(self, monkeypatch, grid, d, prime, seed, trials, formed):
        # the form path reads its forms from the trial's one draw
        Q = dhb(grid)
        expected = verify_subscheme(Q, d, trials=trials, seed=seed, prime=prime).to_json()
        draws = self.count(monkeypatch, "_residues")
        minors = self.count(monkeypatch, "maximal_minors")
        assert verify_subscheme(Q, d, trials=trials, seed=seed, prime=prime).to_json() == expected
        assert len(draws) == trials and len(minors) == formed

    def test_a_curve_that_vanishes_at_the_point_takes_the_form_path(self, monkeypatch):
        # F(1, 0, 0) read as zero: F is expanded, and the lines' proof of
        # coprime minors is kept, so nothing is ranked
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        expected = verify_subscheme(Q, 4, trials=3, seed=4).to_json()
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        settled = self.count(monkeypatch, "_subscheme_lines")
        minors = self.count(monkeypatch, "maximal_minors")
        monkeypatch.setattr(witness, "ideal_dim", lambda *args: pytest.fail("ranked"))
        assert verify_subscheme(Q, 4, trials=3, seed=4).to_json() == expected
        assert settled == [True] * 3 and len(minors) == 3

    def test_minors_not_shown_coprime_take_the_form_path(self, monkeypatch):
        # the lines' verdict is kept, so every level is ranked and the lines are tried once a trial
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        expected = verify_subscheme(Q, 4, trials=3, seed=4).to_json()
        monkeypatch.setattr(witness, "_coprime", lambda f, g, p: False)
        settled = self.count(monkeypatch, "_subscheme_lines")
        ranked = self.count(monkeypatch, "ideal_dim")
        assert verify_subscheme(Q, 4, trials=3, seed=4).to_json() == expected
        assert settled == [False] * 3 and len(ranked) == 3 * 10

    @pytest.mark.parametrize("n, pos", sorted(YES_BY_POSITION))
    def test_the_curve_at_one_zero_zero_reads_the_leading_coefficients_of_the_full_draw(self, monkeypatch, n, pos):
        # an entry at (1, 0, 0) is its x^m coefficient, coeffs[start] of the
        # trial's one draw of Q's rows and then the inserted row, which is row
        # pos of the square
        squares = []
        true_det = witness._det_numeric
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: squares.append(mat) or true_det(mat, p))
        for seed, (Q, d) in enumerate(YES_BY_POSITION[n, pos]):
            layout = _layout(Q.entries + (contains_subscheme(Q, d).normalized[pos - 1],))
            for p in (7, 32003, 2**31 - 1):
                if p > d:
                    squares.clear()
                    verify_subscheme(Q, d, trials=2, seed=seed, prime=p)
                    for trial, square in enumerate(squares):
                        coeffs = _residues(witness._trial_rng(seed, trial), layout[-1][2], p)
                        lead = [coeffs[start] if m >= 0 else 0 for m, start, _ in layout]
                        rows = [lead[i : i + n] for i in range(0, n * n - n, n)]
                        assert square == rows[: pos - 1] + [lead[n * n - n :]] + rows[pos - 1 :], (Q.entries, d, p)
                    assert len(squares) == 2

    @pytest.mark.parametrize("p", [7, 11])
    def test_a_curve_test_that_fails_at_one_zero_zero_leaves_every_report_unchanged(self, monkeypatch, p):
        # F(1, 0, 0) = 0 sends each trial to its forms, which decide F != 0 there
        cases = [(Q, d) for n in (2, 3) for Q in iter_dhb_matrices(n, 3) for d in range(1, min(Q.shifts[0] + 2, p))
                 if contains_subscheme(Q, d).verdict]
        expected = [verify_subscheme(Q, d, trials=3, seed=seed, prime=p).to_json() for seed, (Q, d) in enumerate(cases)]
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: 0)
        assert [verify_subscheme(Q, d, trials=3, seed=seed, prime=p).to_json()
                for seed, (Q, d) in enumerate(cases)] == expected
        assert len(cases) == {7: 366, 11: 677}[p]

    def test_the_cofactor_cap_comes_after_the_budget_and_before_the_draw(self, monkeypatch):
        Q = dhb([[1] * 7] * 6)
        monkeypatch.setattr(witness, "_residues", lambda *args: pytest.fail("drew"))
        with pytest.raises(CofactorBudgetError):
            verify_subscheme(Q, 7, trials=1)
        monkeypatch.setattr(witness, "WITNESS_BUDGET", 0)
        with pytest.raises(WitnessBudgetError):
            verify_subscheme(Q, 7, trials=1)


class TestTransposeSymmetry:
    """det(M^T) = det M, so a square and its transpose must get one verdict;
    the criterion reads the subdiagonal of the well-ordered square, so the
    symmetry is a theorem here, not a construction."""

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_square_and_its_transpose_agree(self, n, data):
        u = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        v = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
        assume(sum(u) + sum(v) >= 0)
        grid = [[ui + vj for vj in v] for ui in u]
        transpose = [list(column) for column in zip(*grid)]
        decision, flipped = representable(grid), representable(transpose)
        assert (flipped.verdict, flipped.degree) == (decision.verdict, decision.degree)
        report = verify_representable(transpose, trials=2, seed=data.draw(st.integers(0, 2**31)))
        assert report.ok, (transpose, report.mismatches)


class TestWitnessBudget:
    """The work estimate, checked with the budget patched; nothing large is sampled."""

    # (call, its estimate): per trial, the coefficients of the sampled square
    # plus the monomial values of degree <= top at each tabulated point
    CASES = [
        # the README's degree-8 square: d = 8, top 11, tables at 9 nodes
        (lambda: verify_representable(
            [[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]], trials=3),
         3 * ((1 + 3 + 66 + 78) + (1 + 55 + 66) + (21 + 28) + (6 + 10) + 9 * math.comb(14, 3))),
        # the README's yes at d = 4: Q, an inserted row (-3, -2, 0), minors of degree <= 7 at 3 points
        (lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=2),
         2 * (6 + 10 + 21 + 3 + 6 + 15 + 1 + 3 * math.comb(10, 3))),
        # the README's no at d = 5, witnessed on its square (third row -2, -1, 1):
        # top 5, tables at 6 nodes
        (lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 5, trials=4),
         4 * (6 + 10 + 21 + 3 + 6 + 15 + 3 + 6 * math.comb(8, 3))),
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_a_witness_at_its_estimate_runs_and_one_above_is_refused_before_sampling(
        self, monkeypatch, index
    ):
        call, estimate = self.CASES[index]
        expected = call().to_json()
        monkeypatch.setattr(witness, "WITNESS_BUDGET", estimate)
        assert call().to_json() == expected
        monkeypatch.setattr(witness, "WITNESS_BUDGET", estimate - 1)
        monkeypatch.setattr(witness, "_residues", lambda *args: pytest.fail("drew"))
        with pytest.raises(WitnessBudgetError) as info:
            call()
        assert (info.value.estimate, info.value.budget) == (estimate, estimate - 1)
        assert info.value.payload()["error"] == "WitnessBudgetExceeded"

    def test_the_estimate_grows_with_the_trials(self, monkeypatch):
        _, estimate = self.CASES[0]
        monkeypatch.setattr(witness, "WITNESS_BUDGET", 0)
        monkeypatch.setattr(witness, "_residues", lambda *args: pytest.fail("drew"))
        with pytest.raises(WitnessBudgetError) as info:
            verify_representable([[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]],
                                 trials=3 * 10**9)
        assert info.value.estimate == estimate * 10**9

    def test_a_diagonal_no_that_its_grid_proves_is_not_charged(self, monkeypatch):
        # the zero corner proves these with no draw; the full path of the
        # degree-2,989 square would be charged 13,481,935,427,027 residues
        monkeypatch.setattr(witness, "WITNESS_BUDGET", 0)
        monkeypatch.setattr(witness, "_residues", lambda *args: pytest.fail("drew"))
        for report in (verify_representable([[-1, 3000], [-11, 2990]], trials=1),
                       verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 3, trials=3, prime=7)):
            assert report.verdict_checked["reason"] == REASON_DIAGONAL
            assert report.observed_degrees == [None] * report.trials and report.ok

    def test_parameter_and_field_errors_come_first(self, monkeypatch):
        monkeypatch.setattr(witness, "WITNESS_BUDGET", 0)
        with pytest.raises(InvalidWitnessParameterError):
            verify_representable([[1, 1], [1, 1]], trials=0)
        with pytest.raises(FieldTooSmallError):
            verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, prime=3)


def dense_dot(terms, p: int) -> Form:
    """The sum of f * g, or of -f * g where `negative`, over the terms
    (f, g, negative), one term pair at a time; the zero form if it vanishes."""
    coeffs, m = {}, None
    for f, g, negative in terms:
        if f.is_zero or g.is_zero:
            continue
        m = f.degree + g.degree
        sign = -1 if negative else 1
        for ca, (ia, ja, _) in zip(f.coeffs, monomials(f.degree)):
            for cb, (ib, jb, _) in zip(g.coeffs, monomials(g.degree)):
                coeffs[ia + ib, ja + jb] = coeffs.get((ia + ib, ja + jb), 0) + sign * ca * cb
    if m is None or not any(c % p for c in coeffs.values()):
        return zero_form(p)
    return Form(m, tuple(coeffs.get((i, j), 0) % p for i, j, _ in monomials(m)), p)


def sparse_form(m: int, p: int, seed: int, density: float) -> Form:
    """A form of degree m whose coefficients are nonzero with the given density."""
    rng = random.Random(seed)
    return Form(m, tuple(rng.randrange(1, p) if rng.random() < density else 0 for _ in range(plane_dim(m))), p)


class TestFastPaths:
    """Each shortcut of the witness against the computation it replaces."""

    @given(
        st.integers(0, 40), st.integers(0, 40), st.sampled_from([2, 3, 101, 32003, 2**31 - 1]),
        st.integers(0, 2**32), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_product_is_the_dense_product(self, da, db, p, seed, density):
        if density > 0.05:  # the dense reference is quadratic in the number of terms
            da, db = min(da, 25), min(db, 15)
        a, b = sparse_form(da, p, seed, density), sparse_form(db, p, seed + 1, 1.0)
        expected = dense_dot([(a, b, False)], p)
        assert _form_dot([(a, b, False)], p) == _form_dot([(b, a, False)], p) == expected
        assert a * b == b * a == expected
        assert a * zero_form(p) == zero_form(p) * b == zero_form(p)

    @given(
        st.integers(0, 16), st.sampled_from([2, 3, 101, 32003, 2**31 - 1]), st.integers(0, 2**32),
        st.lists(st.tuples(st.integers(0, 16), st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.booleans()),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_signed_sum_is_the_dense_sum(self, m, p, seed, shape):
        # density 0 gives an all-zero form, which the sum skips
        terms = [(sparse_form(min(da, m), p, seed + 2 * t, density),
                  sparse_form(m - min(da, m), p, seed + 2 * t + 1, 1.0), negative)
                 for t, (da, density, negative) in enumerate(shape)]
        assert _form_dot(terms, p) == dense_dot(terms, p)

    @pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
    def test_zero_terms_are_skipped_and_a_vanishing_sum_is_the_zero_form(self, p):
        a, b = sparse_form(3, p, p, 1.0), sparse_form(4, p, p + 1, 1.0)
        zeros = [(zero_form(p), b, False), (a, Form(2, (0,) * plane_dim(2), p), True),
                 (zero_form(p), zero_form(p), False)]
        assert _form_dot(zeros + [(a, b, False)], p) == dense_dot([(a, b, False)], p) == a * b
        assert _form_dot(zeros, p) == _form_dot([], p) == zero_form(p)
        assert _form_dot([(a, b, False), (b, a, True)], p) == zero_form(p)

    def test_coefficients_need_not_be_reduced(self):
        # `_z_dot` sums in Python integers and reduces once at the end, so
        # coefficients in [0, 2^64) still give the residues of the exact sum;
        # the constructor would reduce them, so they are stored unchecked
        rng = random.Random(10)
        a, b, c = (Form._trusted(m, tuple(rng.randrange(2**63) for _ in range(plane_dim(m))), P) for m in (1, 3, 2))
        terms = [(a, b, False), (c, c, True), (b, a, True)]
        assert _form_dot(terms, P) == dense_dot(terms, P)
        assert a * b == dense_dot([(a, b, False)], P)

    def test_products_of_different_degrees_do_not_add(self):
        rng = random.Random(9)
        a, b, c = random_form(2, rng), random_form(3, rng), random_form(4, rng)
        with pytest.raises(ValueError, match="different degrees"):
            _form_dot([(a, b, False), (a, c, False)], P)
        with pytest.raises(ValueError, match="different degrees"):
            _form_dot([(a, b, False), (b, c, True)], P)

    @pytest.mark.parametrize("p", [32003, 2**31 - 1])
    def test_largest_coefficients_sum_in_integers_and_reduce_once(self, p):
        # every coefficient p - 1: `_z_dot` sums six positive terms in Python
        # integers, past one 64-bit word at the largest prime, and reduces once
        full = [Form(m, (p - 1,) * plane_dim(m), p) for m in (12, 20, 28)]
        terms = [(full[t % 3], full[2 - t % 3], False) for t in range(6)]
        assert _form_dot(terms, p) == dense_dot(terms, p)
        signed = [(f, g, t % 3 == 0) for t, (f, g, _) in enumerate(terms)]
        assert _form_dot(signed, p) == dense_dot(signed, p)

    @given(st.integers(1, 4), st.integers(0, 2**32), st.sampled_from([11, 101, 32003, 2**31 - 1]))
    @settings(max_examples=60, deadline=None)
    def test_top_difference_is_the_value_at_the_direction(self, n, seed, p):
        # det(N) has degree d, so on P + sQ its s^d coefficient is det(N(Q)),
        # and the d-th forward difference of the values is d! times it; on
        # the line through Q with no direction, the value at s = 0 is det(N(Q))
        rng = random.Random(seed)
        u = [rng.randint(-2, 3) for _ in range(n)]
        v = [rng.randint(0, 3) for _ in range(n)]
        grid = [[ui + vj for vj in v] for ui in u]
        d = sum(grid[k][k] for k in range(n))
        if not 0 <= d < p:
            return
        N = form_matrix(grid, rng, p)
        line = random_line(rng, p)
        values = restrict_det_to_line(N, line, d)
        top = sum((-1) ** (d - k) * math.comb(d, k) * value for k, value in enumerate(values))
        at_direction = restrict_det_to_line(N, (line[1], (0, 0, 0)), 0)[0]
        assert top % p == math.factorial(d) * at_direction % p

    @pytest.mark.parametrize("f, g, coprime", [
        ([1, -3 % 7, 2], [1, -4 % 7, 3], False),  # (z - 1)(z - 2) and (z - 1)(z - 3)
        ([1, -3 % 7, 2], [1, 0, 6], False),  # and z^2 - 1 = (z - 1)(z + 1)
        ([1, 1], [1, 2], True),
        ([3], [1, 2, 3, 4], True),
        ([1, 2, 3, 4], [3], True),
        ([1, 0, 0], [1, 0], False),
    ])
    def test_euclid(self, f, g, coprime):
        assert _coprime(f, g, 7) is coprime

    @staticmethod
    def draw(Q, rng, p):
        """The draw of Q's entries, as a subscheme trial lays it out, and Q's
        signed minors as forms; Q's forms are those of sample_matrix(Q, rng, p)."""
        layout = _layout(Q.entries)
        coeffs = _residues(rng, layout[-1][2], p)
        forms = witness._forms(coeffs, layout, p)
        rows = tuple(tuple(forms[i : i + Q.n]) for i in range(0, len(forms), Q.n))
        return coeffs, layout, maximal_minors(FormMatrix(rows, Q, p))

    def test_the_certificate_never_passes_where_the_ranks_disagree(self):
        # a pass proves the Hilbert function, so no sample may pass it with a
        # rank off the prediction; at these small primes some samples fail it
        passed = failed = 0
        for p in (7, 11, 101):
            for n, bound in ((3, 2), (3, 3), (4, 2)):
                for Q in iter_dhb_matrices(n, bound):
                    B = BettiData(Q.minor_degrees, Q.shifts)
                    rng = random.Random(f"{p} {Q.entries}")
                    coeffs, layout, minors = self.draw(Q, rng, p)
                    if not _subscheme_lines(coeffs, layout, Q.n, rng, p):
                        failed += 1
                        continue
                    passed += 1
                    for t in range(Q.shifts[0] + 1):
                        assert plane_dim(t) - ideal_dim(minors, t) == hilbert_function(B, t), (p, Q.entries, t)
        assert passed > 900 and failed > 20

    @staticmethod
    def restrictions_by_z_tables(minors, rng, p):
        """Each round's g(x0, y0, z) of `_subscheme_lines` from the values of
        `monomials(e)` at (x0, y0, 1), scaled by x0^(-e) where x0 != 0, and
        whether a pair in some round has gcd 1: the pairs of a round in the
        order the minors are taken, each with every minor before it."""
        gens = [g for g in minors if not g.is_zero and g.coeffs[-1]]
        rounds = []
        for _ in range(3):
            x0, y0 = rng.randrange(p), rng.randrange(p)
            in_z = []
            for g in gens:
                coeffs = [0] * (g.degree + 1)
                for c, (i, j, _) in zip(g.coeffs, monomials(g.degree)):
                    coeffs[i + j] += c * pow(x0, i, p) * pow(y0, j, p)
                unit = pow(x0, -g.degree, p) if x0 else 1
                in_z.append([c * unit % p for c in coeffs])
            rounds.append([(f, g) for k, g in enumerate(in_z) for f in in_z[:k]])
            if any(_coprime(f, g, p) for f, g in rounds[-1]):
                return True, rounds
        return False, rounds

    class ZeroX:
        """Draws 0 for every x0 and a seeded residue for every y0."""

        def __init__(self, seed):
            self.rng, self.draws = random.Random(seed), 0

        def randrange(self, p):
            self.draws += 1
            return self.rng.randrange(p) if self.draws % 2 == 0 else 0

    def test_coprime_minors_match_the_z_tables(self, monkeypatch):
        # the same draws give the same polynomials to Euclid, round by round,
        # so every outcome is the one the per-degree tables gave
        seen = []
        monkeypatch.setattr(witness, "_coprime", lambda f, g, p: seen.append((f, g)) or _coprime(f, g, p))
        outcomes = Counter()
        for n, bound in ((2, 3), (3, 3), (4, 2)):
            for Q in iter_dhb_matrices(n, bound):
                for p in (7, 11, 101, 32003):
                    coeffs, layout, minors = self.draw(Q, random.Random(f"{p} {Q.entries}"), p)
                    for make in (random.Random, self.ZeroX):
                        expected, rounds = self.restrictions_by_z_tables(minors, make(f"coprime {p}"), p)
                        seen.clear()
                        proved = _subscheme_lines(coeffs, layout, Q.n, make(f"coprime {p}"), p)
                        assert proved is expected, (p, Q.entries)
                        drawn = [pair for pairs in rounds for pair in pairs]
                        assert seen == drawn[: len(seen)] and (expected or len(seen) == len(drawn))
                        outcomes[make, expected] += 1
        assert sum(outcomes.values()) == 4 * 2 * (12 + 130 + 171)
        assert min(outcomes.values()) > 20  # both rngs both prove and fail

    @pytest.mark.parametrize("grid, d, prime, seed", [
        ([[2, 3, 5], [1, 2, 4]], 4, P, 4),
        ([[1, 1, 1], [0, 0, 0]], 3, 7, 54),
        ([[2, 2, 2], [2, 2, 2]], 6, 11, 3),
        ([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]], 6, 13, 6),
    ])
    def test_a_failing_certificate_leaves_the_report_unchanged(self, monkeypatch, grid, d, prime, seed):
        Q = dhb(grid)
        proved = verify_subscheme(Q, d, trials=4, seed=seed, prime=prime).to_json()
        # no line shows two minors coprime
        monkeypatch.setattr(witness, "_coprime", lambda f, g, p: False)
        assert verify_subscheme(Q, d, trials=4, seed=seed, prime=prime).to_json() == proved


class TestPinnedReports:
    """Whole reports, byte for byte, for one input of each kind.

    The line restriction and the membership check may be computed any
    way, but the reports they produce must not change.  The small primes
    make some restrictions lose degree, so the pins see the values, not
    only the verdicts.  At p = 3 a block loses its degree on some lines,
    which is no mismatch while another trial shows it, and on every line
    of the last pin, which is.
    """

    def test_representable(self):
        report = verify_representable(DEGREE8_GRID, trials=3, seed=0, prime=11)
        assert json.dumps(report.to_json()) == (
            '{"seed": 0, "prime": 11, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 8}, '
            '"observedDegrees": [7, 8, null], "hfProfile": [], "mismatches": []}'
        )

    def test_negative_diagonal(self):
        report = verify_representable([[2, 3, 8], [-3, -2, 3], [-4, -3, 2]], trials=3, seed=2)
        assert json.dumps(report.to_json()) == (
            '{"seed": 2, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 2, '
            '"reason": "DiagonalNegative", "k": 2}, "observedDegrees": [null, null, null], '
            '"hfProfile": [], "mismatches": []}'
        )

    def test_subdiagonal_block(self):
        report = verify_representable([[1, 3], [-1, 1]], trials=3, seed=1, prime=3)
        assert json.dumps(report.to_json()) == (
            '{"seed": 1, "prime": 3, "trials": 3, "verdictChecked": {"answer": "no", "degree": 2, '
            '"reason": "SubdiagonalBlockDegree", "k": 2, "blockDegree": 1}, "observedDegrees": [2, 1, 1], '
            '"hfProfile": [], "mismatches": []}'
        )

    def test_block_degrees_lost_on_every_line(self):
        report = verify_representable([[1, 3], [-1, 1]], trials=2, seed=9, prime=3)
        assert json.dumps(report.to_json()) == (
            '{"seed": 9, "prime": 3, "trials": 2, "verdictChecked": {"answer": "no", "degree": 2, '
            '"reason": "SubdiagonalBlockDegree", "k": 2, "blockDegree": 1}, "observedDegrees": [null, null], '
            '"hfProfile": [], "mismatches": ["no trial realized the leading block degree 1", '
            '"no trial realized the trailing block degree 1"]}'
        )

    @pytest.mark.parametrize("grid, seed, pin", [
        ([[6, 7, 9, 10], [3, 4, 6, 7], [-4, -3, -1, 0], [-5, -4, -2, -1]], 13,
         '{"seed": 13, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 8, '
         '"reason": "DiagonalNegative", "k": 3}, "observedDegrees": [null, null, null], '
         '"hfProfile": [], "mismatches": []}'),
        ([[4, 2, 5], [1, -1, 2], [-2, -4, -1]], 11,
         '{"seed": 11, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 2, '
         '"reason": "DiagonalNegative", "k": 3}, "observedDegrees": [null, null, null], '
         '"hfProfile": [], "mismatches": []}'),
        ([[5, 6, 8, 9], [2, 3, 5, 6], [-2, -1, 1, 2], [-3, -2, 0, 1]], 6,
         '{"seed": 6, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 10, '
         '"reason": "SubdiagonalBlockDegree", "k": 3, "blockDegree": 2}, "observedDegrees": [10, 10, 10], '
         '"hfProfile": [], "mismatches": []}'),
        ([[5, 6, 8, 9, 11], [2, 3, 5, 6, 8], [1, 2, 4, 5, 7], [-4, -3, -1, 0, 2], [-5, -4, -2, -1, 1]], 14,
         '{"seed": 14, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 13, '
         '"reason": "SubdiagonalBlockDegree", "k": 4, "blockDegree": 1}, "observedDegrees": [13, 13, 13], '
         '"hfProfile": [], "mismatches": []}'),
    ])
    def test_negative_squares(self, grid, seed, pin):
        report = verify_representable(grid, trials=3, seed=seed)
        assert json.dumps(report.to_json()) == pin

    def test_subdiagonal_trials_that_run_in_full(self):
        # at p = 7 a block vanishes at the direction of the lines of trials 1
        # and 2, which then restrict at every node and lose degree
        report = verify_representable([[2, 2, 4], [-1, -1, 1], [0, 0, 2]], trials=3, seed=0, prime=7)
        assert json.dumps(report.to_json()) == (
            '{"seed": 0, "prime": 7, "trials": 3, "verdictChecked": {"answer": "no", "degree": 3, '
            '"reason": "SubdiagonalBlockDegree", "k": 3, "blockDegree": 1}, "observedDegrees": [3, null, 2], '
            '"hfProfile": [], "mismatches": []}'
        )

    @pytest.mark.parametrize("grid, pin", [
        # trial 1 proves nothing and runs in full on a line inside x = 0
        ([[2, 2, 4], [-1, -1, 1], [0, 0, 2]],
         '{"seed": 1, "prime": 7, "trials": 4, "verdictChecked": {"answer": "no", "degree": 3, '
         '"reason": "SubdiagonalBlockDegree", "k": 3, "blockDegree": 1}, "observedDegrees": [3, 2, 2, 3], '
         '"hfProfile": [], "mismatches": []}'),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]],
         '{"seed": 1, "prime": 7, "trials": 4, "verdictChecked": {"answer": "yes", "degree": 3}, '
         '"observedDegrees": [3, 3, 3, 2], "hfProfile": [], "mismatches": []}'),
    ])
    def test_squares_evaluated_where_x_vanishes(self, monkeypatch, grid, pin):
        # at p = 7 a proof at Q and a node of a trial in full both have x = 0;
        # both grids have the corner, so a trial's first point is its proof
        points = trace_square_points(monkeypatch)
        report = verify_representable(grid, trials=4, seed=1, prime=7)
        assert json.dumps(report.to_json()) == pin
        assert {"full" if i else "proof" for trial in points for i, (x, _, _) in enumerate(trial) if x % 7 == 0} == {
            "proof", "full"}

    def test_leading_block_degree_lost_on_every_line(self):
        report = verify_representable([[1, 3], [-1, 1]], trials=2, seed=10, prime=11)
        assert json.dumps(report.to_json()) == (
            '{"seed": 10, "prime": 11, "trials": 2, "verdictChecked": {"answer": "no", "degree": 2, '
            '"reason": "SubdiagonalBlockDegree", "k": 2, "blockDegree": 1}, "observedDegrees": [1, 1], '
            '"hfProfile": [], "mismatches": ["no trial realized the leading block degree 1"]}'
        )

    def test_negative_diagonal_subscheme(self):
        report = verify_subscheme(dhb([[3, 3, 3], [3, 3, 3]]), 2, trials=2, seed=3)
        assert json.dumps(report.to_json()) == (
            '{"seed": 3, "prime": 32003, "trials": 2, "verdictChecked": {"answer": "no", "degree": 2, '
            '"reason": "DiagonalNegative", "k": 3, "insertedRowPosition": 3}, "observedDegrees": [null, null], '
            '"hfProfile": [], "mismatches": []}'
        )

    def test_subscheme(self):
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=3, seed=4)
        profile = ", ".join(
            f'{{"t": {t}, "predicted": {h}, "observed": {h}}}'
            for t, h in enumerate([1, 3, 6, 10, 14, 18, 21, 22, 22, 22])
        )
        assert json.dumps(report.to_json()) == (
            '{"seed": 4, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 4, '
            '"insertedRowPosition": 3}, "observedDegrees": [4, 4, 4], '
            f'"hfProfile": [{profile}], "mismatches": []}}'
        )

    def test_a_curve_whose_laplace_terms_cancel(self):
        # in trials 1 and 2 two terms r_j g_j are nonzero at the point but
        # sum to zero mod 11: F vanishes there, and then as a form
        report = verify_subscheme(dhb([[1, 2, 2], [-1, 0, 0]]), 1, trials=3, seed=1573, prime=11)
        assert json.dumps(report.to_json()) == (
            '{"seed": 1573, "prime": 11, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 1, '
            '"insertedRowPosition": 3}, "observedDegrees": [1, null, null], "hfProfile": ['
            '{"t": 0, "predicted": 1, "observed": 1}, {"t": 1, "predicted": 2, "observed": 2}, '
            '{"t": 2, "predicted": 2, "observed": 2}, {"t": 3, "predicted": 2, "observed": 2}], "mismatches": []}'
        )

    def test_subscheme_whose_curve_vanishes_at_one_zero_zero(self, monkeypatch):
        # at p = 7 every trial has F(1, 0, 0) = 0 and expands its forms: F is
        # nonzero in trials 0 and 2, and zero in trial 1, which is bad luck
        curves = []
        true_det = witness._det_numeric
        monkeypatch.setattr(witness, "_det_numeric", lambda mat, p: curves.append(true_det(mat, p)) or curves[-1])
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=3, seed=0, prime=7)
        profile = ", ".join(f'{{"t": {t}, "predicted": {h}, "observed": {h}}}'
                            for t, h in enumerate([1, 3, 6, 10, 14, 18, 21, 22, 22, 22]))
        assert json.dumps(report.to_json()) == (
            '{"seed": 0, "prime": 7, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 4, '
            '"insertedRowPosition": 3}, "observedDegrees": [4, null, 4], '
            f'"hfProfile": [{profile}], "mismatches": []}}'
        )
        assert curves == [0, 0, 0]

    def test_negative_subscheme(self):
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 5, trials=3, seed=5)
        assert json.dumps(report.to_json()) == (
            '{"seed": 5, "prime": 32003, "trials": 3, "verdictChecked": {"answer": "no", "degree": 5, '
            '"reason": "SubdiagonalBlockDegree", "k": 3, "blockDegree": 1, "insertedRowPosition": 3}, '
            '"observedDegrees": [5, 5, 5], "hfProfile": [], "mismatches": []}'
        )

    def test_subscheme_row_inside(self):
        # the inserted row lands at position 2; trial 3's minors are not
        # shown coprime at p = 13, so that trial ranks every level
        report = verify_subscheme(dhb([[2, 3, 4], [1, 2, 3]]), 8, trials=4, seed=0, prime=13)
        profile = ", ".join(
            f'{{"t": {t}, "predicted": {h}, "observed": {h}}}'
            for t, h in enumerate([1, 3, 6, 10, 14, 17, 18, 18, 18])
        )
        assert json.dumps(report.to_json()) == (
            '{"seed": 0, "prime": 13, "trials": 4, "verdictChecked": {"answer": "yes", "degree": 8, '
            '"insertedRowPosition": 2}, "observedDegrees": [8, 8, 8, 8], '
            f'"hfProfile": [{profile}], "mismatches": []}}'
        )

    def test_subscheme_settled_by_the_ranks(self):
        # at p = 7 the certificate fails on trial 0, whose ranks miss the
        # prediction; trials 1 and 2 meet it, so the shortfall is bad luck
        report = verify_subscheme(dhb([[1, 1, 1], [0, 0, 0]]), 3, trials=3, seed=54, prime=7)
        assert json.dumps(report.to_json()) == (
            '{"seed": 54, "prime": 7, "trials": 3, "verdictChecked": {"answer": "yes", "degree": 3, '
            '"insertedRowPosition": 1}, "observedDegrees": [3, 3, 3], "hfProfile": ['
            '{"t": 0, "predicted": 1, "observed": 1}, {"t": 1, "predicted": 1, "observed": 2}, '
            '{"t": 2, "predicted": 1, "observed": 3}], "mismatches": []}'
        )

    def test_subscheme_whose_only_trial_ranks_every_level(self, monkeypatch):
        # the coprime minors fail at all three points, so the profile is the ranks'
        ranked = []
        monkeypatch.setattr(witness, "ideal_dim", lambda gens, t: ranked.append(t) or ideal_dim(gens, t))
        report = verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=1, seed=4, prime=7)
        assert ranked == list(range(10))
        observed = [1, 3, 6, 10, 14, 18, 21, 22, 22, 22]
        profile = ", ".join(f'{{"t": {t}, "predicted": {h}, "observed": {h}}}' for t, h in enumerate(observed))
        assert json.dumps(report.to_json()) == (
            '{"seed": 4, "prime": 7, "trials": 1, "verdictChecked": {"answer": "yes", "degree": 4, '
            '"insertedRowPosition": 3}, "observedDegrees": [4], '
            f'"hfProfile": [{profile}], "mismatches": []}}'
        )

    @pytest.mark.parametrize("k, digest", [
        (10, "7f413badf5f1b00f0d3fafc87ce5d275a526d84645943bf5416fbf1b17e139b0"),
        (15, "11040cbc539cb7c220418631c6afbf1db371424268651e715904c93e0fa711c0"),
    ])
    def test_complete_intersections(self, k, digest):
        # a = (2k)^3, b = (3k)^2 at d = 3k: the sha256 of the whole report
        Q = BettiData((2 * k,) * 3, (3 * k,) * 2).to_dhb()
        report = verify_subscheme(Q, 3 * k, trials=1, seed=0)
        assert report.ok and report.observed_degrees == [3 * k]
        assert hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest() == digest


def nonzero_at_a_negative_slot():
    M = DegreeMatrix.from_grid([[1, 3], [-1, 1]])
    N = sample_matrix(M, random.Random(0))
    (f, g), (_, h) = N.entries
    return FormMatrix(((f, g), (random_form(0, random.Random(1)), h)), M, P)


LINE = ((1, 2, 3), (4, 5, 6))


@pytest.mark.parametrize("call, error, message", [
    (nonzero_at_a_negative_slot, ValueError, "entry (2,1) must vanish (degree -1)"),
    (lambda: det_form(sample_matrix([[2, 3, 5], [1, 2, 4]], random.Random(0))), ValueError,
     "determinant needs a square matrix"),
    # before the prime check: p = 101 is too small for degree 200
    (lambda: restrict_det_to_line(sample_matrix([[1, 2, 3], [1, 2, 3]], random.Random(0), 101), LINE, 200),
     ValueError, "determinant needs a square matrix"),
    (lambda: restrict_det_to_line(sample_matrix([[1, 2], [1, 2], [1, 2]], random.Random(0), 101), LINE, 200),
     ValueError, "determinant needs a square matrix"),
    (lambda: maximal_minors(sample_matrix([[1, 1], [1, 1]], random.Random(0))), ValueError,
     "maximal minors expect an (n-1) x n matrix"),
    (lambda: ideal_dim([random_form(1, random.Random(0))], -1), ValueError, "need t >= 0"),
    (lambda: verify_representable([[1, 1], [1, 1]], prime=2), FieldTooSmallError,
     "prime 2 is too small for degree 2"),
    (lambda: verify_representable([[1, 1], [1, 1]], trials=True), InvalidWitnessParameterError,
     "trials must be an integer, got True"),
    (lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=2.5), InvalidWitnessParameterError,
     "trials must be an integer, got 2.5"),
    (lambda: verify_representable([[1, 1], [1, 1]], prime=7.0), InvalidWitnessParameterError,
     "prime must be a prime below 2^31, got 7.0"),
    (lambda: verify_representable([[1, 1], [1, 1]], trials=1, seed=2.5), InvalidWitnessParameterError,
     "seed must be an integer, got 2.5"),
    (lambda: verify_representable([[1, 1], [1, 1]], trials=1, seed=True), InvalidWitnessParameterError,
     "seed must be an integer, got True"),
    (lambda: verify_subscheme(dhb([[2, 3, 5], [1, 2, 4]]), 4, trials=1, seed="x"), InvalidWitnessParameterError,
     "seed must be an integer, got 'x'"),
], ids=["form-at-a-negative-slot", "det-of-a-non-square", "restriction-of-a-2x3", "restriction-of-a-3x2",
        "minors-of-a-square", "ideal-dim-below-zero", "square-prime-at-most-d", "trials-a-bool",
        "trials-a-float", "prime-a-float", "seed-a-float", "seed-a-bool", "subscheme-seed-a-string"])
def test_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

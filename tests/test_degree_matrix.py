"""Degree-matrix algebra: potentials, ordering, minors, row surgery."""

import copy
import functools
import itertools
import pickle
import pydoc
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedet import degree_matrix
from curvedet import (
    BettiData,
    DegreeMatrix,
    DHBMatrix,
    IncompatibleRowError,
    NotHomogeneousError,
    WellOrderedSquare,
    betti_of_matrix,
    canonicalize,
    erase_row,
    generic_betti,
    grid_from_potentials,
    insert_row_sorted,
    is_admissible_hvector,
    is_homogeneous,
    iter_dhb_matrices,
    potentials,
    transversal_degree,
)
from curvedet.series import HFConstraint, SeriesAnswer, SeriesQuery, SeriesRow, ShiftedProperty
from curvedet.witness import Form, FormMatrix, WitnessReport

DEGREE8_GRID = [[0, 1, 10, 11], [-1, 0, 9, 10], [-5, -4, 5, 6], [-8, -7, 2, 3]]


class TestPotentials:
    def test_small_rectangular(self):
        u, v = potentials([[2, 3, 5], [1, 2, 4]])
        assert u == (2, 1)
        assert v == (0, 1, 3)

    def test_four_by_four(self):
        u, v = potentials(DEGREE8_GRID)
        assert u == (0, -1, -5, -8)
        assert v == (0, 1, 10, 11)

    def test_violation_reports_block(self):
        with pytest.raises(NotHomogeneousError) as exc:
            potentials([[1, 2], [2, 2]])
        assert exc.value.rows == (1, 2)
        assert exc.value.cols == (1, 2)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            potentials([])
        with pytest.raises(ValueError):
            potentials([[1, 2], [3]])

    def test_rejects_huge_entries(self):
        with pytest.raises(ValueError):
            potentials([[10**7]])

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    )
    def test_round_trip(self, u, v):
        grid = grid_from_potentials(u, v)
        uu, vv = potentials(grid)
        assert grid_from_potentials(uu, vv) == grid
        assert vv[0] == 0
        assert is_homogeneous(grid)

    @given(
        st.lists(st.integers(-20, 20), min_size=2, max_size=5),
        st.lists(st.integers(-20, 20), min_size=2, max_size=5),
        st.data(),
    )
    def test_perturbation_breaks_homogeneity(self, u, v, data):
        grid = [list(row) for row in grid_from_potentials(u, v)]
        i = data.draw(st.integers(0, len(u) - 1))
        j = data.draw(st.integers(0, len(v) - 1))
        grid[i][j] += data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        assert not is_homogeneous(grid)


class TestCanonicalize:
    def test_row_swap(self):
        M, row_perm, col_perm = canonicalize([[-1, 2], [1, 4]])
        assert M.entries == ((1, 4), (-1, 2))
        assert row_perm == (2, 1)
        assert col_perm == (1, 2)

    def test_already_ordered_is_identity(self):
        M, row_perm, col_perm = canonicalize([[2, 3, 5], [1, 2, 4], [-3, -2, 0]])
        assert M.entries == ((2, 3, 5), (1, 2, 4), (-3, -2, 0))
        assert row_perm == (1, 2, 3)
        assert col_perm == (1, 2, 3)

    def test_column_swap(self):
        # v = (0, -3) decreases, so the columns must swap
        M, _, col_perm = canonicalize([[4, 1], [2, -1]])
        assert M.entries == ((1, 4), (-1, 2))
        assert col_perm == (2, 1)

    def test_idempotent(self):
        M, _, _ = canonicalize([[4, 1], [2, -1]])
        again, row_perm, col_perm = canonicalize(M.entries)
        assert again.entries == M.entries
        assert row_perm == (1, 2)
        assert col_perm == (1, 2)

    def test_shape_dispatch(self):
        square, _, _ = canonicalize([[1]])
        assert isinstance(square, WellOrderedSquare)
        dhb, _, _ = canonicalize([[2, 3, 5], [1, 2, 4]])
        assert isinstance(dhb, DHBMatrix)
        with pytest.raises(ValueError):
            canonicalize([[1, 2, 3]])  # 1 x 3 is neither shape

    @pytest.mark.parametrize("grid", [[[1]], [[-1, 2], [1, 4]], DEGREE8_GRID, [[5, 3, 2], [4, 2, 1]]])
    def test_homogeneity_is_checked_once(self, grid, monkeypatch):
        calls = []
        check = degree_matrix._check_homogeneous
        monkeypatch.setattr(degree_matrix, "_check_homogeneous", lambda rows: calls.append(rows) or check(rows))
        canonicalize(grid)
        assert len(calls) == 1

    # The error names the first violating block in the input's order; for
    # all but the first grid, the sorted grid's first block is another one.
    # The last grid has an unsupported shape, and homogeneity is checked first.
    @pytest.mark.parametrize("grid, rows, cols", [
        ([[0, 1, 3], [2, 3, 6], [1, 2, 4]], [1, 2], [1, 3]),
        ([[1, 4, 2], [2, 5, 4]], [1, 2], [1, 3]),
        ([[3, 1, 2], [5, 3, 4], [4, 2, 2]], [1, 3], [1, 3]),
        ([[0, 2, 1], [1, 3, 2], [3, 5, 5], [2, 4, 3]], [1, 3], [1, 3]),
        ([[1, 2, 3, 4, 5], [0, 1, 2, 3, 5], [2, 3, 4, 5, 6]], [1, 2], [1, 5]),
    ])
    def test_shuffled_grid_that_is_not_homogeneous(self, grid, rows, cols):
        with pytest.raises(NotHomogeneousError) as info:
            canonicalize(grid)
        assert info.value.payload() == {"error": "NotHomogeneous", "rows": rows, "cols": cols}

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=150)
    def test_degree_invariant_under_permutation(self, u, data):
        v = data.draw(st.lists(st.integers(-9, 9), min_size=len(u), max_size=len(u)))
        grid = [list(row) for row in grid_from_potentials(u, v)]
        perm_r = data.draw(st.permutations(range(len(u))))
        perm_c = data.draw(st.permutations(range(len(u))))
        shuffled = [[grid[i][j] for j in perm_c] for i in perm_r]
        M1, _, _ = canonicalize(grid)
        M2, _, _ = canonicalize(shuffled)
        assert M1.degree == M2.degree
        assert M1.entries == M2.entries


class TestDegree:
    def test_degree8_grid(self):
        assert transversal_degree(DEGREE8_GRID) == 8

    def test_one_by_one(self):
        assert transversal_degree([[5]]) == 5

    def test_example_square(self):
        assert transversal_degree([[2, 3, 5], [1, 2, 4], [-3, -2, 0]]) == 4

    def test_equals_any_transversal(self):
        from itertools import permutations

        grid = grid_from_potentials((3, 1, 0), (0, 2, 5))
        d = transversal_degree(grid)
        for sigma in permutations(range(3)):
            assert sum(grid[i][sigma[i]] for i in range(3)) == d


class TestShapeTypes:
    def test_dhb_rejects_a_wrong_shape(self):
        for grid in (((1, 2), (0, 1)), ((1, 2, 3),) * 3, ((1,),)):
            with pytest.raises(ValueError, match="expected an"):
                DHBMatrix(grid)

    def test_dhb_rejects_a_grid_that_is_not_well_ordered(self):
        for grid in (((1, 2, 4), (2, 3, 5)), ((5, 3, 2), (4, 2, 1))):
            with pytest.raises(ValueError, match="not well-ordered"):
                DHBMatrix(grid)

    def test_square_rejects_a_wrong_shape(self):
        for grid in (((2, 3, 5), (1, 2, 4)), ((1, 2),)):
            with pytest.raises(ValueError, match="expected a square grid"):
                WellOrderedSquare(grid)

    def test_square_rejects_a_grid_that_is_not_well_ordered(self):
        for grid in (((1, 2), (2, 3)), ((2, 1), (1, 0))):
            with pytest.raises(ValueError, match="not well-ordered"):
                WellOrderedSquare(grid)

    def test_dhb_rejects_a_grid_that_is_not_homogeneous(self):
        # well-ordered on its first row and column, which is all the
        # well-ordering test reads, but 1 + 5 != 2 + 1 on columns 1 and 2
        grid = ((1, 2, 3), (1, 5, 3))
        assert not is_homogeneous(grid)
        with pytest.raises(NotHomogeneousError) as info:
            DHBMatrix(grid)
        assert (info.value.rows, info.value.cols) == ((1, 2), (1, 2))

    @pytest.mark.parametrize("cls, grid", [
        (DHBMatrix, ((1, 2, 3), (0, 1))),
        (DHBMatrix, ((1, 2, 3), (0, 1, 2, 5))),
        (WellOrderedSquare, ((2, 3), (1,))),
    ])
    def test_shape_types_reject_a_ragged_grid(self, cls, grid):
        with pytest.raises(ValueError, match="ragged grid: row 2"):
            cls(grid)

    @pytest.mark.parametrize("cls", [DegreeMatrix, WellOrderedSquare, DHBMatrix])
    @pytest.mark.parametrize("grid", [(), ((),), []])
    def test_constructors_reject_an_empty_grid(self, cls, grid):
        with pytest.raises(ValueError, match="^grid must be non-empty$"):
            cls(grid)

    @pytest.mark.parametrize("cls, grid, bad", [
        (DHBMatrix, ((1.5, 2.5),), "1.5"),
        (DegreeMatrix, ((1, 2), (0, 1.0)), "1.0"),
        (WellOrderedSquare, ((True,),), "True"),
        (DHBMatrix, ((1, 2, "3"), (0, 1, 2)), "'3'"),
    ])
    def test_constructors_reject_entries_that_are_not_integers(self, cls, grid, bad):
        with pytest.raises(ValueError) as info:
            cls(grid)
        assert str(info.value) == f"grid entries must be integers, got {bad}"
        # from_grid and the validating functions give the same text
        for check in (cls.from_grid, potentials):
            with pytest.raises(ValueError) as again:
                check(grid)
            assert str(again.value) == str(info.value)

    @pytest.mark.parametrize("cls, grid", [
        (DegreeMatrix, ((0, 1), (-(10**6) - 1, 10**6))),
        (DHBMatrix, ((10**6 + 1, 10**6 + 2),)),
        (WellOrderedSquare, ((10**7,),)),
    ])
    def test_constructors_reject_entries_beyond_the_bound(self, cls, grid):
        bad = next(x for row in grid for x in row if abs(x) > degree_matrix.ENTRY_BOUND)
        with pytest.raises(ValueError) as info:
            cls(grid)
        assert str(info.value) == f"entry {bad} exceeds the supported bound {degree_matrix.ENTRY_BOUND}"

    def test_entries_at_the_bound_are_accepted(self):
        top = degree_matrix.ENTRY_BOUND
        assert DHBMatrix(((top - 1, top),)).minor_degrees == (top, top - 1)
        assert DegreeMatrix(((-top,),)).diagonal == (-top,)

    def test_entry_errors_take_precedence_over_a_homogeneity_witness(self):
        # row 2 breaks homogeneity before row 3 holds a float
        grid = ((1, 2, 3), (0, 5, 2), (0, 1, 2.0))
        for check in (DegreeMatrix, potentials, canonicalize):
            with pytest.raises(ValueError, match="must be integers, got 2.0"):
                check(grid)

    def test_square_rejects_a_grid_that_is_not_homogeneous(self):
        # its diagonal sums to 7 and its antidiagonal to 4
        with pytest.raises(NotHomogeneousError):
            WellOrderedSquare(((2, 3), (1, 5)))

    def test_canonicalize_returns_degree_matrices(self):
        for grid, kind in ((DEGREE8_GRID, WellOrderedSquare), ([[5, 3, 2], [4, 2, 1]], DHBMatrix)):
            M, _, _ = canonicalize(grid)
            assert isinstance(M, DegreeMatrix) and type(M) is kind
            assert M == kind(M.entries)

    def test_diagonal_stops_at_the_shorter_side(self):
        assert DegreeMatrix(((2, 3, 5), (1, 2, 4))).diagonal == (2, 2)
        assert DegreeMatrix(((2, 3), (1, 2), (0, 1))).diagonal == (2, 2)
        M, _, _ = canonicalize(DEGREE8_GRID)
        assert M.diagonal == (0, 0, 5, 3) and M.degree == 8


def dhb(grid) -> DHBMatrix:
    Q, _, _ = canonicalize(grid)
    assert isinstance(Q, DHBMatrix)
    return Q


def reference_minor_degrees(q) -> tuple[int, ...]:
    """Minor degrees as first written: one transversal sum per erased column."""
    n = len(q[0])
    out = []
    for j in range(n):
        # row i pairs with column i when i < j, with column i+1 otherwise
        out.append(sum(q[i][i] for i in range(j)) + sum(q[i][i + 1] for i in range(j, n - 1)))
    return tuple(out)


class TestMinorDegreesAndShifts:
    def test_two_by_three(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        assert Q.minor_degrees == (7, 6, 4)
        assert Q.shifts == (9, 8)

    def test_four_by_five(self):
        Q = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
        assert Q.minor_degrees == (7, 7, 5, 5, 5)
        assert Q.shifts == (8, 8, 7, 6)

    def test_single_row(self):
        Q = dhb([[2, 2]])
        assert Q.minor_degrees == (2, 2)
        assert Q.shifts == (4,)
        Q = dhb([[2, 3]])
        assert Q.shifts == (5,)

    @given(
        st.integers(2, 6),
        st.data(),
    )
    @settings(max_examples=150)
    def test_entry_identity_and_column_erase_consistency(self, n, data):
        u = sorted(data.draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)), reverse=True)
        v = sorted(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        v = [x - v[0] for x in v]
        Q = dhb(grid_from_potentials(u, v))
        a, b = Q.minor_degrees, Q.shifts
        for i in range(n - 1):
            for j in range(n):
                assert Q.entries[i][j] == b[i] - a[j]
        # recompute each minor degree by actually erasing the column
        for j in range(n):
            erased = [
                [Q.entries[i][jj] for jj in range(n) if jj != j] for i in range(n - 1)
            ]
            assert transversal_degree(erased) == a[j]
        assert all(a[j] >= a[j + 1] for j in range(n - 1))
        assert all(b[i] >= b[i + 1] for i in range(n - 2))


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_potential_formula_matches_the_transversal_sums(self, n):
        for Q in iter_dhb_matrices(n, 4):
            a = reference_minor_degrees(Q.entries)
            assert Q.minor_degrees == a
            assert Q.shifts == tuple(a[0] + row[0] for row in Q.entries)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @given(st.data())
    @settings(max_examples=40)
    def test_potential_formula_on_raw_grids(self, n, data):
        # raw potentials: entries may be zero or negative, v[0] need not be 0
        u = sorted(data.draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)), reverse=True)
        v = sorted(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        Q = DHBMatrix(grid_from_potentials(u, v))
        a = reference_minor_degrees(Q.entries)
        assert Q.minor_degrees == a
        assert Q.shifts == tuple(a[0] + row[0] for row in Q.entries)


class TestCachedInvariants:
    CACHED = {
        DHBMatrix: {
            "diagonal", "minor_degrees", "shifts", "diag_nonnegative",
            "max_diag_positive", "is_numerically_minimal",
        },
        WellOrderedSquare: {"diagonal", "degree"},
    }
    GRIDS = {DHBMatrix: ((2, 3, 5), (1, 2, 4)), WellOrderedSquare: DEGREE8_GRID}

    @staticmethod
    def cached_names(cls):
        return {
            name
            for klass in cls.__mro__
            for name, attr in vars(klass).items()
            if isinstance(attr, functools.cached_property)
        }

    @pytest.mark.parametrize("cls", [DHBMatrix, WellOrderedSquare])
    def test_reading_every_invariant_keeps_value_semantics(self, cls):
        names = self.cached_names(cls)
        assert names == self.CACHED[cls]
        grid = tuple(tuple(row) for row in self.GRIDS[cls])
        M = cls(grid)
        for name in names:
            getattr(M, name)
        assert set(vars(M)) == {"entries"} | names
        fresh = cls(grid)
        assert M == fresh
        assert hash(M) == hash(fresh)
        assert repr(M) == repr(fresh) == f"{cls.__name__}(entries={grid!r})"

    def test_instances_do_not_share_values(self):
        P = DHBMatrix(((2, 3, 5), (1, 2, 4)))
        Q = DHBMatrix(((1, 1, 3), (0, 0, 2)))
        assert (P.minor_degrees, P.shifts, P.is_numerically_minimal) == ((7, 6, 4), (9, 8), True)
        assert (Q.minor_degrees, Q.shifts, Q.is_numerically_minimal) == ((3, 3, 1), (4, 3), False)
        # reading Q's invariants left P's cached values alone
        assert (P.minor_degrees, P.shifts, P.is_numerically_minimal) == ((7, 6, 4), (9, 8), True)
        assert vars(P)["minor_degrees"] == (7, 6, 4)

    def test_class_access_returns_the_documented_descriptor(self):
        for cls, names in self.CACHED.items():
            for name in names:
                attr = getattr(cls, name)
                assert isinstance(attr, functools.cached_property)
                assert attr.__doc__ == attr.func.__doc__
        doc = DHBMatrix.minor_degrees.__doc__
        assert doc == "Transversal degree of each column-erased square, non-increasing."
        assert doc in pydoc.render_doc(DHBMatrix, renderer=pydoc.plaintext)


    def test_threads_racing_on_fresh_matrices_read_one_value(self):
        matrices = [DHBMatrix(Q.entries) for Q in iter_dhb_matrices(4, 2)]
        expected = [reference_minor_degrees(M.entries) for M in matrices]
        seen = []

        def read():
            seen.append([M.minor_degrees for M in matrices])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [expected] * len(threads)


class TestRecords:
    def test_value_semantics_immutability_copy_and_pickle(self):
        # the README's presentation and degree-8 square
        Q = canonicalize([[2, 3, 5], [1, 2, 4]])[0]
        M = canonicalize(DEGREE8_GRID)[0]
        B = betti_of_matrix(Q)
        assert repr(Q) == "DHBMatrix(entries=((2, 3, 5), (1, 2, 4)))"
        assert repr(M) == (
            "WellOrderedSquare(entries=((0, 1, 10, 11), (-1, 0, 9, 10), (-5, -4, 5, 6), (-8, -7, 2, 3)))"
        )
        assert repr(B) == "BettiData(gens=(7, 6, 4), syz=(9, 8))"
        for record, fields in ((Q, (Q.entries,)), (M, (M.entries,)), (B, (B.gens, B.syz))):
            again = type(record)(*fields)
            assert again == record and again is not record
            assert hash(again) == hash(record) == hash(fields)
            assert record != fields
        assert B == BettiData.of([4, 6, 7], [8, 9]) != BettiData((7, 6, 4), (9, 7))

        # the three DegreeMatrix classes never compare equal, even on one grid
        grids = {cls: cls(Q.entries) for cls in (DegreeMatrix, DHBMatrix)}
        grids[WellOrderedSquare] = M
        assert DegreeMatrix(M.entries) != M and M != DegreeMatrix(M.entries)
        assert grids[DegreeMatrix] != grids[DHBMatrix] and grids[DHBMatrix] != grids[DegreeMatrix]

        for record, name in ((Q, "entries"), (Q, "minor_degrees"), (M, "degree"), (B, "gens")):
            with pytest.raises(AttributeError):
                setattr(record, name, ())
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert (Q.entries, Q.minor_degrees, M.degree, B.gens) == (
            ((2, 3, 5), (1, 2, 4)), (7, 6, 4), 8, (7, 6, 4))

        fresh = DHBMatrix(Q.entries)
        for round_trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for record in (Q, fresh, M, B):
                again = round_trip(record)
                assert type(again) is type(record)
                assert again == record and hash(again) == hash(record) and repr(again) == repr(record)
            again = round_trip(fresh)
            assert (again.minor_degrees, again.shifts) == ((7, 6, 4), (9, 8))
            assert vars(again)["minor_degrees"] == (7, 6, 4)

    def test_series_and_witness_records(self):
        x, y = Form(1, (1, 0, 0), 7), Form(1, (0, 1, 0), 7)
        prop = ShiftedProperty(1, "nonspecial")
        query = SeriesQuery(8, 20, 2, (prop,))
        constraint = HFConstraint(5, "==", 18, True, "complete series dimension 2")
        row = SeriesRow((1, 2, 1), BettiData((3, 2), (4,)), True, (("D+1H nonspecial", True),))
        profile = [{"t": 0, "predicted": 1, "observed": 1}]
        # (record, its field values in order, its repr as the dataclasses printed it)
        cases = [
            (prop, (1, "nonspecial"), "ShiftedProperty(z=1, kind='nonspecial')"),
            (query, (8, 20, 2, (prop,)),
             "SeriesQuery(curve_degree=8, divisor_degree=20, series_dim=2, "
             "properties=(ShiftedProperty(z=1, kind='nonspecial'),))"),
            (constraint, (5, "==", 18, True, "complete series dimension 2"),
             "HFConstraint(level=5, relation='==', value=18, mandatory=True, label='complete series dimension 2')"),
            (row, (row.hvector, row.betti, True, row.flags),
             "SeriesRow(hvector=(1, 2, 1), betti=BettiData(gens=(3, 2), syz=(4,)), "
             "exists_on_general_curve=True, flags=(('D+1H nonspecial', True),))"),
            (SeriesAnswer(query, (constraint,), (row,)), (query, (constraint,), (row,)),
             f"SeriesAnswer(query={query!r}, constraints=({constraint!r},), rows=({row!r},))"),
            (x, (1, (1, 0, 0), 7), "Form(degree=1, coeffs=(1, 0, 0), prime=7)"),
            (FormMatrix(((x, y),), DegreeMatrix(((1, 1),)), 7), (((x, y),), DegreeMatrix(((1, 1),)), 7),
             f"FormMatrix(entries=(({x!r}, {y!r}),), degree_matrix=DegreeMatrix(entries=((1, 1),)), prime=7)"),
            (WitnessReport(1, 7, 2, {"answer": "yes"}, [3, 3], profile, []),
             (1, 7, 2, {"answer": "yes"}, [3, 3], profile, []),
             "WitnessReport(seed=1, prime=7, trials=2, verdict_checked={'answer': 'yes'}, observed_degrees=[3, 3], "
             "hf_profile=[{'t': 0, 'predicted': 1, 'observed': 1}], mismatches=[])"),
        ]
        for record, values, text in cases:
            assert repr(record) == text
            again = type(record)(*values)
            assert again == record and again is not record and record != values
            if isinstance(record, WitnessReport):
                with pytest.raises(TypeError):  # its lists are unhashable
                    hash(record)
            else:
                assert hash(again) == hash(record) == hash(values)
            name = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == values[0]
            for round_trip in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
                again = round_trip(record)
                assert type(again) is type(record) and again == record and repr(again) == text
        for (a, _, _), (b, _, _) in itertools.combinations(cases, 2):
            assert a != b and b != a
        assert ShiftedProperty(1, "nonspecial") != SeriesQuery(8, 20, 2) != (8, 20, 2, ())

        # keywords and defaults
        assert SeriesQuery(curve_degree=8, divisor_degree=20, series_dim=2, properties=(prop,)) == query
        assert repr(SeriesQuery(8, 20, 2)) == (
            "SeriesQuery(curve_degree=8, divisor_degree=20, series_dim=2, properties=())"
        )
        assert SeriesAnswer(query=query, constraints=()).rows == ()
        assert Form(degree=-1, coeffs=(), prime=7).is_zero
        reports = [WitnessReport(0, 7, 1, {}), WitnessReport(seed=0, prime=7, trials=1, verdict_checked={})]
        assert reports[0] == reports[1]
        lists = [(r.observed_degrees, r.hf_profile, r.mismatches) for r in reports]
        assert lists[0] == lists[1] == ([], [], [])
        assert len({id(x) for fields in lists for x in fields}) == 6
        reports[0].mismatches.append("filled in place")
        assert reports[1].mismatches == [] and not reports[0].ok

        # the constructor checks
        with pytest.raises(ValueError, match="unknown property kind 'ample'"):
            ShiftedProperty(1, "ample")
        with pytest.raises(ValueError, match="degree-1 form needs 3 coefficients"):
            Form(1, (1, 0), 7)
        with pytest.raises(ValueError, match=r"entry \(1,2\) has degree 1, expected 2"):
            FormMatrix(((x, y),), DegreeMatrix(((1, 2),)), 7)

        constraints = SeriesAnswer(query, (constraint,)).to_json()["constraints"]
        assert constraints == [
            {"level": 5, "relation": "==", "value": 18, "mandatory": True, "label": "complete series dimension 2"}
        ]
        assert [list(c) for c in constraints] == [["level", "relation", "value", "mandatory", "label"]]


class TestInsertRow:
    def test_insert_at_bottom(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        M, pos = insert_row_sorted(Q, (-3, -2, 0))
        assert pos == 3
        assert M.entries == ((2, 3, 5), (1, 2, 4), (-3, -2, 0))

    def test_tie_goes_below_equal_rows(self):
        Q = dhb([[1, 1, 3, 3, 3], [1, 1, 3, 3, 3], [0, 0, 2, 2, 2], [-1, -1, 1, 1, 1]])
        M, pos = insert_row_sorted(Q, (-1, -1, 1, 1, 1))
        assert pos == 5
        assert M.entries[4] == (-1, -1, 1, 1, 1)

    def test_single_row_insert(self):
        Q = dhb([[2, 2]])
        M, pos = insert_row_sorted(Q, (1, 1))
        assert M.entries == ((2, 2), (1, 1))
        assert pos == 2

    def test_incompatible_row_rejected(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        with pytest.raises(IncompatibleRowError):
            insert_row_sorted(Q, (0, 0, 0))
        with pytest.raises(IncompatibleRowError):
            insert_row_sorted(Q, (0, 1))

    @given(st.integers(2, 5), st.integers(1, 12), st.data())
    @settings(max_examples=150)
    def test_insert_then_erase_round_trip(self, n, d, data):
        u = sorted(data.draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1)), reverse=True)
        v = sorted(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        v = [x - v[0] for x in v]
        Q = dhb(grid_from_potentials(u, v))
        row = tuple(d - aj for aj in Q.minor_degrees)
        M, pos = insert_row_sorted(Q, row)
        assert M.degree == d
        back = erase_row(M, pos)
        # identical up to reordering of tied (identical) rows
        assert sorted(back.entries) == sorted(Q.entries)
        assert back.minor_degrees == Q.minor_degrees


class TestEraseRow:
    def test_erasing_breaks_validity(self):
        M, _, _ = canonicalize(DEGREE8_GRID)
        R = erase_row(M, 1)
        assert R.entries[0][0] == -1
        assert not R.diag_nonnegative
        assert not R.is_valid

    def test_erase_bottom_recovers_presentation(self):
        M, _, _ = canonicalize([[2, 3, 5], [1, 2, 4], [0, 1, 3]])
        R = erase_row(M, 3)
        assert R.entries == ((2, 3, 5), (1, 2, 4))
        assert R.diag_nonnegative and R.max_diag_positive

    def test_zero_diagonal_square_gives_degenerate_candidate(self):
        M, _, _ = canonicalize([[0, 0], [0, 0]])
        assert M.degree == 0
        for i in (1, 2):
            R = erase_row(M, i)
            assert R.diag_nonnegative
            assert not R.max_diag_positive

    def test_out_of_range(self):
        M, _, _ = canonicalize([[1]])
        with pytest.raises(ValueError):
            erase_row(M, 2)


def admissible_hvectors(max_length: int, top: int):
    for length in range(1, max_length + 1):
        for h in itertools.product(range(1, top + 1), repeat=length):
            if is_admissible_hvector(h):
                yield h


class TestPotentialsConvention:
    """Every matrix carries u = its first column and v = its first row minus
    the first entry, so that m[i][j] = u[i] + v[j] and v[0] = 0."""

    def assert_convention(self, M):
        u, v = potentials(M.entries)
        assert v[0] == 0
        assert all(x == u[i] + v[j] for i, row in enumerate(M.entries) for j, x in enumerate(row))

    def test_canonicalize(self):
        for grid in (DEGREE8_GRID, [[2, 3, 5], [1, 2, 4]], [[5, 3, 4], [3, 1, 2]], [[4, 1], [7, 4]]):
            self.assert_convention(canonicalize(grid)[0])

    def test_row_surgery(self):
        Q = dhb([[2, 3, 5], [1, 2, 4]])
        for d in range(1, 12):
            M, pos = insert_row_sorted(Q, tuple(d - aj for aj in Q.minor_degrees))
            self.assert_convention(M)
            for i in range(1, M.n + 1):
                self.assert_convention(erase_row(M, i))

    def test_enumeration(self):
        for n in (2, 3, 4):
            for Q in iter_dhb_matrices(n, 2):
                self.assert_convention(Q)

    def test_generic_betti_presentation(self):
        count = 0
        for h in admissible_hvectors(6, 5):
            Q = generic_betti(h).to_dhb()
            self.assert_convention(Q)
            assert Q == canonicalize(Q.entries)[0]
            count += 1
        assert count >= 50

    def test_to_dhb_of_a_flat_hvector(self):
        Q = generic_betti([1, 2, 3, 3, 2]).to_dhb()
        assert Q.entries == ((1, 2, 3), (1, 2, 3))
        assert potentials(Q.entries) == ((1, 1), (0, 1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: transversal_degree([[2, 3, 5], [1, 2, 4]]), "transversal degree requires a square grid"),
], ids=["transversal-degree-of-a-non-square"])
def test_input_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

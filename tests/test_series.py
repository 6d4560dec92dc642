"""Linear-series queries: constraints, enumeration, existence tables."""

import itertools

import pytest

from curvedet import series
from curvedet import (
    InfeasibleQueryError,
    SeriesBudgetError,
    SeriesQuery,
    ShiftedProperty,
    analyze,
    enumerate_hvectors,
    genus,
    hf_constraints,
    hilbert_function,
    is_admissible_hvector,
    plane_dim,
)

G20_QUERY = SeriesQuery(
    curve_degree=8,
    divisor_degree=20,
    series_dim=2,
    properties=(ShiftedProperty(1, "nonspecial"), ShiftedProperty(-1, "effective")),
)

# Hilbert functions through level 7 of the four g^2_20 classes on an octic
HF_TABLE = [
    (1, 3, 6, 10, 15, 18, 20, 20),
    (1, 3, 6, 10, 15, 18, 19, 20),
    (1, 3, 6, 10, 14, 18, 20, 20),
    (1, 3, 6, 10, 14, 18, 19, 20),
]


class TestGenus:
    def test_values(self):
        assert genus(8) == 21
        assert genus(3) == 1
        assert genus(1) == 0
        assert genus(2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            genus(0)


class TestConstraints:
    def test_complete_series_level(self):
        constraints = hf_constraints(SeriesQuery(8, 20, 2))
        (c,) = [c for c in constraints if c.mandatory]
        assert (c.level, c.relation, c.value) == (5, "==", 18)

    def test_nonspecial_shift(self):
        constraints = hf_constraints(
            SeriesQuery(8, 20, 2, (ShiftedProperty(1, "nonspecial"),))
        )
        flag = [c for c in constraints if not c.mandatory][0]
        assert (flag.level, flag.relation, flag.value) == (4, "==", 15)

    def test_effective_shift(self):
        constraints = hf_constraints(
            SeriesQuery(8, 20, 2, (ShiftedProperty(-1, "effective"),))
        )
        flag = [c for c in constraints if not c.mandatory][0]
        assert (flag.level, flag.relation, flag.value) == (6, "<=", 19)

    def test_overlarge_dimension_is_infeasible(self):
        with pytest.raises(InfeasibleQueryError):
            hf_constraints(SeriesQuery(8, 20, plane_dim(5) + 20 - genus(8) + 1))

    @pytest.mark.parametrize("relation, holds", [
        ("==", (False, True, False)), ("<=", (True, True, False)), (">=", (False, True, True)),
    ])
    def test_each_relation_tests_the_value_against_its_bound(self, relation, holds):
        c = series.HFConstraint(5, relation, 18, True, "")
        assert tuple(c.satisfied_by(v) for v in (17, 18, 19)) == holds

    @pytest.mark.parametrize("relation", ["!=", "<", ">", "=", ""])
    def test_an_unknown_relation_is_rejected(self, relation):
        with pytest.raises(ValueError) as info:
            series.HFConstraint(5, relation, 18, True, "")
        assert str(info.value) == f"relation must be '==', '<=' or '>=', got {relation!r}"

    def test_query_validation(self):
        with pytest.raises(ValueError):
            SeriesQuery(3, 20, 2)
        with pytest.raises(ValueError):
            SeriesQuery(8, 0, 2)
        with pytest.raises(ValueError):
            ShiftedProperty(1, "ample")


def brute_hvectors(delta, constraints, d):
    """Independent oracle: filter all bounded non-increasing-tail tuples."""
    mandatory = [c for c in constraints if c.mandatory]
    found = set()
    # support length is at most delta; values bounded by min(t+1, d)
    def tails(prefix, total):
        if total == delta:
            h = tuple(prefix)
            if is_admissible_hvector(h, d):
                partials = list(itertools.accumulate(h))
                def hf_at(t):
                    return partials[t] if t < len(partials) else delta
                if all(c.satisfied_by(hf_at(c.level)) for c in mandatory):
                    found.add(h)
            return
        t = len(prefix)
        for value in range(1, min(t + 1, d, delta - total) + 1):
            tails(prefix + [value], total + value)

    tails([1], 1)
    return found


def by_hilbert_function(delta, hvectors):
    """h-vectors of total delta by Hilbert function HF(0..delta-1), decreasing."""
    def hf(h):
        return tuple(itertools.accumulate(h)) + (delta,) * (delta - len(h))
    return sorted(hvectors, key=hf, reverse=True)


class TestEnumerateHVectors:
    def test_four_g20_classes(self):
        constraints = hf_constraints(G20_QUERY)
        hs = enumerate_hvectors(20, constraints, 8)
        assert len(hs) == 4
        assert hs == [
            (1, 2, 3, 4, 5, 3, 2),
            (1, 2, 3, 4, 5, 3, 1, 1),
            (1, 2, 3, 4, 4, 4, 2),
            (1, 2, 3, 4, 4, 4, 1, 1),
        ]

    def test_matches_brute_force_small(self):
        constraints = hf_constraints(SeriesQuery(8, 20, 2))
        smart = set(enumerate_hvectors(20, constraints, 8))
        assert smart == brute_hvectors(20, constraints, 8)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rows_come_in_decreasing_hilbert_function_order(self, d):
        # the brute-force set, sorted here, against the list as returned
        for delta in range(1, 15):
            queries = [[]]
            for r in range(4) if d >= 4 else ():
                try:
                    queries.append(hf_constraints(SeriesQuery(d, delta, r)))
                except InfeasibleQueryError:
                    pass
            for constraints in queries:
                expected = by_hilbert_function(delta, brute_hvectors(delta, constraints, d))
                assert enumerate_hvectors(delta, constraints, d) == expected, (delta, constraints)

    def test_four_points_off_a_line(self):
        from curvedet.series import HFConstraint

        constraints = [HFConstraint(1, "==", 3, True, "")]
        assert enumerate_hvectors(4, constraints, 3) == [(1, 2, 1)]
        assert brute_hvectors(4, constraints, 3) == {(1, 2, 1)}

    def test_single_point(self):
        assert enumerate_hvectors(1, [], 4) == [(1,)]
        assert enumerate_hvectors(1, [], 0) == []  # no point lies on a curve of degree 0

    def test_h_vector_longer_than_the_recursion_limit(self):
        # HF(1) = 2 puts all 3000 points on a line: h = (1, 1, ..., 1)
        answer = analyze(SeriesQuery(4, 3000, 2998))
        assert [row.hvector for row in answer.rows] == [(1,) * 3000]

    def test_output_satisfies_all_constraints(self):
        constraints = hf_constraints(G20_QUERY)
        for h in enumerate_hvectors(20, constraints, 8):
            partials = list(itertools.accumulate(h))
            for c in constraints:
                if c.mandatory:
                    value = partials[c.level] if c.level < len(partials) else 20
                    assert c.satisfied_by(value)


class TestAnalyze:
    def test_full_g20_table(self):
        answer = analyze(G20_QUERY)
        assert len(answer.rows) == 4
        assert [row.hilbert_values(7) for row in answer.rows] == HF_TABLE
        assert all(row.exists_on_general_curve for row in answer.rows)
        flag_sets = [
            tuple(ok for _, ok in row.flags) for row in answer.rows
        ]
        # (nonspecial, effective) per row: A-only, A and B, neither, B-only
        assert flag_sets == [(True, False), (True, True), (False, False), (False, True)]

    def test_row_betti_data(self):
        answer = analyze(G20_QUERY)
        first = answer.rows[0]
        assert first.betti.gens == (7, 5, 5, 5)
        assert first.betti.syz == (8, 8, 6)

    def test_riemann_roch_bookkeeping(self):
        d, delta, r = 8, 20, 2
        g = genus(d)
        for row in analyze(G20_QUERY).rows:
            hf = hilbert_function(row.betti, d - 3)
            assert delta - g + 1 + (plane_dim(d - 3) - hf) == r + 1

    def test_infeasible_dimension_yields_empty_answer(self):
        answer = analyze(SeriesQuery(8, 20, plane_dim(5) + 20 - genus(8) + 1))
        assert answer.rows == ()

    def test_too_small_dimension_yields_empty_answer(self):
        # a degree-4 divisor on an octic cannot be that special
        answer = analyze(SeriesQuery(8, 4, 3))
        assert answer.rows == ()

    def test_json_round_trip(self):
        payload = analyze(G20_QUERY).to_json()
        assert payload["curveDegree"] == 8
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["gens"] == [7, 5, 5, 5]


def sweep_queries():
    """Queries whose property levels fall below 0 (z = d - 1, d) and past every support (z = -d - 5)."""
    for d in range(4, 9):
        for delta in range(1, 2 * d + 1):
            for r in range(3):
                for props in ((), ((1, "nonspecial"), (-1, "effective")),
                              ((d, "effective"), (d - 1, "nonspecial"), (-d - 5, "nonspecial"), (0, "nonspecial"))):
                    yield SeriesQuery(d, delta, r, tuple(ShiftedProperty(z, kind) for z, kind in props))


class TestHilbertValuesFromTheHVector:
    """A row's Hilbert function is the prefix sums of its h-vector; the
    alternating sum over its Betti numbers is the oracle."""

    def test_every_level_matches_the_betti_numbers(self):
        rows = below = past = 0
        for query in sweep_queries():
            answer = analyze(query)
            flags = [c for c in answer.constraints if not c.mandatory]
            for row in answer.rows:
                rows += 1
                length = len(row.hvector)
                oracle = [hilbert_function(row.betti, t) for t in range(length + 4)]
                for tmax in range(-3, length + 4):
                    assert row.hilbert_values(tmax) == tuple(oracle[: max(tmax + 1, 0)]), (row.hvector, tmax)
                payload = row.to_json()
                assert len(payload["hf"]) == length + 1
                assert payload["hf"] == oracle[: length + 1]
                assert row.flags == tuple(
                    (c.label, c.satisfied_by(hilbert_function(row.betti, c.level))) for c in flags
                )
                below += sum(c.level < 0 for c in flags)
                past += sum(c.level >= length for c in flags)
        assert (rows, below, past) == (672, 448, 418)


class TestSeriesBudget:
    def test_the_budget_counts_popped_prefixes(self, monkeypatch):
        # the g^2_20 enumeration on an octic pops 39 prefixes
        monkeypatch.setattr(series, "SERIES_BUDGET", 39)
        assert len(analyze(G20_QUERY).rows) == 4
        monkeypatch.setattr(series, "SERIES_BUDGET", 38)
        with pytest.raises(SeriesBudgetError) as refused:
            analyze(G20_QUERY)
        assert refused.value.payload() == {
            "error": "SeriesBudgetExceeded",
            "message": "series enumeration for delta = 20 on a degree-8 curve popped 39 h-vector prefixes, "
                       "over the budget of 38",
            "prefixes": 39,
            "budget": 38,
        }
        assert isinstance(refused.value, ValueError)

    def test_documented_and_benchmarked_queries_stay_far_below_the_budget(self, monkeypatch):
        monkeypatch.setattr(series, "SERIES_BUDGET", series.SERIES_BUDGET // 100)
        assert len(analyze(G20_QUERY).rows) == 4
        assert len(analyze(SeriesQuery(4, 3000, 2998)).rows) == 1
        # the range the benchmark's command-line pools draw series queries from
        for d in range(6, 9):
            for delta in range(2 * d, 3 * d + 1):
                for r in (1, 2):
                    analyze(SeriesQuery(d, delta, r))


@pytest.mark.parametrize("call, message", [
    (lambda: SeriesQuery(8, 20, -1), "series dimension must be >= 0"),
    (lambda: SeriesQuery(8.0, 20, 2), "curve degree must be an integer, got 8.0"),
    (lambda: hf_constraints(SeriesQuery(8, 20.5, 2)), "divisor degree must be an integer, got 20.5"),
    (lambda: SeriesQuery(8, 20, 2.5), "series dimension must be an integer, got 2.5"),
    (lambda: SeriesQuery(8, 20, True), "series dimension must be an integer, got True"),
    (lambda: ShiftedProperty(0.5, "nonspecial"), "shift z must be an integer, got 0.5"),
    (lambda: ShiftedProperty(False, "effective"), "shift z must be an integer, got False"),
    (lambda: genus(4.5), "curve degree must be an integer, got 4.5"),
], ids=["negative-series-dimension", "curve-degree-a-float", "divisor-degree-a-float", "series-dimension-a-float",
        "series-dimension-a-bool", "shift-a-float", "shift-a-bool", "genus-at-a-float"])
def test_input_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

"""The subscheme corollary on a finite range: a proved containment census.

A plane curve F of degree d contains the scheme Z presented by an
(n-1) x n matrix of forms Q exactly when F lies in I_Z, the ideal of the
maximal minors g_j of Q (Hilbert-Burch).  The minor g_j has degree a_j,
the transversal degree of Q's degree matrix without column j, so by the
Laplace expansion along an appended row r with deg r_j = d - a_j that is
F = +-det[Q; r].  A general curve of degree d therefore contains such a
scheme exactly when (Q, r) -> det[Q; r] is dominant onto the forms of
degree d, and the tangent rank of the square census reads that:

- a yes is proved when some seed gives full rank plane_dim(d);
- on a no the differential falls short at every point, so the rank must
  fall short at seed 0.

r is appended last, since row order changes only the sign of det.
`stable_threshold` is checked against its definition: the least d from
which every verdict up to b_1 + 1 is yes, raised to the least level at
which the Hilbert function (the alternating sum of plane_dim over the
twists) reaches the scheme degree (sum b^2 - sum a^2)/2.  Twists, Hilbert
function and rank are all computed here.  `scan(Q, b_1 + 1)` must give
the proved verdicts degree by degree, and `containment_profile(Q)` must
hold exactly the proved-yes degrees in 1..b_1 + 1.  Only
`iter_dhb_matrices`, `contains_subscheme`, `scan`, `containment_profile`
and `stable_threshold` come from curvedet.
"""

import pytest
from test_square_census import tangent_rank

from curvedet import contains_subscheme, containment_profile, iter_dhb_matrices, scan, stable_threshold

SEEDS = (0, 1, 2)
# (n, bound, minimal_only): 1,310 decisions at d = 1..b_1 + 1
RANGES = ((2, 4, False), (3, 3, False))


def plane_dim(x: int) -> int:
    return (x + 2) * (x + 1) // 2 if x >= 0 else 0


def twists(grid) -> tuple[list[int], list[int]]:
    """The minor degrees a_j and the syzygy degrees b_i = q_i1 + a_1."""
    n = len(grid[0])
    a = [sum(row[k] for row, k in zip(grid, [k for k in range(n) if k != j])) for j in range(n)]
    return a, [row[0] + a[0] for row in grid]


def hilbert_function(a, b, t: int) -> int:
    return plane_dim(t) - sum(plane_dim(t - x) for x in a) + sum(plane_dim(t - y) for y in b)


def decisions(n: int, bound: int, minimal_only: bool):
    """(Q, d) for every presentation in the range and d = 1..b_1 + 1."""
    for Q in iter_dhb_matrices(n, bound, minimal_only):
        _, b = twists(Q.entries)
        for d in range(1, max(b) + 2):
            yield Q, d


def test_the_census_has_its_size():
    verdicts = [contains_subscheme(Q, d).verdict
                for n, bound, minimal_only in RANGES for Q, d in decisions(n, bound, minimal_only)]
    assert (len(verdicts), sum(verdicts)) == (1310, 812)


@pytest.mark.parametrize("n, bound, minimal_only", RANGES)
def test_every_verdict_and_threshold_is_proved(n, bound, minimal_only):
    for Q in iter_dhb_matrices(n, bound, minimal_only):
        grid = [list(row) for row in Q.entries]
        a, b = twists(grid)
        verdicts = []
        for d in range(1, max(b) + 2):
            verdict = contains_subscheme(Q, d).verdict
            square = grid + [[d - x for x in a]]
            full = plane_dim(d)
            if verdict:
                assert any(tangent_rank(square, d, seed) == full for seed in SEEDS), (grid, d)
            else:
                assert tangent_rank(square, d, SEEDS[0]) < full, (grid, d)
            verdicts.append(verdict)
        top = max(b) + 1
        assert [(d, decision.verdict) for d, decision in scan(Q, top)] == list(enumerate(verdicts, 1)), grid
        profile = containment_profile(Q)
        held = [d for d in range(1, top + 1)
                if any(lo <= d and (hi is None or d <= hi) for lo, hi in profile)]
        assert held == [d for d, verdict in enumerate(verdicts, 1) if verdict], (grid, profile)
        d0 = 1 + max((d for d, verdict in enumerate(verdicts, 1) if not verdict), default=0)
        delta = (sum(y * y for y in b) - sum(x * x for x in a)) // 2
        t = next(t for t in range(max(b) + 1) if hilbert_function(a, b, t) == delta)
        assert stable_threshold(Q) == max(d0, t), grid

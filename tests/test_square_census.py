"""The paper's theorem itself on a finite range: a proved square census.

A general form of degree d is the determinant of a matrix of forms with
degree matrix m exactly when det is dominant onto the forms of degree d.
Every well-ordered square m_ij = u_i + v_j with 0 = u_1 >= ... >= u_n >= -B,
-B <= v_1 <= ... <= v_n <= B and d >= 1 is enumerated here, and each
verdict of `representable` is proved on its own terms:

- a no by its zero corner in the grid: rows k..n negative in columns
  1..k force det = 0 (Frobenius-Koenig), and rows k..n negative in
  columns 1..k - 1 with trailing diagonal degree 0 < e < d make det
  factor, while a general plane curve is irreducible;
- a yes by the tangent rank: the differential (A_ij) -> sum C_ij(N) A_ij
  of det at a sampled N, C_ij the cofactors, reaching rank plane_dim(d)
  proves dominance.  Its rank is read at plane_dim(d) random points, as
  the rank of the values C_ij(x_k) mu(x_k) over the slots (i, j) and the
  monomials mu of degree m_ij; that rank never exceeds the
  differential's, so full rank is a proof at any points.

On a no the differential falls short at every point over F_p, so its
rank is checked there too.  Enumeration, corner, sampling and rank are
all computed here; only `representable` comes from curvedet.
"""

import random
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from curvedet import representable

P = 32003
SEEDS = (0, 1, 2)
# (n, B): 637 + 560 + 234 squares
RANGES = ((2, 6), (3, 4), (4, 3))


def squares(n: int, bound: int):
    """Every well-ordered n x n grid u_i + v_j in the range, of degree >= 1, with its degree."""
    for tail in combinations_with_replacement(range(0, -bound - 1, -1), n - 1):
        u = (0, *tail)
        for v in combinations_with_replacement(range(-bound, bound + 1), n):
            d = sum(u) + sum(v)
            if d >= 1:
                yield [[ui + vj for vj in v] for ui in u], d


def zero_corner(grid, d: int) -> bool:
    n = len(grid)
    for k in range(1, n + 1):
        if all(grid[i][j] < 0 for i in range(k - 1, n) for j in range(k)):
            return True  # det = 0
        if k > 1 and all(grid[i][j] < 0 for i in range(k - 1, n) for j in range(k - 1)):
            e = sum(grid[i][i] for i in range(k - 1, n))
            if 0 < e < d:
                return True  # det = det(leading block) * det(trailing block)
    return False


def exponents(m: int) -> list[tuple[int, int, int]]:
    return [(i, j, m - i - j) for i in range(m + 1) for j in range(m - i + 1)]


def monomial_values(points, m: int) -> np.ndarray:
    """Each monomial of degree m at each point mod P: points x monomials."""
    powers = [[[pow(int(c), e, P) for e in range(m + 1)] for c in point] for point in points]
    return np.array([[x[i] * y[j] % P * z[k] % P for i, j, k in exponents(m)] for x, y, z in powers],
                    dtype=np.int64)


def det_stack(a: np.ndarray) -> np.ndarray:
    """Determinants mod P of a stack of k x k matrices, by the Leibniz sum."""
    k = a.shape[1]
    total = np.zeros(a.shape[0], dtype=np.int64)
    for perm in permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = np.ones(a.shape[0], dtype=np.int64)
        for i, j in enumerate(perm):
            term = term * a[:, i, j] % P
        total = (total + sign * term) % P
    return total


def rank_mod(a: np.ndarray) -> int:
    """Rank mod P by row reduction, over the shorter side."""
    a = (a.T if a.shape[1] > a.shape[0] else a) % P
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, P) % P
        a[rank + 1 :] = (a[rank + 1 :] - np.outer(a[rank + 1 :, col], a[rank])) % P
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def tangent_rank(grid, d: int, seed: int) -> int:
    """The rank at plane_dim(d) random points of the differential of det at a random N."""
    rng = random.Random(f"{grid} {seed}")
    n = len(grid)
    points = [[rng.randrange(P) for _ in range(3)] for _ in range((d + 1) * (d + 2) // 2)]
    tables = {m: monomial_values(points, m) for m in {m for row in grid for m in row if m >= 0}}
    values = np.zeros((len(points), n, n), dtype=np.int64)
    for i, j in np.ndindex(n, n):
        m = grid[i][j]
        if m >= 0:
            coeffs = np.array([rng.randrange(P) for _ in range(tables[m].shape[1])], dtype=np.int64)
            values[:, i, j] = tables[m] @ coeffs % P
    blocks = []
    for i, j in np.ndindex(n, n):
        if grid[i][j] >= 0:
            rest = np.delete(np.delete(values, i, axis=1), j, axis=2)
            cofactor = (-1) ** (i + j) * det_stack(rest) % P
            blocks.append(cofactor[:, None] * tables[grid[i][j]] % P)
    return rank_mod(np.hstack(blocks))


CENSUS = [(grid, d) for n, bound in RANGES for grid, d in squares(n, bound)]


def test_the_census_has_its_size():
    assert len(CENSUS) == 1431
    assert sum(representable(grid).verdict for grid, _ in CENSUS) == 724


@pytest.mark.parametrize("n, bound", RANGES)
def test_every_verdict_is_proved(n, bound):
    for grid, d in squares(n, bound):
        decision = representable(grid)
        assert decision.degree == d
        full = (d + 1) * (d + 2) // 2
        if decision.verdict:
            assert any(tangent_rank(grid, d, seed) == full for seed in SEEDS), grid
        else:
            assert zero_corner(grid, d), grid
            assert tangent_rank(grid, d, SEEDS[0]) < full, grid

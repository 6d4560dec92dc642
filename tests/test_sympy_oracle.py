"""The F_p layer against sympy's exact arithmetic over GF(p), which shares no code with it.

Determinants of numbers and of forms, maximal minors, signed sums of
products, ranks, graded pieces of the minor ideal, gcds and the
subscheme witness's minors restricted to a line
are each compared with sympy's `DomainMatrix` over GF(p) or
GF(p)[x, y, z], at p = 2, 3, 7 and 32003, rank-deficient inputs
included.  sympy is a test dependency only.
"""

import random

import pytest

from curvedet import Form, det_form, ideal_dim, iter_dhb_matrices, maximal_minors, plane_dim
from curvedet.degree_matrix import DegreeMatrix
from curvedet.witness import (
    FormMatrix,
    _coprime,
    _det_numeric,
    _form_dot,
    _forms,
    _layout,
    _minors_in_z,
    _rank,
    _residues,
    zero_form,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = (2, 3, 7, 32003)
X, Y, Z = sympy.symbols("x y z")


def monomials(m: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree m in graded-lex order, x > y > z."""
    return tuple((i, j, m - i - j) for i in range(m, -1, -1) for j in range(m - i, -1, -1))


def ring(p: int):
    return sympy.GF(p)[X, Y, Z]


def to_ring(f: Form):
    """f as an element of GF(p)[x, y, z]; its coefficients follow `monomials`."""
    R = ring(f.prime)
    if f.is_zero:
        return R.zero
    return R.ring.from_dict(dict(zip(monomials(f.degree), f.coeffs)))


def as_dict(element, p: int) -> dict:
    """The nonzero coefficients of a GF(p)[x, y, z] element by exponent triple, in [0, p)."""
    return {e: int(c) % p for e, c in dict(element).items() if int(c) % p}


def form_dict(f: Form) -> dict:
    return {} if f.is_zero else {e: c for e, c in zip(monomials(f.degree), f.coeffs) if c}


def rank_deficient(rng: random.Random, n: int, r: int, p: int) -> list[list[int]]:
    """An n x n matrix mod p of rank at most r, a product of n x r and r x n factors."""
    left = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
    right = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) % p for j in range(n)] for i in range(n)]


def random_forms(grid, rng: random.Random, p: int, copy: tuple[int, int] | None = None) -> FormMatrix:
    """Random forms of the grid's degrees; with `copy` = (i, k), row k is c times row i
    (rows of equal degrees), so the matrix has a dependent row."""
    layout = _layout(grid)
    forms = _forms(_residues(rng, layout[-1][2], p), layout, p)
    cols = len(grid[0])
    rows = [forms[i : i + cols] for i in range(0, len(forms), cols)]
    if copy is not None:
        i, k = copy
        c = Form(0, (rng.randrange(p),), p)
        rows[k] = [c * f for f in rows[i]]
    return FormMatrix(tuple(map(tuple, rows)), DegreeMatrix.from_grid(grid), p)


def sympy_det(rows, p: int) -> dict:
    R = ring(p)
    entries = [[to_ring(f) for f in row] for row in rows]
    return as_dict(DomainMatrix(entries, (len(entries), len(entries)), R).det(), p)


def square_grids(rng: random.Random, n: int, count: int) -> list[list[list[int]]]:
    """Homogeneous n x n grids u_i + v_j, some entries negative, of degree >= 0."""
    grids = []
    while len(grids) < count:
        u = [rng.randint(-1, 2 if n <= 3 else 1) for _ in range(n)]
        v = [rng.randint(0, 2 if n <= 3 else 1) for _ in range(n)]
        if sum(u) + sum(v) >= 0:
            grids.append([[ui + vj for vj in v] for ui in u])
    return grids


@pytest.mark.parametrize("p", PRIMES)
def test_numeric_determinants_and_ranks(p):
    rng = random.Random(f"numeric {p}")
    K = sympy.GF(p)
    for n in range(1, 7):
        for r in range(n + 1):
            mat = rank_deficient(rng, n, r, p)
            exact = DomainMatrix([[K(c) for c in row] for row in mat], (n, n), K)
            assert _det_numeric(mat, p) == int(exact.det()) % p
            assert _rank(mat, p) == exact.rank() <= r
            if r < n:
                assert _det_numeric(mat, p) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_det_form(p):
    rng = random.Random(f"det {p}")
    for n in range(1, 5):
        for grid in square_grids(rng, n, 3):
            N = random_forms(grid, rng, p)
            assert form_dict(det_form(N)) == sympy_det(N.entries, p)
    # a dependent row: rows 1 and 2 of equal degrees, the second a multiple of the first
    for n in range(2, 5):
        grid = [[1 + j for j in range(n)]] * 2 + [[j for j in range(n)]] * (n - 2)
        N = random_forms(grid, rng, p, copy=(0, 1))
        assert det_form(N).is_zero and sympy_det(N.entries, p) == {}


@pytest.mark.parametrize("p", PRIMES)
def test_maximal_minors(p):
    rng = random.Random(f"minors {p}")
    cases = [(Q.entries, None) for n, bound in ((2, 2), (3, 2), (4, 1)) for Q in iter_dhb_matrices(n, bound)]
    cases = rng.sample(cases, 12) + [(((1, 1, 1), (1, 1, 1)), (0, 1)), (((2, 2, 3, 3),) * 3, (1, 2))]
    for grid, copy in cases:
        A = random_forms(grid, rng, p, copy)
        n = len(grid[0])
        for j, g in enumerate(maximal_minors(A)):
            rows = [row[:j] + row[j + 1 :] for row in A.entries]
            expected = sympy_det(rows, p)
            # minor j + 1 carries the sign (-1)^(j + 1)
            assert form_dict(g) == (expected if j % 2 else {e: -c % p for e, c in expected.items()})
            if copy is not None:
                assert g.is_zero
        assert len(maximal_minors(A)) == n


@pytest.mark.parametrize("p", PRIMES)
def test_signed_sums_of_products(p):
    rng = random.Random(f"dot {p}")
    R = ring(p)
    for _ in range(20):
        m = rng.randint(0, 8)
        terms = []
        for _ in range(rng.randint(1, 4)):
            e = rng.randint(0, m)
            f, g = (Form(k, tuple(_residues(rng, plane_dim(k), p)), p) for k in (e, m - e))
            terms.append((f, g, rng.random() < 0.5))
        if rng.random() < 0.3:  # a term and its negation cancel
            f, g, negative = terms[0]
            terms.append((g, f, not negative))
        expected = R.zero
        for f, g, negative in terms:
            expected += (-1 if negative else 1) * to_ring(f) * to_ring(g)
        assert form_dict(_form_dot(terms, p)) == as_dict(expected, p)
    assert _form_dot([(zero_form(p), zero_form(p), False)], p) == zero_form(p)


@pytest.mark.parametrize("p", PRIMES)
def test_graded_pieces_of_the_minor_ideal(p):
    # ideal_dim against the rank of every monomial multiple of every minor,
    # each product taken in GF(p)[x, y, z]
    rng = random.Random(f"ideal {p}")
    R = ring(p)
    for grid in ([[2, 3, 5], [1, 2, 4]], [[1, 1, 1], [1, 1, 1]], [[2, 2]], [[1, 1, 2, 2], [1, 1, 2, 2], [0, 0, 1, 1]]):
        A = random_forms(grid, rng, p)
        minors = maximal_minors(A)
        for t in range(max(g.degree for g in minors) + 3):
            products = [to_ring(g) * R.ring.from_dict({e: 1}) for g in minors if not g.is_zero and g.degree <= t
                        for e in monomials(t - g.degree)]
            columns = {e: i for i, e in enumerate(monomials(t))}
            rows = [[0] * len(columns) for _ in products]
            for row, h in zip(rows, products):
                for e, c in as_dict(h, p).items():
                    row[columns[e]] = c
            K = sympy.GF(p)
            exact = DomainMatrix([[K(c) for c in row] for row in rows], (len(rows), len(columns)), K)
            assert ideal_dim(minors, t) == (exact.rank() if rows else 0)


@pytest.mark.parametrize("p", PRIMES)
def test_coprime_is_a_gcd_of_degree_zero(p):
    rng = random.Random(f"gcd {p}")
    for _ in range(60):
        f, g = ([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 4))] for _ in range(2))
        if rng.random() < 0.4:  # a common factor z - c
            c = rng.randrange(p)
            f, g = ([(a - c * b) % p for a, b in zip(h + [0], [0] + h)] for h in (f, g))
        exact = sympy.Poly(f, Z, modulus=p).gcd(sympy.Poly(g, Z, modulus=p))
        assert _coprime(f, g, p) is (exact.degree() == 0)


@pytest.mark.parametrize("p", PRIMES)
def test_line_route_minors_on_a_line(p):
    # the polynomials in z that a subscheme trial expands on the line
    # x = x0, y = y0 are maximal_minors restricted to it, times x0^(-a_j)
    # where x0 != 0, at every prime: at 2, 3 and 7 some minor degrees reach p
    rng = random.Random(f"line {p}")
    gens = ring(p).ring.gens
    checked = reached = 0
    for n, bound in ((2, 3), (3, 2), (4, 1)):
        for Q in iter_dhb_matrices(n, bound):
            layout = _layout(Q.entries)
            coeffs = _residues(rng, layout[-1][2], p)
            minors = maximal_minors(FormMatrix(tuple(tuple(_forms(coeffs, layout, p)[i : i + n])
                                                     for i in range(0, (n - 1) * n, n)), Q, p))
            for x0, y0 in ((rng.randrange(p), rng.randrange(p)), (0, rng.randrange(p))):
                in_z = _minors_in_z(coeffs, layout, n, x0, y0, p)
                for g, aj, poly in zip(minors, Q.minor_degrees, in_z):
                    restricted = to_ring(g).evaluate([(gens[0], x0), (gens[1], y0)])
                    unit = pow(x0, -aj, p) if x0 else 1
                    exact = [0] * (aj + 1)
                    for (k,), c in dict(restricted).items():
                        exact[aj - k] = int(c) * unit % p
                    assert (poly or [0] * (aj + 1)) == exact
                checked += 1
            reached += Q.minor_degrees[0] >= p
    assert checked >= 3 and (reached > 0) is (p < 32003)

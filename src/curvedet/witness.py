"""Randomized constructive verification over a prime field.

Decisions about general forms are checked by sampling: build a matrix of
random forms realizing a degree matrix over F_p, measure the degree of a
square's determinant on random lines, compute maximal minors by exact
cofactor expansion, and compare the Hilbert function of the minor ideal
with the prediction.  A negative containment verdict is witnessed on its
inserted square like a representability verdict.

A trial first tries a cheap check that proves its fact and computes in
full only when that fails, so a report is the same either way.  A yes
square's det(N(Q)) is the s^d coefficient of det(N) on the line P + sQ.
A no rests on a zero corner, read once per report from the degree grid
(f_ij = 0 where m_ij < 0).  A negative diagonal entry's forces det(N) = 0
(Frobenius-Koenig), so that report samples nothing; a negative
subdiagonal entry's makes N block upper triangular, and block values at Q
whose product is nonzero and equals det(N(Q)) prove a trial.  A grid
without the corner runs every trial in full.  A yes subscheme trial is
settled when the curve F is nonzero at (1, 0, 0) and two maximal minors
are shown coprime on lines x = x0, y = y0, which proves the Hilbert
function at every level to be the prediction, the alternating sum of the
Hilbert-Burch twists.  Products of forms and their signed sums,
`_form_dot`, go run by run through `_z_dot`, the lines' product in z.

A polynomial on the line is kept as its values at s = 0..D, which fix it
when its degree is at most D < p; its degree is read from their forward
differences.  One point evaluator, `_values_at`, gives N's entries at a
point: a square trial calls it at Q for its proof and at each of the
d + 1 nodes P + sQ in full, and reads det(N) and both blocks'
determinants from those values, so a factorization is checked value by
value.  Where a verdict fixes the degree of a determinant or of a block,
a line may lower that degree but not raise it: a block of higher degree
fails its trial (det(N), read from d + 1 values, cannot exceed d).

A curve through the scheme is the determinant F of the presentation
matrix with a row r of random forms inserted at position pos.  The
Laplace expansion along that row is F = (-1)^pos * sum_j r_j g_j over
the signed maximal minors g_j, so F lies in the minor ideal, and the
witness computes F as that combination.  F(1, 0, 0), its x^d
coefficient, is the determinant of the entries' x^m coefficients, the
first of each entry's run, and nonzero it shows F != 0.  The coprime
check works on the lines x = x0, y = y0, at every prime: Q's entries
there are polynomials in z, read from their coefficient runs, and the
cofactor expansion over them gives each g_j(x0, y0, z) up to a unit, one
minor at a time.  F(1, 0, 0) nonzero and two minors shown coprime settle
the trial with no form built.  Otherwise the minors and F are expanded
as forms.

A degree lost on one line, a zero F, or a level of the Hilbert function
whose rank falls short is a Schwartz-Zippel event, bad luck that a small
prime makes likely, and any trial that shows the fact settles it.  One
rule, `_unsettled`, turns every trial's outcomes into a report's
mismatches: such a check is a mismatch only if it fails in every trial
that makes it, each distinct message once.  A hard text (a block above
its degree, blocks that do not multiply, a nonzero determinant for a
diagonal no) is always a mismatch, and any one of them leaves the
unsettled checks unreported.

A sampled matrix draws all its coefficients at once, entry by entry in
row order: one `getrandbits` call of 32 bits per coefficient, whose
words each keep their top p.bit_length() bits unless those are >= p,
plus a round for the shortfall.  That is the stream of one `randrange(p)`
per coefficient, and it leaves the generator where those calls would.
A trial draws once and reads every value from that draw, through one
(degree, start, end) layout per report: a square trial draws N and then
its line's point and direction, a subscheme trial Q's rows and then the
inserted row, as the rows of one homogeneous grid.  Only a subscheme
trial that F(1, 0, 0) and its lines do not settle builds `Form`s, from
the same draw; no matrix is checked again.

One elimination kernel, `_rank`, serves every graded rank: forward
elimination mod p on an int64 array, whose rows place each run of a
minor's coefficients by one slice.  Only it uses numpy, imported on
first use, so decisions, square witnesses and the subscheme trials that
coprime minors settle never load it.  A witness prime must be a prime
below 2^31, so that a product of two residues fits in int64; primality
is checked by a deterministic Miller-Rabin test, once per prime.

Forms are dense vectors of residues mod p, reduced when built, indexed
by the graded lexicographic order on monomials x^i y^j z^k (x > y > z)
within each degree.  Serialized coefficient vectors follow this order exactly.  In
degree m, coefficient a(a + 1)/2 + i belongs to x^(m - a) y^(a - i) z^i:
run a is x^(m - a) times a form of degree a in y, z.  At a point with x
nonzero that monomial is x^m (y/x)^(a - i) (z/x)^i, so one list of these
ratios per point, `_ratios`, serves every degree as a prefix: square
entries and the entries restricted to a line x = x0, y = y0 both read
it.  Where x = 0 only run m survives, and the list built from y and z
gives its values.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, dropwhile
from math import comb
from operator import add, mul, not_, sub

from .decide import REASON_DIAGONAL, REASON_SUBDIAGONAL, Decision, contains_subscheme, representable
from .degree_matrix import DegreeMatrix, DHBMatrix, _Record
from .errors import CofactorBudgetError, FieldTooSmallError, InvalidWitnessParameterError, WitnessBudgetError
from .resolution import betti_of_matrix, hilbert_function, plane_dim

DEFAULT_PRIME = 32003
# primes stay below this so that a product of two residues fits in int64
_PRIME_BOUND = 2**31
#: Past this many residues drawn and monomial values charged over all
#: trials (`_check_work`), a witness is refused before it samples.  Measured
#: on one core (Python 3.11): 0.06-0.11 us per drawn coefficient, 0.09-0.15 us
#: and 40 bytes per tabulated value, so 6-15 s at the budget.  The estimate
#: charges a square trial's full path, which evaluates every entry at each of
#: the d + 1 nodes, and a point at (top + 3)/3 times the plane_dim(top)
#: ratios it tabulates; a diagonal no whose grid proves it draws nothing and
#: is not charged.  A subscheme trial is charged its draw, Q and the inserted
#: row, and three points at top = max a_j, one per line x = x0, y = y0 it
#: tries; there it restricts Q's entries to polynomials in z and expands
#: their minors.  Only a trial that F(1, 0, 0) and its lines leave unsettled
#: expands cofactor products of forms, whose size that excess charge is all
#: that refuses.
WITNESS_BUDGET = 10**8


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not (isinstance(p, int) and not isinstance(p, bool) and p < _PRIME_BOUND and _is_prime(p)):
        raise InvalidWitnessParameterError(
            f"prime must be a prime below 2^31, got {p}", parameter="prime", value=p
        )


def _check_work(grid, trials: int, points: int, top: int) -> None:
    """Raise WitnessBudgetError when `trials` trials would draw and tabulate
    more than WITNESS_BUDGET residues.  A trial draws plane_dim(m)
    coefficients for each entry of `grid` of degree m >= 0 and is charged the
    C(top + 3, 3) monomials of degree <= top at `points` points, (top + 3)/3
    times the plane_dim(top) ratios that any point tabulates.  A diagonal
    no that its grid proves draws nothing and is not checked."""
    estimate = trials * (sum(plane_dim(m) for row in grid for m in row) + points * comb(top + 3, 3))
    if estimate > WITNESS_BUDGET:
        raise WitnessBudgetError(f"a witness of trials = {trials} would draw and tabulate {estimate:,} residues, "
                                 f"over the budget of {WITNESS_BUDGET:,}", estimate=estimate, budget=WITNESS_BUDGET)


def _check_witness_parameters(trials: int, seed: int, prime: int) -> None:
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidWitnessParameterError(
                f"{name} must be an integer, got {value!r}", parameter=name, value=value
            )
    if trials < 1:
        raise InvalidWitnessParameterError(
            f"trials must be at least 1, got {trials}", parameter="trials", value=trials
        )
    _check_prime(prime)


class Form(_Record):
    """A homogeneous trivariate polynomial over F_p (dense coefficients).

    The zero form is represented with degree -1 and no coefficients; an
    all-zero coefficient vector of non-negative degree is also zero.  The
    constructor reduces the coefficients mod p, so every form holds
    residues.  Negations and products return the zero form when they
    vanish.  The prime must be a witness prime (`_check_prime`).
    """

    _fields = ("degree", "coeffs", "prime")

    def __init__(self, degree: int, coeffs: tuple[int, ...], prime: int):
        _check_prime(prime)
        expected = plane_dim(degree) if degree >= 0 else 0
        if len(coeffs) != expected:
            raise ValueError(f"degree-{degree} form needs {expected} coefficients")
        if coeffs and not (min(coeffs) >= 0 and max(coeffs) < prime):
            coeffs = tuple([c % prime for c in coeffs])
        self._set(degree, coeffs, prime)

    @property
    def is_zero(self) -> bool:
        return self.degree < 0 or not any(self.coeffs)

    def __neg__(self) -> "Form":
        p = self.prime
        coeffs = tuple([-c % p for c in self.coeffs])
        return Form._trusted(self.degree, coeffs, p) if any(coeffs) else zero_form(p)

    def __mul__(self, other: "Form") -> "Form":
        if other.prime != self.prime:
            raise ValueError(f"cannot multiply forms over F_{self.prime} and F_{other.prime}")
        return _form_dot(((self, other, False),), self.prime)


def _form_dot(terms, p: int) -> Form:
    """The sum of f * g, or of -f * g where `negative`, over the terms
    (f, g, negative), whose nonzero products must all have one degree m.

    Run a of f times run b of g is run a + b of f * g (`_runs`), a
    product of polynomials in z, so run s of the sum is one `_z_dot` over
    the pairs of runs (a, s - a) of every term, the lower degree's run
    first, since `_z_dot` loops over its first factor.
    """
    live = [(_runs(f), _runs(g), negative) if f.degree <= g.degree else (_runs(g), _runs(f), negative)
            for f, g, negative in terms if not (f.is_zero or g.is_zero)]
    if not live:
        return zero_form(p)
    m = len(live[0][0]) + len(live[0][1]) - 2
    if any(len(f) + len(g) - 2 != m for f, g, _ in live):
        raise ValueError("cannot add forms of different degrees")
    coeffs: list[int] = []
    for s in range(m + 1):
        coeffs += _z_dot([(f[a], g[s - a], negative)
                          for f, g, negative in live for a in range(max(s - len(g) + 1, 0), min(s + 1, len(f)))], p)
    return Form._trusted(m, tuple(coeffs), p) if any(coeffs) else zero_form(p)


def _runs(f: Form) -> list:
    """The runs a = 0..m of a form f of degree m: run a, x^(m - a) times a
    form of degree a in y and z, is its a + 1 coefficients of y^(a - i) z^i,
    i = 0..a: a polynomial in y/z, highest power first, as `_z_dot` takes one."""
    return [f.coeffs[a * (a + 1) // 2 : (a + 1) * (a + 2) // 2] for a in range(f.degree + 1)]


def zero_form(prime: int) -> Form:
    return Form._trusted(-1, (), prime)


def _residues(rng: random.Random, count: int, p: int) -> list[int]:
    """The values of `count` calls of rng.randrange(p), leaving rng where they
    would: each keeps the top p.bit_length() bits of the next 32-bit word
    unless they are >= p, getrandbits(32 c) returns c words, least
    significant first, and a round draws only the shortfall.  One mask and
    one shift of that integer keep every word's top bits at once."""
    # callers check p (`_check_prime`), so randrange(p) reads one 32-bit word; array("I") items may not be 32-bit
    if array("I").itemsize != 4:
        return [rng.randrange(p) for _ in range(count)]
    bits = p.bit_length()
    word_mask = (2**bits - 1 << 32 - bits).to_bytes(4, "little")
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        kept = rng.getrandbits(32 * need) & int.from_bytes(word_mask * need, "little")
        words = array("I", (kept >> 32 - bits).to_bytes(4 * need, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        out += [v for v in words if v < p]
    return out


class FormMatrix(_Record):
    """A matrix of forms realizing an integer degree matrix.

    The entries have the degree matrix's shape and are forms over F_prime.
    Entries at negative-degree slots are identically zero; every other
    entry has exactly the prescribed degree.
    """

    _fields = ("entries", "degree_matrix", "prime")

    def __init__(self, entries: tuple[tuple[Form, ...], ...], degree_matrix: DegreeMatrix, prime: int):
        grid = degree_matrix.entries
        if len(entries) != len(grid) or any(len(row) != len(grid[0]) for row in entries):
            raise ValueError(f"entries must have the {len(grid)} x {len(grid[0])} shape of the degree matrix")
        for i, row in enumerate(entries):
            for j, f in enumerate(row):
                m = grid[i][j]
                if f.prime != prime:
                    raise ValueError(f"entry ({i + 1},{j + 1}) is over F_{f.prime}, expected F_{prime}")
                if m < 0:
                    if not f.is_zero:
                        raise ValueError(f"entry ({i + 1},{j + 1}) must vanish (degree {m})")
                elif f.degree != m and not f.is_zero:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) has degree {f.degree}, expected {m}"
                    )
        self._set(entries, degree_matrix, prime)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


def sample_matrix(M, rng: random.Random, prime: int = DEFAULT_PRIME) -> FormMatrix:
    """Random forms of the prescribed degrees; zero where the degree is negative.

    The coefficients and rng's state are those of one rng.randrange(prime)
    per coefficient, entry by entry in row order: one draw, sliced by
    `_layout`.  The prime is checked (`_check_prime`) before anything is drawn."""
    _check_prime(prime)
    if not isinstance(M, DegreeMatrix):
        M = DegreeMatrix.from_grid(M)
    layout = _layout(M.entries)
    forms = _forms(_residues(rng, layout[-1][2], prime), layout, prime)
    n = len(M.entries[0])
    # each entry has its degree by construction: no checks
    return FormMatrix._trusted(tuple(tuple(forms[i : i + n]) for i in range(0, len(forms), n)), M, prime)


def _layout(grid) -> list[tuple[int, int, int]]:
    """(m, start, end) for each entry m of the grid in row order: where its
    plane_dim(m) coefficients sit in one flat draw, whose length is the last end."""
    degrees = [m for row in grid for m in row]
    ends = list(accumulate(map(plane_dim, degrees), initial=0))
    return list(zip(degrees, ends, ends[1:]))


def _forms(coeffs, layout, p: int) -> list[Form]:
    """The forms whose coefficients `layout` places in the flat draw `coeffs`, in
    row order; the zero form where the degree is negative."""
    coeffs, zero = tuple(coeffs), zero_form(p)
    return [Form._trusted(m, coeffs[a:b], p) if m >= 0 else zero for m, a, b in layout]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _det_numeric(mat: list[list[int]], p: int) -> int:
    """Determinant of a small integer matrix mod p by Gaussian elimination."""
    n = len(mat)
    a = list(mat)  # a row is replaced by its reduction, never changed in place
    det = 1
    for col in range(n):
        for pivot in range(col, n):
            if a[pivot][col] % p:
                break
        else:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        head = a[col]
        det = det * head[col] % p
        inv = pow(head[col], -1, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], head)]
    return det % p


def det_form(N: FormMatrix) -> Form:
    """Full trivariate determinant by cofactor expansion, one `_form_dot`
    per level.  Subdeterminants are memoized on the column subset, so the
    n minors of an (n-1) x n matrix share all their recursive work.
    Intended for small matrices (n <= 6).
    """
    if N.rows != N.cols:
        raise ValueError("determinant needs a square matrix")
    return _det_cofactor(N.entries, tuple(range(N.cols)), {}, _form_dot, N.prime)


def _det_cofactor(rows, cols: tuple[int, ...], memo: dict, dot, p: int):
    """The determinant of the trailing len(cols) rows in the columns `cols`,
    expanded along its first row: dot(terms, p) is the ring's signed sum of
    products (`_form_dot`, `_z_dot`), which skips its zero entries."""
    hit = memo.get(cols)
    if hit is not None:
        return hit
    row = rows[len(rows) - len(cols)]  # expand along this row; trailing rows pair with cols
    if len(cols) == 1:
        return row[cols[0]]
    result = memo[cols] = dot([(row[j], _det_cofactor(rows, cols[:idx] + cols[idx + 1 :], memo, dot, p), idx % 2 == 1)
                               for idx, j in enumerate(cols)], p)
    return result


def maximal_minors(A: FormMatrix) -> tuple[Form, ...]:
    """The n signed maximal minors of an (n-1) x n matrix of forms.

    Minor j erases column j (1-based) and carries the sign (-1)^j.  A
    homogeneous matrix gives each nonzero minor j the degree a_j, and for
    a valid presentation matrix the minors generate the ideal of the
    scheme.
    """
    if A.rows + 1 != A.cols:
        raise ValueError("maximal minors expect an (n-1) x n matrix")
    _check_cofactor_budget(A.cols)
    memo: dict = {}
    cols = tuple(range(A.cols))
    out = []
    for j in range(A.cols):
        det = _det_cofactor(A.entries, cols[:j] + cols[j + 1 :], memo, _form_dot, A.prime)
        out.append(det if (j + 1) % 2 == 0 else -det)
    return tuple(out)


def _check_cofactor_budget(n: int) -> None:
    if n > 6:
        raise CofactorBudgetError(f"cofactor expansion budget is n <= 6, got n = {n}")


# ---------------------------------------------------------------------------
# degree measurement on random lines
# ---------------------------------------------------------------------------


def _poly_degree(values: list[int], p: int) -> int | None:
    """Degree mod p of the polynomial of degree < len(values) <= p that
    takes `values` at s = 0, 1, ..., or None if it vanishes.

    In the Newton forward basis f = sum_k (Delta^k f)(0) * C(s, k), and
    C(s, k) has degree k with leading coefficient 1/k!, a unit mod p
    because k < p; so the degree is the highest k with (Delta^k f)(0)
    nonzero mod p.  The differences stay exact.
    """
    degree, row = None, values
    for k in range(len(values)):
        if row[0] % p:
            degree = k
        row = list(map(sub, row[1:], row))
    return degree


def restrict_det_to_line(N: FormMatrix, line, max_degree: int) -> list[int]:
    """Values mod p of det(N) at s = 0..max_degree on the line (P, Q), the
    parametrization s -> P + s Q: they fix a restriction of degree at most
    max_degree, and `_poly_degree` reads its degree from them."""
    if N.rows != N.cols:
        raise ValueError("determinant needs a square matrix")
    p = N.prime
    if p <= max_degree:
        raise FieldTooSmallError(f"prime {p} is too small for degree {max_degree} on a line")
    layout = _layout([[f.degree for f in row] for row in N.entries])
    coeffs = [c for row in N.entries for f in row for c in f.coeffs]
    points = [[a + s * b for a, b in zip(*line)] for s in range(max_degree + 1)]
    return [_det_numeric(_values_at(coeffs, layout, N.cols, point, p), p) for point in points]


def _values_at(coeffs, layout, n: int, point, p: int) -> list[list[int]]:
    """The values mod p at `point` of a square's entries, whose coefficients
    `layout` (`_layout`) places in the flat `coeffs`, n to a row and zero
    where the degree is negative, as an n x n matrix.

    An entry of degree m is x^m times its dot product with
    `_ratios(y/x, z/x)`; where x = 0, only its run m with `_ratios(y, z)`.
    """
    x, y, z = (c % p for c in point)
    top = max(m for m, _, _ in layout)
    inv = pow(x, -1, p) if x else 1
    flat = _ratios(y * inv % p, z * inv % p, top, p)
    if x:
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * x % p)
        values = [powers[m] * sum(map(mul, coeffs[a:b], flat)) % p if m >= 0 else 0 for m, a, b in layout]
    else:  # run m sits at m(m + 1)/2 = plane_dim(m) - m - 1
        values = [sum(map(mul, coeffs[b - m - 1 : b], flat[b - a - m - 1 :])) % p for m, a, b in layout]
    return [values[i : i + n] for i in range(0, len(values), n)]


def _ratios(u: int, v: int, top: int, p: int) -> list[int]:
    """u^(a - i) v^i mod p at position a(a + 1)/2 + i, i = 0..a, for the runs
    a = 0..top; a form of degree m reads the prefix of length plane_dim(m)."""
    run, flat = [1], [1]
    for _ in range(top):
        run = [u * c % p for c in run] + [v * run[-1] % p]
        flat += run
    return flat


# ---------------------------------------------------------------------------
# graded pieces of the minor ideal
# ---------------------------------------------------------------------------


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank mod p by forward elimination.

    Rows at and below the current pivot are zero left of the pivot
    column, so each pivot is one vectorized rank-1 update of the
    remaining columns of the rows below that are nonzero there.
    Entries stay in [0, p) with p < 2^31, so every product fits in int64.
    """
    _check_prime(p)
    if not rows:
        return 0
    import numpy as np

    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    r = 0  # pivots found so far
    for col in range(n):
        if r == m:
            break
        nonzero = np.flatnonzero(a[r:, col])
        if not nonzero.size:
            continue
        if nonzero[0]:
            a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r, col:] = a[r, col:] * pow(int(a[r, col]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, col])
        if below.size:
            a[below, col:] = (a[below, col:] - np.outer(a[below, col], a[r, col:])) % p
        r += 1
    return r


def _graded_piece_rows(gens, t: int, p: int) -> list[list[int]]:
    """Coefficient vectors of all monomial multiples of the gens in degree t,
    multipliers in graded-lex order: run a of g times position i of the
    multipliers' run b is one slice of the row, from (a + b)(a + b + 1)/2 + i."""
    rows = []
    width = plane_dim(t)
    for g in gens:
        if g.is_zero or g.degree > t:
            continue
        runs = _runs(g)
        for b in range(t - g.degree + 1):
            for i in range(b + 1):
                row = [0] * width
                for a, run in enumerate(runs):
                    start = (a + b) * (a + b + 1) // 2 + i
                    row[start : start + a + 1] = run
                rows.append(row)
    return rows


def ideal_dim(gens, t: int) -> int:
    """Dimension over F_p of the degree-t piece of the ideal the forms generate."""
    if t < 0:
        raise ValueError("need t >= 0")
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return 0
    p = gens[0].prime
    if any(g.prime != p for g in gens):
        raise ValueError("the forms of an ideal must be over one field")
    return _rank(_graded_piece_rows(gens, t, p), p)


def _subscheme_lines(coeffs, layout, n: int, rng: random.Random, p: int) -> bool:
    """Whether two maximal minors of Q, the (n - 1) x n grid whose entries
    `layout` places in the flat draw `coeffs`, are shown coprime on one of
    three lines x = x0, y = y0, each two rng.randrange(p) calls: read from
    coefficient runs, with no form.

    On each line `_minors_in_z` gives a unit times each g_j(x0, y0, z),
    one minor at a time, and the first coprime pair stops it.  A minor of
    degree e with a nonzero z^e coefficient keeps degree e in z on every
    line, and so do its factors; so two such minors whose restrictions have
    gcd 1 are coprime.  Then the minor ideal has grade 2, the presentation
    resolves it (Hilbert-Burch, Buchsbaum-Eisenbud), and its Hilbert
    function is the alternating sum of the twists.  A gcd of positive
    degree may be bad luck and proves nothing.
    """
    for _ in range(3):
        x0, y0 = rng.randrange(p), rng.randrange(p)
        polys = []  # the minors so far with a nonzero z^(a_j) coefficient
        for g in _minors_in_z(coeffs, layout, n, x0, y0, p):
            if g and g[0]:
                if any(_coprime(f, g, p) for f in polys):
                    return True
                polys.append(g)
    return False


def _minors_in_z(coeffs, layout, n: int, x0: int, y0: int, p: int) -> Iterator[list[int]]:
    """The n signed maximal minors, as in `maximal_minors`, of the
    (n - 1) x n homogeneous grid whose entries `layout` places in `coeffs`,
    restricted to the line x = x0, y = y0: polynomials in z mod p, highest
    power first, [] for a minor with no nonzero term, each expanded as it
    is taken.

    An entry f of degree m restricts to x0^(-m) f(x0, y0, z), whose z^i
    coefficient sums position i of f's runs b >= i times
    `_ratios(y0/x0, 1/x0)`; where x0 = 0, to f(0, y0, z), run m times
    `_ratios(y0, 1)`.  Every transversal of minor j picks up x0^(-a_j), so
    the cofactor expansion of these over `_z_dot` gives x0^(-a_j) g_j(x0, y0, z).
    """
    inv = pow(x0, -1, p) if x0 else 1
    flat = _ratios(y0 * inv % p, inv, max(m for m, _, _ in layout), p)
    entries = []  # [] where m < 0
    for m, start, _ in layout:
        in_z = [0] * (m + 1)
        for b in range(m + 1) if x0 else range(m + 1)[-1:]:  # where x0 = 0, only run m
            run = b * (b + 1) // 2
            in_z[: b + 1] = map(add, in_z, map(mul, coeffs[start + run : start + run + b + 1], flat[run : run + b + 1]))
        entries.append([c % p for c in reversed(in_z)])
    rows, cols, memo = [entries[i : i + n] for i in range(0, len(entries), n)], tuple(range(n)), {}
    for j in range(n):
        g = _det_cofactor(rows, cols[:j] + cols[j + 1 :], memo, _z_dot, p)
        yield g if j % 2 else [-c % p for c in g]


def _z_dot(terms, p: int) -> list[int]:
    """The sum of f * g, or of -f * g where `negative`, over the terms
    (f, g, negative) of polynomials in z over F_p, highest power first,
    whose nonempty products share one degree; [] if none is nonempty."""
    out: list[int] = []
    for f, g, negative in terms:
        if f and g:
            out = out or [0] * (len(f) + len(g) - 1)
            for i, c in enumerate(f):
                c = -c if negative else c
                out[i : i + len(g)] = [h + c * gk for h, gk in zip(out[i : i + len(g)], g)]
    return [c % p for c in out]


def _coprime(f: list[int], g: list[int], p: int) -> bool:
    """Whether polynomials over F_p, nonzero leading coefficient first, have gcd 1 (Euclid)."""
    while len(g) > 1:
        f, inv = f[:], pow(g[0], -1, p)
        for i in range(len(f) - len(g) + 1):
            c = f[i] * inv % p
            for k, gk in enumerate(g, i):
                f[k] = (f[k] - c * gk) % p
        f, g = g, list(dropwhile(not_, f[max(len(f) - len(g) + 1, 0) :]))
    return len(g) == 1


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class WitnessReport(_Record):
    """What the trials saw.  The three lists, fresh and empty unless given, are filled in place."""

    _fields = ("seed", "prime", "trials", "verdict_checked", "observed_degrees", "hf_profile", "mismatches")

    def __init__(self, seed: int, prime: int, trials: int, verdict_checked: dict,
                 observed_degrees=None, hf_profile=None, mismatches=None):
        lists = [[] if x is None else x for x in (observed_degrees, hf_profile, mismatches)]
        self._set(seed, prime, trials, verdict_checked, *lists)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "prime": self.prime,
            "trials": self.trials,
            "verdictChecked": self.verdict_checked,
            "observedDegrees": self.observed_degrees,
            "hfProfile": self.hf_profile,
            "mismatches": self.mismatches,
        }


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * 1_000_003 + trial)


def verify_representable(grid, trials: int = 10, seed: int = 0,
                         prime: int = DEFAULT_PRIME) -> WitnessReport:
    """Check a representability decision by random sampling.

    yes: some trial must restrict to the full degree d.  no by a
    negative diagonal entry: every restriction must vanish identically.
    no by a bad subdiagonal block: the determinant must factor as the
    product of the two block determinants, of degrees d - e' and e',
    which some trial must show, and neither block may exceed its degree.
    The determinant's degree is read from its values at d + 1 nodes, so it
    never exceeds d.

    The zero corner of a no is read from the degree grid; a diagonal
    verdict's forces det(N) = 0, so no trial samples.  Otherwise a trial
    is settled by a proof at the line's direction Q (see `_square_trial`)
    or runs in full at the d + 1 nodes.  N is evaluated once per point,
    every entry at Q for a proof and at each node in full, and det(N) and
    both blocks are read from those values.
    """
    _check_witness_parameters(trials, seed, prime)
    return _verify_square(representable(grid), trials, seed, prime)


def _verify_square(decision: Decision, trials: int, seed: int, prime: int) -> WitnessReport:
    """The trials of `verify_representable` on the square `decision.normalized`."""
    report = WitnessReport(seed, prime, trials, decision.to_json())
    grid, d, k, e = decision.normalized, decision.degree, decision.k, decision.block_degree
    if prime <= d:
        raise FieldTooSmallError(f"prime {prime} is too small for degree {d}")
    subdiagonal = decision.reason == REASON_SUBDIAGONAL
    # a no's zero corner, rows k..n by columns 1..k (1..k - 1 for a block), read from the grid; a yes needs none
    corner = decision.verdict or all(m < 0 for row in grid[k - 1 :] for m in row[: k - 1 if subdiagonal else k])
    if corner and decision.reason == REASON_DIAGONAL:
        report.observed_degrees.extend([None] * trials)  # det(N) = 0 for every N: nothing to sample
        return report
    # a trial's full path tabulates at the d + 1 nodes of its line;
    # the well-ordered square's largest entry is its top right one
    _check_work(grid, trials, d + 1, max(grid[0][-1], 0))
    layout = _layout(grid)  # where each entry's coefficients sit in a trial's draw
    # name: (degree, its place in a trial's degrees) of what the verdict fixes
    fixed = {"full": (d, 0)} if decision.verdict else {}
    if subdiagonal:
        fixed = {"leading block": (d - e, 1), "trailing block": (e, 2)}
    outcomes = []  # (check, message or None) in trial order; check None for a hard text
    for trial in range(trials):
        # N's coefficients, then the line's point and direction: one draw, the stream of a line drawn after N
        coeffs = _residues(_trial_rng(seed, trial), layout[-1][2] + 6, prime)
        line = tuple(coeffs[-6:-3]), tuple(coeffs[-3:])
        degrees, texts = _square_trial(decision, corner, coeffs, layout, line, prime)
        report.observed_degrees.append(degrees[0])
        outcomes += [(None, f"trial {trial}: {text}") for text in texts]
        outcomes += [(name, None if degrees[i] == w else f"no trial realized the {name} degree {w}")
                     for name, (w, i) in fixed.items()]
    report.mismatches.extend(_unsettled(outcomes))
    return report


def _unsettled(outcomes) -> list[str]:
    """A report's mismatches from its trials' outcomes (check, message), in
    trial order, message None where the check held.  A hard text, check
    None, is always a mismatch, and any one of them leaves the other checks
    unreported.  Otherwise a check's message is a mismatch when the check
    failed in every trial that made it, each distinct message once."""
    failed = [(check, message) for check, message in outcomes if message is not None]
    if not failed:
        return []
    held = {check for check, message in outcomes if message is None}
    hard = [message for check, message in failed if check is None]
    return list(dict.fromkeys(hard or [message for check, message in failed if check not in held]))


def _square_trial(decision: Decision, corner: bool, coeffs, layout, line, p: int) -> tuple[tuple, list[str]]:
    """One trial of `decision` on N, the square whose drawn `coeffs` `layout`
    places as `_values_at` takes them, on the line (P, Q): the degrees on
    the line of det(N) and, for a subdiagonal no, of its leading and trailing
    blocks, and the texts of the trial's mismatches.

    Where `corner` holds, the grid having the zero corner of a no (a yes
    needs none), a proof at Q is tried first, and the trial is evaluated at
    the d + 1 nodes only when it fails.  A block on the diagonal of N has a form of its diagonal sum's
    degree as its determinant, so the value at Q is its s^top coefficient on
    the line P + sQ.  yes: det(N(Q)) nonzero proves degree d.  No at k by a
    subdiagonal block: rows k..n zero in columns 1..k - 1 make
    det(N) = det(lead) det(trail) as forms, so block values L, T at Q with
    L T nonzero prove degrees d, d - e and e and the product at every node.
    L T must also equal det(N(Q)), so that an evaluation at fault sends the
    trial to the full path.
    """
    d, k, e, n = decision.degree, decision.k, decision.block_degree, len(decision.normalized)
    subdiagonal = decision.reason == REASON_SUBDIAGONAL
    if corner:
        at_direction = _values_at(coeffs, layout, n, line[1], p)
        det = _det_numeric(at_direction, p)
        if det and decision.verdict:
            return (d,), []
        if det and subdiagonal and mul(*_block_dets(at_direction, k, p)) % p == det:
            return (d, d - e, e), []
    nodes = [_values_at(coeffs, layout, n, [a + s * b for a, b in zip(*line)], p) for s in range(d + 1)]
    values = [_det_numeric(mat, p) for mat in nodes]
    deg = _poly_degree(values, p)
    if not subdiagonal:
        return (deg,), [] if decision.verdict or deg is None else [f"expected zero determinant, saw degree {deg}"]
    # the blocks have degrees d - e and e, so their product, like
    # det(N), is fixed by its values at the d + 1 nodes
    lead, trail = zip(*(_block_dets(mat, k, p) for mat in nodes))
    degrees = (deg, _poly_degree(lead, p), _poly_degree(trail, p))
    texts = [f"{name} degree {g} exceeds {w}" for name, g, w
             in zip(("leading block", "trailing block"), degrees[1:], (d - e, e)) if g is not None and g > w]
    if any(a * b % p != v for a, b, v in zip(lead, trail, values)):
        texts.append("block determinants do not multiply to the determinant")
    return degrees, texts


def _block_dets(mat: list[list[int]], k: int, p: int) -> tuple[int, int]:
    """Determinants mod p of the leading (k - 1) x (k - 1) block of `mat` and of its trailing block."""
    return (_det_numeric([row[: k - 1] for row in mat[: k - 1]], p),
            _det_numeric([row[k - 1 :] for row in mat[k - 1 :]], p))


def verify_subscheme(Q: DHBMatrix, d: int, trials: int = 10, seed: int = 0,
                     prime: int = DEFAULT_PRIME) -> WitnessReport:
    """Check a containment decision constructively.

    A negative decision is witnessed on its square `decision.normalized`
    as `verify_representable` witnesses one.  For a positive decision,
    per trial, sample a presentation matrix and a row r of random forms
    of the complementary degrees, inserted at
    `decision.inserted_row_position` pos.  The square determinant F is
    the Laplace combination F = (-1)^pos * sum_j r_j g_j over the signed
    maximal minors g_j, so it lies in their ideal; the trial confirms
    that F is a curve of degree d (nonzero: a homogeneous F has degree d)
    and that the ideal's graded-piece dimensions match the predicted
    Hilbert function up to b_1.  Two minors shown coprime prove the
    Hilbert function; only otherwise are levels ranked.

    A trial draws Q's rows and then the inserted row once, and reads every
    value from that draw.  It first reads F(1, 0, 0), F's x^d coefficient:
    the determinant of the entries' x^m coefficients, the first of each
    entry's run.  It then tests the minors on lines x = x0, y = y0
    (`_subscheme_lines`), at every prime.  F(1, 0, 0) nonzero and two
    minors shown coprime on a line settle the trial with no form built,
    and its Hilbert function is the prediction.  Any other trial expands
    the minors and F as forms from the same draw, and keeps the lines'
    verdict on coprimality.  F(1, 0, 0) nonzero implies F != 0, and a
    trial that reads it as zero decides F != 0 from the form, so the
    report is the same either way.

    A zero F, or a level whose rank falls short, can be bad luck at a
    small prime: by `_unsettled`, it is a mismatch only if it fails in
    every trial that checks it.  A trial whose F is zero checks no level.
    """
    _check_witness_parameters(trials, seed, prime)
    decision = contains_subscheme(Q, d)
    if not decision.verdict:
        return _verify_square(decision, trials, seed, prime)
    report = WitnessReport(seed, prime, trials, decision.to_json())
    if prime <= d:
        raise FieldTooSmallError(f"prime {prime} is too small for degree {d}")
    # a trial is charged Q and the inserted row, the square's entries, in
    # full, and minors restricted to up to three lines (`_subscheme_lines`)
    _check_work(decision.normalized, trials, 3, Q.minor_degrees[0])
    _check_cofactor_budget(Q.n)

    B = betti_of_matrix(Q)
    n = Q.n
    predicted = [hilbert_function(B, t) for t in range(B.syz[0] + 1)]  # up to b_1
    pos = decision.inserted_row_position
    # Q's rows and then the inserted row d - a_j, homogeneous as q_ij = b_i - a_j
    layout = _layout(Q.entries + (decision.normalized[pos - 1],))
    size = (n - 1) * n  # Q's entries, which the inserted row's follow in a trial's draw

    outcomes = []  # (check, message or None) in trial order: "curve", then each level t where F != 0
    for trial in range(trials):
        coeffs = _residues(_trial_rng(seed, trial), layout[-1][2], prime)
        # F(1, 0, 0) = det of the entries' x^m coefficients, each the first of its
        # run; the inserted row, drawn last, moves to its position
        square = [[coeffs[start] if m >= 0 else 0 for m, start, _ in layout[i : i + n]] for i in range(0, n * n, n)]
        square.insert(pos - 1, square.pop())
        curve = _det_numeric(square, prime) != 0
        proved = _subscheme_lines(coeffs, layout[:size], n, random.Random(f"coprime {seed} {trial}"), prime)
        if not (curve and proved):
            forms = _forms(coeffs, layout, prime)
            rows = tuple(tuple(forms[i : i + n]) for i in range(0, size, n))
            minors = maximal_minors(FormMatrix._trusted(rows, Q, prime))
            # F itself, by the Laplace expansion along the inserted row; nonzero, it has degree d
            curve = curve or not _form_dot([(r, g, pos % 2 == 1) for r, g in zip(forms[size:], minors)],
                                           prime).is_zero
        report.observed_degrees.append(d if curve else None)
        outcomes.append(("curve", None if curve else f"trial {trial}: curve degree None != {d}"))
        if not curve:
            continue

        # coprime minors prove the Hilbert function, the alternating sum of the Hilbert-Burch twists
        profile = []
        for t, h in enumerate(predicted):
            observed = h if proved else plane_dim(t) - ideal_dim(minors, t)
            profile.append({"t": t, "predicted": h, "observed": observed})
            outcomes.append((t, None if h == observed else
                             f"trial {trial}: Hilbert function at level {t} is {observed}, predicted {h}"))
        if trial == 0:
            report.hf_profile.extend(profile)
    report.mismatches.extend(_unsettled(outcomes))
    return report

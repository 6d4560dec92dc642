"""Decision procedures for determinantal representations of general plane curves.

A general form of degree d in three variables is the determinant of a
matrix of forms with prescribed well-ordered degree matrix M exactly
when (1) every main-diagonal entry of M is non-negative, and
(2) whenever a subdiagonal entry m[k][k-1] is negative, the trailing
block starting at (k, k) has degree 0 or d (otherwise the determinant
would split as a product of lower-degree factors, while a general form
is irreducible).

Whether a general curve of degree d contains a zero-dimensional
subscheme with a prescribed degree Hilbert-Burch matrix Q reduces to
the same test: append the row (d - a_1, ..., d - a_n) of complementary
minor degrees, reorder, and check the two conditions on the resulting
square matrix.  The conditions read only the diagonal, the subdiagonal
signs and the diagonal's prefix sums of a square m[i][j] = w_i + v_j, so
one kernel, `_decide_potentials`, checks them on the potentials (w, v).
`_decide_entries` hands it a grid's column 0 and row 0 for
`representable` and `contains_subscheme`; `census` hands it the
potentials of Q with the row's landed among them.  One rule,
`degree_matrix._splice_row`, lands the row: below every row of Q whose
shift b_i is >= d, so below ties.  Between consecutive shifts the landing
position is fixed (`_landing_intervals`): `scan` sets up each interval's
potentials once and hands them to `_decide_potentials` at every degree;
`containment_profile` and `stable_threshold` read the verdicts in closed
form off those intervals, and `corollary_case` its whole certificate off Q.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, combinations_with_replacement
from math import comb
from typing import Iterator, NamedTuple

from .degree_matrix import (
    DHBMatrix,
    Grid,
    WellOrderedSquare,
    _splice_row,
    canonicalize,
    grid_from_potentials,
)
from .errors import (
    CensusBudgetError,
    EmptySchemeDegenerateError,
    InvalidDHBError,
    NotMinimalError,
    ScanBudgetError,
)
from .resolution import betti_of_matrix, hilbert_function, scheme_degree

REASON_OK = "OK"
REASON_DEGREE_ZERO = "DegreeZeroTrivial"
REASON_DIAGONAL = "DiagonalNegative"
REASON_SUBDIAGONAL = "SubdiagonalBlockDegree"

#: The most (u, v) candidates `census` takes on, by `_census_candidates`.
#: A census costs 0.5-0.9 us per candidate on one 2.1 GHz Xeon core under
#: Python 3.11, so a census at the budget runs for 4-9 s.
CENSUS_BUDGET = 10**7

#: The most cells (degrees times n) `scan` and the CLI `hf` fill.  A scan costs
#: about 2.5 us per degree at n = 3 on one 2.1 GHz Xeon core under Python 3.11,
#: and the CLI `scan` 5 us and 0.77 KB of peak memory, so 10**6 degrees at n = 3
#: take 5 s and 770 MB.  The CLI `hf` costs about 3.6 us and 0.17 KB per cell
#: (t times n), so 11 s and 520 MB at the budget.
SCAN_BUDGET = 3 * 10**6


class Decision(NamedTuple):
    """Verdict with a machine-checkable certificate.

    `normalized` is the canonical well-ordered square the conditions
    were evaluated on.  `k` and `block_degree` locate the first
    violation (1-based row index; trailing-block degree), and
    `trailing_degrees` lists (k, e) for every negative subdiagonal
    entry, violating or not.
    """

    verdict: bool
    reason: str
    degree: int
    normalized: Grid
    k: int | None = None
    block_degree: int | None = None
    inserted_row_position: int | None = None
    trailing_degrees: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict:
        out: dict = {"answer": "yes" if self.verdict else "no", "degree": self.degree}
        if self.reason != REASON_OK:
            out["reason"] = self.reason
        if self.k is not None:
            out["k"] = self.k
        if self.block_degree is not None:
            out["blockDegree"] = self.block_degree
        if self.inserted_row_position is not None:
            out["insertedRowPosition"] = self.inserted_row_position
        return out


def _inserted_entries(Q: DHBMatrix, d: int) -> tuple[Grid, int]:
    """Splice the complementary row (d - a_j) into Q at its landing position.

    Returns the raw well-ordered n x n grid and the 1-based landing
    position.  The row is compatible by construction, so it skips the
    validation and the wrappers of insert_row_sorted.
    """
    return _splice_row(Q.entries, Q.shifts, d, tuple([d - aj for aj in Q.minor_degrees]))


def _decide_potentials(w, v, d: int) -> tuple[str, int | None, int | None, tuple[tuple[int, int], ...]]:
    """The two conditions on the well-ordered square m[i][j] = w_i + v_j - v_1
    of degree d (so a grid's column 0 and row 0 serve as w and v).

    One pass down the diagonal gives (reason, k, e, trailing).  A negative
    m[k][k] ends it with e = None.  Otherwise `trailing` lists (k, e) for
    every negative m[k][k-1], e = d - (m[1][1] + ... + m[k-1][k-1]) being
    the trailing block's degree, and (k, e) is the first with e not in (0, d).
    """
    trailing = []
    first = None
    lead = 0  # the diagonal sum above row k
    v1 = v[0]
    for i in range(len(w)):  # k = i + 1
        wi = w[i] - v1
        x = wi + v[i]
        if x < 0:
            return REASON_DIAGONAL, i + 1, None, ()
        if i and wi + v[i - 1] < 0:
            e = d - lead
            trailing.append((i + 1, e))
            if first is None and e != 0 and e != d:
                first = (i + 1, e)
        lead += x
    if first is not None:
        return REASON_SUBDIAGONAL, first[0], first[1], tuple(trailing)
    return REASON_DEGREE_ZERO if d == 0 else REASON_OK, None, None, tuple(trailing)


def _decide_entries(entries: Grid, d: int, inserted: int | None = None) -> Decision:
    """Evaluate the two conditions on a well-ordered square grid of degree d,
    through its column 0 and row 0."""
    if d < 0:
        raise ValueError(f"matrix degree {d} is negative: malformed input")
    reason, k, e, trailing = _decide_potentials(next(zip(*entries)), entries[0], d)
    return Decision(reason == REASON_OK or reason == REASON_DEGREE_ZERO, reason, d, entries,
                    k, e, inserted, trailing)


def representable(grid) -> Decision:
    """Can a general form of the grid's degree be the determinant of a
    matrix of forms with this degree matrix?

    The grid is canonicalized first; it must be homogeneous and square
    of degree >= 0.  Degree zero passes as the degenerate case where
    the determinant is a general nonzero constant.
    """
    M, _, _ = canonicalize(grid)
    if not isinstance(M, WellOrderedSquare):
        raise ValueError("representability is a question about square matrices")
    return _decide_entries(M.entries, M.degree)


def representable_2x2(grid) -> Decision:
    """Closed-form 2x2 test: yes iff m11 is 0 or d, or m21 >= 0.

    Agrees with `representable` on every homogeneous 2x2 matrix; kept
    separate as an independent cross-check.
    """
    M, _, _ = canonicalize(grid)
    if not isinstance(M, WellOrderedSquare) or M.n != 2:
        raise ValueError("expected a 2x2 matrix")
    d = M.degree
    if d < 0:
        raise ValueError(f"matrix degree {d} is negative: malformed input")
    (m11, _), (m21, m22) = M.entries
    if m11 in (0, d) or m21 >= 0:
        reason = REASON_DEGREE_ZERO if d == 0 else REASON_OK
        trailing = ((2, m22),) if m21 < 0 else ()
        return Decision(True, reason, d, M.entries, trailing_degrees=trailing)
    if m11 < 0:
        return Decision(False, REASON_DIAGONAL, d, M.entries, k=1)
    if m22 < 0:
        return Decision(False, REASON_DIAGONAL, d, M.entries, k=2)
    return Decision(
        False,
        REASON_SUBDIAGONAL,
        d,
        M.entries,
        k=2,
        block_degree=m22,
        trailing_degrees=((2, m22),),
    )


def _require_valid(Q: DHBMatrix):
    if not Q.diag_nonnegative:
        bad = next(k for k, x in enumerate(Q.diagonal, start=1) if x < 0)
        raise InvalidDHBError(f"diagonal entry q[{bad}][{bad}] is negative")
    if not Q.max_diag_positive:
        raise EmptySchemeDegenerateError("all diagonal entries are zero: empty scheme")


def _check_int(value, name: str) -> None:
    """Raise ValueError unless value is an int and not a bool, as for a grid entry."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_curve_degree(d) -> None:
    """Raise ValueError unless d is an int (`_check_int`) of at least 1."""
    _check_int(d, "curve degree")
    if d < 1:
        raise ValueError(f"curve degree must be >= 1, got {d}")


def _check_cells(what: str, cells: int) -> None:
    """Raise ScanBudgetError when `what` would fill more than SCAN_BUDGET cells."""
    if cells > SCAN_BUDGET:
        raise ScanBudgetError(f"{what} would fill {cells:,} cells, over the budget of {SCAN_BUDGET:,}",
                              cells=cells, budget=SCAN_BUDGET)


def contains_subscheme(Q: DHBMatrix, d: int) -> Decision:
    """Does a general plane curve of degree d contain a zero-dimensional
    subscheme presented by Q?

    Appends the complementary row (d - a_1, ..., d - a_n), reorders, and
    applies the determinantal-representation test to the square matrix.
    """
    _check_curve_degree(d)
    _require_valid(Q)
    entries, pos = _inserted_entries(Q, d)
    return _decide_entries(entries, d, inserted=pos)


class CorollaryResult(NamedTuple):
    decision: Decision
    case: str  # "i", "ii" or "iii"


def corollary_case(Q: DHBMatrix, d: int) -> CorollaryResult:
    """Decision from generator/syzygy degrees alone.

    Requires a numerically minimal Q.  With a = minor degrees and b =
    shifts, the inserted complementary row lands by the size of d
    relative to the b's:

    - case i   (d >= b_1): always yes;
    - case ii  (d < b_{n-1}): yes iff (d = a_n or d >= a_{n-1}) and, for
      every k with q[k][k-1] < 0, d equals the partial diagonal sum
      q[1][1] + ... + q[k-1][k-1] (so the forced trailing block has
      degree exactly 0);
    - case iii (b_{i-1} > d >= b_i): yes iff q[k][k-1] >= 0 for
      k = 2..i-1 and d >= a_{i-1}.

    The certificate is closed form too.  The square and the landing
    position come from `_splice_row`, which lands the row below ties, so
    at d = b_i it lands below row i.  With the row at 1-based position p + 1
    and P the prefix sums of Q's diagonal, the square's negative
    subdiagonal entries are Q's q[k][k-1] < 0 for k <= p, with trailing
    degree d - P_{k-1}, and the row's own d - a_p < 0 (p >= 1), with
    trailing degree d - P_p.  Below the row the subdiagonal is Q's
    diagonal, which is >= 0.

    Must agree with `contains_subscheme` on every minimal input; the
    two are implemented independently and cross-checked in the tests.
    """
    _check_curve_degree(d)
    _require_valid(Q)
    if not Q.is_numerically_minimal:
        raise NotMinimalError("a generator degree equals a syzygy degree")
    a = Q.minor_degrees
    b = Q.shifts
    n = Q.n
    q = Q.entries
    m, pos = _inserted_entries(Q, d)

    if d >= b[0]:
        # the rows above the landed one tie with it, so they repeat Q's first
        # row and q[k][k-1] = q[k-1][k-1] >= 0; and d = b_p >= a_p
        return CorollaryResult(Decision(True, REASON_OK, d, m, inserted_row_position=pos), "i")

    prefix = [0, *accumulate(Q.diagonal)]  # prefix[k] = q[1][1] + ... + q[k][k]

    def build(verdict: bool, k: int | None = None, e: int | None = None) -> Decision:
        # A no without a block degree is a negative diagonal entry, which
        # ends the insertion procedure's pass before any trailing degree.
        if not verdict and e is None:
            return Decision(False, REASON_DIAGONAL, d, m, k=k, inserted_row_position=pos)
        p = pos - 1
        trailing = [(j, d - prefix[j - 1]) for j in range(2, p + 1) if q[j - 1][j - 2] < 0]
        if p and d < a[p - 1]:
            trailing.append((p + 1, d - prefix[p]))
        return Decision(verdict, REASON_OK if verdict else REASON_SUBDIAGONAL, d, m, k, e, pos, tuple(trailing))

    if d < b[n - 2]:
        # The complementary row lands at the bottom.  The only possibly
        # negative main-diagonal entry of the square matrix is d - a_n.
        if d < a[n - 1]:
            return CorollaryResult(build(False, k=n), "ii")
        for k in range(2, n):
            if q[k - 1][k - 2] < 0 and d != prefix[k - 1]:
                return CorollaryResult(build(False, k=k, e=d - prefix[k - 1]), "ii")
        if d != a[n - 1] and d < a[n - 2]:
            return CorollaryResult(build(False, k=n, e=d - a[n - 1]), "ii")
        return CorollaryResult(build(True), "ii")

    # case iii: the row lands at position i, the first index with b_i <= d
    # (2 <= i <= n-1 here since d < b_1 and d >= b_{n-1}), or below i at a tie
    i = next(j for j in range(1, n) if b[j - 1] <= d)
    for k in range(2, i):
        if q[k - 1][k - 2] < 0:
            return CorollaryResult(build(False, k=k, e=d - prefix[k - 1]), "iii")
    if d < a[i - 2]:
        return CorollaryResult(build(False, k=i, e=d - prefix[i - 1]), "iii")
    return CorollaryResult(build(True), "iii")


def _landing_intervals(Q: DHBMatrix):
    """Yield (lo, hi, p) for each interval lo <= d <= hi of degrees d >= 1
    (hi None for the last) on which `_splice_row` lands the row (d - a_j)
    in the valid Q at 0-based position p: below the p shifts b_i >= d, so
    b_p < d <= b_{p-1}.
    """
    b = (*Q.shifts, 0)  # every shift is >= a_n >= 1, so the bottom interval starts at d = 1
    for p in range(Q.n - 1, -1, -1):
        hi = b[p - 1] if p else None
        if hi is None or b[p] < hi:
            yield b[p] + 1, hi, p


def containment_profile(Q: DHBMatrix) -> tuple[tuple[int, int | None], ...]:
    """The degrees d >= 1 at which a general curve of degree d contains the
    scheme Q presents, as sorted disjoint intervals (lo, hi), the last one
    (lo, None) as containment holds for every d > b_1.  Valid for
    non-minimal Q too.  With the row landed at p, only its own d - a_p
    (diagonal) and d - a_{p-1} (subdiagonal, k = p + 1) can be negative,
    besides Q's q[k-1][k-2] < 0 for k <= p, listed in `own` as (k, P_{k-1}):
    with P the prefix sums of Q's diagonal, d - P_{k-1} is the trailing degree.
    """
    _require_valid(Q)
    a = Q.minor_degrees
    prefix = [0, *accumulate(Q.diagonal)]
    own = [(k, prefix[k - 1]) for k in range(2, Q.n) if Q.entries[k - 1][k - 2] < 0]
    out: list[list] = []
    for lo, hi, p in _landing_intervals(Q):
        lead = prefix[p]
        lo = max(lo, a[p])  # below a_p the row's diagonal entry is negative
        # below `below` the row's subdiagonal entry is negative, so its
        # trailing degree d - lead must be 0 or d
        below = a[p - 1] if p and lead else 0
        forced = {P for k, P in own if k <= p and P}  # d - P is never d here, so it must be 0: d = P
        if len(forced) > 1:
            continue
        if forced:
            (x,) = forced
            pieces = [(x, x)] if lo <= x and (hi is None or x <= hi) and (x >= below or x == lead) else []
        else:
            start = max(lo, below)
            pieces = [(lead, lead)] if lo <= lead < start and (hi is None or lead <= hi) else []
            if hi is None or start <= hi:
                pieces.append((start, hi))
        for x, y in pieces:
            if out and out[-1][1] == x - 1:
                out[-1][1] = y
            else:
                out.append([x, y])
    return tuple(map(tuple, out))


def stable_threshold(Q: DHBMatrix) -> int:
    """Least degree from which containment holds for every larger degree.

    This is the least d at which the decision is yes and the Hilbert
    function has already reached the scheme degree; it never exceeds
    b_1 (where both conditions are guaranteed).  The Hilbert function of a
    valid presentation rises to the scheme degree by b_1 and then stays
    there, so bisection over 1..b_1 finds the least t where it has reached
    it, and the threshold is the first degree >= t of `containment_profile`.
    """
    profile = containment_profile(Q)
    B = betti_of_matrix(Q)
    delta = scheme_degree(B)
    t = 1 + bisect_left(range(1, B.syz[0] + 1), True, key=lambda x: hilbert_function(B, x) == delta)
    return next(max(x, t) for x, y in profile if y is None or y >= t)


def scan(Q: DHBMatrix, dmax: int) -> list[tuple[int, Decision]]:
    """Decisions for every curve degree d = 1..dmax.

    Each is `contains_subscheme(Q, d)`, the row spliced at the landing
    position p that `_landing_intervals` gives.  Each interval sets up its
    square's column 0 once, with a slot at p for the row's d - a_1; every
    row of the square is a translate of Q's rows, so Q's first row serves
    as its row 0.  `_decide_potentials` then decides each degree on those
    potentials.  Past SCAN_BUDGET cells (dmax times n) it raises
    ScanBudgetError, deciding nothing.
    """
    _check_int(dmax, "dmax")
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    _require_valid(Q)
    _check_cells(f"scan to dmax = {dmax} over n = {Q.n}", dmax * Q.n)
    a = Q.minor_degrees
    q = Q.entries
    v = q[0]
    out = []
    for lo, hi, p in _landing_intervals(Q):
        head, tail = q[:p], q[p:]
        w = [row[0] for row in q]
        w.insert(p, None)  # the slot of the landed row
        for d in range(lo, (dmax if hi is None else min(hi, dmax)) + 1):
            row = tuple([d - x for x in a])
            w[p] = row[0]
            reason, k, e, trailing = _decide_potentials(w, v, d)
            # d >= 1, so the verdict is yes exactly on REASON_OK
            out.append((d, Decision(reason == REASON_OK, reason, d, head + (row,) + tail, k, e, p + 1, trailing)))
    return out


def _check_enumeration(n: int, bound: int) -> None:
    _check_int(n, "n")
    _check_int(bound, "bound")
    if n < 2:
        raise ValueError("need n >= 2")
    if bound < 1:
        raise ValueError("need bound >= 1")


def _iter_potentials(n: int, bound: int, minimal_only: bool):
    """The (u, v) potential pairs of `iter_dhb_matrices`, in its order and
    only where valid, as groups (u, run), the run yielding (v, sum(v)) for
    each v: v runs like an odometer in which v_k starts at max(v_{k-1}, -u_k),
    so that Q's diagonal u_k + v_k stays >= 0, and an all-zero diagonal is
    dropped.  `minimal_only` leaves the values -u_i out of the range; v_1 = 0
    then rules out u with a zero, and the range is the one its floors -u_k
    leave.  So the floors and the zero diagonal are a run's key: a run is
    built only while read, from a copy of the range, and once read to its
    end is stored and replayed for every later u with that key.
    """
    beyond = bound + 1
    up = [*range(bound + 1), beyond, beyond]  # up[x]: the least value >= x in the range
    runs: dict[tuple, list] = {}  # key -> the (v, sum(v)) of its run

    def odometer(up, key):
        floor, zero = key
        record = []
        v = [0] * n
        k = 0
        while True:
            for j in range(k + 1, n):
                x = v[j - 1]
                v[j] = up[x if x > floor[j] else floor[j]]
            t = tuple(v)
            if zero is None or t[:-1] != zero:
                record.append(pair := (t, sum(t)))
                yield pair
            k = n - 1
            while k and up[v[k] + 1] == beyond:
                k -= 1
            if not k:
                break
            v[k] = up[v[k] + 1]
        runs[key] = record

    for u in combinations_with_replacement(range(bound, -bound - 1, -1), n - 1):
        if u[0] < 0:
            break  # so is every later u[0]
        if minimal_only:
            for x in range(bound, -1, -1):
                up[x] = up[x + 1] if -x in u else x
        floor = (0, *[max(-x, 0) for x in u[1:]], 0)
        if up[0] or any(up[x] == beyond for x in floor):
            continue  # v_1 = 0 is out of the range, or some v_k has no value
        key = (floor, tuple([-x for x in u]) if u[0] == 0 else None)
        run = runs.get(key)
        yield u, odometer(tuple(up), key) if run is None else run


def iter_dhb_matrices(n: int, bound: int, minimal_only: bool = False) -> Iterator[DHBMatrix]:
    """All valid well-ordered (n-1) x n presentation matrices with
    potentials bounded by `bound` in absolute value.

    Potentials are normalized (first column potential 0), so the row
    potentials range over non-increasing tuples in [-bound, bound] and
    the column potentials over non-decreasing tuples in [0, bound].
    With `minimal_only`, skip matrices with any zero entry.
    """
    _check_enumeration(n, bound)
    for u, run in _iter_potentials(n, bound, minimal_only):
        for v, _ in run:
            # valid and well-ordered by construction
            yield DHBMatrix._trusted(grid_from_potentials(u, v))


def _census_candidates(n: int, bound: int) -> int:
    """The (u, v) pairs a census could examine: C(2 bound + n - 1, n - 1)
    row potentials times C(bound + n - 1, n - 1) column potentials."""
    return comb(2 * bound + n - 1, n - 1) * comb(bound + n - 1, n - 1)


def census(n: int, d: int, bound: int, minimal_only: bool = False) -> dict:
    """Count containment decisions at degree d over all bounded matrices.

    The counts, and the order of the `byReason` keys, are those of
    `contains_subscheme(Q, d)` over `iter_dhb_matrices(n, bound,
    minimal_only)`, but neither a matrix nor a `Decision` is built.  The
    complementary row of Q has potential r = d - a_1, a_1 = sum(u) + sum(v).
    `_splice_row` lands r in u below every u_i >= r, its rule on the shifts
    b_i = a_1 + u_i >= d, and `_decide_potentials` decides the square on
    its potentials (w, v); every enumerated Q is valid, so nothing else of
    `contains_subscheme` applies.  The v come in one run per u with their
    sums, so d - sum(u) is taken once per u and w once per u and r.  Past
    CENSUS_BUDGET candidates (`_census_candidates`) it raises
    CensusBudgetError, enumerating nothing.
    """
    _check_enumeration(n, bound)
    _check_curve_degree(d)
    candidates = _census_candidates(n, bound)
    if candidates > CENSUS_BUDGET:
        raise CensusBudgetError(f"census over n = {n}, bound = {bound} would examine {candidates:,} candidate "
                                f"presentations, over the budget of {CENSUS_BUDGET:,}",
                                candidates=candidates, budget=CENSUS_BUDGET)
    by_reason: dict[str, int] = {}
    for u, run in _iter_potentials(n, bound, minimal_only):
        rest = d - sum(u)
        spliced: dict[int, tuple] = {}  # r -> u with r landed in it
        for v, vsum in run:
            r = rest - vsum
            w = spliced.get(r)
            if w is None:
                w = spliced[r] = _splice_row(u, u, r, r)[0]
            reason = _decide_potentials(w, v, d)[0]
            by_reason[reason] = by_reason.get(reason, 0) + 1
    total = sum(by_reason.values())
    yes = by_reason.get(REASON_OK, 0)  # d >= 1, so no DegreeZeroTrivial
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

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
square matrix.  One kernel, `_decide_entries`, checks them for
`representable`, `contains_subscheme` and `census`, and one splice,
`degree_matrix._splice_row`, builds their squares: the row lands below
every row of Q whose shift b_i is >= d, so below ties.  `census` asks
the question for every bounded presentation and splices on the
potentials of Q, with no `DHBMatrix` in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .degree_matrix import (
    DHBMatrix,
    Grid,
    WellOrderedSquare,
    _splice_row,
    canonicalize,
    grid_from_potentials,
)
from .errors import EmptySchemeDegenerateError, InvalidDHBError, NotMinimalError
from .resolution import betti_of_matrix, hilbert_function, scheme_degree

REASON_OK = "OK"
REASON_DEGREE_ZERO = "DegreeZeroTrivial"
REASON_DIAGONAL = "DiagonalNegative"
REASON_SUBDIAGONAL = "SubdiagonalBlockDegree"


@dataclass(frozen=True, slots=True)
class Decision:
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
    return _splice_row(Q.entries, Q.shifts, d, tuple(d - aj for aj in Q.minor_degrees))


def _trailing_degrees(entries: Grid) -> tuple[tuple[int, int], ...]:
    """(k, e) for every negative subdiagonal entry m[k][k-1], in order of k,
    where e is the degree of the trailing block starting at (k, k)."""
    trailing: list[tuple[int, int]] = []
    tail = 0  # sum of diagonal entries from k (1-based) through n
    for k in range(len(entries), 1, -1):
        tail += entries[k - 1][k - 1]
        if entries[k - 1][k - 2] < 0:
            trailing.append((k, tail))
    trailing.reverse()
    return tuple(trailing)


def _decide_entries(entries: Grid, d: int, inserted: int | None = None) -> Decision:
    """Evaluate the two conditions on a well-ordered square grid of degree d."""
    if d < 0:
        raise ValueError(f"matrix degree {d} is negative: malformed input")

    for k in range(len(entries)):
        if entries[k][k] < 0:
            return Decision(
                False,
                REASON_DIAGONAL,
                d,
                entries,
                k=k + 1,
                inserted_row_position=inserted,
            )

    trailing = _trailing_degrees(entries)
    for k, e in trailing:
        if e not in (0, d):
            return Decision(
                False,
                REASON_SUBDIAGONAL,
                d,
                entries,
                k=k,
                block_degree=e,
                inserted_row_position=inserted,
                trailing_degrees=trailing,
            )

    reason = REASON_DEGREE_ZERO if d == 0 else REASON_OK
    return Decision(
        True,
        reason,
        d,
        entries,
        inserted_row_position=inserted,
        trailing_degrees=trailing,
    )


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


def contains_subscheme(Q: DHBMatrix, d: int) -> Decision:
    """Does a general plane curve of degree d contain a zero-dimensional
    subscheme presented by Q?

    Appends the complementary row (d - a_1, ..., d - a_n), reorders, and
    applies the determinantal-representation test to the square matrix.
    """
    if d < 1:
        raise ValueError(f"curve degree must be >= 1, got {d}")
    _require_valid(Q)
    entries, pos = _inserted_entries(Q, d)
    return _decide_entries(entries, d, inserted=pos)


class CorollaryResult(NamedTuple):
    decision: Decision
    case: str  # "i", "ii" or "iii"


def corollary_case(Q: DHBMatrix, d: int) -> CorollaryResult:
    """Fast-path decision from generator/syzygy degrees alone.

    Requires a numerically minimal Q.  With a = minor degrees and
    b = shifts, the inserted complementary row lands by the size of d
    relative to the b's:

    - case i   (d >= b_1): always yes;
    - case ii  (d < b_{n-1}): yes iff (d = a_n or d >= a_{n-1}) and, for
      every k with q[k][k-1] < 0, d equals the partial diagonal sum
      q[1][1] + ... + q[k-1][k-1] (so the forced trailing block has
      degree exactly 0);
    - case iii (b_{i-1} > d >= b_i): yes iff q[k][k-1] >= 0 for
      k = 2..i-1 and d >= a_{i-1}.

    Must agree with `contains_subscheme` on every minimal input; the
    two are implemented independently and cross-checked in the tests.
    """
    if d < 1:
        raise ValueError(f"curve degree must be >= 1, got {d}")
    _require_valid(Q)
    if not Q.is_numerically_minimal:
        raise NotMinimalError("a generator degree equals a syzygy degree")
    a = Q.minor_degrees
    b = Q.shifts
    n = Q.n
    q = Q.entries

    prefix = [0]  # prefix[k] = q[1][1] + ... + q[k][k]
    for x in Q.diagonal:
        prefix.append(prefix[-1] + x)

    def build(verdict: bool, k: int | None = None, e: int | None = None,
              diagonal_failure: bool = False) -> Decision:
        # The certificate (square, landing position, trailing degrees) is
        # built as in the insertion procedure; the verdict and the failing
        # indices come from the closed form.
        m, pos = _inserted_entries(Q, d)
        if diagonal_failure:
            return Decision(False, REASON_DIAGONAL, d, m, k=k,
                            inserted_row_position=pos)
        trailing = _trailing_degrees(m)
        if verdict:
            return Decision(True, REASON_OK, d, m,
                            inserted_row_position=pos, trailing_degrees=trailing)
        return Decision(False, REASON_SUBDIAGONAL, d, m, k=k, block_degree=e,
                        inserted_row_position=pos, trailing_degrees=trailing)

    if d >= b[0]:
        return CorollaryResult(build(True), "i")

    if d < b[n - 2]:
        # The complementary row lands at the bottom.  The only possibly
        # negative main-diagonal entry of the square matrix is d - a_n.
        if d < a[n - 1]:
            return CorollaryResult(build(False, k=n, diagonal_failure=True), "ii")
        for k in range(2, n):
            if q[k - 1][k - 2] < 0 and d != prefix[k - 1]:
                return CorollaryResult(build(False, k=k, e=d - prefix[k - 1]), "ii")
        if d != a[n - 1] and d < a[n - 2]:
            return CorollaryResult(build(False, k=n, e=d - a[n - 1]), "ii")
        return CorollaryResult(build(True), "ii")

    # case iii: the row lands at position i, the first index with b_i <= d
    # (2 <= i <= n-1 here since d < b_1 and d >= b_{n-1})
    i = next(j for j in range(1, n) if b[j - 1] <= d)
    for k in range(2, i):
        if q[k - 1][k - 2] < 0:
            return CorollaryResult(build(False, k=k, e=d - prefix[k - 1]), "iii")
    if d < a[i - 2]:
        return CorollaryResult(build(False, k=i, e=d - prefix[i - 1]), "iii")
    return CorollaryResult(build(True), "iii")


def stable_threshold(Q: DHBMatrix) -> int:
    """Least degree from which containment holds for every larger degree.

    This is the least d at which the decision is yes and the Hilbert
    function has already reached the scheme degree; it never exceeds
    b_1 (where both conditions are guaranteed).
    """
    _require_valid(Q)
    B = betti_of_matrix(Q)
    delta = scheme_degree(B)
    for d in range(1, B.syz[0] + 1):
        if hilbert_function(B, d) == delta and contains_subscheme(Q, d).verdict:
            return d
    raise AssertionError("unreachable: containment holds at d = b_1")


def scan(Q: DHBMatrix, dmax: int) -> list[tuple[int, Decision]]:
    """Decisions for every curve degree d = 1..dmax."""
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    return [(d, contains_subscheme(Q, d)) for d in range(1, dmax + 1)]


def _check_enumeration(n: int, bound: int) -> None:
    if n < 2:
        raise ValueError("need n >= 2")
    if bound < 1:
        raise ValueError("need bound >= 1")


def _iter_potentials(n: int, bound: int, minimal_only: bool):
    """The (u, v) potential pairs of `iter_dhb_matrices`, in its order."""
    for u in combinations_with_replacement(range(bound, -bound - 1, -1), n - 1):
        if u[0] < 0:
            continue  # q[1][1] = u[1] would be negative
        # an entry u[i] + v[j] is zero exactly when v[j] is some -u[i]
        zero_at = {-x for x in u} if minimal_only else None
        for v_rest in combinations_with_replacement(range(bound + 1), n - 1):
            v = (0,) + v_rest
            diag = [x + y for x, y in zip(u, v)]
            if min(diag) < 0 or max(diag) == 0:
                continue
            if minimal_only and not zero_at.isdisjoint(v):
                continue
            yield u, v


def iter_dhb_matrices(n: int, bound: int, minimal_only: bool = False) -> Iterator[DHBMatrix]:
    """All valid well-ordered (n-1) x n presentation matrices with
    potentials bounded by `bound` in absolute value.

    Potentials are normalized (first column potential 0), so the row
    potentials range over non-increasing tuples in [-bound, bound] and
    the column potentials over non-decreasing tuples in [0, bound].
    With `minimal_only`, skip matrices with any zero entry.
    """
    _check_enumeration(n, bound)
    for u, v in _iter_potentials(n, bound, minimal_only):
        yield DHBMatrix(grid_from_potentials(u, v))


def census(n: int, d: int, bound: int, minimal_only: bool = False) -> dict:
    """Count containment decisions at degree d over all bounded matrices.

    The counts, and the order of the `byReason` keys, are those of
    `contains_subscheme(Q, d)` over `iter_dhb_matrices(n, bound,
    minimal_only)`, but no `DHBMatrix` is built: each square comes
    straight from the potentials (u, v) of Q.  The complementary row
    (r + v_j) has potential r = d - a_1, where a_1 = sum(u) + sum(v).
    `_splice_row` lands it below every u_i >= r, which is its rule on
    the shifts b_i = a_1 + u_i >= d.  The square goes to the same
    kernel, `_decide_entries`; every enumerated Q is valid, so nothing
    else of `contains_subscheme` applies.
    """
    _check_enumeration(n, bound)
    if d < 1:
        raise ValueError(f"curve degree must be >= 1, got {d}")
    total = 0
    yes = 0
    by_reason: dict[str, int] = {}
    for u, v in _iter_potentials(n, bound, minimal_only):
        r = d - sum(u) - sum(v)
        square, pos = _splice_row(grid_from_potentials(u, v), u, r, tuple([r + vj for vj in v]))
        verdict = _decide_entries(square, d, inserted=pos)
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

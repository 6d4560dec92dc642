"""Exact integer degree-matrix algebra.

A grid of integers is *homogeneous* when every 2x2 submatrix
[[a, b], [c, e]] satisfies a + e = b + c; equivalently the entries
decompose as m[i][j] = u[i] + v[j] for a row potential u and a column
potential v, made unique by v[1] = 0: u is the first column and v the
first row minus its first entry.  `potentials()` is the one home of this
convention, and `grid_from_potentials()` its inverse; a `DegreeMatrix`
stores only its entries.  In these potentials the maximal minor of an
(n-1) x n grid that erases column j has degree
a_j = sum(u) + sum(v) - v[j], since every transversal of the remaining
square takes each u[i] once and each v[k], k != j, once.  Such grids
record the entry degrees of matrices of homogeneous forms: a square
homogeneous grid has a well-defined degree (any transversal sum), and
an (n-1) x n grid presents the generator and syzygy degrees of a
codimension-two ideal through its maximal minors.  The two shapes are
`DegreeMatrix` subclasses that add only their invariants:
`WellOrderedSquare` (n x n) and `DHBMatrix` (the (n-1) x n degree
Hilbert-Burch matrix).  Building any of them checks the entries
(integers within ENTRY_BOUND), homogeneity, the shape and well-ordering;
`canonicalize` checks its input once and sorts it into a grid that
needs no second check.

All row/column positions in the public API are 1-based, matching the
usual matrix notation; permutations are tuples of original 1-based
indices in their new order.
"""

from __future__ import annotations

from functools import cached_property

from .errors import IncompatibleRowError, NotHomogeneousError

Grid = tuple[tuple[int, ...], ...]

#: Entries beyond this magnitude are rejected: degrees in practice are tiny,
#: and the cap keeps every transversal sum far from any integer-width limit.
ENTRY_BOUND = 10**6


def _as_grid(grid) -> Grid:
    """The grid as a tuple of row tuples, checked by `_check_homogeneous`."""
    rows = tuple(tuple(row) for row in grid)
    _check_homogeneous(rows)
    return rows


def _check_homogeneous(rows: Grid) -> None:
    """Check a grid in one pass over its entries.

    It must be non-empty and rectangular, with integer entries (not bool)
    of magnitude at most ENTRY_BOUND (ValueError), and homogeneous,
    m[i][j] = u[i] + v[j] (NotHomogeneousError).  An entry error anywhere
    takes precedence over a homogeneity witness.
    """
    if not rows or not rows[0]:
        raise ValueError("grid must be non-empty")
    top = rows[0]
    width = len(top)
    witness = None
    for i, row in enumerate(rows):
        if len(row) != width:
            # the invariants read only column 0 and row 0, so a short row
            # would otherwise pass unseen
            raise ValueError(f"ragged grid: row {i + 1} has {len(row)} entries, expected {width}")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"grid entries must be integers, got {x!r}")
            if not -ENTRY_BOUND <= x <= ENTRY_BOUND:
                raise ValueError(f"entry {x} exceeds the supported bound {ENTRY_BOUND}")
            if witness is None and x - row[0] != top[j] - top[0]:
                # The block on rows (1, i+1) and columns (1, j+1) is a witness.
                witness = (i + 1, j + 1)
    if witness is not None:
        raise NotHomogeneousError(1, 1, *witness)


def potentials(grid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a homogeneous grid into its (row, column) potentials, v[1] = 0.

    Raises NotHomogeneousError carrying a violating 2x2 block if the grid
    is not homogeneous.
    """
    rows = _as_grid(grid)
    base = rows[0][0]
    return tuple(row[0] for row in rows), tuple(x - base for x in rows[0])


def grid_from_potentials(u, v) -> Grid:
    """Rebuild the grid m[i][j] = u[i] + v[j]; inverse of `potentials`."""
    return tuple([tuple([ui + vj for vj in v]) for ui in u])


def is_homogeneous(grid) -> bool:
    try:
        potentials(grid)
    except NotHomogeneousError:
        return False
    return True


def transversal_degree(grid) -> int:
    """Degree of a square homogeneous grid: the common transversal sum."""
    rows = _as_grid(grid)
    if len(rows) != len(rows[0]):
        raise ValueError("transversal degree requires a square grid")
    return sum(rows[i][i] for i in range(len(rows)))


class _Record:
    """An immutable record of the attributes named in `_fields`.

    Instances of the same class compare and hash by those values, in
    order; the repr lists them; assigning or deleting an attribute raises
    AttributeError.  `__init__` checks its arguments, then stores them
    with `_set`.  A `cached_property` still caches, since it writes the
    instance dict directly, and copy and pickle restore that dict.
    `_trusted` stores values already known to be valid without calling
    `__init__`, so without its checks.  Every value class of the package
    is a `_Record` except `Decision` and `CorollaryResult`: the decision
    loops build those by the million, and a NamedTuple costs half as much
    to build.
    """

    _fields: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, *values):
        """An instance holding `values` as its fields, unchecked."""
        record = object.__new__(cls)
        # `_set` inlined: every `canonicalize` call builds one
        record.__dict__.update(zip(cls._fields, values))
        return record

    def _set(self, *values) -> None:
        """Store `values` as the fields, in `_fields` order."""
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DegreeMatrix(_Record):
    """A homogeneous integer grid, stored as its entries only (checked when built)."""

    _fields = ("entries",)

    def __init__(self, entries: Grid):
        self._set(entries)
        self._check()

    def _check(self):
        _check_homogeneous(self.entries)

    @classmethod
    def from_grid(cls, grid) -> "DegreeMatrix":
        return cls(tuple(tuple(row) for row in grid))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        """Entries m[k][k] for k = 1..min(rows, cols)."""
        return tuple(self.entries[k][k] for k in range(min(self.rows, self.cols)))

    def is_well_ordered(self) -> bool:
        """Entries non-increasing downward, non-decreasing rightward."""
        m = self.entries
        return all(m[i][0] >= m[i + 1][0] for i in range(len(m) - 1)) and all(
            m[0][j] <= m[0][j + 1] for j in range(len(m[0]) - 1)
        )


class WellOrderedSquare(DegreeMatrix):
    """A well-ordered homogeneous n x n grid and its degree."""

    def _check(self):
        super()._check()
        if self.rows != self.cols:
            raise ValueError("expected a square grid")
        if not self.is_well_ordered():
            raise ValueError("grid is not well-ordered; use canonicalize()")

    @property
    def n(self) -> int:
        return self.rows

    @cached_property
    def degree(self) -> int:
        return sum(self.diagonal)


class DHBMatrix(DegreeMatrix):
    """A well-ordered homogeneous (n-1) x n degree Hilbert-Burch candidate.

    `minor_degrees[j]` is the degree of the maximal minor that erases
    column j; `shifts[i]` is the twist of the i-th syzygy, so that
    entries satisfy q[i][j] = shifts[i] - minor_degrees[j].  The matrix
    is a valid presentation of a non-empty zero-dimensional scheme
    exactly when the diagonal is non-negative and not identically zero.
    """

    def _check(self):
        super()._check()
        if self.rows + 1 != self.cols:
            raise ValueError(f"expected an (n-1) x n grid, got {self.rows} x {self.cols}")
        if not self.is_well_ordered():
            raise ValueError("grid is not well-ordered; use canonicalize()")

    @property
    def n(self) -> int:
        return self.cols

    @cached_property
    def minor_degrees(self) -> tuple[int, ...]:
        """Transversal degree of each column-erased square, non-increasing."""
        # a_j = sum(u) + sum(v) - v[j] with u = column 0, v[j] = top[j] - top[0]
        top = self.entries[0]
        total = sum([row[0] for row in self.entries]) + sum(top) - (len(top) - 1) * top[0]
        return tuple([total - x for x in top])

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """Syzygy degrees b with q[i][j] = b[i] - a[j]; non-increasing."""
        a0 = self.minor_degrees[0]
        return tuple(a0 + row[0] for row in self.entries)

    @cached_property
    def diag_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.diagonal)

    @cached_property
    def max_diag_positive(self) -> bool:
        return max(self.diagonal) > 0

    @property
    def is_valid(self) -> bool:
        return self.diag_nonnegative and self.max_diag_positive

    @cached_property
    def is_numerically_minimal(self) -> bool:
        """True when no minor degree equals a shift, i.e. no entry is zero."""
        return all(x != 0 for row in self.entries for x in row)


def canonicalize(grid):
    """Sort a homogeneous grid into canonical well-ordered form.

    Rows are sorted by row potential non-increasing and columns by
    column potential non-decreasing; ties keep the original order.
    Returns (matrix, row_perm, col_perm) where the matrix is a
    WellOrderedSquare for square input and a DHBMatrix for (n-1) x n
    input, and the permutations list original 1-based indices in their
    new order.  Other shapes are rejected.
    """
    rows = _as_grid(grid)
    r, c = len(rows), len(rows[0])
    if r == c:
        shape = WellOrderedSquare
    elif r + 1 == c:
        shape = DHBMatrix
    else:
        raise ValueError(f"unsupported shape {r} x {c}: expected n x n or (n-1) x n")
    # the potentials, up to a constant, are the first column and the first
    # row; sorted by them, the checked input is well-ordered and needs no
    # second check
    row_order = sorted(range(r), key=lambda i: -rows[i][0])
    col_order = sorted(range(c), key=lambda j: rows[0][j])
    entries = tuple(tuple(rows[i][j] for j in col_order) for i in row_order)
    return shape._trusted(entries), tuple(i + 1 for i in row_order), tuple(j + 1 for j in col_order)


def _splice_row(entries: tuple, keys, key: int, row) -> tuple[tuple, int]:
    """Land `row`, of potential `key`, below every row of `entries` whose
    potential in the non-increasing `keys` is >= key, so below ties;
    return the spliced tuple and the 1-based landing position.  The rows
    may be a grid's row tuples or the row potentials themselves."""
    pos = 0
    for x in keys:
        if x < key:
            break
        pos += 1
    return entries[:pos] + (row,) + entries[pos:], pos + 1


def insert_row_sorted(Q: DHBMatrix, row) -> tuple[WellOrderedSquare, int]:
    """Insert a compatible row into Q at its well-ordered position.

    The row must have constant sum with the minor degrees (row[j] + a[j]
    independent of j), which is exactly homogeneity of the extended
    grid.  A new row tying with existing rows lands below them.
    Returns the square matrix and the 1-based landing position.
    """
    row = tuple(row)
    a = Q.minor_degrees
    n = Q.n
    if len(row) != n:
        raise IncompatibleRowError(f"row has {len(row)} entries, expected {n}")
    t = row[0] + a[0]
    if any(row[j] + a[j] != t for j in range(n)):
        raise IncompatibleRowError("row breaks homogeneity: row[j] + minor_degrees[j] is not constant")
    entries, pos = _splice_row(Q.entries, Q.shifts, t, row)
    return WellOrderedSquare(entries), pos


def erase_row(M: WellOrderedSquare, i: int) -> DHBMatrix:
    """Erase the i-th row (1-based) of a square, keeping well-ordering.

    The result is a candidate presentation matrix; inspect its
    `diag_nonnegative` / `max_diag_positive` flags to see whether it
    actually presents a (non-empty) zero-dimensional scheme.
    """
    n = M.n
    if not 1 <= i <= n:
        raise ValueError(f"row index {i} out of range 1..{n}")
    return DHBMatrix(M.entries[: i - 1] + M.entries[i:])

"""Numerical invariants of length-two graded free resolutions.

A zero-dimensional subscheme of the projective plane has ideal sheaf
resolved by n generator twists a_1 >= ... >= a_n and n-1 syzygy twists
b_1 >= ... >= b_{n-1}.  Everything here is derived from those two
multisets: scheme degree, Hilbert function, h-vector, minimality and
cancellation, the cancellation-free Betti numbers of an h-vector, and
incidence-variety dimension counts.
"""

from __future__ import annotations

from .degree_matrix import DHBMatrix, _Record, grid_from_potentials
from .errors import (
    DegenerateEmptyError,
    InadmissibleHVectorError,
    InvalidResolutionError,
)


def plane_dim(x: int) -> int:
    """Number of degree-x monomials in three variables: (x+2)(x+1)/2 for x >= 0, else 0."""
    return (x + 2) * (x + 1) // 2 if x >= 0 else 0


class BettiData(_Record):
    """Generator degrees (n values) and syzygy degrees (n-1 values), non-increasing."""

    _fields = ("gens", "syz")

    def __init__(self, gens: tuple[int, ...], syz: tuple[int, ...]):
        if len(gens) != len(syz) + 1:
            raise InvalidResolutionError(
                f"need one more generator than syzygies, got {len(gens)} and {len(syz)}"
            )
        if any(gens[i] < gens[i + 1] for i in range(len(gens) - 1)) or any(
            syz[i] < syz[i + 1] for i in range(len(syz) - 1)
        ):
            raise InvalidResolutionError("degrees must be sorted non-increasing")
        self._set(gens, syz)

    @classmethod
    def of(cls, gens, syz) -> "BettiData":
        """Build from unsorted degree multisets."""
        return cls(tuple(sorted(gens, reverse=True)), tuple(sorted(syz, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def is_balanced(self) -> bool:
        """Sum of syzygy degrees equals sum of generator degrees.

        This is forced for any matrix-presented ideal (the twists of the
        two free modules have equal first Chern class); user-supplied
        data may violate it, in which case no scheme exists.
        """
        return sum(self.gens) == sum(self.syz)

    def to_dhb(self) -> DHBMatrix:
        """Canonical well-ordered presentation grid q[i][j] = b[i] - a[j]."""
        return DHBMatrix(grid_from_potentials(self.syz, [-a for a in self.gens]))


def betti_of_matrix(Q: DHBMatrix) -> BettiData:
    return BettiData(Q.minor_degrees, Q.shifts)


def _require_balanced(B: BettiData):
    if not B.is_balanced:
        raise InvalidResolutionError(
            f"generator degrees sum to {sum(B.gens)} but syzygy degrees sum to {sum(B.syz)}"
        )


def scheme_degree(B: BettiData) -> int:
    """Degree of the presented scheme: (sum b_i^2 - sum a_j^2) / 2.

    Raises InvalidResolutionError when the value is not a positive
    integer (the data then presents no non-empty zero-dimensional
    scheme, e.g. after over-cancellation).
    """
    _require_balanced(B)
    twice = sum(b * b for b in B.syz) - sum(a * a for a in B.gens)
    if twice % 2 != 0:
        raise InvalidResolutionError("scheme degree is not integral")
    delta = twice // 2
    if delta <= 0:
        raise InvalidResolutionError(f"scheme degree {delta} is not positive")
    return delta


def hilbert_function(B: BettiData, t: int) -> int:
    """Hilbert function of the scheme at level t (alternating sum of twists)."""
    if t < 0:
        return 0
    return (
        plane_dim(t)
        - sum(plane_dim(t - a) for a in B.gens)
        + sum(plane_dim(t - b) for b in B.syz)
    )


def h0_ideal(B: BettiData, t: int) -> int:
    """Dimension of the degree-t piece of the homogeneous ideal."""
    return plane_dim(t) - hilbert_function(B, t)


def stabilization_bound(B: BettiData) -> int:
    """Level b_1 - 2, from which on the Hilbert function equals the degree.

    For a minimal B (`minimalize`) the level is exact: the Hilbert function
    falls short of the degree at level b_1 - 3, as the h-vector's last
    positive entry sits at b_1 - 2.
    """
    _require_balanced(B)
    return B.syz[0] - 2


def is_numerically_minimal(B: BettiData) -> bool:
    """No generator degree equals a syzygy degree (no cancellable pair)."""
    return not (set(B.gens) & set(B.syz))


def minimalize(B: BettiData) -> BettiData:
    """Cancel every matching generator/syzygy degree pair (with multiplicity)."""
    gens, syz = list(B.gens), []
    for b in B.syz:
        if b in gens:
            gens.remove(b)  # one copy, so both stay sorted
        else:
            syz.append(b)
    if not gens:
        raise DegenerateEmptyError("cancellation removed every generator")
    return BettiData(tuple(gens), tuple(syz))


def hvector_from_betti(B: BettiData) -> tuple[int, ...]:
    """First difference of the Hilbert function, truncated at stabilization."""
    _require_balanced(B)
    top = max(stabilization_bound(B), 0)
    values = [hilbert_function(B, t) for t in range(top + 1)]
    h = [values[0]] + [values[t] - values[t - 1] for t in range(1, top + 1)]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    if any(x < 0 for x in h):
        raise InvalidResolutionError("Hilbert function decreases: invalid resolution data")
    return tuple(h)


def is_admissible_hvector(h, curve_degree: int | None = None) -> bool:
    """Whether h is the h-vector of a zero-dimensional scheme in the plane.

    The characterization is Macaulay growth in two variables: h[0] = 1,
    each step grows by at most one, and once h[t] <= t the sequence is
    non-increasing.  With `curve_degree` given, additionally
    h[t] <= min(t + 1, curve_degree), the bound for subschemes of a
    curve of that degree.
    """
    h = tuple(h)
    if not h or h[0] != 1:
        return False
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in h):
        return False
    for t in range(len(h) - 1):
        if h[t + 1] > h[t] + 1:
            return False
        if h[t] <= t and h[t + 1] > h[t]:
            return False
    if curve_degree is not None:
        if any(h[t] > min(t + 1, curve_degree) for t in range(len(h))):
            return False
    return True


def generic_betti(h) -> BettiData:
    """Cancellation-free generator/syzygy degrees realizing an h-vector.

    Expanding (1 - s)^2 * sum h[t] s^t gives coefficients c[t]; for
    t >= 1 a negative c[t] contributes |c[t]| generators of degree t and
    a positive c[t] contributes c[t] syzygies of degree t.  The result
    is numerically minimal by construction.
    """
    h = tuple(h)
    if not is_admissible_hvector(h):
        raise InadmissibleHVectorError(f"not an h-vector of points in the plane: {h}")

    def at(t: int) -> int:
        return h[t] if 0 <= t < len(h) else 0

    gens: list[int] = []
    syz: list[int] = []
    for t in range(1, len(h) + 2):
        c = at(t) - 2 * at(t - 1) + at(t - 2)
        if c < 0:
            gens.extend([t] * (-c))
        elif c > 0:
            syz.extend([t] * c)
    return BettiData.of(gens, syz)


def incidence_dimension(dim_stratum: int, B: BettiData, d: int) -> tuple[int, bool]:
    """Dimension of {(curve of degree d, scheme on it)} over a stratum.

    The fibers over the stratum are the linear systems of degree-d
    curves through the scheme, so the dimension is
    dim_stratum + h0_ideal(B, d) - 1.  The second component reports the
    necessary condition dim_stratum >= HF(d) for the projection to the
    space of curves to be dominant.
    """
    if dim_stratum < 0:
        raise ValueError("stratum dimension must be non-negative")
    dim = dim_stratum + h0_ideal(B, d) - 1
    return dim, dim_stratum >= hilbert_function(B, d)

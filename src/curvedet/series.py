"""Linear series on a general plane curve via Hilbert-function constraints.

A divisor D of degree delta on a smooth plane curve of degree d can be
viewed as a zero-dimensional subscheme of the plane.  The canonical
series is cut by curves of degree d - 3, so Riemann-Roch turns
statements about the complete series |D + zH| (H a line section) into
equalities and inequalities on the Hilbert function of D at levels near
d - 3.  This module enumerates the Hilbert functions compatible with a
query, attaches the cancellation-free Betti numbers of each, and asks
the decision engine whether a general curve of degree d contains such a
divisor.
"""

from __future__ import annotations

from itertools import accumulate
from operator import eq, ge, le

from .decide import _check_curve_degree, _check_int, contains_subscheme
from .degree_matrix import _Record
from .errors import InfeasibleQueryError, SeriesBudgetError
from .resolution import BettiData, generic_betti, plane_dim

NONSPECIAL = "nonspecial"
EFFECTIVE = "effective"

#: The most h-vector prefixes `enumerate_hvectors` pops before it refuses with
#: SeriesBudgetError.  No cheap count of them is known in advance, so the
#: loop counts.  A pop costs 2.6-3.2 us on one Xeon core under Python 3.11 and
#: rows are about 2 % of pops, so the budget is 8-10 s of enumeration.
SERIES_BUDGET = 3 * 10**6


def genus(d: int) -> int:
    """Genus of a smooth plane curve of degree d: (d-1)(d-2)/2."""
    _check_curve_degree(d)
    return (d - 1) * (d - 2) // 2


class ShiftedProperty(_Record):
    """A property of the shifted divisor D + zH.

    kind "nonspecial": D + zH is non-special (its speciality index is 0).
    kind "effective": D + zH is linearly equivalent to an effective divisor.
    """

    _fields = ("z", "kind")

    def __init__(self, z: int, kind: str):
        _check_int(z, "shift z")
        if kind not in (NONSPECIAL, EFFECTIVE):
            raise ValueError(f"unknown property kind {kind!r}")
        self._set(z, kind)


class SeriesQuery(_Record):
    """Does a general curve of degree d carry a complete series g^r_delta
    whose divisors satisfy the given shifted properties?  The properties,
    each a `ShiftedProperty`, are stored as a tuple."""

    _fields = ("curve_degree", "divisor_degree", "series_dim", "properties")

    def __init__(self, curve_degree: int, divisor_degree: int, series_dim: int, properties: tuple = ()):
        for value, name in ((curve_degree, "curve degree"), (divisor_degree, "divisor degree"),
                            (series_dim, "series dimension")):
            _check_int(value, name)
        if curve_degree < 4:
            raise ValueError("curve degree must be >= 4 (positive genus regime)")
        if divisor_degree < 1:
            raise ValueError("divisor degree must be >= 1")
        if series_dim < 0:
            raise ValueError("series dimension must be >= 0")
        properties = tuple(properties)
        for prop in properties:
            if not isinstance(prop, ShiftedProperty):
                raise ValueError(f"a property must be a ShiftedProperty, got {prop!r}")
        self._set(curve_degree, divisor_degree, series_dim, properties)


class HFConstraint(_Record):
    """A single condition on the Hilbert function of the divisor.

    relation is one of '==' / '<=' / '>='.  Mandatory constraints cut
    the enumeration; the others are evaluated as flags per row.
    """

    _fields = ("level", "relation", "value", "mandatory", "label")
    _tests = {"==": eq, "<=": le, ">=": ge}  # relation: its test of (hf_value, value)

    def __init__(self, level: int, relation: str, value: int, mandatory: bool, label: str):
        if relation not in self._tests:
            raise ValueError(f"relation must be '==', '<=' or '>=', got {relation!r}")
        self._set(level, relation, value, mandatory, label)

    def satisfied_by(self, hf_value: int) -> bool:
        return self._tests[self.relation](hf_value, self.value)


def hf_constraints(query: SeriesQuery) -> list[HFConstraint]:
    """Translate a series query into Hilbert-function conditions.

    Speciality of D + zH equals the dimension of the degree-(d-3-z)
    piece of the ideal of D, so with g the genus and i = r + g - delta:

    - complete g^r_delta: HF(d-3) = P(d-3) - i  (mandatory);
    - D + zH nonspecial:  HF(d-3-z) = P(d-3-z);
    - D + zH effective:   HF(d-3-z) <= P(d-3-z) - g + delta + z*d,
      from h0(D + zH) = delta + z*d - g + 1 + speciality >= 1.
    """
    d, delta, r = query.curve_degree, query.divisor_degree, query.series_dim
    g = genus(d)
    speciality = r + g - delta
    level = d - 3
    required = plane_dim(level) - speciality
    if required < 0:
        raise InfeasibleQueryError(
            f"a g^{r}_{delta} on a degree-{d} curve would need speciality {speciality} "
            f"> P({level}) = {plane_dim(level)}"
        )
    constraints = [
        HFConstraint(level, "==", required, True, f"complete series dimension {r}")
    ]
    for prop in query.properties:
        lvl = d - 3 - prop.z
        name = f"D{prop.z:+d}H"
        if prop.kind == NONSPECIAL:
            constraints.append(
                HFConstraint(lvl, "==", plane_dim(lvl), False, f"{name} nonspecial")
            )
        else:
            bound = plane_dim(lvl) - g + delta + prop.z * d
            constraints.append(
                HFConstraint(lvl, "<=", bound, False, f"{name} effective")
            )
    return constraints


def enumerate_hvectors(delta: int, constraints, curve_degree: int) -> list[tuple[int, ...]]:
    """All admissible h-vectors of total delta meeting the mandatory constraints.

    Admissibility is Macaulay growth with the curve bound
    h[t] <= min(t+1, curve_degree), which the cap on each next entry
    enforces, so no row is checked again; a constraint at level t is
    checked against the partial sum through t.  Rows come out
    lexicographically decreasing, unsorted: the stack pops the largest next
    entry first.  Two h-vectors of total delta first differ at an index
    inside both, so their Hilbert functions (partial sums) come out
    lexicographically decreasing too.
    Past SERIES_BUDGET popped prefixes it raises SeriesBudgetError.
    """
    if delta < 1 or curve_degree < 1:
        return []
    mandatory = [c for c in constraints if c.mandatory]
    results: list[tuple[int, ...]] = []

    def check_level(t: int, partial: int) -> bool:
        return all(c.satisfied_by(partial) for c in mandatory if c.level == t)

    def final_ok(support_end: int) -> bool:
        # beyond the support the Hilbert function sits at delta
        return all(c.satisfied_by(delta) for c in mandatory if c.level >= support_end)

    # depth first with an explicit stack, so that an h-vector thousands of
    # entries long does not exhaust the recursion limit: an entry
    # (t, total, value) sets h[t] = value after the t entries summing to total
    h: list[int] = []
    stack = [(0, 0, 1)] if check_level(0, 1) else []
    pops = 0
    while stack:
        pops += 1
        if pops > SERIES_BUDGET:
            raise SeriesBudgetError(f"series enumeration for delta = {delta} on a degree-{curve_degree} curve "
                                    f"popped {pops:,} h-vector prefixes, over the budget of {SERIES_BUDGET:,}",
                                    prefixes=pops, budget=SERIES_BUDGET)
        t, total, value = stack.pop()
        del h[t:]
        h.append(value)
        t, total = t + 1, total + value
        if total == delta:
            if final_ok(t):
                results.append(tuple(h))
            continue
        cap = min(value + 1, t + 1, curve_degree, delta - total)
        if value <= t - 1:
            cap = min(cap, value)
        for v in range(1, cap + 1):
            if check_level(t, total + v):
                stack.append((t, total, v))
    return results


class SeriesRow(_Record):
    """One compatible Hilbert function with its existence analysis.  HF(t) is the
    prefix sum h_0 + ... + h_t of the h-vector: 0 for t < 0, delta past its support."""

    _fields = ("hvector", "betti", "exists_on_general_curve", "flags")

    def __init__(self, hvector: tuple[int, ...], betti: BettiData, exists_on_general_curve: bool, flags: tuple):
        self._set(hvector, betti, exists_on_general_curve, flags)

    def hilbert_values(self, tmax: int) -> tuple[int, ...]:
        hf = tuple(accumulate(self.hvector))
        return hf[: max(tmax + 1, 0)] + hf[-1:] * (tmax + 1 - len(hf))

    def to_json(self) -> dict:
        return {
            "h": list(self.hvector),
            "hf": list(self.hilbert_values(len(self.hvector))),
            "gens": list(self.betti.gens),
            "syz": list(self.betti.syz),
            "existsOnGeneralCurve": self.exists_on_general_curve,
            "flags": {label: ok for label, ok in self.flags},
        }


class SeriesAnswer(_Record):
    _fields = ("query", "constraints", "rows")

    def __init__(self, query: SeriesQuery, constraints: tuple[HFConstraint, ...], rows: tuple[SeriesRow, ...] = ()):
        self._set(query, constraints, rows)

    def to_json(self) -> dict:
        return {
            "curveDegree": self.query.curve_degree,
            "divisorDegree": self.query.divisor_degree,
            "seriesDim": self.query.series_dim,
            "constraints": [dict(zip(c._fields, c._values())) for c in self.constraints],
            "rows": [row.to_json() for row in self.rows],
        }


def analyze(query: SeriesQuery) -> SeriesAnswer:
    """Full pipeline: constraints, h-vector enumeration, existence, flags.

    Property constraints never filter the table; each row reports them
    as booleans.  An infeasible query yields an empty answer.
    """
    try:
        constraints = hf_constraints(query)
    except InfeasibleQueryError:
        return SeriesAnswer(query, ())
    d = query.curve_degree
    rows = []
    for h in enumerate_hvectors(query.divisor_degree, constraints, d):
        betti = generic_betti(h)
        decision = contains_subscheme(betti.to_dhb(), d)
        flags = tuple(
            (c.label, c.satisfied_by(sum(h[: max(c.level + 1, 0)])))
            for c in constraints
            if not c.mandatory
        )
        rows.append(SeriesRow(h, betti, decision.verdict, flags))
    return SeriesAnswer(query, tuple(constraints), tuple(rows))

"""Exception hierarchy shared across the package."""


class CurvedetError(Exception):
    """Base class for all errors raised by curvedet.  Keyword fields become
    attributes, and the payload lists them after `error` and `message`."""

    #: short machine-readable code, overridden by subclasses
    reason = "Error"

    def __init__(self, message: str = "", **fields):
        super().__init__(message)
        self.fields = fields
        self.__dict__.update(fields)

    def payload(self) -> dict:
        """Machine-readable description, used by the CLI error channel."""
        return {"error": self.reason, "message": str(self), **self.fields}


class NotHomogeneousError(CurvedetError, ValueError):
    """An integer grid fails the 2x2 homogeneity test a + e = b + c.

    Carries a witness block: rows (i, i2) and columns (j, j2), 1-based.
    """

    reason = "NotHomogeneous"

    def __init__(self, i: int, j: int, i2: int, j2: int):
        self.rows = (i, i2)
        self.cols = (j, j2)
        super().__init__(
            f"2x2 submatrix at rows {self.rows}, columns {self.cols} "
            f"violates a + e = b + c"
        )

    def payload(self) -> dict:
        return {"error": self.reason, "rows": list(self.rows), "cols": list(self.cols)}


class IncompatibleRowError(CurvedetError, ValueError):
    """A row to be inserted would break homogeneity of the target matrix."""

    reason = "IncompatibleRow"


class InvalidDHBError(CurvedetError, ValueError):
    """A degree Hilbert-Burch matrix has a negative diagonal entry."""

    reason = "InvalidDHB"


class EmptySchemeDegenerateError(CurvedetError, ValueError):
    """All diagonal entries vanish: the matrix presents the empty scheme."""

    reason = "EmptySchemeDegenerate"


class NotMinimalError(CurvedetError, ValueError):
    """An operation requiring a numerically minimal resolution got a non-minimal one."""

    reason = "NotMinimal"


class InvalidResolutionError(CurvedetError, ValueError):
    """Generator/syzygy degrees do not describe a zero-dimensional scheme."""

    reason = "InvalidResolution"


class DegenerateEmptyError(CurvedetError, ValueError):
    """Cancellation removed every generator from a resolution."""

    reason = "DegenerateEmpty"


class InadmissibleHVectorError(CurvedetError, ValueError):
    """A sequence is not the h-vector of points in the plane."""

    reason = "InadmissibleHVector"


class InfeasibleQueryError(CurvedetError, ValueError):
    """A linear-series query admits no Hilbert function at all."""

    reason = "InfeasibleQuery"


class FieldTooSmallError(CurvedetError, ValueError):
    """The prime field is too small for degree measurement on a line."""

    reason = "FieldTooSmall"


class CofactorBudgetError(CurvedetError, ValueError):
    """A matrix is too large for the witness's exact cofactor expansion."""

    reason = "CofactorBudgetExceeded"


class CensusBudgetError(CurvedetError, ValueError):
    """A census would examine more candidate presentations than its budget."""

    reason = "CensusBudgetExceeded"


class ScanBudgetError(CurvedetError, ValueError):
    """A scan or an hf table would fill more cells (degrees times n) than
    the scan budget."""

    reason = "ScanBudgetExceeded"


class SeriesBudgetError(CurvedetError, ValueError):
    """A series enumeration pops more h-vector prefixes than its budget."""

    reason = "SeriesBudgetExceeded"


class WitnessBudgetError(CurvedetError, ValueError):
    """A witness would draw and tabulate more residues than its budget."""

    reason = "WitnessBudgetExceeded"


class InvalidWitnessParameterError(CurvedetError, ValueError):
    """A witness trial count or prime the verification cannot work with."""

    reason = "InvalidWitnessParameter"

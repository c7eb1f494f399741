"""Exception types shared across the package."""

from __future__ import annotations


class CopolyError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(CopolyError, ValueError):
    """Outside input (a flag, a parameter or a polynomial) breaks a rule."""


class AdmissibilityViolation(CopolyError):
    """The Pearson moment recurrence degenerates at some order.

    The offending index is available as ``k``: it is the first index with
    ``psi' + k*phi''/2 == 0``, where the recurrence for the next moment
    would divide by zero.
    """

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"admissibility fails: psi' + k*phi''/2 = 0 at k = {k}")


class NotQuasiDefinite(CopolyError):
    """The moment functional admits no orthogonal sequence at the requested depth.

    ``level`` is the order of the first vanishing Hankel determinant.
    """

    def __init__(self, level: int):
        self.level = level
        super().__init__("moment functional is not quasi-definite "
                         f"(Hankel determinant of order {level} vanishes)")


class ExprSyntaxError(InvalidParameter):
    """Malformed polynomial expression or unbound name; offending position in ``position``."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (at position {position})")

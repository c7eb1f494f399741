"""Exception types shared across the package."""

from __future__ import annotations


class CopolyError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(CopolyError, ValueError):
    """Outside input (a flag, a family file, a parameter or a polynomial) breaks a rule."""


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
        super().__init__(f"Hankel determinant of order {level} vanishes")


class UnsupportedFamily(CopolyError):
    """The operation needs a catalog family with a known closed-form weight."""


class ExprSyntaxError(CopolyError):
    """Malformed polynomial expression; offending position in ``position``."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifier(CopolyError):
    """An identifier in a polynomial expression has no binding."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r} (at position {position})")

"""Exception types shared across the package.

The command line maps each class to an exit code (see ``tetralog.cli``).
"""

_INF = float("inf")


class TetralogError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TetralogError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    The command line exits 2: a usage error.
    """


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise DomainError unless 0 < tol < inf: the one rule for every
    tolerance the package takes, checked before any work, since a nan, an
    infinite, a zero or a negative tol certifies nothing."""
    if not 0.0 < tol < _INF:
        raise DomainError(f"{name} must be finite and positive, got {tol!r}")


def is_int(x: object) -> bool:
    """Whether x's type is int: the one rule for every integer argument the
    package takes.  A bool is not, nor a float, even an integral one.  The
    few-microsecond evaluators spell it ``type(x) is int`` inline."""
    return type(x) is int


class ConvergenceError(TetralogError, ArithmeticError):
    """An iterative evaluation failed to reach the requested tolerance.

    The command line exits 1: the result could not be certified.
    """


class QuadratureError(ConvergenceError):
    """A quadrature run could not certify the requested error bound.

    The command line exits 1, as for every ``ConvergenceError``.
    """


class PrecisionError(TetralogError, ArithmeticError):
    """Digit extraction aborted: a carry could not be resolved safely.

    The command line exits 1: the digits could not be certified.
    """


class UnknownCheckError(TetralogError, KeyError):
    """A verification check id is not present in the ledger.

    The command line exits 2: a usage error.
    """

    def __str__(self) -> str:
        # KeyError's own text is only the quoted id
        return f"unknown check id {KeyError.__str__(self)}"

"""Exception hierarchy for lomlab.

Every mathematically meaningful failure gets its own class so callers (and
the CLI) can map failures to exit codes without string matching.
"""

__all__ = [
    "LomlabError",
    "NonFiniteError",
    "ShapeMismatchError",
    "BadDimensionError",
    "NotAntiInvolutiveError",
    "NotTransitiveError",
    "NoSolutionError",
    "ClusterNotSeparatedError",
    "ClusterContainsZeroError",
    "NotCommutativeError",
    "NoConvergenceError",
    "BadScheduleError",
    "NotComplementaryError",
    "SingularTwistError",
    "NotInvariantError",
    "SingularSystemError",
    "BadExponentError",
    "ParseError",
]


class LomlabError(Exception):
    """Base class for all lomlab errors."""


class NonFiniteError(LomlabError):
    """Input contains NaN or infinite entries."""


class ShapeMismatchError(LomlabError):
    """Operand shapes are incompatible."""


class BadDimensionError(LomlabError):
    """A linear span has a dimension outside the admissible set."""


class NotAntiInvolutiveError(LomlabError):
    """A rescaled candidate unit fails U^2 = -1; input is not a division algebra."""


class NotTransitiveError(LomlabError):
    """The algebra has a nontrivial invariant subspace.

    ``witness`` is ``(x, W)`` with ``W`` an orthonormal basis (columns) of the
    invariant subspace and ``x`` a vector in it, when one was found.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NoSolutionError(LomlabError):
    """An interpolation system is infeasible.  ``residual`` is the attained minimum."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ClusterNotSeparatedError(LomlabError):
    """The requested eigenvalue cluster is not separated from the rest of the spectrum."""


class ClusterContainsZeroError(LomlabError):
    """The requested eigenvalue cluster contains (or touches) zero."""


class NotCommutativeError(LomlabError):
    """The algebra passed to an operation requiring commutativity is not commutative."""


class NoConvergenceError(LomlabError):
    """An iteration failed to converge within its guaranteed step bound."""


class BadScheduleError(LomlabError):
    """A block norm schedule is empty or has an entry below 1."""


class NotComplementaryError(LomlabError):
    """The two subspaces do not decompose the ambient space."""


class SingularTwistError(LomlabError):
    """A per-block change of basis is singular."""


class NotInvariantError(LomlabError):
    """A subspace fails the required invariance."""


class SingularSystemError(LomlabError):
    """A linear system that must have full rank is degenerate."""


class BadExponentError(LomlabError):
    """A growth exponent is outside its admissible range."""


class ParseError(LomlabError):
    """An instance file is malformed."""

"""Exception hierarchy for ncprob.

The classes below name what was wrong with the input: a map outside its
domain, a null event, mismatched dimensions, a failed precondition, a
broken algebra, a partition that does not fit, or an invalid scenario
file.  All derive from :class:`NcprobError`, so callers can catch the
family with one clause while still being able to branch on the semantic
subtype.

Everything else this package raises deliberately is a built-in type.  A
malformed value, given to a constructor (a matrix that is not Hermitian,
weights that do not sum to 1, an invalid ``OptimizerConfig``) or to a
function (``trials`` below 1, a Born weight below ``-DENSITY_TOL``),
raises ``ValueError``, and a value of the wrong type ``TypeError``.
``describe_task`` raises ``KeyError`` for an unknown task, and
``eur._overlap`` raises ``ArithmeticError`` for a projector overlap
above 1 beyond rounding, which no valid input reaches.
"""


class NcprobError(Exception):
    """Base class for all errors raised by ncprob."""


class DomainError(NcprobError):
    """A map was applied outside its domain.

    Raised when a random variable is not defined on every outcome of its
    space, when a spectral function cannot be evaluated at an eigenvalue,
    or when an event references outcomes the space does not contain.
    """


class NullEventError(NcprobError):
    """Conditioning on an event of probability zero."""


class DimensionError(NcprobError):
    """Operands live on spaces of incompatible dimension."""


class HypothesisError(NcprobError):
    """A precondition of a theorem-shaped routine failed (operator norm
    bound violated, required cross-commutation absent, ...)."""


class NonCommutingError(HypothesisError):
    """An operation that requires commuting operators received a pair
    whose commutator norm exceeds the stated tolerance."""


class AlgebraError(NcprobError):
    """A family of matrices is not the unital *-closed algebra basis it
    was claimed to be, or a representation contract failed to hold."""


class PartitionError(NcprobError):
    """A spectrum partition is malformed or incompatible with the
    operator/PVM it was paired with."""


class ScenarioError(NcprobError):
    """A scenario file failed validation.  ``field`` names the offending
    location when known."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)

"""Exception types shared across the package.

The CLI maps these onto exit codes: ValueError and subclasses are usage or
domain errors (exit 2), BudgetError is a resource refusal (exit 3), and
ConsistencyError flags an internal invariant failure (exit 4).
"""


class DimensionError(ValueError):
    """Operand sizes do not match (vector lengths, matrix shapes)."""


class RankError(ValueError):
    """A matrix expected to have full row rank does not.

    Carries the rank actually achieved in ``rank``.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class BudgetError(RuntimeError):
    """An operation was refused, or stopped short of its answer, because its
    cost exceeds the allowed budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""

"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: validation failures exit
with 1, numeric failures with 2.
"""


class ValidationError(ValueError):
    """Raised when an input (model file, bath, state, argument) violates a contract."""


class NumericError(RuntimeError):
    """Raised when a numerical procedure cannot deliver its result
    (singular solve, gamma at a rect support edge, trace drift, ...)."""

"""Exception types shared across the package."""
from __future__ import annotations

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class PseudoflowError(Exception):
    """Base class for numerical failures raised by this package."""


class ConvergenceError(PseudoflowError):
    """An integral (or tail estimate) failed to converge.

    Carries the last computed estimate and the achieved error bound so a
    caller can inspect how far the refinement got, and the message without
    them as ``reason``, so a caller can raise it again in other units.
    """

    def __init__(self, message: str, *, estimate=None, error_bound=None):
        self.reason = message
        self.estimate = estimate
        self.error_bound = error_bound
        if estimate is not None:
            message += f" (last estimate {estimate}, error bound {error_bound})"
        super().__init__(message)


class TruncationError(PseudoflowError):
    """A series truncation failed its tail test.

    Carries the size of the last finite term and the number of terms
    summed, and the message without them as ``reason``, as
    :class:`ConvergenceError` does.
    """

    def __init__(self, message: str, *, last_term=None, n_used=None):
        self.reason = message
        self.last_term = last_term
        self.n_used = n_used
        if last_term is not None:
            message += f" (last term {last_term:.3e} after {n_used} terms)"
        super().__init__(message)

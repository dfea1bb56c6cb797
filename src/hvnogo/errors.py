"""Semantic exception hierarchy shared by all hvnogo modules.

Every error that callers are expected to catch has its own class; plain
``ValueError``/``TypeError`` are reserved for programming mistakes (bad
argument types, non-finite angles, and the like).
"""

from __future__ import annotations

from contextlib import contextmanager


class HvnogoError(Exception):
    """Base class for all hvnogo domain errors."""


class InvalidDistribution(HvnogoError, ValueError):
    """A probability container violates nonnegativity or normalization."""


class ConditionOnNull(HvnogoError, ValueError):
    """Conditioning event has zero probability."""


class BoundaryParams(HvnogoError, ValueError):
    """A solution-family request with x, e_p, or e_w at 0 or 1, where the
    two-parameter description breaks down."""

    def __init__(self, parameter: str):
        self.parameter = parameter
        super().__init__(f"parameter {parameter!r} is at the boundary; the family is only two-dimensional for interior parameters")


class OutOfRange(HvnogoError, ValueError):
    """A free parameter lies outside the family's admissible interval."""


class NotASolution(HvnogoError, ValueError):
    """A table was passed where an exact solution of the constraint system
    is required."""


class DimensionMismatch(HvnogoError, ValueError):
    """Vector or matrix dimensions do not agree."""


class MalformedModel(HvnogoError, ValueError):
    """A witness model's payload does not match its mode or its family."""


class OversizedRational(HvnogoError, ValueError):
    """An exact result has a numerator or denominator with more digits
    than ``sys.get_int_max_str_digits()`` allows to print."""


class EmptySample(HvnogoError, ValueError):
    """Statistical comparison requested against zero recorded events."""


class MalformedInput(HvnogoError, ValueError):
    """A JSON input file does not match the documented schema.  The message
    names the offending field."""


@contextmanager
def malformed_input(where: str):
    """Re-raise a ``ValueError`` from the block as :class:`MalformedInput` prefixed with ``where``."""
    try:
        yield
    except ValueError as exc:
        raise MalformedInput(f"{where}: {exc}") from exc

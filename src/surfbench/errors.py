"""Exception taxonomy shared across the fitting and geometry modules.

Fit failures are expected events in the benchmark protocol: the experiment
runner converts them into invalid run records (with a reason code) rather
than letting them abort an experiment.
"""

__all__ = ["InterpolationError", "InsufficientNodes", "DegenerateGeometry", "DuplicateNodes",
           "SingularSystem", "NonFiniteInput", "IllConditionedWarning", "REASON_CODES", "reason_code"]


class InterpolationError(Exception):
    """Base class for recoverable fitting/geometry failures."""


class InsufficientNodes(InterpolationError):
    """Too few nodes for the requested operation."""


class DegenerateGeometry(InterpolationError):
    """Node set has no 2D extent (all points collinear)."""


class DuplicateNodes(InterpolationError):
    """Two nodes coincide within the duplicate tolerance."""


class SingularSystem(InterpolationError):
    """The interpolation system has no unique solution."""


class NonFiniteInput(InterpolationError):
    """A node coordinate or a data value is NaN or infinite."""


class IllConditionedWarning(UserWarning):
    """Fit succeeded but the system condition estimate is alarming."""


# The snake_case reason code of each expected fit failure.
REASON_CODES = {
    InsufficientNodes: "insufficient_nodes",
    DegenerateGeometry: "degenerate_geometry",
    DuplicateNodes: "duplicate_nodes",
    SingularSystem: "singular_system",
    NonFiniteInput: "non_finite_input",
}


def reason_code(exc: InterpolationError) -> str:
    """Stable snake_case reason code for an expected fit failure (one of
    the subclasses above; runs.csv holds no other code)."""
    return REASON_CODES[type(exc)]

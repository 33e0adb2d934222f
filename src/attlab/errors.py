"""Exception types shared across the package.

The CLI maps these onto exit codes: infeasible cases exit 3, and every
other one, a ValueError, exits 2 as an input/config problem.
"""


class ScenarioInfeasibleError(ValueError):
    """The commanded maneuver cannot be completed within the pass."""


class CaseInfeasibleError(ValueError):
    """A channel group required by the selected case is unavailable."""

    def __init__(self, group, message=None):
        self.group = group
        super().__init__(message or f"required channel group '{group}' is unavailable")


class DegenerateGeometryError(ValueError):
    """Observation/reference vectors too close to collinear for a TRIAD solve."""


class DataIntegrityError(ValueError):
    """A pass log violates its structural invariants."""


class IncompatibleModelError(ValueError):
    """A model file's header does not match the expected format or shapes."""

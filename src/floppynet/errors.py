"""Exception types shared across the package.

Each error carries a short stable ``code`` string so the CLI and tests can
match on it without parsing prose.
"""


class FloppyNetError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class ParameterError(FloppyNetError, ValueError):
    """A parameter outside its allowed range; still a ``ValueError``."""

    code = "bad-parameter"


class GeneratorSpecError(FloppyNetError):
    code = "bad-generator-spec"


class PackingNotConverged(FloppyNetError):
    code = "packing-not-converged"


class SchemaError(FloppyNetError):
    code = "schema-violation"


class SelfLoopError(FloppyNetError):
    code = "self-loop"


class DuplicateEdgeError(FloppyNetError):
    code = "duplicate-edge"


class DegenerateEdgeError(FloppyNetError):
    code = "degenerate-edge"


class NumericalBreakdown(FloppyNetError):
    code = "numerical-breakdown"


class BoundaryRowsError(FloppyNetError):
    code = "missing-boundary-rows"


class ProjectionFailed(FloppyNetError):
    code = "manifold-projection-failed"


class IntegrationDiverged(FloppyNetError):
    code = "integration-diverged"


class AlreadyRigidError(FloppyNetError):
    code = "already-rigid"


class NoCandidateLinkError(FloppyNetError):
    code = "no-candidate-link"


class EdgeMismatchError(FloppyNetError):
    code = "edge-mismatch"

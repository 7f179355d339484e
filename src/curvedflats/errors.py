"""Exception taxonomy, kept flat so the CLI can map errors to exit codes."""


class CurvedFlatsError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(CurvedFlatsError):
    """Bad inputs: dimension mismatches, invalid parameters, malformed config."""


class ConfigError(StructuralError):
    """Invalid or unparseable run configuration."""


class MissingArtifactError(StructuralError):
    """A run directory is missing or corrupt."""


class NumericalError(CurvedFlatsError):
    """Base for runtime numerical failures (exit code 3 in the CLI).  Carries
    the grid node where the failure was found and, from a kernel acting on a
    stack, the index of the failing slice, when there is one."""

    def __init__(self, message, node=None, index=None):
        super().__init__(message)
        self.node = node
        self.index = index


class BlowUpError(NumericalError):
    """Integration left the trust region.  Carries the last valid time/node."""

    def __init__(self, message, last_t=None, node=None):
        super().__init__(message, node)
        self.last_t = last_t


class InternalConsistencyError(NumericalError):
    """A structural identity that must hold numerically was violated."""


class NonCartanError(NumericalError):
    """Tangent span failed the Cartan-subspace test at some node."""


class DegenerateSpectrumError(NumericalError):
    """Singular values too close for an unambiguous normal-form branch."""


class DegenerateFrameError(NumericalError):
    """Re-orthonormalization pivot collapsed; frame left the group.  Carries
    the failing slice of a stack and, from the frame integration, the node."""

    def __init__(self, message, index=None, node=None):
        super().__init__(message, node, index)


class GaugeContinuityError(NumericalError):
    """The developing map's closedness defect points to a gauge branch flip
    between neighboring nodes."""


class NonImmersiveError(NumericalError):
    """Reconstructed map is degenerate at every grid node."""


class SeedingError(NumericalError):
    """Rejection sampling failed to produce an admissible initial state."""

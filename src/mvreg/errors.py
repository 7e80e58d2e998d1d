"""Exception and warning types shared across the package."""


class RegistrationError(Exception):
    """Base class for all domain errors raised by this package."""


# core geometry


class DegenerateMatrix(RegistrationError):
    """Matrix has no well-defined nearest rotation (rank < 2), or a linear
    system to solve is singular."""


# pairwise registration


class EmptyTarget(RegistrationError):
    """Soft assignment requested against an empty target set."""


class MissingFeatures(RegistrationError):
    """A point cloud lacks the per-point features an operation needs."""


class DimensionMismatch(RegistrationError):
    """Feature dimensions of the two clouds disagree."""


class DegenerateConfiguration(RegistrationError):
    """Weighted correspondence support is too thin to fix a rotation."""


class ZeroWeightSum(RegistrationError):
    """All correspondence weights are zero; no alignment is defined."""


# pose graph


class DuplicateEdge(RegistrationError):
    """The same unordered node pair was supplied twice."""


class IndexOutOfRange(RegistrationError):
    """Edge endpoint is not a valid node index (or is a self-loop)."""


class EmptyResiduals(RegistrationError):
    """Robust scale requested for an empty residual list."""


# synchronization


class DisconnectedGraph(RegistrationError):
    """Active edges do not connect all nodes; synchronization undefined."""


class EigenSolverFailure(RegistrationError):
    """The symmetric eigensolver did not converge."""


# multiview pipeline


class TooFewClouds(RegistrationError):
    """Multiview registration needs at least three clouds."""


class DisconnectedInput(RegistrationError):
    """The requested connectivity does not connect the input clouds."""


# evaluation


class EmptyErrors(RegistrationError):
    """ECDF requested for an empty error list."""


class EmptyPairs(RegistrationError):
    """Recall requested for an empty pair list."""


class LengthMismatch(RegistrationError):
    """Estimated and reference sequences have different lengths."""


# file formats


class MalformedHeader(RegistrationError):
    """File header violates the declared format."""


class UnsupportedFormat(RegistrationError):
    """File uses a declared but unsupported encoding variant."""


class TruncatedPayload(RegistrationError):
    """Payload size does not match what the header declares."""


class MalformedEntry(RegistrationError):
    """A record in a text file cannot be parsed."""


class MalformedConfig(RegistrationError):
    """Configuration file contains an unknown key or a bad value."""


class NonRigidMatrix(UserWarning):
    """Loaded 4x4 matrix whose rotation block is not orthonormal.

    Warning, not an error: the entry is still returned to the caller.
    """

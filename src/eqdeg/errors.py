"""Exception types shared across the toolkit."""


class DegreeError(Exception):
    """Base class for all toolkit-specific failures."""


class GroupMismatch(DegreeError):
    """Two ring elements over different groups were combined."""


class MultiplierMismatch(DegreeError):
    """Direct-limit classes built over different multiplier sequences."""


class NearSingular(DegreeError):
    """An operator block has an eigenvalue too close to zero."""


class DegenerateZero(DegreeError):
    """A located zero has a near-singular Hessian."""


class BoundaryZero(DegreeError):
    """Sampled |f| fell below threshold on the domain boundary."""


class ZeroOutsideFixedSpace(DegreeError):
    """A zero with a nontrivial normal component was detected; such
    orbits are outside the supported computation scope."""


class MarginFailure(DegreeError):
    """Tail bound did not certify below the boundary margin; raise the
    truncation level."""


class StabilizationFailure(DegreeError):
    """Consecutive truncation levels disagree: in their corrected degrees, or
    in their fields on a fixed space they share."""


class SliceMarginFailure(DegreeError):
    """A slice of an otopy path failed certification or broke constancy."""

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"slice t={t:g}: {message}")


class NoncompactZeroSet(DegreeError):
    """Boundary sampling found near-zeros, so the zero set cannot be
    assumed compact and the degree is not defined."""


class UnresolvedZeroCluster(DegreeError):
    """Candidate zeros could not be separated: grid refinement was
    exhausted, Newton steps from the zeros found did not settle, or two
    zeros that they bring to one point classify differently."""


class DimensionLimit(DegreeError):
    """A sampler was asked for more dimensions than it supports, so seed
    coverage cannot be provided."""


class EquivarianceFailure(DegreeError, ValueError):
    """A field failed a check of the equivariance contract: a sampled
    rotation did not commute with it, or it does not map the fixed-point
    space to itself."""


class AffinityFailure(DegreeError, ValueError):
    """A field declared affine differs from f(0) + Jx by more than
    rounding at a boundary sample."""


class SupportFailure(DegreeError, ValueError):
    """A local map declared ``blocks`` of its leading coordinates, but f_n
    differs from Ax beyond them, or its Jacobian couples two blocks, by more
    than rounding at a boundary sample."""


class NotAGradient(DegreeError):
    """The Jacobian at a zero is not symmetric and equivariant: no gradient."""


class NonFiniteField(DegreeError, ValueError):
    """A field or nonlinearity returned a value that is not finite at a
    boundary sample, so no margin can be certified there."""


class InputError(DegreeError):
    """Malformed problem description."""


class BadNumber(ValueError):
    """A number read from outside breaks ``reps._json_count`` or ``_json_number``."""

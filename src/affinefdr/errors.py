"""Exception hierarchy shared across the package."""


class AffineFdrError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBasis(AffineFdrError):
    """Generators are numerically linearly dependent."""


class NotAnEdge(AffineFdrError):
    """Vector is neither zero nor on an edge of the cone."""


class NotInV(AffineFdrError):
    """Vector lies outside the spanned state space (residual above tolerance)."""


class DimensionMismatch(AffineFdrError):
    """Operands have incompatible dimensions."""


class NotSymmetric(AffineFdrError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotSymmetricNonnegative(AffineFdrError):
    """Matrix expected to be symmetric positive semidefinite is not."""


class BasisNotExtension(AffineFdrError):
    """Extended basis does not start with the original basis vectors."""


class NotAffine(AffineFdrError):
    """Sampled map is not affine within tolerance."""


class DimensionExceeded(AffineFdrError):
    """Iterated subspace keeps growing past the allowed dimension."""


class NotInDomain(AffineFdrError):
    """Curve lacks the derivative data required by the operator."""


class GridMismatch(AffineFdrError):
    """Curves live on different grids."""


class ConstraintViolated(AffineFdrError):
    """A model invariant (e.g. a functional normalization) fails."""


class LeftBoundary(AffineFdrError):
    """The boundary trajectory exited the admissible region."""

    def __init__(self, exit_time: float):
        self.exit_time = exit_time
        super().__init__(f"boundary trajectory exits at t={exit_time:.6g}")


class HorizonMismatch(AffineFdrError):
    """Foliation does not cover the requested simulation horizon."""


class CflViolated(AffineFdrError):
    """Time step violates the CFL constraint dt <= dx."""


class NotInInitialSet(AffineFdrError):
    """Initial curve is not a member of the admissible initial set."""


class MissingArtifacts(AffineFdrError):
    """A run directory lacks required output files."""


class MalformedArtifact(AffineFdrError):
    """A run-directory file cannot be read as the artifact it should be."""


class ModelFileError(AffineFdrError):
    """Model file cannot be parsed or validated."""

"""Exception types shared across the toolkit."""


class DropcoilError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DropcoilError):
    """Parameter outside its admissible range."""


class NonConvergence(DropcoilError):
    """An iterative process (Newton inversion, refinement) failed to settle."""


class QuadratureDivergence(NonConvergence):
    """Singular-block refinement did not stabilize to the requested tolerance."""


class DegenerateMetric(DropcoilError):
    """det g <= 0 at an evaluation point; the perturbed patch self-intersects."""


class EmbeddingViolation(DropcoilError):
    """Coiled surface would self-intersect (R - max f_h <= 0 or 1 - h*kappa <= 0)."""


class GridMismatch(DropcoilError):
    """Field grid does not match the chart grid it is used with."""


class SingularSystem(DropcoilError):
    """A linear system that should be invertible is numerically singular."""


class IllConditioned(DropcoilError):
    """Unexpected near-kernel in a mode solve."""


class NoContraction(NonConvergence):
    """Fixed-point iteration kept expanding after damping."""


class RootNotBracketed(DropcoilError):
    """Scalar root absent from its admissible range."""


class BracketFailure(RootNotBracketed):
    """Bisection endpoints do not straddle the target value."""


class IoError(DropcoilError):
    """Output file could not be written."""

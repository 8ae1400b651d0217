"""Exception types shared across the package."""


class SurfquadError(Exception):
    """Base class for all package-specific errors."""


class SingularEvaluationError(SurfquadError):
    """Kernel evaluated at a coincident query/sample pair."""


class IllPosedSystemError(SurfquadError):
    """Rank-deficient least-squares system solved without regularization."""


class SelfIntersectionError(SurfquadError):
    """Offset construction collided with existing sample points."""


class DegeneratePairError(SurfquadError):
    """Green-gradient requested at a coincident or antipodal point pair."""


class ClampedMassWarning(UserWarning):
    """Clamping negative raw scalar weights removed a large share of the mass."""

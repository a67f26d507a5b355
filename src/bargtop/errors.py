"""Exception types shared across the package."""


class NumericalFailure(Exception):
    """A computation could not be completed reliably (singular system,
    divergent quadrature, conflicting verdicts).  Maps to CLI exit code 3."""


class InadmissibleProblem(Exception):
    """The weight/symbol pair fails the admissibility conditions.
    Maps to CLI exit code 2."""


class DegeneratePhase(NumericalFailure):
    """The critical system of a quadratic phase is singular, so no
    canonical transformation can be extracted."""


class ResolventSingular(NumericalFailure):
    """The heat-flow resolvent is singular: the Weyl symbol is not a
    finite Gaussian and is not representable by this package."""


class SingularSystem(NumericalFailure):
    """The linear system defining the coherent-state exponent is singular.
    For admissible inputs this signals a numerical failure, not mathematics."""


class QuadratureDivergence(NumericalFailure):
    """A quadrature integrand is not absolutely integrable."""


class NotAbsolutelyConvergent(NumericalFailure):
    """The convolution defining the numeric Weyl symbol does not converge
    absolutely for this instance; the closed form still stands."""


class DisagreementError(NumericalFailure):
    """Two independent classification routes produced confidently
    different verdicts.  Always an implementation or input bug."""


class ConstructionResidual(NumericalFailure, ValueError):
    """A symplectic map or antilinear involution misses its defining
    identity by more than the construction tolerance.  Built from a
    well-posed input this is round-off, e.g. a Levi form far from unit
    scale; it is also a ValueError for a matrix passed in directly."""


class OracleRefusal(ValueError):
    """The brute-force oracle does not handle this problem: a Galerkin
    section at n > 2 or on a non-diagonal Levi form, or a pluriharmonic
    part anywhere but in the Weyl convolution.  Maps to CLI exit code 2."""


class ProblemFileError(Exception):
    """A problem file could not be parsed; the message names the field."""

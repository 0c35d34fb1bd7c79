"""Exception and warning types shared across the toolkit."""


class GftError(Exception):
    """Base class for all toolkit errors."""


class DivisionAtZero(GftError):
    """A jet division hit a (near-)zero denominator value."""


class BranchPointOrPole(GftError):
    """log/sqrt/power/cot evaluated at a branch point or pole."""


class ExprSyntaxError(GftError):
    """Expression text failed to parse.

    Carries the 0-based offset of the offending token and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.expected = tuple(expected)


class EvaluationFailed(GftError):
    """Too many grid points failed to evaluate, or a required point did."""


class LocallyNonUnivalent(GftError):
    """f'(z) vanished (to tolerance) where a functional needs f' != 0."""


class NonnegativityViolated(GftError):
    """A coefficient function q took a negative value; input error."""


class StepSizeUnderflow(GftError):
    """The ODE integrator could not advance without stepping below eps."""


class ExtrapolationDiverged(GftError):
    """Richardson extrapolants failed to settle; carries the raw tail."""

    def __init__(self, message, tail=()):
        super().__init__(message)
        self.tail = tuple(tail)


class QuadratureFailed(GftError):
    """Adaptive integration of q over [0,1) did not converge."""


class TargetOutOfRange(GftError):
    """Requested boundary limit is outside the solvable range (0,1)."""


class DegenerateMobius(GftError):
    """Mobius coefficients with ad - bc = 0 define no transformation."""


class YVanishes(GftError):
    """The base solution y vanished inside the interval needed for 1/y^2."""


class NonAnalyticSample(GftError):
    """A coefficient sample for the ray ODE was non-finite."""


class WronskianDrift(GftError):
    """A ray solve's Wronskian u v' - u' v drifted from 1 past tolerance."""


class UnivalenceNotChecked(UserWarning):
    """Membership verdicts for the inverse-convex family assume a
    univalent input; the toolkit samples the inequality only."""

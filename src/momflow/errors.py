"""Exception taxonomy shared across the package."""


class MomflowError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedLevel(MomflowError, ValueError):
    """Oscillator level outside the shipped closed-form table: a refused argument."""


class NodeEvaluation(MomflowError):
    """Field evaluated inside the guard radius of a wavefunction node."""


class OffAxisEvaluation(MomflowError):
    """Numeric (non-holomorphic) field asked for a complex position."""


class DimensionTooLow(MomflowError):
    """Operation requires at least two spatial dimensions."""


class PathThroughNode(MomflowError):
    """Integration path passes through the guard radius of a node."""


class EmptyRegion(MomflowError):
    """Region has nothing to sample: no usable scan points, or no
    probability mass under an ensemble's sampling distribution."""


class ConvergenceFailure(MomflowError):
    """Iterative refinement failed to reach the requested tolerance."""


class TrajectoryNearSingularity(MomflowError):
    """Trajectory approached a field singularity and was halted.

    Carries the partial ``trajectory`` and the ``last_point`` accepted
    before the halt.
    """

    def __init__(self, message, trajectory=None, last_point=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.last_point = last_point


class StepUnderflow(TrajectoryNearSingularity):
    """Adaptive integrator pushed the step size below its floor."""


class BranchAmbiguity(MomflowError):
    """Square-root branch tracking passed too close to the branch point."""


class RegionOverlapsSingularity(MomflowError):
    """Sampling region intersects the guard neighborhood of a node."""


class TimeOutOfRange(MomflowError):
    """Requested time lies outside the evolved range."""


class ZeroMass(MomflowError):
    """Density comparison against an empty histogram or null reference."""


class TooFewSamples(MomflowError, ValueError):
    """History too short for the five-point derivative stencils: a refused argument."""


class NonuniformSampling(MomflowError, ValueError):
    """History sample times are not uniformly spaced: a refused argument."""


class ComponentNearZero(MomflowError):
    """A momentum component passes too close to zero for 1/p terms."""


class SingularMomentumMatrix(MomflowError):
    """Matrix-valued momentum has a vanishing amplitude and no inverse."""


class EmptySeries(MomflowError):
    """Plot requested for an empty data series."""

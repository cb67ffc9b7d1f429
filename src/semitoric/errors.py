"""Failure taxonomy shared across the package.

Every error carries enough context to tell a configuration problem
(bad window, bad schedule) from a numerical one (iteration cap, bad
conditioning) from a labelling one (transport broke down).
"""


class SemitoricError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SemitoricError, ValueError):
    """Bad input to the program: a window, schedule, model parameter or
    config file; a ValueError too, so callers that catch that still do."""


class DimensionMismatch(ConfigurationError):
    """2*k*r is not an integer for a coupled-momenta factor."""


class EmptyWindow(ConfigurationError):
    """No spectral block intersects the requested window."""


class DuplicateMu(ConfigurationError):
    """The mu probe values must be pairwise distinct."""


class NumericalFailure(SemitoricError):
    pass


class CommutatorViolation(NumericalFailure):
    """Dense [J, H] exceeded tolerance on interior states."""


class IllConditioned(NumericalFailure):
    """A fit or linear solve exceeded its condition-number budget."""


class SignError(NumericalFailure):
    """Recovered dy f_r(0) <= 0; orientation convention violated."""


class WindowTooNarrow(NumericalFailure):
    """A counting strip contains too few points to be meaningful."""


class NoPeak(NumericalFailure):
    """No interior log-peak: candidate is not focus-focus."""


class LabellingError(SemitoricError):
    pass


class InjectivityFailure(LabellingError):
    """Two generated lattice points collide within tolerance."""


class TooSparse(LabellingError):
    """Not enough points near the seed to build an affine basis, or a
    column cloud of fewer than 10 points to label."""


class AmbiguousNeighbor(LabellingError):
    """Two transport candidates inside the search radius (hbar too large)."""


class Disconnected(LabellingError):
    """Parallel transport could not reach part of the cloud."""


class EmptyStrip(LabellingError):
    """A vertical strip of the half-lattice algorithm contains no point."""


class MissingNeighbor(LabellingError):
    """A label needed by a spacing formula is absent from the labelling."""


class Inconsistent(LabellingError):
    """No integer affine map relates two labellings on their overlap."""


class CocycleViolation(LabellingError):
    """Chart transitions fail to compose to the identity on an overlap cycle."""


class NonSimplyConnected(LabellingError):
    """Chart cover has a cycle enclosing a hole; no monodromy correction here."""


class ActionDiscontinuity(LabellingError):
    """Successive radial probes disagree by about an integer (action jumped)."""

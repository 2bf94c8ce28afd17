"""Exception types shared across the package.

Every error raised on purpose by this package derives from ModspecError so
callers (and the command line front end) can catch one base class and report
the concrete class name.
"""


class ModspecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ModspecError):
    """Malformed edge-list input; the message carries the line number."""


class DuplicateEdge(ModspecError):
    """The same unordered vertex pair appeared twice in an edge list."""


class SelfLoop(ModspecError):
    """An edge list or weight matrix connects a vertex to itself."""


class NegativeWeight(ModspecError):
    """An edge weight is negative."""


class ZeroVolume(ModspecError):
    """A graph or vertex set with zero total weight where positive volume is required."""


class ZeroDegree(ModspecError):
    """A vertex with zero degree where positive degrees are required."""


class Disconnected(ModspecError):
    """The graph is not connected and the operation requires connectivity."""


class BadK(ModspecError):
    """A cluster count outside the valid range for the given graph."""


class BadSize(ModspecError):
    """Invalid size or probability parameters for a generator."""


class TooLarge(ModspecError):
    """The instance exceeds the hard limit of an exhaustive-enumeration routine."""


class EigenFailure(ModspecError):
    """The symmetric eigensolver failed, or a computed eigenvector fails the
    eigen-equation residual check."""


class Unsolved(ModspecError):
    """A partial spectral decomposition was read past the eigenvalues it solved."""


class InternalNumericalError(ModspecError):
    """A computed identity that must hold up to roundoff failed its self-check."""


class NoGap(ModspecError):
    """Consecutive eigenvalue magnitudes coincide where a gap is required."""


class WeightsNotProbabilities(ModspecError):
    """Edge weights exceed 1 where Bernoulli sampling needs probabilities."""

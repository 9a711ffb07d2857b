"""Exception taxonomy for the toolkit.

Every error raised on purpose by this package derives from :class:`CvdistError`,
so callers (and the CLI) can map failures to exit codes without matching on
message strings.
"""


class CvdistError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(CvdistError, ValueError):
    """Numeric input is malformed: non-finite entries or an asymmetric covariance."""


class DimensionError(CvdistError):
    """A dimension is structurally invalid (e.g. zero modes)."""


class DimensionMismatch(CvdistError):
    """Two objects that must share a dimension do not."""


class NotSymplectic(CvdistError):
    """Matrix fails the symplectic-form invariant S @ Omega @ S.T == Omega."""


class NotPositiveDefinite(CvdistError):
    """Matrix required to be positive definite is not."""


class NotPhysical(CvdistError):
    """Covariance matrix violates the uncertainty relation (nu_min < 1)."""


class NotPhysicalWitness(CvdistError):
    """Separable-channel witness (gamma_A, gamma_B, Y) is not valid."""


class SingularConditioning(CvdistError):
    """Channel conditioning matrix is singular or too ill-conditioned.

    Usually means the channel is over-idealized; increase the approximation
    squeezing instead of asking for a pseudo-inverse.
    """


class DegenerateQuadrature(CvdistError):
    """Homodyne measurement of a quadrature with (numerically) zero variance."""


class InvalidSplit(CvdistError):
    """Bipartite split does not partition the modes of the state."""


class EmptyKeepSet(CvdistError):
    """partial_trace asked to keep no modes."""


class UnknownKind(CvdistError):
    """Unrecognized constructor kind string."""


class ParamOutOfRange(CvdistError):
    """Parameter outside its documented domain."""


class NotPure(CvdistError):
    """State required to be pure has a symplectic eigenvalue away from 1."""


class NotThreeMode(CvdistError):
    """Operation defined only for three-mode states."""

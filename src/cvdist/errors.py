"""Exception taxonomy for the toolkit.

Every error raised on purpose by this package derives from :class:`CvdistError`,
so callers (and the CLI) can map failures to exit codes without matching on
message strings. Each class carries its CLI exit code (``exit_code``) and the
label the CLI prints before its message (``label``), and subclasses inherit
both: every :class:`NotPhysical` (an unphysical state or Choi covariance, a
covariance that is not positive definite, or a state that is not pure) exits
3, every :class:`DimensionMismatch` exits 4, and any other
:class:`CvdistError` exits 2.
"""


class CvdistError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2
    label = "error"


class MalformedInput(CvdistError, ValueError):
    """Numeric input is malformed: non-finite entries or an asymmetric covariance."""
    label = "input problem"


class DimensionMismatch(CvdistError):
    """Two objects that must share a dimension do not."""
    exit_code = 4
    label = "dimension problem"


class DimensionError(DimensionMismatch):
    """A dimension is structurally invalid (e.g. zero modes)."""


class NotSymplectic(CvdistError):
    """Matrix fails the symplectic-form invariant S @ Omega @ S.T == Omega."""


class NotPhysical(CvdistError):
    """Input is not physical: Gamma + i Omega >= 0 fails; see subclasses."""
    exit_code = 3
    label = "unphysical input"


class NotPositiveDefinite(NotPhysical):
    """Matrix required to be positive definite is not."""


class SingularConditioning(CvdistError):
    """A covariance too ill-conditioned (condition number above 1e7) for
    float64 to resolve its symplectic spectrum, which also leaves its
    physicality undecided."""


class DegenerateQuadrature(CvdistError):
    """A measured block, or a channel's conditioning matrix A + R G R, is too
    degenerate to condition on: it does not factor, or a quadrature's
    variance given the earlier ones is below 1e-12 x max(1, its own)."""


class InvalidSplit(DimensionMismatch):
    """Bipartite split does not partition the modes of the state."""


class EmptyKeepSet(DimensionMismatch):
    """partial_trace asked to keep no modes."""


class ParamOutOfRange(CvdistError):
    """Parameter outside its documented domain."""


class NotPure(NotPhysical):
    """State required to be pure has a symplectic eigenvalue away from 1."""


class NotThreeMode(DimensionMismatch):
    """Operation defined only for three-mode states."""

"""Exception taxonomy for the toolkit.

Every error raised on purpose by this package is a direct subclass of
:class:`CvdistError`, so callers (and the CLI) can map failures to exit codes
without matching on message strings; the message names the reason. Each
class carries its CLI exit code (``exit_code``) and the label the CLI prints
before its message (``label``): :class:`NotPhysical` exits 3,
:class:`DimensionMismatch` exits 4, and any other class exits 2.
"""


class CvdistError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2
    label = "error"


class MalformedInput(CvdistError, ValueError):
    """Numeric input is malformed: an entry that is NaN, inf or above
    ``symplectic.MAX_ENTRY``, or an asymmetric covariance."""
    label = "input problem"


class DimensionMismatch(CvdistError):
    """A dimension is wrong: a mode count below 1, a list of mode indices
    that is empty, repeats a mode, misses one or names one the state lacks,
    a state with the wrong mode count, or two objects that must share a
    dimension and do not."""
    exit_code = 4
    label = "dimension problem"


class NotSymplectic(CvdistError):
    """Matrix fails the symplectic-form invariant S @ Omega @ S.T == Omega."""


class NotPhysical(CvdistError):
    """Input is not physical: Gamma + i Omega >= 0 fails, the covariance has an
    eigenvalue negative beyond rounding, or a state required to be pure is not."""
    exit_code = 3
    label = "unphysical input"


class SingularConditioning(CvdistError):
    """A covariance too ill-conditioned (condition number above 1e7, or a
    smallest eigenvalue within rounding of 0) for float64 to resolve its
    symplectic spectrum, which also leaves its physicality undecided."""


class DegenerateQuadrature(CvdistError):
    """A measured block, or a channel's conditioning matrix A + R G R, is too
    degenerate to condition on: it does not factor, or a quadrature's
    variance given the earlier ones is below 1e-12 x max(1, its own)."""


class ParamOutOfRange(CvdistError):
    """Parameter outside its documented domain."""

"""Symplectic linear algebra in the xpxp quadrature ordering.

Conventions (used consistently across the package):

* quadratures are ordered r = (x1, p1, ..., xN, pN),
* the symplectic form is Omega = direct sum of [[0, 1], [-1, 0]] blocks,
* hbar = 1 and covariance matrices carry doubled second moments,
  Gamma_ij = <dr_i dr_j + dr_j dr_i>, so the vacuum covariance is the
  identity and a matrix is physical iff it is positive definite and all
  symplectic eigenvalues are >= 1 (Gamma + i Omega >= 0).

The symplectic spectrum and the Williamson form come from one Hermitian
eigendecomposition, of i Gamma^{1/2} Omega Gamma^{1/2}. Its rounding error
grows with the condition number of Gamma, so a covariance above
``_MAX_COV_CONDITION`` (tmsv(r) beyond r = 4.03) raises
:class:`SingularConditioning` instead of returning an unresolved spectrum;
``GaussianState.require_physical`` refuses such a covariance the same way.

The module loads numpy alone, and so does the rest of the package: the matrix
exponential behind ``random_symplectic`` is a numpy scaling-and-squaring Pade
approximant, so no command of cvdist loads scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    NotSymplectic,
    ParamOutOfRange,
    SingularConditioning,
)

#: A matrix counts as symplectic when ||S Omega S^T - Omega||_max is at most
#: max(SYMPLECTIC_ATOL, SYMPLECTIC_RTOL max|S|^2). The absolute floor keeps
#: every matrix accepted with it alone; the relative part follows rounding,
#: which grows as eps max|S|^2. Measured on exactly built symplectics, the
#: deviation reads at most 4.3e-16 max|S|^2 on two_mode_squeezer(r) for
#: r <= 12 (1.7e-8 absolute at r = 10), 1.4e-15 on random_symplectic (1-4
#: modes, scale <= 4) and 1.1e-15 on the no-go search's party symplectics at
#: the squeeze clamp. On two_mode_squeezer(10), one entry off by a relative
#: 1e-13 reads 10x above the bound.
SYMPLECTIC_ATOL = 1e-10
SYMPLECTIC_RTOL = 1e-14

#: Largest |entry| of an array or parameter that a checking constructor
#: takes (``_require_entries``), chosen so that no operation on checked input
#: overflows float64 (1.8e308). With d quadratures: S Gamma S^T sums d^2
#: products of three entries, at most (2 x 512)^2 x 1e300 = 1.05e306 for
#: d <= 2 x ``cli.MAX_MODES`` (the CLI applies it at d <= 8), and the Bell
#: beamsplitter adds two entries times 1/sqrt(2). An update of a physical
#: state (the channel action and ``run_fig1``'s shift included) has
#: V >= Gamma_bb, so its gain K keeps K V K^T <= Gamma_aa, and lambda_min(V)
#: >= 1 / lambda_max(Gamma) >= 1 / (d 1e100) (a channel on input G: V >= A,
#: K V K^T <= B, V >= R G R): |K| <= d 1e100, and K maps a vector of entries
#: up to 1e100 below 2 d^1.5 1e200 (7e204 at d = 1024).
MAX_ENTRY = 1e100

#: Largest condition number lambda_max / lambda_min of a covariance whose
#: symplectic spectrum is computed. On tmsv(r) (condition number e^{4r}) the
#: rounding error of E_N grows as about 5e-16 times the condition number:
#: 4.3e-9 at 8.9e6 (r = 4.0), 2.5e-8 at 6.6e7, 1e-4 by 1e12. The largest
#: condition number in the test suite is 2.3e6, in the kernel checks past the
#: no-go search's squeezing clamp.
_MAX_COV_CONDITION = 1e7

#: eigvalsh's rounding of a covariance's smallest eigenvalue, relative to its
#: largest: a smallest eigenvalue within it of 0 is unresolved, not proven
#: negative. Pure states read at worst -5.2e-16: tmsv(r) for 9 <= r <= 115
#: under random phase rotations, and S S^T of random 1-4 mode symplectics.
_EIGVALSH_RTOL = 1e-15

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_entries(what: str, a, bound: float = MAX_ENTRY) -> float:
    """The one float64-range rule: MalformedInput unless every |entry| of
    ``a`` is at most ``bound`` (a NaN fails too). Returns the largest."""
    scale = float(np.abs(a).max())
    if not scale <= bound:
        raise MalformedInput(f"{what} of magnitude {scale:.4g} is outside the accepted "
                             f"range (finite, at most {bound:.4g})")
    return scale


def _require_modes(n: int) -> None:
    """Every constructor's mode-count rule: DimensionMismatch below 1."""
    if n < 1:
        raise DimensionMismatch(f"mode count must be >= 1, got {n}")


def _mode_indices(modes, n_modes: int | None = None, count: int | None = None) -> tuple:
    """Every rule for a list of mode indices: ``modes`` as a tuple of ints
    (by ``operator.index``: numpy integers pass, floats do not), at least one
    (exactly ``count`` when given), none repeated or negative, and each below
    ``n_modes`` when that is given. So ``count=n_modes`` asks for a
    permutation of 0..n_modes-1. DimensionMismatch otherwise."""
    try:
        modes = tuple(map(operator.index, modes))
        valid = (modes and len(set(modes)) == len(modes) and min(modes) >= 0
                 and (n_modes is None or max(modes) < n_modes)
                 and (count is None or len(modes) == count))
    except TypeError:  # a float, or any other non-integer index
        modes, valid = tuple(modes), False
    if not valid:
        size = "1 or more" if count is None else count
        span = ">= 0" if n_modes is None else f"in 0..{n_modes - 1}"
        raise DimensionMismatch(f"mode indices {modes} must be {size} distinct values {span}")
    return modes


def _symmetrized(c: np.ndarray) -> np.ndarray:
    """(c + c^T) / 2, exactly symmetric. Halving first is exact for normal
    entries, so the bits are those of that formula, and the result stays
    finite for every finite ``c``, where c + c^T overflows past 9e307."""
    h = c * 0.5
    return h + h.T


@lru_cache(maxsize=64)
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in xpxp ordering (read-only)."""
    return _freeze(np.kron(np.eye(n_modes), _J))


def quad_indices(modes) -> np.ndarray:
    """Quadrature (row/column) indices of the given modes, in the given order."""
    modes = np.atleast_1d(np.asarray(modes, dtype=int))
    return (2 * modes.reshape(-1, 1) + np.arange(2)).ravel()


@lru_cache(maxsize=64)
def _momentum_flip(n_modes: int, modes: tuple):
    """Signs r (-1 on the momenta of ``modes``) and outer(r, r): transposing
    ``modes`` maps G to G * outer(r, r). Read-only, cached."""
    r = np.ones(2 * n_modes)
    r[quad_indices(modes)[1::2]] = -1.0
    return _freeze(r), _freeze(np.outer(r, r))


def block_diag(*blocks) -> np.ndarray:
    """Square blocks placed along the diagonal of a zero matrix, in order."""
    blocks = [np.asarray(b) for b in blocks]
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.result_type(*blocks))
    k = 0
    for b in blocks:
        out[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    return out


def symplectic_error(s: np.ndarray) -> float:
    """Max-norm deviation of ``s`` from the symplectic condition."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    om = omega(n)
    return float(np.abs(s @ om @ s.T - om).max())


def assert_symplectic(s: np.ndarray) -> np.ndarray:
    """Return ``s`` as a float array, raising :class:`NotSymplectic` if invalid,
    and :class:`MalformedInput` for an entry outside ``_require_entries``'s
    range. The bound covers one matrix's rounding; a product's follows its
    factors' norms, not its own, so a caller who checks a product checks its
    factors."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise NotSymplectic(f"matrix of shape {s.shape} cannot be symplectic")
    scale = _require_entries("symplectic matrix entry", s)
    err = symplectic_error(s)
    bound = max(SYMPLECTIC_ATOL, SYMPLECTIC_RTOL * scale ** 2)
    if not err <= bound:
        raise NotSymplectic(f"||S Omega S^T - Omega||_max = {err:.3e} > {bound:.1e}")
    return s


# ---------------------------------------------------------------------------
# standard building blocks
# ---------------------------------------------------------------------------


def phase_rotation(theta: float) -> np.ndarray:
    """Single-mode phase rotation; theta = pi/2 maps (x, p) -> (p, -x)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeezer(r: float) -> np.ndarray:
    """Single-mode squeezer diag(e^r, e^-r)."""
    return np.diag([np.exp(r), np.exp(-r)])


#: Largest |r| of a two-mode squeezer: cosh(r) reaches MAX_ENTRY (to rounding).
_MAX_SQUEEZING = math.acosh(MAX_ENTRY)


def two_mode_squeezer(r: float) -> np.ndarray:
    """Two-mode squeezer, for |r| <= ``_MAX_SQUEEZING``; on vacuum, tmsv(r)."""
    _require_entries("squeezing", r, _MAX_SQUEEZING)
    ch, sh = np.cosh(r), np.sinh(r)
    return np.block([[ch * _I2, sh * _Z], [sh * _Z, ch * _I2]])


def mode_permutation(order, n_modes: int) -> np.ndarray:
    """Symplectic permutation; new mode k is old mode ``order[k]``."""
    return np.eye(2 * n_modes)[quad_indices(_mode_indices(order, n_modes, count=n_modes))]


#: Coefficients b_0..b_13 of the [13/13] Pade approximant p(z) / p(-z) to exp,
#: p(z) = sum_k b_k z^k (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
#: Row k combines the powers (I, A^2, A^4, A^6) into C_k; the odd part of
#: p(A) is U = A (A^6 C_0 + C_1) and the even part V = A^6 C_2 + C_3.
_PADE13 = np.array([
    [0.0, 40840800.0, 16380.0, 1.0],
    [32382376266240000.0, 1187353796428800.0, 10559470521600.0, 33522128640.0],
    [0.0, 1323241920.0, 960960.0, 182.0],
    [64764752532480000.0, 7771770303897600.0, 129060195264000.0, 670442572800.0],
])

#: Largest 1-norm for which the [13/13] approximant meets double precision
#: unscaled; a larger matrix is halved s times and the result squared s times.
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small square matrix by scaling and squaring.

    For a Hamiltonian ``a`` = Omega H the result is symplectic to rounding:
    a diagonal Pade approximant r satisfies r(z) r(-z) = 1, so r(Omega H) is
    symplectic in exact arithmetic, and so are its squares.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    d = len(a)
    powers = np.empty((4, d, d))
    powers[0] = np.eye(d)
    powers[1] = a @ a
    powers[2] = powers[1] @ powers[1]
    powers[3] = powers[1] @ powers[2]
    c = (_PADE13 @ powers.reshape(4, -1)).reshape(4, d, d)
    u = a @ (powers[3] @ c[0] + c[1])
    v = powers[3] @ c[2] + c[3]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic exp(Omega H), H = (G + G^T) / 2 with G iid N(0, scale^2).

    The draw is a single exponential, so it does not reach all of Sp(2n, R):
    diag(-2, -1/2) in Sp(2, R) = SL(2, R) has trace < -2 and is no real
    exponential. ``scale`` controls how far from the identity the draw
    typically lands. Refuses ``n_modes < 1`` with :class:`DimensionMismatch`
    and a negative or non-finite ``scale`` with :class:`ParamOutOfRange`.
    """
    _require_modes(n_modes)
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ParamOutOfRange(f"scale must be finite and >= 0, got {scale}")
    dim = 2 * n_modes
    h = _symmetrized(rng.normal(0.0, scale, size=(dim, dim)))
    return _expm(omega(n_modes) @ h)


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WilliamsonDecomp:
    """Williamson normal form Gamma = S (diag of nus, doubled) S^T."""

    s: np.ndarray
    nus: np.ndarray


def _require_resolvable(w: np.ndarray) -> None:
    """Refuse a covariance, given its ascending eigenvalues ``w``, whose
    symplectic eigenvalues float64 cannot resolve: NotPhysical when w[0] is
    negative beyond eigvalsh's rounding, SingularConditioning when w[0] is
    within it of 0 or below w[-1] / _MAX_COV_CONDITION."""
    if not w[0] > -_EIGVALSH_RTOL * w[-1]:
        raise NotPhysical(f"smallest eigenvalue {w[0]:.3e} <= 0")
    if w[-1] > _MAX_COV_CONDITION * w[0]:
        raise SingularConditioning(
            f"covariance eigenvalues span {w[0]:.3e} to {w[-1]:.3e}, a condition number "
            f"above {_MAX_COV_CONDITION:.0e}: float64 cannot resolve its symplectic spectrum")


def _symplectic_hermitian(cov: np.ndarray):
    """Gamma^{1/2} and the Hermitian i Gamma^{1/2} Omega Gamma^{1/2}.

    The eigenvalues of the second matrix are +-nu_k, the symplectic
    eigenvalues of Gamma. Raises :class:`NotPhysical` or
    :class:`SingularConditioning` where ``_require_resolvable`` refuses the
    eigenvalues of Gamma.
    """
    w, v = np.linalg.eigh(cov)
    _require_resolvable(w)
    root = (v * np.sqrt(w)) @ v.T
    return root, 1j * (root @ omega(len(cov) // 2) @ root)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite covariance, sorted descending.

    These are the moduli of the eigenvalues of i Omega Gamma, one value per
    mode: the positive half of the spectrum of the Hermitian matrix
    i Gamma^{1/2} Omega Gamma^{1/2}. A matrix with an eigenvalue negative
    beyond rounding raises :class:`NotPhysical`; one too ill-conditioned to
    resolve, or singular to rounding, raises :class:`SingularConditioning`.
    """
    cov = np.asarray(cov, dtype=float)
    return np.linalg.eigvalsh(_symplectic_hermitian(cov)[1])[len(cov) // 2:][::-1]


def williamson(cov: np.ndarray) -> WilliamsonDecomp:
    """Williamson decomposition of a positive-definite covariance matrix.

    Returns S symplectic and the symplectic eigenvalues nu_k (descending) with
    Gamma = S (direct sum of nu_k I_2) S^T, S = Gamma^{1/2} Q diag(nu)^{-1/2}.
    Each eigenvector w of i Gamma^{1/2} Omega Gamma^{1/2} for +nu_k gives the
    column pair sqrt(2) (Im w, Re w) of the orthogonal Q. These pairs are
    orthonormal also for degenerate nus, since the -nu eigenvectors, the
    conjugates of the +nu ones, span the orthogonal complement.
    """
    cov = np.asarray(cov, dtype=float)
    n = len(cov) // 2
    root, form = _symplectic_hermitian(cov)
    mu, w = np.linalg.eigh(form)
    nus = mu[n:][::-1]
    w = np.sqrt(2.0) * w[:, n:][:, ::-1]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = w.imag
    q[:, 1::2] = w.real
    s = (root @ q) / np.sqrt(np.repeat(nus, 2))[None, :]
    return WilliamsonDecomp(s=s, nus=nus)

"""Symplectic linear algebra in the xpxp quadrature ordering.

Conventions (used consistently across the package):

* quadratures are ordered r = (x1, p1, ..., xN, pN),
* the symplectic form is Omega = direct sum of [[0, 1], [-1, 0]] blocks,
* hbar = 1 and covariance matrices carry doubled second moments,
  Gamma_ij = <dr_i dr_j + dr_j dr_i>, so the vacuum covariance is the
  identity and a matrix is physical iff it is positive definite and all
  symplectic eigenvalues are >= 1 (Gamma + i Omega >= 0). In float64 eigh
  keeps tmsv(r) positive definite up to about r = 9, where nu already reads
  0.989; stronger squeezing is out of reach of these routines.

The module loads numpy alone. The two functions that need scipy,
``random_symplectic`` (a matrix exponential) and ``williamson`` (a real Schur
form), import it when called, so a no-go search or a Fig. 1 run on given
inputs never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymplectic

#: Tolerance on ||S Omega S^T - Omega||_max for a matrix to count as symplectic.
SYMPLECTIC_ATOL = 1e-10

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


@lru_cache(maxsize=64)
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in xpxp ordering (read-only)."""
    om = np.kron(np.eye(n_modes), _J)
    om.flags.writeable = False
    return om


def quad_indices(modes) -> np.ndarray:
    """Quadrature (row/column) indices of the given modes, in the given order."""
    modes = np.atleast_1d(np.asarray(modes, dtype=int))
    return (2 * modes.reshape(-1, 1) + np.arange(2)).ravel()


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
    """Return ``s`` as a float array, raising :class:`NotSymplectic` if invalid."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise NotSymplectic(f"matrix of shape {s.shape} cannot be symplectic")
    err = symplectic_error(s)
    if err > SYMPLECTIC_ATOL:
        raise NotSymplectic(f"||S Omega S^T - Omega||_max = {err:.3e} > {SYMPLECTIC_ATOL:.1e}")
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


def two_mode_squeezer(r: float) -> np.ndarray:
    """Two-mode squeezer; applied to vacuum it produces tmsv(r)."""
    ch, sh = np.cosh(r), np.sinh(r)
    return np.block([[ch * _I2, sh * _Z], [sh * _Z, ch * _I2]])


def mode_permutation(order, n_modes: int) -> np.ndarray:
    """Symplectic permutation; new mode k is old mode ``order[k]``."""
    order = tuple(order)
    if sorted(order) != list(range(n_modes)):
        raise DimensionMismatch(f"{order} is not a permutation of {n_modes} modes")
    p = np.zeros((2 * n_modes, 2 * n_modes))
    for new, old in enumerate(order):
        p[2 * new, 2 * old] = 1.0
        p[2 * new + 1, 2 * old + 1] = 1.0
    return p


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic exp(Omega H) with H symmetric Gaussian of width ``scale``.

    Surjective onto the identity component and numerically simple; ``scale``
    controls how far from the identity the draw typically lands.
    """
    from scipy.linalg import expm  # imported here: see the module docstring

    dim = 2 * n_modes
    h = rng.normal(0.0, scale, size=(dim, dim))
    h = (h + h.T) / 2.0
    return expm(omega(n_modes) @ h)


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WilliamsonDecomp:
    """Williamson normal form Gamma = S (diag of nus, doubled) S^T."""

    s: np.ndarray
    nus: np.ndarray


def _pd_root(cov: np.ndarray):
    """Eigen-based Gamma^{1/2}, with Gamma's eigenvectors and the roots of its
    eigenvalues; raises :class:`NotPositiveDefinite` unless Gamma is PD."""
    w, v = np.linalg.eigh(cov)
    if not w[0] > 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} <= 0")
    sq = np.sqrt(w)
    return (v * sq) @ v.T, v, sq


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite covariance, sorted descending.

    These are the moduli of the eigenvalues of i Omega Gamma, one value per
    mode, computed as the singular values of Gamma^{1/2} Omega Gamma^{1/2}.
    A matrix that is not positive definite is not a physical covariance and
    raises :class:`NotPositiveDefinite`.
    """
    cov = np.asarray(cov, dtype=float)
    root = _pd_root(cov)[0]
    sv = np.linalg.svd(root @ omega(cov.shape[0] // 2) @ root, compute_uv=False)
    return sv[::2]


def williamson(cov: np.ndarray) -> WilliamsonDecomp:
    """Williamson decomposition of a positive-definite covariance matrix.

    Returns S symplectic and the symplectic eigenvalues nu_k (descending) with
    Gamma = S (direct sum of nu_k I_2) S^T. Computed from the real Schur form
    of the antisymmetric matrix Gamma^{-1/2} Omega Gamma^{-1/2}, which keeps
    the eigenvector pairs orthogonal by construction, also for degenerate nus.
    """
    from scipy.linalg import schur  # imported here: see the module docstring

    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    root, v, sq = _pd_root(cov)
    inv_root = (v / sq) @ v.T
    a = inv_root @ omega(n) @ inv_root
    a = (a - a.T) / 2.0
    t, q = schur(a)
    q = q.copy()
    mus = np.empty(n)
    for k in range(n):
        mu = t[2 * k, 2 * k + 1]
        if mu < 0.0:
            q[:, [2 * k, 2 * k + 1]] = q[:, [2 * k + 1, 2 * k]]
            mu = -mu
        mus[k] = mu
    nus = 1.0 / mus
    order = np.argsort(-nus, kind="stable")
    cols = np.column_stack((2 * order, 2 * order + 1)).ravel()
    q = q[:, cols]
    nus = nus[order]
    s = (root @ q) / np.sqrt(np.repeat(nus, 2))[None, :]
    return WilliamsonDecomp(s=s, nus=nus)

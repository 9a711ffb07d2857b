"""Symplectic linear algebra in the xpxp quadrature ordering.

Conventions (used consistently across the package):

* quadratures are ordered r = (x1, p1, ..., xN, pN),
* the symplectic form is Omega = direct sum of [[0, 1], [-1, 0]] blocks,
* hbar = 1 and covariance matrices carry doubled second moments,
  Gamma_ij = <dr_i dr_j + dr_j dr_i>, so the vacuum covariance is the
  identity and a matrix is physical iff all symplectic eigenvalues are >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, polar, schur

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymplectic,
    ParamOutOfRange,
)

#: Tolerance on ||S Omega S^T - Omega||_max for a matrix to count as symplectic.
SYMPLECTIC_ATOL = 1e-10

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


@lru_cache(maxsize=64)
def _omega_cached(n_modes: int) -> np.ndarray:
    om = np.kron(np.eye(n_modes), _J)
    om.flags.writeable = False
    return om


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in xpxp ordering (read-only)."""
    return _omega_cached(int(n_modes))


def quad_indices(modes) -> np.ndarray:
    """Quadrature (row/column) indices of the given modes, in the given order."""
    modes = np.atleast_1d(np.asarray(modes, dtype=int))
    return np.column_stack((2 * modes, 2 * modes + 1)).ravel()


def symplectic_error(s: np.ndarray) -> float:
    """Max-norm deviation of ``s`` from the symplectic condition."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    om = omega(n)
    return float(np.abs(s @ om @ s.T - om).max())


def assert_symplectic(s: np.ndarray, atol: float = SYMPLECTIC_ATOL) -> np.ndarray:
    """Return ``s`` as a float array, raising :class:`NotSymplectic` if invalid."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise NotSymplectic(f"matrix of shape {s.shape} cannot be symplectic")
    err = symplectic_error(s)
    if err > atol:
        raise NotSymplectic(f"||S Omega S^T - Omega||_max = {err:.3e} > {atol:.1e}")
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


def beamsplitter(transmittance: float) -> np.ndarray:
    """Beamsplitter on two modes; transmittance 0.5 is the balanced one.

    Convention: B = [[sqrt(T) I, sqrt(1-T) I], [-sqrt(1-T) I, sqrt(T) I]],
    so for T = 0.5 the outputs are (r_a + r_b)/sqrt(2) and (r_b - r_a)/sqrt(2).
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ParamOutOfRange(f"transmittance {transmittance} outside [0, 1]")
    t = np.sqrt(transmittance)
    rf = np.sqrt(1.0 - transmittance)
    return np.block([[t * _I2, rf * _I2], [-rf * _I2, t * _I2]])


def embed(s: np.ndarray, modes, n_modes: int) -> np.ndarray:
    """Embed a symplectic acting on ``modes`` into an ``n_modes`` identity."""
    s = np.asarray(s, dtype=float)
    modes = tuple(modes)
    if s.shape != (2 * len(modes), 2 * len(modes)):
        raise DimensionMismatch(
            f"matrix shape {s.shape} does not act on {len(modes)} modes"
        )
    if any(not 0 <= m < n_modes for m in modes) or len(set(modes)) != len(modes):
        raise DimensionMismatch(f"modes {modes} invalid for {n_modes}-mode system")
    out = np.eye(2 * n_modes)
    q = quad_indices(modes)
    out[np.ix_(q, q)] = s
    return out


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
    dim = 2 * n_modes
    h = rng.normal(0.0, scale, size=(dim, dim))
    h = (h + h.T) / 2.0
    return expm(omega(n_modes) @ h)


def orthogonal_symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic (passive transformation) realizing a mode unitary.

    With a_k = (x_k + i p_k)/sqrt(2) and a' = u a, the quadratures transform by
    the returned 2N x 2N matrix (xpxp ordering). A stack of unitaries
    (..., N, N) gives a stack of matrices (..., 2N, 2N).
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    s = np.empty(u.shape[:-2] + (2 * n, 2 * n))
    s[..., 0::2, 0::2] = u.real
    s[..., 0::2, 1::2] = -u.imag
    s[..., 1::2, 0::2] = u.imag
    s[..., 1::2, 1::2] = u.real
    return s


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WilliamsonDecomp:
    """Williamson normal form Gamma = S (diag of nus, doubled) S^T."""

    s: np.ndarray
    nus: np.ndarray

    def reconstruct(self) -> np.ndarray:
        d = np.repeat(self.nus, 2)
        return (self.s * d[None, :]) @ self.s.T


@dataclass(frozen=True)
class BlochMessiahDecomp:
    """Euler form S = passive_out @ (squeezers) @ passive_in.

    ``squeeze_params`` are the r_k >= 0, sorted descending; the middle factor
    is the direct sum of diag(e^{r_k}, e^{-r_k}) blocks.
    """

    passive_out: np.ndarray
    squeeze_params: np.ndarray
    passive_in: np.ndarray

    def squeeze_matrix(self) -> np.ndarray:
        d = np.empty(2 * len(self.squeeze_params))
        d[0::2] = np.exp(self.squeeze_params)
        d[1::2] = np.exp(-self.squeeze_params)
        return np.diag(d)

    def reconstruct(self) -> np.ndarray:
        return self.passive_out @ self.squeeze_matrix() @ self.passive_in


def _pd_roots(cov: np.ndarray):
    """Eigen-based Gamma^{1/2} and Gamma^{-1/2}; raises if not PD."""
    w, v = np.linalg.eigh(cov)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]:.3e} <= 0")
    sq = np.sqrt(w)
    return (v * sq) @ v.T, (v / sq) @ v.T


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    These are the moduli of the eigenvalues of i Omega Gamma, one value per
    mode. Computed through the singular values of Gamma^{1/2} Omega Gamma^{1/2}
    when Gamma is positive definite (numerically stable), with a fallback to
    the direct eigenvalue route otherwise.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    w, v = np.linalg.eigh(cov)
    if w[0] > 0.0:
        root = (v * np.sqrt(w)) @ v.T
        sv = np.linalg.svd(root @ omega(n) @ root, compute_uv=False)
        return sv[::2]
    ev = np.abs(np.linalg.eigvals(omega(n) @ cov))
    return np.sort(ev)[::-1][::2]


def williamson(cov: np.ndarray) -> WilliamsonDecomp:
    """Williamson decomposition of a positive-definite covariance matrix.

    Returns S symplectic and the symplectic eigenvalues nu_k (descending) with
    Gamma = S (direct sum of nu_k I_2) S^T. Computed from the real Schur form
    of the antisymmetric matrix Gamma^{-1/2} Omega Gamma^{-1/2}, which keeps
    the eigenvector pairs orthogonal by construction, also for degenerate nus.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    root, inv_root = _pd_roots(cov)
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


def bloch_messiah(s: np.ndarray, unit_tol: float = 1e-8) -> BlochMessiahDecomp:
    """Bloch-Messiah (Euler) decomposition of a symplectic matrix.

    S = K1 @ (direct sum of diag(e^{r_k}, e^{-r_k})) @ K2 with K1, K2
    orthogonal symplectic and r_k >= 0 sorted descending.

    The symmetric factor P of the polar decomposition S = U P is a symmetric
    positive-definite symplectic matrix; its eigenvectors pair up as
    (v, -Omega v) with eigenvalues (lam, 1/lam), which directly yields the
    orthogonal symplectic diagonalizer. Eigenvalues within ``unit_tol`` of 1
    are treated as unsqueezed and their subspace is paired via the Schur form
    of the restricted symplectic form.
    """
    s = assert_symplectic(s)
    n = s.shape[0] // 2
    om = omega(n)
    u, p = polar(s, side="right")
    p = (p + p.T) / 2.0
    w, q = np.linalg.eigh(p)

    big = w > 1.0 + unit_tol
    small = w < 1.0 - unit_tol
    if big.sum() != small.sum():
        raise NotSymplectic(
            "eigenvalues of the polar factor do not pair up; matrix is too far "
            "from symplectic"
        )
    order = np.argsort(-w)
    vs = [q[:, i] for i in order if big[i]]
    lams = [w[i] for i in order if big[i]]

    unit_cols = q[:, ~(big | small)]
    if unit_cols.shape[1]:
        w_small = unit_cols.T @ om @ unit_cols
        w_small = (w_small - w_small.T) / 2.0
        _, z = schur(w_small)
        paired = unit_cols @ z
        for k in range(paired.shape[1] // 2):
            v = paired[:, 2 * k]
            vs.append(v)
            lams.append(float(v @ p @ v))

    cols = np.empty((2 * n, 2 * n))
    for k, v in enumerate(vs):
        cols[:, 2 * k] = v
        cols[:, 2 * k + 1] = -om @ v
    rs = np.log(np.array(lams))
    rs[np.abs(rs) < unit_tol] = 0.0
    k1 = u @ cols
    k2 = cols.T
    return BlochMessiahDecomp(passive_out=k1, squeeze_params=rs, passive_in=k2)

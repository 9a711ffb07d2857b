"""Passive symplectics built the textbook way, as test oracles.

``cvdist.nogo`` writes its passive symplectics in real arithmetic. The
construction here goes through the complex unitary u instead: with
a_k = (x_k + i p_k)/sqrt(2) and a' = u a, the quadratures transform by
[[Re u, -Im u], [Im u, Re u]] blockwise.

``cvdist.measurements`` builds the balanced beamsplitters of all Bell pairs
as one matrix. Here a beamsplitter is a two-mode block, embedded into the
identity on the modes it acts on.

``bloch_messiah`` factors a symplectic matrix into its Euler form; the tests
use it to check that random symplectics have the expected structure.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import polar, schur

from cvdist.errors import DimensionMismatch, NotSymplectic, ParamOutOfRange
from cvdist.symplectic import assert_symplectic, omega, quad_indices

_I2 = np.eye(2)


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


def passive_from_angles(angles: np.ndarray) -> np.ndarray:
    """Two-mode passive symplectics from (..., 4) angles through complex u.

    u = e^{i phi} [[e^{i alpha} c, e^{i beta} s], [-e^{-i beta} s, e^{-i alpha} c]]
    with (c, s) the cos and sin of theta, for angles (theta, phi, alpha, beta).
    """
    c, s = np.cos(angles[..., 0]), np.sin(angles[..., 0])
    phases = angles[..., 1:2] + np.array([1.0, 1.0, -1.0, -1.0]) * angles[..., [2, 3, 3, 2]]
    u = np.exp(1j * phases) * np.stack([c, s, -s, c], axis=-1)
    return orthogonal_symplectic_from_unitary(u.reshape(angles.shape[:-1] + (2, 2)))


@dataclass(frozen=True)
class BlochMessiahDecomp:
    """Euler form S = passive_out @ (squeezers) @ passive_in.

    ``squeeze_params`` are the r_k >= 0, sorted descending; the middle factor
    is the direct sum of diag(e^{r_k}, e^{-r_k}) blocks.
    """

    passive_out: np.ndarray
    squeeze_params: np.ndarray
    passive_in: np.ndarray


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

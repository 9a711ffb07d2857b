"""Passive symplectics built the textbook way, as test oracles.

``cvdist.nogo`` writes its passive symplectics in real arithmetic. The
construction here goes through the complex unitary u instead: with
a_k = (x_k + i p_k)/sqrt(2) and a' = u a, the quadratures transform by
[[Re u, -Im u], [Im u, Re u]] blockwise.

``cvdist.measurements`` builds the balanced beamsplitters of all Bell pairs
as one matrix. Here a beamsplitter is a two-mode block, embedded into the
identity on the modes it acts on.
"""

import numpy as np

from cvdist.errors import DimensionMismatch, ParamOutOfRange
from cvdist.symplectic import quad_indices

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

"""Passive symplectics built from complex mode unitaries, as a test oracle.

``cvdist.nogo`` writes its passive symplectics in real arithmetic. The
construction here goes through the complex unitary u instead, which is the
textbook route: with a_k = (x_k + i p_k)/sqrt(2) and a' = u a, the
quadratures transform by [[Re u, -Im u], [Im u, Re u]] blockwise.
"""

import numpy as np


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

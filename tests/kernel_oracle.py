"""The two-copy kernel as first written, kept as an exact oracle.

``objective`` below is the straightforward form of ``cvdist.nogo.objective``:
passive symplectics through complex unitaries, the joint symplectic
assembled block by block, and each 2x2 determinant and adjugate taken on
its own. ``cvdist.nogo.objective`` must give the same bits; tests/test_nogo.py
compares the two with ``np.array_equal``.
"""

import numpy as np

from symplectic_oracle import passive_from_angles

from cvdist.nogo import N_PARAMS, PARAMS_PER_PARTY, SQUEEZE_CLAMP


def _party_symplectic(p: np.ndarray) -> np.ndarray:
    """Realize parties' 10 parameters, (..., 10), as 4x4 symplectics (..., 4, 4).

    S = passive(p[6:10]) diag(e^r1, e^-r1, e^r2, e^-r2) passive(p[0:4]), with
    r = p[4:6] clamped to |r| <= SQUEEZE_CLAMP.
    """
    rs = np.clip(p[..., 4:6], -SQUEEZE_CLAMP, SQUEEZE_CLAMP)
    sq = np.exp(np.stack([rs[..., 0], -rs[..., 0], rs[..., 1], -rs[..., 1]], axis=-1))
    inner, outer = np.moveaxis(passive_from_angles(p[..., [[0, 1, 2, 3], [6, 7, 8, 9]]]), -3, 0)
    return (outer * sq[..., None, :]) @ inner


def objective(x: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """Output log-negativities, one per row of ``x`` (see cvdist.nogo.objective)."""
    x = np.asarray(x, dtype=float).reshape(-1, N_PARAMS)
    k = x.shape[0]
    parties = _party_symplectic(x.reshape(k, 2, PARAMS_PER_PARTY))
    # joint index 4 m + 2 party + quadrature; each party acts on its own
    s = np.zeros((k, 2, 2, 2, 2, 2, 2))
    s[:, :, 0, :, :, 0, :] = parties[:, 0].reshape(k, 2, 2, 2, 2)
    s[:, :, 1, :, :, 1, :] = parties[:, 1].reshape(k, 2, 2, 2, 2)
    s = s.reshape(k, 8, 8)
    m = s @ g0 @ s.transpose(0, 2, 1)
    c = m[:, :4, 4:]
    g = m[:, :4, :4] - c @ np.linalg.solve(m[:, 4:, 4:] + np.eye(4),
                                           c.transpose(0, 2, 1))
    return _pt_log_negativity(g)


#: adj(M) = _ADJ_SIGNS * M[::-1, ::-1].T for a 2x2 matrix M.
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _pt_log_negativity(g):
    """E_N of two-mode covariances, stacked (K, 4, 4) (see cvdist.nogo)."""
    a, c, b = g[:, :2, :2], g[:, :2, 2:], g[:, 2:, 2:]
    det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    det_b = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    det_c = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    adj_a = _ADJ_SIGNS * a[:, ::-1, ::-1].transpose(0, 2, 1)
    adj_b = _ADJ_SIGNS * b[:, ::-1, ::-1].transpose(0, 2, 1)
    p = (adj_a @ c @ adj_b) * c
    t = p[:, 0, 0] + p[:, 0, 1] + p[:, 1, 0] + p[:, 1, 1]
    det_g = np.linalg.det(g)
    delta = det_a + det_b - 2.0 * det_c
    disc = (det_a - det_b) ** 2 + 4.0 * (t - det_c * (det_a + det_b))
    nu2 = 2.0 * det_g / (delta + np.sqrt(np.maximum(disc, 0.0)))
    return np.maximum(0.0, -0.5 * np.log(nu2))

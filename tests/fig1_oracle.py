"""The Fig. 1 pipeline as composed before its layouts were planned, kept as an
exact oracle.

``run_fig1`` below builds everything on every call: the joint covariance
with ``block_diag``, the Bell beamsplitter from ``np.eye`` and four fancy
writes, the measured and kept quadratures, and every block through
``np.ix_``. ``cvdist.protocols.run_fig1`` takes those from cached plans and
must give the same bits; tests/test_protocols.py compares the two with
``np.array_equal``.
"""

import numpy as np

from channel_helpers import output_modes

from cvdist.errors import DegenerateQuadrature, DimensionMismatch, ParamOutOfRange
from cvdist.measurements import DEGENERATE_VARIANCE
from cvdist.protocols import Fig1Run
from cvdist.states import GaussianState
from cvdist.symplectic import block_diag, quad_indices


def _gaussian_update(cov, means, keep, meas, v, outcomes=None, draws=None):
    mean_b = means[:, meas]
    if outcomes is None:
        # the tiny jitter keeps an exactly zero measured variance factorable
        chol = np.linalg.cholesky(v / 2.0 + 1e-300 * np.eye(len(meas)))
        outcomes = mean_b + draws @ chol.T
    if len(keep) == 0:
        return outcomes, None, None
    cross = cov[np.ix_(keep, meas)]
    gain = np.linalg.solve(v, cross.T).T
    cov_out = cov[np.ix_(keep, keep)] - gain @ cross.T
    means_out = means[:, keep] + (outcomes - mean_b) @ gain.T
    return outcomes, (cov_out + cov_out.T) / 2.0, means_out


def _require_pivots(checked):
    """Refuse a block that does not factor, or whose pivot L_ii^2 is below
    DEGENERATE_VARIANCE * max(1, checked_ii)."""
    try:
        pivots = np.diag(np.linalg.cholesky(checked)) ** 2
    except np.linalg.LinAlgError:
        raise DegenerateQuadrature("measured block is not positive definite") from None
    if (pivots < DEGENERATE_VARIANCE * np.maximum(1.0, np.diag(checked))).any():
        raise DegenerateQuadrature(f"measured quadrature variance below {DEGENERATE_VARIANCE:g}"
                                   " x max(1, its unconditioned variance)")


def _bell_step(cov, means, pairs, draws):
    a, b = np.array(pairs, dtype=int).T
    qa, qb = quad_indices(a), quad_indices(b)
    # balanced beamsplitters: mode a -> (r_a + r_b)/sqrt2, mode b -> (r_b - r_a)/sqrt2
    s = np.eye(cov.shape[0])
    s[qa, qa] = s[qa, qb] = s[qb, qb] = np.sqrt(0.5)
    s[qb, qa] = -np.sqrt(0.5)
    cov = s @ cov @ s.T
    cov = (cov + cov.T) / 2.0
    means = means @ s.T

    meas = qb.copy()
    meas[1::2] = qa[1::2]  # x of each b, then p of its a
    keep = np.ones(cov.shape[0], dtype=bool)
    keep[qa] = keep[qb] = False
    keep = np.flatnonzero(keep)
    v = cov[np.ix_(meas, meas)]
    _require_pivots(v if len(keep) else v[:-1, :-1])
    scale = np.array([-np.sqrt(2.0), np.sqrt(2.0)] * len(a))
    raw, cov, means = _gaussian_update(cov, means, keep, meas, v, draws=draws)
    return raw * scale, cov, means


def _choi_dyne(ch, state):
    if state.modes != ch.n_in:
        raise DimensionMismatch(
            f"channel expects {ch.n_in} input modes, state has {state.modes}"
        )
    r = np.tile([1.0, -1.0], ch.n_in)
    in_q = quad_indices(ch.input_modes)
    v = ch.choi_cov[np.ix_(in_q, in_q)] + state.cov * np.outer(r, r)
    _require_pivots(v)
    return v, r * state.mean


def _condition_choi(ch, v, outcome, r_d=()):
    stack = np.reshape(r_d, (-1, outcome.size))
    means = np.zeros((1 + len(stack), ch.choi_mean.size))
    means[0] = ch.choi_mean
    _, cov, out = _gaussian_update(ch.choi_cov, means, quad_indices(output_modes(ch)),
                                   quad_indices(ch.input_modes), v,
                                   outcomes=np.vstack([outcome, stack]))
    return cov, out[0], out[1:].reshape(np.shape(r_d)[:-1] + (-1,))


def run_fig1(channel, input_state, n_samples, seed) -> Fig1Run:
    """What ``cvdist.protocols.run_fig1`` computes, every layout array built anew."""
    if n_samples < 1:
        raise ParamOutOfRange(f"n_samples must be >= 1, got {n_samples}")
    dyne = _choi_dyne(channel, input_state)
    rng = np.random.default_rng(seed)
    n_in = channel.n_in
    k = 2 * n_in
    cov = block_diag(input_state.cov, channel.choi_cov)
    means = np.empty((n_samples, len(cov)))
    means[:, :k] = input_state.mean
    means[:, k:] = channel.choi_mean

    pairs = [(n_in + m, j) for j, m in enumerate(channel.input_modes)]
    outcomes, cov, means = _bell_step(cov, means, pairs,
                                      draws=rng.standard_normal((n_samples, k)))

    ref_cov, ref_mean, shifts = _condition_choi(channel, *dyne, outcomes)
    reference = GaussianState(mean=ref_mean, cov=ref_cov)
    means = means - shifts
    corrected = GaussianState(mean=means[-1], cov=cov)

    return Fig1Run(
        sampled_outcomes=tuple(outcomes),
        corrected_output=corrected,
        reference_output=reference,
        max_cov_deviation=float(np.abs(corrected.cov - reference.cov).max()),
        max_mean_deviation=float(np.abs(means - reference.mean).max()),
    )

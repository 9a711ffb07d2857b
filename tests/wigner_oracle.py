"""Brute-force Wigner-integration oracle for dyne conditioning.

:func:`oracle_condition` recomputes conditional moments by numerical
integration of the Gaussian Wigner function on an adaptive Gauss-Hermite
grid, independently of the closed-form Schur complements in
``cvdist.measurements``; tests compare the two. Limited to three modes.
"""

import numpy as np

from cvdist.errors import CvdistError, DimensionMismatch
from cvdist.measurements import DyneKind, DyneSpec
from cvdist.states import GaussianState
from cvdist.symplectic import quad_indices


class TooManyModes(CvdistError):
    """Brute-force integration oracle asked for an infeasible grid."""


_ORACLE_NODES = {1: 64, 2: 64, 3: 48, 4: 32, 5: 20, 6: 16}


def _hermite_nodes(n: int):
    t, w = np.polynomial.hermite.hermgauss(n)
    return t, np.log(w) + t * t  # log of w_i e^{t_i^2}


def _grid_moments(q, lin, centers, scales, nodes):
    """First and second moments of exp(-r^T q r + lin . r) on a tensor grid.

    The grid is Gauss-Hermite per axis, affinely mapped by ``centers`` and
    ``scales``; constant prefactors cancel in the moment ratios. Accumulation
    happens in two preallocated buffers to keep the 6-dimensional grids cheap.
    """
    dim = len(centers)
    t, logw = _hermite_nodes(nodes)
    broad = []
    for j in range(dim):
        shape = [1] * dim
        shape[j] = nodes
        broad.append((centers[j] + np.sqrt(2.0) * scales[j] * t).reshape(shape))

    full = (nodes,) * dim
    log_f = np.zeros(full)
    tmp = np.empty(full)
    for j in range(dim):
        shape = [1] * dim
        shape[j] = nodes
        rj = broad[j]
        log_f += (lin[j] - q[j, j] * rj) * rj + logw.reshape(shape)
        for k in range(j + 1, dim):
            np.multiply(rj, broad[k], out=tmp)
            tmp *= -2.0 * q[j, k]
            log_f += tmp
    log_f -= log_f.max()
    f = np.exp(log_f, out=log_f)

    s0 = f.sum()
    first = np.empty(dim)
    second = np.empty((dim, dim))
    tmp2 = np.empty(full)
    for j in range(dim):
        fj = np.multiply(f, broad[j], out=tmp)
        first[j] = fj.sum() / s0
        for k in range(j, dim):
            np.multiply(fj, broad[k], out=tmp2)
            second[j, k] = second[k, j] = tmp2.sum() / s0
    return first, second - np.outer(first, first)


def oracle_condition(
    state: GaussianState, spec: DyneSpec, outcome, nodes: int | None = None
) -> GaussianState:
    """Conditional state computed by direct numerical Wigner integration.

    Builds the integrand W(r) * kernel(measured part; outcome) from the
    Gaussian Wigner function definition alone and integrates it twice on a
    Gauss-Hermite tensor grid: a first pass locates the mass, a second pass
    recentered and rescaled from the first returns the moments. Homodyne
    outcomes enter as exact substitutions (delta functions), heterodyne and
    general dyne as Gaussian kernels. Supports at most three modes; the
    closed-form :func:`condition` must agree with this to 1e-6.
    """
    if state.modes > 3:
        raise TooManyModes(f"oracle limited to 3 modes, state has {state.modes}")
    spec.validate_for(state)
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != spec.outcome_dim():
        raise DimensionMismatch(
            f"outcome length {outcome.size} != {spec.outcome_dim()}"
        )

    dim_total = 2 * state.modes
    q_keep = quad_indices([m for m in range(state.modes) if m not in spec.modes])
    q_meas = quad_indices(spec.modes)
    prec = np.linalg.inv(state.cov)  # Wigner exponent: -(r-d)^T prec (r-d)

    # delta-fixed coordinates (ideal homodyne) are substituted, the rest stay
    fixed_mask = np.zeros(dim_total, dtype=bool)
    fixed_vals = np.zeros(dim_total)
    if spec.kind in (DyneKind.HOMODYNE_X, DyneKind.HOMODYNE_P):
        rows = q_meas[0::2] if spec.kind is DyneKind.HOMODYNE_X else q_meas[1::2]
        fixed_mask[rows] = True
        fixed_vals[rows] = outcome
    free = np.flatnonzero(~fixed_mask)
    fixed = np.flatnonzero(fixed_mask)

    # exponent over the free coordinates u: -u^T Q u + L . u (+ const)
    d = state.mean
    qf = prec[np.ix_(free, free)]
    lin = 2.0 * (qf @ d[free])
    if fixed.size:
        lin -= 2.0 * (prec[np.ix_(free, fixed)] @ (fixed_vals[fixed] - d[fixed]))

    if spec.kind in (DyneKind.HETERODYNE, DyneKind.GENERAL):
        noise = np.eye(q_meas.size) if spec.kind is DyneKind.HETERODYNE else spec.gamma_m
        kprec = np.linalg.inv(noise)
        pos = np.searchsorted(free, q_meas)  # measured coords within free list
        qf = qf.copy()
        qf[np.ix_(pos, pos)] += kprec
        lin[pos] += 2.0 * kprec @ outcome

    # pass 1: centers from the state / outcome, generous scales
    centers = d[free].copy()
    if spec.kind in (DyneKind.HETERODYNE, DyneKind.GENERAL):
        pos = np.searchsorted(free, q_meas)
        centers[pos] = (centers[pos] + outcome) / 2.0
    scales = np.sqrt(np.diag(state.cov)[free] / 2.0) * 1.5 + 1e-3

    n_nodes = nodes if nodes is not None else _ORACLE_NODES[len(free)]
    mean1, cov1 = _grid_moments(qf, lin, centers, scales, n_nodes)
    # pass 2: recentred on the estimated mass
    scales2 = np.sqrt(np.clip(np.diag(cov1), 1e-12, None)) * 1.1 + 1e-6
    mean2, cov2 = _grid_moments(qf, lin, mean1, scales2, n_nodes)

    keep_pos = np.searchsorted(free, q_keep)
    mean_out = mean2[keep_pos]
    cov_out = 2.0 * cov2[np.ix_(keep_pos, keep_pos)]
    return GaussianState(mean=mean_out, cov=(cov_out + cov_out.T) / 2.0)

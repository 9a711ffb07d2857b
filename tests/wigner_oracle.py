"""Brute-force Wigner-integration oracle for dyne conditioning.

:func:`oracle_condition` recomputes conditional moments by numerical
integration of the Gaussian Wigner function on an adaptive Gauss-Hermite
grid, independently of the closed-form Schur complements in
``cvdist.measurements``; tests compare the two. Limited to three modes.
"""

import itertools

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
    ``scales``; constant prefactors cancel in the moment ratios. Each moment
    is summed over the marginal of the integrand on the axes it reads.
    """
    dim = len(centers)
    t, logw = _hermite_nodes(nodes)
    axes = list(range(dim))
    r = [centers[j] + np.sqrt(2.0) * scales[j] * t for j in axes]
    col = [r[j].reshape((nodes,) + (1,) * (dim - 1 - j)) for j in axes]  # on axes j..

    # the exponent on axes j.., built from the last axis back with axis j's
    # cross terms gathered on the axes after it: log_f is the one full grid
    log_f = 0.0
    for j in reversed(axes):
        term = -2.0 * col[j] * sum(q[j, k] * col[k] for k in axes[j + 1:])
        term += ((lin[j] - q[j, j] * r[j]) * r[j] + logw).reshape(col[j].shape)
        term += log_f
        log_f = term
    log_f -= log_f.max()
    f = np.exp(log_f, out=log_f)

    # every pair of axes misses one of the first three, so its marginal is
    # summed from f less that axis, a grid ``nodes`` times smaller than f
    sources = [(f, axes)] + [(f.sum(axis=i), axes[:i] + axes[i + 1:]) for i in axes[:3]]

    def marginal(*keep):  # f summed over every other axis, from the smallest source
        g, labels = min((s for s in sources if set(keep) <= set(s[1])), key=lambda s: s[0].size)
        return np.einsum(g, labels, list(keep))

    m = [marginal(j) for j in axes]
    second = np.diag([r[j] ** 2 @ m[j] for j in axes])
    for j, k in itertools.combinations(axes, 2):
        second[j, k] = second[k, j] = r[j] @ marginal(j, k) @ r[k]
    s0 = m[0].sum()
    first = np.array([r[j] @ m[j] for j in axes]) / s0
    return first, second / s0 - np.outer(first, first)


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
    if max(spec.modes) >= state.modes:
        raise DimensionMismatch(f"measured modes {spec.modes} outside 0..{state.modes - 1}")
    homodyne = spec.kind in (DyneKind.HOMODYNE_X, DyneKind.HOMODYNE_P)
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != (1 if homodyne else 2) * len(spec.modes):
        raise DimensionMismatch(f"outcome length {outcome.size} does not fit {spec}")

    dim_total = 2 * state.modes
    q_keep = quad_indices([m for m in range(state.modes) if m not in spec.modes])
    q_meas = quad_indices(spec.modes)
    prec = np.linalg.inv(state.cov)  # Wigner exponent: -(r-d)^T prec (r-d)

    # delta-fixed coordinates (ideal homodyne) are substituted, the rest stay
    fixed_mask = np.zeros(dim_total, dtype=bool)
    fixed_vals = np.zeros(dim_total)
    if homodyne:
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

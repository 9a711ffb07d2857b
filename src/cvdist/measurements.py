"""Conditional Gaussian states after dyne measurements.

Supported measurements on a subset of modes:

* heterodyne (eight-port homodyne): projection onto coherent states; both
  quadratures are recorded and one unit of vacuum covariance is added to the
  measured block,
* homodyne of a single quadrature (x or p): exact rank-deficient conditioning
  restricted to the measured quadrature,
* general dyne with an arbitrary physical measurement covariance,
* the Bell measurement of a mode pair (x difference and p sum), realized as a
  balanced beamsplitter followed by two homodyne detectors.

Outcome statistics live in probability units: the covariance of the sampled
outcomes is (M Gamma M^T)/2 plus the detection noise (I/2 per heterodyne
pair, Gamma_m/2 for general dyne, nothing for ideal homodyne), because Gamma
doubles the covariance. All conditioning formulas are independent of that
factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadrature, DimensionMismatch, NotPhysical
from .states import PHYSICALITY_TOL, GaussianState
from .symplectic import beamsplitter, embed, quad_indices, symplectic_eigenvalues


class DyneKind(enum.Enum):
    HETERODYNE = "heterodyne"
    HOMODYNE_X = "homodyne_x"
    HOMODYNE_P = "homodyne_p"
    GENERAL = "general_dyne"


@dataclass(frozen=True)
class DyneSpec:
    """Which modes are measured and how.

    ``gamma_m`` is the measurement covariance for GENERAL dyne (2m x 2m,
    physical); it is ignored for the named kinds.
    """

    modes: tuple
    kind: DyneKind
    gamma_m: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        if self.gamma_m is not None:
            gm = np.asarray(self.gamma_m, dtype=float)
            gm.flags.writeable = False
            object.__setattr__(self, "gamma_m", gm)

    def validate_for(self, state: GaussianState) -> None:
        m = len(self.modes)
        if m == 0:
            raise DimensionMismatch("no modes to measure")
        if len(set(self.modes)) != m:
            raise DimensionMismatch(f"repeated modes in {self.modes}")
        if min(self.modes) < 0 or max(self.modes) >= state.modes:
            raise DimensionMismatch(
                f"measured modes {self.modes} outside 0..{state.modes - 1}"
            )
        if self.kind is DyneKind.GENERAL:
            if self.gamma_m is None or self.gamma_m.shape != (2 * m, 2 * m):
                raise DimensionMismatch(
                    f"general dyne on {m} modes needs a {2 * m}x{2 * m} gamma_m"
                )
            if symplectic_eigenvalues(self.gamma_m)[-1] < 1.0 - PHYSICALITY_TOL:
                raise NotPhysical("gamma_m must be a physical covariance matrix")

    def outcome_dim(self) -> int:
        if self.kind in (DyneKind.HETERODYNE, DyneKind.GENERAL):
            return 2 * len(self.modes)
        return len(self.modes)


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled outcome, the linear observables it refers to, and the result.

    ``observable_map`` rows give the measured observables as m = M r over the
    pre-measurement quadratures. The conditioned covariance never depends on
    the outcome value; only the conditioned mean does.
    """

    outcome: np.ndarray
    observable_map: np.ndarray
    conditioned_state: GaussianState | None


def _split_indices(state: GaussianState, modes):
    keep_modes = [m for m in range(state.modes) if m not in set(modes)]
    return quad_indices(keep_modes), quad_indices(modes)


def _measured_rows(spec: DyneSpec) -> np.ndarray:
    """Row indices (within the measured block) that carry the outcome."""
    m = len(spec.modes)
    if spec.kind is DyneKind.HOMODYNE_X:
        return np.arange(0, 2 * m, 2)
    if spec.kind is DyneKind.HOMODYNE_P:
        return np.arange(1, 2 * m, 2)
    return np.arange(2 * m)


def observable_map(state: GaussianState, spec: DyneSpec) -> np.ndarray:
    """Selector matrix M with m = M r for the measured observables."""
    spec.validate_for(state)
    _, q_meas = _split_indices(state, spec.modes)
    rows = q_meas[_measured_rows(spec)]
    m = np.zeros((rows.size, 2 * state.modes))
    m[np.arange(rows.size), rows] = 1.0
    return m


def condition(state: GaussianState, spec: DyneSpec, outcome) -> GaussianState:
    """State of the unmeasured modes conditioned on a dyne outcome.

    Heterodyne / general dyne on block b:
        Gamma' = Gamma_a - Gamma_ab (Gamma_b + N)^{-1} Gamma_ab^T,  N = I or
        Gamma_m, with the mean shifted by the same gain applied to
        (outcome - mean_b). Ideal homodyne uses the exact rank-deficient
        form: the inverse is restricted to the measured quadrature(s).
    """
    spec.validate_for(state)
    if len(spec.modes) == state.modes:
        raise DimensionMismatch("cannot condition on every mode; nothing would remain")
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != spec.outcome_dim():
        raise DimensionMismatch(
            f"outcome length {outcome.size} != {spec.outcome_dim()}"
        )
    q_keep, q_meas = _split_indices(state, spec.modes)
    cov_aa = state.cov[np.ix_(q_keep, q_keep)]
    cov_ab = state.cov[np.ix_(q_keep, q_meas)]
    cov_bb = state.cov[np.ix_(q_meas, q_meas)]
    mean_a = state.mean[q_keep]
    mean_b = state.mean[q_meas]

    if spec.kind in (DyneKind.HETERODYNE, DyneKind.GENERAL):
        noise = np.eye(cov_bb.shape[0]) if spec.kind is DyneKind.HETERODYNE \
            else spec.gamma_m
        gain = np.linalg.solve((cov_bb + noise).T, cov_ab.T).T
        cov_out = cov_aa - gain @ cov_ab.T
        mean_out = mean_a + gain @ (outcome - mean_b)
    else:
        sel = _measured_rows(spec)
        v = cov_bb[np.ix_(sel, sel)]
        if np.linalg.eigvalsh(v)[0] < 1e-12:
            raise DegenerateQuadrature(
                "measured quadrature variance below 1e-12; conditioning is singular"
            )
        cross = cov_ab[:, sel]
        gain = np.linalg.solve(v.T, cross.T).T
        cov_out = cov_aa - gain @ cross.T
        mean_out = mean_a + gain @ (outcome - mean_b[sel])

    return GaussianState(mean=mean_out, cov=(cov_out + cov_out.T) / 2.0)


def outcome_law(state: GaussianState, spec: DyneSpec):
    """Mean and covariance (probability units) of the outcome distribution."""
    spec.validate_for(state)
    m = observable_map(state, spec)
    mean = m @ state.mean
    cov = (m @ state.cov @ m.T) / 2.0
    if spec.kind is DyneKind.HETERODYNE:
        cov = cov + np.eye(cov.shape[0]) / 2.0
    elif spec.kind is DyneKind.GENERAL:
        cov = cov + spec.gamma_m / 2.0
    return mean, cov


def sample_outcome(state: GaussianState, spec: DyneSpec, seed) -> MeasurementRecord:
    """Draw one outcome from the measurement law and condition on it.

    Deterministic for a fixed seed; pass a Generator to chain several draws.
    """
    rng = np.random.default_rng(seed)
    mean, cov = outcome_law(state, spec)
    chol = np.linalg.cholesky(cov + 1e-300 * np.eye(cov.shape[0]))
    outcome = mean + chol @ rng.standard_normal(mean.size)
    remaining = len(spec.modes) < state.modes
    return MeasurementRecord(
        outcome=outcome,
        observable_map=observable_map(state, spec),
        conditioned_state=condition(state, spec, outcome) if remaining else None,
    )


def _homodyne_step(cov, means, mode: int, quad: int, xi=None, draws=None,
                   keep_rest: bool = True):
    """Homodyne of quadrature ``quad`` (0 = x, 1 = p) of ``mode``.

    ``means`` is a (K, 2N) stack of states that share ``cov``. Outcomes are
    ``xi`` (K,) if given, else the mean plus the outcome's standard deviation
    times ``draws`` (K,). The covariance update and the gain do not depend on
    the outcome, so they are computed once and all K means move by array
    arithmetic. Returns (cov, means, xi) of the remaining modes, with
    cov = means = None when ``keep_rest`` is false.
    """
    i = 2 * mode + quad
    var = cov[i, i]
    if keep_rest and var < 1e-12:
        raise DegenerateQuadrature(
            "measured quadrature variance below 1e-12; conditioning is singular"
        )
    if xi is None:
        # probability-unit variance var / 2 plus the jitter sample_outcome adds
        xi = means[:, i] + np.sqrt(var / 2.0 + 1e-300) * draws
    if not keep_rest:
        return None, None, xi
    keep = np.delete(np.arange(cov.shape[0]), [2 * mode, 2 * mode + 1])
    cross = cov[keep, i]
    gain = cross / var
    cov_out = cov[np.ix_(keep, keep)] - np.outer(gain, cross)
    means_out = means[:, keep] + np.outer(xi - means[:, i], gain)
    return (cov_out + cov_out.T) / 2.0, means_out, xi


def _bell_step(cov, means, pair, draws=None, outcomes=None):
    """Bell measurement of ``pair`` on K states that share one covariance.

    ``means`` is a (K, 2N) stack. Pass standard normal ``draws`` (K, 2), one
    for the x and one for the p homodyne of each state, to sample; or
    ``outcomes`` (K, 2) of (x_d, p_d) to condition on chosen values. Returns
    the (K, 2) outcomes, then the covariance and (K, 2N - 4) means of the
    remaining modes (both None when the pair was the whole state).
    """
    a, b = pair
    n = cov.shape[0] // 2
    # balanced beamsplitter: mode a -> (r_a + r_b)/sqrt2, mode b -> (r_b - r_a)/sqrt2
    s = embed(beamsplitter(0.5), (a, b), n)
    cov = s @ cov @ s.T
    cov = (cov + cov.T) / 2.0
    means = means @ s.T

    root2 = np.sqrt(2.0)
    fixed = outcomes is not None
    # the raw homodyne readings carry a 1/sqrt(2) from the beamsplitter, and
    # the x reading a sign
    cov, means, xi_x = _homodyne_step(
        cov, means, b, 0,
        xi=-outcomes[:, 0] / root2 if fixed else None,
        draws=None if fixed else draws[:, 0],
    )
    a_shifted = a if a < b else a - 1
    cov, means, xi_p = _homodyne_step(
        cov, means, a_shifted, 1,
        xi=outcomes[:, 1] / root2 if fixed else None,
        draws=None if fixed else draws[:, 1],
        keep_rest=n > 2,
    )
    return np.column_stack([-root2 * xi_x, root2 * xi_p]), cov, means


def bell_measure(state: GaussianState, pair, seed, outcome=None) -> MeasurementRecord:
    """Bell measurement of x_a - x_b and p_a + p_b on the mode pair (a, b).

    Realized as a balanced beamsplitter on the pair followed by homodyne x on
    one output and homodyne p on the other. The recorded outcome is rescaled
    so its two entries are exactly the observables above (the raw homodyne
    readings carry a 1/sqrt(2) from the beamsplitter, and the x reading a
    sign, both of which are absorbed here so the record feeds the conditional
    displacement formula directly). Pass ``outcome=(x_d, p_d)`` to condition
    on a chosen value instead of sampling.
    """
    a, b = (int(pair[0]), int(pair[1]))
    if a == b:
        raise DimensionMismatch("bell measurement needs two distinct modes")
    if min(a, b) < 0 or max(a, b) >= state.modes:
        raise DimensionMismatch(f"pair {pair} outside 0..{state.modes - 1}")
    if outcome is None:
        draws = np.random.default_rng(seed).standard_normal((1, 2))
        forced = None
    else:
        draws = None
        forced = np.array([[float(outcome[0]), float(outcome[1])]])
    rec, cov, means = _bell_step(state.cov, state.mean[None, :], (a, b),
                                 draws=draws, outcomes=forced)

    m = np.zeros((2, 2 * state.modes))
    m[0, 2 * a] = 1.0
    m[0, 2 * b] = -1.0
    m[1, 2 * a + 1] = 1.0
    m[1, 2 * b + 1] = 1.0
    return MeasurementRecord(
        outcome=rec[0],
        observable_map=m,
        conditioned_state=None if cov is None else GaussianState(mean=means[0], cov=cov),
    )

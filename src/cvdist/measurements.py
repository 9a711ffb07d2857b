"""Conditional Gaussian states after dyne measurements.

Supported measurements on a subset of modes:

* heterodyne (eight-port homodyne): projection onto coherent states; both
  quadratures are recorded and one unit of vacuum covariance is added to the
  measured block,
* homodyne of a single quadrature (x or p): exact rank-deficient conditioning
  restricted to the measured quadrature,
* general dyne with an arbitrary physical measurement covariance,
* the Bell measurement of a mode pair (x difference and p sum), realized as a
  balanced beamsplitter followed by homodyne x on one output and homodyne p
  on the other, taken together as one two-quadrature homodyne.

All of them, and the channel action in :mod:`cvdist.channels`, go through
one update (``_gaussian_update``). With b the measured quadratures, a the
kept ones and V = Gamma_bb + N (N = I per heterodyne mode, Gamma_m for
general dyne, 0 for ideal homodyne):

    Gamma' = Gamma_aa - Gamma_ab V^{-1} Gamma_ab^T,
    d'     = d_a + Gamma_ab V^{-1} (outcome - d_b).

Outcome statistics live in probability units: the outcomes are distributed
as N(d_b, V/2), because Gamma doubles the covariance. The conditioning
formulas are independent of that factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadrature, DimensionMismatch, NotPhysical
from .states import PHYSICALITY_TOL, GaussianState
from .symplectic import beamsplitter, embed, quad_indices, symplectic_eigenvalues

#: Measured quadrature variance below which ideal homodyne conditioning is
#: refused: the gain divides by it, so rounding would grow by over 1e12.
DEGENERATE_VARIANCE = 1e-12


class DyneKind(enum.Enum):
    HETERODYNE = "heterodyne"
    HOMODYNE_X = "homodyne_x"
    HOMODYNE_P = "homodyne_p"
    GENERAL = "general_dyne"


_HOMODYNES = (DyneKind.HOMODYNE_X, DyneKind.HOMODYNE_P)


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
        return len(self.modes) if self.kind in _HOMODYNES else 2 * len(self.modes)


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


def _require_resolvable(variance) -> None:
    """Refuse to condition on a measured variance below DEGENERATE_VARIANCE."""
    if variance < DEGENERATE_VARIANCE:
        raise DegenerateQuadrature("measured quadrature variance below "
                                   f"{DEGENERATE_VARIANCE:g}; conditioning is singular")


def _gaussian_update(cov, means, keep, meas, v, outcomes=None, draws=None):
    """Measure quadratures ``meas`` of K states that share ``cov``.

    ``means`` is a (K, 2N) stack and ``v`` = cov[meas, meas] + N. Pass
    ``outcomes`` (K, len(meas)) to condition on them, or standard normal
    ``draws`` of that shape to sample them from N(means[:, meas], v / 2).
    One solve serves all K. Returns the outcomes, then the covariance and
    (K, len(keep)) means of quadratures ``keep`` (None if nothing is kept).
    """
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


def _dyne_blocks(state: GaussianState, spec: DyneSpec):
    """Kept and measured quadratures of a validated ``spec``, and V = Gamma_bb + N."""
    keep = quad_indices(np.setdiff1d(np.arange(state.modes), spec.modes))
    meas = quad_indices(spec.modes)
    if spec.kind in _HOMODYNES:
        meas = meas[0::2] if spec.kind is DyneKind.HOMODYNE_X else meas[1::2]
    v = state.cov[np.ix_(meas, meas)]
    if spec.kind is DyneKind.HETERODYNE:
        v = v + np.eye(meas.size)
    elif spec.kind is DyneKind.GENERAL:
        v = v + spec.gamma_m
    return keep, meas, v


def observable_map(state: GaussianState, spec: DyneSpec) -> np.ndarray:
    """Selector matrix M with m = M r for the measured observables."""
    spec.validate_for(state)
    return np.eye(2 * state.modes)[_dyne_blocks(state, spec)[1]]


def condition(state: GaussianState, spec: DyneSpec, outcome) -> GaussianState:
    """State of the unmeasured modes conditioned on a dyne outcome.

    The update of the module docstring; ideal homodyne has no noise to
    regularize V, so a (nearly) singular V raises DegenerateQuadrature.
    """
    spec.validate_for(state)
    if len(spec.modes) == state.modes:
        raise DimensionMismatch("cannot condition on every mode; nothing would remain")
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    if outcome.size != spec.outcome_dim():
        raise DimensionMismatch(
            f"outcome length {outcome.size} != {spec.outcome_dim()}"
        )
    keep, meas, v = _dyne_blocks(state, spec)
    if spec.kind in _HOMODYNES:
        _require_resolvable(np.linalg.eigvalsh(v)[0])
    _, cov, means = _gaussian_update(state.cov, state.mean[None, :], keep, meas, v,
                                     outcomes=outcome[None, :])
    return GaussianState(mean=means[0], cov=cov)


def outcome_law(state: GaussianState, spec: DyneSpec):
    """Mean and covariance (probability units) of the outcome distribution."""
    spec.validate_for(state)
    _, meas, v = _dyne_blocks(state, spec)
    return state.mean[meas], v / 2.0


def sample_outcome(state: GaussianState, spec: DyneSpec, seed) -> MeasurementRecord:
    """Draw one outcome from the measurement law and condition on it.

    Deterministic for a fixed seed; pass a Generator to chain several draws.
    """
    rng = np.random.default_rng(seed)
    spec.validate_for(state)
    keep, meas, v = _dyne_blocks(state, spec)
    draws = rng.standard_normal((1, meas.size))
    if len(keep) and spec.kind in _HOMODYNES:
        _require_resolvable(np.linalg.eigvalsh(v)[0])
    outcome, cov, means = _gaussian_update(state.cov, state.mean[None, :], keep, meas,
                                           v, draws=draws)
    return MeasurementRecord(
        outcome=outcome[0],
        observable_map=np.eye(2 * state.modes)[meas],
        conditioned_state=None if cov is None else GaussianState(mean=means[0], cov=cov),
    )


def _bell_step(cov, means, pair, draws=None, outcomes=None):
    """Bell measurement of ``pair`` on K states that share one covariance.

    ``means`` is a (K, 2N) stack. Pass standard normal ``draws`` (K, 2) to
    sample, or ``outcomes`` (K, 2) of (x_d, p_d) to condition on them. After
    the beamsplitter, x of b and p of a are one two-quadrature homodyne, whose
    Cholesky factor reproduces homodyne x then homodyne p, draw for draw.
    Returns the (K, 2) outcomes and what ``_gaussian_update`` returns for the
    remaining modes.
    """
    a, b = pair
    n = cov.shape[0] // 2
    # balanced beamsplitter: mode a -> (r_a + r_b)/sqrt2, mode b -> (r_b - r_a)/sqrt2
    s = embed(beamsplitter(0.5), (a, b), n)
    cov = s @ cov @ s.T
    cov = (cov + cov.T) / 2.0
    means = means @ s.T

    meas = np.array([2 * b, 2 * a + 1])
    keep = np.delete(np.arange(2 * n), [2 * a, 2 * a + 1, 2 * b, 2 * b + 1])
    v = cov[np.ix_(meas, meas)]
    # the Cholesky pivots of v: the x variance, then the p variance given x;
    # the latter only matters when modes remain to be conditioned
    _require_resolvable(v[0, 0])
    if n > 2:
        _require_resolvable(v[1, 1] - v[0, 1] ** 2 / v[0, 0])
    # the raw homodyne readings carry a 1/sqrt(2) from the beamsplitter, and
    # the x reading a sign
    scale = np.array([-np.sqrt(2.0), np.sqrt(2.0)])
    raw, cov, means = _gaussian_update(
        cov, means, keep, meas, v,
        outcomes=None if outcomes is None else outcomes / scale, draws=draws,
    )
    return raw * scale, cov, means


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
        draws, forced = np.random.default_rng(seed).standard_normal((1, 2)), None
    else:
        draws, forced = None, np.array([[float(outcome[0]), float(outcome[1])]])
    rec, cov, means = _bell_step(state.cov, state.mean[None, :], (a, b),
                                 draws=draws, outcomes=forced)

    m = np.zeros((2, 2 * state.modes))
    m[[0, 0, 1, 1], [2 * a, 2 * b, 2 * a + 1, 2 * b + 1]] = [1.0, -1.0, 1.0, 1.0]
    return MeasurementRecord(
        outcome=rec[0],
        observable_map=m,
        conditioned_state=None if cov is None else GaussianState(mean=means[0], cov=cov),
    )

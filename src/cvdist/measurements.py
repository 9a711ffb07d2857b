"""Conditional Gaussian states after dyne measurements.

Supported measurements on a subset of modes:

* heterodyne (eight-port homodyne): projection onto coherent states; both
  quadratures are recorded and one unit of vacuum covariance is added to the
  measured block,
* homodyne of a single quadrature (x or p): exact rank-deficient conditioning
  restricted to the measured quadrature,
* general dyne with an arbitrary physical measurement covariance,
* the Bell measurement of mode pairs (x difference and p sum of each),
  realized as a balanced beamsplitter per pair followed by homodyne x on one
  output and homodyne p on the other. The pairs are disjoint, so their
  beamsplitters commute and all of their homodynes are one homodyne: one
  update per call, however many pairs it measures.

All of them, and the channel action in :mod:`cvdist.channels` (a general
dyne of the Choi input modes), condition through one update
(``_gaussian_update``). Its index gathers, and every other array that
depends only on the layout (mode count, measured modes, kind), are built
once per layout into a read-only ``_UpdatePlan`` and cached (``_dyne_plan``
and ``_bell_plan``); a call does only the arithmetic. With b the measured
quadratures, a the kept ones and V = Gamma_bb + N (N = I per heterodyne
mode, Gamma_m for general dyne, 0 for ideal homodyne):

    Gamma' = Gamma_aa - Gamma_ab V^{-1} Gamma_ab^T,
    d'     = d_a + Gamma_ab V^{-1} (outcome - d_b).

Outcome statistics live in probability units: the outcomes are distributed
as N(d_b, V/2), because Gamma doubles the covariance. The conditioning
formulas are independent of that factor. The update only conditions; every
sampling call draws through one helper (``_sample``): outcomes d_b + L z,
with L the Cholesky factor of V/2 and z standard normal, then the update on
them. A ``MeasurementRecord`` holds the outcome and the conditioned state.

Every measurement, and the channel action, refuses V by one rule, read from
that factor (``_factor``, one Cholesky per call): V must factor, and each
pivot 2 L_ii^2 that is conditioned on must reach
DEGENERATE_VARIANCE * max(1, V_ii). Otherwise DegenerateQuadrature is raised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateQuadrature, DimensionMismatch, MalformedInput, ParamOutOfRange
from .states import GaussianState
from .symplectic import _freeze, _mode_indices, _require_entries, _symmetrized, quad_indices

#: Floor on the pivots of the measured block, relative to the quadrature's own
#: variance: a pivot 2 L_ii^2 that is conditioned on must reach
#: DEGENERATE_VARIANCE * max(1, V_ii). The pivot is V_ii less what the earlier
#: quadratures predict of it, so it rounds with V_ii, not with itself; below
#: 1e-12 V_ii it keeps under four correct digits, and the gain divides by it.
#: The floor scales as ``symplectic.assert_symplectic``'s bound does, and at
#: V_ii <= 1 it is the absolute 1e-12.
DEGENERATE_VARIANCE = 1e-12

#: Layouts whose plans are kept. A program uses a handful of layouts (the
#: Fig. 1 check four, one per channel shape), so this bounds memory without
#: evicting plans in use.
PLAN_CACHE_SIZE = 64


class DyneKind(enum.Enum):
    HETERODYNE = "heterodyne"
    HOMODYNE_X = "homodyne_x"
    HOMODYNE_P = "homodyne_p"
    GENERAL = "general_dyne"


@dataclass(frozen=True)
class DyneSpec:
    """Which modes are measured and how.

    ``gamma_m`` is the measurement covariance for GENERAL dyne (2m x 2m,
    physical); the named kinds fix their own and refuse one. A spec is
    checked once, when it is built: its modes are non-empty, distinct and
    non-negative, a named kind has no ``gamma_m``, and a GENERAL ``gamma_m``
    has the right shape and is physical.
    """

    modes: tuple
    kind: DyneKind
    gamma_m: np.ndarray | None = None

    def __post_init__(self):
        modes = _mode_indices(self.modes)
        m = len(modes)
        object.__setattr__(self, "modes", modes)
        if self.kind is not DyneKind.GENERAL and self.gamma_m is not None:
            raise ParamOutOfRange(f"{self.kind.name} dyne takes no gamma_m; "
                                  "use GENERAL for a given measurement covariance")
        if self.kind is DyneKind.GENERAL:
            if self.gamma_m is None or np.shape(self.gamma_m) != (2 * m, 2 * m):
                raise DimensionMismatch(
                    f"general dyne on {m} modes needs a {2 * m}x{2 * m} gamma_m"
                )
            # keep the covariance that was checked: copied, symmetrized, frozen
            checked = GaussianState(mean=np.zeros(2 * m), cov=self.gamma_m).require_physical()
            object.__setattr__(self, "gamma_m", checked.cov)


@dataclass(frozen=True)
class MeasurementRecord:
    """A sampled outcome and the state of the unmeasured modes conditioned on
    it (None when every mode was measured).

    The conditioned covariance never depends on the outcome value; only the
    conditioned mean does.
    """

    outcome: np.ndarray
    conditioned_state: GaussianState | None


@dataclass(frozen=True)
class _UpdatePlan:
    """Read-only gathers of one measurement layout: the kept quadratures
    ``keep``, the measured ``meas``, the index tuples of the blocks
    cov[meas, meas], cov[keep, meas] and cov[keep, keep], and the jitter
    that keeps an exactly zero measured variance factorable."""

    keep: np.ndarray
    meas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "meas_meas", np.ix_(self.meas, self.meas))
        object.__setattr__(self, "keep_meas", np.ix_(self.keep, self.meas))
        object.__setattr__(self, "keep_keep", np.ix_(self.keep, self.keep))
        object.__setattr__(self, "jitter", 1e-300 * np.eye(len(self.meas)))
        for value in vars(self).values():
            for array in value if isinstance(value, tuple) else (value,):
                _freeze(array)


def _gaussian_update(cov, means, plan: _UpdatePlan, v, outcomes):
    """Condition K states that share ``cov`` on quadratures ``plan.meas``.

    ``means`` is a (K, 2N) stack, ``v`` = cov[meas, meas] + N and
    ``outcomes`` (K, len(meas)). One solve serves all K. The gathers come
    precomputed with ``plan``, so the call is arithmetic only. Returns the
    covariance and (K, len(keep)) means of quadratures ``plan.keep`` (None,
    None if nothing is kept).
    """
    if len(plan.keep) == 0:
        return None, None
    cross = cov[plan.keep_meas]
    gain = np.linalg.solve(v, cross.T).T
    cov_out = cov[plan.keep_keep] - gain @ cross.T
    means_out = means[:, plan.keep] + (outcomes - means[:, plan.meas]) @ gain.T
    return _symmetrized(cov_out), means_out


def _factor(v, plan: _UpdatePlan):
    """The Cholesky factor L of V/2 + jitter that outcomes are drawn with.

    Its pivots 2 L_ii^2 are the variances that a chain of one-quadrature
    measurements, in ``plan.meas`` order, conditions on: every pivot but the
    last conditions a later quadrature, and the last one conditions the kept
    modes when there are any. A V that does not factor, or a pivot that is
    conditioned on below DEGENERATE_VARIANCE * max(1, V_ii), raises
    DegenerateQuadrature.
    """
    try:
        chol = np.linalg.cholesky(v / 2.0 + plan.jitter)
    except np.linalg.LinAlgError:
        raise DegenerateQuadrature("measured block is not positive definite; "
                                   "conditioning is undefined") from None
    pivots = 2.0 * chol.diagonal() ** 2
    floors = DEGENERATE_VARIANCE * np.maximum(1.0, v.diagonal())
    if len(plan.keep) == 0:
        pivots, floors = pivots[:-1], floors[:-1]  # the last outcome conditions nothing
    if (pivots < floors).any():
        raise DegenerateQuadrature(
            f"measured quadrature variance below {DEGENERATE_VARIANCE:g} x max(1, its "
            "unconditioned variance); conditioning is singular")
    return chol


def _sample(cov, means, plan: _UpdatePlan, v, draws):
    """Outcomes means[:, meas] + draws L^T for K states sharing ``cov``, with
    L from ``_factor``, and the update on them: (outcomes, cov, means)."""
    outcomes = means[:, plan.meas] + draws @ _factor(v, plan).T
    return (outcomes, *_gaussian_update(cov, means, plan, v, outcomes))


def _record(outcomes, cov, means) -> MeasurementRecord:
    """The record of row 0 of what ``_sample`` returns."""
    state = None if cov is None else GaussianState._computed(means[0], cov)
    return MeasurementRecord(outcome=outcomes[0], conditioned_state=state)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _dyne_plan(n_modes: int, modes: tuple, kind: DyneKind) -> _UpdatePlan:
    # a list comprehension: numpy's set routines add about 1 MB of RSS on first use
    keep = quad_indices([m for m in range(n_modes) if m not in modes])
    meas = quad_indices(modes)
    if kind in (DyneKind.HOMODYNE_X, DyneKind.HOMODYNE_P):
        meas = meas[0::2] if kind is DyneKind.HOMODYNE_X else meas[1::2]
    return _UpdatePlan(keep, meas)


def _require_outcome_length(length: int, expected: int) -> None:
    """Refuse an outcome whose length is not the measured quadratures'."""
    if length != expected:
        raise DimensionMismatch(f"outcome length {length} != {expected}")


def _dyne_blocks(state: GaussianState, spec: DyneSpec):
    """The plan of ``spec`` on ``state``, and V = Gamma_bb + N. Refuses modes
    beyond ``state``'s; the rest of the spec was checked when it was built."""
    _mode_indices(spec.modes, state.modes)
    plan = _dyne_plan(state.modes, spec.modes, spec.kind)
    v = state.cov[plan.meas_meas]
    if spec.kind is DyneKind.HETERODYNE:
        v = v + np.eye(plan.meas.size)
    elif spec.kind is DyneKind.GENERAL:
        v = v + spec.gamma_m
    return plan, v


def condition(state: GaussianState, spec: DyneSpec, outcome) -> GaussianState:
    """State of the unmeasured modes conditioned on a dyne outcome.

    The update of the module docstring. V is refused by the rule every
    measurement shares (``_factor``): a V that is not positive definite, or
    has a Cholesky pivot below DEGENERATE_VARIANCE * max(1, V_ii), raises
    DegenerateQuadrature. Heterodyne adds I to V, so on a physical state its
    pivots exceed 1, above that floor while every V_ii is below 1e12.

    ``outcome`` is the one array from outside that reaches the result, so it
    is checked here: an entry beyond ``symplectic.MAX_ENTRY`` raises
    MalformedInput, and so does a conditioned state that overflows, which
    that bound rules out for physical states only. The result is built
    unchecked (``GaussianState._computed``), from the checked state and the
    update's exactly symmetric covariance.
    """
    plan, v = _dyne_blocks(state, spec)
    if len(spec.modes) == state.modes:
        raise DimensionMismatch("cannot condition on every mode; nothing would remain")
    outcome = np.asarray(outcome, dtype=float).reshape(-1)
    _require_outcome_length(outcome.size, plan.meas.size)
    _require_entries("outcome entry", outcome)
    _factor(v, plan)
    cov, means = _gaussian_update(state.cov, state.mean[None, :], plan, v,
                                  outcome[None, :])
    if not (np.isfinite(means).all() and np.isfinite(cov).all()):
        raise MalformedInput("the conditioned state overflows float64")
    return GaussianState._computed(means[0], cov)


def sample_outcome(state: GaussianState, spec: DyneSpec, seed) -> MeasurementRecord:
    """Draw one outcome from the measurement law and condition on it.

    Deterministic for a fixed seed; pass a Generator to chain several draws.
    """
    rng = np.random.default_rng(seed)
    plan, v = _dyne_blocks(state, spec)
    draws = rng.standard_normal((1, plan.meas.size))
    return _record(*_sample(state.cov, state.mean[None, :], plan, v, draws))


@dataclass(frozen=True)
class _BellPlan(_UpdatePlan):
    """An update plan for the homodynes of a Bell step, plus the beamsplitters
    ``s`` that precede them and the ``scale`` that turns raw readings into
    outcomes."""

    s: np.ndarray
    scale: np.ndarray


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _bell_plan(n_modes: int, pairs: tuple) -> _BellPlan:
    a, b = np.array(pairs, dtype=int).T
    qa, qb = quad_indices(a), quad_indices(b)
    # balanced beamsplitters: mode a -> (r_a + r_b)/sqrt2, mode b -> (r_b - r_a)/sqrt2
    s = np.eye(2 * n_modes)
    s[qa, qa] = s[qa, qb] = s[qb, qb] = np.sqrt(0.5)
    s[qb, qa] = -np.sqrt(0.5)
    meas = qb.copy()
    meas[1::2] = qa[1::2]  # x of each b, then p of its a
    keep = np.ones(2 * n_modes, dtype=bool)
    keep[qa] = keep[qb] = False
    # the raw homodyne readings carry a 1/sqrt(2) from the beamsplitter, and
    # the x readings a sign
    scale = np.array([-np.sqrt(2.0), np.sqrt(2.0)] * len(a))
    return _BellPlan(np.flatnonzero(keep), meas, s, scale)


def _bell_step(cov, means, pairs, draws):
    """Bell measurement of disjoint mode ``pairs`` on K states sharing one covariance.

    ``means`` is a (K, 2N) stack and ``draws`` (K, 2m) are the standard
    normals the m pairs' outcomes are sampled from, (x_d, p_d) per pair.
    The pairs' balanced beamsplitters commute, so they are
    one symplectic, and x of b and p of a for every pair (a, b) are one
    2m-quadrature homodyne. Ordered pair by pair, x then p, its Cholesky
    factor reproduces the chain of single-pair steps draw for draw, and its
    pivots are the variances each homodyne of that chain would condition on.
    The beamsplitter matrix and the gathers are planned once per
    (mode count, pairs). Returns the (K, 2m) outcomes and the conditioned
    covariance and means of the remaining modes, in their original order.
    """
    plan = _bell_plan(len(cov) // 2, tuple((int(a), int(b)) for a, b in pairs))
    s = plan.s
    cov = _symmetrized(s @ cov @ s.T)
    means = means @ s.T
    raw, cov, means = _sample(cov, means, plan, cov[plan.meas_meas], draws)
    return raw * plan.scale, cov, means


def bell_measure(state: GaussianState, pair, seed) -> MeasurementRecord:
    """Bell measurement of x_a - x_b and p_a + p_b on the mode pair (a, b).

    Realized as a balanced beamsplitter on the pair followed by homodyne x on
    one output and homodyne p on the other. The recorded outcome is rescaled
    so its two entries are exactly the observables above (the raw homodyne
    readings carry a 1/sqrt(2) from the beamsplitter, and the x reading a
    sign, both of which are absorbed here so the record feeds the conditional
    displacement formula directly).
    """
    pair = _mode_indices(pair, state.modes, count=2)
    draws = np.random.default_rng(seed).standard_normal((1, 2))
    return _record(*_bell_step(state.cov, state.mean[None, :], [pair], draws))

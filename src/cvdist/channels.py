"""Gaussian CP maps in the Choi covariance representation.

A Gaussian channel with n_in input and n_out output modes is stored as the
covariance matrix of its Choi state, partitioned into blocks

    Gamma = [[A, C], [C^T, B]]

with A on the input modes, B on the output modes and C the input-output
correlations. The action on an input state (covariance G, mean d) is
general-dyne conditioning of the Choi input modes, by the same update and the
same cached plan as every measurement in :mod:`cvdist.measurements`, with
detection noise R G R and outcome R d (R = diag(1, -1, ...) transposes the
input modes):

    Gamma_out = B - C^T (A + R G R)^{-1} C,
    d_out     = m_B + C^T (A + R G R)^{-1} (R d - m_A).

A Bell outcome r_d adds to the dyne outcome: the output picks up the
displacement C^T (A + R G R)^{-1} r_d. The conditioning matrix A + R G R is
refused by the measurements' rule too (``measurements._factor``): it must
factor, and each Cholesky pivot must reach 1e-12 x max(1, its diagonal entry),
else DegenerateQuadrature. The rule reads the pivots, not the condition
number, so a channel squeezed along its own axes (cond 1e14, every pivot near
its diagonal) is applied, while one whose correlated inputs cancel to 1 part
in 1e12 is refused.

A Choi covariance must pass the Gamma + i Omega test of
:meth:`GaussianState.require_physical`, but not its condition-number limit:
near-ideal Choi states sit on the pure-state boundary at condition numbers
near e^{4 r_approx} (1e10 at the CLI's default r_approx = 6), where float64
resolves no symplectic eigenvalue, so a Choi covariance passes unless the
test proves it unphysical. They pass up to r_approx 15.

Normalization (success probability of trace-decreasing maps) is not tracked:
at covariance level the probabilistic and deterministic versions of a map act
identically, which is exactly the equivalence this package verifies. Channel
displacements (nonzero Choi means) are supported but irrelevant for
entanglement; the constructors here all set them to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadrature, DimensionMismatch, MalformedInput, ParamOutOfRange
from .measurements import DyneKind, _dyne_plan, _factor, _gaussian_update, _require_outcome_length
from .states import (
    PHYSICALITY_TOL,
    GaussianState,
    _float_array,
    _json_fields,
    _require_gamma_omega_psd,
    random_state,
    tmsv,
)
from .symplectic import _momentum_flip, _require_modes, block_diag, quad_indices


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian CP map stored as a Choi-state covariance with mode partition.

    ``partition`` assigns each Choi mode the role "in" or "out", in Choi mode
    order; it defaults to all inputs first, then all outputs. Construction
    sets ``input_modes``, the Choi modes marked "in", and ``_plan``, their
    general-dyne plan (``measurements._dyne_plan``, one per layout).
    """

    n_in: int
    n_out: int
    choi_cov: np.ndarray
    choi_mean: np.ndarray | None = None
    partition: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        n = self.n_in + self.n_out
        if self.n_in < 1 or self.n_out < 1:
            raise DimensionMismatch("channels need at least one input and one output mode")
        partition = self.partition
        if partition is None:
            partition = ("in",) * self.n_in + ("out",) * self.n_out
        partition = tuple(partition)
        if len(partition) != n or partition.count("in") != self.n_in \
                or partition.count("out") != self.n_out:
            raise DimensionMismatch(
                f"partition {partition} inconsistent with n_in={self.n_in}, "
                f"n_out={self.n_out}"
            )
        mean = self.choi_mean
        if mean is None:
            mean = np.zeros(2 * n)
        choi = GaussianState(mean=mean, cov=self.choi_cov)  # shape + symmetry checks
        if choi.modes != n:
            raise DimensionMismatch(
                f"choi_cov of {choi.modes} modes but partition lists {n}"
            )
        # passes unless provably unphysical: see the module docstring
        _require_gamma_omega_psd(choi.cov, 1.0 + PHYSICALITY_TOL)
        object.__setattr__(self, "choi_cov", choi.cov)
        object.__setattr__(self, "choi_mean", choi.mean)
        object.__setattr__(self, "partition", partition)
        input_modes = tuple(i for i, p in enumerate(partition) if p == "in")
        object.__setattr__(self, "input_modes", input_modes)
        object.__setattr__(self, "_plan", _dyne_plan(n, input_modes, DyneKind.GENERAL))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_in": self.n_in,
            "n_out": self.n_out,
            "partition": list(self.partition),
            "choi_mean": self.choi_mean.tolist(),
            "choi_cov": self.choi_cov.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianChannel":
        return cls(**_json_fields(data, {
            "n_in": int, "n_out": int, "choi_cov": _float_array,
            "choi_mean": _float_array, "partition": tuple,
        }))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------


def _choi_dyne(ch: GaussianChannel, state: GaussianState):
    """V = A + R Gamma R and the outcome R d of the channel's action on ``state``.

    This is the one place the channel action checks the input-mode count,
    and it refuses V by the rule every measurement shares
    (``measurements._factor``), raising DegenerateQuadrature with that rule's
    message, prefixed by what was refused.
    """
    if state.modes != ch.n_in:
        raise DimensionMismatch(
            f"channel expects {ch.n_in} input modes, state has {state.modes}"
        )
    r, rr = _momentum_flip(ch.n_in, tuple(range(ch.n_in)))
    v = ch.choi_cov[ch._plan.meas_meas] + state.cov * rr
    try:
        _factor(v, ch._plan)
    except DegenerateQuadrature as exc:
        raise DegenerateQuadrature(
            "the channel's conditioning matrix A + R Gamma R with this input is "
            f"refused: {exc}") from None
    return v, r * state.mean


def _condition_choi(ch: GaussianChannel, v, outcome, r_d=()):
    """Condition the Choi inputs once for the action and every Bell outcome.

    One update over the stacked outcomes [R d; r_d], with Choi means
    [m; 0, ...], gives the output covariance, the output mean (row 0) and the
    displacements C^T (A + R Gamma R)^{-1} r_d (the other rows, shaped as r_d).
    """
    stack = np.reshape(r_d, (-1, outcome.size))
    means = np.zeros((1 + len(stack), ch.choi_mean.size))
    means[0] = ch.choi_mean
    cov, out = _gaussian_update(ch.choi_cov, means, ch._plan, v,
                                np.vstack([outcome, stack]))
    return cov, out[0], out[1:].reshape(np.shape(r_d)[:-1] + (-1,))


def _bell_outcome(ch: GaussianChannel, r_d) -> np.ndarray:
    """One outcome as a (2 n_in,) vector, or a (K, 2 n_in) stack of them."""
    r_d = np.asarray(r_d, dtype=float)
    if r_d.ndim != 2:
        r_d = r_d.reshape(-1)
    _require_outcome_length(r_d.shape[-1], 2 * ch.n_in)
    return r_d


def apply(ch: GaussianChannel, state: GaussianState) -> GaussianState:
    """Apply the channel: Gamma_out = B - C^T (A + R Gamma R)^{-1} C.

    The mean propagates as m_B + C^T (A + R Gamma R)^{-1} (R d - m_A), which
    is zero for zero channel displacement and zero input mean.
    """
    cov, mean, _ = _condition_choi(ch, *_choi_dyne(ch, state))
    return GaussianState._computed(mean, cov)


def conditional_output_mean(
    ch: GaussianChannel, state: GaussianState, r_d: np.ndarray
) -> np.ndarray:
    """Mean of the teleported output conditioned on Bell outcome ``r_d``.

    Equals m_B + C^T (A + R Gamma R)^{-1} (R d + r_d - m_A); subtracting it is
    the displacement correction that makes the protocol deterministic. For
    zero means it reduces to C^T (A + R Gamma R)^{-1} r_d. ``r_d`` may be a
    (K, 2 n_in) stack of outcomes; the result is then (K, 2 n_out).
    """
    r_d = _bell_outcome(ch, r_d)
    _, mean, shift = _condition_choi(ch, *_choi_dyne(ch, state), r_d)
    return mean + shift


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _epr_pair(r_approx: float) -> np.ndarray:
    """tmsv(r_approx).cov, read-only: both Choi constructors' EPR pair."""
    if r_approx <= 0.0:
        raise ParamOutOfRange(f"approximation squeezing must be > 0, got {r_approx}")
    return tmsv(r_approx).cov


def choi_from_truncated_epr(n: int, r_approx: float) -> GaussianChannel:
    """Finite-squeezing approximation of the identity channel on ``n`` modes.

    The Choi state of the exact identity is an unphysical, infinitely squeezed
    EPR state; here it is a tensor product of two-mode squeezed vacua with
    squeezing ``r_approx``, the first member of each pair being the input.
    The channel converges to the identity as r_approx grows.
    """
    _require_modes(n)
    cov = block_diag(*([_epr_pair(r_approx)] * n))
    return GaussianChannel(
        n_in=n, n_out=n, choi_cov=cov, partition=("in", "out") * n
    )


def filter_channel(r: float) -> GaussianChannel:
    """Single-mode noiseless filter of strength ``r`` (Choi state = tmsv(r)).

    Composing it with a two-mode squeezed input multiplies tanh of the
    squeezing parameters: tanh s' = tanh s * tanh r.
    """
    return GaussianChannel(n_in=1, n_out=1, choi_cov=tmsv(r).cov)


def attenuation_channel(eta: float, r_approx: float) -> GaussianChannel:
    """Single-mode attenuation with transmissivity ``eta``.

    Built as the loss channel acting on half of a finitely squeezed EPR pair;
    as r_approx grows the action converges to Gamma -> eta Gamma + (1-eta) I.
    """
    if not np.isfinite(eta):
        raise MalformedInput(f"transmissivity {eta!r} is not finite")
    if not 0.0 <= eta <= 1.0:
        raise ParamOutOfRange(f"transmissivity {eta} outside [0, 1]")
    cov = _epr_pair(r_approx).copy()
    cov[:2, 2:] *= np.sqrt(eta)
    cov[2:, :2] *= np.sqrt(eta)
    cov[2:, 2:] = (eta * cov[0, 0] + 1.0 - eta) * np.eye(2)
    return GaussianChannel(n_in=1, n_out=1, choi_cov=cov)


# ---------------------------------------------------------------------------
# random separable (LOCC) channels
# ---------------------------------------------------------------------------

def random_locc_channel(rng: np.random.Generator) -> GaussianChannel:
    """Random separable (LOCC) 1+1 -> 1+1 channel in witness form.

    The Choi covariance is gamma_A (+) gamma_B + Y (Werner and Wolf, PRL 86,
    3658 (2001)), with Choi modes ordered (A_in, B_in, A_out, B_out): Alice
    holds Choi modes (0, 2) and Bob (1, 3). Each party's gamma is a random
    two-mode state with nus in [1, 1.8] and symplectic width 0.35, Alice's
    drawn first; Y = G G^T / 8, with G an 8x8 Gaussian of width 0.3, is drawn
    last. Physical gammas and Y >= 0 make the Choi state separable across the
    Alice|Bob cut by construction; ``GaussianChannel`` checks physicality.
    """
    gamma_a = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35).cov
    gamma_b = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35).cov
    g = rng.normal(0.0, 0.3, size=(8, 8))
    cov = g @ g.T / 8.0
    q = quad_indices((0, 2, 1, 3))  # Alice's Choi modes, then Bob's
    cov[np.ix_(q, q)] += block_diag(gamma_a, gamma_b)
    return GaussianChannel(
        n_in=2, n_out=2, choi_cov=cov, partition=("in", "in", "out", "out")
    )

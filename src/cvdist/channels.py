"""Gaussian CP maps in the Choi covariance representation.

A Gaussian channel with n_in input and n_out output modes is stored as the
covariance matrix of its Choi state, partitioned into blocks

    Gamma = [[A, C], [C^T, B]]

with A on the input modes, B on the output modes and C the input-output
correlations. The action on an input state (covariance G, mean d) is
general-dyne conditioning of the Choi input modes, by the same update as every
measurement in :mod:`cvdist.measurements`, with detection noise R G R and
outcome R d (R = diag(1, -1, ...) transposes the input modes):

    Gamma_out = B - C^T (A + R G R)^{-1} C,
    d_out     = m_B + C^T (A + R G R)^{-1} (R d - m_A).

A Bell outcome r_d adds to the dyne outcome: the output picks up the
displacement C^T (A + R G R)^{-1} r_d.

Normalization (success probability of trace-decreasing maps) is not tracked:
at covariance level the probabilistic and deterministic versions of a map act
identically, which is exactly the equivalence this package verifies. Channel
displacements (nonzero Choi means) are supported but irrelevant for
entanglement; the constructors here all set them to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPhysical,
    NotPhysicalWitness,
    ParamOutOfRange,
    SingularConditioning,
)
from .measurements import _gaussian_update
from .states import PHYSICALITY_TOL, GaussianState, _freeze, tmsv
from .symplectic import block_diag, omega, quad_indices, symplectic_eigenvalues

#: Conditioning matrix (A + R G R) limits before SingularConditioning fires.
MIN_SINGULAR_VALUE = 1e-12
MAX_CONDITION_NUMBER = 1e12

#: min eig(Gamma + i Omega) of a Choi state may reach -(PHYSICALITY_TOL + this
#: * dim * max|Gamma|): eigvalsh errs in proportion to the norm, and near-ideal
#: Choi states have entries ~e^{2 r_approx} on the pure-state boundary.
CHOI_PHYSICALITY_RTOL = 1e-13

#: Most negative eigenvalue accepted in an LOCC witness's noise matrix: a
#: PSD G G^T rounds to about -1e-16 |G|^2, while below this it is invalid.
WITNESS_NOISE_TOL = 1e-10


def _transposition_signs(n_modes: int) -> np.ndarray:
    """Diagonal of the phase-space transposition R = diag(1, -1, 1, -1, ...)."""
    r = np.ones(2 * n_modes)
    r[1::2] = -1.0
    return r


def transposition_matrix(n_modes: int) -> np.ndarray:
    """Phase-space transposition R = diag(1, -1, 1, -1, ...)."""
    return np.diag(_transposition_signs(n_modes))


def _require_physical_choi(cov: np.ndarray) -> None:
    """Physicality check robust to strongly squeezed approximation channels.

    Choi states of near-ideal channels have covariance entries ~ e^{2 r_approx}
    and sit on the pure-state boundary; the symplectic-eigenvalue route loses
    their tiny margin to cancellation. The definitional Hermitian test
    Gamma + i Omega >= 0 only degrades linearly with the norm, so it stays
    meaningful, with a norm-scaled tolerance.
    """
    n = cov.shape[0] // 2
    herm = cov + 1j * omega(n)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    scale = cov.shape[0] * float(np.abs(cov).max())
    tol = PHYSICALITY_TOL + CHOI_PHYSICALITY_RTOL * scale
    if min_eig < -tol:
        raise NotPhysical(
            f"Choi covariance violates Gamma + i Omega >= 0 "
            f"(min eigenvalue {min_eig:.3e})"
        )


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian CP map stored as a Choi-state covariance with mode partition.

    ``partition`` assigns each Choi mode the role "in" or "out", in Choi mode
    order; it defaults to all inputs first, then all outputs.
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
        _require_physical_choi(choi.cov)
        object.__setattr__(self, "choi_cov", choi.cov)
        object.__setattr__(self, "choi_mean", choi.mean)
        object.__setattr__(self, "partition", partition)

    # -- block bookkeeping: computed once per channel ------------------------

    @cached_property
    def input_modes(self) -> tuple:
        return tuple(i for i, p in enumerate(self.partition) if p == "in")

    @cached_property
    def output_modes(self) -> tuple:
        return tuple(i for i, p in enumerate(self.partition) if p == "out")

    @cached_property
    def _in_q(self) -> np.ndarray:
        return _freeze(quad_indices(self.input_modes))

    @cached_property
    def _out_q(self) -> np.ndarray:
        return _freeze(quad_indices(self.output_modes))

    @property
    def a_block(self) -> np.ndarray:
        return self.choi_cov[np.ix_(self._in_q, self._in_q)]

    @property
    def choi_state(self) -> GaussianState:
        return GaussianState(mean=self.choi_mean, cov=self.choi_cov)

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
        return cls(
            n_in=int(data["n_in"]),
            n_out=int(data["n_out"]),
            choi_cov=np.array(data["choi_cov"], dtype=float),
            choi_mean=np.array(data["choi_mean"], dtype=float),
            partition=tuple(data["partition"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# channel action
# ---------------------------------------------------------------------------


def _choi_dyne(ch: GaussianChannel, state: GaussianState):
    """V = A + R Gamma R and the outcome R d of the channel's action on ``state``.

    This is the one place the channel action checks the input-mode count,
    and it refuses V too ill-conditioned to solve against.
    """
    if state.modes != ch.n_in:
        raise DimensionMismatch(
            f"channel expects {ch.n_in} input modes, state has {state.modes}"
        )
    r = _transposition_signs(ch.n_in)
    v = ch.a_block + state.cov * np.outer(r, r)
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] < MIN_SINGULAR_VALUE or sv[0] / sv[-1] > MAX_CONDITION_NUMBER:
        raise SingularConditioning(
            f"conditioning matrix has smallest singular value {sv[-1]:.3e} "
            f"(condition number {sv[0] / sv[-1]:.3e}); the channel is "
            "over-idealized, increase the approximation squeezing"
        )
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
    _, cov, out = _gaussian_update(ch.choi_cov, means, ch._out_q, ch._in_q, v,
                                   outcomes=np.vstack([outcome, stack]))
    return cov, out[0], out[1:].reshape(np.shape(r_d)[:-1] + (-1,))


def _bell_outcome(ch: GaussianChannel, r_d) -> np.ndarray:
    """One outcome as a (2 n_in,) vector, or a (K, 2 n_in) stack of them."""
    r_d = np.asarray(r_d, dtype=float)
    if r_d.ndim != 2:
        r_d = r_d.reshape(-1)
    if r_d.shape[-1] != 2 * ch.n_in:
        raise DimensionMismatch(f"outcome length {r_d.shape[-1]} != {2 * ch.n_in}")
    return r_d


def apply(ch: GaussianChannel, state: GaussianState) -> GaussianState:
    """Apply the channel: Gamma_out = B - C^T (A + R Gamma R)^{-1} C.

    The mean propagates as m_B + C^T (A + R Gamma R)^{-1} (R d - m_A), which
    is zero for zero channel displacement and zero input mean.
    """
    cov, mean, _ = _condition_choi(ch, *_choi_dyne(ch, state))
    return GaussianState(mean=mean, cov=cov)


def conditional_displacement(
    ch: GaussianChannel, state: GaussianState, r_d: np.ndarray
) -> np.ndarray:
    """Displacement C^T (A + R Gamma R)^{-1} r_d induced by Bell outcome r_d.

    ``r_d`` may be a (K, 2 n_in) stack of outcomes: the conditioning matrix
    is then built and checked once and solved against all K, and the result
    is (K, 2 n_out).
    """
    r_d = _bell_outcome(ch, r_d)
    return _condition_choi(ch, *_choi_dyne(ch, state), r_d)[2]


def conditional_output_mean(
    ch: GaussianChannel, state: GaussianState, r_d: np.ndarray
) -> np.ndarray:
    """Mean of the teleported output conditioned on Bell outcome ``r_d``.

    Equals m_B + C^T (A + R Gamma R)^{-1} (R d + r_d - m_A); subtracting it is
    the displacement correction that makes the protocol deterministic. For
    zero means it reduces to :func:`conditional_displacement`. Accepts a
    stack of outcomes as :func:`conditional_displacement` does.
    """
    r_d = _bell_outcome(ch, r_d)
    _, mean, shift = _condition_choi(ch, *_choi_dyne(ch, state), r_d)
    return mean + shift


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def choi_from_truncated_epr(n: int, r_approx: float) -> GaussianChannel:
    """Finite-squeezing approximation of the identity channel on ``n`` modes.

    The Choi state of the exact identity is an unphysical, infinitely squeezed
    EPR state; here it is a tensor product of two-mode squeezed vacua with
    squeezing ``r_approx``, the first member of each pair being the input.
    The channel converges to the identity as r_approx grows.
    """
    if r_approx <= 0.0:
        raise ParamOutOfRange(f"approximation squeezing must be > 0, got {r_approx}")
    pair = tmsv(r_approx).cov
    cov = block_diag(*([pair] * n))
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
    if not 0.0 <= eta <= 1.0:
        raise ParamOutOfRange(f"transmissivity {eta} outside [0, 1]")
    if r_approx <= 0.0:
        raise ParamOutOfRange(f"approximation squeezing must be > 0, got {r_approx}")
    ch2, sh2 = np.cosh(2.0 * r_approx), np.sinh(2.0 * r_approx)
    z = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    cov = np.block([
        [ch2 * i2, np.sqrt(eta) * sh2 * z],
        [np.sqrt(eta) * sh2 * z, (eta * ch2 + 1.0 - eta) * i2],
    ])
    return GaussianChannel(n_in=1, n_out=1, choi_cov=cov)


# ---------------------------------------------------------------------------
# separable (LOCC) channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoccChannelSpec:
    """Witness-form description of a separable (LOCC) Gaussian channel.

    The Choi covariance is assembled as (gamma_a on Alice's Choi modes) +
    (gamma_b on Bob's) + noise, with gamma_a, gamma_b physical and noise
    positive semidefinite. Any such Choi state is separable across the
    Alice|Bob cut by construction, which makes the form a constructive
    generator of random LOCC channels. ``partition`` assigns in/out roles to
    the Choi modes exactly as in :class:`GaussianChannel`.
    """

    alice_modes: tuple
    bob_modes: tuple
    gamma_a: np.ndarray
    gamma_b: np.ndarray
    noise: np.ndarray
    partition: tuple

    def __post_init__(self):
        object.__setattr__(self, "alice_modes", tuple(int(m) for m in self.alice_modes))
        object.__setattr__(self, "bob_modes", tuple(int(m) for m in self.bob_modes))
        object.__setattr__(self, "partition", tuple(self.partition))
        object.__setattr__(self, "gamma_a", np.asarray(self.gamma_a, dtype=float))
        object.__setattr__(self, "gamma_b", np.asarray(self.gamma_b, dtype=float))
        object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))

    @property
    def n_modes(self) -> int:
        return len(self.alice_modes) + len(self.bob_modes)


def make_separable_channel(spec: LoccChannelSpec) -> GaussianChannel:
    """Build the channel for a witness spec, validating the witness."""
    n = spec.n_modes
    if set(spec.alice_modes) & set(spec.bob_modes) or \
            set(spec.alice_modes) | set(spec.bob_modes) != set(range(n)):
        raise NotPhysicalWitness(
            f"alice {spec.alice_modes} / bob {spec.bob_modes} is not a partition"
        )
    for name, gamma, party in [("gamma_a", spec.gamma_a, spec.alice_modes),
                               ("gamma_b", spec.gamma_b, spec.bob_modes)]:
        if gamma.shape != (2 * len(party), 2 * len(party)):
            raise NotPhysicalWitness(f"{name} shape {gamma.shape} does not fit {party}")
        nu_min = symplectic_eigenvalues(gamma)[-1]
        if nu_min < 1.0 - PHYSICALITY_TOL:
            raise NotPhysicalWitness(f"{name} unphysical: nu_min = {nu_min:.12g}")
    if spec.noise.shape != (2 * n, 2 * n):
        raise NotPhysicalWitness(f"noise shape {spec.noise.shape} != {(2 * n, 2 * n)}")
    y_min = float(np.linalg.eigvalsh((spec.noise + spec.noise.T) / 2.0)[0])
    if y_min < -WITNESS_NOISE_TOL:
        raise NotPhysicalWitness(f"noise matrix has eigenvalue {y_min:.3e} < 0")

    cov = (spec.noise + spec.noise.T) / 2.0
    qa = quad_indices(spec.alice_modes)
    qb = quad_indices(spec.bob_modes)
    cov = cov.copy()
    cov[np.ix_(qa, qa)] += spec.gamma_a
    cov[np.ix_(qb, qb)] += spec.gamma_b
    n_in = spec.partition.count("in")
    return GaussianChannel(
        n_in=n_in, n_out=n - n_in, choi_cov=cov, partition=spec.partition
    )


def random_locc_spec(
    rng: np.random.Generator,
    alice: tuple = (1, 1),
    bob: tuple = (1, 1),
    nu_spread: float = 0.8,
    symplectic_scale: float = 0.35,
    noise_scale: float = 0.3,
) -> LoccChannelSpec:
    """Random witness spec for a separable channel.

    ``alice`` and ``bob`` give (inputs, outputs) per party. Choi modes are
    ordered (all inputs: Alice's then Bob's, then all outputs: Alice's then
    Bob's), so a 1+1 -> 1+1 channel has Alice on Choi modes (0, 2) and Bob on
    (1, 3), matching the input ordering (A_in, B_in) -> (A_out, B_out).
    """
    from .states import random_state  # local import to avoid cycle at module load

    na = sum(alice)
    nb = sum(bob)
    n = na + nb
    n_in = alice[0] + bob[0]
    alice_modes = tuple(range(alice[0])) + tuple(n_in + k for k in range(alice[1]))
    bob_modes = tuple(alice[0] + k for k in range(bob[0])) + \
        tuple(n_in + alice[1] + k for k in range(bob[1]))
    gamma_a = random_state(na, rng, nu_spread=nu_spread,
                           symplectic_scale=symplectic_scale).cov
    gamma_b = random_state(nb, rng, nu_spread=nu_spread,
                           symplectic_scale=symplectic_scale).cov
    g = rng.normal(0.0, noise_scale, size=(2 * n, 2 * n))
    noise = g @ g.T / (2.0 * n)
    partition = tuple("in" if m < n_in else "out" for m in range(n))
    return LoccChannelSpec(
        alice_modes=alice_modes,
        bob_modes=bob_modes,
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        noise=noise,
        partition=partition,
    )

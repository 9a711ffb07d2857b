"""Channel helpers for tests: the Choi state, its output modes, the
phase-space transposition, the conditional displacement, a witness-form
Choi covariance, a channel whose conditioning matrix cancels, and a
corrupted Fig. 1 correction.

``cvdist.channels.GaussianChannel`` keeps its Choi covariance and mean as
arrays; tests that need the Choi state itself, to tensor, trace out or
condition it through the public state API, build it here.
"""

import numpy as np

from cvdist import protocols
from cvdist.channels import (
    GaussianChannel,
    _bell_outcome,
    _choi_dyne,
    _condition_choi,
)
from cvdist.states import GaussianState, random_state
from cvdist.symplectic import _momentum_flip, block_diag, quad_indices, two_mode_squeezer


def choi_state(ch) -> GaussianState:
    """The Choi state of ``ch`` as a validated ``GaussianState``."""
    return GaussianState(mean=ch.choi_mean, cov=ch.choi_cov)


def output_modes(ch) -> tuple:
    """The Choi modes that ``ch.partition`` marks "out", in Choi order."""
    return tuple(i for i, p in enumerate(ch.partition) if p == "out")


def transposition_matrix(n_modes: int) -> np.ndarray:
    """Phase-space transposition R = diag(1, -1, 1, -1, ...), from the signs
    the channel action uses."""
    return np.diag(_momentum_flip(n_modes, tuple(range(n_modes)))[0])


def conditional_displacement(ch, state: GaussianState, r_d):
    """Displacement C^T (A + R Gamma R)^{-1} r_d induced by Bell outcome r_d.

    ``r_d`` may be a (K, 2 n_in) stack of outcomes: the conditioning matrix
    is then built and checked once and solved against all K, and the result
    is (K, 2 n_out).
    """
    r_d = _bell_outcome(ch, r_d)
    return _condition_choi(ch, *_choi_dyne(ch, state), r_d)[2]


def witness_cov(gamma_a, gamma_b, noise) -> np.ndarray:
    """Witness-form Choi covariance gamma_A (+) gamma_B + Y of a 1+1 -> 1+1
    channel, with Alice on Choi modes (0, 2) and Bob on (1, 3); unvalidated."""
    cov = np.array(noise, dtype=float)
    for modes, gamma in (((0, 2), gamma_a), ((1, 3), gamma_b)):
        q = quad_indices(modes)
        cov[np.ix_(q, q)] += gamma
    return cov


def correlated_channel(s, rng) -> GaussianChannel:
    """A 2 -> 2 channel whose Choi inputs are two-mode squeezed by 2 s: against
    the input tmsv(r), A + R Gamma R cancels to about e^{-4 s - 2 r} of its
    diagonal."""
    sq = block_diag(two_mode_squeezer(2.0 * s), np.eye(4))
    g = random_state(4, rng, nu_spread=0.5, symplectic_scale=0.3).cov
    return GaussianChannel(n_in=2, n_out=2, choi_cov=sq @ g @ sq.T)


def corrupt_correction_gain(monkeypatch, gain: float) -> None:
    """Make ``run_fig1`` subtract ``gain`` times each displacement correction.

    A negative control for the Fig. 1 check: only the per-sample shifts are
    scaled, so the closed-form reference stays exact and every deviation
    comes from the corrupted correction.
    """
    real = protocols._condition_choi

    def scaled(*args):
        cov, mean, shifts = real(*args)
        return cov, mean, gain * shifts

    monkeypatch.setattr(protocols, "_condition_choi", scaled)

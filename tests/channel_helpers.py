"""Channel helpers for tests: the Choi state, and a corrupted Fig. 1 correction.

``cvdist.channels.GaussianChannel`` keeps its Choi covariance and mean as
arrays; tests that need the Choi state itself, to tensor, trace out or
condition it through the public state API, build it here.
"""

from cvdist import protocols
from cvdist.states import GaussianState


def choi_state(ch) -> GaussianState:
    """The Choi state of ``ch`` as a validated ``GaussianState``."""
    return GaussianState(mean=ch.choi_mean, cov=ch.choi_cov)


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

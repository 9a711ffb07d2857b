"""The Choi state of a channel, for tests.

``cvdist.channels.GaussianChannel`` keeps its Choi covariance and mean as
arrays; tests that need the Choi state itself, to tensor, trace out or
condition it through the public state API, build it here.
"""

from cvdist.states import GaussianState


def choi_state(ch) -> GaussianState:
    """The Choi state of ``ch`` as a validated ``GaussianState``."""
    return GaussianState(mean=ch.choi_mean, cov=ch.choi_cov)

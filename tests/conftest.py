import numpy as np
import pytest

from cvdist.states import GaussianState


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture(autouse=True)
def computed_states_keep_their_contract(monkeypatch):
    """Check every unchecked ``GaussianState._computed`` construction, in every
    test, against what the checking constructor would have established: a
    1-D float mean of even length, a float covariance of matching square
    shape, finite entries, and a covariance exactly equal to its transpose."""
    computed = GaussianState._computed

    def checked(mean, cov):
        assert mean.ndim == 1 and mean.size % 2 == 0 and mean.size > 0
        assert cov.shape == (mean.size, mean.size)
        assert mean.dtype == cov.dtype == np.float64
        assert np.isfinite(mean).all() and np.isfinite(cov).all()
        assert np.array_equal(cov, cov.T)
        return computed(mean, cov)

    monkeypatch.setattr(GaussianState, "_computed", staticmethod(checked))

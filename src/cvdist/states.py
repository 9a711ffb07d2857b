"""Gaussian states: mean quadrature vector plus covariance matrix.

A state of N modes is a length-2N mean vector and a 2N x 2N covariance matrix
in the doubled convention (vacuum covariance = identity), xpxp ordering. All
values are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DimensionMismatch,
    EmptyKeepSet,
    MalformedInput,
    NotPhysical,
    ParamOutOfRange,
)
from .symplectic import (
    assert_symplectic,
    block_diag,
    quad_indices,
    random_symplectic,
    symplectic_eigenvalues,
)

#: States count as physical when every symplectic eigenvalue is >= 1 - this.
PHYSICALITY_TOL = 1e-9

#: Relative tolerance on covariance symmetry at construction time.
SYMMETRY_RTOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianState:
    """Immutable Gaussian state with mean ``mean`` and covariance ``cov``."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.size == 0 or mean.size % 2:
            raise DimensionError(f"mean length {mean.size} is not a positive even number")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.isfinite(mean).all():
            raise MalformedInput("mean has non-finite (NaN or inf) entries")
        cov_max = float(np.abs(cov).max())
        # NaN or inf entries fail this one test, before cov - cov.T could
        # compute inf - inf
        if not cov_max < np.inf:
            raise MalformedInput("covariance has non-finite (NaN or inf) entries")
        asym = float(np.abs(cov - cov.T).max())
        if not asym <= SYMMETRY_RTOL * max(1.0, cov_max):
            raise MalformedInput(f"covariance not symmetric: max asymmetry {asym:.3e}")
        cov = (cov + cov.T) / 2.0
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(cov))

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    def symplectic_spectrum(self) -> np.ndarray:
        return symplectic_eigenvalues(self.cov)

    def require_physical(self, tol: float = PHYSICALITY_TOL) -> "GaussianState":
        nu_min = float(self.symplectic_spectrum()[-1])
        if nu_min < 1.0 - tol:
            raise NotPhysical(f"min symplectic eigenvalue {nu_min:.12g} < 1")
        return self

    def with_mean(self, mean) -> "GaussianState":
        return GaussianState(mean=np.asarray(mean, dtype=float), cov=self.cov)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "modes": self.modes,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianState":
        state = cls(mean=np.array(data["mean"], dtype=float),
                    cov=np.array(data["cov"], dtype=float))
        if "modes" in data and int(data["modes"]) != state.modes:
            raise DimensionMismatch(
                f"declared modes {data['modes']} != inferred {state.modes}"
            )
        return state

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def vacuum(n: int) -> GaussianState:
    """Vacuum state of ``n`` modes (zero mean, identity covariance)."""
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return GaussianState(mean=np.zeros(2 * n), cov=np.eye(2 * n))


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Covariance blocks: cosh(2r) I on the diagonal, sinh(2r) diag(1, -1)
    off-diagonal. Pure for every r.
    """
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    cov = np.block([[ch * i2, sh * z], [sh * z, ch * i2]])
    return GaussianState(mean=np.zeros(4), cov=cov)


def thermal(nbar: float, n: int = 1) -> GaussianState:
    """Thermal state with mean occupation ``nbar`` per mode."""
    if nbar < 0.0:
        raise ParamOutOfRange(f"mean occupation must be >= 0, got {nbar}")
    if n < 1:
        raise DimensionError(f"mode count must be >= 1, got {n}")
    return GaussianState(mean=np.zeros(2 * n), cov=(1.0 + 2.0 * nbar) * np.eye(2 * n))


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """Transform a state by a symplectic matrix: Gamma -> S Gamma S^T, d -> S d."""
    s = assert_symplectic(s)
    if s.shape[0] != 2 * state.modes:
        raise DimensionMismatch(
            f"symplectic of shape {s.shape} cannot act on {state.modes} modes"
        )
    return GaussianState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product: block-diagonal covariance, concatenated means."""
    return GaussianState(
        mean=np.concatenate([a.mean, b.mean]),
        cov=block_diag(a.cov, b.cov),
    )


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Marginal state on ``keep`` (mode indices, ascending order in the output).

    For Gaussian states the marginal is obtained by deleting the rows and
    columns of the discarded modes.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise EmptyKeepSet("keep set must contain at least one mode")
    if keep[0] < 0 or keep[-1] >= state.modes:
        raise DimensionMismatch(f"keep modes {keep} outside 0..{state.modes - 1}")
    q = quad_indices(keep)
    return GaussianState(mean=state.mean[q], cov=state.cov[np.ix_(q, q)])


def random_state(
    n: int,
    rng: np.random.Generator,
    nu_spread: float = 1.0,
    symplectic_scale: float = 0.4,
    mean_scale: float = 0.0,
) -> GaussianState:
    """Random physical state S D S^T with nus in [1, 1 + nu_spread].

    The symplectic factor is exp(Omega H) with Gaussian H of width
    ``symplectic_scale``; means are Gaussian of width ``mean_scale``.
    """
    nus = 1.0 + rng.uniform(0.0, nu_spread, size=n)
    s = random_symplectic(n, rng, scale=symplectic_scale)
    cov = (s * np.repeat(nus, 2)[None, :]) @ s.T
    mean = rng.normal(0.0, mean_scale, size=2 * n) if mean_scale > 0 else np.zeros(2 * n)
    return GaussianState(mean=mean, cov=cov)

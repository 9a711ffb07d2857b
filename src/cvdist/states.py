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
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    ParamOutOfRange,
)
from .symplectic import (
    _freeze,
    _mode_indices,
    _require_modes,
    _require_resolvable,
    _symmetrized,
    assert_symplectic,
    block_diag,
    omega,
    quad_indices,
    random_symplectic,
    two_mode_squeezer,
)

#: States count as physical when (1 + this) Gamma + i Omega >= 0, that is when
#: every symplectic eigenvalue is >= 1 / (1 + this), about 1 - 1e-9.
PHYSICALITY_TOL = 1e-9

#: eigvalsh of t Gamma + i Omega errs by at most this * ||Gamma||_inf (largest
#: absolute row sum, >= ||Gamma||_2). Measured against 50-digit eigenvalues:
#: 3.2e-16 at worst; with the rounding of the entries themselves, pure tmsv(r)
#: (r <= 15) and near-ideal Choi states read at worst -7.2e-16 at t = 1.
_PHYSICALITY_RTOL = 1e-15

#: Relative tolerance on covariance symmetry at construction time.
SYMMETRY_RTOL = 1e-12


def _gamma_omega_rounding(cov: np.ndarray) -> float:
    return _PHYSICALITY_RTOL * float(np.abs(cov).sum(axis=1).max())


def _require_gamma_omega_psd(cov: np.ndarray, t: float) -> None:
    """Raise NotPhysical when t Gamma + i Omega has an eigenvalue below its
    rounding, which proves nu_min < 1 / t."""
    lam = float(np.linalg.eigvalsh(t * cov + 1j * omega(len(cov) // 2))[0])
    if lam < -_gamma_omega_rounding(cov):
        raise NotPhysical(f"Gamma + i Omega has eigenvalue {lam:.3e} < 0")


def _json_fields(data, convert: dict) -> dict:
    """``convert[key](data[key])`` per key; MalformedInput where ``data`` is not
    a JSON object or a value has a type its conversion refuses."""
    if not isinstance(data, dict):
        raise MalformedInput(f"expected a JSON object, got {type(data).__name__}")
    fields = {}
    for key, conv in convert.items():
        try:
            fields[key] = conv(data[key])
        except TypeError:
            raise MalformedInput(f"field {key!r} has the wrong type") from None
    return fields


def _float_array(value) -> np.ndarray:
    return np.array(value, dtype=float)


@dataclass(frozen=True)
class GaussianState:
    """Immutable Gaussian state with mean ``mean`` and covariance ``cov``.

    ``GaussianState(mean, cov)`` checks what it is given: an even mean
    length, a matching square covariance, finite entries and symmetry to
    SYMMETRY_RTOL; it copies both arrays and symmetrizes the covariance.
    That is the constructor for arrays from outside the library: JSON, the
    CLI, ``with_mean``, ``apply_symplectic`` and ``random_state`` (whose
    products are symmetric only to rounding). The library's own updates of
    checked states build their results with ``_computed``, which checks
    nothing.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.size == 0 or mean.size % 2:
            raise DimensionMismatch(f"mean length {mean.size} is not a positive even number")
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
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(_symmetrized(cov)))

    @classmethod
    def _computed(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """Wrap arrays computed from checked states, without checking them.

        The caller vouches for what ``__post_init__`` would establish: a
        finite float mean of length 2N and a finite 2N x 2N float covariance
        that is exactly symmetric, so that symmetrizing it would return it
        bit for bit. ``measurements._gaussian_update`` symmetrizes what it
        returns, and ``block_diag`` and principal submatrices of symmetric
        blocks are symmetric. Both arrays are frozen in place, not copied:
        nothing may write to them afterwards, through them or a view.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "mean", _freeze(mean))
        object.__setattr__(state, "cov", _freeze(cov))
        return state

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    def require_physical(self) -> "GaussianState":
        """Return the state if (1 + PHYSICALITY_TOL) Gamma + i Omega >= 0, else raise.

        A covariance whose spectrum float64 cannot resolve is refused as that
        spectrum is. NotPhysical proves nu_min < 1; acceptance proves
        nu_min >= 1 / (1 + PHYSICALITY_TOL) up to condition number 5e5, and
        nu_min >= 1 - 2 * _PHYSICALITY_RTOL * cond above it.
        """
        cov = self.cov
        w = np.linalg.eigvalsh(cov)
        _require_resolvable(w)
        # lambda_min(t Gamma + i Omega) grows by at least w[0] per unit of t,
        # so a pass at t = 1 + PHYSICALITY_TOL - slack proves one at
        # t = 1 + PHYSICALITY_TOL; t stays >= 1 so that pure states pass
        slack = 2.0 * _gamma_omega_rounding(cov) / w[0]
        _require_gamma_omega_psd(cov, max(1.0, 1.0 + PHYSICALITY_TOL - slack))
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
        state = cls(**_json_fields(data, {"mean": _float_array, "cov": _float_array}))
        if "modes" in data and _json_fields(data, {"modes": int})["modes"] != state.modes:
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
    return thermal(0.0, n)


def tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Covariance blocks: cosh(2r) I on the diagonal, sinh(2r) diag(1, -1)
    off-diagonal. Pure for every r.
    """
    return GaussianState(mean=np.zeros(4), cov=two_mode_squeezer(2.0 * r))


def thermal(nbar: float, n: int = 1) -> GaussianState:
    """Thermal state with mean occupation ``nbar`` per mode."""
    if nbar < 0.0:
        raise ParamOutOfRange(f"mean occupation must be >= 0, got {nbar}")
    if not np.isfinite(2.0 * float(nbar)):
        raise MalformedInput(f"mean occupation {nbar!r} is not finite, or too large for float64")
    _require_modes(n)
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
    return GaussianState._computed(np.concatenate([a.mean, b.mean]),
                                   block_diag(a.cov, b.cov))


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Marginal state on ``keep`` (distinct mode indices, ascending in the output).

    For Gaussian states the marginal is obtained by deleting the rows and
    columns of the discarded modes.
    """
    return _on_modes(state, sorted(_mode_indices(keep, state.modes)))


def _on_modes(state: GaussianState, modes) -> GaussianState:
    """The state of ``modes``, in that order, unchecked: a reordered principal
    submatrix of an exactly symmetric covariance is exactly symmetric."""
    q = quad_indices(modes)
    return GaussianState._computed(state.mean[q], state.cov[np.ix_(q, q)])


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
    _require_modes(n)
    nus = 1.0 + rng.uniform(0.0, nu_spread, size=n)
    s = random_symplectic(n, rng, scale=symplectic_scale)
    cov = (s * np.repeat(nus, 2)[None, :]) @ s.T
    mean = rng.normal(0.0, mean_scale, size=2 * n) if mean_scale > 0 else np.zeros(2 * n)
    return GaussianState(mean=mean, cov=cov)

"""Entanglement quantification for bipartite Gaussian states.

Partial transposition acts in phase space as a sign flip of the momentum
quadratures of one party. Log-negativity is computed in natural-log units
from the symplectic eigenvalues of the partially transposed covariance
matrix: E_N = sum_k max(0, -ln nu_tilde_k). (Some references use log2; the
conversion is the constant factor 1/ln 2.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .states import GaussianState
from .symplectic import _mode_indices, _momentum_flip, symplectic_eigenvalues

#: PPT threshold on the smallest PT symplectic eigenvalue.
PPT_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteSplit:
    """Partition of the modes of a state between Alice and Bob: each party
    holds at least one mode, and no mode is listed twice."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        alice, bob = _mode_indices(self.alice), _mode_indices(self.bob)
        _mode_indices(alice + bob)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    def validate_for(self, n_modes: int) -> None:
        """Refuse a split that does not hold every one of ``n_modes`` modes."""
        _mode_indices(self.alice + self.bob, n_modes, count=n_modes)


@dataclass(frozen=True)
class EntanglementReport:
    """Log-negativity figures for one state and split.

    ``ppt_conclusive`` is True only for 1-vs-1 mode splits, where PPT is
    necessary and sufficient for separability; beyond that PPT is only a
    necessary condition and ``ppt`` must be read as "not detected by PPT".
    """

    log_negativity: float
    min_pt_symplectic_eigenvalue: float
    ppt: bool
    ppt_conclusive: bool

    def to_dict(self) -> dict:
        return {
            "log_negativity": self.log_negativity,
            "nu_tilde_min": self.min_pt_symplectic_eigenvalue,
            "ppt": self.ppt,
            "ppt_conclusive": self.ppt_conclusive,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def partial_transpose_cov(cov: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """Covariance of the partial transpose: momentum signs flipped on Bob."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    split.validate_for(n)
    return cov * _momentum_flip(n, split.bob)[1]


def log_negativity(state: GaussianState, split: BipartiteSplit) -> EntanglementReport:
    """Entanglement report for a physical state across ``split``."""
    state.require_physical()
    nus = symplectic_eigenvalues(partial_transpose_cov(state.cov, split))
    nu_min = float(nus[-1])
    e_n = float(np.sum(np.maximum(0.0, -np.log(nus))))
    return EntanglementReport(
        log_negativity=e_n,
        min_pt_symplectic_eigenvalue=nu_min,
        ppt=nu_min >= 1.0 - PPT_TOL,
        ppt_conclusive=len(split.alice) == 1 and len(split.bob) == 1,
    )

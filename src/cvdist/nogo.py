"""Optimization harness certifying the two-copy distillation no-go.

The protocol's free parameters are the two local two-mode symplectics,
parametrized through their Euler form: 4 passive angles, 2 squeezing
parameters (clamped to |r| <= 3) and 4 more passive angles per party, 20
reals in total. The parametrization is intrinsically feasible: every
parameter vector realizes a valid pair of symplectic matrices, so the
derivative-free search never leaves the manifold.

The objective is the log-negativity of the protocol output. It has
max(0, .) kinks where partially transposed symplectic eigenvalues cross 1,
which makes finite-difference gradients unreliable; multi-start Nelder-Mead
simplex search (default 50 starts, one of them the identity point) is used
instead. A certificate records the best value found and the gap to the input
entanglement; the no-go claim is that the gap never goes below -1e-6.

Certificates are scoped to protocols built from pure Choi states (the build_fig2
class); mixing over displacements cannot help since entanglement ignores
them, which is why the optimum lies in this class.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .entanglement import BipartiteSplit, log_negativity
from .errors import DimensionMismatch
from .protocols import build_fig2
from .states import tmsv
from .symplectic import orthogonal_symplectic_from_unitary

#: Squeezing clamp per squeezer; beyond this, covariance entries reach ~e^6
#: and the heterodyne conditioning starts to lose digits.
SQUEEZE_CLAMP = 3.0

#: Number of real parameters per party / in total.
PARAMS_PER_PARTY = 10
N_PARAMS = 2 * PARAMS_PER_PARTY

#: Gap tolerance of the certified claim: optimizer noise may make the best
#: value exceed the input by this much; genuine distillation would show up
#: orders of magnitude above it.
GAP_TOL = 1e-6

_SPLIT = BipartiteSplit((0,), (1,))


def _passive(angles: np.ndarray) -> np.ndarray:
    """Two-mode passive symplectic from 4 angles (a U(2) parametrization)."""
    theta, phi, alpha, beta = angles
    c, s = np.cos(theta), np.sin(theta)
    u = np.exp(1j * phi) * np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ]
    )
    return orthogonal_symplectic_from_unitary(u)


def _party_symplectic(p: np.ndarray) -> np.ndarray:
    """Realize one party's 10 parameters as a 4x4 symplectic matrix."""
    rs = np.clip(p[4:6], -SQUEEZE_CLAMP, SQUEEZE_CLAMP)
    sq = np.diag([np.exp(rs[0]), np.exp(-rs[0]), np.exp(rs[1]), np.exp(-rs[1])])
    return _passive(p[6:10]) @ sq @ _passive(p[0:4])


@dataclass(frozen=True)
class SymplecticParams:
    """Parameter vectors (10 per party) for the two local symplectics."""

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        alice = np.asarray(self.alice, dtype=float).reshape(-1)
        bob = np.asarray(self.bob, dtype=float).reshape(-1)
        if alice.size != PARAMS_PER_PARTY or bob.size != PARAMS_PER_PARTY:
            raise DimensionMismatch(
                f"each party takes {PARAMS_PER_PARTY} parameters"
            )
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "SymplecticParams":
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != N_PARAMS:
            raise DimensionMismatch(f"parameter vector must have length {N_PARAMS}")
        return cls(alice=x[:PARAMS_PER_PARTY], bob=x[PARAMS_PER_PARTY:])

    def realize(self):
        return _party_symplectic(self.alice), _party_symplectic(self.bob)


def objective(params: SymplecticParams, copies) -> float:
    """Output log-negativity of the two-copy protocol at these parameters."""
    s_a, s_b = params.realize()
    return build_fig2(s_a, s_b, copies[0], copies[1]).report.log_negativity


@dataclass(frozen=True)
class NogoCertificate:
    """Result of one multi-start maximization over protocol parameters.

    ``gap`` = input_e_n - best_e_n; the certified no-go claim is
    gap >= -GAP_TOL. ``best_e_n`` is the maximum over every objective
    evaluation performed, so it always dominates the identity-point value.
    """

    input_description: str
    input_e_n: float
    best_e_n: float
    best_params: np.ndarray
    n_starts: int
    n_evals: int
    gap: float
    seed: int
    squeeze_clamp: float = SQUEEZE_CLAMP
    scope: str = "pure-Choi two-copy protocols"

    def to_dict(self) -> dict:
        return {
            "input_description": self.input_description,
            "input_EN": self.input_e_n,
            "best_EN": self.best_e_n,
            "best_params": self.best_params.tolist(),
            "n_starts": self.n_starts,
            "n_evals": self.n_evals,
            "gap": self.gap,
            "seed": self.seed,
            "squeeze_clamp": self.squeeze_clamp,
            "scope": self.scope,
        }


class _Tracker:
    """Counts objective evaluations and keeps the best point seen."""

    def __init__(self, copies):
        self.copies = copies
        self.n_evals = 0
        self.best_value = -np.inf
        self.best_x = None

    def negative_objective(self, x: np.ndarray) -> float:
        value = objective(SymplecticParams.from_vector(x), self.copies)
        self.n_evals += 1
        if value > self.best_value:
            self.best_value = value
            self.best_x = np.array(x)
        return -value


def _random_start(rng: np.random.Generator) -> np.ndarray:
    x = np.empty(N_PARAMS)
    for base in (0, PARAMS_PER_PARTY):
        x[base:base + 4] = rng.uniform(0.0, 2.0 * np.pi, size=4)
        x[base + 4:base + 6] = rng.uniform(-SQUEEZE_CLAMP, SQUEEZE_CLAMP, size=2)
        x[base + 6:base + 10] = rng.uniform(0.0, 2.0 * np.pi, size=4)
    return x


def optimize(
    copies,
    n_starts: int,
    seed: int,
    budget: int,
    input_description: str | None = None,
) -> NogoCertificate:
    """Multi-start Nelder-Mead maximization of the protocol output E_N.

    Start 0 is the identity point (all parameters zero); the remaining starts
    are uniform draws, each from its own RNG stream derived from
    (seed, start index), so results are reproducible and starts could run in
    any order. Individual start failures are swallowed; the certificate keeps
    the best point over all evaluations.
    """
    copies = tuple(copies)
    input_e_n = max(
        log_negativity(copies[0], _SPLIT).log_negativity,
        log_negativity(copies[1], _SPLIT).log_negativity,
    )
    tracker = _Tracker(copies)
    tracker.negative_objective(np.zeros(N_PARAMS))  # identity point, by contract

    for start in range(n_starts):
        if start == 0:
            x0 = np.zeros(N_PARAMS)
        else:
            x0 = _random_start(np.random.default_rng([seed, start]))
        try:
            minimize(
                tracker.negative_objective,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": budget,
                    "xatol": 1e-7,
                    "fatol": 1e-10,
                    "adaptive": True,
                },
            )
        except Exception:  # noqa: BLE001 - a diverging start must not kill the sweep
            continue

    best = float(tracker.best_value)
    if input_description is None:
        input_description = f"two copies, E_N(in) = {input_e_n:.6g}"
    return NogoCertificate(
        input_description=input_description,
        input_e_n=float(input_e_n),
        best_e_n=best,
        best_params=tracker.best_x,
        n_starts=n_starts,
        n_evals=tracker.n_evals,
        gap=float(input_e_n - best),
        seed=int(seed),
    )


def sweep(
    r_values,
    n_starts: int,
    seed: int,
    budget: int = 2000,
) -> list:
    """One certificate per r, with copies tmsv(r) x tmsv(r)."""
    r_values = [float(r) for r in r_values]
    if not r_values:
        raise DimensionMismatch("sweep needs at least one r value")
    certs = []
    for r in r_values:
        copy = tmsv(r)
        certs.append(
            optimize(
                (copy, copy),
                n_starts=n_starts,
                seed=seed,
                budget=budget,
                input_description=f"tmsv(r={r!r}) x 2",
            )
        )
    return certs


CSV_COLUMNS = ("r", "input_EN", "best_EN", "gap", "n_starts", "n_evals", "seed")


def certificates_csv(certs, r_values) -> str:
    """Deterministic CSV table for a sweep (columns fixed by CSV_COLUMNS)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r, cert in zip(r_values, certs):
        writer.writerow([
            repr(float(r)),
            repr(cert.input_e_n),
            repr(cert.best_e_n),
            repr(cert.gap),
            cert.n_starts,
            cert.n_evals,
            cert.seed,
        ])
    return buf.getvalue()

"""Optimization harness certifying the two-copy distillation no-go.

The protocol's free parameters are the two local two-mode symplectics,
parametrized through their Euler form: 4 passive angles, 2 squeezing
parameters (clamped to |r| <= 3) and 4 more passive angles per party, 20
reals in total. The parametrization is intrinsically feasible: every
parameter vector realizes a valid pair of symplectic matrices, so the
derivative-free search never leaves the manifold.

The objective is the log-negativity of the protocol output, computed by a
fused batched kernel: ``objective`` maps parameter vectors (K, 20) to output
log-negativities (K,) with array arithmetic alone, with no state objects and
no re-validation. It realizes both parties' symplectics, forms S G0 S^T from
the 8x8 joint covariance G0 of the two copies (``joint_covariance``, built
once per certificate), takes the heterodyne Schur complement
G = A - C (B + I)^{-1} C^T on modes A2 and B2, and applies the closed form
of the smallest partially transposed symplectic eigenvalue of a two-mode
state, nu~_-^2 = (D~ - sqrt(D~^2 - 4 det G)) / 2 with
D~ = det A + det B - 2 det C (Serafini, Illuminati and De Siena,
quant-ph/0307073), giving E_N = max(0, -ln nu~_-). ``protocols.build_fig2``
runs the same protocol through validated states and stays the reference
the kernel is tested against.

The objective has max(0, .) kinks where partially transposed symplectic
eigenvalues cross 1, which makes finite-difference gradients unreliable;
multi-start Nelder-Mead simplex search (default 50 starts, one of them the
identity point) is used instead. ``minimize`` advances every start in
lockstep and evaluates each phase's points (reflect, then expand or
contract, then shrink) across all starts in one kernel call, while each
start takes exactly the steps of scipy's adaptive Nelder-Mead (Gao and Han,
Comput. Optim. Appl. 51, 2012) with the same initial simplex, stopping
tolerances and evaluation budget. A certificate records the best value found
and the gap to the input entanglement; the no-go claim is that the gap never
goes below -1e-6.

Certificates are scoped to protocols built from pure Choi states (the build_fig2
class); mixing over displacements cannot help since entanglement ignores
them, which is why the optimum lies in this class.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .entanglement import BipartiteSplit, log_negativity
from .errors import DimensionMismatch
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

#: Nelder-Mead stopping tolerances (scipy's xatol and fatol): a start stops
#: once its simplex spans at most XATOL in every coordinate and FATOL in
#: value, far below any E_N difference the certificate could report.
XATOL = 1e-7
FATOL = 1e-10

_SPLIT = BipartiteSplit((0,), (1,))


#: Signs of alpha, beta, beta, alpha in the phases of u's entries (see _passive).
_PHASE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _passive(angles: np.ndarray) -> np.ndarray:
    """Two-mode passive symplectics from (..., 4) angles (a U(2) parametrization)."""
    c, s = np.cos(angles[..., 0]), np.sin(angles[..., 0])
    # u = e^{i phi} [[e^{i alpha} c, e^{i beta} s], [-e^{-i beta} s, e^{-i alpha} c]]
    phases = angles[..., 1:2] + _PHASE_SIGNS * angles[..., [2, 3, 3, 2]]
    u = np.exp(1j * phases) * np.stack([c, s, -s, c], axis=-1)
    return orthogonal_symplectic_from_unitary(u.reshape(angles.shape[:-1] + (2, 2)))


def _party_symplectic(p: np.ndarray) -> np.ndarray:
    """Realize parties' 10 parameters, (..., 10), as 4x4 symplectics (..., 4, 4).

    S = passive(p[6:10]) diag(e^r1, e^-r1, e^r2, e^-r2) passive(p[0:4]), with
    r = p[4:6] clamped to |r| <= SQUEEZE_CLAMP.
    """
    rs = np.clip(p[..., 4:6], -SQUEEZE_CLAMP, SQUEEZE_CLAMP)
    sq = np.exp(np.stack([rs[..., 0], -rs[..., 0], rs[..., 1], -rs[..., 1]], axis=-1))
    inner, outer = np.moveaxis(_passive(p[..., [[0, 1, 2, 3], [6, 7, 8, 9]]]), -3, 0)
    return (outer * sq[..., None, :]) @ inner


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
        s_a, s_b = _party_symplectic(np.stack([self.alice, self.bob]))
        return s_a, s_b


# ---------------------------------------------------------------------------
# fused two-copy kernel
# ---------------------------------------------------------------------------


def joint_covariance(copies) -> np.ndarray:
    """8x8 covariance of the two two-mode copies, modes (A1, B1, A2, B2)."""
    g0 = np.zeros((8, 8))
    g0[:4, :4] = copies[0].cov
    g0[4:, 4:] = copies[1].cov
    return g0


def objective(x: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """Output log-negativities of the two-copy protocol, one per row of ``x``.

    ``x`` holds parameter vectors (K, 20) and ``g0`` is ``joint_covariance``
    of the copies. Alice's symplectic acts on rows 0, 1, 4, 5 of the joint
    covariance (modes A1, A2), Bob's on rows 2, 3, 6, 7 (B1, B2); A2 and B2
    are heterodyned, leaving the output on (A1, B1). Rows are independent:
    a batch gives the same bits as its rows one at a time.
    """
    x = np.asarray(x, dtype=float).reshape(-1, N_PARAMS)
    k = x.shape[0]
    parties = _party_symplectic(x.reshape(k, 2, PARAMS_PER_PARTY))
    # joint index 4 m + 2 party + quadrature; each party acts on its own
    s = np.zeros((k, 2, 2, 2, 2, 2, 2))
    s[:, :, 0, :, :, 0, :] = parties[:, 0].reshape(k, 2, 2, 2, 2)
    s[:, :, 1, :, :, 1, :] = parties[:, 1].reshape(k, 2, 2, 2, 2)
    s = s.reshape(k, 8, 8)
    m = s @ g0 @ s.transpose(0, 2, 1)
    c = m[:, :4, 4:]
    g = m[:, :4, :4] - c @ np.linalg.solve(m[:, 4:, 4:] + np.eye(4),
                                           c.transpose(0, 2, 1))
    return _pt_log_negativity(g)


#: adj(M) = _ADJ_SIGNS * M[::-1, ::-1].T for a 2x2 matrix M.
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _pt_log_negativity(g):
    """E_N of two-mode covariances G = [[A, C], [C^T, B]], stacked (K, 4, 4).

    nu~_-^2 = (D~ - sqrt(D~^2 - 4 det G)) / 2 with D~ = det A + det B
    - 2 det C. With the local invariant T = tr(adj(A) C adj(B) C^T),
    D~^2 - 4 det G = (det A - det B)^2 + 4 (T - det C (det A + det B)).
    That form keeps the square root accurate where nu~_- and nu~_+ nearly
    coincide (near-product outputs); the difference of two numbers near D~^2
    would lose half its digits to the root there, up to 1e-6 in E_N.
    nu~_-^2 is then taken as 2 det G / (D~ + sqrt(.)), which does not cancel
    either.
    """
    a, c, b = g[:, :2, :2], g[:, :2, 2:], g[:, 2:, 2:]
    det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    det_b = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    det_c = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    adj_a = _ADJ_SIGNS * a[:, ::-1, ::-1].transpose(0, 2, 1)
    adj_b = _ADJ_SIGNS * b[:, ::-1, ::-1].transpose(0, 2, 1)
    p = (adj_a @ c @ adj_b) * c
    t = p[:, 0, 0] + p[:, 0, 1] + p[:, 1, 0] + p[:, 1, 1]
    det_g = np.linalg.det(g)
    delta = det_a + det_b - 2.0 * det_c
    disc = (det_a - det_b) ** 2 + 4.0 * (t - det_c * (det_a + det_b))
    nu2 = 2.0 * det_g / (delta + np.sqrt(np.maximum(disc, 0.0)))
    return np.maximum(0.0, -0.5 * np.log(nu2))


# ---------------------------------------------------------------------------
# lockstep multi-start Nelder-Mead
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockstepResult:
    """Per-start outcome of ``minimize`` (K starts, N parameters).

    ``best_f`` is the lowest finite value over every evaluation of the
    start, the earliest on ties, and ``best_x`` its point; ``best_f`` is
    +inf (and ``best_x`` the start point) if no value was finite.
    """

    best_x: np.ndarray  # (K, N)
    best_f: np.ndarray  # (K,)
    nfev: np.ndarray  # (K,) evaluations per start
    converged: np.ndarray  # (K,) stopped by xatol and fatol within budget


def _sort(sim: np.ndarray, fsim: np.ndarray):
    """Each start's vertices in ascending order of value, as scipy sorts them."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(ind))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def minimize(fun, x0: np.ndarray, maxfev: int) -> LockstepResult:
    """Adaptive Nelder-Mead from every row of ``x0`` (K, N), in lockstep.

    ``fun`` maps points (M, N) to values (M,), row by row. Start k takes
    exactly the steps of ``scipy.optimize.minimize(f, x0[k],
    method="Nelder-Mead", options=dict(maxfev=maxfev, xatol=XATOL,
    fatol=FATOL, adaptive=True))``: the same initial simplex, the same
    reflect / expand / contract / shrink decisions, the same stopping test,
    and a budget that ends the start where scipy's ends it, mid-step or
    mid-shrink included. Every phase evaluates its points for all starts in
    one call of ``fun``, so a row-independent ``fun`` sees each start's
    points exactly as scipy would send them.
    """
    x0 = np.array(x0, dtype=float, ndmin=2)
    k, n = x0.shape
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    nfev = np.zeros(k, dtype=int)
    best_f = np.full(k, np.inf)
    best_x = x0.copy()

    def evaluate(starts, pts, counts):
        """Values of the first ``counts`` points (+inf after) of ``pts`` (k', J, N)."""
        real = np.arange(pts.shape[1]) < counts[:, None]
        values = np.full(real.shape, np.inf)
        if real.any():
            values[real] = fun(pts[real])
        nfev[starts] += counts
        finite = np.where(real & np.isfinite(values), values, np.inf)
        first = np.argmin(finite, axis=1)
        low = finite[np.arange(len(starts)), first]
        better = low < best_f[starts]
        best_f[starts[better]] = low[better]
        best_x[starts[better]] = pts[better, first[better]]
        return values

    # scipy's initial simplex: each coordinate in turn scaled by 1.05, or set
    # to 0.00025 where it is zero
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = evaluate(np.arange(k), sim, np.full(k, min(n + 1, max(maxfev, 0))))
    sim, fsim = _sort(sim, fsim)
    sim, fsim = _sort(sim, fsim)  # scipy sorts twice before iterating
    converged = np.zeros(k, dtype=bool)

    while True:
        idx = np.flatnonzero(~converged & (nfev < maxfev))
        s, fs = sim[idx], fsim[idx]
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= XATOL)
                & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= FATOL))
        converged[idx[done]] = True
        idx, s, fs = idx[~done], s[~done], fs[~done]
        if not idx.size:
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]

        # reflect
        xr = (1 + rho) * xbar - rho * worst
        fxr = evaluate(idx, xr[:, None], np.ones(idx.size, dtype=int))[:, 0]
        expand = fxr < fs[:, 0]
        keep_r = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~keep_r & (fxr < fs[:, -1])
        # expand, or contract outside / inside: p = a xbar - b worst; a start
        # whose budget ran out ends here, as scipy's does
        second = ~keep_r & (nfev[idx] < maxfev)
        a = np.where(expand, 1 + rho * chi, np.where(outside, 1 + psi * rho, 1 - psi))
        b = np.where(expand, rho * chi, np.where(outside, psi * rho, -psi))
        xp = a[:, None] * xbar - b[:, None] * worst
        fxp = evaluate(idx, xp[:, None], second.astype(int))[:, 0]
        use_p = second & np.where(expand, fxp < fxr,
                                  np.where(outside, fxp <= fxr, fxp < fs[:, -1]))
        use_r = keep_r | (second & expand & ~use_p)
        s[use_r, -1], fs[use_r, -1] = xr[use_r], fxr[use_r]
        s[use_p, -1], fs[use_p, -1] = xp[use_p], fxp[use_p]

        # a failed contraction shrinks towards the best vertex, evaluating
        # vertices in order while the budget lasts
        shrink = np.flatnonzero(second & ~expand & ~use_p)
        if shrink.size:
            sv = s[shrink]
            sv[:, 1:] = sv[:, :1] + sigma * (sv[:, 1:] - sv[:, :1])
            fs[shrink, 1:] = evaluate(idx[shrink], sv[:, 1:],
                                      np.minimum(maxfev - nfev[idx[shrink]], n))
            s[shrink] = sv

        sim[idx], fsim[idx] = _sort(s, fs)

    return LockstepResult(best_x=best_x, best_f=best_f, nfev=nfev, converged=converged)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NogoCertificate:
    """Result of one multi-start maximization over protocol parameters.

    ``gap`` = input_e_n - best_e_n; the certified no-go claim is
    gap >= -GAP_TOL. ``best_e_n`` is the maximum over every finite objective
    value computed, so it always dominates the identity-point value;
    ``n_nonfinite_evals`` counts the values that were not finite. The
    ``start_*`` tuples hold, per start, its evaluation count, its best E_N
    (None if no value was finite) and whether it stopped on the Nelder-Mead
    tolerances before its budget ran out.
    """

    input_description: str
    input_e_n: float
    best_e_n: float
    best_params: np.ndarray
    n_starts: int
    n_evals: int
    gap: float
    seed: int
    start_n_evals: tuple
    start_best_e_n: tuple
    start_converged: tuple
    n_nonfinite_evals: int
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
            "n_nonfinite_evals": self.n_nonfinite_evals,
            "starts": [
                {"n_evals": n, "best_EN": e, "converged": c}
                for n, e, c in zip(self.start_n_evals, self.start_best_e_n,
                                   self.start_converged)
            ],
            "gap": self.gap,
            "seed": self.seed,
            "squeeze_clamp": self.squeeze_clamp,
            "scope": self.scope,
        }


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

    The identity point (all parameters zero) is evaluated first. Start 0
    begins there too; the remaining starts are uniform draws, each from its
    own RNG stream derived from (seed, start index), so results are
    reproducible. All starts run in lockstep through ``minimize`` with
    ``budget`` evaluations each. Every value is recorded: non-finite ones
    are counted and never become the best point.
    """
    copies = tuple(copies)
    # validation at the boundary: physical two-mode copies
    input_e_n = max(
        log_negativity(copies[0], _SPLIT).log_negativity,
        log_negativity(copies[1], _SPLIT).log_negativity,
    )
    g0 = joint_covariance(copies)
    n_nonfinite = 0

    def negative_objective(x):
        nonlocal n_nonfinite
        values = objective(x, g0)
        n_nonfinite += int(np.count_nonzero(~np.isfinite(values)))
        return -values

    identity = np.zeros(N_PARAMS)
    x0 = np.array([identity if start == 0
                   else _random_start(np.random.default_rng([seed, start]))
                   for start in range(n_starts)]).reshape(-1, N_PARAMS)
    # a non-finite value is counted, not warned about
    with np.errstate(invalid="ignore", divide="ignore"):
        identity_f = negative_objective(identity[None])[0]  # by contract
        res = minimize(negative_objective, x0, budget)

    # best over every evaluation: the identity point, then start by start
    lows = np.concatenate([[identity_f if np.isfinite(identity_f) else np.inf],
                           res.best_f])
    i = int(np.argmin(lows))
    best_x = identity if i == 0 else res.best_x[i - 1]
    best = float(-lows[i])
    if input_description is None:
        input_description = f"two copies, E_N(in) = {input_e_n:.6g}"
    return NogoCertificate(
        input_description=input_description,
        input_e_n=float(input_e_n),
        best_e_n=best,
        best_params=best_x.copy(),
        n_starts=n_starts,
        n_evals=1 + int(res.nfev.sum()),
        gap=float(input_e_n - best),
        seed=int(seed),
        start_n_evals=tuple(int(n) for n in res.nfev),
        start_best_e_n=tuple(float(-f) if np.isfinite(f) else None
                             for f in res.best_f),
        start_converged=tuple(bool(c) for c in res.converged),
        n_nonfinite_evals=n_nonfinite,
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

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
no re-validation. It realizes both parties' symplectics in real arithmetic
(each passive entry is a cos or sin of a summed phase times a cos or sin of
the mixing angle, laid out by fixed gathers), writes them into the
slots of the 8x8 joint symplectic S that the Fig. 2 layout fixes, forms
S G0 S^T from the joint covariance G0 of the two copies (their ``tensor``,
built once per certificate), takes the heterodyne Schur complement
G = A - C (B + I)^{-1} C^T on modes A2 and B2, and applies the closed form
of the smallest partially transposed symplectic eigenvalue of a two-mode
state, nu~_-^2 = (D~ - sqrt(D~^2 - 4 det G)) / 2 with
D~ = det A + det B - 2 det C (Serafini, Illuminati and De Siena,
quant-ph/0307073), giving E_N = max(0, -ln nu~_-). ``protocols.build_fig2``
runs the same protocol through validated states and stays the reference
the kernel is tested against; the layout, its party rows and slots, is
stated once, in ``protocols``, and both paths pick modes by index.
Array-wide steps (the three 2x2 determinants, the two adjugates, the
product S G0) are taken in one stacked operation each, so a kernel call
costs a fixed number of numpy calls per block of up to 128 rows (64 KiB
per (rows, 8, 8) temporary, see ``_BLOCK_ROWS``).

The objective has max(0, .) kinks where partially transposed symplectic
eigenvalues cross 1, which makes finite-difference gradients unreliable;
multi-start Nelder-Mead simplex search (default 50 starts, one of them the
identity point) is used instead. ``minimize`` advances every start in
lockstep, while each start takes exactly the steps of scipy's adaptive
Nelder-Mead (Gao and Han, Comput. Optim. Appl. 51, 2012) with the same
initial simplex, stopping tolerances and evaluation budget. Each start
carries its own step: its reflection is pending, or the expansion or
contraction that the reflection chose. A round evaluates one pending point
per live start, whatever its step, in one kernel call, and the shrinks of
failed contractions in one more: the kernel runs once for each evaluation
that every live start makes, not once for each phase of an iteration. The
search carries only the live starts, and only those that ended an
iteration in a round are sorted, each by the argsort of its values that
scipy takes, and tested for stopping: the stopping test looks at the value
spread first and at the simplex spread only where that passes. A
certificate records the best value found and the gap to the input
entanglement; the no-go claim is that the gap never goes below -1e-6.

A certificate's ``scope`` names both parts of the evidence. What is searched
is the Fig. 2 layout (pure-Choi two-copy protocols, the build_fig2 class) at
the given input. What is checked step by step, by
``tests/test_proof_steps.py``, is each local Gaussian operation, on one to
three copies: each step keeps nu~_- >= min(its input's, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .entanglement import log_negativity
from .errors import DimensionMismatch, ParamOutOfRange
from .protocols import _FIG2_SLOTS, _FIG2_SPLIT, _require_two_copies
from .states import tensor, tmsv

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

#: The phases of u's entries are phi + sign * (alpha, beta, beta, alpha): the
#: signs, and the indices of alpha, beta, beta, alpha among the angles.
_PHASE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_PHASE_ANGLES = np.array([2, 3, 3, 2])


#: With trig = (cos, sin, -sin) of (theta, phi_00, phi_01, phi_10, phi_11),
#: entry (r, c) of a passive symplectic is a phase factor times a modulus,
#: trig[_PASSIVE_FACTORS[0, 4 r + c]] * trig[_PASSIVE_FACTORS[1, 4 r + c]],
#: both taken in one gather. u_ij = m_ij e^{i phi_ij} with
#: m = [[c, s], [-s, c]] and (c, s) the cos and sin of theta; with
#: a_k = (x_k + i p_k)/sqrt(2) and a' = u a, the 2x2 block at modes (i, j) is
#: [[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]]. The sign of -Im sits on the
#: phase factor (-sin, entries 11-14), the sign of m_10 on the modulus (-s,
#: entry 10).
_PASSIVE_FACTORS = np.array([[[1, 11, 2, 12],  # phase factors
                              [6, 1, 7, 2],
                              [3, 13, 4, 14],
                              [8, 3, 9, 4]],
                             [[0, 0, 5, 5],  # moduli
                              [0, 0, 5, 5],
                              [10, 10, 0, 0],
                              [10, 10, 0, 0]]]).reshape(2, 16)


def _passive(angles: np.ndarray) -> np.ndarray:
    """Two-mode passive symplectics from (..., 4) angles (a U(2) parametrization).

    u = e^{i phi} [[e^{i alpha} c, e^{i beta} s], [-e^{-i beta} s, e^{-i alpha} c]]
    with (c, s) the cos and sin of theta, for angles (theta, phi, alpha,
    beta), in real arithmetic: each entry of the symplectic is a cos or sin
    of a phase times c or s, signed (see _PASSIVE_FACTORS).
    """
    phases = angles[..., 1:2] + _PHASE_SIGNS * angles[..., _PHASE_ANGLES]
    args = np.concatenate([angles[..., :1], phases], axis=-1)
    sin = np.sin(args)
    trig = np.concatenate([np.cos(args), sin, -sin], axis=-1)
    factors = trig[..., _PASSIVE_FACTORS]
    entries = factors[..., 0, :] * factors[..., 1, :]
    return entries.reshape(angles.shape[:-1] + (4, 4))


#: Per party: the squeezers r1, r1, r2, r2 and the angles of the inner
#: (0-3) and outer (6-9) passive, and the signs of the squeezing exponents.
_PARTY_GATHER = np.array([4, 4, 5, 5, 0, 1, 2, 3, 6, 7, 8, 9])
_SQUEEZE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _party_symplectic(p: np.ndarray) -> np.ndarray:
    """Realize parties' 10 parameters, (..., 10), as 4x4 symplectics (..., 4, 4).

    S = passive(p[6:10]) diag(e^r1, e^-r1, e^r2, e^-r2) passive(p[0:4]), with
    r = p[4:6] clamped to |r| <= SQUEEZE_CLAMP.
    """
    q = p[..., _PARTY_GATHER]
    sq = np.exp(_SQUEEZE_SIGNS * np.minimum(np.maximum(q[..., :4], -SQUEEZE_CLAMP),
                                            SQUEEZE_CLAMP))
    passive = _passive(q[..., 4:].reshape(p.shape[:-1] + (2, 4)))
    return (passive[..., 1, :, :] * sq[..., None, :]) @ passive[..., 0, :, :]


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
        return cls(alice=x[:PARAMS_PER_PARTY], bob=x[PARAMS_PER_PARTY:])

    def realize(self):
        s_a, s_b = _party_symplectic(np.stack([self.alice, self.bob]))
        return s_a, s_b


# ---------------------------------------------------------------------------
# fused two-copy kernel
# ---------------------------------------------------------------------------


_EYE4 = np.eye(4)

#: Rows the kernel evaluates at a time. A hundred rows already spread the
#: fixed cost of a call thin, so a longer batch (the initial simplices,
#: starts x 21 rows) is evaluated in blocks of this many rows, with the same
#: bits. At 128 rows each (rows, 8, 8) float64 temporary is 64 KiB, half of
#: glibc's default mmap threshold (128 KiB), so the allocator serves it from
#: its heap instead of mapping fresh pages, and faulting them in, per block.
_BLOCK_ROWS = 128


def objective(x: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """Output log-negativities of the two-copy protocol, one per row of ``x``.

    ``x`` holds parameter vectors (K, 20) and ``g0`` is the 8x8 covariance
    of the two copies, ``tensor(copy1, copy2).cov``, modes (A1, B1, A2, B2),
    in the layout of ``build_fig2`` (``protocols._FIG2_SLOTS``): Alice acts
    on A1 and A2, Bob on B1 and B2, and A2 and B2 are heterodyned, leaving
    the output on (A1, B1). Rows are independent: a batch gives the same
    bits as its rows one at a time.
    """
    x = np.asarray(x, dtype=float).reshape(-1, N_PARAMS)
    if len(x) <= _BLOCK_ROWS:
        return _kernel(x, g0)
    return np.concatenate([_kernel(x[i:i + _BLOCK_ROWS], g0)
                           for i in range(0, len(x), _BLOCK_ROWS)])


def _kernel(x, g0):
    """``objective`` on one block of rows (K, 20)."""
    k = x.shape[0]
    s = np.zeros((k, 64))
    s[:, _FIG2_SLOTS] = _party_symplectic(x.reshape(k, 2, PARAMS_PER_PARTY)).reshape(k, 32)
    s = s.reshape(k, 8, 8)
    # S G0 for every row in one (8K x 8) @ (8 x 8) product, not K of them
    m = (s.reshape(8 * k, 8) @ g0).reshape(k, 8, 8) @ s.transpose(0, 2, 1)
    c = m[:, :4, 4:]
    g = m[:, :4, :4] - c @ np.linalg.solve(m[:, 4:, 4:] + _EYE4, c.transpose(0, 2, 1))
    return _pt_log_negativity(g)


#: Flat entries of a 4x4 G = [[A, C], [C^T, B]] and signs that give A, C, B,
#: adj A and adj B, with adj([[m00, m01], [m10, m11]]) = [[m11, -m01], [-m10, m00]].
_PT_ENTRIES = np.array([0, 1, 4, 5, 2, 3, 6, 7, 10, 11, 14, 15, 5, 1, 4, 0, 15, 11, 14, 10])
_PT_SIGNS = np.array([1.0] * 12 + [1.0, -1.0, -1.0, 1.0] * 2)


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
    e = (g.reshape(-1, 16)[:, _PT_ENTRIES] * _PT_SIGNS).reshape(-1, 5, 2, 2)
    blocks = e[:, :3]
    det_a, det_c, det_b = (blocks[..., 0, 0] * blocks[..., 1, 1]
                           - blocks[..., 0, 1] * blocks[..., 1, 0]).T
    c = blocks[:, 1]
    p = (e[:, 3] @ c @ e[:, 4]) * c
    t = p[:, 0, 0] + p[:, 0, 1] + p[:, 1, 0] + p[:, 1, 1]
    det_g = np.linalg.det(g)
    sum_ab = det_a + det_b
    delta = sum_ab - 2.0 * det_c
    disc = (det_a - det_b) ** 2 + 4.0 * (t - det_c * sum_ab)
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


def _sort(sim: np.ndarray, fsim: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sort the vertices of starts ``cols`` in place, ascending in value, as scipy does.

    ``sim`` is vertex-major, (N + 1, K, N), and ``fsim`` (N + 1, K); the
    sorted vertices of ``cols``, (N + 1, len(cols), N), are returned too.
    Each start's order is ``np.argsort`` of its values, as scipy's is; where
    the values are distinct that is their one sorted order.
    """
    order = np.argsort(fsim[:, cols], axis=0)
    flat = order * fsim.shape[1] + cols  # vertex, start -> row of the flattened arrays
    fsim[:, cols] = fsim.reshape(-1).take(flat)
    s = sim.reshape(-1, sim.shape[2]).take(flat, axis=0)
    sim[:, cols] = s
    return s


def minimize(fun, x0: np.ndarray, maxfev: int) -> LockstepResult:
    """Adaptive Nelder-Mead from every row of ``x0`` (K, N), in lockstep.

    ``fun`` maps points (M, N) to values (M,), row by row. Start k takes
    exactly the steps of ``scipy.optimize.minimize(f, x0[k],
    method="Nelder-Mead", options=dict(maxfev=maxfev, xatol=XATOL,
    fatol=FATOL, adaptive=True))``: the same initial simplex, the same
    reflect / expand / contract / shrink decisions, the same stopping test,
    and a budget that ends the start where scipy's ends it, mid-step or
    mid-shrink included.

    An iteration of scipy's is split into the points it waits on. Each
    start carries its own step: ``0`` while its reflection is pending, or
    the expansion (1), outside contraction (2) or inside contraction (3)
    that its reflection chose. Each round evaluates exactly one pending
    point per live start, whatever its step, in one call of ``fun``; a
    failed contraction's shrink is evaluated within the round, in a call of
    its own. Only the starts that ended an iteration in a round are sorted
    and tested for stopping, and begin their next iteration. The others
    keep their simplex as it is: it has not moved since their last test,
    and scipy sorts once per iteration (a second argsort may reorder tied
    values). A row-independent ``fun`` thus sees each start's points exactly
    as scipy would send them. The simplices are
    stored vertex by vertex, (N + 1, K, N), so that each vertex of all
    starts is one contiguous slab, and only the live starts are carried
    from one round to the next: a start that stops leaves the working
    arrays, and its result is written out then.
    """
    x0 = np.array(x0, dtype=float, ndmin=2)
    k, n = x0.shape
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    # a step's point is a xbar - b worst: reflect, expand, contract outside, inside
    coef_a = np.array([1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi])
    coef_b = np.array([rho, rho * chi, psi * rho, -psi])
    res = LockstepResult(best_x=np.empty_like(x0), best_f=np.empty(k),
                         nfev=np.empty(k, dtype=int), converged=np.zeros(k, dtype=bool))
    # per live start: its index, evaluation count and best point so far, and
    # its iteration's centroid, step and reflection value
    live = np.arange(k)
    nfev = np.zeros(k, dtype=int)
    best_f = np.full(k, np.inf)
    best_x = x0.copy()
    step = np.zeros(k, dtype=int)
    fxr = np.empty(k)

    def evaluate_many(cols, pts, counts):
        """Values of the first ``counts`` points (+inf after) of ``pts`` (J, k', N)."""
        real = np.arange(len(pts))[:, None] < counts
        values = np.full(real.shape, np.inf)
        if real.any():
            values[real] = fun(pts[real])
        nfev[cols] += counts
        finite = np.where(real & np.isfinite(values), values, np.inf)
        first = np.argmin(finite, axis=0)
        low = finite[first, np.arange(len(cols))]
        better = (low < best_f[cols]).nonzero()[0]
        best_f[cols[better]] = low[better]
        best_x[cols[better]] = pts[first[better], better]
        return values

    # scipy's initial simplex: each coordinate in turn scaled by 1.05, or set
    # to 0.00025 where it is zero
    sim = np.repeat(x0[None], n + 1, axis=0)
    diag = np.arange(n)
    sim[diag + 1, :, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025).T
    fsim = evaluate_many(live, sim, np.full(k, min(n + 1, max(maxfev, 0))))
    ended = np.arange(k)  # the starts that ended an iteration in the last round
    _sort(sim, fsim, ended)
    xbar = np.add.reduce(_sort(sim, fsim, ended)[:-1], 0) / n  # scipy sorts twice

    while True:
        # a start that ended an iteration stops on its budget, or on scipy's
        # tolerances; the x-spread is computed only where the f-spread passes.
        # Each start's values are sorted, so scipy's max |f0 - f_i| <= FATOL is
        # f_N - f0 <= FATOL: rounded subtraction is monotone, argsort puts NaN
        # last, and every NaN or inf case reads False both ways
        over = nfev[ended] >= maxfev
        stop, rest = ended[over], ended[~over]
        near = (fsim[-1, rest] - fsim[0, rest] <= FATOL).nonzero()[0]
        if near.size:
            s = sim[:, rest[near]]
            done = near[np.abs(s[1:] - s[:1]).max(axis=(0, 2)) <= XATOL]
            res.converged[live[rest[done]]] = True
            stop = np.concatenate([stop, rest[done]])
        if stop.size:
            out = live[stop]
            res.nfev[out], res.best_f[out] = nfev[stop], best_f[stop]
            res.best_x[out] = best_x[stop]
            go = np.ones(live.size, dtype=bool)
            go[stop] = False
            live, nfev, best_f, best_x = live[go], nfev[go], best_f[go], best_x[go]
            xbar, step, fxr, fsim = xbar[go], step[go], fxr[go], fsim[:, go]
            sim = sim.compress(go, axis=1)  # each vertex stays one contiguous slab
        if not live.size:
            break

        # one pending point per live start
        worst = sim[-1]
        x = coef_a[step, None] * xbar - coef_b[step, None] * worst
        f = fun(x)
        nfev += 1
        better = (f < best_f) & np.isfinite(f)
        np.copyto(best_f, f, where=better)
        np.copyto(best_x, x, where=better[:, None])

        # a reflection is kept, or chooses the expansion or contraction to
        # try next; a start whose budget ran out ends here, as scipy's does
        reflected = step == 0
        below_worst = f < fsim[-1]
        chosen = np.where(f < fsim[0], 1, np.where(f < fsim[-2], 0,
                                                   np.where(below_worst, 2, 3)))
        keep = np.where(reflected, chosen == 0,
                        np.where(step == 1, f < fxr,
                                 np.where(step == 2, f <= fxr, below_worst)))
        failed = ~keep
        pending = reflected & failed & (nfev < maxfev)
        # a failed expansion falls back on its reflection (recomputed: the
        # centroid and the worst vertex have not moved since), a failed
        # contraction on a shrink
        back = failed & (step == 1)
        if back.any():
            np.copyto(worst, (1 + rho) * xbar - rho * worst, where=back[:, None])
            np.copyto(fsim[-1], fxr, where=back)
        np.copyto(worst, x, where=keep[:, None])
        np.copyto(fsim[-1], f, where=keep)
        np.copyto(fxr, f, where=pending)
        shrink = (failed & (step > 1)).nonzero()[0]
        step = np.where(pending, chosen, 0)

        # a failed contraction shrinks towards the best vertex, evaluating
        # vertices in order while the budget lasts
        if shrink.size:
            sv = sim[:, shrink]
            sv[1:] = sv[:1] + sigma * (sv[1:] - sv[:1])
            fsim[1:, shrink] = evaluate_many(shrink, sv[1:], np.minimum(maxfev - nfev[shrink], n))
            sim[:, shrink] = sv

        # the starts that ended an iteration begin the next with a reflection
        ended = (~pending).nonzero()[0]
        xbar[ended] = np.add.reduce(_sort(sim, fsim, ended)[:-1], 0) / n

    return res


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
    squeeze_clamp: ClassVar[float] = SQUEEZE_CLAMP
    scope: ClassVar[str] = (
        "searched: the Fig. 2 layout (pure-Choi two-copy protocols) at this input; "
        "checked step by step: each local Gaussian operation, on one to three "
        "copies, by tests/test_proof_steps.py"
    )

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


#: A random start's coordinates are uniform in [low, low + span): angles in
#: [0, 2 pi), squeezers in [-SQUEEZE_CLAMP, SQUEEZE_CLAMP), party by party.
_START_LOW = np.tile(np.r_[np.zeros(4), np.full(2, -SQUEEZE_CLAMP), np.zeros(4)], 2)
_START_SPAN = np.tile(np.r_[np.full(4, 2.0 * np.pi), np.full(2, 2.0 * SQUEEZE_CLAMP),
                            np.full(4, 2.0 * np.pi)], 2)


def _random_starts(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` uniform random starts, (k, N_PARAMS), from one ``rng.random`` draw.

    ``rng.uniform(low, high)`` is low + (high - low) u, with u read from the
    stream that ``rng.random`` reads, here row by row. So row j is the point
    that drawing start j's angles and squeezers party by party with
    ``uniform`` gives, after the j starts before it.
    """
    return _START_LOW + _START_SPAN * rng.random((k, N_PARAMS))


def optimize(
    copies,
    n_starts: int,
    seed: int,
    budget: int,
    input_description: str | None = None,
) -> NogoCertificate:
    """Multi-start Nelder-Mead maximization of the protocol output E_N.

    Start 0 begins at the identity point (all parameters zero), so the
    identity is evaluated once, as the first vertex of start 0's simplex.
    Starts 1 to n_starts - 1 are uniform draws, in order, from one
    ``np.random.default_rng(seed)`` stream, so results are reproducible.
    All starts run in lockstep through ``minimize`` with ``budget``
    evaluations each. Every value is recorded: non-finite ones are counted
    and never become the best point. Anything but two two-mode ``copies`` is
    refused with :class:`DimensionMismatch` before any E_N is computed.
    """
    if n_starts < 1 or budget < 1:
        raise ParamOutOfRange(
            f"n_starts and budget must be >= 1, got {n_starts} and {budget}"
        )
    copies = _require_two_copies(copies)
    # validation at the boundary: physical copies, each checked once
    distinct = copies[:1] if copies[1] is copies[0] else copies
    input_e_n = max(log_negativity(c, _FIG2_SPLIT).log_negativity for c in distinct)
    g0 = tensor(*copies).cov
    n_nonfinite = 0

    def negative_objective(x):
        nonlocal n_nonfinite
        values = objective(x, g0)
        if not np.isfinite(values).all():
            n_nonfinite += int(np.count_nonzero(~np.isfinite(values)))
        return -values

    rng = np.random.default_rng(seed)
    x0 = np.vstack([np.zeros(N_PARAMS), _random_starts(rng, n_starts - 1)])
    # a non-finite value is counted, not warned about
    with np.errstate(invalid="ignore", divide="ignore"):
        res = minimize(negative_objective, x0, budget)

    i = int(np.argmin(res.best_f))
    best = float(-res.best_f[i])
    if input_description is None:
        input_description = f"two copies, E_N(in) = {input_e_n:.6g}"
    return NogoCertificate(
        input_description=input_description,
        input_e_n=float(input_e_n),
        best_e_n=best,
        best_params=res.best_x[i].copy(),
        n_starts=n_starts,
        n_evals=int(res.nfev.sum()),
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
    budget: int,
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
    """Deterministic CSV table for a sweep (columns fixed by CSV_COLUMNS).
    Every field is a float's repr or an int, so none needs quoting."""
    lines = [",".join(CSV_COLUMNS)] + [
        f"{float(r)!r},{c.input_e_n!r},{c.best_e_n!r},{c.gap!r},{c.n_starts},{c.n_evals},"
        f"{c.seed}" for r, c in zip(r_values, certs)]
    return "\n".join(lines) + "\n"

"""The lockstep Nelder-Mead minimizer as first written, kept as an exact oracle.

``minimize`` and ``_sort`` below are the straightforward form of
``cvdist.nogo.minimize``: every iteration gathers the live starts' simplices
and scatters them back, tests both spreads for every start, and argsorts
every row. ``cvdist.nogo.minimize`` must take the same steps and give the
same bits; tests/test_nogo.py compares the two with ``np.array_equal``.
"""

import numpy as np

from cvdist.nogo import FATOL, XATOL, LockstepResult


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

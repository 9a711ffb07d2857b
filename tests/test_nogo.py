import json
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

import kernel_oracle
import lockstep_oracle
from symplectic_oracle import passive_from_angles

import cvdist.nogo
from cvdist.errors import DimensionMismatch, MalformedInput, ParamOutOfRange
from cvdist.nogo import (
    FATOL,
    GAP_TOL,
    N_PARAMS,
    SQUEEZE_CLAMP,
    XATOL,
    SymplecticParams,
    _passive,
    _random_starts,
    certificates_csv,
    minimize,
    objective,
    optimize,
    sweep,
)
from cvdist.protocols import build_fig2
from cvdist.states import GaussianState, tensor, thermal, tmsv, vacuum
from cvdist.symplectic import symplectic_error

COPIES_HALF = (tmsv(0.5), tmsv(0.5))
G0_HALF = tensor(*COPIES_HALF).cov

#: Criterion 4's inputs: tmsv(r) for four r, and tmsv(0.8) + 0.2 I.
CRITERION_4_COPIES = [tmsv(r) for r in (0.2, 0.5, 0.8, 1.1)] + [
    GaussianState(mean=np.zeros(4), cov=tmsv(0.8).cov + 0.2 * np.eye(4))
]
PRODUCT_COPY = tensor(thermal(0.4), thermal(0.1))


def _objective_at(x, copies):
    return objective(np.asarray(x)[None], tensor(*copies).cov)[0]


def _reference(x, copy):
    s_a, s_b = SymplecticParams.from_vector(x).realize()
    return build_fig2(s_a, s_b, copy, copy).report.log_negativity


def test_identity_point_objective():
    value = _objective_at(np.zeros(N_PARAMS), COPIES_HALF)
    assert abs(value - 1.0) <= 1e-9


def test_realized_matrices_are_symplectic(rng):
    for _ in range(50):
        x = rng.uniform(-8.0, 8.0, size=N_PARAMS)
        s_a, s_b = SymplecticParams.from_vector(x).realize()
        assert symplectic_error(s_a) <= 1e-10
        assert symplectic_error(s_b) <= 1e-10
        assert abs(np.linalg.det(s_a) - 1.0) <= 1e-8


@pytest.mark.parametrize("build, message", [
    (lambda: SymplecticParams(alice=np.zeros(9), bob=np.zeros(10)), "each party takes 10"),
    (lambda: SymplecticParams(alice=np.zeros(10), bob=np.zeros(11)), "each party takes 10"),
    (lambda: SymplecticParams.from_vector(np.zeros(19)), "each party takes 10"),
], ids=["alice-9", "bob-11", "vector-19"])
def test_symplectic_params_refuse_the_wrong_size(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


def test_squeeze_clamp_respected(rng):
    x = np.zeros(N_PARAMS)
    x[4:6] = [50.0, -50.0]  # way past the clamp
    s_a, _ = SymplecticParams.from_vector(x).realize()
    assert np.abs(s_a).max() <= np.exp(SQUEEZE_CLAMP) + 1e-9
    assert np.isfinite(_objective_at(x, COPIES_HALF))


def test_objective_periodic_in_passive_angles(rng):
    x = rng.uniform(-2.0, 2.0, size=N_PARAMS)
    base = _objective_at(x, COPIES_HALF)
    for slot in (0, 3, 6, 13, 19):
        shifted = x.copy()
        shifted[slot] += 2.0 * np.pi
        value = _objective_at(shifted, COPIES_HALF)
        assert abs(value - base) <= 1e-9


def test_objective_zero_for_product_copies(rng):
    for _ in range(10):
        x = rng.uniform(0.0, 2.0 * np.pi, size=N_PARAMS)
        assert _objective_at(x, (PRODUCT_COPY, PRODUCT_COPY)) <= 1e-10


# -- the kernel against the build_fig2 reference ----------------------------


@pytest.mark.parametrize("copy", CRITERION_4_COPIES,
                         ids=["tmsv0.2", "tmsv0.5", "tmsv0.8", "tmsv1.1", "mixed"])
def test_kernel_matches_build_fig2_at_random_starts(rng, copy):
    x = _random_starts(rng, 2000)
    values = objective(x, tensor(copy, copy).cov)
    reference = np.array([_reference(row, copy) for row in x])
    assert np.abs(values - reference).max() <= 1e-10


def test_kernel_matches_build_fig2_beyond_the_clamp(rng):
    # both parties squeeze past |r| = 3; entries reach e^12, so both paths
    # lose digits (each is off by up to ~2e-10 from a 50-digit evaluation)
    for copy in CRITERION_4_COPIES:
        x = _random_starts(rng, 100)
        for base in (4, 14):
            x[:, base:base + 2] = (rng.choice([-1.0, 1.0], size=(100, 2))
                                   * rng.uniform(3.0, 8.0, size=(100, 2)))
        values = objective(x, tensor(copy, copy).cov)
        reference = np.array([_reference(row, copy) for row in x])
        assert np.abs(values - reference).max() <= 1e-9


#: Bound on |kernel - 50-digit E_N| at tmsv(1.1) copies. The kernel rounds
#: products of entries up to e^6 cosh(2.2) in float64 and reads at most 1.1e-11
#: (median 2.8e-14) on the rows below, 3.1e-11 over the first 2,000 rows of
#: the same draw: twice the first leaves room for another summation order,
#: and it stays under the reference path's 4.1e-11 on the same rows.
KERNEL_MPMATH_TOL = 3e-11


def _mp_log_negativity(s_a, s_b, g0):
    """E_N of the Fig. 2 protocol at 50 digits, on float64 S_A, S_B and G0:
    S G0 S^T, the heterodyne Schur complement on (A2, B2), then nu~_-."""
    with mpmath.workdps(50):
        s = mpmath.zeros(8, 8)
        for party, s_p in enumerate((s_a, s_b)):  # joint index 4 copy + 2 party + quadrature
            for i in range(4):
                for j in range(4):
                    s[4 * (i // 2) + 2 * party + i % 2,
                      4 * (j // 2) + 2 * party + j % 2] = s_p[i, j]
        m = s * mpmath.matrix(g0.tolist()) * s.T
        a, c, b = m[0:4, 0:4], m[0:4, 4:8], m[4:8, 4:8]
        g = a - c * mpmath.inverse(b + mpmath.eye(4)) * c.T

        def det(i, j):
            return g[i, j] * g[i + 1, j + 1] - g[i, j + 1] * g[i + 1, j]

        delta = det(0, 0) + det(2, 2) - 2 * det(0, 2)
        nu2 = (delta - mpmath.sqrt(delta ** 2 - 4 * mpmath.det(g))) / 2
        return float(max(mpmath.mpf(0), -mpmath.log(nu2) / 2))


def test_kernel_matches_50_digit_arithmetic_at_strong_squeezing():
    copy = tmsv(1.1)
    g0 = tensor(copy, copy).cov
    x = _random_starts(np.random.default_rng(1), 2000)[:200]
    parties = [SymplecticParams.from_vector(row).realize() for row in x]
    exact = np.array([_mp_log_negativity(s_a, s_b, g0) for s_a, s_b in parties])
    assert np.abs(objective(x, g0) - exact).max() <= KERNEL_MPMATH_TOL
    # the reference path loses more here (ROADMAP item 5): printed, not asserted
    # (`pytest -rP` shows it); record_property would warn under --junitxml
    reference = np.array([build_fig2(s_a, s_b, copy, copy).report.log_negativity
                          for s_a, s_b in parties])
    print(f"build_fig2 max deviation from 50 digits: {np.abs(reference - exact).max():.3g}")


def test_kernel_is_exactly_zero_on_ppt_outputs(rng):
    x = _random_starts(rng, 200)
    values = objective(x, tensor(PRODUCT_COPY, PRODUCT_COPY).cov)
    assert np.all(values == 0.0)
    assert all(_reference(row, PRODUCT_COPY) == 0.0 for row in x[:20])


def test_kernel_near_zero_on_pure_product_outputs(rng):
    # vacuum copies give pure product outputs, where nu~_- = nu~_+ = 1: the
    # textbook discriminant D~^2 - 4 det G read up to 1e-6 in E_N here
    x = _random_starts(rng, 2000)
    values = objective(x, tensor(tmsv(0.0), tmsv(0.0)).cov)
    assert values.max() <= 1e-11


#: The initial simplices of 50 starts: 50 x 21 rows, eight full kernel blocks
#: and a ragged one of 26 rows.
INITIAL_SIMPLEX_ROWS = 50 * (N_PARAMS + 1)


def test_kernel_batch_equals_rows_bit_for_bit(rng):
    assert INITIAL_SIMPLEX_ROWS == 8 * cvdist.nogo._BLOCK_ROWS + 26
    x = _random_starts(rng, INITIAL_SIMPLEX_ROWS)
    x[:50, 4:6] *= 3.0  # some rows past the clamp
    for copy in (CRITERION_4_COPIES[3], CRITERION_4_COPIES[4]):
        g0 = tensor(copy, copy).cov
        batch = objective(x, g0)
        rows = np.concatenate([objective(row[None], g0) for row in x])
        assert np.array_equal(batch, rows)
        assert np.array_equal(objective(x[7:40], g0), batch[7:40])
        assert np.array_equal(objective(x[100:300], g0), batch[100:300])  # across a block edge


def test_passive_equals_the_complex_unitary_form_bit_for_bit(rng):
    angles = rng.uniform(-10.0, 10.0, size=(20_000, 4))
    angles[:100] = rng.choice([0.0, np.pi / 2, np.pi, -np.pi / 4], size=(100, 4))
    assert np.array_equal(_passive(angles), passive_from_angles(angles))
    stacked = angles.reshape(200, 2, 2, 25, 4)
    assert np.array_equal(_passive(stacked), passive_from_angles(stacked))


@pytest.mark.parametrize("copy", CRITERION_4_COPIES,
                         ids=["tmsv0.2", "tmsv0.5", "tmsv0.8", "tmsv1.1", "mixed"])
def test_kernel_equals_the_oracle_kernel_bit_for_bit(rng, copy):
    x = _random_starts(rng, 3000)
    for base in (4, 14):  # a fifth of the rows squeeze past the clamp
        x[:600, base:base + 2] *= rng.uniform(1.0, 3.0, size=(600, 2))
    g0 = tensor(copy, copy).cov
    for rows in (x, x[:INITIAL_SIMPLEX_ROWS], x[:1]):
        assert np.array_equal(objective(rows, g0), kernel_oracle.objective(rows, g0))


def _three_draws_per_party(rng):
    # random starts as first drawn: angles, squeezers, angles, party by party
    x = np.empty(N_PARAMS)
    for base in (0, 10):
        x[base:base + 4] = rng.uniform(0.0, 2.0 * np.pi, size=4)
        x[base + 4:base + 6] = rng.uniform(-SQUEEZE_CLAMP, SQUEEZE_CLAMP, size=2)
        x[base + 6:base + 10] = rng.uniform(0.0, 2.0 * np.pi, size=4)
    return x


def test_random_start_is_the_three_draws_per_party_point():
    # row by row, and the stream is left where the per-party draws leave it
    for seed in range(1000):
        for k in (1, 49):
            ref_rng = np.random.default_rng([seed, k])
            refs = [_three_draws_per_party(ref_rng) for _ in range(k)]
            rng = np.random.default_rng([seed, k])
            starts = _random_starts(rng, k)
            assert starts.shape == (k, N_PARAMS)
            for row, ref in zip(starts, refs):
                assert np.array_equal(row, ref)
            assert rng.random() == ref_rng.random()


# -- the lockstep minimizer against scipy's Nelder-Mead ------------------------


def _starts(n, seed):
    return np.vstack([np.zeros(N_PARAMS)] + [
        _random_starts(np.random.default_rng([seed, k]), 1) for k in range(1, n)])


def _scipy_start(fun, start, budget):
    """scipy's Nelder-Mead on ``fun`` row by row: (result, best x, best f).

    The best point is the first of the lowest finite values, as ``minimize``
    keeps it.
    """
    seen = {"f": np.inf, "x": start}

    def f(x):
        value = fun(x[None])[0]
        if np.isfinite(value) and value < seen["f"]:
            seen["f"], seen["x"] = value, x.copy()
        return value

    res = scipy.optimize.minimize(
        f, start, method="Nelder-Mead",
        options=dict(maxfev=budget, xatol=1e-7, fatol=1e-10, adaptive=True),
    )
    return res, seen["x"], seen["f"]


@pytest.mark.parametrize("budget", [5, 25, 50, 300])
@pytest.mark.parametrize("copy", [CRITERION_4_COPIES[1], CRITERION_4_COPIES[4],
                                  PRODUCT_COPY], ids=["tmsv0.5", "mixed", "product"])
def test_minimize_matches_scipy_start_by_start(budget, copy):
    # budget 5 ends inside the initial simplex (N + 1 = 21 points); product
    # copies give a flat objective, where every step ends in a shrink
    g0 = tensor(copy, copy).cov

    def fun(x):
        return -objective(x, g0)

    x0 = _starts(6, seed=budget)
    res = minimize(fun, x0, budget)
    for k, start in enumerate(x0):
        ref, ref_x, ref_f = _scipy_start(fun, start, budget)
        assert res.nfev[k] == ref.nfev
        assert res.converged[k] == ref.success
        assert np.abs(res.best_x[k] - ref_x).max() <= 1e-12
        assert abs(res.best_f[k] - ref_f) <= 1e-12
        assert ref_f <= ref.fun  # scipy's own answer is never better


def _bowl(x):
    return ((x - 0.3) ** 2 * np.arange(1.0, x.shape[1] + 1.0)).sum(axis=1)


def test_minimize_matches_scipy_when_starts_converge():
    # a smooth bowl in 3 parameters: every start meets xatol / fatol well
    # within its budget, at different iterations
    x0 = np.random.default_rng(3).uniform(-2.0, 2.0, size=(5, 3))
    x0[0] = 0.0
    res = minimize(_bowl, x0, 2000)
    assert res.converged.all() and (res.nfev < 2000).all()
    assert len(set(res.nfev.tolist())) > 1
    for k, start in enumerate(x0):
        ref, ref_x, ref_f = _scipy_start(_bowl, start, 2000)
        assert ref.success and res.nfev[k] == ref.nfev
        assert np.array_equal(res.best_x[k], ref.x) and res.best_f[k] == ref.fun
        assert np.array_equal(res.best_x[k], ref_x)


@pytest.mark.parametrize("budget", [60, 400])
def test_minimize_matches_scipy_on_ties(budget):
    # a staircase: equal values everywhere, so every strict / non-strict
    # comparison of scipy's step logic decides some step
    def fun(x):
        return np.floor(4.0 * _bowl(x))

    x0 = np.random.default_rng(4).uniform(-2.0, 2.0, size=(8, 4))
    res = minimize(fun, x0, budget)
    for k, start in enumerate(x0):
        ref, ref_x, ref_f = _scipy_start(fun, start, budget)
        assert res.nfev[k] == ref.nfev and res.converged[k] == ref.success
        assert np.array_equal(res.best_x[k], ref_x) and res.best_f[k] == ref_f


def _same_result(res, ref):
    """The same bits in every field: signed zeros count as different."""
    return all(getattr(res, f).dtype == getattr(ref, f).dtype
               and getattr(res, f).shape == getattr(ref, f).shape
               and getattr(res, f).tobytes() == getattr(ref, f).tobytes()
               for f in ("best_x", "best_f", "nfev", "converged"))


@pytest.mark.parametrize("budget", [50, 300])
@pytest.mark.parametrize("copy", CRITERION_4_COPIES,
                         ids=["tmsv0.2", "tmsv0.5", "tmsv0.8", "tmsv1.1", "mixed"])
def test_minimize_equals_the_oracle_minimizer(budget, copy):
    g0 = tensor(copy, copy).cov

    def fun(x):
        return -objective(x, g0)

    x0 = _starts(50, seed=budget)
    assert _same_result(minimize(fun, x0, budget), lockstep_oracle.minimize(fun, x0, budget))


@pytest.mark.parametrize("budget", [60, 400])
def test_minimize_equals_the_oracle_minimizer_on_ties(budget):
    def fun(x):
        return np.floor(4.0 * _bowl(x))

    x0 = np.random.default_rng(4).uniform(-2.0, 2.0, size=(8, 4))
    assert _same_result(minimize(fun, x0, budget), lockstep_oracle.minimize(fun, x0, budget))


def _rough(x):
    """Exact plateaus, +0.0 and -0.0 on the lowest one, and NaN, +inf and -inf regions."""
    values = np.floor(4.0 * _bowl(x))
    values = np.where(values == 0.0, np.copysign(0.0, x[:, 0] - 0.3), values)
    values[x[:, 1] > 1.5] = np.nan
    values[x[:, 1] < -1.5] = np.inf
    values[x[:, 2] > 1.7] = -np.inf
    return values


@pytest.mark.parametrize("budget", [60, 400])
def test_minimize_matches_on_non_finite_and_signed_zero_values(budget):
    # the stopping test on sorted values, f_N - f_0 <= FATOL, against scipy's
    # max |f_0 - f_i| <= FATOL where values are NaN, +-inf, +-0 or tied
    x0 = np.random.default_rng(5).uniform(-2.0, 2.0, size=(16, 4))
    x0[0] = [0.29, 0.3, 0.3, 0.3]  # on the lowest plateau: -0.0 and +0.0
    x0[1] = [0.3, 1.6, 0.3, 0.3]  # in the NaN region
    x0[2] = [0.3, -1.6, 0.3, 0.3]  # in the +inf region
    x0[3] = [0.3, 0.3, 1.8, 0.3]  # in the -inf region
    with np.errstate(invalid="ignore"):  # inf - inf in the value spread
        res = minimize(_rough, x0, budget)
        assert _same_result(res, lockstep_oracle.minimize(_rough, x0, budget))
        refs = [_scipy_start(_rough, start, budget) for start in x0]
    for k, (ref, ref_x, ref_f) in enumerate(refs):
        assert res.nfev[k] == ref.nfev and res.converged[k] == ref.success
        assert res.best_x[k].tobytes() == np.asarray(ref_x, dtype=float).tobytes()
        assert np.float64(res.best_f[k]).tobytes() == np.float64(ref_f).tobytes()
    seen = _rough(np.concatenate([x0, res.best_x]))
    assert np.isnan(seen).any() and np.isposinf(seen).any() and np.isneginf(seen).any()
    assert (seen == 0.0).any()
    if budget == 400:
        assert res.converged[0] and np.signbit(res.best_f[0])


def _recording(fun, calls):
    def record(x):
        calls.append(x.copy())
        return fun(x)
    return record


def _owners(fun, x0, budget):
    """Each point that a start evaluates when it runs alone: (start, shrink).

    After its initial simplex, the oracle run on one start sends one point
    per call, or all points of one shrink together; ``shrink`` numbers that
    call, and is None for a single point.
    """
    owner = {}
    for k, start in enumerate(x0):
        calls = []
        lockstep_oracle.minimize(_recording(fun, calls), start[None], budget)
        for c, pts in enumerate(calls[1:], start=1):
            for p in pts:
                owner[p.tobytes()] = (k, c if len(pts) > 1 else None)
    return owner


def test_minimize_makes_one_kernel_call_per_round():
    # the nogo-wide shape, 50 starts x budget 50: after the initial simplex,
    # a call holds at most one point of each start, or one shrink's points;
    # two calls per iteration (reflect, then expand or contract) made 58 here
    def fun(x):
        return -objective(x, G0_HALF)

    x0 = _starts(50, seed=50)
    calls = []
    minimize(_recording(fun, calls), x0, 50)
    rows = [len(pts) for pts in calls]
    assert rows[0] == 50 * (N_PARAMS + 1)
    assert len(rows) <= 35
    owner = _owners(fun, x0, 50)
    for pts in calls[1:]:
        shrinks = {}
        for p in pts:
            k, shrink = owner[p.tobytes()]
            shrinks.setdefault(k, []).append(shrink)
        for of_start in shrinks.values():
            assert len(of_start) == 1 or (of_start[0] is not None
                                          and len(set(of_start)) == 1)


def _staircase(x):
    return np.floor(4.0 * _bowl(x))


@pytest.mark.parametrize("fun, budget", [
    (_bowl, 100),  # every start ends on its budget
    (_bowl, 600),  # 11 of 30 converge, the others end on their budget
    (_bowl, 1000),  # all converge, at 28 different evaluation counts
    (_bowl, 5000),
    (_staircase, 60),  # ties: 7 starts end mid-shrink
    (_staircase, 500),  # 6 converge, 12 end mid-shrink
], ids=["bowl-100", "bowl-600", "bowl-1000", "bowl-5000", "ties-60", "ties-500"])
def test_minimize_matches_when_starts_end_in_different_rounds(fun, budget):
    # 30 starts in 5 parameters: each round, some starts wait on a
    # reflection, others on an expansion or contraction, others shrink or stop
    x0 = np.random.default_rng(9).uniform(-2.0, 2.0, size=(30, 5))
    res = minimize(fun, x0, budget)
    assert _same_result(res, lockstep_oracle.minimize(fun, x0, budget))
    for k, start in enumerate(x0):
        ref, ref_x, ref_f = _scipy_start(fun, start, budget)
        assert res.nfev[k] == ref.nfev and res.converged[k] == ref.success
        assert np.array_equal(res.best_x[k], ref_x) and res.best_f[k] == ref_f


def _flat(x):
    return np.zeros(len(x))


def _steep(x):
    return 1e6 * x.sum(axis=1)


@pytest.mark.parametrize("fun, x0, f_within, x_within", [
    (_flat, [1.0, 1.0], True, False),  # f-spread 0, x-spread 0.05
    (_steep, [1e-6, 1e-6], False, True),  # f-spread 0.05, x-spread 5e-8
    (_flat, [1e-6, 1e-6], True, True),
], ids=["f-only", "x-only", "both"])
def test_minimize_stops_only_when_both_spreads_are_within_tolerance(fun, x0, f_within, x_within):
    # the spreads of the initial simplex, where the first stopping test looks
    sim = np.array(x0) * (1.0 + 0.05 * np.eye(3, 2, k=-1))
    assert (np.abs(fun(sim) - fun(sim[:1])).max() <= FATOL) == f_within
    assert (np.abs(sim - sim[0]).max() <= XATOL) == x_within
    res = minimize(fun, np.array([x0]), 10)
    ref, _, _ = _scipy_start(fun, np.array(x0), 10)
    converged = f_within and x_within
    assert res.converged[0] == ref.success == converged
    assert res.nfev[0] == ref.nfev == (3 if converged else 10)


def test_minimize_without_starts_or_budget():
    empty = minimize(_bowl, np.zeros((0, 3)), 10)
    assert empty.nfev.shape == (0,) and empty.best_x.shape == (0, 3)
    res = minimize(_bowl, np.ones((2, 3)), 0)
    assert np.array_equal(res.nfev, [0, 0]) and np.all(res.best_f == np.inf)
    assert np.array_equal(res.best_x, np.ones((2, 3))) and not res.converged.any()


def test_minimize_best_seen_ignores_non_finite_values():
    def fun(x):
        values = (x ** 2).sum(axis=1)
        values[x[:, 0] < -0.5] = np.nan  # a region where the value is undefined
        values[x[:, 0] > 1.5] = -np.inf
        return values

    x0 = np.array([[1.0, 1.0], [-0.49, 0.2], [1.4, 0.0], [-3.0, 0.0]])
    res = minimize(fun, x0, 40)
    assert np.isfinite(res.best_f[:3]).all()
    assert np.array_equal(res.best_f[:3], (res.best_x[:3] ** 2).sum(axis=1))
    assert (res.best_x[:3, 0] >= -0.5).all() and (res.best_x[:3, 0] <= 1.5).all()
    assert res.best_f[3] == np.inf  # nothing finite: no best point


# -- certificates -----------------------------------------------------------


def test_optimize_includes_identity_point():
    cert = optimize(COPIES_HALF, n_starts=1, seed=3, budget=100)
    assert cert.best_e_n >= 1.0 - 1e-9
    assert cert.n_evals >= 100
    assert cert.gap >= -GAP_TOL


def test_optimize_is_deterministic():
    c1 = optimize(COPIES_HALF, n_starts=3, seed=17, budget=150)
    c2 = optimize(COPIES_HALF, n_starts=3, seed=17, budget=150)
    assert c1.best_e_n == c2.best_e_n
    assert np.array_equal(c1.best_params, c2.best_params)
    assert c1.n_evals == c2.n_evals
    assert json.dumps(c1.to_dict()) == json.dumps(c2.to_dict())


def test_optimize_counts_evaluations_per_start():
    cert = optimize(COPIES_HALF, n_starts=4, seed=8, budget=60)
    payload = cert.to_dict()
    starts = payload["starts"]
    assert len(starts) == 4
    assert payload["n_evals"] == sum(s["n_evals"] for s in starts) <= 4 * 60
    assert all(s["n_evals"] == 60 and s["converged"] is False for s in starts)
    assert payload["best_EN"] == max(s["best_EN"] for s in starts)
    assert payload["n_nonfinite_evals"] == 0


def test_optimize_evaluates_exactly_n_evals_rows(monkeypatch):
    # the identity point is start 0's first vertex, not an evaluation of its own
    real = cvdist.nogo.objective
    rows = []

    def counted(x, g0):
        rows.append(len(x))
        return real(x, g0)

    monkeypatch.setattr(cvdist.nogo, "objective", counted)
    cert = optimize(COPIES_HALF, n_starts=4, seed=8, budget=60)
    assert sum(rows) == cert.n_evals == sum(cert.start_n_evals)


def test_optimize_starts_are_a_prefix_of_more_starts():
    few = optimize(COPIES_HALF, n_starts=3, seed=21, budget=80)
    many = optimize(COPIES_HALF, n_starts=6, seed=21, budget=80)
    assert few.to_dict()["starts"] == many.to_dict()["starts"][:3]


@pytest.mark.parametrize("n_starts, budget", [(0, 50), (3, 0)])
def test_optimize_refuses_no_starts_or_no_budget(n_starts, budget):
    with pytest.raises(ParamOutOfRange):
        optimize(COPIES_HALF, n_starts=n_starts, seed=1, budget=budget)


@pytest.mark.parametrize("copies, modes", [
    ((tmsv(0.5),), "[2]"),
    ((tmsv(0.5),) * 3, "[2, 2, 2]"),
    ((vacuum(1), vacuum(1)), "[1, 1]"),
    ((vacuum(3), vacuum(3)), "[3, 3]"),
], ids=["one-copy", "three-copies", "one-mode-copies", "three-mode-copies"])
def test_optimize_refuses_anything_but_two_two_mode_copies(monkeypatch, copies, modes):
    def no_e_n(*args):
        raise AssertionError("E_N computed before the copies were checked")

    monkeypatch.setattr(cvdist.nogo, "log_negativity", no_e_n)
    with pytest.raises(DimensionMismatch, match=re.escape(f"copies, got modes {modes}")):
        optimize(copies, n_starts=1, seed=1, budget=10)


def test_optimize_counts_non_finite_values(monkeypatch):
    real = cvdist.nogo.objective

    def patchy(x, g0):
        values = real(x, g0)
        values[x[:, 4] > 1.0] = np.nan  # Alice's first squeezer past 1
        values[x[:, 14] > 2.0] = np.inf
        return values

    monkeypatch.setattr(cvdist.nogo, "objective", patchy)
    cert = optimize(COPIES_HALF, n_starts=6, seed=5, budget=80)
    assert cert.n_nonfinite_evals > 0
    assert np.isfinite(cert.best_e_n)
    assert cert.best_params[4] <= 1.0 and cert.best_params[14] <= 2.0
    monkeypatch.undo()
    assert cert.best_e_n == _objective_at(cert.best_params, COPIES_HALF)


def test_sweep_zero_squeezing():
    certs = sweep([0.0], n_starts=2, seed=5, budget=120)
    assert certs[0].input_e_n == 0.0
    assert certs[0].best_e_n <= 1e-10


def test_sweep_requires_values():
    with pytest.raises(DimensionMismatch):
        sweep([], n_starts=1, seed=1, budget=100)


def test_sweep_refuses_every_r_before_its_first_search(monkeypatch):
    # nogo --rs 0.2,-inf fails at once, not after searching tmsv(0.2)
    monkeypatch.setattr(cvdist.nogo, "optimize", lambda *args, **kwargs: pytest.fail())
    with pytest.raises(MalformedInput, match="^squeezing of magnitude inf "):
        sweep([0.2, -np.inf], n_starts=1, seed=1, budget=100)


def test_csv_is_deterministic_and_well_formed():
    rs = [0.2, 0.4]
    certs = sweep(rs, n_starts=2, seed=9, budget=120)
    text = certificates_csv(certs, rs)
    again = certificates_csv(sweep(rs, n_starts=2, seed=9, budget=120), rs)
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0] == "r,input_EN,best_EN,gap,n_starts,n_evals,seed"
    assert len(lines) == 3


def test_certificate_scope_metadata():
    cert = optimize(COPIES_HALF, n_starts=1, seed=2, budget=100)
    payload = cert.to_dict()
    assert payload["squeeze_clamp"] == SQUEEZE_CLAMP
    # what the search covers, and what is checked step by step instead
    searched, checked = payload["scope"].split("; ")
    assert searched.startswith("searched: ")
    assert "Fig. 2" in searched and "pure-Choi" in searched and "this input" in searched
    assert checked.startswith("checked step by step: ")
    assert "local Gaussian operation" in checked and "one to three copies" in checked
    steps = checked.rsplit(" by ", 1)[1]
    assert (Path(__file__).parent.parent / steps).is_file()
    assert payload["best_EN"] >= payload["input_EN"] - 1e-9
    assert_allclose(payload["gap"], payload["input_EN"] - payload["best_EN"])


@pytest.mark.parametrize("r1, r2", [(0.2, 0.8), (0.3, 1.1)])
def test_search_finds_the_better_copy(r1, r2):
    # positive control: the identity protocol outputs the first copy
    # (E_N = 2 r1), so reaching the better copy's 2 r2 takes a protocol
    # away from the start that routes the second copy to the output
    copies = (tmsv(r1), tmsv(r2))
    assert_allclose(objective(np.zeros((1, N_PARAMS)), tensor(*copies).cov), [2 * r1],
                    rtol=0, atol=1e-9)
    cert = optimize(copies, n_starts=20, seed=404, budget=2000)
    assert cert.best_e_n >= 2 * max(r1, r2) - 1e-8
    assert cert.gap >= -GAP_TOL


#: A two-mode standard form with c1 != -c2 (a = b = cosh 1, c1 = 0.9 sinh 1,
#: c2 = -0.7 sinh 1; E_N = 0.525): not phase-symmetric like tmsv inputs.
_A, _C = np.cosh(1.0), np.sinh(1.0)
STANDARD_FORM = GaussianState(mean=np.zeros(4), cov=[[_A, 0, 0.9 * _C, 0],
                                                      [0, _A, 0, -0.7 * _C],
                                                      [0.9 * _C, 0, _A, 0],
                                                      [0, -0.7 * _C, 0, _A]])


@pytest.mark.parametrize("state, seed", [
    (tmsv(0.5), 404), (CRITERION_4_COPIES[-1], 405), (STANDARD_FORM, 406),
], ids=["tmsv-0.5", "mixed", "standard-form"])
def test_single_copy_search_finds_no_gain(state, seed):
    # a vacuum second copy turns the Fig. 2 search into the single-copy one:
    # each party applies a 4x4 symplectic to its mode and one vacuum ancilla,
    # then heterodynes the ancilla, which covers local squeezers, rotations
    # and the noiseless filters; at criterion 4's effort no point beats E_in
    cert = optimize((state, vacuum(2)), n_starts=50, seed=seed, budget=2000,
                    input_description="single copy, one vacuum ancilla per party")
    assert cert.input_e_n > 0.5
    assert cert.gap >= -GAP_TOL

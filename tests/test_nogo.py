import json

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

import cvdist.nogo
from cvdist.errors import DimensionMismatch
from cvdist.nogo import (
    GAP_TOL,
    N_PARAMS,
    SQUEEZE_CLAMP,
    SymplecticParams,
    _random_start,
    certificates_csv,
    joint_covariance,
    minimize,
    objective,
    optimize,
    sweep,
)
from cvdist.protocols import build_fig2
from cvdist.states import GaussianState, tensor, thermal, tmsv
from cvdist.symplectic import symplectic_error

COPIES_HALF = (tmsv(0.5), tmsv(0.5))
G0_HALF = joint_covariance(COPIES_HALF)

#: Criterion 4's inputs: tmsv(r) for four r, and tmsv(0.8) + 0.2 I.
CRITERION_4_COPIES = [tmsv(r) for r in (0.2, 0.5, 0.8, 1.1)] + [
    GaussianState(mean=np.zeros(4), cov=tmsv(0.8).cov + 0.2 * np.eye(4))
]
PRODUCT_COPY = tensor(thermal(0.4), thermal(0.1))


def _objective_at(x, copies):
    return objective(np.asarray(x)[None], joint_covariance(copies))[0]


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
    x = np.array([_random_start(rng) for _ in range(2000)])
    values = objective(x, joint_covariance((copy, copy)))
    reference = np.array([_reference(row, copy) for row in x])
    assert np.abs(values - reference).max() <= 1e-10


def test_kernel_matches_build_fig2_beyond_the_clamp(rng):
    # both parties squeeze past |r| = 3; entries reach e^12, so both paths
    # lose digits (each is off by up to ~2e-10 from a 50-digit evaluation)
    for copy in CRITERION_4_COPIES:
        x = np.array([_random_start(rng) for _ in range(100)])
        for base in (4, 14):
            x[:, base:base + 2] = (rng.choice([-1.0, 1.0], size=(100, 2))
                                   * rng.uniform(3.0, 8.0, size=(100, 2)))
        values = objective(x, joint_covariance((copy, copy)))
        reference = np.array([_reference(row, copy) for row in x])
        assert np.abs(values - reference).max() <= 1e-9


def test_kernel_is_exactly_zero_on_ppt_outputs(rng):
    x = np.array([_random_start(rng) for _ in range(200)])
    values = objective(x, joint_covariance((PRODUCT_COPY, PRODUCT_COPY)))
    assert np.all(values == 0.0)
    assert all(_reference(row, PRODUCT_COPY) == 0.0 for row in x[:20])


def test_kernel_near_zero_on_pure_product_outputs(rng):
    # vacuum copies give pure product outputs, where nu~_- = nu~_+ = 1: the
    # textbook discriminant D~^2 - 4 det G read up to 1e-6 in E_N here
    x = np.array([_random_start(rng) for _ in range(2000)])
    values = objective(x, joint_covariance((tmsv(0.0), tmsv(0.0))))
    assert values.max() <= 1e-11


def test_kernel_batch_equals_rows_bit_for_bit(rng):
    x = np.array([_random_start(rng) for _ in range(300)])
    x[:50, 4:6] *= 3.0  # some rows past the clamp
    for copy in (CRITERION_4_COPIES[3], CRITERION_4_COPIES[4]):
        g0 = joint_covariance((copy, copy))
        batch = objective(x, g0)
        rows = np.concatenate([objective(row[None], g0) for row in x])
        assert np.array_equal(batch, rows)
        assert np.array_equal(objective(x[7:40], g0), batch[7:40])


# -- the lockstep driver against scipy's Nelder-Mead ------------------------


def _starts(n, seed):
    return np.array([np.zeros(N_PARAMS)] + [
        _random_start(np.random.default_rng([seed, k])) for k in range(1, n)])


def _scipy_start(fun, start, budget):
    """scipy's Nelder-Mead on ``fun`` row by row: (result, best x, best f)."""
    seen = {"f": np.inf, "x": start}

    def f(x):
        value = fun(x[None])[0]
        if value < seen["f"]:
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
    g0 = joint_covariance((copy, copy))

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
    assert payload["n_evals"] == 1 + sum(s["n_evals"] for s in starts) <= 4 * 60 + 1
    assert all(s["n_evals"] == 60 and s["converged"] is False for s in starts)
    assert payload["best_EN"] == max(s["best_EN"] for s in starts)
    assert payload["n_nonfinite_evals"] == 0


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
    assert "pure-Choi" in payload["scope"]
    assert payload["best_EN"] >= payload["input_EN"] - 1e-9 or True  # informational
    assert_allclose(payload["gap"], payload["input_EN"] - payload["best_EN"])

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from channel_helpers import choi_state
from symplectic_oracle import beamsplitter, embed
from wigner_oracle import _ORACLE_NODES, TooManyModes, _grid_moments, oracle_condition

from cvdist.errors import (
    DegenerateQuadrature,
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    ParamOutOfRange,
)
from cvdist.measurements import (
    DyneKind,
    DyneSpec,
    _bell_step,
    bell_measure,
    condition,
    sample_outcome,
)
from cvdist.states import (
    GaussianState,
    apply_symplectic,
    random_state,
    tensor,
    tmsv,
    vacuum,
)
from cvdist.symplectic import quad_indices, squeezer

COSH1 = 1.5430806348152437

HET0 = DyneSpec(modes=(0,), kind=DyneKind.HETERODYNE)
HET1 = DyneSpec(modes=(1,), kind=DyneKind.HETERODYNE)
HOMX1 = DyneSpec(modes=(1,), kind=DyneKind.HOMODYNE_X)


def _outcome_law(state, spec):
    """Mean and covariance (probability units) of a dyne's outcome.

    The measured quadratures' mean, and (Gamma_bb + noise) / 2 with the
    noise of the kind: none for homodyne, I for heterodyne, gamma_m for a
    general dyne.
    """
    q = quad_indices(spec.modes)
    noise = 0.0
    if spec.kind is DyneKind.HOMODYNE_X:
        q = q[0::2]
    elif spec.kind is DyneKind.HOMODYNE_P:
        q = q[1::2]
    elif spec.kind is DyneKind.HETERODYNE:
        noise = np.eye(q.size)
    else:
        noise = spec.gamma_m
    return state.mean[q], (state.cov[np.ix_(q, q)] + noise) / 2.0


def test_heterodyne_on_tmsv_gives_coherent_output():
    out = condition(tmsv(0.5), HET1, [0.4, -0.2])
    assert_allclose(out.cov, np.eye(2), atol=1e-12)


def test_homodyne_x_on_tmsv():
    out = condition(tmsv(0.5), HOMX1, [0.7])
    assert_allclose(out.cov, np.diag([1.0 / COSH1, COSH1]), atol=1e-7)
    # frozen from the Schur complement with the x projection
    assert_allclose(out.cov[0, 0], 0.6480542736638855, atol=1e-7)


def test_conditioning_product_state_leaves_factor_unchanged(rng):
    a = random_state(1, rng, nu_spread=1.0, mean_scale=0.7)
    b = random_state(1, rng, nu_spread=1.0, mean_scale=0.7)
    joint = tensor(a, b)
    for spec, outcome in [(HET1, [0.3, 0.1]), (HOMX1, [0.5])]:
        out = condition(joint, spec, outcome)
        assert_allclose(out.cov, a.cov, atol=1e-12)
        assert_allclose(out.mean, a.mean, atol=1e-12)


def test_conditional_covariance_outcome_independent(rng):
    state = random_state(3, rng, nu_spread=1.0, mean_scale=0.5)
    spec = DyneSpec(modes=(1,), kind=DyneKind.HETERODYNE)
    covs = [condition(state, spec, rng.normal(size=2)).cov for _ in range(10)]
    for cov in covs[1:]:
        assert np.abs(cov - covs[0]).max() == 0.0


def test_conditioning_never_adds_noise(rng):
    for _ in range(40):
        state = random_state(2, rng, nu_spread=1.2, symplectic_scale=0.5)
        marginal = state.cov[:2, :2]
        for spec, dim in [(HET1, 2), (HOMX1, 1)]:
            out = condition(state, spec, np.zeros(dim))
            assert np.linalg.eigvalsh(out.cov - marginal).max() <= 1e-10


def test_degenerate_quadrature_raises():
    squeezed = apply_symplectic(vacuum(2), embed(squeezer(-14.5), (1,), 2))
    with pytest.raises(DegenerateQuadrature):
        condition(squeezed, HOMX1, [0.0])


def test_homodyne_predicted_to_one_part_in_1e12_is_refused():
    # x_1 -> 1e3 x_0 + 1e-4 x_1 (p_1 -> 1e4 p_1, p_0 -> p_0 - 1e7 p_1 keep it
    # symplectic): x_1's variance is about 1e6 and given x_0 about 1e-8, a
    # pivot above 1e-12 that keeps only a few correct digits
    s = np.eye(6)
    s[2, 0], s[2, 2], s[3, 3], s[1, 3] = 1e3, 1e-4, 1e4, -1e7
    spec = DyneSpec(modes=(0, 1), kind=DyneKind.HOMODYNE_X)
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = apply_symplectic(random_state(3, rng, nu_spread=0.5, symplectic_scale=0.3), s)
        with pytest.raises(DegenerateQuadrature, match="variance below"):
            condition(state, spec, np.zeros(2))
        with pytest.raises(DegenerateQuadrature, match="variance below"):
            sample_outcome(state, spec, 1)


@pytest.mark.parametrize("cov, spec", [
    (np.diag([-1.0, 1.0]), DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_X)),
    (np.diag([-3.0, 1.0, 1.0, 1.0]), HET0),
], ids=["homodyne-whole-state", "heterodyne"])
def test_sampling_refuses_a_block_that_does_not_factor_by_name(cov, spec):
    # numpy's own LinAlgError does not escape
    state = GaussianState(mean=np.zeros(len(cov)), cov=cov)
    with pytest.raises(DegenerateQuadrature, match="not positive definite"):
        sample_outcome(state, spec, 1)


def test_heterodyne_condition_refuses_a_block_that_does_not_factor():
    # V = diag(-2, 2): solvable, but no covariance of a measurement
    state = GaussianState(mean=np.zeros(4), cov=np.diag([-3.0, 1.0, 1.0, 1.0]))
    with pytest.raises(DegenerateQuadrature, match="not positive definite"):
        condition(state, HET0, np.zeros(2))


@pytest.mark.parametrize("spec", [HOMX1, DyneSpec(modes=(0, 2), kind=DyneKind.HOMODYNE_P)],
                         ids=["one-quadrature", "two-quadratures"])
def test_homodyne_sampling_factors_the_measured_block_once(monkeypatch, spec):
    # the refusal reads the factor the outcome is drawn with: no eigvalsh
    state = random_state(3, np.random.default_rng(8), nu_spread=1.0, symplectic_scale=0.4)
    calls = []
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _real=getattr(np.linalg, name),
                            **k: calls.append(_name) or _real(*a, **k))
    sample_outcome(state, spec, 1)
    assert calls == ["cholesky"]


def test_condition_validation():
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), DyneSpec(modes=(2,), kind=DyneKind.HOMODYNE_X), [0.0])
    with pytest.raises(DimensionMismatch):
        sample_outcome(tmsv(0.3), DyneSpec(modes=(2,), kind=DyneKind.HOMODYNE_X), 0)
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), HET1, [0.0])  # wrong outcome length
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), DyneSpec(modes=(0, 1), kind=DyneKind.HETERODYNE),
                  np.zeros(4))  # nothing would remain


@pytest.mark.parametrize("gamma_m, error", [
    (0.5 * np.eye(2), NotPhysical),
    (-2.0 * np.eye(2), NotPhysical),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), MalformedInput),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), MalformedInput),
    (None, DimensionMismatch),
    (np.eye(4), DimensionMismatch),
], ids=["sub-vacuum", "negative-definite", "nan", "asymmetric", "missing", "wrong-shape"])
def test_general_dyne_requires_physical_gamma_m(gamma_m, error):
    with pytest.raises(error):
        spec = DyneSpec(modes=(1,), kind=DyneKind.GENERAL, gamma_m=gamma_m)
        condition(tmsv(0.3), spec, [0.0, 0.0])


def test_general_dyne_keeps_the_gamma_m_it_checked():
    # asymmetric within SYMMETRY_RTOL, so accepted; the spec keeps the checked,
    # symmetrized copy, which the Cholesky factor (lower triangle of V) and the
    # update's solve (all of V) read alike, and leaves the caller's array as it is
    given = np.array([[2.0, 1e-13], [0.0, 0.5]])
    spec = DyneSpec(modes=(0,), kind=DyneKind.GENERAL, gamma_m=given)
    assert np.array_equal(spec.gamma_m, (given + given.T) / 2.0)
    assert not spec.gamma_m.flags.writeable and given.flags.writeable
    same = DyneSpec(modes=(0,), kind=DyneKind.GENERAL, gamma_m=spec.gamma_m.copy())
    state = tmsv(0.7)
    assert np.array_equal(condition(state, spec, [0.3, -0.2]).mean,
                          condition(state, same, [0.3, -0.2]).mean)


@pytest.mark.parametrize("modes", [(), (0, 0), (-1,)], ids=["none", "repeated", "negative"])
def test_dyne_spec_refuses_bad_modes(modes):
    message = f"mode indices {modes} must be 1 or more distinct values >= 0"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        DyneSpec(modes=modes, kind=DyneKind.HETERODYNE)


@pytest.mark.parametrize("kind", [k for k in DyneKind if k is not DyneKind.GENERAL],
                         ids=lambda k: k.value)
def test_named_dyne_refuses_gamma_m(kind):
    # a named kind fixes its own measurement covariance: a gamma_m the caller
    # meant for a general dyne would be kept and never read
    with pytest.raises(ParamOutOfRange, match="GENERAL"):
        DyneSpec(modes=(1,), kind=kind, gamma_m=np.diag([2.0, 0.5]))


# -- outcome statistics ---------------------------------------------------------


def test_outcome_law_vacuum_homodyne_variance():
    mean, cov = _outcome_law(vacuum(1), DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_X))
    assert_allclose(mean, [0.0])
    assert_allclose(cov, [[0.5]])


def test_sampled_variance_matches_law():
    # empirical covariance of sample_outcome's draws against the law, 3 sigma bands
    rng = np.random.default_rng(5)
    state = tmsv(0.4)
    for spec in (HET1, HOMX1, DyneSpec(modes=(0,), kind=DyneKind.GENERAL,
                                       gamma_m=np.diag([2.0, 0.5]))):
        mean, cov = _outcome_law(state, spec)
        n = 4_000
        draws = np.array([sample_outcome(state, spec, rng).outcome for _ in range(n)])
        emp = np.cov(draws.T).reshape(cov.shape)
        sigma = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) <= 3.0 * sigma)


def test_sample_outcome_consistency():
    # moderate number of full records: empirical variance within 2 percent
    rng = np.random.default_rng(11)
    spec = DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_X)
    draws = np.array([sample_outcome(vacuum(1), spec, rng).outcome[0]
                      for _ in range(20_000)])
    assert abs(draws.var() - 0.5) <= 0.02 * 0.5
    assert abs(draws.mean()) <= 0.02


def test_sample_outcome_concentrates_for_squeezed_input():
    squeezed = apply_symplectic(vacuum(1), squeezer(-7.0))  # x variance e^{-14}
    rng = np.random.default_rng(3)
    spec = DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_X)
    draws = np.array([sample_outcome(squeezed, spec, rng).outcome[0]
                      for _ in range(200)])
    assert np.abs(draws).max() <= 1e-2


def test_sample_outcome_deterministic_for_fixed_seed(rng):
    state = random_state(2, rng, nu_spread=1.0, mean_scale=0.5)
    rec1 = sample_outcome(state, HET0, 1234)
    rec2 = sample_outcome(state, HET0, 1234)
    assert np.array_equal(rec1.outcome, rec2.outcome)
    assert np.array_equal(rec1.conditioned_state.cov, rec2.conditioned_state.cov)


# -- Bell measurement ----------------------------------------------------------


def _bell_observables(n_modes, a, b):
    """Rows M with M r = (x_a - x_b, p_a + p_b) over the quadratures r."""
    m = np.zeros((2, 2 * n_modes))
    m[[0, 0, 1, 1], [2 * a, 2 * b, 2 * a + 1, 2 * b + 1]] = [1.0, -1.0, 1.0, 1.0]
    return m


def test_bell_outcome_statistics_on_tmsv():
    # probability variance of x1 - x2 is (M Gamma M^T)/2 = e^{-2r}
    rec = bell_measure(tmsv(0.5), (0, 1), 0)
    m = _bell_observables(2, 0, 1)
    prob_var = np.diag(m @ tmsv(0.5).cov @ m.T) / 2.0
    assert_allclose(prob_var, [np.exp(-1.0), np.exp(-1.0)], atol=1e-12)
    assert_allclose(prob_var[0], 0.36787944117144233, atol=1e-12)
    rng = np.random.default_rng(8)
    draws = np.array([bell_measure(tmsv(0.5), (0, 1), rng).outcome
                      for _ in range(8000)])
    assert np.abs(draws.var(axis=0) - np.exp(-1.0)).max() <= 0.03
    assert rec.conditioned_state is None  # the pair was the whole state


def test_bell_on_vacuum_unit_variances():
    rng = np.random.default_rng(2)
    draws = np.array([bell_measure(vacuum(2), (0, 1), rng).outcome for _ in range(4000)])
    assert np.abs(draws.var(axis=0) - 1.0).max() <= 0.08


def test_bell_on_identical_coherent_states_x_difference_centred():
    # outcomes centre on (x_a - x_b, p_a + p_b) of the means: (0, -0.8)
    state = vacuum(2).with_mean([0.9, -0.4, 0.9, -0.4])
    rng = np.random.default_rng(10)
    draws = np.array([bell_measure(state, (0, 1), rng).outcome for _ in range(4000)])
    assert abs(draws[:, 0].mean()) <= 0.06
    assert abs(draws[:, 1].mean() + 0.8) <= 0.06


def test_bell_matches_direct_joint_conditioning(rng):
    # beamsplitter + two homodynes versus conditioning on M r = outcome
    state = random_state(3, rng, nu_spread=1.0, symplectic_scale=0.4, mean_scale=0.5)
    rec = bell_measure(state, (2, 0), 77)
    m = _bell_observables(3, 2, 0)
    gm = m @ state.cov @ m.T
    gain = state.cov @ m.T @ np.linalg.inv(gm)
    cond_cov = state.cov - gain @ m @ state.cov
    cond_mean = state.mean + gain @ (rec.outcome - m @ state.mean)
    keep = [2, 3]  # quadratures of the unmeasured mode 1
    assert_allclose(rec.conditioned_state.cov, cond_cov[np.ix_(keep, keep)], atol=1e-10)
    assert_allclose(rec.conditioned_state.mean, cond_mean[keep], atol=1e-10)


def _squeezed_pair(r, third_mode):
    """Vacuum with both modes of the Bell pair squeezed by ``squeezer(r)``."""
    n = 3 if third_mode else 2
    state = vacuum(n)
    for mode in (0, 1):
        state = apply_symplectic(state, embed(squeezer(r), (mode,), n))
    return state


@pytest.mark.parametrize("r, third_mode", [(-14.5, True), (-14.5, False), (14.5, True)],
                         ids=["x-diff-three-modes", "x-diff-pair-only", "p-sum-three-modes"])
def test_bell_degenerate_quadrature_raises(r, third_mode):
    # x squeezing makes x_a - x_b degenerate, p squeezing p_a + p_b
    with pytest.raises(DegenerateQuadrature):
        bell_measure(_squeezed_pair(r, third_mode), (0, 1), 1)


def test_bell_degenerate_p_sum_samples_when_pair_is_whole_state():
    # nothing remains to condition, so the degenerate p sum is only sampled
    rec = bell_measure(_squeezed_pair(14.5, False), (0, 1), 1)
    assert rec.conditioned_state is None
    assert np.isfinite(rec.outcome).all()


def test_bell_rejects_bad_pairs():
    with pytest.raises(DimensionMismatch):
        bell_measure(tmsv(0.3), (0, 0), 1)
    with pytest.raises(DimensionMismatch):
        bell_measure(tmsv(0.3), (0, 2), 1)


def _bell_chain(state, pairs, draws, means=None):
    """``pairs`` Bell-measured by one single-pair step each, in the given order.

    Measured modes drop out, so each step looks its pair up among the modes
    still present. Pair j takes columns 2j and 2j + 1 of ``draws``.
    """
    cov = state.cov
    means = state.mean[None, :] if means is None else means
    live = list(range(state.modes))
    recs = []
    for j, (a, b) in enumerate(pairs):
        cols = slice(2 * j, 2 * j + 2)
        rec, cov, means = _bell_step(cov, means, [(live.index(a), live.index(b))],
                                     draws[:, cols])
        recs.append(rec)
        live.remove(a)
        live.remove(b)
    return np.hstack(recs), cov, means


@pytest.mark.parametrize("pairs", [
    [(0, 1)], [(2, 0)], [(0, 1), (2, 3)], [(2, 0), (1, 3)], [(3, 1), (0, 4)],
    [(4, 0), (1, 2), (5, 3)], [(0, 1), (2, 3), (4, 5)],
], ids=str)
@pytest.mark.parametrize("extra", [0, 1], ids=["no-mode-left", "one-mode-left"])
def test_bell_step_on_many_pairs_matches_the_single_pair_chain(pairs, extra):
    n = max(max(p) for p in pairs) + 1 + extra
    rng = np.random.default_rng([n, len(pairs), extra])
    state = random_state(n, rng, nu_spread=1.0, symplectic_scale=0.4, mean_scale=0.5)
    means = state.mean + rng.normal(0.0, 0.5, size=(5, 2 * n))
    draws = np.random.default_rng(3).standard_normal((5, 2 * len(pairs)))
    rec, cov, out = _bell_step(state.cov, means, pairs, draws)
    rec_chain, cov_chain, out_chain = _bell_chain(state, pairs, draws, means)
    assert np.abs(rec - rec_chain).max() <= 1e-12
    if cov_chain is None:
        assert cov is None and out is None
    else:
        assert np.abs(cov - cov_chain).max() <= 1e-12
        assert np.abs(out - out_chain).max() <= 1e-12


def _correlated_pairs(extra):
    """Pairs (0, 1) and (2, 3) whose x differences agree up to an e^-16 squeezed
    x: that of the passive mode (x0 - x1 - x2 + x3) / 2. Each pair alone is
    resolvable; given the first, the second x difference is not."""
    n = 4 + extra
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    passive = np.eye(2 * n)
    passive[:8, :8] = np.kron(h, np.eye(2))
    squeeze = np.eye(2 * n)
    squeeze[6:8, 6:8] = squeezer(-16.0)
    return apply_symplectic(apply_symplectic(vacuum(n), squeeze), passive)


@pytest.mark.parametrize("extra", [0, 1], ids=["no-mode-left", "one-mode-left"])
def test_bell_pair_degenerate_given_another_raises_on_both_paths(extra):
    state = _correlated_pairs(extra)
    for pair in [(0, 1), (2, 3)]:
        assert np.isfinite(bell_measure(state, pair, 1).outcome).all()
    draws = np.random.default_rng(5).standard_normal((1, 4))
    for pairs in ([(0, 1), (2, 3)], [(2, 3), (0, 1)]):
        with pytest.raises(DegenerateQuadrature):
            _bell_step(state.cov, state.mean[None, :], pairs, draws=draws)
        with pytest.raises(DegenerateQuadrature):
            _bell_chain(state, pairs, draws=draws)


def test_bell_step_skips_only_the_last_pivot_when_no_mode_remains():
    # p_2 + p_3 squeezed below DEGENERATE_VARIANCE: it is the last pivot only
    # when (2, 3) is measured last, and it is skipped only if nothing remains
    state = vacuum(4)
    for mode in (2, 3):
        state = apply_symplectic(state, embed(squeezer(14.5), (mode,), 4))
    draws = np.random.default_rng(6).standard_normal((3, 4))
    rec, cov, means = _bell_step(state.cov, state.mean[None, :], [(0, 1), (2, 3)],
                                 draws=draws)
    assert cov is None and means is None
    rec_chain = _bell_chain(state, [(0, 1), (2, 3)], draws=draws)[0]
    assert np.abs(rec - rec_chain).max() <= 1e-12
    for st, pairs in [(state, [(2, 3), (0, 1)]),
                      (tensor(state, vacuum(1)), [(0, 1), (2, 3)])]:
        with pytest.raises(DegenerateQuadrature):
            _bell_step(st.cov, st.mean[None, :], pairs, draws=draws)
        with pytest.raises(DegenerateQuadrature):
            _bell_chain(st, pairs, draws=draws)


@pytest.mark.parametrize("extra", [0, 1], ids=["no-mode-left", "one-mode-left"])
def test_bell_step_factors_the_measured_block_once(monkeypatch, extra):
    # the pivot check reads the factor the outcomes are drawn with
    rng = np.random.default_rng(7)
    state = random_state(4 + extra, rng, nu_spread=1.0, symplectic_scale=0.4)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda *a, **k: calls.append(1) or cholesky(*a, **k))
    _bell_step(state.cov, state.mean[None, :], [(0, 1), (2, 3)],
               rng.standard_normal((3, 4)))
    assert len(calls) == 1


# -- integration oracle ----------------------------------------------------------


def test_oracle_matches_condition_heterodyne_tmsv():
    out = oracle_condition(tmsv(0.5), HET1, [0.3, -0.8])
    ref = condition(tmsv(0.5), HET1, [0.3, -0.8])
    assert np.abs(out.cov - ref.cov).max() <= 1e-6
    assert np.abs(out.mean - ref.mean).max() <= 1e-6
    assert_allclose(out.cov, np.eye(2), atol=1e-6)


def test_oracle_vacuum_marginal():
    out = oracle_condition(vacuum(2), HET1, [0.0, 0.0])
    assert_allclose(out.cov, np.eye(2), atol=1e-8)
    assert_allclose(out.mean, np.zeros(2), atol=1e-8)


def test_oracle_homodyne(rng):
    state = random_state(2, rng, nu_spread=1.0, symplectic_scale=0.4, mean_scale=0.4)
    for spec, outcome in [(HOMX1, [0.6]),
                          (DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_P), [-0.4])]:
        ref = condition(state, spec, outcome)
        out = oracle_condition(state, spec, outcome)
        assert np.abs(out.cov - ref.cov).max() <= 1e-6
        assert np.abs(out.mean - ref.mean).max() <= 1e-6


def test_oracle_general_dyne(rng):
    state = random_state(2, rng, nu_spread=1.0, symplectic_scale=0.4, mean_scale=0.4)
    gamma_m = random_state(1, rng, nu_spread=0.8, symplectic_scale=0.5).cov
    spec = DyneSpec(modes=(1,), kind=DyneKind.GENERAL, gamma_m=gamma_m)
    outcome = rng.normal(0.0, 0.7, size=2)
    ref = condition(state, spec, outcome)
    out = oracle_condition(state, spec, outcome)
    assert np.abs(out.cov - ref.cov).max() <= 1e-6
    assert np.abs(out.mean - ref.mean).max() <= 1e-6


def test_oracle_rejects_large_states(rng):
    state = random_state(4, rng)
    with pytest.raises(TooManyModes):
        oracle_condition(state, HET1, [0.0, 0.0])


def _gaussian_form(dim, seed):
    """A random exp(-r^T q r + lin . r), and grid centers and scales near its mass."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    q = a @ a.T / dim + np.eye(dim)
    lin = rng.normal(size=dim)
    cov = np.linalg.inv(2.0 * q)
    return q, lin, cov @ lin + 0.05, 1.1 * np.sqrt(np.diag(cov))


@pytest.mark.parametrize("dim", range(1, 7))
def test_grid_moments_are_the_point_by_point_sums(dim):
    # the marginal sums against the same sums written out grid point by point
    q, lin, centers, scales = _gaussian_form(dim, 700 + dim)
    nodes = {1: 64, 2: 64, 3: 24, 4: 12, 5: 8, 6: 6}[dim]
    t, w = np.polynomial.hermite.hermgauss(nodes)
    idx = np.indices((nodes,) * dim).reshape(dim, -1).T
    r = centers + np.sqrt(2.0) * scales * t[idx]
    log_f = np.log(w[idx] * np.exp(t[idx] ** 2)).sum(axis=1) \
        - np.einsum("ni,ij,nj->n", r, q, r) + r @ lin
    f = np.exp(log_f - log_f.max())
    mean = f @ r / f.sum()
    cov = (r - mean).T @ ((r - mean) * f[:, None]) / f.sum()
    first, second = _grid_moments(q, lin, centers, scales, nodes)
    assert_allclose(first, mean, rtol=0, atol=1e-12)
    assert_allclose(second, cov, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_grid_moments_hold_one_full_grid(dim):
    # the integrand is the only array as large as the grid
    q, lin, centers, scales = _gaussian_form(dim, 720 + dim)
    nodes = _ORACLE_NODES[dim]
    tracemalloc.start()
    try:
        _grid_moments(q, lin, centers, scales, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * nodes ** dim


def test_oracle_bell_pipeline_matches_eq7():
    # 1-in/1-out channel realized as Choi state + Bell conditioning, all
    # conditioning steps through the integration oracle
    from cvdist.channels import apply as apply_channel
    from cvdist.channels import conditional_output_mean, filter_channel

    ch = filter_channel(0.5)
    inp = tmsv(0.4)
    # input mode 0 of the joint is half of tmsv(0.4); trace out its partner
    # to stay within the oracle's three-mode limit
    from cvdist.states import partial_trace

    single = partial_trace(inp, keep=[0])
    joint = tensor(single, choi_state(ch))  # (in, choi_in, choi_out)
    mixed = apply_symplectic(joint, embed(beamsplitter(0.5), (1, 0), 3))
    xi_x, xi_p = 0.35, -0.15
    step1 = oracle_condition(mixed, DyneSpec((0,), DyneKind.HOMODYNE_X), [xi_x])
    step2 = oracle_condition(step1, DyneSpec((0,), DyneKind.HOMODYNE_P), [xi_p])
    x_d, p_d = -np.sqrt(2.0) * xi_x, np.sqrt(2.0) * xi_p
    ref = apply_channel(ch, single)
    corr = conditional_output_mean(ch, single, [x_d, p_d])
    assert np.abs(step2.cov - ref.cov).max() <= 1e-6
    assert np.abs(step2.mean - corr).max() <= 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.01e100],
                         ids=["nan", "inf", "-inf", "beyond-max-entry"])
def test_condition_refuses_an_outcome_outside_the_range(bad):
    """The outcome is the one outside array that reaches ``condition``'s
    unchecked result, so ``condition`` checks it and names it."""
    state = random_state(2, np.random.default_rng(3), mean_scale=0.5)
    spec = DyneSpec(modes=(1,), kind=DyneKind.HETERODYNE)
    with pytest.raises(MalformedInput, match="^outcome entry of magnitude"):
        condition(state, spec, [0.1, bad])


def _chained_state(g: float):
    """An unphysical 12-mode state whose homodyne x of modes 0-10 has gain
    about 1e119 g onto x_11. W = V / 2 = L L^T with L = 2^-18 (I - 2^18 N), N
    the subdiagonal shift, and every Cholesky step of W is exact: each pivot
    reads 2^-35, above the 1e-12 x max(1, V_ii) floor, and (V^-1)_00 = 8e118.
    Physical states cannot reach such a gain (``symplectic.MAX_ENTRY``)."""
    m = 11
    w = np.diag(np.r_[2.0**-36, np.full(m - 1, 1.0 + 2.0**-36)])
    i = np.arange(1, m)
    w[i, i - 1] = w[i - 1, i] = -2.0**-18
    cov = np.eye(2 * m + 2)
    cov[np.ix_(2 * np.arange(m), 2 * np.arange(m))] = 2.0 * w
    cov[0, 2 * m] = cov[2 * m, 0] = g
    return GaussianState(mean=np.zeros(2 * m + 2), cov=cov), DyneSpec(
        modes=tuple(range(m)), kind=DyneKind.HOMODYNE_X)


def test_condition_refuses_a_state_it_conditions_beyond_float64():
    """Outcomes within the entry bound, on a state that is not physical, can
    still overflow the conditioned mean (8e298 x the x_0 outcome here) or
    covariance (8e118 g^2); ``condition`` refuses both."""
    state, spec = _chained_state(1e90)
    assert condition(state, spec, np.r_[1e99, np.zeros(10)]).mean[0] > 1e307
    with np.errstate(over="ignore"), pytest.raises(MalformedInput, match="overflows"):
        condition(state, spec, np.r_[1e100, np.zeros(10)])
    state, spec = _chained_state(1e100)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(MalformedInput, match="overflows"):
        condition(state, spec, np.zeros(11))

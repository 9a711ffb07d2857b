import numpy as np
import pytest
from numpy.testing import assert_allclose

from wigner_oracle import TooManyModes, oracle_condition

from cvdist.errors import DegenerateQuadrature, DimensionMismatch
from cvdist.measurements import (
    DyneKind,
    DyneSpec,
    bell_measure,
    condition,
    observable_map,
    outcome_law,
    sample_outcome,
)
from cvdist.states import (
    apply_symplectic,
    random_state,
    tensor,
    tmsv,
    vacuum,
)
from cvdist.symplectic import beamsplitter, embed, squeezer

COSH1 = 1.5430806348152437

HET0 = DyneSpec(modes=(0,), kind=DyneKind.HETERODYNE)
HET1 = DyneSpec(modes=(1,), kind=DyneKind.HETERODYNE)
HOMX1 = DyneSpec(modes=(1,), kind=DyneKind.HOMODYNE_X)


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


def test_condition_validation():
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), DyneSpec(modes=(2,), kind=DyneKind.HOMODYNE_X), [0.0])
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), HET1, [0.0])  # wrong outcome length
    with pytest.raises(DimensionMismatch):
        condition(tmsv(0.3), DyneSpec(modes=(0, 1), kind=DyneKind.HETERODYNE),
                  np.zeros(4))  # nothing would remain


def test_general_dyne_requires_physical_gamma_m():
    from cvdist.errors import NotPhysical

    spec = DyneSpec(modes=(1,), kind=DyneKind.GENERAL, gamma_m=0.5 * np.eye(2))
    with pytest.raises(NotPhysical):
        condition(tmsv(0.3), spec, [0.0, 0.0])


# -- outcome statistics ---------------------------------------------------------


def test_outcome_law_vacuum_homodyne_variance():
    mean, cov = outcome_law(vacuum(1), DyneSpec(modes=(0,), kind=DyneKind.HOMODYNE_X))
    assert_allclose(mean, [0.0])
    assert_allclose(cov, [[0.5]])


def test_sampled_variance_matches_law():
    # empirical covariance over 1e5 draws from the sampling law, 3 sigma bands
    rng = np.random.default_rng(5)
    state = tmsv(0.4)
    for spec in (HET1, HOMX1, DyneSpec(modes=(0,), kind=DyneKind.GENERAL,
                                       gamma_m=np.diag([2.0, 0.5]))):
        mean, cov = outcome_law(state, spec)
        n = 100_000
        draws = mean + rng.standard_normal((n, mean.size)) @ np.linalg.cholesky(cov).T
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


@pytest.mark.parametrize("call", [
    lambda st, sp: condition(st, sp, [0.1, -0.2]),
    lambda st, sp: outcome_law(st, sp),
    lambda st, sp: observable_map(st, sp),
    lambda st, sp: sample_outcome(st, sp, 5),
], ids=["condition", "outcome_law", "observable_map", "sample_outcome"])
def test_public_calls_validate_the_spec_once(monkeypatch, call):
    calls = []
    validate = DyneSpec.validate_for
    monkeypatch.setattr(DyneSpec, "validate_for",
                        lambda self, state: calls.append(1) or validate(self, state))
    call(tmsv(0.3), HET1)
    assert len(calls) == 1


def test_record_observable_map():
    m = observable_map(tmsv(0.3), HOMX1)
    assert m.shape == (1, 4)
    assert_allclose(m, [[0.0, 0.0, 1.0, 0.0]])


# -- Bell measurement ----------------------------------------------------------


def test_bell_outcome_statistics_on_tmsv():
    # probability variance of x1 - x2 is (M Gamma M^T)/2 = e^{-2r}
    rec = bell_measure(tmsv(0.5), (0, 1), 0)
    m = rec.observable_map
    prob_var = np.diag(m @ tmsv(0.5).cov @ m.T) / 2.0
    assert_allclose(prob_var, [np.exp(-1.0), np.exp(-1.0)], atol=1e-12)
    assert_allclose(prob_var[0], 0.36787944117144233, atol=1e-12)
    rng = np.random.default_rng(8)
    draws = np.array([bell_measure(tmsv(0.5), (0, 1), rng).outcome
                      for _ in range(8000)])
    assert np.abs(draws.var(axis=0) - np.exp(-1.0)).max() <= 0.03
    assert rec.conditioned_state is None  # the pair was the whole state


def test_bell_on_vacuum_unit_variances():
    rec = bell_measure(vacuum(2), (0, 1), 2)
    m = rec.observable_map
    assert_allclose(np.diag(m @ np.eye(4) @ m.T) / 2.0, [1.0, 1.0])


def test_bell_on_identical_coherent_states_x_difference_centred():
    state = vacuum(2).with_mean([0.9, -0.4, 0.9, -0.4])
    rec = bell_measure(state, (0, 1), 4)
    assert_allclose(rec.observable_map @ state.mean, [0.0, -0.8])
    rng = np.random.default_rng(10)
    draws = np.array([bell_measure(state, (0, 1), rng).outcome[0]
                      for _ in range(4000)])
    assert abs(draws.mean()) <= 0.06


def test_bell_matches_direct_joint_conditioning(rng):
    # beamsplitter + two homodynes versus conditioning on M r = outcome
    state = random_state(3, rng, nu_spread=1.0, symplectic_scale=0.4, mean_scale=0.5)
    rec = bell_measure(state, (2, 0), 77)
    m = rec.observable_map
    gm = m @ state.cov @ m.T
    gain = state.cov @ m.T @ np.linalg.inv(gm)
    cond_cov = state.cov - gain @ m @ state.cov
    cond_mean = state.mean + gain @ (rec.outcome - m @ state.mean)
    keep = [2, 3]  # quadratures of the unmeasured mode 1
    assert_allclose(rec.conditioned_state.cov, cond_cov[np.ix_(keep, keep)], atol=1e-10)
    assert_allclose(rec.conditioned_state.mean, cond_mean[keep], atol=1e-10)


def test_bell_forced_outcome():
    joint = tensor(tmsv(0.4), vacuum(1))
    rec = bell_measure(joint, (0, 1), None, outcome=(0.3, -0.7))
    assert_allclose(rec.outcome, [0.3, -0.7])
    rec2 = bell_measure(joint, (0, 1), None, outcome=(0.3, -0.7))
    assert np.array_equal(rec.conditioned_state.cov, rec2.conditioned_state.cov)


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
    joint = tensor(single, ch.choi_state)  # (in, choi_in, choi_out)
    mixed = apply_symplectic(joint, embed(beamsplitter(0.5), (1, 0), 3))
    xi_x, xi_p = 0.35, -0.15
    step1 = oracle_condition(mixed, DyneSpec((0,), DyneKind.HOMODYNE_X), [xi_x])
    step2 = oracle_condition(step1, DyneSpec((0,), DyneKind.HOMODYNE_P), [xi_p])
    x_d, p_d = -np.sqrt(2.0) * xi_x, np.sqrt(2.0) * xi_p
    ref = apply_channel(ch, single)
    corr = conditional_output_mean(ch, single, [x_d, p_d])
    assert np.abs(step2.cov - ref.cov).max() <= 1e-6
    assert np.abs(step2.mean - corr).max() <= 1e-6

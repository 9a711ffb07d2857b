import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from wigner_oracle import oracle_condition

from cvdist.channels import (
    GaussianChannel,
    apply,
    attenuation_channel,
    choi_from_truncated_epr,
    conditional_displacement,
    filter_channel,
    make_separable_channel,
    random_locc_spec,
)
from cvdist.entanglement import BipartiteSplit
from cvdist.errors import DimensionMismatch, NotPure, NotThreeMode, ParamOutOfRange
from cvdist.measurements import DyneKind, DyneSpec, condition, sample_outcome
from cvdist.protocols import build_fig2, canonicalize_pure_3mode, run_fig1
from cvdist.states import (
    apply_symplectic,
    random_state,
    tensor,
    thermal,
    tmsv,
    vacuum,
)
from cvdist.symplectic import beamsplitter, embed, mode_permutation, random_symplectic

SPLIT01 = BipartiteSplit((0,), (1,))


def _eq12_state(rng, r=0.7):
    """Pure three-mode state: tmsv(r) on (input1, output), vacuum ancilla on
    input2, then a random input-side two-mode symplectic."""
    s_i = random_symplectic(2, rng, scale=0.5)
    state = tensor(tmsv(r), vacuum(1))  # (in1, out, in2)
    state = apply_symplectic(state, mode_permutation((0, 2, 1), 3))  # (in1, in2, out)
    return apply_symplectic(state, block_diag(s_i, np.eye(2)))


# -- run_fig1 -------------------------------------------------------------------


def test_fig1_identity_approx_on_vacuum(rng):
    run = run_fig1(choi_from_truncated_epr(1, 0.5), vacuum(1), 10, rng)
    assert run.max_cov_deviation <= 1e-12
    assert run.max_mean_deviation <= 1e-12


def test_fig1_uncorrelated_channel_zero_correction(rng):
    ch = GaussianChannel(n_in=1, n_out=1,
                         choi_cov=tensor(thermal(0.4), thermal(1.0)).cov)
    run = run_fig1(ch, vacuum(1), 10, rng)
    assert_allclose(run.corrected_output.cov, ch.b_block)
    assert run.max_cov_deviation <= 1e-12
    assert run.max_mean_deviation <= 1e-12


def test_fig1_random_locc_on_tmsv_matches_apply(rng):
    ch = make_separable_channel(random_locc_spec(rng))
    run = run_fig1(ch, tmsv(0.5), 100, rng)
    # every sampled outcome shares one covariance, equal to the closed form
    assert run.max_cov_deviation <= 1e-10
    assert run.max_mean_deviation <= 1e-9
    assert len(run.sampled_outcomes) == 100
    assert_allclose(run.reference_output.cov, apply(ch, tmsv(0.5)).cov)


def test_fig1_nonzero_mean_input_is_recentred(rng):
    ch = GaussianChannel(
        n_in=2, n_out=1,
        choi_cov=random_state(3, rng, nu_spread=0.7, symplectic_scale=0.35).cov,
    )
    state = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.4, mean_scale=0.8)
    run = run_fig1(ch, state, 20, rng)
    assert run.max_cov_deviation <= 1e-9
    assert run.max_mean_deviation <= 1e-9


def test_fig1_corrupted_correction_is_detected(rng):
    ch = make_separable_channel(random_locc_spec(rng))
    run = run_fig1(ch, tmsv(0.5), 5, rng, correction_scale=0.9)
    assert run.max_mean_deviation > 1e-3  # negative control


def test_fig1_checks_the_conditioning_matrix_once(rng, monkeypatch):
    # the reference and every correction share one (A + R G R) and its check
    ch, state = make_separable_channel(random_locc_spec(rng)), tmsv(0.5)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    run_fig1(ch, state, 10, rng)
    assert len(calls) == 1


def test_fig1_dimension_check(rng):
    with pytest.raises(DimensionMismatch):
        run_fig1(filter_channel(0.3), vacuum(2), 2, rng)


@pytest.mark.parametrize("n_samples", [0, -4])
def test_fig1_rejects_non_positive_sample_count(rng, n_samples):
    with pytest.raises(ParamOutOfRange):
        run_fig1(filter_channel(0.3), vacuum(1), n_samples, rng)


def _oracle_fig1(channel, input_state, n_samples, rng):
    """Per-sample object-level Fig. 1: one state per Bell sample, every
    homodyne drawn and conditioned on its own, one displacement per sample.

    Returns the outcomes (n_samples, 2 n_in), the last corrected covariance
    and the corrected means (n_samples, 2 n_out).
    """
    n_in = channel.n_in
    choi_in = [n_in + m for m in channel.input_modes]
    joint = tensor(input_state, channel.choi_state)
    outcomes, means = [], []
    for _ in range(n_samples):
        state = joint
        live = list(range(joint.modes))
        r_d = np.empty(2 * n_in)
        for j in range(n_in):
            a, b = live.index(choi_in[j]), live.index(j)
            mixed = apply_symplectic(state, embed(beamsplitter(0.5), (a, b), state.modes))
            rec_x = sample_outcome(mixed, DyneSpec((b,), DyneKind.HOMODYNE_X), rng)
            a_after = a if a < b else a - 1
            rec_p = sample_outcome(rec_x.conditioned_state,
                                   DyneSpec((a_after,), DyneKind.HOMODYNE_P), rng)
            state = rec_p.conditioned_state
            r_d[2 * j:2 * j + 2] = np.sqrt(2.0) * np.array(
                [-rec_x.outcome[0], rec_p.outcome[0]])
            live.remove(choi_in[j])
            live.remove(j)
        outcomes.append(r_d)
        means.append(state.mean - conditional_displacement(channel, input_state, r_d))
    return np.array(outcomes), state.cov, np.array(means)


def _pin_cases():
    """Random channels of every shape with nonzero Choi and input means, then
    near-ideal identity (one and two modes) and attenuation channels."""
    rng = np.random.default_rng(4)
    cases = []
    for k, (n_in, n_out) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)] * 2):
        ch = GaussianChannel(
            n_in=n_in, n_out=n_out,
            choi_cov=random_state(n_in + n_out, rng, nu_spread=0.8,
                                  symplectic_scale=0.35).cov,
            choi_mean=rng.normal(0.0, 0.5, size=2 * (n_in + n_out)),
        )
        state = random_state(n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                             mean_scale=0.5)
        cases.append(pytest.param(ch, state, id=f"random-{n_in}-{n_out}-{k}"))
    for name, ch in [("identity-1", choi_from_truncated_epr(1, 6.0)),
                     ("identity-2", choi_from_truncated_epr(2, 6.0)),
                     ("attenuation", attenuation_channel(0.3, 6.0))]:
        state = random_state(ch.n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                             mean_scale=0.8)
        cases.append(pytest.param(ch, state, id=name))
    return cases


@pytest.mark.parametrize("ch, state", _pin_cases())
def test_fig1_batched_matches_per_sample_oracle(ch, state):
    rng_run = np.random.default_rng(11)
    rng_oracle = np.random.default_rng(11)
    run = run_fig1(ch, state, 25, rng_run)
    outcomes, cov, means = _oracle_fig1(ch, state, 25, rng_oracle)

    assert rng_run.bit_generator.state == rng_oracle.bit_generator.state
    assert np.abs(np.array(run.sampled_outcomes) - outcomes).max() <= 1e-10
    assert np.abs(run.corrected_output.cov - cov).max() <= 1e-10
    assert np.abs(run.corrected_output.mean - means[-1]).max() <= 1e-10
    reference = apply(ch, state)
    oracle_mean_dev = np.abs(means - reference.mean).max()
    assert abs(run.max_mean_deviation - oracle_mean_dev) <= 1e-10
    assert abs(run.max_cov_deviation - np.abs(cov - reference.cov).max()) <= 1e-10


@pytest.mark.parametrize("ch", [choi_from_truncated_epr(1, 6.0),
                                choi_from_truncated_epr(2, 6.0),
                                attenuation_channel(0.3, 6.0)],
                         ids=["identity-1", "identity-2", "attenuation"])
def test_fig1_reproduces_channel_mean_action(rng, ch):
    # inputs with nonzero means: the corrected output must carry the
    # channel's action on them, not be re-centred at zero
    state = random_state(ch.n_in, rng, nu_spread=1.0, symplectic_scale=0.4)
    state = state.with_mean(np.linspace(0.6, -0.9, 2 * ch.n_in))
    run = run_fig1(ch, state, 50, rng)
    assert np.abs(run.reference_output.mean).max() > 0.3
    assert run.max_mean_deviation <= 1e-9
    assert run.max_cov_deviation <= 1e-9
    assert_allclose(run.corrected_output.mean, apply(ch, state).mean, atol=1e-9)


# -- canonical form --------------------------------------------------------------


def test_canonicalize_eq12_states(rng):
    a_expected = np.cosh(1.4)
    for _ in range(20):
        form = canonicalize_pure_3mode(_eq12_state(rng, r=0.7), (0, 1), 2)
        assert abs(form.a - a_expected) <= 1e-8
        assert abs(form.c - a_expected) <= 1e-8
        assert abs(form.b - 1.0) <= 1e-8
        assert abs(form.a - form.c) <= 1e-8
        assert max(abs(form.e1), abs(form.e2), abs(form.e3)) <= 1e-8
        assert form.d1 >= abs(form.d2) - 1e-12  # tied magnitudes for tmsv-type
        assert form.d1 >= 0.0
        assert np.abs(form.canonical_state.cov - form.pattern_cov()).max() <= 1e-8


def test_canonicalize_vacuum():
    form = canonicalize_pure_3mode(vacuum(3), (0, 1), 2)
    assert_allclose([form.a, form.b, form.c], [1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose([form.d1, form.d2, form.e1, form.e2, form.e3],
                    np.zeros(5), atol=1e-12)


def test_canonicalize_is_idempotent(rng):
    form = canonicalize_pure_3mode(_eq12_state(rng), (0, 1), 2)
    again = canonicalize_pure_3mode(form.canonical_state, (0, 1), 2)
    for name in ("a", "b", "c", "d1", "d2", "e1", "e2", "e3"):
        assert abs(getattr(again, name) - getattr(form, name)) <= 1e-10


def test_canonicalize_input_mode_labelling(rng):
    # the same state with inputs listed in the other order gives the same
    # canonical parameters
    state = _eq12_state(rng)
    f1 = canonicalize_pure_3mode(state, (0, 1), 2)
    f2 = canonicalize_pure_3mode(state, (1, 0), 2)
    for name in ("a", "b", "c", "d1", "d2"):
        assert abs(getattr(f1, name) - getattr(f2, name)) <= 1e-8


def test_canonicalize_rejects_mixed_and_wrong_modes(rng):
    with pytest.raises(NotPure):
        canonicalize_pure_3mode(
            tensor(thermal(0.5), tmsv(0.3)), (0, 1), 2
        )
    with pytest.raises(NotThreeMode):
        canonicalize_pure_3mode(tmsv(0.3), (0, 1), 1)
    with pytest.raises(DimensionMismatch):
        canonicalize_pure_3mode(_eq12_state(rng), (0, 1), 1)


# -- build_fig2 -----------------------------------------------------------------


def test_fig2_identity_consumes_second_copy():
    pro = build_fig2(np.eye(4), np.eye(4), tmsv(0.5), tmsv(0.5))
    assert_allclose(pro.output.cov, tmsv(0.5).cov, atol=1e-12)
    assert abs(pro.report.log_negativity - 1.0) <= 1e-9


def test_fig2_beamsplitters_do_not_distill():
    bs = beamsplitter(0.5)
    pro = build_fig2(bs, bs, tmsv(0.5), tmsv(0.5))
    assert pro.report.log_negativity <= 1.0 + 1e-9


def test_fig2_product_copies_stay_unentangled(rng):
    copy = tensor(thermal(0.3), thermal(0.2))
    for _ in range(20):
        s_a = random_symplectic(2, rng, scale=0.6)
        s_b = random_symplectic(2, rng, scale=0.6)
        pro = build_fig2(s_a, s_b, copy, copy)
        assert pro.report.log_negativity <= 1e-10


def test_fig2_output_covariance_outcome_independent(rng):
    bs = beamsplitter(0.5)
    base = build_fig2(bs, bs, tmsv(0.5), tmsv(0.5))
    for k in range(10):
        sampled = build_fig2(bs, bs, tmsv(0.5), tmsv(0.5),
                             seed=k, sample_heterodyne=True)
        assert np.abs(sampled.output.cov - base.output.cov).max() <= 1e-10
        assert np.abs(sampled.output.mean).max() == 0.0  # recentred


def test_fig2_validation(rng):
    with pytest.raises(DimensionMismatch):
        build_fig2(np.eye(4), np.eye(4), vacuum(1), tmsv(0.2))
    from cvdist.errors import NotSymplectic
    with pytest.raises(NotSymplectic):
        build_fig2(np.diag([2.0, 1.0, 1.0, 1.0]), np.eye(4), tmsv(0.2), tmsv(0.2))


# -- vacuum projection -----------------------------------------------------------


def test_vacuum_projection_matches_oracle(rng):
    # the heterodyne-at-0 vacuum projection step, cross-checked by integration
    state = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35, mean_scale=0.3)
    spec = DyneSpec((1,), DyneKind.HETERODYNE)
    closed = condition(state, spec, [0.0, 0.0])
    grid = oracle_condition(state, spec, [0.0, 0.0])
    assert np.abs(closed.cov - grid.cov).max() <= 1e-6
    assert np.abs(closed.mean - grid.mean).max() <= 1e-6

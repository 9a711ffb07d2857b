import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from wigner_oracle import oracle_condition

from cvdist.channels import (
    GaussianChannel,
    apply,
    choi_from_truncated_epr,
    filter_channel,
    make_separable_channel,
    random_locc_spec,
)
from cvdist.entanglement import BipartiteSplit
from cvdist.errors import DimensionMismatch, NotPure, NotThreeMode
from cvdist.measurements import DyneKind, DyneSpec, condition
from cvdist.protocols import build_fig2, canonicalize_pure_3mode, run_fig1
from cvdist.states import (
    apply_symplectic,
    random_state,
    tensor,
    thermal,
    tmsv,
    vacuum,
)
from cvdist.symplectic import beamsplitter, mode_permutation, random_symplectic

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
    assert run.max_mean_abs <= 1e-12


def test_fig1_uncorrelated_channel_zero_correction(rng):
    ch = GaussianChannel(n_in=1, n_out=1,
                         choi_cov=tensor(thermal(0.4), thermal(1.0)).cov)
    run = run_fig1(ch, vacuum(1), 10, rng)
    assert_allclose(run.corrected_output.cov, ch.b_block)
    assert run.max_cov_deviation <= 1e-12
    assert run.max_mean_abs <= 1e-12


def test_fig1_random_locc_on_tmsv_matches_apply(rng):
    ch = make_separable_channel(random_locc_spec(rng))
    run = run_fig1(ch, tmsv(0.5), 100, rng)
    # every sampled outcome shares one covariance, equal to the closed form
    assert run.max_cov_deviation <= 1e-10
    assert run.max_mean_abs <= 1e-9
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
    assert run.max_mean_abs <= 1e-9


def test_fig1_corrupted_correction_is_detected(rng):
    ch = make_separable_channel(random_locc_spec(rng))
    run = run_fig1(ch, tmsv(0.5), 5, rng, correction_scale=0.9)
    assert run.max_mean_abs > 1e-3  # negative control


def test_fig1_dimension_check(rng):
    with pytest.raises(DimensionMismatch):
        run_fig1(filter_channel(0.3), vacuum(2), 2, rng)


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

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from channel_helpers import (
    choi_state,
    conditional_displacement,
    correlated_channel,
    output_modes,
    transposition_matrix,
    witness_cov,
)
from fock_oracle import tmsv_cov_from_lambda

from cvdist.channels import (
    GaussianChannel,
    apply,
    attenuation_channel,
    choi_from_truncated_epr,
    conditional_output_mean,
    filter_channel,
    random_locc_channel,
)
from cvdist.errors import (
    DegenerateQuadrature,
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    ParamOutOfRange,
)
from cvdist.measurements import DyneKind, DyneSpec, _bell_plan, _dyne_plan, condition
from cvdist.protocols import run_fig1
from cvdist.states import (
    GaussianState,
    partial_trace,
    random_state,
    tensor,
    thermal,
    tmsv,
    vacuum,
)
from cvdist.symplectic import (
    _momentum_flip,
    quad_indices,
    squeezer,
    symplectic_eigenvalues,
)

TANH_HALF = 0.46211715726000974


def tensor_channels(a: GaussianChannel, b: GaussianChannel) -> GaussianChannel:
    """Parallel composition; Choi covariances combine block-diagonally."""
    return GaussianChannel(
        n_in=a.n_in + b.n_in,
        n_out=a.n_out + b.n_out,
        choi_cov=block_diag(a.choi_cov, b.choi_cov),
        choi_mean=np.concatenate([a.choi_mean, b.choi_mean]),
        partition=a.partition + b.partition,
    )


def test_transposition_matrix():
    r = transposition_matrix(2)
    assert_allclose(r, np.diag([1.0, -1.0, 1.0, -1.0]))
    assert_allclose(r @ r, np.eye(4))


def test_tmsv_choi_acts_as_identity_on_vacuum():
    # B - C^T (A + I)^{-1} C collapses via cosh^2 - sinh^2 = 1
    for r in (0.2, 0.5, 1.3):
        out = apply(filter_channel(r), vacuum(1))
        assert_allclose(out.cov, np.eye(2), atol=1e-12)
        assert_allclose(out.mean, np.zeros(2), atol=1e-14)


def test_uncorrelated_choi_ignores_input(rng):
    # C = 0: output is the B block regardless of the input state
    choi = tensor(thermal(0.4), thermal(1.1))
    ch = GaussianChannel(n_in=1, n_out=1, choi_cov=choi.cov)
    for state in (vacuum(1), random_state(1, rng, nu_spread=1.0, mean_scale=1.0)):
        out = apply(ch, state)
        assert_allclose(out.cov, partial_trace(choi_state(ch), output_modes(ch)).cov)
        assert_allclose(out.mean, np.zeros(2), atol=1e-14)


def test_filter_on_half_tmsv_composes_tanh():
    # spectator mode handled by a strongly squeezed identity approximation;
    # expected covariance from the independent Fock-space sum
    s, r = 0.5, 0.5
    big = tensor_channels(filter_channel(r), choi_from_truncated_epr(1, 9.0))
    out = apply(big, tmsv(s))
    lam = np.tanh(s) * np.tanh(r)
    assert abs(lam - TANH_HALF**2) <= 1e-12
    assert np.abs(out.cov - tmsv_cov_from_lambda(lam)).max() <= 1e-6


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_in=0, n_out=1, choi_cov=np.eye(2)), "^mode count must be >= 1, got 0$"),
    (dict(n_in=1, n_out=1, choi_cov=tmsv(0.3).cov, partition=("in", "in")), "partition"),
    (dict(n_in=1, n_out=2, choi_cov=tmsv(0.3).cov, choi_mean=np.zeros(4)),
     "choi_cov of 2 modes"),
], ids=["no-input", "partition", "choi-modes"])
def test_channel_refuses_an_inconsistent_layout(kwargs, message):
    with pytest.raises(DimensionMismatch, match=message):
        GaussianChannel(**kwargs)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(filter_channel(0.5), vacuum(2))


def test_near_ideal_choi_states_are_physical():
    for n in (1, 2):
        for r_approx in np.arange(0.5, 15.01, 0.5):
            choi_from_truncated_epr(n, r_approx)


def test_choi_state_with_a_hidden_sub_vacuum_mode_is_refused():
    # nu = 1 - 1e-7 behind squeezing (condition number 1.6e5): Gamma + i Omega
    # has eigenvalue -5e-10, which an absolute 1e-9 allowance let through
    with pytest.raises(NotPhysical) as exc:
        GaussianChannel(n_in=1, n_out=1, choi_cov=(1.0 - 1e-7) * tmsv(3.0).cov)
    assert type(exc.value) is NotPhysical


def test_channel_squeezed_along_its_axes_is_applied_exactly():
    # A + I has condition number 1.2e14, but its pivots are its diagonal:
    # float64 matches the 50-digit Schur complement of the same inputs
    sq = block_diag(squeezer(16.0), np.eye(2))
    ch = GaussianChannel(n_in=1, n_out=1, choi_cov=sq @ tmsv(0.5).cov @ sq.T)
    v = ch.choi_cov[:2, :2] + np.eye(2)
    assert np.linalg.cond(v) > 1e14
    out = apply(ch, vacuum(1))
    with mpmath.workdps(50):
        g = mpmath.matrix(ch.choi_cov.tolist())
        a, c, b = g[0:2, 0:2], g[0:2, 2:4], g[2:4, 2:4]
        ref = np.array((b - c.T * mpmath.inverse(a + mpmath.eye(2)) * c).tolist(), dtype=float)
    assert np.abs(out.cov - ref).max() <= 1e-15 * np.abs(ref).max()


def _conditioning_matrix(ch, state):
    r = transposition_matrix(ch.n_in)
    return ch.choi_cov[ch._plan.meas_meas] + r @ state.cov @ r


def test_channel_whose_conditioning_cancels_is_refused():
    # each V factors, but a pivot is below 1e-12 of its diagonal entry
    rng = np.random.default_rng(19)
    for _ in range(3):
        ch, state = correlated_channel(6, rng), tmsv(3.0)
        v = _conditioning_matrix(ch, state)
        pivots = np.diag(np.linalg.cholesky(v)) ** 2
        assert 1e-14 < (pivots / np.diag(v)).min() < 1e-12
        with pytest.raises(DegenerateQuadrature, match="variance below"):
            apply(ch, state)
        with pytest.raises(DegenerateQuadrature, match="variance below"):
            run_fig1(ch, state, 3, rng)


def test_conditioning_matrix_that_does_not_factor_is_refused_by_name():
    # numpy's own LinAlgError does not escape
    ch, state = correlated_channel(9, np.random.default_rng(19)), tmsv(3.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(_conditioning_matrix(ch, state))
    for call in (lambda: apply(ch, state),
                 lambda: conditional_output_mean(ch, state, np.zeros(4))):
        with pytest.raises(DegenerateQuadrature, match=r"^the channel's conditioning "
                           r"matrix A \+ R Gamma R .*not positive definite"):
            call()


def test_conditional_displacement_gain():
    d = conditional_displacement(filter_channel(0.5), vacuum(1), [1.0, 1.0])
    assert_allclose(d, [TANH_HALF, -TANH_HALF], atol=1e-12)


def test_conditional_displacement_trivial_cases(rng):
    ch = filter_channel(0.7)
    assert_allclose(conditional_displacement(ch, vacuum(1), [0.0, 0.0]), np.zeros(2))
    flat = GaussianChannel(n_in=1, n_out=1, choi_cov=tensor(thermal(0.2), thermal(0.9)).cov)
    rd = rng.normal(size=2)
    assert_allclose(conditional_displacement(flat, vacuum(1), rd), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-3, 3), b=st.floats(-3, 3),
    ux=st.floats(-2, 2), up=st.floats(-2, 2),
    vx=st.floats(-2, 2), vp=st.floats(-2, 2),
)
def test_conditional_displacement_is_linear(a, b, ux, up, vx, vp):
    ch = filter_channel(0.6)
    state = tmsv(0.3)
    u = np.array([ux, up, 0.3, -0.1])
    v = np.array([vx, vp, -0.7, 0.2])
    lhs = conditional_displacement(ch, vacuum(1), (a * u + b * v)[:2])
    rhs = a * conditional_displacement(ch, vacuum(1), u[:2]) + \
        b * conditional_displacement(ch, vacuum(1), v[:2])
    assert np.abs(lhs - rhs).max() <= 1e-12
    del state


def test_conditional_displacement_accepts_a_stack(rng):
    ch = GaussianChannel(
        n_in=2, n_out=1,
        choi_cov=random_state(3, rng, nu_spread=0.7, symplectic_scale=0.35).cov,
    )
    state = random_state(2, rng, mean_scale=0.5)
    stack = rng.normal(size=(7, 4))
    rows = np.array([conditional_displacement(ch, state, r) for r in stack])
    assert conditional_displacement(ch, state, stack).shape == (7, 2)
    assert np.abs(conditional_displacement(ch, state, stack) - rows).max() <= 1e-14
    means = np.array([conditional_output_mean(ch, state, r) for r in stack])
    assert np.abs(conditional_output_mean(ch, state, stack) - means).max() <= 1e-14
    with pytest.raises(DimensionMismatch):
        conditional_displacement(ch, state, rng.normal(size=(7, 2)))


def test_conditional_output_mean_reduces_to_displacement(rng):
    ch = filter_channel(0.6)
    state = vacuum(1)  # zero mean
    rd = rng.normal(size=2)
    assert_allclose(
        conditional_output_mean(ch, state, rd),
        conditional_displacement(ch, state, rd),
        atol=1e-14,
    )


# -- identity approximation ----------------------------------------------------


def test_truncated_epr_identity_on_vacuum():
    for r_approx in (0.3, 1.0, 4.0):
        out = apply(choi_from_truncated_epr(1, r_approx), vacuum(1))
        assert_allclose(out.cov, np.eye(2), atol=1e-10)


def test_truncated_epr_convergence():
    target = GaussianState(mean=np.zeros(2), cov=np.diag([2.0, 0.5]))
    errs = []
    for r_approx in (1.0, 2.0, 3.0, 5.0):
        out = apply(choi_from_truncated_epr(1, r_approx), target)
        errs.append(np.abs(out.cov - target.cov).max())
    assert errs == sorted(errs, reverse=True)  # monotone convergence
    assert errs[-1] < 1e-3  # r_approx = 5


def test_truncated_epr_two_modes_block_structure():
    ch = choi_from_truncated_epr(2, 0.8)
    assert ch.n_in == 2 and ch.n_out == 2
    assert ch.partition == ("in", "out", "in", "out")
    pair = tmsv(0.8).cov
    assert_allclose(ch.choi_cov[:4, :4], pair)
    assert_allclose(ch.choi_cov[4:, 4:], pair)
    assert_allclose(ch.choi_cov[:4, 4:], np.zeros((4, 4)))


def test_truncated_epr_requires_positive_squeezing():
    with pytest.raises(ParamOutOfRange):
        choi_from_truncated_epr(1, 0.0)


@pytest.mark.parametrize("n", [0, -1])
def test_truncated_epr_requires_a_mode(n):
    with pytest.raises(DimensionMismatch, match="mode count must be >= 1"):
        choi_from_truncated_epr(n, 6.0)


@pytest.mark.parametrize("r_approx", [0.1, 1.0, 6.0, 15.0])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.77, 1.0])
def test_attenuation_choi_is_the_block_formula(eta, r_approx):
    # [[ch I, sqrt(eta) sh Z], [sqrt(eta) sh Z, (eta ch + 1 - eta) I]] with ch, sh of
    # 2 r_approx, bit for bit, signed zeros included
    ch, sh = np.cosh(2.0 * r_approx), np.sinh(2.0 * r_approx)
    cross = np.sqrt(eta) * sh * np.diag([1.0, -1.0])
    expected = np.block([[ch * np.eye(2), cross],
                         [cross, (eta * ch + 1.0 - eta) * np.eye(2)]])
    got = attenuation_channel(eta, r_approx).choi_cov
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_attenuation_channel(rng):
    ch = attenuation_channel(0.7, 8.0)
    state = random_state(1, rng, nu_spread=1.0)
    out = apply(ch, state)
    assert np.abs(out.cov - (0.7 * state.cov + 0.3 * np.eye(2))).max() <= 1e-5


# -- tensor composition ----------------------------------------------------------


def test_double_identity_approx_on_tmsv():
    both = tensor_channels(choi_from_truncated_epr(1, 8.0), choi_from_truncated_epr(1, 8.0))
    out = apply(both, tmsv(0.5))
    assert np.abs(out.cov - tmsv(0.5).cov).max() <= 1e-5


def test_tensor_with_discard_and_replace_factorizes(rng):
    replace = GaussianChannel(n_in=1, n_out=1, choi_cov=tensor(thermal(0.3), thermal(0.8)).cov)
    both = tensor_channels(choi_from_truncated_epr(1, 7.0), replace)
    out = apply(both, tmsv(0.5))
    # second output decoupled from the first and equal to the replaced thermal
    assert np.abs(out.cov[:2, 2:]).max() <= 1e-5
    assert_allclose(out.cov[2:, 2:], thermal(0.8).cov, atol=1e-10)


def test_tensor_channels_bookkeeping():
    a = choi_from_truncated_epr(2, 1.0)
    b = filter_channel(0.4)
    both = tensor_channels(a, b)
    assert both.n_in == 3 and both.n_out == 3
    assert both.partition == a.partition + b.partition


def test_partition_bookkeeping_is_computed_once(rng):
    partition = ("out", "in", "out", "in")
    ch = GaussianChannel(n_in=2, n_out=2, partition=partition,
                         choi_cov=random_state(4, rng, nu_spread=0.8).cov)
    ins = tuple(i for i, p in enumerate(partition) if p == "in")
    outs = tuple(i for i, p in enumerate(partition) if p == "out")
    assert ch.input_modes == ins == (1, 3)
    assert output_modes(ch) == outs == (0, 2)
    assert ch._plan is _dyne_plan(4, ins, DyneKind.GENERAL)
    q_in, q_out = quad_indices(ins), quad_indices(outs)
    assert np.array_equal(ch._plan.meas, q_in) and np.array_equal(ch._plan.keep, q_out)
    assert np.array_equal(ch.choi_cov[ch._plan.meas_meas], ch.choi_cov[np.ix_(q_in, q_in)])
    for name in ("input_modes", "_plan"):
        assert getattr(ch, name) is getattr(ch, name)
    assert ch._plan.meas is ch._plan.meas and ch._plan.keep is ch._plan.keep
    assert not ch._plan.meas.flags.writeable and not ch._plan.keep.flags.writeable


def test_layout_plans_are_shared_and_read_only(rng):
    cov = random_state(4, rng, nu_spread=0.8).cov
    ch, same = (GaussianChannel(n_in=2, n_out=2, choi_cov=cov) for _ in range(2))
    other = GaussianChannel(n_in=2, n_out=2, choi_cov=cov,
                            partition=("out", "in", "out", "in"))
    assert ch._plan is same._plan and ch._plan is not other._plan
    assert ch._plan is _dyne_plan(4, (0, 1), DyneKind.GENERAL)

    # a second channel of a planned layout plans nothing new
    caches = (_dyne_plan, _bell_plan, _momentum_flip)
    state = random_state(2, rng, nu_spread=0.8, mean_scale=0.5)
    run_fig1(ch, state, 3, rng)
    apply(ch, state)
    misses = [cache.cache_info().misses for cache in caches]
    run_fig1(same, state, 3, rng)
    apply(same, state)
    assert [cache.cache_info().misses for cache in caches] == misses

    plans = [ch._plan, other._plan, _bell_plan(6, ((2, 0), (3, 1))), _bell_plan(2, ((0, 1),))]
    plans += [_dyne_plan(3, (2, 0), kind) for kind in DyneKind]
    arrays = [*_momentum_flip(1, (0,)), *_momentum_flip(2, (0, 1)), *_momentum_flip(2, (1,))]
    for plan in plans:
        for value in vars(plan).values():
            arrays += value if isinstance(value, tuple) else (value,)
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


# -- separable channels ---------------------------------------------------------


def test_two_sided_filter_composes_tanh_squared():
    # gamma_A = gamma_B = tmsv(r) witness blocks, no classical noise: two
    # independent local filters; Fock oracle fixes the expected output
    r, s = 0.5, 0.5
    cov = witness_cov(tmsv(r).cov, tmsv(r).cov, np.zeros((8, 8)))
    ch = GaussianChannel(n_in=2, n_out=2, choi_cov=cov,
                         partition=("in", "in", "out", "out"))
    out = apply(ch, tmsv(s))
    lam = np.tanh(s) * np.tanh(r) ** 2
    assert np.abs(out.cov - tmsv_cov_from_lambda(lam)).max() <= 1e-9


def test_random_locc_channel_layout_and_draw_order():
    # Alice on Choi modes (0, 2), Bob on (1, 3); her gamma, his, then the noise
    ch = random_locc_channel(np.random.default_rng(17))
    rng = np.random.default_rng(17)
    gamma_a = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35).cov
    gamma_b = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35).cov
    g = rng.normal(0.0, 0.3, size=(8, 8))
    assert (ch.n_in, ch.n_out) == (2, 2)
    assert ch.partition == ("in", "in", "out", "out")
    assert np.array_equal(ch.choi_cov, witness_cov(gamma_a, gamma_b, g @ g.T / 8.0))
    assert not ch.choi_mean.any()
    # nothing more was drawn
    rest = np.random.default_rng(17)
    random_locc_channel(rest)
    assert rest.random() == rng.random()


def test_apply_outputs_are_physical(rng):
    # randomized corpus: separable and generic channels on random inputs
    for k in range(500):
        if k % 2:
            ch = random_locc_channel(rng)
            state = random_state(2, rng, nu_spread=1.0, symplectic_scale=0.4,
                                 mean_scale=0.4)
        else:
            n_in = 1 + (k // 2) % 2
            n_out = 1 + (k // 3) % 2
            ch = GaussianChannel(
                n_in=n_in, n_out=n_out,
                choi_cov=random_state(n_in + n_out, rng, nu_spread=0.8,
                                      symplectic_scale=0.35).cov,
            )
            state = random_state(n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                                 mean_scale=0.4)
        out = apply(ch, state)
        assert symplectic_eigenvalues(out.cov)[-1] >= 1.0 - 1e-8


def test_apply_matches_general_dyne_conditioning(rng):
    # channel action as conditioning: a general dyne on the Choi input with
    # gamma_m = R Gamma_in R at outcome R d reproduces the channel action
    for _ in range(20):
        n_in = rng.integers(1, 3)
        ch = GaussianChannel(
            n_in=int(n_in), n_out=1,
            choi_cov=random_state(int(n_in) + 1, rng, nu_spread=0.8,
                                  symplectic_scale=0.35).cov,
        )
        state = random_state(int(n_in), rng, nu_spread=0.9, mean_scale=0.6)
        r = transposition_matrix(int(n_in))
        spec = DyneSpec(modes=tuple(range(int(n_in))), kind=DyneKind.GENERAL,
                        gamma_m=r @ state.cov @ r)
        alt = condition(choi_state(ch), spec, r @ state.mean)
        ref = apply(ch, state)
        assert np.abs(alt.cov - ref.cov).max() <= 1e-10
        assert np.abs(alt.mean - ref.mean).max() <= 1e-10


def test_channel_json_roundtrip(rng):
    ch = random_locc_channel(rng)
    back = GaussianChannel.from_dict(json.loads(ch.to_json()))
    assert np.array_equal(back.choi_cov, ch.choi_cov)
    assert back.partition == ch.partition
    assert back.to_json() == ch.to_json()


def test_channel_json_rejects_non_finite_choi_cov():
    data = filter_channel(0.5).to_dict()
    data["choi_cov"][0][0] = float("nan")
    with pytest.raises(MalformedInput, match="^covariance entry of magnitude nan"):
        GaussianChannel.from_dict(json.loads(json.dumps(data)))

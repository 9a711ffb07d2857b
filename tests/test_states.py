import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from symplectic_oracle import beamsplitter

from cvdist import channels
from cvdist.channels import attenuation_channel, random_locc_channel
from cvdist.errors import (
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    NotSymplectic,
    ParamOutOfRange,
    SingularConditioning,
)
from cvdist.measurements import DyneKind, DyneSpec, bell_measure, condition, sample_outcome
from cvdist.protocols import run_fig1
from cvdist.states import (
    _PHYSICALITY_RTOL,
    PHYSICALITY_TOL,
    GaussianState,
    apply_symplectic,
    partial_trace,
    random_state,
    tensor,
    thermal,
    tmsv,
    vacuum,
)
from cvdist.symplectic import (
    random_symplectic,
    symplectic_eigenvalues,
    two_mode_squeezer,
)

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def test_vacuum_basics():
    v = vacuum(1)
    assert_allclose(v.cov, np.eye(2))
    assert_allclose(v.mean, np.zeros(2))
    assert_allclose(vacuum(2).cov, np.eye(4))
    assert_allclose(symplectic_eigenvalues(vacuum(3).cov), np.ones(3))


def test_vacuum_rejects_zero_modes():
    with pytest.raises(DimensionMismatch, match="mode count must be >= 1"):
        vacuum(0)


def test_tmsv_zero_squeezing_is_vacuum():
    assert_allclose(tmsv(0.0).cov, np.eye(4))


def test_tmsv_half():
    # oracle: push vacuum through the two-mode squeezer
    s = two_mode_squeezer(0.5)
    assert_allclose(tmsv(0.5).cov, s @ s.T, atol=1e-14)
    expected = np.array([
        [COSH1, 0.0, SINH1, 0.0],
        [0.0, COSH1, 0.0, -SINH1],
        [SINH1, 0.0, COSH1, 0.0],
        [0.0, -SINH1, 0.0, COSH1],
    ])
    assert_allclose(tmsv(0.5).cov, expected, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_tmsv_is_pure_and_physical(r):
    nus = symplectic_eigenvalues(tmsv(r).cov)
    assert np.abs(nus - 1.0).max() <= 1e-9


def test_thermal():
    t = thermal(0.7, 2)
    assert_allclose(t.cov, 2.4 * np.eye(4))
    with pytest.raises(ParamOutOfRange):
        thermal(-0.1)


def test_apply_symplectic_identity():
    st0 = tmsv(0.4)
    out = apply_symplectic(st0, np.eye(4))
    assert_allclose(out.cov, st0.cov)
    assert_allclose(out.mean, st0.mean)


def test_balanced_beamsplitter_preserves_vacuum():
    out = apply_symplectic(vacuum(2), beamsplitter(0.5))
    assert_allclose(out.cov, np.eye(4), atol=1e-14)


def test_two_mode_squeezer_creates_tmsv():
    out = apply_symplectic(vacuum(2), two_mode_squeezer(0.8))
    assert_allclose(out.cov, tmsv(0.8).cov, atol=1e-12)


def test_apply_symplectic_errors():
    with pytest.raises(NotSymplectic):
        apply_symplectic(vacuum(1), np.diag([2.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        apply_symplectic(vacuum(2), np.eye(2))


def test_apply_symplectic_preserves_spectrum(rng):
    for _ in range(100):
        state = random_state(2, rng, nu_spread=1.5, symplectic_scale=0.5)
        s = random_symplectic(2, rng, scale=0.5)
        out = apply_symplectic(state, s)
        assert_allclose(
            symplectic_eigenvalues(out.cov), symplectic_eigenvalues(state.cov), atol=1e-8
        )


def test_tensor_vacua():
    t = tensor(vacuum(1), vacuum(1))
    assert_allclose(t.cov, np.eye(4))
    assert t.modes == 2


def test_partial_trace_of_tmsv_is_thermal():
    marg = partial_trace(tmsv(0.5), keep=[0])
    assert_allclose(marg.cov, COSH1 * np.eye(2), atol=1e-7)
    marg2 = partial_trace(tmsv(0.5), keep=[1])
    assert_allclose(marg2.cov, COSH1 * np.eye(2), atol=1e-7)


def test_tensor_then_trace_roundtrip(rng):
    a = random_state(2, rng, nu_spread=1.0, mean_scale=0.5)
    b = random_state(1, rng, nu_spread=1.0, mean_scale=0.5)
    joint = tensor(a, b)
    back = partial_trace(joint, keep=[0, 1])
    assert_allclose(back.cov, a.cov)
    assert_allclose(back.mean, a.mean)


def test_partial_trace_errors():
    with pytest.raises(DimensionMismatch,
                       match=r"^mode indices \(\) must be 1 or more distinct values in 0\.\.1$"):
        partial_trace(vacuum(2), keep=[])
    with pytest.raises(DimensionMismatch):
        partial_trace(vacuum(2), keep=[2])


def test_physicality_preserved_by_operations(rng):
    for _ in range(50):
        state = random_state(3, rng, nu_spread=1.0, symplectic_scale=0.5)
        s = random_symplectic(3, rng, scale=0.5)
        # each raises NotPhysical if the result is not physical
        apply_symplectic(state, s).require_physical()
        tensor(state, vacuum(1)).require_physical()
        partial_trace(state, keep=[0, 2]).require_physical()


def test_pure_states_are_physical_or_unresolvable():
    # tmsv(3.96) was refused by the nu test (nu_min read 0.999999998628 at
    # condition number 7.6e6). Past condition number 1e7 a pure state is
    # refused as its spectrum is, never as proven unphysical
    for k in range(1501):
        try:
            tmsv(k / 100).require_physical()
        except SingularConditioning:
            assert k > 402
        except NotPhysical as exc:
            # not positive definite in float64, never Gamma + i Omega < 0
            assert k > 402 and str(exc).startswith("smallest eigenvalue")
        else:
            assert k <= 402
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for scale in (0.3, 1.0, 2.0):
            for _ in range(25):
                s = random_symplectic(n, rng, scale=scale)
                state = GaussianState(mean=np.zeros(2 * n), cov=s @ s.T)
                w = np.linalg.eigvalsh(state.cov)
                try:
                    state.require_physical()
                except SingularConditioning:
                    assert w[-1] > 1e7 * w[0]


def test_physicality_near_the_boundary():
    # states S diag(nu) S^T with each nu_k = 1 or 1 - U(0, 1e-8). The test
    # never refuses a physical state as unphysical, proves what it accepts
    # up to its rounding, and wherever cond <= 1e6 gives the nu test's
    # verdict outside the tolerance band 1 - PHYSICALITY_TOL <= nu_min < 1.
    # Inside the band it may refuse what the nu test accepts, never the
    # reverse
    rng = np.random.default_rng(5)
    compared = in_band = 0
    for i in range(4000):
        n = 1 + i % 3
        nus = np.where(rng.random(n) < 0.5, 1.0, 1.0 - rng.uniform(0.0, 1e-8, n))
        s = random_symplectic(n, rng, scale=rng.uniform(1.0, 2.5))
        state = GaussianState(mean=np.zeros(2 * n), cov=(s * np.repeat(nus, 2)) @ s.T)
        w = np.linalg.eigvalsh(state.cov)
        cond = w[-1] / w[0]
        try:
            state.require_physical()
            accepted = True
        except SingularConditioning:
            assert cond > 1e7
            continue
        except NotPhysical:
            accepted = False
        nu_min = nus.min()
        if nu_min >= 1.0:
            assert accepted
        if accepted:
            slack = max(PHYSICALITY_TOL, 2.0 * _PHYSICALITY_RTOL * cond)
            assert nu_min >= 1.0 / (1.0 + slack)
        if cond <= 1e6:
            nu_accepts = symplectic_eigenvalues(state.cov)[-1] >= 1.0 - PHYSICALITY_TOL
            if 1.0 - PHYSICALITY_TOL <= nu_min < 1.0:
                in_band += 1
                assert nu_accepts or not accepted
            else:
                compared += 1
                assert accepted == nu_accepts
    assert compared > 2500 and in_band > 100


@pytest.mark.parametrize("cov, error, match", [
    (np.diag([-1e-8, 1e8]), NotPhysical, "smallest eigenvalue"),  # det -1
    (0.999 * np.diag([np.exp(-4.0), np.exp(4.0)]), NotPhysical,
     r"Gamma \+ i Omega"),  # nu = 0.999
    (0.999 * np.diag([np.exp(-14.0), np.exp(14.0)]), SingularConditioning,
     "condition number"),
], ids=["indefinite", "squeezed-sub-vacuum", "unresolvable-sub-vacuum"])
def test_unphysical_or_unresolvable_states_are_refused(cov, error, match):
    state = GaussianState(mean=np.zeros(2), cov=cov)
    with pytest.raises(error, match=match) as exc:
        state.require_physical()
    assert type(exc.value) is error


def test_negative_definite_cov_is_not_physical():
    # |eigvals(Omega Gamma)| reads 3 for -3 I; it is not a covariance at all
    bad = GaussianState(mean=np.zeros(4), cov=-3.0 * np.eye(4))
    with pytest.raises(NotPhysical, match="smallest eigenvalue -3"):
        bad.require_physical()


def test_state_rejects_asymmetric_cov():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=cov)


@pytest.mark.filterwarnings("error")  # the named error, with no warning first
@pytest.mark.parametrize("mean, cov, what", [
    ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "covariance"),
    ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "covariance"),
    ([np.inf, 0.0], np.eye(2), "mean"),
])
def test_state_rejects_non_finite_input(mean, cov, what):
    with pytest.raises(MalformedInput, match=f"{what} has non-finite"):
        GaussianState(mean=mean, cov=cov)


def test_state_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        GaussianState(mean=np.zeros(4), cov=np.eye(2))


def test_state_is_immutable():
    v = vacuum(1)
    with pytest.raises(ValueError):
        v.cov[0, 0] = 5.0


def test_from_dict_rejects_inconsistent_modes():
    with pytest.raises(DimensionMismatch):
        GaussianState.from_dict({"modes": 3, "mean": [0.0, 0.0],
                                 "cov": [[1.0, 0.0], [0.0, 1.0]]})


def test_json_roundtrip_is_bit_identical(rng):
    state = random_state(2, rng, nu_spread=1.3, symplectic_scale=0.7, mean_scale=1.0)
    text = state.to_json()
    back = GaussianState.from_dict(json.loads(text))
    assert np.array_equal(back.cov, state.cov)
    assert np.array_equal(back.mean, state.mean)
    assert back.to_json() == text
    payload = json.loads(text)
    assert payload["modes"] == 2


_HETERODYNE_1 = DyneSpec(modes=(1,), kind=DyneKind.HETERODYNE)

#: Each library update of checked states: given ``rng``, build its inputs and
#: return the call, so that the inputs' own checks happen before it.
UPDATES = {
    "run_fig1-n_in-1": lambda rng: functools.partial(
        run_fig1, attenuation_channel(0.4, 2.0), random_state(1, rng, mean_scale=0.5), 5, 1),
    "run_fig1-n_in-2": lambda rng: functools.partial(
        run_fig1, random_locc_channel(rng), random_state(2, rng, mean_scale=0.5), 5, 1),
    "channels.apply": lambda rng: functools.partial(
        channels.apply, random_locc_channel(rng), random_state(2, rng, mean_scale=0.5)),
    "condition": lambda rng: functools.partial(
        condition, random_state(3, rng, mean_scale=0.5), _HETERODYNE_1, [0.3, -0.2]),
    "sample_outcome": lambda rng: functools.partial(
        sample_outcome, random_state(3, rng, mean_scale=0.5), _HETERODYNE_1, 7),
    "bell_measure": lambda rng: functools.partial(
        bell_measure, random_state(3, rng, mean_scale=0.5), (0, 2), 7),
    "tensor": lambda rng: functools.partial(
        tensor, random_state(2, rng, mean_scale=0.5), random_state(1, rng, mean_scale=0.5)),
    "partial_trace": lambda rng: functools.partial(
        partial_trace, random_state(3, rng, mean_scale=0.5), (0, 2)),
}


def _returned_states(result) -> list:
    if hasattr(result, "reference_output"):
        return [result.reference_output, result.corrected_output]
    if hasattr(result, "conditioned_state"):
        return [result.conditioned_state]
    return [result]


@pytest.mark.parametrize("name", UPDATES)
def test_library_updates_build_no_checked_state(name, rng, monkeypatch):
    """Validate once: an update of checked states builds its result with the
    unchecked ``GaussianState._computed``, and the result is bit for bit what
    the checking constructor makes of the same arrays, and as read-only."""
    call = UPDATES[name](rng)
    checks = []
    post_init = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__",
                        lambda self: checks.append(name) or post_init(self))
    result = call()
    assert checks == []
    for state in _returned_states(result):
        checked = GaussianState(mean=state.mean, cov=state.cov)
        assert np.array_equal(checked.mean, state.mean)
        assert np.array_equal(checked.cov, state.cov)
        assert not state.mean.flags.writeable and not state.cov.flags.writeable

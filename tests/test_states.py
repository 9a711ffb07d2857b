import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from symplectic_oracle import beamsplitter

from cvdist.errors import (
    DimensionError,
    DimensionMismatch,
    EmptyKeepSet,
    MalformedInput,
    NotPhysical,
    NotPositiveDefinite,
    NotSymplectic,
    ParamOutOfRange,
)
from cvdist.states import (
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
    two_mode_squeezer,
)

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014


def test_vacuum_basics():
    v = vacuum(1)
    assert_allclose(v.cov, np.eye(2))
    assert_allclose(v.mean, np.zeros(2))
    assert_allclose(vacuum(2).cov, np.eye(4))
    assert_allclose(vacuum(3).symplectic_spectrum(), np.ones(3))


def test_vacuum_rejects_zero_modes():
    with pytest.raises(DimensionError):
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
    nus = tmsv(r).symplectic_spectrum()
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
            out.symplectic_spectrum(), state.symplectic_spectrum(), atol=1e-8
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
    with pytest.raises(EmptyKeepSet):
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


def test_negative_definite_cov_is_not_physical():
    # |eigvals(Omega Gamma)| reads 3 for -3 I; it is not a covariance at all
    bad = GaussianState(mean=np.zeros(4), cov=-3.0 * np.eye(4))
    with pytest.raises(NotPositiveDefinite) as exc:
        bad.require_physical()
    assert isinstance(exc.value, NotPhysical)


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

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from channel_helpers import choi_state

from cvdist.channels import random_locc_channel
from cvdist.entanglement import (
    BipartiteSplit,
    log_negativity,
    partial_transpose_cov,
)
from cvdist.errors import DimensionMismatch, NotPhysical, SingularConditioning
from cvdist.states import GaussianState, random_state, tensor, tmsv, vacuum
from cvdist.symplectic import random_symplectic, symplectic_eigenvalues

SPLIT01 = BipartiteSplit((0,), (1,))


def test_split_validation():
    unsized = "1 or more distinct values >= 0"
    with pytest.raises(DimensionMismatch, match=rf"^mode indices \(\) must be {unsized}$"):
        BipartiteSplit((), (1,))
    with pytest.raises(DimensionMismatch, match=rf"^mode indices \(0, 1, 1\) must be {unsized}$"):
        BipartiteSplit((0, 1), (1,))
    with pytest.raises(DimensionMismatch, match=rf"^mode indices \(0, 0\) must be {unsized}$"):
        BipartiteSplit((0, 0), (1,))
    with pytest.raises(DimensionMismatch, match=rf"^mode indices \(1, 1\) must be {unsized}$"):
        BipartiteSplit((0,), (1, 1))
    with pytest.raises(DimensionMismatch,
                       match=r"^mode indices \(0, 2\) must be 2 distinct values in 0\.\.1$"):
        partial_transpose_cov(np.eye(4), BipartiteSplit((0,), (2,)))
    # numpy integers are indices; floats, even integral ones, are not
    split = BipartiteSplit((np.int32(0),), np.array([1]))
    assert split == SPLIT01 and all(type(m) is int for m in split.alice + split.bob)
    with pytest.raises(DimensionMismatch, match=rf"^mode indices \(1.0,\) must be {unsized}$"):
        BipartiteSplit((0,), (1.0,))


def test_partial_transpose_flips_z_block():
    pt = partial_transpose_cov(tmsv(0.5).cov, SPLIT01)
    sh = np.sinh(1.0)
    assert_allclose(pt[:2, 2:], sh * np.eye(2), atol=1e-12)


def test_partial_transpose_involution(rng):
    cov = random_state(3, rng, nu_spread=1.0).cov
    split = BipartiteSplit((0, 2), (1,))
    assert_allclose(partial_transpose_cov(partial_transpose_cov(cov, split), split), cov)


def test_partial_transpose_of_product_state_is_physical(rng):
    cov = tensor(random_state(1, rng), random_state(1, rng)).cov
    pt = partial_transpose_cov(cov, SPLIT01)
    assert symplectic_eigenvalues(pt)[-1] >= 1.0 - 1e-9


def test_log_negativity_tmsv_half():
    report = log_negativity(tmsv(0.5), SPLIT01)
    assert abs(report.log_negativity - 1.0) <= 1e-10
    assert abs(report.min_pt_symplectic_eigenvalue - np.exp(-1.0)) <= 1e-10
    assert not report.ppt
    assert report.ppt_conclusive


@pytest.mark.parametrize("r", [0.1 * k for k in range(1, 11)])
def test_log_negativity_tmsv_sweep(r):
    report = log_negativity(tmsv(r), SPLIT01)
    assert abs(report.log_negativity - 2.0 * r) <= 1e-10
    assert abs(report.min_pt_symplectic_eigenvalue - np.exp(-2.0 * r)) <= 1e-10


def test_log_negativity_is_right_or_refuses_at_strong_squeezing():
    # float64 keeps tmsv(r) positive definite up to r = 9.5; past r = 4.03
    # its spectrum is refused, where it read E_N = 17.11 at r = 9.5
    returned = []
    for r in [0.1 * k for k in range(100)]:
        state = tmsv(r)
        try:
            e_n = log_negativity(state, SPLIT01).log_negativity
        except SingularConditioning:
            continue
        except NotPhysical:
            assert not np.linalg.eigvalsh(state.cov)[0] > 0.0
            continue
        assert abs(e_n - 2.0 * r) <= 1e-8
        returned.append(r)
    assert returned == [0.1 * k for k in range(41)]


def test_log_negativity_vacuum_zero():
    assert log_negativity(vacuum(2), SPLIT01).log_negativity == 0.0


def test_log_negativity_monotone_in_r():
    values = [log_negativity(tmsv(r), SPLIT01).log_negativity
              for r in np.linspace(0.05, 1.2, 12)]
    assert np.all(np.diff(values) > 0)


def test_log_negativity_invariant_under_local_symplectics(rng):
    base = tmsv(0.6)
    e0 = log_negativity(base, SPLIT01).log_negativity
    for _ in range(25):
        s = block_diag(random_symplectic(1, rng, 0.5), random_symplectic(1, rng, 0.5))
        rotated = GaussianState(mean=s @ base.mean, cov=s @ base.cov @ s.T)
        assert abs(log_negativity(rotated, SPLIT01).log_negativity - e0) <= 1e-8


def test_log_negativity_ignores_mean():
    displaced = tmsv(0.5).with_mean([1.0, -2.0, 0.3, 4.0])
    assert log_negativity(displaced, SPLIT01) == log_negativity(tmsv(0.5), SPLIT01)


@pytest.mark.parametrize("cov", [0.5 * np.eye(4), -3.0 * np.eye(4)],
                         ids=["sub-vacuum", "negative-definite"])
def test_log_negativity_rejects_unphysical(cov):
    with pytest.raises(NotPhysical):
        log_negativity(GaussianState(mean=np.zeros(4), cov=cov), SPLIT01)


def test_ppt_separable_cases(rng):
    assert not log_negativity(tmsv(0.3), SPLIT01).ppt
    product = tensor(random_state(1, rng), random_state(1, rng))
    assert log_negativity(product, SPLIT01).ppt


def test_separable_choi_states_are_ppt(rng):
    for _ in range(100):
        ch = random_locc_channel(rng)
        split = BipartiteSplit((0, 2), (1, 3))
        assert log_negativity(choi_state(ch), split).ppt


def test_ppt_conclusive_flag_depends_on_split(rng):
    state = random_state(3, rng, nu_spread=0.5)
    report = log_negativity(state, BipartiteSplit((0, 1), (2,)))
    assert not report.ppt_conclusive
    payload = report.to_dict()
    assert set(payload) == {"log_negativity", "nu_tilde_min", "ppt", "ppt_conclusive"}

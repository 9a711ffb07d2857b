import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg

from symplectic_oracle import (
    beamsplitter,
    bloch_messiah,
    embed,
    orthogonal_symplectic_from_unitary,
)

from cvdist.errors import NotPositiveDefinite, NotSymplectic, ParamOutOfRange
from cvdist.symplectic import (
    block_diag,
    mode_permutation,
    omega,
    phase_rotation,
    random_symplectic,
    squeezer,
    symplectic_eigenvalues,
    symplectic_error,
    two_mode_squeezer,
    williamson,
)

SYMP_TOL = 1e-10


def _williamson_cov(d):
    """S diag(nus, doubled) S^T: the covariance a Williamson form describes."""
    return (d.s * np.repeat(d.nus, 2)[None, :]) @ d.s.T


def _bloch_messiah_product(bm):
    """passive_out diag(e^r1, e^-r1, ...) passive_in: the matrix a form describes."""
    d = np.empty(2 * len(bm.squeeze_params))
    d[0::2] = np.exp(bm.squeeze_params)
    d[1::2] = np.exp(-bm.squeeze_params)
    return bm.passive_out @ np.diag(d) @ bm.passive_in


def test_omega_structure():
    om = omega(2)
    assert_allclose(om[:2, :2], [[0, 1], [-1, 0]])
    assert_allclose(om @ om, -np.eye(4))


@pytest.mark.parametrize("sizes", [(2,), (4,), (6,), (2, 4), (6, 2), (4, 4),
                                   (2, 4, 6), (6, 2, 2), (4, 6, 4)])
def test_block_diag_matches_scipy(rng, sizes):
    blocks = [rng.normal(size=(n, n)) for n in sizes]
    ours, ref = block_diag(*blocks), linalg.block_diag(*blocks)
    assert np.array_equal(ours, ref) and ours.dtype == ref.dtype


def test_squeezer_zero_is_identity():
    assert_allclose(squeezer(0.0), np.eye(2))


def test_beamsplitter_full_transmittance_is_identity():
    assert_allclose(beamsplitter(1.0), np.eye(4))


def test_phase_rotation_quarter_turn():
    s = phase_rotation(np.pi / 2)
    # (x, p) -> (p, -x)
    assert_allclose(s @ np.array([1.0, 0.0]), [0.0, -1.0], atol=1e-15)
    assert_allclose(s @ np.array([0.0, 1.0]), [1.0, 0.0], atol=1e-15)
    assert symplectic_error(s) <= SYMP_TOL


def test_beamsplitter_transmittance_out_of_range():
    with pytest.raises(ParamOutOfRange):
        beamsplitter(1.2)


@settings(max_examples=60, deadline=None)
@given(
    constructor=st.sampled_from([phase_rotation, squeezer, two_mode_squeezer]),
    param=st.floats(min_value=-2.5, max_value=2.5, allow_nan=False),
)
def test_standard_constructors_are_symplectic(constructor, param):
    s = constructor(param)
    assert symplectic_error(s) <= SYMP_TOL
    assert abs(np.linalg.det(s) - 1.0) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_beamsplitter_is_symplectic(t):
    s = beamsplitter(t)
    assert symplectic_error(s) <= SYMP_TOL
    assert abs(np.linalg.det(s) - 1.0) <= 1e-8


def test_random_symplectic_invariants(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            s = random_symplectic(n, rng, scale=0.6)
            assert symplectic_error(s) <= SYMP_TOL
            assert abs(np.linalg.det(s) - 1.0) <= 1e-8


def test_orthogonal_symplectic_from_unitary(rng):
    for n in (1, 2, 3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = np.linalg.qr(a)[0]
        k = orthogonal_symplectic_from_unitary(u)
        assert symplectic_error(k) <= SYMP_TOL
        assert_allclose(k @ k.T, np.eye(2 * n), atol=1e-12)


def test_embed_and_mode_permutation(rng):
    bs = beamsplitter(0.3)
    big = embed(bs, (2, 0), 3)
    assert symplectic_error(big) <= SYMP_TOL
    # untouched mode keeps identity rows
    assert_allclose(big[2:4, 2:4], np.eye(2))
    perm = mode_permutation((1, 0), 2)
    assert symplectic_error(perm) <= SYMP_TOL
    assert_allclose(perm @ np.array([1.0, 2.0, 3.0, 4.0]), [3.0, 4.0, 1.0, 2.0])


# -- Williamson ---------------------------------------------------------------


def test_williamson_thermal():
    d = williamson(3.0 * np.eye(2))
    assert_allclose(d.nus, [3.0])
    assert_allclose(d.s @ d.s.T, np.eye(2), atol=1e-10)  # orthogonal symplectic


def test_williamson_pure_squeezed():
    cov = np.diag([np.e, 1.0 / np.e])
    d = williamson(cov)
    assert_allclose(d.nus, [1.0], atol=1e-12)
    assert_allclose(_williamson_cov(d), cov, atol=1e-8)


def test_williamson_degenerate_vacuum():
    d = williamson(np.eye(6))
    assert_allclose(d.nus, np.ones(3), atol=1e-12)
    assert_allclose(_williamson_cov(d), np.eye(6), atol=1e-10)


def test_williamson_random_reconstruction(rng):
    from cvdist.states import random_state

    for _ in range(30):
        cov = random_state(3, rng, nu_spread=2.0, symplectic_scale=0.6).cov
        d = williamson(cov)
        assert symplectic_error(d.s) <= SYMP_TOL
        assert np.abs(_williamson_cov(d) - cov).max() <= 1e-8
        assert np.all(np.diff(d.nus) <= 1e-12)  # descending
        assert_allclose(np.sort(d.nus), np.sort(symplectic_eigenvalues(cov)), atol=1e-9)


def test_williamson_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        williamson(np.diag([1.0, -0.5]))


# -- Bloch-Messiah ------------------------------------------------------------


def test_bloch_messiah_orthogonal_input(rng):
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    k = orthogonal_symplectic_from_unitary(u)
    bm = bloch_messiah(k)
    assert_allclose(bm.squeeze_params, np.zeros(3), atol=1e-9)
    assert np.abs(_bloch_messiah_product(bm) - k).max() <= 1e-8


def test_bloch_messiah_plain_squeezer():
    bm = bloch_messiah(squeezer(0.8))
    assert_allclose(bm.squeeze_params, [0.8], atol=1e-12)
    assert np.abs(_bloch_messiah_product(bm) - squeezer(0.8)).max() <= 1e-10


def test_bloch_messiah_random_reconstruction(rng):
    for _ in range(30):
        s = random_symplectic(2, rng, scale=0.7)
        bm = bloch_messiah(s)
        assert np.abs(_bloch_messiah_product(bm) - s).max() <= 1e-8
        for k in (bm.passive_in, bm.passive_out):
            assert np.abs(k @ k.T - np.eye(4)).max() <= 1e-10
            assert symplectic_error(k) <= SYMP_TOL
        rs = bm.squeeze_params
        assert np.all(rs >= -1e-12) and np.all(np.diff(rs) <= 1e-12)


def test_bloch_messiah_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        bloch_messiah(np.diag([2.0, 2.0]))

import mpmath
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
    williamson_schur,
)

from cvdist.errors import (
    DimensionMismatch,
    MalformedInput,
    NotPhysical,
    NotSymplectic,
    ParamOutOfRange,
    SingularConditioning,
)
from cvdist.symplectic import (
    MAX_ENTRY,
    _THETA13,
    _symmetrized,
    assert_symplectic,
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

from cvdist.states import apply_symplectic, tmsv, vacuum

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


def test_symmetrized_keeps_the_bits_and_stays_finite(rng):
    # halving first is exact for normal entries: the bits of (c + c^T) / 2
    for scale in (1e-300, 1e-3, 1.0, 1e6, 1e300):
        c = scale * rng.normal(size=(6, 6))
        assert np.array_equal(_symmetrized(c), (c + c.T) / 2.0)
    # entries of 1e308, where c + c^T overflows
    c = 1e308 * np.array([[1.0, 0.5], [0.5, -1.0]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(c + c.T).all()
    assert np.array_equal(_symmetrized(c), c)


def test_random_symplectic_invariants(rng):
    for n in (1, 2, 3):
        for _ in range(30):
            s = random_symplectic(n, rng, scale=0.6)
            assert symplectic_error(s) <= SYMP_TOL
            assert abs(np.linalg.det(s) - 1.0) <= 1e-8


def _same_draw(n, scale, seed):
    """random_symplectic(n, ., scale) and its H, drawn from twin generators
    that must end in the same state."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    s = random_symplectic(n, rng, scale=scale)
    h = twin.normal(0.0, scale, size=(2 * n, 2 * n))
    assert rng.random() == twin.random()  # the same stream consumption
    return s, omega(n) @ ((h + h.T) / 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [0.3, 0.5, 0.7])
def test_random_symplectic_matches_scipy_expm(n, scale):
    # the package draws at 0.35 and 0.4, the tests mostly at 0.3-0.7
    for seed in range(20):
        s, a = _same_draw(n, scale, seed)
        ref = linalg.expm(a)
        assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max()
        assert symplectic_error(s) <= SYMP_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_symplectic_squaring_branch_matches_30_digits(n):
    # at scale 3 most draws have ||Omega H||_1 > theta_13 and are squared
    # back. Here scipy's expm itself strays from a 40-digit exponential by
    # up to 7e-13 (60 draws at 1-4 modes), so mpmath's is the reference.
    # The entries reach hundreds, so symplecticity is held relative to
    # max|S|^2: on such draws the exact exponential, rounded to float64,
    # deviates by up to ~3e-10 absolute.
    squared = 0
    with mpmath.workdps(30):
        for seed in range(5):
            s, a = _same_draw(n, 3.0, seed)
            squared += np.abs(a).sum(axis=0).max() > _THETA13
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max()
            assert symplectic_error(s) <= 1e-14 * np.abs(s).max() ** 2
    assert squared >= 3


@pytest.mark.parametrize("n_modes, scale, error", [
    (0, 0.5, DimensionMismatch), (-1, 0.5, DimensionMismatch),
    (1, float("nan"), ParamOutOfRange), (1, float("inf"), ParamOutOfRange),
    (1, -0.1, ParamOutOfRange),
], ids=["zero-modes", "negative-modes", "nan-scale", "inf-scale", "negative-scale"])
def test_random_symplectic_refuses_out_of_range(rng, n_modes, scale, error):
    with pytest.raises(error):
        random_symplectic(n_modes, rng, scale=scale)


@pytest.mark.parametrize("r", [5, 6, 7, 8, 9, 10, 11])
def test_strong_two_mode_squeezers_are_symplectic(r):
    # S Omega S^T rounds as eps max|S|^2: 1.7e-8 absolute at r = 10
    s = two_mode_squeezer(r)
    assert assert_symplectic(s) is s
    out = apply_symplectic(vacuum(2), s)
    assert_allclose(out.cov, tmsv(r).cov, rtol=1e-13)


@pytest.mark.parametrize("r", [0.5, 10.0], ids=["small", "large"])
def test_a_perturbed_entry_is_not_symplectic(r):
    s = two_mode_squeezer(r)
    s[0, 2] *= 1.0 + 1e-9
    with pytest.raises(NotSymplectic):
        assert_symplectic(s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -1.01 * MAX_ENTRY],
                         ids=["nan", "inf", "beyond-max-entry"])
def test_an_entry_outside_the_range_is_malformed_input(entry):
    # a NaN entry read NotSymplectic while an inf one read MalformedInput
    s = two_mode_squeezer(0.5)
    s[0, 2] = entry
    with pytest.raises(MalformedInput, match="^symplectic matrix entry of magnitude "):
        assert_symplectic(s)


def test_squeezer_within_the_entry_bound():
    assert np.abs(two_mode_squeezer(np.log(MAX_ENTRY))).max() <= MAX_ENTRY
    for r in (np.nan, np.inf, 231.0, -231.0):
        with pytest.raises(MalformedInput, match="^squeezing of magnitude"):
            two_mode_squeezer(r)


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


def _williamson_cases(rng):
    """Random 1-4-mode covariances, pure ones (all nu = 1), and mixed ones
    with nu_1 = nu_2 != 1."""
    from cvdist.states import random_state

    for n in (1, 2, 3, 4):
        spectra = [np.ones(n)]
        if n > 1:
            spectra.append(np.r_[2.5, 2.5, 1.0 + rng.uniform(size=n - 2)])
        for _ in range(15):
            yield random_state(n, rng, nu_spread=2.0, symplectic_scale=0.6).cov
        for nus in spectra:
            for _ in range(5):
                s = random_symplectic(n, rng, scale=0.6)
                yield (s * np.repeat(nus, 2)[None, :]) @ s.T


def test_williamson_matches_schur_oracle(rng):
    for cov in _williamson_cases(rng):
        d = williamson(cov)
        ref_nus = williamson_schur(cov)[1]
        assert np.abs(d.nus - ref_nus).max() <= 1e-12
        assert np.abs(symplectic_eigenvalues(cov) - ref_nus).max() <= 1e-12
        assert symplectic_error(d.s) <= 1e-12
        assert np.abs(_williamson_cov(d) - cov).max() <= 1e-12


def test_symplectic_eigenvalues_need_positive_definite_input():
    # tmsv(10)'s covariance is singular in float64: eigh gives it a zero
    # eigenvalue, and |eigvals(Omega Gamma)| would read (5.30, 3.71). A zero
    # smallest eigenvalue is unresolved, not proven negative
    for cov in (tmsv(10.0).cov, np.diag([1.0, 1.0, 1.0, 0.0])):
        with pytest.raises(SingularConditioning, match="condition number"):
            symplectic_eigenvalues(cov)
    with pytest.raises(NotPhysical, match="smallest eigenvalue -3"):
        symplectic_eigenvalues(-3.0 * np.eye(4))
    with pytest.raises(NotPhysical, match="smallest eigenvalue -1"):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))
    with pytest.raises(NotPhysical, match="smallest eigenvalue 0"):
        symplectic_eigenvalues(np.zeros((2, 2)))


def test_williamson_rejects_indefinite():
    with pytest.raises(NotPhysical, match="smallest eigenvalue -5"):
        williamson(np.diag([1.0, -0.5]))


def test_spectrum_refuses_what_float64_cannot_resolve():
    # tmsv(r) has condition number e^{4r}: 8.9e6 at r = 4.0, 1.3e7 at 4.1;
    # tmsv(9.5) is still positive definite in float64 but read nu = 1.63
    assert_allclose(symplectic_eigenvalues(tmsv(4.0).cov), [1.0, 1.0], atol=1e-9)
    for r in (4.1, 5.0, 9.5):
        with pytest.raises(SingularConditioning, match="condition number"):
            symplectic_eigenvalues(tmsv(r).cov)
        with pytest.raises(SingularConditioning):
            williamson(tmsv(r).cov)


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

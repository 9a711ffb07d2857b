import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

import fig1_oracle
from channel_helpers import (
    choi_state,
    conditional_displacement,
    corrupt_correction_gain,
    output_modes,
)
from symplectic_oracle import beamsplitter, embed
from wigner_oracle import oracle_condition

from cvdist.channels import (
    GaussianChannel,
    apply,
    attenuation_channel,
    choi_from_truncated_epr,
    filter_channel,
    random_locc_channel,
)
from cvdist import measurements
from cvdist.entanglement import BipartiteSplit, log_negativity
from cvdist.errors import DimensionMismatch, NotPhysical, ParamOutOfRange
from cvdist.measurements import DyneKind, DyneSpec, condition, sample_outcome
from cvdist.nogo import SymplecticParams
from cvdist.protocols import build_fig2, canonicalize_pure_3mode, run_fig1
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
from cvdist.symplectic import mode_permutation, random_symplectic

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
    assert_allclose(run.corrected_output.cov, partial_trace(choi_state(ch), output_modes(ch)).cov)
    assert run.max_cov_deviation <= 1e-12
    assert run.max_mean_deviation <= 1e-12


def test_fig1_random_locc_on_tmsv_matches_apply(rng):
    ch = random_locc_channel(rng)
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


def test_fig1_corrupted_correction_is_detected(rng, monkeypatch):
    ch = random_locc_channel(rng)
    corrupt_correction_gain(monkeypatch, 0.9)
    run = run_fig1(ch, tmsv(0.5), 5, rng)
    assert run.max_mean_deviation > 1e-3  # negative control


def test_fig1_checks_the_conditioning_matrix_once(rng, monkeypatch):
    # the reference and every correction share one (A + R G R) and its check;
    # the Bell step and the Choi step each factor their block once, no SVD
    ch, state = random_locc_channel(rng), tmsv(0.5)
    calls = []
    for name in ("cholesky", "svd"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _real=getattr(np.linalg, name),
                            **k: calls.append(_name) or _real(*a, **k))
    run_fig1(ch, state, 10, rng)
    assert calls == ["cholesky", "cholesky"]


@pytest.mark.parametrize("n_in", [1, 2])
def test_fig1_makes_two_gaussian_updates(rng, monkeypatch, n_in):
    # one Bell update for every pair, one Choi conditioning for the reference
    # and every correction
    update = measurements._gaussian_update
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return update(*args, **kwargs)

    # patch every cvdist module that imported the update by name
    for name, module in list(sys.modules.items()):
        if name.startswith("cvdist.") and getattr(module, "_gaussian_update", None) is update:
            monkeypatch.setattr(module, "_gaussian_update", counted)
    ch = GaussianChannel(
        n_in=n_in, n_out=1,
        choi_cov=random_state(n_in + 1, rng, nu_spread=0.7, symplectic_scale=0.35).cov,
    )
    state = random_state(n_in, rng, nu_spread=0.8, symplectic_scale=0.4, mean_scale=0.8)
    run_fig1(ch, state, 10, rng)
    assert len(calls) == 2


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
    joint = tensor(input_state, choi_state(channel))
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


#: An interleaved Choi partition per shape (n_in, n_out), starting with an output.
_INTERLEAVED = {(1, 1): ("out", "in"), (1, 2): ("out", "in", "out"),
                (2, 1): ("in", "out", "in"), (2, 2): ("out", "in", "out", "in")}


def _exact_oracle_cases():
    """Every shape with the default and an interleaved partition, nonzero Choi
    and input means, then the near-ideal channels of ``_pin_cases``."""
    rng = np.random.default_rng(16)
    cases = []
    for (n_in, n_out), interleaved in _INTERLEAVED.items():
        for partition in (None, interleaved):
            ch = GaussianChannel(
                n_in=n_in, n_out=n_out, partition=partition,
                choi_cov=random_state(n_in + n_out, rng, nu_spread=0.8,
                                      symplectic_scale=0.35).cov,
                choi_mean=rng.normal(0.0, 0.5, size=2 * (n_in + n_out)),
            )
            state = random_state(n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                                 mean_scale=0.5)
            cases.append(pytest.param(ch, state, id="-".join(ch.partition)))
    near_ideal = [c for c in _pin_cases() if not c.id.startswith("random")]
    assert len(near_ideal) == 3
    return cases + near_ideal


@pytest.mark.parametrize("n_samples", [1, 25])
@pytest.mark.parametrize("ch, state", _exact_oracle_cases())
def test_fig1_matches_the_unplanned_composition_bit_for_bit(ch, state, n_samples):
    rng_run = np.random.default_rng(12)
    rng_oracle = np.random.default_rng(12)
    run = run_fig1(ch, state, n_samples, rng_run)
    want = fig1_oracle.run_fig1(ch, state, n_samples, rng_oracle)

    assert rng_run.bit_generator.state == rng_oracle.bit_generator.state
    assert np.array_equal(run.sampled_outcomes, want.sampled_outcomes)
    for got, ref in [(run.corrected_output, want.corrected_output),
                     (run.reference_output, want.reference_output)]:
        assert np.array_equal(got.mean, ref.mean)
        assert np.array_equal(got.cov, ref.cov)
    assert run.max_cov_deviation == want.max_cov_deviation
    assert run.max_mean_deviation == want.max_mean_deviation


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


def _pattern_cov(form):
    """Covariance rebuilt from a, b, c, d1 and d2 of a canonical form alone."""
    g = np.zeros((6, 6))
    np.fill_diagonal(g, [form.a, form.a, form.b, form.b, form.c, form.c])
    g[0, 4] = g[4, 0] = form.d1
    g[1, 5] = g[5, 1] = form.d2
    return g


def test_canonicalize_eq12_states(rng):
    a_expected = np.cosh(1.4)
    for _ in range(20):
        form = canonicalize_pure_3mode(_eq12_state(rng, r=0.7), (0, 1), 2)
        assert abs(form.a - a_expected) <= 1e-8
        assert abs(form.c - a_expected) <= 1e-8
        assert abs(form.b - 1.0) <= 1e-8
        assert abs(form.a - form.c) <= 1e-8
        assert form.e <= 1e-8
        assert form.d1 >= abs(form.d2) - 1e-12  # tied magnitudes for tmsv-type
        assert form.d1 >= 0.0
        assert np.abs(form.canonical_state.cov - _pattern_cov(form)).max() <= 1e-8


def test_canonicalize_vacuum():
    form = canonicalize_pure_3mode(vacuum(3), (0, 1), 2)
    assert_allclose([form.a, form.b, form.c], [1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose([form.d1, form.d2, form.e], np.zeros(3), atol=1e-12)


def test_canonicalize_is_idempotent(rng):
    form = canonicalize_pure_3mode(_eq12_state(rng), (0, 1), 2)
    again = canonicalize_pure_3mode(form.canonical_state, (0, 1), 2)
    for name in ("a", "b", "c", "d1", "d2", "e"):
        assert abs(getattr(again, name) - getattr(form, name)) <= 1e-10


def test_canonicalize_input_mode_labelling(rng):
    # the same state with inputs listed in the other order gives the same
    # canonical parameters
    state = _eq12_state(rng)
    f1 = canonicalize_pure_3mode(state, (0, 1), 2)
    f2 = canonicalize_pure_3mode(state, (1, 0), 2)
    for name in ("a", "b", "c", "d1", "d2"):
        assert abs(getattr(f1, name) - getattr(f2, name)) <= 1e-8


def _pure_3mode_states(rng):
    yield GaussianState.from_dict(json.loads(
        (Path(__file__).parent / "golden" / "input-pure3.json").read_text()))
    yield vacuum(3)
    for _ in range(4):
        yield _eq12_state(rng, r=rng.uniform(0.1, 1.2))
        yield random_state(3, rng, nu_spread=0.0, symplectic_scale=0.5, mean_scale=0.7)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))),
                         ids=lambda o: "".join(map(str, o)))
def test_canonicalize_reorders_as_the_permutation_matrix_did(rng, order):
    # the reorder to (input1, input2, output) is an index gather; reordering
    # with the symplectic permutation matrix first must give the same bits
    for state in _pure_3mode_states(rng):
        form = canonicalize_pure_3mode(state, order[:2], order[2])
        ref = canonicalize_pure_3mode(
            apply_symplectic(state, mode_permutation(order, 3)), (0, 1), 2)
        for name in ("a", "b", "c", "d1", "d2", "e"):
            assert getattr(form, name) == getattr(ref, name), name
        assert np.array_equal(form.input_symplectic, ref.input_symplectic)
        assert np.array_equal(form.output_symplectic, ref.output_symplectic)
        assert form.canonical_state.to_json() == ref.canonical_state.to_json()
        # and the symplectics map the state, reordered by the matrix, to the form
        s = block_diag(form.input_symplectic, form.output_symplectic) @ mode_permutation(order, 3)
        assert np.abs(s @ state.cov @ s.T - form.canonical_state.cov).max() <= 1e-9


def test_canonicalize_rejects_mixed_and_wrong_modes(rng):
    with pytest.raises(NotPhysical, match="not all 1"):
        canonicalize_pure_3mode(
            tensor(thermal(0.5), tmsv(0.3)), (0, 1), 2
        )
    with pytest.raises(DimensionMismatch, match="state has 2 modes"):
        canonicalize_pure_3mode(tmsv(0.3), (0, 1), 1)
    with pytest.raises(DimensionMismatch,
                       match=r"^mode indices \(0, 1, 1\) must be 3 distinct values in 0\.\.2$"):
        canonicalize_pure_3mode(_eq12_state(rng), (0, 1), 1)


# -- build_fig2 -----------------------------------------------------------------


def test_fig2_identity_consumes_second_copy():
    pro = build_fig2(np.eye(4), np.eye(4), tmsv(0.5), tmsv(0.5))
    assert_allclose(pro.output.cov, tmsv(0.5).cov, atol=1e-12)
    assert abs(pro.report.log_negativity - 1.0) <= 1e-9


@pytest.mark.parametrize("copies, modes", [
    ((vacuum(1), tmsv(0.5)), "[1, 2]"),
    ((tmsv(0.5), vacuum(3)), "[2, 3]"),
], ids=["one-mode-copy", "three-mode-copy"])
def test_fig2_refuses_anything_but_two_two_mode_copies(copies, modes):
    # the rule nogo.optimize states for its copies, with the same message
    with pytest.raises(DimensionMismatch,
                       match=rf"^the two-copy protocol needs two two-mode copies, "
                             rf"got modes \{modes}$"):
        build_fig2(np.eye(4), np.eye(4), *copies)


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
    assert np.array_equal(base.outcomes, np.zeros(4))
    for k in range(10):
        sampled = build_fig2(bs, bs, tmsv(0.5), tmsv(0.5), seed=k)
        assert np.abs(sampled.outcomes).min() > 0.0
        assert np.abs(sampled.output.cov - base.output.cov).max() <= 1e-10
        assert np.abs(sampled.output.mean).max() == 0.0  # recentred


def test_fig2_validation(rng):
    with pytest.raises(DimensionMismatch):
        build_fig2(np.eye(4), np.eye(4), vacuum(1), tmsv(0.2))
    with pytest.raises(DimensionMismatch, match="4x4"):
        build_fig2(np.eye(4), np.eye(2), tmsv(0.2), tmsv(0.2))
    from cvdist.errors import NotSymplectic
    with pytest.raises(NotSymplectic):
        build_fig2(np.diag([2.0, 1.0, 1.0, 1.0]), np.eye(4), tmsv(0.2), tmsv(0.2))


def _fig2_by_permutation(s_a, s_b, copy1, copy2, seed=None):
    """``build_fig2`` through an 8x8 permutation matrix: the copies reordered
    to (A1, A2, B1, B2), block_diag(s_a, s_b) applied, modes 1 and 3
    heterodyned; returns (outcomes, correction, output)."""
    perm = mode_permutation((0, 2, 1, 3), 4)
    state = apply_symplectic(tensor(copy1, copy2), block_diag(s_a, s_b) @ perm)
    spec = DyneSpec(modes=(1, 3), kind=DyneKind.HETERODYNE)
    if seed is None:
        outcomes = np.zeros(4)
        conditioned = condition(state, spec, outcomes)
    else:
        record = sample_outcome(state, spec, seed)
        outcomes, conditioned = record.outcome, record.conditioned_state
    correction = conditioned.mean.copy()
    return outcomes, correction, conditioned.with_mean(conditioned.mean - correction)


def _party(rng, euler):
    if euler:
        return SymplecticParams(alice=rng.uniform(-2.0, 2.0, 10), bob=np.zeros(10)).realize()[0]
    return random_symplectic(2, rng, scale=0.6)


@pytest.mark.parametrize("sampled", [False, True], ids=["zero-outcomes", "sampled-outcomes"])
def test_fig2_matches_the_permutation_matrix_form_bit_for_bit(rng, sampled):
    # build_fig2 fills the Fig. 2 slots of one symplectic in tensor order; the
    # permuted product it replaces must give the same bits
    for k in range(40):
        copies = [tmsv(rng.uniform(0.1, 1.0)),
                  random_state(2, rng, nu_spread=0.6, symplectic_scale=0.5, mean_scale=0.5)]
        copy1, copy2 = copies[k % 2], copies[(k // 2) % 2]
        s_a, s_b = _party(rng, k % 3 == 0), _party(rng, k % 5 == 0)
        seed = 1000 + k if sampled else None
        pro = build_fig2(s_a, s_b, copy1, copy2, seed=seed)
        outcomes, correction, output = _fig2_by_permutation(s_a, s_b, copy1, copy2, seed)
        assert outcomes.tolist() == pro.outcomes.tolist()
        assert np.array_equal(np.signbit(outcomes), np.signbit(pro.outcomes))
        assert correction.tolist() == pro.correction.tolist()
        assert np.array_equal(np.signbit(correction), np.signbit(pro.correction))
        assert output.to_json() == pro.output.to_json()
        assert log_negativity(output, SPLIT01) == pro.report


# -- vacuum projection -----------------------------------------------------------


def test_vacuum_projection_matches_oracle(rng):
    # the heterodyne-at-0 vacuum projection step, cross-checked by integration
    state = random_state(2, rng, nu_spread=0.8, symplectic_scale=0.35, mean_scale=0.3)
    spec = DyneSpec((1,), DyneKind.HETERODYNE)
    closed = condition(state, spec, [0.0, 0.0])
    grid = oracle_condition(state, spec, [0.0, 0.0])
    assert np.abs(closed.cov - grid.cov).max() <= 1e-6
    assert np.abs(closed.mean - grid.mean).max() <= 1e-6

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criteria with runtime budgets assert them.
"""

import time

import numpy as np

from cvdist.channels import (
    GaussianChannel,
    apply,
    choi_from_truncated_epr,
    filter_channel,
    random_locc_channel,
)
from cvdist.entanglement import BipartiteSplit, log_negativity
from cvdist.measurements import (
    DyneKind,
    DyneSpec,
    bell_measure,
    condition,
    sample_outcome,
)
from cvdist.nogo import GAP_TOL, SymplecticParams, optimize, sweep
from cvdist.protocols import build_fig2, canonicalize_pure_3mode, run_fig1
from cvdist.states import (
    GaussianState,
    apply_symplectic,
    partial_trace,
    random_state,
    tensor,
    tmsv,
    vacuum,
)
from cvdist.symplectic import (
    mode_permutation,
    phase_rotation,
    random_symplectic,
    squeezer,
    symplectic_eigenvalues,
    symplectic_error,
    two_mode_squeezer,
    williamson,
)
from scipy.linalg import block_diag
from channel_helpers import choi_state, transposition_matrix
from symplectic_oracle import beamsplitter, bloch_messiah, embed
from wigner_oracle import oracle_condition

SPLIT01 = BipartiteSplit((0,), (1,))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_fig1_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_cov = 0.0
    worst_mean = 0.0
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for k in range(200):
        n_in, n_out = shapes[k % 4]
        ch = GaussianChannel(
            n_in=n_in, n_out=n_out,
            choi_cov=random_state(n_in + n_out, rng, nu_spread=0.8,
                                  symplectic_scale=0.35).cov,
        )
        state = random_state(n_in, rng, nu_spread=1.0, symplectic_scale=0.4,
                             mean_scale=0.5)
        run = run_fig1(ch, state, 20, rng)
        worst_cov = max(worst_cov, run.max_cov_deviation)
        worst_mean = max(worst_mean, run.max_mean_deviation)
    elapsed = time.monotonic() - start
    ok = worst_cov < 1e-9 and worst_mean < 1e-9 and elapsed < 60.0
    _report(1, "teleportation equivalence",
            ok, f"cov dev {worst_cov:.2e}, mean dev {worst_mean:.2e}, {elapsed:.1f}s")


def test_criterion_2_log_negativity_exactness():
    worst_en = 0.0
    worst_nu = 0.0
    for r in [0.1 * k for k in range(1, 11)]:
        report = log_negativity(tmsv(r), SPLIT01)
        worst_en = max(worst_en, abs(report.log_negativity - 2.0 * r))
        worst_nu = max(worst_nu, abs(report.min_pt_symplectic_eigenvalue
                                     - np.exp(-2.0 * r)))
    ok = worst_en <= 1e-10 and worst_nu <= 1e-10
    _report(2, "log-negativity exactness",
            ok, f"E_N dev {worst_en:.2e}, nu dev {worst_nu:.2e}")


def test_criterion_3_single_copy_no_distillation():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    worst_gain = -np.inf
    checked = 0
    while checked < 500:
        # random entangled input: locally rotated tmsv with mild thermal noise
        r = rng.uniform(0.2, 1.0)
        local = block_diag(random_symplectic(1, rng, 0.4),
                           random_symplectic(1, rng, 0.4))
        cov = local @ tmsv(r).cov @ local.T + rng.uniform(0.0, 0.15) * np.eye(4)
        state = GaussianState(mean=np.zeros(4), cov=cov)
        e_in = log_negativity(state, SPLIT01).log_negativity
        if e_in <= 1e-6:
            continue  # resample: input must be entangled
        ch = random_locc_channel(rng)
        e_out = log_negativity(apply(ch, state), SPLIT01).log_negativity
        worst_gain = max(worst_gain, e_out - e_in)
        checked += 1
    elapsed = time.monotonic() - start
    ok = worst_gain <= 1e-8 and elapsed < 60.0
    _report(3, "single-copy no-distillation",
            ok, f"max E_N gain {worst_gain:.2e} over 500 channels, {elapsed:.1f}s")


def test_criterion_4_two_copy_nogo_certification():
    start = time.monotonic()
    rs = [0.2, 0.5, 0.8, 1.1]
    certs = sweep(rs, n_starts=50, seed=404, budget=2000)
    gaps = {f"r={r}": c.gap for r, c in zip(rs, certs)}
    for r, cert in zip(rs, certs):
        assert abs(cert.input_e_n - 2.0 * r) <= 1e-9

    mixed = GaussianState(mean=np.zeros(4), cov=tmsv(0.8).cov + 0.2 * np.eye(4))
    cert_mixed = optimize((mixed, mixed), n_starts=50, seed=405, budget=2000,
                          input_description="tmsv(0.8) + 0.2 I thermal noise")
    gaps["mixed"] = cert_mixed.gap
    elapsed = time.monotonic() - start
    worst = min(gaps.values())
    ok = worst >= -GAP_TOL and elapsed < 120.0
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in gaps.items())
    _report(4, "two-copy no-go certification",
            ok, f"gaps {detail}, {elapsed:.0f}s")


def test_criterion_5_canonical_form_reduction():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.2, 1.0)
        state = tensor(tmsv(r), vacuum(1))  # (in1, out, in2)
        state = apply_symplectic(state, mode_permutation((0, 2, 1), 3))
        s_i = random_symplectic(2, rng, scale=0.5)
        state = apply_symplectic(state, block_diag(s_i, np.eye(2)))
        form = canonicalize_pure_3mode(state, (0, 1), 2)
        worst = max(worst, abs(form.b - 1.0), abs(form.a - form.c), form.e)
    ok = worst <= 1e-8
    _report(5, "canonical-form reduction", ok, f"max deviation {worst:.2e}")


def _oracle_instances():
    rng = np.random.default_rng(606)
    rot = block_diag(phase_rotation(0.7), phase_rotation(-0.3))
    two_mode_states = [
        tmsv(0.3),
        tmsv(0.5),
        apply_symplectic(tmsv(0.4), rot),
        random_state(2, rng, nu_spread=0.8, symplectic_scale=0.4, mean_scale=0.4),
        random_state(2, rng, nu_spread=0.8, symplectic_scale=0.4, mean_scale=0.4),
        random_state(2, rng, nu_spread=1.2, symplectic_scale=0.3, mean_scale=0.6),
    ]
    gm = np.diag([1.6, 0.8])  # physical: nu = sqrt(1.6 * 0.8) > 1
    two_mode_specs = [
        (DyneSpec((0,), DyneKind.HETERODYNE), 2),
        (DyneSpec((1,), DyneKind.HETERODYNE), 2),
        (DyneSpec((1,), DyneKind.HOMODYNE_X), 1),
        (DyneSpec((0,), DyneKind.HOMODYNE_P), 1),
        (DyneSpec((1,), DyneKind.GENERAL, gamma_m=gm), 2),
    ]
    for state in two_mode_states:
        for spec, dim in two_mode_specs:
            yield state, spec, rng.normal(0.0, 0.7, size=dim)

    three_mode_states = [
        random_state(3, rng, nu_spread=0.6, symplectic_scale=0.3, mean_scale=0.3),
        random_state(3, rng, nu_spread=0.6, symplectic_scale=0.3, mean_scale=0.3),
    ]
    three_mode_specs = [
        (DyneSpec((2,), DyneKind.HETERODYNE), 2),
        (DyneSpec((1,), DyneKind.HOMODYNE_X), 1),
        (DyneSpec((0, 2), DyneKind.HETERODYNE), 4),
    ]
    for state in three_mode_states:
        for spec, dim in three_mode_specs:
            yield state, spec, rng.normal(0.0, 0.5, size=dim)


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for state, spec, outcome in _oracle_instances():
        ref = condition(state, spec, outcome)
        grid = oracle_condition(state, spec, outcome)
        worst = max(worst, float(np.abs(ref.cov - grid.cov).max()),
                    float(np.abs(ref.mean - grid.mean).max()))
        count += 1

    # Bell conditioning against oracle homodynes, on a three-mode state
    rng = np.random.default_rng(607)
    state = tensor(tmsv(0.4), vacuum(1))
    rec = bell_measure(state, (0, 1), rng)
    mixed = apply_symplectic(state, embed(beamsplitter(0.5), (0, 1), 3))
    xi_x = -rec.outcome[0] / np.sqrt(2.0)
    xi_p = rec.outcome[1] / np.sqrt(2.0)
    step1 = oracle_condition(mixed, DyneSpec((1,), DyneKind.HOMODYNE_X), [xi_x])
    step2 = oracle_condition(step1, DyneSpec((0,), DyneKind.HOMODYNE_P), [xi_p])
    worst = max(worst, float(np.abs(step2.cov - rec.conditioned_state.cov).max()),
                float(np.abs(step2.mean - rec.conditioned_state.mean).max()))
    count += 1

    # channel action realized as general-dyne conditioning of the Choi state
    for n_in in (1, 2):
        ch = GaussianChannel(
            n_in=n_in, n_out=1,
            choi_cov=random_state(n_in + 1, rng, nu_spread=0.6,
                                  symplectic_scale=0.3).cov,
        )
        state = random_state(n_in, rng, nu_spread=0.8, symplectic_scale=0.3,
                             mean_scale=0.4)
        r = transposition_matrix(n_in)
        spec = DyneSpec(tuple(range(n_in)), DyneKind.GENERAL,
                        gamma_m=r @ state.cov @ r)
        ref = apply(ch, state)
        grid = oracle_condition(choi_state(ch), spec, r @ state.mean)
        worst = max(worst, float(np.abs(ref.cov - grid.cov).max()),
                    float(np.abs(ref.mean - grid.mean).max()))
        count += 1

    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and count >= 30
    _report(6, "oracle equivalence",
            ok, f"{count} instances, worst {worst:.2e}, {elapsed:.0f}s")


def test_criterion_7_physicality_and_symplectic_suites():
    rng = np.random.default_rng(707)
    nu_floor = np.inf
    symp_worst = 0.0
    det_worst = 0.0

    def check_state(state):
        nonlocal nu_floor
        nu_floor = min(nu_floor, float(symplectic_eigenvalues(state.cov)[-1]))

    def check_symplectic(s):
        nonlocal symp_worst, det_worst
        symp_worst = max(symp_worst, symplectic_error(s))
        det_worst = max(det_worst, abs(float(np.linalg.det(s)) - 1.0))

    for _ in range(60):
        s2 = random_symplectic(2, rng, 0.5)
        s3 = random_symplectic(3, rng, 0.4)
        check_symplectic(s2)
        check_symplectic(s3)
        check_symplectic(two_mode_squeezer(rng.uniform(-1.5, 1.5)))
        check_symplectic(beamsplitter(rng.uniform(0.0, 1.0)))
        check_symplectic(squeezer(rng.uniform(-2.0, 2.0)))
        check_symplectic(phase_rotation(rng.uniform(0.0, 2 * np.pi)))

        state3 = random_state(3, rng, nu_spread=1.0, symplectic_scale=0.4,
                              mean_scale=0.4)
        check_state(apply_symplectic(state3, s3))
        check_state(partial_trace(state3, keep=[0, 2]))
        check_state(tensor(partial_trace(state3, [0]), vacuum(1)))

        w = williamson(state3.cov)
        check_symplectic(w.s)
        bm = bloch_messiah(s2)
        check_symplectic(bm.passive_in)
        check_symplectic(bm.passive_out)

        state2 = random_state(2, rng, nu_spread=1.0, symplectic_scale=0.4,
                              mean_scale=0.3)
        ch = random_locc_channel(rng)
        check_state(apply(ch, state2))
        check_state(condition(state2, DyneSpec((1,), DyneKind.HETERODYNE),
                              rng.normal(size=2)))
        check_state(condition(state2, DyneSpec((0,), DyneKind.HOMODYNE_X),
                              rng.normal(size=1)))
        rec = sample_outcome(state2, DyneSpec((0,), DyneKind.HETERODYNE), rng)
        check_state(rec.conditioned_state)
        rec = bell_measure(tensor(state2, vacuum(1)), (0, 1), rng)
        check_state(rec.conditioned_state)

        params = SymplecticParams.from_vector(rng.uniform(-4.0, 4.0, size=20))
        s_a, s_b = params.realize()
        check_symplectic(s_a)
        check_symplectic(s_b)
        pro = build_fig2(s_a, s_b, tmsv(0.5), tmsv(0.5))
        check_state(pro.output)

    check_state(apply(choi_from_truncated_epr(1, 5.0), vacuum(1)))
    check_state(apply(filter_channel(0.7), vacuum(1)))

    ok = nu_floor >= 1.0 - 1e-8 and symp_worst <= 1e-10 and det_worst <= 1e-8
    _report(7, "physicality and symplectic invariants",
            ok, f"nu floor {nu_floor:.12f}, symplectic worst {symp_worst:.2e}, "
                f"det worst {det_worst:.2e}")

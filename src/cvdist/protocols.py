"""Protocol engines: teleportation-based channel equivalence and two-copy
distillation.

``run_fig1`` implements the deterministic realization of a Gaussian CP map:
prepare the channel's Choi state, Bell-measure each input mode against the
corresponding Choi input mode, and undo the outcome-dependent displacement.
For Gaussian inputs the corrected output must match the closed-form channel
action, covariance and mean, for every sampled outcome; the run records the
worst deviations so the equivalence can be asserted.

``build_fig2`` implements the optimal two-copy distillation layout: local
two-mode symplectics on each party's pair of modes, eight-port homodyne
(heterodyne) of the second mode on each side, and a displacement correction.
It returns the remaining two-mode state with its entanglement report.

``canonicalize_pure_3mode`` implements the canonical-form reduction behind
the protocol: any pure three-mode party map reduces, after local
symplectics, to a two-mode-squeezed-type correlation with one decoupled
vacuum input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GaussianChannel, _choi_dyne, _condition_choi
from .entanglement import BipartiteSplit, EntanglementReport, log_negativity
from .errors import DimensionMismatch, NotPure, NotThreeMode, ParamOutOfRange
from .measurements import DyneKind, DyneSpec, _bell_step, condition, sample_outcome
from .states import GaussianState, apply_symplectic, tensor
from .symplectic import block_diag, mode_permutation, williamson

#: Purity gate: all symplectic eigenvalues within this of 1.
PURITY_TOL = 1e-7

_FIG2_PERM = mode_permutation((0, 2, 1, 3), 4)  # (A1, B1, A2, B2) -> (A1, A2, B1, B2)
_FIG2_SPEC = DyneSpec(modes=(1, 3), kind=DyneKind.HETERODYNE)


# ---------------------------------------------------------------------------
# teleportation-based deterministic equivalent of a probabilistic LOCC map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Run:
    """Record of a teleportation-equivalence run.

    ``max_cov_deviation`` and ``max_mean_deviation`` are worst cases over all
    sampled outcomes of |corrected cov - reference cov| and |corrected mean -
    reference mean|, the reference being the closed-form channel action.
    The conditioned covariance does not depend on the outcome, so it is
    computed once per run and shared by every sample; ``corrected_output``
    is the last sample's state.
    """

    channel: GaussianChannel
    input_state: GaussianState
    sampled_outcomes: tuple
    corrected_output: GaussianState
    reference_output: GaussianState
    max_cov_deviation: float  # worst |corrected cov - closed-form cov|
    max_mean_deviation: float  # worst |corrected mean - closed-form mean|


def run_fig1(
    channel: GaussianChannel,
    input_state: GaussianState,
    n_samples: int,
    seed,
    correction_scale: float = 1.0,
) -> Fig1Run:
    """Simulate the deterministic teleportation protocol for ``channel``.

    Per sample: tensor the input with the Choi state, Bell-measure every
    (Choi input mode, input mode) pair, then subtract the outcome-dependent
    displacement C^T (A + R Gamma R)^{-1} r_d. What remains must be the
    closed-form channel action, covariance and mean.

    Only the means depend on the outcomes, so the call makes two Gaussian
    updates on an (n_samples, 2N) stack of means: one Bell measurement of
    all pairs at once, and the Choi conditioning that gives the closed-form
    reference and every sample's displacement. The normals come from one
    ``standard_normal((n_samples, 2 n_in))``: the same stream, in the same
    order, as one draw per homodyne per sample, pair by pair.

    ``correction_scale`` rescales the displacement correction and exists only
    as a negative control for verification tooling (1.0 is the protocol).
    """
    if n_samples < 1:
        raise ParamOutOfRange(f"n_samples must be >= 1, got {n_samples}")
    dyne = _choi_dyne(channel, input_state)  # checks the input-mode count
    rng = np.random.default_rng(seed)
    n_in = channel.n_in
    # the joint state (input modes, then Choi modes), built as blocks
    k = 2 * n_in
    cov = np.zeros((k + channel.choi_cov.shape[0],) * 2)
    cov[:k, :k] = input_state.cov
    cov[k:, k:] = channel.choi_cov
    means = np.empty((n_samples, len(cov)))
    means[:, :k] = input_state.mean
    means[:, k:] = channel.choi_mean

    # the remaining modes are the Choi outputs, in Choi order
    pairs = [(n_in + m, j) for j, m in enumerate(channel.input_modes)]
    outcomes, cov, means = _bell_step(cov, means, pairs,
                                      draws=rng.standard_normal((n_samples, k)))

    ref_cov, ref_mean, shifts = _condition_choi(channel, *dyne, outcomes)
    reference = GaussianState(mean=ref_mean, cov=ref_cov)
    means = means - correction_scale * shifts
    corrected = GaussianState(mean=means[-1], cov=cov)

    return Fig1Run(
        channel=channel,
        input_state=input_state,
        sampled_outcomes=tuple(outcomes),
        corrected_output=corrected,
        reference_output=reference,
        max_cov_deviation=float(np.abs(corrected.cov - reference.cov).max()),
        max_mean_deviation=float(np.abs(means - reference.mean).max()),
    )


# ---------------------------------------------------------------------------
# canonical form of pure three-mode party maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeModeCanonicalForm:
    """Canonical parameters of a pure three-mode state.

    In the canonicalized mode order (input 1, input 2, output) the covariance
    is built from thermal diagonals (a, a, b, b, c, c), an input1-output block
    diag(d1, d2) and an input2-output block [[e1, 0], [e3, e2]]; all other
    entries vanish. ``input_symplectic`` (4x4) and ``output_symplectic``
    (2x2) map the reordered original state to this form. For pure states, b
    = 1 and the e's vanish: the second input decouples as vacuum.
    """

    a: float
    b: float
    c: float
    d1: float
    d2: float
    e1: float
    e2: float
    e3: float
    input_symplectic: np.ndarray
    output_symplectic: np.ndarray
    canonical_state: GaussianState


def _rotation_svd(k: np.ndarray):
    """SVD K = Ru diag(d1, d2) Rv^T with Ru, Rv in SO(2); d2 carries det sign."""
    u, s, vt = np.linalg.svd(k)
    s = s.copy()
    if np.linalg.det(u) < 0:
        u = u.copy()
        u[:, 1] *= -1.0
        s[1] *= -1.0
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[1, :] *= -1.0
        s[1] *= -1.0
    return u, s, vt


def canonicalize_pure_3mode(
    state: GaussianState, input_modes, output_mode: int
) -> ThreeModeCanonicalForm:
    """Bring a pure three-mode state to the canonical sparse form.

    Williamson on the two-input marginal makes it diag(a, a, b, b) with
    a >= b and kills input-input correlations; Williamson on the output
    marginal gives c. The leftover per-mode rotations orient the two
    input-output blocks: the first becomes diag(d1, d2) with d1 >= |d2|
    (the sign of d2 is a rotation invariant, negative for two-mode-squeezed
    correlations), the second becomes lower triangular with e1 >= 0 fixing
    the residual flip.
    """
    if state.modes != 3:
        raise NotThreeMode(f"state has {state.modes} modes")
    input_modes = tuple(int(m) for m in input_modes)
    if sorted((*input_modes, int(output_mode))) != [0, 1, 2]:
        raise DimensionMismatch(
            f"input modes {input_modes} + output {output_mode} must cover 0,1,2"
        )
    nus = state.symplectic_spectrum()
    if np.abs(nus - 1.0).max() > PURITY_TOL:
        raise NotPure(f"symplectic eigenvalues {nus} not all 1")

    # reorder to (input1, input2, output)
    perm = mode_permutation((*input_modes, int(output_mode)), 3)
    work = apply_symplectic(state, perm)

    win = williamson(work.cov[:4, :4])
    s_in = np.linalg.inv(win.s)
    a, b = win.nus
    wout = williamson(work.cov[4:, 4:])
    s_out = np.linalg.inv(wout.s)
    c = float(wout.nus[0])
    work = apply_symplectic(work, block_diag(s_in, s_out))

    # residual per-mode rotations: diagonalize the (in1, out) block
    u, _, vt = _rotation_svd(work.cov[0:2, 4:6])
    rot = block_diag(u.T, np.eye(2), vt)
    work = apply_symplectic(work, rot)
    s_in = rot[:4, :4] @ s_in
    s_out = vt @ s_out

    # rotate input 2 to make its output block [[e1, 0], [e3, e2]], e1 >= 0
    k2 = work.cov[2:4, 4:6]
    theta = np.arctan2(-k2[0, 1], k2[1, 1])
    r2 = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    l2 = r2 @ k2
    lead = next((v for v in (l2[0, 0], l2[1, 1], l2[1, 0]) if abs(v) > 1e-12), 1.0)
    if lead < 0:
        r2 = -r2
    rot2 = block_diag(np.eye(2), r2, np.eye(2))
    work = apply_symplectic(work, rot2)
    s_in = rot2[:4, :4] @ s_in

    k2 = work.cov[2:4, 4:6]
    return ThreeModeCanonicalForm(
        a=float(a),
        b=float(b),
        c=c,
        d1=float(work.cov[0, 4]),
        d2=float(work.cov[1, 5]),
        e1=float(k2[0, 0]),
        e2=float(k2[1, 1]),
        e3=float(k2[1, 0]),
        input_symplectic=s_in,
        output_symplectic=s_out,
        canonical_state=work,
    )


# ---------------------------------------------------------------------------
# two-copy distillation layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Protocol:
    """One evaluation of the two-copy protocol."""

    s_a: np.ndarray
    s_b: np.ndarray
    outcomes: np.ndarray
    correction: np.ndarray
    output: GaussianState
    report: EntanglementReport


def build_fig2(
    s_a: np.ndarray,
    s_b: np.ndarray,
    copy1: GaussianState,
    copy2: GaussianState,
    seed=None,
    sample_heterodyne: bool = False,
) -> Fig2Protocol:
    """Run the two-copy protocol with party symplectics ``s_a``, ``s_b``.

    Copies are two-mode states with mode 0 at Alice and mode 1 at Bob. The
    four modes are arranged as (A1, A2, B1, B2); s_a acts on (A1, A2), s_b on
    (B1, B2); modes A2 and B2 are heterodyned and the outcome-dependent
    displacement is subtracted (the classical-communication step). The output
    covariance does not depend on the heterodyne outcomes, so they default to
    zero for reproducibility; set ``sample_heterodyne`` to draw them.
    """
    if copy1.modes != 2 or copy2.modes != 2:
        raise DimensionMismatch("both copies must be two-mode states")
    s_a = np.asarray(s_a, dtype=float)
    s_b = np.asarray(s_b, dtype=float)
    if s_a.shape != (4, 4) or s_b.shape != (4, 4):
        raise DimensionMismatch("party symplectics must be 4x4 (two modes each)")

    state = tensor(copy1, copy2)  # (A1, B1, A2, B2)
    # reorder to (A1, A2, B1, B2) and apply both parties in one sandwich;
    # apply_symplectic validates the fused matrix, catching bad s_a / s_b
    state = apply_symplectic(state, block_diag(s_a, s_b) @ _FIG2_PERM)

    spec = _FIG2_SPEC
    if sample_heterodyne:
        rec = sample_outcome(state, spec, seed)
        outcomes = rec.outcome
        conditioned = rec.conditioned_state
    else:
        outcomes = np.zeros(4)
        conditioned = condition(state, spec, outcomes)

    correction = conditioned.mean.copy()
    output = conditioned.with_mean(conditioned.mean - correction)
    report = log_negativity(output, BipartiteSplit((0,), (1,)))
    return Fig2Protocol(
        s_a=s_a,
        s_b=s_b,
        outcomes=outcomes,
        correction=correction,
        output=output,
        report=report,
    )


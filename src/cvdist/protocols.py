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
It returns the remaining two-mode state with its entanglement report. The
layout is stated once, here; the no-go kernel of :mod:`cvdist.nogo` shares it.

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
from .errors import DimensionMismatch, NotPhysical, ParamOutOfRange
from .measurements import DyneKind, DyneSpec, _bell_step, condition, sample_outcome
from .states import GaussianState, _on_modes, apply_symplectic, tensor
from .symplectic import _mode_indices, block_diag, symplectic_eigenvalues, williamson

#: Purity gate: all symplectic eigenvalues within this of 1.
PURITY_TOL = 1e-7

#: The Fig. 2 layout of ``build_fig2`` and the no-go kernel, copies in ``tensor``
#: order (A1, B1, A2, B2): Alice acts on rows 0, 1, 4, 5 (A1, A2), Bob on 2, 3,
#: 6, 7 (B1, B2), their 4x4 entries filling the flat slots of the 8x8 joint
#: symplectic in (party, row, col) order; A2 and B2 are heterodyned.
_FIG2_ROWS = np.array([[0, 1, 4, 5], [2, 3, 6, 7]])
_FIG2_SLOTS = (8 * _FIG2_ROWS[:, :, None] + _FIG2_ROWS[:, None, :]).ravel()
_FIG2_SPEC = DyneSpec(modes=(2, 3), kind=DyneKind.HETERODYNE)
#: The split of each copy and of the output: mode 0 at Alice, mode 1 at Bob.
_FIG2_SPLIT = BipartiteSplit((0,), (1,))


def _require_two_copies(copies) -> tuple:
    """The copies of the two-copy protocol, refused unless they are two
    two-mode states."""
    copies = tuple(copies)
    modes = [c.modes for c in copies]
    if modes != [2, 2]:
        raise DimensionMismatch(f"the two-copy protocol needs two two-mode copies, "
                                f"got modes {modes}")
    return copies


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

    sampled_outcomes: np.ndarray  # (n_samples, 2 n_in): one Bell outcome per sample
    corrected_output: GaussianState
    reference_output: GaussianState
    max_cov_deviation: float  # worst |corrected cov - closed-form cov|
    max_mean_deviation: float  # worst |corrected mean - closed-form mean|


def run_fig1(
    channel: GaussianChannel,
    input_state: GaussianState,
    n_samples: int,
    seed,
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

    What depends only on the channel's layout, (n_in, partition), is planned
    once and cached: the beamsplitter matrix, the index gathers, the
    transposition signs and the jitter. A call checks its inputs, then does
    arithmetic alone: the reference and corrected states are built unchecked
    (``GaussianState._computed``), because both covariances come out of the
    measurement update exactly symmetric and everything they are computed
    from was checked when the channel and the input state were built.
    """
    if n_samples < 1:
        raise ParamOutOfRange(f"n_samples must be >= 1, got {n_samples}")
    dyne = _choi_dyne(channel, input_state)  # checks the input-mode count
    rng = np.random.default_rng(seed)
    n_in = channel.n_in
    # the joint state: input modes, then Choi modes
    k = 2 * n_in
    dim = k + len(channel.choi_cov)
    cov = np.zeros((dim, dim))
    cov[:k, :k] = input_state.cov
    cov[k:, k:] = channel.choi_cov
    means = np.empty((n_samples, dim))
    means[:, :k] = input_state.mean
    means[:, k:] = channel.choi_mean

    # the remaining modes are the Choi outputs, in Choi order
    pairs = [(n_in + m, j) for j, m in enumerate(channel.input_modes)]
    outcomes, cov, means = _bell_step(cov, means, pairs,
                                      draws=rng.standard_normal((n_samples, k)))

    ref_cov, ref_mean, shifts = _condition_choi(channel, *dyne, outcomes)
    reference = GaussianState._computed(ref_mean, ref_cov)
    means = means - shifts
    corrected = GaussianState._computed(means[-1], cov)

    return Fig1Run(
        sampled_outcomes=outcomes,
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
    is built from thermal diagonals (a, a, b, b, c, c) and an input1-output
    block diag(d1, d2); all other entries vanish. For the pure states this
    form is defined on, b = 1 and the input2-output block is zero: the
    second input decouples as vacuum. ``e`` is the largest |entry| of that
    block, the rounding left of it. ``input_symplectic`` (4x4) and
    ``output_symplectic`` (2x2) map the reordered original state to this form.
    """

    a: float
    b: float
    c: float
    d1: float
    d2: float
    e: float
    input_symplectic: np.ndarray
    output_symplectic: np.ndarray
    canonical_state: GaussianState


def _rotation_svd(k: np.ndarray):
    """Ru and Rv^T in SO(2) with K = Ru diag(d1, d2) Rv^T; d2 carries det sign."""
    u, _, vt = np.linalg.svd(k)
    u[:, 1] *= np.sign(np.linalg.det(u))
    vt[1, :] *= np.sign(np.linalg.det(vt))
    return u, vt


def canonicalize_pure_3mode(
    state: GaussianState, input_modes, output_mode: int
) -> ThreeModeCanonicalForm:
    """Bring a pure three-mode state to the canonical sparse form.

    After an index gather to (input1, input2, output), Williamson on the
    two-input marginal makes it diag(a, a, b, b) with a >= b and kills
    input-input correlations; Williamson on the output marginal gives c. The
    leftover rotations of input 1 and the output make their block
    diag(d1, d2) with d1 >= |d2| (the sign of d2 is a rotation invariant,
    negative for two-mode-squeezed correlations). Purity leaves input 2
    uncorrelated with the output, so it needs no rotation.
    """
    if state.modes != 3:
        raise DimensionMismatch(f"state has {state.modes} modes")
    order = _mode_indices((*input_modes, output_mode), 3, count=3)
    nus = symplectic_eigenvalues(state.cov)
    if np.abs(nus - 1.0).max() > PURITY_TOL:
        raise NotPhysical(f"symplectic eigenvalues {nus} not all 1")

    work = _on_modes(state, order)

    win = williamson(work.cov[:4, :4])
    s_in = np.linalg.inv(win.s)
    a, b = win.nus
    wout = williamson(work.cov[4:, 4:])
    s_out = np.linalg.inv(wout.s)
    c = float(wout.nus[0])
    work = apply_symplectic(work, block_diag(s_in, s_out))

    # residual per-mode rotations: diagonalize the (in1, out) block
    u, vt = _rotation_svd(work.cov[0:2, 4:6])
    rot = block_diag(u.T, np.eye(2), vt)
    work = apply_symplectic(work, rot)
    s_in = rot[:4, :4] @ s_in
    s_out = vt @ s_out

    return ThreeModeCanonicalForm(
        a=float(a),
        b=float(b),
        c=c,
        d1=float(work.cov[0, 4]),
        d2=float(work.cov[1, 5]),
        e=float(np.abs(work.cov[2:4, 4:6]).max()),
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
) -> Fig2Protocol:
    """Run the two-copy protocol with party symplectics ``s_a``, ``s_b``.

    Copies are two-mode states with mode 0 at Alice and mode 1 at Bob, kept
    in ``tensor`` order (A1, B1, A2, B2). s_a (on A1, A2) and s_b (on B1, B2)
    fill the ``_FIG2_SLOTS`` of one symplectic, which ``apply_symplectic``
    checks; A2 and B2 are heterodyned and the outcome-dependent displacement
    is subtracted (the classical-communication step). The output covariance
    does not depend on the outcomes, drawn from ``seed`` (an int or a
    Generator) when one is given and zero otherwise.
    """
    _require_two_copies((copy1, copy2))
    if np.shape(s_a) != (4, 4) or np.shape(s_b) != (4, 4):
        raise DimensionMismatch("party symplectics must be 4x4 (two modes each)")

    s = np.zeros(64)
    s[_FIG2_SLOTS] = np.ravel([s_a, s_b])
    state = apply_symplectic(tensor(copy1, copy2), s.reshape(8, 8))

    if seed is not None:
        record = sample_outcome(state, _FIG2_SPEC, seed)
        outcomes, conditioned = record.outcome, record.conditioned_state
    else:
        outcomes = np.zeros(4)
        conditioned = condition(state, _FIG2_SPEC, outcomes)

    correction = conditioned.mean.copy()
    output = conditioned.with_mean(conditioned.mean - correction)
    report = log_negativity(output, _FIG2_SPLIT)
    return Fig2Protocol(
        outcomes=outcomes,
        correction=correction,
        output=output,
        report=report,
    )


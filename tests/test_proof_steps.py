"""The steps of the no-go argument, checked one by one on the library's own
functions.

Write G~ for a covariance with Bob's p quadratures sign-flipped (the partial
transpose) and nu for the smallest symplectic eigenvalue of the input's G~,
capped at 1, so that G~ + i nu Omega >= 0. Every local Gaussian step keeps
that inequality:

* a local symplectic S_A (+) S_B acts on G~ as S_A (+) P S_B P, again
  symplectic;
* classical noise Y >= 0 adds P Y P >= 0 to G~;
* a local measurement with a physical, product seed gamma_m conditions G~ to
  the Schur complement of (G~ + i nu Omega) + 0 (+) (gamma~_m - i nu Omega),
  a sum of two positive semidefinite matrices (a homodyne is its limit).

So nu~_min(after) >= min(nu~_min(before), 1) at every step, on any number of
copies: no local Gaussian protocol raises the log-negativity above the
largest of its inputs'. Each test below asserts one step on random inputs of
one, two and three mixed or pure two-mode copies, plus a local ancilla mode
per party where a measurement needs one to leave both parties a mode.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from cvdist.entanglement import BipartiteSplit, partial_transpose_cov
from cvdist.measurements import DyneKind, DyneSpec, condition
from cvdist.states import apply_symplectic, random_state, tensor
from cvdist.symplectic import quad_indices, random_symplectic, symplectic_eigenvalues

#: Rounding allowance on nu~_min(after) - min(nu~_min(before), 1). The
#: covariances here have entries below about 1e2, where symplectic_eigenvalues
#: rounds near 1e-13; the smallest margin of a step that is not exact
#: (measurement on 3,000 random two-copy instances) was +4.8e-4, and the
#: exact steps (local symplectics) sit at the rounding itself.
STEP_TOL = 1e-9

INSTANCES = 24


def nu_tilde_min(cov, split: BipartiteSplit) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of ``cov``."""
    return float(symplectic_eigenvalues(partial_transpose_cov(cov, split))[-1])


def copies(n_copies: int, k: int, rng, ancillas: bool = False):
    """n two-mode copies (A_k, B_k), mixed for odd ``k`` and pure for even,
    and with one random one-mode ancilla per party appended if asked; returns
    the joint state and Alice's and Bob's modes."""
    nu_spread = 0.6 if k % 2 else 0.0
    parts = [random_state(2, rng, nu_spread=nu_spread, symplectic_scale=0.6)
             for _ in range(n_copies)]
    if ancillas:
        parts += [random_state(1, rng, nu_spread=nu_spread, symplectic_scale=0.4)
                  for _ in range(2)]
    state = parts[0]
    for part in parts[1:]:
        state = tensor(state, part)
    alice = tuple(range(0, 2 * n_copies, 2)) + ((2 * n_copies,) if ancillas else ())
    bob = tuple(range(1, 2 * n_copies, 2)) + ((2 * n_copies + 1,) if ancillas else ())
    return state, alice, bob


def local_symplectic(alice, bob, rng) -> np.ndarray:
    """Random S_A (+) S_B: one random_symplectic per party on its own modes."""
    n = len(alice) + len(bob)
    s = np.zeros((2 * n, 2 * n))
    for modes in (alice, bob):
        q = quad_indices(modes)
        s[np.ix_(q, q)] = random_symplectic(len(modes), rng, scale=0.5)
    return s


def check_step(befores, afters):
    """Assert the step on every instance, and that the corpus tests it: most
    inputs are entangled beyond rounding, or no step could show a gain."""
    befores, afters = np.array(befores), np.array(afters)
    assert (afters >= np.minimum(befores, 1.0) - STEP_TOL).all(), \
        (afters - np.minimum(befores, 1.0)).min()
    assert (befores < 1.0 - STEP_TOL).mean() >= 0.5


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_local_symplectic_keeps_nu_tilde(n_copies, rng):
    befores, afters = [], []
    for k in range(INSTANCES):
        state, alice, bob = copies(n_copies, k, rng)
        split = BipartiteSplit(alice, bob)
        after = apply_symplectic(state, local_symplectic(alice, bob, rng))
        befores.append(nu_tilde_min(state.cov, split))
        afters.append(nu_tilde_min(after.cov, split))
    check_step(befores, afters)


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_added_noise_keeps_nu_tilde(n_copies, rng):
    befores, afters = [], []
    for k in range(INSTANCES):
        state, alice, bob = copies(n_copies, k, rng)
        split = BipartiteSplit(alice, bob)
        dim = len(state.cov)
        g = rng.normal(0.0, 0.3, size=(dim, 1 + k % dim))
        befores.append(nu_tilde_min(state.cov, split))
        afters.append(nu_tilde_min(state.cov + g @ g.T, split))
    check_step(befores, afters)


def _dyne_spec(kind: DyneKind, measured_a, measured_b, rng) -> DyneSpec:
    if kind is not DyneKind.GENERAL:
        return DyneSpec(modes=measured_a + measured_b, kind=kind)
    # a local measurement: a physical seed per party, so a product across the cut
    seed = block_diag(*(random_state(len(m), rng, nu_spread=0.5).cov
                        for m in (measured_a, measured_b)))
    return DyneSpec(modes=measured_a + measured_b, kind=kind, gamma_m=seed)


@pytest.mark.parametrize("n_copies", [1, 2, 3])
@pytest.mark.parametrize("kind", list(DyneKind), ids=lambda k: k.value)
def test_local_measurement_keeps_nu_tilde(kind, n_copies, rng):
    befores, afters = [], []
    for k in range(INSTANCES):
        state, alice, bob = copies(n_copies, k, rng, ancillas=True)
        state = apply_symplectic(state, local_symplectic(alice, bob, rng))
        # each party measures some of its modes and keeps at least one
        measured_a = tuple(rng.permutation(alice)[:rng.integers(1, len(alice))])
        measured_b = tuple(rng.permutation(bob)[:rng.integers(1, len(bob))])
        spec = _dyne_spec(kind, measured_a, measured_b, rng)
        homodyne = kind in (DyneKind.HOMODYNE_X, DyneKind.HOMODYNE_P)
        outcome = rng.normal(size=len(spec.modes) * (1 if homodyne else 2))
        after = condition(state, spec, outcome)
        # condition keeps the unmeasured modes in ascending order
        kept = [m for m in range(state.modes) if m not in spec.modes]
        split_after = BipartiteSplit(
            tuple(i for i, m in enumerate(kept) if m in alice),
            tuple(i for i, m in enumerate(kept) if m in bob))
        befores.append(nu_tilde_min(state.cov, BipartiteSplit(alice, bob)))
        afters.append(nu_tilde_min(after.cov, split_after))
    check_step(befores, afters)


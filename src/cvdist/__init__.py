"""Covariance-matrix toolkit for Gaussian states and Gaussian CP maps.

Simulates Gaussian states, symplectic transformations, Choi-form Gaussian
channels, conditional dyne measurements, and entanglement figures, and
provides the two protocol engines built on top of them: the deterministic
teleportation-based realization of an arbitrary Gaussian LOCC map, and the
optimal two-copy distillation layout together with a numerical no-go
certification harness over its local-symplectic parameters.
"""

__version__ = "0.1.0"

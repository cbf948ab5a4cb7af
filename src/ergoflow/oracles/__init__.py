"""Independent brute-force verifiers for the closed-form Gaussian machinery.

Three unrelated numerical routes cross-check the analytic results:

- :mod:`ergoflow.oracles.lyapunov` integrates the literal moment ODEs with a
  fixed-step RK4 scheme (``rk4_moment_path``, raw mean and covariance
  records for a batch of states),
- :mod:`ergoflow.oracles.fock` evolves dense truncated-Fock density matrices
  under the full master equation (``fock_lindblad_path``, validated records
  at the requested times) and extracts the definitional
  (spectrum-reordering) ergotropy; it steps with the same RK4 driver as the
  moment oracle,
- :mod:`ergoflow.oracles.quadrature` evaluates phase-space integrals on a
  plain grid.

None of them reuse the exponential solution or the entropy/ergotropy closed
forms they are meant to check.
"""

from . import fock, lyapunov, quadrature

__all__ = ["fock", "lyapunov", "quadrature"]

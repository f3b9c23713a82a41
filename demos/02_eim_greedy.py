"""Empirical interpolation in isolation, on a synthetic field family.

The family mu -> exp(-mu1 x) + mu2 y^2 over a log grid is approximated by
a greedy interpolation basis.  The script prints how the worst training
error decays as fields are added, and shows the interpolation matrix
structure (lower triangular, unit diagonal) and the exactness of the
interpolant at its own points.
"""

import numpy as np

import eimrb as er

space = er.FESpace(er.Mesh(8), 2)
x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
samples = list(er.SampleSet.log_grid(10, 10))


def provider(mus):
    """All fields of the family at once, one row per parameter; no
    parameter fails here, so the failure dict is empty."""
    mus = np.asarray(mus)
    return np.exp(-mus[:, :1] * x) + mus[:, 1:] * y**2, {}


basis = er.eim_initialize(space, provider, samples)
print(f"first parameter {basis.mus[0]}, first point at "
      f"{space.dof_coords[basis.t[0]]}, sup of first snapshot "
      f"{basis.train_errors[0]:.3e}")

while basis.M < 8:
    step = er.eim_greedy_step(basis, provider, samples)
    if step.saturated:
        print("saturated, stopping early")
        break
    print(f"M={basis.M}: picked mu=({step.mu[0]:.3g}, {step.mu[1]:.3g}), "
          f"worst training error {step.sup_error:.3e}")

print("\ninterpolation matrix B (note the triangular structure):")
with np.printoptions(precision=2, suppress=True):
    print(basis.B)

mu_probe = samples[37]
w = provider([mu_probe])[0][0]
# the interpolant sum_m beta_m q_m, with B beta = w(t)
interp = basis.fields.T @ basis.coeffs(w[basis.t])
print(f"\nprobe at mu=({mu_probe[0]:.3g}, {mu_probe[1]:.3g}): "
      f"sup interpolation error {np.max(np.abs(w - interp)):.3e}, "
      f"error at the interpolation points "
      f"{np.max(np.abs((w - interp)[basis.t])):.3e}")

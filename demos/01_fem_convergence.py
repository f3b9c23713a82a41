"""Finite element kernel walkthrough: meshes, assembly, and convergence.

Solves -Laplace(u) = 2 pi^2 sin(pi x) sin(pi y) on the unit square with
homogeneous Dirichlet conditions, whose exact solution is
sin(pi x) sin(pi y), and reports the L2 convergence rate for P1 and P2
elements over a sequence of meshes.  The solve runs on the interior
block of a NonlinearProblem with no term, the same factor-and-solve path
as every Newton step of the truth solver.
"""

import numpy as np

import eimrb as er
from eimrb.fem import factor_sparse, solve_factored


def exact(xy):
    return np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])


def rhs(xy):
    return 2 * np.pi**2 * exact(xy)


def l2_error(space, values):
    xq = space.quad_phys_points()
    uh = np.einsum("tn,nq->tq", values[space.elem_dofs], space._phi)
    ue = exact(xq.reshape(-1, 2)).reshape(uh.shape)
    return np.sqrt(np.einsum("q,t,tq->", space.quad_weights, space._detj,
                             (uh - ue) ** 2))


def poisson_solve(space):
    """Solve on the interior block of a problem with no nonlinear term:
    the boundary values stay zero, the interior ones solve A_II u_I = F_I."""
    problem = er.NonlinearProblem(space, None, rhs)
    idx, a_ii = problem.interior_block[:2]
    u = np.zeros(space.ndof)
    u[idx] = solve_factored(factor_sparse(a_ii), problem.load[idx])
    return u


def triangle_areas(mesh):
    """Signed areas of the mesh's triangles, from their vertices."""
    v = mesh.vertices[mesh.triangles]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


mesh = er.Mesh(4)
print(f"mesh with n=4: {len(mesh.triangles)} triangles, "
      f"{len(mesh.vertices)} vertices, total area {triangle_areas(mesh).sum():.12f}")

for degree in (1, 2):
    errors, hs = [], []
    for n in (8, 16, 32):
        space = er.FESpace(er.Mesh(n), degree)
        u = poisson_solve(space)
        errors.append(l2_error(space, u))
        hs.append(1.0 / n)
    rate = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    print(f"P{degree}: L2 errors {[f'{e:.3e}' for e in errors]}  "
          f"fitted rate {rate:.2f} (expected {degree + 1})")

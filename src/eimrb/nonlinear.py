"""Newton solvers for the full nonlinear finite element problem.

The problem is: find u with zero boundary values such that

    A u + M g(u) = F

where A is the stiffness matrix, M the mass matrix, g is applied to the
nodal values of u (so the nonlinear term is the nodal interpolant of
g(u(x), x; mu)), and F the assembled load.  Newton uses the exact
Jacobian A + M diag(g'(u)) of this residual.

The EIM-surrogate problem replaces g(u) by its empirical interpolant
Q B^{-1} g(u_t): Q holds the M basis fields as columns, B is the lower
triangular interpolation matrix and u_t are the values of u at the M
interpolation points t (dofs, so E_t u = u_t picks rows of u):

    A u + M Q B^{-1} g(u_t) = F    on the interior rows.

Let A also denote the Dirichlet-eliminated stiffness and read F and M Q
with their boundary rows zeroed.  Then every surrogate solution is

    u = A^{-1} F - (A^{-1} M Q) B^{-1} g(u_t),                    (*)

fixed by its M point values.  Applying E_t to (*) gives the
M-dimensional system

    v + K g(v) = a,    K = E_t A^{-1} M Q B^{-1},    a = E_t A^{-1} F,

with v = u_t.  Conversely, lifting a solution v by (*) gives a u with
u_t = a - K g(v) = v, so u solves the surrogate problem: the two are
equivalent.  Newton on the small system uses its exact Jacobian
I + K diag(g'(v)); the full problem only enters through one factorisation
of A and the columns A^{-1} M q_m, one solve each (see SurrogateSolver).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from .fem import (FEField, SolverFailure, apply_dirichlet, assemble_load,
                  factor_sparse, solve_factored, solve_sparse)


class NewtonFailure(RuntimeError):
    """Newton did not converge; carries the residual norm history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def tolerance(self, initial_residual):
        return max(self.abs_tol, self.rel_tol * initial_residual)


@dataclass
class SolveStats:
    iterations: int
    final_residual_norm: float
    residual_history: list = field(default_factory=list)


class SolveCounter:
    """Counter of successful finite element solves."""

    def __init__(self):
        self._count = 0

    def increment(self, by=1):
        self._count += by

    @property
    def count(self):
        return self._count


class NonlinearTerm:
    """Pointwise nonlinearity g(u, x; mu) and its u-derivative.

    Both callables are vectorized: they take an array of u values, the
    matching (k, 2) coordinates and a parameter, and return k values.
    """

    def __init__(self, g, dg_du):
        self.g = g
        self.dg_du = dg_du


def check_derivative(term, mus, u_values, x=(0.3, 0.7), h=1e-6, tol=1e-5):
    """Central-difference check of dg_du against g; returns the worst error."""
    xy = np.array([x], dtype=float)
    worst = 0.0
    for mu in mus:
        for u in np.atleast_1d(u_values):
            up = term.g(np.array([u + h]), xy, mu)[0]
            um = term.g(np.array([u - h]), xy, mu)[0]
            fd = (up - um) / (2 * h)
            exact = term.dg_du(np.array([u], dtype=float), xy, mu)[0]
            worst = max(worst, abs(fd - exact))
    if worst > tol:
        raise ValueError(f"dg_du disagrees with finite differences by {worst:.3e}")
    return worst


class NonlinearProblem:
    """Space + nonlinearity + right-hand side, with cached operators."""

    def __init__(self, space, term, rhs):
        self.space = space
        self.term = term
        self.rhs = rhs
        self.stiffness = space.stiffness
        self.mass = space.mass
        self.load = assemble_load(space, rhs)
        self._mass_row_sums = np.asarray(self.mass.sum(axis=1)).ravel()

    def average(self, values):
        """Integral of the field over the unit square (|Omega| = 1)."""
        return float(self._mass_row_sums @ values)


def _newton(mu, cfg, counter, r_norm, step):
    """Newton loop shared by the solvers: r_norm is the residual norm at
    the start, step() takes one Newton step and returns the new norm."""
    if not np.isfinite(r_norm):
        raise NewtonFailure(f"residual not finite at the initial guess, mu={mu}",
                            [r_norm])
    history = [r_norm]
    tol = cfg.tolerance(r_norm)
    while True:
        if len(history) > cfg.max_iter:
            raise NewtonFailure(
                f"no convergence after {cfg.max_iter} iterations at mu={mu}",
                history)
        r_norm = step()
        history.append(r_norm)
        if np.isfinite(r_norm) and r_norm <= tol:
            break
        if not np.isfinite(r_norm):
            raise NewtonFailure(f"residual diverged at mu={mu}", history)
    if counter is not None:
        counter.increment()
    return SolveStats(iterations=len(history) - 1, final_residual_norm=r_norm,
                      residual_history=history)


def truth_jacobian(problem, u, mu):
    """Exact derivative A + M diag(g'(u)) of the residual A u + M g(u) - F,
    with M's columns scaled in its CSR data (no assembly)."""
    mass = problem.mass
    with np.errstate(over="ignore", invalid="ignore"):
        dg = problem.term.dg_du(u, problem.space.dof_coords, mu)
        scaled = sp.csr_matrix((mass.data * dg[mass.indices], mass.indices,
                                mass.indptr), shape=mass.shape)
    return problem.stiffness + scaled


def truth_newton_solve(problem, mu, cfg=None, counter=None, initial=None):
    """Solve the full nonlinear problem at mu with exact nonlinearity."""
    cfg = cfg or NewtonConfig()
    space = problem.space
    bdofs = space.boundary_dofs
    coords = space.dof_coords
    term = problem.term
    u = np.zeros(space.ndof) if initial is None else np.array(initial, dtype=float)
    u[bdofs] = 0.0

    def residual(uv):
        # divergence shows up as inf/nan and is classified by _newton
        with np.errstate(over="ignore", invalid="ignore"):
            r = (problem.stiffness @ uv + problem.mass @ term.g(uv, coords, mu)
                 - problem.load)
            r[bdofs] = 0.0
            return r, np.linalg.norm(r)

    r, r_norm = residual(u)

    def step():
        nonlocal u, r
        jac = truth_jacobian(problem, u, mu)
        jac_el, rhs_el = apply_dirichlet(space, jac, -r)
        u = u + solve_sparse(jac_el, rhs_el)
        r, r_norm = residual(u)
        return r_norm

    stats = _newton(mu, cfg, counter, r_norm, step)
    return FEField(space, u), stats


class SurrogateSolver:
    """Full-space state of the EIM-surrogate solve, kept for one build.

    Factors the Dirichlet-eliminated stiffness A once, solves A^{-1} F,
    and keeps M q_m and A^{-1} M q_m for every field q_m of eim_g (the
    boundary rows of M q_m are zeroed before the solve).  The fields of
    an interpolant are append-only, so the columns of earlier fields stay
    valid: a field appended since the last solve costs one solve with the
    cached factor, and nothing is refactored.
    """

    def __init__(self, problem, eim_g):
        self.problem = problem
        self.eim_g = eim_g
        stiffness, load = apply_dirichlet(problem.space, problem.stiffness,
                                          problem.load)
        self._factor = factor_sparse(stiffness)
        ndof = problem.space.ndof
        self.linear = solve_factored(self._factor, load)     # A^{-1} F
        self.mass_q = np.zeros((ndof, 0))                    # M q_m
        self.solved_q = np.zeros((ndof, 0))                  # A^{-1} M q_m

    def update(self):
        """Add the columns of the fields appended to eim_g since the last call."""
        bdofs = self.problem.space.boundary_dofs
        for q in self.eim_g.fields[self.mass_q.shape[1]:]:
            mq = self.problem.mass @ q
            rhs = mq.copy()
            rhs[bdofs] = 0.0
            self.mass_q = np.column_stack([self.mass_q, mq])
            self.solved_q = np.column_stack(
                [self.solved_q, solve_factored(self._factor, rhs)])


def truth_newton_solve_eim(surrogate, mu, cfg=None, counter=None):
    """Solve the full problem with the nonlinear term replaced by the
    empirical interpolant surrogate.eim_g, in its M point values.

    Newton solves v + K g(v) = a (module docstring) from v = 0 with the
    exact Jacobian I + K diag(g'(v)), an M x M system.  Every iterate is
    lifted to u = A^{-1} F - (A^{-1} M Q) B^{-1} g(v), and the iteration
    stops when the full-space surrogate residual A u + M Q B^{-1} g(u_t)
    - F, on the interior rows, falls to cfg.tolerance(r0), with r0 its
    norm at u = 0.  The result has zero boundary values; one successful
    call counts as one finite element solve.
    """
    cfg = cfg or NewtonConfig()
    eim = surrogate.eim_g
    if eim.M < 1:
        raise ValueError("the interpolant needs at least one basis field")
    surrogate.update()
    problem = surrogate.problem
    space = problem.space
    bdofs = space.boundary_dofs
    term = problem.term
    t = np.asarray(eim.t, dtype=int)
    xt = space.dof_coords[t]
    mass_q, solved_q = surrogate.mass_q, surrogate.solved_q
    # K = E_t A^{-1} M Q B^{-1}, as K^T = B^{-T} (E_t A^{-1} M Q)^T
    k_mat = solve_triangular(eim.B, solved_q[t].T, lower=True, trans="T").T
    a = surrogate.linear[t]

    def residual_norm(uv):
        # divergence shows up as inf/nan and is classified by _newton
        with np.errstate(over="ignore", invalid="ignore"):
            r = (problem.stiffness @ uv
                 + mass_q @ eim.coeffs(term.g(uv[t], xt, mu)) - problem.load)
            r[bdofs] = 0.0
            return float(np.linalg.norm(r))

    v = np.zeros(eim.M)
    u = np.zeros(space.ndof)

    def step():
        nonlocal v, u
        with np.errstate(over="ignore", invalid="ignore"):
            f = v + k_mat @ term.g(v, xt, mu) - a
            jac = np.eye(eim.M) + k_mat * term.dg_du(v, xt, mu)
        try:
            v = v - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(
                f"singular surrogate Jacobian at mu={mu}: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            u = surrogate.linear - solved_q @ eim.coeffs(term.g(v, xt, mu))
        u[bdofs] = 0.0
        return residual_norm(u)

    stats = _newton(mu, cfg, counter, residual_norm(u), step)
    return FEField(space, u), stats

"""The Newton driver, and the full and EIM-surrogate finite element solves.

``_newton`` is the one Newton loop for a single parameter.  The truth
solve, the surrogate snapshot solve below and the online reduced solve
(``rb.ReducedModel.solve``) each hand it a residual and a step; it
applies the stopping rule ``cfg.tolerance(r0)`` and ``max_iter``, and
raises every failure from one set of templates (``newton_failure``):
a residual not finite at the initial guess, a stall, a divergence, and
a singular Jacobian.  r0 is the residual norm at zero: a solve that
starts elsewhere (the truth solve from a neighbour's solution, the
reduced solve from a tangent prediction off its model's solution at
the nearest training parameter, see ``nearest``) passes it as the
reference, so a good start saves steps but never moves the rule.
``rb.ReducedModel.solve_many``, the block solver of the greedy sweeps,
raises its failures from the same templates and takes its tolerances
from the same rule, one array for the whole block.

The full problem is: find u with zero boundary values such that

    A u + M g(u) = F

where A is the stiffness matrix, M the mass matrix, g is applied to the
nodal values of u (so the nonlinear term is the nodal interpolant of
g(u(x), x; mu)), and F the assembled load.  Newton uses the exact
Jacobian A + M diag(g'(u)) of this residual.

The boundary values are zero, so Newton only solves for the interior
values u_I: each step solves J_II du = -r_I, with r_I the interior rows
of the residual and J_II = A_II + M_II diag(g'(u_I)) the interior block
of the Jacobian, and adds du to u_I.  A and M are assembled from the same
element-to-dof map, so A_II and M_II share one sparsity pattern: the
problem keeps A_II in CSC form, the data of M_II on that pattern and the
column of every stored entry, and each step writes the Jacobian's data
a_k + m_k g'(u_I)[col_k] into the pattern.  No sparse product, boundary
elimination or format conversion runs per iteration.  The interior
values are numbered once, in a nested-dissection elimination order of
the graph of A_II, so every Jacobian and A_II itself are factored in
that order with no column ordering per factorisation.  This interior
block is the package's one linear-solve path: the truth Newton steps,
the surrogate solves below and a plain Poisson solve (a problem with no
term) all factor on it with fem.factor_sparse and solve with
fem.solve_factored, and no boundary-eliminated full system is formed.

Factoring a Jacobian costs as much as about thirteen solves with a
factor at hand (9 vs 0.7 ms at n=32 P2, one thread of an Intel Xeon),
so the truth Newton reuses its last factor while that factor still
contracts (the chord method): a step first tries u_I - J_old^{-1} r_I
with the most recent Jacobian factor J_old, and keeps it if its
residual norm is at most CHORD_CONTRACTION ||r||.  Otherwise the trial
is discarded, the Jacobian at the current iterate is factored and the
Newton step is taken, so every step cuts the residual tenfold or is a
Newton step.  The last factor lives in a Chord slot, which may carry it
from one solve to the next (truth_newton_solve).

The EIM-surrogate problem replaces g(u) by its empirical interpolant
Q B^{-1} g(u_t): Q holds the M basis fields as columns, B is the lower
triangular interpolation matrix and u_t are the values of u at the M
interpolation points t (dofs, so E_t u = u_t picks rows of u):

    A u + M Q B^{-1} g(u_t) = F    on the interior rows.

Let A also denote the interior block A_II, acting on interior values
extended by zero on the boundary, and read F and M Q on the interior
rows.  Then every surrogate solution is

    u = A^{-1} F - (A^{-1} M Q) B^{-1} g(u_t),                    (*)

fixed by its M point values.  Applying E_t to (*) gives the
M-dimensional system

    v + K g(v) = a,    K = E_t A^{-1} M Q B^{-1},    a = E_t A^{-1} F,

with v = u_t.  Conversely, lifting a solution v by (*) gives a u with
u_t = a - K g(v) = v, so u solves the surrogate problem: the two are
equivalent.  Newton on the small system uses its exact Jacobian
I + K diag(g'(v)).

The stopping rule stays the one of the full problem: the norm of the
surrogate residual r = A u + M Q B^{-1} g(u_t) - F on the interior rows.
Every Newton iterate v is read as its lift u(v) by (*), and that needs
no mesh: A u(v) = F - M Q B^{-1} g(v) on the interior rows, so

    r_I = (M Q)_I B^{-1} (g(u_t) - g(v)),    u_t = a - K g(v),

an M-vector mapped by the interior rows of M Q.  With R the M x M
Cholesky factor of their Gram matrix, R^T R = (M Q)_I^T (M Q)_I, the
norm is ||r_I|| = ||R B^{-1} (g(u_t) - g(v))||.  So the full problem
enters through one factorisation of A_II, one solve per interpolant
field for its column A^{-1} M q_m (see SurrogateSolver), the residual
at u = 0 that sets the tolerance, and one lift per snapshot, of the
converged v; a Newton step makes no ndof-sized array.

The products M q_m themselves are made by MassFields, their one owner:
a build makes one for its interpolant, and the SurrogateSolver and the
reduced blocks (rb.RbSpace.model) both read its vectors, so each
product is made once per build.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem import (SolverFailure, assemble_load, assemble_stiffness,
                  assemble_weighted_mass, factor_sparse, nested_dissection,
                  solve_factored)


# a step with a reused Jacobian factor is kept when it cuts the residual
# norm to at most this fraction; else the Jacobian is refactored
CHORD_CONTRACTION = 0.1


class NewtonFailure(RuntimeError):
    """Newton did not converge; carries the residual norm history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class NewtonConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0
                   for tol in (self.abs_tol, self.rel_tol)):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def tolerance(self, initial_residual):
        """max(abs_tol, rel_tol * r0) of one norm r0, or of each entry of
        an array of norms: np.fmax, like max here, ignores a nan r0 and
        keeps an infinite one, so both give the same bits."""
        return np.fmax(self.abs_tol, self.rel_tol * initial_residual)


# the settings of a solve given none; never changed, so one is shared
DEFAULT_NEWTON = NewtonConfig()


@dataclass
class SolveStats:
    iterations: int
    final_residual_norm: float
    residual_history: list


class NonlinearTerm:
    """Pointwise nonlinearity g(u, x; mu) and its u-derivative.

    Both callables act on a block of parameters at once: they take a
    (P, k) array of u values, one row per parameter, the matching (k, 2)
    coordinates and the (P, 2) array of parameters, and return the (P, k)
    values.  A solve at one parameter passes one row.  A term may
    overflow to inf: its callers own numpy's warning state (the errstate
    of _newton, rb.ReducedModel.solve_many and ser.GBlock).
    """

    def __init__(self, g, dg_du):
        self.g = g
        self.dg_du = dg_du


class Chord:
    """One slot for the last Jacobian factor (a factor_sparse pair) made by
    the truth solves of one problem, and the count of factors made."""

    def __init__(self):
        self.factor = None
        self.factorizations = 0

    def refactor(self, jacobian):
        """Factor jacobian into the slot, replacing the factor it held."""
        self.factor = None          # freed first: one factor alive at a time
        self.factor = factor_sparse(jacobian)
        self.factorizations += 1
        return self.factor


def mu_row(mu):
    """One parameter as the (1, 2) parameter block the term takes."""
    return np.asarray(mu, dtype=float).reshape(1, -1)


def nearest(log_columns, log_mu):
    """Column of the (2, k) array log_columns of log-parameters nearest to
    the (2,) log-parameter log_mu, the first on a tie: the start rule of
    the truth references and of the online reduced solve."""
    d0 = log_columns[0] - log_mu[0]
    d1 = log_columns[1] - log_mu[1]
    d0 *= d0
    d1 *= d1
    d0 += d1
    return int(d0.argmin())


class NonlinearProblem:
    """Space + nonlinearity + right-hand side, with operators made on
    first use.

    Constructing a problem assembles nothing: the stiffness, the mass,
    their sum x_op (the H1 inner product), the load and the mass row sums
    are each made once, when first read, so that an online model (which
    reads only the term and the dof coordinates) never pays for them.
    The problem is their one owner: the space holds no operator, so two
    problems on one space each make their own.  Each is a plain instance
    attribute once made, and an assigned operator replaces it.
    """

    def __init__(self, space, term, rhs):
        self.space = space
        self.term = term
        self.rhs = rhs

    @cached_property
    def stiffness(self):
        return assemble_stiffness(self.space)

    @cached_property
    def mass(self):
        return assemble_weighted_mass(self.space, np.ones(self.space.ndof))

    @cached_property
    def x_op(self):
        """Stiffness plus mass (CSR): the H1 inner product in which the
        reduced basis is orthonormal."""
        return (self.stiffness + self.mass).tocsr()

    @cached_property
    def load(self):
        return assemble_load(self.space, self.rhs)

    @cached_property
    def _mass_row_sums(self):
        return np.asarray(self.mass.sum(axis=1)).ravel()

    @cached_property
    def interior_block(self):
        """(interior dofs, A_II, M_II data, column of each stored entry),
        built on first use.

        The interior dofs come in the nested-dissection elimination order
        of the graph of A_II (fem.nested_dissection), and A_II, the
        interior block of the stiffness in CSC form with sorted indices,
        has its rows and columns in that order, so that it and every
        Jacobian on its pattern factor without a further ordering.  The
        third array holds the interior mass block's entries in the same
        positions, which requires one sparsity pattern for both.
        """
        idx = self.space.interior_dofs
        order = nested_dissection(self.stiffness[idx][:, idx],
                                  self.space.dof_coords[idx])
        idx = idx[order]
        a_ii = self.stiffness[idx][:, idx].tocsc()
        m_ii = self.mass[idx][:, idx].tocsc()
        a_ii.sort_indices()
        m_ii.sort_indices()
        if not (np.array_equal(a_ii.indptr, m_ii.indptr)
                and np.array_equal(a_ii.indices, m_ii.indices)):
            raise ValueError(
                "stiffness and mass matrices differ in sparsity pattern")
        cols = np.repeat(np.arange(len(idx)), np.diff(a_ii.indptr))
        return idx, a_ii, m_ii.data, cols

    def average(self, values):
        """Integral of the field over the unit square (|Omega| = 1)."""
        return float(self._mass_row_sums @ values)


# the failures of every Newton solve; {what} names the solver ("" for
# the truth solve, "surrogate " or "reduced ")
_FAILURES = {
    "start": "{what}residual not finite at the initial guess, mu={mu}",
    "stall": "{what}solve stalled after {iterations} iterations at mu={mu}",
    "diverge": "{what}residual diverged at mu={mu}",
    "singular": "singular {what}Jacobian at mu={mu}: {cause}",
}


def newton_failure(kind, what, mu, history, cause):
    """The exception a Newton solve at mu raises for a failure of the given
    kind (a key of _FAILURES): a NewtonFailure carrying the residual
    history, or for "singular" a SolverFailure caused by the LinAlgError
    cause.  A stall's iteration count is len(history) - 1, and mu is shown
    as a tuple of floats."""
    text = _FAILURES[kind].format(what=what, mu=tuple(map(float, mu)),
                                  iterations=len(history) - 1, cause=cause)
    if kind != "singular":
        return NewtonFailure(text, history)
    failure = SolverFailure(text)
    failure.__cause__ = cause
    return failure


def _newton(what, mu, cfg, residual, step, reference=None):
    """The Newton loop of every single-parameter solve.

    residual() evaluates the residual at the initial guess and returns
    its norm; step() takes one Newton step and returns the new norm.
    The loop stops at the first norm <= cfg.tolerance(r0), with r0 the
    norm at the initial guess, or the value of reference() when the
    caller gives that function, called once after the first residual().
    A caller that starts away from zero gives the norm at zero that way:
    the truth solve with an initial guess, and the reduced solve always,
    so that where a solve starts never moves where it stops.  Every
    solve takes at least one step.  All three run with numpy's overflow
    and invalid-value warnings off: a diverging iterate shows up as an
    inf or nan norm and is raised as a failure here.  A
    np.linalg.LinAlgError from step() is a singular Jacobian.  what
    labels the solver in the failure messages (newton_failure).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r_norm = residual()
        history = [r_norm]
        if not math.isfinite(r_norm):
            raise newton_failure("start", what, mu, history, None)
        tol = cfg.tolerance(r_norm if reference is None else reference())
        while len(history) <= cfg.max_iter:
            try:
                r_norm = step()
            except np.linalg.LinAlgError as exc:
                raise newton_failure("singular", what, mu, history, exc) from exc
            history.append(r_norm)
            if not math.isfinite(r_norm):
                raise newton_failure("diverge", what, mu, history, None)
            if r_norm <= tol:
                break
        else:
            raise newton_failure("stall", what, mu, history, None)
    return SolveStats(iterations=len(history) - 1, final_residual_norm=r_norm,
                      residual_history=history)


def truth_jacobian(problem, u, mu):
    """Interior block J_II = A_II + M_II diag(g'(u_I)) of the exact
    derivative of the residual A u + M g(u) - F, written into the fixed
    CSC pattern of problem.interior_block.  mu is one parameter or its
    (1, 2) row."""
    import scipy.sparse as sp
    idx, a_ii, m_data, cols = problem.interior_block
    dg = problem.term.dg_du(u[None, idx], problem.space.dof_coords[idx],
                            mu_row(mu))[0]
    data = a_ii.data + m_data * dg[cols]
    return sp.csc_matrix((data, a_ii.indices, a_ii.indptr), shape=a_ii.shape)


def truth_newton_solve(problem, mu, cfg=None, initial=None, chord=None):
    """Solve the full nonlinear problem at mu with exact nonlinearity,
    from the interior values of initial (ndof nodal values), or from
    u = 0 when none is given.

    Each step solves for the interior values only (module docstring);
    the boundary values stay zero.  A step first tries the factor held
    by chord, the last one made on this problem: the trial u_I -
    J_old^{-1} r_I is kept iff its residual norm is at most
    CHORD_CONTRACTION ||r||.  A rejected trial (no contraction, a
    residual not finite, or a SolverFailure of the solve) leaves the
    iterate untouched; the Jacobian at the iterate is then factored into
    chord and the Newton step taken.  Either way it is one iteration.
    chord=None gives the solve a slot of its own, so it starts with a
    Newton step; a Chord passed in carries its factor to the next solve.

    The stopping tolerance is cfg.tolerance of the residual norm at
    u = 0, ||(M g(0) - F)_I||, whatever the initial guess: a guess near
    the solution saves steps but does not tighten the rule.  Returns the
    ndof nodal values and the SolveStats.
    """
    cfg = cfg or DEFAULT_NEWTON
    chord = Chord() if chord is None else chord
    space = problem.space
    bdofs = space.boundary_dofs
    idx = problem.interior_block[0]
    coords = space.dof_coords
    term = problem.term
    mus = mu_row(mu)
    u = np.zeros(space.ndof)
    r = None

    def residual_at(v):
        out = (problem.stiffness @ v
               + problem.mass @ term.g(v[None], coords, mus)[0]
               - problem.load)
        out[bdofs] = 0.0
        return out

    def residual():
        nonlocal r
        r = residual_at(u)
        return np.linalg.norm(r)

    def norm_at_zero():
        return np.linalg.norm(residual_at(np.zeros(space.ndof)))

    def chord_step():
        """The trial iterate of the held factor and its residual, or None
        when there is no factor or the trial does not contract."""
        if chord.factor is None:
            return None
        trial = u.copy()
        try:
            trial[idx] += solve_factored(chord.factor, -r[idx])
        except SolverFailure:
            return None
        r_trial = residual_at(trial)
        if np.linalg.norm(r_trial) <= CHORD_CONTRACTION * np.linalg.norm(r):
            return trial, r_trial
        return None

    def step():
        nonlocal u, r
        accepted = chord_step()
        if accepted is not None:
            u, r = accepted
            return np.linalg.norm(r)
        factor = chord.refactor(truth_jacobian(problem, u, mus))
        u[idx] += solve_factored(factor, -r[idx])
        return residual()

    if initial is not None:
        u[idx] = np.asarray(initial, dtype=float)[idx]
    stats = _newton("", mu, cfg, residual, step,
                    None if initial is None else norm_at_zero)
    return u, stats


class MassFields:
    """The mass products M q_m of the fields q_m of one interpolant: the
    one place where they are made.

    A build makes one for its interpolant and hands it to everything
    that reads M Q: the SurrogateSolver and every RbSpace.model call,
    those of the spaces a rebuild replaces included.  The fields of an
    interpolant are append-only, so each product is made once, when
    update() first sees its field, and kept as a contiguous vector.
    """

    def __init__(self, problem, eim):
        self.problem = problem
        self.eim = eim
        self.vectors = []

    def update(self):
        """The products of every field of eim, those of the fields
        appended since the last call made now."""
        for q in self.eim.fields[len(self.vectors):]:
            self.vectors.append(self.problem.mass @ q)
        return self.vectors


class SurrogateSolver:
    """Full-space state of the EIM-surrogate solve, kept for one build.

    Factors the interior stiffness block A_II once, solves A^{-1} F, and
    keeps A^{-1} M q_m for every field q_m of the interpolant (solutions
    on the interior rows, zero on the boundary), from the products M q_m
    of mass_fields (a MassFields).  From these, update() makes the M x M
    data of the solve in the point values (module docstring): the point
    coordinates xt, a = E_t A^{-1} F, K = E_t A^{-1} M Q B^{-1} and the
    norm map R B^{-1}, with R the Cholesky factor of the Gram matrix
    G = (M Q)_I^T (M Q)_I of the interior rows (positive definite while
    the interior rows of the M q_m are independent), and the (ndof, M)
    stacks mass_q of the M q_m and solved_q of the A^{-1} M q_m.  The
    fields of an interpolant are append-only, so the columns of earlier
    fields stay valid: a field appended since the last solve costs one
    solve with the cached factor and one dot product per new entry of G,
    and nothing is refactored.  G grows entry by entry, so a solver
    updated field by field holds the same bits as one made fresh.
    """

    def __init__(self, mass_fields):
        self.mass_fields = mass_fields
        self.problem = problem = mass_fields.problem
        self.eim_g = mass_fields.eim
        self._factor = factor_sparse(problem.interior_block[1])
        self.linear = self._solve(problem.load)              # A^{-1} F
        self._solved = []                                    # A^{-1} M q_m
        self._gram = np.zeros((0, 0))                        # (M Q)_I^T (M Q)_I

    def _solve(self, rhs):
        """A_II^{-1} on the interior rows of rhs, zero on the boundary."""
        idx = self.problem.interior_block[0]
        x = np.zeros(self.problem.space.ndof)
        x[idx] = solve_factored(self._factor, rhs[idx])
        return x

    def update(self):
        """Add the columns of the fields appended to eim_g since the last
        call, and remake the M x M data of the solve from them."""
        eim = self.eim_g
        m_old = len(self._solved)
        if m_old == eim.M:
            return
        mass_qs = self.mass_fields.update()
        idx = self.problem.interior_block[0]
        interior = [mq[idx] for mq in mass_qs]
        gram = np.zeros((eim.M, eim.M))
        gram[:m_old, :m_old] = self._gram
        for m in range(m_old, eim.M):
            for k in range(m + 1):
                gram[m, k] = gram[k, m] = interior[m] @ interior[k]
            self._solved.append(self._solve(mass_qs[m]))
        self._gram = gram
        self.mass_q = np.column_stack(mass_qs)
        self.solved_q = np.column_stack(self._solved)
        t = np.asarray(eim.t, dtype=int)
        self.xt = self.problem.space.dof_coords[t]
        self.a = self.linear[t]
        # X B^{-1} as (B^{-T} X^T)^T, for X = E_t A^{-1} M Q and for
        # R = L^T, with G = L L^T; B^T is unit upper triangular, so the LU
        # solve pivots no row
        self.k_mat = np.ascontiguousarray(
            np.linalg.solve(eim.B.T, self.solved_q[t].T).T)
        self.norm_map = np.ascontiguousarray(
            np.linalg.solve(eim.B.T, np.linalg.cholesky(self._gram)).T)


def truth_newton_solve_eim(surrogate, mu, cfg=None):
    """Solve the full problem with the nonlinear term replaced by the
    empirical interpolant surrogate.eim_g, in its M point values.

    Newton solves v + K g(v) = a (module docstring) from v = 0 with the
    exact Jacobian I + K diag(g'(v)), an M x M system.  It stops when
    the norm of the full-space surrogate residual A u + M Q B^{-1}
    g(u_t) - F on the interior rows falls to cfg.tolerance(r0), with r0
    its norm at u = 0.  That first norm is taken on the mesh; every
    later iterate is read as its lift u(v), whose residual norm is
    ||R B^{-1} (g(u_t) - g(v))|| with u_t = a - K g(v), so a step makes
    no ndof-sized array.  Only the converged v is lifted to the mesh.
    Returns the ndof nodal values, zero on the boundary, and the
    SolveStats.
    """
    cfg = cfg or DEFAULT_NEWTON
    eim = surrogate.eim_g
    if eim.M < 1:
        raise ValueError("the interpolant needs at least one basis field")
    surrogate.update()
    problem = surrogate.problem
    bdofs = problem.space.boundary_dofs
    term = problem.term
    mus = mu_row(mu)
    xt, a, k_mat = surrogate.xt, surrogate.a, surrogate.k_mat
    norm_map = surrogate.norm_map

    v = np.zeros(eim.M)
    g_v = k_g = None        # g(v) and K g(v) at the current v

    def residual():
        """The full-space residual at u = 0, where A u vanishes and the
        point values are v = 0."""
        nonlocal g_v, k_g
        g_v = term.g(v[None], xt, mus)[0]
        k_g = k_mat @ g_v
        r = surrogate.mass_q @ eim.coeffs(g_v) - problem.load
        r[bdofs] = 0.0
        return float(np.linalg.norm(r))

    def step():
        nonlocal v, g_v, k_g
        f = v + k_g - a
        jac = np.eye(eim.M) + k_mat * term.dg_du(v[None], xt, mus)
        v = v - np.linalg.solve(jac, f)
        g_v = term.g(v[None], xt, mus)[0]
        k_g = k_mat @ g_v
        u_t = a - k_g
        delta = term.g(u_t[None], xt, mus)[0] - g_v
        r = norm_map @ delta
        return math.sqrt(r @ r)     # np.linalg.norm, without its overhead

    stats = _newton("surrogate ", mu, cfg, residual, step)
    u = surrogate.linear - surrogate.solved_q @ eim.coeffs(g_v)
    u[bdofs] = 0.0
    return u, stats

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
the nearest training parameter, see ``nearest``, and a rebuild's
surrogate re-solve from the parameter's last answer) passes it as the
reference, so a good start saves steps but never moves the rule.
``rb.ReducedModel.solve_many``, the block solver of the greedy sweeps,
raises its failures from the same templates and takes its tolerances
from the same rule, one array for the whole block.

The full problem is: find u with zero boundary values such that

    A u + M g(u) = F

where A is the stiffness matrix, M the mass matrix, g is applied to the
nodal values of u (so the nonlinear term is the nodal interpolant of
g(u(x); mu)), and F the assembled load.  Newton uses the exact
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
contracts (the chord method), and corrects it with the secant pairs of
its trials (Broyden's second method).  A step first
tries u_I - H r_I, where H v = J_old^{-1} v + sum_j a_j (y_j . v)
holds the most recent Jacobian factor J_old and one pair (y_j, a_j)
per trial made with it in this solve, and keeps it if its residual
norm is at most CHORD_CONTRACTION ||r||.  A refused trial adds its pair
and is tried once more from the same iterate; if that retry is refused
too, the Jacobian at the current iterate is factored, the pairs are
dropped and the Newton step is taken, so every step cuts the residual
tenfold or is a Newton step.  On the n=32 P2 standard build over a
10x10 grid this takes 22 factorisations instead of 38 (44 instead of
108 over 20x20).  A Chord holds H: the last factor, which it may
carry from one solve to the next (truth_newton_solve), and the pairs,
which belong to one solve and go with their factor.

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
    residual_history: list   # norms from the initial guess; the last is final


class NonlinearTerm:
    """Pointwise nonlinearity g(u; mu) and its u-derivative.

    Both callables act on a block of parameters at once: they take a
    (P, k) array of u values, one row per parameter, and the (P, 2)
    array of parameters, and return the (P, k) values.  A solve at one
    parameter passes one row.  A term may overflow to inf: its callers
    own numpy's warning state (the errstate of _newton,
    rb.ReducedModel.solve_many, ser.ReducedGBlock, ser.truth_g_block
    and screen.Float32Screen).

    error_bound lets the greedy step screen a reduced sweep in float32
    (``screen``); a row where it is inf runs in float64, so a term that
    can bound nothing returns inf everywhere.  The screen assumes three
    things of a term:

    * g run on float32 u and float32 parameters computes in float32,
      with the parameters rounded to float32;
    * g is finite wherever its error bound is, and g and g' do not
      decrease in u, so the largest |g| and |g'| over an interval of u
      are at its ends: the error bound may read them there, and the
      bound that a sweep carries into the next reads |g'| at the two
      ends of an interval (``screen``);
    * ``error_bound(lo, hi, du, mus, dtype)``, given (P,) arrays lo, hi
      and du, the (P, 2) float64 parameters and a float dtype, returns
      for each row p a bound on |g_dtype(v; mu_p) - g(w; mu_p)| over
      every dtype value v in [lo_p, hi_p] and every real w with
      |w - v| <= du_p, where g_dtype is g run in that precision and g
      the exact function.  It is evaluated in float64 and may be inf
      (or nan) where it cannot bound; it covers the ulp errors of the
      library functions that g calls.
    """

    def __init__(self, g, dg_du, error_bound):
        self.g = g
        self.dg_du = dg_du
        self.error_bound = error_bound


class Chord:
    """The inverse Jacobian H of the chord steps of the truth solves of
    one problem, and the count of factors they made: the last Jacobian
    factor J0 made (a factor_sparse pair), which a Chord may carry from
    one solve to the next, with Broyden's second method pairs (y_j,
    a_j) of the trials made with it in the current solve, so that

        H v = J0^{-1} v + sum_j a_j (y_j . v).

    A trial step s = -H r that leads to the residual r+ adds the pair of
    y = r+ - r and a = -H r+ / (y . y), H r+ taken before the update:
    the updated H meets the secant condition H y = s, and acts as the
    old one on every vector orthogonal to y (Broyden, Math. Comp. 19,
    1965; Kelley, Iterative Methods for Linear and Nonlinear Equations,
    1995, ch. 7).  Each pair costs one solve, of H r+; a pair of y made
    at a kept step has H r+ at hand at the next step's direction.
    """

    def __init__(self):
        self.factor = None
        self.pairs = []
        self.factorizations = 0

    def refactor(self, jacobian):
        """Factor jacobian, replacing the factor held and dropping its
        pairs."""
        self.factor, self.pairs = None, []  # freed first: one factor alive
        self.factor = factor_sparse(jacobian)
        self.factorizations += 1

    def __call__(self, v):
        """H v, from one solve with the factor."""
        out = solve_factored(self.factor, v)
        for y, a in self.pairs:
            out += (y @ v) * a
        return out

    def update(self, y, h_next, h_r, r):
        """Add the pair of a trial step whose residual moved by y, given
        h_next = H r+ at its end; returns the updated H r from h_r = H r
        at its start, without a solve."""
        a = -h_next / (y @ y)
        self.pairs.append((y, a))
        return h_r + (y @ r) * a


def grown(arr, shape):
    """A new zero array of the given shape with arr in its leading block."""
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in arr.shape)] = arr
    return out


def mu_row(mu):
    """One parameter as the (1, 2) parameter block the term takes."""
    return np.asarray(mu, dtype=float).reshape(1, -1)


def nearest(log_columns, log_mu):
    """Column of the (2, k) array log_columns of log-parameters nearest to
    the (2,) log-parameter log_mu, the first on a tie: the rule by which
    the online reduced solve picks its start row, and the truth
    references the two cached solutions of their secant start."""
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
    reads only the term) never pays for them.
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
    return SolveStats(iterations=len(history) - 1, residual_history=history)


def truth_jacobian(problem, u, mu):
    """Interior block J_II = A_II + M_II diag(g'(u_I)) of the exact
    derivative of the residual A u + M g(u) - F, written into the fixed
    CSC pattern of problem.interior_block.  mu is one parameter or its
    (1, 2) row."""
    import scipy.sparse as sp
    idx, a_ii, m_data, cols = problem.interior_block
    dg = problem.term.dg_du(u[None, idx], mu_row(mu))[0]
    data = a_ii.data + m_data * dg[cols]
    return sp.csc_matrix((data, a_ii.indices, a_ii.indptr), shape=a_ii.shape)


def truth_newton_solve(problem, mu, cfg=None, initial=None, chord=None):
    """Solve the full nonlinear problem at mu with exact nonlinearity,
    from the interior values of initial (ndof nodal values), or from
    u = 0 when none is given.

    Each step solves for the interior values only (module docstring);
    the boundary values stay zero.  A step first tries the inverse
    Jacobian H of the chord steps, which chord holds: the last factor
    made on this problem, with the Broyden pairs of this solve's trials
    since that factor was made (the solve drops the pairs of the solve
    before at its start).  The trial u_I - H r_I is kept iff its
    residual norm is at most CHORD_CONTRACTION ||r||.  Every trial adds
    its pair to H, a kept one at the next step, where H r_I is solved
    anyway, so a trial costs one solve with the factor.  A refused trial
    leaves the iterate untouched and is tried once more with the updated
    H.  When that retry is refused too, or a trial's residual is not
    finite, or a solve raises SolverFailure, the Jacobian at the iterate
    is factored into chord, which drops the old factor and its pairs,
    and the Newton step is taken.  Either way it is one iteration.
    chord=None gives the solve a Chord of its own, so it starts with a
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
    mus = mu_row(mu)
    u = np.zeros(space.ndof)
    r = None

    def residual_at(v):
        out = (problem.stiffness @ v
               + problem.mass @ problem.term.g(v[None], mus)[0]
               - problem.load)
        out[bdofs] = 0.0
        return out

    def residual():
        nonlocal r
        r = residual_at(u)
        return np.linalg.norm(r)

    def norm_at_zero():
        return np.linalg.norm(residual_at(np.zeros(space.ndof)))

    chord.pairs = []    # the pairs of the solve before are not this one's
    kept = None     # y of the last kept trial, paired at the next step

    def chord_step():
        """The trial iterate of H and its residual, or None when there is
        no factor or neither of the two trials contracts."""
        nonlocal kept
        if chord.factor is None:
            return None
        r_i = r[idx]
        limit = CHORD_CONTRACTION * np.linalg.norm(r)
        try:
            h_r = chord(r_i)
            if kept is not None:
                y, kept = kept, None
                h_r = chord.update(y, h_r, h_r, r_i)
            for retry in (False, True):
                trial = u.copy()
                trial[idx] -= h_r
                r_trial = residual_at(trial)
                norm = np.linalg.norm(r_trial)
                r_next = r_trial[idx]
                if norm <= limit:
                    kept = r_next - r_i
                    return trial, r_trial
                if retry or not math.isfinite(norm):
                    return None
                h_r = chord.update(r_next - r_i, chord(r_next), h_r, r_i)
        except SolverFailure:
            return None

    def step():
        nonlocal u, r, kept
        accepted = chord_step()
        if accepted is not None:
            u, r = accepted
            return np.linalg.norm(r)
        kept = None
        chord.refactor(truth_jacobian(problem, u, mus))
        u[idx] += solve_factored(chord.factor, -r[idx])
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
    update() first sees its field, and kept as row m of vectors, an
    (M, ndof) array.
    """

    def __init__(self, problem, eim):
        self.problem = problem
        self.eim = eim
        self.vectors = np.zeros((0, problem.space.ndof))

    def update(self):
        """The products of every field of eim, those of the fields
        appended since the last call made now."""
        fresh = [self.problem.mass @ q
                 for q in self.eim.fields[len(self.vectors):]]
        if fresh:
            self.vectors = np.vstack([self.vectors, *fresh])
        return self.vectors


class SurrogateSolver:
    """Full-space state of the EIM-surrogate solve, kept for one build.

    Factors the interior stiffness block A_II once, solves A^{-1} F, and
    keeps A^{-1} M q_m for every field q_m of the interpolant (solutions
    on the interior rows, zero on the boundary) as column m of the
    (ndof, M) array solved_q, from the products M q_m, the rows of
    mass_fields.vectors (a MassFields), of which it keeps no copy.  From
    these, update() makes the M x M data of the solve in the point
    values (module docstring): a = E_t A^{-1} F, K = E_t A^{-1} M Q
    B^{-1} and the norm map R B^{-1}, with R the Cholesky factor of the
    Gram matrix G = (M Q)_I^T (M Q)_I of the interior rows (positive
    definite while the interior rows of the M q_m are independent).  The
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
        self.solved_q = np.zeros((problem.space.ndof, 0))    # A^{-1} M q_m
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
        m_old = self.solved_q.shape[1]
        if m_old == eim.M:
            return
        mass_qs = self.mass_fields.update()
        idx = self.problem.interior_block[0]
        # C order: each entry of G is a dot product of contiguous rows
        interior = np.ascontiguousarray(mass_qs.take(idx, axis=1))
        gram = grown(self._gram, (eim.M, eim.M))
        solved = grown(self.solved_q, (len(self.linear), eim.M))
        for m in range(m_old, eim.M):
            for k in range(m + 1):
                gram[m, k] = gram[k, m] = interior[m] @ interior[k]
            solved[:, m] = self._solve(mass_qs[m])
        self._gram, self.solved_q = gram, solved
        t = np.asarray(eim.t, dtype=int)
        self.a = self.linear[t]
        # X B^{-1} as (B^{-T} X^T)^T, for X = E_t A^{-1} M Q and for
        # R = L^T, with G = L L^T; B^T is unit upper triangular, so the LU
        # solve pivots no row
        self.k_mat = np.ascontiguousarray(
            np.linalg.solve(eim.B.T, self.solved_q[t].T).T)
        self.norm_map = np.ascontiguousarray(
            np.linalg.solve(eim.B.T, np.linalg.cholesky(self._gram)).T)


def truth_newton_solve_eim(surrogate, mu, cfg=None, *, initial):
    """Solve the full problem with the nonlinear term replaced by the
    empirical interpolant surrogate.eim_g, in its M point values.

    Newton solves v + K g(v) = a (module docstring) with the exact
    Jacobian I + K diag(g'(v)), an M x M system, from the values of
    initial (ndof nodal values, a parameter's last answer) at the
    current points t, or from v = 0 when initial is None.  It stops when
    the norm of the full-space surrogate residual A u + M Q B^{-1}
    g(u_t) - F on the interior rows falls to cfg.tolerance(r0), with r0
    its norm at u = 0 whatever the start, so a start saves steps but
    never moves the rule.  That norm is taken on the mesh, and it is
    the first of the history of a start at zero; every other iterate,
    a start from initial included, is read as its lift u(v), whose
    residual norm is ||R B^{-1} (g(u_t) - g(v))|| with u_t = a - K g(v),
    so a step makes no ndof-sized array.  Only the converged v is
    lifted to the mesh.  Returns the ndof nodal values, zero on the
    boundary, and the SolveStats.
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
    a, k_mat, norm_map = surrogate.a, surrogate.k_mat, surrogate.norm_map

    v = np.zeros(eim.M) if initial is None else initial[eim.t]
    g_v = k_g = None        # g(v) and K g(v) at the current v

    def lifted():
        """The residual norm at the lift u(v) of the current v, whose
        point values are u_t = a - K g(v)."""
        nonlocal g_v, k_g
        g_v = term.g(v[None], mus)[0]
        k_g = k_mat @ g_v
        u_t = a - k_g
        delta = term.g(u_t[None], mus)[0] - g_v
        r = norm_map @ delta
        return math.sqrt(r @ r)     # np.linalg.norm, without its overhead

    def at_zero():
        """The full-space residual norm at u = 0, where A u vanishes and
        the point values are 0."""
        g_0 = term.g(np.zeros((1, eim.M)), mus)[0]
        r = eim.coeffs(g_0) @ surrogate.mass_fields.vectors - problem.load
        r[bdofs] = 0.0
        return float(np.linalg.norm(r))

    def residual():
        """The norm at the start, at u = 0 for a start at zero; either
        way g(v) and K g(v) are set for the first step."""
        norm = lifted()
        return norm if initial is not None else at_zero()

    def step():
        nonlocal v
        f = v + k_g - a
        jac = np.eye(eim.M) + k_mat * term.dg_du(v[None], mus)
        v = v - np.linalg.solve(jac, f)
        return lifted()

    stats = _newton("surrogate ", mu, cfg, residual, step,
                    None if initial is None else at_zero)
    u = surrogate.linear - surrogate.solved_q @ eim.coeffs(g_v)
    u[bdofs] = 0.0
    return u, stats

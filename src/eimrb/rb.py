"""Reduced basis space, precomputed reduced operators, and the online solver.

Snapshots are orthonormalized in the full H1 inner product (stiffness
plus mass).  The reduced problem at a parameter mu is

    R(c) = A c + W g(Tr^T c) - F = 0,    W = Rq^T B^{-1},

where B is the interpolation matrix of the empirical interpolant of the
nonlinearity and Tr^T c are the values of the reduced solution at its
interpolation points t.  Newton uses the exact Jacobian

    J(c) = A + W diag(g'(Tr^T c)) Tr^T,

so nothing inside the Newton loop touches an object of full finite
element dimension.  ``ReducedModel.solve`` runs it at one parameter on
the package's one Newton driver (``nonlinear._newton``), the loop of
the truth and surrogate solves too.  ``solve_many`` is the block solver:
one masked Newton for a whole list of parameters at once, on a (P, N)
coefficient array started at a (P, N) start that the caller gives,
which is how the greedy sweeps of a build scan the training set.  It
applies the same stopping rule and builds its failures from the same
templates (``nonlinear.newton_failure``), so at each parameter it fails
as ``solve`` does from that parameter's start.  Both take R and J from
one pair of kernels on a (P, N) block, ``_residual`` and ``_jacobian``,
``solve`` on a (1, N) row.

An online query starts where the model already knows an answer near
it.  A model is given its start table (``StartTable``), or none:
``start_table(model, mus)`` makes one over parameters mu_k, in a build
its training set: at each of them the model's own reduced solution c_k,
from one cold ``solve_many`` with the default settings, and the slope
S_k = dc/dlog mu there, the tangent of the solution path,

    S_k = -J(c_k)^{-1} W dg/dlog mu (Tr^T c_k; mu_k),

from one stacked solve with the two columns of the right-hand side as
its right-hand sides; dg/dlog mu is a central difference of the term on
the point values (step ``SLOPE_STEP``), since the term has no
mu-derivative.  A row whose cold solve fails or whose slope is not
finite is left out.  ``solve`` without an initial guess starts Newton
at the Euler (tangent) prediction c_k + S_k (log mu - log mu_k) of the
row nearest to mu in log-parameter distance (``nonlinear.nearest``, by
which the truth references pick their start too), or at zero with no
table or no row.
Every ``solve`` and every row of ``solve_many`` stops at cfg.tolerance
of its residual norm at c = 0, whatever its start, so a start saves
steps but never moves the rule.  A greedy sweep starts at the last
sweep's answers (``ser.reduced_g_block``); the table's own block solve
starts at zero, so a table does not depend on the build's history.
``build_ser`` makes the table of the final model and of each
stored checkpoint, an archive stores them, and a restriction is given
its parent's table sliced to its n coefficients: the basis is nested,
so the leading coefficients of the parent's rows and slopes start the
restricted solve near its answer.  The sweep models of
``RbSpace.model`` hold no table: a sweep gives each solve its start.

``RbSpace`` is the build's growing state: the basis, extended by each
snapshot, and the reduced blocks on it, extended when a model is asked
for (``RbSpace.model``).  ``ReducedModel`` is the online model of one
(N, M) stage, made from its arrays and never grown: ``RbSpace.model``
makes one from the current blocks and the interpolant's points and
matrix, ``restrict`` from slices of a larger model, and
``archive.load_model`` from the arrays of an archive.  The interpolant's
fields enter a model only through Rq, so no model holds them, and
``RbSpace.model`` reads their mass products M q_m from the build's
``nonlinear.MassFields``, so a space never makes one.

A model forms W on first use, from B and Rq, and a model given a
function in place of its (ndof, N) basis calls it on first use.  The
online solve reads W and never the basis, so a loaded model, which is
given its stored table and parses its basis on its first lift,
answers a query without the basis and on numpy alone.
"""

import math
from contextlib import suppress
from functools import cached_property

import numpy as np

from .nonlinear import (DEFAULT_NEWTON, _newton, grown, nearest,
                        newton_failure)

# step in log mu of the central difference of the term in the slopes
SLOPE_STEP = 1e-5


class DependentSnapshot(RuntimeError):
    """Snapshot is linearly dependent on the current basis."""


class RbSpace:
    """Orthonormal basis of truth snapshots with zero boundary values,
    and the reduced blocks on it.

    A is the reduced stiffness and F the reduced load.  Rq holds one
    reduced vector per interpolant field; avg holds the basis averages.
    ``model`` grows them: existing entries are never recomputed, only new
    rows, columns and vectors are filled in, into new arrays, so a model
    made earlier never sees a later entry.  basis holds the basis
    vectors as the rows of an (N, ndof) array and x_basis their products
    with x_op; each snapshot appends a row to both, into new arrays.
    ``model`` hands each model it makes the basis as (ndof, N) columns
    and the basis traces at the interpolation points.
    """

    REJECT_REL = 1e-10

    def __init__(self, problem):
        self.problem = problem
        self.x_op = problem.x_op
        ndof = problem.space.ndof
        self.basis = np.zeros((0, ndof))      # orthonormal dof vectors
        self.x_basis = np.zeros((0, ndof))    # cached x_op @ xi
        self.mus = []
        self.A = np.zeros((0, 0))
        self.F = np.zeros(0)
        self.Rq = np.zeros((0, 0))
        self.avg = np.zeros(0)

    @property
    def N(self):
        return len(self.basis)

    def x_norm(self, values):
        return float(np.sqrt(max(values @ (self.x_op @ values), 0.0)))

    def add_snapshot(self, values, mu):
        """Modified Gram-Schmidt with one re-orthogonalization pass.

        Raises DependentSnapshot when the projection residual drops below
        1e-10 relative to the incoming snapshot norm.
        """
        v = np.array(values, dtype=float)
        u_norm = self.x_norm(v)
        if u_norm == 0.0:
            raise DependentSnapshot(f"zero snapshot at mu={mu}")
        for _ in range(2):
            for xi, xxi in zip(self.basis, self.x_basis):
                v -= (xxi @ v) * xi
        norm = self.x_norm(v)
        if norm < self.REJECT_REL * u_norm:
            raise DependentSnapshot(
                f"snapshot at mu={mu} is dependent (residual {norm:.3e} "
                f"of {u_norm:.3e})")
        xi = v / norm
        self.basis = np.vstack([self.basis, xi])
        self.x_basis = np.vstack([self.x_basis, self.x_op @ xi])
        self.mus.append(tuple(mu))
        return xi

    def model(self, mass_fields):
        """Online model of the current basis and the interpolant of
        mass_fields (a nonlinear.MassFields, which makes the products
        M q_m that Rq reads), its blocks first grown to the current
        (N, M), with no start table."""
        eim = mass_fields.eim
        mass_qs = mass_fields.update()
        n_old, n_new = self.A.shape[0], self.N
        m_old, m_new = self.Rq.shape[0], eim.M
        stiffness = self.problem.stiffness
        basis = self.basis
        self.A = grown(self.A, (n_new, n_new))
        self.F = grown(self.F, (n_new,))
        self.Rq = grown(self.Rq, (m_new, n_new))
        self.avg = grown(self.avg, (n_new,))

        # new basis columns: fill row/column n across every block
        for n in range(n_old, n_new):
            xi = basis[n]
            col = stiffness @ xi
            row = stiffness.T @ xi
            for j in range(n + 1):
                self.A[j, n] = basis[j] @ col
                if j < n:
                    self.A[n, j] = row @ basis[j]
            self.F[n] = self.problem.load @ xi
            for m, mq in enumerate(mass_qs):
                self.Rq[m, n] = mq @ xi
            self.avg[n] = self.problem.average(xi)

        # new interpolant fields: fill the old basis range
        for m in range(m_old, m_new):
            mq = mass_qs[m]
            for n in range(n_old):
                self.Rq[m, n] = mq @ basis[n]

        return ReducedModel(self.problem, eim.t, eim.B, self.A, self.F,
                            self.Rq, np.ascontiguousarray(basis[:, eim.t]),
                            self.avg, np.ascontiguousarray(basis.T),
                            self.mus, None)


class RbSolution:
    """Coefficients of the reduced solution at one parameter."""

    __slots__ = ("coeffs", "newton_iters", "residual_history")

    def __init__(self, coeffs, newton_iters, residual_history):
        self.coeffs = coeffs
        self.newton_iters = newton_iters
        self.residual_history = residual_history


class StartTable:
    """The rows where ``ReducedModel.solve`` may start: the (P, 2)
    parameters mus, the (P, N) reduced solutions coeffs there and the
    (P, 2, N) slopes, row k holding dc/dlog mu_1 and dc/dlog mu_2 at
    mus[k]; logs are the (P, 2) log-parameters."""

    __slots__ = ("mus", "coeffs", "slopes", "logs", "_log_columns")

    def __init__(self, mus, coeffs, slopes):
        self.mus, self.coeffs, self.slopes = mus, coeffs, slopes
        self.logs = np.log(mus)
        # the nearest-row search is faster on two contiguous columns
        self._log_columns = np.ascontiguousarray(self.logs.T)

    def start(self, mu):
        """The tangent prediction at the (2,) parameter mu from the row
        nearest in log-parameter distance, or zero with no row."""
        if not len(self.coeffs):
            return np.zeros(self.coeffs.shape[1])
        log_mu = np.log(mu)
        k = nearest(self._log_columns, log_mu)
        return self.coeffs[k] + (log_mu - self.logs[k]) @ self.slopes[k]


class ReducedModel:
    """Everything needed to solve the reduced problem at a new parameter.

    t (M,) are the interpolation points (dof indices) and B (M, M) the
    interpolation matrix; A (N, N) and F (N,) are the reduced stiffness
    and load, Rq (M, N) the reduced interpolant fields, Tr (N, M) the
    basis traces at the interpolation points, avg (N,) the basis averages
    and basis the (ndof, N) stacked basis, or a function of no arguments
    that returns it when it is first read (how a loaded model parses it
    late).  snapshot_mus records the parameters of the basis snapshots,
    and table is the StartTable where solve starts, or None for a start
    at zero.  W is derived on first use; an assigned W or basis replaces
    the derived one.
    """

    def __init__(self, problem, t, B, A, F, Rq, Tr, avg, basis,
                 snapshot_mus, table):
        self.problem = problem
        # own copies: the build's interpolant goes on growing
        self.t = np.array(t, dtype=np.int64)
        self.B = np.array(B, dtype=float)
        self.A, self.F, self.Rq, self.Tr, self.avg = A, F, Rq, Tr, avg
        if callable(basis):
            self._read_basis = basis
        else:
            self.basis = basis
        self.snapshot_mus = [tuple(mu) for mu in snapshot_mus]
        self.table = table

    @cached_property
    def W(self):
        """Rq^T B^{-1} (N x M), formed once, so a Newton step needs no
        triangular solve.  B^T is unit upper triangular, so the LU solve
        pivots no row; W is C-contiguous, since the bits of W @ g can
        depend on the layout."""
        return np.ascontiguousarray(np.linalg.solve(self.B.T, self.Rq).T)

    @cached_property
    def basis(self):
        """The (ndof, N) stacked basis of a model made with a function in
        its place, from one call of that function."""
        return self._read_basis()

    @property
    def N(self):
        return self.A.shape[0]

    @property
    def M(self):
        return len(self.t)

    def _residual(self, c, g_values):
        """Residuals of a (P, N) block c, g_values being g at c Tr."""
        return c @ self.A.T + g_values @ self.W.T - self.F

    def _jacobian(self, dg):
        """(P, N, N) exact Jacobians, dg being g' at the point values."""
        return self.A + (self.W * dg[:, None, :]) @ self.Tr.T

    def solve(self, mu, cfg=None, initial=None):
        """Online reduced Newton solve on the shared driver; cost
        independent of the FE dimension.

        mu must have two entries, positive and finite.  Newton starts
        from initial, N coefficients, or when none is given from the
        tangent prediction of the table row nearest to mu in
        log-parameter distance (nonlinear.nearest), or from zero with no
        table.  Whatever the start, it stops at cfg.tolerance of the
        residual norm at c = 0, as the truth solve does: a start saves
        steps but never moves the rule.
        """
        cfg = cfg or DEFAULT_NEWTON
        if self.N < 1:
            raise ValueError("empty reduced basis")
        if len(mu) != 2:
            raise ValueError(f"mu={tuple(mu)} has {len(mu)} entries, "
                             "expected 2")
        # refused before np.log sees it; 0 < nan is false
        if not all(0.0 < x < math.inf for x in mu):
            raise ValueError(f"mu={tuple(mu)} is not positive and finite")
        g, dg_du = self.problem.term.g, self.problem.term.dg_du
        twice = np.array((mu, mu), dtype=float)     # mu on two rows
        mus = twice[:1]
        if initial is None:
            initial = (np.zeros(self.N) if self.table is None
                       else self.table.start(twice[0]))
        c = np.array(initial, dtype=float, ndmin=2)     # a (1, N) row
        if c.shape != (1, self.N):
            raise ValueError(f"initial has shape {np.shape(initial)}, "
                             f"expected N={self.N} coefficients")
        values = r = norm_at_zero = None    # c Tr and the residual at c

        def residual(g_values):
            nonlocal r
            r = self._residual(c, g_values)
            return math.sqrt(np.vdot(r, r))     # np.linalg.norm, cheaper

        def start():
            """Residual norm at the start and, for the tolerance, at c = 0:
            one call of g on the point values of both, then the kernel a
            row at a time (a two-row product moves the bits of row 1)."""
            nonlocal values, norm_at_zero
            both = np.zeros((2, self.M))
            both[1:] = c @ self.Tr
            g_both = g(both, twice)
            values = both[1:]
            r0 = self._residual(np.zeros(c.shape), g_both[:1])
            norm_at_zero = math.sqrt(np.vdot(r0, r0))
            return residual(g_both[1:])

        def step():
            nonlocal values
            jac = self._jacobian(dg_du(values, mus))
            c[0] += np.linalg.solve(jac[0], -r[0])
            values = c @ self.Tr
            return residual(g(values, mus))

        stats = _newton("reduced ", mu, cfg, start, step, lambda: norm_at_zero)
        return RbSolution(c[0], stats.iterations, stats.residual_history)

    def solve_many(self, mus, cfg=None, *, initial):
        """Reduced Newton solves at every parameter of mus at once.

        One Newton loop over a (P, N) coefficient array: residuals come
        from products with A, W and Tr for all parameters at once, and
        the Newton steps from one stacked (P, N, N) solve.  Row k starts
        from initial[k], initial being (P, N) coefficients (zeros for a
        cold solve), stops at cfg.tolerance of its residual norm at
        c = 0, as ``solve`` does, and leaves the iteration when it
        converges or fails, so at each parameter it fails as ``solve``
        does from the same start.  Returns the (P, N) coefficients, zero
        in the rows of failed parameters, and {index: exception} for
        those, each the exception ``solve`` raises at that parameter with
        initial=initial[k].
        """
        cfg = cfg or DEFAULT_NEWTON
        if self.N < 1:
            raise ValueError("empty reduced basis")
        coeffs = np.array(initial, dtype=float)
        if coeffs.shape != (len(mus), self.N):
            raise ValueError(f"initial has shape {np.shape(initial)}, "
                             f"expected ({len(mus)}, {self.N})")
        if not len(mus):
            return coeffs, {}
        g, dg_du = self.problem.term.g, self.problem.term.dg_du
        mu_rows = np.asarray(mus, dtype=float)
        history = np.full((cfg.max_iter + 1, len(mus)), np.nan)
        failures = {}

        def residual(c, rows):
            values = c @ self.Tr
            r = self._residual(c, g(values, mu_rows[rows]))
            return values, r, np.linalg.norm(r, axis=1)

        def fail(rows, kind, iterations, cause):
            for k in rows:
                failures[int(k)] = newton_failure(
                    kind, "reduced ", mus[k],
                    history[:iterations + 1, k].tolist(), cause)

        live = np.arange(len(mus))   # parameters still iterating
        # divergence shows up as inf/nan and is classified below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            # the tolerance comes from the residual at zero, wherever a
            # row starts, so a start never moves the stopping rule
            tol = cfg.tolerance(residual(np.zeros(coeffs.shape), live)[2])
            values, r, r_norm = residual(coeffs, live)
            history[0] = r_norm
            fail(live[~np.isfinite(r_norm)], "start", 0, None)
            going = np.isfinite(r_norm)
            iterations = 0
            while True:
                live, values, r = live[going], values[going], r[going]
                if live.size == 0:
                    break
                if iterations >= cfg.max_iter:
                    fail(live, "stall", iterations, None)
                    break
                jac = self._jacobian(dg_du(values, mu_rows[live]))
                try:
                    delta = np.linalg.solve(jac, -r[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    # the stacked solve only says that some Jacobian is
                    # singular: solve one by one to find which
                    delta = np.empty_like(r)
                    solved = np.ones(live.size, dtype=bool)
                    for i, k in enumerate(live):
                        try:
                            delta[i] = np.linalg.solve(jac[i], -r[i])
                        except np.linalg.LinAlgError as exc:
                            fail([k], "singular", iterations, exc)
                            solved[i] = False
                    live, delta = live[solved], delta[solved]
                coeffs[live] += delta
                iterations += 1
                values, r, r_norm = residual(coeffs[live], live)
                history[iterations, live] = r_norm
                fail(live[~np.isfinite(r_norm)], "diverge", iterations, None)
                going = np.isfinite(r_norm) & (r_norm > tol[live])
        coeffs[list(failures)] = 0.0
        return coeffs, failures

    def lift_values(self, sol):
        return self.basis @ sol.coeffs

    def lift_block(self, coeffs):
        """Lifted fields of a (P, N) coefficient array, shape (P, ndof)."""
        return coeffs @ self.basis.T

    def output(self, sol):
        """Average of the lifted solution, from precomputed basis averages."""
        return float(self.avg @ sol.coeffs)

    def restrict(self, n, m):
        """Model of the leading n basis vectors and m interpolant fields,
        on copies of the sliced arrays (valid because growth is
        append-only).  An m above M is taken as M; n and m are ints (a
        bool or a float is refused).  Its start table is this model's
        table, its coefficients and slopes sliced to n, or None when
        this model has none."""
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"restriction sizes must be ints, got {n!r} "
                             f"and {m!r}")
        if n < 1 or m < 1:
            raise ValueError(f"cannot restrict a model to N={n}, M={m}")
        if n > self.N:
            raise ValueError(f"cannot restrict N={self.N} model to {n}")
        m = min(m, self.M)
        table = self.table and StartTable(
            self.table.mus.copy(), self.table.coeffs[:, :n].copy(),
            self.table.slopes[:, :, :n].copy())
        return ReducedModel(self.problem, self.t[:m], self.B[:m, :m],
                            self.A[:n, :n].copy(), self.F[:n].copy(),
                            self.Rq[:m, :n].copy(), self.Tr[:n, :m].copy(),
                            self.avg[:n].copy(), self.basis[:, :n].copy(),
                            self.snapshot_mus[:n], table)


def start_table(model, mus):
    """The StartTable of model over the (P, 2) parameters mus: one cold
    solve_many with the default settings, then the slopes
    -J^{-1} W dg/dlog mu at the converged rows from one stacked solve;
    rows that fail either are left out."""
    mus = np.array(mus, dtype=float).reshape(-1, 2)
    coeffs, failures = model.solve_many(
        mus, initial=np.zeros((len(mus), model.N)))
    term = model.problem.term
    values = coeffs @ model.Tr
    with np.errstate(over="ignore", invalid="ignore"):
        # (P, 2, M): the term's central difference in each log mu_j
        dg_dlog = np.stack([
            (term.g(values, mus * step) - term.g(values, mus / step))
            / (2 * SLOPE_STEP)
            for step in np.exp(SLOPE_STEP * np.eye(2))], axis=1)
        jac = model._jacobian(term.dg_du(values, mus))
        rhs = -(dg_dlog @ model.W.T).transpose(0, 2, 1)     # (P, N, 2)
        try:
            slopes = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            # the stacked solve only says that some Jacobian is singular:
            # solve one by one and leave those rows out
            slopes = np.full(rhs.shape, np.nan)
            for k in range(len(jac)):
                with suppress(np.linalg.LinAlgError):
                    slopes[k] = np.linalg.solve(jac[k], rhs[k])
    kept = np.isfinite(slopes).all(axis=(1, 2))
    kept[list(failures)] = False
    return StartTable(mus[kept], coeffs[kept], np.ascontiguousarray(
        slopes[kept].transpose(0, 2, 1)))

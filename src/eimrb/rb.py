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
coefficient array, which is how the greedy sweeps of a build scan the
training set.  It applies the same stopping rule and builds its
failures from the same templates (``nonlinear.newton_failure``), so at
each parameter it fails as ``solve`` does.

``RbSpace`` is the build's growing state: the basis, extended by each
snapshot, and the reduced blocks on it, extended when a model is asked
for (``RbSpace.model``).  ``ReducedModel`` is the online model of one
(N, M) stage, made from its arrays and never grown: ``RbSpace.model``
makes one from the current blocks and the interpolant's points and
matrix, ``restrict`` from slices of a larger model, and
``archive.load_model`` from the arrays of an archive.  The interpolant's
fields enter a model only through Rq, so no model holds them.

A model forms W on first use, and a model given a function in place of
its (ndof, N) basis calls it on first use.  The online solve reads W and
never the basis, so a loaded model, which is assigned its stored W and
parses its basis on its first lift, answers a query without a triangular
solve, without the basis and without scipy (imported here only where W
is formed).
"""

import math
from functools import cached_property

import numpy as np

from .nonlinear import NewtonConfig, _newton, mu_row, newton_failure


class DependentSnapshot(RuntimeError):
    """Snapshot is linearly dependent on the current basis."""


class RbSpace:
    """Orthonormal basis of truth snapshots with zero boundary values,
    and the reduced blocks on it.

    A is the reduced stiffness and F the reduced load.  Rq holds one
    reduced vector per interpolant field and Tr the basis traces at the
    interpolation points; avg holds the basis averages.  ``model`` grows
    them: existing entries are never recomputed, only new rows, columns
    and vectors are filled in, into new arrays, so a model made earlier
    never sees a later entry.
    """

    REJECT_REL = 1e-10

    def __init__(self, problem):
        self.problem = problem
        self.x_op = problem.x_op
        self.basis = []        # orthonormal dof vectors
        self.x_basis = []      # cached x_op @ xi
        self.mus = []
        self.A = np.zeros((0, 0))
        self.F = np.zeros(0)
        self.Rq = np.zeros((0, 0))
        self.Tr = np.zeros((0, 0))
        self.avg = np.zeros(0)
        self._mass_qs = []        # mass @ q per interpolant field

    @property
    def N(self):
        return len(self.basis)

    def basis_matrix(self):
        """Basis as columns, shape (ndof, N)."""
        if not self.basis:
            return np.zeros((self.problem.space.ndof, 0))
        return np.column_stack(self.basis)

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
        self.basis.append(xi)
        self.x_basis.append(self.x_op @ xi)
        self.mus.append(tuple(mu))
        return xi

    def model(self, eim, label):
        """Online model of the current basis and the interpolant eim, its
        blocks first grown to the current (N, M)."""
        n_old, n_new = self.A.shape[0], self.N
        m_old, m_new = self.Rq.shape[0], eim.M
        stiffness = self.problem.stiffness
        basis = self.basis
        t = np.asarray(eim.t, dtype=int)

        for m in range(m_old, m_new):
            self._mass_qs.append(self.problem.mass @ eim.fields[m])

        def grown(arr, shape):
            out = np.zeros(shape)
            sl = tuple(slice(0, s) for s in arr.shape)
            out[sl] = arr
            return out

        self.A = grown(self.A, (n_new, n_new))
        self.F = grown(self.F, (n_new,))
        self.Rq = grown(self.Rq, (m_new, n_new))
        self.Tr = grown(self.Tr, (n_new, m_new))
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
            for m, mq in enumerate(self._mass_qs):
                self.Rq[m, n] = mq @ xi
            self.Tr[n, :] = xi[t]
            self.avg[n] = self.problem.average(xi)

        # new interpolant fields: fill the old basis range
        for m in range(m_old, m_new):
            mq = self._mass_qs[m]
            for n in range(n_old):
                self.Rq[m, n] = mq @ basis[n]
        for n in range(n_old):
            self.Tr[n, m_old:m_new] = basis[n][t[m_old:m_new]]

        return ReducedModel(self.problem, eim.t, eim.B, self.A, self.F,
                            self.Rq, self.Tr, self.avg, self.basis_matrix(),
                            self.mus, label=label)


class RbSolution:
    """Coefficients of the reduced solution at one parameter."""

    __slots__ = ("coeffs", "mu", "newton_iters", "residual_history")

    def __init__(self, coeffs, mu, newton_iters, residual_history):
        self.coeffs = coeffs
        self.mu = mu
        self.newton_iters = newton_iters
        self.residual_history = residual_history


class ReducedModel:
    """Everything needed to solve the reduced problem at a new parameter.

    t (M,) are the interpolation points (dof indices) and B (M, M) the
    interpolation matrix; A (N, N) and F (N,) are the reduced stiffness
    and load, Rq (M, N) the reduced interpolant fields, Tr (N, M) the
    basis traces at the interpolation points, avg (N,) the basis averages
    and basis the (ndof, N) stacked basis, or a function of no arguments
    that returns it when it is first read (how a loaded model parses it
    late).  The interpolation point coordinates xg are derived here, and
    W on first use; an assigned W or basis replaces the derived one.
    """

    def __init__(self, problem, t, B, A, F, Rq, Tr, avg, basis,
                 snapshot_mus, label=""):
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
        self.label = label
        # coordinates of the interpolation points, so a solve does not
        # index the ndof-sized dof coordinates
        self.xg = problem.space.dof_coords[self.t]

    @cached_property
    def W(self):
        """Rq^T B^{-1} (N x M), formed once: with it a Newton step needs no
        triangular solve (scipy runs one with N right-hand sides on several
        BLAS threads, which cost more than the step it served)."""
        from scipy.linalg import solve_triangular
        return solve_triangular(self.B, self.Rq, lower=True, trans="T",
                                check_finite=False).T

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

    def jacobian(self, c, mu):
        """Exact derivative A + W diag(g'(Tr^T c)) Tr^T of the reduced
        residual at the coefficients c; mu is one parameter or its
        (1, 2) row."""
        dg = self.problem.term.dg_du((self.Tr.T @ c)[None], self.xg,
                                     mu_row(mu))
        return self.A + (self.W * dg) @ self.Tr.T

    def solve(self, mu, cfg=None, initial=None):
        """Online reduced Newton solve on the shared driver; cost
        independent of the FE dimension."""
        cfg = cfg or NewtonConfig()
        n = self.N
        if n < 1:
            raise ValueError("empty reduced basis")
        term = self.problem.term
        mus = mu_row(mu)
        c = np.zeros(n) if initial is None else np.array(initial, dtype=float)
        r = None

        def residual():
            nonlocal r
            g = term.g((self.Tr.T @ c)[None], self.xg, mus)[0]
            r = self.A @ c + self.W @ g - self.F
            return math.sqrt(r @ r)     # np.linalg.norm, without its overhead

        def step():
            nonlocal c
            c = c + np.linalg.solve(self.jacobian(c, mus), -r)
            return residual()

        stats = _newton("reduced ", mu, cfg, residual, step)
        return RbSolution(c, tuple(mu), stats.iterations, stats.residual_history)

    def solve_many(self, mus, cfg=None):
        """Reduced Newton solves at every parameter of mus at once.

        One Newton loop over a (P, N) coefficient array: residuals come
        from products with A, W and Tr for all parameters at once, and
        the Newton steps from one stacked (P, N, N) solve.  Each parameter
        starts from zero, stops at its own cfg.tolerance(r0) and leaves
        the iteration when it converges or fails.  Returns the (P, N)
        coefficients, zero in the rows of failed parameters, and
        {index: exception} for those, each the exception ``solve`` raises
        at that parameter.
        """
        cfg = cfg or NewtonConfig()
        n = self.N
        if n < 1:
            raise ValueError("empty reduced basis")
        term = self.problem.term
        coeffs = np.zeros((len(mus), n))
        if not len(mus):
            return coeffs, {}
        mu_rows = np.asarray(mus, dtype=float)
        history = np.full((cfg.max_iter + 1, len(mus)), np.nan)
        failures = {}

        def residual(rows):
            c = coeffs[rows]
            values = c @ self.Tr
            r = (c @ self.A.T
                 + term.g(values, self.xg, mu_rows[rows]) @ self.W.T
                 - self.F)
            return values, r, np.linalg.norm(r, axis=1)

        def fail(rows, kind, iterations, cause):
            for k in rows:
                failures[int(k)] = newton_failure(
                    kind, "reduced ", mus[k],
                    history[:iterations + 1, k].tolist(), cause)

        live = np.arange(len(mus))   # parameters still iterating
        # divergence shows up as inf/nan and is classified below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            values, r, r_norm = residual(live)
            history[0] = r_norm
            tol = np.array([cfg.tolerance(x) for x in r_norm])
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
                dg = term.dg_du(values, self.xg, mu_rows[live])
                jac = self.A + (self.W * dg[:, None, :]) @ self.Tr.T
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
                values, r, r_norm = residual(live)
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
        append-only)."""
        if n > self.N:
            raise ValueError(f"cannot restrict N={self.N} model to {n}")
        m = min(m, self.M)
        return ReducedModel(self.problem, self.t[:m], self.B[:m, :m],
                            self.A[:n, :n].copy(), self.F[:n].copy(),
                            self.Rq[:m, :n].copy(), self.Tr[:n, :m].copy(),
                            self.avg[:n].copy(), self.basis[:, :n].copy(),
                            self.snapshot_mus[:n], label=self.label)

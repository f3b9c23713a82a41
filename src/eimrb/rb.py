"""Reduced basis space, precomputed reduced operators, and the online solver.

Snapshots are orthonormalized in the full H1 inner product (stiffness
plus mass).  The reduced problem at a parameter mu is

    R(c) = A c + W g(Tr^T c) - F = 0,    W = Rq^T B^{-1},

where B is the interpolation matrix of the empirical interpolant of the
nonlinearity and Tr^T c are the values of the reduced solution at its
interpolation points.  Newton uses the exact Jacobian

    J(c) = A + W diag(g'(Tr^T c)) Tr^T,

so nothing inside the Newton loop touches an object of full finite
element dimension.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .fem import FEField, SolverFailure
from .nonlinear import NewtonConfig, NewtonFailure


class DependentSnapshot(RuntimeError):
    """Snapshot is linearly dependent on the current basis."""


class RbSpace:
    """Orthonormal basis of truth snapshots with zero boundary values."""

    REJECT_REL = 1e-10

    def __init__(self, space):
        self.space = space
        self.x_op = (space.stiffness + space.mass).tocsr()
        self.basis = []        # orthonormal dof vectors
        self.x_basis = []      # cached x_op @ xi
        self.mus = []

    @property
    def N(self):
        return len(self.basis)

    def basis_matrix(self):
        """Basis as columns, shape (ndof, N)."""
        if not self.basis:
            return np.zeros((self.space.ndof, 0))
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

    def gram_matrix(self):
        bm = self.basis_matrix()
        return bm.T @ (self.x_op @ bm)

    @classmethod
    def from_basis(cls, space, basis_columns, mus):
        """Rebuild from already orthonormal columns (archive load, restrict)."""
        out = cls(space)
        for col, mu in zip(np.atleast_2d(basis_columns.T), mus):
            vec = np.array(col, dtype=float)
            out.basis.append(vec)
            out.x_basis.append(out.x_op @ vec)
            out.mus.append(tuple(mu))
        return out


class ReducedBlocks:
    """Reduced operators, extended in place as the bases grow.

    A is the reduced stiffness and F the reduced load.  Rq holds one
    reduced vector per interpolant field and Tr the basis traces at the
    interpolation points; avg holds the basis averages.  Existing entries
    are never recomputed, only new rows, columns and vectors are filled
    in.
    """

    def __init__(self, problem):
        self.problem = problem
        self.A = np.zeros((0, 0))
        self.F = np.zeros(0)
        self.Rq = np.zeros((0, 0))
        self.Tr = np.zeros((0, 0))
        self.avg = np.zeros(0)
        self._mass_qs = []        # mass @ q per interpolant field
        self._nbasis = 0

    @property
    def extendable(self):
        return self._mass_qs is not None

    def extend(self, rb, eim):
        """Grow all blocks to the current (N, M)."""
        if not self.extendable:
            raise RuntimeError("restricted or loaded blocks cannot be extended")
        n_old, n_new = self._nbasis, rb.N
        m_old, m_new = self.Rq.shape[0], eim.M
        stiffness = self.problem.stiffness
        mass_rows = self.problem._mass_row_sums
        basis = rb.basis
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
            self.avg[n] = mass_rows @ xi

        # new interpolant fields: fill the old basis range
        for m in range(m_old, m_new):
            mq = self._mass_qs[m]
            for n in range(n_old):
                self.Rq[m, n] = mq @ basis[n]
        for n in range(n_old):
            self.Tr[n, m_old:m_new] = basis[n][t[m_old:m_new]]

        self._nbasis = n_new


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

    W is formed from the blocks and the interpolant as they are when the
    model is made; after they grow, make a new model.
    """

    def __init__(self, problem, rb, blocks, eim_g, label=""):
        self.problem = problem
        self.rb = rb
        self.blocks = blocks
        self.eim_g = eim_g
        self.label = label
        # W = Rq^T B^{-1} (N x M), formed once: with it a Newton step needs
        # no triangular solve (scipy runs one with N right-hand sides on
        # several BLAS threads, which cost more than the step it served)
        self._w = solve_triangular(eim_g.B, blocks.Rq, lower=True, trans="T",
                                   check_finite=False).T

    @property
    def N(self):
        return self.blocks._nbasis

    def jacobian(self, c, mu):
        """Exact derivative A + W diag(g'(Tr^T c)) Tr^T of the reduced
        residual at the coefficients c."""
        blocks = self.blocks
        with np.errstate(over="ignore", invalid="ignore"):
            dg = self.problem.term.dg_du(blocks.Tr.T @ c,
                                         self.eim_g.point_coords, mu)
            return blocks.A + (self._w * dg) @ blocks.Tr.T

    def solve(self, mu, cfg=None, initial=None):
        """Online reduced Newton solve; cost independent of the FE dimension."""
        cfg = cfg or NewtonConfig()
        n = self.N
        if n < 1:
            raise ValueError("empty reduced basis")
        term = self.problem.term
        blocks = self.blocks
        xg = self.eim_g.point_coords
        c = np.zeros(n) if initial is None else np.array(initial, dtype=float)

        def residual(cv):
            # divergence shows up as inf/nan and is classified below, not warned
            with np.errstate(over="ignore", invalid="ignore"):
                g = term.g(blocks.Tr.T @ cv, xg, mu)
                r = blocks.A @ cv + self._w @ g - blocks.F
                return r, float(np.linalg.norm(r))

        r, r_norm = residual(c)
        if not np.isfinite(r_norm):
            raise NewtonFailure(
                f"reduced residual not finite at the initial guess, mu={mu}",
                [r_norm])
        history = [r_norm]
        tol = cfg.tolerance(r_norm)
        iterations = 0
        while True:
            if iterations >= cfg.max_iter:
                raise NewtonFailure(
                    f"reduced solve stalled after {cfg.max_iter} iterations "
                    f"at mu={mu}", history)
            try:
                delta = np.linalg.solve(self.jacobian(c, mu), -r)
            except np.linalg.LinAlgError as exc:
                raise SolverFailure(
                    f"singular reduced Jacobian at mu={mu}: {exc}") from exc
            c = c + delta
            iterations += 1
            r, r_norm = residual(c)
            history.append(r_norm)
            if np.isfinite(r_norm) and r_norm <= tol:
                break
            if not np.isfinite(r_norm):
                raise NewtonFailure(f"reduced residual diverged at mu={mu}",
                                    history)
        return RbSolution(c, tuple(mu), iterations, history)

    def lift_values(self, sol):
        return self.rb.basis_matrix() @ sol.coeffs

    def lift(self, sol):
        return FEField(self.problem.space, self.lift_values(sol))

    def output(self, sol):
        """Average of the lifted solution, from precomputed basis averages."""
        return float(self.blocks.avg @ sol.coeffs)

    def restrict(self, n, m):
        """Deep-copied model truncated to the leading n basis vectors and
        m interpolant fields (valid because growth is append-only)."""
        if n > self.N:
            raise ValueError(f"cannot restrict N={self.N} model to {n}")
        m = min(m, self.eim_g.M)
        rb_r = RbSpace.from_basis(self.problem.space,
                                  self.rb.basis_matrix()[:, :n],
                                  self.rb.mus[:n])
        blocks = ReducedBlocks(self.problem)
        blocks.A = self.blocks.A[:n, :n].copy()
        blocks.F = self.blocks.F[:n].copy()
        blocks.Rq = self.blocks.Rq[:m, :n].copy()
        blocks.Tr = self.blocks.Tr[:n, :m].copy()
        blocks.avg = self.blocks.avg[:n].copy()
        blocks._mass_qs = None
        blocks._nbasis = n
        return ReducedModel(self.problem, rb_r, blocks,
                            self.eim_g.restrict(m), label=self.label)

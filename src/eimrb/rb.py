"""Reduced basis space, precomputed reduced operators, and the online solver.

Snapshots are orthonormalized in the full H1 inner product (stiffness
plus mass).  The reduced Newton system at a parameter mu is

    [ A(mu) + sum_m beta^j_m Aq_m ] delta = -[ A(mu) c + sum_m beta^r_m Rq_m - F(mu) ]

where the beta coefficients come from the two empirical interpolants
(residual nonlinearity and Jacobian nonlinearity) evaluated at their
interpolation points through the trace matrices.  Nothing inside the
Newton loop touches an object of full finite element dimension.
"""

import numpy as np

from .fem import FEField, SolverFailure, assemble_weighted_mass
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

    A_aff / F_aff hold one reduced matrix or vector per affine form of
    the operator (the benchmark has a single stiffness form and a single
    load).  Aq holds one reduced matrix per Jacobian-interpolant field,
    Rq one reduced vector per residual-interpolant field; Tj and Tr are
    the basis traces at the respective interpolation points.  Existing
    entries are never recomputed, only new rows, columns and matrices
    are filled in.
    """

    def __init__(self, problem, jac_ops=None, load_vecs=None):
        self.problem = problem
        self.jac_ops = [problem.stiffness] if jac_ops is None else list(jac_ops)
        self.load_vecs = [problem.load] if load_vecs is None else list(load_vecs)
        qa, qf = len(self.jac_ops), len(self.load_vecs)
        self.A_aff = np.zeros((qa, 0, 0))
        self.F_aff = np.zeros((qf, 0))
        self.Aq = np.zeros((0, 0, 0))
        self.Rq = np.zeros((0, 0))
        self.Tj = np.zeros((0, 0))
        self.Tr = np.zeros((0, 0))
        self.avg = np.zeros(0)
        self._weighted_ops = []   # assembled weighted mass per Jacobian field
        self._mass_qs = []        # mass @ q per residual field
        self._nbasis = 0

    @property
    def extendable(self):
        return self._weighted_ops is not None

    def extend(self, rb, eim_r, eim_j):
        """Grow all blocks to the current (N, M_r, M_j)."""
        if not self.extendable:
            raise RuntimeError("restricted or loaded blocks cannot be extended")
        n_old, n_new = self._nbasis, rb.N
        mr_old, mr_new = self.Rq.shape[0], eim_r.M
        mj_old, mj_new = self.Aq.shape[0], eim_j.M
        mass = self.problem.mass
        mass_rows = self.problem._mass_row_sums
        basis = rb.basis

        for m in range(mj_old, mj_new):
            self._weighted_ops.append(
                assemble_weighted_mass(self.problem.space, eim_j.fields[m]))
        for m in range(mr_old, mr_new):
            self._mass_qs.append(mass @ eim_r.fields[m])

        def grown(arr, shape):
            out = np.zeros(shape)
            sl = tuple(slice(0, s) for s in arr.shape)
            out[sl] = arr
            return out

        self.A_aff = grown(self.A_aff, (len(self.jac_ops), n_new, n_new))
        self.F_aff = grown(self.F_aff, (len(self.load_vecs), n_new))
        self.Aq = grown(self.Aq, (mj_new, n_new, n_new))
        self.Rq = grown(self.Rq, (mr_new, n_new))
        self.Tj = grown(self.Tj, (n_new, mj_new))
        self.Tr = grown(self.Tr, (n_new, mr_new))
        self.avg = grown(self.avg, (n_new,))

        # new basis columns: fill row/column n across every block
        for n in range(n_old, n_new):
            xi = basis[n]
            for q, op in enumerate(self.jac_ops):
                col = op @ xi
                row = op.T @ xi
                for j in range(n + 1):
                    self.A_aff[q, j, n] = basis[j] @ col
                    if j < n:
                        self.A_aff[q, n, j] = row @ basis[j]
            for q, vec in enumerate(self.load_vecs):
                self.F_aff[q, n] = vec @ xi
            for m, wop in enumerate(self._weighted_ops):
                col = wop @ xi
                for j in range(n + 1):
                    val_col = basis[j] @ col
                    self.Aq[m, j, n] = val_col
                    if j < n:
                        self.Aq[m, n, j] = val_col  # weighted mass is symmetric
            for m, mq in enumerate(self._mass_qs):
                self.Rq[m, n] = mq @ xi
            self.Tj[n, :] = xi[np.asarray(eim_j.t, dtype=int)]
            self.Tr[n, :] = xi[np.asarray(eim_r.t, dtype=int)]
            self.avg[n] = mass_rows @ xi

        # new interpolant fields: fill the old basis range
        for m in range(mj_old, mj_new):
            wop = self._weighted_ops[m]
            for n in range(n_old):
                col = wop @ basis[n]
                for j in range(n + 1):
                    val = basis[j] @ col
                    self.Aq[m, j, n] = val
                    self.Aq[m, n, j] = val
        for m in range(mr_old, mr_new):
            mq = self._mass_qs[m]
            for n in range(n_old):
                self.Rq[m, n] = mq @ basis[n]
        if mj_new > mj_old and n_old > 0:
            for n in range(n_old):
                self.Tj[n, mj_old:mj_new] = basis[n][
                    np.asarray(eim_j.t[mj_old:mj_new], dtype=int)]
        if mr_new > mr_old and n_old > 0:
            for n in range(n_old):
                self.Tr[n, mr_old:mr_new] = basis[n][
                    np.asarray(eim_r.t[mr_old:mr_new], dtype=int)]

        self._nbasis = n_new


class RbSolution:
    """Coefficients of the reduced solution at one parameter."""

    __slots__ = ("coeffs", "mu", "newton_iters", "residual_history")

    def __init__(self, coeffs, mu, newton_iters, residual_history):
        self.coeffs = coeffs
        self.mu = mu
        self.newton_iters = newton_iters
        self.residual_history = residual_history


def _const_thetas(k):
    return [lambda mu: 1.0 for _ in range(k)]


class ReducedModel:
    """Everything needed to solve the reduced problem at a new parameter."""

    def __init__(self, problem, rb, blocks, eim_g, eim_dg, label="",
                 theta_jac=None, theta_load=None):
        self.problem = problem
        self.rb = rb
        self.blocks = blocks
        self.eim_g = eim_g
        self.eim_dg = eim_dg
        self.label = label
        self.theta_jac = theta_jac or _const_thetas(len(blocks.jac_ops))
        self.theta_load = theta_load or _const_thetas(len(blocks.load_vecs))

    @property
    def N(self):
        return self.blocks._nbasis

    @property
    def M(self):
        return max(self.eim_g.M, self.eim_dg.M)

    def _assemble_affine(self, mu):
        th_a = np.array([th(mu) for th in self.theta_jac])
        th_f = np.array([th(mu) for th in self.theta_load])
        amat = np.tensordot(th_a, self.blocks.A_aff, axes=1)
        fvec = np.tensordot(th_f, self.blocks.F_aff, axes=1)
        return amat, fvec

    def solve(self, mu, cfg=None, initial=None):
        """Online reduced Newton solve; cost independent of the FE dimension."""
        cfg = cfg or NewtonConfig()
        n = self.N
        if n < 1:
            raise ValueError("empty reduced basis")
        term = self.problem.term
        blocks = self.blocks
        xg = self.eim_g.point_coords
        xj = self.eim_dg.point_coords
        amat, fvec = self._assemble_affine(mu)
        c = np.zeros(n) if initial is None else np.array(initial, dtype=float)

        def residual(cv):
            # divergence shows up as inf/nan and is classified below, not warned
            with np.errstate(over="ignore", invalid="ignore"):
                u_pts = blocks.Tr.T @ cv
                beta = self.eim_g.coeffs(term.g(u_pts, xg, mu))
                r = amat @ cv + blocks.Rq.T @ beta - fvec
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
            with np.errstate(over="ignore", invalid="ignore"):
                u_pts = blocks.Tj.T @ c
                beta_j = self.eim_dg.coeffs(term.dg_du(u_pts, xj, mu))
                jac = amat + np.tensordot(beta_j, blocks.Aq, axes=1)
            try:
                delta = np.linalg.solve(jac, -r)
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
        m_g = min(m, self.eim_g.M)
        m_dg = min(m, self.eim_dg.M)
        rb_r = RbSpace.from_basis(self.problem.space,
                                  self.rb.basis_matrix()[:, :n],
                                  self.rb.mus[:n])
        blocks = ReducedBlocks(self.problem, self.blocks.jac_ops,
                               self.blocks.load_vecs)
        blocks.A_aff = self.blocks.A_aff[:, :n, :n].copy()
        blocks.F_aff = self.blocks.F_aff[:, :n].copy()
        blocks.Aq = self.blocks.Aq[:m_dg, :n, :n].copy()
        blocks.Rq = self.blocks.Rq[:m_g, :n].copy()
        blocks.Tj = self.blocks.Tj[:n, :m_dg].copy()
        blocks.Tr = self.blocks.Tr[:n, :m_g].copy()
        blocks.avg = self.blocks.avg[:n].copy()
        blocks._weighted_ops = None
        blocks._mass_qs = None
        blocks._nbasis = n
        return ReducedModel(self.problem, rb_r, blocks,
                            self.eim_g.restrict(m_g), self.eim_dg.restrict(m_dg),
                            label=self.label, theta_jac=self.theta_jac,
                            theta_load=self.theta_load)

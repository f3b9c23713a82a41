"""Structured triangular finite elements on the unit square.

The mesh is a uniform n x n grid of squares, each split into two
triangles along the (0,0)-(1,1) diagonal of the cell.  Lagrange spaces of
degree 1, 2 or 3 place their nodes on the refined lattice with spacing
1/(n*degree), so every degree of freedom has an exact coordinate and
point evaluation at a node reduces to indexing.

Assembled operators are scipy CSR matrices; linear systems are solved by
sparse LU with a residual check.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverFailure(RuntimeError):
    """Sparse solve did not meet the residual tolerance."""

    def __init__(self, message, residual=None, rhs_norm=None):
        super().__init__(message)
        self.residual = residual
        self.rhs_norm = rhs_norm


# ---------------------------------------------------------------------------
# quadrature on the reference triangle {x >= 0, y >= 0, x + y <= 1}
# ---------------------------------------------------------------------------

def triangle_quadrature(exactness):
    """Gauss rule on the reference triangle, exact for total degree <= exactness.

    Built from a tensor Gauss-Legendre rule on the unit square mapped by
    (xi, eta) -> (xi, eta*(1-xi)) with Jacobian (1-xi).  The collapse
    raises the xi-degree by one, hence the m below.

    Returns (points, weights) with points of shape (nq, 2); the weights
    sum to the triangle area 1/2.
    """
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    m = (exactness + 3) // 2  # 2m-1 >= exactness+1
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    pts = np.column_stack([xi.ravel(), (eta * (1.0 - xi)).ravel()])
    wts = (wx * wy * (1.0 - xi)).ravel()
    return pts, wts


# ---------------------------------------------------------------------------
# Lagrange reference elements
# ---------------------------------------------------------------------------

def _reference_nodes(degree):
    """Nodes (i/p, j/p), i+j <= p, ordered by (j, i)."""
    p = degree
    nodes = [(i / p, j / p) for j in range(p + 1) for i in range(p + 1 - j)]
    return np.array(nodes)


def _monomial_powers(degree):
    return [(a, b) for b in range(degree + 1) for a in range(degree + 1 - b)]


class _ReferenceElement:
    """Lagrange basis on the reference triangle via Vandermonde inversion."""

    def __init__(self, degree):
        self.degree = degree
        self.nodes = _reference_nodes(degree)
        self.powers = _monomial_powers(degree)
        self.n_local = len(self.nodes)
        vand = np.empty((self.n_local, self.n_local))
        for k, (x, y) in enumerate(self.nodes):
            for m, (a, b) in enumerate(self.powers):
                vand[k, m] = x**a * y**b
        self.coeffs = np.linalg.inv(vand)  # phi_k = sum_m coeffs[m, k] x^a y^b

    def eval(self, points):
        """Basis values, shape (n_local, n_points)."""
        points = np.atleast_2d(points)
        mono = np.empty((len(self.powers), len(points)))
        for m, (a, b) in enumerate(self.powers):
            mono[m] = points[:, 0] ** a * points[:, 1] ** b
        return self.coeffs.T @ mono

    def eval_grad(self, points):
        """Basis gradients, shape (n_local, n_points, 2)."""
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        dx = np.zeros((len(self.powers), len(points)))
        dy = np.zeros_like(dx)
        for m, (a, b) in enumerate(self.powers):
            if a > 0:
                dx[m] = a * x ** (a - 1) * y**b
            if b > 0:
                dy[m] = b * x**a * y ** (b - 1)
        grad = np.stack([self.coeffs.T @ dx, self.coeffs.T @ dy], axis=-1)
        return grad


# ---------------------------------------------------------------------------
# mesh and space
# ---------------------------------------------------------------------------

class Mesh:
    """Uniform triangulation of (0,1)^2: n*n cells, two triangles each."""

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"cells per side must be >= 1, got {n}")
        self.n_cells_per_side = n
        k = np.arange(n + 1) / n
        X, Y = np.meshgrid(k, k, indexing="xy")
        self.vertices = np.column_stack([X.ravel(), Y.ravel()])
        tris = []
        for cy in range(n):
            for cx in range(n):
                a = cy * (n + 1) + cx
                b = a + 1
                c = a + n + 2
                d = a + n + 1
                tris.append((a, b, c))  # lower-right of the diagonal
                tris.append((a, c, d))  # upper-left
        self.triangles = np.array(tris, dtype=np.int64)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def triangle_areas(self):
        v = self.vertices[self.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def build_mesh(n):
    return Mesh(n)


class FESpace:
    """Lagrange P1/P2/P3 space on a structured mesh, homogeneous-Dirichlet aware.

    Degrees of freedom live on the lattice with spacing 1/(n*degree); the
    dof id of lattice point (ix, iy) is iy*(n*degree+1) + ix.  Quadrature
    is exact for polynomials of degree 2*degree + 2.
    """

    def __init__(self, mesh, degree):
        if degree not in (1, 2, 3):
            raise ValueError(f"unsupported degree {degree}, need 1, 2 or 3")
        self.mesh = mesh
        self.degree = degree
        n = mesh.n_cells_per_side
        nd = n * degree
        self._nd = nd

        ix, iy = np.meshgrid(np.arange(nd + 1), np.arange(nd + 1), indexing="xy")
        self.dof_coords = np.column_stack([ix.ravel() / nd, iy.ravel() / nd])
        on_edge = (ix == 0) | (ix == nd) | (iy == 0) | (iy == nd)
        self.boundary_dofs = np.flatnonzero(on_edge.ravel())
        self.interior_dofs = np.flatnonzero(~on_edge.ravel())

        self.ref = _ReferenceElement(degree)
        self.quad_points, self.quad_weights = triangle_quadrature(2 * degree + 2)
        self._phi = self.ref.eval(self.quad_points)            # (nloc, nq)
        self._grad = self.ref.eval_grad(self.quad_points)      # (nloc, nq, 2)

        verts = mesh.vertices[mesh.triangles]                  # (nt, 3, 2)
        self._v0 = verts[:, 0]
        jac = np.stack([verts[:, 1] - verts[:, 0],
                        verts[:, 2] - verts[:, 0]], axis=-1)   # columns are edges
        self._jac = jac
        self._detj = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= self._detj[:, None, None]
        self._invjt = np.transpose(inv, (0, 2, 1))

        # local node -> global lattice dof
        local = self.ref.nodes                                 # (nloc, 2)
        phys = self._v0[:, None, :] + np.einsum("tij,nj->tni", jac, local)
        gx = np.rint(phys[..., 0] * nd).astype(np.int64)
        gy = np.rint(phys[..., 1] * nd).astype(np.int64)
        self.elem_dofs = gy * (nd + 1) + gx                    # (nt, nloc)

        self._mass = None
        self._stiffness = None

    @property
    def ndof(self):
        return len(self.dof_coords)

    @property
    def mass(self):
        if self._mass is None:
            self._mass = assemble_weighted_mass(self, np.ones(self.ndof))
        return self._mass

    @property
    def stiffness(self):
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(self)
        return self._stiffness

    def quad_phys_points(self):
        """Physical coordinates of all quadrature points, shape (nt, nq, 2)."""
        return self._v0[:, None, :] + np.einsum("tij,qj->tqi", self._jac, self.quad_points)


def build_space(mesh, degree):
    return FESpace(mesh, degree)


class FEField:
    """Nodal field: a value per degree of freedom of a space."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (space.ndof,):
            raise ValueError(f"expected {space.ndof} values, got shape {values.shape}")
        self.space = space
        self.values = values

    def copy(self):
        return FEField(self.space, self.values.copy())


def _as_values(field_or_values, space=None):
    if isinstance(field_or_values, FEField):
        if space is not None and field_or_values.space is not space:
            raise ValueError("field is defined on a different space")
        return field_or_values.values
    return np.asarray(field_or_values, dtype=float)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _scatter(space, local):
    """Scatter (nt, nloc, nloc) element matrices into a CSR operator."""
    ed = space.elem_dofs
    nloc = ed.shape[1]
    rows = np.repeat(ed, nloc, axis=1).ravel()
    cols = np.tile(ed, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.ndof, space.ndof))
    return mat.tocsr()


def assemble_stiffness(space):
    """Stiffness matrix A_ij = integral of grad(phi_j) . grad(phi_i)."""
    g = np.einsum("tdk,nqk->tnqd", space._invjt, space._grad)
    local = np.einsum("q,t,tnqd,tmqd->tnm",
                      space.quad_weights, space._detj, g, g)
    return _scatter(space, local)


def assemble_weighted_mass(space, weight):
    """Weighted mass M_ij = integral of w(x) phi_j phi_i.

    The weight is a nodal field; its value at a quadrature point is the
    nodal interpolant evaluated there, so a constant weight reproduces
    the plain mass matrix exactly.
    """
    w = _as_values(weight, space if isinstance(weight, FEField) else None)
    if w.shape != (space.ndof,):
        raise ValueError("weight must be a nodal field on the same space")
    wq = np.einsum("tn,nq->tq", w[space.elem_dofs], space._phi)
    local = np.einsum("q,t,tq,nq,mq->tnm",
                      space.quad_weights, space._detj, wq, space._phi, space._phi)
    return _scatter(space, local)


def assemble_load(space, f):
    """Load vector F_i = integral of f(x) phi_i for a coordinate function f.

    f is called with an (k, 2) array and must return k values.
    """
    xq = space.quad_phys_points()            # (nt, nq, 2)
    fq = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape[:2])
    contrib = np.einsum("q,t,tq,nq->tn", space.quad_weights, space._detj,
                        fq, space._phi)
    out = np.zeros(space.ndof)
    np.add.at(out, space.elem_dofs.ravel(), contrib.ravel())
    return out


def apply_dirichlet(space, op, rhs):
    """Symmetric elimination of the homogeneous boundary conditions.

    Boundary rows and columns are replaced by identity and the matching
    rhs entries are zeroed.  Interior entries are untouched.
    """
    ndof = space.ndof
    keep = np.ones(ndof)
    keep[space.boundary_dofs] = 0.0
    p_int = sp.diags(keep)
    lift = np.zeros(ndof)
    lift[space.boundary_dofs] = 1.0
    eliminated = (p_int @ op @ p_int + sp.diags(lift)).tocsr()
    new_rhs = np.asarray(rhs, dtype=float) * keep
    return eliminated, new_rhs


def factor_sparse(op):
    """Sparse LU of op, kept with op for the residual check of each solve."""
    try:
        return op, spla.splu(sp.csc_matrix(op))
    except RuntimeError as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc


def solve_factored(factor, rhs):
    """Solve with a factor_sparse factor; residual check of 1e-10 relative."""
    op, lu = factor
    rhs = np.asarray(rhs, dtype=float)
    try:
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverFailure(f"sparse solve failed: {exc}") from exc
    rhs_norm = np.linalg.norm(rhs)
    res = np.linalg.norm(op @ x - rhs)
    tol = 1e-10 * rhs_norm if rhs_norm > 0 else 1e-14
    if not np.isfinite(res) or res > tol:
        raise SolverFailure(
            f"sparse solve residual {res:.3e} exceeds tolerance {tol:.3e}",
            residual=res, rhs_norm=rhs_norm)
    return x


def solve_sparse(op, rhs):
    """Direct sparse solve with a residual check of 1e-10 relative."""
    return solve_factored(factor_sparse(op), rhs)


# ---------------------------------------------------------------------------
# norms, inner products, point evaluation
# ---------------------------------------------------------------------------

def l2_norm(field):
    """L2 norm sqrt(v' M v) of a nodal field."""
    v = field.values if isinstance(field, FEField) else np.asarray(field)
    space = field.space if isinstance(field, FEField) else None
    if space is None:
        raise TypeError("l2_norm needs an FEField")
    return float(np.sqrt(max(v @ (space.mass @ v), 0.0)))


def h1_inner(a, b):
    """Full H1 inner product a' (A + M) b."""
    if a.space is not b.space:
        raise ValueError("fields live on different spaces")
    s = a.space
    return float(a.values @ (s.stiffness @ b.values) + a.values @ (s.mass @ b.values))


def eval_at_points(field, points):
    """Evaluate a field at dof indices (exact) or at coordinates in closure(Omega)."""
    space, values = field.space, field.values
    pts = np.asarray(points)
    if pts.ndim <= 1 and np.issubdtype(pts.dtype, np.integer):
        return values[pts]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(pts < -1e-12) or np.any(pts > 1 + 1e-12):
        raise ValueError("evaluation point outside the unit square")
    pts = np.clip(pts, 0.0, 1.0)
    n = space.mesh.n_cells_per_side
    cx = np.minimum((pts[:, 0] * n).astype(np.int64), n - 1)
    cy = np.minimum((pts[:, 1] * n).astype(np.int64), n - 1)
    s = pts[:, 0] * n - cx
    t = pts[:, 1] * n - cy
    lower = t <= s + 1e-14
    tri = 2 * (cy * n + cx) + np.where(lower, 0, 1)
    # reference coordinates inside each of the two triangle shapes
    r = np.where(lower, s - t, s)
    u = np.where(lower, t, t - s)
    out = np.empty(len(pts))
    for k in range(len(pts)):
        phi = space.ref.eval(np.array([[r[k], u[k]]]))[:, 0]
        out[k] = values[space.elem_dofs[tri[k]]] @ phi
    return out

"""Structured triangular finite elements on the unit square.

The mesh is a uniform n x n grid of squares, each split into two
triangles along the (0,0)-(1,1) diagonal of the cell.  Lagrange spaces of
degree 1, 2 or 3 place their nodes on the refined lattice with spacing
1/(n*degree), so every degree of freedom has an exact coordinate and
point evaluation at a node reduces to indexing.

A mesh and a space build nothing when they are made: the vertices,
triangles and dof lattice, and the element data that assembly reads
(reference basis, quadrature, Jacobians), are each made on first use.
Assembled operators are scipy CSR matrices.  A space holds none: each
nonlinear.NonlinearProblem assembles its own, once, on first use.  There
is one way to solve a linear system: factor_sparse makes a sparse LU in
the operator's given order, and solve_factored solves with it and checks
the residual.  The homogeneous Dirichlet conditions are imposed by
solving on the interior block only (NonlinearProblem.interior_block),
with the boundary values left at zero.
"""

from functools import cached_property

import numpy as np


class SolverFailure(RuntimeError):
    """Sparse solve did not meet the residual tolerance."""


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
    """Uniform triangulation of (0,1)^2: n*n cells, two triangles each;
    vertices and triangles are built on first use."""

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"cells per side must be >= 1, got {n}")
        self.n_cells_per_side = n

    @cached_property
    def vertices(self):
        n = self.n_cells_per_side
        k = np.arange(n + 1) / n
        X, Y = np.meshgrid(k, k, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    @cached_property
    def triangles(self):
        # cells row by row; cell (cx, cy) has the corners a (lower left),
        # b, c, d counterclockwise and is split into the triangle (a, b, c)
        # right of the diagonal, then (a, c, d) left of it
        n = self.n_cells_per_side
        cy, cx = np.divmod(np.arange(n * n, dtype=np.int64), n)
        a = cy * (n + 1) + cx
        b, c, d = a + 1, a + n + 2, a + n + 1
        return np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)


class FESpace:
    """Lagrange P1/P2/P3 space on a structured mesh, homogeneous-Dirichlet aware.

    Degrees of freedom live on the lattice with spacing 1/(n*degree); the
    dof id of lattice point (ix, iy) is iy*(n*degree+1) + ix.  Quadrature
    is exact for polynomials of degree 2*degree + 2.

    A space builds nothing until first use: ndof follows from n and the
    degree, and the dof lattice and the data that assembly reads
    (reference basis, quadrature, per-triangle Jacobians, elem_dofs) are
    made when first read, so a loaded online model pays for none of it.
    """

    def __init__(self, mesh, degree):
        if degree not in (1, 2, 3):
            raise ValueError(f"unsupported degree {degree}, need 1, 2 or 3")
        self.mesh = mesh
        self.degree = degree
        self._nd = mesh.n_cells_per_side * degree

    @property
    def ndof(self):
        return (self._nd + 1) ** 2

    @cached_property
    def dof_coords(self):
        iy, ix = np.divmod(np.arange(self.ndof), self._nd + 1)
        return np.column_stack([ix / self._nd, iy / self._nd])

    @cached_property
    def boundary_dofs(self):
        xy = self.dof_coords                    # exact: 0 and 1 on the edge
        return np.flatnonzero(((xy == 0) | (xy == 1)).any(axis=1))

    @cached_property
    def interior_dofs(self):
        return np.setdiff1d(np.arange(self.ndof), self.boundary_dofs)

    @cached_property
    def ref(self):
        return _ReferenceElement(self.degree)

    @cached_property
    def _quadrature(self):
        return triangle_quadrature(2 * self.degree + 2)

    @property
    def quad_points(self):
        return self._quadrature[0]

    @property
    def quad_weights(self):
        return self._quadrature[1]

    @cached_property
    def _phi(self):
        return self.ref.eval(self.quad_points)                 # (nloc, nq)

    @cached_property
    def _grad(self):
        return self.ref.eval_grad(self.quad_points)            # (nloc, nq, 2)

    @cached_property
    def _v0(self):
        return self.mesh.vertices[self.mesh.triangles[:, 0]]   # (nt, 2)

    @cached_property
    def _jac(self):
        verts = self.mesh.vertices[self.mesh.triangles]        # (nt, 3, 2)
        return np.stack([verts[:, 1] - verts[:, 0],
                         verts[:, 2] - verts[:, 0]], axis=-1)  # columns are edges

    @cached_property
    def _detj(self):
        jac = self._jac
        return jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]

    @cached_property
    def _invjt(self):
        jac = self._jac
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= self._detj[:, None, None]
        return np.transpose(inv, (0, 2, 1))

    @cached_property
    def elem_dofs(self):
        """Global lattice dof of each local node, shape (nt, nloc)."""
        nd = self._nd
        local = self.ref.nodes                                 # (nloc, 2)
        phys = self._v0[:, None, :] + local @ np.transpose(self._jac, (0, 2, 1))
        gx = np.rint(phys[..., 0] * nd).astype(np.int64)
        gy = np.rint(phys[..., 1] * nd).astype(np.int64)
        return gy * (nd + 1) + gx

    def quad_phys_points(self):
        """Physical coordinates of all quadrature points, shape (nt, nq, 2)."""
        return self._v0[:, None, :] + self.quad_points @ np.transpose(self._jac, (0, 2, 1))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _scatter(space, local):
    """Scatter (nt, nloc, nloc) element matrices into a CSR operator."""
    import scipy.sparse as sp
    ed = space.elem_dofs
    nloc = ed.shape[1]
    rows = np.repeat(ed, nloc, axis=1).ravel()
    cols = np.tile(ed, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(space.ndof, space.ndof))
    return mat.tocsr()


def assemble_stiffness(space):
    """Stiffness matrix A_ij = integral of grad(phi_j) . grad(phi_i)."""
    # The elements are affine, so the physical gradients are J^{-T} times the
    # reference ones and each local matrix is detj * sum_kl C_kl R_kl, with
    # C = J^{-1} J^{-T} per triangle and the reference moments
    # R_kl[n, m] = sum_q w_q d_k phi_n d_l phi_m.
    nt, nloc = len(space._detj), space.ref.n_local
    ref = np.einsum("q,nqk,mql->klnm", space.quad_weights, space._grad,
                    space._grad).reshape(-1, nloc * nloc)
    metric = np.transpose(space._invjt, (0, 2, 1)) @ space._invjt
    local = (space._detj[:, None] * metric.reshape(nt, -1)) @ ref
    return _scatter(space, local.reshape(nt, nloc, nloc))


def assemble_weighted_mass(space, weight):
    """Weighted mass M_ij = integral of w(x) phi_j phi_i.

    The weight is a nodal field; its value at a quadrature point is the
    nodal interpolant evaluated there, so a constant weight reproduces
    the plain mass matrix exactly.
    """
    w = np.asarray(weight, dtype=float)
    if w.shape != (space.ndof,):
        raise ValueError("weight must be a nodal field on the same space")
    nt, nloc = len(space._detj), space.ref.n_local
    wq = w[space.elem_dofs] @ space._phi                    # (nt, nq)
    # reference moments w_q phi_n phi_m, one row per quadrature point
    ref = np.einsum("q,nq,mq->qnm", space.quad_weights, space._phi,
                    space._phi).reshape(-1, nloc * nloc)
    local = (space._detj[:, None] * wq) @ ref
    return _scatter(space, local.reshape(nt, nloc, nloc))


def assemble_load(space, f):
    """Load vector F_i = integral of f(x) phi_i for a coordinate function f.

    f is called with an (k, 2) array and must return k values.
    """
    xq = space.quad_phys_points()            # (nt, nq, 2)
    fq = np.asarray(f(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape[:2])
    contrib = (space._detj[:, None] * space.quad_weights * fq) @ space._phi.T
    return np.bincount(space.elem_dofs.ravel(), weights=contrib.ravel(),
                       minlength=space.ndof)


# nested dissection splits no part of at most this many nodes: on the
# n=32 P2 interior block, leaves of 16 fill 17% less than minimum degree,
# leaves of 24 or 32 only 11% less, and leaves of 8 factor no faster
DISSECTION_LEAF = 16


def nested_dissection(op, coords):
    """Fill-reducing elimination order of a structurally symmetric operator.

    Coordinate bisection on the graph of op, whose nodes have the distinct
    coordinates coords (k, 2).  A part of more than DISSECTION_LEAF nodes
    is split at the median of its coordinates along its longer extent; the
    nodes of the lower half with a neighbour in the upper half form its
    separator.  No edge joins the rest of the lower half to the upper half,
    so each half is ordered the same way on its own, and the separator
    comes after both (George, SIAM J. Numer. Anal. 10, 1973).  Leaves and
    separators keep increasing node order.  One pass of the loop splits
    every part of one level of the recursion at once.

    Returns the permutation perm, position -> node: op[perm][:, perm] is
    op in elimination order.
    """
    import scipy.sparse as sp
    op = sp.csr_matrix(op)
    n = op.shape[0]
    pattern = sp.csr_matrix((np.ones(len(op.indices)), op.indices, op.indptr),
                            shape=op.shape)
    xy = np.array(coords, dtype=float).T
    rank = np.empty((2, n), dtype=np.intp)                 # per axis, ties by node
    for k in (0, 1):
        rank[k, np.argsort(xy[k], kind="stable")] = np.arange(n)
    order = np.arange(n)
    # the parts still to split, as ranges of positions in order
    starts = np.zeros(int(n > DISSECTION_LEAF), dtype=np.intp)
    sizes = np.full(len(starts), n)
    while len(starts):
        parts = np.arange(len(starts))
        seg = np.cumsum(sizes) - sizes                     # offset of each part
        part = np.repeat(parts, sizes)
        pos = np.arange(len(part)) + (starts - seg)[part]
        nodes = order[pos]
        x, y = xy[0, nodes], xy[1, nodes]
        dx = np.maximum.reduceat(x, seg) - np.minimum.reduceat(x, seg)
        dy = np.maximum.reduceat(y, seg) - np.minimum.reduceat(y, seg)
        axis = (dy > dx).astype(np.intp)[part]
        c = np.where(axis == 1, y, x)
        ranked = np.argsort(part * n + rank[axis, nodes])  # each part sorted along c
        median = c[ranked[seg + (sizes - 1) // 2]]
        # where the median is the largest value, it opens the upper half
        # instead, so that neither half is empty
        at_top = (median == c[ranked[seg + sizes - 1]])[part]
        upper = np.where(at_top, c >= median[part], c > median[part])
        # the neighbours of a node lie in its own part or in a separator
        # split off before, so an upper neighbour is in its own upper half
        is_upper = np.zeros(n)
        is_upper[nodes[upper]] = 1.0
        separator = ~upper & ((pattern @ is_upper)[nodes] > 0)
        # lower half, upper half, separator: digits 0, 1, 2 of each part
        group = 3 * part + np.where(separator, 2, upper)
        order[pos] = nodes[np.argsort(group * n + nodes)]
        counts = np.bincount(group, minlength=3 * len(parts)).reshape(-1, 3)[:, :2]
        split = counts > DISSECTION_LEAF
        starts = np.column_stack([starts, starts + counts[:, 0]])[split]
        sizes = counts[split]
    return order


def factor_sparse(op):
    """Sparse LU of op in its given column order, rows pivoted partially,
    kept with op for the residual check of each solve.

    The truth Jacobians and A_II come in a nested-dissection elimination
    order (NonlinearProblem.interior_block); an operator in any other
    order factors with the fill of that order.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    try:
        return op, splu(sp.csc_matrix(op), permc_spec="NATURAL")
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
            f"sparse solve residual {res:.3e} exceeds tolerance {tol:.3e}")
    return x

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import eimrb as er
from eimrb.fem import factor_sparse, solve_factored, triangle_quadrature

from conftest import (eim_train, poisson_solve, quad_l2_error, rows_provider,
                      triangle_areas)


def manufactured_rhs(xy):
    return 2 * np.pi**2 * np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])


def manufactured_exact(xy):
    return np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])


class TestMesh:
    def test_minimal_split(self):
        m = er.Mesh(1)
        assert len(m.triangles) == 2
        assert len(m.vertices) == 4

    def test_counts_n4(self):
        m = er.Mesh(4)
        assert len(m.triangles) == 32
        assert len(m.vertices) == 25

    def test_partition_of_unity_area(self):
        m = er.Mesh(32)
        assert abs(triangle_areas(m).sum() - 1.0) <= 1e-12

    def test_positive_areas(self):
        assert np.all(triangle_areas(er.Mesh(7)) > 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            er.Mesh(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_triangles_follow_the_per_cell_formula(self, n):
        # cells row by row, the lower-right triangle of each cell first
        tris = []
        for cy in range(n):
            for cx in range(n):
                a = cy * (n + 1) + cx
                tris += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
        expected = np.array(tris, dtype=np.int64)
        triangles = er.Mesh(n).triangles
        assert triangles.dtype == np.int64 and triangles.shape == expected.shape
        assert triangles.tobytes() == expected.tobytes()


class TestSpace:
    @pytest.mark.parametrize("degree,ndof", [(1, 25), (2, 81), (3, 169)])
    def test_dof_counts(self, degree, ndof):
        space = er.FESpace(er.Mesh(4), degree)
        assert space.ndof == ndof

    def test_rejects_degree(self):
        with pytest.raises(ValueError):
            er.FESpace(er.Mesh(4), 4)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3, 8, 32])
    def test_lattice_built_on_first_use_matches_the_eager_formulas(self, n,
                                                                   degree):
        # a mesh and a space build nothing when made; what they make on
        # first use is bitwise what the lattice formulas give at once
        mesh = er.Mesh(n)
        space = er.FESpace(mesh, degree)
        assert space.ndof == (n * degree + 1) ** 2
        assert not {"vertices", "triangles"} & set(vars(mesh))
        assert not {"dof_coords", "boundary_dofs",
                    "interior_dofs"} & set(vars(space))
        nd = n * degree
        ix, iy = np.meshgrid(np.arange(nd + 1), np.arange(nd + 1),
                             indexing="xy")
        coords = np.column_stack([ix.ravel() / nd, iy.ravel() / nd])
        on_edge = ((ix == 0) | (ix == nd) | (iy == 0) | (iy == nd)).ravel()
        k = np.arange(n + 1) / n
        X, Y = np.meshgrid(k, k, indexing="xy")
        cy, cx = np.divmod(np.arange(n * n, dtype=np.int64), n)
        a = cy * (n + 1) + cx
        triangles = np.column_stack(
            [a, a + 1, a + n + 2, a, a + n + 2, a + n + 1]).reshape(-1, 3)
        for got, expected in (
                (space.dof_coords, coords),
                (space.boundary_dofs, np.flatnonzero(on_edge)),
                (space.interior_dofs, np.flatnonzero(~on_edge)),
                (mesh.vertices, np.column_stack([X.ravel(), Y.ravel()])),
                (mesh.triangles, triangles)):
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_boundary_dofs_match_coords(self, space8):
        xy = space8.dof_coords
        on_bd = ((np.abs(xy[:, 0]) <= 1e-12) | (np.abs(xy[:, 0] - 1) <= 1e-12)
                 | (np.abs(xy[:, 1]) <= 1e-12) | (np.abs(xy[:, 1] - 1) <= 1e-12))
        assert np.array_equal(np.flatnonzero(on_bd), space8.boundary_dofs)

    def test_quadrature_exactness(self):
        # integrate x^a y^b over the reference triangle against the closed form
        from math import factorial
        pts, wts = triangle_quadrature(6)
        for a in range(4):
            for b in range(4 - a):
                approx = wts @ (pts[:, 0] ** a * pts[:, 1] ** b)
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert abs(approx - exact) <= 1e-14


class TestStiffness:
    def test_row_sums_vanish(self, space8):
        a = er.assemble_stiffness(space8)
        assert np.abs(np.asarray(a.sum(axis=1))).max() <= 1e-12

    def test_positive_semidefinite(self, space8):
        a = er.assemble_stiffness(space8)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(space8.ndof)
            assert x @ (a @ x) >= -1e-10

    def test_symmetry(self, space8):
        a = er.assemble_stiffness(space8)
        rel = np.abs(a - a.T).max() / np.abs(a).max()
        assert rel <= 1e-12


class TestWeightedMass:
    def test_unit_weight_measures_domain(self, space8):
        m = er.assemble_weighted_mass(space8, np.ones(space8.ndof))
        ones = np.ones(space8.ndof)
        assert abs(ones @ (m @ ones) - 1.0) <= 1e-10

    def test_zero_weight(self, space8):
        m = er.assemble_weighted_mass(space8, np.zeros(space8.ndof))
        assert m.nnz == 0 or np.abs(m.data).max() == 0.0

    def test_constant_weight_scales_mass(self, space8):
        m1 = er.assemble_weighted_mass(space8, np.ones(space8.ndof))
        mc = er.assemble_weighted_mass(space8, np.full(space8.ndof, 2.5))
        assert np.abs(mc - 2.5 * m1).max() <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_same_pattern_as_stiffness(self, degree):
        # the truth Newton writes its Jacobian into the stiffness pattern
        space = er.FESpace(er.Mesh(4), degree)
        a = er.assemble_stiffness(space)
        m = er.assemble_weighted_mass(space, np.ones(space.ndof))
        a.sort_indices()
        m.sort_indices()
        assert np.array_equal(a.indptr, m.indptr)
        assert np.array_equal(a.indices, m.indices)

    def test_space_mismatch(self, space8):
        with pytest.raises(ValueError):
            er.assemble_weighted_mass(space8, np.ones(space8.ndof + 3))

    def test_matches_per_element_quadrature_oracle(self, problem8, train5):
        # weight from a genuinely trained interpolation basis
        coords = problem8.space.dof_coords
        basis = eim_train(
            problem8.space,
            rows_provider(lambda mu: mu[0] * coords[:, 0]
                          + mu[1] * coords[:, 0] ** 2),
            list(train5), m_max=2)
        q = basis.fields[1]
        space = problem8.space
        m = er.assemble_weighted_mass(space, q)
        rng = np.random.default_rng(3)
        pts, wts = triangle_quadrature(2 * space.degree + 2)

        def p2_basis_at(pt):
            # barycentric P2 shape functions on the reference triangle,
            # ordered like the lattice nodes (j, i): see _reference_nodes
            x, y = pt
            lam = np.array([1 - x - y, x, y])
            n200 = lam * (2 * lam - 1)
            return np.array([
                n200[0], 4 * lam[0] * lam[1], n200[1],
                4 * lam[0] * lam[2], 4 * lam[1] * lam[2], n200[2]])

        for _ in range(3):
            e = rng.integers(len(space.mesh.triangles))
            i_loc, j_loc = rng.integers(6, size=2)
            dofs = space.elem_dofs[e]
            acc = 0.0
            for pt, w in zip(pts, wts):
                phi = p2_basis_at(pt)
                acc += w * space._detj[e] * (q[dofs] @ phi) * phi[i_loc] * phi[j_loc]
            # compare against the assembled entry restricted to this element
            local = er.assemble_weighted_mass(space, q)[dofs[i_loc], dofs[j_loc]]
            # entry sums contributions of all elements sharing the dof pair;
            # rebuild it from the oracle over those elements instead
            total = 0.0
            for e2 in range(len(space.mesh.triangles)):
                d2 = space.elem_dofs[e2]
                where_i = np.flatnonzero(d2 == dofs[i_loc])
                where_j = np.flatnonzero(d2 == dofs[j_loc])
                if len(where_i) == 0 or len(where_j) == 0:
                    continue
                for pt, w in zip(pts, wts):
                    phi = p2_basis_at(pt)
                    total += (w * space._detj[e2] * (q[d2] @ phi)
                              * phi[where_i[0]] * phi[where_j[0]])
            assert abs(total - m[dofs[i_loc], dofs[j_loc]]) <= 1e-12


class TestLoad:
    def test_zero_rhs(self, space8):
        f = er.assemble_load(space8, lambda xy: np.zeros(len(xy)))
        assert np.all(f == 0)

    def test_unit_rhs_partition_of_unity(self, space8):
        f = er.assemble_load(space8, lambda xy: np.ones(len(xy)))
        assert abs(f.sum() - 1.0) <= 1e-10

    def test_benchmark_rhs_mean_zero(self):
        space = er.FESpace(er.Mesh(32), 2)
        f = er.assemble_load(space, er.benchmark_rhs)
        assert abs(f.sum()) <= 1e-8


class TestDirichlet:
    # the boundary conditions are imposed by solving on the interior block
    # of a problem: A_II u_I = F_I, with the boundary values left at zero
    def test_boundary_values_zero(self, space8):
        u = poisson_solve(space8, manufactured_rhs)
        assert np.all(u[space8.boundary_dofs] == 0.0)

    def test_interior_block_unchanged(self, space8):
        # A_II holds the stiffness entries of the interior dofs, in their
        # elimination order, bitwise
        problem = er.NonlinearProblem(space8, None, manufactured_rhs)
        idx, a_ii = problem.interior_block[:2]
        a = er.assemble_stiffness(space8)
        assert np.array_equal(a_ii.toarray(), a[np.ix_(idx, idx)].toarray())

    def test_eliminated_stiffness_is_spd(self):
        problem = er.NonlinearProblem(er.FESpace(er.Mesh(8), 1), None,
                                      manufactured_rhs)
        np.linalg.cholesky(problem.interior_block[1].toarray())  # raises if not SPD

    def test_matches_interior_only_solve(self, space8):
        a = er.assemble_stiffness(space8)
        f = er.assemble_load(space8, manufactured_rhs)
        u = poisson_solve(space8, manufactured_rhs)
        ii = space8.interior_dofs
        u_int = np.linalg.solve(a[np.ix_(ii, ii)].toarray(), f[ii])
        assert np.abs(u[ii] - u_int).max() <= 1e-10


class TestSolveSparse:
    # the one sparse solve of the package: solve_factored on a factor_sparse factor
    def test_identity(self):
        rhs = np.arange(5, dtype=float)
        x = solve_factored(factor_sparse(sp.eye(5, format="csr")), rhs)
        assert np.array_equal(x, rhs)

    def test_hand_checkable(self):
        op = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = solve_factored(factor_sparse(op), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_singular_raises(self):
        op = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(er.SolverFailure):
            solve_factored(factor_sparse(op), np.array([1.0, 2.0]))

    def test_manufactured_residual(self):
        space = er.FESpace(er.Mesh(16), 2)
        u = poisson_solve(space, manufactured_rhs)
        ii = space.interior_dofs
        a_ii = er.assemble_stiffness(space)[np.ix_(ii, ii)]
        f_ii = er.assemble_load(space, manufactured_rhs)[ii]
        assert np.linalg.norm(a_ii @ u[ii] - f_ii) <= 1e-10 * np.linalg.norm(f_ii)


def interior_graph(n, degree):
    """Interior stiffness block of a space and the coordinates of its nodes."""
    space = er.FESpace(er.Mesh(n), degree)
    idx = space.interior_dofs
    return (er.assemble_stiffness(space)[idx][:, idx].tocsr(),
            space.dof_coords[idx])


class TestNestedDissection:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_permutation(self, n, degree):
        # n=1 P1 has no interior dof and n=1 P2 has one
        op, coords = interior_graph(n, degree)
        perm = er.nested_dissection(op, coords)
        assert perm.dtype.kind == "i"
        assert np.array_equal(np.sort(perm), np.arange(op.shape[0]))

    def test_repeatable(self):
        op, coords = interior_graph(8, 2)
        first = er.nested_dissection(op, coords)
        assert all(np.array_equal(er.nested_dissection(op, coords), first)
                   for _ in range(3))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_top_level_halves_share_no_edge(self, degree):
        # the first split, rebuilt here: the median of x (the extents tie),
        # and the separator of the lower half
        op, coords = interior_graph(8, degree)
        k = op.shape[0]
        assert k > er.fem.DISSECTION_LEAF
        x = coords[:, 0]
        lower = x <= np.sort(x)[(k - 1) // 2]
        separator = lower & (op[:, np.flatnonzero(~lower)].getnnz(axis=1) > 0)
        first, second = np.flatnonzero(lower & ~separator), np.flatnonzero(~lower)
        assert len(first) and len(second) and separator.sum()
        assert op[first][:, second].nnz == 0
        perm = er.nested_dissection(op, coords)
        ends = np.cumsum([len(first), len(second)])
        assert np.array_equal(np.sort(perm[:ends[0]]), first)
        assert np.array_equal(np.sort(perm[ends[0]:ends[1]]), second)
        assert np.array_equal(np.sort(perm[ends[1]:]), np.flatnonzero(separator))

    def test_truth_jacobian_fills_less_than_minimum_degree(self):
        problem = er.benchmark_problem(32, 2)
        mu = (5.0, 5.0)
        u, _ = er.truth_newton_solve(problem, mu)
        jac = er.truth_jacobian(problem, u, mu)
        ordered = er.fem.factor_sparse(jac)[1]
        # minimum degree breaks ties by the input order: give it the
        # interior dofs in increasing order, as in space.interior_dofs
        back = np.argsort(problem.interior_block[0])
        mmd = spla.splu(sp.csc_matrix(jac[back][:, back]),
                        permc_spec="MMD_AT_PLUS_A")
        fill = ordered.L.nnz + ordered.U.nnz
        assert fill <= 0.9 * (mmd.L.nnz + mmd.U.nnz)


class TestConvergence:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_manufactured_poisson_rate(self, degree):
        errs = []
        hs = []
        for n in (8, 16, 32):
            space = er.FESpace(er.Mesh(n), degree)
            u = poisson_solve(space, manufactured_rhs)
            errs.append(quad_l2_error(space, u, manufactured_exact))
            hs.append(1.0 / n)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(rate - (degree + 1)) <= 0.2

import warnings

import numpy as np
import pytest

import eimrb as er
from eimrb.fem import triangle_quadrature


class TestRbSpace:
    def test_first_snapshot_normalized(self, problem8):
        rb = er.RbSpace(problem8.space)
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        rb.add_snapshot(u.values, (1.0, 1.0))
        gram = rb.gram_matrix()
        assert abs(gram[0, 0] - 1.0) <= 1e-12

    def test_duplicate_snapshot_rejected(self, problem8):
        rb = er.RbSpace(problem8.space)
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        rb.add_snapshot(u.values, (1.0, 1.0))
        with pytest.raises(er.DependentSnapshot):
            rb.add_snapshot(u.values, (1.0, 1.0))
        assert rb.N == 1

    def test_gram_is_identity_after_five_snapshots(self, problem8):
        rb = er.RbSpace(problem8.space)
        for mu in [(0.01, 0.01), (10, 10), (0.1, 1.0), (1.0, 0.1), (3.0, 3.0)]:
            u, _ = er.truth_newton_solve(problem8, mu)
            rb.add_snapshot(u.values, mu)
        gram = rb.gram_matrix()
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_zero_boundary_values(self, standard_small):
        rb = standard_small.model.rb
        bdofs = rb.space.boundary_dofs
        for xi in rb.basis:
            assert np.all(xi[bdofs] == 0.0)


class TestBlocks:
    def test_extension_preserves_existing_entries_bitwise(self, problem8, train5):
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        coords = problem8.space.dof_coords
        term = problem8.term
        eim_g = er.eim_train(problem8.space,
                             lambda mu: term.g(truth.solve(mu), coords, mu),
                             list(train5), m_max=4)
        eim_dg = er.eim_train(problem8.space,
                              lambda mu: term.dg_du(truth.solve(mu), coords, mu),
                              list(train5), m_max=4)
        rb = er.RbSpace(problem8.space)
        blocks = er.ReducedBlocks(problem8)
        mus = [(0.01, 0.01), (10, 10), (0.1, 1.0)]
        for mu in mus[:2]:
            rb.add_snapshot(truth.solve(mu), mu)
        blocks.extend(rb, eim_g, eim_dg)
        old = {k: v.copy() for k, v in
               [("A", blocks.A_aff), ("F", blocks.F_aff), ("Aq", blocks.Aq),
                ("Rq", blocks.Rq), ("Tj", blocks.Tj), ("Tr", blocks.Tr),
                ("avg", blocks.avg)]}
        rb.add_snapshot(truth.solve(mus[2]), mus[2])
        blocks.extend(rb, eim_g, eim_dg)
        assert np.array_equal(blocks.A_aff[:, :2, :2], old["A"])
        assert np.array_equal(blocks.F_aff[:, :2], old["F"])
        assert np.array_equal(blocks.Aq[:, :2, :2], old["Aq"])
        assert np.array_equal(blocks.Rq[:, :2], old["Rq"])
        assert np.array_equal(blocks.Tj[:2], old["Tj"])
        assert np.array_equal(blocks.Tr[:2], old["Tr"])
        assert np.array_equal(blocks.avg[:2], old["avg"])

    def test_trace_matrices_are_exact_evaluations(self, standard_small):
        model = standard_small.model
        for n, xi in enumerate(model.rb.basis):
            f = er.FEField(model.problem.space, xi)
            tj = er.eval_at_points(f, np.asarray(model.eim_dg.t, dtype=int))
            tr = er.eval_at_points(f, np.asarray(model.eim_g.t, dtype=int))
            assert np.array_equal(model.blocks.Tj[n], tj)
            assert np.array_equal(model.blocks.Tr[n], tr)

    def test_jacobian_blocks_match_per_element_quadrature(self, standard_small):
        model = standard_small.model
        space = model.problem.space
        pts, wts = triangle_quadrature(2 * space.degree + 2)

        def p2_basis_at(pt):
            x, y = pt
            lam = np.array([1 - x - y, x, y])
            n200 = lam * (2 * lam - 1)
            return np.array([
                n200[0], 4 * lam[0] * lam[1], n200[1],
                4 * lam[0] * lam[2], 4 * lam[1] * lam[2], n200[2]])

        tab = np.array([p2_basis_at(pt) for pt in pts])  # (nq, 6)
        rng = np.random.default_rng(7)
        for _ in range(3):
            m = rng.integers(model.eim_dg.M)
            i, j = rng.integers(model.rb.N, size=2)
            q = model.eim_dg.fields[m]
            xi_i, xi_j = model.rb.basis[i], model.rb.basis[j]
            total = 0.0
            for e in range(space.mesh.n_triangles):
                dofs = space.elem_dofs[e]
                qv = tab @ q[dofs]
                iv = tab @ xi_i[dofs]
                jv = tab @ xi_j[dofs]
                total += space._detj[e] * (wts @ (qv * iv * jv))
            assert abs(total - model.blocks.Aq[m, i, j]) <= 1e-12

    def test_restricted_blocks_not_extendable(self, standard_small):
        small = standard_small.model.restrict(2, 3)
        with pytest.raises(RuntimeError):
            small.blocks.extend(small.rb, small.eim_g, small.eim_dg)


class TestReducedSolve:
    def test_single_snapshot_reproduction(self, problem8):
        mu = (0.5, 2.0)
        samples = [mu, (0.6, 2.0), (0.5, 2.5), (0.7, 1.5)]
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        coords = problem8.space.dof_coords
        term = problem8.term
        eim_g = er.eim_train(problem8.space,
                             lambda m: term.g(truth.solve(m), coords, m),
                             samples, m_max=4)
        eim_dg = er.eim_train(problem8.space,
                              lambda m: term.dg_du(truth.solve(m), coords, m),
                              samples, m_max=4)
        rb = er.RbSpace(problem8.space)
        rb.add_snapshot(truth.solve(mu), mu)
        blocks = er.ReducedBlocks(problem8)
        blocks.extend(rb, eim_g, eim_dg)
        model = er.ReducedModel(problem8, rb, blocks, eim_g, eim_dg)
        sol = model.solve(mu)
        du = truth.solve(mu) - model.lift_values(sol)
        assert float(np.sqrt(du @ (problem8.mass @ du))) <= 1e-6

    def test_zero_rhs_gives_zero_in_one_iteration(self, standard_small):
        model = standard_small.model.restrict(4, 5)
        model.blocks.F_aff = np.zeros_like(model.blocks.F_aff)
        sol = model.solve((1.0, 1.0))
        assert np.all(sol.coeffs == 0.0)
        assert sol.newton_iters == 1

    def test_newton_failure_carries_history(self, standard_small):
        with pytest.raises(er.NewtonFailure) as info:
            standard_small.model.solve((10.0, 10.0), er.NewtonConfig(max_iter=1))
        assert len(info.value.history) >= 2

    def test_overflowing_residual_norm_raises_without_warning(self,
                                                              standard_small):
        # the initial guess is hugely negative at every interpolation point,
        # so g stays finite and so does every residual entry, but the sum
        # of their squares overflows
        model = standard_small.model.restrict(6, 6)
        traces = model.blocks.Tr
        c = 1e160 * np.linalg.solve(traces.T, -np.ones(traces.shape[1]))
        assert np.all(traces.T @ c < 0)
        leading = model.blocks.A_aff[0] @ c
        assert np.all(np.isfinite(leading))
        assert np.linalg.norm(leading / 1e160) * 1e160 > 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(er.NewtonFailure):
                model.solve((1.0, 1.0), initial=c)

    def test_galerkin_consistency_full_interior_space(self):
        # basis spanning the whole interior of a tiny P1 space, saturated
        # interpolants: the reduced solve must reproduce the truth
        problem = er.benchmark_problem(4, 1)
        space = problem.space
        samples = list(er.SampleSet.log_grid(3, 3))
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem, er.NewtonConfig(), counter)
        term = problem.term
        eim_g = er.eim_train(space,
                             lambda m: term.g(truth.solve(m), space.dof_coords, m),
                             samples, m_max=9)
        eim_dg = er.eim_train(space,
                              lambda m: term.dg_du(truth.solve(m), space.dof_coords, m),
                              samples, m_max=9)
        rb = er.RbSpace(space)
        for k, dof in enumerate(space.interior_dofs):
            e = np.zeros(space.ndof)
            e[dof] = 1.0
            rb.add_snapshot(e, (float(k), 0.0))
        blocks = er.ReducedBlocks(problem)
        blocks.extend(rb, eim_g, eim_dg)
        model = er.ReducedModel(problem, rb, blocks, eim_g, eim_dg)
        for mu in samples:
            sol = model.solve(mu, er.NewtonConfig(max_iter=200))
            du = truth.solve(mu) - model.lift_values(sol)
            assert float(np.sqrt(du @ (problem.mass @ du))) <= 1e-8


class TestOutputsAndLift:
    def test_zero_coeffs(self, standard_small):
        model = standard_small.model
        sol = er.RbSolution(np.zeros(model.N), (1.0, 1.0), 0, [])
        assert model.output(sol) == 0.0
        assert np.all(model.lift_values(sol) == 0.0)

    def test_output_matches_average_of_lift(self, standard_small):
        model = standard_small.model
        sol = model.solve((0.7, 0.9))
        lifted = model.lift(sol)
        assert abs(model.output(sol) - er.output_average(lifted)) <= 1e-12

    def test_lift_of_unit_vector_is_basis_field(self, standard_small):
        model = standard_small.model
        e1 = np.zeros(model.N)
        e1[0] = 1.0
        sol = er.RbSolution(e1, (1.0, 1.0), 0, [])
        assert np.array_equal(model.lift_values(sol), model.rb.basis[0])

    def test_parseval(self, standard_small):
        model = standard_small.model
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(model.N)
            sol = er.RbSolution(c, (1.0, 1.0), 0, [])
            lifted = model.lift_values(sol)
            xnorm = model.rb.x_norm(lifted)
            assert abs(xnorm - np.linalg.norm(c)) <= 1e-9 * max(1.0, np.linalg.norm(c))


class TestRestrict:
    def test_restriction_truncates_consistently(self, standard_small):
        model = standard_small.model
        small = model.restrict(3, 4)
        assert small.N == 3
        assert small.eim_g.M == 4 and small.eim_dg.M == 4
        assert small.blocks.Aq.shape == (4, 3, 3)
        assert small.blocks.Rq.shape == (4, 3)
        assert np.array_equal(small.blocks.A_aff, model.blocks.A_aff[:, :3, :3])

    def test_restriction_beyond_size_rejected(self, standard_small):
        with pytest.raises(ValueError):
            standard_small.model.restrict(100, 5)

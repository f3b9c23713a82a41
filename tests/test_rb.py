import warnings

import numpy as np
import pytest

import eimrb as er


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
        rb = er.RbSpace(problem8.space)
        blocks = er.ReducedBlocks(problem8)
        mus = [(0.01, 0.01), (10, 10), (0.1, 1.0)]
        for mu in mus[:2]:
            rb.add_snapshot(truth.solve(mu), mu)
        blocks.extend(rb, eim_g.restrict(3))
        old = {k: getattr(blocks, k).copy() for k in ("A", "F", "Rq", "Tr", "avg")}
        # grow the basis and the interpolant in one extension
        rb.add_snapshot(truth.solve(mus[2]), mus[2])
        blocks.extend(rb, eim_g)
        assert np.array_equal(blocks.A[:2, :2], old["A"])
        assert np.array_equal(blocks.F[:2], old["F"])
        assert np.array_equal(blocks.Rq[:3, :2], old["Rq"])
        assert np.array_equal(blocks.Tr[:2, :3], old["Tr"])
        assert np.array_equal(blocks.avg[:2], old["avg"])
        # and the grown blocks equal blocks built at the final size at once
        fresh = er.ReducedBlocks(problem8)
        fresh.extend(rb, eim_g)
        for name in ("A", "F", "Rq", "Tr", "avg"):
            assert np.array_equal(getattr(blocks, name), getattr(fresh, name)), name

    def test_trace_matrices_are_exact_evaluations(self, standard_small):
        model = standard_small.model
        assert model.blocks.Tr.shape == (model.N, model.eim_g.M)
        for n, xi in enumerate(model.rb.basis):
            f = er.FEField(model.problem.space, xi)
            tr = er.eval_at_points(f, np.asarray(model.eim_g.t, dtype=int))
            assert np.array_equal(model.blocks.Tr[n], tr)

    def test_restricted_blocks_not_extendable(self, standard_small):
        small = standard_small.model.restrict(2, 3)
        with pytest.raises(RuntimeError):
            small.blocks.extend(small.rb, small.eim_g)


def reduced_residual(model, c, mu):
    """A c + Rq^T B^{-1} g(Tr^T c) - F, written out from the blocks."""
    blocks, eim = model.blocks, model.eim_g
    g = model.problem.term.g(blocks.Tr.T @ c, eim.point_coords, mu)
    return blocks.A @ c + blocks.Rq.T @ np.linalg.solve(eim.B, g) - blocks.F


class TestExactJacobians:
    """Each Jacobian equals the central-difference derivative of its residual."""

    H = 1e-6

    @pytest.mark.parametrize("mu", [(0.01, 0.01), (1.0, 1.0), (10.0, 10.0)])
    def test_reduced_jacobian_is_the_residual_derivative(self, standard_small, mu):
        model = standard_small.model
        c = model.solve((0.5, 0.5)).coeffs
        jac = model.jacobian(c, mu)
        fd = np.column_stack([
            (reduced_residual(model, c + self.H * e, mu)
             - reduced_residual(model, c - self.H * e, mu)) / (2 * self.H)
            for e in np.eye(model.N)])
        assert jac.shape == (model.N, model.N)
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    @pytest.mark.parametrize("mu", [(0.01, 0.01), (1.0, 1.0), (10.0, 10.0)])
    def test_truth_jacobian_is_the_residual_derivative(self, problem8, mu):
        space = problem8.space
        coords = space.dof_coords

        def residual(u):
            return (problem8.stiffness @ u
                    + problem8.mass @ problem8.term.g(u, coords, mu)
                    - problem8.load)

        u, _ = er.truth_newton_solve(problem8, (0.5, 0.5))
        jac = er.truth_jacobian(problem8, u.values, mu).toarray()
        fd = np.column_stack([
            (residual(u.values + self.H * e) - residual(u.values - self.H * e))
            / (2 * self.H) for e in np.eye(space.ndof)])
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()


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
        rb = er.RbSpace(problem8.space)
        rb.add_snapshot(truth.solve(mu), mu)
        blocks = er.ReducedBlocks(problem8)
        blocks.extend(rb, eim_g)
        model = er.ReducedModel(problem8, rb, blocks, eim_g)
        sol = model.solve(mu)
        du = truth.solve(mu) - model.lift_values(sol)
        assert float(np.sqrt(du @ (problem8.mass @ du))) <= 1e-6

    def test_zero_rhs_gives_zero_in_one_iteration(self, standard_small):
        model = standard_small.model.restrict(4, 5)
        model.blocks.F = np.zeros_like(model.blocks.F)
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
        leading = model.blocks.A @ c
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
        rb = er.RbSpace(space)
        for k, dof in enumerate(space.interior_dofs):
            e = np.zeros(space.ndof)
            e[dof] = 1.0
            rb.add_snapshot(e, (float(k), 0.0))
        blocks = er.ReducedBlocks(problem)
        blocks.extend(rb, eim_g)
        model = er.ReducedModel(problem, rb, blocks, eim_g)
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
        assert abs(model.output(sol)
                   - model.problem.average(lifted.values)) <= 1e-12

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
        assert small.eim_g.M == 4
        assert small.blocks.Rq.shape == (4, 3)
        assert small.blocks.Tr.shape == (3, 4)
        assert np.array_equal(small.blocks.A, model.blocks.A[:3, :3])
        assert np.array_equal(small.blocks.F, model.blocks.F[:3])
        assert np.array_equal(small.blocks.Rq, model.blocks.Rq[:4, :3])
        assert np.array_equal(small.blocks.Tr, model.blocks.Tr[:3, :4])
        assert np.array_equal(small.blocks.avg, model.blocks.avg[:3])
        assert np.array_equal(small.eim_g.B, model.eim_g.B[:4, :4])

    def test_restriction_beyond_size_rejected(self, standard_small):
        with pytest.raises(ValueError):
            standard_small.model.restrict(100, 5)

import warnings

import numpy as np
import pytest

import eimrb as er

from conftest import (MODEL_ARRAYS, at_mu, eim_train, gram_matrix,
                      model_with, same_bits)


class TestRbSpace:
    def test_first_snapshot_normalized(self, problem8):
        rb = er.RbSpace(problem8)
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        rb.add_snapshot(u, (1.0, 1.0))
        gram = gram_matrix(rb)
        assert abs(gram[0, 0] - 1.0) <= 1e-12

    def test_duplicate_snapshot_rejected(self, problem8):
        rb = er.RbSpace(problem8)
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        rb.add_snapshot(u, (1.0, 1.0))
        with pytest.raises(er.DependentSnapshot):
            rb.add_snapshot(u, (1.0, 1.0))
        assert rb.N == 1

    def test_gram_is_identity_after_five_snapshots(self, problem8):
        rb = er.RbSpace(problem8)
        for mu in [(0.01, 0.01), (10, 10), (0.1, 1.0), (1.0, 0.1), (3.0, 3.0)]:
            u, _ = er.truth_newton_solve(problem8, mu)
            rb.add_snapshot(u, mu)
        gram = gram_matrix(rb)
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_spaces_of_one_problem_share_x_op(self, problem8):
        # the problem makes stiffness + mass once; every space reads it
        first, second = er.RbSpace(problem8), er.RbSpace(problem8)
        assert first.x_op is second.x_op is problem8.x_op
        made = (problem8.stiffness + problem8.mass).tocsr()
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(first.x_op, name), getattr(made, name))

    def test_zero_boundary_values(self, standard_small):
        model = standard_small.model
        bdofs = model.problem.space.boundary_dofs
        for xi in model.basis.T:
            assert np.all(xi[bdofs] == 0.0)


class TestBlocks:
    MUS = [(0.01, 0.01), (10, 10), (0.1, 1.0)]

    @pytest.fixture(scope="class")
    def truth(self, problem8):
        return er.TruthReferences(problem8)

    def test_extension_preserves_existing_entries_bitwise(self, problem8,
                                                          train5, truth):
        provider = er.truth_g_block(truth)
        eim_g = eim_train(problem8.space, provider, list(train5), m_max=3)
        rb = er.RbSpace(problem8)
        for mu in self.MUS[:2]:
            rb.add_snapshot(truth.get(mu)[0], mu)
        old = rb.model(eim_g, "old")
        # grow the basis and the interpolant in one model() call
        rb.add_snapshot(truth.get(self.MUS[2])[0], self.MUS[2])
        eim_train(problem8.space, provider, list(train5), m_max=4, basis=eim_g)
        new = rb.model(eim_g, "new")
        assert (new.N, new.Rq.shape[0]) == (3, 4)
        assert same_bits(new.A[:2, :2], old.A)
        assert same_bits(new.F[:2], old.F)
        assert same_bits(new.Rq[:3, :2], old.Rq)
        assert same_bits(new.Tr[:2, :3], old.Tr)
        assert same_bits(new.avg[:2], old.avg)
        # and the blocks grown in steps equal blocks built at once
        fresh = er.RbSpace(problem8)
        for mu in self.MUS:
            fresh.add_snapshot(truth.get(mu)[0], mu)
        at_once = fresh.model(eim_g, "new")
        for name in MODEL_ARRAYS:
            assert same_bits(getattr(new, name), getattr(at_once, name)), name

    def test_earlier_model_unchanged_by_later_growth(self, problem8, train5,
                                                     truth):
        # a greedy sweep scans with the model of the current (N, M) while
        # the space and the interpolant go on growing after it
        provider = er.truth_g_block(truth)
        eim_g = eim_train(problem8.space, provider, list(train5), m_max=3)
        rb = er.RbSpace(problem8)
        for mu in self.MUS[:2]:
            rb.add_snapshot(truth.get(mu)[0], mu)
        first = rb.model(eim_g, "first")
        assert not np.shares_memory(first.B, eim_g.B)
        before = {name: getattr(first, name).copy() for name in MODEL_ARRAYS}
        mu = (0.37, 0.8)
        coeffs = first.solve(mu).coeffs

        rb.add_snapshot(truth.get(self.MUS[2])[0], self.MUS[2])
        assert not er.eim_greedy_step(eim_g, provider, list(train5)).saturated
        second = rb.model(eim_g, "second")

        assert (second.N, second.Rq.shape[0]) == (3, 4)
        for name in MODEL_ARRAYS:
            assert same_bits(getattr(first, name), before[name]), name
            assert not np.shares_memory(getattr(first, name),
                                        getattr(second, name)), name
        assert first.snapshot_mus == self.MUS[:2]
        assert first.M == 3
        assert same_bits(first.restrict(2, 4).Rq, before["Rq"])
        assert same_bits(first.solve(mu).coeffs, coeffs)

    def test_trace_matrices_are_exact_evaluations(self, standard_small):
        model = standard_small.model
        assert model.Tr.shape == (model.N, model.M)
        assert np.array_equal(model.Tr, model.basis[model.t].T)


def reduced_residual(model, c, mu):
    """A c + Rq^T B^{-1} g(Tr^T c) - F, written out from the blocks."""
    xg = model.problem.space.dof_coords[model.t]
    g = at_mu(model.problem.term.g, model.Tr.T @ c, xg, mu)
    return model.A @ c + model.Rq.T @ np.linalg.solve(model.B, g) - model.F


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
        # the Jacobian Newton factors is the derivative of the interior
        # residual rows with respect to the interior values, both in the
        # problem's elimination order
        space = problem8.space
        coords, idx = space.dof_coords, problem8.interior_block[0]
        assert np.array_equal(np.sort(idx), space.interior_dofs)

        def residual(u):
            return (problem8.stiffness @ u
                    + problem8.mass @ at_mu(problem8.term.g, u, coords, mu)
                    - problem8.load)[idx]

        u, _ = er.truth_newton_solve(problem8, (0.5, 0.5))
        jac = er.truth_jacobian(problem8, u, mu).toarray()
        fd = np.column_stack([
            (residual(u + self.H * e) - residual(u - self.H * e))
            / (2 * self.H) for e in np.eye(space.ndof)[idx]])
        assert jac.shape == (len(idx), len(idx))
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()


class TestReducedSolve:
    def test_single_snapshot_reproduction(self, problem8):
        mu = (0.5, 2.0)
        samples = [mu, (0.6, 2.0), (0.5, 2.5), (0.7, 1.5)]
        truth = er.TruthReferences(problem8)
        eim_g = eim_train(problem8.space, er.truth_g_block(truth), samples, m_max=4)
        rb = er.RbSpace(problem8)
        rb.add_snapshot(truth.get(mu)[0], mu)
        model = rb.model(eim_g, "one snapshot")
        sol = model.solve(mu)
        du = truth.get(mu)[0] - model.lift_values(sol)
        assert float(np.sqrt(du @ (problem8.mass @ du))) <= 1e-6

    def test_zero_rhs_gives_zero_in_one_iteration(self, standard_small):
        model = standard_small.model.restrict(4, 5)
        model = model_with(model, F=np.zeros_like(model.F))
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
        traces = model.Tr
        c = 1e160 * np.linalg.solve(traces.T, -np.ones(traces.shape[1]))
        assert np.all(traces.T @ c < 0)
        leading = model.A @ c
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
        truth = er.TruthReferences(problem)
        eim_g = eim_train(space, er.truth_g_block(truth), samples, m_max=9)
        rb = er.RbSpace(problem)
        for k, dof in enumerate(space.interior_dofs):
            e = np.zeros(space.ndof)
            e[dof] = 1.0
            rb.add_snapshot(e, (float(k), 0.0))
        model = rb.model(eim_g, "interior")
        for mu in samples:
            sol = model.solve(mu, er.NewtonConfig(max_iter=200))
            du = truth.get(mu)[0] - model.lift_values(sol)
            assert float(np.sqrt(du @ (problem.mass @ du))) <= 1e-8


def with_term(model, g=None, dg_du=None):
    """The model with its nonlinear term's g or dg_du replaced."""
    term = model.problem.term
    problem = er.NonlinearProblem(model.problem.space,
                                  er.NonlinearTerm(g or term.g,
                                                   dg_du or term.dg_du),
                                  er.benchmark_rhs)
    return model_with(model, problem=problem)


def poisoned_at(func, bad, value):
    """func, but filled with value in the rows of the parameter bad."""
    def out(u, xy, mus):
        res = np.array(func(u, xy, mus), dtype=float)
        res[np.all(mus == bad, axis=1)] = value
        return res
    return out


class TestSolveMany:
    """solve_many against solve, one parameter at a time."""

    @pytest.fixture(scope="class")
    def grid(self):
        return [tuple(p) for p in er.SampleSet.log_grid(6, 6)]

    def assert_matches_solve(self, model, mus, cfg):
        coeffs, failures = model.solve_many(mus, cfg)
        assert coeffs.shape == (len(mus), model.N)
        for k, mu in enumerate(mus):
            try:
                sol = model.solve(mu, cfg)
            except (er.NewtonFailure, er.SolverFailure) as exc:
                got = failures[k]
                assert type(got) is type(exc)
                assert str(got) == str(exc)
                if isinstance(exc, er.NewtonFailure):
                    assert got.history == pytest.approx(exc.history, rel=1e-10,
                                                        nan_ok=True)
                assert np.all(coeffs[k] == 0.0)
                continue
            assert k not in failures
            assert np.abs(coeffs[k] - sol.coeffs).max() \
                <= 1e-12 * np.abs(sol.coeffs).max()
        return failures

    def test_coefficients_match_solve(self, standard_small, grid):
        failures = self.assert_matches_solve(standard_small.model, grid,
                                             er.NewtonConfig())
        assert not failures

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_stalled_solves_match_solve(self, standard_small, grid, max_iter):
        failures = self.assert_matches_solve(
            standard_small.model, grid, er.NewtonConfig(max_iter=max_iter))
        assert failures
        assert all("stalled" in str(exc) for exc in failures.values())

    def test_poisoned_term_fails_only_there(self, standard_small, grid):
        bad = grid[7]
        model = with_term(standard_small.model,
                          g=poisoned_at(standard_small.model.problem.term.g,
                                        bad, np.nan))
        failures = self.assert_matches_solve(model, grid, er.NewtonConfig())
        assert list(failures) == [7]
        assert "not finite at the initial guess" in str(failures[7])

    def test_singular_jacobians_are_attributed(self, standard_small, grid):
        # a linear term g(u) = u and A = 0: the Jacobian W Tr^T is constant
        # and regular, except at bad, where g' is poisoned to 0
        bad = grid[7]
        model = standard_small.model
        linear = with_term(model, g=lambda u, xy, mu: np.array(u, dtype=float),
                           dg_du=poisoned_at(lambda u, xy, mu: np.ones_like(u),
                                             bad, 0.0))
        linear = model_with(linear, A=np.zeros_like(model.A))
        failures = self.assert_matches_solve(linear, grid, er.NewtonConfig())
        assert list(failures) == [7]
        assert isinstance(failures[7], er.SolverFailure)
        assert "singular reduced Jacobian" in str(failures[7])

    def test_no_parameters(self, standard_small):
        coeffs, failures = standard_small.model.solve_many([])
        assert coeffs.shape == (0, standard_small.model.N)
        assert failures == {}

    def test_empty_basis_rejected_like_solve(self, problem8, standard_small):
        model = er.RbSpace(problem8).model(standard_small.eim_g, "empty")
        with pytest.raises(ValueError) as single:
            model.solve((1.0, 1.0))
        with pytest.raises(ValueError) as many:
            model.solve_many([(1.0, 1.0)])
        assert str(many.value) == str(single.value)

    def test_lift_block_matches_lift_values(self, standard_small, grid):
        model = standard_small.model
        coeffs, _ = model.solve_many(grid[:5])
        block = model.lift_block(coeffs)
        for c, row in zip(coeffs, block):
            lifted = model.lift_values(er.RbSolution(c, None, 0, []))
            assert np.abs(row - lifted).max() <= 1e-12 * np.abs(lifted).max()


class TestOutputsAndLift:
    def test_zero_coeffs(self, standard_small):
        model = standard_small.model
        sol = er.RbSolution(np.zeros(model.N), (1.0, 1.0), 0, [])
        assert model.output(sol) == 0.0
        assert np.all(model.lift_values(sol) == 0.0)

    def test_output_matches_average_of_lift(self, standard_small):
        model = standard_small.model
        sol = model.solve((0.7, 0.9))
        lifted = model.lift_values(sol)
        assert abs(model.output(sol)
                   - model.problem.average(lifted)) <= 1e-12

    def test_lift_of_unit_vector_is_basis_field(self, standard_small):
        model = standard_small.model
        e1 = np.zeros(model.N)
        e1[0] = 1.0
        sol = er.RbSolution(e1, (1.0, 1.0), 0, [])
        assert np.array_equal(model.lift_values(sol), model.basis[:, 0])

    def test_w_and_basis_are_made_on_first_use(self, standard_small):
        # a model made with a function in place of its basis calls it once,
        # on the first lift, and never to solve; W is formed on the first
        # solve, and an assigned one is used as it is
        model = standard_small.model
        calls = []

        def read_basis():
            calls.append(1)
            return model.basis

        late = model_with(model, basis=read_basis)
        assert "W" not in vars(late) and calls == []
        sol = late.solve((0.7, 0.9))
        assert same_bits(late.W, model.W) and calls == []
        assert same_bits(late.lift_values(sol), model.lift_values(sol))
        late.lift_block(sol.coeffs[None])
        assert calls == [1]
        assigned = model_with(model)
        assigned.W = model.W * 0.0
        assert np.array_equal(assigned.solve((0.7, 0.9)).coeffs,
                              np.linalg.solve(model.A, model.F))

    def test_parseval(self, standard_small):
        model = standard_small.model
        x_op = model.problem.stiffness + model.problem.mass
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(model.N)
            sol = er.RbSolution(c, (1.0, 1.0), 0, [])
            lifted = model.lift_values(sol)
            xnorm = float(np.sqrt(max(lifted @ (x_op @ lifted), 0.0)))
            assert abs(xnorm - np.linalg.norm(c)) <= 1e-9 * max(1.0, np.linalg.norm(c))


class TestRestrict:
    def test_restriction_truncates_consistently(self, standard_small):
        model = standard_small.model
        small = model.restrict(3, 4)
        assert small.N == 3
        assert small.M == 4
        assert small.Rq.shape == (4, 3)
        assert small.Tr.shape == (3, 4)
        assert np.array_equal(small.A, model.A[:3, :3])
        assert np.array_equal(small.F, model.F[:3])
        assert np.array_equal(small.Rq, model.Rq[:4, :3])
        assert np.array_equal(small.Tr, model.Tr[:3, :4])
        assert np.array_equal(small.avg, model.avg[:3])
        assert np.array_equal(small.t, model.t[:4])
        assert np.array_equal(small.B, model.B[:4, :4])

    def test_restriction_owns_copies(self, standard_small):
        # a restricted model shares no array with the model it came from:
        # writing into every array of it leaves the model unchanged
        model = standard_small.model
        names = ("t", "B", "A", "F", "Rq", "Tr", "avg", "basis")
        before = {name: getattr(model, name).copy() for name in names}
        small = model.restrict(model.N, model.M)
        for name in names:
            getattr(small, name)[...] = -1 if name == "t" else np.nan
        for name in names:
            assert np.array_equal(getattr(model, name), before[name]), name

    def test_restriction_beyond_size_rejected(self, standard_small):
        with pytest.raises(ValueError):
            standard_small.model.restrict(100, 5)

import math
import re
import warnings

import numpy as np
import pytest

import eimrb as er

from conftest import (at_mu, eim_train, gram_matrix, model_arrays,
                      assert_same_table, model_with, poisoned_at, same_bits,
                      with_term)


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
        mass_fields = er.MassFields(problem8, eim_g)
        old = rb.model(mass_fields)
        # grow the basis and the interpolant in one model() call
        rb.add_snapshot(truth.get(self.MUS[2])[0], self.MUS[2])
        eim_train(problem8.space, provider, list(train5), m_max=4, basis=eim_g)
        new = rb.model(mass_fields)
        assert (new.N, new.Rq.shape[0]) == (3, 4)
        assert same_bits(new.A[:2, :2], old.A)
        assert same_bits(new.F[:2], old.F)
        assert same_bits(new.Rq[:3, :2], old.Rq)
        assert same_bits(new.Tr[:2, :3], old.Tr)
        assert same_bits(new.avg[:2], old.avg)
        # and the blocks grown in steps equal blocks built at once, by a
        # space that reads the products made for the first one
        fresh = er.RbSpace(problem8)
        for mu in self.MUS:
            fresh.add_snapshot(truth.get(mu)[0], mu)
        at_once = fresh.model(mass_fields)
        arrays = model_arrays(at_once)
        for name, array in model_arrays(new).items():
            assert same_bits(array, arrays[name]), name

    def test_earlier_model_unchanged_by_later_growth(self, problem8, train5,
                                                     truth):
        # a greedy sweep scans with the model of the current (N, M) while
        # the space and the interpolant go on growing after it
        provider = er.truth_g_block(truth)
        eim_g = eim_train(problem8.space, provider, list(train5), m_max=3)
        rb = er.RbSpace(problem8)
        for mu in self.MUS[:2]:
            rb.add_snapshot(truth.get(mu)[0], mu)
        mass_fields = er.MassFields(problem8, eim_g)
        first = rb.model(mass_fields)
        assert not np.shares_memory(first.B, eim_g.B)
        before = {name: array.copy()
                  for name, array in model_arrays(first).items()}
        mu = (0.37, 0.8)
        coeffs = first.solve(mu).coeffs

        rb.add_snapshot(truth.get(self.MUS[2])[0], self.MUS[2])
        assert not er.eim_greedy_step(eim_g, provider, list(train5)).saturated
        second = rb.model(mass_fields)

        assert (second.N, second.Rq.shape[0]) == (3, 4)
        arrays = model_arrays(second)
        for name, array in model_arrays(first).items():
            assert same_bits(array, before[name]), name
            assert not np.shares_memory(array, arrays[name]), name
        assert first.snapshot_mus == self.MUS[:2]
        assert first.M == 3
        assert same_bits(first.restrict(2, 4).Rq, before["Rq"])
        assert same_bits(first.solve(mu).coeffs, coeffs)

    def test_trace_matrices_are_exact_evaluations(self, standard_small):
        model = standard_small.model
        assert model.Tr.shape == (model.N, model.M)
        assert np.array_equal(model.Tr, model.basis[model.t].T)
        # laid out in C order, as a loaded model's Tr is
        assert model.Tr.flags.c_contiguous


def reduced_residual(model, c, mu):
    """A c + Rq^T B^{-1} g(Tr^T c) - F, written out from the blocks."""
    g = at_mu(model.problem.term.g, model.Tr.T @ c, mu)
    return model.A @ c + model.Rq.T @ np.linalg.solve(model.B, g) - model.F


class TestExactJacobians:
    """Each Jacobian equals the central-difference derivative of its residual."""

    H = 1e-6

    @pytest.mark.parametrize("mu", [(0.01, 0.01), (1.0, 1.0), (10.0, 10.0)])
    def test_reduced_jacobian_is_the_residual_derivative(self, standard_small, mu):
        # the kernels that solve and solve_many run: the residual is the
        # one written out, on W in place of the solve with B, and the
        # Jacobian is its derivative
        model = standard_small.model
        c = model.solve((0.5, 0.5)).coeffs
        g = at_mu(model.problem.term.g, c @ model.Tr, mu)
        assert np.abs(model._residual(c[None], g[None])[0]
                      - reduced_residual(model, c, mu)).max() \
            <= 1e-12 * np.abs(model.F).max()
        dg = at_mu(model.problem.term.dg_du, c @ model.Tr, mu)
        jac = model._jacobian(dg[None])[0]
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
        idx = problem8.interior_block[0]
        assert np.array_equal(np.sort(idx), space.interior_dofs)

        def residual(u):
            return (problem8.stiffness @ u
                    + problem8.mass @ at_mu(problem8.term.g, u, mu)
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
        model = rb.model(er.MassFields(problem8, eim_g))
        sol = model.solve(mu)
        du = truth.get(mu)[0] - model.lift_values(sol)
        assert float(np.sqrt(du @ (problem8.mass @ du))) <= 1e-6

    def test_zero_rhs_gives_zero_in_one_iteration(self, standard_small):
        # with no table, as the start rows solve the model with its F
        model = standard_small.model.restrict(4, 5)
        model = model_with(model, F=np.zeros_like(model.F), table=None)
        sol = model.solve((1.0, 1.0))
        assert np.all(sol.coeffs == 0.0)
        assert sol.newton_iters == 1

    def test_newton_failure_carries_history(self, standard_small):
        model = standard_small.model
        with pytest.raises(er.NewtonFailure) as info:
            model.solve((10.0, 10.0), er.NewtonConfig(max_iter=1),
                        initial=np.zeros(model.N))
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
        model = rb.model(er.MassFields(problem, eim_g))
        for mu in samples:
            sol = model.solve(mu, er.NewtonConfig(max_iter=200),
                              initial=np.zeros(model.N))
            du = truth.get(mu)[0] - model.lift_values(sol)
            assert float(np.sqrt(du @ (problem.mass @ du))) <= 1e-8


def cold_block_newton(model, mus, cfg):
    """The block Newton of solve_many from zero, written out as it ran
    before it took starts: every row's tolerance from its norm at the
    start.  Returns the coefficients and the indices of the failed rows
    (zero there)."""
    g, dg_du = model.problem.term.g, model.problem.term.dg_du
    mu_rows = np.asarray(mus, dtype=float)
    coeffs = np.zeros((len(mus), model.N))

    def residual(rows):
        c = coeffs[rows]
        values = c @ model.Tr
        r = c @ model.A.T + g(values, mu_rows[rows]) @ model.W.T - model.F
        return values, r, np.linalg.norm(r, axis=1)

    live = np.arange(len(mus))
    failed = set()
    with np.errstate(over="ignore", invalid="ignore"):
        values, r, r_norm = residual(live)
        tol = cfg.tolerance(r_norm)
        failed.update(live[~np.isfinite(r_norm)].tolist())
        going = np.isfinite(r_norm)
        for _ in range(cfg.max_iter):
            live, values, r = live[going], values[going], r[going]
            if live.size == 0:
                break
            jac = model.A + (model.W * dg_du(values, mu_rows[live])[:, None, :]) \
                @ model.Tr.T
            coeffs[live] += np.linalg.solve(jac, -r[:, :, None])[:, :, 0]
            values, r, r_norm = residual(live)
            failed.update(live[~np.isfinite(r_norm)].tolist())
            going = np.isfinite(r_norm) & (r_norm > tol[live])
        else:
            failed.update(live[going].tolist())
    coeffs[sorted(failed)] = 0.0
    return coeffs, failed


def zeros_for(model, mus):
    """The cold start of solve_many at mus: one zero row per parameter."""
    return np.zeros((len(mus), model.N))


class TestSolveMany:
    """solve_many against solve, one parameter at a time."""

    @pytest.fixture(scope="class")
    def grid(self):
        return [tuple(p) for p in er.SampleSet.log_grid(6, 6)]

    def assert_matches_solve(self, model, mus, cfg, start=None):
        # row k of solve_many against solve from the same start, zero
        # when none is given
        start = zeros_for(model, mus) if start is None else start
        coeffs, failures = model.solve_many(mus, cfg, initial=start)
        assert coeffs.shape == (len(mus), model.N)
        for k, mu in enumerate(mus):
            try:
                sol = model.solve(mu, cfg, initial=start[k])
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

    def test_one_parameter_equals_solve_bitwise(self, standard_small, grid):
        # both loops run the same residual and Jacobian kernels, so one
        # parameter through the block solver takes solve's steps bit for bit
        model = standard_small.model
        for mu in grid:
            coeffs, failures = model.solve_many([mu],
                                                initial=zeros_for(model, [mu]))
            assert not failures
            assert same_bits(coeffs[0], model.solve(
                mu, initial=np.zeros(model.N)).coeffs)

    @pytest.mark.parametrize("max_iter", [1, 3, 50])
    def test_zero_start_is_the_cold_block_solve_bitwise(self, standard_small,
                                                         grid, max_iter):
        # from zero, the residual at the start is the residual at zero, so
        # the start's tolerance is the cold one and every step is the same
        model = standard_small.model
        cfg = er.NewtonConfig(max_iter=max_iter)
        coeffs, failures = model.solve_many(grid, cfg,
                                            initial=zeros_for(model, grid))
        cold, failed = cold_block_newton(model, grid, cfg)
        assert set(failures) == failed
        assert same_bits(coeffs, cold)

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

    def test_a_row_started_at_its_answer_takes_one_step(self, standard_small,
                                                        grid):
        # the tolerance is that of the residual at zero: one step from the
        # converged answer meets it, where the start's own norm would ask
        # for more (abs_tol is set below every residual that one step
        # leaves)
        model = standard_small.model
        cfg = er.NewtonConfig(abs_tol=1e-300, rel_tol=1e-10)
        answers, _ = model.solve_many(grid, cfg,
                                      initial=zeros_for(model, grid))
        one_step = er.NewtonConfig(abs_tol=1e-300, rel_tol=1e-10, max_iter=1)
        coeffs, failures = model.solve_many(grid, one_step, initial=answers)
        assert failures == {}
        moved_on = 0
        for k, mu in enumerate(grid):
            sol = model.solve(mu, one_step, initial=answers[k])
            assert sol.newton_iters == 1
            assert np.abs(coeffs[k] - sol.coeffs).max() \
                <= 1e-12 * np.abs(sol.coeffs).max()
            start_norm, after = sol.residual_history
            moved_on += after > one_step.tolerance(start_norm)
        # most rows would not have stopped by their start's tolerance
        assert moved_on > len(grid) // 2

    @pytest.mark.parametrize("max_iter", [2, 50])
    def test_failed_rows_from_a_start_raise_what_solve_raises(
            self, standard_small, grid, max_iter):
        # far starts: some rows stall or diverge, and row 0 starts at a
        # point where g overflows
        model = standard_small.model
        start = np.random.default_rng(3).normal(0.0, 30.0,
                                                (len(grid), model.N))
        start[0] = 1e300
        failures = self.assert_matches_solve(
            model, grid, er.NewtonConfig(max_iter=max_iter), start)
        assert "not finite at the initial guess" in str(failures[0])
        assert len(failures) > 1

    def test_a_start_of_the_wrong_shape_is_refused(self, standard_small,
                                                   grid):
        model = standard_small.model
        for shape in ((len(grid), model.N + 1), (len(grid) - 1, model.N),
                      (model.N,)):
            with pytest.raises(ValueError, match="initial has shape"):
                model.solve_many(grid, initial=np.zeros(shape))

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
        linear = with_term(model, g=lambda u, mu: np.array(u, dtype=float),
                           dg_du=poisoned_at(lambda u, mu: np.ones_like(u),
                                             bad, 0.0))
        linear = model_with(linear, A=np.zeros_like(model.A))
        failures = self.assert_matches_solve(linear, grid, er.NewtonConfig())
        assert list(failures) == [7]
        assert isinstance(failures[7], er.SolverFailure)
        assert "singular reduced Jacobian" in str(failures[7])

    def test_no_parameters(self, standard_small):
        model = standard_small.model
        coeffs, failures = model.solve_many([], initial=np.zeros((0, model.N)))
        assert coeffs.shape == (0, model.N)
        assert failures == {}

    def test_empty_basis_rejected_like_solve(self, problem8, standard_small):
        mass_fields = er.MassFields(problem8, standard_small.eim_g)
        model = er.RbSpace(problem8).model(mass_fields)
        with pytest.raises(ValueError) as single:
            model.solve((1.0, 1.0))
        with pytest.raises(ValueError) as many:
            model.solve_many([(1.0, 1.0)], initial=np.zeros((1, 0)))
        assert str(many.value) == str(single.value)

    def test_lift_block_matches_lift_values(self, standard_small, grid):
        model = standard_small.model
        coeffs, _ = model.solve_many(grid[:5], initial=zeros_for(model,
                                                                 grid[:5]))
        block = model.lift_block(coeffs)
        for c, row in zip(coeffs, block):
            lifted = model.lift_values(er.RbSolution(c, 0, []))
            assert np.abs(row - lifted).max() <= 1e-12 * np.abs(lifted).max()


class TestOnlineStart:
    """solve starts at the tangent prediction from the model's own
    solution at the nearest parameter of its start table, or at zero with
    no table, and stops by the rule of a solve from zero."""

    MUS = list(er.SampleSet.log_random(20, seed=8))

    @staticmethod
    def predicted(model, mu):
        """The start of solve(mu) by a plain loop: the row of the start
        table nearest to mu in log distance, the first on a tie, moved
        along its slopes; zero with no table or no row."""
        table = model.table
        if table is None or not len(table.mus):
            return np.zeros(model.N)

        def dist(k):
            return sum((math.log(a) - math.log(b)) ** 2
                       for a, b in zip(table.mus[k], mu))
        k = min(range(len(table.mus)), key=dist)
        step = np.log(mu) - np.log(table.mus[k])
        return table.coeffs[k] + step @ table.slopes[k]

    @staticmethod
    def tabled(model, mus):
        """The model given the start table that it makes over mus."""
        return model_with(model, table=er.rb.start_table(model, mus))

    def assert_starts_at(self, model, mu, start):
        """solve(mu) is bitwise the solve started at start."""
        warm = model.solve(mu)
        given = model.solve(mu, initial=start)
        assert same_bits(warm.coeffs, given.coeffs)
        assert warm.residual_history == given.residual_history

    def test_table_is_the_cold_block_solve_at_the_start_parameters(
            self, ser_small, train5):
        model = ser_small.model
        table = model.table
        assert same_bits(table.mus, train5.points)
        assert same_bits(table.coeffs, model.solve_many(
            train5.points, initial=zeros_for(model, train5))[0])
        assert table.slopes.shape == (len(train5), 2, model.N)
        assert table.slopes.flags.c_contiguous

    def test_slopes_are_the_derivatives_of_the_solution(self, ser_small):
        # central differences of the cold block solve in each log mu_j
        model = ser_small.model
        table = model.table
        h = 1e-4
        worst = 0.0
        for j in range(2):
            shift = np.exp(h * np.eye(2)[j])
            cold = zeros_for(model, table.mus)
            up = model.solve_many(table.mus * shift, initial=cold)[0]
            down = model.solve_many(table.mus / shift, initial=cold)[0]
            fd = (up - down) / (2 * h)
            worst = max(worst, float(np.max(
                np.abs(fd - table.slopes[:, j]).max(axis=1)
                / np.abs(fd).max(axis=1))))
        assert worst <= 1e-5

    @pytest.mark.parametrize("r, rebuild", [(1, False), (1, True),
                                            ("standard", False)])
    def test_build_makes_the_final_models_table(self, r, rebuild):
        # the build pays for the table, so no query does; its rows sit at
        # the training set
        train = er.SampleSet.log_grid(3, 3)
        cfg = er.SerConfig(r=r, rebuild_wn=rebuild, n_max=2, m_max=3,
                           train_set=train)
        model = er.build_ser(er.benchmark_problem(4, 1), cfg).model
        fresh = er.rb.start_table(model_with(model, table=None), train.points)
        assert same_bits(model.table.mus, train.points)
        assert_same_table(model.table, fresh)

    def test_build_gives_each_stored_checkpoint_its_table(self, tmp_path):
        # made when the checkpoint is stored, from its own arrays, before
        # any solve or save; the archive stores it and a load gives it back
        train = er.SampleSet.log_grid(3, 3)
        cfg = er.SerConfig(r=1, rebuild_wn=True, n_max=2, m_max=2,
                           train_set=train, checkpoints=((1, 1),))
        result = er.build_ser(er.benchmark_problem(4, 1), cfg)
        stored = result.checkpoints[(1, 1)]
        assert "W" in vars(stored)      # formed by the table's solves
        assert_same_table(stored.table, er.rb.start_table(
            model_with(stored, table=None), train.points))
        er.save_model(tmp_path / "model.npz", result)
        loaded = er.load_model(tmp_path / "model.npz").checkpoint(1, 1)
        assert_same_table(loaded.table, stored.table)

    def test_a_sweep_model_has_no_table_and_starts_at_zero(self, problem8,
                                                           standard_small):
        rb = er.RbSpace(problem8)
        source = standard_small.model
        for k in range(3):
            rb.add_snapshot(source.basis[:, k], source.snapshot_mus[k])
        model = rb.model(er.MassFields(problem8, standard_small.eim_g))
        assert model.table is None
        for mu in self.MUS:
            self.assert_starts_at(model, mu, np.zeros(model.N))

    def test_default_start_is_the_tangent_prediction_bitwise(self,
                                                             ser_small):
        model = ser_small.model
        starts = set()
        for mu in self.MUS:
            start = self.predicted(model, mu)
            starts.add(start.tobytes())
            self.assert_starts_at(model, mu, start)
        assert len(starts) > 1

    def test_start_at_a_table_parameter_is_that_row(self, ser_small):
        model = ser_small.model
        table = model.table
        for k in (0, 7, len(table.mus) - 1):
            mu = tuple(table.mus[k])
            assert same_bits(table.start(np.array(mu)), table.coeffs[k])
            self.assert_starts_at(model, mu, table.coeffs[k])

    @pytest.mark.parametrize("where", ["solve", "slope"])
    def test_a_failed_row_is_never_the_start(self, standard_small, where):
        # a row whose cold solve fails, or whose slope is not finite (g
        # poisoned at one parameter of the slope's central difference),
        # is left out, and a query beside it starts from its nearest
        # converged row
        model = standard_small.model
        mus = model.table.mus
        bad = tuple(mus[12])
        poison = np.array(bad)
        if where == "slope":
            poison = poison * np.exp(er.rb.SLOPE_STEP * np.eye(2))[1]
        poisoned = self.tabled(with_term(model, g=poisoned_at(
            model.problem.term.g, poison, np.nan)), mus)
        table = poisoned.table
        assert same_bits(table.mus, np.delete(mus, 12, axis=0))
        assert np.isfinite(table.slopes).all()
        logs = np.log(mus)
        for mu in ((bad[0] * 1.01, bad[1]), (bad[0], bad[1] / 1.01)):
            # bad is the start parameter nearest to mu, but no table row
            assert ((logs - np.log(mu)) ** 2).sum(axis=1).argmin() == 12
            self.assert_starts_at(poisoned, mu, self.predicted(poisoned, mu))

    def test_a_row_with_a_singular_jacobian_is_left_out(self,
                                                         standard_small):
        # with A = 0 and g(u) = u, the cold solve converges in one step
        # from c = 0; g' vanishes away from u = 0 at one parameter only,
        # so its converged Jacobian W diag(g') Tr^T is singular there
        model = standard_small.model
        mus = model.table.mus
        bad = np.array(mus[6])

        def dg_du(u, mus):
            out = np.ones_like(u)
            out[np.all(mus == bad, axis=1) & np.any(u != 0, axis=1)] = 0.0
            return out

        linear = model_with(with_term(model, g=lambda u, mus: u * 1.0,
                                      dg_du=dg_du), A=np.zeros_like(model.A))
        coeffs, failures = linear.solve_many(mus,
                                             initial=zeros_for(linear, mus))
        assert failures == {}
        table = er.rb.start_table(linear, mus)
        assert same_bits(table.mus, np.delete(mus, 6, axis=0))
        assert same_bits(table.coeffs, np.delete(coeffs, 6, axis=0))

    def test_a_table_with_no_converged_row_starts_at_zero(self,
                                                          standard_small):
        model = standard_small.model
        bad = model.table.mus[3]
        lone = self.tabled(with_term(model, g=poisoned_at(
            model.problem.term.g, bad, np.nan)), [bad])
        table = lone.table
        assert table.mus.shape == (0, 2)
        assert table.coeffs.shape == (0, model.N)
        assert same_bits(table.start(np.array([0.5, 0.5])), np.zeros(model.N))
        self.assert_starts_at(lone, (0.5, 0.5), np.zeros(model.N))

    def test_every_start_stops_by_the_rule_from_zero(self, ser_small):
        model = ser_small.model
        cfg = er.NewtonConfig()
        for mu in self.MUS:
            cold = model.solve(mu, initial=np.zeros(model.N))
            tol = cfg.tolerance(cold.residual_history[0])
            for start in (None, cold.coeffs):
                history = model.solve(mu, initial=start).residual_history
                assert history[-1] <= tol
                assert all(norm > tol for norm in history[1:-1])

    def test_start_takes_each_residual_on_its_own_row(self, problem8):
        # solve calls g once on the rows zero and start, then takes the
        # residual of each as a one-row product: on models with random A,
        # W and Tr, a two-row product rounds the start row otherwise
        n = m = 5
        mu = (0.3, 0.5)
        moved = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = er.ReducedModel(
                problem8, np.arange(m), np.eye(m),
                10.0 * np.eye(n) + rng.standard_normal((n, n)),
                rng.standard_normal(n), np.zeros((m, n)),
                rng.standard_normal((n, m)), np.zeros(n),
                np.zeros((problem8.space.ndof, n)), [(1.0, 1.0)] * n, None)
            model.W = rng.standard_normal((n, m))
            start = rng.standard_normal(n)
            g_start = model.problem.term.g(start[None] @ model.Tr,
                                           np.array([mu]))
            one_row = model._residual(start[None], g_start)
            two_rows = model._residual(np.vstack([np.zeros(n), start]),
                                       np.vstack([np.zeros(m), g_start]))[1:]
            norm = math.sqrt(np.vdot(one_row, one_row))
            moved += norm != math.sqrt(np.vdot(two_rows, two_rows))
            assert model.solve(mu, initial=start).residual_history[0] == norm
        assert moved

    def test_restriction_slices_its_parents_table(self, ser_small):
        # the basis is nested, so the leading n coefficients of the
        # parent's rows and slopes start the restriction; its table is
        # that slice, bit for bit, in arrays of its own
        model = ser_small.model
        small = model.restrict(3, 3)
        parent, table = model.table, small.table
        assert same_bits(table.mus, parent.mus)
        assert same_bits(table.coeffs, parent.coeffs[:, :3])
        assert same_bits(table.slopes, parent.slopes[:, :, :3])
        assert same_bits(table.logs, parent.logs)
        assert table.slopes.flags.c_contiguous
        for name in ("mus", "coeffs", "slopes"):
            assert not np.shares_memory(getattr(table, name),
                                        getattr(parent, name)), name
        self.assert_starts_at(small, (0.7, 0.9),
                              self.predicted(small, (0.7, 0.9)))
        # at full size the slice is the whole table
        assert_same_table(model.restrict(model.N, model.M).table, parent)
        # and a parent with no table gives none
        assert model_with(model, table=None).restrict(3, 3).table is None

    @pytest.mark.parametrize("initial", [np.zeros(3), np.zeros((2, 5)),
                                         np.zeros(6), np.zeros(0)])
    def test_a_start_of_the_wrong_length_is_refused(self, ser_small,
                                                    initial):
        model = ser_small.model
        assert model.N == 5
        with pytest.raises(ValueError, match="expected N=5 coefficients"):
            model.solve((0.7, 0.9), initial=initial)

    @pytest.mark.parametrize("mu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                    (math.nan, 1.0), (1.0, math.inf),
                                    (0.5,), (0.5, 0.5, 0.5)],
                             ids=["zero", "negative", "zero-mu2", "nan",
                                  "inf", "one-entry", "three-entries"])
    def test_a_parameter_that_is_not_positive_and_finite_is_refused(
            self, ser_small, mu):
        # refused before the log of the tangent start warns, and before
        # a misleading Newton failure; one of the wrong length before the
        # table lookup or the term fails on it
        message = (f"mu={mu} is not positive and finite" if len(mu) == 2
                   else f"mu={mu} has {len(mu)} entries, expected 2")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=re.escape(message)):
                ser_small.model.solve(mu)


class TestOutputsAndLift:
    def test_zero_coeffs(self, standard_small):
        model = standard_small.model
        sol = er.RbSolution(np.zeros(model.N), 0, [])
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
        sol = er.RbSolution(e1, 0, [])
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
        assert np.array_equal(assigned.solve((0.7, 0.9),
                                             initial=np.zeros(model.N)).coeffs,
                              np.linalg.solve(model.A, model.F))

    def test_parseval(self, standard_small):
        model = standard_small.model
        x_op = model.problem.stiffness + model.problem.mass
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.standard_normal(model.N)
            sol = er.RbSolution(c, 0, [])
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
        names = ("t", "B", "A", "F", "Rq", "Tr", "avg", "basis",
                 "table.mus", "table.coeffs", "table.slopes")

        def array(of, name):
            table, _, part = name.rpartition(".")
            return getattr(of.table if table else of, part)

        before = {name: array(model, name).copy() for name in names}
        small = model.restrict(model.N, model.M)
        for name in names:
            array(small, name)[...] = -1 if name == "t" else np.nan
        for name in names:
            assert np.array_equal(array(model, name), before[name]), name

    def test_restriction_beyond_size_rejected(self, standard_small):
        with pytest.raises(ValueError):
            standard_small.model.restrict(100, 5)

    @pytest.mark.parametrize("n, m", [(True, True), (2.0, 3), (2, 3.0),
                                      (np.int64(2), 3)])
    def test_restriction_to_sizes_that_are_not_ints_rejected(
            self, standard_small, n, m):
        # a bool would give a 1x1 model, a float would reach a slice
        with pytest.raises(ValueError, match="sizes must be ints"):
            standard_small.model.restrict(n, m)

    @pytest.mark.parametrize("n, m", [(-1, 1), (0, 1), (2, -1), (2, 0)])
    def test_restriction_to_no_vector_or_field_rejected(self, standard_small,
                                                        n, m):
        # a negative size would slice from the end and give a model
        with pytest.raises(ValueError, match="cannot restrict"):
            standard_small.model.restrict(n, m)

import numpy as np
import pytest

import eimrb as er


CORNERS = [(0.01, 0.01), (10.0, 0.01), (0.01, 10.0), (10.0, 10.0)]


@pytest.fixture(scope="module")
def problem32():
    return er.benchmark_problem(32, 2)


class TestNonlinearTerm:
    def test_derivative_consistency(self):
        term = er.benchmark_term()
        er.check_derivative(term, CORNERS, np.linspace(-1, 1, 9))

    def test_inconsistent_derivative_detected(self):
        bad = er.NonlinearTerm(lambda u, xy, mu: np.asarray(u) ** 2,
                               lambda u, xy, mu: 3 * np.asarray(u))
        with pytest.raises(ValueError):
            er.check_derivative(bad, [(1.0, 1.0)], [0.5])


class TestTruthNewton:
    def test_linear_poisson_one_iteration(self, problem8):
        zero_term = er.NonlinearTerm(lambda u, xy, mu: np.zeros_like(u),
                                     lambda u, xy, mu: np.zeros_like(u))
        lin = er.NonlinearProblem(problem8.space, zero_term, er.benchmark_rhs)
        u, stats = er.truth_newton_solve(lin, (1.0, 1.0))
        assert stats.iterations == 1
        # matches the direct linear solve
        op, vec = er.apply_dirichlet(problem8.space, problem8.stiffness,
                                     lin.load)
        direct = er.solve_sparse(op, vec)
        assert np.abs(u.values - direct).max() <= 1e-10

    def test_mild_corner_iteration_count(self, problem32):
        _, stats = er.truth_newton_solve(problem32, (0.01, 0.01))
        assert stats.iterations <= 4

    def test_stiff_corner_iteration_count(self, problem32):
        _, stats = er.truth_newton_solve(problem32, (10.0, 10.0))
        assert stats.iterations <= 15

    def test_boundary_values_zero(self, problem8):
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        assert np.all(u.values[problem8.space.boundary_dofs] == 0.0)

    @pytest.mark.parametrize("mu", CORNERS)
    def test_residual_strictly_decreases(self, problem8, mu):
        _, stats = er.truth_newton_solve(problem8, mu)
        hist = stats.residual_history
        for a, b in zip(hist[1:], hist[2:]):
            assert b < a

    def test_nonconvergence_raises_with_history(self, problem8):
        cfg = er.NewtonConfig(max_iter=1)
        with pytest.raises(er.NewtonFailure) as info:
            er.truth_newton_solve(problem8, (10.0, 10.0), cfg)
        assert len(info.value.history) >= 1

    def test_counter_counts_successes_only(self, problem8):
        counter = er.SolveCounter()
        er.truth_newton_solve(problem8, (1.0, 1.0), counter=counter)
        er.truth_newton_solve(problem8, (0.1, 2.0), counter=counter)
        with pytest.raises(er.NewtonFailure):
            er.truth_newton_solve(problem8, (10.0, 10.0),
                                  er.NewtonConfig(max_iter=1), counter=counter)
        assert counter.count == 2


@pytest.fixture(scope="module")
def saturated_eims(problem8):
    """Residual interpolant trained to saturation over a tiny sample."""
    samples = list(er.SampleSet.log_grid(3, 3))
    counter = er.SolveCounter()
    truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
    coords = problem8.space.dof_coords
    term = problem8.term
    eim_g = er.eim_train(problem8.space,
                         lambda mu: term.g(truth.solve(mu), coords, mu),
                         samples, m_max=len(samples))
    return samples, truth, eim_g


def l2_distance(problem, a, b):
    d = a - b
    return float(np.sqrt(d @ (problem.mass @ d)))


def surrogate_residual(problem, eim, mu, u):
    """Interior rows of A u + M Q B^{-1} g(u_t) - F, assembled directly
    from the interpolant's fields, not through the solver's cached state."""
    t = np.asarray(eim.t, dtype=int)
    g_t = problem.term.g(u[t], problem.space.dof_coords[t], mu)
    surrogate = np.column_stack(eim.fields) @ np.linalg.solve(eim.B, g_t)
    r = problem.stiffness @ u + problem.mass @ surrogate - problem.load
    r[problem.space.boundary_dofs] = 0.0
    return r


class TestTruthNewtonEim:
    def test_matches_truth_on_training_grid(self, problem8, saturated_eims):
        # the saturated interpolant is exact on its training parameters, so
        # the surrogate solution from the zero start is the truth there
        samples, truth, eim_g = saturated_eims
        solver = er.SurrogateSolver(problem8, eim_g)
        for mu in samples:
            u, stats = er.truth_newton_solve_eim(solver, mu)
            assert l2_distance(problem8, truth.solve(mu), u.values) <= 1e-8
            assert stats.final_residual_norm <= 1e-9

    def test_matches_truth_from_zero_guess_mild_regime(self, problem8,
                                                       saturated_eims):
        samples, truth, eim_g = saturated_eims
        mu = samples[0]  # (0.01, 0.01): nearly linear
        u, stats = er.truth_newton_solve_eim(er.SurrogateSolver(problem8, eim_g),
                                             mu)
        assert l2_distance(problem8, truth.solve(mu), u.values) <= 1e-8
        assert stats.iterations <= 3

    def test_zero_start_at_the_hardest_corner(self, problem8, saturated_eims):
        samples, truth, eim_g = saturated_eims
        mu = (10.0, 10.0)
        assert mu in samples
        u, _ = er.truth_newton_solve_eim(er.SurrogateSolver(problem8, eim_g),
                                         mu, er.NewtonConfig())
        assert l2_distance(problem8, truth.solve(mu), u.values) <= 1e-8

    @pytest.mark.parametrize("mu", CORNERS + [(0.5, 2.0)])
    def test_solves_the_full_space_surrogate_problem(self, problem8,
                                                     saturated_eims, mu):
        _, _, eim_g = saturated_eims
        cfg = er.NewtonConfig()
        u, stats = er.truth_newton_solve_eim(er.SurrogateSolver(problem8, eim_g),
                                             mu, cfg)
        r0 = float(np.linalg.norm(np.delete(problem8.load,
                                            problem8.space.boundary_dofs)))
        r = surrogate_residual(problem8, eim_g, mu, u.values)
        # the solver's own residual uses another summation order
        assert np.linalg.norm(r) <= cfg.tolerance(r0) + 1e-13
        assert stats.residual_history[0] == pytest.approx(r0, rel=1e-12)
        assert np.all(u.values[problem8.space.boundary_dofs] == 0.0)

    def test_cached_solver_matches_fresh_solver_bitwise(self, problem8):
        samples = list(er.SampleSet.log_grid(4, 4))
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        coords = problem8.space.dof_coords
        term = problem8.term
        provider = lambda mu: term.g(truth.solve(mu), coords, mu)
        eim_g = er.eim_train(problem8.space, provider, samples, m_max=4)
        cached = er.SurrogateSolver(problem8, eim_g)
        mu = (2.0, 5.0)
        er.truth_newton_solve_eim(cached, mu)
        er.eim_greedy_step(eim_g, provider, samples)
        assert eim_g.M == 5
        u_cached, s_cached = er.truth_newton_solve_eim(cached, mu)
        u_fresh, s_fresh = er.truth_newton_solve_eim(
            er.SurrogateSolver(problem8, eim_g), mu)
        assert u_cached.values.tobytes() == u_fresh.values.tobytes()
        assert s_cached.residual_history == s_fresh.residual_history

    def test_single_field_interpolant_at_training_parameter(self, problem8):
        mu = (0.5, 2.0)
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        coords = problem8.space.dof_coords
        term = problem8.term
        eim_g = er.eim_initialize(problem8.space,
                                  lambda m: term.g(truth.solve(m), coords, m),
                                  [mu])
        u, _ = er.truth_newton_solve_eim(er.SurrogateSolver(problem8, eim_g), mu)
        assert l2_distance(problem8, truth.solve(mu), u.values) <= 1e-8
        assert np.all(u.values[problem8.space.boundary_dofs] == 0.0)

    def test_counter_increment_per_call(self, problem8, saturated_eims):
        samples, _, eim_g = saturated_eims
        solver = er.SurrogateSolver(problem8, eim_g)
        counter = er.SolveCounter()
        for calls, mu in enumerate(samples[:3], start=1):
            er.truth_newton_solve_eim(solver, mu, counter=counter)
            assert counter.count == calls
        with pytest.raises(er.NewtonFailure):
            er.truth_newton_solve_eim(solver, (10.0, 10.0),
                                      er.NewtonConfig(max_iter=1),
                                      counter=counter)
        assert counter.count == 3

    def test_requires_trained_bases(self, problem8):
        empty = er.EimBasis(problem8.space)
        with pytest.raises(ValueError):
            er.truth_newton_solve_eim(er.SurrogateSolver(problem8, empty),
                                      (1.0, 1.0))

    def test_output_error_tracks_interpolation_error(self, problem8):
        # sanity regression, not a theorem: the output of the interpolated
        # solve stays within a small factor of the training interpolation
        # error of the residual nonlinearity
        samples = list(er.SampleSet.log_grid(4, 4))
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        coords = problem8.space.dof_coords
        term = problem8.term
        g_of = lambda mu: term.g(truth.solve(mu), coords, mu)
        probes = [samples[5], samples[10], samples[15]]
        for m_max in (6, 10, 14):
            eim_g = er.eim_train(problem8.space, g_of, samples, m_max=m_max)
            solver = er.SurrogateSolver(problem8, eim_g)
            eps = max(eim_g.sup_error(g_of(mu)) for mu in samples)
            for mu in probes:
                u_ref = truth.solve(mu)
                u, _ = er.truth_newton_solve_eim(solver, mu)
                ds = abs(problem8.average(u.values) - problem8.average(u_ref))
                assert ds <= 10.0 * eps


class TestOutputAverage:
    def test_zero_field(self, problem8):
        assert problem8.average(np.zeros(problem8.space.ndof)) == 0.0

    def test_constant_field(self, problem8):
        assert abs(problem8.average(np.ones(problem8.space.ndof)) - 1.0) <= 1e-10

    def test_linear_regime_output_near_zero(self, problem32):
        u, _ = er.truth_newton_solve(problem32, (0.01, 0.01))
        assert abs(problem32.average(u.values)) <= 1e-3

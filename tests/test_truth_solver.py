import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_triangular

import eimrb as er
from eimrb.fem import factor_sparse, solve_factored
from eimrb.nonlinear import _newton, mu_row

from conftest import (assert_same_interpolant, assert_same_model, at_mu,
                      check_derivative, eim_train, eliminate_boundary,
                      model_with, same_bits, small_config)


CORNERS = [(0.01, 0.01), (10.0, 0.01), (0.01, 10.0), (10.0, 10.0)]


@pytest.fixture(scope="module")
def problem32():
    return er.benchmark_problem(32, 2)


class TestNonlinearTerm:
    def test_derivative_consistency(self):
        term = er.benchmark_term()
        check_derivative(term, CORNERS, np.linspace(-1, 1, 9))

    def test_inconsistent_derivative_detected(self):
        bad = er.NonlinearTerm(lambda u, xy, mu: np.asarray(u) ** 2,
                               lambda u, xy, mu: 3 * np.asarray(u))
        with pytest.raises(ValueError):
            check_derivative(bad, [(1.0, 1.0)], [0.5])


class TestTruthNewton:
    def test_linear_poisson_one_iteration(self, problem8):
        zero_term = er.NonlinearTerm(lambda u, xy, mu: np.zeros_like(u),
                                     lambda u, xy, mu: np.zeros_like(u))
        lin = er.NonlinearProblem(problem8.space, zero_term, er.benchmark_rhs)
        u, stats = er.truth_newton_solve(lin, (1.0, 1.0))
        assert stats.iterations == 1
        # matches the direct linear solve
        op, vec = eliminate_boundary(problem8.space, problem8.stiffness,
                                     lin.load)
        direct = solve_factored(factor_sparse(op), vec)
        assert np.abs(u - direct).max() <= 1e-10

    def test_mild_corner_iteration_count(self, problem32):
        _, stats = er.truth_newton_solve(problem32, (0.01, 0.01))
        assert stats.iterations <= 4

    def test_stiff_corner_iteration_count(self, problem32):
        _, stats = er.truth_newton_solve(problem32, (10.0, 10.0))
        assert stats.iterations <= 15

    def test_boundary_values_zero(self, problem8):
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        assert np.all(u[problem8.space.boundary_dofs] == 0.0)

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

    @pytest.mark.parametrize("mu", CORNERS + [(1.0, 1.0)])
    def test_matches_newton_on_the_full_eliminated_system(self, problem8, mu):
        # reference: Newton on all dofs, boundary rows and columns of the
        # assembled Jacobian replaced by identity, with the same chord rule:
        # a step first tries the last factor, and refactors unless that
        # trial cuts the residual norm to CHORD_CONTRACTION of its value
        space, term = problem8.space, problem8.term
        coords, bdofs = space.dof_coords, space.boundary_dofs
        cfg = er.NewtonConfig()

        def residual(u):
            r = (problem8.stiffness @ u
                 + problem8.mass @ at_mu(term.g, u, coords, mu)
                 - problem8.load)
            r[bdofs] = 0.0
            return r

        ref = np.zeros(space.ndof)
        r = residual(ref)
        tol = cfg.tolerance(np.linalg.norm(r))
        iterations, factor, accepted = 0, None, False
        while np.linalg.norm(r) > tol:
            assert iterations < cfg.max_iter
            if factor is not None:
                try:        # r is zero on the boundary rows already
                    trial = ref + solve_factored(factor, -r)
                    r_trial = residual(trial)
                    accepted = (np.linalg.norm(r_trial)
                                <= er.CHORD_CONTRACTION * np.linalg.norm(r))
                except er.SolverFailure:
                    accepted = False
            if not accepted:
                jac = (problem8.stiffness
                       + problem8.mass @ sp.diags(at_mu(term.dg_du, ref,
                                                        coords, mu)))
                op, rhs = eliminate_boundary(space, jac, -r)
                factor = factor_sparse(op)
                trial = ref + solve_factored(factor, rhs)
                r_trial = residual(trial)
            ref, r = trial, r_trial
            iterations += 1

        u, stats = er.truth_newton_solve(problem8, mu, cfg)
        assert stats.iterations == iterations
        assert (np.linalg.norm(u - ref)
                <= 1e-12 * np.linalg.norm(ref))

    def test_mass_pattern_mismatch_rejected(self, problem8):
        prob = er.NonlinearProblem(problem8.space, problem8.term,
                                   er.benchmark_rhs)
        prob.mass = sp.diags(prob.mass.sum(axis=1).A1, format="csr")  # lumped
        with pytest.raises(ValueError, match="sparsity pattern"):
            er.truth_newton_solve(prob, (1.0, 1.0))

    def test_operators_made_once_on_first_use(self, problem8):
        space = problem8.space
        mass = er.assemble_weighted_mass(space, np.ones(space.ndof))
        assert same_bits(problem8.stiffness.toarray(),
                         er.assemble_stiffness(space).toarray())
        assert same_bits(problem8.mass.toarray(), mass.toarray())
        assert same_bits(problem8.load, er.assemble_load(space, er.benchmark_rhs))
        u = np.sin(7.0 * space.dof_coords[:, 0]) * space.dof_coords[:, 1]
        assert problem8.average(u) == float(np.asarray(mass.sum(axis=1)).ravel() @ u)
        for name in ("stiffness", "mass", "load"):
            assert getattr(problem8, name) is getattr(problem8, name)
        # a new problem assembles nothing until asked, and an assigned
        # operator replaces the one it would make
        prob = er.NonlinearProblem(space, problem8.term, er.benchmark_rhs)
        made = {"stiffness", "mass", "load", "_mass_row_sums"} & set(vars(prob))
        assert made == set()
        lumped = sp.diags(np.asarray(problem8.mass.sum(axis=1)).ravel(),
                          format="csr")
        prob.mass = lumped
        assert prob.mass is lumped
        # the space holds no operator: each problem on it makes its own
        other = er.NonlinearProblem(space, problem8.term, er.benchmark_rhs)
        assert prob.stiffness is not other.stiffness
        for made in (prob.stiffness, other.stiffness):
            assert same_bits(made.toarray(),
                             er.assemble_stiffness(space).toarray())

    def test_references_count_successes_only(self, problem8):
        refs = er.TruthReferences(problem8)
        first = refs.get((1.0, 1.0))
        assert refs.get((1.0, 1.0)) is first       # solved twice, counted once
        refs.get((0.1, 2.0))
        assert refs.solves == 2
        refs.newton = er.NewtonConfig(max_iter=1)
        with pytest.raises(er.NewtonFailure):
            refs.get((10.0, 10.0))
        assert refs.solves == 2
        assert list(refs.cache) == [(1.0, 1.0), (0.1, 2.0)]


class TestWarmStart:
    """A truth solve may start from a guess; its stopping rule stays the
    one of the cold solve from u = 0."""

    def test_zero_guess_is_the_cold_solve_bitwise(self, problem8):
        zero = np.zeros(problem8.space.ndof)
        for mu in CORNERS + [(1.0, 1.0)]:
            u, stats = er.truth_newton_solve(problem8, mu)
            u0, stats0 = er.truth_newton_solve(problem8, mu, initial=zero)
            assert same_bits(u0, u)
            assert stats0.iterations == stats.iterations
            assert same_bits(stats0.final_residual_norm,
                             stats.final_residual_norm)
            assert same_bits(stats0.residual_history, stats.residual_history)

    def test_neighbour_guess_saves_iterations(self, problem8):
        neighbour, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        cold, cold_stats = er.truth_newton_solve(problem8, (1.0, 2.0))
        warm, warm_stats = er.truth_newton_solve(problem8, (1.0, 2.0),
                                                 initial=neighbour)
        assert warm_stats.iterations < cold_stats.iterations
        assert np.abs(warm - cold).max() <= 1e-9

    def test_guess_boundary_values_are_ignored(self, problem8):
        guess = np.ones(problem8.space.ndof)
        u, _ = er.truth_newton_solve(problem8, (1.0, 1.0), initial=guess)
        assert np.all(u[problem8.space.boundary_dofs] == 0.0)
        assert np.all(guess == 1.0)              # the guess is copied

    def test_tolerance_comes_from_the_residual_at_zero(self, problem8):
        # with rel_tol = 1e-3 a warm solve stops at the first residual below
        # 1e-3 ||F_I||, the residual at u = 0 (g(0) = 0); relative to its
        # own, smaller, initial residual it would have to iterate further
        cfg = er.NewtonConfig(rel_tol=1e-3)
        neighbour, _ = er.truth_newton_solve(problem8, (1.0, 1.0))
        _, stats = er.truth_newton_solve(problem8, (1.0, 2.0), cfg,
                                         initial=neighbour)
        hist = stats.residual_history
        tol = 1e-3 * np.linalg.norm(problem8.load[problem8.space.interior_dofs])
        assert hist[-1] <= tol
        assert all(h > tol for h in hist[:-1])
        assert hist[-1] > 1e-3 * hist[0]


class TestChord:
    """A truth step first tries the last Jacobian factor, and refactors only
    when that trial does not cut the residual norm to CHORD_CONTRACTION of
    its value; a Chord slot carries the factor from one solve to the next."""

    @pytest.fixture
    def factors(self, monkeypatch):
        """The Jacobians factored by the truth solves, in order."""
        made = []
        factor = er.nonlinear.factor_sparse

        def counted(op):
            made.append(op)
            return factor(op)

        monkeypatch.setattr("eimrb.nonlinear.factor_sparse", counted)
        return made

    def test_bare_solve_factors_once(self, problem8, factors):
        _, stats = er.truth_newton_solve(problem8, (1.0, 1.0))
        assert len(factors) == 1
        assert stats.iterations > 1

    def test_rejected_trial_leaves_the_fresh_solve_bitwise(self, problem8,
                                                          factors,
                                                          monkeypatch):
        chord = er.Chord()
        er.truth_newton_solve(problem8, (0.01, 0.01), chord=chord)
        carried, before = chord.factor, len(factors)
        used = []
        solve = er.nonlinear.solve_factored

        def recorded(factor, rhs):
            used.append(factor)
            return solve(factor, rhs)

        monkeypatch.setattr("eimrb.nonlinear.solve_factored", recorded)
        u, stats = er.truth_newton_solve(problem8, (10.0, 10.0), chord=chord)
        assert used[0] is carried and used[1] is not carried  # tried, refused
        made = len(factors) - before
        fresh = er.Chord()
        u0, stats0 = er.truth_newton_solve(problem8, (10.0, 10.0), chord=fresh)
        assert same_bits(u, u0)
        assert stats.iterations == stats0.iterations
        assert same_bits(stats.final_residual_norm, stats0.final_residual_norm)
        assert same_bits(stats.residual_history, stats0.residual_history)
        assert made == fresh.factorizations == chord.factorizations - 1

    @pytest.mark.parametrize("mu", CORNERS + [(1.0, 1.0)])
    def test_each_iteration_factors_or_contracts(self, problem8, monkeypatch,
                                                 mu):
        # log "r" at every residual (every evaluation of g) and "F" at every
        # factorisation; a step is then "r" (chord step kept), "rFr" (trial
        # refused) or "Fr" (no factor held yet)
        log = []
        term, factor = problem8.term, er.nonlinear.factor_sparse

        def g(u, xy, mus):
            log.append("r")
            return term.g(u, xy, mus)

        def counted(op):
            log.append("F")
            return factor(op)

        monkeypatch.setattr("eimrb.nonlinear.factor_sparse", counted)
        problem = er.NonlinearProblem(problem8.space,
                                      er.NonlinearTerm(g, term.dg_du),
                                      er.benchmark_rhs)
        _, stats = er.truth_newton_solve(problem, mu)
        log = "".join(log)
        steps = re.findall("r?Fr|r", log[1:])
        assert log[0] == "r" and "".join(steps) == log[1:]
        assert len(steps) == stats.iterations
        hist = stats.residual_history
        for k, step in enumerate(steps):
            assert "F" in step or hist[k + 1] <= hist[k] / 10

    def test_references_factor_less_than_once_per_solve(self, problem8,
                                                        factors):
        # on a 5x5 grid the solves at mu2 = 10 take 3-4 factorisations
        # each, and the other solves just make up for it (25 for 25 solves)
        train = er.SampleSet.log_grid(10, 10)
        refs = er.TruthReferences(problem8)
        for mu in train:
            refs.get(mu)
        assert len(factors) == refs.chord.factorizations < refs.solves
        for mu in train:
            cold, _ = er.truth_newton_solve(problem8, mu)
            assert np.abs(refs.get(mu)[0] - cold).max() <= 1e-9


class TestTruthReferences:
    """A cache miss starts from the caller's guess, else from the nearest
    cached solution in log-parameter distance, else from u = 0."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """The initial guess of every truth solve TruthReferences makes."""
        seen = []
        solve = er.truth_newton_solve

        def recorded(problem, mu, cfg=None, initial=None, chord=None):
            seen.append((mu, initial))
            return solve(problem, mu, cfg, initial, chord)

        monkeypatch.setattr("eimrb.benchmark.truth_newton_solve", recorded)
        return seen

    def test_nearest_in_log_distance(self, problem8, starts):
        refs = er.TruthReferences(problem8)
        assert refs.nearest((1.0, 1.0)) is None
        refs.get((0.01, 1.0))
        refs.get((1.0, 1.0))
        assert starts[0][1] is None              # empty cache: from u = 0
        assert starts[1][1] is refs.cache[(0.01, 1.0)][0]
        # 0.2 is nearer 0.01 than 1 on the line, but nearer 1 in log distance
        refs.get((0.2, 1.0))
        assert starts[2][1] is refs.cache[(1.0, 1.0)][0]

    def test_first_cached_wins_a_tie(self, problem8):
        for order in ([(2.0, 1.0), (1.0, 2.0)], [(1.0, 2.0), (2.0, 1.0)]):
            refs = er.TruthReferences(problem8)
            for mu in order:
                refs.get(mu)
            assert refs.nearest((1.0, 1.0)) is refs.cache[order[0]][0]

    def test_guess_used_on_a_miss_only(self, problem8, starts):
        refs = er.TruthReferences(problem8)
        refs.get((1.0, 1.0))
        guess_values = refs.cache[(1.0, 1.0)][0] * 0.5
        calls = []

        def guess(mu):
            calls.append(mu)
            return guess_values

        first = refs.get((1.0, 2.0), guess)
        assert calls == [(1.0, 2.0)] and starts[-1][1] is guess_values
        assert refs.get((1.0, 2.0), guess) is first
        assert refs.get((1.0, 1.0), guess) is refs.cache[(1.0, 1.0)]
        assert calls == [(1.0, 2.0)] and len(starts) == 2
        assert refs.solves == 2

    def test_no_guess_falls_back_to_the_nearest(self, problem8, starts):
        refs = er.TruthReferences(problem8)
        refs.get((1.0, 1.0))
        refs.get((1.0, 2.0), lambda mu: None)
        assert starts[-1][1] is refs.cache[(1.0, 1.0)][0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-10])
@pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
def test_newton_tolerance_must_be_positive_and_finite(key, value):
    with pytest.raises(ValueError, match="positive and finite"):
        er.NewtonConfig(**{key: value})


def test_tolerance_of_an_array_is_the_tolerance_of_each_norm():
    # a block's tolerances in one call equal the single-norm rule
    # max(abs_tol, rel_tol * r0) bit for bit, on finite, infinite and nan
    # norms alike
    cfg = er.NewtonConfig(abs_tol=1e-10, rel_tol=1e-8)
    norms = np.array([0.0, 1e-300, 1e-3, 1e-2, 0.5, 3.7e5, 1.7e308,
                      np.inf, np.nan])
    block = cfg.tolerance(norms)
    assert block.shape == norms.shape
    expected = [max(cfg.abs_tol, cfg.rel_tol * float(r)) for r in norms]
    assert block.tobytes() == np.array(expected).tobytes()
    for r, tol in zip(norms, expected):
        assert np.float64(cfg.tolerance(float(r))).tobytes() == \
            np.float64(tol).tobytes()


class TestNewtonDriver:
    """The truth, surrogate and reduced solves share one Newton driver:
    each failure kind raises the same class and message, prefixed by the
    solver's name, after the same number of residuals in all three."""

    MU = er.SampleSet.log_grid(5, 5)[7]     # numpy floats, shown as floats
    MU_TEXT = f"({float(MU[0])!r}, {float(MU[1])!r})"

    @pytest.fixture(scope="class")
    def one_field(self, standard_small, train5):
        """The one-field interpolant the standard build starts from."""
        problem = standard_small.model.problem
        eim = er.eim_initialize(problem.space,
                                er.truth_g_block(er.TruthReferences(problem)),
                                [tuple(p) for p in train5])
        assert_same_interpolant(eim, standard_small.eim_g, m=1)
        return eim

    @staticmethod
    def singular_slope(kind, model, eim):
        """Slope of a linear term that makes the solver's first Jacobian
        exactly singular: 0 for the reduced solve with A = 0, whose
        Jacobian is W diag(g') Tr^T, and -1/k for the one-field surrogate
        of eim, whose Jacobian is 1 + k g'."""
        if kind == "reduced":
            return 0.0
        surrogate = surrogate_of(model.problem, eim)
        surrogate.update()
        k = surrogate.solved_q[eim.t[0], 0] / eim.B[0, 0]
        slope = -1.0 / k
        assert eim.B[0, 0] == 1.0 and 1.0 + k * slope == 0.0
        return slope

    @pytest.mark.parametrize("kind, failure", [
        ("truth", "start"), ("truth", "stall"), ("truth", "diverge"),
        ("surrogate", "start"), ("surrogate", "stall"),
        ("surrogate", "diverge"), ("surrogate", "singular"),
        ("reduced", "start"), ("reduced", "stall"), ("reduced", "diverge"),
        ("reduced", "singular"),
    ])
    def test_failures(self, standard_small, one_field, kind, failure):
        model = standard_small.model
        term = model.problem.term
        cfg = er.NewtonConfig(max_iter=1 if failure == "stall" else 50)
        if failure == "start":
            term = er.NonlinearTerm(lambda u, xy, mus: np.full_like(u, np.nan),
                                    term.dg_du)
        elif failure == "diverge":
            # g' is all but zero, so the first step lands near A^{-1} F,
            # where g overflows: the next residual is not finite
            term = er.NonlinearTerm(lambda u, xy, mus: np.expm1(1e3 * u),
                                    lambda u, xy, mus: np.full_like(u, 1e-300))
        elif failure == "singular":
            slope = self.singular_slope(kind, model, one_field)
            term = er.NonlinearTerm(lambda u, xy, mus: np.array(u) * slope,
                                    lambda u, xy, mus: np.full_like(u, slope))
        problem = er.NonlinearProblem(model.problem.space, term,
                                      er.benchmark_rhs)
        if kind == "truth":
            what, solve = "", lambda: er.truth_newton_solve(problem, self.MU, cfg)
        elif kind == "surrogate":
            surrogate = surrogate_of(problem, one_field)
            what = "surrogate "
            solve = lambda: er.truth_newton_solve_eim(surrogate, self.MU, cfg)
        else:
            if failure == "singular":
                model = model_with(model, A=np.zeros_like(model.A))
            model = model_with(model, problem=problem)
            # from zero, as the truth and surrogate solves here: MU is a
            # training parameter, where the default start is the solution
            zero = np.zeros(model.N)
            what = "reduced "
            solve = lambda: model.solve(self.MU, cfg, initial=zero)

        error = er.SolverFailure if failure == "singular" else er.NewtonFailure
        with pytest.raises(error) as info, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve()
        exc = info.value
        assert type(exc) is error
        if failure == "start":
            assert str(exc) == (f"{what}residual not finite at the initial "
                                f"guess, mu={self.MU_TEXT}")
            assert len(exc.history) == 1 and np.isnan(exc.history[0])
        elif failure == "stall":
            assert str(exc) == (f"{what}solve stalled after 1 iterations at "
                                f"mu={self.MU_TEXT}")
            assert len(exc.history) == 2 and np.all(np.isfinite(exc.history))
        elif failure == "diverge":
            assert str(exc) == f"{what}residual diverged at mu={self.MU_TEXT}"
            assert len(exc.history) == 2 and math.isfinite(exc.history[0])
            assert not math.isfinite(exc.history[1])
        else:
            assert str(exc).startswith(f"singular {what}Jacobian at "
                                       f"mu={self.MU_TEXT}: ")
            assert isinstance(exc.__cause__, np.linalg.LinAlgError)


@pytest.fixture(scope="module")
def saturated_eims(problem8):
    """Residual interpolant trained to saturation over a tiny sample."""
    samples = list(er.SampleSet.log_grid(3, 3))
    truth = er.TruthReferences(problem8)
    eim_g = eim_train(problem8.space, er.truth_g_block(truth), samples,
                      m_max=len(samples))
    return samples, truth, eim_g


def surrogate_of(problem, eim):
    """A surrogate solver of eim with a mass-product owner of its own."""
    return er.SurrogateSolver(er.MassFields(problem, eim))


def l2_distance(problem, a, b):
    d = a - b
    return float(np.sqrt(d @ (problem.mass @ d)))


def surrogate_residual(problem, eim, mu, u):
    """Interior rows of A u + M Q B^{-1} g(u_t) - F, assembled directly
    from the interpolant's fields, not through the solver's cached state."""
    t = np.asarray(eim.t, dtype=int)
    g_t = at_mu(problem.term.g, u[t], problem.space.dof_coords[t], mu)
    surrogate = np.column_stack(eim.fields) @ np.linalg.solve(eim.B, g_t)
    r = problem.stiffness @ u + problem.mass @ surrogate - problem.load
    r[problem.space.boundary_dofs] = 0.0
    return r


def full_space_solve_eim(surrogate, mu, cfg=None):
    """truth_newton_solve_eim with the full-space stopping rule: the same
    Newton on v + K g(v) = a from v = 0, with every iterate lifted to the
    mesh and its residual norm taken by surrogate_residual.  The norm at
    u = 0 is the solver's own expression on an M Q made here from the
    mass and the fields, not read from the solver's mass products, so
    both stop at the same tolerance when those products are right."""
    cfg = cfg or er.NewtonConfig()
    eim = surrogate.eim_g
    surrogate.update()
    problem = surrogate.problem
    term = problem.term
    bdofs = problem.space.boundary_dofs
    t = np.asarray(eim.t, dtype=int)
    xt = problem.space.dof_coords[t]
    mus = mu_row(mu)
    mass_q = np.column_stack([problem.mass @ q for q in eim.fields])
    k_mat = solve_triangular(eim.B, surrogate.solved_q[t].T, lower=True,
                             trans="T").T
    a = surrogate.linear[t]
    v = np.zeros(eim.M)
    u = np.zeros(problem.space.ndof)

    def residual():
        r = (mass_q @ eim.coeffs(term.g(v[None], xt, mus)[0])
             - problem.load)
        r[bdofs] = 0.0
        return float(np.linalg.norm(r))

    def step():
        nonlocal v, u
        f = v + k_mat @ term.g(v[None], xt, mus)[0] - a
        jac = np.eye(eim.M) + k_mat * term.dg_du(v[None], xt, mus)
        v = v - np.linalg.solve(jac, f)
        u = surrogate.linear - surrogate.solved_q @ eim.coeffs(
            term.g(v[None], xt, mus)[0])
        u[bdofs] = 0.0
        return float(np.linalg.norm(surrogate_residual(problem, eim, mu, u)))

    stats = _newton("surrogate ", mu, cfg, residual, step)
    return u, stats


def _raise(*args, **kwargs):
    raise AssertionError("a mesh-sized operator was used")


class Blinded:
    """Stands in for an operator and raises on any use."""
    __getattr__ = __getitem__ = __len__ = __array__ = _raise
    __matmul__ = __rmatmul__ = __mul__ = __rmul__ = _raise


@pytest.fixture(scope="module")
def four_field_eim(problem8):
    samples = list(er.SampleSet.log_grid(4, 4))
    return eim_train(problem8.space, er.truth_g_block(er.TruthReferences(problem8)),
                     samples, m_max=4)


# the corners, an interior point and parameters off every training grid
STOPPING_MUS = CORNERS + [(0.5, 2.0), (0.05, 7.0), (3.0, 0.2), (1.0, 1.0),
                          (7.5, 0.9)]


class TestTruthNewtonEim:
    def test_matches_truth_on_training_grid(self, problem8, saturated_eims):
        # the saturated interpolant is exact on its training parameters, so
        # the surrogate solution from the zero start is the truth there
        samples, truth, eim_g = saturated_eims
        solver = surrogate_of(problem8, eim_g)
        for mu in samples:
            u, stats = er.truth_newton_solve_eim(solver, mu)
            assert l2_distance(problem8, truth.get(mu)[0], u) <= 1e-8
            assert stats.final_residual_norm <= 1e-9

    def test_matches_truth_from_zero_guess_mild_regime(self, problem8,
                                                       saturated_eims):
        samples, truth, eim_g = saturated_eims
        mu = samples[0]  # (0.01, 0.01): nearly linear
        u, stats = er.truth_newton_solve_eim(surrogate_of(problem8, eim_g), mu)
        assert l2_distance(problem8, truth.get(mu)[0], u) <= 1e-8
        assert stats.iterations <= 3

    def test_zero_start_at_the_hardest_corner(self, problem8, saturated_eims):
        samples, truth, eim_g = saturated_eims
        mu = (10.0, 10.0)
        assert mu in samples
        u, _ = er.truth_newton_solve_eim(surrogate_of(problem8, eim_g),
                                         mu, er.NewtonConfig())
        assert l2_distance(problem8, truth.get(mu)[0], u) <= 1e-8

    @pytest.mark.parametrize("mu", CORNERS + [(0.5, 2.0)])
    def test_solves_the_full_space_surrogate_problem(self, problem8,
                                                     saturated_eims, mu):
        _, _, eim_g = saturated_eims
        cfg = er.NewtonConfig()
        u, stats = er.truth_newton_solve_eim(surrogate_of(problem8, eim_g),
                                             mu, cfg)
        r0 = float(np.linalg.norm(np.delete(problem8.load,
                                            problem8.space.boundary_dofs)))
        r = surrogate_residual(problem8, eim_g, mu, u)
        # the solver's own residual uses another summation order
        assert np.linalg.norm(r) <= cfg.tolerance(r0) + 1e-13
        assert stats.residual_history[0] == pytest.approx(r0, rel=1e-12)
        assert np.all(u[problem8.space.boundary_dofs] == 0.0)

    def test_cached_solver_matches_fresh_solver_bitwise(self, problem8):
        samples = list(er.SampleSet.log_grid(4, 4))
        truth = er.TruthReferences(problem8)
        eim_g = eim_train(problem8.space, er.truth_g_block(truth), samples, m_max=4)
        cached = surrogate_of(problem8, eim_g)
        mu = (2.0, 5.0)
        er.truth_newton_solve_eim(cached, mu)
        er.eim_greedy_step(eim_g, er.truth_g_block(truth), samples)
        assert eim_g.M == 5
        u_cached, s_cached = er.truth_newton_solve_eim(cached, mu)
        u_fresh, s_fresh = er.truth_newton_solve_eim(
            surrogate_of(problem8, eim_g), mu)
        assert u_cached.tobytes() == u_fresh.tobytes()
        assert s_cached.residual_history == s_fresh.residual_history

    @pytest.mark.parametrize("mu", CORNERS + [(0.5, 2.0)])
    def test_loop_touches_no_mesh_operator(self, problem8, saturated_eims, mu):
        # after update() the solve reads no stiffness or mass: the loop
        # stays in the point values and the lift uses the cached columns
        _, _, eim_g = saturated_eims
        u_ref, stats_ref = er.truth_newton_solve_eim(
            surrogate_of(problem8, eim_g), mu)
        problem = er.NonlinearProblem(problem8.space, problem8.term,
                                      er.benchmark_rhs)
        solver = surrogate_of(problem, eim_g)
        solver.update()
        problem.stiffness = Blinded()
        problem.mass = Blinded()
        u, stats = er.truth_newton_solve_eim(solver, mu)
        assert u.tobytes() == u_ref.tobytes()
        assert stats.residual_history == stats_ref.residual_history

    @pytest.mark.parametrize("which", ["saturated", "four fields"])
    def test_stops_where_the_full_space_rule_stops(self, problem8,
                                                   saturated_eims,
                                                   four_field_eim, which):
        eim_g = saturated_eims[2] if which == "saturated" else four_field_eim
        assert eim_g.M == (9 if which == "saturated" else 4)
        solver = surrogate_of(problem8, eim_g)
        for mu in STOPPING_MUS:
            u, stats = er.truth_newton_solve_eim(solver, mu)
            u_ref, stats_ref = full_space_solve_eim(solver, mu)
            assert stats.iterations == stats_ref.iterations, mu
            assert u.tobytes() == u_ref.tobytes(), mu
            history, reference = stats.residual_history, stats_ref.residual_history
            assert history[0] == reference[0]
            # both norms agree to 1e-8 above the rounding floor of the
            # full-space residual, about 1e-14 r0
            floor = 1e-12 * reference[0]
            for h, h_ref in zip(history, reference):
                assert abs(h - h_ref) <= 1e-8 * h_ref + floor, (mu, h, h_ref)

    @pytest.mark.parametrize("name", ["ser_small", "rebuild_small"])
    def test_build_with_full_space_rule_is_bitwise_equal(
            self, request, monkeypatch, problem8, train5, newton_roomy, name):
        built = request.getfixturevalue(name)
        monkeypatch.setattr("eimrb.ser.truth_newton_solve_eim",
                            full_space_solve_eim)
        cfg = small_config(name, train5, newton_roomy)
        reference = er.build_ser(problem8, cfg)
        assert_same_model(reference.model, built.model)
        assert sorted(reference.checkpoints) == sorted(built.checkpoints)
        for stage in cfg.checkpoints:
            assert_same_model(reference.checkpoint(*stage),
                              built.checkpoint(*stage))
        assert reference.report.summary_dict() == built.report.summary_dict()

    def test_single_field_interpolant_at_training_parameter(self, problem8):
        mu = (0.5, 2.0)
        truth = er.TruthReferences(problem8)
        eim_g = er.eim_initialize(problem8.space, er.truth_g_block(truth), [mu])
        u, _ = er.truth_newton_solve_eim(surrogate_of(problem8, eim_g), mu)
        assert l2_distance(problem8, truth.get(mu)[0], u) <= 1e-8
        assert np.all(u[problem8.space.boundary_dofs] == 0.0)

    def test_requires_trained_bases(self, problem8):
        empty = er.EimBasis(problem8.space)
        with pytest.raises(ValueError):
            er.truth_newton_solve_eim(surrogate_of(problem8, empty),
                                      (1.0, 1.0))

    def test_output_error_tracks_interpolation_error(self, problem8):
        # sanity regression, not a theorem: the output of the interpolated
        # solve stays within a small factor of the training interpolation
        # error of the residual nonlinearity
        samples = list(er.SampleSet.log_grid(4, 4))
        truth = er.TruthReferences(problem8)
        coords = problem8.space.dof_coords
        term = problem8.term
        g_of = lambda mu: at_mu(term.g, truth.get(mu)[0], coords, mu)
        probes = [samples[5], samples[10], samples[15]]
        for m_max in (6, 10, 14):
            eim_g = eim_train(problem8.space, er.truth_g_block(truth), samples,
                              m_max=m_max)
            solver = surrogate_of(problem8, eim_g)
            eps = max(eim_g.sup_error(g_of(mu)) for mu in samples)
            for mu in probes:
                u_ref = truth.get(mu)[0]
                u, _ = er.truth_newton_solve_eim(solver, mu)
                ds = abs(problem8.average(u) - problem8.average(u_ref))
                assert ds <= 10.0 * eps


class TestOutputAverage:
    def test_zero_field(self, problem8):
        assert problem8.average(np.zeros(problem8.space.ndof)) == 0.0

    def test_constant_field(self, problem8):
        assert abs(problem8.average(np.ones(problem8.space.ndof)) - 1.0) <= 1e-10

    def test_linear_regime_output_near_zero(self, problem32):
        u, _ = er.truth_newton_solve(problem32, (0.01, 0.01))
        assert abs(problem32.average(u)) <= 1e-3

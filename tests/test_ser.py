import dataclasses
import inspect
import warnings
from collections import Counter

import numpy as np
import pytest

import eimrb as er
import eimrb.screen
import eimrb.ser

from conftest import (assert_same_interpolant, assert_same_model,
                      assert_same_table, eim_train, model_with,
                      no_error_bound, same_bits, small_config)


def expected_solids(r, rebuild, n_max, m_max, n_train):
    """Accounting oracle derived from the update schedule.

    r = 1 costs one initialization solve; r > 1 bootstraps the first group
    from truth solves over the whole training set (m_max > 1).  Every basis
    update costs one solve per new snapshot, or one per kept snapshot when
    the basis is rebuilt.
    """
    bootstrap = 1 if (r == 1 or m_max == 1) else n_train
    updates = -(-m_max // r)
    n_after = [max(1, (j * n_max) // updates) for j in range(1, updates + 1)]
    n_after[-1] = n_max
    if rebuild:
        return bootstrap + sum(n_after)
    return bootstrap + n_max


class CountingMass:
    """Stands in for a mass matrix and keeps every vector it multiplies.

    It keeps the vectors themselves, not their ids: a freed array's id is
    reused, so counting ids would count unrelated vectors as one."""

    def __init__(self, mass):
        self.mass = mass
        self.operands = []

    def __matmul__(self, x):
        self.operands.append(x)
        return self.mass @ x

    def __getattr__(self, name):
        return getattr(self.mass, name)


class TestSolveCounts:
    def test_ser_r1_is_n_plus_one(self, ser_small):
        assert ser_small.report.fe_solve_count == 6

    def test_standard_costs_one_solve_per_training_point(self, standard_small,
                                                         train5):
        assert standard_small.report.fe_solve_count == len(train5)

    @pytest.mark.parametrize("r", [1, 2, 5])
    @pytest.mark.parametrize("n_max", [3, 5])
    @pytest.mark.parametrize("rebuild", [False, True])
    def test_accounting_schedule(self, problem8, r, n_max, rebuild,
                                 newton_roomy):
        train = er.SampleSet.log_grid(3, 3)
        cfg = er.SerConfig(r=r, rebuild_wn=rebuild, n_max=n_max, m_max=n_max,
                           train_set=train, newton=newton_roomy)
        result = er.build_ser(problem8, cfg)
        assert result.report.fe_solve_count == expected_solids(
            r, rebuild, n_max, n_max, len(train))
        assert result.model.N == n_max
        kinds = [s.kind for s in result.report.steps]
        assert kinds.count("eim") == n_max  # m_max enrichments incl. the init
        assert kinds.count("rb") == n_max
        assert kinds.count("rebuild") == (-(-n_max // r) if rebuild else 0)

    @pytest.mark.parametrize("name", ["ser_small", "rebuild_small",
                                      "standard_small"])
    def test_each_field_meets_the_mass_once(self, request, train5,
                                            newton_roomy, name):
        # the build's MassFields makes M q_m once per field, for the
        # surrogate and for every reduced space of a rebuild alike
        problem = er.benchmark_problem(8, 2)
        for made_first in ("stiffness", "x_op", "load", "interior_block",
                           "_mass_row_sums"):
            getattr(problem, made_first)
        problem.mass = CountingMass(problem.mass)
        if name == "standard_small":
            cfg = er.SerConfig(r="standard", n_max=6, m_max=8,
                               train_set=train5, checkpoints=((3, 4), (6, 8)))
        else:
            cfg = small_config(name, train5, newton_roomy)
        result = er.build_ser(problem, cfg)
        fields = result.eim_g.fields
        # a field is a row of the interpolant's array, and each read of a
        # row is a new view, so each operand is matched to a field by its
        # bits: exactly one product per field, and M products of fields
        # in all
        meets = np.array([[same_bits(op, q) for q in fields]
                          for op in problem.mass.operands])
        assert meets.sum(axis=0).tolist() == [1] * len(fields)
        assert meets.any(axis=1).sum() == len(fields)
        assert len(fields) == cfg.m_max
        # the stand-in changes no bit of the build
        assert_same_model(result.model, request.getfixturevalue(name).model)

    def test_zero_before_any_build(self):
        report = er.BuildReport(variant="none")
        assert report.fe_solve_count == 0


class TestSchedules:
    def test_alternation_log(self, ser_small):
        kinds = [s.kind for s in ser_small.report.steps]
        assert kinds.count("eim") == 5
        assert kinds.count("rb") == 5
        # strict alternation for r=1 with N = M
        assert kinds[:4] == ["eim", "rb", "eim", "rb"]

    def test_grouped_bootstrap_matches_standard_rows(self, problem8, train5,
                                                     newton_roomy,
                                                     standard_small):
        cfg = er.SerConfig(r=5, n_max=4, m_max=5, train_set=train5,
                           newton=newton_roomy)
        result = er.build_ser(problem8, cfg)
        # the first group is trained from truth fields, so the first five
        # interpolant fields coincide with the sequential build's
        assert result.eim_g.M == 5
        assert_same_interpolant(result.eim_g, standard_small.eim_g, m=5)
        assert result.report.fe_solve_count == len(train5) + 4

    def test_degenerate_frequency_equals_standard_eim_bitwise(self, problem8,
                                                              train5,
                                                              newton_roomy):
        cfg_std = er.SerConfig(r="standard", n_max=5, m_max=6,
                               train_set=train5, newton=newton_roomy)
        std = er.build_ser(problem8, cfg_std)
        cfg_deg = er.SerConfig(r=6, n_max=5, m_max=6, train_set=train5,
                               newton=newton_roomy)
        deg = er.build_ser(problem8, cfg_deg)
        assert_same_interpolant(std.eim_g, deg.eim_g)
        # both take their snapshots at the greedy selections
        assert std.model.snapshot_mus == deg.model.snapshot_mus

    def test_standard_eim_equals_direct_training_bitwise(self, problem8,
                                                         train5,
                                                         standard_small):
        truth = er.TruthReferences(problem8)
        direct = eim_train(problem8.space, er.truth_g_block(truth),
                           [tuple(p) for p in train5], m_max=8)
        assert_same_interpolant(direct, standard_small.eim_g)

    def test_nested_growth_no_rebuild(self, problem8, train5, newton_roomy,
                                      ser_small):
        # without rebuilding, a build stopped at a stage is the longer
        # build's final model restricted to it, bitwise in every array: so
        # no stage needs storing.  Only the start tables differ: the short
        # build's holds its own solutions, made by the table function from
        # those arrays, the restriction the longer model's sliced to N = 3;
        # given the short build's table, it answers bit for bit as it does
        cfg = er.SerConfig(r=1, n_max=3, m_max=3, train_set=train5,
                           newton=newton_roomy)
        short = er.build_ser(problem8, cfg)
        for stage in (ser_small.model.restrict(3, 3),
                      ser_small.checkpoint(3, 3)):
            assert_same_table(short.model.table,
                              er.rb.start_table(stage, train5.points))
            assert_same_model(short.model,
                              model_with(stage, table=short.model.table))
        # and its interpolant is the longer build's, cut to its size
        assert short.eim_g.M == 3
        assert_same_interpolant(short.eim_g, ser_small.eim_g, m=3)

    @pytest.mark.parametrize("build", ["standard_small", "ser_small",
                                       "rebuild_small"])
    def test_final_model_holds_the_interpolants_points_and_matrix(self, build,
                                                                 request):
        result = request.getfixturevalue(build)
        model, eim_g = result.model, result.eim_g
        assert model.t.dtype == np.int64
        assert model.t.tolist() == eim_g.t
        assert same_bits(model.B, eim_g.B)
        assert not np.shares_memory(model.B, eim_g.B)

    def test_builds_without_rebuild_store_no_checkpoints(self, ser_small,
                                                         standard_small):
        assert ser_small.checkpoints == {}
        assert standard_small.checkpoints == {}

    def test_rebuild_checkpoints_are_recorded(self, rebuild_small, train5):
        result = rebuild_small
        # only the stage that the last update rebuilds is stored; the final
        # stage is the final model
        assert set(result.checkpoints) == {(2, 2)}
        cp = result.checkpoints[(2, 2)]
        assert cp.N == 2 and cp.M == 2
        # with rebuilding the early basis is not a prefix of the final one
        assert not np.array_equal(cp.basis, result.model.basis[:, :2])
        assert_same_model(result.checkpoint(4, 4), result.model)
        assert result.report.fe_solve_count == expected_solids(
            1, True, 4, 4, len(train5))

    def test_rb_snapshots_follow_greedy_selections(self, ser_small):
        # each update snapshots at the parameter the sweep just selected;
        # a re-selected (already used) parameter falls back to another one
        g_mus = ser_small.eim_g.mus
        rb_mus = ser_small.model.snapshot_mus
        assert len(rb_mus) == len(set(rb_mus)) == 5
        for k, sel in enumerate(g_mus[:5]):
            if sel not in g_mus[:k]:
                assert rb_mus[k] == sel


class TestSnapshotSources:
    def test_truth_exact_source_reuses_cached_solves(self, problem8, train5,
                                                     monkeypatch):
        # the standard build snapshots its cached truth solves: no snapshot
        # is solved with the surrogate, so it factors no stiffness for one
        def no_surrogate(*args):
            raise AssertionError("SurrogateSolver made by a standard build")

        monkeypatch.setattr("eimrb.ser.SurrogateSolver", no_surrogate)
        cfg = er.SerConfig(r="standard", n_max=4, m_max=4, train_set=train5)
        result = er.build_ser(problem8, cfg)
        assert result.model.N == 4
        assert result.report.fe_solve_count == len(train5)

    def test_standard_with_rebuild_rejected(self, train5):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r="standard", rebuild_wn=True, n_max=2, m_max=2,
                         train_set=train5)

    def test_bad_frequency_rejected(self, train5):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r=0, n_max=2, m_max=2, train_set=train5)

    @pytest.mark.parametrize("sizes", [
        {"r": True, "n_max": 2, "m_max": 2},
        {"r": 1.0, "n_max": 2, "m_max": 2},
        {"r": 1, "n_max": 2.5, "m_max": 2},
        {"r": 1, "n_max": 2, "m_max": 2.5},
        {"r": 1, "n_max": True, "m_max": 2},
        {"r": "standard", "n_max": 2, "m_max": 2.0},
    ])
    def test_sizes_that_are_not_ints_rejected(self, train5, sizes):
        # a bool r would build as "r=True", a float n_max would build
        # N = ceil(n_max) snapshots and a float m_max would fail in range()
        with pytest.raises(er.SerBuildError):
            er.SerConfig(train_set=train5, **sizes)

    def test_empty_training_set_rejected(self):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r=1, n_max=2, m_max=2, train_set=[])

    def test_n_max_above_the_distinct_training_parameters_rejected(self):
        # a snapshot is taken at each training parameter at most once, so
        # a repeated one adds no room
        train = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)]
        with pytest.raises(er.SerBuildError, match="n_max = 3 exceeds the 2"):
            er.SerConfig(r=1, n_max=3, m_max=2, train_set=train)
        assert er.SerConfig(r=1, n_max=2, m_max=2, train_set=train).n_max == 2

    @pytest.mark.parametrize("bad", [(1.0, 0.0), (-0.5, 1.0), (1.0, np.inf),
                                     (np.nan, 1.0), (0.5,), (0.5, 0.5, 0.5)])
    def test_training_parameter_not_positive_and_finite_rejected(self, train5,
                                                                 bad):
        # a failed sweep row is restarted from its nearest neighbour in
        # log mu, so every training parameter needs a finite logarithm;
        # one of the wrong length would fail the first truth solve
        message = ("not positive and finite" if len(bad) == 2
                   else f"has {len(bad)} entries, expected 2")
        with pytest.raises(er.SerBuildError, match=message):
            er.SerConfig(r=1, n_max=2, m_max=2,
                         train_set=list(train5) + [bad])

    @pytest.mark.parametrize("checkpoints", [
        (3, 4), ((3,),), ((3, 4, 5),), ((3, 4.0),), ((0, 2),), ((True, 2),),
        ("34",)],
        ids=["flat-pair", "one-entry", "three-entries", "float", "zero",
             "bool", "string"])
    def test_checkpoints_that_are_not_pairs_of_ints_rejected(self, train5,
                                                             checkpoints):
        # a flat pair would reach the first rebuild and fail there, and a
        # stage of the wrong length would never be stored
        with pytest.raises(er.SerBuildError, match="pairs of ints >= 1"):
            er.SerConfig(r=1, rebuild_wn=True, n_max=8, m_max=8,
                         train_set=train5, checkpoints=checkpoints)

    def test_checkpoints_are_held_as_tuples(self, train5):
        cfg = er.SerConfig(r=1, n_max=4, m_max=4, train_set=train5,
                           checkpoints=[[2, 2], (4, 4)])
        assert cfg.checkpoints == ((2, 2), (4, 4))


class TestFailureHandling:
    def test_sweep_failures_are_recorded_and_skipped(self, problem8, train5,
                                                     newton_roomy):
        term = problem8.term
        poisoned = tuple(train5[7])

        def poisoned_g(u, mus):
            res = term.g(u, mus)
            res[np.all(mus == poisoned, axis=1)] = np.nan
            return res

        bad_problem = er.NonlinearProblem(
            problem8.space, er.NonlinearTerm(poisoned_g, term.dg_du,
                                             no_error_bound),
            er.benchmark_rhs)
        cfg = er.SerConfig(r=1, n_max=3, m_max=3, train_set=train5,
                           newton=newton_roomy)
        result = er.build_ser(bad_problem, cfg)
        assert result.model.N == 3
        skipped_mus = {tuple(mu) for _, mu, _ in result.report.skipped}
        assert poisoned in skipped_mus
        # the message shows mu as plain floats, as the shared template does
        template = str(er.newton_failure("start", "reduced ", poisoned,
                                         [np.nan], None))
        for _, mu, message in result.report.skipped:
            assert "np.float64" not in message
            if tuple(mu) == poisoned:
                assert message == template
                assert message == ("reduced residual not finite at the initial "
                                   f"guess, mu=({float(poisoned[0])!r}, "
                                   f"{float(poisoned[1])!r})")

    def test_overflowing_rows_are_inf_and_skipped(self, problem8, train5):
        # the block owns the warning state of its term calls: a row whose
        # g overflows comes back as inf without a RuntimeWarning, and the
        # greedy step skips it
        samples = [tuple(mu) for mu in train5]
        overflowing = {samples[3], samples[11]}
        coords = problem8.space.dof_coords
        bump = np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])

        def provider(mus):
            # mu2 u reaches 1e3 on the scaled rows: exp overflows there
            scale = np.array([1e5 if tuple(mu) in overflowing else 1.0
                              for mu in mus])
            return (eimrb.ser.GBlock(problem8, mus,
                                     lambda rows: np.outer(scale[rows], bump)),
                    {})

        bad = sorted(samples.index(mu) for mu in overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fields = provider(samples)[0][0:len(samples)]
            basis = er.eim_initialize(problem8.space, provider, samples)
            step = er.eim_greedy_step(basis, provider, samples)
        is_inf = np.isinf(fields).any(axis=1)
        assert np.flatnonzero(is_inf).tolist() == bad
        assert np.all(np.isfinite(fields[~is_inf]))
        assert step.skipped == [(k, samples[k], "snapshot field overflowed")
                                for k in bad]
        assert np.flatnonzero(np.isnan(step.errors)).tolist() == bad
        assert basis.M == 2

    # in log-parameter distance, row 3 is nearest to row 1 and row 4 to row 2
    SWEEP = [(0.1, 0.1), (0.2, 0.1), (3.0, 3.0), (0.3, 0.12), (5.0, 4.0)]

    def failing_sweep(self, model, failed, solve):
        """The sweep of reduced_g_block over SWEEP, started at a prior
        with a start of its own, on a copy of model whose solve_many,
        given that start, fails the rows failed (zero there, each with a
        failure of its own), whose solve is solve and whose lift is the
        identity, so the block's values are its coefficients.  Returns
        those values, the provider's failures, the cold failures and
        coefficients."""
        cold, _ = model.solve_many(
            self.SWEEP, initial=np.zeros((len(self.SWEEP), model.N)))
        cold[failed] = 0.0
        first = {k: er.SolverFailure(f"cold failure {k}") for k in failed}
        newton = er.NewtonConfig()
        start = np.random.default_rng(8).normal(size=cold.shape)
        given = start.copy()
        prior = dataclasses.replace(
            eimrb.screen.SweepBounds.unknown(len(self.SWEEP)), coeffs=start)

        def solve_many(mus, cfg, initial):
            assert mus == self.SWEEP and cfg is newton
            assert same_bits(initial, given)
            return cold.copy(), dict(first)

        copy = model_with(model)
        copy.solve_many = solve_many
        copy.solve = solve
        copy.lift_block = lambda coeffs: coeffs
        block, failures = eimrb.ser.reduced_g_block(copy, newton,
                                                    prior)(self.SWEEP)
        values = block.values(slice(None))
        # the sweep's answers are the block's, and its start is left as
        # it was
        assert same_bits(block.coeffs, values)
        assert same_bits(start, given)
        assert same_bits(block.prior.coeffs, given)
        return values, failures, first, cold

    def test_failed_sweep_rows_restart_from_the_nearest_converged_row(
            self, standard_small):
        model = standard_small.model
        starts = {}

        def solve(mu, cfg, initial):
            starts[mu] = initial.copy()
            return model.solve(mu, cfg, initial)

        coeffs, failures, _, cold = self.failing_sweep(model, [3, 4], solve)
        assert failures == {}
        assert same_bits(starts[self.SWEEP[3]], cold[1])
        assert same_bits(starts[self.SWEEP[4]], cold[2])
        assert same_bits(coeffs[:3], cold[:3])
        for k, near in ((3, 1), (4, 2)):
            restarted = model.solve(self.SWEEP[k], er.NewtonConfig(),
                                    cold[near])
            assert same_bits(coeffs[k], restarted.coeffs)

    def test_a_row_that_fails_again_keeps_its_first_failure(self,
                                                            standard_small):
        def solve(mu, cfg, initial):
            raise er.NewtonFailure(f"restart failed at {mu}", [1.0])

        coeffs, failures, first, cold = self.failing_sweep(
            standard_small.model, [3, 4], solve)
        assert list(failures) == [3, 4]
        assert all(failures[k] is first[k] for k in first)
        assert same_bits(coeffs, cold)

    def test_a_sweep_with_no_converged_row_restarts_none(self,
                                                         standard_small):
        def solve(mu, cfg, initial):
            raise AssertionError("no converged row to start from")

        _, failures, first, _ = self.failing_sweep(
            standard_small.model, list(range(len(self.SWEEP))), solve)
        assert all(failures[k] is first[k] for k in first)
        assert list(failures) == list(first)

    def test_majority_failure_aborts(self, problem8, train5):
        cfg = er.SerConfig(r=1, n_max=3, m_max=3, train_set=train5,
                           newton=er.NewtonConfig(max_iter=1))
        with pytest.raises((er.EimTrainingError, er.NewtonFailure)):
            er.build_ser(problem8, cfg)


def record_steps(monkeypatch):
    """Wrap the build's greedy step; the returned list fills with its steps."""
    steps = []
    greedy_step = eimrb.ser.eim_greedy_step

    def recording(*args, **kwargs):
        steps.append(greedy_step(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr("eimrb.ser.eim_greedy_step", recording)
    return steps


def worst_first(errors):
    """Training indices by decreasing sweep error, failed (NaN) samples
    last, ties in training order."""
    return sorted(range(len(errors)),
                  key=lambda i: (bool(np.isnan(errors[i])),
                                 -np.nan_to_num(errors[i])))


class TestWarmSweeps:
    """Each reduced sweep starts at the last one's answers, with a zero
    for each new basis vector, and after a rebuild at those answers
    mapped onto the new basis; the first reduced sweep of a build starts
    at zero."""

    FORCED = 12     # the training row that every block solve fails

    def record_sweeps(self, monkeypatch):
        """Wrap the build's reduced sweeps, whose block solve fails row
        FORCED, so that the provider restarts it; the returned list fills
        with (start, answers) of each sweep, copies taken as the sweep
        begins and when its provider returns."""
        sweeps = []
        reduced_g_block = eimrb.ser.reduced_g_block
        solve_many = er.ReducedModel.solve_many

        def failing(model, mus, cfg=None, *, initial):
            coeffs, failures = solve_many(model, mus, cfg, initial=initial)
            coeffs[self.FORCED] = 0.0
            failures[self.FORCED] = er.SolverFailure("forced")
            return coeffs, failures

        def recording(model, newton, prior):
            provider = reduced_g_block(model, newton, prior)

            def recorded(samples):
                start = prior.padded(model.N).coeffs.copy()
                block, failures = provider(samples)
                assert failures == {}
                sweeps.append((start, block.coeffs.copy()))
                return block, failures
            return recorded

        monkeypatch.setattr(er.ReducedModel, "solve_many", failing)
        monkeypatch.setattr(eimrb.ser, "reduced_g_block", recording)
        return sweeps

    @pytest.mark.parametrize("r", [1, 2])
    def test_each_sweep_starts_at_the_last_ones_answers(
            self, problem8, train5, newton_roomy, monkeypatch, r):
        sweeps = self.record_sweeps(monkeypatch)
        er.build_ser(problem8, er.SerConfig(r=r, n_max=5, m_max=5,
                                            train_set=train5,
                                            newton=newton_roomy))
        assert len(sweeps) == (4 if r == 1 else 3)
        assert np.all(sweeps[0][0] == 0.0)
        grown = 0
        for (_, answers), (start, _) in zip(sweeps, sweeps[1:]):
            n = answers.shape[1]
            grown += start.shape[1] > n
            assert same_bits(start[:, :n], answers)
            assert np.all(start[:, n:] == 0.0)
            # the restarted row is carried over, not the block solve's zero
            assert np.any(answers[self.FORCED] != 0.0)
        assert grown == (3 if r == 1 else 1)

    def test_each_sweep_after_a_rebuild_starts_at_the_mapped_answers(
            self, problem8, train5, newton_roomy, monkeypatch):
        # each update replaces the basis V_a by a new V_b, and the next
        # sweep starts at the answers c_a of the sweep before it mapped
        # by the X-projection, c_a S^T with S = V_b^T X V_a, made here
        # from the spaces of the build
        sweeps = self.record_sweeps(monkeypatch)
        spaces = []
        space_init = er.RbSpace.__init__

        def recording_init(space, problem):
            space_init(space, problem)
            spaces.append(space)

        monkeypatch.setattr(er.RbSpace, "__init__", recording_init)
        er.build_ser(problem8, er.SerConfig(r=1, rebuild_wn=True, n_max=4,
                                            m_max=4, train_set=train5,
                                            newton=newton_roomy))
        # the first space is the empty one before the first update, and
        # sweep k runs on space k + 1
        assert len(sweeps) == 3 and len(spaces) == 5
        assert np.all(sweeps[0][0] == 0.0)
        for k, ((_, answers), (start, _)) in enumerate(zip(sweeps,
                                                           sweeps[1:])):
            old, new = spaces[k + 1], spaces[k + 2]
            assert answers.shape[1] == old.N and start.shape[1] == new.N
            s = new.x_basis @ old.basis.T
            assert same_bits(start, answers @ s.T)
            # the restarted row is carried over, not the block solve's zero
            assert np.any(answers[self.FORCED] != 0.0)
            assert np.any(start[self.FORCED] != 0.0)


class TestSnapshotSelection:
    @pytest.mark.parametrize("schedule", [dict(r=1), dict(r=1, rebuild_wn=True),
                                          dict(r="standard")],
                             ids=["r1", "r1-rebuild", "standard"])
    def test_dependent_snapshot_replaced_by_worst_unused(self, problem8, train5,
                                                         newton_roomy,
                                                         monkeypatch, schedule):
        # the third distinct snapshot parameter is rejected as dependent once
        steps = record_steps(monkeypatch)
        add_snapshot = er.RbSpace.add_snapshot
        attempted, rejected = [], {}

        def dependent_once(space, values, mu):
            if not rejected and mu not in attempted and len(set(attempted)) == 2:
                rejected.update(mu=mu, errors=steps[-1].errors.copy(),
                                attempted=set(attempted) | {mu})
                attempted.append(mu)
                raise er.DependentSnapshot(f"forced at mu={mu}")
            attempted.append(mu)
            return add_snapshot(space, values, mu)

        monkeypatch.setattr(er.RbSpace, "add_snapshot", dependent_once)
        cfg = er.SerConfig(n_max=5, m_max=5, train_set=train5,
                           newton=newton_roomy, **schedule)
        result = er.build_ser(problem8, cfg)

        steps_log = result.report.steps
        kinds = [s.kind for s in steps_log]
        assert kinds.count("reject") == 1
        at = kinds.index("reject")
        assert steps_log[at].mu == rejected["mu"]
        assert result.model.N == 5
        assert len(set(result.model.snapshot_mus)) == 5
        assert rejected["mu"] not in result.model.snapshot_mus
        # the update takes candidates until the basis is full, so the
        # replacement is the last snapshot it logs: the first parameter,
        # worst first by the last sweep, that it has not tried before
        event = []
        for s in steps_log[at + 1:]:
            if s.kind != "rb":
                break
            event.append(s.mu)
        replacement = event[-1]
        excluded = rejected["attempted"] | set(event[:-1])
        train = [tuple(p) for p in train5]
        expected = next(train[i] for i in worst_first(rejected["errors"])
                        if train[i] not in excluded)
        assert replacement == expected
        # the rejected snapshot's solve is counted like every other
        report = result.report
        assert steps_log[-1].fe_solves == report.fe_solve_count
        if schedule == dict(r=1):
            assert report.fe_solve_count == (1 + kinds.count("rb")
                                             + kinds.count("reject"))
        elif schedule == dict(r="standard"):
            assert report.fe_solve_count == len(train5)

    def test_kept_parameter_rejected_in_a_rebuild(self, problem8, train5,
                                                  newton_roomy, monkeypatch):
        # the third update re-solves its two kept parameters first; the
        # second of them is rejected as dependent
        steps = record_steps(monkeypatch)
        add_snapshot = er.RbSpace.add_snapshot
        accepted, rejected = set(), {}

        def kept_dependent_once(space, values, mu):
            if not rejected and mu in accepted and space.N == 1:
                rejected.update(mu=mu, errors=steps[-1].errors.copy(),
                                tried=set(accepted))
                raise er.DependentSnapshot(f"forced at mu={mu}")
            xi = add_snapshot(space, values, mu)
            accepted.add(mu)
            return xi

        monkeypatch.setattr(er.RbSpace, "add_snapshot", kept_dependent_once)
        cfg = er.SerConfig(r=1, rebuild_wn=True, n_max=5, m_max=5,
                           train_set=train5, newton=newton_roomy)
        result = er.build_ser(problem8, cfg)

        steps_log = result.report.steps
        kinds = [s.kind for s in steps_log]
        assert kinds.count("reject") == 1
        at = kinds.index("reject")
        assert steps_log[at].mu == rejected["mu"]
        assert (steps_log[at].M, steps_log[at].N) == (3, 1)
        assert result.model.N == 5
        assert rejected["mu"] not in result.model.snapshot_mus
        # the update still fills its basis, with the first candidates it
        # has not tried: the group's pick, then worst first by the sweep
        event = []
        for s in steps_log[at + 1:]:
            if s.kind == "rebuild":
                assert s.N == 3
                break
            event.append(s.mu)
        train = [tuple(p) for p in train5]
        stream = list(result.eim_g.mus[2:3]) + [
            train[i] for i in worst_first(rejected["errors"])]
        unused = [mu for mu in dict.fromkeys(stream)
                  if mu not in rejected["tried"]]
        assert event == unused[:2]
        # the rejected re-solve is counted like every other
        assert result.report.fe_solve_count == expected_solids(
            1, True, 5, 5, len(train5)) + 1

    def test_standard_fallback_snapshots_ranked_by_last_sweep(self, problem8,
                                                              train5,
                                                              monkeypatch):
        # more snapshots than interpolant picks: the rest are the unused
        # parameters the last sweep approximated worst
        steps = record_steps(monkeypatch)
        cfg = er.SerConfig(r="standard", n_max=7, m_max=4, train_set=train5)
        result = er.build_ser(problem8, cfg)
        picks = result.eim_g.mus
        assert len(set(picks)) == 4
        train = [tuple(p) for p in train5]
        ranked = [train[i] for i in worst_first(steps[-1].errors)
                  if train[i] not in picks]
        assert result.model.snapshot_mus == list(picks) + ranked[:3]
        # which differs from taking them in training-set order
        assert ranked[:3] != [mu for mu in train if mu not in picks][:3]

    def test_saturated_standard_step_logs_its_sweep_maximum(self, problem8,
                                                            monkeypatch):
        steps = record_steps(monkeypatch)
        train = er.SampleSet.log_grid(3, 3)
        cfg = er.SerConfig(r="standard", n_max=4, m_max=12, train_set=train)
        result = er.build_ser(problem8, cfg)
        assert steps[-1].saturated
        logged = [s for s in result.report.steps if s.kind == "eim"][-1]
        assert logged.mu == steps[-1].mu
        assert logged.sup_error == steps[-1].sup_error
        # not the previous pick, which the saturated step did not add
        assert logged.mu != result.eim_g.mus[-1]


class TestBenchmarkBindings:
    """perfbench traces a build by wrapping these names where the build
    looks them up (the truth solves run through ``TruthReferences`` in
    ``benchmark``), and counts sweep evaluations through the ``samples``
    argument of ``eim_greedy_step``; a build that bypasses them loses its
    trace."""

    SITES = ("ser.eim_greedy_step", "benchmark.truth_newton_solve",
             "ser.truth_newton_solve_eim")

    def test_traced_bindings_exist(self):
        for site in self.SITES:
            module, name = site.split(".")
            assert callable(getattr(getattr(eimrb, module), name))
        assert er.build_ser is eimrb.ser.build_ser
        assert "samples" in inspect.signature(eimrb.ser.eim_greedy_step).parameters

    def test_builds_call_through_the_bindings(self, problem8, train5,
                                              newton_roomy, monkeypatch):
        calls, evaluations = Counter(), Counter()
        for site in self.SITES:
            module, name = site.split(".")
            fn = getattr(getattr(eimrb, module), name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                bound = inspect.signature(_fn).bind(*args, **kwargs).arguments
                evaluations[_name] += len(bound.get("samples", ()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(f"eimrb.{site}", counted)

        er.build_ser(problem8, er.SerConfig(r="standard", n_max=6, m_max=8,
                                            train_set=train5))
        assert calls == {"eim_greedy_step": 7, "truth_newton_solve": len(train5)}
        assert evaluations["eim_greedy_step"] == 7 * len(train5)

        calls.clear()
        evaluations.clear()
        er.build_ser(problem8, er.SerConfig(r=1, n_max=5, m_max=5,
                                            train_set=train5,
                                            newton=newton_roomy))
        assert calls == {"eim_greedy_step": 4, "truth_newton_solve": 1,
                         "truth_newton_solve_eim": 5}
        assert evaluations["eim_greedy_step"] == 4 * len(train5)

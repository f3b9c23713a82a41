import numpy as np
import pytest

import eimrb as er


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
        std = standard_small.model
        assert result.model.eim_g.t == std.eim_g.t[:5]
        assert result.model.eim_g.mus == std.eim_g.mus[:5]
        for m in range(5):
            assert np.array_equal(result.model.eim_g.fields[m],
                                  std.eim_g.fields[m])
        assert result.report.fe_solve_count == len(train5) + 4

    def test_degenerate_frequency_equals_standard_eim_bitwise(self, problem8,
                                                              train5,
                                                              newton_roomy):
        cfg_std = er.SerConfig(r="standard", n_max=5, m_max=6,
                               train_set=train5, newton=newton_roomy)
        std = er.build_standard(problem8, cfg_std)
        cfg_deg = er.SerConfig(r=6, n_max=5, m_max=6, train_set=train5,
                               newton=newton_roomy)
        deg = er.build_ser(problem8, cfg_deg)
        a, b = std.model.eim_g, deg.model.eim_g
        assert a.t == b.t
        assert a.mus == b.mus
        assert a.train_errors == b.train_errors
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.field_matrix(), b.field_matrix())
        # both take their snapshots at the greedy selections
        assert std.model.rb.mus == deg.model.rb.mus

    def test_standard_eim_equals_direct_training_bitwise(self, problem8,
                                                         train5,
                                                         standard_small):
        counter = er.SolveCounter()
        truth = er.TruthSolutionSource(problem8, er.NewtonConfig(), counter)
        direct = er.eim_train(problem8.space, truth.g_block,
                              [tuple(p) for p in train5], m_max=8)
        built = standard_small.model.eim_g
        assert direct.t == built.t
        assert np.array_equal(direct.B, built.B)
        assert np.array_equal(direct.field_matrix(), built.field_matrix())

    def test_nested_growth_no_rebuild(self, ser_small):
        # checkpoints recorded mid-build are bitwise prefixes of the final state
        cp = ser_small.checkpoints[(3, 3)]
        final = ser_small.model
        assert np.array_equal(cp.rb.basis_matrix(),
                              final.rb.basis_matrix()[:, :3])
        assert np.array_equal(cp.eim_g.field_matrix(),
                              final.eim_g.field_matrix()[:3])
        assert np.array_equal(cp.blocks.A, final.blocks.A[:3, :3])
        assert np.array_equal(cp.blocks.F, final.blocks.F[:3])
        assert np.array_equal(cp.blocks.Rq, final.blocks.Rq[:3, :3])
        assert np.array_equal(cp.blocks.Tr, final.blocks.Tr[:3, :3])

    def test_rebuild_checkpoints_are_recorded(self, problem8, train5,
                                              newton_roomy):
        cfg = er.SerConfig(r=1, rebuild_wn=True, n_max=4, m_max=4,
                           train_set=train5, newton=newton_roomy,
                           checkpoints=((2, 2), (4, 4)))
        result = er.build_ser(problem8, cfg)
        assert set(result.checkpoints) == {(2, 2), (4, 4)}
        # with rebuilding the early basis is not a prefix of the final one
        cp = result.checkpoints[(2, 2)]
        assert cp.rb.N == 2 and cp.eim_g.M == 2
        assert result.report.fe_solve_count == expected_solids(
            1, True, 4, 4, len(train5))

    def test_rb_snapshots_follow_greedy_selections(self, ser_small):
        # each update snapshots at the parameter the sweep just selected;
        # a re-selected (already used) parameter falls back to another one
        g_mus = ser_small.model.eim_g.mus
        rb_mus = ser_small.model.rb.mus
        assert len(rb_mus) == len(set(rb_mus)) == 5
        for k, sel in enumerate(g_mus[:5]):
            if sel not in g_mus[:k]:
                assert rb_mus[k] == sel


class TestSnapshotSources:
    def test_truth_exact_source_reuses_cached_solves(self, problem8, train5,
                                                     newton_roomy, monkeypatch):
        # no snapshot is solved with the surrogate, so the build factors no
        # stiffness matrix for one
        def no_surrogate(*args):
            raise AssertionError("SurrogateSolver made by a truth-exact build")

        monkeypatch.setattr("eimrb.ser.SurrogateSolver", no_surrogate)
        cfg = er.SerConfig(r=1, n_max=4, m_max=4, train_set=train5,
                           snapshot_source="truth-exact", newton=newton_roomy)
        result = er.build_ser(problem8, cfg)
        assert result.model.N == 4
        # the initialization solve doubles as the first snapshot
        assert result.report.fe_solve_count == 4

    def test_unknown_source_rejected(self, train5):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r=1, n_max=2, m_max=2, train_set=train5,
                         snapshot_source="guess")

    def test_bad_frequency_rejected(self, train5):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r=0, n_max=2, m_max=2, train_set=train5)

    def test_empty_training_set_rejected(self):
        with pytest.raises(er.SerBuildError):
            er.SerConfig(r=1, n_max=2, m_max=2, train_set=[])


class TestFailureHandling:
    def test_sweep_failures_are_recorded_and_skipped(self, problem8, train5,
                                                     newton_roomy):
        term = problem8.term
        poisoned = tuple(train5[7])

        def poisoned_g(u, xy, mu):
            if tuple(mu) == poisoned:
                return np.full_like(np.asarray(u, dtype=float), np.nan)
            return term.g(u, xy, mu)

        bad_problem = er.NonlinearProblem(
            problem8.space, er.NonlinearTerm(poisoned_g, term.dg_du),
            er.benchmark_rhs)
        cfg = er.SerConfig(r=1, n_max=3, m_max=3, train_set=train5,
                           newton=newton_roomy)
        result = er.build_ser(bad_problem, cfg)
        assert result.model.N == 3
        skipped_mus = {tuple(mu) for _, mu, _ in result.report.skipped}
        assert poisoned in skipped_mus

    def test_majority_failure_aborts(self, problem8, train5):
        cfg = er.SerConfig(r=1, n_max=3, m_max=3, train_set=train5,
                           newton=er.NewtonConfig(max_iter=1))
        with pytest.raises((er.EimTrainingError, er.NewtonFailure)):
            er.build_ser(problem8, cfg)

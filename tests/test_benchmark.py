import math
import warnings

import numpy as np
import pytest

import eimrb as er
from eimrb.benchmark import format_row

from conftest import at_mu, check_derivative


class TestNonlinearity:
    def test_zero_input(self):
        term = er.benchmark_term()
        for mu in [(0.01, 0.01), (10, 10), (3, 0.2)]:
            assert at_mu(term.g, [0.0], mu)[0] == 0.0

    def test_unit_input(self):
        term = er.benchmark_term()
        val = at_mu(term.g, [1.0], (1.0, 1.0))[0]
        assert abs(val - (math.e - 1.0)) <= 1e-12

    def test_derivative_by_central_differences(self):
        term = er.benchmark_term()
        rng = np.random.default_rng(5)
        mus = [tuple(10.0 ** rng.uniform(-2, 1, 2)) for _ in range(20)]
        us = rng.uniform(-1.5, 1.5, 20)
        for mu, u in zip(mus, us):
            check_derivative(term, [mu], [u])

    def test_block_rows_equal_one_parameter_evaluations_bitwise(self):
        # a (P, k) block at P distinct parameters, row p against the one-row
        # evaluation at mus[p], for g and dg_du, on values that cover the
        # expm1 small-argument regime and overflow to inf
        term = er.benchmark_term()
        rng = np.random.default_rng(17)
        mus = np.vstack([[(0.01, 0.01), (10.0, 10.0), (0.01, 10.0), (10.0, 0.01)],
                         10.0 ** rng.uniform(-2, 1, (16, 2))])
        u = rng.uniform(-1.5, 1.5, (len(mus), 40))
        u[:, :3] = [1e-12, -1e-9, 80.0]
        assert len({tuple(mu) for mu in mus}) == len(mus)
        for func in (term.g, term.dg_du):
            # the term leaves the warning state to its caller
            with np.errstate(over="ignore"):
                block = func(u, mus)
                rows = np.array([func(u[p:p + 1], mus[p:p + 1])[0]
                                 for p in range(len(mus))])
            assert block.shape == u.shape
            assert block.tobytes() == rows.tobytes()
            assert np.isinf(block[1, 2])

    def test_block_equals_the_formulas_bitwise(self):
        # g and dg_du, evaluated into one array, against the expressions
        # they stand for, on random blocks with overflowing rows; the
        # callers' errstate silences the overflow, and nothing else warns
        term = er.benchmark_term()
        rng = np.random.default_rng(23)
        for rows, cols in ((31, 4225), (1, 25), (400, 7)):
            mus = 10.0 ** rng.uniform(-2, 1, (rows, 2))
            u = rng.uniform(-1.5, 1.5, (rows, cols))
            u[::5, -1] = 1e5     # mu2 u >= 1e3: exp overflows
            mu1, mu2 = mus[:, :1], mus[:, 1:]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with np.errstate(over="ignore", invalid="ignore"):
                    g, dg = term.g(u, mus), term.dg_du(u, mus)
                    expected_g = mu1 * np.expm1(mu2 * u) / mu2
                    expected_dg = mu1 * np.exp(mu2 * u)
            assert np.isinf(g[::5, -1]).all() and np.isinf(dg[::5, -1]).all()
            assert g.tobytes() == expected_g.tobytes()
            assert dg.tobytes() == expected_dg.tobytes()

    def test_small_exponent_accuracy(self):
        # expm1 keeps g ~ mu1*u when mu2*u is tiny
        term = er.benchmark_term()
        u = np.array([1e-9])
        val = at_mu(term.g, u, (1.0, 0.01))[0]
        assert abs(val - 1e-9) <= 1e-17


class TestFloat32Term:
    """The float32 screen of a greedy sweep (eim) assumes that the
    benchmark term's float32 g and dg stay within TERM_ULPS ulps of their
    library functions, and within the term's error bound."""

    @staticmethod
    def samples(count=4000, seed=36):
        """Parameters log-uniform over [0.01, 10]^2 and float32 u with
        mu2 u from -60 to 88, ends included, one per row."""
        rng = np.random.default_rng(seed)
        mus = 10.0 ** rng.uniform(-2.0, 1.0, size=(count, 2))
        x = rng.uniform(-60.0, 88.0, size=count)
        x[:4] = [-60.0, 0.0, 1e-6, 88.0]
        u = (x / mus[:, 1]).astype(np.float32)[:, None]
        return mus, u

    def test_float32_expm1_and_exp_within_the_ulp_allowance(self):
        mus, u = self.samples()
        x = mus.astype(np.float32)[:, 1:] * u
        assert x.dtype == np.float32 and np.isfinite(np.exp(x)).all()
        for func in (np.expm1, np.exp):
            exact = func(x.astype(float))
            ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(float)
            ulps = np.abs(func(x).astype(float) - exact) / ulp
            assert ulps.max() <= er.benchmark.TERM_ULPS

    def test_float32_g_and_dg_stay_float32(self):
        term = er.benchmark_term()
        mus, u = self.samples(count=8)
        mus32 = mus.astype(np.float32)
        assert term.g(u, mus32).dtype == np.float32
        assert term.dg_du(u, mus32).dtype == np.float32

    def test_float32_g_within_the_error_bound(self):
        # float64 g at the same float32 u stands for the exact g: its own
        # error is some 1e9 times below the bound
        # (its products overflow float32 near mu2 u = 88 with mu1 > 2 or
        # a small mu2; the screen confirms such rows in float64)
        term = er.benchmark_term()
        mus, u = self.samples()
        with np.errstate(over="ignore"):
            g32 = term.g(u, mus.astype(np.float32))[:, 0].astype(float)
        g64 = term.g(u.astype(float), mus)[:, 0]
        finite = np.isfinite(g32)
        assert finite.mean() > 0.9
        assert np.all(np.abs(g64[~finite]) > 1e36)
        mus, g32, g64 = mus[finite], g32[finite], g64[finite]
        v = u[finite, 0].astype(float)
        bound = term.error_bound(v, v, np.zeros_like(v), mus, np.float32)
        assert np.isfinite(bound).all()
        assert np.all(np.abs(g32 - g64) <= bound)
        # and a shift of u by du moves g by no more than its bound allows
        du = 1e-6 * np.abs(v) + 1e-30
        shifted = term.g((v + du)[:, None], mus)[:, 0]
        bound = term.error_bound(v, v, du, mus, np.float32)
        assert np.all(np.abs(g32 - shifted) <= bound)


class TestSampleSets:
    def test_log_grid_is_lexicographic_and_in_bounds(self):
        s = er.SampleSet.log_grid(4, 3)
        assert len(s) == 12
        pts = [tuple(p) for p in s]
        assert pts == sorted(pts)
        assert pts[0] == (0.01, 0.01)
        assert all(er.in_parameter_domain(p) for p in pts)
        assert abs(pts[-1][0] - 10.0) <= 1e-12 and abs(pts[-1][1] - 10.0) <= 1e-12

    @pytest.mark.parametrize("n1, n2", [(20, 20), (10, 10), (3, 5), (1, 1)])
    def test_log_grid_equals_the_double_loop_bitwise(self, n1, n2):
        a = np.logspace(math.log10(er.D_MIN), math.log10(er.D_MAX), n1)
        b = np.logspace(math.log10(er.D_MIN), math.log10(er.D_MAX), n2)
        loop = np.asarray([(x, y) for x in a for y in b], dtype=float)
        grid = er.SampleSet.log_grid(n1, n2).points
        assert grid.shape == loop.shape == (n1 * n2, 2)
        assert grid.dtype == loop.dtype
        assert grid.tobytes() == loop.tobytes()

    def test_log_random_is_deterministic(self):
        a = er.SampleSet.log_random(50, 42)
        b = er.SampleSet.log_random(50, 42)
        c = er.SampleSet.log_random(50, 7)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert all(er.in_parameter_domain(p) for p in a)

    def test_checkpoint_defaults(self):
        assert er.default_checkpoints("standard", 20, 25) == (
            (4, 5), (8, 10), (12, 15), (16, 20), (20, 25))
        assert er.default_checkpoints(1, 25, 25) == (
            (5, 5), (10, 10), (15, 15), (20, 20), (25, 25))


class TestErrorStudy:
    def test_reproduction_at_snapshot_parameters(self, problem8):
        # saturated interpolants over a tiny sample; at its own snapshot
        # parameters the reduced model must reproduce the snapshots
        samples = er.SampleSet.log_grid(3, 3)
        cfg = er.SerConfig(r="standard", n_max=4, m_max=9, train_set=samples)
        result = er.build_ser(problem8, cfg)
        snap_set = er.SampleSet(np.array(result.model.snapshot_mus))
        rows = er.run_error_study(result, snap_set, [(4, 9)])
        assert rows[0].failures == 0
        assert rows[0].max_err_u <= 1e-8

    def test_rows_report_failures_instead_of_aborting(self, standard_small):
        # no solve can meet these tolerances, so every one stalls, from
        # whatever start
        test_set = er.SampleSet.log_random(5, 3)
        rows = er.run_error_study(standard_small, test_set, [(6, 8)],
                                  newton=er.NewtonConfig(abs_tol=1e-300,
                                                         rel_tol=1e-300,
                                                         max_iter=1))
        assert rows[0].failures == 5
        assert math.isnan(rows[0].max_err_u)

    def test_stage_beyond_the_build_is_an_incomplete_row(self, standard_small):
        test_set = er.SampleSet.log_random(5, 3)
        refs = er.TruthReferences(standard_small.model.problem)
        rows = er.run_error_study(standard_small, test_set, [(7, 8)],
                                  references=refs)
        assert refs.solves == 0     # no model measured, no reference
        assert (rows[0].N, rows[0].M, rows[0].failures) == (7, 8, 5)
        assert math.isnan(rows[0].max_err_u) and math.isnan(rows[0].max_err_s)

    @pytest.mark.parametrize("r, saturated_m", [("standard", 9), (1, 11)])
    def test_rows_name_the_stage_they_measured(self, r, saturated_m):
        # on a 3x3 grid the n=8 P1 interpolant saturates below m_max = 30,
        # so the later stages ask for more fields than the build made
        checkpoints = er.default_checkpoints(r, 4, 30)
        cfg = er.SerConfig(r=r, n_max=4, m_max=30,
                           train_set=er.SampleSet.log_grid(3, 3),
                           checkpoints=checkpoints)
        result = er.build_ser(er.benchmark_problem(8, 1), cfg)
        assert result.model.M == saturated_m
        rows = er.run_error_study(result, er.SampleSet.log_random(3, 1),
                                  checkpoints)
        assert [(row.N, row.M) for row in rows] == [
            (n, min(m, saturated_m)) for n, m in checkpoints]
        assert [row.failures for row in rows] == [0] * len(checkpoints)

    def test_each_distinct_model_is_measured_once(self, monkeypatch):
        # on the saturated n=8 P1 3x3 standard build, the stages (2, 12)
        # and (2, 18) both resolve to N=2, M=9: the study solves the test
        # set with four models, not five, plus the final model's guesses
        # for the references, and still emits one row per stage
        checkpoints = er.default_checkpoints("standard", 4, 30)
        assert checkpoints[1:3] == ((2, 12), (2, 18))
        cfg = er.SerConfig(r="standard", n_max=4, m_max=30,
                           train_set=er.SampleSet.log_grid(3, 3),
                           checkpoints=checkpoints)
        result = er.build_ser(er.benchmark_problem(8, 1), cfg)
        assert result.model.M == 9
        test_set = er.SampleSet.log_random(3, 1)
        solves = []
        solve = er.ReducedModel.solve

        def counted(model, mu, *args, **kwargs):
            solves.append((model.N, model.M))
            return solve(model, mu, *args, **kwargs)

        monkeypatch.setattr(er.ReducedModel, "solve", counted)
        rows = er.run_error_study(result, test_set, checkpoints)
        distinct = sorted({(n, min(m, 9)) for n, m in checkpoints})
        assert len(distinct) == 4
        assert len(solves) == len(distinct) * len(test_set) + len(test_set)
        assert [(row.N, row.M) for row in rows] == [
            (n, min(m, 9)) for n, m in checkpoints]
        assert rows[2] == rows[1] and rows[2] is not rows[1]

    def test_references_are_fetched_along_a_nearest_neighbour_tour(
            self, standard_small, monkeypatch):
        # every reference is solved before the first stage is measured, in
        # the order of the tour: from the first test point, each next one
        # the nearest in log-parameter distance of those not yet visited
        test_set = er.SampleSet.log_random(12, 4)
        events = []
        truth_solve = er.benchmark.truth_newton_solve
        solve = er.ReducedModel.solve

        def recorded_truth(problem, mu, *args, **kwargs):
            events.append(("truth", mu))
            return truth_solve(problem, mu, *args, **kwargs)

        def recorded_solve(model, mu, *args, **kwargs):
            if model is not standard_small.model:
                events.append(("stage", tuple(mu)))
            return solve(model, mu, *args, **kwargs)

        monkeypatch.setattr(er.benchmark, "truth_newton_solve", recorded_truth)
        monkeypatch.setattr(er.ReducedModel, "solve", recorded_solve)
        er.run_error_study(standard_small, test_set, [(3, 4)])
        truths = [mu for kind, mu in events[:len(test_set)] if kind == "truth"]
        assert len(truths) == len(test_set)
        logs = {mu: np.log(mu) for mu in test_set}
        left = list(test_set)
        expected = [left.pop(0)]
        while left:
            dist = [float(np.sum((logs[mu] - logs[expected[-1]]) ** 2))
                    for mu in left]
            expected.append(left.pop(int(np.argmin(dist))))
        assert truths == expected
        assert truths == [test_set[k] for k in er.benchmark.tour(test_set)]
        assert [kind for kind, _ in events[len(test_set):]] == \
            ["stage"] * len(test_set)

    def test_tour_of_no_and_of_one_parameter(self):
        assert er.benchmark.tour([]) == []
        assert er.benchmark.tour([(1.0, 2.0)]) == [0]

    def test_error_decreases_with_model_size(self, standard_small):
        test_set = er.SampleSet.log_random(15, 9)
        rows = er.run_error_study(standard_small, test_set, [(3, 4), (6, 8)])
        assert rows[1].max_err_u < rows[0].max_err_u


class TestEmitTable:
    def test_exact_format(self, tmp_path):
        row = er.StudyRow(N=4, M=5, max_err_u=7.38e-3, max_err_s=5.75e-3,
                          variant="r=M")
        path = tmp_path / "table.csv"
        er.emit_table([row], path)
        text = path.read_text()
        assert text == "N,M,max_err_u,max_err_s,variant\n4,5,7.38e-03,5.75e-03,r=M\n"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            er.emit_table([], tmp_path / "t.csv")

    def test_round_trip_at_three_significant_digits(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = [er.StudyRow(N=n, M=n + 1,
                            max_err_u=float(10.0 ** rng.uniform(-8, -1)),
                            max_err_s=float(10.0 ** rng.uniform(-8, -1)),
                            variant="r=1")
                for n in range(1, 6)]
        path = tmp_path / "t.csv"
        er.emit_table(rows, path)
        lines = path.read_text().strip().splitlines()[1:]
        for line, row in zip(lines, rows):
            n, m, eu, es, variant = line.split(",")
            assert (int(n), int(m)) == (row.N, row.M)
            assert float(eu) == float(f"{row.max_err_u:.2e}")
            assert float(es) == float(f"{row.max_err_s:.2e}")
            assert variant == "r=1"

    def test_sorted_by_variant_then_n(self, tmp_path):
        rows = [er.StudyRow(8, 10, 1e-3, 1e-3, "r=M"),
                er.StudyRow(4, 5, 1e-2, 1e-2, "r=M"),
                er.StudyRow(5, 5, 1e-2, 1e-2, "r=1")]
        path = tmp_path / "t.csv"
        er.emit_table(rows, path)
        lines = path.read_text().strip().splitlines()[1:]
        assert [ln.split(",")[-1] for ln in lines] == ["r=1", "r=M", "r=M"]
        assert [int(ln.split(",")[0]) for ln in lines] == [5, 4, 8]

    def test_incomplete_rows_are_flagged(self):
        row = er.StudyRow(4, 5, 1e-2, 1e-2, "r=M", failures=2)
        assert format_row(row).endswith("r=M!incomplete")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        row = er.StudyRow(4, 5, 1e-2, 1e-2, "r=M")
        with pytest.raises(OSError):
            er.emit_table([row], tmp_path / "missing_dir" / "t.csv")

"""The float32 screen of the reduced greedy sweeps (screen, eim).

A sweep screens every row in float32 and runs the float64 pass only on
the chunks that may hold its largest error, so its pick, the pick's error
and residual, its skipped rows and every error it reports are those of a
float64 pass over every chunk.  The n=8 builds here use chunks of three
rows (six in the screen), so that a sweep has chunks to leave out.
"""

import copy

import numpy as np
import pytest

import eimrb as er
import eimrb.eim
import eimrb.screen
import eimrb.ser
from conftest import no_error_bound, same_bits, small_config

SCHEDULES = {"r1": dict(r=1, n_max=5, m_max=5),
             "r1-rebuild": dict(r=1, rebuild_wn=True, n_max=4, m_max=4),
             "r2": dict(r=2, n_max=4, m_max=6),
             "standard": dict(r="standard", n_max=4, m_max=6)}


@pytest.fixture
def small_chunks(problem8, monkeypatch):
    monkeypatch.setattr("eimrb.eim.BUDGET", 3 * problem8.space.ndof)


@pytest.fixture(scope="module")
def train6():
    return er.SampleSet.log_grid(6, 6)


def unbounded(monkeypatch):
    """Force every screen bound to infinity: every chunk runs in float64."""
    bracket = eimrb.screen.Float32Screen.bracket

    def no_bound(screen, idx):
        est, dev = bracket(screen, idx)
        return est, np.full_like(dev, np.inf)

    monkeypatch.setattr(eimrb.screen.Float32Screen, "bracket", no_bound)


def record_screens(monkeypatch):
    """Each greedy step of a build with its screen's (est, dev) as the
    step's float64 pass read them, or None for a sweep with no screen;
    the list fills as the build runs."""
    steps = []
    greedy_step = eimrb.ser.eim_greedy_step

    def recording_step(*args):
        step = greedy_step(*args)
        screened = step.sweep.screen is not None
        steps.append((step, (step.sweep.est, step.sweep.dev) if screened
                      else None))
        return step

    monkeypatch.setattr("eimrb.ser.eim_greedy_step", recording_step)
    return steps


def record_carried(monkeypatch):
    """Each greedy step of a build with the bound U its rows carried into
    it, the screen's (est, dev) copied as the step's float64 pass read
    them and the rows of the sweep that restarted a solve, or None for U,
    (est, dev) and the rows of a sweep with no screen; the list fills as
    the build runs."""
    steps = []
    greedy_step = eimrb.ser.eim_greedy_step

    def recording_step(*args):
        step = greedy_step(*args)
        screen = step.sweep.screen
        if screen is None:
            steps.append((step, None, None, None))
        else:
            steps.append((step, screen.carried.copy(),
                          (step.sweep.est.copy(), step.sweep.dev.copy()),
                          list(screen.restarted)))
        return step

    monkeypatch.setattr("eimrb.ser.eim_greedy_step", recording_step)
    return steps


def build_bytes(problem, cfg, path):
    result = er.build_ser(problem, cfg)
    er.save_model(path, result)
    return path.read_bytes(), result.report.summary_dict(), result


def sweep_setup(ser_small):
    """A copy of ser_small's interpolant, its final model and start rows
    at train5, for one greedy step of hand-made reduced solutions."""
    model = ser_small.model
    return copy.deepcopy(ser_small.eim_g), model, model.table.coeffs.copy()


def unknown(model, mus):
    """The prior of a first reduced sweep over mus on model's basis."""
    return eimrb.screen.SweepBounds.unknown(len(mus)).padded(model.N)


def reduced_provider(model, coeffs, failures=None):
    return lambda mus: (eimrb.ser.ReducedGBlock(model, mus, coeffs, [],
                                                unknown(model, mus)),
                        dict(failures or {}))


class TestBound:
    @pytest.mark.parametrize("schedule", ["r1", "r1-rebuild", "r2"])
    def test_bound_holds_on_every_row_of_every_reduced_sweep(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            schedule):
        steps = record_screens(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        er.build_ser(problem8, cfg)
        screened = [(step, screen) for step, screen in steps
                    if screen is not None]
        assert len(screened) >= 3
        rows = 3
        n_chunks = -(-len(train6) // rows)
        left_out = 0
        for step, (est, dev) in screened:
            errors = step.errors
            ok = np.isfinite(errors)
            assert np.isfinite(dev[ok]).all()
            assert np.all(np.abs(est[ok] - errors[ok]) <= dev[ok])
            left_out += n_chunks - len(step.confirmed)
            # the pick is in a confirmed chunk
            assert train6[int(np.nanargmax(errors))] == step.mu
            assert int(np.nanargmax(errors)) // rows in step.confirmed
        assert left_out > 0

    def test_truth_sweeps_are_not_screened(self, problem8, train6,
                                           small_chunks, monkeypatch):
        steps = record_screens(monkeypatch)
        cfg = er.SerConfig(train_set=train6, **SCHEDULES["standard"])
        er.build_ser(problem8, cfg)
        assert steps and all(screen is None for _, screen in steps)
        assert all(step.confirmed == list(range(12)) for step, _ in steps)

    def test_a_term_with_no_bound_runs_every_chunk(self, ser_small, train5,
                                                   small_chunks):
        # a term whose error bound is inf everywhere: every row is
        # screened, and no bracket rules a chunk out
        basis, model, coeffs = sweep_setup(ser_small)
        term = model.problem.term
        no_bound = er.NonlinearProblem(model.problem.space,
                                       er.NonlinearTerm(term.g, term.dg_du,
                                                        no_error_bound),
                                       er.benchmark_rhs)
        model = copy.copy(model)
        model.problem = no_bound
        step = er.eim_greedy_step(basis, reduced_provider(model, coeffs),
                                  list(train5))
        assert step.screened == 25 and np.isinf(step.sweep.dev).all()
        assert step.confirmed == list(range(9))


class TestCarried:
    """Each row of a reduced sweep that follows a reduced sweep carries a
    bound U on its float64 error (screen docstring), onto a new basis
    after a rebuild too; the screen runs only on the rows that can still
    hold the largest."""

    def build(self, problem8, train6, newton_roomy, monkeypatch, schedule):
        steps = record_carried(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        result = er.build_ser(problem8, cfg)
        return [s for s in steps if s[1] is not None], result

    @pytest.mark.parametrize("schedule", ["r1", "r2", "r1-rebuild"])
    def test_every_row_is_under_its_carried_bound(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            schedule):
        swept, result = self.build(problem8, train6, newton_roomy,
                                   monkeypatch, schedule)
        assert len(swept) >= 3
        carried = 0
        for step, U, (est, dev), _ in swept:
            errors = step.errors
            ok = np.isfinite(errors)
            assert np.all(errors[ok] <= U[ok])
            carried += np.isfinite(U).any()
            # a row left out is entered as the bracket [0, U]
            out = np.isfinite(U) & (est == U / 2) & (dev == U / 2)
            assert out.sum() == len(train6) - step.screened
        # a rebuild's sweeps carry their bounds onto the new basis too
        assert carried > 0
        assert min(step.screened for step, *_ in swept) < len(train6)

    def test_rows_interpolated_to_roundoff_stay_under_their_bound(
            self, problem8, newton_roomy, monkeypatch):
        # sweeps repeated on the same reduced solutions move no row
        # (Delta = 0), so each picked row is interpolated to roundoff in
        # the sweeps after its pick, and with one chunk every bracket's
        # top is the float64 error: there U rests on the rounding terms,
        # far below the sweep's largest error.  Some such error grows by
        # more than 2^(M_b - M_a) from one sweep to the next, so U needs
        # them
        train = er.SampleSet.log_grid(8, 8)
        built = er.build_ser(problem8, er.SerConfig(
            r=1, n_max=5, m_max=5, train_set=train, newton=newton_roomy))
        steps = record_carried(monkeypatch)
        basis, model = copy.deepcopy(built.eim_g), built.model
        coeffs, samples = model.table.coeffs.copy(), list(train)
        prior = unknown(model, samples)
        for _ in range(12):
            step = eimrb.ser.eim_greedy_step(basis, lambda mus: (
                eimrb.ser.ReducedGBlock(model, mus, coeffs, [], prior), {}),
                samples)
            prior = step.bounds
        assert not step.saturated
        tiny, growth = 0, 0.0
        for (before, _, _, _), (step, U, _, _) in zip(steps, steps[1:]):
            errors = step.errors
            assert np.all(errors <= U)
            # the rows at roundoff in both sweeps
            for k in np.flatnonzero(before.errors < 1e-13):
                tiny += 1
                assert errors[k] < 1e-13 and U[k] < 1e-6 * step.sup_error
                growth = max(growth, errors[k] / before.errors[k])
        assert tiny >= 20 and growth > 2

    def test_rows_that_move_stay_under_their_bound(self, ser_small, train5,
                                                  monkeypatch):
        # the second sweep doubles every reduced solution, which moves g
        # most where mu2 is large: U holds by Delta, and by G read at the
        # ends of the range of u widened by Delta
        steps = record_carried(monkeypatch)
        basis, model, coeffs = sweep_setup(ser_small)
        samples = list(train5)
        first = eimrb.ser.eim_greedy_step(basis, lambda mus: (
            eimrb.ser.ReducedGBlock(model, mus, coeffs, [],
                                    unknown(model, mus)), {}), samples)
        second = eimrb.ser.eim_greedy_step(basis, lambda mus: (
            eimrb.ser.ReducedGBlock(model, mus, 2 * coeffs, [],
                                    first.bounds), {}), samples)
        errors, U = second.errors, steps[1][1]
        assert np.all(errors <= U)
        assert np.any(errors > 2 * first.bounds.tops)

    @pytest.mark.parametrize("schedule", ["r1", "r2", "r1-rebuild"])
    def test_first_sweeps_on_a_basis_are_screened_in_full(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            schedule):
        # the first reduced sweep carries no bound: it starts at zero, as
        # the sweep records, and a sweep after a rebuild starts at the
        # mapped answers of the sweep before it
        starts = []
        solve_many = er.ReducedModel.solve_many

        def recording(model, mus, cfg=None, *, initial):
            starts.append(not np.any(initial))
            return solve_many(model, mus, cfg, initial=initial)

        monkeypatch.setattr(er.ReducedModel, "solve_many", recording)
        swept, _ = self.build(problem8, train6, newton_roomy, monkeypatch,
                              schedule)
        # the last call makes the final model's start table
        assert len(starts) == len(swept) + 1 and starts[0]
        for cold, (step, U, _, _) in zip(starts, swept):
            if cold:
                assert np.all(U == np.inf)
                assert step.screened == len(train6)

    def test_a_restarted_or_failed_row_is_screened_in_full(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch):
        # the block solve fails row 12 in the second reduced sweep, whose
        # restart converges, and row 20 in the third, whose restart fails
        # too: each row carries no bound in that sweep and the next
        solve_many, solve = er.ReducedModel.solve_many, er.ReducedModel.solve
        calls = []

        def failing(model, mus, cfg=None, *, initial):
            calls.append(len(calls))
            coeffs, failures = solve_many(model, mus, cfg, initial=initial)
            forced = {1: 12, 2: 20}.get(calls[-1])
            if forced is not None:
                coeffs[forced] = 0.0
                failures[forced] = er.SolverFailure("forced")
            return coeffs, failures

        def failing_solve(model, mu, cfg=None, initial=None):
            if calls[-1] == 2 and tuple(mu) == tuple(train6[20]):
                raise er.SolverFailure("forced again")
            return solve(model, mu, cfg, initial)

        monkeypatch.setattr(er.ReducedModel, "solve_many", failing)
        monkeypatch.setattr(er.ReducedModel, "solve", failing_solve)
        swept, result = self.build(problem8, train6, newton_roomy,
                                   monkeypatch, "r1")
        assert [k for k, _, _ in result.report.skipped] == [20]
        U = [u for _, u, _, _ in swept]
        assert [r for *_, r in swept][1:3] == [[12], [20]]
        assert U[1][12] == U[2][12] == np.inf
        assert U[2][20] == U[3][20] == np.inf
        for u in U[1:4]:
            assert np.isfinite(u).sum() > len(train6) // 2
        # a row that carries no bound is screened: its bracket is not U / 2
        for (step, u, (est, dev), _), k in zip(swept[1:4], (12, 12, 20)):
            assert np.isfinite(dev[k]) and est[k] != dev[k]

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    def test_same_archive_and_summary_as_without_carrying(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            tmp_path, schedule):
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        carrying = build_bytes(problem8, cfg, tmp_path / "carrying.npz")
        start = eimrb.screen.Float32Screen.start
        monkeypatch.setattr(
            eimrb.screen.Float32Screen, "start",
            lambda screen, carried: start(screen,
                                          np.full_like(carried, np.inf)))
        every_row = build_bytes(problem8, cfg, tmp_path / "every_row.npz")
        assert carrying[0] == every_row[0]
        assert carrying[1] == every_row[1]
        screened = [s.screened for s in carrying[2].report.steps
                    if s.screened is not None]
        if schedule in ("r1", "r2"):
            assert min(screened) < len(train6)
        assert all(s.screened in (None, len(train6))
                   for s in every_row[2].report.steps)

    def test_an_unbounded_screen_carries_no_bound(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch):
        # the reference of TestBitwise: with every screen bound inf, no
        # row carries a bound, so every row is screened
        steps = record_carried(monkeypatch)
        unbounded(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES["r1"])
        er.build_ser(problem8, cfg)
        swept = [(step, U) for step, U, *_ in steps if U is not None]
        assert len(swept) >= 3
        for step, U in swept:
            assert np.all(U == np.inf)
            assert step.screened == len(train6)


    def test_the_basis_change_term_bounds_each_rows_move(
            self, problem8, train5, newton_roomy, monkeypatch):
        # at each rebuild after a reduced sweep, the sweep's answers c_a
        # on V_a are mapped to m on the new V_b, and offset bounds the
        # sup distance of the two lifts, made densely here in extended
        # precision
        rebased = []
        rebase = eimrb.screen.SweepBounds.rebased

        def recording(bounds, basis, new_basis, new_x_basis):
            mapped = rebase(bounds, basis, new_basis, new_x_basis)
            rebased.append((bounds, basis, new_basis, mapped))
            return mapped

        monkeypatch.setattr(eimrb.screen.SweepBounds, "rebased", recording)
        er.build_ser(problem8, small_config("rebuild_small", train5,
                                            newton_roomy))
        # the first update maps what no sweep carries from the empty
        # basis, and the updates after the three reduced sweeps are
        # rebuilds
        assert len(rebased) == 4
        bounds, basis, _, mapped = rebased[0]
        assert bounds.M == 0 and len(basis) == 0
        assert np.all(mapped.coeffs == 0.0) and np.all(mapped.offset == 0.0)
        wide = np.longdouble
        for bounds, basis, new_basis, mapped in rebased:
            assert np.all(bounds.offset == 0.0)
            assert mapped.coeffs.shape == (len(train5), len(new_basis))
            moved = np.abs(bounds.coeffs.astype(wide) @ basis.astype(wide)
                           - mapped.coeffs.astype(wide)
                           @ new_basis.astype(wide)).max(axis=1)
            assert np.all(moved <= mapped.offset)
            # and is not loose: some row moves by half its offset
            assert np.any(moved >= 0.5 * mapped.offset)
            # the other fields carry over as they are
            assert mapped.M == bounds.M and mapped.tops is bounds.tops
            assert mapped.lo is bounds.lo and mapped.hi is bounds.hi

    def test_the_unknown_prior_carries_nothing(self, problem8, ser_small,
                                               train5, small_chunks):
        # what a first reduced sweep starts from: mapped onto a new basis
        # from a non-empty one it stays exactly zero, and a screen that
        # reads it carries no bound on any row
        samples = list(train5)
        prior = eimrb.screen.SweepBounds.unknown(len(samples))
        assert prior.M == 0 and prior.coeffs.shape == (len(samples), 0)
        assert np.all(prior.tops == np.inf) and np.all(prior.offset == 0.0)
        assert np.isnan(prior.lo).all() and np.isnan(prior.hi).all()
        basis, model, coeffs = sweep_setup(ser_small)
        space = er.RbSpace(problem8)
        for k in (0, 12, 24):
            space.add_snapshot(model.basis @ coeffs[k], samples[k])
        mapped = prior.rebased(model.basis.T, space.basis, space.x_basis)
        assert mapped.coeffs.shape == (len(samples), space.N)
        assert np.all(mapped.coeffs == 0.0) and np.all(mapped.offset == 0.0)
        block = eimrb.ser.ReducedGBlock(model, samples, coeffs, [],
                                        prior.padded(model.N))
        screen = block.screen(np.asarray(basis.t), basis.B, basis.fields, 3)
        assert np.all(screen.carried == np.inf)
        # the screen brackets its first chunk of six rows, with bounds
        # of their own
        assert screen.screened.sum() == 6
        assert np.isfinite(screen.brackets[1][screen.screened]).all()

    @pytest.mark.parametrize("schedule", ["r1", "r2"])
    def test_a_basis_that_extends_carries_the_zero_padded_prior(
            self, problem8, train6, newton_roomy, monkeypatch, schedule):
        # without a rebuild each sweep's prior is the last sweep's bounds
        # with a zero coefficient for each basis vector added since, and
        # no offset; the first reduced sweep's is the unknown prior, on
        # the r2 build across the truth sweeps too.  handed holds the
        # priors the build hands to the sweeps, priors those the blocks
        # read, and answers the blocks' reduced solutions
        handed, priors, answers = [], [], []
        reduced_g_block = eimrb.ser.reduced_g_block

        def recording(model, newton, prior):
            handed.append(prior)
            provider = reduced_g_block(model, newton, prior)

            def recorded(samples):
                block, failures = provider(samples)
                priors.append(block.prior)
                answers.append(block.coeffs)
                return block, failures
            return recorded

        monkeypatch.setattr(eimrb.ser, "reduced_g_block", recording)
        steps = record_carried(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        er.build_ser(problem8, cfg)
        assert len(priors) == len(handed) >= 3
        assert all(isinstance(prior, eimrb.screen.SweepBounds)
                   for prior in handed + priors)
        first = handed[0]
        assert first.M == 0 and first.coeffs.shape == (len(train6), 0)
        assert np.all(first.tops == np.inf) and np.all(first.offset == 0.0)
        assert np.all(priors[0].coeffs == 0.0)
        swept = [step for step, U, *_ in steps if U is not None]
        for step, last, prior in zip(swept, answers, priors[1:]):
            n = last.shape[1]
            assert prior.M == step.bounds.M and prior.tops is step.bounds.tops
            assert same_bits(prior.coeffs[:, :n], last)
            assert np.all(prior.coeffs[:, n:] == 0.0)
            assert np.all(prior.offset == 0.0)


class TestOverflow:
    def scaled(self, model, coeffs, k, x, mus):
        """coeffs with row k scaled so that mu2 max u = x at mus[k]."""
        u = model.basis @ coeffs[k]
        coeffs[k] *= x / (mus[k][1] * u.max())

    def test_float32_overflow_is_confirmed_and_not_skipped(
            self, ser_small, train5, small_chunks, monkeypatch):
        # rows 10 and 20 are finite in float64 but overflow in float32
        # (mu2 u from 89 to 709); row 20 is the worst
        samples = list(train5)
        basis, model, coeffs = sweep_setup(ser_small)
        self.scaled(model, coeffs, 10, 150.0, samples)
        self.scaled(model, coeffs, 20, 300.0, samples)
        u32 = (coeffs.astype(np.float32)
               @ model.basis.T.astype(np.float32))
        with np.errstate(over="ignore"):
            g32 = model.problem.term.g(
                u32, np.asarray(samples).astype(np.float32))
        assert g32.dtype == np.float32
        assert np.isinf(g32[[10, 20]]).any(axis=1).all()
        steps = record_screens(monkeypatch)
        step = eimrb.ser.eim_greedy_step(basis, reduced_provider(model, coeffs),
                                         samples)
        assert steps[0][0] is step
        est, dev = steps[0][1]
        assert np.isinf(dev[[10, 20]]).all()
        assert 10 // 3 in step.confirmed and 20 // 3 in step.confirmed
        assert step.skipped == []
        assert np.isfinite(step.errors).all()
        assert step.mu == samples[20]

    def test_skips_keep_their_messages_and_order(self, ser_small, train5,
                                                 small_chunks, monkeypatch):
        # a provider failure, a row that overflows in float64 too and a
        # nan row, each in a chunk of its own, against a float64 pass over
        # every chunk
        samples = list(train5)
        failures = {7: er.SolverFailure("synthetic singular solve")}

        def step_of():
            basis, model, coeffs = sweep_setup(ser_small)
            self.scaled(model, coeffs, 11, 2000.0, samples)
            coeffs[20] = np.nan
            step = er.eim_greedy_step(
                basis, reduced_provider(model, coeffs, failures), samples)
            return step, basis

        screened, basis = step_of()
        unbounded(monkeypatch)
        full, full_basis = step_of()
        assert screened.skipped == full.skipped == [
            (7, samples[7], "synthetic singular solve"),
            (11, samples[11], "snapshot field overflowed"),
            (20, samples[20], "snapshot field overflowed")]
        assert screened.mu == full.mu
        assert screened.sup_error == full.sup_error
        assert len(screened.confirmed) < len(full.confirmed)
        assert screened.errors.tobytes() == full.errors.tobytes()
        assert basis.fields[-1].tobytes() == full_basis.fields[-1].tobytes()


class TestSweepErrors:
    """Given bounds that hold, the float64 pass runs on every chunk that
    may hold the largest error, and the ranking follows the errors."""

    # row 4 has the largest error and the lowest estimate, with a wide
    # bound that still reaches the floor set by row 1's tight one; row 5
    # is skipped
    ERRORS = np.array([0.1, 0.5, 0.2, 0.3, 0.6, np.nan])
    EST = np.array([0.105, 0.5, 0.195, 0.3, 0.15, 0.0])
    DEV = np.array([0.01, 0.01, 0.01, 0.01, 0.5, np.inf])

    def sweep(self):
        ran = []

        def chunk_pass(lo, hi):
            ran.append(lo // 2)
            return None, self.ERRORS[lo:hi].copy()

        bad = np.isnan(self.ERRORS)
        return (eimrb.eim.SweepErrors(chunk_pass, 2, bad, self.EST, self.DEV,
                                      None), ran)

    def test_a_row_whose_bound_reaches_the_floor_is_a_leader(self):
        assert np.all(np.abs(self.EST - self.ERRORS)[:5] <= self.DEV[:5])
        sweep, _ = self.sweep()
        assert sweep.leaders(~np.isnan(self.ERRORS)) == [0, 2]

    def test_worst_first_runs_the_chunks_each_index_needs(self):
        sweep, ran = self.sweep()
        order = sweep.worst_first()
        assert next(order) == 4 and ran == [0, 2]
        assert list(order) == [1, 3, 2, 0, 5]
        assert sorted(ran) == [0, 1, 2]
        assert sweep.errors.tobytes() == self.ERRORS.tobytes()

    def test_a_row_left_out_is_screened_before_its_chunk_runs(self):
        # rows 2 and 3 were left out with brackets [0, U], [0, 0.4] and
        # [0, 0.8]; the screen brackets a row as EST and DEV do when its
        # U reaches the floor of the rows left, so chunk 1 runs only for
        # the third index, as with the screen's brackets for every row
        class Screen:
            def __init__(self):
                self.screened = np.array([True, True, False, False, True,
                                          True])
                self.asked = []

            def bracket(self, idx):
                self.asked.append(idx.tolist())
                self.screened[idx] = True
                return TestSweepErrors.EST[idx], TestSweepErrors.DEV[idx]

        est, dev = self.EST.copy(), self.DEV.copy()
        est[2] = dev[2] = 0.2
        est[3] = dev[3] = 0.4
        ran = []

        def chunk_pass(lo, hi):
            ran.append(lo // 2)
            return None, self.ERRORS[lo:hi].copy()

        screen = Screen()
        sweep = eimrb.eim.SweepErrors(chunk_pass, 2, np.isnan(self.ERRORS),
                                      est, dev, screen)
        order = sweep.worst_first()
        assert next(order) == 4 and ran == [0, 2] and screen.asked == [[3]]
        assert next(order) == 1 and ran == [0, 2] and screen.asked == [[3]]
        assert next(order) == 3 and ran == [0, 2, 1]
        assert screen.asked == [[3], [2]]
        assert list(order) == [2, 0, 5]
        assert sweep.errors.tobytes() == self.ERRORS.tobytes()


class TestSelection:
    """The rows a sweep screens before its float64 pass: the screen's
    first chunk, the rows with the largest carried bound U, sets a floor
    max(est - dev), and every other row whose U reaches it is screened
    too (``SweepErrors.refine`` over every row); the rest enter as the
    bracket [0, U]."""

    # rows 1 and 4 carry no bound and row 3 the largest; row 3's bracket
    # sets the floor 0.55 (row 4's bound is inf), which rows 0 and 7
    # reach, row 7 exactly, and rows 2, 5 and 6 do not
    U = np.array([0.7, np.inf, 0.2, 0.9, np.inf, 0.05, 0.4, 0.55])
    EST = np.array([0.3, 0.3, 0.1, 0.6, 0.2, 0.02, 0.15, 0.5])
    DEV = np.array([0.01, 0.01, 0.01, 0.05, np.inf, 0.01, 0.01, 0.01])

    class Screen(eimrb.screen.Float32Screen):
        """The screen's own selection, with hand-made brackets."""

        def __init__(self, carried, rows):
            self.rows, self.asked = rows, []
            self.screened = np.zeros(len(carried), dtype=bool)
            self.brackets = self.start(carried)

        def bracket(self, idx):
            self.asked.append(idx.tolist())
            self.screened[idx] = True
            return TestSelection.EST[idx], TestSelection.DEV[idx]

    def test_rows_that_may_hold_the_largest_error_are_screened(self):
        screen = self.Screen(self.U, 3)
        est, dev = screen.brackets
        sweep = eimrb.eim.SweepErrors(None, 2, np.zeros(8, dtype=bool),
                                      est, dev, screen)
        sweep.refine(np.ones(8, dtype=bool))
        assert screen.asked == [[1, 3, 4], [0, 7]]
        bracketed = [1, 3, 4, 0, 7]
        assert np.all(sweep.est[bracketed] == self.EST[bracketed])
        assert np.all(sweep.dev[bracketed] == self.DEV[bracketed])
        rest = [2, 5, 6]
        assert np.all(sweep.est[rest] == self.U[rest] / 2)
        assert np.all(sweep.dev[rest] == self.U[rest] / 2)
        assert np.flatnonzero(screen.screened).tolist() == sorted(bracketed)
        assert screen.screened.sum() == sum(map(len, screen.asked))


class TestOrder:
    def test_equal_worst_rows_in_different_chunks_pick_the_first(
            self, ser_small, train5, small_chunks):
        # the samples twice over: row k and row k + 25 are equal and lie
        # in different chunks
        samples = list(train5) * 2
        basis, model, coeffs = sweep_setup(ser_small)
        coeffs = np.vstack([coeffs, coeffs])
        step = er.eim_greedy_step(basis, reduced_provider(model, coeffs),
                                  samples)
        errors = step.errors
        k = int(np.nanargmax(errors))
        assert k < 25 and errors[k] == errors[k + 25]
        assert step.mu == samples[k] and step.sup_error == errors[k]
        assert basis.mus[-1] == samples[k]

    @pytest.mark.parametrize("schedule", ["r1", "r2"])
    def test_worst_first_is_the_stable_order_of_the_errors(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            schedule):
        steps = record_screens(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        er.build_ser(problem8, cfg)
        partial = 0
        # the carried bound left rows out of some sweep
        assert min(step.screened for step, _ in steps
                   if step.screened is not None) < len(train6)
        for step, screen in steps:
            # copies taken before the errors are read: the first index of
            # one runs only the chunks that may hold it
            lazy, first = copy.deepcopy(step), copy.deepcopy(step)
            leader = next(first.sweep.worst_first())
            partial += not first.sweep.ran.all()
            order = list(lazy.sweep.worst_first())
            expected = np.argsort(np.nan_to_num(-step.errors, nan=np.inf),
                                  kind="stable").tolist()
            assert order == expected
            assert leader == expected[0]
            assert step.mu == cfg.train_set[leader]
        assert partial > 0


class TestBitwise:
    """Builds with the screen write the bytes of builds that run every
    chunk in float64."""

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    def test_same_archive_and_summary_as_float64_sweeps(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            tmp_path, schedule):
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        screened = build_bytes(problem8, cfg, tmp_path / "screened.npz")
        unbounded(monkeypatch)
        full = build_bytes(problem8, cfg, tmp_path / "full.npz")
        assert screened[0] == full[0]
        assert screened[1] == full[1]
        confirmed = [s.confirmed for s in screened[2].report.steps
                     if s.kind == "eim" and s.confirmed is not None]
        if schedule != "standard":
            assert min(confirmed) < 12

    def test_same_bytes_when_a_rejected_snapshot_reaches_the_ranked_tail(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            tmp_path):
        # the fourth snapshot tried is rejected as dependent, so its
        # update takes the next candidate from the last sweep's ranking
        add_snapshot = er.RbSpace.add_snapshot
        tried = []

        def dependent_fourth(space, values, mu):
            tried.append(mu)
            if len(tried) == 4:
                raise er.DependentSnapshot(f"forced at mu={mu}")
            return add_snapshot(space, values, mu)

        monkeypatch.setattr(er.RbSpace, "add_snapshot", dependent_fourth)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES["r1"])
        screened = build_bytes(problem8, cfg, tmp_path / "screened.npz")
        steps = screened[2].report.steps
        at = [s.kind for s in steps].index("reject")
        picks = [s.mu for s in steps[:at] if s.kind == "eim"]
        # the replacement is not a pick of the group, so it came from the
        # ranking of the last sweep
        assert steps[at + 1].kind == "rb" and steps[at + 1].mu != picks[-1]
        tried.clear()
        unbounded(monkeypatch)
        full = build_bytes(problem8, cfg, tmp_path / "full.npz")
        assert screened[0] == full[0]
        assert screened[1] == full[1]


class TestRecord:
    def test_steps_carry_their_confirmed_chunks_outside_the_summary(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch):
        steps = record_screens(monkeypatch)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES["r1"])
        report = er.build_ser(problem8, cfg).report
        eim_steps = [s for s in report.steps if s.kind == "eim"]
        assert eim_steps[0].confirmed is None    # the first, no sweep
        assert ([s.confirmed for s in eim_steps[1:]]
                == [len(step.confirmed) for step, _ in steps])
        assert all(s.confirmed is None for s in report.steps
                   if s.kind != "eim")
        assert all("confirmed" not in s for s in report.summary_dict()["steps"])

    @pytest.mark.parametrize("schedule", ["r1", "r2", "standard"])
    def test_steps_carry_their_screened_rows_outside_the_summary(
            self, problem8, train6, newton_roomy, small_chunks, monkeypatch,
            schedule):
        # the rows the float32 screen lifted in each reduced sweep; None
        # for a truth sweep and for a step that is not a sweep
        lifted, sweeping = [], []
        bracket, greedy_step = (eimrb.screen.Float32Screen.bracket,
                                eimrb.ser.eim_greedy_step)

        def counted(screen, idx):
            if sweeping:
                if sweeping[-1] is None:
                    lifted.append(0)
                    sweeping[-1] = True
                lifted[-1] += len(idx)
            return bracket(screen, idx)

        def counting(*args):
            sweeping.append(None)
            try:
                return greedy_step(*args)
            finally:
                sweeping.clear()

        monkeypatch.setattr(eimrb.screen.Float32Screen, "bracket", counted)
        monkeypatch.setattr("eimrb.ser.eim_greedy_step", counting)
        cfg = er.SerConfig(train_set=train6, newton=newton_roomy,
                           **SCHEDULES[schedule])
        report = er.build_ser(problem8, cfg).report
        # rows screened later, when an update ranks a sweep's rows, are
        # not the sweep's
        sweeps = [s.screened for s in report.steps
                  if s.kind == "eim" and s.confirmed is not None]
        truth = 0 if schedule == "r1" else len(sweeps) - len(lifted)
        assert sweeps[:truth] == [None] * truth
        assert sweeps[truth:] == lifted
        assert all(s.screened is None for s in report.steps
                   if s.kind != "eim" or s.confirmed is None)
        assert all("screened" not in s
                   for s in report.summary_dict()["steps"])

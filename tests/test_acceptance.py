"""Acceptance suite: production-scale checks, one pass/fail line each.

Run with `python -m pytest tests/test_acceptance.py -v -s`.  The heavy
builds (mesh n=32, P2, 20x20 training grid, 225 random test parameters)
are shared session fixtures, so the whole module runs in under a minute.
"""

import copy
import time
import warnings

import numpy as np
import pytest

import eimrb as er

from conftest import eim_train, poisson_solve, quad_l2_error, rows_provider

TABLE_STANDARD = [(4, 5, 7.38e-3), (8, 10, 1.01e-3), (12, 15, 1.49e-4),
                  (16, 20, 2.21e-5), (20, 25, 5.88e-6)]
TABLE_R5 = [(4, 5, 8.21e-3), (8, 10, 4.48e-3), (12, 15, 2.69e-4),
            (16, 20, 1.48e-4), (20, 25, 2.60e-5)]
TABLE_R1_REBUILD = [(5, 5, 9.98e-3), (10, 10, 2.32e-3), (15, 15, 4.61e-4),
                    (20, 20, 2.48e-4), (25, 25, 3.51e-5)]
TABLE_R1 = [(5, 5, 1.30e-2), (10, 10, 2.20e-3), (15, 15, 4.83e-4),
            (20, 20, 2.42e-4), (25, 25, 1.50e-5)]

ENVELOPE = 10.0
SER_VS_STANDARD = 100.0


def verdict(ok, label, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  [{detail}]" if detail else ""))
    return ok


@pytest.fixture(scope="session")
def bench():
    return er.benchmark_problem(32, 2)


@pytest.fixture(scope="session")
def train20():
    return er.SampleSet.log_grid(20, 20)


@pytest.fixture(scope="session")
def test225():
    return er.SampleSet.log_random(225, 42)


@pytest.fixture(scope="session")
def references(bench):
    return er.TruthReferences(bench)


@pytest.fixture(scope="session")
def std_build(bench, train20):
    cfg = er.SerConfig(r="standard", n_max=20, m_max=25, train_set=train20,
                       checkpoints=er.default_checkpoints("standard", 20, 25))
    t0 = time.perf_counter()
    result = er.build_ser(bench, cfg)
    result.report.wall_time = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def ser1_run(bench, train20):
    """The r=1 build and the RuntimeWarnings that leaked out of it."""
    cfg = er.SerConfig(r=1, n_max=25, m_max=25, train_set=train20,
                       checkpoints=er.default_checkpoints(1, 25, 25))
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = er.build_ser(bench, cfg)
    result.report.wall_time = time.perf_counter() - t0
    leaked = [str(w.message) for w in caught
              if issubclass(w.category, RuntimeWarning)]
    return result, leaked


@pytest.fixture(scope="session")
def ser1_build(ser1_run):
    return ser1_run[0]


@pytest.fixture(scope="session")
def ser1_rebuild_build(bench, train20):
    cfg = er.SerConfig(r=1, rebuild_wn=True, n_max=25, m_max=25,
                       train_set=train20,
                       checkpoints=er.default_checkpoints(1, 25, 25))
    return er.build_ser(bench, cfg)


@pytest.fixture(scope="session")
def ser5_build(bench, train20):
    cfg = er.SerConfig(r=5, n_max=20, m_max=25, train_set=train20,
                       checkpoints=er.default_checkpoints(5, 20, 25))
    return er.build_ser(bench, cfg)


@pytest.mark.parametrize("name", ["std_build", "ser5_build", "ser1_build",
                                  "ser1_rebuild_build"])
def test_interpolation_matrix_is_unit_lower_triangular(name, request):
    # the dense solves with B rely on it: with no entry above 1 in size,
    # numpy's LU solve pivots no row and runs the triangular solve
    result = request.getfixturevalue(name)
    r, model = result.report.r, result.model
    models = ([result.eim_g, model] + list(result.checkpoints.values())
              + [model.restrict(n, m) for n, m in
                 er.default_checkpoints(r, model.N, model.M)])
    for each in models:
        b = each.B
        assert np.all(np.diag(b) == 1.0)
        assert np.all(np.triu(b, 1) == 0.0)
        assert np.all(np.abs(b) <= 1.0)


def study(result, test_set, refs, table):
    checkpoints = [(n, m) for (n, m, _) in table]
    return er.run_error_study(result, test_set, checkpoints, references=refs)


def envelope_ok(rows, table, factor=ENVELOPE):
    return all(row.max_err_u <= factor * target
               for row, (_, _, target) in zip(rows, table))


def test_criterion_1_fem_convergence():
    t0 = time.perf_counter()
    ok = True
    rates = []
    for degree in (1, 2):
        errs, hs = [], []
        for n in (8, 16, 32):
            space = er.FESpace(er.Mesh(n), degree)
            exact = lambda xy: np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1])
            rhs = lambda xy: 2 * np.pi**2 * exact(xy)
            errs.append(quad_l2_error(space, poisson_solve(space, rhs), exact))
            hs.append(1.0 / n)
        rate = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        rates.append(rate)
        ok = ok and abs(rate - (degree + 1)) <= 0.2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert verdict(ok, "criterion 1: manufactured Poisson rates = degree+1 +-0.2",
                   f"rates={rates[0]:.2f},{rates[1]:.2f} {elapsed:.1f}s")


def test_criterion_2_eim_structure(std_build, space8):
    checks = []

    def structural(basis):
        b = basis.B
        lower = all(abs(b[i, j]) <= 1e-12
                    for i in range(basis.M) for j in range(i + 1, basis.M))
        diag = all(abs(b[i, i] - 1.0) <= 1e-12 for i in range(basis.M))
        norm = all(abs(np.max(np.abs(q)) - 1.0) <= 1e-12 for q in basis.fields)
        errs = basis.train_errors[1:]
        monotone = all(y <= x + 1e-13 for x, y in zip(errs, errs[1:]))
        return lower and diag and norm and monotone

    # synthetic rank-2 family with a brute-force oracle over a 10x10 grid
    grid = list(er.SampleSet.log_grid(10, 10))
    x = space8.dof_coords[:, 0]
    field = lambda mu: mu[0] * x + mu[1] * x**2
    basis = eim_train(space8, rows_provider(field), grid, m_max=2)
    exact2 = max(basis.sup_error(field(mu)) for mu in grid)
    checks.append(structural(basis) and exact2 <= 1e-12)

    # interpolation exactness at the points, synthetic basis
    for k, mu in enumerate(basis.mus):
        w = field(mu)
        diff = np.abs((w - basis.interpolate(w))[basis.t[:k + 1]])
        checks.append(np.all(diff <= 1e-12 * max(1.0, np.max(np.abs(w)))))

    # benchmark truth-provider basis from the production build
    g_basis = std_build.eim_g
    checks.append(structural(g_basis))
    # the online model holds that interpolant's points and matrix
    checks.append(std_build.model.t.tolist() == g_basis.t
                  and np.array_equal(std_build.model.B, g_basis.B))
    assert verdict(all(checks), "criterion 2: interpolation structure "
                   "(triangular B, unit norms, exactness, monotone decay)",
                   f"rank-2 exactness {exact2:.1e}, benchmark M={g_basis.M}")


def test_criterion_3_solve_count_claim(bench, train20, ser1_build):
    t25 = ser1_build.report.wall_time
    counts = {25: ser1_build.report.fe_solve_count}
    for n_max in (5, 10):
        cfg = er.SerConfig(r=1, n_max=n_max, m_max=n_max, train_set=train20)
        counts[n_max] = er.build_ser(bench, cfg).report.fe_solve_count
    ok = all(counts[n] == n + 1 for n in (5, 10, 25)) and t25 < 300.0
    assert verdict(ok, "criterion 3: r=1 build costs exactly N+1 truth solves",
                   f"counts={counts} t(N=25)={t25:.0f}s")


def test_r1_build_leaks_no_runtime_warning(ser1_run):
    # the build's sweeps include diverging reduced solves (the skipped
    # samples), which must be classified as failures without a warning
    result, leaked = ser1_run
    ok = not leaked
    assert verdict(ok, "r=1 build leaks no RuntimeWarning",
                   f"{len(leaked)} leaked, {len(result.report.skipped)} "
                   f"sweep evaluations skipped")


def test_r1_build_skips_no_sweep_evaluation(ser1_run):
    # every training parameter converges in every sweep, so the greedy
    # ranks the whole training set, the mu2 = 10 edge included
    result, _ = ser1_run
    skipped = result.report.skipped
    assert verdict(not skipped, "r=1 build skips no sweep evaluation",
                   f"{len(skipped)} skipped, at "
                   f"{len({tuple(mu) for _, mu, _ in skipped})} parameters")


def test_online_start_saves_newton_iterations(ser1_build):
    # clock-free: over a 40x40 log grid, a query started at the tangent
    # prediction from the model's own solution at the nearest training
    # parameter fails nowhere, takes at most 1.5 Newton iterations on
    # average and 3 at most, and answers within the Newton tolerance of
    # the same query started from zero
    model = ser1_build.model
    zero = np.zeros(model.N)
    warm_iters, cold_iters, worst = [], [], 0.0
    for mu in er.SampleSet.log_grid(40, 40):
        warm = model.solve(mu)          # a failure here fails the test
        try:
            cold = model.solve(mu, initial=zero)
        except (er.NewtonFailure, er.SolverFailure):
            continue
        warm_iters.append(warm.newton_iters)
        cold_iters.append(cold.newton_iters)
        worst = max(worst, float(np.abs(warm.coeffs - cold.coeffs).max()
                                 / np.abs(cold.coeffs).max()))
    ok = (np.mean(warm_iters) <= 1.5 and max(warm_iters) <= 3
          and worst <= 1e-8)
    assert verdict(ok, "online start at the tangent prediction from the "
                   "nearest training solution saves Newton iterations over "
                   "a 40x40 grid",
                   f"mean {np.mean(cold_iters):.2f} -> "
                   f"{np.mean(warm_iters):.2f}, max {max(cold_iters)} -> "
                   f"{max(warm_iters)}, coefficients within {worst:.1e}")


def test_r5_sweep_models_answer_every_online_query(ser5_build):
    # clock-free: the restrictions of the r=5 build whose sweeps skip
    # evaluations on the mu2 = 10 edge answer every point of a 40x40 log
    # grid from their own start tables
    grid = list(er.SampleSet.log_grid(40, 40))
    failed, most = {}, 0
    for n, m in ((4, 6), (4, 7), (12, 16), (12, 17)):
        model = ser5_build.model.restrict(n, m)
        failed[(n, m)] = 0
        for mu in grid:
            try:
                most = max(most, model.solve(mu).newton_iters)
            except (er.NewtonFailure, er.SolverFailure):
                failed[(n, m)] += 1
    assert verdict(not any(failed.values()), "r=5 sweep models answer every "
                   "query of a 40x40 grid",
                   f"failures {failed}, max {most} iterations")


def test_criterion_4_standard_error_profile(std_build, test225, references,
                                            train20):
    rows = study(std_build, test225, references, TABLE_STANDARD)
    errs = [row.max_err_u for row in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (std_build.report.wall_time < 1800.0 and decreasing
          and envelope_ok(rows, TABLE_STANDARD)
          and all(row.failures == 0 for row in rows)
          and std_build.report.fe_solve_count == len(train20)
          and errs[-1] <= errs[0] / 10.0
          and rows[-1].max_err_s <= 1e-4)
    assert verdict(ok, "criterion 4: sequential build error profile within "
                   "10x of the reference rows and strictly decreasing",
                   " ".join(f"{e:.1e}" for e in errs))


def test_criterion_5_ser_error_profiles(ser1_build, ser1_rebuild_build,
                                        ser5_build, std_build, test225,
                                        references):
    rows_std = study(std_build, test225, references, TABLE_STANDARD)
    details = []
    ok = True
    for result, table, name in ((ser1_build, TABLE_R1, "r=1"),
                                (ser1_rebuild_build, TABLE_R1_REBUILD, "r=1-rebuild"),
                                (ser5_build, TABLE_R5, "r=5")):
        rows = study(result, test225, references, table)
        ok = ok and envelope_ok(rows, table)
        ok = ok and rows[-1].max_err_u <= rows[0].max_err_u / 10.0
        # positional comparison against the sequential build
        ok = ok and all(r.max_err_u <= SER_VS_STANDARD * s.max_err_u
                        for r, s in zip(rows, rows_std))
        details.append(f"{name}:{rows[-1].max_err_u:.1e}")
    assert verdict(ok, "criterion 5: alternating builds within 10x of their "
                   "reference rows and within 100x of the sequential build",
                   " ".join(details))


def test_study_references_match_cold_truth_solves(bench, std_build, test225,
                                                  references):
    # the studies start each reference from a model's lifted solution; the
    # stopping rule is the cold one, so they agree with solves from u = 0
    first40 = er.SampleSet(test225.points[:40])
    er.run_error_study(std_build, first40, [(20, 25)], references=references)
    worst = max(float(np.abs(references.get(mu)[0]
                             - er.truth_newton_solve(bench, mu)[0]).max())
                for mu in first40)
    assert verdict(worst <= 1e-9, "study references agree with cold truth "
                   "solves over the first 40 test parameters",
                   f"max difference {worst:.1e}")


def test_criterion_6_reproduction_property():
    # trains the interpolant to saturation over a small sample, then asserts
    # the reduced fixed point coincides with every snapshot; the online solve
    # is warm-started from each snapshot's projection, which is the designed
    # mode for solving at trained parameters
    problem = er.benchmark_problem(16, 2)
    train = er.SampleSet.log_grid(4, 4)
    cfg = er.SerConfig(r="standard", n_max=6, m_max=2 * len(train),
                       train_set=train)
    result = er.build_ser(problem, cfg)
    model = result.model
    g_err = result.eim_g.train_errors[-1]
    # the basis is orthonormal in x_op, so x_op @ basis projects onto it
    x_basis = (problem.stiffness + problem.mass) @ model.basis
    worst = 0.0
    for mu in model.snapshot_mus:
        u_ref, _ = er.truth_newton_solve(problem, mu)
        c0 = u_ref @ x_basis
        sol = model.solve(mu, er.NewtonConfig(max_iter=200), initial=c0)
        du = u_ref - model.lift_values(sol)
        worst = max(worst, float(np.sqrt(du @ (problem.mass @ du))))
    ok = worst <= 1e-8
    assert verdict(ok, "criterion 6: saturated interpolant reproduces every "
                   "snapshot to 1e-8",
                   f"worst={worst:.1e} final recorded train err={g_err:.1e}")


def test_criterion_7_online_mesh_independence():
    # the two models are trained on different meshes, so their Newton
    # iteration counts can differ per parameter for reasons unrelated to the
    # mesh size; restrict the timing batch to parameters where both models do
    # identical iteration work, then compare interleaved best-of-N batches
    probe = list(er.SampleSet.log_random(100, 7))
    train = er.SampleSet.log_grid(6, 6)

    def build_model(n):
        problem = er.benchmark_problem(n, 2)
        cfg = er.SerConfig(r="standard", n_max=20, m_max=25, train_set=train)
        return er.build_ser(problem, cfg).model

    m32 = build_model(32)
    m64 = build_model(64)
    batch = [mu for mu in probe
             if m32.solve(mu).newton_iters == m64.solve(mu).newton_iters]
    assert len(batch) >= 50

    def batch_time(model):
        # CPU time of this thread: the time the host gives to other
        # processes during a batch does not count against either mesh
        t0 = time.thread_time()
        for mu in batch:
            model.solve(mu)
        return time.thread_time() - t0

    batch_time(m32), batch_time(m64)  # warm up
    # alternate the two models, so that host drift hits both alike
    t32 = t64 = float("inf")
    for _ in range(9):
        t32 = min(t32, batch_time(m32))
        t64 = min(t64, batch_time(m64))
    ratio = t64 / t32
    ok = abs(ratio - 1.0) < 0.20
    assert verdict(ok, "criterion 7: online solve time unchanged (<20%) when "
                   "the mesh is refined 32 -> 64",
                   f"t32={t32 * 1e3:.0f}ms t64={t64 * 1e3:.0f}ms "
                   f"ratio={ratio:.3f} batch={len(batch)}")


def untouchable(name):
    """Stand-in for an ndof-sized member: any use raises."""
    def fail(*args, **kwargs):
        raise AssertionError(f"the online solve used {name}")
    dunders = ("__getattr__", "__getitem__", "__iter__", "__len__", "__bool__",
               "__array__", "__array_ufunc__", "__array_function__",
               "__matmul__", "__rmatmul__", "__mul__", "__rmul__",
               "__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
    return type("Untouchable", (), dict.fromkeys(dunders, fail))()


def test_criterion_7_companion_online_solve_touches_no_ndof_member(ser1_build,
                                                                   test225):
    # deterministic companion of the timing gate: the online solve gives
    # bitwise the same answers when every ndof-sized member is unusable
    model = ser1_build.model
    blind = copy.copy(model)
    blind.basis = untouchable("model.basis")
    blind.problem = copy.copy(model.problem)
    for name in ("space", "stiffness", "mass", "load", "_mass_row_sums",
                 "interior_block"):
        setattr(blind.problem, name, untouchable(f"problem.{name}"))
    # and the model holds no other ndof-sized array to fall back on
    ndof = model.problem.space.ndof
    assert [name for name, value in vars(model).items()
            if name != "basis" and isinstance(value, np.ndarray)
            and ndof in value.shape] == []
    solved = 0
    for mu in list(test225)[:40]:
        try:
            sol = model.solve(mu)
        except er.NewtonFailure:
            with pytest.raises(er.NewtonFailure):
                blind.solve(mu)
            continue
        other = blind.solve(mu)
        assert other.coeffs.tobytes() == sol.coeffs.tobytes()
        assert blind.output(other) == model.output(sol)
        solved += 1
    assert verdict(solved >= 30, "criterion 7 companion: online solve uses "
                   "no ndof-sized member", f"{solved} of 40 solves bitwise equal")


def test_criterion_8_compare_determinism(tmp_path):
    from eimrb.cli import main
    config = """
    mesh.n = 8
    train.grid_n1 = 5
    train.grid_n2 = 5
    test.count = 10
    test.seed = 42
    ser.n_max = 3
    eim.m_max = 4
    newton.max_iter = 200
    output.dir = {out}
    """
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(config.format(out=out))
        assert main(["compare", str(cfg)]) == 0
        artifacts[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = (artifacts["a"].keys() == artifacts["b"].keys()
          and all(artifacts["a"][k] == artifacts["b"][k] for k in artifacts["a"]))
    assert verdict(ok, "criterion 8: compare twice produces byte-identical "
                   "tables and build reports",
                   f"{len(artifacts['a'])} files")

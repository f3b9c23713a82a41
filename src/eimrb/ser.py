"""Build strategies for the combined interpolation + reduced basis model.

Three schedules share one machinery, distinguished by the update
frequency r:

* ``standard`` (r = M): train both interpolants to M_max against truth
  solves over the whole training set, then take the reduced basis
  snapshots.  Costs one finite element solve per training parameter.
* r = 1: the simultaneous build.  One exact solve initializes both
  interpolants; afterwards every greedy sweep scans the training set
  with the current reduced model, and each enrichment is followed by one
  snapshot solved with the current interpolated operator.  Total cost:
  N_max + 1 finite element solves.
* 1 < r < M: grouped.  The first r interpolant fields are built from
  truth solves (there is no reduced model yet), later groups use the
  reduced model; the basis grows by a proportional batch after every
  group.

With ``rebuild_wn`` every basis update re-solves all snapshot parameters
with the current interpolated operator and rebuilds the basis and the
reduced blocks from scratch.

Snapshots with the current interpolated operator are solved in the M
interpolation-point values (see ``nonlinear``), always from zero.  The
build keeps one ``SurrogateSolver``: the stiffness is factored once and
each new interpolant field costs one solve with that factor, so no
snapshot factorises a sparse matrix.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .eim import eim_greedy_step, eim_initialize
from .nonlinear import (NewtonConfig, SolveCounter, SurrogateSolver,
                        truth_newton_solve, truth_newton_solve_eim)
from .rb import DependentSnapshot, RbSpace, ReducedBlocks, ReducedModel

SNAPSHOT_WITH_EIM = "truth-with-current-eim"
SNAPSHOT_EXACT = "truth-exact"


class SerBuildError(RuntimeError):
    """The build cannot continue (bad config or too many failed solves)."""


@dataclass
class SerConfig:
    r: object = 1                       # positive int or "standard"
    rebuild_wn: bool = False
    n_max: int = 1
    m_max: int = 1
    train_set: object = None
    snapshot_source: str = SNAPSHOT_WITH_EIM
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    saturation_tol: float = 1e-13
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.r != "standard" and (not isinstance(self.r, int) or self.r < 1):
            raise SerBuildError(f"update frequency must be >= 1 or 'standard', got {self.r!r}")
        if self.n_max < 1 or self.m_max < 1:
            raise SerBuildError("n_max and m_max must be >= 1")
        if self.snapshot_source not in (SNAPSHOT_WITH_EIM, SNAPSHOT_EXACT):
            raise SerBuildError(f"unknown snapshot source {self.snapshot_source!r}")
        if self.train_set is None or len(self.train_set) == 0:
            raise SerBuildError("empty training set")


@dataclass
class StepRecord:
    kind: str                # "eim" | "rb" | "rebuild" | "reject"
    mu: tuple | None
    sup_error: float | None
    M: int
    N: int
    fe_solves: int


@dataclass
class BuildReport:
    variant: str
    steps: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    fe_solve_count: int = 0
    wall_time: float = 0.0

    def log(self, kind, mu, sup_error, m, n, counter):
        self.steps.append(StepRecord(kind, mu, sup_error, m, n, counter.count))

    def summary_dict(self):
        """Deterministic machine-readable summary (no timings)."""
        return {
            "variant": self.variant,
            "fe_solve_count": self.fe_solve_count,
            "steps": [
                {"kind": s.kind, "mu": list(s.mu) if s.mu is not None else None,
                 "sup_error": s.sup_error, "M": s.M, "N": s.N,
                 "fe_solves": s.fe_solves}
                for s in self.steps
            ],
            "skipped": [[k, list(mu), msg] for (k, mu, msg) in self.skipped],
        }


@dataclass
class BuildResult:
    model: ReducedModel
    report: BuildReport
    checkpoints: dict = field(default_factory=dict)

    def checkpoint(self, n, m):
        """Model saved at (n, m) during the build, else a truncation."""
        if (n, m) in self.checkpoints:
            return self.checkpoints[(n, m)]
        return self.model.restrict(n, m)


def fe_solve_count(report):
    return report.fe_solve_count


class TruthSolutionSource:
    """Exact truth solves, cached per parameter, counted once each."""

    def __init__(self, problem, newton, counter):
        self.problem = problem
        self.newton = newton
        self.counter = counter
        self.cache = {}

    def solve(self, mu):
        key = tuple(mu)
        if key not in self.cache:
            u, _ = truth_newton_solve(self.problem, key, self.newton,
                                      counter=self.counter)
            self.cache[key] = u.values
        return self.cache[key]


class ReducedSolutionSource:
    """Lifted reduced solutions, cached for the duration of one sweep."""

    def __init__(self, model, newton):
        self.model = model
        self.newton = newton
        self.cache = {}

    def solve(self, mu):
        key = tuple(mu)
        if key not in self.cache:
            sol = self.model.solve(key, self.newton)
            self.cache[key] = self.model.lift_values(sol)
        return self.cache[key]


def _field_provider(source, func, coords):
    return lambda mu: func(source.solve(mu), coords, tuple(mu))


def _snapshot_params(due, preferred, fallbacks, used):
    """First `due` unused parameters: preferred ones first, then fallbacks."""
    out = []
    for pool in (preferred, fallbacks):
        for p in pool:
            key = tuple(p)
            if key in used or key in out:
                continue
            out.append(key)
            if len(out) == due:
                return out
    return out


def build_standard(problem, cfg):
    """Sequential build: interpolants from truth solves first, then the basis."""
    t0 = time.perf_counter()
    train = [tuple(p) for p in cfg.train_set]
    counter = SolveCounter()
    report = BuildReport(variant="r=M")
    truth = TruthSolutionSource(problem, cfg.newton, counter)
    coords = problem.space.dof_coords
    term = problem.term
    prov_g = _field_provider(truth, term.g, coords)
    prov_dg = _field_provider(truth, term.dg_du, coords)

    eim_g = eim_initialize(problem.space, prov_g, train)
    eim_dg = eim_initialize(problem.space, prov_dg, train)
    report.log("eim", train[0], eim_g.train_errors[0], 1, 0, counter)
    g_done = dg_done = False
    while (not g_done or not dg_done) and max(eim_g.M, eim_dg.M) < cfg.m_max:
        sup = None
        if not g_done and eim_g.M < cfg.m_max:
            step = eim_greedy_step(eim_g, prov_g, train, cfg.saturation_tol)
            report.skipped.extend(step.skipped)
            g_done = step.saturated
            sup = step.sup_error
        if not dg_done and eim_dg.M < cfg.m_max:
            step = eim_greedy_step(eim_dg, prov_dg, train, cfg.saturation_tol)
            report.skipped.extend(step.skipped)
            dg_done = step.saturated
        report.log("eim", eim_g.mus[-1], sup, eim_g.M, 0, counter)

    rb = RbSpace(problem.space)
    blocks = ReducedBlocks(problem)
    used = set()
    params = _snapshot_params(cfg.n_max, eim_g.mus, train, used)
    queue = list(params)
    while rb.N < cfg.n_max and queue:
        mu = queue.pop(0)
        used.add(mu)
        try:
            rb.add_snapshot(truth.solve(mu), mu)
            report.log("rb", mu, None, eim_g.M, rb.N, counter)
        except DependentSnapshot:
            report.log("reject", mu, None, eim_g.M, rb.N, counter)
            extra = _snapshot_params(1, eim_g.mus, train, used | set(queue))
            queue.extend(extra)
    blocks.extend(rb, eim_g, eim_dg)

    model = ReducedModel(problem, rb, blocks, eim_g, eim_dg, label="r=M")
    report.fe_solve_count = counter.count
    report.wall_time = time.perf_counter() - t0
    result = BuildResult(model=model, report=report)
    for (n, m) in cfg.checkpoints:
        if n <= rb.N:
            result.checkpoints[(n, m)] = model.restrict(n, m)
    return result


def build_ser(problem, cfg):
    """Alternating build with basis updates every r interpolation steps."""
    if cfg.r == "standard":
        return build_standard(problem, cfg)
    r = cfg.r
    t0 = time.perf_counter()
    train = [tuple(p) for p in cfg.train_set]
    counter = SolveCounter()
    label = f"r={r}" + ("-rebuild" if cfg.rebuild_wn else "")
    report = BuildReport(variant=label)
    truth = TruthSolutionSource(problem, cfg.newton, counter)
    coords = problem.space.dof_coords
    term = problem.term

    n_updates = -(-cfg.m_max // r)  # ceil
    event_m = [min(j * r, cfg.m_max) for j in range(1, n_updates + 1)]
    # proportional basis growth; at least one snapshot from the first event so
    # every later sweep has a reduced model to scan with
    n_after = [max(1, (j * cfg.n_max) // n_updates) for j in range(1, n_updates + 1)]
    n_after[-1] = cfg.n_max

    u1 = truth.solve(train[0])
    eim_g = eim_initialize(problem.space,
                           lambda mu: term.g(u1, coords, tuple(mu)), train)
    eim_dg = eim_initialize(problem.space,
                            lambda mu: term.dg_du(u1, coords, tuple(mu)), train)
    report.log("eim", train[0], eim_g.train_errors[0], 1, 0, counter)

    rb = RbSpace(problem.space)
    blocks = ReducedBlocks(problem)
    blocks.extend(rb, eim_g, eim_dg)
    surrogate = SurrogateSolver(problem, eim_g)

    def live_model():
        return ReducedModel(problem, rb, blocks, eim_g, eim_dg, label=label)

    def snapshot_solve(mu):
        if cfg.snapshot_source == SNAPSHOT_EXACT and not cfg.rebuild_wn:
            return truth.solve(mu)
        u, _ = truth_newton_solve_eim(surrogate, mu, cfg.newton, counter=counter)
        return u.values

    result = BuildResult(model=None, report=report)
    used = set()
    group_selected = [train[0]]
    last_errors = None       # g-sweep errors, for ranking fallback snapshots
    g_saturated = dg_saturated = False
    prev_n = 0

    def fallback_params():
        """Training points ordered by how badly the last sweep approximated
        them, so a duplicate greedy selection falls back to the worst
        unused parameter instead of an arbitrary one."""
        if last_errors is None:
            return train
        ranked = np.argsort(np.nan_to_num(-last_errors, nan=np.inf),
                            kind="stable")
        return [train[i] for i in ranked]

    for j, (m_target, n_target) in enumerate(zip(event_m, n_after), start=1):
        # --- interpolant enrichment for this group
        while max(eim_g.M, eim_dg.M) < m_target and not (g_saturated and dg_saturated):
            if j == 1 and r > 1:
                src = truth
            else:
                # freeze the pre-sweep model: the eims grow in place during
                # the sweep and both scans must see the same state
                frozen = live_model().restrict(rb.N, max(eim_g.M, eim_dg.M))
                src = ReducedSolutionSource(frozen, cfg.newton)
            prov_g = _field_provider(src, term.g, coords)
            prov_dg = _field_provider(src, term.dg_du, coords)
            sup = None
            sel = None
            if not g_saturated and eim_g.M < m_target:
                step = eim_greedy_step(eim_g, prov_g, train, cfg.saturation_tol)
                report.skipped.extend(step.skipped)
                g_saturated = step.saturated
                sup, sel = step.sup_error, step.mu
                last_errors = step.errors
                if not step.saturated:
                    group_selected.append(step.mu)
            if not dg_saturated and eim_dg.M < m_target:
                step = eim_greedy_step(eim_dg, prov_dg, train, cfg.saturation_tol)
                report.skipped.extend(step.skipped)
                dg_saturated = step.saturated
            blocks.extend(rb, eim_g, eim_dg)
            report.log("eim", sel, sup, eim_g.M, rb.N, counter)

        # --- basis update event
        due = n_target - prev_n
        if due > 0:
            new_params = _snapshot_params(due, group_selected,
                                          fallback_params(), used)
            if cfg.rebuild_wn:
                queue = list(rb.mus) + new_params
                kept = set(rb.mus)
                rb = RbSpace(problem.space)
                blocks = ReducedBlocks(problem)
                while queue:
                    mu = queue.pop(0)
                    used.add(mu)
                    try:
                        rb.add_snapshot(snapshot_solve(mu), mu)
                        blocks.extend(rb, eim_g, eim_dg)
                        if mu not in kept:
                            report.log("rb", mu, None, eim_g.M, rb.N, counter)
                    except DependentSnapshot:
                        report.log("reject", mu, None, eim_g.M, rb.N, counter)
                        queue.extend(_snapshot_params(1, group_selected,
                                                      fallback_params(),
                                                      used | set(queue)))
                report.log("rebuild", None, None, eim_g.M, rb.N, counter)
            else:
                queue = list(new_params)
                while rb.N < n_target and queue:
                    mu = queue.pop(0)
                    used.add(mu)
                    try:
                        rb.add_snapshot(snapshot_solve(mu), mu)
                        blocks.extend(rb, eim_g, eim_dg)
                        report.log("rb", mu, None, eim_g.M, rb.N, counter)
                    except DependentSnapshot:
                        report.log("reject", mu, None, eim_g.M, rb.N, counter)
                        extra = _snapshot_params(1, group_selected,
                                                 fallback_params(),
                                                 used | set(queue))
                        queue.extend(extra)
        prev_n = rb.N
        group_selected = []

        for (n, m) in cfg.checkpoints:
            if (n, m) not in result.checkpoints and n == rb.N and m == m_target:
                result.checkpoints[(n, m)] = live_model().restrict(
                    n, min(m, eim_g.M, eim_dg.M))

    report.fe_solve_count = counter.count
    report.wall_time = time.perf_counter() - t0
    result.model = live_model()
    return result

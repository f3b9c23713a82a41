"""Build strategies for the combined interpolation + reduced basis model.

One loop builds every schedule.  The interpolant grows by one greedy
step at a time, and after every group of r steps the basis is updated
by a proportional batch of snapshots.  The update frequency r selects
the schedule:

* r = 1: the simultaneous build.  One exact solve initializes the
  interpolant; afterwards every greedy sweep scans the training set
  with the current reduced model, and each enrichment is followed by one
  snapshot solved with the current interpolated operator.  Total cost:
  N_max + 1 finite element solves.
* 1 < r < M: grouped.  The first group is trained against truth solves
  (there is no reduced model yet), later groups use the reduced model.
* ``standard`` (r = M): the one group spans the whole interpolant, so it
  is trained against truth solves over the whole training set and the
  single basis update takes all N_max snapshots.  These snapshots are
  the cached exact truth solves, not solves with the interpolated
  operator, so the build costs one finite element solve per training
  parameter and no more.

Each update snapshots the parameters its group selected, then the
parameters the last sweep approximated worst.  With ``rebuild_wn`` (not
for the standard build) every update re-solves all snapshot parameters
with the current interpolated operator into a new ``RbSpace``.

The build keeps one growing ``RbSpace``: a snapshot extends its basis,
and its reduced blocks are extended when the build asks it for the
model of the current (N, M) (``RbSpace.model``).  A model holds the
interpolation points and matrix, not the interpolant: the interpolant
the build trained stays with the build (``BuildResult.eim_g``).  Growth
is append-only between rebuilds, so the model of an earlier (N, M)
stage is the final model restricted to it, equal in every array
(``BuildResult.checkpoint``).  A stage from ``SerConfig.checkpoints`` is
stored only when a later update of a ``rebuild_wn`` build replaces the
basis it was solved with.  Every model the build makes starts its online
solves from a table over the training set (``ReducedModel.start_mus``),
and before it returns, the build makes the final model's table: its
reduced solutions at the training parameters, from one cold
``solve_many``, and their slopes in log mu
(``ReducedModel.start_table``).

Snapshots with the current interpolated operator are solved in the M
interpolation-point values (see ``nonlinear``), always from zero.  The
build keeps one ``SurrogateSolver``, made at the first such snapshot: the
stiffness is factored once and each new interpolant field costs one
solve with that factor, so no snapshot factorises a sparse matrix.  The
products M q_m of the mass with the interpolant's fields have one owner,
the build's ``nonlinear.MassFields``: the solver and every
``RbSpace.model`` call (a rebuild's new spaces too) read them from it,
so each is made once per build.  A
snapshot's Newton steps, stopping rule included, stay in the M point
values; the mesh is touched for the residual at zero, which sets the
tolerance, and for the one lift of the converged values.

A greedy sweep hands the whole training set of P parameters to its
provider at once.  With the reduced model, that is one Newton over a
(P, N) coefficient array (``ReducedModel.solve_many``, one call of g and
one of g' per iteration on the parameters still iterating).  The fields
are then made a chunk of rows at a time (``GBlock``): the greedy step in
``eim`` asks for about a megabyte of rows, which are lifted with one
(rows, N) @ (N, ndof) product, passed through g in one call, and turned
into their interpolation residuals and sup errors by one triangular
solve and one (rows, M) @ (M, ndof) product while they are still in
cache.  No (P, ndof) array of the whole sweep is made.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .benchmark import TruthReferences
from .eim import eim_greedy_step, eim_initialize
from .fem import SolverFailure
from .nonlinear import (MassFields, NewtonConfig, NewtonFailure,
                        SurrogateSolver, truth_newton_solve_eim)
from .rb import DependentSnapshot, RbSpace, ReducedModel


class SerBuildError(RuntimeError):
    """The build cannot continue (bad config or too many failed solves)."""


@dataclass
class SerConfig:
    r: object = 1                       # positive int or "standard" (r = m_max)
    rebuild_wn: bool = False
    n_max: int = 1
    m_max: int = 1
    train_set: object = field(kw_only=True)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    checkpoints: tuple = ()

    def __post_init__(self):
        # type(x) is int: a bool is an int to isinstance, and a float size
        # would reach range() inside the build
        if self.r != "standard" and (type(self.r) is not int or self.r < 1):
            raise SerBuildError(f"update frequency must be an int >= 1 or 'standard', got {self.r!r}")
        if self.r == "standard" and self.rebuild_wn:
            raise SerBuildError("the standard build updates the basis once; "
                                "rebuild_wn does not apply to it")
        if not all(type(size) is int and size >= 1
                   for size in (self.n_max, self.m_max)):
            raise SerBuildError(f"n_max and m_max must be ints >= 1, got "
                                f"{self.n_max!r} and {self.m_max!r}")
        if len(self.train_set) == 0:
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
    r: object = None         # update frequency of the build
    rebuild_wn: bool = False

    def log(self, kind, mu, sup_error, m, n, fe_solves):
        self.steps.append(StepRecord(kind, mu, sup_error, m, n, fe_solves))

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
    eim_g: object            # the interpolant trained, None when loaded
    checkpoints: dict = field(default_factory=dict)

    def checkpoint(self, n, m):
        """Model stored at (n, m) during a rebuilding build, else a
        restriction of the final model."""
        if (n, m) in self.checkpoints:
            return self.checkpoints[(n, m)]
        return self.model.restrict(n, m)


class GBlock:
    """Fields g(u_p, x; mu_p) over samples mu_p, made a row range at a time.

    ``block[lo:hi]`` is a new (hi - lo, ndof) array: ``values(rows)``
    gives the fields u_p of that slice of samples and the term is applied
    to them at once.  A greedy step walks the block in cache-sized
    chunks, so no (P, ndof) array of the whole sweep is ever made.
    """

    def __init__(self, problem, samples, values):
        self.term = problem.term
        self.coords = problem.space.dof_coords
        self.mus = np.asarray(samples, dtype=float)
        self.values = values

    def __getitem__(self, rows):
        with np.errstate(over="ignore"):    # the greedy step skips an inf row
            return self.term.g(self.values(rows), self.coords, self.mus[rows])


def truth_g_block(references):
    """Greedy-sweep provider over exact truth solves: g of the truth
    solutions at the samples, solved and cached by ``references`` (a
    ``TruthReferences``), and {index: exception} for failed solves, whose
    rows hold g of a zero field."""
    def provider(samples):
        zero = np.zeros(references.problem.space.ndof)
        fields, failures = [], {}
        for k, mu in enumerate(samples):
            try:
                fields.append(references.get(mu)[0])
            except (NewtonFailure, SolverFailure) as exc:
                failures[k] = exc
                fields.append(zero)
        return (GBlock(references.problem, samples,
                       lambda rows: np.array(fields[rows])),
                failures)
    return provider


def reduced_g_block(model, newton):
    """Greedy-sweep provider over the reduced model: g of the lifted reduced
    solutions at the samples.  One ``solve_many`` solves every sample; each
    row range is lifted and g applied when the greedy step asks for it."""
    def provider(samples):
        coeffs, failures = model.solve_many(samples, newton)
        return (GBlock(model.problem, samples,
                       lambda rows: model.lift_block(coeffs[rows])),
                failures)
    return provider


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


def build_ser(problem, cfg):
    """Alternating build with basis updates every r interpolation steps;
    r="standard" is the single group r = m_max with exact snapshots."""
    standard = cfg.r == "standard"
    r = cfg.m_max if standard else cfg.r
    t0 = time.perf_counter()
    train = [tuple(p) for p in cfg.train_set]
    truth = TruthReferences(problem, cfg.newton)
    surrogate_solves = 0     # successful snapshot solves, rejected ones too

    def fe_solves():
        return truth.solves + surrogate_solves

    label = "r=M" if standard else f"r={r}" + ("-rebuild" if cfg.rebuild_wn else "")
    report = BuildReport(variant=label, r=cfg.r, rebuild_wn=cfg.rebuild_wn)

    n_updates = -(-cfg.m_max // r)  # ceil
    event_m = [min(j * r, cfg.m_max) for j in range(1, n_updates + 1)]
    # proportional basis growth; at least one snapshot from the first event so
    # every later sweep has a reduced model to scan with
    n_after = [max(1, (j * cfg.n_max) // n_updates) for j in range(1, n_updates + 1)]
    n_after[-1] = cfg.n_max

    eim_g = eim_initialize(problem.space, truth_g_block(truth), train)
    report.log("eim", train[0], eim_g.train_errors[0], 1, 0, fe_solves())
    mass_fields = MassFields(problem, eim_g)

    rb = RbSpace(problem)
    surrogate = None     # made at the first snapshot solved with it

    def snapshot_solve(mu):
        nonlocal surrogate, surrogate_solves
        if standard:
            return truth.get(mu)[0]
        if surrogate is None:
            surrogate = SurrogateSolver(mass_fields)
        u, _ = truth_newton_solve_eim(surrogate, mu, cfg.newton)
        surrogate_solves += 1
        return u

    result = BuildResult(model=None, report=report, eim_g=eim_g)
    used = set()
    group_selected = [train[0]]
    last_errors = None       # sweep errors, for ranking fallback snapshots
    saturated = False

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
        while eim_g.M < m_target and not saturated:
            if j == 1 and r > 1:
                provider = truth_g_block(truth)
            else:
                # the interpolant grows only after the sweep, so every
                # sweep evaluation sees the same model
                provider = reduced_g_block(rb.model(mass_fields, train),
                                           cfg.newton)
            step = eim_greedy_step(eim_g, provider, train)
            report.skipped.extend(step.skipped)
            saturated = step.saturated
            last_errors = step.errors
            if not step.saturated:
                group_selected.append(step.mu)
            report.log("eim", step.mu, step.sup_error, eim_g.M, rb.N,
                       fe_solves())

        # --- basis update event
        due = n_target - rb.N
        if due > 0:
            kept = list(rb.mus) if cfg.rebuild_wn else []
            queue = kept + _snapshot_params(due, group_selected,
                                            fallback_params(), used)
            if cfg.rebuild_wn:
                rb = RbSpace(problem)
            # a rejected parameter is replaced by at most one other, so
            # len(queue) + rb.N <= n_target holds throughout
            while queue:
                mu = queue.pop(0)
                used.add(mu)
                try:
                    rb.add_snapshot(snapshot_solve(mu), mu)
                    if mu not in kept:
                        report.log("rb", mu, None, eim_g.M, rb.N, fe_solves())
                except DependentSnapshot:
                    report.log("reject", mu, None, eim_g.M, rb.N, fe_solves())
                    queue.extend(_snapshot_params(1, group_selected,
                                                  fallback_params(),
                                                  used | set(queue)))
            if cfg.rebuild_wn:
                report.log("rebuild", None, None, eim_g.M, rb.N, fe_solves())
        group_selected = []

        stage = (rb.N, m_target)
        if (cfg.rebuild_wn and j < n_updates
                and stage in map(tuple, cfg.checkpoints)):
            stored = rb.model(mass_fields, train)
            result.checkpoints[stage] = stored.restrict(*stage)

    report.fe_solve_count = fe_solves()
    report.wall_time = time.perf_counter() - t0
    result.model = rb.model(mass_fields, train)
    result.model.start_table    # the starts of its online solves, made now
    return result

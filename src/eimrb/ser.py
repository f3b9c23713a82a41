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

An update takes candidate parameters one at a time until the basis is
full: the parameters its group of greedy steps picked
(``EimBasis.mus``), then the training set worst first by the last
sweep, skipping every parameter tried before.  A snapshot that is
linearly dependent on the basis is rejected and logged, and the next
candidate is taken.  With ``rebuild_wn`` (not for the standard build) every update
first re-solves all snapshot parameters with the current interpolated
operator into a new ``RbSpace``; a kept parameter rejected there is
dropped like any other.

The build keeps one growing ``RbSpace``: a snapshot extends its basis,
and its reduced blocks are extended when the build asks it for the
model of the current (N, M) (``RbSpace.model``).  A model holds the
interpolation points and matrix, not the interpolant: the interpolant
the build trained stays with the build (``BuildResult.eim_g``).  Growth
is append-only between rebuilds, so the model of an earlier (N, M)
stage is the final model restricted to it, equal in every array
(``BuildResult.checkpoint``).  A stage from ``SerConfig.checkpoints`` is
stored only when a later update of a ``rebuild_wn`` build replaces the
basis it was solved with.  The build gives the final model and each
stored checkpoint, when it stores it, the table where its online solves
start (``rb.start_table``): its reduced solutions at the training
parameters, from one cold ``solve_many``, and their slopes in log mu.
The sweep models hold no table, and a restriction slices its parent's.

Snapshots with the current interpolated operator are solved in the M
interpolation-point values (see ``nonlinear``).  A parameter's first
solve starts at zero; a ``rebuild_wn`` update re-solves each kept
parameter from the values, at the current points, of the field its last
solve returned, which the build keeps, and the tolerance still comes
from the residual at zero.  On the n=32 P2 20x20 r=1-rebuild build this
cut the snapshots' surrogate Newton steps from 2,649 to 650.  The
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
one of g' per iteration on the parameters still iterating); a parameter
it fails is solved again from the converged row nearest to it, and is
skipped only if that fails too (``reduced_g_block``).  Each reduced
sweep starts at what the build carries (``screen.SweepBounds``): the
last reduced sweep's answers, restarted rows included, with a zero for
each basis vector added since, as the model of the next sweep differs
by a few basis vectors and interpolant fields, so its answers are near.
A ``rebuild_wn`` update replaces the basis V_a by V_b, and maps the
carry by the X-projection, c_a S^T with S = V_b^T X V_a
(``SweepBounds.rebased``).  Before the first reduced sweep the carry is
``SweepBounds.unknown``, whose coefficients are none, so that sweep
starts at zero, and a truth sweep leaves the carry as it is.  Every row
stops by the tolerance of its residual at zero, so a start moves an
answer only at the level of the Newton tolerance.  On the n=32 P2 20x20
r=1 build this cut the sweeps' reduced Newton row-iterations from
32,321 to 13,266 (26,941 to 10,029 on r=5).  The
fields are then made a chunk of rows at a time (``GBlock``): the greedy
step in ``eim`` asks for about a megabyte of rows, which are lifted with
one (rows, N) @ (N, ndof) product, passed through g in one call, and
turned into their interpolation residuals and sup errors by one
triangular solve and one (rows, M) @ (M, ndof) product while they are
still in cache.  No (P, ndof) array of the whole sweep is made.  A
reduced sweep (``ReducedGBlock``) is screened in float32 first
(``screen``), so the float64 pass runs only on the chunks that may hold
the largest error, and the sweep picks, and the build writes, the bits
of a float64 sweep.
Each reduced sweep hands what its screen carries (``GreedyStep.bounds``)
to the next one, on the next one's basis (padded, or mapped after a
rebuild with the bound on the move of each row's lift), so that screen
runs only on the rows that can still hold its largest error.  On the
n=32 P2 20x20 r=1 build that is 1-4 of 13 float64 chunks per sweep, and
64-210 of the 400 rows in the float32 screen after the first sweep
(3,648 of the 9,600 reduced-sweep rows); the r=1-rebuild build screens
3,814 of its 9,600.  An update that runs past its group's picks takes
the training set worst first from the last sweep
(``eim.SweepErrors.worst_first``).  A truth sweep is not screened.
"""

import math
import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .benchmark import TruthReferences
from .eim import eim_greedy_step, eim_initialize
from .fem import SolverFailure
from .nonlinear import (MassFields, NewtonConfig, NewtonFailure,
                        SurrogateSolver, nearest, truth_newton_solve_eim)
from .rb import DependentSnapshot, RbSpace, ReducedModel, start_table
from .screen import Float32Screen, SweepBounds


class SerBuildError(RuntimeError):
    """The build cannot continue (bad config or too many failed solves)."""


@dataclass
class SerConfig:
    r: object = 1                       # positive int or "standard" (r = m_max)
    rebuild_wn: bool = False
    n_max: int = field(kw_only=True)
    m_max: int = field(kw_only=True)
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
        # the sweeps measure distances between training parameters in log mu
        for mu in self.train_set:
            if len(mu) != 2:
                raise SerBuildError(f"training parameter {tuple(mu)} has "
                                    f"{len(mu)} entries, expected 2")
            if not all(0.0 < x < math.inf for x in mu):
                raise SerBuildError(f"training parameter {tuple(mu)} is not "
                                    "positive and finite")
        # every snapshot is taken at a training parameter, once
        distinct = len(set(map(tuple, self.train_set)))
        if self.n_max > distinct:
            raise SerBuildError(f"n_max = {self.n_max} exceeds the {distinct} "
                                "distinct training parameters")
        # stages (N, M), held as tuples so that the build can look one up
        if not all(isinstance(stage, (tuple, list)) and len(stage) == 2
                   and all(type(x) is int and x >= 1 for x in stage)
                   for stage in self.checkpoints):
            raise SerBuildError(f"checkpoints must be pairs of ints >= 1, "
                                f"got {self.checkpoints!r}")
        self.checkpoints = tuple(map(tuple, self.checkpoints))


@dataclass
class StepRecord:
    kind: str                # "eim" | "rb" | "rebuild" | "reject"
    mu: tuple | None
    sup_error: float | None
    M: int
    N: int
    fe_solves: int
    confirmed: int | None    # float64 chunks of the sweep; not in the summary
    screened: int | None     # float32 rows of a reduced sweep; not either


@dataclass
class BuildReport:
    variant: str
    steps: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    fe_solve_count: int = 0
    wall_time: float = 0.0
    r: object = None         # update frequency of the build
    rebuild_wn: bool = False
    # the Jacobian factorisations of the build's truth solves, set by
    # build_ser: not a field, so neither settable nor in summary_dict
    truth_factorizations = 0

    def log(self, kind, mu, sup_error, m, n, fe_solves, confirmed,
            screened):
        self.steps.append(StepRecord(kind, mu, sup_error, m, n, fe_solves,
                                     confirmed, screened))

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
    """Fields g(u_p; mu_p) over samples mu_p, made a row range at a time.

    ``block[lo:hi]`` is a new (hi - lo, ndof) array: ``values(rows)``
    gives the fields u_p of that slice of samples and the term is applied
    to them at once.  A greedy step walks the block in cache-sized
    chunks, so no (P, ndof) array of the whole sweep is ever made.  It
    offers the greedy step no screen (no ``screen`` method), so every
    chunk runs in float64.
    """

    def __init__(self, problem, samples, values):
        self.term = problem.term
        self.mus = np.asarray(samples, dtype=float)
        self.values = values

    def __getitem__(self, rows):
        with np.errstate(over="ignore"):    # the greedy step skips an inf row
            return self.term.g(self.values(rows), self.mus[rows])


class ReducedGBlock(GBlock):
    """The fields g(V c_p; mu_p) of the (P, N) reduced solutions coeffs on
    the (ndof, N) basis V of a model, which the greedy step screens in
    float32 (``screen.Float32Screen``).  restarted lists the rows whose
    first solve failed, and prior is the ``screen.SweepBounds`` that the
    rows carry into the sweep, on V, whose coefficients started them:
    the last reduced sweep's, or ``SweepBounds.unknown`` before the
    first."""

    def __init__(self, model, samples, coeffs, restarted, prior):
        super().__init__(model.problem, samples,
                         lambda rows: model.lift_block(coeffs[rows]))
        self.coeffs, self.basis = coeffs, model.basis
        self.restarted, self.prior = restarted, prior

    def screen(self, t, B, q, rows):
        return Float32Screen(self, t, B, q, rows)


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


def reduced_g_block(model, newton, prior):
    """Greedy-sweep provider over the reduced model: g of the lifted reduced
    solutions at the samples.  prior is the ``screen.SweepBounds`` that
    the samples carry into the sweep (``ReducedGBlock``), on the model's
    basis or one that it extends: padded to the model's N, its (P, N)
    coefficients hold one row per sample, where its solve starts, zero
    for ``SweepBounds.unknown``.  One ``solve_many`` solves every sample
    from its row.  Each sample it fails is solved again with ``solve``,
    started at the row that ``solve_many`` converged to at the sample
    nearest in log-parameter distance (``nonlinear.nearest``); a sample
    that fails again keeps its first failure and a zero row.  Each row
    range is lifted and g applied when the greedy step asks for it."""
    prior = prior.padded(model.N)

    def provider(samples):
        coeffs, failures = model.solve_many(samples, newton,
                                            initial=prior.coeffs)
        restarted = list(failures)
        if failures and len(failures) < len(samples):
            converged = np.setdiff1d(np.arange(len(samples)), list(failures))
            logs = np.log(samples).T
            for k in list(failures):
                near = converged[nearest(logs[:, converged], logs[:, k])]
                with suppress(NewtonFailure, SolverFailure):
                    coeffs[k] = model.solve(samples[k], newton,
                                            coeffs[near]).coeffs
                    del failures[k]
        return (ReducedGBlock(model, samples, coeffs, restarted, prior),
                failures)
    return provider


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
    report.log("eim", train[0], eim_g.train_errors[0], 1, 0, fe_solves(), None,
               None)
    mass_fields = MassFields(problem, eim_g)

    rb = RbSpace(problem)
    surrogate = None     # made at the first snapshot solved with it
    last = {}            # a rebuilding build's last snapshot field per mu

    def snapshot_solve(mu):
        nonlocal surrogate, surrogate_solves
        if standard:
            return truth.get(mu)[0]
        if surrogate is None:
            surrogate = SurrogateSolver(mass_fields)
        u, _ = truth_newton_solve_eim(surrogate, mu, cfg.newton,
                                      initial=last.get(mu))
        surrogate_solves += 1
        if cfg.rebuild_wn:
            last[mu] = u
        return u

    result = BuildResult(model=None, report=report, eim_g=eim_g)
    used = set()             # every parameter a snapshot was tried at
    step = None              # the last sweep, whose errors rank fallbacks
    # what the last reduced sweep carries (its answers among it), on the
    # basis of the next sweep after a rebuild; nothing before the first
    carried = SweepBounds.unknown(len(train))
    saturated = False

    for j, (m_start, m_target, n_target) in enumerate(
            zip([0] + event_m, event_m, n_after), start=1):
        # --- interpolant enrichment for this group
        while eim_g.M < m_target and not saturated:
            if j == 1 and r > 1:
                provider = truth_g_block(truth)
            else:
                # the interpolant grows only after the sweep, so every
                # sweep evaluation sees the same model; the sweep starts
                # at what the last reduced sweep carries (mapped onto a
                # rebuild's new basis), with a zero for each basis vector
                # added since
                provider = reduced_g_block(rb.model(mass_fields),
                                           cfg.newton, carried)
            # the last sweep is read no more: it is freed, with its model
            # and screen, before this one runs
            step = None
            step = eim_greedy_step(eim_g, provider, train)
            # a truth sweep carries nothing, and keeps the carry as it is
            carried = step.bounds or carried
            report.skipped.extend(step.skipped)
            saturated = step.saturated
            report.log("eim", step.mu, step.sup_error, eim_g.M, rb.N,
                       fe_solves(), len(step.confirmed), step.screened)

        # --- basis update event: snapshots at the candidates, one at a
        # time, until the basis is full: a rebuild's kept parameters, the
        # group's picks, then the training set worst first by the last
        # sweep; a dependent snapshot is rejected and the next one taken
        if rb.N < n_target:
            kept = list(rb.mus) if cfg.rebuild_wn else []
            if cfg.rebuild_wn:
                basis, rb = rb.basis, RbSpace(problem)
            ranked = (range(len(train)) if step is None
                      else step.sweep.worst_first())
            fresh = chain(eim_g.mus[m_start:], (train[i] for i in ranked))
            for mu in chain(kept, (mu for mu in fresh if mu not in used)):
                used.add(mu)
                try:
                    rb.add_snapshot(snapshot_solve(mu), mu)
                    if mu not in kept:
                        report.log("rb", mu, None, eim_g.M, rb.N,
                                   fe_solves(), None, None)
                except DependentSnapshot:
                    report.log("reject", mu, None, eim_g.M, rb.N, fe_solves(),
                               None, None)
                if rb.N == n_target:
                    break
            if cfg.rebuild_wn:
                # the last sweep's answers and bounds, mapped onto the
                # new basis
                carried = carried.rebased(basis, rb.basis, rb.x_basis)
                report.log("rebuild", None, None, eim_g.M, rb.N,
                           fe_solves(), None, None)

        stage = (rb.N, m_target)
        if cfg.rebuild_wn and j < n_updates and stage in cfg.checkpoints:
            stored = rb.model(mass_fields)
            stored.table = start_table(stored, train)
            result.checkpoints[stage] = stored

    report.fe_solve_count = fe_solves()
    report.truth_factorizations = truth.chord.factorizations
    report.wall_time = time.perf_counter() - t0
    result.model = rb.model(mass_fields)
    result.model.table = start_table(result.model, train)
    return result

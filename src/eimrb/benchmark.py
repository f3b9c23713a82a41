"""Exponential reaction benchmark on the unit square and its error studies.

The model problem is

    -Laplace(u) + mu1 * (exp(mu2*u) - 1) / mu2 = 100 sin(2 pi x) sin(2 pi y)

with homogeneous Dirichlet conditions and mu = (mu1, mu2) ranging over
[0.01, 10]^2.  The reported output s is the average of the solution over
the domain.  Error tables list, per (N, M) stage of a build, the maximum
over a test sample of the L2 solution error and of the absolute output
error against the full finite element solution on the same mesh.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .fem import FESpace, Mesh, SolverFailure
from .nonlinear import (DEFAULT_NEWTON, Chord, NewtonFailure,
                        NonlinearProblem, NonlinearTerm, nearest,
                        truth_newton_solve)

D_MIN = 0.01
D_MAX = 10.0


def in_parameter_domain(mu):
    return D_MIN <= mu[0] <= D_MAX and D_MIN <= mu[1] <= D_MAX


class SampleSet:
    """Deterministic parameter sample, log-spaced over [0.01, 10]^2: a
    sequence of (mu1, mu2) tuples."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    @classmethod
    def log_grid(cls, n1, n2):
        """Lexicographically ordered log-equidistant grid (mu1 major)."""
        a = np.logspace(math.log10(D_MIN), math.log10(D_MAX), n1)
        b = np.logspace(math.log10(D_MIN), math.log10(D_MAX), n2)
        pts = np.column_stack([np.repeat(a, n2), np.tile(b, n1)])
        return cls(pts)

    @classmethod
    def log_random(cls, count, seed):
        rng = np.random.default_rng(seed)
        pts = 10.0 ** rng.uniform(math.log10(D_MIN), math.log10(D_MAX),
                                  size=(count, 2))
        return cls(pts)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return tuple(self.points[i])

    def __iter__(self):
        return map(tuple, self.points)


def benchmark_term():
    """g(u; mu) = mu1 (e^(mu2 u) - 1)/mu2 and its u-derivative mu1 e^(mu2 u).

    expm1 keeps the small-mu2*u regime accurate; mu2 >= 0.01 in the
    parameter domain so the division is safe.  Row p of a (P, k) block
    of u values is evaluated at the parameter mus[p], by broadcasting the
    (P, 1) columns mu1 and mu2: each entry is the same operations on the
    same operands as at one parameter, so equal to it bit for bit.  A
    large u overflows to inf, under the callers' warning state
    (NonlinearTerm).
    """
    def g(u, xy, mus):
        mu1, mu2 = mus[:, :1], mus[:, 1:]
        return mu1 * np.expm1(mu2 * u) / mu2

    def dg(u, xy, mus):
        mu1, mu2 = mus[:, :1], mus[:, 1:]
        return mu1 * np.exp(mu2 * u)

    return NonlinearTerm(g, dg)


def benchmark_rhs(xy):
    return 100.0 * np.sin(2 * np.pi * xy[:, 0]) * np.sin(2 * np.pi * xy[:, 1])


def benchmark_problem(n, degree):
    space = FESpace(Mesh(n), degree)
    return NonlinearProblem(space, benchmark_term(), benchmark_rhs)


def default_checkpoints(r, n_max, m_max):
    """Five proportional (N, M) stages; for r=1 builds these are N=M rows."""
    out = []
    for j in range(1, 6):
        n = max(1, round(j * n_max / 5))
        m = max(1, round(j * m_max / 5))
        if (n, m) not in out:
            out.append((n, m))
    return tuple(out)


@dataclass
class StudyRow:
    N: int
    M: int
    max_err_u: float
    max_err_s: float
    variant: str
    failures: int = 0


class TruthReferences:
    """Exact truth solutions and their outputs, cached per parameter.

    Each parameter is solved once, and a failed solve raises before it is
    cached, so ``solves`` counts the successful truth solves.  A build
    keeps one for its truth sweeps and exact snapshots, and counts its
    finite element solves from it; an error study keeps its own, so its
    reference solves stay out of any build's count.

    A solve starts from the caller's guess when it has one, and otherwise
    from the cached solution nearest to mu in log-parameter distance (the
    first cached on a tie; ``nonlinear.nearest``, the rule by which an
    online reduced solve picks its start too), or from u = 0 while the
    cache is empty.  Every solve stops by the same rule
    (``truth_newton_solve``), so the start moves a solution only at the
    level of that tolerance.  A cache shared by several callers, as
    ``compare`` shares one across its error studies, keeps the solution
    started from the guess of whichever caller asked first; that order is
    fixed by the caller's code, so the results are deterministic.

    All its solves share one ``Chord`` slot: each solve first steps with
    the last Jacobian factor of the solves before it, and refactors only
    when that factor stops contracting.  The slot is carried in call
    order, so a solve's steps depend only on the order of the calls,
    which is again fixed by the callers' code.
    """

    def __init__(self, problem, newton=None):
        self.problem = problem
        self.newton = newton or DEFAULT_NEWTON
        self.cache = {}
        self.chord = Chord()             # the last factor, carried over
        self._logs = np.empty((2, 0))    # cached log-parameters, as columns

    @property
    def solves(self):
        return len(self.cache)

    def nearest(self, mu):
        """The cached solution nearest to mu in log-parameter distance,
        the first cached on a tie; None while the cache is empty."""
        if not self.cache:
            return None
        return list(self.cache.values())[nearest(self._logs, np.log(mu))][0]

    def get(self, mu, guess=None):
        """The cached (solution, output) at mu, solved on a miss.  guess,
        if given, is called with mu on a miss only; the initial values it
        returns replace the nearest cached solution, and None keeps it."""
        key = tuple(mu)
        if key not in self.cache:
            initial = guess(key) if guess is not None else None
            if initial is None:
                initial = self.nearest(key)
            u, _ = truth_newton_solve(self.problem, key, self.newton, initial,
                                      self.chord)
            self.cache[key] = (u, self.problem.average(u))
            self._logs = np.column_stack([self._logs, np.log(key)])
        return self.cache[key]


def run_error_study(result, test_set, checkpoints, newton=None,
                    references=None):
    """Max solution / output errors over the test set at each (N, M)
    stage of a BuildResult.  A row names the (N, M) of the model it
    measured, so a stage asking for more fields than the build made
    reads the build's M.  Each distinct model is measured once: a stage
    that resolves to a model measured before (the same stored
    checkpoint, or the same restriction of the final model) gets a copy
    of that stage's row.

    Per-parameter solver failures are counted on the row instead of
    aborting the study; a row with failures is flagged when emitted.
    """
    newton = newton or DEFAULT_NEWTON
    final = result.model
    problem = final.problem
    refs = references or TruthReferences(problem, newton)
    label = result.report.variant

    def model_guess(mu):
        # a reference missing from refs starts from the final model's lifted
        # solution, so one reference serves every stage
        try:
            return final.lift_values(final.solve(mu, newton))
        except (NewtonFailure, SolverFailure):
            return None

    rows = []
    measured = {}       # row of each model measured, by what it resolves to
    for (n, m) in checkpoints:
        stored = (n, m) in result.checkpoints
        if not stored and n > final.N:
            # stage not reachable from this build; emit an incomplete row
            rows.append(StudyRow(N=n, M=m, max_err_u=float("nan"),
                                 max_err_s=float("nan"), variant=label,
                                 failures=len(test_set)))
            continue
        model_key = (stored, n, m if stored else min(m, final.M))
        if model_key in measured:
            rows.append(replace(measured[model_key]))
            continue
        # a stored checkpoint that cannot be read raises (ArchiveError)
        cp = result.checkpoint(n, m)
        errs_u, errs_s, failures = [], [], 0
        for mu in test_set:
            try:
                u_ref, s_ref = refs.get(mu, model_guess)
                sol = cp.solve(mu, newton)
            except (NewtonFailure, SolverFailure):
                failures += 1
                continue
            du = u_ref - cp.lift_values(sol)
            errs_u.append(float(np.sqrt(max(du @ (problem.mass @ du), 0.0))))
            errs_s.append(abs(s_ref - cp.output(sol)))
        measured[model_key] = StudyRow(
            N=cp.N, M=cp.M, max_err_u=max(errs_u) if errs_u else float("nan"),
            max_err_s=max(errs_s) if errs_s else float("nan"), variant=label,
            failures=failures)
        rows.append(measured[model_key])
    return rows


def format_row(row):
    variant = row.variant if row.failures == 0 else row.variant + "!incomplete"
    return f"{row.N},{row.M},{row.max_err_u:.2e},{row.max_err_s:.2e},{variant}"


def emit_table(rows, path):
    """Write rows as CSV, 3 significant digits, ordered by (variant, N)."""
    if not rows:
        raise ValueError("no study rows to emit")
    ordered = sorted(rows, key=lambda r: (r.variant, r.N))
    lines = ["N,M,max_err_u,max_err_s,variant"]
    lines.extend(format_row(r) for r in ordered)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fem import SolverFailure, build_mesh, build_space
from .nonlinear import (NewtonConfig, NewtonFailure, NonlinearProblem,
                        NonlinearTerm, SolveCounter, truth_newton_solve)

D_MIN = 0.01
D_MAX = 10.0


class Parameter(NamedTuple):
    mu1: float
    mu2: float


def in_parameter_domain(mu):
    return D_MIN <= mu[0] <= D_MAX and D_MIN <= mu[1] <= D_MAX


class SampleSet:
    """Deterministic parameter sample, log-spaced over [0.01, 10]^2."""

    def __init__(self, points, descriptor):
        self.points = np.asarray(points, dtype=float)
        self.descriptor = descriptor

    @classmethod
    def log_grid(cls, n1, n2):
        """Lexicographically ordered log-equidistant grid (mu1 major)."""
        a = np.logspace(math.log10(D_MIN), math.log10(D_MAX), n1)
        b = np.logspace(math.log10(D_MIN), math.log10(D_MAX), n2)
        pts = [(x, y) for x in a for y in b]
        return cls(pts, f"log-grid({n1}x{n2})")

    @classmethod
    def log_random(cls, count, seed):
        rng = np.random.default_rng(seed)
        pts = 10.0 ** rng.uniform(math.log10(D_MIN), math.log10(D_MAX),
                                  size=(count, 2))
        return cls(pts, f"log-random({count},seed={seed})")

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return Parameter(*self.points[i])

    def __iter__(self):
        for row in self.points:
            yield Parameter(*row)


def benchmark_term():
    """g(u; mu) = mu1 (e^(mu2 u) - 1)/mu2 and its u-derivative mu1 e^(mu2 u).

    expm1 keeps the small-mu2*u regime accurate; mu2 >= 0.01 in the
    parameter domain so the division is safe.
    """
    def g(u, xy, mu):
        with np.errstate(over="ignore"):  # inf marks a diverged iterate
            return mu[0] * np.expm1(mu[1] * np.asarray(u)) / mu[1]

    def dg(u, xy, mu):
        with np.errstate(over="ignore"):
            return mu[0] * np.exp(mu[1] * np.asarray(u))

    return NonlinearTerm(g, dg)


def benchmark_rhs(xy):
    return 100.0 * np.sin(2 * np.pi * xy[:, 0]) * np.sin(2 * np.pi * xy[:, 1])


def benchmark_problem(n=32, degree=2):
    space = build_space(build_mesh(n), degree)
    return NonlinearProblem(space, benchmark_term(), benchmark_rhs)


def default_checkpoints(r, n_max, m_max, count=5):
    """Five proportional (N, M) stages; for r=1 builds these are N=M rows."""
    out = []
    for j in range(1, count + 1):
        n = max(1, round(j * n_max / count))
        m = max(1, round(j * m_max / count))
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
    """Cached truth solutions and outputs over a test sample.

    These reference solves are bookkept on their own counter, separate
    from any build's solve count.
    """

    def __init__(self, problem, newton=None):
        self.problem = problem
        self.newton = newton or NewtonConfig()
        self.counter = SolveCounter()
        self.cache = {}

    def get(self, mu):
        key = tuple(mu)
        if key not in self.cache:
            u, _ = truth_newton_solve(self.problem, key, self.newton,
                                      counter=self.counter)
            self.cache[key] = (u.values, self.problem.average(u.values))
        return self.cache[key]


def run_error_study(result, test_set, checkpoints, newton=None,
                    references=None, variant=None):
    """Max solution / output errors over the test set at each (N, M) stage.

    Per-parameter solver failures are counted on the row instead of
    aborting the study; a row with failures is flagged when emitted.
    """
    newton = newton or NewtonConfig()
    model = result.model if hasattr(result, "model") else result
    refs = references or TruthReferences(model.problem, newton)
    label = variant or model.label or "model"
    rows = []
    for (n, m) in checkpoints:
        try:
            cp = result.checkpoint(n, m) if hasattr(result, "checkpoint") \
                else model.restrict(n, m)
        except ValueError:
            # stage not reachable from this build; emit an incomplete row
            rows.append(StudyRow(N=n, M=m, max_err_u=float("nan"),
                                 max_err_s=float("nan"), variant=label,
                                 failures=len(test_set)))
            continue
        errs_u, errs_s, failures = [], [], 0
        for mu in test_set:
            try:
                u_ref, s_ref = refs.get(mu)
                sol = cp.solve(mu, newton)
            except (NewtonFailure, SolverFailure):
                failures += 1
                continue
            du = u_ref - cp.lift_values(sol)
            errs_u.append(float(np.sqrt(max(du @ (model.problem.mass @ du), 0.0))))
            errs_s.append(abs(s_ref - cp.output(sol)))
        rows.append(StudyRow(N=n, M=m,
                             max_err_u=max(errs_u) if errs_u else float("nan"),
                             max_err_s=max(errs_s) if errs_s else float("nan"),
                             variant=label, failures=failures))
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

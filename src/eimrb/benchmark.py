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
from .screen import gamma

D_MIN = 0.01
D_MAX = 10.0
# ulps of numpy's expm1 and exp that the benchmark term's error bound
# allows; their float32 loops measured at most 2.5 and 2.2 ulps against
# float64 over mu in [0.01, 10]^2 and mu2 u in [-60, 88]
# (tests/test_benchmark.py checks the allowance)
TERM_ULPS = 8


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
    (NonlinearTerm).  Each is evaluated into the one array that its first
    product makes, by the operations of mu1 * expm1(mu2 u) / mu2 and
    mu1 * exp(mu2 u) in their order, so with their bits and no temporary
    of the block's size.  On float32 u and parameters they compute in
    float32.

    Its error bound (NonlinearTerm) on a row of values v in [lo, hi]
    against exact values w within du of them, with u the precision's
    unit roundoff, gamma_n = n u / (1 - n u) and g' = mu1 e^(mu2 u)
    increasing:

    * the argument mu2 v is rounded by the parameter and the product,
      so it is off by gamma_2 |mu2 v|, which moves g by at most
      gamma_2 e^(gamma_2 mu2 |v|) |v| g'(hi);
    * expm1 is off by TERM_ULPS ulps, at most 2 TERM_ULPS u relative,
      and the roundings of mu1, mu2, the product and the quotient add
      gamma_4 relative, of at most max |g| over [lo - du, hi + du];
    * w differs from v by du, which moves g by at most du g'(hi + du);
    * an underflow adds at most a few smallest normals, scaled by
      mu1 / mu2 through expm1.
    """
    def g(u, mus):
        mu1, mu2 = mus[:, :1], mus[:, 1:]
        out = mu2 * u
        np.expm1(out, out=out)
        out *= mu1
        out /= mu2
        return out

    def dg(u, mus):
        mu1, mu2 = mus[:, :1], mus[:, 1:]
        out = mu2 * u
        np.exp(out, out=out)
        out *= mu1
        return out

    def error_bound(lo, hi, du, mus, dtype):
        unit, tiny = np.finfo(dtype).eps / 2, np.finfo(dtype).tiny
        mu1, mu2 = mus[:, 0], mus[:, 1]
        top, bottom = hi + du, lo - du
        slope = mu1 * np.exp(mu2 * top)
        size = mu1 / mu2 * np.maximum(np.abs(np.expm1(mu2 * top)),
                                      np.abs(np.expm1(mu2 * bottom)))
        reach = np.maximum(np.abs(lo), np.abs(hi))
        argument = gamma(2, unit) * np.exp(gamma(2, unit) * mu2 * reach)
        rounding = 2 * TERM_ULPS * unit + gamma(4, unit)
        # the last factor covers the float64 roundoff of this formula
        return (rounding * size + (argument * reach + du) * slope
                + 16 * tiny * (1 + slope / mu2)) * (1 + 1e-9)

    return NonlinearTerm(g, dg, error_bound)


def benchmark_rhs(xy):
    return 100.0 * np.sin(2 * np.pi * xy[:, 0]) * np.sin(2 * np.pi * xy[:, 1])


def benchmark_problem(n, degree):
    space = FESpace(Mesh(n), degree)
    return NonlinearProblem(space, benchmark_term(), benchmark_rhs)


def default_checkpoints(r, n_max, m_max):
    """Five proportional (N, M) stages of n_max and m_max; for r=1 builds
    these are N=M rows.  The stages depend on n_max and m_max alone: r
    is not read."""
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

    A solve starts from the caller's guess when it has one.  Otherwise it
    starts at a secant prediction from two cached solutions, in log
    mu (``predict``), and a solve from a prediction that fails
    (NewtonFailure or SolverFailure) is made once more from the cached
    solution the prediction extrapolates; only that second failure is
    raised.  Every solve stops by the same rule (``truth_newton_solve``),
    so the start moves a solution only at the level of that tolerance.
    A cache shared by several callers, as ``compare`` shares one across
    its error studies, keeps the solution started from the guess of
    whichever caller asked first; that order is fixed by the caller's
    code, so the results are deterministic.

    All its solves share one ``Chord``: each solve first steps with the
    last Jacobian factor of the solves before it, and refactors only
    when that factor stops contracting.  The factor is carried in call
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

    def predict(self, mu):
        """The secant prediction at mu and the cached solution u_a it
        extrapolates from; (None, None) while the cache is empty.

        a is the cached parameter nearest to mu in log-parameter
        distance, and b the other one nearest to a's mirror image
        2 log a - log mu (each the first cached on a tie;
        ``nonlinear.nearest``).  With s the projection of log mu - log a
        onto log a - log b, clipped to [0, 1], the prediction is
        u_a + s (u_a - u_b): the linear extrapolation 2 u_a - u_b when b
        is the point before a on mu's grid line, and u_a itself (the
        same array) when s is 0 or only a is cached.
        """
        if not self.cache:
            return None, None
        solutions = [u for u, _ in self.cache.values()]    # in _logs' order
        log_mu = np.log(mu)
        a = nearest(self._logs, log_mu)
        u_a = solutions[a]
        if len(solutions) == 1:
            return u_a, u_a
        log_a = self._logs[:, a]
        b = nearest(np.delete(self._logs, a, axis=1), 2 * log_a - log_mu)
        b += b >= a
        step = log_a - self._logs[:, b]
        length = step @ step
        s = min(max((log_mu - log_a) @ step / length, 0.0), 1.0) \
            if length > 0 else 0.0
        if s == 0.0:
            return u_a, u_a
        return u_a + s * (u_a - solutions[b]), u_a

    def get(self, mu, guess=None):
        """The cached (solution, output) at mu, solved on a miss.  guess,
        if given, is called with mu on a miss only; the initial values it
        returns replace the secant prediction, and None keeps it."""
        key = tuple(mu)
        if key not in self.cache:
            initial = guess(key) if guess is not None else None
            fallback = None
            if initial is None:
                initial, fallback = self.predict(key)
            try:
                u, _ = truth_newton_solve(self.problem, key, self.newton,
                                          initial, self.chord)
            except (NewtonFailure, SolverFailure):
                if fallback is None or fallback is initial:
                    raise
                u, _ = truth_newton_solve(self.problem, key, self.newton,
                                          fallback, self.chord)
            self.cache[key] = (u, self.problem.average(u))
            self._logs = np.column_stack([self._logs, np.log(key)])
        return self.cache[key]


def tour(points):
    """Indices of the parameters points in a greedy nearest-neighbour tour
    in log-parameter distance: from the first, always to the nearest
    parameter not yet visited, the first of them on a tie
    (``nonlinear.nearest``)."""
    logs = np.log(np.array(points, dtype=float).reshape(-1, 2)).T
    order, left = [], list(range(logs.shape[1]))
    while left:
        k = nearest(logs[:, left], logs[:, order[-1]]) if order else 0
        order.append(left.pop(k))
    return order


def run_error_study(result, test_set, checkpoints, newton=None,
                    references=None):
    """Max solution / output errors over the test set at each (N, M)
    stage of a BuildResult.  A row names the (N, M) of the model it
    measured, so a stage asking for more fields than the build made
    reads the build's M.  Each distinct model is measured once: a stage
    that resolves to a model measured before (the same stored
    checkpoint, or the same restriction of the final model) gets a copy
    of that stage's row.

    Every truth reference is fetched before the first model is
    measured, along ``tour(test_set)``, so that each reference solve
    starts near the one before it and the Jacobian factor that the
    references carry over (``Chord``) mostly still contracts.  Each
    reference is solved once, and a study that measures no model solves
    none.  Per-parameter solver failures, of a reference or of the
    model, are counted on the row instead of aborting the study; a row
    with failures is flagged when emitted.
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

    test_mus = list(test_set)
    unsolved = set()    # indices of the references that failed
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
        if not measured:
            # before the first model measured, every reference, once
            for k in tour(test_mus):
                try:
                    refs.get(test_mus[k], model_guess)
                except (NewtonFailure, SolverFailure):
                    unsolved.add(k)
        errs_u, errs_s, failures = [], [], len(unsolved)
        for k, mu in enumerate(test_mus):
            if k in unsolved:
                continue
            try:
                u_ref, s_ref = refs.get(mu)
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

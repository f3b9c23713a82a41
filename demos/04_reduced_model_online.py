"""Offline/online split: build a reduced model, then solve fast at new
parameters.

The sequential (standard) build first trains the interpolation basis of
the nonlinearity from truth solves over the whole training grid, then
assembles the reduced blocks.  Afterwards each new
parameter costs a few dense N x N Newton iterations, independent of the
mesh: each query starts at the tangent prediction from the model's own
solution at the nearest training parameter.
"""

import time

import numpy as np

import eimrb as er

problem = er.benchmark_problem(n=16, degree=2)
train = er.SampleSet.log_grid(8, 8)
cfg = er.SerConfig(r="standard", n_max=10, m_max=14, train_set=train)

t0 = time.perf_counter()
result = er.build_ser(problem, cfg)
print(f"offline build: {time.perf_counter() - t0:.1f}s, "
      f"{result.report.fe_solve_count} finite element solves, "
      f"N={result.model.N}, M={result.model.M}")

rng = np.random.default_rng(0)
mus = [tuple(10.0 ** rng.uniform(-2, 1, 2)) for _ in range(5)]
print(f"\n{'mu':>16}  {'s truth':>12} {'s reduced':>12} {'u err L2':>10} "
      f"{'truth ms':>9} {'online ms':>9} {'iters':>5}")
for mu in mus:
    t0 = time.perf_counter()
    u_ref, _ = er.truth_newton_solve(problem, mu)
    t_truth = time.perf_counter() - t0
    t0 = time.perf_counter()
    sol = result.model.solve(mu)
    t_online = time.perf_counter() - t0
    du = u_ref - result.model.lift_values(sol)
    err = float(np.sqrt(du @ (problem.mass @ du)))
    print(f"({mu[0]:6.3f},{mu[1]:6.3f})  {problem.average(u_ref):12.6f} "
          f"{result.model.output(sol):12.6f} {err:10.1e} "
          f"{t_truth * 1e3:9.1f} {t_online * 1e3:9.2f} "
          f"{sol.newton_iters:5d}")

"""Full-order Newton solves of the exponential reaction benchmark.

    -Laplace(u) + mu1 (e^(mu2 u) - 1)/mu2 = 100 sin(2 pi x) sin(2 pi y)

The nonlinearity is mild near mu = (0.01, 0.01) and stiff near (10, 10).
The script solves at the four corners of the parameter domain plus the
center, reporting Newton iteration counts, the solution range and the
output s (the average of u over the domain).
"""

import time

import eimrb as er

problem = er.benchmark_problem(n=32, degree=2)
print(f"space: {problem.space.ndof} dofs, P{problem.space.degree} elements\n")

solves = 0
for mu in [(0.01, 0.01), (10, 0.01), (0.01, 10), (10, 10), (1, 1)]:
    t0 = time.perf_counter()
    u, stats = er.truth_newton_solve(problem, mu)
    solves += 1
    elapsed = time.perf_counter() - t0
    s = problem.average(u)
    print(f"mu=({mu[0]:5.2f}, {mu[1]:5.2f}): {stats.iterations:2d} Newton its, "
          f"residual {stats.final_residual_norm:.1e}, "
          f"u in [{u.min():+.3f}, {u.max():+.3f}], "
          f"s = {s:+.6f}  ({elapsed * 1e3:.0f} ms)")

print(f"\nfinite element solves performed: {solves}")
print("note how the absorber term flattens the positive lobe as mu grows")

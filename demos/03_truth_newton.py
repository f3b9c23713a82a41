"""Full-order Newton solves of the exponential reaction benchmark.

    -Laplace(u) + mu1 (e^(mu2 u) - 1)/mu2 = 100 sin(2 pi x) sin(2 pi y)

The nonlinearity is mild near mu = (0.01, 0.01) and stiff near (10, 10).
The script solves at the four corners of the parameter domain plus the
center, reporting Newton iteration counts, the solution range and the
output s (the average of u over the domain).  It then walks mu2 from
0.01 to 10 at mu1 = 1 three times: from u = 0 at every step, from the
previous solution, and from the previous solution with one Chord slot
that carries the last Jacobian factor along the walk.  Each step shows
the Newton iterations and the Jacobian factorisations of the three.
"""

import time

import numpy as np

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
          f"residual {stats.residual_history[-1]:.1e}, "
          f"u in [{u.min():+.3f}, {u.max():+.3f}], "
          f"s = {s:+.6f}  ({elapsed * 1e3:.0f} ms)")

print("\ncontinuation in mu2 at mu1 = 1, Newton its / factorisations:\n"
      "from u = 0, from the previous solution, and from it with the last "
      "factor kept (one Chord slot)")
chord = er.Chord()
previous = kept = None
totals = np.zeros((3, 2), dtype=int)
for mu2 in np.logspace(-2, 1, 13):
    mu = (1.0, float(mu2))
    cells, values = [], []
    for k, (initial, slot) in enumerate([(None, er.Chord()),
                                         (previous, er.Chord()),
                                         (kept, chord)]):
        made = slot.factorizations
        u, stats = er.truth_newton_solve(problem, mu, initial=initial,
                                         chord=slot)
        totals[k] += (stats.iterations, slot.factorizations - made)
        cells.append(f"{stats.iterations:2d} / {slot.factorizations - made:2d}")
        values.append(u)
    solves += 3
    cold, previous, kept = values
    print(f"mu2={mu2:6.3f}: " + "   ".join(cells) + ", max |kept - cold| = "
          f"{np.abs(kept - cold).max():.1e}")
for name, (its, made) in zip(["from u = 0", "continued", "with one slot"],
                             totals):
    print(f"total {name:>13s}: {its:3d} Newton its, {made:3d} factorisations")
print(f"\nfinite element solves performed: {solves}")
print("note how the absorber term flattens the positive lobe as mu grows")

"""The point of the simultaneous build: finite element solves per model.

The standard pipeline pays one nonlinear truth solve per training
parameter before the interpolation bases exist.  The simultaneous build
(r = 1) scans the training set with the evolving reduced model instead,
paying only N + 1 truth solves in total: one to initialize, then one per
basis vector, each solved with the current interpolated operator.  The
grouped variant (1 < r < M) and the rebuild variant sit in between.
"""


import eimrb as er

problem = er.benchmark_problem(n=16, degree=2)
train = er.SampleSet.log_grid(8, 8)
test = er.SampleSet.log_random(30, 42)
refs = er.TruthReferences(problem)
roomy = er.NewtonConfig(max_iter=200)

variants = [
    ("standard (r=M)", er.SerConfig(r="standard", n_max=8, m_max=10,
                                    train_set=train, newton=roomy)),
    ("grouped (r=5)", er.SerConfig(r=5, n_max=8, m_max=10,
                                   train_set=train, newton=roomy)),
    ("simultaneous, rebuilt basis", er.SerConfig(r=1, rebuild_wn=True,
                                                 n_max=10, m_max=10,
                                                 train_set=train, newton=roomy)),
    ("simultaneous (r=1)", er.SerConfig(r=1, n_max=10, m_max=10,
                                        train_set=train, newton=roomy)),
]

print(f"training set: {len(train)} parameters\n")
print(f"{'variant':>28}  {'fe solves':>9}  {'max u err':>10}  {'max s err':>10}")
for name, cfg in variants:
    result = er.build_ser(problem, cfg)
    rows = er.run_error_study(result, test,
                              [(result.model.N, result.model.M)],
                              references=refs)
    row = rows[0]
    print(f"{name:>28}  {result.report.fe_solve_count:9d}  "
          f"{row.max_err_u:10.2e}  {row.max_err_s:10.2e}")

print("\nthe r=1 build reaches comparable accuracy with a solve count of"
      " N + 1 instead of one per training parameter")

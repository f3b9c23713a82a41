"""Reduced-order solvers for nonlinear, non-affinely parametrized PDEs.

The package pairs an empirical interpolation engine (affine surrogates
of the nonlinear terms) with a reduced basis Galerkin solver.  One
offline build, ``build_ser``, updates the basis every r interpolation
steps: r = 1 is the simultaneous build (one finite element solve per
basis vector plus one), 1 < r < M the grouped intermediates, and
r = "standard" (r = M) the sequential build with exact truth snapshots.

scipy serves sparse work only (assembly, the nested-dissection order
and the sparse LU) and is imported only inside the functions that do
it.  Every dense solve runs on numpy, so one BLAS library and one thread
pool do the dense work of a process.  ``import eimrb``, ``load_model``
and the solve of a loaded model load numpy alone, so the cold start of
an online query pays for no more.
"""

from .fem import (Mesh, FESpace, SolverFailure, assemble_load,
                  assemble_stiffness, assemble_weighted_mass,
                  nested_dissection, triangle_quadrature)
from .nonlinear import (CHORD_CONTRACTION, Chord, MassFields, NewtonConfig,
                        NewtonFailure, NonlinearProblem, NonlinearTerm,
                        SolveStats, SurrogateSolver, newton_failure,
                        truth_jacobian, truth_newton_solve,
                        truth_newton_solve_eim)
from .eim import (DegenerateInterpolationPoint, DegenerateSnapshot, EimBasis,
                  EimTrainingError, GreedyStep, eim_greedy_step,
                  eim_initialize)
from .rb import DependentSnapshot, RbSolution, RbSpace, ReducedModel
from .ser import (BuildReport, BuildResult, SerBuildError, SerConfig,
                  StepRecord, build_ser, reduced_g_block, truth_g_block)
from .benchmark import (D_MAX, D_MIN, SampleSet, StudyRow, TruthReferences,
                        benchmark_problem, benchmark_rhs, benchmark_term,
                        default_checkpoints, emit_table, in_parameter_domain,
                        run_error_study)
from .archive import ArchiveError, load_model, save_model
from .config import ConfigError, RunSettings, load_config, parse_config

__version__ = "0.1.0"

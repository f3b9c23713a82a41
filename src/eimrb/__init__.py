"""Reduced-order solvers for nonlinear, non-affinely parametrized PDEs.

The package pairs an empirical interpolation engine (affine surrogates
of the nonlinear terms) with a reduced basis Galerkin solver, and
provides three offline build schedules: the sequential one, the
simultaneous one (one finite element solve per basis vector plus one),
and grouped intermediates.
"""

from .fem import (FEField, Mesh, FESpace, SolverFailure, apply_dirichlet,
                  assemble_load, assemble_stiffness, assemble_weighted_mass,
                  build_mesh, build_space, eval_at_points, h1_inner, l2_norm,
                  solve_sparse, triangle_quadrature)
from .nonlinear import (NewtonConfig, NewtonFailure, NonlinearProblem,
                        NonlinearTerm, SolveCounter, SolveStats,
                        SurrogateSolver, check_derivative, truth_jacobian,
                        truth_newton_solve, truth_newton_solve_eim)
from .eim import (DegenerateInterpolationPoint, DegenerateSnapshot, EimBasis,
                  EimTrainingError, GreedyStep, eim_greedy_step,
                  eim_initialize, eim_train)
from .rb import (DependentSnapshot, RbSolution, RbSpace, ReducedBlocks,
                 ReducedModel)
from .ser import (BuildReport, BuildResult, SerBuildError, SerConfig,
                  StepRecord, TruthSolutionSource, ReducedSolutionSource,
                  build_ser, build_standard)
from .benchmark import (D_MAX, D_MIN, Parameter, SampleSet, StudyRow,
                        TruthReferences, benchmark_problem, benchmark_rhs,
                        benchmark_term, default_checkpoints, emit_table,
                        in_parameter_domain, run_error_study)
from .archive import load_model, save_model
from .config import ConfigError, RunSettings, load_config, parse_config

__version__ = "0.1.0"

"""Command line driver: build models, run studies, solve, compare variants.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 I/O error (a file that cannot be read, or an archive that cannot be
loaded), 5 standard output closed by its reader (as by ``| head -1``)
before the command had printed everything; the files it wrote stay.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .archive import ArchiveError, fingerprint_json, load_model, save_model
from .benchmark import (TruthReferences, benchmark_problem,
                        default_checkpoints, emit_table, in_parameter_domain,
                        run_error_study)
from .config import ConfigError, load_config
from .eim import (DegenerateInterpolationPoint, DegenerateSnapshot,
                  EimTrainingError)
from .fem import SolverFailure
from .nonlinear import NewtonFailure
from .ser import SerBuildError, build_ser

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_PIPE = 5


def _variant_slug(label):
    """File name part of a variant label: r=1-rebuild gives r1_rebuild."""
    if label == "r=M":
        return "standard"
    return label.replace("=", "").replace("-", "_")


def _write_report(report, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.summary_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _screened_rows(report, samples):
    """The rows the float32 screen ran over the rows of the reduced sweeps
    of a build with `samples` training parameters."""
    counts = [s.screened for s in report.steps if s.screened is not None]
    return f"screened_rows={sum(counts)}/{len(counts) * samples}"


def cmd_build(args):
    settings = load_config(args.config)
    cfg = settings.ser_config()
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = build_ser(benchmark_problem(settings.mesh_n, settings.degree), cfg)
    save_model(out / "model.npz", result,
               fingerprint=fingerprint_json(settings.fingerprint_dict()))
    _write_report(result.report, out / "build_report.json")
    print(f"variant {result.report.variant}: N={result.model.N} "
          f"M={result.model.M} fe_solves={result.report.fe_solve_count} "
          f"truth_factorizations={result.report.truth_factorizations} "
          f"{_screened_rows(result.report, len(cfg.train_set))} "
          f"wall={result.report.wall_time:.2f}s")
    print(f"model archive: {out / 'model.npz'}")
    return EXIT_OK


def cmd_study(args):
    settings = load_config(args.config)
    result = load_model(args.model)
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoints = default_checkpoints(result.report.r, result.model.N,
                                      result.model.M)
    rows = run_error_study(result, settings.test_set(), checkpoints,
                           newton=settings.newton())
    path = out / f"table_{_variant_slug(result.report.variant)}.csv"
    emit_table(rows, path)
    for row in rows:
        print(f"N={row.N:3d} M={row.M:3d} max_err_u={row.max_err_u:.2e} "
              f"max_err_s={row.max_err_s:.2e}")
    print(f"table: {path}")
    return EXIT_OK


def cmd_solve(args):
    mu = (args.mu1, args.mu2)
    if not in_parameter_domain(mu):
        raise ConfigError(f"mu={mu} outside the parameter domain [0.01, 10]^2")
    t0 = time.perf_counter()
    result = load_model(args.model)
    t1 = time.perf_counter()
    sol = result.model.solve(mu)
    t2 = time.perf_counter()
    s = result.model.output(sol)
    print(f"mu=({mu[0]:g}, {mu[1]:g})  s_N={s:.10e}  "
          f"newton_iters={sol.newton_iters}  time={(t2 - t1) * 1e3:.3f}ms  "
          f"load={(t1 - t0) * 1e3:.3f}ms")
    return EXIT_OK


def cmd_compare(args):
    settings = load_config(args.config)
    base = settings.ser_config()
    m = settings.m_max
    # the r=1 builds grow the basis with the interpolant: N = M; a variant
    # that its build config refuses is a config error, found before any
    # file is written
    square = dict(n_max=m, m_max=m, checkpoints=default_checkpoints(1, m, m))
    try:
        variants = [
            replace(base, r="standard", rebuild_wn=False),
            replace(base, r=5, rebuild_wn=False),
            replace(base, r=1, rebuild_wn=True, **square),
            replace(base, r=1, rebuild_wn=False, **square),
        ]
    except SerBuildError as exc:
        raise ConfigError(f"compare variants: {exc}") from None
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = benchmark_problem(settings.mesh_n, settings.degree)
    test_set = settings.test_set()
    refs = TruthReferences(problem, settings.newton())
    counts = []
    for cfg in variants:
        result = build_ser(problem, cfg)
        label = result.report.variant
        slug = _variant_slug(label)
        rows = run_error_study(result, test_set, cfg.checkpoints,
                               newton=settings.newton(), references=refs)
        emit_table(rows, out / f"table_{slug}.csv")
        _write_report(result.report, out / f"build_report_{slug}.json")
        counts.append((label, result.report.fe_solve_count))
        print(f"variant {label}: fe_solves={result.report.fe_solve_count} "
              f"truth_factorizations={result.report.truth_factorizations} "
              f"{_screened_rows(result.report, len(cfg.train_set))} "
              f"wall={result.report.wall_time:.2f}s")
    with open(out / "solve_counts.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,fe_solve_count\n")
        for label, count in counts:
            fh.write(f"{label},{count}\n")
    print(f"tables and solve counts written to {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eimrb",
        description="Reduced models for the exponential reaction benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="train a model and write its archive")
    p.add_argument("config")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("study", help="emit the error table for a saved model")
    p.add_argument("config")
    p.add_argument("model")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("solve", help="online solve at one parameter")
    p.add_argument("model")
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--mu2", type=float, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run all four build variants")
    p.add_argument("config")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()          # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: the output still buffered, and the flush at
        # interpreter exit, go to os.devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonFailure, SolverFailure, SerBuildError, EimTrainingError,
            DegenerateSnapshot, DegenerateInterpolationPoint) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ArchiveError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint():
    sys.exit(main())

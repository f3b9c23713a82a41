"""Command line driver: build models, run studies, solve, compare variants.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 I/O error.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .archive import fingerprint_json, load_model, save_model
from .benchmark import (TruthReferences, benchmark_problem,
                        default_checkpoints, emit_table, in_parameter_domain,
                        run_error_study)
from .config import ConfigError, load_config
from .eim import EimTrainingError
from .fem import SolverFailure
from .nonlinear import NewtonFailure
from .ser import SerBuildError, SerConfig, build_ser

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _variant_slug(label):
    return {"r=M": "standard", "r=5": "r5", "r=1": "r1",
            "r=1-rebuild": "r1_rebuild"}.get(
        label, "".join(c if c.isalnum() else "_" for c in label))


def _ser_config(settings, r=None, rebuild=None, n_max=None, m_max=None):
    r = settings.r if r is None else r
    rebuild = settings.rebuild_wn if rebuild is None else rebuild
    n_max = settings.n_max if n_max is None else n_max
    m_max = settings.m_max if m_max is None else m_max
    return SerConfig(r=r, rebuild_wn=rebuild, n_max=n_max, m_max=m_max,
                     train_set=settings.train_set(),
                     newton=settings.newton(),
                     saturation_tol=settings.saturation_tol,
                     checkpoints=default_checkpoints(r, n_max, m_max))


def _write_report(report, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.summary_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_build(args):
    settings = load_config(args.config)
    cfg = _ser_config(settings)
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = build_ser(benchmark_problem(settings.mesh_n, settings.degree), cfg)
    save_model(out / "model.npz", result,
               fingerprint=fingerprint_json(settings.fingerprint_dict()))
    _write_report(result.report, out / "build_report.json")
    print(f"variant {result.report.variant}: N={result.model.N} "
          f"M={result.model.eim_g.M} fe_solves={result.report.fe_solve_count} "
          f"wall={result.report.wall_time:.2f}s")
    print(f"model archive: {out / 'model.npz'}")
    return EXIT_OK


def cmd_study(args):
    settings = load_config(args.config)
    result = load_model(args.model)
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = result.model.label
    checkpoints = default_checkpoints(result.report.r, result.model.N,
                                      result.model.eim_g.M)
    refs = TruthReferences(result.model.problem, settings.newton())
    rows = run_error_study(result, settings.test_set(), checkpoints,
                           newton=settings.newton(), references=refs)
    path = out / f"table_{_variant_slug(label)}.csv"
    emit_table(rows, path)
    for row in rows:
        print(f"N={row.N:3d} M={row.M:3d} max_err_u={row.max_err_u:.2e} "
              f"max_err_s={row.max_err_s:.2e}")
    print(f"table: {path}")
    return EXIT_OK


def cmd_solve(args):
    result = load_model(args.model)
    mu = (args.mu1, args.mu2)
    if not in_parameter_domain(mu):
        raise ConfigError(f"mu={mu} outside the parameter domain [0.01, 10]^2")
    t0 = time.perf_counter()
    sol = result.model.solve(mu)
    elapsed = time.perf_counter() - t0
    s = result.model.output(sol)
    print(f"mu=({mu[0]:g}, {mu[1]:g})  s_N={s:.10e}  "
          f"newton_iters={sol.newton_iters}  time={elapsed * 1e3:.3f}ms")
    return EXIT_OK


def cmd_compare(args):
    settings = load_config(args.config)
    out = Path(settings.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = benchmark_problem(settings.mesh_n, settings.degree)
    test_set = settings.test_set()
    refs = TruthReferences(problem, settings.newton())
    variants = [
        _ser_config(settings, r="standard", rebuild=False),
        _ser_config(settings, r=5, rebuild=False),
        _ser_config(settings, r=1, rebuild=True,
                    n_max=settings.m_max, m_max=settings.m_max),
        _ser_config(settings, r=1, rebuild=False,
                    n_max=settings.m_max, m_max=settings.m_max),
    ]
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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonFailure, SolverFailure, SerBuildError, EimTrainingError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint():
    sys.exit(main())

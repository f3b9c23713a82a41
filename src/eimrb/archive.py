"""Versioned model archives (npz): everything the online solver needs.

An archive stores the mesh/degree pair (the benchmark problem is
rebuilt deterministically from it), the build's update frequency r and
rebuild flag, the reduced basis, all reduced blocks and traces, the
interpolation basis, a config fingerprint, and any per-stage checkpoint
models recorded during the build.  A loaded model reproduces online
outputs bit for bit; it cannot be extended further (the full-order
operators are not stored).
"""

import json

import numpy as np

from .benchmark import benchmark_problem
from .eim import EimBasis
from .rb import RbSpace, ReducedBlocks, ReducedModel
from .ser import BuildReport, BuildResult

FORMAT_VERSION = 2


def _model_arrays(model, prefix=""):
    d = {
        prefix + "xi": model.rb.basis_matrix(),
        prefix + "snapshot_mus": np.asarray(model.rb.mus, dtype=float),
        prefix + "A": model.blocks.A,
        prefix + "F": model.blocks.F,
        prefix + "Rq": model.blocks.Rq,
        prefix + "Tr": model.blocks.Tr,
        prefix + "avg": model.blocks.avg,
    }
    d.update(model.eim_g.to_arrays(prefix + "eimg_"))
    return d


def _model_from_arrays(problem, data, label, prefix=""):
    rb = RbSpace.from_basis(problem.space, np.array(data[prefix + "xi"]),
                            [tuple(r) for r in np.atleast_2d(data[prefix + "snapshot_mus"])])
    blocks = ReducedBlocks(problem)
    blocks.A = np.array(data[prefix + "A"])
    blocks.F = np.array(data[prefix + "F"])
    blocks.Rq = np.array(data[prefix + "Rq"])
    blocks.Tr = np.array(data[prefix + "Tr"])
    blocks.avg = np.array(data[prefix + "avg"])
    blocks._mass_qs = None
    blocks._nbasis = rb.N
    eim_g = EimBasis.from_arrays(problem.space, data, prefix + "eimg_")
    return ReducedModel(problem, rb, blocks, eim_g, label=label)


def save_model(path, result, fingerprint=""):
    """Write a BuildResult to an npz archive."""
    model, checkpoints, report = result.model, result.checkpoints, result.report
    space = model.problem.space
    data = {
        "format_version": np.int64(FORMAT_VERSION),
        "mesh_n": np.int64(space.mesh.n_cells_per_side),
        "degree": np.int64(space.degree),
        "label": np.str_(model.label),
        "r": np.str_(report.r),
        "rebuild_wn": np.bool_(report.rebuild_wn),
        "fingerprint": np.str_(fingerprint),
        "fe_solve_count": np.int64(report.fe_solve_count),
        "checkpoint_keys": np.asarray(sorted(checkpoints), dtype=np.int64).reshape(-1, 2),
    }
    data.update(_model_arrays(model))
    for i, key in enumerate(sorted(checkpoints)):
        data.update(_model_arrays(checkpoints[key], f"cp{i}_"))
    np.savez(path, **data)
    return path


def load_model(path):
    """Load an archive back into a BuildResult (its report holds the solve
    count, r and the rebuild flag, not the step log)."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported archive format version {version}")
        problem = benchmark_problem(int(data["mesh_n"]), int(data["degree"]))
        label = str(data["label"])
        model = _model_from_arrays(problem, data, label)
        checkpoints = {}
        for i, key in enumerate(np.atleast_2d(data["checkpoint_keys"])):
            if len(key) == 0:
                continue
            checkpoints[(int(key[0]), int(key[1]))] = _model_from_arrays(
                problem, data, label, f"cp{i}_")
        r = str(data["r"])
        report = BuildReport(variant=label,
                             fe_solve_count=int(data["fe_solve_count"]),
                             r=int(r) if r.isdigit() else r,
                             rebuild_wn=bool(data["rebuild_wn"]))
        fingerprint = str(data["fingerprint"])
    result = BuildResult(model=model, report=report, checkpoints=checkpoints)
    result.fingerprint = fingerprint
    return result


def fingerprint_json(settings_dict):
    return json.dumps(settings_dict, sort_keys=True)

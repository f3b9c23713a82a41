"""Versioned model archives (npz): everything the online solver needs.

An archive stores the mesh/degree pair, the build's update frequency r
and rebuild flag, a config fingerprint, and the arrays of the final
``ReducedModel`` under its field names: the interpolation points ``t``
(integers) and matrix ``B``, then ``A``, ``F``, ``Rq``, ``Tr``, ``avg``,
``basis`` and ``snapshot_mus``.  The interpolant's fields are not
stored: the online solve reads them only through ``Rq``.  A stored
checkpoint adds the same arrays under the prefix ``cp<i>_``; builds
store one only where a later basis rebuild makes it unrecoverable from
the final model.  A loaded model reproduces online outputs bit for bit.

A load rebuilds only the benchmark problem's mesh and space, from the
mesh/degree pair, and assembles nothing: the problem's operators are
made on first use, and no online solve uses them.
"""

import json
import zipfile

import numpy as np

from .benchmark import benchmark_problem
from .rb import ReducedModel
from .ser import BuildReport, BuildResult

FORMAT_VERSION = 4
MODEL_ARRAYS = ("t", "B", "A", "F", "Rq", "Tr", "avg", "basis", "snapshot_mus")


class ArchiveError(ValueError):
    """The file is not a model archive of this format version: another
    version, a file of another kind, or an archive missing an array."""


def _model_arrays(model, prefix=""):
    return {prefix + name: np.asarray(getattr(model, name),
                                      dtype=np.int64 if name == "t" else float)
            for name in MODEL_ARRAYS}


def _model_from_arrays(problem, data, label, prefix=""):
    return ReducedModel(problem,
                        *(data[prefix + name] for name in MODEL_ARRAYS),
                        label=label)


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


def _result_from_arrays(data):
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported archive format version {version}")
    problem = benchmark_problem(int(data["mesh_n"]), int(data["degree"]))
    label = str(data["label"])
    checkpoints = {(int(n), int(m)): _model_from_arrays(problem, data, label,
                                                        f"cp{i}_")
                   for i, (n, m) in enumerate(data["checkpoint_keys"])}
    r = str(data["r"])
    report = BuildReport(variant=label,
                         fe_solve_count=int(data["fe_solve_count"]),
                         r=int(r) if r.isdigit() else r,
                         rebuild_wn=bool(data["rebuild_wn"]))
    # an archive keeps only the online model, not the build's interpolant
    result = BuildResult(model=_model_from_arrays(problem, data, label),
                         report=report, eim_g=None, checkpoints=checkpoints)
    result.fingerprint = str(data["fingerprint"])
    return result


def load_model(path):
    """Load an archive back into a BuildResult (its report holds the solve
    count, r and the rebuild flag, not the step log).

    Raises ArchiveError for a file that is not a readable archive of this
    format version, and OSError when the file cannot be opened.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an npz archive")
        with data:
            return _result_from_arrays(data)
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ArchiveError(f"cannot load model archive {path}: {exc}") from exc


def fingerprint_json(settings_dict):
    return json.dumps(settings_dict, sort_keys=True)

"""Versioned model archives (npz): everything the online solver needs.

An archive (format 5) stores the mesh/degree pair, the build's update
frequency r and rebuild flag, a config fingerprint, and the arrays of
the final ``ReducedModel`` under its field names: the interpolation
points ``t`` (integers) and matrix ``B``, then ``A``, ``F``, ``Rq``,
``Tr``, ``avg``, ``W``, ``basis`` and ``snapshot_mus``.  ``W`` is the
model's ``Rq^T B^{-1}`` with the bytes and memory layout it has in
memory, so a load runs no triangular solve and ``W @ g`` keeps its bits.
The interpolant's fields are not stored: the online solve reads them
only through ``Rq``.  A stored checkpoint adds the same arrays under the
prefix ``cp<i>_``; builds store one only where a later basis rebuild
makes it unrecoverable from the final model.  A loaded model reproduces
online outputs bit for bit.

A load reads the file once and parses only what an online solve reads:
it rebuilds the benchmark problem's mesh and the space's dof lattice
from the mesh/degree pair and assembles nothing, since the problem's
operators and the space's element data are made on first use and no
online solve uses them.  The final model's ``basis``, the one array as
long as the dofs, is parsed from the bytes read at load on the model's
first lift, and each stored checkpoint on first access
(StoredCheckpoints), so a file replaced later is never read.  A load
refuses an archive missing a checkpoint array at once, and one whose
arrays do not fit each other or the rebuilt space, or whose ``W`` does
not solve ``W B = Rq^T``, when the model is parsed; the basis's shape is
read from its npy header alone.  A basis whose data cannot be parsed
raises ArchiveError at the first lift.
"""

import io
import json
import zipfile
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from .benchmark import benchmark_problem
from .rb import ReducedModel
from .ser import BuildReport, BuildResult

FORMAT_VERSION = 5
MODEL_ARRAYS = ("t", "B", "A", "F", "Rq", "Tr", "avg", "W", "basis",
                "snapshot_mus")
# a stored W is refused unless every entry of W B - Rq^T is within this
# fraction of the same entry of |W| |B| (a triangular solve leaves about
# M times the unit roundoff there)
W_CHECK_REL = 1e-10


class ArchiveError(ValueError):
    """The file is not a model archive of this format version: another
    version, a file of another kind, an archive missing an array, or one
    whose arrays do not fit each other or cannot be parsed."""


def _model_arrays(model, prefix=""):
    return {prefix + name: np.asarray(getattr(model, name),
                                      dtype=np.int64 if name == "t" else float)
            for name in MODEL_ARRAYS}


def _header_shape(data, name):
    """Shape of the npz member name, read from its npy header alone."""
    if name not in data.files:
        raise KeyError(f"{name} is not a file in the archive")
    with data.zip.open(name + ".npy") as fh:
        version = np.lib.format.read_magic(fh)
        read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                else np.lib.format.read_array_header_2_0)
        return read(fh)[0]


def _model_from_arrays(path, problem, data, label, prefix=""):
    """The model stored under prefix, after checking that every array's
    shape fits the others and the problem's space, and that W fits B and
    Rq.  Its basis is parsed from data on first use."""
    arrays = {name: data[prefix + name] for name in MODEL_ARRAYS
              if name != "basis"}
    shapes = {name: a.shape for name, a in arrays.items()}
    shapes["basis"] = _header_shape(data, prefix + "basis")
    n, m, ndof = arrays["F"].size, arrays["t"].size, problem.space.ndof
    expected = {"t": (m,), "B": (m, m), "A": (n, n), "F": (n,), "Rq": (m, n),
                "Tr": (n, m), "avg": (n,), "basis": (ndof, n), "W": (n, m),
                "snapshot_mus": (n, 2)}
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ValueError(f"{prefix}{name} has shape {shapes[name]}, "
                             f"expected {shape} on {ndof} dofs")
    t = arrays["t"]
    if m and not (0 <= t.min() and t.max() < ndof):
        raise ValueError(f"{prefix}t holds a point outside the {ndof} dofs")
    W, B, Rq = arrays["W"], arrays["B"], arrays["Rq"]
    if not np.all(np.abs(W @ B - Rq.T) <= W_CHECK_REL * (np.abs(W) @ np.abs(B))):
        raise ValueError(f"{prefix}W does not solve W B = Rq^T to "
                         f"{W_CHECK_REL:g} relative")

    def read_basis():
        with _reading(path):
            return data[prefix + "basis"]

    model = ReducedModel(problem, t, B, arrays["A"], arrays["F"], Rq,
                         arrays["Tr"], arrays["avg"], read_basis,
                         arrays["snapshot_mus"], label=label)
    model.W = W
    return model


@contextmanager
def _reading(path):
    """Report any failure to parse the archive at path as ArchiveError."""
    try:
        yield
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ArchiveError(f"cannot load model archive {path}: {exc}") from exc


class StoredCheckpoints(Mapping):
    """The checkpoint models of a loaded archive, read-only, each parsed
    from the archive's bytes on first access and then kept.

    Membership comes from the stored keys alone, so a damaged checkpoint
    raises ArchiveError when it is read and is never taken as absent.
    """

    def __init__(self, path, data, problem, label):
        self._path, self._data = path, data
        self._problem, self._label = problem, label
        self._prefixes = {(int(n), int(m)): f"cp{i}_"
                          for i, (n, m) in enumerate(data["checkpoint_keys"])}
        members = {prefix + name for prefix in self._prefixes.values()
                   for name in MODEL_ARRAYS}
        missing = sorted(members - set(data.files))
        if missing:
            raise ValueError(f"{missing[0]} is not a file in the archive")
        self._models = {}

    def __getitem__(self, key):
        if key not in self._models:
            prefix = self._prefixes[key]
            with _reading(self._path):
                self._models[key] = _model_from_arrays(
                    self._path, self._problem, self._data, self._label, prefix)
        return self._models[key]

    def __contains__(self, key):
        return key in self._prefixes

    def __iter__(self):
        return iter(self._prefixes)

    def __len__(self):
        return len(self._prefixes)


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


def _result_from_arrays(path, data):
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported archive format version {version}")
    problem = benchmark_problem(int(data["mesh_n"]), int(data["degree"]))
    label = str(data["label"])
    checkpoints = StoredCheckpoints(path, data, problem, label)
    r = str(data["r"])
    report = BuildReport(variant=label,
                         fe_solve_count=int(data["fe_solve_count"]),
                         r=int(r) if r.isdigit() else r,
                         rebuild_wn=bool(data["rebuild_wn"]))
    # an archive keeps only the online model, not the build's interpolant
    result = BuildResult(model=_model_from_arrays(path, problem, data, label),
                         report=report, eim_g=None, checkpoints=checkpoints)
    result.fingerprint = str(data["fingerprint"])
    return result


def load_model(path):
    """Load an archive back into a BuildResult (its report holds the solve
    count, r and the rebuild flag, not the step log).

    The file is read once, whole; the final model is parsed from its
    bytes at once, its basis on its first lift, and each stored
    checkpoint on first access.

    Raises ArchiveError for a file that is not a readable archive of this
    format version, and OSError when the file cannot be opened.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    with _reading(path):
        data = np.load(io.BytesIO(raw), allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an npz archive")
        return _result_from_arrays(path, data)


def fingerprint_json(settings_dict):
    return json.dumps(settings_dict, sort_keys=True)

"""Versioned model archives (npz): everything the online solver needs.

An archive (format 8) holds two members per model and one metadata
record.  ``meta`` is one JSON string: the format version, the mesh/degree
pair, the build's variant label ``label`` (``BuildReport.variant``),
its update frequency r and rebuild flag, its finite element solve
count, a config fingerprint, the keys of the stored checkpoints, and
for each model its basis size ``N`` and its interpolation points ``t``
(a list of dof indices).  ``floats`` is one
float64 vector holding the final ``ReducedModel``'s ``B``, ``A``, ``F``,
``Rq``, ``Tr``, ``avg``, ``snapshot_mus`` and ``snapshot_coeffs`` in
that order, each raveled in C order; their shapes follow from N and
M = len(t).  ``W = Rq^T B^{-1}`` is not stored: a loaded model forms it
on its first solve from its stored ``B`` and ``Rq`` with the call the
built model made, so ``W @ g`` keeps its bits on the machine that
loads it.  ``snapshot_coeffs`` is the model's N x N table of its reduced
solutions at its snapshot parameters, where its online solves start: it
is made when the archive is written, so a load and a query never pay for
it, and a loaded model starts every query where the saved one does.
``basis`` is the (ndof, N) stacked basis.  The interpolant's fields are
not stored: the online solve reads them only through ``Rq``.  A stored
checkpoint adds ``floats`` and ``basis`` under the prefix ``cp<i>_`` and
its N and t under the same prefix in ``meta``; builds store one only
where a later basis rebuild makes it unrecoverable from the final model.
A loaded model reproduces online outputs bit for bit.

A load reads the file once and parses two members: ``meta`` and the
final model's ``floats``, each array of which becomes its own
C-contiguous copy.  Of ``basis``, the one array as long as the dofs, it
reads only the npy header, to check the stored mesh against it before
the mesh is built; the data is parsed from the bytes read at load on the
model's first lift.  A stored checkpoint's ``floats`` is parsed on its
first access (StoredCheckpoints), so a file replaced later is never
read.  The load rebuilds the benchmark problem's mesh and the space's
dof lattice and assembles nothing: the problem's operators and the
space's element data are made on first use, and no online solve uses
them.  It refuses an older format, a ``meta`` that is not JSON or holds
a missing or mistyped entry or a model with N = 0 or no point, and an
archive missing a checkpoint member at once; an archive whose arrays do
not fit each other or the rebuilt space, whose ``B`` is not exactly unit
lower triangular (the form the solve that makes ``W`` relies on), or
whose ``snapshot_coeffs`` holds a value that is not finite, when the
model is parsed.  A format 7 archive, which stores ``W``, is refused
like every older one.  A basis whose data cannot be parsed raises
ArchiveError at the first lift.
"""

import io
import json
import math
import tokenize
import zipfile
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from .benchmark import benchmark_problem
from .rb import ReducedModel
from .ser import BuildReport, BuildResult

FORMAT_VERSION = 8
# the type of each archive-wide metadata entry (bool is no int here)
META_TYPES = {"format_version": int, "mesh_n": int, "degree": int,
              "label": str, "r": (int, str), "rebuild_wn": bool,
              "fingerprint": str, "fe_solve_count": int,
              "checkpoint_keys": list}


class ArchiveError(ValueError):
    """The file is not a model archive of this format version: another
    version, a file of another kind, an archive missing a member or a
    metadata entry, or one whose arrays do not fit each other or cannot
    be parsed."""


def _float_shapes(n, m):
    """Shape of each array of a floats member, in their order there, for
    N = n and M = m."""
    return {"B": (m, m), "A": (n, n), "F": (n,), "Rq": (m, n), "Tr": (n, m),
            "avg": (n,), "snapshot_mus": (n, 2),
            "snapshot_coeffs": (n, n)}


def _model_members(model, prefix):
    """The npz members and the metadata entries of one model."""
    names = _float_shapes(model.N, model.M)
    floats = np.concatenate([np.asarray(getattr(model, name), dtype=float)
                             .ravel() for name in names])
    members = {prefix + "floats": floats,
               prefix + "basis": np.asarray(model.basis, dtype=float)}
    meta = {prefix + "N": model.N, prefix + "t": [int(p) for p in model.t]}
    return members, meta


def _is_ints(value):
    return type(value) is list and all(type(x) is int for x in value)


def _read_meta(data):
    """The metadata record, after checking its version and the type of
    every entry."""
    if "meta" not in data.files and "format_version" in data.files:
        raise ValueError("unsupported archive format version "
                         f"{data['format_version']}")
    try:
        meta = json.loads(str(data["meta"]))
    except (json.JSONDecodeError, RecursionError) as exc:   # too deep
        raise ValueError(f"meta is not valid JSON: {exc}") from exc
    if type(meta) is not dict:
        raise ValueError("meta is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported archive format version "
                         f"{meta.get('format_version')}")
    for key, kind in META_TYPES.items():
        if key not in meta:
            raise ValueError(f"meta lacks {key}")
        if type(meta[key]) not in (kind if type(kind) is tuple else (kind,)):
            raise ValueError(f"meta {key} holds {meta[key]!r}")
    keys = meta["checkpoint_keys"]
    if not all(_is_ints(key) and len(key) == 2 for key in keys):
        raise ValueError(f"meta checkpoint_keys holds {keys!r}")
    for prefix in _prefixes(meta):
        for key, valid in ((prefix + "N", lambda n: type(n) is int and n >= 1),
                           (prefix + "t", lambda t: _is_ints(t) and t != [])):
            if key not in meta:
                raise ValueError(f"meta lacks {key}")
            if not valid(meta[key]):
                raise ValueError(f"meta {key} holds {meta[key]!r}")
    return meta


def _prefixes(meta):
    """The member prefix of the final model and of each stored
    checkpoint, in the order of checkpoint_keys."""
    return [""] + [f"cp{i}_" for i in range(len(meta["checkpoint_keys"]))]


def _header_shape(data, name):
    """Shape of the npz member name, read from its npy header alone."""
    if name not in data.files:
        raise KeyError(f"{name} is not a file in the archive")
    with data.zip.open(name + ".npy") as fh:
        version = np.lib.format.read_magic(fh)
        read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                else np.lib.format.read_array_header_2_0)
        return read(fh)[0]


def _check_mesh(meta, basis_shape, nbytes):
    """Refuse a mesh/degree pair that names no mesh, or whose dof count
    differs from the basis's rows or could not be stored in nbytes,
    before any of it is built."""
    mesh_n, degree = meta["mesh_n"], meta["degree"]
    if mesh_n < 1 or degree not in (1, 2, 3):
        raise ValueError(f"meta mesh_n={mesh_n}, degree={degree} names no "
                         "mesh of degree 1, 2 or 3")
    ndof = (degree * mesh_n + 1) ** 2
    mesh = f"the {mesh_n}x{mesh_n} P{degree} mesh"
    if basis_shape[:1] != (ndof,):
        raise ValueError(f"basis has shape {basis_shape}, expected {ndof} "
                         f"rows on {mesh}")
    if ndof > nbytes:
        raise ValueError(f"basis has shape {basis_shape}: {mesh} has "
                         f"{ndof} dofs, more than the archive's {nbytes} "
                         "bytes")


def _model_from_members(path, problem, data, meta, basis_shape, prefix):
    """The model stored under prefix, after checking that its arrays fit
    each other and the problem's space, and that B is unit lower
    triangular; it is assigned its stored snapshot_coeffs.
    basis_shape is the shape in its basis's npy header; the basis itself
    is parsed from data on first use."""
    n, t = meta[prefix + "N"], meta[prefix + "t"]
    m, ndof = len(t), problem.space.ndof
    shapes = _float_shapes(n, m)
    floats = data[prefix + "floats"]
    size = sum(math.prod(shape) for shape in shapes.values())
    if floats.dtype != np.float64 or floats.shape != (size,):
        raise ValueError(f"{prefix}floats has shape {floats.shape} and dtype "
                         f"{floats.dtype}, expected ({size},) float64 for "
                         f"N={n}, M={m}")
    if basis_shape != (ndof, n):
        raise ValueError(f"{prefix}basis has shape {basis_shape}, expected "
                         f"{(ndof, n)} on {ndof} dofs")
    if not all(0 <= p < ndof for p in t):
        raise ValueError(f"{prefix}t holds a point outside the {ndof} dofs")
    arrays, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        arrays[name] = floats[start:stop].reshape(shape).copy()
        start = stop
    B = arrays["B"]
    if not ((np.triu(B) == np.eye(m)).all() and np.isfinite(B).all()):
        raise ValueError(f"{prefix}B is not unit lower triangular")
    if not np.all(np.isfinite(arrays["snapshot_coeffs"])):
        raise ValueError(f"{prefix}snapshot_coeffs holds a value that is "
                         "not finite")

    def read_basis():
        with _reading(path):
            return data[prefix + "basis"]

    model = ReducedModel(problem, t, B, arrays["A"], arrays["F"],
                         arrays["Rq"], arrays["Tr"], arrays["avg"], read_basis,
                         arrays["snapshot_mus"])
    model.snapshot_coeffs = arrays["snapshot_coeffs"]
    return model


@contextmanager
def _reading(path):
    """Report any failure to parse the archive at path as ArchiveError
    (numpy's npy header parse lets a tokenize error of a damaged header
    through, and zipfile raises NotImplementedError for a damaged
    compression method)."""
    try:
        yield
    except (EOFError, KeyError, NotImplementedError, ValueError,
            tokenize.TokenError, zipfile.BadZipFile) as exc:
        raise ArchiveError(f"cannot load model archive {path}: {exc}") from exc


class StoredCheckpoints(Mapping):
    """The checkpoint models of a loaded archive, read-only, each parsed
    from the archive's bytes on first access and then kept.

    Membership comes from the stored keys alone, so a damaged checkpoint
    raises ArchiveError when it is read and is never taken as absent.
    """

    def __init__(self, path, data, meta, problem):
        self._path, self._data, self._meta = path, data, meta
        self._problem = problem
        self._prefixes = {tuple(key): prefix for key, prefix in
                          zip(meta["checkpoint_keys"], _prefixes(meta)[1:])}
        members = {prefix + name for prefix in self._prefixes.values()
                   for name in ("floats", "basis")}
        missing = sorted(members - set(data.files))
        if missing:
            raise ValueError(f"{missing[0]} is not a file in the archive")
        self._models = {}

    def __getitem__(self, key):
        if key not in self._models:
            prefix = self._prefixes[key]
            with _reading(self._path):
                self._models[key] = _model_from_members(
                    self._path, self._problem, self._data, self._meta,
                    _header_shape(self._data, prefix + "basis"), prefix)
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
    keys = sorted(checkpoints)
    meta = {
        "format_version": FORMAT_VERSION,
        "mesh_n": int(space.mesh.n_cells_per_side),
        "degree": int(space.degree),
        "label": str(report.variant),
        "r": report.r if isinstance(report.r, str) else int(report.r),
        "rebuild_wn": bool(report.rebuild_wn),
        "fingerprint": str(fingerprint),
        "fe_solve_count": int(report.fe_solve_count),
        "checkpoint_keys": [[int(n), int(m)] for n, m in keys],
    }
    members = {}
    for prefix, stage in zip(_prefixes(meta),
                             [model] + [checkpoints[key] for key in keys]):
        stage_members, stage_meta = _model_members(stage, prefix)
        members.update(stage_members)
        meta.update(stage_meta)
    np.savez(path, meta=np.str_(json.dumps(meta, sort_keys=True)), **members)
    return path


def _result_from_members(path, data, nbytes):
    meta = _read_meta(data)
    basis_shape = _header_shape(data, "basis")
    _check_mesh(meta, basis_shape, nbytes)
    problem = benchmark_problem(meta["mesh_n"], meta["degree"])
    checkpoints = StoredCheckpoints(path, data, meta, problem)
    report = BuildReport(variant=meta["label"],
                         fe_solve_count=meta["fe_solve_count"],
                         r=meta["r"], rebuild_wn=meta["rebuild_wn"])
    # an archive keeps only the online model, not the build's interpolant
    model = _model_from_members(path, problem, data, meta, basis_shape, "")
    result = BuildResult(model=model, report=report, eim_g=None,
                         checkpoints=checkpoints)
    result.fingerprint = meta["fingerprint"]
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
        return _result_from_members(path, data, len(raw))


def fingerprint_json(settings_dict):
    return json.dumps(settings_dict, sort_keys=True)

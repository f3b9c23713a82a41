"""Versioned model archives: everything the online solver needs.

An archive (format 10) is a zip of stored (uncompressed) entries, each
with zipfile's fixed 1980 date, so two saves of one result write the
same bytes.  It holds two members per model and one metadata record.
``meta`` is UTF-8 JSON: the format version, the mesh/degree pair, the
build's variant label ``label`` (``BuildReport.variant``), its update
frequency r and rebuild flag, its finite element solve count, a config
fingerprint, the keys of the stored checkpoints, and for each model its
basis size ``N``, its interpolation points ``t`` (a list of dof
indices) and the row count ``P`` of its start table.  The other members
are raw little-endian float64 bytes with no header: every shape follows
from ``meta``, so numpy's np.load cannot read them.  ``floats`` holds
the final ``ReducedModel``'s ``B``, ``A``, ``F``, ``Rq``, ``Tr``,
``avg``, ``snapshot_mus``, and its start table's ``table.mus`` (P, 2),
``table.coeffs`` (P, N) and ``table.slopes`` (P, 2, N), in that order,
each raveled in C order; their shapes follow from N, M = len(t) and P.
``W = Rq^T B^{-1}`` is not stored: a loaded model forms it on its first
solve from its stored ``B`` and ``Rq`` with the call the built model
made, so ``W @ g`` keeps its bits on the machine that loads it.  The
start table (``ReducedModel.table``, made by the build with
``rb.start_table``) holds the rows of the model's training set where
its cold solve converged, with their solutions and slopes: a load and a
query never pay for it, a loaded model is given it and starts every
query where the saved one does, and a restriction of a loaded model
slices it as it would the built one's.  ``basis`` is the (ndof, N)
stacked basis, ndof = (degree * mesh_n + 1)^2; the
interpolant's fields are not stored (the online solve reads them only
through ``Rq``).  A stored checkpoint adds ``floats`` and ``basis``
under the prefix ``cp<i>_`` and its N, t and P under the same prefix in
``meta``; builds store one only where a later basis rebuild makes it
unrecoverable from the final model.  A loaded model reproduces online
outputs bit for bit.

A load reads the file once and two entries of it, ``meta`` and the
final model's ``floats`` (each array of which becomes its own
C-contiguous copy); every entry read checks its CRC.  It first checks
from the zip's central directory that ``floats`` holds 8 bytes per
entry of its arrays and ``basis`` 8 * ndof * N, so a damaged mesh is
refused before it is allocated.  The basis is parsed on the model's
first lift, and a stored checkpoint on its first access
(StoredCheckpoints), from the bytes read at load.  The load makes the
benchmark problem and builds nothing of it: the mesh, the dof lattice,
the element data and the operators are made on first use, and no
online solve uses them.  It refuses an older format (an npz, whose
version is read from its npy members on this failure path only), a
``meta`` that is not JSON or holds a missing or mistyped entry or a
model with N = 0 or no point, a missing member, and a model whose
members do not fit each other or the mesh, whose ``B`` is not exactly
unit lower triangular (the form the solve that makes ``W`` relies on),
or whose start table holds a value that is not finite or a parameter
that is not positive.  A basis whose bytes fail their CRC raises
ArchiveError at the first lift.
"""

import io
import json
import math
import zipfile
from collections.abc import Mapping
from contextlib import contextmanager
from operator import attrgetter

import numpy as np

from .benchmark import benchmark_problem
from .rb import ReducedModel, StartTable
from .ser import BuildReport, BuildResult

FORMAT_VERSION = 10
# the type of each archive-wide metadata entry (bool is no int here)
META_TYPES = {"format_version": int, "mesh_n": int, "degree": int,
              "label": str, "r": (int, str), "rebuild_wn": bool,
              "fingerprint": str, "fe_solve_count": int,
              "checkpoint_keys": list}
FLOAT = np.dtype("<f8")       # the layout of the floats and basis members


class ArchiveError(ValueError):
    """The file is not a model archive of this format version: another
    version, a file of another kind, an archive missing a member or a
    metadata entry, or one whose arrays do not fit each other or cannot
    be parsed."""


def _float_shapes(n, m, p):
    """Shape of each array of a floats member, by its attribute path on
    the model, in their order there, for N = n, M = m and a start table
    of p rows."""
    return {"B": (m, m), "A": (n, n), "F": (n,), "Rq": (m, n), "Tr": (n, m),
            "avg": (n,), "snapshot_mus": (n, 2), "table.mus": (p, 2),
            "table.coeffs": (p, n), "table.slopes": (p, 2, n)}


def _model_members(model, prefix):
    """The float members and the metadata entries of one model, which
    holds a start table."""
    rows = len(model.table.mus)
    floats = np.concatenate([
        np.asarray(attrgetter(name)(model), dtype=float).ravel()
        for name in _float_shapes(model.N, model.M, rows)])
    members = {prefix + "floats": floats, prefix + "basis": model.basis}
    meta = {prefix + "N": model.N, prefix + "t": [int(p) for p in model.t],
            prefix + "P": rows}
    return members, meta


def _is_ints(value):
    return type(value) is list and all(type(x) is int for x in value)


def _old_version(zf):
    """The format version of an npz archive of format 1-9, from its
    format_version member (formats 1-5) or its meta string."""
    if "format_version.npy" in zf.namelist():
        return np.load(zf.open("format_version.npy"))
    meta = json.loads(str(np.load(zf.open("meta.npy"))))
    return meta.get("format_version") if type(meta) is dict else None


def _read_meta(zf):
    """The metadata record, after checking its version and the type of
    every entry."""
    names = zf.namelist()
    if "meta" not in names:
        if "meta.npy" in names or "format_version.npy" in names:
            raise ValueError("unsupported archive format version "
                             f"{_old_version(zf)}")
        raise ValueError("meta is not a file in the archive")
    try:
        meta = json.loads(zf.read("meta"))
    except (ValueError, RecursionError) as exc:     # too deep, not UTF-8
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
                           (prefix + "t", lambda t: _is_ints(t) and t != []),
                           (prefix + "P", lambda p: type(p) is int and p >= 0)):
            if key not in meta:
                raise ValueError(f"meta lacks {key}")
            if not valid(meta[key]):
                raise ValueError(f"meta {key} holds {meta[key]!r}")
        for name in ("floats", "basis"):
            if prefix + name not in names:
                raise ValueError(f"{prefix}{name} is not a file in the "
                                 "archive")
    return meta


def _prefixes(meta):
    """The member prefix of the final model and of each stored
    checkpoint, in the order of checkpoint_keys."""
    return [""] + [f"cp{i}_" for i in range(len(meta["checkpoint_keys"]))]


def _float_count(meta, prefix):
    """The number of floats in the floats member of the model under
    prefix."""
    shapes = _float_shapes(meta[prefix + "N"], len(meta[prefix + "t"]),
                           meta[prefix + "P"])
    return sum(math.prod(shape) for shape in shapes.values())


def _check_sizes(zf, meta, prefix):
    """Refuse a mesh/degree pair that names no mesh, and a model under
    prefix whose member sizes, in the zip's central directory, do not
    fit its N, M and P and the mesh's dofs or whose points lie outside
    them, before any of it is read or built."""
    mesh_n, degree = meta["mesh_n"], meta["degree"]
    if mesh_n < 1 or degree not in (1, 2, 3):
        raise ValueError(f"meta mesh_n={mesh_n}, degree={degree} names no "
                         "mesh of degree 1, 2 or 3")
    ndof = (degree * mesh_n + 1) ** 2
    n, t, p = meta[prefix + "N"], meta[prefix + "t"], meta[prefix + "P"]
    for name, count in (("floats", _float_count(meta, prefix)),
                        ("basis", ndof * n)):
        size, expected = zf.getinfo(prefix + name).file_size, 8 * count
        if size != expected:
            raise ValueError(
                f"{prefix}{name} has {size} bytes, expected {expected} for "
                f"N={n}, M={len(t)}, P={p} on the {mesh_n}x{mesh_n} "
                f"P{degree} mesh ({ndof} dofs)")
    if not all(0 <= point < ndof for point in t):
        raise ValueError(f"{prefix}t holds a point outside the {ndof} dofs")


def _model_from_members(path, problem, zf, meta, prefix):
    """The model stored under prefix, whose member sizes _check_sizes
    passed, after checking that B is unit lower triangular and that the
    start table is finite; it is given its stored table.  The basis is
    parsed from the bytes of zf on first use."""
    n, t = meta[prefix + "N"], meta[prefix + "t"]
    m, ndof = len(t), problem.space.ndof
    floats = np.frombuffer(zf.read(prefix + "floats"), dtype=FLOAT,
                           count=_float_count(meta, prefix))
    arrays, start = {}, 0
    for name, shape in _float_shapes(n, m, meta[prefix + "P"]).items():
        stop = start + math.prod(shape)
        arrays[name] = floats[start:stop].reshape(shape).copy()
        start = stop
    B = arrays["B"]
    if not ((np.triu(B) == np.eye(m)).all() and np.isfinite(B).all()):
        raise ValueError(f"{prefix}B is not unit lower triangular")
    table = [arrays["table." + part] for part in ("mus", "coeffs", "slopes")]
    if not all(np.isfinite(a).all() for a in table):
        raise ValueError(f"{prefix}start table holds a value that is not "
                         "finite")
    if not (table[0] > 0).all():
        raise ValueError(f"{prefix}table.mus holds a parameter that is not "
                         "positive")

    def read_basis():
        with _reading(path):
            return np.frombuffer(zf.read(prefix + "basis"),
                                 dtype=FLOAT).reshape(ndof, n)

    return ReducedModel(problem, t, B, arrays["A"], arrays["F"],
                        arrays["Rq"], arrays["Tr"], arrays["avg"], read_basis,
                        arrays["snapshot_mus"], StartTable(*table))


@contextmanager
def _reading(path):
    """Report any failure to parse the archive at path as ArchiveError
    (zipfile raises NotImplementedError for a damaged compression
    method)."""
    try:
        yield
    except (EOFError, KeyError, NotImplementedError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ArchiveError(f"cannot load model archive {path}: {exc}") from exc


class StoredCheckpoints(Mapping):
    """The checkpoint models of a loaded archive, read-only, each parsed
    from the archive's bytes on first access and then kept.

    Membership comes from the stored keys alone, so a damaged checkpoint
    raises ArchiveError when it is read and is never taken as absent.
    """

    def __init__(self, path, zf, meta, problem):
        self._path, self._zf, self._meta = path, zf, meta
        self._problem = problem
        self._prefixes = {tuple(key): prefix for key, prefix in
                          zip(meta["checkpoint_keys"], _prefixes(meta)[1:])}
        self._models = {}

    def __getitem__(self, key):
        if key not in self._models:
            prefix = self._prefixes[key]
            with _reading(self._path):
                _check_sizes(self._zf, self._meta, prefix)
                self._models[key] = _model_from_members(
                    self._path, self._problem, self._zf, self._meta, prefix)
        return self._models[key]

    def __contains__(self, key):
        return key in self._prefixes

    def __iter__(self):
        return iter(self._prefixes)

    def __len__(self):
        return len(self._prefixes)


def save_model(path, result, fingerprint=""):
    """Write a BuildResult to a format 10 archive at path; two saves of
    one result write the same bytes."""
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
    with zipfile.ZipFile(path, "w") as zf:
        with zf.open("meta", "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode())
        for name, array in members.items():
            with zf.open(name, "w") as fh:
                fh.write(np.ascontiguousarray(array, dtype=FLOAT))
    return path


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
        zf = zipfile.ZipFile(io.BytesIO(raw))
        meta = _read_meta(zf)
        _check_sizes(zf, meta, "")
        problem = benchmark_problem(meta["mesh_n"], meta["degree"])
        # the online model only, not the build's interpolant
        model = _model_from_members(path, problem, zf, meta, "")
    report = BuildReport(variant=meta["label"],
                         fe_solve_count=meta["fe_solve_count"],
                         r=meta["r"], rebuild_wn=meta["rebuild_wn"])
    result = BuildResult(model=model, report=report, eim_g=None,
                         checkpoints=StoredCheckpoints(path, zf, meta,
                                                       problem))
    result.fingerprint = meta["fingerprint"]
    return result


def fingerprint_json(settings_dict):
    return json.dumps(settings_dict, sort_keys=True)

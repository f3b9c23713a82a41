import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eimrb as er
from eimrb import cli, fem, nonlinear
from eimrb.archive import _float_shapes
from eimrb.cli import EXIT_PIPE, _variant_slug, main

from conftest import (assert_same_model, assert_same_table, model_with,
                      poisoned_at, same_bits, with_term)


def _set_b(row, col, value):
    """Damage that sets entry (row, col) of the final model's B, the first
    M x M entries of its floats member."""
    def damage(meta, members):
        m = len(meta["t"])
        members["floats"][row % m * m + col % m] = value
    return damage


def _table_entries(meta, prefix=""):
    """The slice of the start table (P x 2 parameters, P x N solutions
    and P x 2 x N slopes) in the floats member of the model under prefix:
    its last entries."""
    n, p = meta[prefix + "N"], meta[prefix + "P"]
    return slice(-p * (2 + 3 * n), None)


def _without_table(meta, members):
    members["floats"] = np.delete(
        members["floats"],
        np.arange(members["floats"].size)[_table_entries(meta)])


def _format_6(meta, members):
    """Damage that makes a format 6 archive: its version, and floats
    without a table of starts."""
    _without_table(meta, members)
    meta.update(format_version=6)
    del meta["P"]


def _format_8(meta, members):
    """Damage that makes a format 8 archive: its version, and floats with
    the N x N table of reduced solutions at the snapshot parameters in
    place of the start table."""
    _without_table(meta, members)
    n = meta["N"]
    members["floats"] = np.concatenate([members["floats"], np.ones(n * n)])
    meta.update(format_version=8)
    del meta["P"]


def _format_7(meta, members):
    """Damage that makes a format 7 archive: its version, and floats with
    N x M entries for W after avg."""
    meta.update(format_version=7)
    _without_table(meta, members)
    del meta["P"]
    n, m = meta["N"], len(meta["t"])
    members["floats"] = np.concatenate([members["floats"], np.ones(n * n)])
    at = m * m + n * n + n + 2 * m * n + n
    members["floats"] = np.insert(members["floats"], at, np.zeros(n * m))


def _format_9(meta, members):
    """Damage that makes a format 9 archive: the entries of the npz that
    np.savez writes of the meta string and the float members, each with
    its npy header."""
    meta.update(format_version=9)
    npz = io.BytesIO()
    np.savez(npz, meta=np.str_(json.dumps(meta, sort_keys=True)),
             **{name: data for name, data in members.items() if name != "meta"})
    members.clear()
    members.update(_read_members(npz))


def _npy(value):
    """The npy bytes of value, as an npz archive stores a member."""
    buf = io.BytesIO()
    np.save(buf, value)
    return buf.getvalue()


def _old_format(version):
    """Damage that makes an archive of formats 1-5: a format_version.npy
    member and no meta."""
    def damage(meta, members):
        del members["meta"]
        members["format_version.npy"] = _npy(np.int64(version))
    return damage


def _cut(n=None, m=None):
    """Damage that stores the final model cut to its leading n basis
    vectors and m points (None keeps them all), each array of floats cut
    to fit as restrict cuts it, so that only the sizes are wrong."""
    def damage(meta, members):
        sizes = (meta["N"], len(meta["t"]))
        cut = (sizes[0] if n is None else n, sizes[1] if m is None else m)
        floats, start, parts = members["floats"], 0, []
        for shape, kept in zip(_float_shapes(*sizes, meta["P"]).values(),
                               _float_shapes(*cut, meta["P"]).values()):
            stop = start + math.prod(shape)
            block = floats[start:stop].reshape(shape)
            parts.append(block[tuple(map(slice, kept))].ravel())
            start = stop
        members["floats"] = np.concatenate(parts)
        members["basis"] = members["basis"][:, :cut[0]]
        meta.update(N=cut[0], t=meta["t"][:cut[1]])
    return damage


def _read_members(path):
    """The raw bytes of each entry of the zip at path, by name."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _write_members(path, members):
    """Write a stored zip of members: bytes as they are, an array as its
    raw little-endian float64 bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            if not isinstance(data, bytes):
                data = np.ascontiguousarray(data, dtype="<f8").tobytes()
            zf.writestr(zipfile.ZipInfo(name), data)


def _damage_archive(path, damage):
    """Rewrite the archive at path after damage(meta, members) changed its
    parsed metadata or its members in place: each float member a float64
    vector, the final model's basis shaped (ndof, N).  The changed
    metadata is stored unless the damage replaced or removed the meta
    member."""
    members = _read_members(path)
    stored = members["meta"]
    meta = json.loads(stored)
    for name, data in members.items():
        if name != "meta":
            members[name] = np.frombuffer(data, dtype="<f8").copy()
    members["basis"] = members["basis"].reshape(-1, meta["N"])
    damage(meta, members)
    if members.get("meta") is stored:
        members["meta"] = json.dumps(meta, sort_keys=True).encode()
    _write_members(path, members)


def _data_offset(raw, name):
    """Offset of the data of the entry name in the zip bytes raw."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        at = zf.getinfo(name).header_offset
    name_len, extra_len = struct.unpack("<HH", raw[at + 26:at + 30])
    return at + 30 + name_len + extra_len


class TestArchive:
    def test_round_trip_reproduces_online_outputs_bitwise(self, standard_small,
                                                          tmp_path):
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small, fingerprint="probe")
        loaded = er.load_model(path)
        assert loaded.fingerprint == "probe"
        assert loaded.report.fe_solve_count == standard_small.report.fe_solve_count
        for mu in [(0.37, 0.8), (5.0, 0.02), (2.0, 6.0)]:
            a = standard_small.model.solve(mu)
            b = loaded.model.solve(mu)
            assert np.array_equal(a.coeffs, b.coeffs)
            assert standard_small.model.output(a) == loaded.model.output(b)
        assert_same_model(loaded.model, standard_small.model)

    def test_checkpoints_survive_round_trip(self, standard_small, rebuild_small,
                                            tmp_path):
        mu = (1.2, 0.9)
        # a rebuilding build stores the stages that later updates rebuilt:
        # they are no prefixes of the final model
        path = tmp_path / "rebuild.npz"
        er.save_model(path, rebuild_small)
        loaded = er.load_model(path)
        assert set(loaded.checkpoints) == set(rebuild_small.checkpoints) == {(2, 2)}
        assert_same_model(loaded.checkpoints[(2, 2)],
                          rebuild_small.checkpoints[(2, 2)])
        assert_same_model(loaded.model, rebuild_small.model)
        # the standard build stores none; its stages are restrictions,
        # before and after the round trip
        path = tmp_path / "standard.npz"
        er.save_model(path, standard_small)
        loaded = er.load_model(path)
        assert loaded.checkpoints == standard_small.checkpoints == {}
        a = standard_small.checkpoint(3, 4).solve(mu)
        b = loaded.checkpoint(3, 4).solve(mu)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_load_assembles_nothing(self, ser_small, rebuild_small, tmp_path,
                                    monkeypatch):
        # a load makes the mesh and space objects only: with every
        # assembly and the dissection order unusable, the loaded models
        # (final, stored checkpoints and restrictions, of an r=1 and a
        # rebuilding build) still answer bitwise as the models built in
        # memory, and neither the mesh nor the dof lattice is ever built
        mus = list(er.SampleSet.log_random(20, seed=3))

        def answers(model):
            out = []
            for mu in mus:
                try:
                    sol = model.solve(mu)
                except er.NewtonFailure:
                    out.append(None)
                    continue
                out.append((sol.coeffs.tobytes(), model.output(sol).hex()))
            return out

        builds = {"r1": (ser_small, [(3, 3), (5, 5)]),
                  "rebuild": (rebuild_small, [(2, 2), (4, 4)])}
        expected = {}
        for name, (built, stages) in builds.items():
            er.save_model(tmp_path / f"{name}.npz", built)
            expected[name] = (answers(built.model),
                              [answers(built.checkpoint(*s)) for s in stages])
        assert set(rebuild_small.checkpoints) == {(2, 2)}   # one is stored

        def unusable(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"a load called {name}")
            return fail

        for module in (fem, nonlinear):
            for name in ("assemble_stiffness", "assemble_weighted_mass",
                         "assemble_load", "nested_dissection",
                         "_ReferenceElement", "triangle_quadrature"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unusable(name))
        # nor does a problem made afresh build the space's element data
        er.benchmark_problem(8, 2)
        for name, (built, stages) in builds.items():
            loaded = er.load_model(tmp_path / f"{name}.npz")
            assert set(loaded.checkpoints) == set(built.checkpoints)
            assert answers(loaded.model) == expected[name][0]
            assert [answers(loaded.checkpoint(*s))
                    for s in stages] == expected[name][1]
            space = loaded.model.problem.space
            assert not {"vertices", "triangles"} & set(vars(space.mesh))
            assert not {"dof_coords", "boundary_dofs",
                        "interior_dofs"} & set(vars(space))

    def test_load_parses_no_npy_header(self, rebuild_small, tmp_path,
                                       monkeypatch):
        # every member is raw bytes whose shape comes from meta: with
        # numpy's npy header parse unusable, a load, a solve, a lift and
        # a stored checkpoint's first access answer bitwise
        path = tmp_path / "rebuild.npz"
        er.save_model(path, rebuild_small)

        def no_header(*args, **kwargs):
            raise AssertionError("a load parsed an npy header")

        monkeypatch.setattr(np.lib.format, "read_magic", no_header)
        loaded = er.load_model(path)
        mu = (1.2, 0.9)
        for built, model in ((rebuild_small.model, loaded.model),
                             (rebuild_small.checkpoints[(2, 2)],
                              loaded.checkpoint(2, 2))):
            sol = model.solve(mu)
            assert same_bits(sol.coeffs, built.solve(mu).coeffs)
            assert same_bits(model.lift_values(sol), built.lift_values(sol))
            assert_same_model(model, built)

    def test_checkpoints_are_read_on_first_access(self, rebuild_small,
                                                  tmp_path, monkeypatch):
        # a load reads two members, the metadata and the final model's
        # floats; the basis is read on the model's first lift and a
        # stored checkpoint's floats on its first access, each once, from
        # the bytes read at load
        path = tmp_path / "rebuild.npz"
        er.save_model(path, rebuild_small)
        # a member is read as one zip entry
        reads = []
        read = zipfile.ZipFile.read

        def counting_entry(self, name, *args):
            reads.append(name)
            return read(self, name, *args)

        monkeypatch.setattr(zipfile.ZipFile, "read", counting_entry)
        loaded = er.load_model(path)
        assert reads == ["meta", "floats"]
        path.write_bytes(b"replaced after the load")
        for built, get, prefix in (
                (rebuild_small.model, lambda: loaded.model, ""),
                (rebuild_small.checkpoints[(2, 2)],
                 lambda: loaded.checkpoint(2, 2), "cp0_")):
            reads.clear()
            model = get()
            assert reads == ([] if not prefix else [prefix + "floats"])
            reads.clear()
            assert get() is model
            sol = model.solve((1.2, 0.9))
            assert reads == []
            lifted = model.lift_values(sol)
            assert reads == [prefix + "basis"]
            assert same_bits(lifted, built.lift_values(sol))
            model.lift_values(sol)
            model.lift_block(sol.coeffs[None])
            assert reads == [prefix + "basis"]
            assert_same_model(model, built)
        assert loaded.checkpoints[(2, 2)] is loaded.checkpoint(2, 2)

    def test_damaged_basis_is_refused_at_first_lift(self, standard_small,
                                                    tmp_path, tiny_config,
                                                    capsys):
        # a basis of the right size with a flipped data byte: the load
        # reads its size only and succeeds; the first lift reads it and
        # its CRC refuses it
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        raw = path.read_bytes()
        at = _data_offset(raw, "basis") + standard_small.model.basis.nbytes // 2
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        loaded = er.load_model(path).model
        sol = loaded.solve((1.2, 0.9))
        assert same_bits(sol.coeffs, standard_small.model.solve((1.2, 0.9)).coeffs)
        for _ in range(2):          # a failed parse is not kept
            with pytest.raises(er.ArchiveError,
                               match="Bad CRC-32 for file 'basis'"):
                loaded.lift_values(sol)
        capsys.readouterr()
        assert main(["study", str(tiny_config[0]), str(path)]) == 4
        assert capsys.readouterr().err.startswith("i/o error: cannot load")

    def test_damaged_checkpoint_is_refused(self, rebuild_small, tmp_path,
                                           tiny_config, capsys):
        path = tmp_path / "rebuild.npz"
        er.save_model(path, rebuild_small)
        stored = _read_members(path)
        # a missing checkpoint member is found at load, from the member
        # names
        for name in ("cp0_floats", "cp0_basis"):
            _write_members(path, {k: v for k, v in stored.items() if k != name})
            with pytest.raises(er.ArchiveError, match=f"{name} is not a file"):
                er.load_model(path)
        # floats one entry short, when the checkpoint is read: the stage
        # stays stored, so it is never made by restricting the final model
        # instead
        _write_members(path, {**stored,
                              "cp0_floats": stored["cp0_floats"][:-8]})
        loaded = er.load_model(path)
        assert (2, 2) in loaded.checkpoints
        short = r"cp0_floats has \d+ bytes, expected"
        with pytest.raises(er.ArchiveError, match=short):
            loaded.checkpoint(2, 2)
        # and a study of that stage stops with it, not with an empty row
        capsys.readouterr()
        assert main(["study", str(tiny_config[0]), str(path)]) == 4
        assert re.search(short, capsys.readouterr().err)

    def test_online_starts_survive_round_trip(self, ser_small, rebuild_small,
                                              tmp_path, monkeypatch):
        # the start table (its parameters, the solutions there and their
        # slopes) is stored with its bits, for the final model and for a
        # stored checkpoint: a loaded model starts every query where the
        # built one does, and neither the load nor a query solves for the
        # table again
        mus = list(er.SampleSet.log_random(20, seed=5))
        expected = {}
        for name, built in (("r1", ser_small), ("rebuild", rebuild_small)):
            er.save_model(tmp_path / f"{name}.npz", built)
            stages = [built.model] + [built.checkpoints[key]
                                      for key in sorted(built.checkpoints)]
            expected[name] = [(m.table, [m.solve(mu).coeffs for mu in mus])
                              for m in stages]

        def no_table(*args, **kwargs):
            raise AssertionError("a loaded model solved for its table")

        monkeypatch.setattr(er.ReducedModel, "solve_many", no_table)
        for name, stages in expected.items():
            loaded = er.load_model(tmp_path / f"{name}.npz")
            stored = [loaded.model] + [loaded.checkpoints[key]
                                       for key in sorted(loaded.checkpoints)]
            assert len(stored) == len(stages)
            for model, (table, answers) in zip(stored, stages):
                assert_same_table(model.table, table)
                for mu, coeffs in zip(mus, answers):
                    assert same_bits(model.solve(mu).coeffs, coeffs)

    def test_archive_stores_the_converged_rows_of_the_table(self,
                                                            standard_small,
                                                            tmp_path):
        # a row left out of the table is left out of the archive, and a
        # loaded model's table holds the stored rows
        model = standard_small.model
        mus = model.table.mus
        poisoned = with_term(model, g=poisoned_at(model.problem.term.g,
                                                  mus[4], np.nan))
        poisoned = model_with(poisoned,
                              table=er.rb.start_table(poisoned, mus))
        result = er.BuildResult(model=poisoned, report=standard_small.report,
                                eim_g=None)
        path = tmp_path / "model.npz"
        er.save_model(path, result)
        meta = json.loads(_read_members(path)["meta"])
        assert meta["P"] == len(mus) - 1
        loaded = er.load_model(path).model
        assert same_bits(loaded.table.mus, np.delete(mus, 4, axis=0))
        assert_same_table(loaded.table, poisoned.table)

    def test_loaded_model_restricts(self, standard_small, tmp_path):
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        loaded = er.load_model(path)
        small = loaded.model.restrict(2, 3)
        assert small.N == 2

    def test_archive_stores_each_model_once(self, rebuild_small, tmp_path):
        # format 10: a stored zip of one UTF-8 JSON metadata record, then
        # per model one floats vector of its arrays (raveled in C order,
        # in the order below, its start table last; no W) and its basis,
        # each raw little-endian float64 with no header, the stored
        # checkpoint under its prefix; the basis is the only member as
        # long as the dofs (no interpolant)
        path = tmp_path / "model.npz"
        er.save_model(path, rebuild_small)
        raw = _read_members(path)
        with zipfile.ZipFile(path) as zf:
            assert all(info.compress_type == zipfile.ZIP_STORED
                       and info.date_time == (1980, 1, 1, 0, 0, 0)
                       for info in zf.infolist())
        assert list(raw) == ["meta", "floats", "basis", "cp0_floats",
                             "cp0_basis"]
        meta = json.loads(raw["meta"].decode("utf-8"))
        assert meta["format_version"] == 10
        assert set(meta) == {"format_version", "mesh_n", "degree", "label",
                             "r", "rebuild_wn", "fingerprint",
                             "fe_solve_count", "checkpoint_keys", "N", "t",
                             "P", "cp0_N", "cp0_t", "cp0_P"}
        assert meta["checkpoint_keys"] == [[2, 2]]
        ndof = rebuild_small.model.problem.space.ndof
        for prefix in ("", "cp0_"):
            n, m, p = (meta[prefix + "N"], len(meta[prefix + "t"]),
                       meta[prefix + "P"])
            assert len(raw[prefix + "floats"]) == 8 * sum(
                math.prod(shape) for shape in _float_shapes(n, m, p).values())
            assert len(raw[prefix + "basis"]) == 8 * ndof * n
        # a loaded model forms W as the built one did: bytes and layout,
        # on which the bits of W @ g depend
        loaded = er.load_model(path)
        for prefix, built, model in (
                ("", rebuild_small.model, loaded.model),
                ("cp0_", rebuild_small.checkpoints[(2, 2)],
                 loaded.checkpoint(2, 2))):
            assert meta[prefix + "N"] == built.N
            assert meta[prefix + "t"] == built.t.tolist()
            assert meta[prefix + "P"] == len(built.table.mus) == 25
            assert all(type(p) is int for p in meta[prefix + "t"])
            assert model.t.dtype == np.int64
            floats = np.frombuffer(raw[prefix + "floats"], dtype="<f8")
            assert same_bits(floats, np.concatenate(
                [np.ravel(getattr(built, name)) for name in
                 ("B", "A", "F", "Rq", "Tr", "avg")]
                + [np.ravel(built.snapshot_mus)]
                + [np.ravel(getattr(built.table, part))
                   for part in ("mus", "coeffs", "slopes")]))
            assert same_bits(np.frombuffer(raw[prefix + "basis"], dtype="<f8")
                             .reshape(ndof, built.N), built.basis)
            assert same_bits(model.W, built.W)
            assert (model.W.flags.c_contiguous, model.W.flags.f_contiguous) \
                == (built.W.flags.c_contiguous, built.W.flags.f_contiguous)

    def test_seeded_damage_is_refused_or_harmless(self, rebuild_small,
                                                  tmp_path):
        # 1,700 seeded single-bit flips and 300 truncations of an archive
        # with a stored checkpoint: each damaged file raises ArchiveError
        # on load, solve, lift or checkpoint access, or answers bit for
        # bit as the undamaged one (a flip in a field that no load reads)
        path = tmp_path / "model.npz"
        er.save_model(path, rebuild_small)
        raw = path.read_bytes()
        mu = (0.37, 0.8)

        def answers(result):
            out = []
            for model in (result.model, result.checkpoint(2, 2)):
                sol = model.solve(mu)
                out += [sol.coeffs, model.output(sol), model.lift_values(sol)]
            return [np.asarray(a).tobytes() for a in out]

        expected = answers(er.load_model(path))

        def flipped(bit):
            data = bytearray(raw)
            data[bit // 8] ^= 1 << bit % 8
            return bytes(data)

        rng = np.random.default_rng(0)
        damaged = [flipped(bit) for bit in
                   rng.choice(8 * len(raw), size=1700, replace=False)]
        damaged += [raw[:cut] for cut in
                    np.linspace(0, len(raw) - 1, 300).astype(int)]
        refused = 0
        for data in damaged:
            path.write_bytes(data)
            try:
                got = answers(er.load_model(path))
            except er.ArchiveError:
                refused += 1
                continue
            assert got == expected
        assert refused > 0.9 * len(damaged)

    def test_two_saves_write_the_same_bytes(self, rebuild_small, tmp_path,
                                            monkeypatch):
        # every entry carries zipfile's fixed 1980 date, not the clock's:
        # a save a day later writes the same bytes
        path, saved = tmp_path / "model.npz", []
        stamp = time.time()
        for day in (0, 1):
            with monkeypatch.context() as patch:
                patch.setattr(time, "time", lambda: stamp + 86400 * day)
                er.save_model(path, rebuild_small)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("damage, match", [
        (_old_format(1), "unsupported archive format version 1"),
        (_old_format(2), "unsupported archive format version 2"),
        (_old_format(3), "unsupported archive format version 3"),
        (_old_format(4), "unsupported archive format version 4"),
        (_old_format(5), "unsupported archive format version 5"),
        (_format_6, "unsupported archive format version 6"),
        (_format_7, "unsupported archive format version 7"),
        (_format_8, "unsupported archive format version 8"),
        (lambda meta, members: meta.update(format_version=99),
         "unsupported archive format version 99"),
        (lambda meta, members: members.pop("meta"), "meta is not a file"),
        (lambda meta, members: members.update(meta=b"{6: 6}"),
         "meta is not valid JSON"),
        (lambda meta, members: members.update(meta=b"[" * 10**5),
         "meta is not valid JSON"),
        (lambda meta, members: members.update(meta=b"[6]"),
         "meta is not a JSON object"),
        (lambda meta, members: meta.pop("fe_solve_count"),
         "meta lacks fe_solve_count"),
        (lambda meta, members: meta.pop("t"), "meta lacks t"),
        (lambda meta, members: meta["t"].__setitem__(0, 1.0),
         "meta t holds"),
        (lambda meta, members: meta.update(mesh_n=str(meta["mesh_n"])),
         "meta mesh_n holds"),
        (lambda meta, members: meta.update(rebuild_wn=0),
         "meta rebuild_wn holds"),
        (lambda meta, members: members.update(floats=members["floats"][:-1]),
         "floats has \\d+ bytes, expected"),
        (lambda meta, members: members.pop("floats"), "floats is not a file"),
        (lambda meta, members: members.pop("basis"), "basis is not a file"),
        (_set_b(-1, -1, 1.0 + 2.0 ** -52), "B is not unit lower triangular"),
        (_set_b(0, -1, 1e-300), "B is not unit lower triangular"),
        (_set_b(-1, 0, np.nan), "B is not unit lower triangular"),
        (lambda meta, members: members.update(floats=np.delete(
            members["floats"], np.arange(members["floats"].size)[
                _table_entries(meta)])), "floats has \\d+ bytes, expected"),
        (lambda meta, members: members["floats"].__setitem__(-1, np.nan),
         "start table holds a value that is not finite"),
        (lambda meta, members: members["floats"].__setitem__(
            _table_entries(meta).start, np.inf),
         "start table holds a value that is not finite"),
        (lambda meta, members: members["floats"].__setitem__(
            _table_entries(meta).start + 1, 0.0),
         "table.mus holds a parameter that is not positive"),
        (lambda meta, members: meta.pop("P"), "meta lacks P"),
        (lambda meta, members: meta.update(P=-1), "meta P holds -1"),
        (lambda meta, members: meta.update(P=meta["P"] - 1),
         "floats has \\d+ bytes, expected"),
        (lambda meta, members: meta.update(t=[p + 10000 for p in meta["t"]]),
         "t holds a point outside"),
        (lambda meta, members: meta.update(mesh_n=2 * meta["mesh_n"]),
         "basis has \\d+ bytes, expected"),
        (_cut(n=0), "meta N holds 0"),
        (_cut(m=0), r"meta t holds \[\]"),
        (_format_9, "unsupported archive format version 9"),
        (b"not a model archive\n", "File is not a zip file"),
        (b"", "File is not a zip file"),
    ], ids=["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v99",
            "missing-meta",
            "bad-json", "deep-json", "meta-not-object", "meta-lacks-key",
            "meta-lacks-t", "t-float", "mesh_n-string", "rebuild_wn-int",
            "missing-A", "missing-floats", "missing-basis", "B-diagonal",
            "B-upper", "B-not-finite", "missing-table", "table-not-finite",
            "table-mu-not-finite", "table-mu-not-positive", "meta-lacks-P",
            "P-negative", "P-short",
            "t-outside", "other-mesh", "N-zero", "t-empty", "v9", "junk",
            "empty"])
    def test_unloadable_archive_is_refused(self, standard_small, tmp_path,
                                           capsys, damage, match):
        # every other member and entry is present, so only the damage
        # refuses it
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        if isinstance(damage, bytes):
            path.write_bytes(damage)
        else:
            _damage_archive(path, damage)
        with pytest.raises(ValueError, match=match) as info:
            er.load_model(path)
        assert isinstance(info.value, er.ArchiveError)
        capsys.readouterr()
        assert main(["solve", str(path), "--mu1", "1", "--mu2", "1"]) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("damage, match", [
        ("basis-size", "basis has {short} bytes, expected {full} "),
        ("compression", "cannot load"),
        ("floats-data", "Bad CRC-32 for file 'floats'")],
        ids=["basis-size", "compression", "floats-data"])
    def test_damaged_zip_entry_is_refused(self, standard_small, tmp_path,
                                          monkeypatch, capsys, damage, match):
        # damage to the zip entries: a basis one float short, refused from
        # its size in the central directory before the mesh is built, a
        # compression method zipfile does not know, in the central
        # directory, and a flipped byte in the data of floats, which a
        # load reads as one zip entry (so the entry's CRC must be checked)
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        full = standard_small.model.basis.nbytes
        match = match.format(short=full - 8, full=full)
        if damage == "basis-size":
            _damage_archive(path, lambda meta, members: members.update(
                basis=members["basis"].ravel()[:-1]))

            def build(*args):
                raise AssertionError("the load built a mesh")

            monkeypatch.setattr("eimrb.archive.benchmark_problem", build)
        raw = path.read_bytes()
        if damage == "compression":
            # the central directory entry of floats: its name at offset
            # 46, its compression method at offset 10
            entry = raw.index(b"PK\x01\x02")
            while raw[entry + 28:entry + 30] != struct.pack("<H", 6) \
                    or raw[entry + 46:entry + 52] != b"floats":
                entry = raw.index(b"PK\x01\x02", entry + 1)
            raw = raw[:entry + 10] + b"\x63\x00" + raw[entry + 12:]
        elif damage == "floats-data":
            at = _data_offset(raw, "floats") + 16
            raw = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]
        path.write_bytes(raw)
        with pytest.raises(er.ArchiveError, match=match):
            er.load_model(path)
        capsys.readouterr()
        assert main(["solve", str(path), "--mu1", "1", "--mu2", "1"]) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("meta_change, basis_rows, match", [
        ({"mesh_n": 10**6}, None, r"basis has [1-9]\d* bytes, expected \d+ "
                                  ".* on the 1000000x1000000 P2 mesh"),
        ({"mesh_n": 10**6}, (2 * 10**6 + 1) ** 2, r"basis has 0 bytes, "
         "expected .* on the 1000000x1000000 P2 mesh"),
        ({"degree": 4}, None, "names no mesh"),
        ({"degree": 0}, None, "names no mesh"),
        ({"mesh_n": 0}, None, "names no mesh"),
        ({"mesh_n": -3}, None, "names no mesh"),
        ({"mesh_n": True}, None, "meta mesh_n holds True"),
        ({"degree": 2.0}, None, "meta degree holds 2.0"),
    ], ids=["huge-mesh", "huge-mesh-empty-basis", "degree-4", "degree-0",
            "mesh_n-0", "mesh_n-negative", "mesh_n-bool", "degree-float"])
    def test_mesh_is_checked_before_it_is_built(self, standard_small,
                                                tmp_path, monkeypatch, capsys,
                                                meta_change, basis_rows,
                                                match):
        # a damaged mesh/degree pair is refused from the metadata and the
        # basis size in the zip's central directory alone: the mesh is
        # never built, and nothing as large as the mesh it names is
        # allocated (an empty basis of that many rows holds no data)
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)

        def damage(meta, members):
            meta.update(meta_change)
            if basis_rows is not None:
                members["basis"] = np.empty((basis_rows, 0))

        _damage_archive(path, damage)

        def build(*args):
            raise AssertionError("the load built a mesh")

        monkeypatch.setattr("eimrb.archive.benchmark_problem", build)
        with pytest.raises(er.ArchiveError, match=match):
            er.load_model(path)
        capsys.readouterr()
        assert main(["solve", str(path), "--mu1", "1", "--mu2", "1"]) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_build_parameters_survive_round_trip(self, ser_small,
                                                 standard_small, tmp_path):
        for result, expected in ((ser_small, (1, False, "r=1")),
                                 (standard_small, ("standard", False, "r=M"))):
            path = tmp_path / "model.npz"
            er.save_model(path, result)
            report = er.load_model(path).report
            assert (report.r, report.rebuild_wn, report.variant) == expected


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        text = """
        # comment line
        mesh.n = 8
        fem.degree = 2
        ser.r = standard
        ser.n_max = 4
        eim.m_max = 6
        output.dir = results
        """
        s = er.parse_config(text)
        assert s.mesh_n == 8 and s.r == "standard"
        assert s.n_max == 4 and s.m_max == 6
        assert s.output_dir == "results"
        assert s.test_seed == 42  # untouched default

    def test_unknown_key(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("mesh.m = 8")

    def test_bad_value(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("mesh.n = many")

    def test_bad_r(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("ser.r = 0")

    @pytest.mark.parametrize("key, value, expected", [
        ("ser.rebuild_wn", "maybe", "expected a boolean, got 'maybe'"),
        ("ser.r", "x", "expected an integer or 'standard', got 'x'")])
    def test_unparsable_value_names_line_and_key(self, key, value, expected,
                                                 tmp_path):
        text = f"mesh.n = 8\n{key} = {value}\n"
        with pytest.raises(er.ConfigError) as info:
            er.parse_config(text)
        assert str(info.value) == f"line 2: bad value for {key}: {expected}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["build", str(cfg)]) == 2

    def test_standard_with_rebuild_rejected(self):
        with pytest.raises(er.ConfigError, match="rebuild_wn"):
            er.parse_config("ser.r = standard\nser.rebuild_wn = true")

    @pytest.mark.parametrize("line", ["train.spacing = linear",
                                      "eim.saturation_tol = 1e-13"],
                             ids=["train.spacing", "eim.saturation_tol"])
    def test_bad_spacing(self, line):
        # the training grid is always log-spaced and the interpolant's
        # saturation threshold is fixed: neither has a key
        key = line.split(" =")[0]
        with pytest.raises(er.ConfigError, match=f"unknown key '{key}'"):
            er.parse_config(line)

    def test_missing_equals(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("mesh.n 8")

    def test_repeated_key_rejected(self, tmp_path):
        # a second value for a key is refused, not taken over the first
        text = "mesh.n = 8\n# comment\nmesh.n = 16\n"
        with pytest.raises(er.ConfigError,
                           match="line 3: key 'mesh.n' repeats line 1"):
            er.parse_config(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["build", str(cfg)]) == 2

    @pytest.mark.parametrize("line, match", [
        ("newton.abs_tol = nan", "finite"), ("newton.abs_tol = inf", "finite"),
        ("newton.rel_tol = nan", "finite"), ("newton.rel_tol = inf", "finite"),
        ("newton.rel_tol = 0", "positive"), ("newton.max_iter = 0", "max_iter")])
    def test_bad_newton_setting_rejected(self, line, match, tmp_path):
        # a nan tolerance stalls every solve, an infinite one stops at once
        with pytest.raises(er.ConfigError, match=match):
            er.parse_config(line)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["build", str(cfg)]) == 2

    def test_negative_seed_rejected(self):
        # the test sample's generator takes no negative seed
        assert er.parse_config("test.seed = 0").test_seed == 0
        with pytest.raises(er.ConfigError, match="test.seed"):
            er.parse_config("test.seed = -1")

    def test_n_max_above_the_training_set_rejected(self, tmp_path):
        # every snapshot is taken at a training parameter, once, so a 2x2
        # grid gives at most 4: a build asked for 6 would stop short of
        # them and say nothing
        text = ("train.grid_n1 = 2\ntrain.grid_n2 = 2\n"
                "ser.n_max = 6\neim.m_max = 6\n")
        with pytest.raises(er.ConfigError,
                           match="n_max = 6 exceeds the 4 distinct training"):
            er.parse_config(text)
        assert er.parse_config(text.replace("n_max = 6", "n_max = 4")).n_max == 4
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["build", str(cfg)]) == 2


TINY_CONFIG = """
mesh.n = 6
fem.degree = 1
train.grid_n1 = 4
train.grid_n2 = 4
test.count = 6
test.seed = 42
ser.r = 1
ser.n_max = 3
eim.m_max = 3
newton.max_iter = 200
output.dir = {out}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG.format(out=out))
    return cfg, out


class TestCli:
    def test_build_study_solve(self, tiny_config, capsys):
        cfg, out = tiny_config
        assert main(["build", str(cfg)]) == 0
        assert (out / "model.npz").exists()
        report = json.loads((out / "build_report.json").read_text())
        assert report["fe_solve_count"] == 4  # N + 1
        assert main(["study", str(cfg), str(out / "model.npz")]) == 0
        table = (out / "table_r1.csv").read_text().splitlines()
        assert table[0] == "N,M,max_err_u,max_err_s,variant"
        assert len(table) > 1
        capsys.readouterr()
        assert main(["solve", str(out / "model.npz"),
                     "--mu1", "0.5", "--mu2", "1.5"]) == 0
        line = capsys.readouterr().out
        assert "s_N=" in line and "time=" in line and "load=" in line

    def test_build_prints_its_truth_factorizations(self, tiny_config, capsys,
                                                   monkeypatch):
        # printed beside fe_solves, and kept out of build_report.json: a
        # copy of the report without the count writes the same bytes
        cfg, out = tiny_config
        made, results = [], []
        refactor, build = er.Chord.refactor, cli.build_ser

        def counted(chord, jacobian):
            made.append(jacobian)
            return refactor(chord, jacobian)

        def kept(problem, config):
            results.append(build(problem, config))
            return results[-1]

        monkeypatch.setattr(er.Chord, "refactor", counted)
        monkeypatch.setattr(cli, "build_ser", kept)
        capsys.readouterr()
        assert main(["build", str(cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert f" fe_solves=4 truth_factorizations={len(made)} " in line
        report = results[0].report
        assert report.truth_factorizations == len(made) > 0
        bare = replace(report)
        assert bare.truth_factorizations == 0
        cli._write_report(bare, out / "bare.json")
        assert ((out / "bare.json").read_bytes()
                == (out / "build_report.json").read_bytes())

    def test_build_prints_its_screened_rows(self, tiny_config, capsys,
                                            monkeypatch):
        # the rows its reduced sweeps screened, over their rows, printed
        # after truth_factorizations and kept out of build_report.json;
        # with chunks of 3 rows (6 in the screen) the carried bound
        # leaves rows out
        cfg, out = tiny_config
        results, build = [], cli.build_ser

        def kept(problem, config):
            results.append(build(problem, config))
            return results[-1]

        monkeypatch.setattr(cli, "build_ser", kept)
        monkeypatch.setattr("eimrb.eim.BUDGET", 3 * 49)    # 49 dofs
        capsys.readouterr()
        assert main(["build", str(cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        report = results[0].report
        screened = [s.screened for s in report.steps
                    if s.screened is not None]
        assert len(screened) == 2 and sum(screened) < 2 * 16
        assert (f" truth_factorizations={report.truth_factorizations} "
                f"screened_rows={sum(screened)}/{2 * 16} wall=") in line
        bare = replace(report, steps=[replace(s, screened=None)
                                      for s in report.steps])
        cli._write_report(bare, out / "bare.json")
        assert ((out / "bare.json").read_bytes()
                == (out / "build_report.json").read_bytes())

    def test_solve_rejects_out_of_domain(self, tiny_config):
        cfg, out = tiny_config
        assert main(["build", str(cfg)]) == 0
        assert main(["solve", str(out / "model.npz"),
                     "--mu1", "50", "--mu2", "1"]) == 2

    def test_solve_imports_no_scipy(self, standard_small, tmp_path):
        # the cold start of an online query: a fresh process imports the
        # package, loads the archive and solves without importing scipy,
        # and answers bitwise as the model built in memory
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        mu = (3.7, 0.2)
        script = (
            "import sys\n"
            "import eimrb\n"
            "from eimrb import cli\n"
            f"path, mu = {str(path)!r}, {mu!r}\n"
            "assert cli.main(['solve', path, '--mu1', repr(mu[0]),\n"
            "                 '--mu2', repr(mu[1])]) == 0\n"
            "model = eimrb.load_model(path).model\n"
            "print(model.output(model.solve(mu)).hex())\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        line, s_hex, scipy_modules = run.stdout.splitlines()
        model = standard_small.model
        s = model.output(model.solve(mu))
        assert f"s_N={s:.10e}" in line.split()
        assert s_hex == s.hex()
        assert scipy_modules == "[]"

    def test_build_does_not_depend_on_blas_threads(self, tmp_path):
        # eimrb build under one and under two OpenBLAS threads writes the
        # same bytes: the archive and the build report
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            cfg = tmp_path / f"run{threads}.cfg"
            cfg.write_text(f"mesh.n = 16\nfem.degree = 2\ntrain.grid_n1 = 10\n"
                           f"train.grid_n2 = 10\nser.r = 1\nser.n_max = 10\n"
                           f"eim.m_max = 10\noutput.dir = {out}\n")
            run = subprocess.run(
                [sys.executable, "-m", "eimrb", "build", str(cfg)],
                env=dict(os.environ, PYTHONPATH=str(src),
                         OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("model.npz", "build_report.json")])
        assert outputs[0] == outputs[1]

    def test_solve_checks_mu_before_reading_the_archive(self, tmp_path):
        # an out-of-domain mu is a config error even with no archive
        assert main(["solve", str(tmp_path / "missing.npz"),
                     "--mu1", "50", "--mu2", "1"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mesh.q = 3")
        assert main(["build", str(bad)]) == 2

    @pytest.mark.parametrize("lines", [
        "ser.r = 0", "ser.n_max = 0", "eim.m_max = 0",
        "ser.r = standard\nser.rebuild_wn = true"],
        ids=["r", "n_max", "m_max", "standard_rebuild"])
    def test_build_rules_are_config_errors(self, lines, tmp_path, capsys):
        # SerConfig's rules reach the command line as configuration errors
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        assert main(["build", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.cfg")]) == 4

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_has_its_own_exit_code(self, tiny_config,
                                                 unbuffered):
        # the read end of stdout is closed before the command prints: the
        # build still runs to the end, and the broken pipe is neither an
        # "i/o error" nor an exception at interpreter exit, whether print
        # writes at once (unbuffered) or when stdout is flushed
        cfg, out = tiny_config
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "eimrb", "build",
                                  str(cfg)], stdout=write, env=env,
                                 stderr=subprocess.PIPE, text=True, timeout=300)
        finally:
            os.close(write)
        assert run.returncode == EXIT_PIPE
        assert run.stderr == ""
        assert (out / "model.npz").exists()
        assert (out / "build_report.json").exists()

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=tmp_path / "o")
                       .replace("newton.max_iter = 200", "newton.max_iter = 1"))
        assert main(["build", str(cfg)]) == 3

    def test_degenerate_interpolant_exit_code(self, tmp_path, capsys):
        # n=1 P1 has no interior dof, so the first snapshot is zero and the
        # interpolant cannot start: a solver failure, not a traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=tmp_path / "o")
                       .replace("mesh.n = 6", "mesh.n = 1"))
        assert main(["build", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "solver failure: snapshot at first sample (0.01, 0.01) is "
            "identically zero\n")

    @pytest.mark.parametrize("label, slug", [
        ("r=M", "standard"), ("r=1", "r1"), ("r=3", "r3"), ("r=5", "r5"),
        ("r=1-rebuild", "r1_rebuild"), ("r=3-rebuild", "r3_rebuild"),
    ])
    def test_variant_slug(self, label, slug):
        # one rule names every table and build report file
        assert _variant_slug(label) == slug

    def test_compare_emits_tables_and_counts(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=out).replace("ser.n_max = 3",
                                                           "ser.n_max = 2"))
        assert main(["compare", str(cfg)]) == 0
        for slug in ("standard", "r5", "r1_rebuild", "r1"):
            assert (out / f"table_{slug}.csv").exists()
            assert (out / f"build_report_{slug}.json").exists()
        counts = (out / "solve_counts.csv").read_text().splitlines()
        assert counts[0] == "variant,fe_solve_count"
        assert len(counts) == 5

    def test_compare_builds_the_four_variants(self, tmp_path, monkeypatch,
                                              capsys):
        # the build config of each variant, as compare hands it to build_ser
        seen = []

        def build(problem, cfg):
            seen.append((cfg.r, cfg.rebuild_wn, cfg.n_max, cfg.m_max,
                         tuple(cfg.checkpoints)))
            assert (cfg.newton, len(cfg.train_set)) == (
                er.NewtonConfig(max_iter=200), 16)
            report = er.BuildReport(variant=f"r={len(seen)}")
            report.truth_factorizations = 10 * len(seen)
            return er.BuildResult(model=None, report=report, eim_g=None)

        def study(result, *args, **kwargs):
            return [er.StudyRow(1, 1, 0.0, 0.0, result.report.variant)]

        monkeypatch.setattr(cli, "build_ser", build)
        monkeypatch.setattr(cli, "run_error_study", study)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=tmp_path / "out")
                       .replace("eim.m_max = 3", "eim.m_max = 5"))
        capsys.readouterr()
        assert main(["compare", str(cfg)]) == 0
        assert [line.split()[3] for line in
                capsys.readouterr().out.splitlines()[:4]] == [
            f"truth_factorizations={10 * k}" for k in range(1, 5)]
        grouped = ((1, 1), (1, 2), (2, 3), (2, 4), (3, 5))
        square = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))
        assert seen == [("standard", False, 3, 5, grouped),
                        (5, False, 3, 5, grouped),
                        (1, True, 5, 5, square),
                        (1, False, 5, 5, square)]

    def test_compare_with_m_max_above_the_training_set_builds_nothing(
            self, tmp_path, monkeypatch, capsys):
        # the r=1 variants take N = M = 17 on the 16 training parameters,
        # which their build config refuses before any build, though the
        # build's own n_max = 3 fits
        def build(problem, cfg):
            raise AssertionError("no variant is built")

        monkeypatch.setattr(cli, "build_ser", build)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=tmp_path / "out")
                       .replace("eim.m_max = 3", "eim.m_max = 17"))
        capsys.readouterr()
        assert main(["compare", str(cfg)]) == cli.EXIT_SOLVER
        assert ("n_max = 17 exceeds the 16 distinct training parameters"
                in capsys.readouterr().err)

    def test_study_of_archive_matches_compare(self, tmp_path):
        # the study of a saved model reads its restricted and its stored
        # (rebuilt) stages back from the archive: its table is the one
        # compare writes for the same build
        compared = tmp_path / "compared"
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(TINY_CONFIG.format(out=compared))
        assert main(["compare", str(cfg)]) == 0
        for rebuild, slug in (("false", "r1"), ("true", "r1_rebuild")):
            out = tmp_path / slug
            cfg = tmp_path / f"{slug}.cfg"
            cfg.write_text(TINY_CONFIG.format(out=out)
                           + f"ser.rebuild_wn = {rebuild}\n")
            assert main(["build", str(cfg)]) == 0
            assert main(["study", str(cfg), str(out / "model.npz")]) == 0
            table = (out / f"table_{slug}.csv").read_bytes()
            assert table == (compared / f"table_{slug}.csv").read_bytes()

    def test_compare_is_deterministic(self, tmp_path):
        files = {}
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = tmp_path / f"{run}.cfg"
            cfg.write_text(TINY_CONFIG.format(out=out).replace("ser.n_max = 3",
                                                               "ser.n_max = 2"))
            assert main(["compare", str(cfg)]) == 0
            files[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["a"].keys() == files["b"].keys()
        for name in files["a"]:
            assert files["a"][name] == files["b"][name], name

import json

import numpy as np
import pytest

import eimrb as er
from eimrb.cli import main


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

    def test_checkpoints_survive_round_trip(self, standard_small, tmp_path):
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        loaded = er.load_model(path)
        assert set(loaded.checkpoints) == set(standard_small.checkpoints)
        cp = loaded.checkpoints[(3, 4)]
        mu = (1.2, 0.9)
        a = standard_small.checkpoints[(3, 4)].solve(mu)
        b = cp.solve(mu)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_loaded_model_restricts(self, standard_small, tmp_path):
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        loaded = er.load_model(path)
        small = loaded.model.restrict(2, 3)
        assert small.N == 2

    def test_version_check(self, standard_small, tmp_path):
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            er.load_model(path)


    def test_v1_archive_rejected(self, standard_small, tmp_path):
        # every current array is present, so only the version refuses it
        path = tmp_path / "model.npz"
        er.save_model(path, standard_small)
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.int64(1)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version 1"):
            er.load_model(path)

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

    def test_bad_spacing(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("train.spacing = linear")

    def test_missing_equals(self):
        with pytest.raises(er.ConfigError):
            er.parse_config("mesh.n 8")


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
        assert main(["solve", str(out / "model.npz"),
                     "--mu1", "0.5", "--mu2", "1.5"]) == 0
        assert "s_N=" in capsys.readouterr().out

    def test_solve_rejects_out_of_domain(self, tiny_config):
        cfg, out = tiny_config
        assert main(["build", str(cfg)]) == 0
        assert main(["solve", str(out / "model.npz"),
                     "--mu1", "50", "--mu2", "1"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mesh.q = 3")
        assert main(["build", str(bad)]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["build", str(tmp_path / "nope.cfg")]) == 4

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.format(out=tmp_path / "o")
                       .replace("newton.max_iter = 200", "newton.max_iter = 1"))
        assert main(["build", str(cfg)]) == 3

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

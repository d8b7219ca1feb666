import numpy as np
import pytest

from swlme.basis import Variant, compute_tensors
from swlme.cli import CSV_CHUNK_ROWS, _fmt, _write_outputs, main
from swlme.config import ConfigError, build_scenario, format_config, parse_config
from swlme.model import energy, to_primitive
from swlme.solver import run

LAKE_CFG = """\
# lake at rest over a bump
model.N = 1
model.g = 9.812
model.variant = swlme
grid.cells = 100
grid.xmin = -5.0
grid.xmax = 5.0
bc.kind = outflow
ic.name = lake_at_rest
ic.surface = 1.0
topo.name = gaussian
topo.height = 0.2
topo.width = 1.0
topo.center = 0.0
time.t_end = 0.25
time.cfl = 0.9
output.path = {path}
output.snapshots = 2
"""

DAM_CFG = """\
model.N = 0
model.g = 9.81
model.variant = swlme
grid.cells = 100
grid.xmin = -5.0
grid.xmax = 5.0
bc.kind = outflow
ic.name = dam_break
ic.h_l = 1.0
ic.h_r = 0.1
time.t_end = 1.0
time.cfl = 0.9
output.path = {path}
"""


class TestParse:
    def test_comments_and_blanks(self):
        cfg = parse_config("# top\n\nmodel.N = 2  # trailing\n")
        assert cfg == {"model.N": "2"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("model.N 2")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'model.N'"):
            parse_config("model.N = 1\nmodel.N = 2\n")


class TestBuildScenario:
    def valid(self, tmp_path):
        return parse_config(LAKE_CFG.format(path=tmp_path))

    def test_valid(self, tmp_path):
        sc = build_scenario(self.valid(tmp_path))
        assert sc.params.N == 1 and sc.grid.cells == 100
        assert sc.boundary == "outflow" and sc.t_end == 0.25

    def test_missing_key_named(self, tmp_path):
        cfg = self.valid(tmp_path)
        del cfg["time.cfl"]
        with pytest.raises(ConfigError, match="time.cfl"):
            build_scenario(cfg)

    def test_unknown_key_named(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["model.nu"] = "1.0"
        with pytest.raises(ConfigError, match="model.nu"):
            build_scenario(cfg)

    def test_foreign_preset_key_rejected(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["ic.h_l"] = "1.0"  # dam-break key on a lake-at-rest config
        with pytest.raises(ConfigError, match="ic.h_l"):
            build_scenario(cfg)

    def test_bad_number(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["grid.cells"] = "many"
        with pytest.raises(ConfigError, match="grid.cells"):
            build_scenario(cfg)

    def test_bad_variant(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["model.variant"] = "classic"
        with pytest.raises(ConfigError, match="model.variant"):
            build_scenario(cfg)

    def test_bad_cfl(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["time.cfl"] = "1.5"
        with pytest.raises(ConfigError, match="cfl"):
            build_scenario(cfg)

    def test_drowned_surface(self, tmp_path):
        cfg = self.valid(tmp_path)
        cfg["ic.surface"] = "0.1"  # below the bump crest
        with pytest.raises(ConfigError, match="non-positive"):
            build_scenario(cfg)

    def test_round_trip(self, tmp_path):
        cfg = self.valid(tmp_path)
        echoed = parse_config(format_config(cfg))
        assert echoed == cfg
        a, b = build_scenario(cfg), build_scenario(echoed)
        assert a.params == b.params and a.grid == b.grid
        assert a.ic_params == b.ic_params and a.topo_params == b.topo_params


class TestCoeffsCommand:
    def test_linearized_single_row(self, capsys):
        assert main(["coeffs", "--N", "1", "--variant", "swlme"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["i,j,k,A,B", "1,1,1,0,0"]

    def test_full_order_one(self, capsys):
        assert main(["coeffs", "--N", "1", "--variant", "swme"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,1,1,0,0"

    def test_rejects_order_zero(self, capsys):
        assert main(["coeffs", "--N", "0"]) == 1

    def test_full_order_two_matches_tensors(self, capsys):
        assert main(["coeffs", "--N", "2", "--variant", "swme"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,k,A,B"
        assert len(lines) == 1 + 8
        t = compute_tensors(2, Variant.SWME)
        for line in lines[1:]:
            i, j, k, a, b = line.split(",")
            i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
            # 17 significant digits round-trip the double exactly
            assert float(a) == t.A[i, j, k]
            assert float(b) == t.B[i, j, k]


class TestCheckCommand:
    def test_pass(self, capsys):
        assert main(["check", "--N", "0,2", "--samples", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total energy identity" in out and "all checks passed" in out

    def test_vacuous(self, capsys):
        assert main(["check", "--samples", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_negative_control(self, capsys):
        code = main(["check", "--N", "1", "--samples", "200", "--seed", "3",
                     "--corrupt-energy-flux", "1.001"])
        captured = capsys.readouterr()
        assert code == 1
        assert "total energy identity" in captured.err

    def test_deterministic_output(self, capsys):
        main(["check", "--N", "1", "--samples", "300", "--seed", "11"])
        first = capsys.readouterr().out
        main(["check", "--N", "1", "--samples", "300", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SWLME_SEED", "99")
        main(["check", "--N", "0", "--samples", "100"])
        assert "seed 99" in capsys.readouterr().out


SMOOTH_CFG = """\
model.N = 2
model.g = 9.81
model.variant = swlme
grid.cells = 300
grid.xmin = -1.0
grid.xmax = 1.0
bc.kind = periodic
ic.name = smooth_periodic
ic.h0 = 1.0
ic.h_amp = 0.2
ic.um_amp = -0.3
ic.u_amp = 0.1
time.t_end = 0.05
time.cfl = 0.9
output.path = {path}
output.every_steps = 3
"""


def reference_write_outputs(scenario, traj, path):
    """The per-field CSV writer the CLI had before its row-wise one."""
    path.mkdir()
    x = scenario.grid.centers
    b = scenario.topography.b
    n = scenario.params.N
    cols = ["t", "x", "h", "u_m"] + [f"u_{i}" for i in range(1, n + 1)] + ["e"]
    with open(path / "snapshots.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for t, U in zip(traj.times, traj.snapshots):
            W = to_primitive(U)
            e = energy(W, b, scenario.params.g).e
            for c in range(x.size):
                fields = [_fmt(t), _fmt(x[c])] + [_fmt(v) for v in W[c]] + [_fmt(e[c])]
                fh.write(",".join(fields) + "\n")
    with open(path / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("t,mass,momentum,total_energy\n")
        for row in traj.steps:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class TestRunCommand:
    def test_writer_matches_per_field_reference(self, tmp_path):
        scenario = build_scenario(parse_config(SMOOTH_CFG.format(path=tmp_path / "new")))
        traj = run(scenario)
        # more rows than one chunk of the row-wise writer, and signed values
        assert scenario.grid.cells > CSV_CHUNK_ROWS and len(traj.snapshots) > 3
        assert np.any(traj.snapshots[-1][:, 1:] < 0.0)
        _write_outputs(scenario, traj, str(tmp_path / "new"))
        reference_write_outputs(scenario, traj, tmp_path / "ref")
        for name in ("snapshots.csv", "summary.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def write(self, tmp_path, text):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_lake_at_rest_energy_constant(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.write(tmp_path, LAKE_CFG.format(path=out))
        assert main(["run", path]) == 0
        data = np.genfromtxt(out / "summary.csv", delimiter=",", names=True)
        E = np.atleast_1d(data["total_energy"])
        assert np.abs(E - E[0]).max() / E[0] <= 1e-12
        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "t,x,h,u_m,u_1,e"

    def test_zero_time_single_snapshot(self, tmp_path):
        text = LAKE_CFG.format(path=tmp_path / "o").replace("time.t_end = 0.25",
                                                            "time.t_end = 0.0")
        path = self.write(tmp_path, text)
        assert main(["run", path]) == 0
        lines = (tmp_path / "o" / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 100  # header plus one row per cell
        assert all(line.startswith("0.0,") for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = self.write(tmp_path, DAM_CFG.format(path=out1))
        main(["run", p1])
        p2 = (tmp_path / "case2.cfg")
        p2.write_text(DAM_CFG.format(path=out2))
        main(["run", str(p2)])
        assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_print_config_round_trip(self, tmp_path, capsys):
        path = self.write(tmp_path, LAKE_CFG.format(path=tmp_path / "o"))
        assert main(["run", path, "--print-config"]) == 0
        echoed = capsys.readouterr().out
        assert build_scenario(parse_config(echoed)).grid.cells == 100

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, "model.N = 1\n")
        assert main(["run", path]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 1

    def test_dry_failure_exit_code(self, tmp_path, capsys):
        text = (
            "model.N = 0\nmodel.g = 10.0\nmodel.variant = swlme\n"
            "grid.cells = 40\ngrid.xmin = 0.0\ngrid.xmax = 1.0\n"
            "bc.kind = reflective\nic.name = constant\nic.h = 1.0\nic.um = 10.0\n"
            f"time.t_end = 1.0\ntime.cfl = 0.9\noutput.path = {tmp_path/'o'}\n"
        )
        path = self.write(tmp_path, text)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "partial output" in err
        assert (tmp_path / "o" / "summary.csv").exists()


class TestConvergeCommand:
    def test_stoker_rows(self, tmp_path, capsys):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cells,l1_error,observed_order"
        assert len(lines) == 3
        assert lines[1].endswith(",")  # first row has no order
        cells, err, order = lines[2].split(",")
        assert cells == "100" and float(err) > 0.0 and order != ""

    def test_repeated_mesh_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "100,100"]) == 1
        assert "repeated mesh" in capsys.readouterr().err

    def test_non_dyadic_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text(
            "model.N = 1\nmodel.g = 9.812\nmodel.variant = swlme\n"
            "grid.cells = 32\ngrid.xmin = 0.0\ngrid.xmax = 1.0\n"
            "bc.kind = periodic\nic.name = smooth_periodic\nic.h0 = 1.0\n"
            "ic.h_amp = 0.1\nic.um_amp = 0.2\n"
            f"time.t_end = 0.1\ntime.cfl = 0.9\noutput.path = {tmp_path/'o'}\n"
        )
        assert main(["converge", str(cfg), "--meshes", "30,45"]) == 1
        assert "dyadic" in capsys.readouterr().err

import dataclasses
import errno
import gc
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import swlme._worker
import swlme.cli
import swlme.diagnostics
import swlme.solver
from swlme.basis import Variant, compute_tensors
from swlme.cli import CHECK_SAMPLE_BYTES, CSV_CHUNK_ROWS, _CsvSink, _fmt, main
from swlme.config import _KEYS, ConfigError, build_scenario, format_config, parse_config
from swlme.diagnostics import _BLOCK, SampleStream
from swlme.model import N_MAX, WaveSpeedBoundWarning, energy, to_primitive
from swlme.solver import _PRESETS, MAX_STATE_BYTES, Trajectory, run
from conftest import assert_no_process_left
from test_diagnostics import scale_energy_flux

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

# 50 cells, N = 1, a snapshot every step: each snapshot and summary row a run
# kept would add about 1.4 kB to the peak
MEMORY_CFG = """\
model.N = 1
model.g = 9.81
model.variant = swlme
grid.cells = 50
grid.xmin = -1.0
grid.xmax = 1.0
bc.kind = periodic
ic.name = smooth_periodic
ic.h_amp = 0.2
ic.um_amp = 0.3
ic.u_amp = 0.1
time.t_end = {t_end}
time.cfl = 0.9
output.path = {path}
output.every_steps = 1
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["model.g", "grid.xmin", "grid.xmax", "time.t_end",
                                     "time.cfl", "ic.surface"])
    def test_non_finite_number_named(self, tmp_path, key, value):
        cfg = self.valid(tmp_path)
        cfg[key] = value
        with pytest.raises(ConfigError, match=f"'{key}'.*finite"):
            build_scenario(cfg)

    @pytest.mark.parametrize("n", [-1, N_MAX + 1, 10**9])
    def test_moment_order_out_of_range_named(self, tmp_path, n):
        cfg = self.valid(tmp_path)
        cfg["model.N"] = str(n)
        with pytest.raises(ConfigError, match=f"'model.N'.*0..{N_MAX}, got {n}$"):
            build_scenario(cfg)

    @pytest.mark.parametrize("key, value, named", [
        ("grid.cells", "1", "grid.cells"),
        ("grid.xmax", "-5.0", "grid.xmax"),
        ("time.cfl", "2", "time.cfl"),
        ("time.t_end", "-1", "time.t_end"),
        ("model.g", "-1", "model.g"),
        ("model.N", "-1", "model.N"),
        ("output.every_steps", "-1", "output.every_steps"),
        ("output.snapshots", "-1", "output.snapshots"),
        ("bc.kind", "closed", "bc.kind"),
        ("ic.name", "tsunami", "ic.name"),
        ("topo.name", "reef", "topo.name"),
        ("ic.surface", "0.1", "ic.name"),  # the preset then gives a non-positive depth
    ])
    def test_constraint_error_names_key(self, tmp_path, key, value, named):
        cfg = self.valid(tmp_path)
        cfg[key] = value
        with pytest.raises(ConfigError, match=f"^key '{named}': "):
            build_scenario(cfg)

    @pytest.mark.parametrize("topo, named", [
        ("gaussian\ntopo.width = 0", "topo.width"),  # 0/0 in the cell centred on topo.center
        ("slope\ntopo.grade = 1e308", "topo.grade"),  # overflows to inf
    ])
    @pytest.mark.parametrize("ic", ["lake_at_rest", "constant"])
    def test_non_finite_bottom_names_key(self, tmp_path, capsys, ic, topo, named):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(
            "model.N = 1\nmodel.g = 9.81\nmodel.variant = swlme\n"
            "grid.cells = 21\ngrid.xmin = -5.0\ngrid.xmax = 5.0\nbc.kind = reflective\n"
            f"ic.name = {ic}\ntopo.name = {topo}\ntime.t_end = 0.1\ntime.cfl = 0.9\n"
            f"output.path = {tmp_path / 'o'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from the sampling either
            assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: key '{named}': topography '\\w+' gives b = (nan|inf) at "
                            f"cell \\d+; check its \\w+\n", captured.err), captured.err
        assert not (tmp_path / "o").exists()  # rejected before the output is opened

    @pytest.mark.parametrize("lines, err", [
        ("grid.xmin = -1e308\ngrid.xmax = 1e308\nic.name = constant",
         "key 'grid.xmax': grid span x_max - x_min must be finite, got [-1e+308, 1e+308]"),
        ("grid.xmin = -1\ngrid.xmax = 1\nic.name = constant\nic.h = 10\nic.um = 1e308",
         "key 'ic.name': initial condition 'constant' produces a non-finite momentum = inf "
         "at cell 0"),
        ("grid.xmin = 0\ngrid.xmax = 1\nic.name = smooth_periodic\nic.h0 = 2\n"
         "ic.u_amp = -1e308", "key 'ic.name': initial condition 'smooth_periodic' produces "
                              "a non-finite moment 1 = -inf at cell 3"),
    ], ids=["grid span", "constant momentum", "smooth moment"])
    def test_overflowing_input_rejected_before_output(self, tmp_path, capsys, lines, err):
        # every value given is finite; the span, or a product the preset
        # forms from them, overflows
        cfg = tmp_path / "case.cfg"
        cfg.write_text(f"model.N = 1\nmodel.g = 9.81\nmodel.variant = swlme\n"
                       f"grid.cells = 20\n{lines}\nbc.kind = outflow\ntime.t_end = 0.1\n"
                       f"time.cfl = 0.9\noutput.path = {tmp_path / 'o'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from the overflow either
            assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")
        assert not (tmp_path / "o").exists()  # rejected before the output is opened

    def test_grid_over_memory_bound_names_key(self, tmp_path):
        cfg = self.valid(tmp_path)  # N = 1: three floats a cell
        most = MAX_STATE_BYTES // 24
        # the bound is checked when a scenario is made, before anything is sampled
        assert build_scenario(cfg).with_cells(most).grid.cells == most
        gc.collect()
        tracemalloc.start()
        try:
            for cells in (most + 1, 10**15, 10**100):  # numpy could not hold the last two
                cfg["grid.cells"] = str(cells)
                with pytest.raises(ConfigError, match=f"^key 'grid.cells': {cells} cells "
                                                      f"exceed {most} at N=1: "):
                    build_scenario(cfg)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

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


def reference_coeffs(n, variant):
    """The coeffs table as printed before it read each tensor with one .tolist()."""
    tensors = compute_tensors(n, Variant(variant))
    lines = ["i,j,k,A,B"]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lines.append(f"{i+1},{j+1},{k+1},{_fmt(tensors.A[i,j,k])},"
                             f"{_fmt(tensors.B[i,j,k])}")
    return "".join(line + "\n" for line in lines)


class TestCoeffsCommand:
    @pytest.mark.parametrize("variant", ["swlme", "swme"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_scalar_reference(self, capsys, n, variant):
        assert main(["coeffs", "--N", str(n), "--variant", variant]) == 0
        assert capsys.readouterr().out == reference_coeffs(n, variant)

    def test_linearized_single_row(self, capsys):
        assert main(["coeffs", "--N", "1", "--variant", "swlme"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["i,j,k,A,B", "1,1,1,0.0,0.0"]

    def test_full_order_one(self, capsys):
        assert main(["coeffs", "--N", "1", "--variant", "swme"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,1,1,0.0,0.0"

    def test_rejects_order_zero(self, capsys):
        assert main(["coeffs", "--N", "0"]) == 1

    @pytest.mark.parametrize("n", [N_MAX + 1, 10**9])
    def test_rejects_order_above_bound(self, capsys, n):
        assert main(["coeffs", "--N", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: --N must be in 1..{N_MAX}")

    def test_full_order_two_matches_tensors(self, capsys):
        assert main(["coeffs", "--N", "2", "--variant", "swme"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,k,A,B"
        assert len(lines) == 1 + 8
        # the shortest round-trip form of the exact tensors
        assert "1,1,2,0.4,0.2" in lines
        assert "2,1,1,0.6666666666666666,-1.0" in lines
        assert "2,2,2,0.2857142857142857,-0.14285714285714285" in lines
        t = compute_tensors(2, Variant.SWME)
        for line in lines[1:]:
            i, j, k, a, b = line.split(",")
            i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
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

    def test_negative_control(self, capsys, monkeypatch):
        scale_energy_flux(monkeypatch, 1.001)
        code = main(["check", "--N", "1", "--samples", "200", "--seed", "3"])
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

    @staticmethod
    def rejected(capsys, monkeypatch, argv, flag):
        """check exits 1 naming `flag` on stderr, before any identity is evaluated."""
        def no_work(*args):
            raise AssertionError("check did work on rejected arguments")
        monkeypatch.setattr("swlme.cli._check_identities", no_work)
        monkeypatch.setattr("swlme.cli._check_gradients", no_work)
        assert main(["check", "--samples", "100", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")

    def test_rejects_empty_order_list(self, capsys, monkeypatch):
        # otherwise "all checks passed (0 checks, ...)": a vacuous pass
        self.rejected(capsys, monkeypatch, ["--N", ","], "--N")

    def test_rejects_non_integer_order(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch, ["--N", "a"], "--N")

    def test_rejects_negative_order(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch, ["--N", "1,-1"], "--N")

    @pytest.mark.parametrize("n", [N_MAX + 1, 10**9])
    def test_rejects_order_above_bound(self, capsys, monkeypatch, n):
        self.rejected(capsys, monkeypatch, ["--N", f"1,{n}"], "--N")

    def test_rejects_repeated_order(self, capsys, monkeypatch):
        # otherwise order 1 is evaluated and counted twice
        self.rejected(capsys, monkeypatch, ["--N", "1,2,1"], "--N")

    def test_rejects_negative_seed(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch, ["--seed", "-3"], "--seed")

    @pytest.mark.parametrize("value", ["-3", "seven"])
    def test_rejects_bad_environment_seed(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SWLME_SEED", value)
        self.rejected(capsys, monkeypatch, [], "SWLME_SEED")

    @pytest.mark.parametrize("argv", [["--N", "5", "--samples", "20000000"],
                                      ["--N", "0,64", "--samples", "671089"]])
    def test_rejects_samples_over_memory_budget(self, capsys, monkeypatch, argv):
        # the cap bounds the work asked for: the sample's bytes, (8 + 3N) floats each, if it
        # were drawn whole; it is drawn block by block, so memory is bounded by the block
        self.rejected(capsys, monkeypatch, argv, "--samples")

    @pytest.mark.parametrize("argv", [["--N", "64"], ["--N", "64", "--samples", "671088"]])
    def test_accepts_samples_within_memory_budget(self, capsys, monkeypatch, argv):
        drawn = []
        monkeypatch.setattr("swlme.cli._check_identities", lambda orders, samples, seed:
                            drawn.append(SampleStream.nbytes(samples, max(orders))) or [])
        monkeypatch.setattr("swlme.cli._check_gradients", lambda *args: [])
        assert main(["check", *argv]) == 0
        assert 0 < drawn[0] <= CHECK_SAMPLE_BYTES

    def test_sample_size_matches_what_is_drawn(self):
        sample = SampleStream(0, 7, 3).block(0, 7)
        assert SampleStream.nbytes(7, 3) == sum(
            getattr(sample, f.name).nbytes for f in dataclasses.fields(sample))


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
    b = scenario.topography
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


def reference_row_wise_outputs(scenario, traj, path):
    """The row-wise CSV writer before it formatted the t and x columns once."""
    def write_rows(fh, block):
        for start in range(0, len(block), CSV_CHUNK_ROWS):
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in block[start:start + CSV_CHUNK_ROWS].tolist())

    path.mkdir()
    x = scenario.grid.centers
    b = scenario.topography
    n = scenario.params.N
    cols = ["t", "x", "h", "u_m"] + [f"u_{i}" for i in range(1, n + 1)] + ["e"]
    with open(path / "snapshots.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for t, U in zip(traj.times, traj.snapshots):
            W = to_primitive(U)
            write_rows(fh, np.column_stack([np.full(x.size, t), x, W,
                                            energy(W, b, scenario.params.g).e]))
    with open(path / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("t,mass,momentum,total_energy\n")
        write_rows(fh, traj.steps)


class Recorder:
    """A run sink that keeps every StateRecord run hands it, in order."""

    def __init__(self):
        self.records = []

    def record(self, state):
        self.records.append(state)

    def finish(self, failure):
        return self.records


def as_trajectory(records):
    """The Trajectory the default sink builds from the same records."""
    snaps = [state for state in records if state.U is not None]
    return Trajectory(times=[state.t for state in snaps], snapshots=[state.U for state in snaps],
                      steps=np.array([[state.t, state.mass, state.momentum, state.total_energy]
                                      for state in records]))


def special_values_case(tmp_path):
    """Records of a run with special values written in, through _CsvSink and the reference."""
    scenario = build_scenario(parse_config(SMOOTH_CFG.format(path=tmp_path / "new")))
    records = run(scenario, Recorder())
    # 300 cells: a row count that is not a multiple of the chunk size
    assert scenario.grid.cells % CSV_CHUNK_ROWS and scenario.grid.cells > CSV_CHUNK_ROWS
    special = list(records)
    special[0] = special[0]._replace(t=-0.0)
    special[1] = special[1]._replace(mass=np.inf)
    special[2] = special[2]._replace(momentum=-np.inf)
    special[3] = special[3]._replace(total_energy=np.nan)
    special[4] = special[4]._replace(momentum=-0.0)
    last = max(k for k, state in enumerate(records) if state.U is not None)
    U = records[last].U.copy()
    U[3, 1], U[4, 1], U[5, 2], U[6, 3] = np.inf, -np.inf, np.nan, -0.0
    W = to_primitive(U)
    b, g = scenario.topography, scenario.params.g
    special[last] = special[last]._replace(U=U, W=W, e=energy(W, b, g).e)
    with _CsvSink(scenario, str(tmp_path / "new")) as sink:
        for state in special:
            sink.record(state)
        sink.finish(None)
    reference_row_wise_outputs(scenario, as_trajectory(special), tmp_path / "ref")
    text = (tmp_path / "new" / "snapshots.csv").read_text()
    assert ",inf," in text and ",-inf," in text and ",nan," in text and ",-0.0," in text
    assert text.splitlines()[1].startswith("-0.0,")
    for name in ("snapshots.csv", "summary.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


class TestRunCommand:
    def test_writer_matches_row_wise_reference_on_special_values(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)  # every snapshot formatted in-process
        special_values_case(tmp_path)

    def test_run_hands_the_sink_its_validated_primitives(self, tmp_path):
        scenario = build_scenario(parse_config(SMOOTH_CFG.format(path=tmp_path / "o")))
        records = run(scenario, Recorder())
        snapshots = [state for state in records if state.U is not None]
        assert len(snapshots) > 3
        # a sink never holds the arrays of a state that is not a snapshot
        assert all(state.W is None and state.e is None for state in records if state.U is None)
        assert all(state.W.tobytes() == to_primitive(state.U).tobytes() for state in snapshots)

    def test_writer_converts_no_state_again(self, tmp_path, monkeypatch):
        # run converts each state once; the CSV writer formats the W it is handed
        calls = []
        convert = swlme.solver.to_primitive

        def counted(U):
            calls.append(None)
            return convert(U)

        monkeypatch.setattr(swlme.solver, "to_primitive", counted)
        path = self.write(tmp_path, SMOOTH_CFG.format(path=tmp_path / "o"))
        assert main(["run", path]) == 0
        rows = len((tmp_path / "o" / "summary.csv").read_text().splitlines()) - 1
        assert rows > 3 and len(calls) == rows  # one per step, plus the initial state
        assert not hasattr(swlme.cli, "to_primitive")

    def test_energy_density_formed_once_per_state(self, tmp_path, monkeypatch):
        # the writer formats the energy density run formed for the summary row
        calls = []
        density = swlme.solver._energy_density

        def counted(*args):
            calls.append(None)
            return density(*args)

        monkeypatch.setattr(swlme.solver, "_energy_density", counted)
        monkeypatch.delattr(os, "fork", raising=False)  # every snapshot formatted in-process
        path = self.write(tmp_path, SMOOTH_CFG.format(path=tmp_path / "o"))
        assert main(["run", path]) == 0
        rows = len((tmp_path / "o" / "summary.csv").read_text().splitlines()) - 1
        snapshots = len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) // 300
        assert snapshots > 3 and len(calls) == rows  # one per step, plus the initial state
        assert not hasattr(swlme.cli, "_energy_density")

    def test_writer_matches_per_field_reference(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(SMOOTH_CFG.format(path=tmp_path / "new"))
        scenario = build_scenario(parse_config(cfg.read_text()))
        traj = run(scenario)
        # more rows than one chunk of the row-wise writer, and signed values
        assert scenario.grid.cells > CSV_CHUNK_ROWS and len(traj.snapshots) > 3
        assert np.any(traj.snapshots[-1][:, 1:] < 0.0)
        assert main(["run", str(cfg)]) == 0
        reference_write_outputs(scenario, traj, tmp_path / "ref")
        for name in ("snapshots.csv", "summary.csv"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def write(self, tmp_path, text):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_unwritable_output_path_rejected_before_first_step(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_run(*args):
            raise AssertionError("run started with an unwritable output.path")
        monkeypatch.setattr("swlme.cli.run", no_run)
        (tmp_path / "file").write_text("")
        path = self.write(tmp_path, DAM_CFG.format(path=tmp_path / "file" / "out"))
        assert main(["run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output.path ")

    def test_memory_does_not_grow_with_snapshots(self, tmp_path, capsys):
        """Snapshots and summary rows stream to disk: 4x the snapshots, the same traced peak."""
        def traced_peak(t_end):
            path = self.write(tmp_path, MEMORY_CFG.format(t_end=t_end, path=tmp_path / "o"))
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["run", path]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(0.3)  # first-call allocations (caches, lazy imports) out of the way
        # about 120 and 450 steps, a snapshot each: both runs fill the files' write buffers
        short, long = traced_peak(1.2), traced_peak(4.8)
        assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) > 400
        assert long <= 1.1 * short, (short, long)

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

    def test_time_step_underflow_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("swlme.solver.cfl_dt", lambda *args, **kwargs: 0.0)
        path = self.write(tmp_path, DAM_CFG.format(path=tmp_path / "o"))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "time step underflow at t = 0.0" in err and "partial output" in err
        assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 1
        assert len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) == 1 + 100

    def test_provably_too_long_run_is_rejected_up_front(self, tmp_path, capsys):
        # periodic walls keep the mass, so no dt exceeds cfl dx / sqrt(g mean(h0)) = 0.00898:
        # t_end = 1e6 needs over 1e8 steps, more than MAX_STEPS = 10^7
        text = SELF_REF_CFG.format(path=tmp_path / "o").replace("time.t_end = 0.1",
                                                                 "time.t_end = 1e6")
        path = self.write(tmp_path, text)
        assert main(["run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: key 'time.t_end': t_end = 1000000.0 needs more than "
                                "MAX_STEPS = 10000000 steps: with periodic walls no step exceeds "
                                "cfl dx / sqrt(g mean(h0)) = 0.008979\n")
        assert not (tmp_path / "o").exists()
        # the same t_end between outflow walls is left to the runtime step limit
        outflow = text.replace("bc.kind = periodic", "bc.kind = outflow")
        assert build_scenario(parse_config(outflow)).t_end == 1e6

    def test_step_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        # a tiny CFL number passes validation; the step limit ends the run
        monkeypatch.setattr("swlme.solver.MAX_STEPS", 3)
        text = DAM_CFG.format(path=tmp_path / "o").replace("time.cfl = 0.9", "time.cfl = 1e-300")
        path = self.write(tmp_path, text)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"run failed \(step limit of 3 steps reached at t = \S+\); partial output",
                         err), err
        assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 4
        assert len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) == 1 + 100

    def test_cell_step_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # 100 cells: a budget of 350 cell-steps allows three steps
        monkeypatch.setattr("swlme.solver.MAX_CELL_STEPS", 350)
        path = self.write(tmp_path, DAM_CFG.format(path=tmp_path / "o"))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"run failed \(cell-step budget of 350 reached at t = \S+ \(3 steps on "
                         r"100 cells\)\); partial output", err), err
        assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 4


# the dam break of DAM_CFG at N = 3 on 2000 cells, a snapshot every step: each
# snapshot's (cells, N+3) block takes 96,000 bytes, more than a 64 KiB pipe holds
WIDE_CFG = DAM_CFG.replace("model.N = 0", "model.N = 3").replace(
    "grid.cells = 100", "grid.cells = 2000").replace(
    "time.t_end = 1.0", "time.t_end = 0.005") + "output.every_steps = 1\n"

DRY_CFG = """\
model.N = 0
model.g = 10.0
model.variant = swlme
grid.cells = 40
grid.xmin = 0.0
grid.xmax = 1.0
bc.kind = reflective
ic.name = constant
ic.h = 1.0
ic.um = 10.0
time.t_end = 1.0
time.cfl = 0.9
output.path = {path}
output.every_steps = 1
"""


def full_disk_after(monkeypatch, snapshots):
    """Make the snapshot formatter raise ENOSPC once it has written `snapshots` snapshots."""
    write = swlme.cli._write_snapshot
    calls = []

    def formatter(out, *args):
        calls.append(None)
        if len(calls) > snapshots:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(out, *args)

    monkeypatch.setattr(swlme.cli, "_write_snapshot", formatter)


class TestWriterProcess:
    """`swlme run` formats snapshots in a forked writer process when it has interior ones."""

    def run_case(self, tmp_path, text):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        return main(["run", str(cfg)])

    def assert_matches_reference(self, tmp_path, text):
        scenario = build_scenario(parse_config(text))
        reference_write_outputs(scenario, run(scenario), tmp_path / "ref")
        for name in ("snapshots.csv", "summary.csv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_writer_process_matches_row_wise_reference_on_special_values(self, tmp_path,
                                                                          forks):
        special_values_case(tmp_path)
        assert len(forks) == 1
        assert_no_process_left()

    def test_snapshots_larger_than_the_pipe_buffer(self, tmp_path, forks):
        text = WIDE_CFG.format(path=tmp_path / "o")
        assert self.run_case(tmp_path, text) == 0
        assert len(forks) == 1
        scenario = build_scenario(parse_config(text))
        assert scenario.grid.cells * (scenario.params.N + 3) * 8 > 64 * 1024
        assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) > 3
        self.assert_matches_reference(tmp_path, text)

    @pytest.mark.parametrize("extra, forked", [
        ("", 0),
        ("output.snapshots = 1\n", 0),
        ("output.snapshots = 2\n", 1),
        ("output.every_steps = 1\n", 1),
        ("output.every_steps = 4\noutput.snapshots = 3\n", 1),
    ], ids=["end-snapshots-only", "one-snapshot", "two-snapshots", "every-step",
            "every-4-steps-and-3-snapshots"])
    def test_transport_follows_interior_snapshots(self, tmp_path, forks, extra, forked):
        text = DAM_CFG.format(path=tmp_path / "o") + extra
        assert self.run_case(tmp_path, text) == 0
        assert len(forks) == forked
        self.assert_matches_reference(tmp_path, text)
        assert_no_process_left()

    def test_without_fork_formats_in_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        text = DAM_CFG.format(path=tmp_path / "o") + "output.every_steps = 1\n"
        assert self.run_case(tmp_path, text) == 0
        self.assert_matches_reference(tmp_path, text)

    def test_failed_fork_formats_in_process(self, tmp_path, monkeypatch):
        def no_process():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_process)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        text = DAM_CFG.format(path=tmp_path / "o") + "output.every_steps = 1\n"
        assert self.run_case(tmp_path, text) == 0
        self.assert_matches_reference(tmp_path, text)
        if fds is not None:  # both pipes were closed again
            assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("fork", [True, False], ids=["writer-process", "in-process"])
    def test_write_failure_exits_2_with_partial_output(self, tmp_path, capsys, monkeypatch,
                                                       forks, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        full_disk_after(monkeypatch, 2)
        out = tmp_path / "o"
        assert self.run_case(tmp_path, DAM_CFG.format(path=out) + "output.every_steps = 5\n") == 2
        assert len(forks) == fork
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: writing output.path '{out}' failed: [Errno 28] "
                                f"No space left on device; partial output written to {out}\n")
        # two whole snapshots, and every summary row up to the third (step 10)
        assert len((out / "snapshots.csv").read_text().splitlines()) == 1 + 2 * 100
        assert len((out / "summary.csv").read_text().splitlines()) >= 1 + 11
        assert_no_process_left()

    def test_writer_that_dies_exits_2(self, tmp_path, capsys, monkeypatch, forks):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(swlme.cli, "_write_snapshot", killed)
        out = tmp_path / "o"
        assert self.run_case(tmp_path, DAM_CFG.format(path=out) + "output.every_steps = 1\n") == 2
        assert len(forks) == 1
        assert capsys.readouterr().err == (
            f"error: snapshot writer: worker process ended with signal {int(signal.SIGKILL)} "
            f"after sending 0 bytes; partial output written to {out}\n")
        assert (out / "snapshots.csv").read_text().startswith("t,x,h,u_m,e\n")
        assert_no_process_left()

    @pytest.mark.parametrize("case", ["success", "dry-state", "writer-failure"])
    def test_no_process_left(self, tmp_path, capsys, monkeypatch, forks, case):
        text = (DRY_CFG if case == "dry-state" else DAM_CFG + "output.every_steps = 1\n")
        if case == "writer-failure":
            full_disk_after(monkeypatch, 1)
        assert self.run_case(tmp_path, text.format(path=tmp_path / "o")) == \
            (0 if case == "success" else 2)
        assert len(forks) == 1
        if case == "dry-state":
            assert "dry or invalid state" in capsys.readouterr().err
        assert_no_process_left()

    def test_interrupted_run_reaps_the_writer(self, tmp_path, monkeypatch, forks):
        steps, step = [], swlme.solver.step

        def interrupted(*args):
            steps.append(None)
            if len(steps) > 5:
                raise KeyboardInterrupt
            return step(*args)

        monkeypatch.setattr(swlme.solver, "step", interrupted)
        out = tmp_path / "o"
        with pytest.raises(KeyboardInterrupt):
            self.run_case(tmp_path, DAM_CFG.format(path=out) + "output.every_steps = 1\n")
        assert len(forks) == 1
        assert_no_process_left()
        # the writer wrote every snapshot sent to it: the initial state and five steps
        assert len((out / "snapshots.csv").read_text().splitlines()) == 1 + 6 * 100

    def test_interrupt_ends_the_command_by_sigint_with_no_process_left(self, tmp_path):
        # the interrupt row of the failure table in the cli docstring: a
        # KeyboardInterrupt in solver.step, with a writer process running, ends
        # `swlme run` by SIGINT (status 130 in a shell) with a traceback whose last
        # line is `KeyboardInterrupt`, after the writer is reaped
        cfg = tmp_path / "case.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o") + "output.every_steps = 1\n")
        script = f"""
import os, sys
import swlme.solver
from swlme.cli import main
step, steps = swlme.solver.step, []
def interrupted(*args):
    steps.append(None)
    if len(steps) > 5:
        raise KeyboardInterrupt
    return step(*args)
swlme.solver.step = interrupted
try:
    main(["run", {str(cfg)!r}])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process is left", file=sys.stderr)
    except ChildProcessError:
        pass
"""
        src = Path(swlme.cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == -signal.SIGINT, proc.stderr
        assert proc.stderr.splitlines()[-1] == "KeyboardInterrupt", proc.stderr
        assert "a child process is left" not in proc.stderr
        assert len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) == 1 + 6 * 100


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

    def test_non_integer_mesh_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "20,a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --meshes ")

    def test_too_few_cells_names_meshes(self, tmp_path, capsys):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --meshes: need at least 2 cells, got 1\n"

    def test_mesh_over_memory_bound_rejected_before_any_run(self, tmp_path, capsys,
                                                           monkeypatch):
        runs = []
        monkeypatch.setattr("swlme.diagnostics.run", lambda *args: runs.append(args))
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))  # N = 0: two floats a cell
        most = MAX_STATE_BYTES // 16
        assert main(["converge", str(cfg), "--meshes", f"50,{most + 1}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and runs == []
        assert captured.err == (f"error: --meshes: {most + 1} cells exceed {most} at N=0: a "
                                f"state takes 16 bytes a cell, and at most {MAX_STATE_BYTES} "
                                "bytes\n")

    @pytest.mark.parametrize("line, message", [
        ("ic.h_l = 0.05", "error: key 'ic.h_l': the exact dam break needs h_l > h_r > 0 "
                          "(ic.h_r = 0.1), got 0.05\n"),
        ("time.t_end = 0", "error: key 'time.t_end': the exact dam break needs t_end > 0, "
                           "got 0.0\n"),
    ])
    def test_stoker_constraint_names_key(self, tmp_path, capsys, line, message):
        key = line.split(" =")[0]
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(re.sub(f"^{re.escape(key)} = .*$", line,
                              DAM_CFG.format(path=tmp_path / "o"), flags=re.M))
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    def test_time_step_underflow_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("swlme.solver.cfl_dt", lambda *args, **kwargs: 0.0)
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 2
        assert "time step underflow" in capsys.readouterr().err

    def test_step_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("swlme.solver.MAX_STEPS", 3)
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: run on 50 cells failed: step limit of 3 steps "
                                       "reached at t = ")

    def test_every_mesh_gets_its_own_cell_step_budget(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / "o"))
        steps = {}
        # the 100-cell run takes more cell-steps than the 50-cell one; a budget
        # between them stops only the finer mesh, and one that covers each run
        # alone, though not both together, stops neither
        for cells in (50, 100):
            sc = build_scenario(parse_config(DAM_CFG.format(path=tmp_path / "o"))).with_cells(cells)
            steps[cells] = len(run(sc).steps) - 1
        small, large = 50 * steps[50], 100 * steps[100]
        assert small < large < small + large
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)
        monkeypatch.setattr("swlme.solver.MAX_CELL_STEPS", large)
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("swlme.solver.MAX_CELL_STEPS", large - 1)
        assert main(["converge", str(cfg), "--meshes", "50,100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: run on 100 cells failed: cell-step budget of "
                                       f"{large - 1} reached at t = ")

    def test_every_mesh_gets_the_step_bound(self, tmp_path, capsys, monkeypatch):
        # at t_end = 0.1 a periodic run needs at least 11.1 steps on 32 cells and 22.3 on 64
        monkeypatch.setattr("swlme.solver.MAX_STEPS", 20)
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text(SELF_REF_CFG.format(path=tmp_path / "o"))
        ran = []
        monkeypatch.setattr(swlme.diagnostics, "run", lambda *args: ran.append(args))
        assert main(["converge", str(cfg), "--meshes", "32,64"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert captured.err == ("error: key 'time.t_end': t_end = 0.1 needs more than "
                                "MAX_STEPS = 20 steps: with periodic walls no step exceeds "
                                "cfl dx / sqrt(g mean(h0)) = 0.004489\n")

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


SELF_REF_CFG = """\
model.N = 1
model.g = 9.812
model.variant = swlme
grid.cells = 32
grid.xmin = 0.0
grid.xmax = 1.0
bc.kind = periodic
ic.name = smooth_periodic
ic.h0 = 1.0
ic.h_amp = 0.1
ic.um_amp = 0.2
time.t_end = 0.1
time.cfl = 0.9
output.path = {path}
"""


def fails_on(monkeypatch, cells):
    """Make every convergence run on a mesh in `cells` fail."""
    real_run = swlme.diagnostics.run

    def run_or_fail(scenario, sink):
        if scenario.grid.cells in cells:
            return None, "injected failure"
        return real_run(scenario, sink)

    monkeypatch.setattr(swlme.diagnostics, "run", run_or_fail)


class TestFailedStdout:
    """A failed write or flush of stdout exits 2 with one stderr line, and no traceback."""

    COMMANDS = ("coeffs", "check", "run", "converge")

    @staticmethod
    def argv(tmp_path, command, out="o"):
        cfg = tmp_path / "dam.cfg"
        cfg.write_text(DAM_CFG.format(path=tmp_path / out))
        return {"coeffs": ["coeffs", "--N", "30"],
                "check": ["check", "--N", "0", "--samples", "100"],
                "run": ["run", str(cfg)],
                "converge": ["converge", str(cfg), "--meshes", "50,100"]}[command]

    @staticmethod
    def message(tmp_path, reason, command):
        files = f"; the output files are complete in {tmp_path / 'o'}" if command == "run" else ""
        return f"error: writing standard output failed: {reason}{files}\n"

    @staticmethod
    def swlme(argv, **kwargs):
        src = Path(swlme.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.Popen([sys.executable, "-m", "swlme", *argv], env=env,
                                stderr=subprocess.PIPE, text=True, **kwargs)

    def assert_run_outputs_complete(self, tmp_path):
        # the files match those of a run whose stdout worked
        assert main(self.argv(tmp_path, "run", out="whole")) == 0
        for name in ("snapshots.csv", "summary.csv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_pipe(self, tmp_path, command):
        r, w = os.pipe()
        os.close(r)  # every write to w now fails with EPIPE
        try:
            proc = self.swlme(self.argv(tmp_path, command), stdout=w)
        finally:
            os.close(w)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (2, self.message(tmp_path, "[Errno 32] Broken pipe",
                                                          command))
        if command == "run":
            self.assert_run_outputs_complete(tmp_path)

    CLOSED = "[Errno 9] standard output is closed"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_closed_before_the_start(self, tmp_path, command):
        # `swlme ... >&-`: Python starts with sys.stdout None
        proc = self.swlme(self.argv(tmp_path, command), preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (2, self.message(tmp_path, self.CLOSED, command))
        if command == "run":
            self.assert_run_outputs_complete(tmp_path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_stdout_in_process(self, tmp_path, capsys, monkeypatch, command):
        captured_stdout = sys.stdout
        monkeypatch.setattr(sys, "stdout", None)
        assert main(self.argv(tmp_path, command)) == 2
        assert sys.stdout is None  # main put back the stdout it was given
        assert capsys.readouterr().err == self.message(tmp_path, self.CLOSED, command)
        if command == "run":
            monkeypatch.setattr(sys, "stdout", captured_stdout)
            self.assert_run_outputs_complete(tmp_path)

    def test_no_stdout_and_nothing_to_write(self, capsys, monkeypatch):
        # a command that writes nothing to stdout keeps its own exit code
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["coeffs", "--N", "0"]) == 1
        assert capsys.readouterr().err == "error: --N must be in 1..64, got 0\n"

    def test_pipe_closed_after_the_first_line(self, tmp_path):
        # `swlme coeffs --N 30 | head -1`: 27000 rows, far more than a pipe holds
        proc = self.swlme(self.argv(tmp_path, "coeffs"), stdout=subprocess.PIPE)
        assert proc.stdout.readline() == "i,j,k,A,B\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        assert proc.stderr.read() == self.message(tmp_path, "[Errno 32] Broken pipe", "coeffs")
        proc.stderr.close()

    class FullDisk:
        """A stdout on a full disk: writes fail at once, or are held until a flush fails."""

        def __init__(self, fails_at):
            self.fails_at = fails_at

        def fail(self, *args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def write(self, text):
            return self.fail() if self.fails_at == "write" else len(text)

        def writelines(self, lines):
            return self.fail() if self.fails_at == "write" else None

        def flush(self):
            self.fail()

    @pytest.mark.parametrize("fails_at", ["write", "flush"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_disk(self, tmp_path, capsys, monkeypatch, command, fails_at):
        captured_stdout = sys.stdout
        monkeypatch.setattr(sys, "stdout", self.FullDisk(fails_at))
        assert main(self.argv(tmp_path, command)) == 2
        assert sys.stdout.fails_at == fails_at  # main put back the stdout it was given
        captured = capsys.readouterr()
        assert captured.err == self.message(tmp_path, "[Errno 28] No space left on device",
                                            command)
        if command == "run":
            monkeypatch.setattr(sys, "stdout", captured_stdout)
            self.assert_run_outputs_complete(tmp_path)

    def test_failed_run_is_reported_before_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("swlme.solver.MAX_STEPS", 3)
        monkeypatch.setattr(sys, "stdout", self.FullDisk("write"))
        assert main(self.argv(tmp_path, "run")) == 2
        err = capsys.readouterr().err.splitlines()
        partial = f"partial output written to {tmp_path / 'o'}"
        assert len(err) == 2, err
        assert err[0].startswith("error: run failed (step limit of 3 steps") and err[0].endswith(
            partial)
        assert err[1] == ("error: writing standard output failed: [Errno 28] No space left on "
                          f"device; {partial}")


class TestFanOutCommands:
    """check and converge print the same bytes with a worker process as without, and leave none."""

    @staticmethod
    def outcome(capsys, monkeypatch, cpus, argv):
        """(exit code, stdout, stderr) of main(argv) with `cpus` CPUs usable."""
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        code = main(argv)
        captured = capsys.readouterr()
        assert_no_process_left()
        return code, captured.out, captured.err

    def both_paths(self, capsys, monkeypatch, argv):
        """The outcome with a worker process, checked equal to the outcome without."""
        fanned = self.outcome(capsys, monkeypatch, 2, argv)
        assert self.outcome(capsys, monkeypatch, 1, argv) == fanned
        return fanned

    def converge_argv(self, tmp_path, mode, meshes):
        cfg = tmp_path / "converge.cfg"
        cfg.write_text((DAM_CFG if mode == "exact" else SELF_REF_CFG).format(path=tmp_path / "o"))
        return ["converge", str(cfg), "--meshes", meshes]

    @pytest.mark.parametrize("argv", [
        ["--seed", "1"], ["--seed", "2"], ["--N", "8,17", "--samples", "20000", "--seed", "1"],
    ], ids=["seed-1", "seed-2", "N-8-17"])
    def test_check_stdout(self, capsys, monkeypatch, forks, argv):
        code, out, err = self.both_paths(capsys, monkeypatch, ["check", *argv])
        assert code == 0 and err == "" and "all checks passed" in out
        assert len(forks) == 1  # one worker for every order, none without a second CPU

    @pytest.mark.parametrize("cpus, started", [(2, 1), (1, 0)])
    def test_check_starts_one_worker_for_every_order(self, capsys, monkeypatch, cpus, started):
        calls, start = [], swlme._worker.start

        def counted(fn, what):
            calls.append(what)
            return start(fn, what)

        monkeypatch.setattr(swlme._worker, "start", counted)
        code, out, _ = self.outcome(capsys, monkeypatch, cpus,
                                    ["check", "--N", "0,1,2,3,5", "--samples", "3000"])
        assert code == 0 and "all checks passed" in out
        assert len(calls) == started, calls

    @pytest.mark.parametrize("mode, meshes", [("exact", "50,100,200"),
                                              ("self-reference", "16,32,64")])
    def test_converge_stdout(self, tmp_path, capsys, monkeypatch, forks, mode, meshes):
        code, out, err = self.both_paths(capsys, monkeypatch,
                                         self.converge_argv(tmp_path, mode, meshes))
        assert code == 0 and err == "" and out.startswith("cells,l1_error,observed_order\n")
        assert len(forks) == 1

    @pytest.mark.parametrize("mode, meshes, failing, first", [
        ("exact", "50,100,200", {100, 200}, 100),
        ("exact", "50,100,200", {200}, 200),
        ("exact", "200,50,100", {200, 50}, 200),
        ("self-reference", "16,32,64", {16, 64}, 64),
        ("self-reference", "16,32,64", {32}, 32),
    ], ids=["both-shares", "worker-only", "largest-listed-first", "reference-first",
            "caller-only"])
    def test_converge_reports_the_serial_first_error(self, tmp_path, capsys, monkeypatch, mode,
                                                     meshes, failing, first):
        fails_on(monkeypatch, failing)
        assert self.both_paths(capsys, monkeypatch,
                               self.converge_argv(tmp_path, mode, meshes)) == \
            (2, "", f"error: run on {first} cells failed: injected failure\n")

    def test_lost_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        parent, real_run = os.getpid(), swlme.diagnostics.run
        block_defects = swlme.diagnostics._block_defects

        def killed_in_worker(fn):
            def call(*args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return fn(*args)
            return call

        monkeypatch.setattr(swlme.diagnostics, "run", killed_in_worker(real_run))
        monkeypatch.setattr(swlme.diagnostics, "_block_defects", killed_in_worker(block_defects))
        lost = f"worker process ended with signal {int(signal.SIGKILL)} after sending 0 bytes\n"
        assert self.outcome(capsys, monkeypatch, 2, self.converge_argv(tmp_path, "exact",
                                                                       "50,100")) == \
            (2, "", f"error: run on 100 cells: {lost}")
        assert self.outcome(capsys, monkeypatch, 2, ["check", "--N", "2", "--samples",
                                                      "9000"]) == \
            (2, "", f"error: identity check at N=2: {lost}")

    def test_caller_interrupt_leaves_no_process(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.setattr(swlme.diagnostics, "run", interrupted)
        monkeypatch.setattr(swlme.diagnostics, "_block_defects", interrupted)
        start = time.monotonic()
        for argv in (self.converge_argv(tmp_path, "exact", "50,100"),
                     ["check", "--N", "2", "--samples", "9000"]):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
            assert_no_process_left()
        assert time.monotonic() - start < 30  # the workers were killed, not waited for

    @pytest.mark.parametrize("mode, meshes, message", [
        ("exact", "", "need at least one mesh"),
        ("self-reference", "100,300", "self-reference mode needs dyadically nested meshes, "
                                      "got 100 -> 300"),
        ("self-reference", "32", "self-reference mode needs at least two meshes, got [32]"),
        ("exact", "100,100", "repeated mesh in [100, 100]"),
    ], ids=["no-mesh", "not-nested", "one-mesh", "repeated-mesh"])
    def test_mesh_list_errors_name_meshes(self, tmp_path, capsys, monkeypatch, forks, mode,
                                          meshes, message):
        runs = []
        monkeypatch.setattr(swlme.diagnostics, "run", lambda *args: runs.append(args))
        assert self.outcome(capsys, monkeypatch, 2, self.converge_argv(tmp_path, mode,
                                                                       meshes)) == \
            (1, "", f"error: --meshes: {message}\n")
        assert runs == [] and forks == []


def overflowed_swme_config(tmp_path, ic_line):
    """Write a 20-cell SWME N=3 smooth-flow config with the given ic line; its path."""
    cfg = tmp_path / "swme.cfg"
    cfg.write_text(
        "model.N = 3\nmodel.g = 9.81\nmodel.variant = swme\n"
        "grid.cells = 20\ngrid.xmin = 0.0\ngrid.xmax = 1.0\n"
        f"bc.kind = periodic\nic.name = smooth_periodic\n{ic_line}\n"
        f"time.t_end = 0.1\ntime.cfl = 0.9\noutput.path = {tmp_path/'o'}\n"
    )
    return cfg


def test_overflowed_swme_run_exits_2_with_partial_output(tmp_path, capsys):
    # the full closure's eigen-solve cannot take the overflowed state; the run
    # records it as a failure, as the linearized closure's run does
    cfg = overflowed_swme_config(tmp_path, "ic.um_amp = 1e200")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == ("error: run failed (invalid state: non-finite quasilinear matrix at cell 0); "
                   f"partial output written to {tmp_path/'o'}\n")
    assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 1
    assert len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) == 1 + 20


def test_overflowed_swme_moments_exit_2_before_any_flux(tmp_path, capsys):
    # moments of 1e160 overflow the quasilinear matrix too, so cfl_dt stops the
    # run before a flux could meet an infinite velocity (where the closure
    # contraction, skipping zero coefficients, would differ from a dense one)
    cfg = overflowed_swme_config(tmp_path, "ic.u_amp = 1e160")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: run failed (invalid state: non-finite quasilinear matrix at cell 0); "
                   f"partial output written to {tmp_path/'o'}\n")
    assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 1


def test_overflowed_swlme_run_reports_non_finite_state(tmp_path, capsys):
    # h u_m^2 overflows in the stage-1 flux and the momentum turns NaN while
    # every depth is 1 +- 0.1; the stage names it rather than a dry state
    cfg = tmp_path / "swlme.cfg"
    cfg.write_text(
        "model.N = 3\nmodel.g = 9.81\nmodel.variant = swlme\n"
        "grid.cells = 50\ngrid.xmin = 0.0\ngrid.xmax = 1.0\n"
        "bc.kind = periodic\nic.name = smooth_periodic\nic.um_amp = 1e200\n"
        f"time.t_end = 0.1\ntime.cfl = 0.9\noutput.path = {tmp_path/'o'}\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == ("error: run failed (stage 1: non-finite state: momentum = nan at cell 0); "
                   f"partial output written to {tmp_path/'o'}\n")
    assert len((tmp_path / "o" / "summary.csv").read_text().splitlines()) == 1 + 1
    assert len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) == 1 + 50


def test_docs_list_exactly_the_preset_table():
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    documented = {"ic": {}, "topo": {}}
    bullets = re.findall(r"^- `(\w+)\.name = (\w+)`(.*?)(?=^- |^#|\Z)", text, re.M | re.S)
    for section, name, body in bullets:
        params = re.findall(r"`(\w+)\.(\w+)` \(([^)]*)\)", body)
        assert all(s == section for s, _, _ in params), name
        documented[section][name] = {key: float(default) for _, key, default in params}

    def rows(table):  # in table order, which the "known: ..." messages follow
        return [(s, name, list(p.items())) for s in table for name, p in table[s].items()]
    assert rows(documented) == rows(_PRESETS)


def test_docs_list_exactly_the_key_table():
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()

    def table(heading):  # the first two columns of the table under `heading`
        body = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^\| `([\w.]+)` *\| *`?([^|`]*?)`? *\|", body, re.M)

    types = {int: "int", float: "float", str: "string"}
    assert table("Required keys") == [(key, types[kind]) for key, (_, kind, *default)
                                      in _KEYS.items() if not default]
    assert table("Optional keys") == [(key, str(default[0])) for key, (_, kind, *default)
                                      in _KEYS.items() if default]


# what the benchmark harness wraps, in every swlme namespace that binds it; it
# skips a name it cannot find without a word, so a refactor that renamed one,
# or stopped calling it through the module, would drop that layer unseen
BENCHMARK_HOOKS = ("solver.run", "solver.step", "solver._summary_row", "cli._write_outputs",
                   "model.max_wave_speed")
# the harness ends set-up at the first call of these, so the process that
# runs main must make that call itself, not only a worker it forks
SETUP_MARKERS = ("diagnostics.check_total_energy_identity", "solver.step")


def test_benchmark_hooks_are_called(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(BENCHMARK_HOOKS + SETUP_MARKERS, 0)

    def counting(hook, fn):
        def counted(*args, **kwargs):
            calls[hook] += 1
            return fn(*args, **kwargs)
        return counted

    for hook in calls:
        module, name = hook.split(".")
        original = getattr(sys.modules[f"swlme.{module}"], name)
        wrapper = counting(hook, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "swlme" or mod_name.startswith("swlme."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)

    cfg = tmp_path / "smooth.cfg"
    cfg.write_text(SMOOTH_CFG.format(path=tmp_path / "o")
                   .replace("swlme\n", "swme\n").replace("grid.cells = 300", "grid.cells = 40"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WaveSpeedBoundWarning)
        assert main(["run", str(cfg)]) == 0
    snapshots = len((tmp_path / "o" / "snapshots.csv").read_text().splitlines()) // 40
    assert snapshots > 2  # interior snapshots, so a writer process took them
    assert all(calls[hook] for hook in BENCHMARK_HOOKS), calls

    dam = tmp_path / "dam.cfg"
    dam.write_text(DAM_CFG.format(path=tmp_path / "d"))
    # with two CPUs a worker runs the 40-cell mesh and this process the 20-cell one
    for cpus, runs in ((2, 1), (1, 2)):
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        calls.update(dict.fromkeys(calls, 0))
        assert main(["converge", str(dam), "--meshes", "20,40"]) == 0
        assert calls["solver.run"] == runs and calls["solver.step"] > 2, calls
        assert calls["solver._summary_row"] > calls["solver.step"], calls
        # one call for every order, whether or not a worker takes part of their blocks
        calls.update(dict.fromkeys(calls, 0))
        assert main(["check", "--N", "0,1", "--samples", str(2 * _BLOCK + 17)]) == 0
        assert calls["diagnostics.check_total_energy_identity"] == 1, calls

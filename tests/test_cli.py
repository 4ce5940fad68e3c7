"""End-to-end CLI tests: subcommands, exit codes, output layout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairplasma
from pairplasma import __version__
from pairplasma.cli import cli_main
from pairplasma.grid import Grid1D

SMALL_RUN = """
physics.alpha = 0.0072992700729927005
grid.cells = 128
solver.t_end = 150
output.snapshot_every = 8
output.dir = {outdir}
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_RUN.format(outdir=outdir))
        assert cli_main(["run", cfg]) == 0
        assert (outdir / "series.csv").exists()
        assert (outdir / "fields_000000.csv").exists()
        assert (outdir / "manifest.json").exists()
        assert "run finished" in capsys.readouterr().out
        manifest = json.loads((outdir / "manifest.json").read_text())
        names = set(manifest["outputs"])
        assert "series.csv" in names
        assert any(n.startswith("fields_") for n in names)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "physics.N0 = -1\n")
        assert cli_main(["run", cfg]) == 1
        assert "configuration error" in capsys.readouterr().err

    # before the parser checked finiteness these ended in an OverflowError
    # traceback, a "numerical breakdown" (exit 2) and a meaningless run (exit 0)
    @pytest.mark.parametrize("line", ["solver.t_end = inf", "physics.N0 = inf", "ic.L = nan"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"grid.cells = 64\n{line}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: line 2:")
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.cfg")]) == 3
        assert "I/O error" in capsys.readouterr().err

    def test_breakdown_exit_code_and_partial_flush(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "ic.amplitude = 3.0\n"  # initial electron density dips below zero
            f"output.dir = {outdir}\n",
        )
        assert cli_main(["run", cfg]) == 2
        assert "numerical breakdown" in capsys.readouterr().err
        assert (outdir / "series.csv").exists()  # header-only flush

    def test_strict_positivity_breakdown_mid_run(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "physics.alpha = 0.0072992700729927005\n"
            "grid.cells = 512\n"
            "solver.stop_on_negative_density = on\n"
            f"output.dir = {outdir}\n",
        )
        assert cli_main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "wave breaking" in err
        series = (outdir / "series.csv").read_text().splitlines()
        assert len(series) > 10  # diagnostics up to the stop were flushed


    @pytest.mark.parametrize("term", ["physics.a = 1e-4", "solver.bohm = on"])
    def test_density_dependent_terms_break_down_with_partial_flush(self, tmp_path, capsys, term):
        # Bohm and recombination need n > 0; past the caustic the run must
        # stop as a numerical breakdown (exit 2) and keep what it computed.
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"grid.cells = 512\n{term}\noutput.dir = {outdir}\n")
        assert cli_main(["run", cfg]) == 2
        assert "wave breaking" in capsys.readouterr().err
        series = (outdir / "series.csv").read_text().splitlines()
        assert len(series) > 10


GOOD_ROW = "-3.0,0.0,1.01,0.01,0.0,0.0"
BAD_SNAPSHOTS = {
    # name: (file text, line the error names or None)
    "missing_column": ("# t = 0.0\nx,E,n_e,n_p,p_e\n" + "-3.0,0.0,1.01,0.01,0.0\n" * 8, 2),
    "non_numeric": ("# t = 0.0\nx,E,n_e,n_p,p_e,p_p\n" + f"{GOOD_ROW}\n" * 3
                    + "-3.0,0.0,1.01,abc,0.0,0.0\n" + f"{GOOD_ROW}\n" * 4, 6),
    "ragged_row": ("# t = 0.0\nx,E,n_e,n_p,p_e,p_p\n" + f"{GOOD_ROW}\n" * 4
                   + "-3.0,0.0,1.01,0.01,0.0\n" + f"{GOOD_ROW}\n" * 3, 7),
    "empty": ("", None),
}


class TestBadRestartInput:
    @pytest.mark.parametrize("kind", sorted(BAD_SNAPSHOTS))
    def test_config_error_names_path_and_line(self, tmp_path, capsys, kind):
        text, line = BAD_SNAPSHOTS[kind]
        snapshot = tmp_path / "restart.csv"
        snapshot.write_text(text)
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nic.kind = file\nic.path = {snapshot}\noutput.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert str(snapshot) in err
        if line is not None:
            assert f"line {line}:" in err

    @staticmethod
    def snapshot_on(tmp_path, half_width):
        # a uniform state at the cell centres of an 8-cell grid of this half-width
        rows = [f"{x!r},0.0,1.01,0.01,0.0,0.0\n" for x in Grid1D(half_width, 8).x.tolist()]
        snapshot = tmp_path / "restart.csv"
        snapshot.write_text("# t = 250.0\nx,E,n_e,n_p,p_e,p_p\n" + "".join(rows))
        return snapshot

    def test_good_snapshot_runs(self, tmp_path, capsys):
        snapshot = self.snapshot_on(tmp_path, 24000.0)
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nsolver.t_end = 10\nic.kind = file\nic.path = {snapshot}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 0
        # the restart clock starts at 0, whatever time the snapshot was taken at
        assert (tmp_path / "out" / "series.csv").read_text().splitlines()[1].startswith("0.0,")

    @pytest.mark.parametrize("half_width", [12000.0, 24000.0 * (1 + 1e-5)])
    def test_snapshot_of_another_grid_is_config_error(self, tmp_path, capsys, half_width):
        # same cell count, another box: the x column tells the grids apart
        snapshot = self.snapshot_on(tmp_path, half_width)
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nsolver.t_end = 10\nic.kind = file\nic.path = {snapshot}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert str(snapshot) in err and "x column" in err


def test_cli_import_leaves_scipy_unloaded():
    # the package does not use scipy, `check` included
    code = (
        "import sys, pairplasma.cli, pairplasma.selfcheck\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(pairplasma.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestInitCommand:
    def test_writes_initial_state_only(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"grid.cells = 128\noutput.dir = {outdir}\n")
        assert cli_main(["init", cfg]) == 0
        assert (outdir / "series.csv").exists()
        assert (outdir / "fields_000000.csv").exists()
        assert not (outdir / "fields_000001.csv").exists()
        lines = (outdir / "series.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus the t=0 row


class TestOtherCommands:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    @pytest.mark.slow
    def test_check_suite_passes(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

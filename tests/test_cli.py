"""End-to-end CLI tests: subcommands, exit codes, output layout."""

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairplasma
from pairplasma import __version__, output
from pairplasma.cli import cli_main
from pairplasma.config import parse_config
from pairplasma.grid import Grid1D
from pairplasma.output import write_snapshot, write_snapshots
from pairplasma.solver import SimState

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


    # RK4 is stable for 16*nu_h*dt <= 2.785; the default grid steps dt = 9.375.
    # Unchecked, nu_h = 0.025 (3.75) ends at t = 234 in a non-finite field
    # value, which names the wrong cause; 0.018 (2.70) runs to the end
    @pytest.mark.parametrize("nu_h,code", [(0.025, 1), (0.018, 0)])
    def test_hyperdiffusion_step_bound(self, tmp_path, capsys, nu_h, code):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"solver.nu_h = {nu_h}\noutput.dir = {outdir}\n")
        assert cli_main(["run", cfg]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("configuration error: solver.nu_h = 0.025")
            assert "largest nu_h allowed at this dt is 0.0185667" in err
            assert not outdir.exists()
        else:
            assert out.startswith("run finished at t = 1500:")

    # M = 64 at cfl 0.4: the Bohm term alone allows dt <= 2.2478 dx^2. Unchecked,
    # dx = 0.15 (dt/dx^2 = 2.67) ends at t = 2.01 in "density <= 0 ... (cold-fluid
    # wave breaking)", which names the wrong cause; dx = 0.18 (2.22) runs to the
    # end. At dx = 0.2 the Bohm term takes 0.890 of the rule and nu_h = 0.23 or
    # 0.25 the rest, for 0.996 (runs) or 1.005 (rejected)
    @pytest.mark.parametrize(
        "half_width,nu_h,t_end,code",
        [(4.8, 0.0, 240, 1), (5.76, 0.0, 240, 0), (6.4, 0.23, 24, 0), (6.4, 0.25, 24, 1)],
    )
    def test_bohm_step_bound(self, tmp_path, capsys, half_width, nu_h, t_end, code):
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"grid.cells = 64\ngrid.half_width = {half_width}\nic.kind = sine\n"
            f"ic.epsilon = 1e-3\nic.mode = 1\nsolver.bohm = on\nsolver.nu_h = {nu_h}\n"
            f"solver.t_end = {t_end}\noutput.series_every = 0\noutput.dir = {outdir}\n",
        )
        assert cli_main(["run", cfg]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("configuration error: solver.bohm = on")
            assert "the largest dt allowed is" in err
            assert not outdir.exists()
        else:
            assert out.startswith(f"run finished at t = {t_end}:")


GOOD_ROW = "-3.0,0.0,1.01,0.01,0.0,0.0"


def restart_text(row=None, column=None, value=None, extra=None):
    """A uniform state at the cell centres of the default 8-cell grid.

    One value can be replaced (`row`, `column`, `value`), or an `extra`
    column, holding 1.5 in every row, appended to the header.
    """
    names = ["x", "E", "n_e", "n_p", "p_e", "p_p"] + ([extra] if extra else [])
    lines = ["# t = 0.0", ",".join(names)]
    for i, x in enumerate(Grid1D(24000.0, 8).x.tolist()):
        values = [repr(x), "0.0", "1.01", "0.01", "0.0", "0.0"] + (["1.5"] if extra else [])
        if i == row:
            values[names.index(column)] = value
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


BAD_SNAPSHOTS = {
    # name: (file text, line the error names or None)
    "missing_column": ("# t = 0.0\nx,E,n_e,n_p,p_e\n" + "-3.0,0.0,1.01,0.01,0.0\n" * 8, 2),
    "non_numeric": ("# t = 0.0\nx,E,n_e,n_p,p_e,p_p\n" + f"{GOOD_ROW}\n" * 3
                    + "-3.0,0.0,1.01,abc,0.0,0.0\n" + f"{GOOD_ROW}\n" * 4, 6),
    "ragged_row": ("# t = 0.0\nx,E,n_e,n_p,p_e,p_p\n" + f"{GOOD_ROW}\n" * 4
                   + "-3.0,0.0,1.01,0.01,0.0\n" + f"{GOOD_ROW}\n" * 3, 7),
    "empty": ("", None),
    # nan and inf parse as floats; unchecked, the Gauss solve spreads one
    # over all of E and the run breaks down at "cell 0" with empty outputs
    "nan_density": (restart_text(row=5, column="n_e", value="nan"), 8),
    "inf_density": (restart_text(row=2, column="n_p", value="inf"), 5),
    "nan_momentum": (restart_text(row=7, column="p_e", value="NaN"), 10),
    "inf_momentum": (restart_text(row=3, column="p_p", value="-inf"), 6),
    # else the last n_e column would silently win
    "duplicate_column": (restart_text(extra="n_e"), 2),
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
        assert not (tmp_path / "out").exists()

    @staticmethod
    def snapshot_on(tmp_path, half_width, cells=8):
        # a uniform state at the cell centres of a grid of this half-width
        rows = [f"{x!r},0.0,1.01,0.01,0.0,0.0\n" for x in Grid1D(half_width, cells).x.tolist()]
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

    def test_snapshot_with_another_cell_count_is_config_error(self, tmp_path, capsys):
        snapshot = self.snapshot_on(tmp_path, 24000.0, cells=16)
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nic.kind = file\nic.path = {snapshot}\noutput.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert f"snapshot {snapshot} has 16 cells but the grid has 8" in err
        assert not (tmp_path / "out").exists()

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


MANY_SNAPSHOTS = "grid.cells = 256\nsolver.t_end = 1500\noutput.snapshot_every = 2\n"  # 11
BREAKDOWN_SNAPSHOTS = (  # wave breaking at t = 1293.75, after 12 snapshots
    "physics.alpha = 0.0072992700729927005\ngrid.cells = 512\n"
    "solver.stop_on_negative_density = on\noutput.snapshot_every = 3\n"
)


class TestParallelWriters:
    """Snapshots are written by up to one process per CPU in os.sched_getaffinity."""

    @staticmethod
    def use_cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def count_forks(monkeypatch, real=True):
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            if not real:
                raise AssertionError("os.fork called")
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "text, code, snapshots", [(MANY_SNAPSHOTS, 0, 11), (BREAKDOWN_SNAPSHOTS, 2, 12)]
    )
    def test_bytes_equal_for_one_and_three_writers(self, tmp_path, monkeypatch, text, code, snapshots):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, text + f"output.dir = {outdir}\n")
        outputs = []
        for writers in (1, 3):
            self.use_cpus(monkeypatch, writers)
            forks = self.count_forks(monkeypatch)
            assert cli_main(["run", cfg]) == code
            assert len(forks) == writers - 1
            outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
            shutil.rmtree(outdir)
        self.assert_no_child_left()
        serial, parallel = outputs
        assert sum(name.startswith("fields_") for name in serial) == snapshots
        assert {"series.csv", "manifest.json"} <= set(serial)
        assert parallel == serial

    @pytest.mark.parametrize("blocked", ["fields_000001.csv", "fields_000000.csv"])
    def test_failed_share_exits_3_naming_the_path(self, tmp_path, monkeypatch, capsys, blocked):
        # with 3 writers the main process writes snapshots 0, 3, 6, ... and
        # a forked writer snapshots 1, 4, 7, ...
        outdir = tmp_path / "out"
        (outdir / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path, MANY_SNAPSHOTS + f"output.dir = {outdir}\n")
        self.use_cpus(monkeypatch, 3)
        forks = self.count_forks(monkeypatch)
        assert cli_main(["run", cfg]) == 3
        assert len(forks) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("I/O error: ")
        assert str(outdir / blocked) in err
        assert not (outdir / "manifest.json").exists()
        self.assert_no_child_left()

    def test_forked_writer_error_is_raised(self, tmp_path, monkeypatch):
        # without the manifest, which would fail on the directory as well
        grid = Grid1D(24000.0, 64)
        snapshots = [(i, SimState.from_fields(grid, float(i), *np.ones((5, grid.cells))))
                     for i in range(3)]
        (tmp_path / "fields_000001.csv").mkdir()
        self.use_cpus(monkeypatch, 3)
        with pytest.raises(OSError, match="fields_000001.csv"):
            write_snapshots(snapshots, tmp_path)
        self.assert_no_child_left()
        for i in (0, 2):  # the other writers' shares are complete
            written = (tmp_path / f"fields_00000{i}.csv").read_bytes()
            assert written == write_snapshot(snapshots[i][1], 9, tmp_path).read_bytes()

    def test_dead_writer_share_is_written_by_the_run_process(self, tmp_path, monkeypatch):
        # every forked writer dies before writing a file; the run process
        # writes their shares itself, and the manifest digests them
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, MANY_SNAPSHOTS + f"output.dir = {outdir}\n")
        run_pid = os.getpid()
        write = output.write_snapshot

        def dies_when_forked(*args):
            if os.getpid() != run_pid:
                os._exit(1)
            return write(*args)

        monkeypatch.setattr(output, "write_snapshot", dies_when_forked)
        outputs = []
        for writers in (1, 3):
            self.use_cpus(monkeypatch, writers)
            forks = self.count_forks(monkeypatch)
            assert cli_main(["run", cfg]) == 0
            assert len(forks) == writers - 1
            outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
            shutil.rmtree(outdir)
        self.assert_no_child_left()
        serial, parallel = outputs
        assert sum(name.startswith("fields_") for name in serial) == 11
        assert "manifest.json" in serial
        assert parallel == serial

    def test_failed_fork_exits_3(self, tmp_path, monkeypatch, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, MANY_SNAPSHOTS + f"output.dir = {outdir}\n")
        self.use_cpus(monkeypatch, 3)
        calls = []
        fork = os.fork

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert cli_main(["run", cfg]) == 3
        assert len(calls) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("I/O error: ")
        assert not (outdir / "manifest.json").exists()
        self.assert_no_child_left()

    def test_init_forks_nothing(self, tmp_path, monkeypatch):
        self.use_cpus(monkeypatch, 4)
        forks = self.count_forks(monkeypatch, real=False)
        cfg = write_config(tmp_path, f"grid.cells = 128\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["init", cfg]) == 0
        assert forks == []

    def test_one_snapshot_forks_nothing(self, tmp_path, monkeypatch):
        self.use_cpus(monkeypatch, 4)
        forks = self.count_forks(monkeypatch, real=False)
        grid = Grid1D(24000.0, 64)
        state = SimState.from_fields(grid, 0.0, *np.ones((5, grid.cells)))
        paths = write_snapshots([(7, state)], tmp_path)
        assert paths == [tmp_path / "fields_000007.csv"]
        assert paths[0].read_bytes() == write_snapshot(state, 8, tmp_path).read_bytes()
        assert forks == []


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

    def test_manifest_reproduces_the_files(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"grid.cells = 128\nsolver.t_end = 300\noutput.dir = {outdir}\n")
        assert cli_main(["init", cfg]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        names = ["fields_000000.csv", "series.csv"]
        assert sorted(manifest["outputs"]) == names
        for name in names:
            digest = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name] == digest
        assert parse_config(manifest["config"]).solver.t_end == 0.0
        # `run` of the recorded config, into another directory, writes the same files
        rerun = tmp_path / "rerun"
        text = manifest["config"].replace(f"output.dir = {outdir}\n", f"output.dir = {rerun}\n")
        assert cli_main(["run", write_config(tmp_path, text, name="rerun.cfg")]) == 0
        assert sorted(p.name for p in rerun.iterdir()) == sorted(names + ["manifest.json"])
        for name in names:
            assert (rerun / name).read_bytes() == (outdir / name).read_bytes()


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
        assert "PASS  quantum physics: Bohm dispersion matches the discrete closed form" in out
        assert "PASS  recombination: n_p matches its closed form" in out

"""End-to-end CLI tests: subcommands, exit codes, output layout."""

import ast
import errno
import hashlib
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import pairplasma
from pairplasma import __version__, cli, output, solver
from pairplasma.cli import cli_main
from pairplasma.config import parse_config
from pairplasma.diagnostics import SERIES_COLUMNS
from pairplasma.errors import ConfigError, NumericalBreakdownError, PairPlasmaError
from pairplasma.grid import Grid1D, integrate
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


# one config per breakdown check: the finite scan of a step, the density
# check of a stage, and the four checks of the initial state, each at its cell
BREAKDOWNS = {
    "non_finite": (
        "grid.cells = 64\nphysics.N0 = 1e150",
        "non-finite field value at t = 300, cell 0: "
        "E = inf, n_e = inf, n_p = inf, p_e = 9.37197e+289, p_p = -9.37197e+289",
    ),
    "wave_breaking": (
        "grid.cells = 512\nsolver.stop_on_negative_density = on",
        "density <= 0 (cold-fluid wave breaking) at t = 1293.75, cell 144: "
        "E = 0.0221534, n_e = -0.131812, n_p = 0.00409368, p_e = 0.431709, p_p = -10.0303",
    ),
    "field_energy": (
        "grid.cells = 64\nphysics.N0 = 1e300",
        "field energy density overflows at t = 0, cell 0: "
        "E = 9.97021e+292, n_e = 1.01, n_p = 0.01, p_e = 0, p_p = 0",
    ),
    "kinetic_energy": (  # a restart whose p_e is 1e308 in cell 3
        "grid.cells = 64\nic.kind = file\nic.path = {snapshot}",
        "kinetic energy density overflows at t = 0, cell 3: "
        "E = 0, n_e = 1.01, n_p = 0.01, p_e = 1e+308, p_p = 0",
    ),
    "total_energy": (
        "grid.cells = 64\nic.base_p = 1e308",
        "total energy overflows at t = 0, cell 0: "
        "E = 0, n_e = 1e+308, n_p = 1e+308, p_e = 0, p_p = 0",
    ),
    "initial_density": (
        "grid.cells = 64\nic.amplitude = -10",
        "density <= 0 in the initial state at t = 0, cell 33: "
        "E = -2.14168, n_e = -0.800227, n_p = 0.01, p_e = 0, p_p = 0",
    ),
}


def gaussian_rounding_charge(amplitude, cells):
    """Net charge integral of the default Gaussian state at `amplitude`, by
    the formula `initial_condition` uses.

    The odd Gaussian is neutral, so this is the rounding residue of numpy's
    exp, which differs between numpy's CPU dispatch paths: -5.336706e+286
    on AVX-512 and -5.380271e+286 on AVX2 at amplitude 1e300 and M = 64.
    """
    ic, grid = solver.InitialCondition(amplitude=amplitude), Grid1D(24000.0, cells)
    u = grid.x / ic.L
    n_e = (1.0 + ic.base_p) + ic.amplitude * u * np.exp(-u * u)
    return integrate(1.0 - n_e + np.full(cells, ic.base_p), grid.dx)


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

    # every range-checked key out of its range, and the two bad kinds: the
    # check of the key's section names it and its value, in one line
    RANGE_ERRORS = [
        ("physics.N0 = 0", "0.0 must be positive"),
        ("physics.alpha = -7e-3", "-0.007 must be positive"),
        ("physics.a = -1e-3", "-0.001 must be >= 0 (0 disables)"),
        ("grid.half_width = 0", "0.0 must be positive"),
        ("grid.cells = 63", "63 must be even and >= 8"),
        ("solver.cfl = 0.9", "0.9 must be in (0, 0.5]"),
        ("solver.t_end = -1", "-1.0 must be >= 0"),
        ("solver.nu_h = -0.5", "-0.5 must be >= 0 (0 disables)"),
        ("ic.L = -6000", "-6000.0 must be positive"),
        ("ic.base_p = 0", "0.0 must be positive"),
        ("ic.mode = 0", "0 must be an integer in [1, 1.7976931348623157e+308]"),
        ("output.series_every = -1", "-1 must be >= 0 (0 disables)"),
        ("output.snapshot_every = -40", "-40 must be >= 0 (0 disables)"),
        ("ic.kind = foo", "'foo' must be one of gaussian, sine, file"),
        ("ic.kind = file", "file needs ic.path"),
    ]

    @pytest.mark.parametrize("line, rule", RANGE_ERRORS, ids=[line for line, _ in RANGE_ERRORS])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, line, rule):
        cfg = write_config(tmp_path, f"{line}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", cfg]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr() == ("", f"configuration error: {key} = {rule}\n")
        assert not (tmp_path / "out").exists()

    # these keys were removed: the pair factor's cutoff is where exp underflows,
    # dE/dt has the one displacement sign that keeps the Gauss law, every
    # step an explicit dt could set is some solver.cfl*dx, the electron
    # background of a neutral initial state is 1 + ic.base_p, and ic.amplitude
    # sets the perturbation of the sine state as it does the Gaussian's
    @pytest.mark.parametrize(
        "line",
        [
            "physics.eps_field = 1e-8",
            "solver.ampere_sign_flip = on",
            "solver.dt = 9.375",
            "ic.base_e = 1.01",
            "ic.epsilon = 1e-6",
        ],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"grid.cells = 64\n{line}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert err == f"configuration error: line 2: unknown key {key}\n"
        assert not (tmp_path / "out").exists()

    def test_removed_uniform_kind(self, tmp_path, capsys):
        # a uniform plasma is a Gaussian of amplitude 0
        cfg = write_config(
            tmp_path, f"grid.cells = 64\nic.kind = uniform\noutput.dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err == "configuration error: ic.kind = 'uniform' must be one of gaussian, sine, file\n"
        assert not (tmp_path / "out").exists()

    # unchecked, these ended in an OverflowError or ValueError traceback from
    # building dx and the cell centres; none of them could be allocated
    @pytest.mark.parametrize(
        "cells", ["1" + "0" * 400, "99999999999999999998", "4611686018427387904"],
        ids=["ten_to_400", "above_int64", "two_to_62"],
    )
    def test_huge_cell_count_is_config_error(self, tmp_path, capsys, cells):
        cfg = write_config(tmp_path, f"grid.cells = {cells}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: grid.cells = {cells} is too large")
        assert not (tmp_path / "out").exists()

    def test_unallocatable_cell_count_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 2^40 cells fit an int64 array, but whether the 8 TiB can be
        # allocated depends on the machine's overcommit policy: numpy's
        # refusal is simulated here, since a real attempt might succeed.
        # Unchecked, it ended in an _ArrayMemoryError traceback.
        arange = np.arange

        def refusing_arange(n, *args, **kwargs):
            if n >= 2**40:
                raise MemoryError(f"Unable to allocate 8.00 TiB for an array with shape ({n},)")
            return arange(n, *args, **kwargs)

        monkeypatch.setattr(np, "arange", refusing_arange)
        cfg = write_config(tmp_path, f"grid.cells = {2**40}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: grid.cells = {2**40} is too large to build the cell centres "
            f"(Unable to allocate 8.00 TiB for an array with shape ({2**40},))\n"
        )
        assert not (tmp_path / "out").exists()

    # unchecked, 2*half_width overflowed to dx = inf: the sine state broke
    # down at t = 0 on a NaN field (exit 2), and the Gaussian was refused as
    # narrower than a cell of width inf
    @pytest.mark.parametrize("kind", ["sine", "gaussian"])
    def test_box_too_wide_for_a_finite_dx_is_config_error(self, tmp_path, capsys, kind):
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\ngrid.half_width = 1e308\nic.kind = {kind}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            "configuration error: grid.half_width = 1e+308 is too large: the box length "
            "2*half_width overflows, so the cell width dx is not finite\n"
        )
        assert not (tmp_path / "out").exists()

    # unchecked, omega_pe_sq = 0 made the field energy E^2/(2*omega_pe_sq)
    # "overflow" at E = 0, and omega_pe_sq = inf a NaN field, both exit 2;
    # physics.N0 = 1e300 keeps a finite omega_pe_sq and breaks down for real
    @pytest.mark.parametrize("value, omega", [("1e-200", "0.0"), ("1e308", "inf")])
    def test_plasma_frequency_out_of_range_is_config_error(self, tmp_path, capsys, value, omega):
        cfg = write_config(
            tmp_path,
            f"grid.cells = 64\nphysics.N0 = {value}\nphysics.alpha = {value}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: physics.N0 = {float(value)!r} and physics.alpha = "
            f"{float(value)!r} give the squared plasma frequency 2*alpha*N0/(2*pi)^2 = {omega}; "
            "it must be positive and finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_path_without_file_kind_is_config_error(self, tmp_path, capsys):
        # unchecked, the run solved the default Gaussian and its manifest
        # listed a path it never read
        cfg = write_config(
            tmp_path, f"grid.cells = 64\nic.path = a.csv\noutput.dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            "configuration error: ic.path is read only with ic.kind = file, "
            "but ic.kind = gaussian\n"
        )
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"grid.cells = 64\nic.kind = caf\xe9\n")
        assert cli_main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: config {cfg} is not UTF-8 text: ")

    # the checks report the breakdown with t and cell; numpy's overflow
    # warnings used to come first, three of them for N0 = 1e300 and two for
    # N0 = 1e150, whose fields overflow during a step
    @pytest.mark.parametrize(
        "line, code, message",
        [
            (
                "physics.N0 = 1e300",
                2,
                "numerical breakdown: field energy density overflows at t = 0, cell 0: "
                "E = 9.97021e+292, n_e = 1.01, n_p = 0.01, p_e = 0, p_p = 0\n",
            ),
            (
                "physics.N0 = 1e150",
                2,
                "numerical breakdown: non-finite field value at t = 300, cell 0: "
                "E = inf, n_e = inf, n_p = inf, p_e = 9.37197e+289, p_p = -9.37197e+289\n",
            ),
            (  # the odd Gaussian is neutral: only rounding at 1e300 charges it
                "ic.amplitude = 1e300",
                1,
                "configuration error: ic.amplitude = 1e+300 and ic.base_p = 0.01 charge the "
                "neutral gaussian state by rounding: net charge integral "
                f"{gaussian_rounding_charge(1e300, 64):.6e} "
                "exceeds tolerance 4.800000e-04; the periodic field equation has no solution\n",
            ),
        ],
        ids=["N0", "N0_mid_run", "amplitude"],
    )
    def test_extreme_value_prints_no_numpy_warning(self, tmp_path, capsys, line, code, message):
        cfg = write_config(tmp_path, f"grid.cells = 64\n{line}\noutput.dir = {tmp_path / 'out'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", cfg]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("value", ["0", "-0.5"])
    def test_non_positive_base_p_is_config_error(self, tmp_path, capsys, value):
        # unchecked, n_p = base_p passed the parser and exited 2 at t = 0
        cfg = write_config(
            tmp_path, f"grid.cells = 64\nic.base_p = {value}\noutput.dir = {tmp_path / 'out'}\n"
        )
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: ic.base_p = {float(value)!r} must be positive\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unresolved_gaussian_is_config_error(self, tmp_path, capsys):
        # unchecked, (x/L)^2 overflows and the run solves a uniform plasma,
        # with numpy's overflow warning as the only sign
        cfg = write_config(
            tmp_path, f"grid.cells = 64\nic.L = 1e-300\noutput.dir = {tmp_path / 'out'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["run", cfg]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "configuration error: ic.L = 1e-300 is narrower than one cell "
            "(grid dx = 750.0); the Gaussian is not resolved\n"
        )
        assert not (tmp_path / "out").exists()

    def test_charged_sine_names_amplitude_and_base_p(self, tmp_path, capsys):
        # the whole-period sine is neutral, but 1 + 1e16 rounds: the charge
        # comes from the background, so the message names it beside ic.amplitude
        cfg = write_config(
            tmp_path,
            f"grid.cells = 64\nic.kind = sine\nic.base_p = 1e16\noutput.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        assert capsys.readouterr().err == (
            "configuration error: ic.amplitude = 2.0 and ic.base_p = 1e+16 charge the neutral "
            "sine state by rounding: net charge integral 6.000000e+04 exceeds tolerance "
            "4.800000e-04; the periodic field equation has no solution\n"
        )
        assert not (tmp_path / "out").exists()

    def test_snapshot_files_are_numbered_in_order(self, tmp_path):
        # 5 steps of 300: snapshots at step 0, every 3rd step and the last
        outdir = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"grid.cells = 64\noutput.snapshot_every = 3\noutput.dir = {outdir}\n"
        )
        assert cli_main(["run", cfg]) == 0
        snapshots = sorted(outdir.glob("fields_*.csv"))
        assert [p.name for p in snapshots] == [f"fields_00000{i}.csv" for i in range(3)]
        assert [p.read_text().splitlines()[0] for p in snapshots] == [
            "# t = 0.0",
            "# t = 900.0",
            "# t = 1500.0",
        ]

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

    def test_negative_initial_density_names_the_initial_state(self, tmp_path, capsys):
        # the configured state is at fault, not wave breaking: at cell 33,
        # x = 1125 and n_e = 1.01 - 10*(0.1875)*exp(-0.1875^2)
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"grid.cells = 64\nic.amplitude = -10\noutput.dir = {outdir}\n")
        assert cli_main(["run", cfg]) == 2
        assert capsys.readouterr().err == (
            "numerical breakdown: density <= 0 in the initial state at t = 0, cell 33: "
            "E = -2.14168, n_e = -0.800227, n_p = 0.01, p_e = 0, p_p = 0\n"
        )

    @pytest.mark.parametrize("case", sorted(BREAKDOWNS))
    def test_breakdown_names_t_cell_and_fields(self, tmp_path, capsys, case):
        # every breakdown is reported in one line by cli_main after the
        # partial outputs are flushed, with the five field values in its cell
        lines, reason = BREAKDOWNS[case]
        m = 64
        p_e = np.zeros(m)
        p_e[3] = 1e308
        fields = (np.zeros(m), np.full(m, 1.01), np.full(m, 0.01), p_e, np.zeros(m))
        state = SimState.from_fields(Grid1D(24000.0, m), 0.0, *fields)
        snapshot = write_snapshot(state, 0, tmp_path)  # read by the restart case
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"{lines.format(snapshot=snapshot)}\noutput.dir = {outdir}\n")
        assert cli_main(["run", cfg]) == 2
        assert capsys.readouterr().err == f"numerical breakdown: {reason}\n"
        assert (outdir / "series.csv").exists()

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

    def test_breakdown_result_holds_the_written_snapshots(self, tmp_path):
        # wave breaking at t = 1293.75, after 12 snapshots: the error's result
        # holds them in file order, snapshot i being fields_{i:06d}.csv
        outdir, again = tmp_path / "out", tmp_path / "again"
        text = f"{BREAKDOWN_SNAPSHOTS}output.dir = {outdir}\n"
        with pytest.raises(NumericalBreakdownError) as excinfo:
            solver.run(parse_config(text))
        snapshots = excinfo.value.result.snapshots
        assert excinfo.value.t == 1293.75 and len(snapshots) == 12
        assert cli_main(["run", write_config(tmp_path, text)]) == 2
        names = [f"fields_{i:06d}.csv" for i in range(12)]
        assert sorted(p.name for p in outdir.glob("fields_*.csv")) == names
        again.mkdir()
        for i, state in enumerate(snapshots):
            assert (outdir / names[i]).read_bytes() == write_snapshot(state, i, again).read_bytes()

    def test_breakdown_in_the_initial_state_carries_an_empty_result(self, tmp_path):
        # the field energy density overflows at t = 0, before any record or
        # snapshot; `run` still flushes a header-only series.csv and a manifest
        outdir = tmp_path / "out"
        text = f"grid.cells = 64\nphysics.N0 = 1e300\noutput.dir = {outdir}\n"
        with pytest.raises(NumericalBreakdownError) as excinfo:
            solver.run(parse_config(text))
        assert excinfo.value.t == 0.0
        assert excinfo.value.result == solver.RunResult([], [])
        assert cli_main(["run", write_config(tmp_path, text)]) == 2
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "series.csv"]
        assert (outdir / "series.csv").read_text() == ",".join(SERIES_COLUMNS) + "\n"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["series.csv"]


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
            f"ic.amplitude = 1e-3\nic.mode = 1\nsolver.bohm = on\nsolver.nu_h = {nu_h}\n"
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
    # a restart reads only the layout that write_snapshot writes
    "duplicate_column": (restart_text(extra="n_e"), 2),
    "extra_column": (restart_text(extra="rho"), 2),
    "reordered_columns": (restart_text().replace("p_e,p_p", "p_p,p_e", 1), 2),
    "non_utf8": (restart_text().encode() + b"\xff", 11),
    # a `#` line other than `# t = <time>`
    "other_key_line": (restart_text().replace("# t = 0.0", "# foo = 2"), 1),
    # the grammar is positional: `# t = <finite time>` on line 1, the header
    # on line 2 and only data rows after it
    "t_line_after_rows": (restart_text() + "# t = 5\n", 11),
    "second_t_line": (restart_text().replace("# t = 0.0\n", "# t = 0.0\n# t = 0.0\n", 1), 2),
    "nan_time": (restart_text().replace("# t = 0.0", "# t = nan", 1), 1),
    "inf_time": (restart_text().replace("# t = 0.0", "# t = inf", 1), 1),
    "no_t_line": (restart_text().replace("# t = 0.0\n", "", 1), 1),
    "blank_line": (restart_text().replace("\n3000.0,", "\n\n3000.0,", 1), 7),
}


class TestBadRestartInput:
    @pytest.mark.parametrize("kind", sorted(BAD_SNAPSHOTS))
    def test_config_error_names_path_and_line(self, tmp_path, capsys, kind):
        text, line = BAD_SNAPSHOTS[kind]
        snapshot = tmp_path / "restart.csv"
        snapshot.write_bytes(text if isinstance(text, bytes) else text.encode())
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
    def snapshot_on(tmp_path, half_width, cells=8, nudged_row=None, n_e="1.01"):
        # a uniform state at the cell centres of a grid of this half-width,
        # with the x of `nudged_row`, if given, moved up by one ulp
        x = Grid1D(half_width, cells).x
        if nudged_row is not None:
            x[nudged_row] = np.nextafter(x[nudged_row], np.inf)
        rows = [f"{v!r},0.0,{n_e},0.01,0.0,0.0\n" for v in x.tolist()]
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
        # the x check alone refuses it, naming both cell counts
        assert f"snapshot {snapshot}: its x column (16 cells) is not the grid's cell centres" in err
        assert "(half_width 24000.0, cells 8)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "half_width,nudged_row",
        [
            pytest.param(12000.0, None, id="12000.0"),
            pytest.param(24000.0 * (1 + 1e-5), None, id="24000.24"),
            pytest.param(24000.0, 5, id="one_ulp"),
        ],
    )
    def test_snapshot_of_another_grid_is_config_error(
        self, tmp_path, capsys, half_width, nudged_row
    ):
        # same cell count, another box: the x column tells the grids apart;
        # the writer's x reads back bit-exact, so one ulp off is another grid
        snapshot = self.snapshot_on(tmp_path, half_width, nudged_row=nudged_row)
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nsolver.t_end = 10\nic.kind = file\nic.path = {snapshot}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert str(snapshot) in err and "x column" in err

    def test_exact_zero_density_is_refused(self, tmp_path, capsys):
        # kills `n <= 0` -> `n < 0` in the initial state's check: a neutral
        # snapshot (n_e = 1 where n_p = 0) with one exact zero density
        m = 64
        n_e, n_p = np.full(m, 1.01), np.full(m, 0.01)
        n_e[10], n_p[10] = 1.0, 0.0
        zero = np.zeros(m)
        state = SimState.from_fields(Grid1D(24000.0, m), 0.0, zero, n_e, n_p, zero, zero)
        snapshot = write_snapshot(state, 0, tmp_path)
        cfg = write_config(
            tmp_path,
            f"grid.cells = {m}\nic.kind = file\nic.path = {snapshot}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "numerical breakdown: density <= 0 in the initial state at t = 0, cell 10: "
        )
        assert "n_e = 1, n_p = 0, p_e = 0, p_p = 0" in err

    def test_charged_snapshot_has_no_field(self, tmp_path, capsys):
        # a generated state is neutral by construction; a restart is the one
        # input whose densities can carry a net charge, which no periodic E
        # balances
        snapshot = self.snapshot_on(tmp_path, 24000.0, n_e="1.02")
        cfg = write_config(
            tmp_path,
            f"grid.cells = 8\nic.kind = file\nic.path = {snapshot}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert cli_main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: snapshot {snapshot}: net charge integral -4.8")
        assert not (tmp_path / "out").exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# cli_main has one except arm per exit code and none for PairPlasmaError
# itself, so a package error outside the two kinds would end in a traceback
@pytest.mark.parametrize(
    "cls", sorted(_subclasses(PairPlasmaError), key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_every_package_error_has_one_exit_code(tmp_path, capsys, monkeypatch, cls):
    assert issubclass(cls, (ConfigError, NumericalBreakdownError))
    if issubclass(cls, ConfigError):
        code, prefix = 1, "configuration error"
    else:
        code, prefix = 2, "numerical breakdown"
    # 0 for each argument past the message (t and cell)
    params = inspect.signature(cls.__init__).parameters.values()
    extra = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD][2:]

    def failing_run(config):
        raise cls("bad input", *[0] * len(extra))

    monkeypatch.setattr(pairplasma.solver, "run", failing_run)
    cfg = write_config(tmp_path, f"grid.cells = 64\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", cfg]) == code
    assert capsys.readouterr().err == f"{prefix}: bad input\n"


def run_python(code, *args):
    """Run `code` in a fresh interpreter that imports the package under test."""
    src = str(Path(pairplasma.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


def test_cli_import_leaves_scipy_unloaded():
    # the package does not use scipy, `check` included
    code = (
        "import sys, pairplasma.cli, pairplasma.selfcheck\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_only_the_manifest_loads_openssl(tmp_path):
    # hashlib loads OpenSSL's libcrypto, about 3.6 MiB resident; only the
    # manifest's digests use it, so the solve and the writers run without it
    data = tmp_path / "data.txt"
    data.write_text("x\n")
    code = (
        "import sys\n"
        "import pairplasma.cli\n"
        "from pairplasma import output, solver\n"
        "from pairplasma.config import parse_config\n"
        "solver.run(parse_config('grid.cells = 64\\nsolver.t_end = 600\\n'))\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        "output.write_manifest('', sys.argv[1], [sys.argv[2]])\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    out = run_python(code, str(tmp_path), str(data))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "['_hashlib', 'hashlib']"]


def test_run_leaves_few_objects_to_the_collector(tmp_path):
    # cli_main freezes what the imports built, so the collections at
    # interpreter exit have almost nothing left to walk (about 22,000
    # objects without the freeze)
    cfg = write_config(tmp_path, f"grid.cells = 64\nsolver.t_end = 10\noutput.dir = {tmp_path / 'out'}\n")
    code = (
        "import gc, sys\n"
        "from pairplasma.cli import cli_main\n"
        "code = cli_main(['run', sys.argv[1]])\n"
        "print(len(gc.get_objects()))\n"
        "sys.exit(code)\n"
    )
    out = run_python(code, cfg)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.splitlines()[-1]) < 2000


MANY_SNAPSHOTS = "grid.cells = 256\nsolver.t_end = 1500\noutput.snapshot_every = 2\n"  # 11
BREAKDOWN_SNAPSHOTS = (  # wave breaking at t = 1293.75, after 12 snapshots
    "physics.alpha = 0.0072992700729927005\ngrid.cells = 512\n"
    "solver.stop_on_negative_density = on\noutput.snapshot_every = 3\n"
)


@pytest.mark.parametrize("text, code", [(MANY_SNAPSHOTS, 0), (BREAKDOWN_SNAPSHOTS, 2)])
def test_written_outputs_are_freed_before_the_manifest(tmp_path, monkeypatch, capsys, text, code):
    # the hashing of the manifest must not hold the run's workspace, records
    # and states: each is freed once its file is written, the final state
    # too, and on a breakdown the last good state and the workspace, which
    # the solver's frames in the error's traceback hold, as well
    refs = []
    real_run, real_manifest = solver.run, cli.write_manifest

    class Tracked(solver.Workspace):
        def __init__(self, cells):
            super().__init__(cells)
            refs.append(weakref.ref(self))

    def run(config):
        try:
            result = real_run(config)
        except NumericalBreakdownError as err:
            result = err.result
            assert len(refs) == 1
            refs.extend(weakref.ref(state) for state in result.snapshots)
            refs.extend(weakref.ref(record) for record in result.records)
            raise
        assert len(refs) == 1
        refs.extend(weakref.ref(state) for state in result.snapshots)
        refs.extend(weakref.ref(record) for record in result.records[:-1])  # the summary's
        return result

    alive = []

    def write_manifest(*args):
        alive.extend(ref() is not None for ref in refs)
        return real_manifest(*args)

    monkeypatch.setattr(solver, "Workspace", Tracked)
    monkeypatch.setattr(solver, "run", run)
    monkeypatch.setattr(cli, "write_manifest", write_manifest)
    cfg = write_config(tmp_path, f"{text}output.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", cfg]) == code
    assert len(alive) >= 20 and not any(alive)
    if code == 0:
        assert ": 21 records, 11 snapshots," in capsys.readouterr().out


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
        snapshots = [SimState.from_fields(grid, float(i), *np.ones((5, grid.cells))) for i in range(3)]
        (tmp_path / "fields_000001.csv").mkdir()
        self.use_cpus(monkeypatch, 3)
        with pytest.raises(OSError, match="fields_000001.csv"):
            write_snapshots(snapshots, tmp_path)
        self.assert_no_child_left()
        for i in (0, 2):  # the other writers' shares are complete
            written = (tmp_path / f"fields_00000{i}.csv").read_bytes()
            assert written == write_snapshot(snapshots[i], 9, tmp_path).read_bytes()

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
        paths = write_snapshots([state], tmp_path)
        assert paths == [tmp_path / "fields_000000.csv"]
        assert paths[0].read_bytes() == write_snapshot(state, 8, tmp_path).read_bytes()
        assert forks == []


class TestInitCommand:
    def test_writes_initial_state_only(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = write_config(tmp_path, f"grid.cells = 128\noutput.dir = {outdir}\n")
        assert cli_main(["init", cfg]) == 0
        assert capsys.readouterr().out.startswith("run finished at t = 0: 1 records, 1 snapshots")
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

    def test_breakdown_at_t0_flushes_as_run_does(self, tmp_path, capsys):
        # init is run with t_end = 0 through the same path: a state that breaks
        # down at t = 0 exits 2 with the same line and writes the same files
        seen = {}
        for command in ("init", "run"):
            outdir = tmp_path / command
            text = f"grid.cells = 64\nic.amplitude = -10\noutput.dir = {outdir}\n"
            code = cli_main([command, write_config(tmp_path, text, name=f"{command}.cfg")])
            out, err = capsys.readouterr()
            names = sorted(p.name for p in outdir.glob("*"))
            series = (outdir / "series.csv").read_bytes() if "series.csv" in names else None
            seen[command] = (code, out, err, names, series)
        assert seen["init"] == seen["run"]
        code, out, err, names, _ = seen["run"]
        assert code == 2 and out == "" and err.count("\n") == 1
        assert names == ["manifest.json", "series.csv"]


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


def test_benchmark_traces_existing_functions():
    # perfbench/child.py wraps every `module.function` in TRACED when it runs
    # `pairplasma run`, and a traced sample fails on a name that is gone
    source = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    (traced,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )
    assert traced
    for module_name, functions in traced.items():
        module = importlib.import_module(f"pairplasma.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"

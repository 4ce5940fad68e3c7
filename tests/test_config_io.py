"""Config grammar, output file formats, and manifest round-trips."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from pairplasma.config import (
    _SCHEMA,
    OutputConfig,
    RunConfig,
    _parse_float,
    format_config,
    parse_config,
)
from pairplasma.diagnostics import SERIES_COLUMNS, make_record
from pairplasma.errors import ConfigError
from pairplasma.grid import Grid1D, integrate
from pairplasma.kernels import PhysicsParams
from pairplasma.output import (
    _ROWS_PER_WRITE,
    SNAPSHOT_COLUMNS,
    format_column,
    read_snapshot,
    write_manifest,
    write_series,
    write_snapshot,
)
from pairplasma.selfcheck import random_smooth_state
from pairplasma.solver import InitialCondition, SimState, initial_condition

PARAMS = PhysicsParams(N0=0.2, alpha=1.0 / 137.0)

DEFAULT_CONFIG_TEXT = """\
physics.N0 = 0.2
physics.alpha = 0.0072973525693
physics.a = 0.0
grid.half_width = 24000.0
grid.cells = 2048
solver.cfl = 0.4
solver.t_end = 1500.0
solver.displacement_terms = on
solver.bohm = off
solver.nu_h = 0.0
solver.stop_on_negative_density = off
ic.kind = gaussian
ic.L = 6000.0
ic.base_p = 0.01
ic.amplitude = 2.0
ic.mode = 2
output.dir = out
output.series_every = 1
output.snapshot_every = 40
"""


class TestParseConfig:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.physics.N0 == 0.2
        assert cfg.physics.a == 0.0
        assert cfg.grid.half_width == 24000.0
        assert cfg.grid.cells == 2048
        assert cfg.solver.cfl == 0.4
        assert cfg.solver.t_end == 1500.0
        assert cfg.solver.displacement_terms is True
        assert cfg.solver.nu_h == 0.0
        assert cfg.ic.kind == "gaussian"
        assert cfg.ic.L == 6000.0
        assert cfg.ic.base_p == 0.01
        assert cfg.ic.amplitude == 2.0

    def test_partial_overrides(self):
        cfg = parse_config(
            """
            # comment line
            physics.N0 = 0.3   # trailing comment
            solver.cfl = 0.25
            grid.cells = 256
            ic.kind = sine
            ic.amplitude = 1.5e-7
            solver.displacement_terms = off
            """
        )
        assert cfg.physics.N0 == 0.3
        assert cfg.solver.cfl == 0.25
        assert cfg.grid.cells == 256
        assert cfg.ic.kind == "sine"
        assert cfg.ic.amplitude == 1.5e-7
        assert cfg.solver.displacement_terms is False
        assert cfg.grid.half_width == 24000.0  # untouched default

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("physics.N0 = 0.2\nphysics.banana = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("N0 = 0.2\n")  # missing section

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("grid.cells = 2048.5\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("solver.bohm = maybe\n")
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("physics.N0 =\n")

    # every float key: a non-finite value would crash, break down or run silently
    FLOAT_KEYS = [".".join(key) for key, parse in _SCHEMA.items() if parse is _parse_float]

    def test_float_keys_are_found(self):
        assert len(self.FLOAT_KEYS) == 10 and "solver.t_end" in self.FLOAT_KEYS

    @pytest.mark.parametrize("value", ["inf", "nan", "-1e400"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}: not a finite number"):
            parse_config(f"grid.cells = 64\n{key} = {value}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("physics.N0 = 0.2\nphysics.N0 = 0.3\n")

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError):
            parse_config("physics.N0 = -1\n")
        with pytest.raises(ConfigError):
            parse_config("grid.cells = 7\n")
        with pytest.raises(ConfigError):
            parse_config("solver.cfl = 0.9\n")
        with pytest.raises(ConfigError):
            parse_config("ic.kind = vortex\n")

    def test_boolean_spellings(self):
        for text, value in [("on", True), ("true", True), ("yes", True), ("1", True),
                            ("off", False), ("false", False), ("no", False), ("0", False)]:
            cfg = parse_config(f"solver.bohm = {text}\n")
            assert cfg.solver.bohm is value

    def test_scientific_notation(self):
        cfg = parse_config("physics.a = 2.5E-9\nic.amplitude = 1e-6\n")
        assert cfg.physics.a == 2.5e-9


class TestFormatConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_with_overrides(self):
        overrides = (
            "solver.cfl = 0.25\nphysics.a = 0.125\nic.kind = sine\nic.mode = 4\n"
            "output.dir = elsewhere\nsolver.stop_on_negative_density = on\n",
            "ic.kind = file\nic.path = x.csv\n",  # the only optional string key
            # inner blanks and '=' are kept
            "output.dir = out dir=1\nic.kind = file\nic.path = a b.csv\n",
        )
        for override in overrides:
            cfg = parse_config(override)
            assert parse_config(format_config(cfg)) == cfg
        text = format_config(parse_config(overrides[0]))
        assert "solver.cfl = 0.25" in text

    # '#' starts a comment, a line break ends the line and outer blanks are
    # stripped: output.dir = 'a#b' would re-parse as 'a', so the manifest
    # would name another directory
    @pytest.mark.parametrize("path", ["a#b", "a\nb", "a\rb", " a", "a ", "a\t", ""])
    def test_paths_that_cannot_round_trip_are_rejected(self, path):
        with pytest.raises(ConfigError, match="output.dir"):
            OutputConfig(dir=path)
        with pytest.raises(ConfigError, match="ic.path"):
            InitialCondition(kind="file", path=path or " ")
        with pytest.raises(ConfigError, match="ic.path"):
            InitialCondition(path=path)

    def test_default_text_is_pinned(self):
        # this text goes into every manifest.json; it must not drift
        assert format_config(RunConfig()) == DEFAULT_CONFIG_TEXT


class TestSeriesFile:
    def _record(self, grid):
        state = initial_condition(InitialCondition(amplitude=0.0), grid, PARAMS)
        return make_record(state, PARAMS, integrate(state.n_e, grid.dx))

    def test_header_only_for_no_records(self, tmp_path):
        path = write_series([], tmp_path / "series.csv")
        assert path.read_text() == ",".join(SERIES_COLUMNS) + "\n"

    def test_single_equilibrium_record(self, tmp_path):
        grid = Grid1D(half_width=100.0, cells=64)
        path = write_series([self._record(grid)], tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["delta_pairs"]) == 0.0
        assert float(row["gauss_residual"]) <= 1e-12
        assert float(row["t"]) == 0.0

    def test_full_precision_round_trip(self, tmp_path):
        grid = Grid1D(half_width=100.0, cells=64)
        rec = self._record(grid)
        path = write_series([rec], tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        values = [float(s) for s in lines[1].split(",")]
        for name, value in zip(SERIES_COLUMNS, values):
            assert value == getattr(rec, name)  # exact, not approximate

    def test_lf_line_endings(self, tmp_path):
        grid = Grid1D(half_width=100.0, cells=64)
        path = write_series([self._record(grid)], tmp_path / "series.csv")
        assert b"\r" not in path.read_bytes()


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        grid = Grid1D(half_width=24000.0, cells=128)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        state.t = 12.5
        path = write_snapshot(state, 3, tmp_path)
        assert path.name == "fields_000003.csv"
        t, fields = read_snapshot(path)
        assert t == 12.5
        np.testing.assert_array_equal(fields["x"], grid.x)
        np.testing.assert_array_equal(fields["E"], state.E)
        np.testing.assert_array_equal(fields["n_e"], state.n_e)
        np.testing.assert_array_equal(fields["p_p"], state.p_p)

    # the one `#` line a snapshot may hold is the `# t = <time>` that write_snapshot writes
    @pytest.mark.parametrize("line", ["# note", "# foo = 2", "#t=2", "# t = soon"])
    def test_stray_comment_line_refused(self, tmp_path, line):
        grid = Grid1D(half_width=24000.0, cells=128)
        path = write_snapshot(initial_condition(InitialCondition(), grid, PARAMS), 0, tmp_path)
        text = path.read_text()
        assert text.startswith("# t = 0.0\n")
        path.write_text(text.replace("# t = 0.0", line, 1))
        with pytest.raises(ConfigError) as info:
            read_snapshot(path)
        assert str(info.value) == f"snapshot {path}, line 1: expected '# t = <time>', got '{line}'"

    def test_peak_field_in_initial_snapshot(self, tmp_path):
        grid = Grid1D(half_width=24000.0, cells=2048)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        path = write_snapshot(state, 0, tmp_path)
        _, fields = read_snapshot(path)
        assert np.max(np.abs(fields["E"])) == pytest.approx(0.44373, rel=1e-3)
        peak_x = fields["x"][np.argmax(fields["E"])]
        assert abs(peak_x) < 3 * grid.dx

    def test_file_initial_condition_round_trip(self, tmp_path):
        grid = Grid1D(half_width=24000.0, cells=128)
        source = initial_condition(InitialCondition(), grid, PARAMS)
        source.p_e[:] = 0.25
        path = write_snapshot(source, 0, tmp_path)
        loaded = initial_condition(InitialCondition(kind="file", path=str(path)), grid, PARAMS)
        np.testing.assert_array_equal(loaded.n_e, source.n_e)
        np.testing.assert_array_equal(loaded.p_e, source.p_e)
        # E is rebuilt from the loaded charge distribution
        np.testing.assert_allclose(loaded.E, source.E, atol=1e-15)


def per_value_snapshot(state, index, outdir):
    """The snapshot writer as it was: one repr(float(v)) call per value."""
    path = outdir / f"fields_{index:06d}.csv"
    lines = [f"# t = {repr(float(state.t))}", ",".join(SNAPSHOT_COLUMNS)]
    columns = (state.grid.x, state.E, state.n_e, state.n_p, state.p_e, state.p_p)
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


class TestSnapshotWriterBytes:
    # signed zero, subnormals, the normal-range limits, the switch to
    # exponent notation (1e16, 1e-5 and their neighbours) and extreme exponents
    SPECIAL = [
        -0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1e-300, 1e300, 1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-5, 0.0001,
        9.999999999999999e-06, -1e22, 0.1, 1.0, -2.0, 123456789.12345679, 1.5e-07,
        float("inf"), float("-inf"), float("nan"), 3.0e-310,
    ]

    def test_bytes_equal_per_value_writer(self, tmp_path):
        grid = Grid1D(half_width=24000.0, cells=len(self.SPECIAL))
        rolled = [np.roll(self.SPECIAL, k) for k in range(5)]
        state = SimState.from_fields(grid, 1e-5, *rolled)
        (tmp_path / "old").mkdir()
        want = per_value_snapshot(state, 7, tmp_path / "old").read_bytes()
        for x_text in (None, format_column(grid.x)):
            (tmp_path / "new").mkdir(exist_ok=True)
            assert write_snapshot(state, 7, tmp_path / "new", x_text).read_bytes() == want

    def test_bytes_equal_across_write_blocks(self, tmp_path):
        # more rows than one write block, and a partial last block
        grid = Grid1D(half_width=24000.0, cells=2 * _ROWS_PER_WRITE + 100)
        state = random_smooth_state(grid, np.random.default_rng(11))
        state.t = 187.5
        want = per_value_snapshot(state, 0, tmp_path).read_bytes()
        assert write_snapshot(state, 1, tmp_path, format_column(grid.x)).read_bytes() == want


class TestManifest:
    def test_digests_and_config_fidelity(self, tmp_path):
        grid = Grid1D(half_width=100.0, cells=64)
        state = initial_condition(InitialCondition(amplitude=0.0), grid, PARAMS)
        series = write_series(
            [make_record(state, PARAMS, integrate(state.n_e, grid.dx))], tmp_path / "series.csv"
        )
        snap = write_snapshot(state, 0, tmp_path)
        cfg = RunConfig()
        manifest_path = write_manifest(format_config(cfg), tmp_path, [series, snap])
        manifest = json.loads(manifest_path.read_text())
        assert parse_config(manifest["config"]) == cfg
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # 4 MB, about one M = 32768 snapshot: the digests are taken in 64 KiB
    # blocks, so the manifest step does not hold a whole file in memory
    @pytest.mark.parametrize("size", [0, 64 * 1024, 4 * 1024 * 1024], ids=["empty", "one_block", "4MB"])
    def test_digest_is_streamed(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "fields_000000.csv"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            manifest_path = write_manifest("", tmp_path, [path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["outputs"] == {path.name: hashlib.sha256(data).hexdigest()}
        assert peak < 256 * 1024

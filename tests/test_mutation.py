"""Seeded mutation test: bad config text and bad restart snapshots end in an
exit code and one line through `cli_main`, never a traceback or a warning.

Each case starts from a valid small run (M <= 64, a few steps), applies a
few mutations drawn with stdlib `random` from a fixed seed, and runs it in
the test's own directory. The lines that set the cell count and the end
time are never dropped or garbled, only replaced by a whole value, and the
cell count only by one of at most 64: a valid larger grid or a later end
time is a legitimately long run, not a bad input.
"""

import random
import warnings

import pytest

from pairplasma.cli import cli_main
from pairplasma.config import _SCHEMA, _parse_float, _parse_int

BASE_LINES = [
    "grid.cells = 32",
    "grid.half_width = 400",
    "ic.L = 100",
    "solver.t_end = 50",
    "output.snapshot_every = 2",
    "output.dir = out",
]
RESTART_LINES = ["ic.kind = file", "ic.path = restart.csv"]

FLOATS = ["1e308", "-1e308", "1e-300", "-1e-300", "5e-324", "0", "-0.0", "1e309", "nan", "-inf"]
INTS = ["0", "-1", "7", "9", "64", "2", "1" + "0" * 400, "9" * 20, "0x10"]
CELLS = ["-2", "0", "6", "7", "8", "33", "64"]
TEXT = ["", "=", "#", " ", "on", "x", "\t", "\x00", "é", "\ufeff", "sine", "uniform"]
PINNED = ("grid.cells ", "solver.t_end ")
# no path separator: a garbled output.dir stays a name in the test's directory
GARBLE = "abcdefgxyz0123456789.,=#-+e_ \t\x00\x7fé"
BAD_BYTES = [b"\xff", b"\xc3", b"\xe9", b"\x80\x80", b"\xed\xa0\x80"]


def _assign(rng, lines):
    section, key = rng.choice(list(_SCHEMA))
    parse = _SCHEMA[(section, key)]
    if key == "cells":
        value = rng.choice(CELLS)
    else:
        value = rng.choice({_parse_float: FLOATS, _parse_int: INTS}.get(parse, TEXT))
    name = f"{section}.{key}"
    lines[:] = [line for line in lines if not line.startswith(name + " ")]
    lines.insert(rng.randrange(len(lines) + 1), f"{name} = {value}")


def _garble(rng, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + rng.choice(GARBLE) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(GARBLE) + text[i + 1 :]


def mutated_config(rng) -> bytes:
    lines = list(BASE_LINES)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        free = [j for j, line in enumerate(lines) if not line.startswith(PINNED)]
        if op == 0 and free:
            del lines[rng.choice(free)]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        elif op == 2 and free:
            j = rng.choice(free)
            lines[j] = _garble(rng, lines[j])
        else:
            _assign(rng, lines)
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.1:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + rng.choice(BAD_BYTES) + data[i:]
    return data


def snapshot_lines(cells=32, half_width=400.0):
    dx = 2.0 * half_width / cells
    rows = []
    for j in range(cells):
        x = -half_width + (j + 0.5) * dx
        rows.append(f"{x!r},0.0,1.01,0.01,{1e-3 * (j % 5)!r},{-1e-3 * (j % 3)!r}")
    return ["# t = 25.0", "x,E,n_e,n_p,p_e,p_p"] + rows


def mutated_snapshot(rng) -> bytes:
    lines = snapshot_lines()
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        row = rng.randrange(2, max(3, len(lines)))
        if op == 0:  # truncate
            lines = lines[: rng.randrange(len(lines) + 1)]
            if lines and rng.random() < 0.5:
                lines[-1] = lines[-1][: rng.randrange(len(lines[-1]) + 1)]
        elif op == 1 and len(lines) > 1:  # break the header
            lines[1] = _garble(rng, lines[1])
        elif op == 2 and row < len(lines):  # a ragged row
            values = lines[row].split(",")
            if rng.random() < 0.5:
                values.pop(rng.randrange(len(values)))
            else:
                values.append("0.0")
            lines[row] = ",".join(values)
        elif op == 3 and row < len(lines):  # a non-finite or extreme value
            values = lines[row].split(",")
            values[rng.randrange(len(values))] = rng.choice(
                ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "0", "-1e-300"]
            )
            lines[row] = ",".join(values)
        elif row < len(lines):
            lines[row] = _garble(rng, lines[row])
    data = ("\n".join(lines) + "\n").encode() if lines else b""
    if rng.random() < 0.1:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + rng.choice(BAD_BYTES) + data[i:]
    return data


def run_case(tmp_path, monkeypatch, capsys, config: bytes, snapshot=None):
    """cli_main on `config` in tmp_path: (exit code, stderr, warnings)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_bytes(config)
    if snapshot is not None:
        (tmp_path / "restart.csv").write_bytes(snapshot)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", "run.cfg"])
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


def assert_clean(code, err, caught, case):
    assert code in (0, 1, 2, 3), case
    lines = 0 if code == 0 else 1
    assert err.count("\n") == lines and err.endswith("\n") == bool(lines), (case, err)
    assert "Traceback" not in err, case
    assert caught == [], (case, caught)


CASES = 24


@pytest.mark.parametrize("seed", range(4))
def test_mutated_configs(tmp_path, monkeypatch, capsys, seed):
    rng = random.Random(1000 + seed)
    for i in range(CASES):
        case = tmp_path / f"case{i}"
        case.mkdir()
        config = mutated_config(rng)
        code, err, caught = run_case(case, monkeypatch, capsys, config)
        assert_clean(code, err, caught, config)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_restart_snapshots(tmp_path, monkeypatch, capsys, seed):
    rng = random.Random(2000 + seed)
    config = ("\n".join(BASE_LINES + RESTART_LINES) + "\n").encode()
    for i in range(CASES):
        case = tmp_path / f"case{i}"
        case.mkdir()
        snapshot = mutated_snapshot(rng)
        code, err, caught = run_case(case, monkeypatch, capsys, config, snapshot)
        assert_clean(code, err, caught, snapshot)


# found by the mutations above: overflow in the initial state printed numpy
# warnings before the breakdown line, or let a record of t = 0 hold inf; a
# NUL in a path and a mode past the largest float ended in a traceback
@pytest.mark.parametrize(
    "lines,code,start",
    [
        ("ic.amplitude = 1e308", 2, "numerical breakdown: non-finite field value at t = 0, cell 0"),
        ("ic.base_p = 1e308", 1, "error: net charge integral inf"),
        ("ic.base_e = 1e308\nic.base_p = 1e308", 2,
         "numerical breakdown: total energy overflows at t = 0, cell 0"),
        ("output.dir = a\0b", 1, "configuration error: output.dir = 'a\\x00b'"),
        ("ic.kind = sine\nic.mode = 1" + "0" * 400, 1,
         "configuration error: ic mode must be a positive integer below 1.8e+308"),
    ],
    ids=["amplitude", "base_p", "both_bases", "nul_path", "huge_mode"],
)
def test_found_inputs(tmp_path, monkeypatch, capsys, lines, code, start):
    config = "grid.cells = 32\ngrid.half_width = 400\nic.L = 100\n" + lines + "\n"
    got, err, caught = run_case(tmp_path, monkeypatch, capsys, config.encode())
    assert_clean(got, err, caught, lines)
    assert got == code and err.startswith(start), err


def test_overflowing_restart_momentum_stops_at_t0(tmp_path, monkeypatch, capsys):
    lines = snapshot_lines()
    values = lines[5].split(",")
    values[4] = "1e308"  # p_e of cell 3
    lines[5] = ",".join(values)
    snapshot = ("\n".join(lines) + "\n").encode()
    config = ("\n".join(BASE_LINES + RESTART_LINES) + "\n").encode()
    code, err, caught = run_case(tmp_path, monkeypatch, capsys, config, snapshot)
    assert_clean(code, err, caught, "p_e = 1e308")
    assert code == 2
    assert err == "numerical breakdown: kinetic energy density overflows at t = 0, cell 3\n"
    # the breakdown leaves the series header and no row holding inf
    assert (tmp_path / "out" / "series.csv").read_text().count("\n") == 1


@pytest.mark.parametrize(
    "line", ["solver.cfl = 1e-300", "grid.half_width = 1e-300"], ids=["cfl", "half_width"]
)
def test_step_that_cannot_advance_time(tmp_path, monkeypatch, capsys, line):
    config = f"grid.cells = 8\n{line}\n".encode()
    code, err, caught = run_case(tmp_path, monkeypatch, capsys, config)
    assert_clean(code, err, caught, line)
    assert code == 1 and err.startswith("configuration error: ")
    assert "the step dt = cfl*dx = " in err and "is too small to advance t" in err
    assert not (tmp_path / "out").exists()

"""Compare what two git revisions of pairplasma write, case by case.

    python3 studies/compare_outputs.py HEAD~ HEAD    # the parent against HEAD
    python3 studies/compare_outputs.py HEAD .        # HEAD against the working tree

Each revision's `src` is exported with `git archive` into a temporary
directory; the revision "." is the working tree's `src` as it stands,
committed or not. Each case then runs its steps once at each revision, one
revision after the other, every step a fresh `python -m pairplasma` process
with that `src` on PYTHONPATH. Both revisions run a case in directories of
the same name, and every path in a config is relative, so the configs that
the manifests record are the same text.

A step is a `pairplasma run`, `init` or `check`, or an edit of a file that
an earlier step wrote (a restart snapshot given a net charge, say). For each
case the script prints "identical", or what differs:
  - a step's exit code, or the first differing line of its stdout or stderr;
  - a file that only one revision wrote;
  - in a CSV file, the first differing line and column, and the largest
    relative difference |a - b| / max(|a|, |b|) in each column that differs;
  - in any other file (manifest.json), the first differing line.
It exits 1 when any case differs, and 0 when every case is identical.

The cases are the runs behind the byte-identity claims in CHANGES.md: the
benchmark's workloads (ref, fine, snap_io, and the restart_terms source
run and restart, with perfbench's settings at seed 0), `init`, a sine
state, the M = 512 mid-run breakdown, the t = 0 overflow at N0 = 1e300, the
three states that rounding or an edit charges (amplitude 1e300, a sine at
base_p 1e16, a snapshot with one n_e set to 1.5), a restart from a snapshot
of another cell count, one from a snapshot with `# t = nan` appended, and
`pairplasma check`. Output bytes hold for one numpy build on one CPU
dispatch path (README, "Byte identity"), so compare two revisions on one
machine, in one environment. The whole list takes about 11 s for both
revisions together on a 2-vCPU Xeon VM, about half of it `fine`.

Standard library and numpy only (numpy through the package itself).
"""

import argparse
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP_TIMEOUT_S = 600


def _config(command, name, settings=""):
    """A `pairplasma <command> <name>.cfg` step whose run writes to `name`/."""
    return (command, name, f"{settings}output.dir = {name}\n")


def _edit(source, target, change):
    """A step that writes change(text of `source`) to `target`."""
    return ("edit", source, target, change)


def _charge(text):
    """Set n_e of the first data row (line 3) to 1.5: the box then carries net charge."""
    lines = text.split("\n")
    row = lines[2].split(",")
    row[2] = "1.5"
    lines[2] = ",".join(row)
    return "\n".join(lines)


INIT64 = _config("init", "init64", "grid.cells = 64\n")
RESTART64 = "grid.cells = 64\nic.kind = file\nic.path = {}\n"
CASES = {
    "ref": [_config("run", "ref")],
    "fine": [_config("run", "fine", "grid.cells = 8192\noutput.snapshot_every = 0\n")],
    "snap_io": [
        _config(
            "run", "snap_io", "grid.cells = 8192\nsolver.t_end = 37.5\noutput.snapshot_every = 1\n"
        )
    ],
    "restart_terms": [
        _config(
            "run", "source", "grid.cells = 4096\nsolver.t_end = 300.0\noutput.snapshot_every = 0\n"
        ),
        _config(
            "run",
            "restart",
            "grid.cells = 4096\nic.kind = file\nic.path = source/fields_000001.csv\n"
            "solver.bohm = on\nphysics.a = 0.0001\nsolver.nu_h = 0.01\nsolver.t_end = 700.0\n"
            "output.snapshot_every = 0\n",
        ),
    ],
    "init": [INIT64],
    "sine": [_config("run", "sine", "grid.cells = 512\nic.kind = sine\n")],
    "midrun": [
        _config(
            "run",
            "midrun",
            "grid.cells = 512\nsolver.stop_on_negative_density = on\noutput.snapshot_every = 3\n",
        )
    ],
    "overflow": [_config("run", "overflow", "grid.cells = 64\nphysics.N0 = 1e300\n")],
    "charged_amplitude": [_config("run", "amplitude", "grid.cells = 64\nic.amplitude = 1e300\n")],
    "charged_sine": [
        _config("run", "sine", "grid.cells = 64\nic.kind = sine\nic.base_p = 1e16\n")
    ],
    "charged_snapshot": [
        INIT64,
        _edit("init64/fields_000000.csv", "charged.csv", _charge),
        _config("run", "restart", RESTART64.format("charged.csv")),
    ],
    "cell_count": [
        _config("init", "init16", "grid.cells = 16\n"),
        _config(
            "run", "restart", "grid.cells = 8\nic.kind = file\nic.path = init16/fields_000000.csv\n"
        ),
    ],
    "nan_time": [
        INIT64,
        _edit("init64/fields_000000.csv", "nan_time.csv", lambda text: text + "# t = nan\n"),
        _config("run", "restart", RESTART64.format("nan_time.csv")),
    ],
    "check": [("check",)],
}


def export_src(revision, dest):
    """The `src` directory of `revision`, exported under `dest` ("." is the working tree's)."""
    if revision == ".":
        return ROOT / "src"
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.12 (and late 3.10/3.11 patch
        # releases); 3.14 makes it the default
        options = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **options)
    return dest / "src"


def run_case(steps, src, workdir):
    """Run a case's steps in `workdir`; return (label, exit code, stdout, stderr) per command."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = []
    for step in steps:
        if step[0] == "edit":
            _, source, target, change = step
            if (workdir / source).exists():  # else the step that reads `target` shows it
                (workdir / target).write_text(change((workdir / source).read_text()))
            continue
        argv = [sys.executable, "-m", "pairplasma", step[0]]
        if step[0] != "check":
            _, name, text = step
            (workdir / f"{name}.cfg").write_text(text)
            argv.append(f"{name}.cfg")
        proc = subprocess.run(
            argv,
            cwd=workdir,
            env=env,
            capture_output=True,
            encoding="utf-8",
            errors="replace",
            timeout=STEP_TIMEOUT_S,
        )
        results.append((" ".join(argv[3:]), proc.returncode, proc.stdout, proc.stderr))
    return results


def _first_difference(a_lines, b_lines):
    """1-based number of the first line where two line lists differ, or None."""
    for lineno, (a, b) in enumerate(zip(a_lines, b_lines), 1):
        if a != b:
            return lineno
    if len(a_lines) != len(b_lines):
        return min(len(a_lines), len(b_lines)) + 1
    return None


def compare_steps(a_results, b_results):
    """Lines that describe how two runs of one case's commands differ."""
    lines = []
    for (label, a_code, a_out, a_err), (_, b_code, b_out, b_err) in zip(a_results, b_results):
        if a_code != b_code:
            lines.append(f"{label}: exit code {a_code} != {b_code}")
        for stream, a, b in (("stdout", a_out, b_out), ("stderr", a_err, b_err)):
            a_lines, b_lines = a.splitlines(), b.splitlines()
            lineno = _first_difference(a_lines, b_lines)
            if lineno is not None:
                lines.append(f"{label}: {stream} differs at line {lineno}:")
                for tag, text in (("a", a_lines), ("b", b_lines)):
                    line = text[lineno - 1] if lineno <= len(text) else "<end>"
                    lines.append(f"    {tag}: {line}")
    return lines


def _relative_difference(a, b):
    """|x - y| / max(|x|, |y|) of two numbers' texts; inf where that is not a finite number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf  # text against a number
    if x == y:
        return 0.0  # 0.0 against -0.0
    difference = abs(x - y) / max(abs(x), abs(y))
    return difference if math.isfinite(difference) else math.inf  # an inf or a NaN


def compare_csv(a_text, b_text):
    """How two CSV files differ: None, or the first differing line and column
    and the largest relative difference in each column that differs."""
    a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
    first = _first_difference(a_lines, b_lines)
    if first is None:
        return None
    names, at, largest = [], None, {}
    for lineno, (a, b) in enumerate(zip(a_lines, b_lines), 1):
        a_cells, b_cells = a.split(","), b.split(",")
        if not names and len(a_cells) > 1:
            try:
                float(a_cells[0])
            except ValueError:
                names = a_cells  # the header: the first row that is not numbers
        if a == b:
            continue
        if len(a_cells) != len(b_cells) or len(a_cells) == 1:
            at = at or f"line {lineno}"  # rows of two widths, or a `# t` line
            continue
        for col, (x, y) in enumerate(zip(a_cells, b_cells)):
            if x != y:
                name = names[col] if col < len(names) else f"column {col + 1}"
                at = at or f"line {lineno}, column {name}"
                largest[name] = max(largest.get(name, 0.0), _relative_difference(x, y))
    text = f"first difference at {at or f'line {first}'}"
    if len(a_lines) != len(b_lines):
        text += f"; {len(a_lines)} lines against {len(b_lines)}"
    if largest:
        text += "; largest relative difference: " + ", ".join(
            f"{name} {value:.3g}" for name, value in largest.items()
        )
    return text


def compare_dirs(a_dir, b_dir):
    """Lines that describe how the files under two directories differ (none when equal)."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    a_files = {p.relative_to(a_dir).as_posix() for p in a_dir.rglob("*") if p.is_file()}
    b_files = {p.relative_to(b_dir).as_posix() for p in b_dir.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(a_files | b_files):
        if name not in b_files or name not in a_files:
            lines.append(f"{name}: only in {'a' if name in a_files else 'b'}")
            continue
        a_bytes, b_bytes = (a_dir / name).read_bytes(), (b_dir / name).read_bytes()
        if a_bytes == b_bytes:
            continue
        a_text = a_bytes.decode("utf-8", errors="replace")
        b_text = b_bytes.decode("utf-8", errors="replace")
        if name.endswith(".csv"):
            lines.append(f"{name}: {compare_csv(a_text, b_text)}")
        else:
            lineno = _first_difference(a_text.splitlines(), b_text.splitlines())
            lines.append(f"{name}: first difference at line {lineno}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help='the first git revision, or "." for the working tree')
    parser.add_argument("b", help='the second git revision, or "." for the working tree')
    args = parser.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            srcs = [export_src(rev, tmp / f"tree-{i}") for i, rev in enumerate((args.a, args.b))]
        except subprocess.CalledProcessError as err:
            sys.exit(f"git archive failed: {err.stderr.decode(errors='replace').strip()}")
        print(f"a = {args.a}, b = {args.b}")
        for case in CASES:
            a_dir, b_dir = tmp / "a" / case, tmp / "b" / case
            results = [run_case(CASES[case], src, d) for src, d in zip(srcs, (a_dir, b_dir))]
            lines = compare_steps(*results) + compare_dirs(a_dir, b_dir)
            print(f"{case}: {'differs' if lines else 'identical'}", flush=True)
            for line in lines:
                print(f"  {line}")
            differs = differs or bool(lines)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic run outputs: series CSV, field snapshots, run manifest.

All floats are written with Python's shortest round-trip representation and
files use LF line endings, so two runs with the same configuration produce
byte-identical outputs. The manifest records the fully resolved
configuration (re-parseable) and a SHA-256 digest of every file written.

`write_snapshots` writes the snapshots of a finished run in up to one
process per available CPU: the calling process and writers forked from it.
Each file is written whole by one process with `write_snapshot`, so the
bytes do not depend on the number of writers. A forked writer reports only
its exit status; the calling process writes the share of a writer that
failed or died again itself, once every writer has ended. The CLI releases
the records and the snapshot states once their files are written, and only
then does `write_manifest` load `hashlib` (OpenSSL) to hash the files, so
the hashing holds no state, and the solve and the writers hold no OpenSSL.
"""

import json
import os
from pathlib import Path

import numpy as np

from .diagnostics import SERIES_COLUMNS
from .errors import ConfigError

SERIES_FILENAME = "series.csv"
MANIFEST_FILENAME = "manifest.json"
SNAPSHOT_COLUMNS = ("x", "E", "n_e", "n_p", "p_e", "p_p")
_ROWS_PER_WRITE = 2048


def _fmt(value: float) -> str:
    return repr(float(value))


def snapshot_filename(index: int) -> str:
    return f"fields_{index:06d}.csv"


def write_series(records, path) -> Path:
    """Write one CSV row per diagnostics record."""
    path = Path(path)
    lines = [",".join(SERIES_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, name)) for name in SERIES_COLUMNS))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def format_column(values) -> list:
    """Shortest round-trip text of each value of a float array, as the writers print it."""
    return [repr(v) for v in values.tolist()]


def write_snapshot(state, index: int, outdir, x_text=None) -> Path:
    """Write the field profiles of one state to fields_NNNNNN.csv.

    `x_text` is `format_column(state.grid.x)`; a caller writing many
    snapshots of one grid formats it once and passes it in. Rows are
    formatted and written in blocks, so the text of a whole file is never
    held at once.
    """
    path = Path(outdir) / snapshot_filename(index)
    if x_text is None:
        x_text = format_column(state.grid.x)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# t = {_fmt(state.t)}\n{','.join(SNAPSHOT_COLUMNS)}\n")
        for start in range(0, len(x_text), _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            # the five field rows of the state's (5, M) array, in column order
            columns = (x_text[block], *state.u[:, block].tolist())
            # %r of a Python float is its repr, the same text as _fmt
            fh.write("".join(["%s,%r,%r,%r,%r,%r\n" % row for row in zip(*columns)]))
    return path


def _writer_count(n_snapshots: int) -> int:
    """One writer per CPU this process may run on, and no more than snapshots.

    Without `os.sched_getaffinity` (macOS, Windows) there is one writer:
    forking after numpy has loaded Accelerate is not safe on macOS.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_snapshots))


def _write_share(snapshots, k, n, outdir, x_text):
    for index in range(k, len(snapshots), n):
        write_snapshot(snapshots[index], index, outdir, x_text)


def write_snapshots(snapshots, outdir) -> list:
    """Write each state snapshots[i] to fields_{i:06d}.csv; return the paths in order.

    There are n = min(CPUs available, len(snapshots)) writers. Writer k
    writes snapshots[k::n]; the calling process is writer 0 and the others
    are forked from it, so with n == 1 nothing is forked. A forked writer
    reports only its exit status and leaves through `os._exit`, so it never
    returns into its caller's stack (a test runner, a benchmark harness) nor
    flushes the stdio buffers it inherited. Every writer is reaped before
    this returns or raises the caller's own error; then the caller writes
    again the share of each writer that failed or died, so an error that
    persists is raised here, naming the path. The x column is formatted
    once, from the first snapshot's grid.

    A forked writer only converts arrays with `tolist`, formats floats and
    writes files; it calls no BLAS routine. Python 3.12+ warns
    (`DeprecationWarning`) when a process with other threads forks, and
    numpy's OpenBLAS starts threads at import; they are idle here.
    """
    if not snapshots:  # a run that broke down in its initial state
        return []
    paths = [Path(outdir) / snapshot_filename(index) for index in range(len(snapshots))]
    x_text = format_column(snapshots[0].grid.x)
    n = _writer_count(len(snapshots))
    writers = {}  # pid -> k
    try:
        for k in range(1, n):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _write_share(snapshots, k, n, outdir, x_text)
                    code = 0
                finally:
                    os._exit(code)
            writers[pid] = k
        _write_share(snapshots, 0, n, outdir, x_text)
    finally:
        failed = [k for pid, k in writers.items() if os.waitpid(pid, 0)[1] != 0]
    for k in failed:
        _write_share(snapshots, k, n, outdir, x_text)
    return paths


def read_snapshot(path):
    """Read a snapshot CSV that `write_snapshot` wrote, as (t, dict of column arrays).

    The grammar is positional, the layout `write_snapshot` writes: line 1 is
    `# t = <time>` with a finite time, line 2 the header SNAPSHOT_COLUMNS in
    that order, and every later line a data row of one number per column.
    Raises ConfigError, naming the path and the line, when line 1 or the
    header is not that, when a later line (a blank one, a `#` line) is not
    such a row, when a value is not finite, or when a line is not UTF-8
    text, and naming the path when the file holds no data row.
    """
    header = ",".join(SNAPSHOT_COLUMNS)
    width = len(SNAPSHOT_COLUMNS)
    values = []  # every data row, end to end: row r is line r + 3
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()  # a UnicodeDecodeError is a ValueError
                if lineno > 2:
                    row = line.split(",")
                    values.extend(map(float, row))
                    if len(row) != width:
                        raise ValueError(f"{len(row)} values, the header has {width} columns")
                elif lineno == 1:
                    label, _, value = line.partition(" = ")
                    try:
                        t = float(value)
                        if label != "# t" or not np.isfinite(t):
                            raise ValueError
                    except ValueError:
                        raise ValueError(f"expected '# t = <time>', got '{line}'") from None
                elif line != header:
                    raise ValueError(f"header is not {header}")
            except ValueError as err:
                raise ConfigError(f"snapshot {path}, line {lineno}: {err}") from None
    if not values:
        raise ConfigError(f"snapshot {path} contains no data rows")
    data = np.array(values, dtype=np.float64).reshape(-1, width)
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ConfigError(
            f"snapshot {path}, line {row + 3}: "
            f"{SNAPSHOT_COLUMNS[col]} = {float(data[row, col])!r} is not finite"
        )
    return t, {name: data[:, i].copy() for i, name in enumerate(SNAPSHOT_COLUMNS)}


_HASH_BLOCK = 64 * 1024


def _sha256(path: Path) -> str:
    """SHA-256 of a file, read in blocks so that memory does not grow with its size.

    `hashlib` is imported here, not at module top: it loads OpenSSL's
    libcrypto, about 3.6 MiB resident, and only the manifest needs it, so a
    run does not carry it through the solve and the snapshot writers.
    """
    import hashlib

    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BLOCK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()


def write_manifest(config_text: str, outdir, files) -> Path:
    """Record the resolved config and content digests of the written files."""
    outdir = Path(outdir)
    manifest = {
        "format": 1,
        "config": config_text,
        "outputs": {Path(f).name: _sha256(Path(f)) for f in files},
    }
    path = outdir / MANIFEST_FILENAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return path

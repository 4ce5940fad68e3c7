"""Deterministic run outputs: series CSV, field snapshots, run manifest.

All floats are written with Python's shortest round-trip representation and
files use LF line endings, so two runs with the same configuration produce
byte-identical outputs. The manifest records the fully resolved
configuration (re-parseable) and a SHA-256 digest of every file written.
"""

import hashlib
import json
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


def read_snapshot(path):
    """Read a snapshot CSV back as (t, dict of column arrays).

    Raises ConfigError, naming the path and the line, when a row is not
    numeric or does not match the header, when the header lacks one of
    SNAPSHOT_COLUMNS, or when the file holds no data row.
    """
    t = 0.0
    names = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    _, _, value = line.partition("=")
                    t = float(value)
                elif names is None:
                    names = tuple(s.strip() for s in line.split(","))
                    missing = [c for c in SNAPSHOT_COLUMNS if c not in names]
                    if missing:
                        raise ValueError(f"header lacks column(s) {', '.join(missing)}")
                else:
                    row = [float(s) for s in line.split(",")]
                    if len(row) != len(names):
                        raise ValueError(f"{len(row)} values, the header has {len(names)} columns")
                    rows.append(row)
            except ValueError as err:
                raise ConfigError(f"snapshot {path}, line {lineno}: {err}") from None
    if not rows:
        raise ConfigError(f"snapshot {path} contains no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return t, {name: data[:, i].copy() for i, name in enumerate(names)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

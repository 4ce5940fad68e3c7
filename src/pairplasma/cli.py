"""Command-line driver.

    pairplasma run <config>    execute a run, write series/snapshots/manifest
    pairplasma init <config>   write only the t=0 snapshot, series row and manifest
    pairplasma check           run the built-in invariant suite
    pairplasma version         print the package version

Exit codes: 0 success, 1 configuration error, 2 numerical breakdown (or
failing check), 3 I/O error. Every package error is a `ConfigError` or a
`NumericalBreakdownError`, so `cli_main` has one `except` arm per exit
code: `ConfigError` 1, `NumericalBreakdownError` 2, `OSError` 3.

`run` writes its outputs once the solve has returned, complete or broken
down: series.csv, then the snapshots in up to one process per available
CPU (`output.write_snapshots`), then, after every writer has finished and
the share of any writer that failed has been written again, the manifest
with the digests of the files on disk. `init` is `run` with
`solver.t_end = 0`, through the same function. The solve hands over one
`solver.RunResult`, returned or attached to a breakdown, which
`_write_outputs` empties as it writes, so the hashing carries no record
or state; `output` loads OpenSSL (through `hashlib`) only then, so
neither the solve nor the writers carry it.

Every error ends in one stderr line printed by `cli_main`. `_cmd_run`
flushes a numerical breakdown's partial result and re-raises it, and
`cli_main` prints `numerical breakdown: <reason> at t = <t>, cell <N>:
E = ..., n_e = ..., n_p = ..., p_e = ..., p_p = ...`, the field values in
that cell.

`cli_main` freezes the garbage collector once the arguments have parsed,
because the objects the interpreter and the imports built live until the
process exits, and collecting them again at exit cost tens of milliseconds.
"""

import argparse
import dataclasses
import gc
import sys
from pathlib import Path

from . import __version__, solver
from .config import RunConfig, format_config, parse_config
from .errors import ConfigError, NumericalBreakdownError
from .output import SERIES_FILENAME, write_manifest, write_series, write_snapshots

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BREAKDOWN = 2
EXIT_IO = 3


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from None
    return parse_config(text)


def _write_outputs(config: RunConfig, result: solver.RunResult) -> Path:
    """Write a run's series.csv, snapshots and manifest; leave `result` empty.

    Each list is cleared once its files are written, so its records and
    states are freed before the manifest is hashed; take their counts first.
    """
    outdir = Path(config.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = [write_series(result.records, outdir / SERIES_FILENAME)]
    result.records.clear()
    files += write_snapshots(result.snapshots, outdir)
    result.snapshots.clear()
    write_manifest(format_config(config), outdir, files)
    return outdir


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.command == "init":
        # the manifest then records t_end = 0, so re-parsing it reproduces these files
        config.solver = dataclasses.replace(config.solver, t_end=0.0)
    try:
        result, breakdown = solver.run(config), None
    except NumericalBreakdownError as err:
        # drop the solver's frames, which hold its workspace and last state
        # (on Python 3.10 sys.exc_info holds them too, until this block
        # ends); an error raised outside solver.run brings no result
        result, breakdown = err.result or solver.RunResult([], []), err.with_traceback(None)
    if breakdown is not None:
        _write_outputs(config, result)
        raise breakdown  # flushed; cli_main reports it
    last, n_records, n_snapshots = result.records[-1], len(result.records), len(result.snapshots)
    outdir = _write_outputs(config, result)
    print(
        f"run finished at t = {last.t:g}: {n_records} records, "
        f"{n_snapshots} snapshots, delta_pairs = {last.delta_pairs:.6g} "
        f"-> {outdir}"
    )
    return EXIT_OK


def _cmd_version(_args) -> int:
    print(__version__)
    return EXIT_OK


def _cmd_check(_args) -> int:
    from . import selfcheck  # only `check` uses it; `run` does not import it

    results = selfcheck.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_BREAKDOWN


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairplasma",
        description="1D relativistic electron-positron plasma simulator with "
        "field-induced vacuum pair creation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("config", help="path to a config file")
    p_run.set_defaults(func=_cmd_run)
    p_init = sub.add_parser("init", help="write only the initial snapshot, series row and manifest")
    p_init.add_argument("config", help="path to a config file")
    p_init.set_defaults(func=_cmd_run)
    sub.add_parser("check", help="run the built-in invariant suite").set_defaults(
        func=_cmd_check
    )
    sub.add_parser("version", help="print the version").set_defaults(func=_cmd_version)

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else EXIT_OK

    # Nothing built so far dies before the process does: no later collection,
    # the ones at interpreter exit included, walks it again, and the snapshot
    # writers fork from a frozen heap, as the gc documentation advises.
    gc.freeze()
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdownError as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

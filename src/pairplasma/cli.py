"""Command-line driver.

    pairplasma run <config>    execute a run, write series/snapshots/manifest
    pairplasma init <config>   write only the t=0 snapshot, series row and manifest
    pairplasma check           run the built-in invariant suite
    pairplasma version         print the package version

Exit codes: 0 success, 1 configuration error, 2 numerical breakdown (or
failing check), 3 I/O error.

`run` writes its outputs once the solve has returned, complete or broken
down: series.csv, then the snapshots in up to one process per available
CPU (`output.write_snapshots`), then, after every writer has finished and
the share of any writer that failed has been written again, the manifest
with the digests of the files on disk. `init` is a run with
`solver.t_end = 0` and writes the same way.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__, solver
from .config import RunConfig, format_config, parse_config
from .errors import ConfigError, InvalidParameterError, NumericalBreakdownError, PairPlasmaError
from .output import SERIES_FILENAME, write_manifest, write_series, write_snapshots

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BREAKDOWN = 2
EXIT_IO = 3


def _load_config(path: str) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def _write_outputs(config: RunConfig, records, snapshots) -> Path:
    outdir = Path(config.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = [write_series(records, outdir / SERIES_FILENAME)]
    files += write_snapshots(snapshots, outdir)
    write_manifest(format_config(config), outdir, files)
    return outdir


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    try:
        result = solver.run(config)
    except NumericalBreakdownError as err:
        # Flush whatever was collected before the breakdown.
        _write_outputs(config, err.records, err.snapshots)
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN
    outdir = _write_outputs(config, result.records, result.snapshots)
    last = result.records[-1]
    print(
        f"run finished at t = {last.t:g}: {len(result.records)} records, "
        f"{len(result.snapshots)} snapshots, delta_pairs = {last.delta_pairs:.6g} "
        f"-> {outdir}"
    )
    return EXIT_OK


def _cmd_init(args) -> int:
    config = _load_config(args.config)
    # the manifest then records t_end = 0, so re-parsing it reproduces these files
    config.solver = dataclasses.replace(config.solver, t_end=0.0)
    result = solver.run(config)
    outdir = _write_outputs(config, result.records, result.snapshots)
    print(f"initial state written: max|E| = {result.records[0].max_abs_E:.6g} -> {outdir}")
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
    p_init.set_defaults(func=_cmd_init)
    sub.add_parser("check", help="run the built-in invariant suite").set_defaults(
        func=_cmd_check
    )
    sub.add_parser("version", help="print the version").set_defaults(func=_cmd_version)

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else EXIT_OK

    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdownError as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except PairPlasmaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

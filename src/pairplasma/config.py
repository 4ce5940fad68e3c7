"""Run configuration: line-oriented `section.key = value` text format.

Grammar (one assignment per line):

    # full-line or trailing comments start with '#'
    physics.N0 = 0.2
    solver.cfl = 0.4

Unknown keys, duplicate keys, malformed lines and out-of-range values are
rejected with the offending line number. Floats accept decimal or scientific
notation (locale-independent) and must be finite (inf and nan are bad
values); booleans accept on/off, true/false, yes/no, 1/0. `solver.dt` and
`solver.cfl` are mutually exclusive.

Each section is a field of `RunConfig`; its keys, their types and their
defaults are the init fields of that field's dataclass, and the parser reads
them from there (`_SCHEMA`). Summary:

    physics: N0=0.2  alpha=7.2973525693e-3  a=0.0  eps_field=1e-8
    grid:    half_width=24000.0  cells=2048
    solver:  cfl=0.4 (or dt)  t_end=1500.0  displacement_terms=on
             bohm=off  nu_h=0.0  ampere_sign_flip=off
             stop_on_negative_density=off
    ic:      kind=gaussian  L=6000.0  base_e=1.01  base_p=0.01
             amplitude=2.0  epsilon=1e-6  mode=2  path=
    output:  dir=out  series_every=1  snapshot_every=40
"""

import math
import typing
from dataclasses import dataclass, field, fields

from .errors import ConfigError, InvalidParameterError
from .grid import Grid1D
from .kernels import PhysicsParams
from .solver import InitialCondition, SolverOptions, check_config_path


@dataclass
class OutputConfig:
    dir: str = "out"
    series_every: int = 1
    snapshot_every: int = 40

    def __post_init__(self):
        if self.series_every < 0 or self.snapshot_every < 0:
            raise InvalidParameterError("output cadences must be >= 0 (0 disables)")
        check_config_path("output.dir", self.dir)


@dataclass
class RunConfig:
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    grid: Grid1D = field(default_factory=Grid1D)
    solver: SolverOptions = field(default_factory=SolverOptions)
    ic: InitialCondition = field(default_factory=InitialCondition)
    output: OutputConfig = field(default_factory=OutputConfig)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# section name -> dataclass, in RunConfig field order
_SECTIONS = {f.name: f.type for f in fields(RunConfig)}


def _parser(annotation):
    """Value parser for a field type; Optional[X] parses as X."""
    args = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
    kind = args[0] if args else annotation
    return {bool: _parse_bool, int: _parse_int, float: _parse_float}.get(kind, kind)


# (section, key) -> value parser, in field order. Keys absent from a config
# keep their defaults.
_SCHEMA = {
    (name, f.name): _parser(f.type)
    for name, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.init
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate configuration text; defaults fill absent keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        section, dot, key = name.strip().partition(".")
        if not dot or not section or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {section}.{key}")
        try:
            values[(section, key)] = _SCHEMA[(section, key)](value)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {err}") from None

    def section(name):
        return {key: v for (sec, key), v in values.items() if sec == name}

    try:
        return RunConfig(**{name: cls(**section(name)) for name, cls in _SECTIONS.items()})
    except InvalidParameterError as err:
        raise ConfigError(str(err)) from None


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(config: RunConfig) -> str:
    """Canonical resolved-config text; parse_config(format_config(c)) == c.

    One line per key in `_SCHEMA` order; unset optional keys (None) are left out.
    """
    lines = []
    for section, key in _SCHEMA:
        value = getattr(getattr(config, section), key)
        if value is not None:
            lines.append(f"{section}.{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"

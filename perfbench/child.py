"""One benchmark sample: `pairplasma run <config>` in this fresh interpreter.

    python child.py <config> <timing.json> <trace 0|1>
    python child.py --import-only

run.py starts this file with `src` on PYTHONPATH. It imports
`pairplasma.cli`, wraps package functions where their callers look them up,
runs `cli_main(["run", config])` exactly as `python -m pairplasma run` would,
then writes the recorded spans to <timing.json> and exits with the CLI's
exit code.

With trace 0 only `solver.run` and `solver.initial_condition` are wrapped,
so no timestamp is taken per step. With trace 1 every function in TRACED is
wrapped, and each call becomes one span [name index, start ns, end ns,
parent span index or -1]. Clocks are CLOCK_MONOTONIC, which is shared by all
processes, so run.py can subtract its spawn time from them.
"""

import functools
import json
import sys
import time

TRACED = {
    "config": ("parse_config", "format_config"),
    "solver": ("run", "initial_condition", "rk4_step", "rhs"),
    "grid": ("ddx", "d2dx2", "integrate", "hyperdiffusion", "bohm_potential", "poisson_init_E"),
    "kernels": ("schwinger_rate_norm", "displacement_flux", "recombination_momentum_exchange"),
    "diagnostics": ("make_record", "pair_count_delta", "gauss_residual", "energy_balance_rhs"),
    "output": ("write_series", "write_snapshot", "write_manifest", "read_snapshot"),
}
UNTRACED = {"solver": ("run", "initial_condition")}


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Keeps spans in memory; nesting comes from a stack (the run is single-threaded)."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, now(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = now()

        return traced

    def install(self, targets):
        """Replace each target in every loaded pairplasma module that binds it.

        Modules import names directly (`from .grid import ddx`), so wrapping
        only the defining module would miss most callers.
        """
        modules = [m for n, m in sys.modules.items() if n == "pairplasma" or n.startswith("pairplasma.")]
        for module_name, functions in targets.items():
            home = sys.modules[f"pairplasma.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv) -> int:
    import_start = now()
    import pairplasma.cli

    import_end = now()
    if argv == ["--import-only"]:
        return 0
    config_path, timing_path, trace = argv
    tracer = Tracer()
    tracer.install(TRACED if trace == "1" else UNTRACED)
    code = pairplasma.cli.cli_main(["run", config_path])
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": [import_start, import_end], "names": tracer.names,
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""1D relativistic two-fluid electron-positron plasma with vacuum pair creation.

Electrostatic cold-fluid model on a periodic grid: electrons and positrons
over an immobile neutralizing ion background, pair creation by a strong
electric field, optional recombination, quantum-dispersion and
hyperdiffusion terms. Fourth-order central differences in space, classical
RK4 in time, with an energy-accounting construction in which the rest and
kinetic energy of created pairs is drawn from the field energy.
"""

__version__ = "0.1.0"

from .config import OutputConfig, RunConfig, format_config, parse_config
from .diagnostics import (
    SeriesRecord,
    energy_balance_rhs,
    gauss_residual,
    make_record,
    pair_count_delta,
)
from .errors import ConfigError, NumericalBreakdownError, PairPlasmaError
from .grid import Grid1D, bohm_potential, d2dx2, ddx, hyperdiffusion, integrate, poisson_init_E
from .kernels import (
    PhysicsParams,
    derived_plasma_frequency,
    displacement_flux,
    lorentz_gamma,
    recombination_momentum_exchange,
    schwinger_rate_norm,
    schwinger_rate_si,
)
from .solver import (
    InitialCondition,
    RunResult,
    SimState,
    SolverOptions,
    Workspace,
    initial_condition,
    rhs,
    rk4_step,
    run,
)

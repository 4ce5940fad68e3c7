"""Uniform periodic 1D grid and its discrete operators.

Cell-centered values on a periodic box of half-width X: x_j = -X + (j+1/2)*dx
with dx = 2X/M. The open-domain physics (fields vanishing at infinity) is
emulated by choosing X several envelope widths wide, so wrap-around values
are negligible.

Derivatives are fourth-order central differences, read as slices of a buffer
holding the field plus two periodic ghost cells per side, and computed
with in-place arithmetic into an output array. The public operators copy
their input into a new padded buffer; the solver keeps persistent padded
buffers and writes its fields straight into their interiors, so each
derivative only refreshes four ghost cells. Both forms run the same code.
Stencils are written as symmetric pair differences/sums, which makes the
discrete system exactly equivariant under the mirror transform x -> -x
(bit-for-bit, not just to truncation error). Reductions use numpy's pairwise summation, which is
deterministic for a fixed array, so repeated runs are byte-identical.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Relative tolerance (per unit domain length) on the net charge when solving
# for the initial field; a periodic solution only exists for a neutral box.
CHARGE_TOLERANCE = 1e-8


@dataclass
class Grid1D:
    """Uniform periodic grid: half_width X, even cell count M >= 8."""

    half_width: float = 24000.0
    cells: int = 2048
    dx: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ConfigError(f"grid.half_width = {self.half_width!r} must be positive")
        if self.cells < 8 or self.cells % 2 != 0:
            raise ConfigError(f"grid.cells = {self.cells!r} must be even and >= 8")
        if not np.isfinite(self.length):  # nor is dx = length / cells
            raise ConfigError(
                f"grid.half_width = {self.half_width!r} is too large: the box length "
                "2*half_width overflows, so the cell width dx is not finite"
            )
        try:
            self.dx = 2.0 * self.half_width / self.cells
            self.x = -self.half_width + (np.arange(self.cells) + 0.5) * self.dx
        except (OverflowError, ValueError, MemoryError) as err:  # no float dx, or no such array
            raise ConfigError(
                f"grid.cells = {self.cells} is too large to build the cell centres ({err})"
            ) from None

    @property
    def length(self) -> float:
        return 2.0 * self.half_width


def padded(f: np.ndarray) -> np.ndarray:
    """New buffer of M + 4 values holding f in its interior: g[j + 2] == f[j].

    The two ghost cells per side are left unset; the stencils fill them.
    """
    g = np.empty(len(f) + 4)
    g[2:-2] = f
    return g


def _neighbours(g: np.ndarray):
    """Fill the periodic ghost cells of padded buffer g from its interior, then
    return the interior f and f[j+1], f[j-1], f[j+2], f[j-2] as slices of g.

    Works along the last axis, so g may hold several padded rows, each
    its own periodic field.
    """
    m = g.shape[-1] - 4
    g[..., :2] = g[..., m : m + 2]
    g[..., m + 2 :] = g[..., 2:4]
    return g[..., 2 : m + 2], g[..., 3 : m + 3], g[..., 1 : m + 1], g[..., 4:], g[..., :m]


def _stencil_buffers(f, out, tmp):
    """Padded input, output and scratch for one stencil.

    Public form (out is None): f holds the M field values and is copied into
    a new padded buffer, and the result is a new array. In-place form: f is a
    padded buffer (see `padded`), or a stack of padded rows, whose interior
    holds the field, and only its ghost cells are written; `out` and `tmp`
    then have f's shape less four values along the last axis. `tmp` is
    scratch, allocated when not given.
    """
    g = padded(f) if out is None else f
    shape = g.shape[:-1] + (g.shape[-1] - 4,)
    return g, np.empty(shape) if out is None else out, np.empty(shape) if tmp is None else tmp


def ddx(f: np.ndarray, dx: float, out=None, tmp=None) -> np.ndarray:
    """Fourth-order periodic first derivative (8 (f[j+1]-f[j-1]) - (f[j+2]-f[j-2])) / (12 dx).

    `ddx(f, dx)` leaves f unchanged; `ddx(g, dx, out=, tmp=)` reads padded
    buffer g and writes into `out` (see `_stencil_buffers`).
    """
    g, out, tmp = _stencil_buffers(f, out, tmp)
    _, right1, left1, right2, left2 = _neighbours(g)
    np.subtract(right1, left1, out=out)
    out *= 8.0
    np.subtract(right2, left2, out=tmp)
    out -= tmp
    out /= 12.0 * dx
    return out


def d2dx2(f: np.ndarray, dx: float, out=None, tmp=None) -> np.ndarray:
    """Fourth-order periodic second derivative; arguments as for `ddx`."""
    g, out, tmp = _stencil_buffers(f, out, tmp)
    centre, right1, left1, right2, left2 = _neighbours(g)
    np.add(right1, left1, out=out)
    out *= 16.0
    np.add(right2, left2, out=tmp)
    out -= tmp
    np.multiply(centre, 30.0, out=tmp)
    out -= tmp
    out /= 12.0 * dx * dx
    return out


def integrate(f: np.ndarray, dx: float) -> float:
    """Midpoint-rule integral dx * sum(f); spectrally accurate for smooth periodic f.

    `np.add.reduce` is the pairwise sum that `np.sum` calls, without its
    wrapper's overhead.
    """
    return float(dx * np.add.reduce(f, axis=None))


def hyperdiffusion(f: np.ndarray, nu_h: float, out=None, tmp=None) -> np.ndarray:
    """Fourth-difference damping -nu_h * (f_{j+2} - 4 f_{j+1} + 6 f_j - 4 f_{j-1} + f_{j-2}).

    Optional stabilizer against cold-fluid wave steepening; zero (of either
    sign) for nu_h = 0 and for constant fields. Arguments as for `ddx`.
    """
    g, out, tmp = _stencil_buffers(f, out, tmp)
    centre, right1, left1, right2, left2 = _neighbours(g)
    np.add(right2, left2, out=out)
    np.add(right1, left1, out=tmp)
    tmp *= 4.0
    out -= tmp
    np.multiply(centre, 6.0, out=tmp)
    out += tmp
    out *= -nu_h
    return out


def bohm_potential(n: np.ndarray, gamma: np.ndarray, dx: float, out=None, s=None, tmp=None):
    """Quantum dispersion potential (n/gamma)^{-1/2} d2/dx2 (n/gamma)^{1/2} (spatial part).

    Needs n > 0, which the caller checks. `bohm_potential(n, gamma, dx)`
    returns a new array. The in-place form writes the potential into `out`,
    of n's shape, and (n/gamma)^{1/2} into the padded buffer `s`; there n
    and gamma may be stacks of rows, one per species, `s` of padded rows.
    """
    if out is None:
        out, s = np.empty(len(n)), np.empty(len(n) + 4)
    root = s[..., 2:-2]
    np.divide(n, gamma, out=root)
    np.sqrt(root, out=root)
    potential = d2dx2(s, dx, out=out, tmp=tmp)
    potential /= root
    return potential


def poisson_init_E(
    n_e: np.ndarray, n_p: np.ndarray, omega_pe_sq: float, grid: Grid1D
) -> np.ndarray:
    """Solve the discrete Gauss law d/dx E = omega_pe_sq*(1 - n_e + n_p) for E.

    Inverts the same fourth-order stencil that `ddx` applies, so the residual
    of the constructed field is at rounding level and stays there under time
    integration (the evolved system conserves the Gauss constraint exactly in
    the semi-discrete sense). The inversion is spectral: mean and Nyquist
    modes lie in the stencil's null space and are dropped, then the free
    additive constant is fixed so the interpolated field at the periodic seam
    (between cells M-1 and 0, i.e. |x| = X) is zero, mimicking fields that
    vanish at infinity.

    Raises ConfigError, naming the net charge integral, when the box carries
    net charge beyond CHARGE_TOLERANCE per unit length, since no periodic
    solution exists then.
    """
    net_charge = integrate(1.0 - n_e + n_p, grid.dx)
    limit = CHARGE_TOLERANCE * grid.length
    if abs(net_charge) > limit:
        raise ConfigError(
            f"net charge integral {net_charge:.6e} exceeds tolerance {limit:.6e}; "
            "the periodic field equation has no solution"
        )
    source = omega_pe_sq * (1.0 - n_e + n_p)
    m = grid.cells
    spectrum = np.fft.rfft(source)
    theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
    # Modified wavenumber of the ddx stencil on mode exp(i*theta*j).
    k_eff = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * grid.dx)
    # k_eff is 0 at the mean and rounds to ~1e-16/dx at Nyquist, so those two
    # entries, overwritten below, may divide by zero or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e_hat = spectrum / (1j * k_eff)
    e_hat[0] = 0.0  # mean: free constant, fixed by the seam anchor below
    e_hat[-1] = 0.0  # Nyquist: null mode of the stencil
    e = np.fft.irfft(e_hat, n=m)
    seam = (9.0 * (e[0] + e[-1]) - (e[1] + e[-2])) / 16.0
    return e - seam

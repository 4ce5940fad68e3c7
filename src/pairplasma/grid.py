"""Uniform periodic 1D grid and its discrete operators.

Cell-centered values on a periodic box of half-width X: x_j = -X + (j+1/2)*dx
with dx = 2X/M. The open-domain physics (fields vanishing at infinity) is
emulated by choosing X several envelope widths wide, so wrap-around values
are negligible.

Derivatives are fourth-order central differences, read as slices of one copy
of the field padded with two periodic ghost cells per side. Stencils are
written as symmetric pair differences/sums, which makes the discrete system
exactly equivariant under the mirror transform x -> -x (bit-for-bit, not
just to truncation error). Reductions use numpy's pairwise summation, which is
deterministic for a fixed array, so repeated runs are byte-identical.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ChargeImbalanceError, InvalidParameterError, InvalidStateError

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
        if not (self.half_width > 0.0 and np.isfinite(self.half_width)):
            raise InvalidParameterError(f"half_width must be positive, got {self.half_width}")
        if self.cells < 8 or self.cells % 2 != 0:
            raise InvalidParameterError(f"cells must be even and >= 8, got {self.cells}")
        self.dx = 2.0 * self.half_width / self.cells
        self.x = -self.half_width + (np.arange(self.cells) + 0.5) * self.dx

    @property
    def length(self) -> float:
        return 2.0 * self.half_width


def _neighbours(f: np.ndarray):
    """Periodic neighbours (f[j+1], f[j-1], f[j+2], f[j-2]) as slices of one padded copy."""
    m = len(f)
    g = np.concatenate((f[-2:], f, f[:2]))  # g[j + 2] == f[j]
    return g[3 : m + 3], g[1 : m + 1], g[4:], g[:m]


def ddx(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic first derivative."""
    right1, left1, right2, left2 = _neighbours(f)
    return (8.0 * (right1 - left1) - (right2 - left2)) / (12.0 * dx)


def d2dx2(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic second derivative."""
    right1, left1, right2, left2 = _neighbours(f)
    return (16.0 * (right1 + left1) - (right2 + left2) - 30.0 * f) / (12.0 * dx * dx)


def integrate(f: np.ndarray, dx: float) -> float:
    """Midpoint-rule integral dx * sum(f); spectrally accurate for smooth periodic f."""
    return float(dx * np.sum(f))


def hyperdiffusion(f: np.ndarray, nu_h: float) -> np.ndarray:
    """Fourth-difference damping -nu_h * (f_{j+2} - 4 f_{j+1} + 6 f_j - 4 f_{j-1} + f_{j-2}).

    Optional stabilizer against cold-fluid wave steepening; exact zero for
    nu_h = 0 and for constant fields.
    """
    if nu_h == 0.0:
        return np.zeros_like(f)
    right1, left1, right2, left2 = _neighbours(f)
    return -nu_h * ((right2 + left2) - 4.0 * (right1 + left1) + 6.0 * f)


def bohm_potential(n: np.ndarray, gamma: np.ndarray, dx: float) -> np.ndarray:
    """Quantum dispersion potential (n/gamma)^{-1/2} d2/dx2 (n/gamma)^{1/2} (spatial part)."""
    if (np.asarray(n) <= 0.0).any():
        raise InvalidStateError("density must be strictly positive for the Bohm potential")
    s = np.sqrt(n / gamma)
    return d2dx2(s, dx) / s


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

    Raises ChargeImbalanceError when the box carries net charge beyond
    CHARGE_TOLERANCE per unit length, since no periodic solution exists then.
    """
    net_charge = integrate(1.0 - n_e + n_p, grid.dx)
    limit = CHARGE_TOLERANCE * grid.length
    if abs(net_charge) > limit:
        raise ChargeImbalanceError(
            f"net charge integral {net_charge:.6e} exceeds tolerance {limit:.6e}; "
            "the periodic field equation has no solution",
            residual=net_charge,
        )
    source = omega_pe_sq * (1.0 - n_e + n_p)
    m = grid.cells
    spectrum = np.fft.rfft(source)
    theta = 2.0 * np.pi * np.arange(m // 2 + 1) / m
    # Modified wavenumber of the ddx stencil on mode exp(i*theta*j).
    k_eff = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * grid.dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_hat = spectrum / (1j * k_eff)
    e_hat[0] = 0.0  # mean: free constant, fixed by the seam anchor below
    e_hat[-1] = 0.0  # Nyquist: null mode of the stencil
    e = np.fft.irfft(e_hat, n=m)
    seam = (9.0 * (e[0] + e[-1]) - (e[1] + e[-2])) / 16.0
    return e - seam

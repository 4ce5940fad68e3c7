"""Golden physics reference for the reference run (empty config).

The reference run is the default configuration: M = 2048 cells, cfl = 0.4,
160 RK4 steps to t = 1500. The pinned values were produced by the original
roll-stencil solver with three exp evaluations per RK4 stage. A change that
alters floating-point rounding (fused kernels, reordered sums) must keep
every pin within RTOL: far above the ~1e-14 drift of a pure reassociation,
far below the ~7e-6 shift of a 1e-4 change in the pair-displacement flux.
Record index 120 (t = 1125) lies before the caustic near t ~ 1200, index 160
(t = 1500) after it.

The Gauss residual is gated by an absolute bound instead of pins: it sits at
rounding level, where its relative noise is ~1e-4.
"""

import numpy as np
import pytest

from pairplasma.config import parse_config
from pairplasma.solver import run

RTOL = 1e-10
GAUSS_RESIDUAL_BOUND = 1e-12

# index: (t, total_energy, delta_pairs, max_abs_E, max_gamma)
GOLDEN = {
    0: (0.0, 10057002.470570138, 0.0, 0.44362409758806554, 1.0),
    40: (375.0, 10057661.027246673, 733.8573316227703, 0.4037222721609268, 159.47906905987983),
    80: (750.0, 10058484.46520726, 992.5208061405501, 0.3587993080567054, 302.160840037472),
    120: (1125.0, 10059501.028790688, 1064.5633806813494, 0.3222728923011253, 428.9199590389975),
    160: (1500.0, 10060141.960918624, 1082.5643602746204, 0.2916308391290797, 542.8128432627167),
}
COLUMNS = ("t", "total_energy", "delta_pairs", "max_abs_E", "max_gamma")


@pytest.fixture(scope="module")
def records():
    return run(parse_config("")).records


def test_record_count(records):
    assert len(records) == 161


@pytest.mark.parametrize("index", sorted(GOLDEN))
def test_pinned_record(records, index):
    rec = records[index]
    got = [getattr(rec, name) for name in COLUMNS]
    np.testing.assert_allclose(got, GOLDEN[index], rtol=RTOL, atol=0.0, err_msg=str(COLUMNS))


def test_gauss_residual_at_rounding_level(records):
    assert max(rec.gauss_residual for rec in records) <= GAUSS_RESIDUAL_BOUND


# Converged physics at t = 1125, before the caustic, and the relative time
# error of the reference run's record there: (name, converged, measured error)
CONVERGED_1125 = (
    ("delta_pairs", 1064.206528006, 3.4e-4),
    ("total_energy", 10058984.28267, 5.1e-5),
    ("max_abs_E", 0.3222663294, 2.0e-5),
)


@pytest.mark.parametrize(
    "name, converged, measured", CONVERGED_1125, ids=[c[0] for c in CONVERGED_1125]
)
def test_record_within_time_error_of_converged_physics(records, name, converged, measured):
    """The reference run at t = 1125 lies within 1.5 times its measured time
    error of the converged physics, so a change of rounding or of the scheme
    is checked against the physics and not only against the seed's own pins.

    The converged values come from `rk4_step` on the default config (M = 2048)
    through one workspace: 683 steps at cfl 0.0015625 to t = 25 (the step of
    `_plan_steps` for that cfl and t_end), then 1878 steps at cfl 0.025 for the
    remaining 1100, and `make_record` of the final state. Doubling the first
    step (cfl 0.003125) moves delta_pairs by 4e-9, halving the second (cfl
    0.0125) by 4e-10, and the spatial error is small:
    M = 1024, 4096 and 8192 with the same steps give delta_pairs 1064.2065362,
    1064.2065285 and 1064.2065290. The measured errors are those of the seed's
    pins at index 120 against these values.
    """
    rec = records[120]
    assert rec.t == 1125.0
    assert abs(getattr(rec, name) - converged) <= 1.5 * measured * converged

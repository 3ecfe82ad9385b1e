"""Exact values of the quadrature route, pinned as reprs.

The benchmark checks these quantities against independent oracles only
to about 1e-8; these pins hold every bit, so a change to the integrator,
the integrand checks, the table reads or the closed-form kernel that
moves any value fails here. Pinned with numpy 2.4.6.
"""

import hashlib
import math

import numpy as np
import pytest

from ergodist import efficiency, estimators, model, numerics
from ergodist.numerics import QuadratureSpec, integrate, integrate_panels

_PINNED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(np.__version__ != _PINNED_NUMPY,
                                reason=f"bits pinned with numpy {_PINNED_NUMPY}")

_PAIRS = [(-43.25, 17.5), (-7.125, -31.75), (0.0, 48.5), (12.375, 0.625), (-0.3, 0.7),
          (49.75, -49.875)]

_KERNELS = {
    ("custom_ou", 2): ["-2.2213751528367616", "0.0009109931807426603", "-1.1107178127193338",
                       "0.5031545100779611", "-0.9697552998874198", "2.221436075242449"],
    ("custom_ou", 3): ["-2.09439497921761", "1.0885713637071285e-05", "-1.0471975504513145",
                       "0.4273545664377484", "-0.9888940761811524", "2.0943951010888924"],
    ("quartic", 2): ["-2.221375152836761", "0.0009109931807427252", "-1.1107178127193338",
                     "0.5031545100779611", "-0.9697552998874197", "2.2214360752424485"],
    ("quartic", 3): ["-2.0943949792176095", "1.0885713637165395e-05", "-1.0471975504513142",
                     "0.42735456643774816", "-0.9888940761811522", "2.0943951010888924"],
}


def custom_ou():
    """OU(1, 1) without ``sigma_const``: every scalar kernel is a quadrature."""
    return model.DiffusionModel(drift=lambda x: -x, diffusion=lambda x: 1.0,
                                diffusion_sq=lambda x: 1.0, label="custom_ou")


@pytest.mark.parametrize("label, p", sorted(_KERNELS))
def test_scalar_kernels(label, p):
    m = custom_ou() if label == "custom_ou" else model.quartic_well()
    wf = estimators.polynomial_weight(p)
    assert [repr(estimators.kernel(wf, m, x, y)) for x, y in _PAIRS] == _KERNELS[label, p]


def _smooth(x):
    return np.exp(-x * x) * np.cos(3.0 * x)


def test_integrate_smooth_and_reversed():
    assert repr(integrate(_smooth, -1.0, 2.0)) == (
        "QuadResult(value=0.2625175314021508, error_estimate=1.1908759358681981e-11, "
        "converged=True)")
    assert repr(integrate(_smooth, 2.0, -1.0)) == (
        "QuadResult(value=-0.2625175314021508, error_estimate=1.1908759358681981e-11, "
        "converged=True)")


def test_integrate_kink_split():
    got = integrate(lambda x: np.abs(x - 0.3) ** 1.5 + np.abs(x - 0.9), 0.2, 1.7, kink=0.9)
    assert repr(got) == ("QuadResult(value=1.4939062210540879, "
                         "error_estimate=4.899361853411368e-13, converged=True)")


def test_integrate_depth_exhausted():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
    got = integrate(lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0), 0.0, 1.0, spec)
    assert repr(got) == ("QuadResult(value=0.334088312168198, "
                         "error_estimate=0.0031310755869040146, converged=False)")


def test_capped_noisy_panel():
    rng = np.random.default_rng(0)
    noisy = lambda x: np.exp(-x * x) * (1.0 + 1e-9 * rng.standard_normal(x.shape))
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_depth=16)
    values, errors, converged = integrate_panels(noisy, [-5.0, 5.0], spec,
                                                 numerics._FIRST_SPLIT)
    assert [repr(float(values[0])), repr(float(errors[0])), bool(converged[0])] == \
        ["1.7724538508922785", "3.908501316637126e-10", False]


def test_600_panels_cross_the_chunk():
    edges = np.linspace(-8.0, 8.0, 601)
    assert edges.size - 1 > numerics._CHUNK_INTERVALS
    values, errors, converged = integrate_panels(
        lambda x: np.exp(-0.5 * x * x) / (1.0 + x * x), edges)
    digest = hashlib.sha256(values.tobytes() + errors.tobytes() + converged.tobytes())
    assert digest.hexdigest() == "35c70b1ddce836a347bdfb38a0f62f3b910184e8fad21c69841d027d32c60c1a"
    assert repr(math.fsum(values)) == "1.6435448801240766"


@pytest.mark.parametrize("nu, want", [
    ("gauss:0,1", "0.16977582729180743"),
    ("uniform:-2,2", "0.12232516803805268"),
    ("point:-1=0.25;0=0.5;1=0.25", "0.20922737994469476"),
])
def test_efficiency_bound(nu, want):
    assert repr(efficiency.efficiency_bound(custom_ou(), efficiency.parse_nu(nu))) == want


def test_invariant_quantiles():
    m = custom_ou()
    got = [repr(model.invariant_quantile(m, u)) for u in (0.001, 0.1, 0.5, 0.75, 0.999)]
    assert got == ["-2.1851242323190743", "-0.9061938027775366", "0.0", "0.47693627626099955",
                   "2.185124232318704"]

"""Subordination solvers, spectral evolution, and the J0 shift transform."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import j0, k1, wofz

from pseudoflow import (
    ConvergenceError,
    Field,
    QuadratureConfig,
    SymbolSpec,
    apply_inv_sqrt_shift,
    dhat_apply,
    evolution,
    exp_sqrt_via_doetsch,
    gauss_weierstrass,
    integrate_halfline,
    iterated_series,
    phi_transform,
    pseudoheat_gaussian,
    relativistic,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
    special,
)
from pseudoflow.evolution import (
    _ACCEL_MIN_CHUNKS,
    _REQUIRED_CHUNKS,
    _arc_weights,
    _averaging_weights,
    _coefficients,
    _inv_sqrt_arcs,
    _j0_chunks,
    _shift_lattice,
)
from pseudoflow.special import _ABS_TOL, _REL_TOL, _cell_offsets

INV_SQUARE = QuadratureConfig(halfline_rule="inverse_square_substitution")

# Half-derivative solution of the Gaussian at x = 0, tau = 1. Scalar
# quadratures of the t-form, the xi-substituted form, and the sqrt(t) form
# of the subordination integral (scipy QUADPACK) agree on this to 1.7e-16.
HALF_DERIV_F01 = 4.122883450897625e-01

# Pseudoheat peak of e^{-x^2} at tau = 1 (scalar subordination integral) and
# the ordinary heat peak (1+4)^{-1/2} at the same tau.
PH_PEAK_TAU1 = 2.352359716115172e-01
HEAT_PEAK_TAU1 = 4.472135954999579e-01

# Dense-matrix oracle for sqrt(x - d/dx): sqrtm/expm of a 4th-order finite
# difference discretization on [-2, 14], n = 161, f = e^{-(x-3)^2},
# tau = 0.5. The FD matrix limits the agreement to about 5e-5 relative.
AFFINE_MATRIX_F1 = 3.047094562862e-02
AFFINE_MATRIX_F3 = 3.984838759637e-01


def gaussian(x_min, x_max, n):
    return Field.from_function(x_min, x_max, n, lambda x: np.exp(-(x**2)))


# ----------------------------------------------------------------------
# symbol table


def test_symbol_presets_evaluate():
    k = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(SymbolSpec.heat().eval(k), [0.0, -1.0, -9.0])
    np.testing.assert_allclose(
        SymbolSpec.pseudoheat().eval(k), -np.sqrt(1.0 + k**2)
    )
    np.testing.assert_allclose(
        SymbolSpec.schrodinger().eval(k), -1j * np.sqrt(1.0 + k**2)
    )


def test_optics_symbol_switches_branches():
    sym = SymbolSpec.optics(2.0)
    vals = sym.eval(np.array([0.0, 1.0, 3.0]))
    # propagating below the aperture, evanescent above
    np.testing.assert_allclose(vals[0], -2.0j, atol=1e-15)
    np.testing.assert_allclose(vals[1], -1j * math.sqrt(3.0), atol=1e-15)
    np.testing.assert_allclose(vals[2], -math.sqrt(5.0) + 0j, atol=1e-15)


@pytest.mark.parametrize("n", [1e200, -1.4e154, math.nan, math.inf])
def test_optics_symbol_refuses_an_index_whose_square_overflows(n):
    # n * n past float range would make every multiplier non-finite
    with pytest.raises(ValueError, match="^n must be finite with a finite square$"):
        SymbolSpec.optics(n)


# ----------------------------------------------------------------------
# spectral solver


def test_spectral_tau_zero_is_identity():
    f = gaussian(-16.0, 16.0, 512)
    out = solve_symbol_spectral(f, 0.0, SymbolSpec.heat())
    np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-13)
    assert out.warnings == ()


def test_spectral_heat_matches_gauss_weierstrass():
    f = gaussian(-16.0, 16.0, 512)
    spec = solve_symbol_spectral(f, 0.8, SymbolSpec.heat())
    quad = gauss_weierstrass(f, 0.8)
    np.testing.assert_allclose(spec.values.real, quad.values, rtol=0, atol=1e-9)


def test_spectral_unitary_symbol_preserves_norm():
    f = gaussian(-16.0, 16.0, 512)
    out = solve_symbol_spectral(f, 1.0, SymbolSpec.schrodinger())
    norm_in = np.trapezoid(np.abs(f.values) ** 2, f.x)
    norm_out = np.trapezoid(np.abs(out.values) ** 2, f.x)
    assert norm_out == pytest.approx(norm_in, rel=1e-10)


def test_spectral_runs_on_any_sample_count():
    # the multiplier routes once refused every n that is not a power of two;
    # on such grids they meet the kernel routes: heat to rounding (measured
    # 5.0e-16), and D to the K0 kernel's spline error, h^4 (8.9e-6 at n = 161)
    for n in (161, 200, 257, 997, 1000):
        f = gaussian(-16.0, 16.0, n)
        spec = solve_symbol_spectral(f, 0.8, SymbolSpec.heat())
        assert np.max(np.abs(spec.values - gauss_weierstrass(f, 0.8).values)) <= 1e-15
        dhat = dhat_apply(f, "spectral").values - dhat_apply(f, "kernel_k0").values
        assert np.max(np.abs(dhat)) <= 0.008 * f.dx**4


def test_spectral_rejects_nonfinite_multiplier():
    f = gaussian(-16.0, 16.0, 256)
    bad = SymbolSpec(lambda k: np.where(np.abs(k) < 1e-12, np.nan, -(k**2)), "bad")
    with pytest.raises(ValueError, match="non-finite multipliers"):
        solve_symbol_spectral(f, 0.5, bad)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_spectral_refuses_a_nonfinite_tau(tau):
    # tau = inf gave zeros after numpy's "invalid value" warning (an error
    # in this suite), and NaN was blamed on the symbol
    f = gaussian(-8.0, 8.0, 64)
    for route in (
        lambda: solve_symbol_spectral(f, tau, SymbolSpec.pseudoheat()),
        lambda: relativistic.spectral_schrodinger(f, tau),
    ):
        with pytest.raises(ValueError, match="^tau must be finite$"):
            route()


def test_spectral_refuses_an_overflowing_multiplier_without_a_warning():
    # e^{1000 sqrt(1 + k^2)} leaves float range: the refusal stays, and
    # numpy's "overflow encountered in exp" no longer comes first
    f = gaussian(-8.0, 8.0, 64)
    with pytest.raises(ValueError, match="non-finite multipliers"):
        solve_symbol_spectral(f, -1e3, SymbolSpec.pseudoheat())


def test_spectral_warns_about_wraparound():
    f = Field.from_function(-8.0, 8.0, 128, lambda x: np.full_like(x, 1.0))
    out = solve_symbol_spectral(f, 0.1, SymbolSpec.heat())
    assert any("wrap-around" in w for w in out.warnings)


# ----------------------------------------------------------------------
# half derivative


def test_half_derivative_tau_zero_is_identity():
    f = gaussian(-12.0, 8.0, 641)
    out = solve_half_derivative(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_half_derivative_rejects_negative_tau():
    f = gaussian(-12.0, 8.0, 641)
    for tau in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_half_derivative(f, tau)


def test_half_derivative_matches_scalar_subordination():
    # grid chosen so the probe points (and x = 0 in particular) are nodes
    f = gaussian(-12.0, 8.0, 1281)
    out = solve_half_derivative(f, 1.0)
    pref = 1.0 / (2.0 * math.sqrt(math.pi))
    for xv in (-2.0, -1.0, 0.0, 1.0, 3.0):
        ref = integrate_halfline(
            lambda t, xv=xv: pref * t**-1.5 * math.exp(-0.25 / t - (xv - t) ** 2),
            INV_SQUARE,
        ).value.real
        j = int(round((xv - f.x_min) / f.dx))
        assert f.x[j] == pytest.approx(xv, abs=1e-12)
        assert out.values[j] == pytest.approx(ref, abs=1e-8)
    j0 = int(round(-f.x_min / f.dx))
    assert out.values[j0] == pytest.approx(HALF_DERIV_F01, abs=1e-8)
    assert out.meta["quadrature_error"] < 1e-8


def test_half_derivative_semigroup():
    f = gaussian(-12.0, 8.0, 641)
    twice = solve_half_derivative(solve_half_derivative(f, 0.5), 0.5)
    once = solve_half_derivative(f, 1.0)
    sel = np.abs(f.x) <= 6.0
    np.testing.assert_allclose(
        twice.values[sel], once.values[sel], rtol=0, atol=1e-6
    )


def test_half_derivative_warns_on_left_leak():
    f = Field.from_function(-12.0, 8.0, 641, lambda x: np.exp(-((x + 11.0) ** 2)))
    out = solve_half_derivative(f, 0.5)
    assert any("left grid edge" in w for w in out.warnings)


# ----------------------------------------------------------------------
# pseudoheat


def test_pseudoheat_tau_zero_is_identity():
    f = gaussian(-16.0, 16.0, 257)
    out = solve_pseudoheat(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_pseudoheat_rejects_negative_tau():
    f = gaussian(-16.0, 16.0, 257)
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_pseudoheat(f, tau)


def test_pseudoheat_matches_closed_form():
    f = gaussian(-16.0, 16.0, 257)
    out = solve_pseudoheat(f, 1.0)
    idx = np.where(np.abs(f.x) <= 6.0)[0][::8]  # x = -6, -5, ..., 6
    ref = np.array([pseudoheat_gaussian(1.0, float(f.x[j])) for j in idx])
    np.testing.assert_allclose(out.values[idx], ref, rtol=0, atol=1e-7)
    assert out.warnings == ()


def test_pseudoheat_matches_spectral():
    f = gaussian(-16.0, 16.0, 256)
    integral = solve_pseudoheat(f, 0.5)
    spectral = solve_symbol_spectral(f, 0.5, SymbolSpec.pseudoheat())
    sel = np.abs(f.x) <= 6.0
    np.testing.assert_allclose(
        integral.values[sel], spectral.values.real[sel], rtol=0, atol=1e-6
    )


def test_pseudoheat_positive_and_peak_decreasing():
    f = gaussian(-10.0, 10.0, 129)
    peaks = []
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = solve_pseudoheat(f, tau)
        peaks.append(float(np.max(out.values.real)))
        if tau == 1.0:
            assert np.all(out.values.real > 0)
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


@pytest.mark.parametrize(
    "half_width, n, tau, flagged",
    [
        # the benchmark's grid, where the trapezoid smoothing aliased and
        # the solver used to flag the result as under-resolved; it missed
        # spectral by 0.78 at tau = 0.05 and by 4.3e-3 at tau = 0.25
        (16.0, 128, 1e-3, True),
        (16.0, 128, 0.05, True),
        (16.0, 128, 0.25, True),
        (16.0, 128, 0.65, True),
        (16.0, 128, 0.75, False),
        (16.0, 256, 0.33, True),
        (16.0, 256, 0.37, False),
        # the fig1 and solve presets' grid
        (8.0, 128, 0.75, False),
        (8.0, 128, 1.25, False),
    ],
)
def test_pseudoheat_flags_under_resolution(half_width, n, tau, flagged):
    # `flagged` marks where widths below h^2 carry more than 5% of the
    # subordination weight, erfc(tau / 2h). The band-limited kernel resolves
    # them, so no result is under-resolved or flagged.
    f = gaussian(-half_width, half_width, n)
    assert (math.erfc(tau / (2.0 * f.dx)) > 0.05) == flagged
    out = solve_pseudoheat(f, tau)
    ref = solve_symbol_spectral(f, tau, SymbolSpec.pseudoheat()).values.real
    sel = np.abs(f.x) <= 6.0
    assert np.max(np.abs(out.values[sel] - ref[sel])) <= 1e-12
    assert out.warnings == ()
    assert math.isfinite(out.meta["quadrature_error"])


def test_pseudoheat_warns_on_boundary_leak():
    f = Field.from_function(-10.0, 10.0, 65, lambda x: np.full_like(x, 1.0))
    out = solve_pseudoheat(f, 0.5)
    assert any("grid boundary" in w for w in out.warnings)


def test_pseudoheat_gaussian_closed_form():
    assert pseudoheat_gaussian(0.0, 0.7) == math.exp(-0.49)
    assert pseudoheat_gaussian(1.0, 0.0) == pytest.approx(PH_PEAK_TAU1, rel=1e-12)
    # relativistic smoothing is slower than ordinary heat at the peak
    assert pseudoheat_gaussian(1.0, 0.0) < HEAT_PEAK_TAU1
    for tau in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            pseudoheat_gaussian(tau, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_pseudoheat_gaussian_rejects_nonfinite_x(x):
    with pytest.raises(ValueError, match="finite"):
        pseudoheat_gaussian(1.0, x)


def _complex_data(x):
    return np.exp(-(x**2)) * (1.0 + 0.5j * x)


def _k1_flow(x, tau):
    """e^{-tau sqrt(1 - d^2)} of the complex data at x through the closed-form
    kernel (tau/pi) K1(r)/r, r = sqrt(y^2 + tau^2) (Gradshteyn & Ryzhik
    3.914), integrated by scipy quad over the data's grid."""

    def kern(xi):
        r = math.hypot(x - xi, tau)
        return tau / math.pi * k1(r) / r

    re, im = (
        quad(lambda xi: kern(xi) * part(_complex_data(xi)), -12.0, 12.0,
             points=[x], epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for part in (np.real, np.imag)
    )
    return complex(re, im)


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_pseudoheat_matches_k1_kernel(tau):
    # three routes on a grid whose n = 200 is not a power of two: the K1
    # kernel by quad, subordination and the spectral multiplier, which meet
    # each other to 1.4e-14 (tau = 0.5) and 3.7e-16 (tau = 1)
    f = Field.from_function(-12.0, 12.0, 200, _complex_data)
    out = solve_pseudoheat(f, tau)
    spec = solve_symbol_spectral(f, tau, SymbolSpec.pseudoheat())
    assert np.max(np.abs(out.values - spec.values)) <= 2e-14
    idx = np.nonzero(np.abs(f.x) <= 6.0)[0]
    ref = np.array([_k1_flow(float(f.x[j]), tau) for j in idx])
    assert np.max(np.abs(out.values[idx] - ref)) <= 1e-10
    assert np.max(np.abs(spec.values[idx] - ref)) <= 1e-10


def _band_kernel(alpha, h, lags):
    """(1/h) int_0^1 e^{-a u^2} cos(b u) du, a = alpha pi^2 / h^2, b = pi k,
    in closed form through the Faddeeva function w:
    Re{sqrt(pi)/(2 sqrt(a)) [w(b / 2 sqrt(a)) - e^{-a + ib} w(b / 2 sqrt(a) + i sqrt(a))]}."""
    a = alpha * (math.pi / h) ** 2
    b = math.pi * np.asarray(lags, dtype=float)
    z = b / (2.0 * math.sqrt(a))
    val = wofz(z) - np.exp(-a + 1j * b) * wofz(z + 1j * math.sqrt(a))
    return (math.sqrt(math.pi) / (2.0 * math.sqrt(a)) * val).real / h


def _dense_gw(x, values, alpha, kernel=None):
    """The Gauss-Weierstrass sum over trapezoid-weighted data written as a
    dense n x n matrix: the sampled heat kernel for alpha >= 4 h^2, and
    below that the band-limited kernel (``kernel`` maps lags to it;
    default _band_kernel)."""
    h = x[1] - x[0]
    w = np.full(x.shape, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    lag = np.abs(np.subtract.outer(np.arange(x.size), np.arange(x.size)))
    if alpha >= 4.0 * h * h:
        d2 = (x[:, None] - x[None, :]) ** 2
        dense = np.exp(-d2 / (4.0 * alpha)) / (2.0 * math.sqrt(math.pi * alpha))
    else:
        dense = (kernel or (lambda k: _band_kernel(alpha, h, k)))(np.arange(x.size))[lag]
    return dense @ (w * values)


GUARD_DATA = {
    "real": lambda x: np.exp(-(x**2)),
    "complex": _complex_data,
}


@pytest.mark.parametrize("data", sorted(GUARD_DATA))
def test_gauss_weierstrass_equals_dense_sum(data):
    f = Field.from_function(-8.0, 8.0, 64, GUARD_DATA[data])
    h = f.dx
    for alpha in (0.25 * h * h, 3.9 * h * h, 0.3, 1.0, 5.0):  # 4 h^2 = 0.258
        out = gauss_weierstrass(f, alpha).values
        assert np.max(np.abs(out - _dense_gw(f.x, f.values, alpha))) <= 1e-13
        if alpha < 4.0 * h * h:
            # the u-integral per lag by QUADPACK's cosine rule
            def by_quad(lags):
                return np.array([
                    quad(lambda u: math.exp(-alpha * (math.pi * u / h) ** 2), 0.0, 1.0,
                         weight="cos", wvar=math.pi * k, epsabs=1e-14, epsrel=1e-13)[0]
                    for k in lags
                ]) / h

            ref = _dense_gw(f.x, f.values, alpha, by_quad)
            assert np.max(np.abs(out - ref)) <= 1e-13


@pytest.mark.parametrize("data", sorted(GUARD_DATA))
def test_pseudoheat_equals_dense_subordination(data):
    f = Field.from_function(-8.0, 8.0, 64, GUARD_DATA[data])
    for tau in (0.3, 0.5, 1.0):  # widths below 4 h^2 carry weight at each
        t2 = tau * tau

        def integrand(t):
            weight = t**-1.5 * math.exp(-0.25 / t - t * t2) / (2.0 * math.sqrt(math.pi))
            if weight == 0.0:
                return np.zeros_like(f.values)
            return weight * _dense_gw(f.x, f.values, t * t2)

        ref = integrate_halfline(integrand, INV_SQUARE)
        out = solve_pseudoheat(f, tau)
        diff = np.max(np.abs(out.values - ref.value))
        assert diff <= 1e-13
        # The solver's own estimate is within tolerance. Both rules converge
        # to rounding here, so this cannot check that it covers the error.
        est = out.meta["quadrature_error"]
        assert math.isfinite(est)
        assert est <= max(1e-12, 1e-10 * np.max(np.abs(out.values)))


@pytest.mark.parametrize(
    "tau, x, expected",
    [
        # the identity to rounding (1.61 tau <= 2^-53 e^{-x^2}) where the rule
        # cannot start; tau^2 underflows to 0 below about 1.5e-162
        (1e-40, 1.0, math.exp(-1.0)),
        (1e-160, 1.0, math.exp(-1.0)),
        (1e-200, 1.0, math.exp(-1.0)),
        (1e-200, -18.0, math.exp(-324.0)),
        # past |x| = 746.25 the integrand is 0 at every node
        (1.0, 1e60, 0.0),
        (1.0, -1e200, 0.0),
        (1e-40, 1e60, 0.0),
        (1e-200, 746.3, 0.0),
    ],
)
def test_pseudoheat_gaussian_at_tiny_tau_and_huge_x(tau, x, expected):
    assert pseudoheat_gaussian(tau, x) == expected


@pytest.mark.parametrize("tau, x", [(1e-40, 10.0), (1e-200, 21.0)])
def test_pseudoheat_gaussian_at_tiny_tau_far_out_raises(tau, x):
    # The flow's kernel tail is linear in tau: at tau = 1e-20, x = 10 the
    # rule gives 1.5e-26, not e^{-100} = 3.7e-44. So where the rule cannot
    # start and e^{-x^2} is not the value to rounding, the failure stays a
    # ConvergenceError, also where tau^2 underflows.
    assert pseudoheat_gaussian(1e-20, 10.0) > 1e-27
    with pytest.raises(ConvergenceError):
        pseudoheat_gaussian(tau, x)


def _fourier_pseudoheat(tau, x):
    """e^{-tau sqrt(1 - d^2)} e^{-x^2} by its Fourier integral (scipy quad)."""
    val = quad(
        lambda k: math.exp(-0.25 * k * k - tau * math.sqrt(1.0 + k * k)) * math.cos(k * x),
        0.0, np.inf, epsabs=1e-15, epsrel=1e-13, limit=400,
    )[0]
    return val / math.sqrt(math.pi)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("tau, x", [(0.01, 8.0), (0.02, 12.0), (0.001, 3.0)])
def test_pseudoheat_gaussian_small_tau_far_out(tau, x):
    # At small tau and large |x| the subordination integrand is still rising
    # past log t = 8, where it is below 1e-15: the weight lies near
    # t = (2|x| - 1) / (4 tau^2), and the window must reach it.
    ref = _fourier_pseudoheat(tau, x)
    assert ref > 1e-9
    assert pseudoheat_gaussian(tau, x) == pytest.approx(ref, rel=1e-8)


# ----------------------------------------------------------------------
# affine square root


def test_affine_sqrt_tau_zero_is_identity():
    f = gaussian(-2.0, 14.0, 161)
    out = solve_affine_sqrt(f, 0.0, 1.0)
    assert np.array_equal(out.values, f.values)


@pytest.mark.parametrize("tau", [1e-30, 1e-103, 1e-160, 1e-300])
def test_subordination_flows_at_tiny_tau_return_the_input(tau):
    # each flow is the identity to rounding here; below 3.0e-102 (the shift
    # panels' s^{-3/2}) and 4.5e-28 (the pseudoheat window on [-8, 8]) the
    # quadrature leaves float range, and the input comes back as at tau = 0,
    # with no numpy warning (an error in this suite); above, the quadrature
    # keeps its own value, within 3e-15 of the input at tau = 1e-30
    f = gaussian(-8.0, 8.0, 64)
    flows = {
        "half_derivative": solve_half_derivative,
        "pseudoheat": solve_pseudoheat,
        "affine c = 1": lambda f, tau: solve_affine_sqrt(f, tau, 1.0),
        "affine c = -1": lambda f, tau: solve_affine_sqrt(f, tau, -1.0),
    }
    for name, flow in flows.items():
        out = flow(f, tau)
        assert out.warnings == (), name
        if tau < 3.0e-102:
            assert np.array_equal(out.values, f.values), name
        assert np.max(np.abs(out.values - f.values)) <= 1e-14, name


@pytest.mark.parametrize("tau", [1.3e154, 1.4e154, 1e200, 1e300])
def test_shift_flows_at_huge_tau_are_zero(tau):
    # the kernel e^{-tau^2/(4s)} underflows on every cell, as it does from
    # tau = 1e3; past root^2 / h = 1.8e308 the leading cell's scale left
    # float range, which raised ConvergenceError, a bare ValueError from
    # math.ceil or numpy's overflow warning (an error in this suite)
    flows = {
        "half_derivative": lambda: solve_half_derivative(gaussian(-8.0, 8.0, 64), tau),
        "affine c = 1": lambda: solve_affine_sqrt(gaussian(-2.0, 14.0, 161), tau, 1.0),
        "affine c = -1": lambda: solve_affine_sqrt(gaussian(-2.0, 14.0, 161), tau, -1.0),
    }
    for name, flow in flows.items():
        out = flow()
        assert not np.any(out.values), name
        assert out.meta["quadrature_error"] == 0.0, name


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_affine_sqrt_amplitude_overflow_is_an_error_at_every_tau(c):
    # on [-40, 40] the amplitude e^{(x^2 - z^2)/(2c)} between grid points
    # spans e^{800}: the flow overflows at tau = 1e150 and still does where
    # its kernel underflows on every cell; on [-37, 37] (e^{684.5}) it is zero
    for tau in (1e150, 1e200):
        with pytest.raises(ConvergenceError, match="overflowed"):
            solve_affine_sqrt(gaussian(-40.0, 40.0, 161), tau, c)
        assert not np.any(solve_affine_sqrt(gaussian(-37.0, 37.0, 161), tau, c).values)


def test_affine_sqrt_overflow_at_tiny_tau_is_still_an_error():
    # for c = 1 on [-100, 100] the conjugation e^{x^2/2c} spans e^{5000}, so
    # no float tau makes the flow the identity to rounding: the amplitude's
    # overflow stays a ConvergenceError, and so does a kernel scale that
    # underflows against the grid step
    f = gaussian(-100.0, 100.0, 200)
    for tau, match in ((1.0, "overflowed"), (1e-120, "overflowed"), (1e-300, "underflows")):
        with pytest.raises(ConvergenceError, match=match):
            solve_affine_sqrt(f, tau, 1.0)


def test_affine_sqrt_rejects_negative_tau():
    f = gaussian(-2.0, 14.0, 161)
    for tau in (-0.2, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_affine_sqrt(f, tau, 1.0)


def test_affine_sqrt_rejects_nonfinite_c():
    f = gaussian(-2.0, 14.0, 161)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c must be finite"):
            solve_affine_sqrt(f, 0.5, c)


def test_affine_sqrt_without_drift_is_a_multiplier():
    # c = 0: F(x, tau) = e^{-tau sqrt(x)} f(x) pointwise, a vector integrand
    # on the inverse-square rule's shared nodes.
    f = Field.from_function(0.0, 12.0, 97, lambda x: np.exp(-((x - 6.0) ** 2) / 4.0))
    ref = np.exp(-0.7 * np.sqrt(f.x)) * f.values
    out = solve_affine_sqrt(f, 0.7, 0.0)
    np.testing.assert_allclose(out.values, ref, rtol=0, atol=1e-10)
    for xv in (0.0, 2.25, 9.0):
        j = int(round(xv / f.dx))
        factor = exp_sqrt_via_doetsch(0.7, xv)
        assert out.values[j] == pytest.approx(factor * f.values[j], abs=1e-10)


def test_affine_sqrt_matches_matrix_oracle():
    f = Field.from_function(-2.0, 14.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    out = solve_affine_sqrt(f, 0.5, 1.0)
    i1 = int(round((1.0 - f.x_min) / f.dx))
    i3 = int(round((3.0 - f.x_min) / f.dx))
    assert out.values[i1] == pytest.approx(AFFINE_MATRIX_F1, rel=2e-4)
    assert out.values[i3] == pytest.approx(AFFINE_MATRIX_F3, rel=2e-4)


def _affine_spline_oracle(f, tau, c, j):
    """The disentangled integral at x_j over f's cubic spline, by scipy quad
    between the knots the shifted argument crosses, up to the grid edge the
    shift runs toward (left for c < 0, right for c > 0)."""
    t2 = tau * tau
    spline = CubicSpline(f.x, f.values, extrapolate=False)
    xv = float(f.x[j])

    def ig(t):
        fv = float(spline(xv + c * t2 * t))
        return t**-1.5 * math.exp(-0.25 / t - 0.5 * c * t * t * t2 * t2 - t * t2 * xv) * fv

    knots = f.x[: j + 1][::-1] if c < 0 else f.x[j:]
    edges = (knots - xv) / (c * t2)
    return sum(
        quad(ig, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ) / (2.0 * math.sqrt(math.pi))


@pytest.mark.parametrize("c", [-0.1, -0.2, -0.5, -2.0])
def test_affine_sqrt_negative_drift_matches_spline_oracle(c):
    # The exact integral of the same discretisation; the panels sit on the
    # spline's cells, so they meet it to rounding and the solver's estimate
    # covers the distance. At small |c| the amplitude past x_min, where the
    # data are zero-extended, exceeds floating-point range.
    f = Field.from_function(-2.0, 14.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    out = solve_affine_sqrt(f, 0.5, c)
    worst = max(
        abs(out.values[j] - _affine_spline_oracle(f, 0.5, c, j))
        for j in (40, 60, 80, 100, 120, 160)
    )
    assert worst <= 1e-12
    assert out.meta["quadrature_error"] >= worst


@pytest.mark.parametrize("c", [-0.5, -2.0])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_affine_sqrt_negative_drift_reaches_data_left_of_zero(c, tau):
    # Data at x < 0 meet the amplitude e^{(y^2 - x^2)/(2|c|)} > 1 at y = x - s;
    # the log-trapezoid rule this replaced did not converge here.
    f = gaussian(-6.0, 10.0, 161)
    out = solve_affine_sqrt(f, tau, c)
    for j in (40, 60, 80, 100, 120, 160):
        assert abs(out.values[j] - _affine_spline_oracle(f, tau, c, j)) <= 1e-12
    assert out.warnings == ()


@pytest.mark.parametrize("c", [-0.001, -0.003])
def test_affine_sqrt_weak_negative_drift_matches_spline_oracle(c):
    # On x >= 0 the amplitude e^{(y^2 - x^2)/(2|c|)}, y = x - s, is at most 1,
    # while the coupling e^{j h delta/|c|} of cell j and offset delta alone
    # passes floating-point range at |c| = 0.001.
    f = Field.from_function(0.0, 16.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    out = solve_affine_sqrt(f, 0.5, c)
    for j in (10, 20, 30, 40, 60, 100):
        assert abs(out.values[j] - _affine_spline_oracle(f, 0.5, c, j)) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 1.0])
def test_affine_sqrt_on_a_fine_grid_matches_spline_oracle(c):
    # 1601 points: the tail forms its amplitude in several blocks of points
    f = gaussian(-6.0, 10.0, 1601)
    out = solve_affine_sqrt(f, 0.5, c)
    for j in (500, 600, 1000):
        ref = _affine_spline_oracle(f, 0.5, c, j)
        assert abs(out.values[j] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_affine_sqrt_refined_panel_level_meets_spline_oracle(monkeypatch):
    # tau = 0.3, c = -0.05: the coarse and fine panel levels disagree past the
    # tolerance, so the refined level (two panels per cell) runs and converges.
    # The tolerance is set by the field's 6.5e135 peak, so only points within
    # a few orders of it are held to the oracle.
    orders = []
    gl_panels = special._gl_panels
    monkeypatch.setattr(special, "_gl_panels", lambda e, o: orders.append(o) or gl_panels(e, o))
    f = gaussian(-6.0, 10.0, 161)
    out = solve_affine_sqrt(f, 0.3, -0.05)
    assert orders == [16, 24, 32]
    for j in (70, 90, 110):
        ref = _affine_spline_oracle(f, 0.3, -0.05, j)
        assert abs(out.values[j] - ref) <= 4e-13 * abs(ref)
    # on 33 points the refined level misses too
    orders.clear()
    with pytest.raises(ConvergenceError, match="^affine-sqrt panel quadrature did not converge"):
        solve_affine_sqrt(gaussian(-6.0, 10.0, 33), 0.3, -0.05)
    assert orders == [16, 24, 32]


@pytest.mark.parametrize(
    "solve",
    [
        lambda f: solve_half_derivative(f, 0.5),
        lambda f: solve_affine_sqrt(f, 0.5, 1.0),
        lambda f: solve_affine_sqrt(f, 0.5, -1.0),
        lambda f: gauss_weierstrass(f, 0.5),
        lambda f: solve_symbol_spectral(f, 0.5, SymbolSpec.pseudoheat()),
        lambda f: solve_pseudoheat(f, 0.5),
        lambda f: dhat_apply(f),
        lambda f: iterated_series(f, 0.5),
    ],
    ids=[
        "half_derivative", "affine_c_pos", "affine_c_neg",
        "gauss_weierstrass", "spectral", "pseudoheat", "dhat_apply", "iterated_series",
    ],
)
def test_shift_solvers_on_zero_data_give_zero_without_warnings(solve):
    # all-zero data have no peak to compare the edge samples with, whether a
    # solver checks one edge (the shift-type ones) or both; a numpy
    # RuntimeWarning fails the test (pyproject's filterwarnings)
    out = solve(Field(-8.0, 8.0, 64, np.zeros(64)))
    assert not np.any(out.values)
    assert out.warnings == ()


def test_affine_sqrt_divergent_data_raises():
    # c = 0 and data present at x < 0: e^{-t tau^2 x} outruns the weight
    f = Field.from_function(-8.0, 8.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    with pytest.raises(ConvergenceError):
        solve_affine_sqrt(f, 1.0, 0.0)


@pytest.mark.parametrize(
    "x_min, x_max, n, width, c",
    [
        (-400.0, 10.0, 411, 1.0, 0.5),  # e^{-t tau^2 x} at x = -400
        (-100.0, 5.0, 211, 10.0, -0.5),  # data at y = -100 reached from x = 0
    ],
)
def test_affine_sqrt_overflow_raises(x_min, x_max, n, width, c):
    # the amplitude e^{(x^2 - z^2)/(2c)} at the data point z = x + c tau^2 t
    # passes floating-point range while the data there do not vanish
    f = Field.from_function(x_min, x_max, n, lambda x: np.exp(-((x / width) ** 2)))
    with pytest.raises(ConvergenceError, match="overflowed"):
        solve_affine_sqrt(f, 0.5, c)


def test_affine_sqrt_warns_on_right_leak():
    f = Field.from_function(-2.0, 14.0, 161, lambda x: np.exp(-((x - 13.0) ** 2)))
    out = solve_affine_sqrt(f, 0.5, 1.0)
    assert any("right grid edge" in w for w in out.warnings)


def _affine_tail_fresh_arrays(x, env, sets):
    # the affine tail as first written: E through np.where(..., -inf, ...)
    # and fresh arrays for E and every E * window product in each block of
    # about 2^19 entries; env holds the grid-only quantities of the tail
    # under test, and each set names its cell offsets by (order, split)
    n, h, a, c, coef, window = (env[k] for k in ("n", "h", "a", "c", "coef", "window"))
    jh, jcell, reach, decay, lift = (env[k] for k in ("jh", "jcell", "reach", "decay", "lift"))
    sign, kernel = math.copysign(1.0, c), env["kernel"]
    block = max(1, (1 << 19) // jh.size)
    powers = np.arange(3, -1, -1)[:, None]
    levels = []
    for offs, wq in (_cell_offsets(order, split) for order, split in sets):
        delta = offs * h
        w = (h * wq) * kernel(jh[:, None] + delta) * np.exp(
            -sign * (2.0 * jh[:, None] + delta) * delta / (2.0 * a) - lift[:, None]
        )
        d = (delta if c > 0 else h - delta) ** powers
        levels.append((delta, w, d, np.empty(n, dtype=np.result_type(coef, w))))
    for lo in range(0, n, block):
        pts = slice(lo, lo + block)
        amp = np.exp(
            np.where(jcell > reach[pts, None], -np.inf, np.outer(-x[pts] / a, jh) + decay)
        )
        prods = [[] for _ in levels]
        for r in range(4):
            weighted = amp * window[r, pts]
            for prod, (_, w, _, _) in zip(prods, levels):
                prod.append(weighted @ w)
        for prod, (delta, _, d, out) in zip(prods, levels):
            phase = np.exp(np.outer(-x[pts] / a, delta))
            out[pts] = np.einsum("rbq,rq,bq->b", np.stack(prod), d, phase)
    return [out for *_, out in levels]


@pytest.mark.parametrize("n", [161, 641, 4097])
@pytest.mark.parametrize("c", [1.0, -1.0, 0.3, -2.5])
def test_affine_tail_reuses_its_buffers_bit_for_bit(monkeypatch, n, c):
    # the tail forms E in place in one buffer and each E * window product in
    # another; every panel level must equal the fresh-array formulation bit
    # for bit, on real and complex data (4097 points take several blocks)
    f = Field.from_function(-6.0, 10.0, n, lambda x: np.exp(-((x - 3.0) ** 2)))
    calls = []
    shift_panels = evolution._shift_panels

    def spy(h, root, square, head, tail, what):
        env = dict(zip(tail.__code__.co_freevars, (v.cell_contents for v in tail.__closure__)))

        def checked(sets):
            got = tail(sets)
            want = _affine_tail_fresh_arrays(f.x, env, sets)
            calls.append(all(np.array_equal(g, w) for g, w in zip(got, want)))
            return got

        return shift_panels(h, root, square, head, checked, what)

    monkeypatch.setattr(evolution, "_shift_panels", spy)
    for data in (f, f.with_values(f.values * (1.0 + 0.3j * np.cos(f.x)))):
        calls.clear()
        solve_affine_sqrt(data, 0.5, c)
        assert calls and all(calls)


# ----------------------------------------------------------------------
# inverse square-root shift


def test_inv_sqrt_shift_on_cosine():
    g = Field.from_function(-200.0, 20.0, 2048, lambda x: np.cos(0.5 * x))
    out = apply_inv_sqrt_shift(g)
    sel = np.abs(out.x) <= 15.0
    ref = np.cos(0.5 * out.x[sel]) / math.sqrt(1.0 - 0.25)
    np.testing.assert_allclose(out.values[sel], ref, rtol=0, atol=1e-6)
    # few-arc points near the left edge carry residual averaging error
    assert any("fewer tail arcs" in w for w in out.warnings)
    assert "tail_estimate" in out.meta


def test_inv_sqrt_shift_of_one_is_one():
    g = Field.from_function(-200.0, 20.0, 1024, lambda x: np.ones_like(x))
    out = apply_inv_sqrt_shift(g)
    sel = np.abs(out.x - 10.0) <= 10.0
    np.testing.assert_allclose(out.values[sel], 1.0, rtol=0, atol=1e-9)


def test_inv_sqrt_shift_round_trip():
    # forward multiplier sqrt(1 - k^2) applied with a test-local padded FFT,
    # then the J0 transform must undo it on the band-limited packet
    n = 4096
    g = Field.from_function(
        -260.0, 260.0, n, lambda x: np.cos(0.3 * x) * np.exp(-((x / 40.0) ** 2))
    )
    padded = np.zeros(2 * n, dtype=complex)
    padded[:n] = g.values
    k = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=g.dx)
    mult = np.sqrt(np.asarray(1.0 - k**2, dtype=complex))
    fwd = np.fft.ifft(mult * np.fft.fft(padded))[:n].real
    back = apply_inv_sqrt_shift(g.with_values(fwd))
    sel = np.abs(back.x) <= 100.0
    np.testing.assert_allclose(back.values[sel], g.values[sel], rtol=0, atol=1e-6)


@pytest.mark.parametrize("width", [1.0, 4.0])
def test_inv_sqrt_shift_on_a_gaussian_matches_quadpack(width):
    # Far right of decaying data the partial sums are flat; there the direct
    # arc sum is the answer, and the binomial averaging alone never settles.
    def g(x):
        return np.exp(-((x / width) ** 2))

    apply_inv_sqrt_shift(Field.from_function(-64.0, 64.0, 513, g))
    out = apply_inv_sqrt_shift(Field.from_function(-64.0, 64.0, 1025, g))
    for x in (-3.0, 0.0, 2.0, 10.0, 40.0, 60.0):
        lo = max(0.0, x - 12.0 * width)
        ref = quad(lambda t: j0(t) * g(x - t), lo, x + 12.0 * width, points=[x], limit=400)[0]
        j = round((x + 64.0) / out.dx)
        assert abs(out.values[j] - ref) <= 1e-6, x


def test_inv_sqrt_shift_divergent_data_raises():
    g = Field.from_function(-120.0, 10.0, 1024, lambda x: np.exp(-x / 2.0))
    with pytest.raises(ConvergenceError, match="tail"):
        apply_inv_sqrt_shift(g)


def _spline_shift_sum(f):
    # (shifts, weights) -> sum_q w_q S(x_i + s_q) on f's grid, S f's spline,
    # each call binning its own lattice
    coef, last = _coefficients(f.x, f.values), f.values[-1]
    return lambda shifts, weights: _shift_lattice(f.n, f.dx, shifts).bin(weights)(coef, last)


def _inv_sqrt_by_partial_sums(g):
    # The (points x arcs) formulation apply_inv_sqrt_shift had before it
    # summed arcs in blocks: every arc integral at every point, their
    # cumulative sums, and the closed-form averaging gathered from
    # _averaging_weights point by point. Returns (values, estimates, the
    # points that take the averaged value, warnings) or raises its
    # ConvergenceError.
    edges, nodes, weights = _j0_chunks(g.x_max - g.x_min, 16)
    n_chunks = len(nodes)
    shift_sum = _spline_shift_sum(g)
    chunk_vals = np.stack([shift_sum(-t, j0(t) * w) for t, w in zip(nodes, weights)], axis=1)
    partials = np.cumsum(chunk_vals, axis=1)
    count = np.searchsorted(edges[1:], g.x - g.x_min, side="right")
    points = np.arange(g.n)
    upto = np.minimum(count, n_chunks - 1)
    out = partials[points, upto]
    est = np.abs(chunk_vals[points, upto])
    acc = count > _ACCEL_MIN_CHUNKS
    m = count[acc]
    binom = _averaging_weights(n_chunks)
    last = np.einsum("ij,ij->i", binom[m - 1], partials[acc])
    previous = np.einsum("ij,ij->i", binom[m - 2, :-1], partials[acc, 1:])
    recent = np.abs(chunk_vals[points[acc, None], upto[acc, None] - np.arange(4)]).max(axis=1)
    change = np.abs(last - previous)
    averaged = ~(recent < change)
    out[acc] = np.where(averaged, last, out[acc])
    est[acc] = np.where(averaged, change, recent)
    acc[acc] = averaged
    tol = np.maximum(1e-9, np.maximum(_ABS_TOL, _REL_TOL * np.abs(out)))
    mature = count >= _REQUIRED_CHUNKS
    settled = est <= tol
    if np.any(mature) and not np.any(mature & settled):
        raise ConvergenceError(
            "oscillatory tail averaging did not converge on any point with "
            "full tail support",
            error_bound=float(np.min(est[mature])),
        )
    warn = []
    if np.any(~settled):
        warn.append(
            "apply_inv_sqrt_shift: points closer to the left grid edge have "
            "fewer tail arcs available; their values carry the residual "
            "averaging error (see meta tail_estimate)"
        )
    warn.extend(g.leak_warnings("apply_inv_sqrt_shift", "left"))
    return out, est, acc, tuple(warn)


def _same_convergence_error(call, g):
    # The partial-sum formulation takes the change of the last averaging
    # round as the difference of two averaged sums, so its bound carries
    # their rounding: 3e-10 relative on 32 arcs of a cosine, 2e-9 on a
    # growing exponential.
    with pytest.raises(ConvergenceError) as ref:
        _inv_sqrt_by_partial_sums(g)
    with pytest.raises(ConvergenceError) as got:
        call(g)
    assert str(got.value) == str(ref.value)
    assert got.value.error_bound == pytest.approx(ref.value.error_bound, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("data", ["packet", "cosine"])
@pytest.mark.parametrize("arcs, span, n", [
    (1, 2.0, 21), (4, 13.0, 131), (5, 16.0, 161), (32, 101.0, 405), (165, 520.0, 2081),
])
def test_inv_sqrt_shift_equals_the_partial_sum_formulation(arcs, span, n, data, cplx):
    # the arc blocks change the arithmetic, not the method: the values,
    # warnings and tail estimate of the (points x arcs) formulation, or its
    # ConvergenceError (a cosine over 32 arcs does not settle)
    def values(x):
        if data == "cosine":
            v = np.cos(0.5 * x)
        else:
            v = np.cos(0.3 * x + 0.4) * np.exp(-(((x - 0.25 * span) / (0.08 * span)) ** 2))
        return v * (1.0 + 0.5j) + 0.2j * np.sin(0.7 * x) * v if cplx else v

    g = Field.from_function(-0.5 * span, 0.5 * span, n, values)
    assert len(_j0_chunks(span, 16)[1]) == arcs
    if arcs == 32 and data == "cosine":
        _same_convergence_error(apply_inv_sqrt_shift, g)
        return
    ref, ref_est, averaged, ref_warn = _inv_sqrt_by_partial_sums(g)
    out = apply_inv_sqrt_shift(g)
    assert np.iscomplexobj(out.values) == cplx
    assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert out.warnings == ref_warn
    assert out.meta["tail_estimate"] == pytest.approx(np.max(ref_est), rel=1e-12, abs=0.0)
    # Every point's estimate: the largest of its last four arcs where the
    # direct sum stands, and where the averaged value stands the change of
    # the last round, which the partial-sum formulation takes as a
    # difference of two averaged sums, exact only to their rounding.
    est = _inv_sqrt_arcs(g)[1]
    direct = ~averaged
    assert np.all(np.abs(est - ref_est)[direct] <= 1e-12 * ref_est[direct])
    assert np.all(np.abs(est - ref_est)[averaged] <= 1e-14 * np.abs(ref[averaged]))


def test_inv_sqrt_shift_raises_as_the_partial_sum_formulation_does():
    g = Field.from_function(-120.0, 10.0, 1024, lambda x: np.exp(-x / 2.0))
    _same_convergence_error(apply_inv_sqrt_shift, g)


def test_inv_sqrt_shift_keeps_no_points_by_arcs_array():
    # 8192 points on [-1000, 1000] hold 636 arcs: one (points x arcs) float
    # array is 42 MB. The averaging table for 636 arcs is built inside the
    # measured call.
    g = Field.from_function(
        -1000.0, 1000.0, 8192, lambda x: np.cos(0.3 * x) * np.exp(-((x / 100.0) ** 2))
    )
    apply_inv_sqrt_shift(Field.from_function(-10.0, 10.0, 64, np.cos))  # imports
    evolution._j0_plan.cache_clear()
    tracemalloc.start()
    try:
        out = apply_inv_sqrt_shift(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_j0_chunks(2000.0, 16)[1]) == 636
    assert np.all(np.isfinite(out.values))
    assert peak < 24e6


@pytest.mark.parametrize("cplx", [False, True])
def test_shift_sum_equals_direct_spline_sum(cplx):
    # reference: the cubic spline evaluated at x + s for every shift,
    # zero outside the grid; data that do not vanish at either edge
    rng = np.random.default_rng(7)
    f = Field.from_function(
        -3.0, 5.0, 97, lambda x: np.cos(0.7 * x) + 0.3 * x + (0.5j * np.sin(x) if cplx else 0.0)
    )
    h = f.dx
    lags = np.array([-96, -40, -1, 0, 1, 3, 40, 95, 96])
    shifts = np.concatenate([
        rng.uniform(-12.0, 12.0, 60),       # both signs, past both edges
        lags * h + 1e-12,                   # within 1e-12 of a grid node
        lags * h - 1e-12,
        [0.0],
    ])
    weights = rng.standard_normal(shifts.size)
    spline = CubicSpline(f.x, f.values, extrapolate=False)
    vals = spline(f.x[:, None] + shifts[None, :])
    ref = np.where(np.isnan(vals.real), 0.0, vals) @ weights
    got = _spline_shift_sum(f)(shifts, weights)
    assert np.iscomplexobj(got) == cplx
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _check_arc_blocks(fields, whole):
    # every block's arc sums equal single-arc shift sums, every arc is zero
    # before its block's first point, and every arc is seen
    for f in fields:
        plan = evolution._j0_plan(f.n, f.x_min, f.x_max)
        assert plan.whole == whole
        _, nodes, weights = _j0_chunks(f.x_max - f.x_min, 16)
        shift_sum = _spline_shift_sum(f)
        seen = set()
        for rows, start, values, *_ in plan.sums(_coefficients(f.x, f.values)):
            assert values.shape == (rows.stop - rows.start, f.n - start)
            assert np.iscomplexobj(values) == np.iscomplexobj(f.values)
            for b, m in enumerate(range(rows.start, rows.stop)):
                one = shift_sum(-nodes[m], j0(nodes[m]) * weights[m])
                assert np.all(one[:start] == 0.0)
                err = np.max(np.abs(values[b] - one[start:]))
                assert err <= 1e-15 * max(np.max(np.abs(one)), 1.0)
                seen.add(m)
        assert seen == set(range(len(nodes)))


@pytest.mark.parametrize("cplx", [False, True])
def test_arc_blocks_equal_single_row_calls(cplx):
    # 201 points on [-20, 80] hold 32 arcs of at most 8 lags in two blocks,
    # the second of which starts past the first point; the windows are
    # copied once, and two fields share the plan
    f = Field.from_function(
        -20.0, 80.0, 201, lambda x: np.exp(-(x**2)) + (0.5j * np.sin(x) if cplx else 0.0)
    )
    g = f.with_values(f.values * np.exp(-0.2 * f.x) + 1.5)
    _check_arc_blocks((f, g), whole=True)


@pytest.mark.parametrize("n, span", [(4097, 80.0), (8193, 200.0)])
def test_arc_blocks_on_a_fine_grid_equal_single_row_calls(n, span):
    # 25 and 63 arcs of up to 161 and 129 lags: the windows exceed 2^21
    # entries, so each block copies them in several column steps
    f = Field.from_function(-0.5 * span, 0.5 * span, n, lambda x: np.exp(-((x / 4.0) ** 2)))
    _check_arc_blocks((f,), whole=False)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 97, 161, 1024, 2049])
def test_coefficients_equal_scipy_cubic_spline(n, cplx):
    # the bare tridiagonal solve gives CubicSpline's not-a-knot rows bit for
    # bit, on linspace grids whose steps differ in their last bits; n = 4..7
    # are the shortest --ic file= tables, below a Field's 8 points
    x = np.linspace(-3.3, 5.1, n)
    y = np.exp(-(x**2)) * np.cos(3.0 * x) + 0.1 * x + (0.4j * np.sin(2.0 * x) if cplx else 0.0)
    assert np.ptp(np.diff(x)) > 0.0
    got = _coefficients(x, y)
    ref = CubicSpline(x, y).c
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("cplx", [False, True])
def test_one_shift_plan_serves_many_fields(cplx):
    # the lag kernels are binned once per grid: one plan applied to two
    # fields equals a plan binned afresh for each, bit for bit
    rng = np.random.default_rng(11)
    f = Field.from_function(
        -3.0, 5.0, 97, lambda x: np.cos(0.7 * x) + 0.3 * x + (0.5j * np.sin(x) if cplx else 0.0)
    )
    g = f.with_values(f.values * np.exp(-0.2 * f.x) + 1.5)
    shifts, weights = rng.uniform(-12.0, 12.0, 60), rng.standard_normal(60)
    plan = _shift_lattice(f.n, f.dx, shifts).bin(weights)
    for field in (f, g):
        got = plan(_coefficients(field.x, field.values), field.values[-1])
        assert np.array_equal(got, _spline_shift_sum(field)(shifts, weights))


def test_averaging_weights_match_iterated_averaging():
    # m partials averaged pairwise until one value is left; the estimate is
    # the change made by the last round
    rng = np.random.default_rng(3)
    rows = _averaging_weights(200)
    table = _arc_weights(200)
    for m in range(5, 201):
        partials = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        a = partials
        best = a[:, -1]
        while a.shape[1] > 1:
            a = 0.5 * (a[:, 1:] + a[:, :-1])
            best, est = a[:, -1], np.abs(a[:, -1] - best)
        last = partials @ rows[m - 1, :m]
        previous = partials[:, 1:] @ rows[m - 2, : m - 1]
        np.testing.assert_allclose(last, best, rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.abs(last - previous), est, rtol=0, atol=1e-13)
        # the same on the arc integrals C_j = P_j - P_{j-1}
        arcs = np.diff(partials, prepend=0.0)
        np.testing.assert_allclose(arcs @ table[:m, 0, m - 1], best, rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.abs(arcs @ table[:m, 1, m - 1]), est, rtol=0, atol=1e-13)
    # the J0 plans hold views of the arc table, which no caller may change
    assert not table.flags.writeable


def _arrays(obj):
    # every array a plan holds, through its fields and tuples
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


# each kernel route with a plan per grid: the solve, the cache of its plans
# and the integer part of a plan's key after the grid's (n, x_min, x_max)
GRID_PLANS = {
    "apply_inv_sqrt_shift": (apply_inv_sqrt_shift, evolution._j0_plan, [()]),
    "phi_transform": (phi_transform, relativistic._k0_lags, [()]),
    "iterated_series": (lambda f: iterated_series(f, 0.3), relativistic._k0_lags, [()]),
    "solve_half_derivative": (
        lambda f: solve_half_derivative(f, 0.7), evolution._tail_lattice, [(8, 1), (12, 1)]
    ),
}


@pytest.mark.parametrize("route", sorted(GRID_PLANS))
def test_grid_plans_give_the_bits_of_a_fresh_build(route):
    # A plan met in the cache gives the values, meta and warnings of a call
    # that builds it, on two grids with the same n and other bounds, called
    # in turn; real and complex data on one grid share one plan, and a
    # plan's arrays are read-only.
    solve, cache, sets = GRID_PLANS[route]
    f = Field.from_function(-12.0, 8.0, 401, lambda x: np.exp(-(((x + 2.0) / 1.5) ** 2)))
    g = Field.from_function(-10.0, 10.0, 401, lambda x: np.cos(x) * np.exp(-((x / 1.2) ** 2)))
    fc = f.with_values(f.values * (1.0 + 0.3j * np.sin(f.x)))

    def run(field):
        out = solve(field)
        return out.values, out.meta, out.warnings

    fresh = {}
    for field in (f, fc, g):
        cache.cache_clear()
        fresh[field] = run(field)
    cache.cache_clear()
    run(f)
    built = cache.cache_info().misses
    assert built == len(sets)
    run(fc)
    assert cache.cache_info().misses == built
    for field in (g, f, fc, g):
        values, meta, warnings = run(field)
        assert values.dtype == fresh[field][0].dtype
        assert np.array_equal(values, fresh[field][0])
        assert (meta, warnings) == fresh[field][1:]
    assert cache.cache_info().misses == 2 * built
    assert cache.cache_parameters()["maxsize"] is not None
    for field in (f, g):
        for key in sets:
            arrays = list(_arrays(cache(field.n, field.x_min, field.x_max, *key)))
            assert arrays and not any(a.flags.writeable for a in arrays)


def test_j0_zeros_are_the_zeros_of_j0():
    # the arcs of a span of 125 end at the 40 zeros of J0 up to it
    edges, nodes, _ = _j0_chunks(125.0, 16)
    zeros = edges[1:]
    assert zeros.shape == (40,) and nodes.shape == (40, 16)
    assert edges[0] == 0.0 and zeros[-1] <= 125.0
    assert zeros[0] == pytest.approx(2.404825557695773, abs=1e-12)
    assert np.all(np.diff(zeros) > 3.0)
    assert np.max(np.abs(j0(zeros))) < 1e-15
    assert np.all((nodes > edges[:-1, None]) & (nodes < edges[1:, None]))


@pytest.mark.parametrize("x_max, n", [(1e150, 16), (1e5, 64), (5000.0, 4096)])
def test_inv_sqrt_shift_refuses_a_span_past_its_arc_cap(x_max, n):
    # Past 2048 pi the grid holds over 2048 arcs, and their averaging table
    # (16 bytes per arc squared) over 67 MB: jn_zeros overflowed on the
    # first span, the second asked for 30 GiB, and the third left 162 MB
    # in the plan cache.
    g = Field.from_function(-x_max, x_max, n, np.cos)
    with pytest.raises(ValueError, match=r"x_max - x_min = .* is past the cap of 2048 pi"):
        apply_inv_sqrt_shift(g)


def test_kernel_sums_do_not_evaluate_the_spline(monkeypatch):
    # the J0 and K0 kernels read the spline's coefficients on grid lags
    def refuse(*args, **kwargs):
        raise AssertionError("spline evaluated node by node")

    monkeypatch.setattr(CubicSpline, "__call__", refuse)
    g = Field.from_function(-40.0, 10.0, 300, lambda x: np.exp(-(x**2)))
    assert np.all(np.isfinite(apply_inv_sqrt_shift(g).values))
    assert np.all(np.isfinite(phi_transform(g).values))
    assert np.all(np.isfinite(dhat_apply(g, "s_integral").values))
    # and so do the shift-panel solvers
    f = gaussian(-6.0, 10.0, 161)
    assert np.all(np.isfinite(solve_half_derivative(f, 0.7).values))
    for c in (1.0, -1.0):
        assert np.all(np.isfinite(solve_affine_sqrt(f, 0.5, c).values))


SOLVER_CALLS = {
    "half_derivative": lambda f, g, p: solve_half_derivative(f, 0.7),
    "affine_positive": lambda f, g, p: solve_affine_sqrt(f, 0.5, 1.0),
    "affine_negative": lambda f, g, p: solve_affine_sqrt(f, 0.5, -1.0),
    "pseudoheat": lambda f, g, p: solve_pseudoheat(p, 0.25),
    "gauss_weierstrass": lambda f, g, p: gauss_weierstrass(p, 0.01),
    "inv_sqrt_shift": lambda f, g, p: apply_inv_sqrt_shift(g),
    "phi": lambda f, g, p: phi_transform(g),
}


@pytest.mark.parametrize("name", sorted(SOLVER_CALLS))
def test_solvers_repeat_bit_for_bit(name):
    f = gaussian(-6.0, 10.0, 161)
    g = Field.from_function(-40.0, 10.0, 300, lambda x: np.exp(-(x**2)))
    p = gaussian(-16.0, 16.0, 128)
    call = SOLVER_CALLS[name]
    assert np.array_equal(call(f, g, p).values, call(f, g, p).values)

"""Subordination solvers, spectral evolution, and the J0 shift transform."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import k1

from pseudoflow import (
    ConvergenceError,
    Field,
    QuadratureConfig,
    SymbolSpec,
    apply_inv_sqrt_shift,
    dhat_apply,
    exp_sqrt_via_doetsch,
    gauss_weierstrass,
    integrate_halfline,
    phi_transform,
    pseudoheat_gaussian,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
)
from pseudoflow.evolution import _averaging_weights, _j0_zeros, _shift_sum

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


def test_spectral_requires_power_of_two():
    f = gaussian(-16.0, 16.0, 257)
    with pytest.raises(ValueError, match="power-of-two"):
        solve_symbol_spectral(f, 0.5, SymbolSpec.heat())


def test_spectral_rejects_nonfinite_multiplier():
    f = gaussian(-16.0, 16.0, 256)
    bad = SymbolSpec(lambda k: np.where(np.abs(k) < 1e-12, np.nan, -(k**2)), "bad")
    with pytest.raises(ValueError, match="non-finite multipliers"):
        solve_symbol_spectral(f, 0.5, bad)


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
        # the benchmark's grid: the warning sets in at tau of about 0.70
        # (n = 128) and 0.35 (n = 256), above where the solves miss 1e-6
        # against spectral (about 0.6 and 0.29)
        (16.0, 128, 1e-3, True),
        (16.0, 128, 0.65, True),
        (16.0, 128, 0.75, False),
        (16.0, 256, 0.33, True),
        (16.0, 256, 0.37, False),
        # the fig1 and solve presets' grid stays quiet
        (8.0, 128, 0.75, False),
        (8.0, 128, 1.25, False),
    ],
)
def test_pseudoheat_flags_under_resolution(half_width, n, tau, flagged):
    # erfc(tau / 2h) of the subordination weight sits at widths below h^2,
    # where the trapezoid smoothing aliases
    out = solve_pseudoheat(gaussian(-half_width, half_width, n), tau)
    assert any("under-resolved" in w for w in out.warnings) == flagged
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
    # n = 200 is not a power of two, so the spectral oracle cannot see this grid
    f = Field.from_function(-12.0, 12.0, 200, _complex_data)
    out = solve_pseudoheat(f, tau)
    idx = np.nonzero(np.abs(f.x) <= 6.0)[0]
    ref = np.array([_k1_flow(float(f.x[j]), tau) for j in idx])
    assert np.max(np.abs(out.values[idx] - ref)) <= 1e-10


def _dense_gw(x, values, alpha):
    """The trapezoid Gauss-Weierstrass sum written as a dense n x n matrix."""
    w = np.full(x.shape, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    d2 = (x[:, None] - x[None, :]) ** 2
    return (np.exp(-d2 / (4.0 * alpha)) / (2.0 * math.sqrt(math.pi * alpha))) @ (w * values)


GUARD_DATA = {
    "real": lambda x: np.exp(-(x**2)),
    "complex": _complex_data,
}


@pytest.mark.parametrize("data", sorted(GUARD_DATA))
def test_gauss_weierstrass_equals_dense_sum(data):
    f = Field.from_function(-8.0, 8.0, 64, GUARD_DATA[data])
    for alpha in (0.25 * f.dx**2, 0.3, 1.0, 5.0):
        out = gauss_weierstrass(f, alpha).values
        assert np.max(np.abs(out - _dense_gw(f.x, f.values, alpha))) <= 1e-13


@pytest.mark.parametrize("data", sorted(GUARD_DATA))
def test_pseudoheat_equals_dense_subordination(data):
    f = Field.from_function(-8.0, 8.0, 64, GUARD_DATA[data])
    for tau in (0.5, 1.0):
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
        # to rounding here, so whether it covers the true error is checked
        # where that error is well above rounding (affine c < 0 below).
        est = out.meta["quadrature_error"]
        assert math.isfinite(est)
        assert est <= max(1e-12, 1e-10 * np.max(np.abs(out.values)))


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("c", [-0.5, -2.0])
def test_affine_sqrt_negative_drift_matches_spline_oracle(c):
    # The spline data factor makes the log-trapezoid rule converge only
    # algebraically, so the accepted value is visibly off the exact integral
    # of the same discretisation (scipy quad between the spline's knots),
    # and the solver's estimate must cover that distance.
    f = Field.from_function(-2.0, 14.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    tau = 0.5
    t2 = tau * tau
    out = solve_affine_sqrt(f, tau, c)
    spline = CubicSpline(f.x, f.values, extrapolate=False)
    worst = 0.0
    for j in (40, 60, 80, 100, 120, 160):
        xv = float(f.x[j])

        def ig(t):
            fv = float(spline(xv + c * t2 * t))
            return t**-1.5 * math.exp(-0.25 / t - 0.5 * c * t * t * t2 * t2 - t * t2 * xv) * fv

        # knots the shifted argument crosses, up to the left grid edge
        edges = (xv - f.x[: j + 1][::-1]) / (-c * t2)
        ref = sum(
            quad(ig, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ) / (2.0 * math.sqrt(math.pi))
        worst = max(worst, abs(out.values[j] - ref))
    assert 1e-13 < worst <= 1e-11
    assert out.meta["quadrature_error"] >= worst


def test_affine_sqrt_divergent_data_raises():
    # c = 0 and data present at x < 0: e^{-t tau^2 x} outruns the weight
    f = Field.from_function(-8.0, 8.0, 161, lambda x: np.exp(-((x - 3.0) ** 2)))
    with pytest.raises(ConvergenceError):
        solve_affine_sqrt(f, 1.0, 0.0)


def test_affine_sqrt_warns_on_right_leak():
    f = Field.from_function(-2.0, 14.0, 161, lambda x: np.exp(-((x - 13.0) ** 2)))
    out = solve_affine_sqrt(f, 0.5, 1.0)
    assert any("right grid edge" in w for w in out.warnings)


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


def test_inv_sqrt_shift_divergent_data_raises():
    g = Field.from_function(-120.0, 10.0, 1024, lambda x: np.exp(-x / 2.0))
    with pytest.raises(ConvergenceError, match="tail"):
        apply_inv_sqrt_shift(g)


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
    got = _shift_sum(f)(shifts, weights)
    assert np.iscomplexobj(got) == cplx
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_averaging_weights_match_iterated_averaging():
    # m partials averaged pairwise until one value is left; the estimate is
    # the change made by the last round
    rng = np.random.default_rng(3)
    rows = _averaging_weights(200)
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


def test_j0_zeros_are_cached_read_only():
    # every J0 call on a span shares one array of zeros, which no caller may change
    zeros = _j0_zeros(40)
    assert _j0_zeros(40) is zeros
    assert not zeros.flags.writeable
    assert zeros.shape == (40,)
    assert zeros[0] == pytest.approx(2.404825557695773, abs=1e-12)
    assert np.all(np.diff(zeros) > 3.0)


def test_kernel_sums_do_not_evaluate_the_spline(monkeypatch):
    # the J0 and K0 kernels read the spline's coefficients on grid lags
    def refuse(*args, **kwargs):
        raise AssertionError("spline evaluated node by node")

    monkeypatch.setattr(CubicSpline, "__call__", refuse)
    g = Field.from_function(-40.0, 10.0, 300, lambda x: np.exp(-(x**2)))
    assert np.all(np.isfinite(apply_inv_sqrt_shift(g).values))
    assert np.all(np.isfinite(phi_transform(g).values))
    assert np.all(np.isfinite(dhat_apply(g, "s_integral").values))

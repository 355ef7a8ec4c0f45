"""Hermite-series solution, the D operator, and Heisenberg observables."""
import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pseudoflow import relativistic
from pseudoflow import (
    ConvergenceError,
    Field,
    ObservableInputs,
    QuadratureConfig,
    TruncationError,
    commutator_xt_x0,
    dhat_apply,
    f2k,
    f_function,
    glaisher,
    integrate_halfline,
    iterated_series,
    linear_potential_trajectory,
    packet_width,
    phi_transform,
    r_function,
    series_solution,
    spectral_schrodinger,
)

ADAPTIVE = QuadratureConfig(halfline_rule="adaptive_subdivision")

# f_0(0); the half-line Glaisher-composed form of the same integral
# (independent adaptive quadrature) agrees to 8.4e-14.
F2K_AT_0 = 7.0575700431945831e-01
F2K_DECAY = {
    4.0: 8.7410918409007964e-03,
    6.0: 9.4531990078385009e-04,
    8.0: 1.0983725853726614e-04,
}
# f_{2k} at points where an adaptive QUADPACK rule stops on its roundoff
# flag: mpmath quadrature of the s = u^2 integral at 40 digits, frozen at
# build time.
F2K_HIGH_ORDER = {
    (1.1036333333333332, 13): 2.4841309797078478e10,
    (12.0, 20): 2.4451578469922359e04,
}

R_AT_01 = 9.9259214530573081e-01
# Direct momentum-space Gaussian quadrature (scipy QUADPACK) of
# <m^2 c^2 (m^2 c^2 + p^2)^{-3/2}>-type expectations, frozen at build time.
MOMENTUM_RF = {
    0.5: (8.5424749353211704e-01, 9.2271552712286575e-01),
    1.0: (6.2904616569556793e-01, 7.8462436801283553e-01),
    2.0: (3.4432045758120128e-01, 5.6489084724565830e-01),
}
# <x^2(0)> + t^2 <p^2 c^2/(m^2 c^2+p^2)> at sigma = 1, a = 1, t = 2.
WIDTH_A1_T2 = 1.6290461656955679e+00


def gaussian(x_min=-16.0, x_max=16.0, n=512):
    return Field.from_function(x_min, x_max, n, lambda x: np.exp(-(x**2)))


# ----------------------------------------------------------------------
# f_{2k}


def test_f2k_at_the_origin():
    val = f2k(0.0, 0)
    assert val > 0
    assert val == pytest.approx(F2K_AT_0, rel=1e-9)


def test_f2k_decays_for_large_eta():
    vals = [f2k(eta, 0) for eta in (4.0, 6.0, 8.0)]
    for got, eta in zip(vals, (4.0, 6.0, 8.0)):
        assert got == pytest.approx(F2K_DECAY[eta], rel=1e-9)
    assert vals[0] > vals[1] > vals[2] > 0
    assert vals[0] < 1e-2


@pytest.mark.parametrize("eta", [0.0, 1.3])
def test_f2k_matches_glaisher_composed_form(eta):
    # f_0 is the e^{-s} s^{-1/2} average of the heat-smoothed Gaussian
    ref = integrate_halfline(
        lambda s: math.exp(-s) / math.sqrt(s) * glaisher(s, eta) / math.sqrt(math.pi),
        ADAPTIVE,
    ).value.real
    assert f2k(eta, 0) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("eta, k", sorted(F2K_HIGH_ORDER))
def test_f2k_where_quadpack_stopped(eta, k):
    # an adaptive QUADPACK rule stops on its roundoff flag here
    val = f2k(eta, k)
    assert math.isfinite(val)
    assert val == pytest.approx(F2K_HIGH_ORDER[(eta, k)], rel=1e-10)


def test_f2k_overflow_is_a_convergence_error():
    # H_300(1, -1) is beyond double range; no NaN comes back
    with pytest.raises(ConvergenceError, match="overflowed"):
        f2k(0.5, 150)


def test_f2k_at_a_huge_order_refuses_at_its_first_overflowed_moment(monkeypatch):
    # the recurrence ran all k steps before it refused, so 2^32 took about
    # a day; it now stops at the first moment past float range
    moments, drawn = relativistic._hermite_moments, []

    def counted(eta):
        for row in moments(eta):
            drawn.append(row)
            assert len(drawn) <= 1000, "f2k ran on past its overflowed moments"
            yield row

    monkeypatch.setattr(relativistic, "_hermite_moments", counted)
    with pytest.raises(ConvergenceError, match=r"^f_2k overflowed at eta = 1\.0, k = 4294967296$"):
        f2k(1.0, 2**32)


@pytest.mark.parametrize("eta", [493.0, 600.0, 1e100, 1e200, sys.float_info.max])
def test_f2k_is_zero_past_the_flat_range(eta):
    # e^{-eta^2/(1+4s)} is 0 at every node, so f_2k is 0, even where the H_n
    # recurrence would leave float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 3, 150):
            assert f2k(eta, k) == 0.0
            assert f2k(-eta, k) == 0.0


def test_f2k_validation():
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        f2k(1.0, -1)
    with pytest.raises(ValueError, match="finite"):
        f2k(math.inf, 0)
    # the order is an integer, as hermite2's is: no rounding, no bool
    for k in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="integer"):
            f2k(0.3, k)


# ----------------------------------------------------------------------
# series solution


def test_series_tau_zero_is_the_gaussian():
    val = series_solution(0.8, 0.0)
    assert val.real == pytest.approx(math.exp(-0.64), abs=1e-15)
    assert val.imag == 0.0


def test_series_matches_spectral_oracle():
    f = gaussian()
    spec = spectral_schrodinger(f, 0.5)
    idx = np.where(np.abs(f.x) <= 4.0)[0][::16]
    vals = np.array([series_solution(float(f.x[j]), 0.5) for j in idx])
    np.testing.assert_allclose(vals, spec.values[idx], rtol=0, atol=1e-9)


def _fourier_packet(eta, tau):
    # Psi = (1/(2 sqrt(pi))) int e^{-k^2/4} e^{i(k eta - tau sqrt(1+k^2))} dk,
    # the Fourier integral of the evolved Gaussian, by QUADPACK
    def part(trig):
        return quad(
            lambda k: math.exp(-k * k / 4.0) * trig(k * eta - tau * math.sqrt(1.0 + k * k)),
            -40.0,
            40.0,
            limit=200,
            epsabs=1e-14,
            epsrel=1e-13,
        )[0]

    return complex(part(math.cos), part(math.sin)) / (2.0 * math.sqrt(math.pi))


@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_series_where_quadpack_moments_stopped(tau):
    eta = 1.1036333333333332
    assert abs(series_solution(eta, tau) - _fourier_packet(eta, tau)) <= 1e-9


def test_series_on_an_array_matches_each_point():
    # points leave the array sum at different orders; each must keep, bit
    # for bit, what the one-point sum gives, as a float, np.float64 or 0-d eta
    eta = np.array([-7.5, -1.1036333333333332, 0.0, 0.3, 2.0, 12.0])
    for tau in (0.5, 1.0):
        values, tails, used = series_solution(eta, tau, return_diagnostics=True)
        assert len(set(used)) > 1
        assert np.array_equal(series_solution(eta, tau), values)
        for j, e in enumerate(eta):
            for point in (float(e), e, np.array(e)):
                val, tail, n = series_solution(point, tau, return_diagnostics=True)
                assert (type(val), type(tail), type(n)) == (complex, float, int)
                assert (values[j], tails[j], used[j]) == (val, tail, n)
                assert type(series_solution(point, tau)) is complex


def test_series_diagnostics():
    plain = series_solution(1.0, 0.5)
    val, tail, n = series_solution(1.0, 0.5, return_diagnostics=True)
    assert val == plain
    assert 1 <= n <= 60
    assert 0 <= tail < 1e-9
    # the sum never stops at its first term, even where that term is tiny
    assert series_solution(30.0, 0.5, return_diagnostics=True)[2] == 1


def test_series_is_zero_where_everything_underflows():
    # far out, e^{-eta^2} and the f_2k integrand are 0 at every node: Psi is
    # what eta = 1e50 gives, up to the largest float, where the H_n
    # recurrence and eta^2 once overflowed (the suite errors on a RuntimeWarning)
    from pseudoflow.relativistic import _ETA_FLAT

    zero = (0j, 0.0, 1)
    assert series_solution(1e50, 0.5, return_diagnostics=True) == zero
    edge = np.nextafter(_ETA_FLAT, 0.0)  # the last eta the sum itself sees
    for eta in (edge, _ETA_FLAT, 1e100, 1e154, 1.3e154, 1e200, 1.7e308, -1.7e308):
        for tau in (0.0, 0.5, 1.0):
            got = series_solution(eta, tau, return_diagnostics=True)
            assert (got, [type(v) for v in got]) == (zero, [complex, float, int])
    # beside nearer points, which keep their one-point values bit for bit
    eta = np.array([-1e300, 0.3, 1e100, 2.0, edge])
    values, tails, used = series_solution(eta, 1.0, return_diagnostics=True)
    for j, e in enumerate(eta):
        assert (values[j], tails[j], used[j]) == series_solution(e, 1.0, return_diagnostics=True)
    assert (values[[0, 2]] == 0).all() and (used[[0, 2]] == 1).all()


def test_series_truncation_failure():
    # at tau = 8 the terms still grow at the last order, 60
    with pytest.raises(TruncationError) as exc:
        series_solution(0.0, 8.0)
    assert exc.value.n_used == 60
    assert exc.value.last_term > 0


def test_series_step_sums_that_disagree_raise_convergence_error():
    # at tau = 4 the terms pass the tail test, but the sums from the f_2k
    # moments at steps h and 2h differ at eta = 0 by more than the tolerance
    with pytest.raises(ConvergenceError) as exc:
        series_solution(0.0, 4.0)
    err = exc.value
    assert err.reason == "tau-power series: f_2k step sums disagree at eta = 0.0"
    assert str(err) == f"{err.reason} (last estimate {err.estimate}, error bound {err.error_bound})"
    assert isinstance(err.estimate, complex) and cmath.isfinite(err.estimate)
    assert math.isfinite(err.error_bound)
    assert err.error_bound > max(1e-12, 1e-10 * abs(err.estimate))
    # the same point with the same data sums to a value at tau = 3.5
    assert cmath.isfinite(series_solution(0.0, 3.5))


@pytest.mark.parametrize("tau", [1e200, -1e200, 1.7e308])
def test_series_huge_tau_raises_truncation_error(tau):
    # tau^2 is past the largest float: a failed series, not an OverflowError
    with pytest.raises(TruncationError, match="overflowed"):
        series_solution(0.0, tau)


@pytest.mark.parametrize("eta, tau", [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.5)])
def test_series_rejects_nonfinite_input(eta, tau):
    # bad input, not a series that failed to converge
    with pytest.raises(ValueError, match="must be real and finite"):
        series_solution(eta, tau)


def test_spectral_schrodinger_unitary_and_symmetric():
    f = gaussian()
    assert np.max(np.abs(spectral_schrodinger(f, 0.0).values - f.values)) <= 1e-13
    out = spectral_schrodinger(f, 1.0)
    norm_in = np.trapezoid(np.abs(f.values) ** 2, f.x)
    norm_out = np.trapezoid(np.abs(out.values) ** 2, f.x)
    assert norm_out == pytest.approx(norm_in, rel=1e-10)
    # even real data has a symmetric spectrum: the centroid stays put
    centroid = np.trapezoid(f.x * np.abs(out.values) ** 2, f.x) / norm_out
    assert abs(centroid) <= 1e-12


# ----------------------------------------------------------------------
# the D operator


@pytest.mark.parametrize("method", ["kernel_k0", "s_integral"])
def test_dhat_on_cosine(method):
    f = Field.from_function(-60.0, 60.0, 1921, lambda x: np.cos(x))
    out = dhat_apply(f, method)
    sel = np.abs(out.x) <= 10.0
    ref = np.cos(out.x[sel]) / math.sqrt(2.0)
    np.testing.assert_allclose(out.values[sel], ref, rtol=0, atol=1e-6)


def test_dhat_constant_unchanged():
    f = Field.from_function(-60.0, 60.0, 961, lambda x: np.ones_like(x))
    out = dhat_apply(f, "kernel_k0")
    sel = np.abs(out.x) <= 15.0
    np.testing.assert_allclose(out.values[sel], 1.0, rtol=0, atol=1e-8)
    assert any("boundary" in w for w in out.warnings)


def test_dhat_methods_agree_and_contract():
    f = Field.from_function(-20.0, 20.0, 1024, lambda x: np.exp(-(x**2)))
    outs = [dhat_apply(f, m).values for m in ("kernel_k0", "s_integral", "spectral")]
    sel = np.abs(f.x) <= 10.0
    for i in range(3):
        for j in range(i + 1, 3):
            np.testing.assert_allclose(
                outs[i].real[sel], outs[j].real[sel], rtol=0, atol=1e-6
            )
    norm_in = np.trapezoid(np.abs(f.values) ** 2, f.x)
    norm_out = np.trapezoid(np.abs(outs[0]) ** 2, f.x)
    assert norm_out <= norm_in


def test_dhat_unknown_method():
    methods = "kernel_k0, s_integral or spectral"
    with pytest.raises(ValueError, match=f"^method must be one of {methods}$"):
        dhat_apply(gaussian(), "collocation")


# ----------------------------------------------------------------------
# phi transform


def _hump():
    return Field.from_function(-24.0, 24.0, 1024, lambda x: x**2 * np.exp(-(x**2)))


def test_phi_is_the_d_operator():
    f = _hump()
    assert np.array_equal(phi_transform(f).values, dhat_apply(f, "kernel_k0").values)


def test_phi_delocalizes():
    f = _hump()
    phi = phi_transform(f)
    m_in = np.trapezoid(f.x**2 * np.abs(f.values), f.x) / np.trapezoid(np.abs(f.values), f.x)
    m_out = np.trapezoid(f.x**2 * np.abs(phi.values), f.x) / np.trapezoid(np.abs(phi.values), f.x)
    assert m_out > m_in + 0.5


def test_phi_conserves_the_integral():
    f = _hump()
    phi = phi_transform(f)
    m_in = np.trapezoid(f.values, f.x)
    m_out = np.trapezoid(phi.values, f.x)
    assert m_out == pytest.approx(m_in, rel=1e-8)


# ----------------------------------------------------------------------
# iterated series


def test_iterated_series_tau_zero_unchanged():
    f = gaussian(n=256)
    out = iterated_series(f, 0.0)
    assert np.array_equal(out.values, f.values.astype(complex))


def test_iterated_series_warns_about_data_at_the_boundary():
    # e^{-16} at x = +-4 is above the leak threshold; on [-16, 16] it is not
    f = gaussian(-4.0, 4.0, 64)
    out = iterated_series(f, 0.05)
    assert out.warnings == ("iterated_series: input is not negligible at the grid boundary",)
    assert iterated_series(gaussian(n=64), 0.05).warnings == ()


def test_iterated_series_first_order_term():
    f = gaussian(n=1024)
    k = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.dx)
    # isolate Psi_1 by a central difference in tau: the even orders cancel
    # and the next odd one is O(tau^2)
    step = 1e-4
    psi1 = (iterated_series(f, step).values - iterated_series(f, -step).values) / (2j * step)
    oracle = np.fft.ifft(
        (-(k**2) / np.sqrt(1.0 + k**2)) * np.fft.fft(f.values.astype(complex))
    )
    np.testing.assert_allclose(psi1, oracle, rtol=0, atol=1e-6)


def test_iterated_series_matches_closed_symbol():
    # any n, not only powers of two (n = 384 was once refused): each meets
    # the multiplier at the K0 spline's h^4 level (0.013 h^4 measured up to
    # n = 384) plus what the 1e-8 tail test leaves (3.8e-8 at n = 1024)
    for n in (161, 200, 256, 384, 997, 1024):
        f = gaussian(n=n)
        k = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.dx)
        out = iterated_series(f, 0.3)
        closed = np.fft.ifft(
            np.exp(-1j * 0.3 * k**2 / np.sqrt(1.0 + k**2))
            * np.fft.fft(f.values.astype(complex))
        )
        assert np.max(np.abs(out.values - closed)) <= 0.015 * f.dx**4 + 5e-8, n
        assert out.meta["tail_estimate"] < 1e-8


def test_iterated_series_reuses_one_k0_plan_bit_for_bit():
    # the K0 lag kernels are binned once per series; every term of real
    # data equals a fresh dhat_apply on the real field followed by the same
    # dealiased d^2 as a real FFT pair
    f, tau = gaussian(n=512), 0.3
    k = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.dx)
    spec0 = np.abs(np.fft.fft(f.values.astype(complex)))
    k_cut = float(np.max(np.abs(k[spec0 > 1e-13 * float(spec0.max())])))
    d2_half = np.where(np.abs(k) <= k_cut, -(k**2), 0.0)[: f.n // 2 + 1]
    total, current = f.values.astype(complex), f
    for m in range(1, 21):
        smoothed = dhat_apply(current, "kernel_k0")
        assert not np.iscomplexobj(smoothed.values)
        current = f.with_values(np.fft.irfft(d2_half * np.fft.rfft(smoothed.values), f.n))
        term = (1j * tau) ** m / math.factorial(m) * current.values
        total += term
        if np.max(np.abs(term)) <= 1e-8 * np.max(np.abs(f.values)):
            break
    assert m > 5
    assert np.array_equal(iterated_series(f, tau).values, total)


def _iterated_series_complex_loop(f, tau):
    # the series as first written: every Psi_n a complex array through a
    # complex FFT pair and the complex spline
    k = 2.0 * math.pi * np.fft.fftfreq(f.n, d=f.dx)
    spec0 = np.abs(np.fft.fft(np.asarray(f.values, dtype=complex)))
    k_cut = float(np.max(np.abs(k[spec0 > 1e-13 * float(spec0.max())])))
    d2_mult = np.where(np.abs(k) <= k_cut, -(k**2), 0.0)
    total, current = np.asarray(f.values, dtype=complex).copy(), f
    for m in range(1, 21):
        smoothed = dhat_apply(current.with_values(current.values.astype(complex)))
        current = f.with_values(np.fft.ifft(d2_mult * np.fft.fft(smoothed.values)))
        term = (1j * tau) ** m / math.factorial(m) * current.values
        total += term
        if np.max(np.abs(term)) <= 1e-8 * np.max(np.abs(f.values)):
            return total
    raise AssertionError("the reference series did not converge")


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_iterated_series_meets_the_complex_loop(n):
    f = gaussian(n=n)
    for data in (f, f.with_values(f.values * (1.0 + 0.5j * np.sin(f.x)))):
        for tau in (0.1, 0.3, -0.4):
            got = iterated_series(data, tau).values
            want = _iterated_series_complex_loop(data, tau)
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5])
def test_iterated_series_of_real_data_is_conjugate_symmetric_in_tau(tau):
    # Psi_n of real data are real, so tau -> -tau conjugates every term
    # exactly; a complex pipeline leaves rounding noise in Im Psi_n
    f = gaussian(n=512)
    plus, minus = iterated_series(f, tau).values, iterated_series(f, -tau).values
    assert np.array_equal(minus, np.conj(plus))


def test_iterated_series_is_linear_over_real_and_imaginary_parts():
    # the three series stop at different terms, so they agree to the tail
    # test rather than to rounding
    f = gaussian(n=512)
    bump = 0.2j * np.exp(-((f.x - 1.0) ** 2))
    data = f.with_values(f.values * (1.0 + 0.5j * np.sin(f.x)) + bump)
    out = iterated_series(data, 0.3).values
    parts = (
        iterated_series(data.with_values(data.values.real), 0.3).values
        + 1j * iterated_series(data.with_values(data.values.imag), 0.3).values
    )
    assert np.max(np.abs(out - parts)) <= 1e-7 * np.max(np.abs(out))


@pytest.mark.parametrize("bounds", [(-8.0, 8.0, 64), (-2.0, 14.0, 161), (-16.0, 16.0, 512)])
def test_iterated_series_commutes_with_every_power_of_two_in_range(bounds):
    # the tail test is 1e-8 times the data's peak, so data times 2^e run the
    # unit data's terms times 2^e, bit for bit; with an absolute 1e-8, 2^100
    # and 2^332 raised TruncationError and 2^-100 and 2^-332 stopped early,
    # up to 3.3 times the peak off
    f = Field.from_function(*bounds, lambda x: np.exp(-((x / 2.0) ** 2)))
    for tau in (0.1, 0.3, 0.5):
        try:
            ref = iterated_series(f, tau)
        except TruncationError:
            ref = None
        for e in (100, -100, 332, -332):
            scaled = f.with_values(np.ldexp(f.values, e))
            case = f"{bounds}, tau {tau}, 2^{e}"
            if ref is None:
                with pytest.raises(TruncationError, match="did not reach tail_tol"):
                    iterated_series(scaled, tau)
                continue
            got = iterated_series(scaled, tau)
            want = ref.values.real * 2.0**e + 1j * (ref.values.imag * 2.0**e)
            assert np.array_equal(got.values, want), case
            assert got.meta == {"tail_estimate": ref.meta["tail_estimate"] * 2.0**e}, case
            assert got.warnings == ref.warnings, case


@pytest.mark.parametrize("dtype", [float, complex])
def test_iterated_series_of_zeros_is_zeros_after_one_term(dtype):
    # the tail test is relative to the data's peak and not strict: a zero
    # first term meets it, so zeros do not run to the 20-term failure
    for bounds in ((-8.0, 8.0, 64), (-2.0, 14.0, 161), (-16.0, 16.0, 512)):
        out = iterated_series(Field(*bounds, np.zeros(bounds[2], dtype=dtype)), 0.5)
        assert np.array_equal(out.values, np.zeros(bounds[2]))
        assert out.meta == {"tail_estimate": 0.0} and out.warnings == ()


def test_iterated_series_validation():
    f = gaussian(n=256)
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            iterated_series(f, tau)


def test_iterated_series_truncation_failure():
    with pytest.raises(TruncationError) as exc:
        iterated_series(gaussian(n=256), 2.0)
    assert exc.value.n_used == 20


@pytest.mark.parametrize("scale", [1e300, 1e307])
def test_iterated_series_near_the_largest_float_solves_as_the_unit_data(scale):
    # such data overflowed in a later term, and at 1e307 in the dealiasing
    # FFT of the input itself: a TruncationError. They now run scaled to a
    # peak in [0.5, 1), so the series is the unit data's, times 2^e exactly
    # at 2^e, and to rounding at the scale itself
    unit = Field.from_function(-16.0, 16.0, 513, lambda x: np.exp(-(x**2)))  # peak 1
    ref = iterated_series(unit, 0.3)
    e = math.frexp(scale)[1] - 1
    got = iterated_series(unit.with_values(np.ldexp(unit.values, e)), 0.3)
    assert np.array_equal(got.values, np.ldexp(ref.values.real, e) + 1j * np.ldexp(ref.values.imag, e))
    assert got.meta["tail_estimate"] == math.ldexp(ref.meta["tail_estimate"], e)
    got = iterated_series(unit.with_values(scale * unit.values), 0.3)
    assert np.max(np.abs(got.values / scale - ref.values)) <= 1e-15


def test_iterated_series_overflow_in_a_later_spline_is_a_truncation_error():
    # content near Nyquist on a grid of step 1.3e-101: the input's spline
    # rows (about 1/h^3) are finite, but Psi_1 grows like the grid's |k|,
    # and its spline rows, taken for term 2, leave float range. The series
    # fails after one term; it does not blame the input's spline
    f = Field.from_function(-1e-100, 1e-100, 16, lambda x: np.cos(7e100 * np.pi * x))
    with pytest.raises(TruncationError, match="overflowed at term 2 ") as exc:
        iterated_series(f, 0.3)
    assert exc.value.n_used == 1
    assert math.isfinite(exc.value.last_term)


def test_iterated_series_refuses_data_whose_own_spline_is_past_float_range():
    # on a step of 1.3e-103 the input's own spline rows leave float range
    f = Field.from_function(-1e-102, 1e-102, 16, lambda x: np.cos(7e102 * np.pi * x))
    with pytest.raises(ValueError, match="past float range"):
        iterated_series(f, 0.3)


@pytest.mark.parametrize("tau, term", [(1e16, 20), (1e300, 2)])
def test_iterated_series_at_huge_tau_is_a_truncation_error(tau, term):
    # the coefficient (i tau)^m leaves float range at term m: a failed
    # series after m - 1 terms, not a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match=f"overflowed at term {term} ") as exc:
            iterated_series(gaussian(), tau)
    assert exc.value.n_used == term - 1
    assert math.isfinite(exc.value.last_term)


def test_iterated_series_first_term_past_float_range_is_a_truncation_error():
    # tau = 1.5e308 keeps the coefficient i tau finite, but its product with
    # Psi_1 of a narrow Gaussian leaves float range: the series ends before
    # its first term, with no finite term to report, at every scale
    f = Field.from_function(-8.0, 8.0, 256, lambda x: np.exp(-((x / 0.3) ** 2)))
    for e in (0, 600, -600):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError) as exc:
                iterated_series(f.with_values(np.ldexp(f.values, e)), 1.5e308)
        assert str(exc.value) == "iterated series overflowed at term 1"
        assert exc.value.n_used == 0 and exc.value.last_term is None


# ----------------------------------------------------------------------
# R, F, and the Heisenberg observables


def test_r_function_values():
    assert r_function(0.0) == pytest.approx(1.0, rel=1e-12)
    assert r_function(0.1) == pytest.approx(R_AT_01, rel=1e-12)
    # lowest-order expansion 1 - (3/4) a^2
    assert abs(r_function(0.1) - 0.9925) <= 1e-3


def test_r_and_f_on_an_empty_array_are_empty():
    # as series_solution's: numpy's "zero-size array to reduction operation
    # maximum" was raised instead
    for fn in (r_function, f_function):
        for a in (np.array([]), []):
            out = fn(a)
            assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float


def test_f_function_at_zero():
    assert f_function(0.0) == pytest.approx(1.0, rel=1e-12)


def test_r_and_f_bounded_and_decreasing():
    grid = np.arange(0.0, 5.25, 0.25)
    rs = [r_function(a) for a in grid]
    fs = [f_function(a) for a in grid]
    for seq in (rs, fs):
        assert all(0.0 < v <= 1.0 + 1e-15 for v in seq)
        assert all(b < a for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("fn", [r_function, f_function])
def test_r_and_f_reject_negative(fn):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(-0.5)
    # an array is checked element by element
    with pytest.raises(ValueError, match="^a must be nonnegative and finite$"):
        fn(np.array([1.0, -0.5, 2.0]))


@pytest.mark.parametrize("a", [math.nan, math.inf])
@pytest.mark.parametrize("fn", [r_function, f_function])
def test_r_and_f_reject_nonfinite(fn, a):
    with pytest.raises(ValueError, match="finite"):
        fn(a)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_momentum_space_oracles(a):
    r_ref, f_ref = MOMENTUM_RF[a]
    # the frozen QUADPACK values are themselves off by up to 6e-15 (R at a = 1)
    assert r_function(a) == pytest.approx(r_ref, rel=2e-14)
    assert f_function(a) == pytest.approx(f_ref, rel=2e-14)


# the closed forms lose digits to cancellation in doubles below a = 0.5;
# there they are evaluated by mpmath
RF_CLOSED_FORM_A = (0.5, 0.75, 1.0, 2.0, 3.3, 5.0, 10.0, 50.0, 500.0, 1e3, 1e4, 1e6, 1e8)
RF_MPMATH_A = (1e-4, 0.01, 0.1, 0.25, 0.4)


def rf_closed_form(a):
    """R(a) = (2 sqrt(2)/a^3)(sqrt(2) a - 2 sqrt(pi) erfcx(sqrt(2)/a)) and
    F(a) = (2 sqrt(2)/sqrt(pi)) (k1e(1/a^2) - k0e(1/a^2)) / a^3, for a >= 0.5."""
    from scipy.special import erfcx, k0e, k1e

    x, z = math.sqrt(2.0) / a, 1.0 / (a * a)
    r = 2.0 * math.sqrt(2.0) / a**3 * (math.sqrt(2.0) * a - 2.0 * math.sqrt(math.pi) * erfcx(x))
    f = 2.0 * math.sqrt(2.0 / math.pi) * (k1e(z) - k0e(z)) / a**3
    return r, f


def rf_mpmath(a):
    """The same closed forms at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.mpf(a)
        x, z = mp.sqrt(2) / a, 1 / a**2
        erfcx = mp.exp(x * x) * mp.erfc(x)
        r = 2 * mp.sqrt(2) / a**3 * (mp.sqrt(2) * a - 2 * mp.sqrt(mp.pi) * erfcx)
        f = 2 * mp.sqrt(2 / mp.pi) * mp.exp(z) * (mp.besselk(1, z) - mp.besselk(0, z)) / a**3
        return float(r), float(f)


def test_r_and_f_meet_closed_forms_over_the_whole_domain():
    # scalar calls and one array call; a column scaled only to O(1), not to
    # _LOG_UNIT, reads 3.8e-13 here. A float, np.float64 or 0-d a gives a float.
    avals = (0.0,) + RF_MPMATH_A + RF_CLOSED_FORM_A
    refs = [(1.0, 1.0)] + [rf_mpmath(a) for a in RF_MPMATH_A]
    refs += [rf_closed_form(a) for a in RF_CLOSED_FORM_A]
    r_grid, f_grid = r_function(np.array(avals)), f_function(np.array(avals))
    for a, (r_ref, f_ref), r_col, f_col in zip(avals, refs, r_grid, f_grid):
        r, f = r_function(a), f_function(a)
        for point in (np.float64(a), np.array(a)):
            assert (r_function(point), f_function(point)) == (r, f)
            assert type(r_function(point)) is type(f_function(point)) is float
        pairs = ((r, r_ref), (r_col, r_ref), (f, f_ref), (f_col, f_ref))
        for got, ref in pairs:
            assert abs(got - ref) <= 1e-14 * ref, (a, got, ref)


def test_closed_form_oracle_agrees_with_mpmath():
    for a in (0.5, 2.0, 1e4):
        np.testing.assert_allclose(rf_closed_form(a), rf_mpmath(a), rtol=2e-15, atol=0)


def test_r_and_f_beyond_the_window_raise():
    # R's weight reaches down to s ~ 1/a^2, past the rule's window beyond
    # about a = 3e19; a^2 overflows from 1.4e154 on. Each failure carries a
    # bound, inf where the rule cannot start. F has a window of its own and
    # stays right at the same a.
    assert r_function(1e19) == pytest.approx(4e-38, rel=1e-14)
    for a in (1e20, 1e25, 1e30, 1e100, 1e153, 1e200):
        with pytest.raises(ConvergenceError) as exc:
            r_function(a)
        assert not math.isnan(exc.value.error_bound), a
        f_ref = rf_mpmath(a)[1]
        assert abs(f_function(a) - f_ref) <= 2e-15 * f_ref, a


@pytest.mark.parametrize("fn, row", [(r_function, 0), (f_function, 1)])
def test_r_and_f_report_failure_in_their_own_units(fn, row):
    # the rule sums R's column scaled by _LOG_UNIT (1 + a^2/4); the bound it
    # reports is in units of R. F is right at the same a.
    a = 1e21
    if fn is f_function:
        f_ref = rf_mpmath(a)[1]
        assert abs(fn(a) - f_ref) <= 2e-15 * f_ref
        return
    value = rf_closed_form(a)[row]
    with pytest.raises(ConvergenceError) as exc:
        fn(a)
    assert 0.0 < exc.value.error_bound < value
    assert exc.value.reason.startswith("log-trapezoid rule")
    assert exc.value.reason in str(exc.value)
    # the array call on the same a reports the same failure
    with pytest.raises(ConvergenceError) as both:
        r_function(np.array([a]))
    assert both.value.error_bound == exc.value.error_bound
    assert both.value.reason == exc.value.reason


def _right_or_raises(call, refs) -> bool:
    """Whether call() returns; what it returns must be within 2e-15 of refs
    at every entry, and a raise a ConvergenceError whose bound is not NaN."""
    try:
        got = np.asarray(call(), dtype=float)
    except ConvergenceError as exc:
        assert not math.isnan(exc.error_bound)
        return False
    refs = np.asarray(refs)
    assert np.all(np.abs(got - refs) <= 2e-15 * refs), (got, refs)
    return True


# a log-uniform over [1e-3, 1.7e308], and 0
_SWEEP_A = st.one_of(st.just(0.0), st.floats(-3.0, math.log10(1.7e308)).map(lambda k: 10.0**k))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(_SWEEP_A, min_size=1, max_size=2))
@example([1e153])  # F's last decade that must be right
@example([1.4e154, 3e19])  # a^2 overflows; R's window ends
@example([1.7e304, 1.8e304])  # F's scale overflows
@example([1.7e308])
def test_r_and_f_are_right_or_raise_over_the_whole_domain(avals):
    # a RuntimeWarning fails the test (pyproject's filterwarnings)
    refs = np.array([rf_mpmath(a) if a > 0 else (1.0, 1.0) for a in avals])
    for col, fn in ((0, r_function), (1, f_function)):
        calls = [(lambda a=a: fn(a), ref) for a, ref in zip(avals, refs[:, col])]
        calls.append((lambda: fn(np.array(avals)), refs[:, col]))
        returned = [_right_or_raises(call, ref) for call, ref in calls]
        if col == 1 and max(avals) <= 1e153:
            assert all(returned)  # F is right on all of [0, 1e153]


def test_packet_width_basics():
    assert packet_width(ObservableInputs(sigma=1.7, a=0.4, t=0.0)) == 1.7**2
    w_plus = packet_width(ObservableInputs(sigma=1.0, a=1.0, t=1.5))
    w_minus = packet_width(ObservableInputs(sigma=1.0, a=1.0, t=-1.5))
    assert w_plus == w_minus
    widths = [packet_width(ObservableInputs(sigma=1.0, a=1.0, t=t)) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    assert widths[-1] == pytest.approx(WIDTH_A1_T2, rel=1e-8)


@pytest.mark.parametrize(
    "kwargs, what",
    [
        (dict(sigma=1e-300), "packet width"),  # (a / sigma)^2 overflows under **
        (dict(sigma=1e200, t=1.0), "packet width"),  # so does sigma^2
        (dict(sigma=1e-200, a=1e-100, t=1e300), "packet width"),  # 0 * inf
        (dict(units="physical", c=1e200, lambda_c=1.0, sigma=1.0, a=1.0, t=1e200), "commutator"),
    ],
)
def test_observables_past_float_range_are_value_errors(kwargs, what):
    inputs = ObservableInputs(**kwargs)
    with pytest.raises(ValueError, match=f"^the {what} is past float range at sigma = "):
        (commutator_xt_x0 if what == "commutator" else packet_width)(inputs)


def test_packet_width_keeps_its_bits_near_float_range():
    # the ** arithmetic is unchanged wherever the width is a float
    for sigma, a, t in [(1e-150, 1.0, 0.0), (1e150, 1.0, 3.0), (0.3, 2.0, 1e100)]:
        r = r_function(a)
        want = sigma**2 * (1.0 + 0.25 * (a / sigma) ** 2 * r * (1.0 * t) ** 2)
        assert packet_width(ObservableInputs(sigma=sigma, a=a, t=t)) == want


def test_packet_width_small_a_uses_nonrelativistic_spread():
    a = 1e-6
    w = packet_width(ObservableInputs(sigma=1.0, a=a, t=3.0))
    assert w == pytest.approx(1.0 + 0.25 * a * a * 9.0, rel=1e-9)


def test_commutator_values():
    assert commutator_xt_x0(ObservableInputs(sigma=1.0, a=1.0, t=0.0)) == 0.0
    # a -> 0: F -> 1 and the commutator tends to -i c t lambda_c
    small = commutator_xt_x0(ObservableInputs(sigma=1.0, a=1e-12, t=0.7))
    assert small == pytest.approx(-0.7j, abs=1e-9)
    got = commutator_xt_x0(ObservableInputs(sigma=1.0, a=1.5, t=2.0))
    assert got == pytest.approx(-2j * f_function(1.5), abs=1e-14)


def test_commutator_in_physical_units():
    inputs = ObservableInputs(sigma=2.0, a=0.5, t=0.4, units="physical", c=3.0, lambda_c=1.0)
    got = commutator_xt_x0(inputs)
    assert got == pytest.approx(-1j * f_function(0.5) * 3.0 * 0.4, abs=1e-14)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(units="si"), "units"),
        (dict(sigma=0.0), "sigma"),
        (dict(a=0.0), "a must be positive"),
        (dict(a=-1.0), "a must be positive"),
        (dict(t=math.inf), "finite"),
        (dict(c=2.0), "normalized"),
        (
            dict(units="physical", c=0.0, lambda_c=1.0, sigma=1.0, a=1.0),
            "c and lambda_c must be positive",
        ),
        (dict(units="physical", c=1.0, lambda_c=1.0, sigma=2.0, a=0.3), "inconsistent"),
    ],
)
def test_observable_inputs_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ObservableInputs(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=math.nan),
        dict(sigma=math.inf),
        dict(a=math.nan),
        dict(a=math.inf),
        dict(units="physical", c=math.nan, lambda_c=1.0, sigma=1.0, a=1.0),
        dict(units="physical", c=1.0, lambda_c=math.nan, sigma=1.0, a=1.0),
    ],
)
def test_observable_inputs_reject_nonfinite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ObservableInputs(**kwargs)


def test_linear_potential_trajectory():
    assert linear_potential_trajectory(1.3, 2.0, 0.5, 0.0) == 1.3
    free = linear_potential_trajectory(0.0, 2.0, 0.0, 1.2)
    assert free == 1.2 * (2.0 / math.sqrt(5.0))
    nearly_free = linear_potential_trajectory(0.0, 2.0, 1e-8, 1.2)
    assert nearly_free == pytest.approx(free, abs=1e-6)
    # ultrarelativistic: the velocity saturates at c = 1
    x = linear_potential_trajectory(0.5, 100.0, 1.0, 1.0)
    assert abs(x - 0.5 - 1.0) <= 0.01


def test_linear_potential_trajectory_past_the_square_of_p():
    # (p0 + t f)^2 would overflow; the cancellation-free form does not: each
    # packet moves at the speed of light, in the direction of its momentum
    assert linear_potential_trajectory(0.0, 1e200, 1.0, 1.0) == 1.0
    assert linear_potential_trajectory(0.0, -1e200, 1e-200, 1.0) == -1.0
    # 2 p0 and E(p0 + t f) + E(p0) would overflow; their halves do not
    assert linear_potential_trajectory(0.0, 1e308, 1.0, 1.0) == 1.0
    assert linear_potential_trajectory(0.0, -1e308, 1.0, 1.0) == -1.0
    # f = 0 is the free drift t times the velocity p0 / sqrt(1 + p0^2), bit for bit
    for x0, p0, t in [(0.3, 2.0, 1.2), (-1.0, 1e-8, 3.0), (0.0, -7.5, 0.4), (2.0, 1e200, 1.0)]:
        assert linear_potential_trajectory(x0, p0, 0.0, t) == x0 + t * (p0 / math.hypot(1.0, p0))


# signed and log-uniform over [1e-310, 1.78e308], and 0
_SWEEP_SIGNED = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-310.0, 308.25)).map(lambda p: p[0] * 10.0 ** p[1]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_SWEEP_SIGNED, _SWEEP_SIGNED, _SWEEP_SIGNED, _SWEEP_SIGNED)
@example(0.0, 5.0569428647527015e57, 3.2400614175234805e131, 1.4584207669834623e140)  # t (p0 + t f/2)
@example(4.597727912037563e-293, -1.7145726258820057e-305, 3.0940001721480764e91,
         1.4515020319663758e89)  # the worst seen: 3.3e-16
@example(0.0, 9.087232033207658e-159, -5.890185100629449e-273, -2.4230364170246136e-166)  # x underflows
@example(0.0, 1.0, 1e300, 1e300)  # t f past float range
def test_linear_potential_trajectory_is_right_over_the_whole_domain(x0, p0, force, t):
    # to 8e-16 of the size of the terms, |x0| + |t| (|p0| + |t f|/2) / mean E,
    # plus a unit of the smallest subnormal; the worst of 60,000 log-uniform
    # draws was 3.3e-16. A refusal only where t f, E(p0 + t f) or x(t) is past
    # float range, give or take its rounding (t (p0 + t f/2) alone may be)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x0_, p0_, t_ = map(mp.mpf, (x0, p0, t))
        tf = t_ * force
        e1, e0 = mp.sqrt(1 + (p0_ + tf) ** 2), mp.sqrt(1 + p0_**2)
        ref = x0_ + t_ * (2 * p0_ + tf) / (e1 + e0)
        size = abs(x0_) + abs(t_) * (abs(p0_) + abs(tf) / 2) / ((e1 + e0) / 2)
        try:
            got = linear_potential_trajectory(x0, p0, force, t)
        except ValueError:
            assert max(abs(tf), e1, abs(ref)) * (1 + 1e-15) > sys.float_info.max
            return
        assert abs(got - ref) <= 8e-16 * size + 5e-324, (got, ref)


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 1e300, 1e300), (1e308, 1.0, 1.0, 1e308), (0.0, 1.7e308, 1e308, 1.0),
     (0.0, 1e308, 1e308, 1.0)],
)
def test_linear_potential_trajectory_refuses_overflow(args):
    # t f, E(p0 + t f) or x(t) past float range: an error, not inf, and not
    # the 0 that a finite numerator over an infinite E would read
    with pytest.raises(ValueError, match="^the trajectory is past float range at x0 = .*, t = "):
        linear_potential_trajectory(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_linear_potential_trajectory_rejects_nonfinite_arguments(slot, bad):
    args = [0.0, 2.0, 0.5, 1.2]
    args[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        linear_potential_trajectory(*args)

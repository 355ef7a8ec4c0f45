"""Field container, subordination weight, heat smoothing, Laplace powers."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoflow import (
    ConvergenceError,
    Field,
    QuadratureConfig,
    doetsch_weight,
    exp_sqrt_via_doetsch,
    gauss_weierstrass,
    glaisher,
    integrate_halfline,
    laplace_inv_power,
    solve_pseudoheat,
)
from pseudoflow import cli
from pseudoflow.errors import TruncationError
from pseudoflow.transforms import _homogeneous

INV_SQUARE = QuadratureConfig(halfline_rule="inverse_square_substitution")


def gaussian_field(x_min=-18.0, x_max=18.0, n=1201):
    return Field.from_function(x_min, x_max, n, lambda x: np.exp(-(x**2)))


# ----------------------------------------------------------------------
# Field container


def test_field_grid_and_spacing():
    f = Field.from_function(-2.0, 3.0, 11, lambda x: x)
    assert f.x[0] == -2.0
    assert f.x[-1] == 3.0
    assert f.dx == pytest.approx(0.5, abs=0)
    np.testing.assert_allclose(f.values, f.x, rtol=0, atol=0)


def test_field_values_are_read_only():
    f = gaussian_field(n=33)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(x_min=1.0, x_max=1.0, n=8, values=np.zeros(8)), "x_min"),
        (dict(x_min=2.0, x_max=-2.0, n=8, values=np.zeros(8)), "x_min"),
        (dict(x_min=math.nan, x_max=1.0, n=8, values=np.zeros(8)), "finite"),
        (dict(x_min=0.0, x_max=1.0, n=7, values=np.zeros(7)), "at least 8"),
        (dict(x_min=0.0, x_max=1.0, n=8, values=np.zeros(9)), "shape"),
        (dict(x_min=0.0, x_max=1.0, n=8, values=np.zeros((2, 4))), "shape"),
        (dict(x_min=0.0, x_max=1.0, n=8, values=np.full(8, np.inf)), "finite"),
        (
            dict(x_min=0.0, x_max=1.0, n=8, values=np.full(8, 1 + 1j * np.nan)),
            "finite",
        ),
        (dict(x_min=0.0, x_max=1.0, n=8.0, values=np.zeros(8)), "integer"),
        (dict(x_min=0.0, x_max=1.0, n=True, values=np.zeros(1)), "integer"),
    ],
)
def test_field_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Field(**kwargs)


@pytest.mark.parametrize(
    "values", [[1, 0, -2, 3, 0, 5, 1, [1.0]], [1, [1.0, 2.0]], [[1.0], 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]
)
def test_field_refuses_a_ragged_sequence_by_name(values):
    # np.shape raised numpy's "inhomogeneous shape" ValueError, which names
    # no parameter; require words it as every other ragged argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refusal:
            Field(-8.0, 8.0, 8, values)
    assert str(refusal.value) == "values must be a number or 1-D"


def test_field_with_values_accumulates_warnings():
    f = Field(0.0, 1.0, 8, np.zeros(8), warnings=("first",))
    g = f.with_values(np.ones(8), extra_warnings=("second",), meta={"err": 0.5})
    assert g.warnings == ("first", "second")
    assert g.meta == {"err": 0.5}
    assert f.values[0] == 0.0  # original untouched


def test_field_boundary_leak_detection():
    both = "op: input is not negligible at the grid boundary"
    assert gaussian_field().leak_warnings("op") == ()
    cut_both = Field.from_function(-2.0, 2.0, 65, lambda x: np.exp(-(x**2)))
    assert cut_both.leak_warnings("op") == (both,)
    assert Field(0.0, 1.0, 8, np.zeros(8)).leak_warnings("op") == ()
    # one edge at a time: e^{-x^2} on [0, 8] is cut on the left only, and
    # on [-8, 0] on the right only
    one = ("op: data shifted past the {} grid edge is zero-extended but the boundary "
           "sample is not negligible")
    cut_left = Field.from_function(0.0, 8.0, 65, lambda x: np.exp(-(x**2)))
    cut_right = Field.from_function(-8.0, 0.0, 65, lambda x: np.exp(-(x**2)))
    for f, cut, clear in ((cut_left, "left", "right"), (cut_right, "right", "left")):
        assert f.leak_warnings("op", cut) == (one.format(cut),)
        assert f.leak_warnings("op", clear) == ()
        assert f.leak_warnings("op") == (both,)
    assert Field(0.0, 1.0, 8, np.zeros(8)).leak_warnings("op", "left") == ()


@pytest.mark.parametrize("side", ["up", "", "LEFT", 0, ["left"]])
def test_leak_warnings_refuses_a_side_it_does_not_name(side):
    # "up" raised a bare KeyError from the table of edges
    with pytest.raises(ValueError, match="^side must be one of left or right$"):
        gaussian_field().leak_warnings("op", side)


@pytest.mark.parametrize("scale", [1e308, 1.5e308])
def test_leak_warning_on_complex_data_past_the_largest_float_in_modulus(scale):
    # at 1.5e308 (1 + i) the peak's modulus rounds to inf, and the edge test
    # edge > 1e-8 inf read False: no warning, where 1e308 (1 + i) warned.
    # Halved, exactly, edge and peak stay in range and compare as before.
    def data(width):
        return lambda x: scale * (1.0 + 1.0j) * np.exp(-((x / width) ** 2))

    f = Field.from_function(-8.0, 8.0, 64, data(2.0))
    out = gauss_weierstrass(f, 0.5)
    assert out.warnings == ("gauss_weierstrass: input is not negligible at the grid boundary",)
    assert f.leak_warnings("op", "left") != ()
    assert Field.from_function(-8.0, 8.0, 64, data(1.0)).leak_warnings("op") == ()


# ----------------------------------------------------------------------
# doetsch_weight


def test_doetsch_weight_is_normalized():
    res = integrate_halfline(lambda t: doetsch_weight(t), INV_SQUARE)
    assert res.value.real == pytest.approx(1.0, rel=1e-10)


def test_doetsch_weight_vanishes_at_the_origin():
    # the essential singularity e^{-1/(4t)} beats every power of t, also
    # where t^{-3/2} overflows (t below about 1e-206): 0, not inf * 0 = NaN,
    # and no numpy warning
    assert doetsch_weight(1e-4) == 0.0
    assert doetsch_weight(5e-3) < 1e-18
    w = doetsch_weight(np.array([1e-3, 1e-2, 1e-1]))
    assert np.all(np.diff(w) > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert doetsch_weight(1e-300) == 0.0
        assert doetsch_weight(5e-324) == 0.0
        w = doetsch_weight(np.array([1e-300, 1e-200, 1.0]))
    assert w[0] == w[1] == 0.0 and w[2] == doetsch_weight(1.0)


def test_doetsch_weight_scalar_and_array_forms():
    scalar = doetsch_weight(0.7)
    assert isinstance(scalar, float)
    arr = doetsch_weight(np.array([0.7, 1.3]))
    assert arr.shape == (2,)
    assert arr[0] == scalar


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_doetsch_weight_rejects_bad_arguments(t):
    with pytest.raises(ValueError, match="positive and finite"):
        doetsch_weight(t)


def test_doetsch_weight_first_moment_diverges():
    # t * w(t) ~ t^{-1/2} for large t: no finite first moment, and the
    # quadrature must refuse rather than return a number
    with pytest.raises(ConvergenceError):
        integrate_halfline(lambda t: t * doetsch_weight(t), INV_SQUARE)


# ----------------------------------------------------------------------
# exp_sqrt_via_doetsch


@pytest.mark.parametrize("form", ["t_form", "xi_form"])
@pytest.mark.parametrize("x, y", [(1.0, 1.0), (2.0, 4.0), (0.0, 3.0), (1.5, 0.0)])
def test_exp_sqrt_matches_closed_form(form, x, y):
    got = exp_sqrt_via_doetsch(x, y, form=form)
    assert got == pytest.approx(math.exp(-x * math.sqrt(y)), rel=1e-9)


def test_exp_sqrt_dual_forms_agree():
    t_val = exp_sqrt_via_doetsch(0.7, 2.3, form="t_form")
    xi_val = exp_sqrt_via_doetsch(0.7, 2.3, form="xi_form")
    assert abs(t_val - xi_val) <= 1e-10


def test_exp_sqrt_is_multiplicative_in_x():
    # e^{-(x1+x2) sqrt(y)} = e^{-x1 sqrt(y)} e^{-x2 sqrt(y)}
    y = 1.7
    joint = exp_sqrt_via_doetsch(0.6 + 0.9, y)
    split = exp_sqrt_via_doetsch(0.6, y) * exp_sqrt_via_doetsch(0.9, y)
    assert joint == pytest.approx(split, rel=1e-9)


def test_exp_sqrt_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        exp_sqrt_via_doetsch(-1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        exp_sqrt_via_doetsch(1.0, -2.0)
    with pytest.raises(ValueError, match="^form must be one of t_form or xi_form$"):
        exp_sqrt_via_doetsch(1.0, 1.0, form="s_form")


@pytest.mark.parametrize(
    "x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
)
def test_exp_sqrt_rejects_nonfinite_arguments(x, y):
    with pytest.raises(ValueError, match="finite"):
        exp_sqrt_via_doetsch(x, y)


# ----------------------------------------------------------------------
# gauss_weierstrass


def test_gauss_weierstrass_matches_closed_form():
    f = gaussian_field()
    out = gauss_weierstrass(f, 2.0)
    sel = np.abs(f.x) <= 3.0
    np.testing.assert_allclose(out.values[sel], glaisher(2.0, f.x[sel]), rtol=0, atol=1e-9)
    assert out.warnings == ()


def test_gauss_weierstrass_preserves_constants():
    f = Field.from_function(-10.0, 10.0, 257, lambda x: np.full_like(x, 3.5))
    out = gauss_weierstrass(f, 0.5)
    # kernel std is sqrt(2 alpha) = 1; stay 7 sigma clear of the cut edges
    sel = np.abs(f.x) <= 3.0
    np.testing.assert_allclose(out.values[sel], 3.5, rtol=1e-9)
    # a constant visibly truncates at the edges and must say so
    assert any("boundary" in w for w in out.warnings)


def test_gauss_weierstrass_conserves_mass():
    f = gaussian_field()
    out = gauss_weierstrass(f, 1.3)
    mass_in = np.trapezoid(f.values, f.x)
    mass_out = np.trapezoid(out.values, f.x)
    assert mass_out == pytest.approx(mass_in, rel=1e-9)


def test_gauss_weierstrass_semigroup():
    f = gaussian_field()
    twice = gauss_weierstrass(gauss_weierstrass(f, 0.3), 0.5)
    once = gauss_weierstrass(f, 0.8)
    sel = np.abs(f.x) <= 8.0
    np.testing.assert_allclose(twice.values[sel], once.values[sel], rtol=0, atol=1e-8)


@pytest.mark.parametrize("alpha", [0.0, -0.4])
def test_gauss_weierstrass_rejects_nonpositive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        gauss_weierstrass(gaussian_field(n=33), alpha)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_gauss_weierstrass_rejects_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        gauss_weierstrass(gaussian_field(n=33), alpha)


def test_gauss_weierstrass_warns_when_under_resolved():
    # A kernel width far below h = 0.1 used to alias and carry a warning;
    # the band-limited kernel resolves it, so there is nothing to warn about.
    f = Field.from_function(-10.0, 10.0, 201, lambda x: np.exp(-(x**2)))
    out = gauss_weierstrass(f, 1e-3)
    assert np.max(np.abs(out.values - glaisher(1e-3, f.x))) <= 1e-13
    assert out.warnings == ()


@pytest.mark.parametrize("alpha", [3e-307, 1e-320, 5e-324])
def test_gauss_weierstrass_at_the_tiniest_widths(alpha):
    # the sampled kernel's exponent lag^2 / (4 alpha) overflows below about
    # 3.6e-307 on [-8, 8], which leaked numpy's "overflow encountered in
    # divide" (an error in this suite); the band-limited kernel, which
    # replaces that column, is e^0 = 1 at every node from alpha = 1e-300 on
    f = Field.from_function(-8.0, 8.0, 64, lambda x: np.exp(-(x**2)))
    expected = gauss_weierstrass(f, 1e-300).values
    assert np.array_equal(gauss_weierstrass(f, alpha).values, expected)
    assert np.max(np.abs(expected - f.values)) <= 1e-13


@pytest.mark.parametrize("alpha", [5.8e307, 1e308, np.finfo(float).max])
def test_gauss_weierstrass_past_max_over_pi(alpha):
    # pi alpha overflowed: numpy's "overflow encountered in multiply" (an
    # error in this suite), then exact zeros for a value of about
    # 1/(2 sqrt(alpha)) times the data's mass sqrt(pi) / sqrt(pi)
    f = Field.from_function(-8.0, 8.0, 64, lambda x: np.exp(-(x**2)))
    out = gauss_weierstrass(f, alpha).values
    np.testing.assert_allclose(out, 0.5 / math.sqrt(alpha), rtol=1e-13)
    # widths below max / pi keep the one-step norm
    below = gauss_weierstrass(f, 5.7e307).values
    expected = f.values.sum() * f.dx / (2.0 * np.sqrt(math.pi * 5.7e307))
    np.testing.assert_allclose(below, expected, rtol=1e-13)


def test_gauss_weierstrass_meets_glaisher_below_the_grid_spacing():
    # alpha = 0.01 < h^2 = 0.063: the sampled heat kernel missed by 4.9e-3
    f = Field.from_function(-16.0, 16.0, 128, lambda x: np.exp(-(x**2)))
    out = gauss_weierstrass(f, 0.01)
    assert np.max(np.abs(out.values - glaisher(0.01, f.x))) <= 1e-13


def test_gauss_weierstrass_is_linear_over_complex_data():
    f = gaussian_field(n=601)
    g = f.with_values((1.0 + 2.0j) * f.values)
    out_f = gauss_weierstrass(f, 0.9)
    out_g = gauss_weierstrass(g, 0.9)
    np.testing.assert_allclose(out_g.values, (1.0 + 2.0j) * out_f.values, atol=1e-13)


def _coarse_edge(values):
    # step 100/63 = 1.59, so near the largest float the fold's sums h (f_i + f_j) overflow
    return Field.from_function(-50.0, 50.0, 64, values)


_FOLD_ROUTES = {
    "gauss_weierstrass": gauss_weierstrass,
    "heat integral": lambda f, tau: cli._SOLVERS["heat", "integral"](f, tau, None),
    "solve_pseudoheat": solve_pseudoheat,
}


@pytest.mark.parametrize("route", sorted(_FOLD_ROUTES))
def test_smoothing_fold_near_the_largest_float_on_a_coarse_step(route):
    # the fold's sums wf[i - k] + wf[i + k] overflowed: numpy's "overflow
    # encountered in add" and "invalid value encountered in matmul" (errors
    # in this suite), then "values must be finite"; the flow is linear, and
    # the data scaled by 2^-8 give the same result to rounding
    call = _FOLD_ROUTES[route]
    f = _coarse_edge(lambda x: 1e308 * np.exp(-((x / 20) ** 2)))
    out = call(f, 0.5).values
    scaled = call(f.with_values(f.values * 2.0**-8), 0.5).values * 2.0**8
    assert np.max(np.abs(out - scaled)) <= 1e-15 * np.max(np.abs(scaled))
    assert np.max(np.abs(out)) < np.max(f.values)


def test_smoothing_fold_refuses_a_result_past_float_range():
    # constant data at the largest float: the sampled kernel's sum on this
    # coarse step is above 1, so the smoothed values leave float range
    f = _coarse_edge(lambda x: np.full_like(x, np.finfo(float).max))
    with pytest.raises(ValueError, match=r"^the Gauss-Weierstrass smoothing is past float range at "
                       r"alpha = 0\.5, peak = 1\.7976931348623157e\+308$"):
        gauss_weierstrass(f, 0.5)


# ----------------------------------------------------------------------
# glaisher


def test_glaisher_alpha_zero_is_the_bare_gaussian():
    x = np.linspace(-3.0, 3.0, 25)
    np.testing.assert_allclose(glaisher(0.0, x), np.exp(-(x**2)), rtol=1e-15)


def test_glaisher_smoothed_peak_value():
    assert glaisher(2.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_glaisher_matches_grid_convolution():
    f = gaussian_field()  # h = 0.03, so x = 1.2 sits on the grid
    out = gauss_weierstrass(f, 0.6)
    idx = int(round((1.2 - f.x_min) / f.dx))
    assert f.x[idx] == pytest.approx(1.2, abs=1e-12)
    assert out.values[idx] == pytest.approx(glaisher(0.6, 1.2), abs=1e-9)


def test_glaisher_keeps_probability_shape():
    x = np.linspace(-6.0, 6.0, 241)
    v = glaisher(0.7, x)
    assert np.all(v > 0)
    np.testing.assert_allclose(v, v[::-1], rtol=1e-14)
    assert np.argmax(v) == x.size // 2
    assert isinstance(glaisher(0.7, 1.0), float)


def test_glaisher_far_tail_is_zero_without_warning():
    # x^2 passes float range where the Gaussian has long underflowed; the
    # suite turns a RuntimeWarning into an error
    assert glaisher(0.3, 1e200) == 0.0
    out = glaisher(0.3, np.array([0.0, 1e200, -1e160, 2.0]))
    np.testing.assert_array_equal(out[1:3], [0.0, 0.0])
    assert out[0] == pytest.approx(1.0 / math.sqrt(2.2), rel=1e-15)
    assert out[3] == glaisher(0.3, 2.0)
    # x^2 finite, x^2 / s not: the same zero
    assert glaisher(-0.25 + 2.0**-54, 1e150) == 0.0


@pytest.mark.parametrize("alpha", [-0.25, -1.0])
def test_glaisher_rejects_collapsed_width(alpha):
    with pytest.raises(ValueError, match="1 \\+ 4\\*alpha"):
        glaisher(alpha, 0.5)


@pytest.mark.parametrize(
    "alpha, x",
    [
        (math.nan, 0.5), (math.inf, 0.5), (0.3, math.nan), (0.3, -math.inf),
        (0.3, np.array([0.0, math.inf])),
    ],
)
def test_glaisher_rejects_nonfinite_arguments(alpha, x):
    with pytest.raises(ValueError, match="finite"):
        glaisher(alpha, x)


# ----------------------------------------------------------------------
# laplace_inv_power


@pytest.mark.parametrize(
    "nu, a",
    [(1.0, 2.0), (0.5, 4.0), (1.75, 3.3), (3.0, 0.7)]
    # the weight of e^{-as} s^{nu-1} lies near s ~ nu/a, here far to both
    # sides of s = 1, and its left tail falls like s^nu
    + list(itertools.product((0.05, 0.1, 0.3, 0.5, 1.0, 2.5, 7.0, 20.0),
                             (1e-8, 1e-4, 1e-2, 1.0, 1e3, 1e5, 1e8))),
)
def test_laplace_inv_power_reproduces_powers(nu, a):
    assert laplace_inv_power(nu, a) == pytest.approx(a**-nu, rel=1e-13)


def test_laplace_inv_power_past_float_range_is_a_value_error():
    # 1e-8 ** -50 = 1e400
    with pytest.raises(ValueError, match="float range"):
        laplace_inv_power(50.0, 1e-8)
    assert laplace_inv_power(100.0, 1e8) == 0.0  # 1e-800 rounds to zero


@pytest.mark.parametrize("nu, a", [(1e4, 1.0), (1e-3, 1e-3), (1e-3, 7.0)])
def test_laplace_inv_power_reports_failure_in_its_own_units(nu, a):
    # peaks too sharp for the finest step: the last estimate and its error
    # bound are values of a^{-nu}, not of the rule's scaled integral
    with pytest.raises(ConvergenceError, match="did not converge") as exc:
        laplace_inv_power(nu, a)
    power = a**-nu
    assert abs(exc.value.estimate - power) <= exc.value.error_bound < 1e-2 * power
    assert f"(last estimate {exc.value.estimate}, error bound" in str(exc.value)
    if nu == 1e4:
        assert exc.value.estimate == pytest.approx(1.0, rel=0.0, abs=1e-9)


def test_laplace_inv_power_validation():
    with pytest.raises(ValueError, match="nu must be positive"):
        laplace_inv_power(0.0, 1.0)
    with pytest.raises(ValueError, match="nu must be positive"):
        laplace_inv_power(-0.5, 1.0)
    with pytest.raises(ValueError, match="a must be positive"):
        laplace_inv_power(1.0, 0.0)
    with pytest.raises(ValueError, match="a must be positive"):
        laplace_inv_power(2.0, -3.0)


@pytest.mark.parametrize(
    "nu, a", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
)
def test_laplace_inv_power_rejects_nonfinite_arguments(nu, a):
    with pytest.raises(ValueError, match="finite"):
        laplace_inv_power(nu, a)


def _seen_by(f, fail=None):
    """The data and tau that _homogeneous hands its run for f, and what it
    returns or raises, where the run returns its data doubled or raises
    ``fail``."""
    seen = []

    def run(g, tau):
        seen.append((g.values, tau))
        if fail is not None:
            raise fail
        return g.with_values(2.0 * g.values, ("run",), {"quadrature_error": 0.75})

    try:
        out = _homogeneous(run, f, "the map", tau=0.5)
    except Exception as exc:  # the outcome to compare
        out = exc
    [(data, tau)] = seen
    assert tau == 0.5
    return data, out


def test_homogeneous_runs_data_in_its_range_as_they_are():
    # a peak in [2^-500, 2^500], or no peak at all: the run sees the very
    # data, and what it returns or raises comes back unchanged
    f = gaussian_field(-4.0, 4.0, 17)  # peak 1
    for scale in (0.0, 2.0**-500, 1.0, 2.0**500):
        data, out = _seen_by(f.with_values(scale * f.values))
        assert np.array_equal(data, scale * f.values)
        assert np.array_equal(out.values, 2.0 * scale * f.values) and out.meta == {"quadrature_error": 0.75}
    for fail in (ConvergenceError("no convergence", estimate=1.0, error_bound=0.5),
                 TruncationError("no tail", last_term=3.0, n_used=4)):
        assert _seen_by(f, fail)[1] is fail


def test_homogeneous_scales_data_past_its_range_exactly():
    # past either end the run sees the data times 2^-e, whose peak lies in
    # [1, 2), and its values and meta numbers are scaled back by 2^e; a
    # failure comes as it came, in the scaled data's numbers
    f = gaussian_field(-4.0, 4.0, 16)  # peak e^{-(4/15)^2} = 0.93, exponent -1
    for e in (1000, 501, -500, -990):  # just past either end: 1.86 * 2^500, 0.93 * 2^-500
        big = f.with_values(np.ldexp(f.values, e))
        data, out = _seen_by(big)
        assert np.array_equal(data, 2.0 * f.values)
        assert np.array_equal(out.values, np.ldexp(2.0 * data, e - 1)), e
        assert out.warnings == ("run",) and out.meta == {"quadrature_error": math.ldexp(0.75, e - 1)}
        for fail in (ConvergenceError("no convergence", estimate=1.0, error_bound=0.5),
                     TruncationError("no tail", last_term=3.0, n_used=4)):
            assert _seen_by(big, fail)[1] is fail
    # complex data whose modulus passes the largest float take their
    # exponent from the largest part, 1.5e308 = 1.67 * 2^1023
    z = f.with_values(1.5e308 * (1.0 + 1.0j) * f.values / np.max(f.values))
    data, _ = _seen_by(z)
    assert np.array_equal(data, np.ldexp(z.values.real, -1023) + 1j * np.ldexp(z.values.imag, -1023))


def test_homogeneous_refuses_a_result_past_float_range():
    # the run doubles data at the largest float: no warning, and the refusal
    # names the inputs and the data's peak
    f = Field.from_function(-4.0, 4.0, 16, lambda x: np.full_like(x, np.finfo(float).max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out = _seen_by(f)
    assert type(out) is ValueError
    assert str(out) == "the map is past float range at tau = 0.5, peak = 1.7976931348623157e+308"


# ----------------------------------------------------------------------
# the scalar identities over their whole documented domains


def _right_or_refused(call, ref, bound) -> None:
    """call() is within ``bound`` of ref, where it returns; a ValueError only
    where ref is past float range; a ConvergenceError with a bound."""
    try:
        got = call()
    except ValueError:
        assert ref > 1.7976931348623157e308, ref
        return
    except ConvergenceError as exc:
        assert not math.isnan(exc.error_bound)
        return
    assert abs(got - ref) <= bound, (got, ref)


# signed and log-uniform over [1e-310, 1.78e308], and 0
_SWEEP_SIGNED = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-310.0, 308.25)).map(lambda p: p[0] * 10.0 ** p[1]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_SWEEP_SIGNED, st.floats(-16.0, -0.7).map(lambda k: -0.25 + 10.0**k)), _SWEEP_SIGNED)
@example(-0.2420352241701328, 4.7084428449030105)  # the worst seen: 2.8e-13, at q^2 = 690
@example(-0.24999999999999978, -8.022315810434526e-07)  # e^{-q^2} alone is subnormal
@example(6.050059849261204e-11, 26.618178671436777)  # a value just below the least normal
@example(1.1613247372764983e308, 2.373312516821943e104)  # 1 + 4 alpha is past float range
@example(1e307, 1e155)  # x^2 is past float range, x^2 / (1 + 4 alpha) = 2.5e2 is not
@example(-0.25, 1.0)
def test_glaisher_is_right_over_the_whole_domain(alpha, x):
    # relative, plus a unit of the smallest subnormal where the value is
    # subnormal or underflows to 0.0; the worst of 80,000 draws (log-uniform,
    # and with q^2 uniform on [0, 760]) was 2.8e-13
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = 1 + 4 * mp.mpf(alpha)
        if s <= 0:
            with pytest.raises(ValueError, match=r"^glaisher requires 1 \+ 4\*alpha > 0$"):
                glaisher(alpha, x)
            return
        ref = mp.exp(-mp.mpf(x) ** 2 / s) / mp.sqrt(s)
        got = glaisher(alpha, x)
        assert abs(got - ref) <= 4e-13 * ref + 5e-324, (got, ref)


# log-uniform over [1e-300, 1e300], and 0
_SWEEP_XY = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda k: 10.0**k))
# log-uniform over [0.05, 20]
_SWEEP_NU = st.floats(math.log10(0.05), math.log10(20.0)).map(lambda k: 10.0**k)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_SWEEP_XY, _SWEEP_XY)
@example(1.256446064574813e-07, 256.26508586857346)  # QUADPACK missed e^{-c/xi^2}'s dip
@example(1e200, 1.0)  # x^2 y overflows
@example(1e155, 0.0)  # x^2 overflows: inf * 0 is nan
@example(1e-162, 1e300)  # x^2 is subnormal, x sqrt(y) = 1e-12
@example(0.0, 0.0)
def test_exp_sqrt_is_right_over_the_whole_domain(x, y):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = float(mp.exp(-mp.mpf(x) * mp.sqrt(mp.mpf(y))))
    _right_or_refused(lambda: exp_sqrt_via_doetsch(x, y, "t_form"), ref, 3e-13)
    _right_or_refused(lambda: exp_sqrt_via_doetsch(x, y, "xi_form"), ref, 5e-10)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_SWEEP_NU, st.floats(-300.0, 300.0).map(lambda k: 10.0**k))
@example(0.2942748760220047, 3.0)  # the band of 1.8e-13
@example(5.941056653689657, 3.876141122586136e-52)  # a^-nu = 2.7e305: power * scaled overflows
@example(20.0, 1e-16)  # a^-nu = 1e320, past float range
@example(0.05, 1e300)  # a^-nu = 1e-15
def test_laplace_inv_power_is_right_over_the_whole_domain(nu, a):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ref = mp.mpf(a) ** -mp.mpf(nu)
    # relative where a^-nu is a float, and a few subnormal units below
    bound = 1e-12 * float(ref) + 1e-322
    _right_or_refused(lambda: laplace_inv_power(nu, a), ref, bound)

"""Hermite polynomials, Bessel J0/K0, and the integration engines."""
import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoflow
from conftest import child_env
from pseudoflow import special
from pseudoflow import (
    ConvergenceError,
    QuadratureConfig,
    bessel,
    hermite2,
    integrate_halfline,
    integrate_realline,
)

SQRT_PI = math.sqrt(math.pi)

# Independent evaluation of int_0^inf e^{-cosh t} dt (scipy.integrate.quad,
# reported error 1.4e-8); K0(1) must match it.
K0_ONE_INTEGRAL = 4.210244382406774e-01
# First positive zero of J0, from bisection against the power series.
J0_FIRST_ROOT = 2.404825557695773


# ----------------------------------------------------------------------
# hermite2


def _hermite2_sum(n, x, y):
    # defining sum, written via binomial coefficients rather than the
    # factorial ratio the library uses
    total = 0.0
    for k in range(n // 2 + 1):
        coeff = math.comb(n, 2 * k) * math.factorial(2 * k) // math.factorial(k)
        total += coeff * x ** (n - 2 * k) * y**k
    return total


def test_hermite2_order_zero_is_one():
    assert hermite2(0, 3.0, 2.0) == 1.0


def test_hermite2_quadratic():
    # H_2(x, y) = x^2 + 2y
    assert hermite2(2, 3.0, 2.0) == 13.0
    assert hermite2(2, -1.5, 0.25) == pytest.approx(2.75, abs=1e-14)


def test_hermite2_matches_defining_sum():
    got = hermite2(6, 1.7, -0.4)
    want = _hermite2_sum(6, 1.7, -0.4)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(-0.535631, abs=1e-12)


def test_hermite2_recurrence_switchover_consistent():
    """The recurrence matches the defining sum, in exact arithmetic, at n = 25."""
    # exact integer arithmetic for the defining sum at integer arguments
    n, x, y = 25, 3, 2
    exact = sum(
        math.factorial(n)
        // (math.factorial(n - 2 * k) * math.factorial(k))
        * x ** (n - 2 * k)
        * y**k
        for k in range(n // 2 + 1)
    )
    assert hermite2(n, float(x), float(y)) == pytest.approx(float(exact), rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    x=st.floats(min_value=-5, max_value=5),
    y=st.floats(min_value=-5, max_value=5),
)
def test_hermite2_recurrence(n, x, y):
    lhs = hermite2(n + 1, x, y)
    rhs = x * hermite2(n, x, y) + 2.0 * y * n * hermite2(n - 1, x, y)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermite2_gaussian_derivative_identity(n):
    """d^n/dx^n e^{a x^2} equals H_n(2ax, a) e^{a x^2}."""
    a, x = 0.3, 0.7

    def f(z):
        return math.exp(a * z * z)

    def fd(h):
        if n == 1:
            return (f(x + h) - f(x - h)) / (2 * h)
        if n == 2:
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
        if n == 3:
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
                2 * h**3
            )
        return (
            f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)
        ) / h**4

    h = 0.02
    richardson = (4.0 * fd(h / 2) - fd(h)) / 3.0
    want = hermite2(n, 2 * a * x, a) * f(x)
    assert abs(richardson - want) <= 1e-6 * max(1.0, abs(want))


def test_hermite2_rejects_bad_orders():
    with pytest.raises(ValueError):
        hermite2(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite2(2.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite2(True, 1.0, 1.0)
    with pytest.raises(OverflowError):
        hermite2(1001, 0.1, 0.1)


def test_hermite2_rejects_nonfinite_arguments():
    with pytest.raises(ValueError):
        hermite2(3, math.inf, 0.0)
    with pytest.raises(ValueError):
        hermite2(3, 0.0, math.nan)


def test_hermite2_accepts_large_orders():
    # the documented range guarantee: orders up to a few hundred evaluate
    # without tripping the factorial overflow of the defining sum, and the
    # cap, 1000, wherever the value stays in float range:
    # H_1000(0, y) = 1000! / 500! y^500
    assert math.isfinite(hermite2(200, 0.1, -0.2))
    want = math.exp(math.lgamma(1001) - math.lgamma(501) + 500 * math.log(1e-3))
    assert hermite2(1000, 0.0, 1e-3) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "n, x, y",
    [
        (1000, 1e10, 1.0), (2, 1e200, -1e300), (40, 1e10, -1e10), (200, 1e200, -1e200),
        (1000, 0.1, -0.2),
    ],
)
def test_hermite2_refuses_values_past_float_range(n, x, y):
    # these returned inf (the first two) or NaN (inf - inf) from inputs
    # inside the domain
    with pytest.raises(ValueError, match=rf"^H_n\(x, y\) is past float range at n = {n}, x = "):
        hermite2(n, x, y)


# ----------------------------------------------------------------------
# bessel


def test_j0_at_zero():
    assert bessel("J0", 0.0) == 1.0


def _j0_series(x):
    # power series sum((-x^2/4)^k / (k!)^2); plenty for |x| < 4
    term, total = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x) / 4.0 / (k * k)
        total += term
    return total


def test_j0_first_root():
    lo, hi = 2.0, 3.0
    assert bessel("J0", lo) > 0 > bessel("J0", hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel("J0", mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(J0_FIRST_ROOT, abs=1e-10)
    assert abs(_j0_series(root)) <= 1e-10


def test_j0_matches_power_series():
    for x in (0.3, 1.0, 2.4, 3.7):
        assert bessel("J0", x) == pytest.approx(_j0_series(x), abs=1e-12)


def test_j0_satisfies_bessel_equation():
    """|x f'' + f' + x f| small by high-order finite differences."""
    h = 5e-3
    for x in np.linspace(0.5, 20.0, 40):
        f = [bessel("J0", x + m * h) for m in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert abs(x * d2 + d1 + x * f[2]) <= 1e-8


def test_k0_matches_integral_representation():
    assert bessel("K0", 1.0) == pytest.approx(K0_ONE_INTEGRAL, abs=5e-8)


def test_k0_integral_recomputed_in_process():
    cfg = QuadratureConfig(halfline_rule="adaptive_subdivision")
    res = integrate_halfline(
        lambda t: math.exp(-math.cosh(t)) if t < 700.0 else 0.0, cfg
    )
    assert bessel("K0", 1.0) == pytest.approx(res.value.real, abs=1e-9)


def test_k0_domain_errors():
    with pytest.raises(ValueError):
        bessel("K0", 0.0)
    with pytest.raises(ValueError):
        bessel("K0", -1.0)


def test_bessel_unknown_kind():
    with pytest.raises(ValueError, match="^kind must be one of J0 or K0$"):
        bessel("Y0", 1.0)


def test_bessel_refuses_its_kind_before_scipy_loads(tmp_path):
    probe = (
        "import sys\n"
        "from pseudoflow import bessel\n"
        "try:\n"
        "    bessel('Y0', 1.0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["kind must be one of J0 or K0", "[]"]


def test_bessel_nonfinite_argument():
    with pytest.raises(ValueError):
        bessel("J0", math.inf)


# ----------------------------------------------------------------------
# half-line integration


def test_halfline_exponential():
    res = integrate_halfline(lambda s: math.exp(-s))
    assert res.value.real == pytest.approx(1.0, rel=1e-10)
    assert res.value.imag == 0.0
    assert res.error <= 1e-8
    assert complex(res) == res.value


def test_halfline_gamma_three_halves():
    # sqrt(s) kinks at the origin, so this goes to the adaptive rule
    cfg = QuadratureConfig(halfline_rule="adaptive_subdivision")
    res = integrate_halfline(lambda s: math.sqrt(s) * math.exp(-s), cfg)
    assert res.value.real == pytest.approx(SQRT_PI / 2.0, rel=1e-10)


@pytest.mark.parametrize("rule", ["inverse_square_substitution", "adaptive_subdivision"])
def test_halfline_subordination_kernel_normalization(rule):
    # int_0^inf t^{-3/2} e^{-1/(4t)} dt = 2 sqrt(pi); singular at t = 0
    cfg = QuadratureConfig(halfline_rule=rule)
    res = integrate_halfline(lambda t: t**-1.5 * math.exp(-0.25 / t), cfg)
    assert res.value.real == pytest.approx(2 * SQRT_PI, rel=1e-9)
    # an array-valued integrand (component by component under QUADPACK, on
    # shared nodes otherwise): int t^{-3/2} e^{-1/(4t) - t} dt = 2 sqrt(pi) / e
    res = integrate_halfline(
        lambda t: t**-1.5 * math.exp(-0.25 / t) * np.array([1.0, math.exp(-t)]), cfg
    )
    assert res.value.shape == (2,)
    np.testing.assert_allclose(res.value, [2 * SQRT_PI, 2 * SQRT_PI / math.e], rtol=1e-9)


def test_halfline_laguerre_rejects_singular_kernel():
    # same integrand as above: the Laguerre ladder cannot see the t -> 0
    # essential region and must admit it rather than return garbage
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_halfline(lambda t: t**-1.5 * math.exp(-0.25 / t - t * t))
    assert exc_info.value.error_bound is None or exc_info.value.error_bound > 0


def test_halfline_inverse_square_rejects_slow_tail():
    # e^{-s} has no t -> 0 decay after the substitution; the rule refuses
    cfg = QuadratureConfig(halfline_rule="inverse_square_substitution")
    with pytest.raises(ConvergenceError):
        integrate_halfline(lambda s: math.exp(-s), cfg)


def test_halfline_complex_integrand():
    res = integrate_halfline(lambda s: (1 + 2j) * math.exp(-s))
    assert res.value == pytest.approx(1 + 2j, rel=1e-10)


@pytest.mark.parametrize(
    "rule", ["gauss_laguerre", "adaptive_subdivision", "inverse_square_substitution"]
)
def test_halfline_deterministic(rule):
    cfg = QuadratureConfig(halfline_rule=rule)

    def f(t):
        if rule == "inverse_square_substitution":
            return t**-1.5 * math.exp(-0.25 / t)
        return math.cos(t) * math.exp(-t)

    first = integrate_halfline(f, cfg)
    second = integrate_halfline(f, cfg)
    assert first.value == second.value
    assert first.error == second.error


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "integrate, cfg",
    [
        (integrate_halfline, QuadratureConfig(halfline_rule="adaptive_subdivision")),
        (integrate_realline, QuadratureConfig(realline_rule="truncated_adaptive")),
    ],
    ids=["adaptive_subdivision", "truncated_adaptive"],
)
def test_quadpack_rules_reject_nonfinite_results(integrate, cfg, bad):
    # QUADPACK hands back a NaN or inf value and error bound here; the
    # tolerance test alone lets a NaN bound through
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate(lambda s: bad, cfg)
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate(lambda s: np.array([math.exp(-s * s), bad]), cfg)


# ----------------------------------------------------------------------
# the log-trapezoid rule of the subordination integrals


def _doetsch(t):
    return t**-1.5 * np.exp(-0.25 / t) / (2.0 * SQRT_PI)


def _counted(f, calls):
    def g(t):
        calls.append(np.array(t))
        return f(t)

    return g


@pytest.mark.parametrize("c", [0.0, 1e-3, 0.125, 1.0, 16.0, 100.0])
def test_log_trapezoid_exp_sqrt_closed_form(c):
    # int_0^inf w(t) e^{-ct} dt = e^{-sqrt(c)}
    value, err = special._log_trapezoid(lambda t: _doetsch(t) * np.exp(-c * t))
    want = math.exp(-math.sqrt(c))
    assert np.ndim(value) == 0
    assert abs(value - want) <= 1e-13 * want
    assert 0.0 <= err <= 1e-10 * want + 1e-12


def test_log_trapezoid_complex_field_integrand():
    # (m, n) output: column j is w(t) e^{-c_j t} (1 + i j), value e^{-sqrt(c_j)} (1 + i j)
    cs = np.array([0.125, 1.0, 4.0, 16.0])
    phase = 1.0 + 1j * np.arange(cs.size)
    value, err = special._log_trapezoid(
        lambda t: (_doetsch(t)[:, None] * np.exp(-np.outer(t, cs))) * phase
    )
    assert value.shape == cs.shape
    np.testing.assert_allclose(value, np.exp(-np.sqrt(cs)) * phase, rtol=1e-13, atol=0)
    assert err <= 1e-12


def test_log_trapezoid_reuses_every_node():
    # Only the window probes are single nodes; the level calls together are
    # one uniform grid in log t, each node evaluated once.
    calls = []
    special._log_trapezoid(_counted(lambda t: _doetsch(t) * np.exp(-t), calls))
    probes = [t for t in calls if t.size == 1]
    levels = [t for t in calls if t.size > 1]
    assert len(probes) == 2 and len(levels) >= 2
    v = np.sort(np.log(np.concatenate(levels)))
    step = special._LOG_STEP / 2 ** (len(levels) - 1)
    np.testing.assert_allclose(np.diff(v), step, rtol=1e-9)
    assert v[0] == pytest.approx(-special._LOG_START) and v[-1] == pytest.approx(special._LOG_START)
    assert sum(t.size for t in calls) == v.size + len(probes)


def test_log_trapezoid_grows_the_window_for_slow_tails():
    # w(t) alone decays only like e^{-v/2} in v = log t: the right end
    # moves out, the left one stays
    calls = []
    value, _ = special._log_trapezoid(_counted(_doetsch, calls))
    assert value == pytest.approx(1.0, rel=1e-13)
    ends = np.log(np.concatenate([t for t in calls if t.size == 1]))
    assert ends.min() == pytest.approx(-special._LOG_START)
    assert special._LOG_START + special._LOG_GROW <= ends.max() <= special._LOG_CAP


@pytest.mark.parametrize(
    "f",
    [lambda t: 1.0 / (1.0 + t), lambda t: np.exp(t), lambda t: np.full(t.shape, math.nan)],
    ids=["algebraic", "growing", "nan"],
)
def test_log_trapezoid_rejects_nondecaying_integrands(f):
    with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="does not decay"):
        special._log_trapezoid(f)


def test_log_trapezoid_reports_nonconvergence():
    # a kink at t = 1 has no strip of analyticity: the step halves out
    with pytest.raises(ConvergenceError, match="did not converge at step") as exc_info:
        special._log_trapezoid(lambda t: _doetsch(t) * np.abs(np.log(t)) ** 0.5)
    assert exc_info.value.error_bound > 0


def test_log_trapezoid_reports_failure_in_the_callers_units():
    # the bound is the rule's times the largest unit, inf where a unit is 0
    # or not finite (a caller's scale that overflowed)
    def slow(t):
        return np.ones((t.size, 2)) / (1.0 + t)

    with pytest.raises(ConvergenceError) as plain:
        special._log_trapezoid(slow)
    with pytest.raises(ConvergenceError) as scaled:
        special._log_trapezoid(slow, unit=np.array([2.0, 3.0]))
    assert 0.0 < plain.value.error_bound < math.inf
    assert scaled.value.error_bound == 3.0 * plain.value.error_bound
    assert scaled.value.reason == plain.value.reason
    for unit in ([1.0, 0.0], [1.0, math.inf], 0.0):
        with pytest.raises(ConvergenceError) as exc:
            special._log_trapezoid(slow, unit=np.array(unit))
        assert exc.value.error_bound == math.inf


def test_log_trapezoid_estimate_covers_algebraic_error():
    # e^{-v^2/2} (1 + |v|^3) in v = log t: the jump of the third derivative
    # at v = 0 leaves an O(h^4) error well above rounding at the accepted
    # step, and the estimate must not be below it
    value, err = special._log_trapezoid(
        lambda t: np.exp(-0.5 * np.log(t) ** 2) * (1.0 + np.abs(np.log(t)) ** 3) / t
    )
    miss = abs(value - (math.sqrt(2.0 * math.pi) + 4.0))
    assert 1e-13 < miss <= err <= 1e-9


def test_log_trapezoid_window_reaches_the_tail_point():
    # a bump at log t = 11 is below 1e-15 at the default right end log t = 8,
    # which the end-node test alone cannot tell from a decayed integrand
    def bump(t):
        return np.exp(-4.0 * (np.log(t) - 11.0) ** 2) / t

    missed, _ = special._log_trapezoid(bump)
    assert abs(missed) < 1e-12
    calls = []
    value, _ = special._log_trapezoid(_counted(bump, calls), t_tail=math.exp(11.0))
    assert value == pytest.approx(0.5 * SQRT_PI, rel=1e-13)
    ends = np.log(np.concatenate([t for t in calls if t.size == 1]))
    assert ends.max() >= special._LOG_START + special._LOG_GROW
    with pytest.raises(ConvergenceError, match="does not decay"):
        special._log_trapezoid(bump, t_tail=math.inf)


def test_log_trapezoid_deterministic():
    def f(t):
        return _doetsch(t)[:, None] * np.exp(-np.outer(t, [0.5, 2.0 + 1.0j]))

    first = special._log_trapezoid(f)
    second = special._log_trapezoid(f)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_solvers_do_not_use_the_inverse_square_rule(monkeypatch):
    # The inverse-square rule stays only as a public rule of
    # integrate_halfline and as the tests' independent reference.
    def refuse(f):
        raise AssertionError("inverse-square rule called")

    monkeypatch.setattr(special, "_inverse_square_core", refuse)
    f = pseudoflow.Field.from_function(-2.0, 14.0, 64, lambda x: np.exp(-((x - 3.0) ** 2)))
    assert np.all(np.isfinite(pseudoflow.solve_pseudoheat(f, 1.0).values))
    for c in (0.0, -0.5):
        g = f.with_values(np.where(f.x >= 0.0, f.values, 0.0))
        assert np.all(np.isfinite(pseudoflow.solve_affine_sqrt(g, 0.5, c).values))
    assert math.isfinite(pseudoflow.pseudoheat_gaussian(0.5, 1.0))
    assert math.isfinite(pseudoflow.exp_sqrt_via_doetsch(1.0, 2.0, form="t_form"))


# ----------------------------------------------------------------------
# real-line integration


def test_realline_gaussian():
    res = integrate_realline(lambda x: math.exp(-x * x))
    assert res.value.real == pytest.approx(SQRT_PI, rel=1e-10)


def test_realline_gaussian_second_moment():
    res = integrate_realline(lambda x: x * x * math.exp(-x * x))
    assert res.value.real == pytest.approx(SQRT_PI / 2.0, rel=1e-10)


@pytest.mark.parametrize("rule", ["gauss_hermite", "truncated_adaptive"])
def test_realline_translated_gaussian(rule):
    cfg = QuadratureConfig(realline_rule=rule)
    res = integrate_realline(lambda x: math.exp(-0.5 * (x - 3.0) ** 2), cfg)
    assert res.value.real == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)
    # an array-valued integrand: the mean of the same Gaussian is 3
    res = integrate_realline(lambda x: math.exp(-0.5 * (x - 3.0) ** 2) * np.array([1.0, x]), cfg)
    assert res.value.shape == (2,)
    root = math.sqrt(2 * math.pi)
    np.testing.assert_allclose(res.value, [root, 3.0 * root], rtol=1e-9)


@pytest.mark.parametrize(
    "integrate, cfg, f, calls, value",
    [
        (
            integrate_halfline, QuadratureConfig(halfline_rule="gauss_laguerre"),
            lambda s: math.exp(-2.0 * s) * math.cos(s), 192, 0.4,
        ),
        (
            integrate_halfline, QuadratureConfig(halfline_rule="inverse_square_substitution"),
            lambda t: _doetsch(t) * math.exp(-t), 1936, math.exp(-1.0),
        ),
        (
            integrate_realline, QuadratureConfig(realline_rule="gauss_hermite"),
            lambda x: math.exp(-0.5 * (x - 3.0) ** 2), 192, math.sqrt(2.0 * math.pi),
        ),
        (
            integrate_halfline, QuadratureConfig(halfline_rule="inverse_square_substitution"),
            lambda s: math.exp(-s), 336, None,
        ),
    ],
    ids=["gauss_laguerre", "inverse_square", "gauss_hermite", "inverse_square_refusal"],
)
def test_fixed_node_rules_make_a_pinned_number_of_calls(integrate, cfg, f, calls, value):
    # one integrand call per node: a change in the level where a rule
    # converges, or in its tail probe, shows as another count (orders 64
    # and 128 of the Gauss rules; 16 nodes on each of 8 + 16 + 32 + 64
    # panels and one probe panel; e^{-s} has no t -> 0 decay after the
    # substitution, so 21 probe panels run out of reach)
    counted = []
    if value is None:
        with pytest.raises(ConvergenceError, match="slowly decaying tail"):
            integrate(_counted(f, counted), cfg)
    else:
        res = integrate(_counted(f, counted), cfg)
        assert res.value.real == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert len(counted) == calls


@pytest.mark.parametrize("rule", ["gauss_hermite", "truncated_adaptive"])
def test_realline_deterministic(rule):
    cfg = QuadratureConfig(realline_rule=rule)
    first = integrate_realline(lambda x: math.exp(-x * x) * math.cos(x), cfg)
    second = integrate_realline(lambda x: math.exp(-x * x) * math.cos(x), cfg)
    assert first.value == second.value
    assert first.error == second.error


# ----------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_rules():
    with pytest.raises(ValueError, match="^halfline_rule must be one of gauss_laguerre, "):
        QuadratureConfig(halfline_rule="simpson")
    with pytest.raises(ValueError, match="^realline_rule must be one of gauss_hermite or "):
        QuadratureConfig(realline_rule="simpson")


def test_only_the_integrators_take_a_quadrature_config():
    # Each solver fixes its own rule and truncation; a rule is chosen only
    # where an integral is taken directly, and nothing else is settable.
    takers = set()
    for name in pseudoflow.__all__:
        obj = getattr(pseudoflow, name)
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        if any(
            "Config" in str(p.annotation)
            or (dataclasses.is_dataclass(p.default) and not isinstance(p.default, type))
            for p in params
        ):
            takers.add(name)
    assert takers == {"integrate_halfline", "integrate_realline"}
    fields = [f.name for f in dataclasses.fields(QuadratureConfig)]
    assert fields == ["halfline_rule", "realline_rule"]
    assert not any("SeriesConfig" in vars(m) for m in _package_modules())
    # no module but special builds a config to pass to itself
    builders = {
        module.__name__
        for module in _package_modules()
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "QuadratureConfig"
    }
    assert builders == {"pseudoflow.special"}


def _package_modules():
    # the package and its modules; __main__ would run the CLI
    return [pseudoflow] + [
        importlib.import_module(f"pseudoflow.{info.name}")
        for info in pkgutil.iter_modules(pseudoflow.__path__)
        if not info.name.startswith("_")
    ]


def test_every_cache_is_bounded_and_keyed_on_integers_or_a_grid():
    # A cache keyed on floats misses at every new point and keeps each
    # result alive; the caches hold node tables indexed by an order or size,
    # or the plans of one grid, keyed on its (n, x_min, x_max) before any
    # integer, which every solve on that grid meets again. Each keeps a
    # bounded number of entries, and the set of caches is pinned: what a
    # grid plan is built from is not cached on its own.
    grid = [("n", int), ("x_min", float), ("x_max", float)]
    cached, on_grids = {}, set()
    for info in pkgutil.iter_modules(pseudoflow.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"pseudoflow.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                cached[f"{info.name}.{name}"] = obj
    assert cached
    for name, fn in cached.items():
        params = inspect.signature(fn.__wrapped__, eval_str=True).parameters.values()
        key = [(p.name, p.annotation) for p in params]
        if key[:3] == grid:
            on_grids.add(fn.__qualname__)
            key = key[3:]
        assert params and all(kind is int for _, kind in key), name
        assert fn.cache_parameters()["maxsize"] is not None, name
    assert on_grids == {"_j0_plan", "_k0_lags", "_tail_lattice"}
    assert {f"{fn.__module__}.{fn.__qualname__}" for fn in cached.values()} == {
        "pseudoflow.evolution._j0_plan",
        "pseudoflow.evolution._tail_lattice",
        "pseudoflow.relativistic._k0_lags",
        "pseudoflow.special._hermite_nodes",
        "pseudoflow.special._laguerre_nodes",
        "pseudoflow.special._legendre_nodes",
        "pseudoflow.transforms._band_cosines",
    }

"""One scale sweep over every public field route: on data s e^{-(x/2)^2}
from s = 1e-320 to the largest float, on two grids and at three tau, each
call returns finite values or raises the refusal measured for it, with no
numpy warning, and each route commutes with 2^600 and 2^-600. And the
boundary of every public function and class that takes a number: an int
past float range is refused with a ValueError that prints none of its
digits, an int or a numpy number computes as the float it equals, an
ordered or real domain refuses a complex value, and every array argument
computes any sequence of its numbers as the float array and refuses
anything else."""
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest

import pseudoflow
from pseudoflow import (
    ConvergenceError,
    Field,
    SymbolSpec,
    TruncationError,
    apply_inv_sqrt_shift,
    dhat_apply,
    gauss_weierstrass,
    iterated_series,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
    spectral_schrodinger,
)

_SCALES = (1e-320, 1.0, 1e300, 1e307, 1.6e308, 1.79e308)
_GRIDS = ((-8.0, 8.0, 64), (-2.0, 14.0, 161))
_TAUS = (1e-8, 0.5, 3.0)


# The affine flow is no contraction: its amplitude e^{(x^2 - z^2)/(2c)}
# lifts unit data on [-8, 8] to peaks of 2.1e4, 1.0e12 and 4.6e12 at the
# three tau for c = 1, and 1.0, 1.6e4 and 7.0e4 for c = -1, and on [-2, 14]
# to 1.3 at tau = 0.5 and 3 for c = 1: there the result itself leaves
# float range from 1e300, 1e307 or 1.6e308.
_AFFINE_PLUS = (
    ValueError, "the affine-sqrt flow is past float range",
    lambda n, s, tau: s >= (1e300 if tau > 1e-8 else 1e307) if n == 64 else (s >= 1.6e308 and tau > 1e-8),
)
_AFFINE_MINUS = (
    ValueError, "the affine-sqrt flow is past float range",
    lambda n, s, tau: n == 64 and s >= 1e307 and tau > 1e-8,
)


def _iterated_series_truncates(n, s, tau):
    # Psi_n of unit data grows like the grid's largest k^2, so at larger
    # tau the terms fail the tail test after 20, on data at every scale:
    # the test is relative to the data's peak
    return (n, tau) in {(64, 3.0), (161, 0.5), (161, 3.0)}


# route -> (call of (field, tau), its refusals as (error, message start, where))
_ROUTES = {
    "gauss_weierstrass": (gauss_weierstrass, ()),
    "solve_pseudoheat": (solve_pseudoheat, ()),
    "solve_half_derivative": (solve_half_derivative, ()),
    "solve_affine_sqrt c = 1": (lambda f, tau: solve_affine_sqrt(f, tau, 1.0), (_AFFINE_PLUS,)),
    "solve_affine_sqrt c = -1": (lambda f, tau: solve_affine_sqrt(f, tau, -1.0), (_AFFINE_MINUS,)),
    # without drift the flow diverges where data at x < 0 are nonzero, so they are cut
    "solve_affine_sqrt c = 0": (
        lambda f, tau: solve_affine_sqrt(f.with_values(np.where(f.x < 0, 0.0, f.values)), tau, 0),
        (),
    ),
    "apply_inv_sqrt_shift": (
        lambda f, tau: apply_inv_sqrt_shift(f),
        ((ValueError, "the J0 integral of apply_inv_sqrt_shift is past float range at peak = ",
          lambda n, s, tau: s >= 1.6e308),),
    ),
    "dhat_apply kernel_k0": (lambda f, tau: dhat_apply(f, "kernel_k0"), ()),
    "dhat_apply s_integral": (lambda f, tau: dhat_apply(f, "s_integral"), ()),
    "dhat_apply spectral": (lambda f, tau: dhat_apply(f, "spectral"), ()),
    "iterated_series": (
        iterated_series,
        ((TruncationError, "iterated series ", _iterated_series_truncates),),
    ),
    **{
        f"solve_symbol_spectral {spec.name}": (
            lambda f, tau, spec=spec: solve_symbol_spectral(f, tau, spec), ()
        )
        for spec in (
            SymbolSpec.heat(), SymbolSpec.pseudoheat(), SymbolSpec.schrodinger(), SymbolSpec.optics(2.0)
        )
    },
    "spectral_schrodinger": (spectral_schrodinger, ()),
}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_field_route_solves_or_refuses_at_every_scale(route):
    call, refusals = _ROUTES[route]
    for (*bounds, n), scale in itertools.product(_GRIDS, _SCALES):
        f = Field.from_function(*bounds, n, lambda x: scale * np.exp(-((x / 2.0) ** 2)))
        for tau in _TAUS:
            refused = [(error, start) for error, start, where in refusals if where(n, scale, tau)]
            case = f"{route} on {n} points, scale {scale:g}, tau {tau:g}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                if refused:
                    [(error, start)] = refused
                    with pytest.raises(error, match=re.escape(start)):
                        call(f, tau)
                else:
                    assert np.isfinite(call(f, tau).values).all(), case


@functools.lru_cache(maxsize=None)
def _unit_result(route, grid, tau):
    """The route's result on the unit data s = 1 on ``grid``, or the
    ConvergenceError or TruncationError it raises."""
    call, _ = _ROUTES[route]
    f = Field.from_function(*grid, lambda x: np.exp(-((x / 2.0) ** 2)))
    try:
        return f, call(f, tau)
    except (ConvergenceError, TruncationError) as exc:
        return f, exc


def _times_power_of_two(values, e):
    """values times 2^e, part by part: np.ldexp takes no complex."""
    if np.iscomplexobj(values):
        return np.ldexp(values.real, e) + 1j * np.ldexp(values.imag, e)
    return np.ldexp(values, e)


@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_field_route_commutes_with_a_power_of_two_past_the_scaling_edge(route):
    # data at 2^600 and 2^-600 run scaled to a peak in [1, 2) and are scaled
    # back: route(2^e f) equals 2^e route(f) in its values and meta numbers,
    # with the same warnings, and where route(f) fails, so does route(2^e f),
    # with the same message save the scaled data's numbers
    call, _ = _ROUTES[route]
    for (*bounds, n), tau in itertools.product(_GRIDS, _TAUS):
        f, ref = _unit_result(route, (*bounds, n), tau)
        for e in (600, -600):
            scaled = f.with_values(np.ldexp(f.values, e))
            if isinstance(ref, Exception):
                with pytest.raises(type(ref)) as exc:
                    call(scaled, tau)
                assert str(exc.value).split(" (last")[0] == str(ref).split(" (last")[0]
                continue
            got = call(scaled, tau)
            case = f"{route} on {n} points, tau {tau:g}, 2^{e}"
            assert got.warnings == ref.warnings, case
            assert np.array_equal(got.values, _times_power_of_two(ref.values, e)), case
            assert got.meta == {k: _times_power_of_two(v, e) for k, v in ref.meta.items()}, case


@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_field_route_scales_with_a_power_of_two_inside_the_scaling_range(route):
    # data at 2^332 and 2^-332 run as they are: route(2^e f) is 2^e route(f)
    # to within 4.5e-16 of its peak (solve_pseudoheat's log-trapezoid end
    # test is absolute, 2.2e-16 off in 8 of 24 cases), and where route(f)
    # fails, so does route(2^e f). The iterated series' tail test is
    # relative to the data's peak, so it matches bit for bit; with an
    # absolute one it failed at 2^332 on 64 points and solved at 2^-332
    # where the unit data fail
    call, _ = _ROUTES[route]
    for (*bounds, n), tau in itertools.product(_GRIDS, _TAUS):
        f, ref = _unit_result(route, (*bounds, n), tau)
        for e in (332, -332):
            scaled = f.with_values(np.ldexp(f.values, e))
            if isinstance(ref, Exception):
                with pytest.raises(type(ref)) as exc:
                    call(scaled, tau)
                assert str(exc.value).split(" (last")[0] == str(ref).split(" (last")[0]
                continue
            got = call(scaled, tau)
            want = _times_power_of_two(ref.values, e)
            case = f"{route} on {n} points, tau {tau:g}, 2^{e}"
            if route == "iterated_series":
                assert np.array_equal(got.values, want), case
                assert got.meta == {k: _times_power_of_two(v, e) for k, v in ref.meta.items()}, case
                assert got.warnings == ref.warnings, case
            else:
                assert np.max(np.abs(got.values - want)) <= 4.5e-16 * np.max(np.abs(want)), case


def test_data_near_the_largest_float_solve_where_a_route_overflowed_inside():
    # the spline's tridiagonal sums (six times a sample's step in y) left
    # float range for the kernel routes, the transform for the spectral one,
    # and Psi_12 for the iterated series; run scaled, each result is in range
    x_max = 76 * 3.339
    f = Field.from_function(0.0, x_max, 77, lambda x: 1.3629e308 * np.cos(0.1645 * x))
    for call in (
        lambda f: solve_half_derivative(f, 0.5),
        apply_inv_sqrt_shift,
        pseudoflow.phi_transform,
        lambda f: iterated_series(f, 0.5),
        lambda f: spectral_schrodinger(f, 0.5),
    ):
        assert np.isfinite(call(f).values).all()
    f = Field.from_function(-8.0, 8.0, 64, lambda x: 1e300 * np.exp(-((x / 2.0) ** 2)))
    assert np.isfinite(iterated_series(f, 0.5).values).all()


# every public function and class that takes a number -> valid arguments
_F = Field.from_function(-8.0, 8.0, 64, lambda x: np.exp(-(x**2)))
_NUMBER_TAKERS = {
    "hermite2": (pseudoflow.hermite2, (2, 1.0, 0.5)),
    "bessel": (pseudoflow.bessel, ("K0", 1.0)),
    "Field": (Field, (-8.0, 8.0, 8, [1.0] * 8)),
    "doetsch_weight": (pseudoflow.doetsch_weight, (0.5,)),
    "exp_sqrt_via_doetsch": (pseudoflow.exp_sqrt_via_doetsch, (1.0, 2.0)),
    "gauss_weierstrass": (gauss_weierstrass, (_F, 0.5)),
    "glaisher": (pseudoflow.glaisher, (0.5, 1.0)),
    "laplace_inv_power": (pseudoflow.laplace_inv_power, (1.0, 2.0)),
    "SymbolSpec": (SymbolSpec.optics, (2.0,)),
    "solve_half_derivative": (solve_half_derivative, (_F, 0.5)),
    "solve_pseudoheat": (solve_pseudoheat, (_F, 0.5)),
    "pseudoheat_gaussian": (pseudoflow.pseudoheat_gaussian, (0.5, 1.0)),
    "solve_symbol_spectral": (solve_symbol_spectral, (_F, 0.5, SymbolSpec.heat())),
    "solve_affine_sqrt": (solve_affine_sqrt, (_F, 0.5, 1.0)),
    "ObservableInputs": (pseudoflow.ObservableInputs, (1.0, 1.0, 0.5, "physical", 1.0, 1.0)),
    "f2k": (pseudoflow.f2k, (1.0, 2)),
    "series_solution": (pseudoflow.series_solution, (1.0, 0.5)),
    "spectral_schrodinger": (spectral_schrodinger, (_F, 0.5)),
    "iterated_series": (iterated_series, (_F, 0.5)),
    "r_function": (pseudoflow.r_function, (1.0,)),
    "f_function": (pseudoflow.f_function, (1.0,)),
    "linear_potential_trajectory": (pseudoflow.linear_potential_trajectory, (0.0, 1.0, 0.5, 2.0)),
    "PauliVector": (pseudoflow.PauliVector, (1.0, (0.0, 0.0, 1.0))),
    "pauli_sqrt_identity": (pseudoflow.pauli_sqrt_identity, ((0.0, 0.0, 1.0),)),
    "exp_pauli": (pseudoflow.exp_pauli, (0.5, (0.0, 0.0, 1.0))),
    "dirac2_evolution": (pseudoflow.dirac2_evolution, (0.9, 1.0)),
    "bloch_evolve": (pseudoflow.bloch_evolve, ((1.0, 0.0, 0.0), 0.5, 1.0, 0.1)),
    "dirac4_evolution": (pseudoflow.dirac4_evolution, ((0.9, 0.0, 0.0), 1.0)),
    "position_evolution": (pseudoflow.position_evolution, (0.9, 1.0)),
    "sqrt_symbol_check": (pseudoflow.sqrt_symbol_check, (1.0,)),
    "kappa_parametrization": (pseudoflow.kappa_parametrization, ((1.0, 0.0, 0.0), 0.5)),
    "pauli_line_power": (pseudoflow.pauli_line_power, (2.0, 1.0, 0.5)),
}
# public names that take no number: errors and results carry numbers unchecked
_NO_NUMBER = {
    "PseudoflowError", "ConvergenceError", "TruncationError", "QuadratureConfig", "IntegralResult",
    "HALFLINE_RULES", "REALLINE_RULES", "integrate_halfline", "integrate_realline",
    "apply_inv_sqrt_shift", "DHAT_METHODS", "dhat_apply", "phi_transform", "packet_width",
    "commutator_xt_x0", "Mat2", "Mat4", "GENERATOR_KINDS", "POSITION_PARAMETRIZATIONS",
    "KAPPA_VARIANTS", "generators",
}
# the parameters whose domain is "finite with a finite square"
_SQUARED = {("dirac2_evolution", 0), ("position_evolution", 0), ("bloch_evolve", 1),
            ("SymbolSpec", 0)}


def _number_slots(args):
    """(position, component) of each number among ``args``: a scalar's
    component is None, a 3-vector gives its middle one, a list of samples
    its fourth."""
    for i, arg in enumerate(args):
        if isinstance(arg, (int, float)) and not isinstance(arg, bool):
            yield i, None
        elif isinstance(arg, (tuple, list)):
            yield i, 1 if len(arg) == 3 else 3


def _with(args, slot, value):
    i, j = slot
    args = list(args)
    if j is None:
        args[i] = value
    else:
        args[i] = [*args[i][:j], value, *args[i][j + 1:]]
    return args


def test_the_boundary_table_holds_every_public_name_that_takes_a_number():
    assert set(_NUMBER_TAKERS) | _NO_NUMBER == set(pseudoflow._HOME)
    assert not set(_NUMBER_TAKERS) & _NO_NUMBER


@pytest.mark.parametrize(
    "name, slot",
    [(name, slot) for name, (_, args) in _NUMBER_TAKERS.items() for slot in _number_slots(args)],
)
def test_an_int_past_float_range_is_a_value_error_that_prints_no_digits(name, slot):
    call, args = _NUMBER_TAKERS[name]
    call(*args)  # the valid arguments pass, so the refusal is the swapped number's
    values = (10**400, -(10**400), 10**5000)
    if (name, slot[0]) in _SQUARED:
        values += (10**200,)  # a float whose square has none
    for value in values:
        with pytest.raises(ValueError) as refusal:
            call(*_with(args, slot, value))
        message = str(refusal.value)
        # Python refuses to print an int of more than 4300 digits at all
        assert not re.search(r"\d{10}", message) and "int_max_str_digits" not in message, message


# One number path: each number slot takes a Python int, a numpy int and a
# numpy float as the equal float, and an integer slot a numpy int as the int
_TYPE_VALUES = (2, 2**32, 2**40, 2**62, 10**200)
_INTEGER_VALUES = (0, 2, 40, 1001)
_K = np.linspace(-8.0, 8.0, 9)


def _bits(result):
    """A result as comparable text and bytes: its type and every number it
    holds, bit for bit."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    if isinstance(result, Field):
        numbers = (result.x_min, result.x_max, result.n, result.dx, result.warnings, result.meta)
        return "Field", repr(numbers), result.values.tobytes()
    if isinstance(result, SymbolSpec):
        return "SymbolSpec", result.name, result.eval(_K).tobytes()
    if isinstance(result, pseudoflow.ObservableInputs):
        return repr(result), *(_outcome(call, (result,)) for call in (
            pseudoflow.packet_width, pseudoflow.commutator_xt_x0))
    if isinstance(result, pseudoflow.PauliVector):
        return repr(result), _outcome(result.as_mat2, ())
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return type(result).__name__, repr(result)


def _outcome(call, args):
    """_bits of what call(*args) returns or raises; a warning fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except Exception as exc:  # the refusal is the result to compare
            result = exc
    assert not caught, [str(w.message) for w in caught]
    return _bits(result)


@pytest.mark.parametrize(
    "name, slot",
    [(name, slot) for name, (_, args) in _NUMBER_TAKERS.items() for slot in _number_slots(args)],
)
def test_an_int_or_numpy_number_computes_as_the_equal_float(name, slot):
    call, args = _NUMBER_TAKERS[name]
    i, j = slot
    if isinstance(args[i] if j is None else args[i][j], int):  # an integer slot
        cases = [(value, (np.int64,)) for value in _INTEGER_VALUES]
    else:
        cases = [(float(value), (int, np.int64, np.float64)) for value in _TYPE_VALUES]
    for reference, kinds in cases:
        expected = _outcome(call, _with(args, slot, reference))
        for kind in kinds:
            if kind is np.int64 and not reference < 2**63:
                continue
            value = kind(int(reference)) if kind is not np.float64 else kind(reference)
            got = _outcome(call, _with(args, slot, value))
            assert got == expected, f"{name}{tuple(_with(args, slot, value))!r}"


# calls that computed from the caller's int: a wrapping numpy int gave a
# wrong value with no error, a Python int a bare OverflowError or TypeError
_INT_CALLS = {
    "dirac2_evolution": (pseudoflow.dirac2_evolution, (np.int64(2**40), 1.0)),
    "pauli_line_power": (pseudoflow.pauli_line_power, (np.int64(2**40), 0, 2)),
    "packet_width": (
        lambda sigma: pseudoflow.packet_width(pseudoflow.ObservableInputs(sigma=sigma, t=1.0)),
        (np.int64(2**32),),
    ),
    "SymbolSpec.optics": (SymbolSpec.optics, (np.int64(2**32),)),
    "Field.dx": (lambda lo, hi: Field(lo, hi, 64, np.zeros(64)).dx, (np.int64(-(2**62)), np.int64(2**62))),
    "exp_sqrt_via_doetsch": (pseudoflow.exp_sqrt_via_doetsch, (10**200, 1.0)),
    "bessel": (lambda x: pseudoflow.bessel("J0", x), (2**64,)),
    "linear_potential_trajectory": (pseudoflow.linear_potential_trajectory, (0, 0, 10**200, 10**200)),
}


@pytest.mark.parametrize("name", list(_INT_CALLS))
def test_each_int_argument_gives_what_its_float_gives(name):
    call, args = _INT_CALLS[name]
    assert _outcome(call, args) == _outcome(call, [float(arg) for arg in args])


@pytest.mark.parametrize(
    "call",
    [
        lambda z: pseudoflow.solve_pseudoheat(_F, z),  # "nonnegative and finite"
        lambda z: gauss_weierstrass(_F, z),  # "positive and finite"
        lambda z: pseudoflow.hermite2(z, 1.0, 0.5),  # "a nonnegative integer"
        lambda z: pseudoflow._choices.require("at least 2", steps=z),
    ],
    ids=["nonnegative", "positive", "nonnegative integer", "at least 2"],
)
def test_an_ordered_domain_refuses_a_complex_value(call):
    for z in (1j, 3 + 0j, np.complex128(2)):
        with pytest.raises(ValueError, match="must be"):
            call(z)


_REAL_SLOTS = {
    "Field": lambda z: Field(z, 2.0, 8, np.zeros(8)),
    "bessel": lambda z: pseudoflow.bessel("J0", z),
    "pauli_line_power": lambda z: pseudoflow.pauli_line_power(z, 0.0, 2.0),
    "pauli_line_power p": lambda z: pseudoflow.pauli_line_power(2.0, 1.0, z),
    "series_solution eta": lambda z: pseudoflow.series_solution(z, 0.5),
    "series_solution tau": lambda z: pseudoflow.series_solution(0.5, z),
    "glaisher x": lambda z: pseudoflow.glaisher(0.5, z),
    "glaisher alpha": lambda z: pseudoflow.glaisher(z, 1.0),
    "hermite2": lambda z: pseudoflow.hermite2(3, z, 1.0),
    "pseudoheat_gaussian": lambda z: pseudoflow.pseudoheat_gaussian(0.5, z),
    "solve_affine_sqrt": lambda z: solve_affine_sqrt(_F, 0.5, z),
    "dirac2_evolution pi": lambda z: pseudoflow.dirac2_evolution(z, 1.0),
    "dirac2_evolution tau": lambda z: pseudoflow.dirac2_evolution(0.5, z),
    "position_evolution pi": lambda z: pseudoflow.position_evolution(z, 1.0),
    "position_evolution tau": lambda z: pseudoflow.position_evolution(0.5, z),
    "dirac4_evolution": lambda z: pseudoflow.dirac4_evolution((1, 0, 0), z),
    "linear_potential_trajectory p0": lambda z: pseudoflow.linear_potential_trajectory(0, z, 0, 1),
    "linear_potential_trajectory x0": lambda z: pseudoflow.linear_potential_trajectory(z, 0, 0, 1),
    "f2k": lambda z: pseudoflow.f2k(z, 2),
    "ObservableInputs": lambda z: pseudoflow.packet_width(pseudoflow.ObservableInputs(t=z)),
    "bloch_evolve": lambda z: pseudoflow.bloch_evolve((1, 0, 0), z, 1.0, 0.1),
    "SymbolSpec.optics": lambda z: SymbolSpec.optics(z),
    "sqrt_symbol_check": lambda z: pseudoflow.sqrt_symbol_check(z),
    "kappa_parametrization": lambda z: pseudoflow.kappa_parametrization((1, 0, 0), z),
}


@pytest.mark.parametrize("name", list(_REAL_SLOTS))
def test_a_real_domain_refuses_a_complex_value(name):
    # each raised a bare TypeError ("'<' not supported between instances of
    # 'complex' and 'float'", "must be real number, not complex"), or
    # computed: f2k(0.5j, 2) a wrong real value with numpy ComplexWarnings,
    # packet_width, bloch_evolve and linear_potential_trajectory a complex
    # result where a real one is documented
    for z in (1j, 3 + 0j, np.complex128(2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be"):
                _REAL_SLOTS[name](z)


# every array parameter -> (the call on it, the name it is refused by, a
# valid value as Python ints, whether it admits complex numbers)
_ARRAY_SLOTS = {
    "Field": (lambda v: Field(-8.0, 8.0, 8, v), "values", [1, 0, -2, 3, 0, 5, 1, 1], True),
    "doetsch_weight": (pseudoflow.doetsch_weight, "t", [1, 2, 7], False),
    "glaisher": (lambda x: pseudoflow.glaisher(0.5, x), "x", [-1, 0, 2], False),
    "r_function": (pseudoflow.r_function, "a", [0, 1, 3], False),
    "f_function": (pseudoflow.f_function, "a", [0, 1, 3], False),
    "series_solution": (lambda eta: pseudoflow.series_solution(eta, 0.5), "eta", [0, 1, 2], False),
    "PauliVector": (lambda v: pseudoflow.PauliVector(1.0, v), "v", [0, 1, 2], True),
    "pauli_sqrt_identity": (pseudoflow.pauli_sqrt_identity, "v", [0, -1, 2], True),
    "exp_pauli": (lambda v: pseudoflow.exp_pauli(0.5, v), "v", [-1, -1, -2], True),
    "dirac4_evolution": (lambda pi: pseudoflow.dirac4_evolution(pi, 1.0), "pi", [1, 0, 2], False),
    "bloch_evolve": (lambda s: pseudoflow.bloch_evolve(s, 0.5, 1.0, 0.1), "sigma0", [1, 0, 2], False),
    "kappa_parametrization": (lambda w: pseudoflow.kappa_parametrization(w, 0.5), "w", [1, 0, 2], False),
}


@pytest.mark.parametrize("name", list(_ARRAY_SLOTS))
def test_an_array_slot_computes_any_sequence_of_its_numbers_as_the_float_array(name):
    call, _, ints, _ = _ARRAY_SLOTS[name]
    expected = _outcome(call, [np.array(ints, dtype=np.float64)])
    assert expected[0] != "ValueError"
    for value in (ints, tuple(ints), [float(i) for i in ints], np.array(ints, dtype=np.int64),
                  np.array(ints, dtype=object), np.array(ints, dtype=np.int32)):
        assert _outcome(call, [value]) == expected, repr(value)


@pytest.mark.parametrize("name", list(_ARRAY_SLOTS))
def test_an_array_slot_refuses_what_is_no_sequence_of_its_numbers(name):
    # text and bytes computed in Field, doetsch_weight and the three-vectors,
    # which each converted with numpy's own astype
    call, slot, ints, admits_complex = _ARRAY_SLOTS[name]
    bad = [
        [str(i) for i in ints], [str(i).encode() for i in ints], "".join(map(str, ints)),
        np.array([ints, ints], dtype=float), [*ints[:-1], math.nan], [*ints[:-1], math.inf],
        [*ints[:-1], 10**400], [*ints[:-1], None],
    ]
    if not admits_complex:
        bad += [[*ints[:-1], 1j], np.array(ints, dtype=complex)]
    for value in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refusal:
                call(value)
        assert re.search(rf"\b{slot}\b", str(refusal.value)), (repr(value), str(refusal.value))

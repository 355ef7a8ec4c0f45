"""One scale sweep over every public field route: on data s e^{-(x/2)^2}
from s = 1e-320 to the largest float, on two grids and at three tau, each
call returns finite values or raises the refusal measured for it, with no
numpy warning. And the boundary of every public function and class that
takes a number: an int past float range is refused with a ValueError that
prints none of its digits."""
import itertools
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


def _from(scale_on_64, scale_on_161):
    """Where a route refuses: from the given scale on each grid."""
    return lambda n, s, tau: s >= (scale_on_64 if n == 64 else scale_on_161)


# The affine flow is no contraction: its amplitude e^{(x^2 - z^2)/(2c)}
# times the data leaves float range on [-8, 8] from 1e300 (unit data peak
# at 1.0e12 for c = 1 and 1.5e4 for c = -1), on [-2, 14] only near the
# largest float.
_AFFINE = (ConvergenceError, "affine-sqrt quadrature overflowed", _from(1e300, 1.6e308))
# the transform's sums leave float range from 1e307, save on 64 points at
# tau = 3 for pseudoheat, whose multiplier damps the inverse sum enough
_SPECTRAL = (ValueError, "the spectral ", _from(1e307, 1e307))
_SPECTRAL_PSEUDOHEAT = (
    ValueError, "the spectral pseudoheat flow is past float range",
    lambda n, s, tau: s >= 1.6e308 or (s == 1e307 and (n, tau) != (64, 3.0)),
)


def _iterated_series_truncates(n, s, tau):
    # Psi_n of unit data grows like the grid's largest k^2, so at larger
    # tau the terms fail the tail test after 20; data from 1e300 overflow
    return s >= 1e300 or (s == 1.0 and (n, tau) in {(64, 3.0), (161, 0.5), (161, 3.0)})


# route -> (call of (field, tau), its refusals as (error, message start, where))
_ROUTES = {
    "gauss_weierstrass": (gauss_weierstrass, ()),
    "solve_pseudoheat": (solve_pseudoheat, ()),
    "solve_half_derivative": (solve_half_derivative, ()),
    "solve_affine_sqrt c = 1": (lambda f, tau: solve_affine_sqrt(f, tau, 1.0), (_AFFINE,)),
    "solve_affine_sqrt c = -1": (lambda f, tau: solve_affine_sqrt(f, tau, -1.0), (_AFFINE,)),
    # without drift the flow diverges where data at x < 0 are nonzero, so they are cut
    "solve_affine_sqrt c = 0": (
        lambda f, tau: solve_affine_sqrt(f.with_values(np.where(f.x < 0, 0.0, f.values)), tau, 0),
        (),
    ),
    "apply_inv_sqrt_shift": (
        lambda f, tau: apply_inv_sqrt_shift(f),
        ((ValueError, "the J0 integral of apply_inv_sqrt_shift is past float range at peak = ",
          _from(1.6e308, 1.6e308)),),
    ),
    "dhat_apply kernel_k0": (lambda f, tau: dhat_apply(f, "kernel_k0"), ()),
    "dhat_apply s_integral": (lambda f, tau: dhat_apply(f, "s_integral"), ()),
    "dhat_apply spectral": (lambda f, tau: dhat_apply(f, "spectral"), (_SPECTRAL,)),
    "iterated_series": (
        iterated_series,
        ((TruncationError, "iterated series ", _iterated_series_truncates),),
    ),
    **{
        f"solve_symbol_spectral {spec.name}": (
            lambda f, tau, spec=spec: solve_symbol_spectral(f, tau, spec), (refusal,)
        )
        for spec, refusal in (
            (SymbolSpec.heat(), _SPECTRAL),
            (SymbolSpec.pseudoheat(), _SPECTRAL_PSEUDOHEAT),
            (SymbolSpec.schrodinger(), _SPECTRAL),
            (SymbolSpec.optics(2.0), _SPECTRAL),
        )
    },
    "spectral_schrodinger": (spectral_schrodinger, (_SPECTRAL,)),
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

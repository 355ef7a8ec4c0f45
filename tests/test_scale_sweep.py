"""One scale sweep over every public field route: on data s e^{-(x/2)^2}
from s = 1e-320 to the largest float, on two grids and at three tau, each
call returns finite values or raises the refusal measured for it, with no
numpy warning."""
import itertools
import re
import warnings

import numpy as np
import pytest

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

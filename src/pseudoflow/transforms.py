"""Core operational identities as standalone primitives.

The subordination (Doetsch) integral, the Gauss-Weierstrass transform, the
Glaisher identity for Gaussians, and the Laplace inverse-power identity.
Everything here works on plain numbers or on :class:`Field` values sampled
on a uniform grid; convolutions are computed by direct quadrature against
the kernel (not FFT), so they stay valid on non-power-of-two grids.

On a uniform grid the smoothing kernel depends only on the lag |i - j| h
and is even, so the trapezoid-weighted data fold once per field into one
n x n Toeplitz-plus-Hankel matrix. A Gauss-Weierstrass smoothing at any
width is then n kernel values on the lags and one matrix-vector product;
callers that smooth one field at many widths (the pseudoheat subordination
integral) build the fold once. The kernel is the sampled heat kernel at
widths of at least 4 h^2 and the band-limited one below, where the sampled
kernel would alias.

Every field route is linear in its data, so it commutes exactly with
multiplying them by 2^e wherever no value overflows or turns subnormal.
Each public route enters through :func:`_homogeneous`: data whose peak
lies in [2^-500, 2^500] run as they are; past either end the data times
2^-e run, e the peak's binary exponent (a peak in [1, 2)), and the
result's values and meta numbers are scaled back. A field near the largest
or the smallest float so solves wherever its result is in float range. The
CLI splines a --ic table onto its grid through the same helper.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _EXPORTS
from ._choices import in_float_range, past_float_range, require, require_one_of
from .special import _LOG_UNIT, _legendre_nodes, _log_trapezoid, _quadpack

__all__ = list(_EXPORTS["transforms"])

# Boundary samples above this fraction of the peak trigger a leakage warning.
BOUNDARY_LEAK_THRESHOLD = 1e-8


def _peak(values: np.ndarray) -> float:
    """The data's largest |value|: inf where a complex modulus passes the
    largest float."""
    return float(np.max(np.abs(values)))


@dataclass(frozen=True, eq=False)
class Field:
    """A sampled complex- or real-valued function on a uniform 1D grid.

    Samples live at x_j = x_min + j * (x_max - x_min) / (n - 1) for
    j = 0 .. n-1 (endpoints included). ``warnings`` accumulates non-fatal
    diagnostics (boundary leakage, wrap-around contamination, ...);
    ``meta`` carries numeric diagnostics such as series tail estimates.
    """

    x_min: float
    x_max: float
    n: int
    values: np.ndarray
    warnings: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            x_min, x_max = require("real and finite", x_min=self.x_min, x_max=self.x_max)
        except ValueError:  # one message for the pair
            raise ValueError("grid bounds must be finite") from None
        if not x_min < x_max:
            raise ValueError("x_min must be < x_max")
        n = require("a nonnegative integer", n=self.n)
        if n < 8:
            raise ValueError("need at least 8 samples")
        try:
            shape = np.shape(self.values)
        except ValueError:  # a ragged sequence has no shape: require refuses it below
            shape = (n,)
        if shape != (n,):
            raise ValueError(f"values must have shape ({n},), got {shape}")
        vals = require("finite", values=self.values)
        vals.setflags(write=False)
        for name, value in (("x_min", x_min), ("x_max", x_max), ("n", n), ("values", vals)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_function(cls, x_min: float, x_max: float, n: int, fn) -> "Field":
        x = np.linspace(x_min, x_max, n)
        return cls(x_min, x_max, n, np.asarray(fn(x)))

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def with_values(self, values, extra_warnings: tuple = (), meta: dict | None = None) -> "Field":
        return Field(
            self.x_min,
            self.x_max,
            self.n,
            values,
            self.warnings + tuple(extra_warnings),
            dict(meta or {}),
        )

    def leak_warnings(self, op: str, side: str | None = None) -> tuple:
        """The warning ``op`` attaches where the grid visibly truncates the
        sampled function: at either edge, or, for a solver that shifts data
        past one edge and zero-extends them, at the ``side`` it names."""
        require_one_of(("left", "right"), side="left" if side is None else side)
        values = self.values
        peak = _peak(values)
        if peak == math.inf:  # complex data past the largest float in modulus: halving is exact
            values = values * 0.5
            peak = _peak(values)
        ends = {"left": (0,), "right": (-1,), None: (0, -1)}[side]
        edge = max(abs(complex(values[j])) for j in ends)
        if not edge > BOUNDARY_LEAK_THRESHOLD * peak:  # all-zero data: 0 > 0
            return ()
        if side is None:
            return (f"{op}: input is not negligible at the grid boundary",)
        return (f"{op}: data shifted past the {side} grid edge is zero-extended "
                "but the boundary sample is not negligible",)


def doetsch_weight(t):
    """Subordination density w(t) = t^{-3/2} e^{-1/(4t)} / (2 sqrt(pi)).

    This is the tau-independent part of the subordination integrand; the
    caller multiplies by its own e^{-t tau^2 (...)} factor. ``t`` may be a
    number or a 1-D array; all entries must be positive. Where e^{-1/(4t)}
    underflows (t below about 3.4e-4) the weight is 0, even where t^{-3/2}
    overflows.
    """
    t = require("positive and finite", t=t)
    with np.errstate(over="ignore", invalid="ignore"):  # fmax makes inf * 0 the 0 it is
        w = np.fmax(np.power(t, -1.5) * np.exp(-0.25 / t) / (2.0 * math.sqrt(math.pi)), 0.0)
    return float(w) if isinstance(t, float) else w


def exp_sqrt_via_doetsch(x: float, y: float, form: str = "t_form") -> float:
    """Evaluate e^{-x sqrt(y)} through its subordination integral.

    ``t_form`` (default) integrates w(t) e^{-t x^2 y} dt over (0, inf) with
    the log-trapezoid rule, all nodes of a level in one array; ``xi_form``
    integrates the substituted representation
    (1/sqrt(pi)) exp(-xi^2/4 - x^2 y / xi^2) dxi directly with adaptive
    subdivision (QUADPACK), so the two forms exercise genuinely different
    numerical paths; ``xi_form`` keeps QUADPACK on purpose, as the
    independent one. For every finite x, y >= 0, ``t_form`` agrees with
    e^{-x sqrt(y)} to 3e-13 and ``xi_form`` to 5e-10 (the worst seen in
    24,000 log-uniform draws: 1.3e-13 and 2.2e-10, both where x sqrt(y) is
    small; QUADPACK's relative tolerance is 1e-10 on each of three pieces).
    """
    require_one_of(("t_form", "xi_form"), form=form)
    x, y = require("nonnegative and finite", x=x, y=y)
    c = x * x * y
    if not sys.float_info.min <= x * x < math.inf:  # inf * 0 is nan; a subnormal loses digits
        c = x * (x * y)
    if form == "t_form":
        return float(_log_trapezoid(lambda t: doetsch_weight(t) * np.exp(-t * c))[0])

    def ig(xi: float) -> float:
        xi2 = xi * xi
        if xi2 == 0.0:  # e^{-c/xi^2} -> 0, or 1 where c = 0
            return float(c == 0.0) / math.sqrt(math.pi)
        return math.exp(-0.25 * xi2 - c / xi2) / math.sqrt(math.pi)

    # e^{-c/xi^2} dips to zero below xi = sqrt(c) and the integrand peaks
    # at (4c)^{1/4}: one piece each side of both, so no dip goes unseen
    cuts = sorted((math.sqrt(c), math.sqrt(2.0 * math.sqrt(c))))
    ends = zip([0.0, *cuts], [*cuts, math.inf])
    return sum(float(_quadpack(ig, a, b, 1.0)[0].real) for a, b in ends)


@lru_cache(maxsize=4)
def _band_cosines(n: int):
    """Gauss-Legendre nodes u on [0, 1] and the (n, n + 32) matrix
    cos(pi k u_q) w_q over lags k < n, read-only: the band-limited heat
    kernel on lag k is (1/h) sum_q cos(pi k u_q) w_q e^{-alpha pi^2 u_q^2 / h^2}.
    n nodes alone miss the top lags (by 1e-7 of the peak at n = 64); 32
    more resolve every lag to rounding. The matrix costs n^2 cosines, so a
    few sizes are kept; each is 8 n (n + 32) bytes, 135 MB at n = 4096."""
    u, w = _legendre_nodes(n + 32)
    cosines = np.cos(math.pi * np.outer(np.arange(n), u)) * w
    cosines.setflags(write=False)
    return u, cosines


def _gw_smoother(f: Field):
    """Gauss-Weierstrass smoothing of ``f`` as a map from m widths alpha to
    the (n, m) smoothed columns on f's grid.

    out[i] = sum_j wf[j] g(|i - j| h) with wf the trapezoid-weighted data and
    g a kernel of width alpha. Grouping the sum by lag k gives
    out = A @ g(k h) with A[i, k] = wf[i - k] + wf[i + k] (A[i, 0] = wf[i],
    out-of-range entries zero), built here once per field; all widths are
    then one product of A with the (n, m) kernel matrix.

    For alpha >= 4 h^2, g is the heat kernel sampled on the lags, the
    trapezoid rule. Below that the sampled kernel aliases, so g smooths the
    band-limited (Whittaker cardinal) interpolant of the data instead:
    g(k h) = (1/h) int_0^1 e^{-alpha pi^2 u^2 / h^2} cos(pi k u) du, by
    Gauss-Legendre in u (see _band_cosines). The two kernels differ by the
    band beyond |xi| = pi / h, below 1e-17 of the peak at alpha = 4 h^2.
    """
    n, h = f.n, f.dx
    wf = h * f.values
    wf[0] *= 0.5
    wf[-1] *= 0.5
    # window p of the zero-padded data starts at wf[p - n + 1]: row i of the
    # first n windows, reversed, reads wf[i - k], and row n - 1 + i reads wf[i + k]
    zeros = np.zeros(n - 1, dtype=wf.dtype)
    windows = sliding_window_view(np.concatenate([zeros, wf, zeros]), n)
    fold = windows[:n, ::-1] + windows[n - 1 :]
    fold[:, 0] = wf
    lag2 = (h * np.arange(n)) ** 2

    def smooth(alpha: np.ndarray) -> np.ndarray:
        # far below 4 h^2 the exponent overflows, in columns replaced below;
        # past max / pi (5.7e307) so does pi alpha, and norm, 0, is redone
        with np.errstate(over="ignore"):
            norm = 1.0 / (2.0 * np.sqrt(math.pi * alpha))
            if not norm.all():
                norm = np.where(norm > 0.0, norm, 0.5 / (math.sqrt(math.pi) * np.sqrt(alpha)))
            kernel = np.exp(-lag2[:, None] / (4.0 * alpha)) * norm
        narrow = alpha < 4.0 * h * h
        if np.any(narrow):
            u, cosines = _band_cosines(n)
            band = np.exp(np.outer(-((math.pi / h) * u) ** 2, alpha[narrow]))
            kernel[:, narrow] = (cosines @ band) / h
        return fold @ kernel

    return smooth


def _ldexp(values, e: int) -> np.ndarray:
    """values times 2^e, by np.ldexp on the real and imaginary parts: exact
    wherever no part overflows (to inf, silently) or turns subnormal."""
    values = np.asarray(values)
    out = np.empty_like(values)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(values.real, e)
        if np.iscomplexobj(values):
            out.imag = np.ldexp(values.imag, e)
    return out


def _homogeneous(run: Callable, f, what: str, **named):
    """run(f, **named), for ``run`` a field route and ``named`` its parameters,
    or for ``f`` an array of data and ``run`` a linear map of it to an array
    (the CLI's spline of a --ic table onto its grid), scaled as the module
    docstring says, the peak the largest |real or imaginary part|. A failure
    comes as it came, in the scaled data's numbers; a result past float range
    raises past_float_range(what, **named, peak=...)."""
    is_field = isinstance(f, Field)
    data = f.values if is_field else f
    top = float(np.max(np.abs(data.view(float))))
    if not top or 2.0**-500 <= top <= 2.0**500:
        return run(f, **named)
    e = math.frexp(top)[1] - 1
    scaled = _ldexp(data, -e)
    out = run(f.with_values(scaled) if is_field else scaled, **named)
    values = in_float_range(_ldexp(out.values if is_field else out, e), what, **named, peak=lambda: _peak(data))
    if not is_field:
        return values
    return out.with_values(values, (), {name: float(_ldexp(v, e)) for name, v in out.meta.items()})


def gauss_weierstrass(f: Field, alpha: float) -> Field:
    """Heat-kernel smoothing e^{alpha d^2/dx^2} f by direct grid quadrature.

    Returns the convolution (1/(2 sqrt(pi alpha))) int e^{-(x-xi)^2/(4 alpha)}
    f(xi) dxi sampled on f's grid (see _gw_smoother; widths below 4 h^2
    smooth the band-limited interpolant of the samples, so no width is
    under-resolved). The kernel mass beyond the grid is dropped, which is
    exact for decaying data; a boundary-leakage warning is attached
    otherwise. A result past float range raises ValueError.
    """
    alpha = require("positive and finite", alpha=alpha)

    def smooth(g: Field, alpha: float) -> Field:
        values = _gw_smoother(g)(np.array([alpha]))[:, 0]
        return g.with_values(values, g.leak_warnings("gauss_weierstrass"))

    return _homogeneous(smooth, f, "the Gauss-Weierstrass smoothing", alpha=alpha)


def glaisher(alpha: float, x) -> float:
    """Closed form of the heat-smoothed Gaussian.

    e^{alpha d^2} e^{-x^2} = (1+4 alpha)^{-1/2} e^{-x^2/(1+4 alpha)},
    valid for 1 + 4 alpha > 0; evaluated as e^{-q^2 - log root}, q = x / root,
    with root = 2 sqrt(alpha + 1/4) in float range for every alpha, to 4e-13
    relative plus a subnormal unit (a sweep against mpmath).
    """
    alpha, x = require("real and finite", alpha=alpha, x=x)
    if not alpha + 0.25 > 0:
        raise ValueError("glaisher requires 1 + 4*alpha > 0")
    root = 2.0 * math.sqrt(alpha + 0.25)
    # one exponential, so no subnormal e^{-q^2} is scaled up; q^2 may pass
    # float range only where the Gaussian has long underflowed to 0.0
    with np.errstate(over="ignore"):
        q = x / root
        out = np.exp(-q * q - math.log(root))
    return float(out) if np.ndim(x) == 0 else out


def laplace_inv_power(nu: float, a: float) -> float:
    """a^{-nu} through the Laplace identity (1/Gamma(nu)) int e^{-as} s^{nu-1} ds.

    The substitution s = u^{1/p} / a with p = min(nu, 1) takes the scale
    out: a^{-nu} = a^{-nu} int_0^inf e^{-u^{1/p}} u^{nu/p - 1} du / (p Gamma(nu)),
    and the log-trapezoid rule integrates that. In v = log u its weight
    e^{(nu/p) v - e^{v/p}} peaks at u = nu^p for every a, falls at least like
    e^v to the left and double-exponentially to the right. For nu from 0.05
    to 20 and any a it agrees with a^{-nu} to 1e-12 relative (about 1e-14
    at most nu, but 1.8e-13 on a narrow band near nu = 0.294276, for every
    a), and to a few units of the smallest subnormal where a^{-nu}
    underflows; a nu so small or so large that the peak is too sharp for the
    finest step raises ConvergenceError, and a power past float range
    ValueError.
    """
    nu = require("positive and finite", nu=nu)
    a = require("positive and finite", a=a)
    try:
        power = a**-nu
    except OverflowError:
        raise past_float_range("a^-nu", nu=nu, a=a) from None
    p = min(nu, 1.0)
    log_norm = math.log(_LOG_UNIT) - math.lgamma(nu) - math.log(p)

    def ig(u: np.ndarray) -> np.ndarray:
        return np.exp((nu / p - 1.0) * np.log(u) - u ** (1.0 / p) + log_norm)

    scaled = float(_log_trapezoid(ig, nu**p, unit=power / _LOG_UNIT)[0])
    value = power * scaled / _LOG_UNIT
    if math.isinf(value):  # power * scaled passed float range before the division
        value = power * (scaled / _LOG_UNIT)
    return in_float_range(value, "a^-nu", nu=nu, a=a)

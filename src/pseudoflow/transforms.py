"""Core operational identities as standalone primitives.

The subordination (Doetsch) integral, the Gauss-Weierstrass transform, the
Glaisher identity for Gaussians, and the Laplace inverse-power identity.
Everything here works on plain numbers or on :class:`Field` values sampled
on a uniform grid; convolutions are computed by direct quadrature against
the kernel (not FFT), so they stay valid on non-power-of-two grids.

On a uniform grid the trapezoid-rule heat kernel depends only on the lag
|i - j| h and is even, so the trapezoid-weighted data fold once per field
into one n x n Toeplitz-plus-Hankel matrix. A Gauss-Weierstrass smoothing
at any width is then n kernel values on the lags and one matrix-vector
product; callers that smooth one field at many widths (the pseudoheat
subordination integral) build the fold once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import hankel, toeplitz

from .special import QuadratureConfig, _log_trapezoid, integrate_halfline

__all__ = [
    "Field",
    "doetsch_weight",
    "exp_sqrt_via_doetsch",
    "gauss_weierstrass",
    "glaisher",
    "laplace_inv_power",
]

# Boundary samples above this fraction of the peak trigger a leakage warning.
BOUNDARY_LEAK_THRESHOLD = 1e-8

_ADAPTIVE_CFG = QuadratureConfig(halfline_rule="adaptive_subdivision")


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
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if self.n < 8:
            raise ValueError("need at least 8 samples")
        vals = np.asarray(self.values)
        if vals.shape != (self.n,):
            raise ValueError(f"values must have shape ({self.n},), got {vals.shape}")
        if not np.all(np.isfinite(vals.real)) or (
            np.iscomplexobj(vals) and not np.all(np.isfinite(vals.imag))
        ):
            raise ValueError("values must be finite")
        if np.iscomplexobj(vals):
            vals = vals.astype(np.complex128)
        else:
            vals = vals.astype(np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

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

    def boundary_leaks(self) -> bool:
        """True when the grid visibly truncates the sampled function."""
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return False
        edge = max(abs(complex(self.values[0])), abs(complex(self.values[-1])))
        return edge > BOUNDARY_LEAK_THRESHOLD * peak


def doetsch_weight(t):
    """Subordination density w(t) = t^{-3/2} e^{-1/(4t)} / (2 sqrt(pi)).

    This is the tau-independent part of the subordination integrand; the
    caller multiplies by its own e^{-t tau^2 (...)} factor. ``t`` may be a
    scalar or an array; all entries must be positive.
    """
    t_arr = np.asarray(t, dtype=float)
    if not (np.isfinite(t_arr) & (t_arr > 0.0)).all():
        raise ValueError("t must be positive and finite")
    w = t_arr**-1.5 * np.exp(-0.25 / t_arr) / (2.0 * math.sqrt(math.pi))
    return float(w) if np.ndim(t) == 0 else w


def exp_sqrt_via_doetsch(x: float, y: float, form: str = "t_form") -> float:
    """Evaluate e^{-x sqrt(y)} through its subordination integral.

    ``t_form`` (default) integrates w(t) e^{-t x^2 y} dt over (0, inf) with
    the log-trapezoid rule, all nodes of a level in one array; ``xi_form``
    integrates the substituted representation
    (1/sqrt(pi)) exp(-xi^2/4 - x^2 y / xi^2) dxi directly with adaptive
    subdivision (QUADPACK), so the two forms exercise genuinely different
    numerical paths. Both agree with e^{-x sqrt(y)} and with each other to
    better than 1e-10.
    """
    if not (math.isfinite(x) and math.isfinite(y) and x >= 0 and y >= 0):
        raise ValueError("x and y must be finite and nonnegative")
    c = x * x * y
    if form == "t_form":
        return float(_log_trapezoid(lambda t: doetsch_weight(t) * np.exp(-t * c))[0])
    if form == "xi_form":

        def ig(xi: float) -> float:
            return math.exp(-0.25 * xi * xi - c / (xi * xi)) / math.sqrt(math.pi)

        return float(integrate_halfline(ig, _ADAPTIVE_CFG).value.real)
    raise ValueError(f"unknown form {form!r}; expected 't_form' or 'xi_form'")


def _gw_smoother(f: Field):
    """Trapezoid-rule Gauss-Weierstrass smoothing of ``f`` as a map from
    m widths alpha to the (n, m) smoothed columns on f's grid.

    out[i] = sum_j wf[j] g(|i - j| h) with wf the trapezoid-weighted data and
    g the heat kernel of width alpha. Grouping the sum by lag k gives
    out = A @ g(k h) with A[i, k] = wf[i - k] + wf[i + k] (A[i, 0] = wf[i],
    out-of-range entries zero), built here once per field; all widths are
    then one product of A with the (n, m) kernel matrix.
    """
    n, h = f.n, f.dx
    wf = h * f.values
    wf[0] *= 0.5
    wf[-1] *= 0.5
    fold = toeplitz(wf, np.zeros(n)) + hankel(wf)
    fold[:, 0] = wf
    lag2 = (h * np.arange(n)) ** 2

    def smooth(alpha: np.ndarray) -> np.ndarray:
        norm = 1.0 / (2.0 * np.sqrt(math.pi * alpha))
        return fold @ (np.exp(-lag2[:, None] / (4.0 * alpha)) * norm)

    return smooth


def gauss_weierstrass(f: Field, alpha: float) -> Field:
    """Heat-kernel smoothing e^{alpha d^2/dx^2} f by direct grid quadrature.

    Returns the convolution (1/(2 sqrt(pi alpha))) int e^{-(x-xi)^2/(4 alpha)}
    f(xi) dxi sampled on f's grid. The kernel mass beyond the grid is
    dropped, which is exact for decaying data; a boundary-leakage warning is
    attached otherwise.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be positive and finite")
    warnings = []
    if f.boundary_leaks():
        warnings.append("gauss_weierstrass: input is not negligible at the grid boundary")
    h = f.dx
    if alpha < h * h:
        warnings.append(
            "gauss_weierstrass: kernel width below the grid spacing; result is under-resolved"
        )
    return f.with_values(_gw_smoother(f)(np.array([alpha]))[:, 0], tuple(warnings))


def glaisher(alpha: float, x) -> float:
    """Closed form of the heat-smoothed Gaussian.

    e^{alpha d^2} e^{-x^2} = (1+4 alpha)^{-1/2} e^{-x^2/(1+4 alpha)},
    valid for 1 + 4 alpha > 0.
    """
    s = 1.0 + 4.0 * alpha
    if s <= 0:
        raise ValueError("glaisher requires 1 + 4*alpha > 0")
    out = np.exp(-np.asarray(x) ** 2 / s) / math.sqrt(s)
    return float(out) if np.ndim(x) == 0 else out


def laplace_inv_power(nu: float, a: float) -> float:
    """a^{-nu} through the Laplace identity (1/Gamma(nu)) int e^{-as} s^{nu-1} ds."""
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError("nu must be positive and finite")
    if not (math.isfinite(a) and a > 0):
        raise ValueError("a must be positive and finite")
    gamma = math.gamma(nu)

    def ig(s: float) -> float:
        return math.exp(-a * s) * s ** (nu - 1.0) / gamma

    return float(integrate_halfline(ig, _ADAPTIVE_CFG).value.real)

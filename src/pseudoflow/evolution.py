"""Solvers for one-dimensional evolution equations with fractional and
pseudodifferential generators.

Each solver evolves a :class:`~pseudoflow.transforms.Field` forward in the
evolution parameter tau:

* :func:`solve_half_derivative` -- d/dtau F = -d^{1/2}/dx^{1/2} F via the
  subordination integral over shifted copies of the data.
* :func:`solve_pseudoheat`     -- d/dtau F = -sqrt(1 - d^2/dx^2) F via an
  outer subordination integral over Gauss-Weierstrass smoothings; the
  data are folded into one Toeplitz operator per solve, so each refinement
  level of the outer rule costs one matrix-matrix product.
* :func:`pseudoheat_gaussian`  -- single-integral closed form of the above
  for the Gaussian initial condition e^{-x^2}.
* :func:`solve_symbol_spectral` -- FFT multiplier e^{tau P(ik)} for any
  symbol; the universal cross-validation oracle.
* :func:`solve_affine_sqrt`    -- d/dtau F = -sqrt(x - c d/dx) F via
  subordination plus Weyl disentanglement.
* :func:`apply_inv_sqrt_shift` -- the Bessel representation of
  (1 + d^2/dx^2)^{-1/2}, f(x) = int_0^inf J0(t) g(x - t) dt: the Fourier
  multiplier (1 - k^2)^{-1/2} on |k| < 1.

Off-grid samples in the shift-type integrals come from the not-a-knot
cubic spline inside the grid and zero extension outside; discarded
boundary mass is flagged with a warning, not an error. Every shift-type
integral reads the spline through its four coefficient rows, which one
LAPACK tridiagonal solve gives (_coefficients): quadrature nodes are
binned by grid lag and fractional offset, and the sums become
correlations or matrix products with sliding windows of those rows, so no
node evaluates the spline. Each kernel route splits into a plan, which
depends on the grid alone, and a data step, the coefficient rows followed
by the correlations or products. A row of shifts is binned once
(_shift_lattice) and its plan serves any number of fields on its grid; the
J0 arcs, each binned so, are summed a block of arcs at a time (_j0_plan),
each block one product with the windows that hold data, and the affine
flow multiplies the windows by its amplitude first (_affine_panels). The
plans of the translation-invariant kernels are built once per grid and
kept in bounded caches keyed on the grid's (n, x_min, x_max), with
read-only arrays: the J0 arcs (_j0_plan), the K0 lags of D
(relativistic._k0_lags) and the half-derivative's tail lattice of each
node set (_tail_lattice), about 1.5 MB together on the grids of the
benchmark's grid_subordination workload. Nothing they are built from is
cached on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _EXPORTS
from ._choices import in_float_range, require
from ._scipy import flapack, specfun, special_ufuncs
from .errors import ConvergenceError
from .special import _REL_TOL, _cell_offsets, _gl_panels, _leading_scale, _log_trapezoid, _shift_panels
from .transforms import Field, _gw_smoother, _homogeneous, _peak

__all__ = list(_EXPORTS["evolution"])


@dataclass(frozen=True)
class SymbolSpec:
    """A pseudodifferential symbol: a map from wavenumber k to the complex
    value P(ik) that multiplies each Fourier mode's exponent.

    ``eval`` must accept an ndarray of wavenumbers and return the matching
    array of multiplier exponents.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    @classmethod
    def heat(cls) -> "SymbolSpec":
        return cls(lambda k: -(k**2), "heat")

    @classmethod
    def pseudoheat(cls) -> "SymbolSpec":
        return cls(lambda k: -np.sqrt(1.0 + k**2), "pseudoheat")

    @classmethod
    def schrodinger(cls) -> "SymbolSpec":
        return cls(lambda k: -1j * np.sqrt(1.0 + k**2), "schrodinger")

    @classmethod
    def optics(cls, n: float) -> "SymbolSpec":
        n = require("finite with a finite square", n=n)
        # Nonparaxial propagation: -i sqrt(n^2 - k^2) for propagating modes,
        # and the evanescent branch -sqrt(k^2 - n^2) beyond the aperture.
        def eval_(k: np.ndarray) -> np.ndarray:
            prop = n * n - k**2
            return np.where(
                prop > 0,
                -1j * np.sqrt(np.maximum(prop, 0.0)),
                -np.sqrt(np.maximum(-prop, 0.0)) + 0j,
            )

        return cls(eval_, f"optics(n={n})")


# ----------------------------------------------------------------------
# spectral path


def _spectral_apply(
    f: Field, multiplier_of_k: Callable[[np.ndarray], np.ndarray], what: str, **named
) -> Field:
    """Apply a Fourier multiplier with factor-2 zero padding (fixed contract),
    on any sample count n: pad to 2n, transform, multiply, crop to n.

    A result past float range (finite data near the largest float, whose
    transform overflows) raises past_float_range(what, **named, peak=...)."""
    n = f.n
    wrap = "; periodic wrap-around will contaminate the result"
    warnings = tuple(w + wrap for w in f.leak_warnings("spectral"))
    h = f.dx
    padded = np.zeros(2 * n, dtype=complex)
    padded[:n] = f.values
    k = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=h)
    # a non-finite multiplier or result is refused, so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        mult = np.asarray(multiplier_of_k(k), dtype=complex)
        if not np.all(np.isfinite(mult)):
            raise ValueError("symbol produced non-finite multipliers on the grid's wavenumbers")
        out = np.fft.ifft(mult * np.fft.fft(padded))[:n]
    return f.with_values(in_float_range(out, what, **named, peak=lambda: _peak(f.values)), warnings)


def solve_symbol_spectral(f: Field, tau: float, symbol: SymbolSpec) -> Field:
    """Evolve f by the Fourier multiplier e^{tau P(ik)}.

    The grid is zero-padded by a factor of 2 before the transform and
    cropped after; wavenumbers follow the DFT convention k = 2 pi j / (N h)
    on the padded array. Any sample count works, not only powers of two.
    Finite data whose transform leaves float range raise ValueError naming
    the symbol, tau and the data's peak.
    """
    tau = require("finite", tau=tau)
    what = f"the spectral {symbol.name} flow"
    multiplier = lambda k: np.exp(tau * np.asarray(symbol.eval(k), dtype=complex))
    return _homogeneous(lambda g, **named: _spectral_apply(g, multiplier, what, **named), f, what, tau=tau)


# ----------------------------------------------------------------------
# the cubic spline's coefficient rows


# exponents 3 - r of the offset d for coefficient rows r = 0 .. 3
_POWERS = np.arange(3, -1, -1)[:, None]
_POWERS.setflags(write=False)


def _coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, n - 1) coefficient rows c of the not-a-knot cubic spline S
    through (x, y): at offset d in [0, x_{k+1} - x_k) on cell k,
    S(x_k + d) = sum_r c[r, k] d^{3-r}. Off the grid S is zero.

    The node slopes solve scipy's CubicSpline tridiagonal system, built with
    its arithmetic and passed to the LAPACK routine gtsv that its banded
    solve calls (loaded alone, see :mod:`pseudoflow._scipy`), so the rows
    equal ``CubicSpline(x, y).c`` bit for bit without the spline object or
    the ``scipy.interpolate`` and ``scipy.linalg`` imports. Rows past float
    range raise ValueError.
    """
    lapack = flapack()
    # a row past float range is refused below, so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i of 1 .. n-2: dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
        lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
        rhs = np.empty(x.size, dtype=y.dtype)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x_1 and at x_{n-2}
        span = x[2] - x[0]
        rhs[0] = ((dx[0] + 2 * span) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / span
        span = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * span + dx[-1]) * dx[-2] * slope[-1]) / span
        gtsv = lapack.zgtsv if np.iscomplexobj(rhs) else lapack.dgtsv
        s = gtsv(lower, diag, upper, rhs, True, True, True, True)[3]
        # the cubic Hermite rows through (y, s) on each cell
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        coef = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    step, peak = lambda: float(np.min(dx)), lambda: _peak(y)
    return in_float_range(coef, "the cubic spline through the data", step=step, peak=peak)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class _ShiftPlan(NamedTuple):
    """Real weights w_q binned by lag on an n-point grid (see
    :func:`_shift_lattice`): ``plan(coef, last)`` maps the coefficient rows of
    a spline S (see :func:`_coefficients`) and its last sample to the (n,)
    sum_q w_q S(x_i + s_q) on the grid. The arrays are read-only."""

    n: int
    lo: int
    kern: np.ndarray  # (4, size): kern[r, k] sums w d^{3-r} over lag lo + k
    last_at: np.ndarray  # the points whose shifts land on x_{n-1} ...
    last_w: np.ndarray  # ... and those shifts' weights

    def __call__(self, coef: np.ndarray, last: complex) -> np.ndarray:
        n, lo, size = self.n, self.lo, self.kern.shape[1]
        if not size:
            out = np.zeros(n, dtype=coef.dtype)
        else:
            # pad[:, t] holds cell lo + t, and point i reads pad[:, i : i + size]
            first, stop = max(0, lo), min(n - 1, lo + n + size - 1)
            pad = np.zeros((4, n + size - 1), dtype=coef.dtype)
            if stop > first:
                pad[:, first - lo : stop - lo] = coef[:, first:stop]
            out = sum(np.correlate(pad[r], self.kern[r], "valid") for r in range(4))
        np.add.at(out, self.last_at, self.last_w * last)
        return out


class _ShiftLattice(NamedTuple):
    """The data-free part of a :class:`_ShiftPlan` for (Q,) shifts s_q on
    an n-point grid: which shifts reach a cell, their lags and offset powers.
    ``bin(weights)`` gives the plan for weights on these shifts. The arrays
    are read-only."""

    n: int
    keep: np.ndarray  # the shifts whose lags reach some cell 0 .. n-2
    col: np.ndarray  # their lags, counted from the least, lo
    lo: int
    size: int  # the lag count, 0 where no shift reaches a cell
    dpow: np.ndarray  # (3, kept): their offsets' powers d^3, d^2 and d
    at_last: np.ndarray  # the shifts that read S(x_{n-1}) ...
    last_at: np.ndarray  # ... and the points that read it

    def bin(self, weights: np.ndarray) -> _ShiftPlan:
        kept = weights[self.keep]
        # row by row, each bin sums its nodes in node order, as one
        # bincount over all four rows would; the last row's power d^0 is 1
        kern = np.empty((4, self.size))
        for r in range(3):
            kern[r] = np.bincount(self.col, kept * self.dpow[r], self.size)
        kern[3] = np.bincount(self.col, kept, self.size)
        last_w = weights[self.at_last]
        _read_only(kern, last_w)
        return _ShiftPlan(self.n, self.lo, kern, self.last_at, last_w)


def _shift_lattice(n: int, h: float, shifts: np.ndarray) -> _ShiftLattice:
    """Bin (Q,) shifts s_q on an n-point grid of step h once; for real
    weights w_q on them, ``bin(weights)`` gives the plan that maps the
    coefficient rows of a spline S (see :func:`_coefficients`) and its last
    sample to the (n,) sum_q w_q S(x_i + s_q) on the grid.

    A shift s = L h + d with L = floor(s / h) puts x_i + s at offset d in
    [0, h) on cell i + L, where S is sum_r c[r, i + L] d^{3-r}. Binning
    w d^{3-r} by lag, counted from the least lag, gives a (4, S) kernel
    over S lags, which depends on the grid and the nodes but not on the
    data; the sum is one correlation of each zero-padded coefficient row
    with its kernel row. No node evaluates the spline; cells off the grid
    contribute zero. The lags and offset powers do not depend on the
    weights either, so a caller whose weights change and whose shifts do
    not keeps the lattice and bins each set of weights on it. Two callers
    cache per grid, keyed on its (n, x_min, x_max): the K0 kernel of D
    keeps its plan (relativistic._k0_lags, 65 kB on 1024 points), and the
    half-derivative keeps the lattice of each tail node set
    (:func:`_tail_lattice`, 33 bytes per node: 0.34 and 0.51 MB for the 8-
    and 12-node sets on 1281 points). The J0 plan (:func:`_j0_plan`) bins
    each arc so and sums its arcs a block at a time.
    """
    lag = np.floor(shifts / h)
    d = shifts - lag * h
    # S(x_{n-1}) is the one value no cell reaches with d < h
    at_last = np.flatnonzero((d == 0.0) & (lag >= 0) & (lag < n))
    last_at = n - 1 - lag[at_last].astype(np.intp)
    keep = (lag > -n) & (lag < n - 1)  # lags that reach some cell 0 .. n-2
    lag = lag[keep].astype(np.intp)
    lo = int(lag.min()) if lag.size else 0
    col = lag - lo
    size = int(col.max()) + 1 if lag.size else 0
    dpow = d[keep] ** _POWERS[:3]
    _read_only(keep, col, dpow, at_last, last_at)
    return _ShiftLattice(n, keep, col, lo, size, dpow, at_last, last_at)


# ----------------------------------------------------------------------
# subordination solvers


# A flow whose generator is at most G on the grid changes the data by at
# most tau G of its size: the identity to rounding for tau G <= 2^-53.
_ROUNDING = 2.0**-53

_AFFINE_OVERFLOW = ("affine-sqrt quadrature overflowed: the amplitude e^{(x^2 - z^2)/(2c)}, "
                    "z = x + c tau^2 t, at data points z far from x, or its product with the "
                    "data there, exceeds floating-point range")


def _identity_to_rounding(identity: Callable, below: Callable, flow: Callable, tau, **real):
    """The entry of every subordination flow. A tau that is not nonnegative
    and finite is refused, then a ``real`` parameter that is not real and
    finite; the callables take them as ``require`` returns them. At or below
    below(**real) the flow is the identity to rounding: identity(**real),
    the input, is returned without running it, as at tau = 0; else flow(tau, **real)."""
    tau = require("nonnegative and finite", tau=tau)
    real = {name: require("real and finite", **{name: value}) for name, value in real.items()}
    if tau == 0.0 or tau <= below(**real):  # a NaN bound proves nothing
        return identity(**real)
    return flow(tau, **real)


def solve_half_derivative(f: Field, tau: float) -> Field:
    """Solve d/dtau F = -d^{1/2}F/dx^{1/2}, F(x,0) = f(x).

    F(x, tau) = (1/(2 sqrt(pi))) int_0^inf t^{-3/2} e^{-1/(4t)}
    f(x - tau^2 t) dt. In the shift variable s = tau^2 t this is a
    convolution with the one-sided stable density
    (tau/(2 sqrt(pi))) s^{-3/2} e^{-tau^2/(4s)}, and the data factor is
    resolved by aligning the quadrature panels with the grid cells, where
    the interpolant is a single cubic: Gauss-Legendre panels of width h on
    s in [h, span], plus geometric panels on the leading cell s in (0, h]
    that track the essential singularity of the kernel. Accuracy is then
    uniform in tau. Each panel level is two lag correlations with the
    spline's coefficient rows: the leading cell, whose nodes all read cell
    i - 1 and so bin into one lag, and every tail cell and offset at once,
    on the grid's cached lattice. The kernel looks leftward, so data should
    either decay toward x_min or the grid should extend far enough left.

    tau = 0 returns the input, and so does every tau at which the flow is
    the identity to rounding, tau <= 2^-53 sqrt(h/pi) (|k|^{1/2} <= sqrt(pi/h)
    on the grid).
    """
    below = lambda: _ROUNDING * math.sqrt(f.dx / math.pi)
    flow = lambda tau: _homogeneous(_half_derivative, f, "the half-derivative flow", tau=tau)
    return _identity_to_rounding(lambda: f.with_values(f.values), below, flow, tau)


def _tail_cells(n: int, h: float, offs: np.ndarray) -> np.ndarray:
    """The (n - 2, P) shifts s = (j + off) h of cells j = 1 .. n - 2."""
    return (np.arange(1, n - 1)[:, None] + offs) * h


@lru_cache(maxsize=6)
def _tail_lattice(n: int, x_min: float, x_max: float, order: int, split: int) -> _ShiftLattice:
    """The half-derivative's leftward tail shifts -s (see :func:`_tail_cells`)
    for the node set (order, split) on the grid of n points on
    [x_min, x_max], binned once per grid and set: on 1281 points the sets
    (8, 1) and (12, 1) hold 0.84 MB together."""
    h = (x_max - x_min) / (n - 1)
    return _shift_lattice(n, h, -_tail_cells(n, h, _cell_offsets(order, split)[0]).ravel())


def _half_derivative(f: Field, tau: float) -> Field:
    n, h = f.n, f.dx
    warn = f.leak_warnings("solve_half_derivative", "left")
    if _leading_scale(h, tau) == math.inf:  # the kernel underflows on every cell
        return f.with_values(np.zeros_like(f.values), warn, meta={"quadrature_error": 0.0})
    coef, last = _coefficients(f.x, f.values), f.values[-1]

    def head(ss: np.ndarray, ws: np.ndarray) -> np.ndarray:
        # s in (0, h]: x - s lies on cell i - 1 at offset h - s
        return _shift_lattice(n, h, -ss).bin(ws)(coef, last)

    def tail(sets: list, kernel: Callable) -> list:
        # every cell and offset in one sum, on the grid's cached lattice
        out = []
        for order, split in sets:
            offs, wq = _cell_offsets(order, split)
            weights = (h * wq * kernel(_tail_cells(n, h, offs))).ravel()
            out.append(_tail_lattice(n, f.x_min, f.x_max, order, split).bin(weights)(coef, last))
        return out

    values, err = _shift_panels(h, tau, tau * tau, head, tail, "half-derivative")
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(
            "half-derivative quadrature overflowed: the kernel tau s^{-3/2} at the "
            "leading cell's nodes s ~ tau^2 exceeds floating-point range",
            error_bound=math.inf,
        )
    return f.with_values(values, warn, meta={"quadrature_error": float(err)})


def solve_pseudoheat(f: Field, tau: float) -> Field:
    """Solve d/dtau F = -sqrt(1 - d^2/dx^2) F by subordination.

    F = (1/(2 sqrt(pi))) int_0^inf t^{-3/2} e^{-1/(4t) - t tau^2}
    GW(f, t tau^2) dt, where GW is the Gauss-Weierstrass smoothing of the
    initial data. The trapezoid-weighted data are folded once into the
    Toeplitz operator of :func:`~pseudoflow.transforms.gauss_weierstrass`,
    and the outer integral is the log-trapezoid rule, so each refinement
    level evaluates the kernel on the n grid lags at all its new nodes and
    applies one matrix-matrix product. Widths t tau^2 below 4 h^2 use the
    band-limited kernel, where the sampled one would alias, so the result
    meets the spectral solution at every tau. Refinement and the error
    estimate act on the output field.

    tau = 0 returns the input, and so does every tau at which the flow is
    the identity to rounding, tau <= 2^-53 / sqrt(1 + (pi/h)^2).
    """
    below = lambda: _ROUNDING / math.hypot(1.0, math.pi / f.dx)
    flow = lambda tau: _homogeneous(_pseudoheat, f, "the pseudoheat flow", tau=tau)
    return _identity_to_rounding(lambda: f.with_values(f.values), below, flow, tau)


def _pseudoheat(f: Field, tau: float) -> Field:
    smooth = _gw_smoother(f)
    t2 = tau * tau
    pref = 1.0 / (2.0 * math.sqrt(math.pi))

    def integrand(t: np.ndarray) -> np.ndarray:
        weight = pref * t**-1.5 * np.exp(-0.25 / t - t * t2)
        return weight[:, None] * smooth(t * t2).T

    # Every term of the smoothing sum falls in t beyond |lag| / (2 tau^2).
    values, err = _log_trapezoid(integrand, (f.x[-1] - f.x[0]) / (2.0 * t2))
    warn = f.leak_warnings("solve_pseudoheat")
    return f.with_values(values, warn, meta={"quadrature_error": float(err)})


# The Gaussian's flow moves it by at most this multiple of tau:
# (1/(2 sqrt(pi))) int sqrt(1 + k^2) e^{-k^2/4} dk = 1.6045...
_GAUSSIAN_RATE = 1.61
# Past this |x| the Gaussian's integrand underflows to 0 at every node.
_GAUSSIAN_FLAT = 746.25


def pseudoheat_gaussian(tau: float, x: float) -> float:
    """Closed-form pseudoheat evolution of the Gaussian e^{-x^2}.

    Single subordination integral of the Glaisher-smoothed Gaussian:
    (1/(2 sqrt(pi))) int t^{-3/2} (1+4 t tau^2)^{-1/2}
    exp{-(1/(4t) + t tau^2 + x^2/(1+4 t tau^2))} dt.

    Past |x| = 746.25 the value is 0.0: with s = 1 + 4 t tau^2 the exponent
    is at least (s - 1)/4 + x^2/s >= |x| - 1/4, so the integrand is 0 in
    floating point at every node. The flow moves the Gaussian by at most
    1.6045 tau at every x (its symbol e^{-tau sqrt(1 + k^2)} differs from 1
    by at most tau sqrt(1 + k^2)), so where 1.61 tau <= 2^-53 e^{-x^2} it
    is the identity to rounding, and e^{-x^2} is returned without running
    the rule. Above that bound a tau at which the rule cannot start (tau^2
    underflowing to 0, or its window past the rule's reach) raises
    ConvergenceError: the flow's kernel tail is linear in tau, so at x = 10
    and tau = 1e-20 the value is 1.5e-26, not e^{-100}.

    For tau in [1e-4, 300] and |x| <= 16 the value is within 1e-15 absolute
    of the Fourier integral (1/sqrt(pi)) int_0^inf e^{-k^2/4 - tau sqrt(1+k^2)}
    cos(kx) dk (a derandomized sweep against mpmath; 3.5e-16 at worst). The
    rule stops at an absolute floor of 1e-12, so far out the relative error
    can be large: at tau = 1.727e-4, x = 14.27 the value is 2.00980e-12
    against 2.01015e-12 (1.7e-4 relative), a reference on which the Fourier
    integral, e^{-x^2} plus the integral of the (e^{-tau sqrt(1+k^2)} - 1)
    part, and the K1 kernel in position space agree.
    """
    below = lambda x: _ROUNDING * math.exp(-x * x) / _GAUSSIAN_RATE
    return _identity_to_rounding(lambda x: math.exp(-x * x), below, _pseudoheat_gaussian, tau, x=x)


def _pseudoheat_gaussian(tau: float, x: float) -> float:
    if abs(x) > _GAUSSIAN_FLAT:
        return 0.0
    t2 = tau * tau
    if t2 == 0.0:
        raise ConvergenceError(
            "pseudoheat_gaussian: tau^2 underflows, so the rule's window (2|x| + 1)/(4 tau^2) "
            "leaves float range",
            error_bound=math.inf,
        )
    pref = 1.0 / (2.0 * math.sqrt(math.pi))

    def integrand(t: np.ndarray) -> np.ndarray:
        s = 1.0 + 4.0 * t * t2
        return pref * t**-1.5 / np.sqrt(s) * np.exp(-0.25 / t - t * t2 - x * x / s)

    # e^{-x^2/s}, s = 1 + 4 t tau^2, rises until s = 2|x| - 1; past
    # s = 2|x| + 1 the whole integrand falls.
    return float(_log_trapezoid(integrand, (2.0 * abs(x) + 1.0) / (4.0 * t2))[0])


def _affine_panels(f: Field, tau: float, c: float) -> Field:
    """The affine flow for c != 0, by grid-aligned quadrature of the
    disentangled integral.

    In the shift variable s = |c| tau^2 t the integral reads
    (sqrt(|c| tau^2)/(2 sqrt(pi))) int s^{-3/2}
    exp{-|c| tau^2/(4s) - sgn(c) s^2/(2|c|) - s x/|c|} f(x + sgn(c) s) ds,
    one formula for both signs. The data factor is a single cubic on each
    grid cell, so the panel layout of solve_half_derivative applies: for
    c > 0 the shift runs right to the grid's end, for c < 0 left to x_min.

    The amplitude e^{-s x/|c| - sgn(c) s^2/(2|c|)} depends on x, which rules
    out a lag correlation (_shift_lattice). With s = j h + delta it factors
    as E[i, j] e^{-delta x_i/|c|} times a kernel of (j, delta). For c > 0,
    E[i, j] = e^{-j h (x_i + j h/2)/|c|} is the amplitude from x_i to the
    grid point x_{i+j}, and the kernel's coupling e^{-j h delta/|c|} is at
    most 1. For c < 0 that coupling is e^{j h delta/|c|}, so E takes it at
    delta = h: E[i, j] = e^{j h (j h + 2 h - 2 x_i)/(2|c|)} is the amplitude
    from x_{i-1} to x_{i-j-1}, and the kernel keeps at most e^{h^2/(2|c|)}.
    Each factor is then bounded by amplitudes between grid points, so none
    overflows where the integrand does not. E is zero on the cells past the
    grid's end, which x_i + sgn(c) s does not reach: there the window holds
    zero padding, and E, unbounded in j for c < 0, would make it inf * 0.
    E and the windows depend on the grid alone, so each ``tail`` call forms
    them once for all its node sets (the coarse and fine levels share one):
    E times each coefficient row, read on the Hankel (c > 0) or Toeplitz
    (c < 0) window of cells the shifts reach, takes one matrix product with
    each set's kernel, and each set sums over its fractional offsets. E is
    (n, J), so it is formed in blocks of about 2^19 entries of grid points
    rather than held whole (a 4097-point grid would need 134 MB). Each
    ``tail`` call allocates two block-sized buffers and reuses them for
    every block: E is formed in place in one (its exponent, then exp, then
    zero on the cells past each point's reach, set only in the run of
    points that has such cells), and E times each coefficient row's window
    in the other. The block size stays a function of J alone: a matrix
    product's rows can round differently with the number of rows, so
    another partition would move the values. The leading cell s in (0, h]
    is one cubic, read off the same coefficient rows.
    """
    x, n, h = f.x, f.n, f.dx
    coef = _coefficients(x, f.values)
    a = abs(c)
    sign = math.copysign(1.0, c)
    gamma = a * tau * tau
    root = math.sqrt(gamma)
    warn = f.leak_warnings("solve_affine_sqrt", "right" if c > 0 else "left")
    if _leading_scale(h, root) == math.inf:
        # the kernel underflows on every cell: zero, unless E below, the amplitude
        # e^{(x_p^2 - x_q^2)/(2|c|)} between grid points p < q <= n - 2, overflows
        lo, near = abs(f.x_min), float(np.min(np.abs(x[1:-1])))
        if (lo - near) * (lo + near) > 2.0 * a * np.log(np.finfo(float).max):
            raise ConvergenceError(_AFFINE_OVERFLOW, error_bound=math.inf)
        return f.with_values(np.zeros_like(f.values), warn, meta={"quadrature_error": 0.0})

    # tail cells j = 1 .. J: drop those whose worst-case weight over the
    # grid, at either end of the cell, is below 1e-22 of the largest
    edge = h * np.arange(1, n)
    log_bound = (
        -1.5 * np.log(edge) - gamma / (4.0 * edge) - edge * (2.0 * x[0] + sign * edge) / (2.0 * a)
    )
    log_bound = np.maximum(log_bound[:-1], log_bound[1:])
    cells = int(np.nonzero(log_bound >= log_bound.max() - 22.0 * math.log(10.0))[0][-1]) + 1
    jh = h * np.arange(1, cells + 1)
    if c > 0:  # x_i + j h + delta lies on cell i + j at offset delta
        pad = np.concatenate([coef, np.zeros((4, cells + 1), dtype=coef.dtype)], axis=1)
        window = sliding_window_view(pad, cells, axis=1)[:, 1 : n + 1]
    else:  # x_i - j h - delta lies on cell i - j - 1 at offset h - delta
        pad = np.concatenate([np.zeros((4, cells + 1), dtype=coef.dtype), coef], axis=1)
        window = sliding_window_view(pad, cells, axis=1)[:, :n, ::-1]

    # about 2^19 entries of E at a time, on any grid; the partition is part
    # of the result, as a matrix product's rows can round with its row count
    block = max(1, (1 << 19) // cells)
    # for c < 0 the kernel's coupling e^{j h delta/|c|} moves into E at its
    # largest, delta = h, so that no factor grows with j on its own
    lift = jh * h / a if c < 0 else np.zeros(cells)
    decay = -sign * jh * jh / (2.0 * a) + lift
    scale = -x / a
    # the last cell j each point reaches: i + j <= n - 2, or i - j - 1 >= 0;
    # the points short of the last cell are the last (c > 0) or the first
    # (c < 0) cells + 1 of the grid, one run in each block
    reach = n - 2 - np.arange(n) if c > 0 else np.arange(n) - 1
    short = reach < cells
    jcell = np.arange(1, cells + 1)

    def tail(sets: list, kernel: Callable) -> list:
        # per node set (offsets, weights): the weights
        # kernel(s) e^{-sgn(c) (s^2 - (j h)^2)/(2|c|)} (E carries the rest),
        # the offset powers and the output
        levels = []
        for order, split in sets:
            offs, wq = _cell_offsets(order, split)
            delta = offs * h
            w = (h * wq) * kernel(jh[:, None] + delta) * np.exp(
                -sign * (2.0 * jh[:, None] + delta) * delta / (2.0 * a) - lift[:, None]
            )
            d = (delta if c > 0 else h - delta) ** _POWERS
            levels.append((delta, w, d, np.empty(n, dtype=np.result_type(coef, w))))
        rows = min(block, n)
        amp_buf = np.empty((rows, cells))
        weighted_buf = np.empty((rows, cells), dtype=coef.dtype)
        for lo in range(0, n, block):
            pts = slice(lo, lo + block)
            amp = amp_buf[: min(block, n - lo)]
            # E on these points, zero past each one's reach, where the window
            # reads zero padding and E itself may exceed floating-point range
            np.multiply.outer(scale[pts], jh, out=amp)
            amp += decay
            np.exp(amp, out=amp)
            cut = np.flatnonzero(short[pts])
            if cut.size:
                run = slice(cut[0], cut[-1] + 1)
                amp[run][jcell > reach[pts][run, None]] = 0.0
            prods = [[] for _ in levels]  # per set: (b, Q) for each coefficient row
            for r in range(4):
                weighted = np.multiply(amp, window[r, pts], out=weighted_buf[: len(amp)])
                for prod, (_, w, _, _) in zip(prods, levels):
                    prod.append(weighted @ w)
            for prod, (delta, _, d, out) in zip(prods, levels):
                phase = np.exp(np.outer(scale[pts], delta))
                out[pts] = np.einsum("rbq,rq,bq->b", np.stack(prod), d, phase)
        return [out for *_, out in levels]

    def head(ss: np.ndarray, ws: np.ndarray) -> np.ndarray:
        w = ws * np.exp(-sign * ss * ss / (2.0 * a))
        d = ss if c > 0 else h - ss
        rows = (np.exp(np.outer(-x / a, ss)) * w) @ (d**_POWERS).T  # (n, 4)
        out = np.zeros(n, dtype=np.result_type(rows, coef))
        if c > 0:  # cell i, none for the last point
            out[:-1] = np.einsum("ir,ri->i", rows[:-1], coef)
        else:  # cell i - 1, none for the first point
            out[1:] = np.einsum("ir,ri->i", rows[1:], coef)
        return out

    values, err = _shift_panels(h, root, gamma, head, tail, "affine-sqrt")
    if not np.all(np.isfinite(values)):
        raise ConvergenceError(_AFFINE_OVERFLOW, error_bound=math.inf)
    return f.with_values(values, warn, meta={"quadrature_error": float(err)})


def solve_affine_sqrt(f: Field, tau: float, c: float) -> Field:
    """Solve d/dtau F = -sqrt(x - c d/dx) F via Weyl disentanglement.

    F(x, tau) = (1/(2 sqrt(pi))) int_0^inf t^{-3/2}
    exp{-1/(4t) - c t^2 tau^4 / 2} e^{-t tau^2 x} f(x + c tau^2 t) dt.

    For c != 0 the integration runs in the shift variable s = |c| tau^2 t
    with grid-aligned panels (see _affine_panels). The integrand's
    amplitude is e^{(x^2 - z^2)/(2c)} at the data point z = x + c tau^2 t:
    it, or its product with the data, can overflow for data far from x
    (strongly negative x when c > 0, x_min far beyond |x| when c < 0),
    which surfaces as a ConvergenceError.
    For c = 0, sqrt(x - c d/dx) is multiplication by sqrt(x), and F is
    e^{-tau sqrt(x)} f in closed form, with no quadrature (quadrature_error
    0.0). Where x < 0 the integral's factor e^{-t tau^2 x} grows without
    bound, so the flow diverges at every tau > 0 unless the data vanish
    there: nonzero data at x < 0 raise ConvergenceError.

    tau = 0 returns the input, and so does, for c != 0, every tau at which
    the flow is the identity to rounding,
    tau <= 2^-53 sqrt(h/(|c| pi)) e^{-(max x^2 - min x^2)/(2|c|)} over the
    grid. The flow is the half-derivative flow of -c d/dx conjugated by
    e^{x^2/(2c)}, whose spread on the grid enters the bound; where that
    spread is wide, an overflow at tiny tau stays a ConvergenceError.
    """
    def below(c: float) -> float:
        if c == 0:  # the closed form never leaves float range: no tau is gated
            return 0.0
        a = abs(c)
        squares = (f.x_min * f.x_min, f.x_max * f.x_max)
        spread = max(squares) - (0.0 if f.x_min <= 0.0 <= f.x_max else min(squares))
        return _ROUNDING * math.exp(-spread / (2.0 * a)) * math.sqrt(f.dx / math.pi) / math.sqrt(a)

    route = lambda g, tau, c: _affine_multiplier(g, tau) if c == 0 else _affine_panels(g, tau, c)
    flow = lambda tau, c: _homogeneous(route, f, "the affine-sqrt flow", tau=tau, c=c)
    return _identity_to_rounding(lambda c: f.with_values(f.values), below, flow, tau, c=c)


def _affine_multiplier(f: Field, tau: float) -> Field:
    """The affine flow for c = 0: F = e^{-tau sqrt(x)} f, with no quadrature."""
    x, data = f.x, f.values
    if np.any(data[x < 0.0]):
        raise ConvergenceError(
            "affine-sqrt flow with c = 0 diverges: its integrand's factor e^{-t tau^2 x} "
            "grows without bound at x < 0, where the data are nonzero",
            error_bound=math.inf,
        )
    with np.errstate(over="ignore"):  # tau sqrt(x) past float range: e^{-inf} = 0
        values = np.exp(-tau * np.sqrt(np.maximum(x, 0.0))) * data
    return f.with_values(values, (), meta={"quadrature_error": 0.0})


# ----------------------------------------------------------------------
# inverse square-root shift (Bessel representation)

_ACCEL_MIN_CHUNKS = 4       # below this, no tail acceleration: direct sum
_REQUIRED_CHUNKS = 32       # points with at least this many chunks must converge
_ARC_BLOCK = 24             # arcs per window product in a J0 plan
_MAX_ARCS = 2048            # J0 arcs per grid: a 67 MB averaging table


def _j0_chunks(span: float, order: int):
    """Gauss-Legendre nodes/weights on consecutive zero-to-zero arcs of J0,
    one row per arc."""
    zeros = specfun().jyzo(0, max(int(span / math.pi) + 2, 4))[0]
    edges = np.concatenate(([0.0], zeros[zeros <= span]))
    if edges.size < 2:
        edges = np.array([0.0, span])
    nodes, weights = _gl_panels(edges, order)
    return edges, nodes.reshape(-1, order), weights.reshape(-1, order)


def _averaging_weights(size: int) -> np.ndarray:
    """Row k holds 2^{-k} C(k, j) for j < size: k rounds of pairwise
    averaging turn partial sums P_0 .. P_k into sum_j 2^{-k} C(k, j) P_j."""
    rows = np.zeros((size, size))
    rows[0, 0] = 1.0
    for k in range(1, size):
        rows[k, 0] = 0.5 * rows[k - 1, 0]
        rows[k, 1:] = 0.5 * (rows[k - 1, 1:] + rows[k - 1, :-1])
    return rows


def _arc_weights(size: int) -> np.ndarray:
    """The averaging on arc integrals C_j = P_j - P_{j-1} instead of partial
    sums, one (2, size) table per arc j, read-only, since the J0 plans hold
    views of it. k rounds of averaging give sum_j T[j, 0, k] C_j with
    T[j, 0, k] = sum_{i >= j} 2^{-k} C(k, i), and differ from k - 1 rounds
    on the partials P_1 .. P_k by -sum_j T[j, 1, k] C_j with
    T[j, 1, k] = 2^{-k} C(k - 1, j - 1) (zero for j = 0 or k = 0)."""
    rows = _averaging_weights(size)
    table = np.zeros((size, 2, size))
    np.cumsum(rows[:, ::-1], axis=1, out=table[::-1, 0].T)
    np.multiply(rows[:-1, :-1].T, 0.5, out=table[1:, 1, 1:])
    table.setflags(write=False)
    return table


class _J0Plan(NamedTuple):
    """Everything :func:`apply_inv_sqrt_shift` computes from the grid alone
    (see :func:`_j0_plan`). ``sums(coef)`` yields, for each block of arcs,
    (rows, start, values, table, runs, pts, seen, held): ``rows`` a slice
    of the arcs, values[b, i - start] arc rows.start + b's sum at point
    i >= start for the spline with coefficient rows ``coef`` (every arc of
    the block is zero before start), and the block's gathers below. The
    arrays are read-only."""

    n: int
    size: int  # the widest arc's lag count S
    kern: np.ndarray  # (M, 4 S): kern[m, r S + k] sums w d^{3-r} at lag lo_m + k
    whole: bool  # whether the windows are copied once for every block
    step: int  # else the windows each block copies at a time
    arc_count: np.ndarray  # the complete arcs of each point
    # per block of arcs: rows, start, the windows first .. stop - 1 it
    # reads and where each arc's sums start in its product; the averaging
    # table's columns for the block's rounds u0 .. u1 and the run length of
    # each round over the points; the points i0 .. i1 whose last four arcs
    # meet the block, with the block's values each reads and whether the
    # block holds that arc
    blocks: tuple

    def sums(self, coef: np.ndarray):
        n, size = self.n, self.size
        # pad[:, S - 1 + k] holds cell k, and window j reads cells j - S + 1 .. j
        pad = np.zeros((4, n + 2 * size - 3), dtype=coef.dtype)
        pad[:, size - 1 : size + n - 2] = coef
        windows = sliding_window_view(pad, size, axis=1).transpose(0, 2, 1)
        copied = windows.reshape(4 * size, -1) if self.whole else None
        for rows, start, first, stop, at, *gathers in self.blocks:
            # prod[:, t] holds window first + t; those before window 0 read no data
            prod = np.zeros((len(at), stop - first), dtype=np.result_type(self.kern, pad))
            for j in range(max(first, 0), stop, self.step):
                cols = slice(j, min(j + self.step, stop))
                part = windows[:, :, cols].reshape(4 * size, -1) if copied is None else copied[:, cols]
                np.matmul(self.kern[rows], part, out=prod[:, cols.start - first : cols.stop - first])
            yield rows, start, sliding_window_view(prod.ravel(), n - start)[at], *gathers


@lru_cache(maxsize=4)
def _j0_plan(n: int, x_min: float, x_max: float) -> _J0Plan:
    """The J0 arcs of :func:`apply_inv_sqrt_shift` on the grid of n points
    on [x_min, x_max], binned once per grid.

    Arc m's nodes t_q are leftward shifts -t_q, binned by
    :func:`_shift_lattice` into a kernel over the lags lo_m .. lo_m + S - 1,
    padded to S, the widest arc's lag count: at point i it reads the cells
    i + lo_m .. i + lo_m + S - 1, which hold data from i = -(lo_m + S - 1)
    on. One product of a block's kernels with the windows that hold data
    for its nearest arc (copied a few columns at a time on a fine grid)
    gives every arc's sums, each at its own window offset, and the arcs
    are realigned on the points from there. Every arc lies inside
    [0, x_max - x_min], so each block reaches some point.

    The plan also holds each point's arc count and rounds of averaging and
    the points that record each block's recent arcs. The averaging weights
    are views of the (M, 2, M) arc table (:func:`_arc_weights`) with run
    lengths, and keep its 16 M^2 bytes alive: on 2048 points on
    [-260, 260], 165 arcs, 0.44 MB beside 0.18 MB of the rest. A span
    x_max - x_min above 2048 pi (about 2048 arcs) raises ValueError.
    """
    span = x_max - x_min
    if not span <= _MAX_ARCS * math.pi:  # the j-th zero of J0 exceeds (j - 1/4) pi
        raise ValueError(
            f"apply_inv_sqrt_shift: x_max - x_min = {span!r} is past the cap of "
            f"{_MAX_ARCS} pi = {_MAX_ARCS * math.pi!r}, about {_MAX_ARCS} J0 arcs"
        )
    h = span / (n - 1)
    edges, nodes, weights = _j0_chunks(span, 16)
    # a leftward shift reads no cell past the grid's last, nor S(x_{n-1}),
    # so the arcs' plans hold no last-sample terms
    kernel = special_ufuncs().j0(nodes) * weights
    arcs = [_shift_lattice(n, h, -t).bin(w) for t, w in zip(nodes, kernel)]
    n_chunks, size = len(arcs), max(arc.kern.shape[1] for arc in arcs)
    kern = np.zeros((n_chunks, 4 * size))
    for m, arc in enumerate(arcs):
        kern[m].reshape(4, size)[:, : arc.kern.shape[1]] = arc.kern
    offset = np.array([arc.lo for arc in arcs]) + size - 1  # arc m reads window i + offset[m]
    # Every block reads the windows from window 0 on, so they are copied
    # once where they hold at most 2^21 entries; on a finer grid each block
    # copies about 2^19 entries at a time.
    width = n + size - 2
    whole = 4 * size * width <= 1 << 21
    step = width if whole else max(1, (1 << 19) // (4 * size))
    # Each point x may only use arcs that lie inside [0, x - x_min].
    count = np.searchsorted(edges[1:], np.linspace(x_min, x_max, n) - x_min, side="right")
    # Few arcs: direct sum including the final partial arc (zero extension
    # truncates it exactly at the point's own support limit).
    upto = np.minimum(count, n_chunks - 1)
    table = _arc_weights(n_chunks)
    # rounds of averaging at each point, nondecreasing with the point
    rounds = np.maximum(count - 1, 0)
    back = np.arange(4)
    blocks = []
    for m in range(0, n_chunks, _ARC_BLOCK):
        rows = slice(m, min(m + _ARC_BLOCK, n_chunks))
        near, far = int(offset[rows].max()), int(offset[rows].min())
        start = max(0, -near)
        first, stop = far + start, n + near
        at = np.arange(rows.stop - m) * (stop - first) + offset[rows] - far
        u0 = rounds[start]
        runs = np.bincount(rounds[start:] - u0)
        # the points whose last four arcs meet this block
        i0 = max(start, np.searchsorted(upto, rows.start))
        i1 = max(i0, np.searchsorted(upto, rows.stop + 3))
        pts = np.arange(i0, i1)
        row = upto[pts, None] - back - rows.start
        held = (row >= 0) & (row < rows.stop - rows.start)
        # flat indices into the block's (rows, n - start) values
        seen = np.clip(row, 0, rows.stop - rows.start - 1) * (n - start) + pts[:, None] - start
        _read_only(at, runs, seen, held)
        averaging = table[rows, :, u0 : u0 + len(runs)]
        blocks.append((rows, start, first, stop, at, averaging, runs, slice(i0, i1), seen, held))
    _read_only(kern, count)
    return _J0Plan(n, size, kern, whole, step, count, tuple(blocks))


def _inv_sqrt_arcs(g: Field):
    """The values of :func:`apply_inv_sqrt_shift` at g's points, their
    error estimates and the number of complete J0 arcs each point has."""
    plan = _j0_plan(g.n, g.x_min, g.x_max)
    coef = _coefficients(g.x, g.values)
    n, count = g.n, plan.arc_count
    out = np.zeros(n, dtype=coef.dtype)
    tail = np.zeros((2, n), dtype=coef.dtype)  # the last round of averaging and its change
    recent = np.zeros((n, 4))  # |C| of arcs upto .. upto - 3 at each point
    # arc integrals C[m](x) = int_{arc m} J0(t) g(x - t) dt, a block of arcs at a time
    for _, start, chunk, table, runs, pts, seen, held in plan.sums(coef):
        out[start:] += chunk.sum(axis=0)
        tail[:, start:] += np.einsum("mki,mi->ki", np.repeat(table, runs, axis=2), chunk)
        recent[pts] = np.where(held, np.abs(np.take(chunk, seen)), recent[pts])

    est = recent[:, 0].copy()
    acc = count > _ACCEL_MIN_CHUNKS
    last = tail[0, acc]
    change = np.abs(tail[1, acc])
    # Past decaying data the partials are flat, yet the averaging still
    # weighs those from before the data's arcs: there the direct sum stands.
    latest = recent[acc].max(axis=1)
    averaged = ~(latest < change)
    out[acc] = np.where(averaged, last, out[acc])
    est[acc] = np.where(averaged, change, latest)
    return out, est, count


def apply_inv_sqrt_shift(g: Field) -> Field:
    """Apply (1 + d^2/dx^2)^{-1/2} through f(x) = int_0^inf J0(t) g(x-t) dt,
    which multiplies the Fourier modes |k| < 1 by (1 - k^2)^{-1/2}.

    The integral is taken arc by arc between consecutive zeros of J0 (as far
    left as the grid allows for each x), by Gauss-Legendre sums over the
    cubic interpolant formed a block of arcs at a time, each block one
    matrix product with the spline's coefficient windows that hold data.
    The arcs' kernels and blocks, each point's arc count and the averaging
    weights depend on the grid alone: they are built once per grid and
    cached, keyed on (n, x_min, x_max), 0.6 MB on 2048 points on
    [-260, 260] (:func:`_j0_plan`), so a call costs the spline's
    coefficient rows, the products and the sums. A grid holds at most 2048
    arcs, whose averaging table takes 16 bytes per arc squared (67 MB at
    the cap): a span x_max - x_min above 2048 pi (6434) raises ValueError.
    Arcs past a point's left edge are exact zeros, so the direct sum is the
    plain sum over arcs. The oscillatory tail is summed by iterated
    pairwise averaging of the partial sums, in its closed form on the arcs
    (see _arc_weights): m partials average to sum_j 2^{1-m} C(m-1, j) P_j,
    and the change from the round before is the error estimate. Each block
    adds its arcs into these three sums for every point, so no
    (points x arcs) array is formed. Where a point's last four arcs are
    smaller than that change, as past decaying data, the direct sum is
    kept with the largest of them as its estimate; non-decaying data (e.g.
    a plain cosine) converge at the averaging rate, so points far from the
    left edge are the accurate ones. A result past float range raises
    ValueError.
    """
    return _homogeneous(_inv_sqrt_shift, g, "the J0 integral of apply_inv_sqrt_shift")


def _inv_sqrt_shift(g: Field) -> Field:
    out, est, count = _inv_sqrt_arcs(g)
    # Per-point tolerance: comparing against the global output scale would
    # let uniformly diverging data "settle" (everything is garbage of the
    # same magnitude), so each point is judged against its own value.
    tol = np.maximum(1e-9, _REL_TOL * np.abs(out))
    # The averaging gains a fixed factor per extra arc, so the reachable
    # estimate is set by each point's arc count, not by refinement: points
    # with few arcs are structurally less converged. Fail only when not even
    # the well-supported points settle (genuinely divergent tails); flag the
    # mid-support region with a warning instead.
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
    return g.with_values(out, tuple(warn), meta={"tail_estimate": float(np.max(est))})

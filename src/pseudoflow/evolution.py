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
  (1 - d^2/dx^2)^{-1/2}, f(x) = int_0^inf J0(t) g(x - t) dt.

Off-grid samples in the shift-type integrals come from cubic interpolation
inside the grid and zero extension outside; discarded boundary mass is
flagged with a warning, not an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0 as _j0
from scipy.special import jn_zeros as _jn_zeros

from .errors import ConvergenceError
from .special import _ABS_TOL, _REL_TOL, _gl_panels, _log_trapezoid, _shift_panels
from .transforms import BOUNDARY_LEAK_THRESHOLD, Field, _gw_smoother

__all__ = [
    "SymbolSpec",
    "solve_half_derivative",
    "solve_pseudoheat",
    "pseudoheat_gaussian",
    "solve_symbol_spectral",
    "solve_affine_sqrt",
    "apply_inv_sqrt_shift",
]


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
    def half_derivative(cls) -> "SymbolSpec":
        # Principal branch of sqrt(ik); Re >= 0 for both signs of k, so the
        # multiplier decays. Experimental: the correspondence with the
        # subordination path for two-sided spectra is not established, so
        # this preset is excluded from cross-method validation.
        return cls(lambda k: -np.sqrt(1j * k), "half_derivative")

    @classmethod
    def optics(cls, n: float) -> "SymbolSpec":
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


def _spectral_apply(f: Field, multiplier_of_k: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Apply a Fourier multiplier with factor-2 zero padding (fixed contract)."""
    n = f.n
    if n & (n - 1) != 0:
        raise ValueError("spectral solver requires a power-of-two sample count")
    warnings = []
    if f.boundary_leaks():
        warnings.append(
            "spectral: input is not negligible at the grid boundary; periodic "
            "wrap-around will contaminate the result"
        )
    h = f.dx
    padded = np.zeros(2 * n, dtype=complex)
    padded[:n] = f.values
    k = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=h)
    mult = np.asarray(multiplier_of_k(k), dtype=complex)
    if not np.all(np.isfinite(mult)):
        raise ValueError("symbol produced non-finite multipliers on the grid's wavenumbers")
    out = np.fft.ifft(mult * np.fft.fft(padded))[:n]
    return f.with_values(out, tuple(warnings))


def solve_symbol_spectral(f: Field, tau: float, symbol: SymbolSpec) -> Field:
    """Evolve f by the Fourier multiplier e^{tau P(ik)}.

    The grid is zero-padded by a factor of 2 before the transform and
    cropped after; wavenumbers follow the DFT convention k = 2 pi j / (N h)
    on the padded array. Requires a power-of-two sample count.
    """
    return _spectral_apply(f, lambda k: np.exp(tau * np.asarray(symbol.eval(k), dtype=complex)))


# ----------------------------------------------------------------------
# interpolation helpers


def _extender(f: Field) -> Callable[[np.ndarray], np.ndarray]:
    """Cubic interpolant of the field, zero outside the grid."""
    spline = CubicSpline(f.x, f.values, extrapolate=False)
    is_complex = np.iscomplexobj(f.values)

    def ext(z: np.ndarray) -> np.ndarray:
        vals = spline(z)
        return np.nan_to_num(vals, nan=0.0, copy=False) if not is_complex else np.where(
            np.isnan(vals.real), 0.0, vals
        )

    return ext


def _shift_sum(f: Field) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Map (shifts s_q, real weights w_q) to sum_q w_q S(x_i + s_q) on the
    grid, where S is the interpolant of :func:`_extender`.

    A shift s = L h + d with L = floor(s / h) puts x_i + s at offset d in
    [0, h) on cell i + L, where S is sum_r c[r, i + L] d^{3-r} in the
    spline's own coefficients. Binning w d^{3-r} by L turns the whole sum
    into four correlations of short lag kernels with the coefficient rows,
    so no node evaluates the spline; cells off the grid contribute zero.
    """
    n, h = f.n, f.dx
    coef = CubicSpline(f.x, f.values).c  # (4, n - 1)
    last = f.values[-1]

    def apply(shifts: np.ndarray, weights: np.ndarray) -> np.ndarray:
        lag = np.floor(shifts / h)
        d = shifts - lag * h
        out = np.zeros(n, dtype=coef.dtype)
        # S(x_{n-1}) is the one value no cell reaches with d < h
        at_last = (d == 0.0) & (lag >= 0) & (lag < n)
        np.add.at(out, n - 1 - lag[at_last].astype(np.intp), weights[at_last] * last)
        keep = (lag > -n) & (lag < n - 1)  # lags that reach some cell 0 .. n-2
        if not np.any(keep):
            return out
        lag, d, w = lag[keep].astype(np.intp), d[keep], weights[keep]
        lo = int(lag.min())
        size = int(lag.max()) - lo + 1
        full = sum(
            np.convolve(coef[r], np.bincount(lag - lo, w * d ** (3 - r), size)[::-1])
            for r in range(4)
        )
        # full[p] = sum_j kernel[j] coef[p - size + 1 + j], so x_i reads p = i + lo + size - 1
        p = np.arange(n) + (lo + size - 1)
        inside = (p >= 0) & (p < full.size)
        out[inside] += full[p[inside]]
        return out

    return apply


def _leak_warning(f: Field, side: str, op: str) -> list:
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return []
    idx = 0 if side == "left" else -1
    if abs(complex(f.values[idx])) > BOUNDARY_LEAK_THRESHOLD * peak:
        return [f"{op}: data shifted past the {side} grid edge is zero-extended "
                "but the boundary sample is not negligible"]
    return []


# ----------------------------------------------------------------------
# subordination solvers


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and nonnegative")


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
    uniform in tau. The kernel looks leftward, so data should either decay
    toward x_min or the grid should extend far enough left.
    """
    _check_tau(tau)
    if tau == 0.0:
        return f.with_values(f.values)
    ext = _extender(f)
    x = f.x
    n = f.n
    h = f.dx
    t2 = tau * tau
    pref = tau / (2.0 * math.sqrt(math.pi))

    def head(ss: np.ndarray, ws: np.ndarray) -> np.ndarray:
        # s in (0, h]: the data factor is a single cubic on [x - h, x].
        amp = pref * ws * ss**-1.5 * np.exp(-t2 / (4.0 * ss))
        vals = ext(x[None, :] - ss[:, None])
        return (amp[:, None] * vals).sum(axis=0)

    def tail(offs: np.ndarray, wq: np.ndarray) -> np.ndarray:
        # s in [h, span]: each fractional offset costs one interpolant sweep
        # and one discrete convolution with the kernel weights.
        samples = ext(x[None, :] - (offs * h)[:, None])
        j = np.arange(1, n - 1, dtype=float)
        out = np.zeros(n, dtype=samples.dtype)
        kernel = np.zeros(n - 1)
        for q in range(offs.size):
            s_nodes = (j + offs[q]) * h
            kernel[1:] = (h * wq[q] * pref) * s_nodes**-1.5 * np.exp(-t2 / (4.0 * s_nodes))
            out = out + np.convolve(kernel, samples[q])[:n]
        return out

    values, err = _shift_panels(h, tau, t2, head, tail, "half-derivative")
    out_warn = _leak_warning(f, "left", "solve_half_derivative")
    if not np.iscomplexobj(f.values):
        values = values.real
    return f.with_values(values, tuple(out_warn), meta={"quadrature_error": float(err)})


def solve_pseudoheat(f: Field, tau: float) -> Field:
    """Solve d/dtau F = -sqrt(1 - d^2/dx^2) F by subordination.

    F = (1/(2 sqrt(pi))) int_0^inf t^{-3/2} e^{-1/(4t) - t tau^2}
    GW(f, t tau^2) dt, where GW is the Gauss-Weierstrass smoothing of the
    initial data. The trapezoid-weighted data are folded once into the
    Toeplitz operator of :func:`~pseudoflow.transforms.gauss_weierstrass`,
    and the outer integral is the log-trapezoid rule, so each refinement
    level evaluates the heat kernel on the n grid lags at all its new nodes
    and applies one matrix-matrix product. Refinement and the error
    estimate act on the output field. tau = 0 returns the input unchanged.

    The trapezoid smoothing aliases at widths t tau^2 below h^2, which carry
    the share erfc(tau / (2h)) of the weight; above 5% the result carries
    an under-resolution warning.
    """
    _check_tau(tau)
    if tau == 0.0:
        return f.with_values(f.values)
    smooth = _gw_smoother(f)
    t2 = tau * tau
    pref = 1.0 / (2.0 * math.sqrt(math.pi))

    def integrand(t: np.ndarray) -> np.ndarray:
        weight = pref * t**-1.5 * np.exp(-0.25 / t - t * t2)
        return weight[:, None] * smooth(t * t2).T

    # Every term of the smoothing sum falls in t beyond |lag| / (2 tau^2).
    values, err = _log_trapezoid(integrand, (f.x[-1] - f.x[0]) / (2.0 * t2))
    warn = []
    if f.boundary_leaks():
        warn.append("solve_pseudoheat: input is not negligible at the grid boundary")
    if math.erfc(tau / (2.0 * f.dx)) > 0.05:
        warn.append(
            "solve_pseudoheat: kernel widths below the grid spacing carry a visible "
            "share of the weight; result is under-resolved"
        )
    if not np.iscomplexobj(f.values):
        values = values.real
    return f.with_values(values, tuple(warn), meta={"quadrature_error": float(err)})


def pseudoheat_gaussian(tau: float, x: float) -> float:
    """Closed-form pseudoheat evolution of the Gaussian e^{-x^2}.

    Single subordination integral of the Glaisher-smoothed Gaussian:
    (1/(2 sqrt(pi))) int t^{-3/2} (1+4 t tau^2)^{-1/2}
    exp{-(1/(4t) + t tau^2 + x^2/(1+4 t tau^2))} dt.
    """
    _check_tau(tau)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if tau == 0.0:
        return math.exp(-x * x)
    t2 = tau * tau
    pref = 1.0 / (2.0 * math.sqrt(math.pi))

    def integrand(t: np.ndarray) -> np.ndarray:
        s = 1.0 + 4.0 * t * t2
        return pref * t**-1.5 / np.sqrt(s) * np.exp(-0.25 / t - t * t2 - x * x / s)

    # e^{-x^2/s}, s = 1 + 4 t tau^2, rises until s = 2|x| - 1; past
    # s = 2|x| + 1 the whole integrand falls.
    return float(_log_trapezoid(integrand, (2.0 * abs(x) + 1.0) / (4.0 * t2))[0])


def _affine_panels(f: Field, tau: float, c: float):
    """Grid-aligned quadrature of the disentangled integral for c > 0.

    In the shift variable s = c tau^2 t the integral reads
    (sqrt(c tau^2)/(2 sqrt(pi))) int s^{-3/2}
    exp{-c tau^2/(4s) - s^2/(2c) - s x / c} f(x + s) ds. The data factor is
    a single cubic on each grid cell, so the panel layout of
    solve_half_derivative applies; the x-dependent amplitude e^{-s x / c}
    rules out the convolution shortcut and is carried node by node instead.
    The s^2 damping makes the integral convergent for every x.
    """
    ext = _extender(f)
    x = f.x
    n = f.n
    h = f.dx
    gamma = c * tau * tau
    root = math.sqrt(gamma)
    pref = root / (2.0 * math.sqrt(math.pi))
    # worst-case amplification of e^{-s x / c} over the grid, for truncation
    xneg = max(0.0, -float(x[0]))
    cplx = np.iscomplexobj(f.values)

    def kernel(s: np.ndarray) -> np.ndarray:
        return pref * s**-1.5 * np.exp(-gamma / (4.0 * s) - s * s / (2.0 * c))

    def head(ss: np.ndarray, ws: np.ndarray) -> np.ndarray:
        amp = ws * kernel(ss)
        vals = ext(x[None, :] + ss[:, None]) * np.exp(np.outer(-ss / c, x))
        return (amp[:, None] * vals).sum(axis=0)

    def tail(offs: np.ndarray, wq: np.ndarray) -> np.ndarray:
        j = np.arange(1, n - 1, dtype=float)
        out = np.zeros(n, dtype=complex if cplx else float)
        for q in range(offs.size):
            s_nodes = (j + offs[q]) * h
            w = (h * wq[q]) * kernel(s_nodes)
            bound = w * np.exp(s_nodes * (xneg / c))
            bmax = float(bound.max()) if bound.size else 0.0
            if bmax == 0.0:
                continue
            keep = np.nonzero(bound > 1e-22 * bmax)[0]
            samples = ext(x + offs[q] * h)
            for idx in keep:
                jj = int(idx) + 1
                s = s_nodes[idx]
                out[: n - jj] += (w[idx] * np.exp((-s / c) * x[: n - jj])) * samples[jj:]
        return out

    values, err = _shift_panels(h, root, gamma, head, tail, "affine-sqrt")
    if not np.all(np.isfinite(values.real)) or (cplx and not np.all(np.isfinite(values.imag))):
        raise ConvergenceError(
            "affine-sqrt quadrature overflowed: e^{-t tau^2 x} amplifies "
            "strongly negative x beyond floating-point range",
            error_bound=math.inf,
        )
    return values, err


def solve_affine_sqrt(f: Field, tau: float, c: float) -> Field:
    """Solve d/dtau F = -sqrt(x - c d/dx) F via Weyl disentanglement.

    F(x, tau) = (1/(2 sqrt(pi))) int_0^inf t^{-3/2}
    exp{-1/(4t) - c t^2 tau^4 / 2} e^{-t tau^2 x} f(x + c tau^2 t) dt.

    For c > 0 the integration runs in the shift variable s = c tau^2 t with
    grid-aligned panels (see _affine_panels); the integral converges for
    every x, though e^{-t tau^2 x} can overflow for strongly negative x,
    which surfaces as a ConvergenceError. For c <= 0 the log-trapezoid
    rule integrates all grid points at once; for c = 0 the growth of
    e^{-t tau^2 x} for x < 0 makes the integral itself divergent unless the
    data vanishes, and the rule finds no decaying tail and raises a
    ConvergenceError (the admissible domain is not characterized here).
    """
    _check_tau(tau)
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if tau == 0.0:
        return f.with_values(f.values)
    if c > 0:
        values, err = _affine_panels(f, tau, c)
    else:
        ext = _extender(f)
        x = f.x
        t2 = tau * tau
        pref = 1.0 / (2.0 * math.sqrt(math.pi))

        def integrand(t: np.ndarray) -> np.ndarray:
            tc = t[:, None]
            exponent = -0.25 / tc - 0.5 * c * tc * tc * t2 * t2 - tc * t2 * x
            fvals = ext(x + c * t2 * tc)
            # The amplitude overflows on divergent data, which the window
            # search reports; exact zero extension beats inf * 0 -> nan.
            with np.errstate(invalid="ignore", over="ignore"):
                prod = pref * tc**-1.5 * np.exp(exponent) * fvals
            return np.where(fvals == 0.0, 0.0, prod)

        # For c < 0 the data factor is zero once the shift passes the grid.
        reach = (x[-1] - x[0]) / (-c * t2) if c < 0 else 0.0
        values, err = _log_trapezoid(integrand, reach)
    warn = _leak_warning(f, "right", "solve_affine_sqrt") if c != 0 else []
    if not np.iscomplexobj(f.values):
        values = values.real
    return f.with_values(values, tuple(warn), meta={"quadrature_error": float(err)})


# ----------------------------------------------------------------------
# inverse square-root shift (Bessel representation)

_ACCEL_MIN_CHUNKS = 4       # below this, no tail acceleration: direct sum
_REQUIRED_CHUNKS = 32       # points with at least this many chunks must converge


@lru_cache(maxsize=16)
def _j0_zeros(count: int) -> np.ndarray:
    """The first ``count`` positive zeros of J0, read-only."""
    zeros = _jn_zeros(0, count)
    zeros.setflags(write=False)
    return zeros


def _j0_chunks(span: float, order: int):
    """Gauss-Legendre nodes/weights on consecutive zero-to-zero arcs of J0,
    one row per arc."""
    zeros = _j0_zeros(max(int(span / math.pi) + 2, 4))
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


def apply_inv_sqrt_shift(g: Field) -> Field:
    """Apply (1 - d^2/dx^2)^{-1/2} through f(x) = int_0^inf J0(t) g(x-t) dt.

    The integral is taken arc by arc between consecutive zeros of J0 (as far
    left as the grid allows for each x); each arc's Gauss-Legendre sum over
    the cubic interpolant is one lag correlation with the spline
    coefficients (see _shift_sum). The oscillatory tail is summed by
    iterated pairwise averaging of the partial sums, in its closed form:
    m partials average to sum_j 2^{1-m} C(m-1, j) P_j, and the change from
    the round before is the error estimate. Decaying data terminates on
    its own; non-decaying data (e.g. a plain cosine) converges at the
    averaging rate, so points far from the left edge are the accurate ones.
    """
    span = g.x_max - g.x_min
    shift_sum = _shift_sum(g)
    edges, nodes, weights = _j0_chunks(span, 16)
    n_chunks = len(nodes)
    # chunk integrals C[m](x) = int_{arc m} J0(t) g(x - t) dt, vectorized over x
    chunk_vals = np.empty((g.n, n_chunks), dtype=complex)
    for m in range(n_chunks):
        chunk_vals[:, m] = shift_sum(-nodes[m], _j0(nodes[m]) * weights[m])
    partials = np.cumsum(chunk_vals, axis=1)

    # Each point x may only use arcs that lie inside [0, x - x_min].
    count = np.searchsorted(edges[1:], g.x - g.x_min, side="right")  # complete arcs per point
    # Few arcs: direct sum including the final partial arc (zero extension
    # truncates it exactly at the point's own support limit).
    points = np.arange(g.n)
    upto = np.minimum(count, n_chunks - 1)
    out = partials[points, upto]
    est = np.abs(chunk_vals[points, upto])
    acc = count > _ACCEL_MIN_CHUNKS
    m = count[acc]
    binom = _averaging_weights(n_chunks)
    last = np.einsum("ij,ij->i", binom[m - 1], partials[acc])
    previous = np.einsum("ij,ij->i", binom[m - 2, :-1], partials[acc, 1:])
    out[acc] = last
    est[acc] = np.abs(last - previous)

    # Per-point tolerance: comparing against the global output scale would
    # let uniformly diverging data "settle" (everything is garbage of the
    # same magnitude), so each point is judged against its own value.
    tol = np.maximum(1e-9, np.maximum(_ABS_TOL, _REL_TOL * np.abs(out)))
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
    warn.extend(_leak_warning(g, "left", "apply_inv_sqrt_shift"))
    if not np.iscomplexobj(g.values):
        out = out.real
    return g.with_values(out, tuple(warn), meta={"tail_estimate": float(np.max(est))})

"""Series machinery for the free relativistic Schrodinger equation
i dPsi/dtau = sqrt(1 - d^2/deta^2) Psi and the associated Heisenberg-picture
observables, in Compton-normalized units (c = lambda_c = m = 1 unless an
explicit physical-units mode is selected).

The series solution for the Gaussian initial packet e^{-eta^2} is
Psi = A e^{-eta^2} + i B with

    A(eta, tau) = sum_n (-1)^n tau^{2n}/(2n)! sum_{k<=n} (-1)^k C(n,k)
                  H_{2k}(2 eta, -1)
    B(eta, tau) = sum_n (-1)^{n+1} tau^{2n+1}/(2n+1)! sum_{k<=n+1} (-1)^k
                  C(n+1,k) f_{2k}(eta)

with H the two-variable Hermite polynomials and f_{2k} the smoothed-Hermite
integrals below, both from one H_n recurrence on (eta x u node) arrays.
series_solution sums them at one eta or over a whole eta array at once,
with the step-2h sum as nested error estimate. The multiplier
e^{-i tau sqrt(1+k^2)} is the independent cross-check.

The operator D = (1 - d^2/deta^2)^{-1/2} admits three equivalent
realizations (exercised against each other in the tests): the closed-form
kernel (1/pi) K0(|x - xi|), the literal double integral over heat
smoothings, and the Fourier multiplier (1+k^2)^{-1/2}.

The observables' correction factors R(a) and F(a) are log-trapezoid
integrals, likewise at one a or over a whole array of a, one column per a.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from ._choices import in_float_range, require, require_one_of
from ._scipy import special_ufuncs
from .errors import ConvergenceError, TruncationError
from .evolution import (
    SymbolSpec,
    _coefficients,
    _shift_lattice,
    _ShiftPlan,
    _spectral_apply,
    solve_symbol_spectral,
)
from .special import (
    _ABS_TOL,
    _LOG_UNIT,
    _REL_TOL,
    _gl_panels,
    _hermite_nodes,
    _legendre_nodes,
    _log_trapezoid,
)
from .transforms import Field, _homogeneous, _peak

__all__ = list(_EXPORTS["relativistic"])

# f_{2k}: the trapezoid step in u = sqrt(s) and the nodes u = 0, h, ..., 9
_U_STEP = 0.025
_U_NODES = 361
# Past this |eta|, eta^2 / (1 + 4 u^2) > 746 at every node, so e^{-eta^2} and
# the f_2k integrand are 0 in floating point: Psi is 0 after its first term.
_ETA_FLAT = math.sqrt(746.0 * (1.0 + 4.0 * (_U_STEP * (_U_NODES - 1)) ** 2))
# The tau-power series stops at the first term below this: Psi is O(1), and
# the fig2 grid then meets the spectral multiplier to 1.4e-10.
_SERIES_TAIL_TOL = 1e-9
# Largest tau-power order. tau = 3 takes 40 terms; by tau = 4 the
# alternating terms cancel more digits than the step-2h check allows, so
# more terms buy nothing (and (2n + 1)! stays far inside float range).
_SERIES_N_MAX = 60
# The iterated series stops at the first term at most this times the data's
# peak. Each term multiplies rounding noise by the dealiased |k|^2, so the
# tail test sits above the tau-power series' and the terms are capped lower.
_ITERATED_TAIL_TOL = 1e-8
_ITERATED_N_MAX = 20

DHAT_METHODS = ("kernel_k0", "s_integral", "spectral")


@dataclass(frozen=True)
class ObservableInputs:
    """Inputs to the packet-width and commutator formulas.

    ``sigma`` is the initial packet width, ``a`` the dimensionless ratio
    (Compton wavelength / sigma), ``t`` the time. In ``normalized`` units
    c = lambda_c = 1 is mandatory; ``physical`` mode takes explicit c and
    lambda_c and enforces a = lambda_c / sigma. Normalized units take any
    a, but only a = 1 / sigma is the packet e^{-x^2/(4 sigma^2)} that
    ``spectral_schrodinger`` (mass 1) evolves; another a is a particle of
    Compton wavelength a sigma (at sigma = 1, t = 2 the field's <x^2> is
    1.6290, the width at a = 1, not 2.3773).
    """

    sigma: float = 1.0
    a: float = 1.0
    t: float = 0.0
    units: str = "normalized"
    c: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        require_one_of(("normalized", "physical"), units=self.units)
        sigma = require("positive and finite", sigma=self.sigma)
        a = require("positive and finite", a=self.a)
        t = require("real and finite", t=self.t)
        c, lambda_c = require("positive and finite", c=self.c, lambda_c=self.lambda_c)
        if self.units == "normalized":
            if c != 1.0 or lambda_c != 1.0:
                raise ValueError("normalized units fix c = lambda_c = 1")
        elif abs(a - lambda_c / sigma) > 1e-9 * a:
            raise ValueError("inconsistent inputs: a must equal lambda_c / sigma")
        for name, value in (("sigma", sigma), ("a", a), ("t", t), ("c", c), ("lambda_c", lambda_c)):
            object.__setattr__(self, name, value)


# ----------------------------------------------------------------------
# f_{2k} and the series solution


def _hermite_moments(eta: np.ndarray):
    """Yield (eta, 3) arrays of H_{2k}(2 eta, -1) and f_{2k}(eta) at steps h and
    2h for k = 0, 1, ... (``send`` a mask to keep only those eta); the H_n
    recurrence runs on (eta x u node) arrays, each even order summed at once."""
    u = _U_STEP * np.arange(_U_NODES)
    arg = 1.0 + 4.0 * u * u
    # the even integrand's real-line sum is h g(0) + 2h sum_{j > 0} g(u_j)
    weight = np.where(u == 0.0, 1.0, 2.0) * _U_STEP / math.sqrt(math.pi)
    g = weight * np.exp(-u * u - eta[:, None] ** 2 / arg) / np.sqrt(arg)
    x, two_y = 2.0 * eta[:, None] / arg, -2.0 / arg
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for order in itertools.count(0, 2):
        terms = g * cur
        keep = yield np.column_stack([cur[:, 0], terms.sum(1), 2.0 * terms[:, ::2].sum(1)])
        if keep is not None:
            g, x, prev, cur = (a[keep] for a in (g, x, prev, cur))
        for m in (order, order + 1):
            prev, cur = cur, x * cur + two_y * m * prev


def f2k(eta: float, k: int) -> float:
    """Smoothed-Hermite integral f_{2k}(eta).

    f_{2k}(eta) = (1/sqrt(pi)) int_0^inf ds e^{-s} [s(1+4s)]^{-1/2}
    H_{2k}(2 eta/(1+4s), -1/(1+4s)) e^{-eta^2/(1+4s)}.

    After s = u^2 the even integrand is analytic in |Im u| < 1/2: the trapezoid
    rule (h = 0.025 on [0, 9]) converges like e^{-pi/h}, more slowly as k grows.
    Past |eta| = 492 the factor e^{-eta^2/(1+4s)} is 0 in floating point at
    every node, so f_{2k} is 0 there, as in :func:`series_solution`. The
    first moment past float range raises ConvergenceError, however large k is.
    """
    k = require("a nonnegative integer", k=k)
    eta = require("real and finite", eta=eta)
    if abs(eta) > _ETA_FLAT:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _, row in zip(range(k + 1), _hermite_moments(np.array([eta]))):
            value = float(row[0, 1])
            if not math.isfinite(value):
                raise ConvergenceError(f"f_2k overflowed at eta = {eta!r}, k = {k}")
    return value


def series_solution(eta, tau: float, return_diagnostics: bool = False):
    """Hermite-series value Psi(eta, tau) = A e^{-eta^2} + i B.

    Terms are added until the latest tau-power term drops below 1e-9 in
    magnitude, else TruncationError after order 60, and the sum must agree
    with its step-2h sum. A number eta gives the complex value, or
    ``(value, tail_estimate, n_used)`` with ``return_diagnostics``; a 1-D
    array of eta gives those as arrays from one sum, in which each point
    stops at its own tail test and so keeps, bit for bit, its one-point value.
    Far enough out that e^{-eta^2} and the f_2k integrand underflow at every
    node, the value is 0 with tail 0 after one term, with no sum at all.
    """
    eta, tau = require("real and finite", eta=eta, tau=tau)
    scalar = np.ndim(eta) == 0
    eta = np.atleast_1d(eta)
    live, keep = np.flatnonzero(np.abs(eta) <= _ETA_FLAT), None
    gauss = np.zeros(eta.size)
    gauss[live] = np.exp(-eta[live] ** 2)
    value, nested = np.zeros((2, eta.size), dtype=complex)
    tail, used = np.zeros(eta.size), np.ones(eta.size, dtype=int)
    moments = _hermite_moments(eta[live])
    table = next(moments)[..., None]  # (live point, column of the moments, k)
    for n in range(_SERIES_N_MAX + 1):
        # a huge eta drives the H_n recurrence past float range; the inf or
        # NaN moments end the series below
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.concatenate([table, moments.send(keep)[..., None]], axis=2)
        coef_a = np.array([(-1) ** k * math.comb(n, k) for k in range(n + 1)], dtype=float)
        coef_b = np.array([(-1) ** k * math.comb(n + 1, k) for k in range(n + 2)], dtype=float)
        try:
            scale_a = (-1) ** n * tau ** (2 * n) / math.factorial(2 * n)
            scale_b = (-1) ** (n + 1) * tau ** (2 * n + 1) / math.factorial(2 * n + 1)
        except OverflowError:  # a huge tau: its power is past the largest float
            raise TruncationError(
                f"tau-power series overflowed at order {n}", last_term=tail[live[0]], n_used=n - 1
            ) from None
        with np.errstate(over="ignore", invalid="ignore"):
            a_n = scale_a * (coef_a * table[:, 0, :-1]).sum(axis=1)
            b_n, b_nested = scale_b * (coef_b * table[:, 1:]).sum(axis=2).T
            value[live] += a_n * gauss[live] + 1j * b_n
            nested[live] += a_n * gauss[live] + 1j * b_nested
            tail[live], used[live] = np.abs(a_n) * gauss[live] + np.abs(b_n), n
        # a term past float range (a huge moment or tau) makes the sum inf or
        # NaN, which no later term can bring back
        for j in live[~np.isfinite(tail[live])][:1]:
            raise TruncationError(
                f"tau-power series overflowed at order {n}, eta = {float(eta[j])!r}",
                last_term=tail[j], n_used=n,
            )
        keep = (n == 0) | ~(tail[live] < _SERIES_TAIL_TOL)
        live, table = live[keep], table[keep]
        if not live.size:
            break
    else:
        raise TruncationError(
            "tau-power series did not reach tail_tol", last_term=tail[live[0]], n_used=_SERIES_N_MAX
        )
    err = np.abs(value - nested)
    for j in np.flatnonzero(~(err <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(value))))[:1]:
        msg = f"tau-power series: f_2k step sums disagree at eta = {float(eta[j])!r}"
        raise ConvergenceError(msg, estimate=value[j], error_bound=err[j])
    if scalar:
        value, tail, used = complex(value[0]), float(tail[0]), int(used[0])
    return (value, tail, used) if return_diagnostics else value


def spectral_schrodinger(f: Field, tau: float) -> Field:
    """Spectral evolution by the multiplier e^{-i tau sqrt(1+k^2)}."""
    return solve_symbol_spectral(f, tau, SymbolSpec.schrodinger())


# ----------------------------------------------------------------------
# the D-hat operator


@lru_cache(maxsize=8)
def _k0_lags(n: int, x_min: float, x_max: float) -> _ShiftPlan:
    """The K0 kernel of D on the grid of n points on [x_min, x_max], binned
    into lag kernels (see evolution._shift_lattice) once per grid: a (4, S)
    array over the S lags within Delta = 40 of either side, 65 kB on 1024
    points on [-20, 20].

    The logarithmic on-diagonal singularity is absorbed by the
    Delta = h u^4 node mapping on [0, h]; beyond that the kernel is smooth
    and panels grow geometrically until K0 underflows (~ Delta = 40). Both
    sides, offsets -Delta and +Delta, are binned.
    """
    h = (x_max - x_min) / (n - 1)
    u, wu = _legendre_nodes(48)
    diag_nodes = h * u**4
    diag_w = 4.0 * h * u**3 * wu
    edges = [h]
    while edges[-1] < 2.0:
        edges.append(min(2.0 * edges[-1], 2.0))
    for e in (4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 40.0):
        if e > edges[-1]:
            edges.append(e)
    far_nodes, far_w = _gl_panels(edges, 24)
    nodes = np.concatenate([diag_nodes, far_nodes])
    weights = np.concatenate([diag_w, far_w])
    kw = weights * special_ufuncs().k0(nodes) / math.pi
    lattice = _shift_lattice(n, h, np.concatenate([-nodes, nodes]))
    return lattice.bin(np.concatenate([kw, kw]))


def _dhat_s_integral(f: Field) -> np.ndarray:
    """Literal double integral: (1/sqrt(pi)) int ds e^{-s} s^{-1/2} e^{s d^2} f.

    s = u^2 turns the outer integral into an even real-line one and the
    inner heat smoothing is done on the interpolated samples, which stays
    accurate for arbitrarily small smoothing widths. The Gauss-Hermite
    orders are fixed (outer 192, inner 128): the outer integrand inherits
    poles a distance 1/2 off the real axis, so pushing Gauss-Hermite
    further buys nothing once the interpolation error of the sampled data
    (~ h^4) dominates. Expect a few 1e-7 on moderate grids. All 192 x 128
    node pairs are one set of shifts -2|u| w with product weights, applied
    by one lag correlation with the spline coefficients (see
    evolution._shift_lattice).
    """
    wn, ww = _hermite_nodes(128)  # inner rule; the cached weights fold e^{+w^2} back in
    un, uw = _hermite_nodes(192)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    outer = uw * inv_sqrt_pi * np.exp(-un * un)
    inner = inv_sqrt_pi * (ww * np.exp(-wn * wn))
    shifts = -2.0 * np.outer(np.abs(un), wn)
    plan = _shift_lattice(f.n, f.dx, shifts.ravel()).bin(np.outer(outer, inner).ravel())
    return plan(_coefficients(f.x, f.values), f.values[-1])


def dhat_apply(f: Field, method: str = "kernel_k0") -> Field:
    """Apply D = (1 - d^2/dx^2)^{-1/2} to a field.

    ``kernel_k0`` (default) integrates against the closed-form kernel
    (1/pi) K0(|x - xi|); ``s_integral`` evaluates the literal double
    integral; ``spectral`` multiplies by (1+k^2)^{-1/2}, on any grid. All
    three agree on smooth decaying data.
    """
    require_one_of(DHAT_METHODS, method=method)

    def apply(g: Field) -> Field:
        if method == "spectral":
            return _spectral_apply(g, lambda k: (1.0 + k**2) ** -0.5, "the spectral route of D")
        if method == "kernel_k0":
            out = _k0_lags(g.n, g.x_min, g.x_max)(_coefficients(g.x, g.values), g.values[-1])
        else:
            out = _dhat_s_integral(g)
        return g.with_values(out, g.leak_warnings("dhat_apply"))

    return _homogeneous(apply, f, f"the {method} route of D")


def phi_transform(psi_bar: Field) -> Field:
    """Phi = D psi-bar (the delocalized companion field)."""
    return dhat_apply(psi_bar, "kernel_k0")


def iterated_series(psi0: Field, tau: float) -> Field:
    """Sum the iterated solution Psi-bar = sum (i tau)^n / n! * Psi_n with
    Psi_n = d^2/dx^2 (D Psi_{n-1}).

    The second derivative is spectral with an adaptive dealiasing cutoff
    (modes with no initial content are dropped rather than amplified);
    D uses the K0 kernel, binned into lag kernels once per series. Both
    map real data to real data (the multiplier -k^2 is real and even), so
    each Psi_n of real data is carried as a real array, and complex data
    as its real and imaginary parts, each iterated on its own: a term
    costs, per part, the spline's coefficient rows, one real lag
    correlation and a real FFT pair. Only the coefficients (i tau)^n / n!
    are complex. Any sample count works. Terms are added until the latest
    is at most 1e-8 times the data's peak, so the values commute with every
    power of two and zero data stop after one term, else TruncationError
    after 20 terms, or at the term past float range (a huge tau, a fine
    grid), with the last finite term and the count before.
    Data whose own spline rows leave float range are refused with
    ValueError, as on every kernel route.
    """
    tau = require("finite", tau=tau)
    return _homogeneous(_iterated_series, psi0, "the iterated series", tau=tau)


def _iterated_series(psi0: Field, tau: float) -> Field:
    n = psi0.n
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=psi0.dx)
    spec0 = np.abs(np.fft.fft(np.asarray(psi0.values, dtype=complex)))
    active = spec0 > 1e-13 * float(spec0.max())
    if np.any(active):
        k_cut = float(np.max(np.abs(k[active])))
    else:
        k_cut = (2.0 / 3.0) * float(np.max(np.abs(k)))
    d2_mult = np.where(np.abs(k) <= k_cut, -(k**2), 0.0)
    # the rfft frequencies 0 .. n//2; -k^2 is even, so for even n bin n/2
    # (k = -n/2 in fftfreq's order) takes the same value
    d2_half = d2_mult[: n // 2 + 1]

    dhat, x = _k0_lags(n, psi0.x_min, psi0.x_max), psi0.x
    values = psi0.values
    total = np.asarray(values, dtype=complex).copy()
    parts = [values.real, values.imag] if np.iscomplexobj(values) else [values]
    tail = None  # the size of the latest finite term
    tail_tol = _ITERATED_TAIL_TOL * _peak(values)

    def overflowed(m: int) -> TruncationError:
        # term m left float range: the series ends after the m - 1 before it
        return TruncationError(
            f"iterated series overflowed at term {m}", last_term=tail, n_used=m - 1
        )

    # a huge tau, or a fine grid's |k|^2, overflows a term, which ends the
    # series below, so numpy's overflow and inf - inf warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, _ITERATED_N_MAX + 1):
            try:
                coefs = [_coefficients(x, part) for part in parts]
            except ValueError:  # Psi_{m-1}'s spline rows are past float range
                if m == 1:  # the input's own: refused as on every kernel route
                    raise
                raise overflowed(m) from None
            smoothed = [dhat(coef, part[-1]) for coef, part in zip(coefs, parts)]
            parts = [np.fft.irfft(d2_half * np.fft.rfft(part), n) for part in smoothed]
            current = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
            try:
                scale = (1j * tau) ** m / math.factorial(m)
            except OverflowError:  # a huge tau: its power is past the largest float
                raise overflowed(m) from None
            term = scale * current
            size = float(np.max(np.abs(term)))
            if not math.isfinite(size):
                raise overflowed(m)
            total += term
            tail = size
            if tail <= tail_tol:
                break
        else:
            raise TruncationError(
                "iterated series did not reach tail_tol", last_term=tail, n_used=_ITERATED_N_MAX
            )
    warn = psi0.leak_warnings("iterated_series")
    return psi0.with_values(total, warn, meta={"tail_estimate": tail})


# ----------------------------------------------------------------------
# Heisenberg-picture observables


# R(a) and F(a) are these multiples of their integrals
_R_PREF = 2.0 * math.sqrt(2.0)
_F_PREF = 2.0 * math.sqrt(2.0 / math.pi)


def r_function(a):
    """Width-correction factor R(a) = 2 sqrt(2) int_0^inf e^{-s} (2+a^2 s)^{-3/2} ds.

    R(0) = 1; decreases monotonically; R(a) ~ 1 - (3/4) a^2 for small a. A
    number a gives a float, a 1-D array an array, from one log-trapezoid
    call with one column per a. The rule's tolerance is taken on the
    largest column, so each is scaled to _LOG_UNIT by 1 + a^2/4
    (R ~ 4/a^2 for large a). R's integrand in log s rises up to its peak at
    s = 4/a^2, so the window's left end starts at or below that s for the
    largest a. Within about 1e-15 of the closed form for a in [0, 3e19];
    beyond that the rule's end test cannot cut R's tail and it raises
    ConvergenceError, its error bound in units of R (inf where a^2
    overflows and the rule cannot start). An empty array gives an empty
    array.
    """
    a = require("nonnegative and finite", a=a)
    a_arr = np.atleast_1d(a)
    if not a_arr.size:  # no column for the rule to integrate
        return np.zeros(0)
    with np.errstate(over="ignore", divide="ignore"):  # a^2 = inf also ends in ConvergenceError
        a2 = a_arr * a_arr
        scale = _LOG_UNIT * (1.0 + 0.25 * a2)
        t_head = 4.0 / np.max(a2)  # inf where every a is 0

    def integrand(s: np.ndarray) -> np.ndarray:
        s = s[:, None]
        q = 2.0 + a2 * s
        return scale * (np.exp(-s) / np.sqrt(q) / q)

    r = _R_PREF * _log_trapezoid(integrand, 1.0, t_head, unit=_R_PREF / scale)[0] / scale
    return r if np.ndim(a) else float(r[0])


def f_function(a):
    """Commutator-correction factor
    F(a) = (2 sqrt(2)/sqrt(pi)) int_0^inf ds sqrt(s) e^{-s} (2+a^2 s)^{-1/2}.

    F(0) = 1; F(a) ~ sqrt(8/pi)/a for large a. A number a gives a float, a
    1-D array an array, from one log-trapezoid call with one column per a,
    each scaled to _LOG_UNIT by 1 + a. F's weight in log s peaks at s = 1
    to 1.5 for every a, so the window starts at the rule's default ends.
    sqrt(2 + a^2 s) is a hypot, finite where a^2 overflows. Within about
    1e-15 of the closed form for a in [0, 1e304]; past a ~ 1.8e304 the
    scale overflows and the rule raises ConvergenceError with an infinite
    bound. An empty array gives an empty array.
    """
    a = require("nonnegative and finite", a=a)
    a_arr = np.atleast_1d(a)
    if not a_arr.size:  # no column for the rule to integrate
        return np.zeros(0)
    with np.errstate(over="ignore"):
        scale = _LOG_UNIT * (1.0 + a_arr)

    def integrand(s: np.ndarray) -> np.ndarray:
        root = np.sqrt(s)[:, None]
        return scale * (root * (np.exp(-s)[:, None] / np.hypot(math.sqrt(2.0), a_arr * root)))

    f = _F_PREF * _log_trapezoid(integrand, 1.0, unit=_F_PREF / scale)[0] / scale
    return f if np.ndim(a) else float(f[0])


def _named(inputs: ObservableInputs) -> dict:
    return {"sigma": inputs.sigma, "a": inputs.a, "c": inputs.c, "t": inputs.t}


def _width_sq(inputs: ObservableInputs, r: float) -> float:
    try:
        s2 = inputs.sigma**2
        w = s2 * (1.0 + 0.25 * (inputs.a / inputs.sigma) ** 2 * r * (inputs.c * inputs.t) ** 2)
    except OverflowError:  # ** raises where * gives inf
        w = math.inf
    # inf, or 0 * inf where sigma^2 underflows
    return in_float_range(w, "the packet width", **_named(inputs))


def _commutator(inputs: ObservableInputs, f: float) -> complex:
    value = -1j * inputs.lambda_c * f * inputs.c * inputs.t
    return in_float_range(value, "the commutator", **_named(inputs))


def packet_width(inputs: ObservableInputs) -> float:
    """Squared packet width sigma^2(t) = sigma^2 [1 + (a/sigma)^2 R(a) c^2 t^2 / 4]."""
    return _width_sq(inputs, r_function(inputs.a))


def commutator_xt_x0(inputs: ObservableInputs) -> complex:
    """Equal-packet commutator <[x(t), x(0)]> = -i lambda_c F(a) c t."""
    return _commutator(inputs, f_function(inputs.a))


def linear_potential_trajectory(x0: float, p0: float, force: float, t: float) -> float:
    """Heisenberg trajectory under a linear potential, normalized units
    (m = c = 1): x(t) = x0 + [E(p0 + t f) - E(p0)] / f with E(p) = sqrt(1+p^2),
    taken as x0 + t v, v = (p0 + t f/2) / [E(p0 + t f)/2 + E(p0)/2], a mean
    velocity of at most 1, which neither cancels nor divides by f and so
    holds at f = 0 too; the halves keep both sums in float range for every
    finite p0. Raises ValueError where t f, E(p0 + t f) or x(t) overflows,
    and is elsewhere within 8e-16 of its terms' size plus a subnormal unit.
    """
    x0, p0, force, t = require("real and finite", x0=x0, p0=p0, force=force, t=t)
    tf = t * force
    energy = math.hypot(1.0, p0 + tf)  # inf where t f or p0 + t f overflows
    x = x0 + t * ((p0 + tf / 2.0) / (energy / 2.0 + math.hypot(1.0, p0) / 2.0))
    # an infinite energy would read x0 from a finite numerator
    in_float_range((energy, x), "the trajectory", x0=x0, p0=p0, force=force, t=t)
    return x

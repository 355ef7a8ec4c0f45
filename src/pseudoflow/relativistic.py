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
integrals below. The spectral multiplier e^{-i tau sqrt(1+k^2)} provides the
independent cross-check (and the fast production path).

The operator D = (1 - d^2/deta^2)^{-1/2} admits three equivalent
realizations (exercised against each other in the tests): the closed-form
kernel (1/pi) K0(|x - xi|), the literal double integral over heat
smoothings, and the Fourier multiplier (1+k^2)^{-1/2}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import k0 as _k0

from .errors import TruncationError
from .evolution import SymbolSpec, _shift_sum, _spectral_apply, solve_symbol_spectral
from .special import (
    QuadratureConfig,
    _gl_panels,
    _hermite_nodes,
    _legendre_nodes,
    hermite2,
    integrate_halfline,
    integrate_realline,
)
from .transforms import _ADAPTIVE_CFG, Field

__all__ = [
    "ObservableInputs",
    "SeriesConfig",
    "f2k",
    "series_solution",
    "spectral_schrodinger",
    "dhat_apply",
    "phi_transform",
    "iterated_series",
    "r_function",
    "f_function",
    "packet_width",
    "commutator_xt_x0",
    "linear_potential_trajectory",
]

# The f_{2k} integrand has poles at u = +-i/2, close enough to the real axis
# that Gauss-Hermite stalls near 1e-8; the adaptive rule is exact to rounding.
_F2K_CFG = QuadratureConfig(realline_rule="truncated_adaptive")

DHAT_METHODS = ("kernel_k0", "s_integral", "spectral")


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the tau-power series.

    The series stops at the first term whose magnitude falls below
    ``tail_tol``; if that never happens before ``n_max``, a TruncationError
    is raised.
    """

    n_max: int = 60
    tail_tol: float = 1e-9

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.tail_tol <= 0:
            raise ValueError("tail_tol must be positive")


@dataclass(frozen=True)
class ObservableInputs:
    """Inputs to the packet-width and commutator formulas.

    ``sigma`` is the initial packet width, ``a`` the dimensionless ratio
    (Compton wavelength / sigma), ``t`` the time. In ``normalized`` units
    c = lambda_c = 1 is mandatory; ``physical`` mode takes explicit c and
    lambda_c and enforces a = lambda_c / sigma.
    """

    sigma: float = 1.0
    a: float = 1.0
    t: float = 0.0
    units: str = "normalized"
    c: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        if self.units not in ("normalized", "physical"):
            raise ValueError("units must be 'normalized' or 'physical'")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("a must be positive and finite")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.units == "normalized":
            if self.c != 1.0 or self.lambda_c != 1.0:
                raise ValueError("normalized units fix c = lambda_c = 1")
        else:
            if not all(math.isfinite(v) and v > 0 for v in (self.c, self.lambda_c)):
                raise ValueError("physical units need positive c and lambda_c, both finite")
            if abs(self.a - self.lambda_c / self.sigma) > 1e-9 * self.a:
                raise ValueError("inconsistent inputs: a must equal lambda_c / sigma")


# ----------------------------------------------------------------------
# f_{2k} and the series solution


@lru_cache(maxsize=1 << 16)
def _f2k_cached(eta: float, k: int) -> float:
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)

    def ig(u: float) -> float:
        arg = 1.0 + 4.0 * u * u
        return (
            inv_sqrt_pi
            * math.exp(-u * u)
            / math.sqrt(arg)
            * hermite2(2 * k, 2.0 * eta / arg, -1.0 / arg)
            * math.exp(-eta * eta / arg)
        )

    return float(integrate_realline(ig, _F2K_CFG).value.real)


def f2k(eta: float, k: int) -> float:
    """Smoothed-Hermite integral f_{2k}(eta).

    f_{2k}(eta) = (1/sqrt(pi)) int_0^inf ds e^{-s} [s(1+4s)]^{-1/2}
    H_{2k}(2 eta/(1+4s), -1/(1+4s)) e^{-eta^2/(1+4s)}.

    Evaluated after the substitution s = u^2 (which removes the s^{-1/2}
    endpoint factor) as an even real-line integral.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    return _f2k_cached(float(eta), int(k))


def series_solution(
    eta: float,
    tau: float,
    cfg: SeriesConfig | None = None,
    return_diagnostics: bool = False,
):
    """Hermite-series value Psi(eta, tau) = A e^{-eta^2} + i B.

    Terms are added until the latest tau-power term drops below
    ``cfg.tail_tol`` in magnitude; returns the complex value, or
    ``(value, tail_estimate, n_used)`` with ``return_diagnostics``.
    """
    if not (math.isfinite(eta) and math.isfinite(tau)):
        raise ValueError("eta and tau must be finite")
    cfg = cfg or SeriesConfig()
    gauss = math.exp(-eta * eta)
    total = 0.0 + 0.0j
    tail = math.inf
    for n in range(cfg.n_max + 1):
        inner_a = 0.0
        for k in range(n + 1):
            inner_a += (-1) ** k * math.comb(n, k) * hermite2(2 * k, 2.0 * eta, -1.0)
        a_n = (-1) ** n * tau ** (2 * n) / math.factorial(2 * n) * inner_a
        inner_b = 0.0
        for k in range(n + 2):
            inner_b += (-1) ** k * math.comb(n + 1, k) * f2k(eta, k)
        b_n = (-1) ** (n + 1) * tau ** (2 * n + 1) / math.factorial(2 * n + 1) * inner_b
        total += a_n * gauss + 1j * b_n
        tail = abs(a_n) * gauss + abs(b_n)
        if n >= 1 and tail < cfg.tail_tol:
            break
    else:
        raise TruncationError(
            "tau-power series did not reach tail_tol", last_term=tail, n_used=cfg.n_max
        )
    if return_diagnostics:
        return total, tail, n
    return total


def spectral_schrodinger(f: Field, tau: float) -> Field:
    """Spectral evolution by the multiplier e^{-i tau sqrt(1+k^2)}."""
    return solve_symbol_spectral(f, tau, SymbolSpec.schrodinger())


# ----------------------------------------------------------------------
# the D-hat operator


def _dhat_kernel_k0(f: Field) -> np.ndarray:
    """(1/pi) int K0(|x - xi|) f(xi) dxi by offset quadrature.

    The logarithmic on-diagonal singularity is absorbed by the
    Delta = h u^4 node mapping on [0, h]; beyond that the kernel is smooth
    and panels grow geometrically until K0 underflows (~ Delta = 40). Both
    sides, offsets -Delta and +Delta, go through one lag correlation with
    the spline coefficients (see evolution._shift_sum).
    """
    h = f.dx
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
    kw = weights * _k0(nodes) / math.pi
    return _shift_sum(f)(np.concatenate([-nodes, nodes]), np.concatenate([kw, kw]))


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
    evolution._shift_sum).
    """
    wn, ww = _hermite_nodes(128)  # inner rule; the cached weights fold e^{+w^2} back in
    un, uw = _hermite_nodes(192)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    outer = uw * inv_sqrt_pi * np.exp(-un * un)
    inner = inv_sqrt_pi * (ww * np.exp(-wn * wn))
    shifts = -2.0 * np.outer(np.abs(un), wn)
    return _shift_sum(f)(shifts.ravel(), np.outer(outer, inner).ravel())


def dhat_apply(f: Field, method: str = "kernel_k0") -> Field:
    """Apply D = (1 - d^2/dx^2)^{-1/2} to a field.

    ``kernel_k0`` (default) integrates against the closed-form kernel
    (1/pi) K0(|x - xi|); ``s_integral`` evaluates the literal double
    integral; ``spectral`` multiplies by (1+k^2)^{-1/2} (power-of-two grids
    only). All three agree on smooth decaying data.
    """
    if method not in DHAT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {DHAT_METHODS}")
    warn = []
    if f.boundary_leaks():
        warn.append("dhat_apply: input is not negligible at the grid boundary")
    if method == "spectral":
        return _spectral_apply(f, lambda k: (1.0 + k**2) ** -0.5)
    if method == "kernel_k0":
        out = _dhat_kernel_k0(f)
    else:
        out = _dhat_s_integral(f)
    if not np.iscomplexobj(f.values):
        out = out.real
    return f.with_values(out, tuple(warn))


def phi_transform(psi_bar: Field) -> Field:
    """Phi = D psi-bar (the delocalized companion field)."""
    return dhat_apply(psi_bar, "kernel_k0")


def iterated_series(psi0: Field, tau: float, cfg: SeriesConfig | None = None) -> Field:
    """Sum the iterated solution Psi-bar = sum (i tau)^n / n! * Psi_n with
    Psi_n = d^2/dx^2 (D Psi_{n-1}).

    The second derivative is spectral with an adaptive dealiasing cutoff
    (modes with no initial content are dropped rather than amplified);
    D uses the K0 kernel. Fails with TruncationError when the tail test
    cannot be met within ``n_max`` (which is capped at 20 here: each
    iteration multiplies rounding noise by the dealiased |k|^2).
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    cfg = cfg or SeriesConfig(n_max=20, tail_tol=1e-8)
    if cfg.n_max > 20:
        raise ValueError("iterated_series requires n_max <= 20")
    n = psi0.n
    if n & (n - 1) != 0:
        raise ValueError("iterated_series requires a power-of-two sample count")
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=psi0.dx)
    spec0 = np.abs(np.fft.fft(np.asarray(psi0.values, dtype=complex)))
    active = spec0 > 1e-13 * float(spec0.max())
    if np.any(active):
        k_cut = float(np.max(np.abs(k[active])))
    else:
        k_cut = (2.0 / 3.0) * float(np.max(np.abs(k)))
    d2_mult = np.where(np.abs(k) <= k_cut, -(k**2), 0.0)

    total = np.asarray(psi0.values, dtype=complex).copy()
    current = psi0
    tail = math.inf
    for m in range(1, cfg.n_max + 1):
        smoothed = dhat_apply(current, "kernel_k0")
        deriv = np.fft.ifft(d2_mult * np.fft.fft(smoothed.values))
        current = psi0.with_values(deriv)
        term = (1j * tau) ** m / math.factorial(m) * deriv
        total += term
        tail = float(np.max(np.abs(term)))
        if tail < cfg.tail_tol:
            break
    else:
        raise TruncationError(
            "iterated series did not reach tail_tol", last_term=tail, n_used=cfg.n_max
        )
    warn = []
    if psi0.boundary_leaks():
        warn.append("iterated_series: input is not negligible at the grid boundary")
    return psi0.with_values(total, tuple(warn), meta={"tail_estimate": tail})


# ----------------------------------------------------------------------
# Heisenberg-picture observables


def r_function(a: float) -> float:
    """Width-correction factor R(a) = 2 sqrt(2) int_0^inf e^{-s} (2+a^2 s)^{-3/2} ds.

    R(0) = 1; decreases monotonically; R(a) ~ 1 - (3/4) a^2 for small a.
    """
    if not (math.isfinite(a) and a >= 0):
        raise ValueError("a must be finite and nonnegative")

    def ig(s: float) -> float:
        return math.exp(-s) * (2.0 + a * a * s) ** -1.5

    return 2.0 * math.sqrt(2.0) * float(integrate_halfline(ig, _ADAPTIVE_CFG).value.real)


def f_function(a: float) -> float:
    """Commutator-correction factor
    F(a) = (2 sqrt(2)/sqrt(pi)) int_0^inf ds sqrt(s) e^{-s} (2+a^2 s)^{-1/2}.
    """
    if not (math.isfinite(a) and a >= 0):
        raise ValueError("a must be finite and nonnegative")

    def ig(s: float) -> float:
        return math.sqrt(s) * math.exp(-s) * (2.0 + a * a * s) ** -0.5

    return (
        2.0
        * math.sqrt(2.0)
        / math.sqrt(math.pi)
        * float(integrate_halfline(ig, _ADAPTIVE_CFG).value.real)
    )


def packet_width(inputs: ObservableInputs) -> float:
    """Squared packet width sigma^2(t) = sigma^2 [1 + (a/sigma)^2 R(a) c^2 t^2 / 4]."""
    r = r_function(inputs.a)
    s2 = inputs.sigma**2
    return s2 * (1.0 + 0.25 * (inputs.a / inputs.sigma) ** 2 * r * (inputs.c * inputs.t) ** 2)


def commutator_xt_x0(inputs: ObservableInputs) -> complex:
    """Equal-packet commutator <[x(t), x(0)]> = -i lambda_c F(a) c t."""
    fa = f_function(inputs.a)
    return -1j * inputs.lambda_c * fa * inputs.c * inputs.t


def linear_potential_trajectory(x0: float, p0: float, force: float, t: float) -> float:
    """Heisenberg trajectory under a linear potential, normalized units
    (m = c = 1): x(t) = x0 + [sqrt(1+(t f + p0)^2) - sqrt(1+p0^2)] / f,
    with the free-particle limit used at f = 0.
    """
    if force == 0.0:
        return x0 + t * p0 / math.sqrt(1.0 + p0 * p0)
    return x0 + (math.sqrt(1.0 + (t * force + p0) ** 2) - math.sqrt(1.0 + p0 * p0)) / force

"""The four workloads: seeded operations, each with an independent oracle.

An operation is one library call (or one CLI subprocess) plus a check that
runs outside the timed interval. ``check`` returns ``(err, scale)``: the
operation passes when ``err <= tol``, and its output is counted as wrong
(not merely inaccurate) when ``err`` exceeds ``GROSS`` times ``scale``.

Each workload yields its operations in passes. A pass is a fixed mix of
operation kinds whose parameters come from ``numpy.random.default_rng``
seeded with ``(seed, pass index)``, so the same seed gives the same inputs.
The run stops at the end of the first pass that reaches the measuring time,
which keeps the kind mix of a run independent of where the clock runs out.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, linalg

import pseudoflow
from pseudoflow import (
    Field,
    SymbolSpec,
    apply_inv_sqrt_shift,
    exp_sqrt_via_doetsch,
    f_function,
    gauss_weierstrass,
    integrate_halfline,
    iterated_series,
    laplace_inv_power,
    phi_transform,
    pseudoheat_gaussian,
    r_function,
    series_solution,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
    spectral_schrodinger,
)
from pseudoflow import relativistic

# An output off by more than this share of its oracle's magnitude is wrong,
# not just outside its tolerance; it makes the run's ``correct`` false.
GROSS = 0.05


@dataclass
class Op:
    kind: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    tol: float
    prepare: Callable[[], None] | None = None


def _quad(fn, a, b, **kw):
    """scipy QUADPACK at tight settings, used only as an oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.quad(fn, a, b, limit=400, epsabs=1e-15, epsrel=1e-13, **kw)
    return val


def _max_err(got, ref, sel=slice(None)):
    got = np.asarray(got)[sel]
    ref = np.asarray(ref)[sel]
    return float(np.max(np.abs(got - ref))), float(np.max(np.abs(ref)))


def _gaussian(x_min, x_max, n, sigma, center=0.0):
    return Field.from_function(x_min, x_max, n, lambda x: np.exp(-(((x - center) / sigma) ** 2)))


def fft_multiplier(values, dx, mult, pad=4):
    """Apply a Fourier multiplier with ``pad``-fold zero padding (numpy only)."""
    n = len(values)
    padded = np.zeros(pad * n, dtype=complex)
    padded[:n] = values
    k = 2.0 * math.pi * np.fft.fftfreq(pad * n, d=dx)
    return np.fft.ifft(mult(k) * np.fft.fft(padded))[:n]


# ----------------------------------------------------------------------
# grid_subordination: Field solves on seeded Gaussian-family inputs

# solve_pseudoheat: for each n, one tau drawn uniformly from each of six
# equal strata of [0.25, 1.5], one at the edge tau = 0.25, and sigma from its
# full range. Free draws over a dozen solves per run would spread ops_per_s
# between seeds, because the cost doubles at refinement steps near tau = 0.3
# and 0.69; with strata only the two that hold a step vary in cost. The edge
# solves are the costliest and the largest in memory (n = 256 below the
# first step peaks 17 MB higher), so every pass holds them and peak_rss_mb
# does not depend on the draw. The trapezoid Gauss-Weierstrass step is
# under-resolved when t * tau**2 < h**2: at 1e-6 against spectral n = 128
# misses below tau of about 0.6 (4e-3 at the edge, 1.2e-3 at tau = 0.3) and
# n = 256 below about 0.29 (8e-6 at the edge). Those misses are in every pass.
PH_SIZES = (128, 256)
PH_STRATA = np.linspace(0.25, 1.5, 7)
PH_DRAWS = ((0.25, 0.25), *zip(PH_STRATA[:-1], PH_STRATA[1:]))


def _spectral_check(field_out, f_in, tau, symbol, sel=None):
    ref = solve_symbol_spectral(f_in, tau, symbol).values
    got = field_out.values
    if not np.iscomplexobj(got):
        ref = ref.real
    return _max_err(got, ref, sel if sel is not None else slice(None))


def _op_pseudoheat(rng, n, tau_lo, tau_hi):
    tau = float(rng.uniform(tau_lo, tau_hi))
    sigma = float(rng.uniform(0.7, 1.5))
    f = _gaussian(-16.0, 16.0, n, sigma)
    sel = np.abs(f.x) <= 6.0
    return Op(
        f"solve_pseudoheat.n{n}",
        "evolution",
        lambda: solve_pseudoheat(f, tau),
        lambda out: _spectral_check(out, f, tau, SymbolSpec.pseudoheat(), sel),
        1e-6,
    )


def _op_gauss_weierstrass(rng):
    n = int(rng.choice((128, 256)))
    alpha = float(rng.uniform(0.25, 1.5))
    sigma = float(rng.uniform(0.7, 1.5))
    f = _gaussian(-16.0, 16.0, n, sigma)

    def check(out):
        # glaisher's identity for a Gaussian of width sigma
        s2 = sigma * sigma + 4.0 * alpha
        ref = sigma / math.sqrt(s2) * np.exp(-(f.x**2) / s2)
        return _max_err(out.values, ref)

    return Op("gauss_weierstrass", "transforms", lambda: gauss_weierstrass(f, alpha), check, 1e-9)


def _op_phi(rng):
    sigma = float(rng.uniform(0.7, 1.5))
    f = _gaussian(-20.0, 20.0, 1024, sigma)
    sel = np.abs(f.x) <= 10.0
    symbol = SymbolSpec(lambda k: -0.5 * np.log1p(k**2), "inv_sqrt")
    return Op(
        "phi_transform",
        "relativistic",
        lambda: phi_transform(f),
        lambda out: _spectral_check(out, f, 1.0, symbol, sel),
        1e-6,
    )


def _op_iterated(rng):
    sigma = float(rng.uniform(0.7, 1.5))
    tau = float(rng.uniform(0.1, 0.5))
    f = _gaussian(-16.0, 16.0, 512, sigma)
    symbol = SymbolSpec(lambda k: -1j * k**2 / np.sqrt(1.0 + k**2), "iterated")
    return Op(
        "iterated_series",
        "relativistic",
        lambda: iterated_series(f, tau),
        lambda out: _spectral_check(out, f, tau, symbol),
        1e-5,
    )


def _op_inv_sqrt(rng):
    # band-limited packet: the J0 representation of (1 - d^2)^{-1/2} must
    # undo the multiplier sqrt(1 - k^2) applied here by FFT
    kappa = float(rng.uniform(0.2, 0.5))
    width = float(rng.uniform(30.0, 50.0))
    g = Field.from_function(
        -260.0, 260.0, 2048, lambda x: np.cos(kappa * x) * np.exp(-((x / width) ** 2))
    )
    fwd = fft_multiplier(g.values, g.dx, lambda k: np.sqrt((1.0 - k**2).astype(complex)), pad=2)
    f = g.with_values(fwd.real)
    sel = np.abs(g.x) <= 100.0
    return Op(
        "apply_inv_sqrt_shift",
        "evolution",
        lambda: apply_inv_sqrt_shift(f),
        lambda out: _max_err(out.values, g.values, sel),
        1e-6,
    )


def _op_half_derivative(rng):
    sigma = float(rng.uniform(0.7, 1.5))
    tau = float(rng.uniform(0.25, 1.5))
    f = _gaussian(-12.0, 8.0, 1281, sigma)
    probes = rng.choice(np.arange(-2, 4), size=3, replace=False)
    pref = 1.0 / (2.0 * math.sqrt(math.pi))

    def check(out):
        errs, refs = [], []
        for xv in probes:
            j = int(round((xv - f.x_min) / f.dx))
            ref = _quad(
                lambda t: pref * t**-1.5 * math.exp(-0.25 / t - ((xv - tau * tau * t) / sigma) ** 2),
                0.0,
                np.inf,
            )
            errs.append(abs(out.values[j] - ref))
            refs.append(abs(ref))
        return max(errs), max(refs)

    return Op("solve_half_derivative", "evolution", lambda: solve_half_derivative(f, tau), check, 1e-8)


def _op_affine(rng):
    sigma = float(rng.uniform(0.7, 1.5))
    center = float(rng.uniform(2.0, 4.0))
    tau = float(rng.uniform(0.25, 0.75))
    c = float(rng.uniform(0.5, 1.5))
    f = _gaussian(-2.0, 14.0, 641, sigma, center)
    probes = rng.choice(np.arange(0, 6), size=3, replace=False)
    pref = 1.0 / (2.0 * math.sqrt(math.pi))
    t2 = tau * tau

    def check(out):
        worst = 0.0
        for xv in probes:
            j = int(round((xv - f.x_min) / f.dx))
            ref = _quad(
                lambda t: pref
                * t**-1.5
                * math.exp(
                    -0.25 / t
                    - 0.5 * c * t * t * t2 * t2
                    - t * t2 * xv
                    - ((xv + c * t2 * t - center) / sigma) ** 2
                ),
                0.0,
                np.inf,
            )
            worst = max(worst, abs(out.values[j] - ref) / abs(ref))
        return worst, 1.0

    return Op("solve_affine_sqrt", "evolution", lambda: solve_affine_sqrt(f, tau, c), check, 2e-4)


# kind -> operations per pass (besides the fourteen pseudoheat solves). As
# many operations are cheaper than phi_transform as are dearer, so the
# median falls inside phi_transform; the fourteen solves are the slowest
# operations of a pass, so the tail percentile (11th slowest, the 4th
# cheapest solve) falls inside solve_pseudoheat.n128. apply_inv_sqrt_shift runs on 2048 points to stay
# below the cheapest solves (4096 points cost as much as they do).
GRID_MIX = (
    (_op_gauss_weierstrass, 26),
    (_op_half_derivative, 4),
    (_op_phi, 14),
    (_op_affine, 4),
    (_op_iterated, 4),
    (_op_inv_sqrt, 8),
)


def grid_pass(rng):
    groups = [[
        _op_pseudoheat(rng, n, lo, hi) for n in PH_SIZES for lo, hi in PH_DRAWS
    ]]
    groups += [[make(rng) for _ in range(count)] for make, count in GRID_MIX]
    return _interleave(groups)


def grid_warmup(rng):
    return _op_gauss_weierstrass(rng)


# ----------------------------------------------------------------------
# pointwise_quadrature: scalar integrals, thousands of Python callbacks


def _rel(got, ref, floor=0.0):
    return abs(got - ref) / max(abs(ref), floor), 1.0


def _op_exp_sqrt(rng, form):
    x = float(rng.uniform(0.5, 2.0))
    y = float(rng.uniform(0.5, 2.0))
    ref = math.exp(-x * math.sqrt(y))
    return Op(
        f"exp_sqrt_via_doetsch.{form}",
        "transforms",
        lambda: exp_sqrt_via_doetsch(x, y, form=form),
        lambda got: _rel(got, ref),
        1e-8,
    )


def _op_pseudoheat_gaussian(rng):
    tau = float(rng.uniform(0.25, 1.5))
    x = float(rng.uniform(-4.0, 4.0))

    def check(got):
        # Fourier representation: an independent path to the same flow
        ref = _quad(
            lambda k: math.exp(-0.25 * k * k - tau * math.sqrt(1.0 + k * k)) * math.cos(k * x),
            0.0,
            np.inf,
        ) / math.sqrt(math.pi)
        return _rel(got, ref, 1e-2)

    return Op("pseudoheat_gaussian", "evolution", lambda: pseudoheat_gaussian(tau, x), check, 1e-8)


def _momentum_average(fn, a):
    sd = a / 2.0
    return _quad(
        lambda u: fn(u) * math.exp(-u * u / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi)),
        -np.inf,
        np.inf,
    )


def r_oracle(a):
    return 4.0 / (a * a) * _momentum_average(lambda u: u * u / (1.0 + u * u), a)


def f_oracle(a):
    return _momentum_average(lambda u: (1.0 + u * u) ** -1.5, a)


def _op_r(rng):
    a = float(rng.uniform(0.25, 5.0))
    return Op("r_function", "relativistic", lambda: r_function(a), lambda g: _rel(g, r_oracle(a)), 1e-8)


def _op_f(rng):
    a = float(rng.uniform(0.25, 5.0))
    return Op("f_function", "relativistic", lambda: f_function(a), lambda g: _rel(g, f_oracle(a)), 1e-8)


def _op_laplace(rng):
    nu = float(rng.uniform(0.3, 2.5))
    a = float(rng.uniform(0.5, 3.0))
    return Op(
        "laplace_inv_power",
        "transforms",
        lambda: laplace_inv_power(nu, a),
        lambda g: _rel(g, a**-nu),
        1e-8,
    )


def _op_halfline(rng):
    b = float(rng.uniform(1.0, 3.0))
    w = float(rng.uniform(0.0, 2.0))
    return Op(
        "integrate_halfline",
        "special",
        lambda: integrate_halfline(lambda s: math.exp(-b * s) * math.cos(w * s)).value.real,
        lambda g: _rel(g, b / (b * b + w * w)),
        1e-8,
    )


# The counts put the median inside pseudoheat_gaussian and the tail inside
# the t_form of exp_sqrt_via_doetsch.
POINTWISE_MIX = (
    (lambda rng: _op_exp_sqrt(rng, "t_form"), 6),
    (lambda rng: _op_exp_sqrt(rng, "xi_form"), 2),
    (_op_pseudoheat_gaussian, 13),
    (_op_r, 2),
    (_op_f, 2),
    (_op_laplace, 2),
    (_op_halfline, 2),
)


def pointwise_pass(rng):
    return _interleave([[make(rng) for _ in range(count)] for make, count in POINTWISE_MIX])


def pointwise_warmup(rng):
    return _op_exp_sqrt(rng, "t_form")


# ----------------------------------------------------------------------
# hermite_series: pointwise tau-power series at seeded grid nodes

SERIES_GRID = (-16.0, 16.0, 512)
SERIES_TAUS = (0.5, 1.0)
SERIES_POINTS = 8


class SeriesOracle:
    """Spectral solutions on the fig2 grid, computed once per process."""

    def __init__(self):
        f = Field.from_function(*SERIES_GRID, lambda x: np.exp(-(x**2)))
        self.x = f.x
        self.nodes = np.nonzero(np.abs(f.x) <= 4.0)[0]
        self.ref = {tau: spectral_schrodinger(f, tau).values for tau in SERIES_TAUS}


def clear_f2k_cache():
    """Keep f_2k moments from being shared across operations.

    The package memoises f_2k on float keys; a later version may drop the
    cache, so its absence is not an error.
    """
    cached = getattr(relativistic, "_f2k_cached", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _op_series(rng, oracle):
    # one node from each of eight equal strata of |eta| <= 4: the series
    # cost depends on eta, and stratifying keeps it steady between seeds
    strata = np.array_split(oracle.nodes, SERIES_POINTS)
    idx = np.array([rng.choice(s) for s in strata])
    etas = [float(oracle.x[j]) for j in idx]

    def call():
        return [[series_solution(eta, tau) for eta in etas] for tau in SERIES_TAUS]

    def check(vals):
        errs = [
            abs(v - oracle.ref[tau][j])
            for tau, row in zip(SERIES_TAUS, vals)
            for v, j in zip(row, idx)
        ]
        return max(errs), 1.0

    return Op("series_solution", "relativistic", call, check, 1e-6, prepare=clear_f2k_cache)


def hermite_pass(rng, oracle):
    return [_op_series(rng, oracle) for _ in range(4)]


# ----------------------------------------------------------------------
# cli_cold: one `python -m pseudoflow` subprocess per operation


def read_csv(data: bytes) -> dict:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def _sqrt_symbol(k):
    return np.sqrt(1.0 + k**2)


def _schrodinger_abs(x, tau):
    """|psi(x, tau)| of the relativistic packet by its Fourier integral."""
    if tau == 0.0:
        return np.exp(-(x**2))
    out = []
    for xv in x:
        re = _quad(lambda k: math.exp(-0.25 * k * k) * math.cos(tau * math.sqrt(1 + k * k)) * math.cos(k * xv), 0.0, np.inf)
        im = _quad(lambda k: math.exp(-0.25 * k * k) * math.sin(tau * math.sqrt(1 + k * k)) * math.cos(k * xv), 0.0, np.inf)
        out.append(abs(complex(re, -im)) / math.sqrt(math.pi))
    return np.array(out)


def _check_fig1(tau):
    def check(cols):
        x = cols["x"]
        s2 = 1.0 + 4.0 * tau
        heat_err, _ = _max_err(cols["heat"], np.exp(-(x**2) / s2) / math.sqrt(s2))
        ref = fft_multiplier(cols["initial"], x[1] - x[0], lambda k: np.exp(-tau * _sqrt_symbol(k))).real
        sel = np.abs(x) <= 6.0
        ph_err, scale = _max_err(cols["pseudoheat"], ref, sel)
        # two tolerances, heat 1e-9 and pseudoheat 1e-6: errors in units of each
        return max(ph_err / 1e-6, heat_err / 1e-9), scale / 1e-6

    return check


def _check_fig2(cols):
    x = cols["x"]
    f0 = np.exp(-(x**2))
    worst = 0.0
    for tau in (0.0, 0.5, 1.0):
        ref = np.abs(fft_multiplier(f0, x[1] - x[0], lambda k: np.exp(-1j * tau * _sqrt_symbol(k))))
        worst = max(worst, _max_err(cols[f"abs_psi_tau_{tau!r}"], ref)[0])
    return worst, 1.0


def _check_fig2_series(cols):
    x = cols["x"]
    worst = max(
        _max_err(cols[f"abs_psi_tau_{tau!r}"], _schrodinger_abs(x, tau))[0] for tau in (0.0, 0.5, 1.0)
    )
    return worst, 1.0


def _check_fig3(cols):
    x = cols["x"]
    ref = fft_multiplier(cols["psi"], x[1] - x[0], lambda k: 1.0 / _sqrt_symbol(k)).real
    return _max_err(cols["phi"], ref, np.abs(x) <= 10.0)


def _check_fig4(cols):
    worst = 0.0
    for a, r, f in zip(cols["a"], cols["R"], cols["F"]):
        if a == 0.0:
            r_ref = f_ref = 1.0
        else:
            r_ref, f_ref = r_oracle(a), f_oracle(a)
        worst = max(worst, abs(r - r_ref) / r_ref, abs(f - f_ref) / f_ref)
    return worst, 1.0


def _check_solve(tau):
    def check(cols):
        x = cols["x"]
        ref = fft_multiplier(np.exp(-(x**2)), x[1] - x[0], lambda k: np.exp(-tau * _sqrt_symbol(k))).real
        sel = np.abs(x) <= 6.0
        spectral = cols["spectral_value_re"] + 1j * cols["spectral_value_im"]
        e1, scale = _max_err(cols["value"], ref, sel)
        e2, _ = _max_err(spectral, ref, sel)
        return max(e1, e2), scale

    return check


def _check_matrix(what, params):
    def check(cols):
        got = np.zeros((2, 2), dtype=complex)
        for i, j, re, im in zip(cols["row"], cols["col"], cols["value_re"], cols["value_im"]):
            got[int(i), int(j)] = complex(re, im)
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        if what == "line_power":
            a, b, p = params
            lam, vec = np.linalg.eigh(np.array([[a, b], [b, a]]))
            ref = vec @ np.diag(lam**p) @ vec.T
        else:
            pi_, tau = params
            ref = linalg.expm(-1j * tau * (pi_ * s1 + s3))
        return _max_err(got, ref)

    return check


def _check_observables(sigma, a):
    def check(cols):
        t = cols["t"]
        width = sigma**2 * (1.0 + 0.25 * (a / sigma) ** 2 * r_oracle(a) * t**2)
        comm = -f_oracle(a) * t
        e1 = np.max(np.abs(cols["width_sq"] - width) / width)
        e2 = np.max(np.abs(cols["commutator_im"] - comm) / np.maximum(np.abs(comm), 1e-300))
        return float(max(e1, e2, np.max(np.abs(cols["commutator_re"])))), 1.0

    return check


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# The reduced fig2 --method series grid: 16 nodes, every 7th node of the
# default fig2 grid (-16:16:512) from a seeded start, so each window spans
# about 6.6 and lies within abs(x) <= 3.8. Its nodes are fig2-grid nodes, as
# in hermite_series. Off those nodes series_solution raises a ConvergenceError
# for about 0.3% of eta (f2k's truncated adaptive rule stops on QUADPACK's
# roundoff flag, e.g. at eta = 1.1036333333333332 for k = 13), and the
# failing eta are isolated points that a change of 1e-12 can move; every
# window drawn here converges at this commit.
SERIES_WINDOW_STARTS = (196, 211)
SERIES_WINDOW_STRIDE = 7


def series_window(start: int) -> str:
    x = np.linspace(*SERIES_GRID)
    stop = start + 15 * SERIES_WINDOW_STRIDE
    return f"{float(x[start])!r}:{float(x[stop])!r}:16"


def cli_specs(rng):
    """One pass of CLI invocations: (kind, argv without --out, check, tol).

    tau for fig1 and solve is drawn around the presets' default of 1.0:
    the coarse-grid pseudoheat miss belongs to grid_subordination, and here
    a draw-dependent pass/fail would make ops_per_s depend on the seed.
    """
    tau1 = float(rng.uniform(0.9, 1.1))
    tau_s = float(rng.uniform(0.75, 1.25))
    half2 = float(rng.uniform(12.0, 20.0))
    start2s = int(rng.integers(*SERIES_WINDOW_STARTS))
    half3 = float(rng.uniform(10.0, 14.0))
    a_max = float(rng.uniform(2.0, 5.0))
    steps4 = int(rng.integers(20, 61))
    a_lp = float(rng.uniform(1.0, 2.0))
    lp = (a_lp, float(rng.uniform(0.1, 0.9)) * a_lp, float(rng.uniform(-1.0, 1.0)))
    d2 = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 2.0)))
    sig_o, a_o = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.25, 3.0))
    specs = [
        ("fig1", ["fig1", "--tau", _fmt(tau1), "--grid", "-8:8:128"], _check_fig1(float(_fmt(tau1))), 1.0),
        ("fig2", ["fig2", "--grid", f"-{_fmt(half2)}:{_fmt(half2)}:512"], _check_fig2, 1e-10),
        (
            "fig2_series",
            ["fig2", "--method", "series", "--grid", series_window(start2s)],
            _check_fig2_series,
            1e-6,
        ),
        ("fig3", ["fig3", "--grid", f"-{_fmt(half3)}:{_fmt(half3)}:1024"], _check_fig3, 1e-6),
        ("fig4", ["fig4", "--a-max", _fmt(a_max), "--steps", str(steps4)], _check_fig4, 1e-8),
        (
            "solve",
            ["solve", "--equation", "pseudoheat", "--tau", _fmt(tau_s), "--compare", "spectral", "--grid", "-8:8:128"],
            _check_solve(float(_fmt(tau_s))),
            1e-6,
        ),
    ]
    if rng.random() < 0.5:
        a, b, p = (float(_fmt(v)) for v in lp)
        specs.append((
            "matrix",
            ["matrix", "--what", "line_power", "--a", _fmt(a), "--b", _fmt(b), "--p", _fmt(p)],
            _check_matrix("line_power", (a, b, p)),
            1e-12,
        ))
    else:
        pi_, tau = (float(_fmt(v)) for v in d2)
        specs.append((
            "matrix",
            ["matrix", "--what", "dirac2", "--pi", _fmt(pi_), "--tau", _fmt(tau)],
            _check_matrix("dirac2", (pi_, tau)),
            1e-12,
        ))
    s, a = float(_fmt(sig_o)), float(_fmt(a_o))
    specs.append((
        "observables",
        ["observables", "--sigma", _fmt(s), "--a", _fmt(a), "--t-max", "5", "--steps", "25"],
        _check_observables(s, a),
        1e-8,
    ))
    return specs


USAGE_ERRORS = (
    ["fig1", "--tau", "not-a-number"],
    ["solve", "--equation", "pseudoheat", "--tau", "-1"],
    ["fig2", "--grid", "1:0:8"],
    ["matrix", "--what", "no_such_matrix"],
    ["fig4", "--steps", "1"],
    ["observables", "--t-max", "0"],
)


def usage_spec(rng):
    argv = list(USAGE_ERRORS[int(rng.integers(len(USAGE_ERRORS)))])
    return ("usage_error", argv, None, 0.0)


class CliRunner:
    """Runs ``python -m pseudoflow`` in a scratch directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.seen: dict = {}  # argv -> sha256, for byte determinism
        self.csv_record: dict = {}  # kind -> sha256, rows and argv of its last run
        self.count = 0

    def make_op(self, spec):
        kind, argv, check, tol = spec
        self.count += 1
        out = os.path.join(self.workdir, f"op{self.count}.csv")
        full = [sys.executable, "-m", "pseudoflow", *argv, "--out", out]
        expect = 1 if check is None else 0
        key = tuple(argv)

        def call():
            return subprocess.run(
                full, cwd=self.workdir, capture_output=True, timeout=150
            )

        def verify(proc):
            try:
                if proc.returncode != expect:
                    raise RuntimeError(
                        f"exit {proc.returncode}, expected {expect}: "
                        + proc.stderr.decode(errors="replace").strip()[-300:]
                    )
                if check is None:
                    if os.path.exists(out):
                        raise RuntimeError("a usage error left an output file")
                    return 0.0, 1.0
                with open(out, "rb") as fh:
                    data = fh.read()
            finally:
                if os.path.exists(out):
                    os.unlink(out)
            digest = hashlib.sha256(data).hexdigest()
            if self.seen.setdefault(key, digest) != digest:
                raise RuntimeError(f"{kind}: repeated identical run wrote different bytes")
            cols = read_csv(data)
            self.csv_record[kind] = {"sha256": digest, "rows": data.count(b"\n") - 1, "argv": argv}
            return check(cols)

        return Op(kind, "cli", call, verify, tol)


CLI_REPEATS = 2


def cli_pass(rng, runner):
    """Eight presets, three usage errors, and two earlier specs again."""
    specs = cli_specs(rng)
    specs.insert(0, usage_spec(rng))
    specs.insert(4, usage_spec(rng))
    specs.append(usage_spec(rng))
    # repeat seeded picks among the cheap presets verbatim: their bytes
    # must match the first run's
    cheap = [s for s in specs if s[0] in ("fig2", "fig4", "matrix", "observables")]
    for i in rng.choice(len(cheap), size=CLI_REPEATS, replace=False):
        specs.append(cheap[int(i)])
    return [runner.make_op(s) for s in specs]


# ----------------------------------------------------------------------


def _interleave(groups):
    """Round-robin over groups so each kind is spread through the pass."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def package_file() -> str:
    return os.path.realpath(pseudoflow.__file__)


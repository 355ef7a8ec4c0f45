"""Special functions and the quadrature core.

Two-variable Hermite polynomials H_n(x, y), Bessel J0/K0, and the one
quadrature core the integral solvers are built on: half-line and
real-line integrals by the rule a :class:`QuadratureConfig` names (no
solver calls ``integrate_realline`` any more; its rules stay for callers and probes), the
composite Gauss-Legendre panel builder, and the coarse/fine/refined driver
of the grid-aligned shift-type integrals. The solvers' subordination
integrals use the log-trapezoid rule described last.

Every rule works to the same fixed tolerance: an estimate is accepted once
its error is within max(1e-12, 1e-10 * |estimate|).

Half-line rules
---------------
``gauss_laguerre`` (default)
    Gauss-Laguerre with the weight folded back in; suited to integrands with
    an e^{-cs} envelope. The order starts at 64 and doubles up to 160.
``adaptive_subdivision``
    Globally adaptive subdivision (QUADPACK, at most 300 subintervals), for
    integrands with endpoint singularities or awkward scales.
``inverse_square_substitution``
    Substitutes t = 1/xi^2 and integrates the transformed integrand with
    composite Gauss-Legendre panels, 8 to 512 of them, one integrand call
    per node. This removes the t -> 0 essential singularity of
    subordination kernels t^{-3/2} e^{-1/(4t) - ct} (which become smooth
    Gaussian-decaying functions of xi). No solver uses it any more; it
    stays as an independent reference for such kernels. It is *not* a good
    choice for plain e^{-s} integrands, whose transformed tail decays only
    like xi^{-3}.

Real-line rules
---------------
``gauss_hermite`` (default)
    Gauss-Hermite with the weight e^{-x^2} folded back in; suited to
    integrands with a Gaussian envelope. The order starts at 64 and doubles
    up to 256.
``truncated_adaptive``
    Globally adaptive subdivision (QUADPACK, at most 300 subintervals) over
    the whole real line, for integrands with poles near the real axis or
    slow decay.

Every rule takes scalar or vector integrands: an integrand that returns an
array is integrated component by component (QUADPACK) or on shared nodes
(the Gauss and inverse-square rules), and the error estimate is the worst component's.

All rules use fixed node sets and sum them in a fixed order, so results
are bit-identical from run to run.

The subordination integrals of the solvers
------------------------------------------
``_log_trapezoid`` (private, no configuration) integrates over (0, inf) in
v = log t with the trapezoid rule on nested node sets: a window that
starts at |v| <= 8 and grows while its ends still contribute, and a step
that halves from 0.4 while the whole output still changes by more than the
tolerance. The end test sees one node, so the caller names a t past which
its integrand only falls (its data factor may still rise beyond v = 8,
as the pseudoheat Gaussian does at small tau and large |x|), and the right
end starts there; likewise a t below which it only falls toward t = 0 (R(a)'s
rises up to its peak at s = 4/a^2), and the left end starts there. Its
integrand takes the array of a level's new nodes and returns one row per
node, so a solver evaluates a whole level in a few array operations. The
subordination weight t^{-3/2} e^{-1/(4t)} decays double-exponentially as
v -> -inf and is analytic in |Im v| < pi/2, so the rule converges like
e^{-pi^2/h}; a data factor that is only piecewise smooth (a cubic spline
sampled along t) converges algebraically and takes the deeper levels. Sums run in a fixed order, so results are deterministic too.
The same rule evaluates the Laplace-type integrals over (0, inf): the
observable factors R(a) and F(a), each on a window of its own with all a
of a grid as the columns of one call, and a^{-nu} through its Laplace
identity. Each scales its columns to _LOG_UNIT, since the tolerance is
taken on the largest output and the end test is absolute, and passes the
rule the ``unit`` that undoes its scale, so that a ConvergenceError
reports its estimate and error bound in the caller's units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _EXPORTS
from ._choices import in_float_range, require, require_one_of
from ._scipy import special_ufuncs
from .errors import ConvergenceError

__all__ = list(_EXPORTS["special"])

HALFLINE_RULES = ("gauss_laguerre", "adaptive_subdivision", "inverse_square_substitution")
REALLINE_RULES = ("gauss_hermite", "truncated_adaptive")

# Largest Gauss-Laguerre order whose scaled weights w_i e^{x_i} stay inside
# double range (largest node ~ 4n + 2 must remain well below 709).
_LAGUERRE_CAP = 160
_HERMITE_CAP = 256
# Initial order of both Gauss rules.
_GAUSS_ORDER = 64
# Order doublings of the Gauss rules, panel doublings of the inverse-square
# rule and step halvings of the log-trapezoid rule.
_REFINEMENTS = 6
# Every rule accepts an estimate whose error is within
# max(_ABS_TOL, _REL_TOL * |estimate|).
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_QUADPACK_LIMIT = 300
# The log-trapezoid rule: initial window |v| <= 8 in v = log t, grown by 4 at
# a time up to |v| <= 128 (t stays far inside double range there), and an
# initial step of 0.4.
_LOG_START = 8.0
_LOG_GROW = 4.0
_LOG_CAP = 128.0
_LOG_STEP = 0.4
# Callers that integrate an O(1) quantity scale it to this size first: the
# end test's absolute cut (_ABS_TOL / 16 per node) then drops a tail below
# 1e-17 of the result, even for an integrand that falls only like t as t -> 0.
_LOG_UNIT = 1e4
# hermite2: hard cap; far above this the values themselves overflow doubles.
_HERMITE_N_CAP = 1000


@dataclass(frozen=True)
class QuadratureConfig:
    """The half-line and the real-line rule, by name (see the module
    docstring for the rules and their fixed tolerance)."""

    halfline_rule: str = "gauss_laguerre"
    realline_rule: str = "gauss_hermite"

    def __post_init__(self):
        require_one_of(HALFLINE_RULES, halfline_rule=self.halfline_rule)
        require_one_of(REALLINE_RULES, realline_rule=self.realline_rule)


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with the achieved error estimate.

    ``value`` is a complex for a scalar integrand and an array of the
    integrand's shape for an array-valued one.
    """

    value: complex | np.ndarray
    error: float

    def __complex__(self) -> complex:
        return complex(self.value)


DEFAULT_CONFIG = QuadratureConfig()


# ----------------------------------------------------------------------
# special functions


def hermite2(n: int, x: float, y: float) -> float:
    """Two-variable Hermite polynomial H_n(x, y).

    Defined by H_n(x, y) = n! sum_k x^{n-2k} y^k / ((n-2k)! k!); satisfies
    the recurrence H_{n+1} = x H_n + 2 y n H_{n-1}, by which it is evaluated,
    and the operational identity d^n/dx^n e^{a x^2} = H_n(2ax, a) e^{a x^2}.
    Orders above 1000 are refused, and so is a value past float range.
    """
    n = require("a nonnegative integer", n=n)
    if n > _HERMITE_N_CAP:
        raise ValueError(f"hermite2 order {n} exceeds the supported cap {_HERMITE_N_CAP}")
    x, y = require("real and finite", x=x, y=y)
    h_prev, h_cur = 0.0, 1.0
    # a term past float range is refused below: once there, the recurrence stays inf or NaN
    for m in range(n):
        h_prev, h_cur = h_cur, x * h_cur + 2.0 * y * m * h_prev
    return float(in_float_range(h_cur, "H_n(x, y)", n=n, x=x, y=y))


def bessel(kind: str, x: float) -> float:
    """Bessel function J0(x) (any real x) or K0(x) (x > 0)."""
    require_one_of(("J0", "K0"), kind=kind)
    x = require("positive and finite" if kind == "K0" else "real and finite", x=x)
    ufuncs = special_ufuncs()
    return float(ufuncs.j0(x) if kind == "J0" else ufuncs.k0(x))


# ----------------------------------------------------------------------
# node caches


@lru_cache(maxsize=64)
def _laguerre_nodes(order: int):
    from numpy.polynomial.laguerre import laggauss

    x, w = laggauss(order)
    scaled = np.exp(np.log(w) + x)  # w_i e^{x_i} without overflow
    x.setflags(write=False)
    scaled.setflags(write=False)
    return x, scaled


@lru_cache(maxsize=64)
def _hermite_nodes(order: int):
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(order)
    scaled = np.exp(np.log(w) + x * x)
    x.setflags(write=False)
    scaled.setflags(write=False)
    return x, scaled


@lru_cache(maxsize=16)
def _legendre_nodes(order: int):
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    # map to [0, 1]
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    x01.setflags(write=False)
    w01.setflags(write=False)
    return x01, w01


def _cell_offsets(order: int, split: int):
    """Fractional offsets in [0, 1) and weights of ``split`` Gauss-Legendre
    panels of ``order`` nodes per grid cell: the nodes at s = (j + offset) h
    of every cell j share them."""
    x01, w01 = _legendre_nodes(order)
    offs = np.concatenate([(r + x01) / split for r in range(split)])
    return offs, np.tile(w01 / split, split)


def _gl_panels(edges, order: int):
    """Composite Gauss-Legendre nodes and weights on the panels
    [edges[i], edges[i+1]], panel by panel in edge order."""
    x01, w01 = _legendre_nodes(order)
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * x01[None, :]).ravel()
    weights = (widths[:, None] * w01[None, :]).ravel()
    return nodes, weights


# ----------------------------------------------------------------------
# the quadrature core (scalar integrands go through shape-() arrays)


def _tol(scale: float) -> float:
    return max(_ABS_TOL, _REL_TOL * scale)


def _rule_sum(f: Callable, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of weights * f(node), one integrand call per node. The nodes run
    along the last axis, which numpy sums pairwise (along axis 0 it adds
    them one by one). A non-finite sum fails the refinement loop, so
    numpy's overflow and inf - inf warnings are silenced."""
    vals = np.stack([np.asarray(f(float(t))) for t in nodes], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (vals * weights).sum(axis=-1)


def _refine(total_at: Callable, levels: list, failure: str):
    """Step through ``levels`` until two successive estimates agree.

    The estimate is accepted once it is finite and the change from the
    previous level is within the tolerance.
    ``failure`` is formatted with the last level for the ConvergenceError.
    """
    est = total_at(levels[0])
    err = math.inf
    for level in levels[1:]:
        new = total_at(level)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: never accepted
            err = float(np.max(np.abs(new - est)))
        est = new
        if np.all(np.isfinite(est)) and err <= _tol(float(np.max(np.abs(est)))):
            return est, err
    raise ConvergenceError(
        failure.format(levels[-1]),
        estimate=est if np.ndim(est) == 0 else None,
        error_bound=err,
    )


def _gauss_refine(f: Callable, nodes_of, cap: int):
    """Gauss rule whose order doubles from 64 up to ``cap``."""
    levels = sorted({min(_GAUSS_ORDER << k, cap) for k in range(_REFINEMENTS + 1)})
    return _refine(
        lambda m: _rule_sum(f, *nodes_of(m)), levels,
        "Gauss rule did not converge by order {}",
    )


def _inverse_square_core(f: Callable):
    """Integrate f over (0, inf) after the substitution t = 1/xi^2.

    The transformed integrand g(xi) = 2 f(1/xi^2) / xi^3 is integrated with
    composite Gauss-Legendre panels on [0, XI]; the upper limit is extended
    geometrically while the outermost panel still contributes, and the panel
    count is doubled until two successive estimates agree.
    """

    def g(xi: float):
        t = 1.0 / (xi * xi)
        # a complex infinity times the real factor is inf * 0 in its
        # imaginary part; the non-finite sum fails the refinement loop
        with np.errstate(invalid="ignore"):
            return np.asarray(f(t)) * (2.0 / xi**3)

    order = 16
    upper = 16.0
    # Extend the truncation point while the tail still matters.
    probe = _rule_sum(g, *_gl_panels([upper, 1.5 * upper], order))
    while float(np.max(np.abs(probe))) > _ABS_TOL / 16.0:
        upper *= 1.5
        if upper > 65536.0:
            raise ConvergenceError(
                "inverse-square rule: transformed integrand has a slowly decaying "
                "tail (integrand lacks t->0 decay); use another rule",
                error_bound=float(np.max(np.abs(probe))),
            )
        probe = _rule_sum(g, *_gl_panels([upper, 1.5 * upper], order))

    return _refine(
        lambda panels: _rule_sum(g, *_gl_panels(np.linspace(0.0, upper, panels + 1), order)),
        [8 << k for k in range(_REFINEMENTS + 1)],
        "inverse-square rule did not converge with {} panels",
    )


def _log_trapezoid(f: Callable, t_tail: float = 0.0, t_head: float = math.inf, unit=1.0):
    """Integrate f over (0, inf) as int f(e^v) e^v dv by the nested
    trapezoid rule of the module docstring; returns (value, error).

    ``f`` maps an array of t of shape (m,) to shape (m,) or (m, n). Each
    end of the window moves out by _LOG_GROW while its outermost node
    contributes more than _ABS_TOL / 16. That test sees only the end node,
    so the integrand must fall from there on. ``t_tail`` and ``t_head`` are
    the caller's bounds on where the weight lies: t |f(t)| only falls
    beyond t_tail and below t_head, and the right end starts at or beyond
    log(t_tail), the left end at or below log(t_head). The step halves
    from _LOG_STEP, each level evaluating only the new midpoints, until the
    whole output changes by at most the tolerance.

    ``unit`` (scalar or per column) is what the caller multiplies the
    rule's value by: a ConvergenceError reports its estimate and bound times
    the largest unit, and an infinite bound where a unit is 0 or not finite.
    """

    def g(v: np.ndarray) -> np.ndarray:
        t = np.exp(v)
        vals = np.asarray(f(t))
        return t.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals

    def outer_end(v: float, grow: float) -> float:
        edge = math.inf
        while abs(v) <= _LOG_CAP:
            edge = _LOG_STEP * float(np.max(np.abs(g(np.array([v])))))
            if edge <= _ABS_TOL / 16.0:  # False for NaN, which also grows
                return v
            v += grow
        raise ConvergenceError(
            f"log-trapezoid rule: integrand does not decay within |log t| <= {_LOG_CAP:g}",
            error_bound=edge,
        )

    def lattice_end(reach: float) -> float:
        # the first end at or beyond |v| = reach; past the cap (reach = inf
        # for t_tail = inf or t_head = 0) outer_end raises at once
        reach = min(reach, 2.0 * _LOG_CAP)
        return _LOG_START + _LOG_GROW * math.ceil((reach - _LOG_START) / _LOG_GROW)

    hi, lo = _LOG_START, -_LOG_START
    if t_tail > math.exp(_LOG_START):
        hi = lattice_end(math.log(t_tail))
    if t_head < math.exp(-_LOG_START):
        lo = -lattice_end(-math.log(t_head) if t_head > 0 else math.inf)
    prev = None

    def total_at(h: float) -> np.ndarray:
        nonlocal prev
        if prev is None:  # the first level: every node of the window
            prev = h * g(lo + h * np.arange(round((hi - lo) / h) + 1)).sum(axis=0)
        else:  # the previous level plus its midpoints
            prev = 0.5 * prev + h * g(lo + h * np.arange(1, round((hi - lo) / h), 2)).sum(axis=0)
        return prev

    # Overflow gives a non-finite estimate, which is never accepted, so
    # numpy's overflow and inf - inf warnings are silenced.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lo = outer_end(lo, -_LOG_GROW)
            hi = outer_end(hi, _LOG_GROW)
            return _refine(
                total_at, [_LOG_STEP / 2**k for k in range(_REFINEMENTS + 1)],
                "log-trapezoid rule did not converge at step {:g}",
            )
    except ConvergenceError as exc:
        # in the caller's units; where its scale overflowed no bound is known
        big = float(np.max(unit)) if np.min(unit) > 0 else math.inf
        estimate = None if exc.estimate is None or big == math.inf else exc.estimate * big
        bound = exc.error_bound * big if big < math.inf else big
        raise ConvergenceError(exc.reason, estimate=estimate, error_bound=bound) from None


def _quadpack(f: Callable, a: float, b: float, probe_at: float):
    """scipy.integrate.quad on each component, real and imaginary parts apart."""
    from scipy.integrate import quad

    shape = np.shape(f(probe_at))
    vals = np.empty(shape, dtype=complex)
    errs = np.empty(shape)
    for idx in np.ndindex(shape):
        parts = []
        for part in (np.real, np.imag):
            val, err, _info, *rest = quad(
                lambda t: float(part(np.asarray(f(t))[idx])), a, b,
                limit=_QUADPACK_LIMIT, epsabs=_ABS_TOL, epsrel=_REL_TOL, full_output=True,
            )
            # A QUADPACK warning (e.g. roundoff detected) is only fatal when the
            # achieved error bound also misses the tolerance; a
            # non-finite value or bound always is (err > tol is False for NaN).
            finite = math.isfinite(val) and math.isfinite(err)
            if not finite or (rest and err > _tol(abs(val))):
                reason = rest[0] if finite else "non-finite value or error bound"
                raise ConvergenceError(
                    f"adaptive quadrature failed: {reason}", estimate=val, error_bound=err
                )
            parts.append((val, err))
        (vr, er), (vi, ei) = parts
        vals[idx] = complex(vr, vi)
        errs[idx] = er + ei
    return vals, float(np.max(errs, initial=0.0))


def _integrate(f: Callable, rule: str):
    """Integrate ``f`` with the named rule; returns (value, error)."""
    if rule == "gauss_laguerre":
        return _gauss_refine(f, _laguerre_nodes, _LAGUERRE_CAP)
    if rule == "gauss_hermite":
        return _gauss_refine(f, _hermite_nodes, _HERMITE_CAP)
    if rule == "inverse_square_substitution":
        return _inverse_square_core(f)
    if rule == "adaptive_subdivision":
        return _quadpack(f, 0.0, np.inf, 1.0)
    return _quadpack(f, -np.inf, np.inf, 0.5)  # truncated_adaptive


def _result(value, error) -> IntegralResult:
    return IntegralResult(complex(value) if np.ndim(value) == 0 else value, float(error))


# ----------------------------------------------------------------------
# grid-aligned shift panels


def _leading_scale(h: float, root: float) -> float:
    """4 u^2, u = max(8.5, root / (2 sqrt h) + 1): the leading cell starts
    at s = square / (4 u^2). Where it is inf, e^{-root^2/(4s)} underflows at
    every s up to 10^300 h, and the shift-type solvers return zero there
    without calling _shift_panels."""
    u_hi = max(8.5, root / (2.0 * math.sqrt(h)) + 1.0)
    return 4.0 * u_hi * u_hi


@np.errstate(over="ignore", invalid="ignore")  # its callers refuse values past float range
def _shift_panels(
    h: float, root: float, square: float, head: Callable, tail: Callable, what: str
):
    """Coarse/fine/refined driver of the grid-aligned shift-type integrals.

    The shift variable s runs over grid cells of width ``h``, and every
    shift flow integrates the subordinator kernel
    k(s) = (root / (2 sqrt(pi))) s^{-3/2} e^{-square/(4s)} against its data
    factor; ``root`` and ``square`` are the kernel's scale and its square,
    each as the caller computes it. ``head(s, w)`` sums Gauss-Legendre
    nodes s of geometric panels on the leading cell s in (0, h], where the
    essential factor lives, with w their weights times k(s).
    ``tail(sets, kernel)`` sums the cells s >= h for each node set in the
    list ``sets``, with ``kernel`` the function k, and returns one sum per
    set; a set is one Gauss-Legendre panel set per cell, named by its order
    and panels per cell, ``(order, split)``, whose fractional offsets within
    a cell and weights :func:`_cell_offsets` gives, so a caller can key its
    grid-level plans on the set. The coarse and fine levels come in one
    ``tail`` call, so a caller forms its grid-level factors once for both;
    the refined level, which only a miss needs, makes its own.
    Returns (values, error). ``root`` keeps :func:`_leading_scale` finite.
    """
    pref = root / (2.0 * math.sqrt(math.pi))

    def kernel(s: np.ndarray) -> np.ndarray:
        return pref * s**-1.5 * np.exp(-square / (4.0 * s))

    def leading_cell(order: int):
        # s in (0, h]: the data factor is a single cubic on one grid cell,
        # so only the kernel sets the resolution. Geometric panels (ratio
        # <= 2) down to where e^{-square/(4s)} has died track both the
        # s^{-3/2} singularity and the essential flank on the log scale.
        s_lo = min(square / _leading_scale(h, root), 0.5 * h)
        if s_lo == 0.0 or math.isinf(h / s_lo):  # no panel count spans h / s_lo
            raise ConvergenceError(
                f"{what} panels: the kernel's scale underflows against the grid step",
                error_bound=math.inf,
            )
        panels = max(1, int(math.ceil(math.log2(h / s_lo))))
        edges = s_lo * (h / s_lo) ** (np.arange(panels + 1) / panels)
        edges[-1] = h
        s, w = _gl_panels(edges, order)
        return s, w * kernel(s)

    coarse_tail, fine_tail = tail([(8, 1), (12, 1)], kernel)
    coarse = head(*leading_cell(16)) + coarse_tail
    values = head(*leading_cell(24)) + fine_tail
    err = float(np.max(np.abs(values - coarse)))
    tol = _tol(float(np.max(np.abs(values))))
    if err > tol:
        refined = head(*leading_cell(32)) + tail([(12, 2)], kernel)[0]
        err = float(np.max(np.abs(refined - values)))
        values = refined
        if err > tol:
            raise ConvergenceError(
                f"{what} panel quadrature did not converge on the grid",
                error_bound=err,
            )
    return values, err


# ----------------------------------------------------------------------
# public API


def integrate_halfline(f: Callable[[float], complex], cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate ``f`` over (0, inf) with the configured half-line rule.

    Gauss-Laguerre weights are evaluated with the e^{-x} factor folded back
    in, so ``f`` is the plain integrand. ``f`` may return a scalar (the
    value is then a complex) or an array (the value is an array of that
    shape, and the error the worst component's). Raises
    :class:`~pseudoflow.errors.ConvergenceError` if the refinement loop runs
    out before the tolerance max(1e-12, 1e-10 * |I|) is met.
    """
    return _result(*_integrate(f, (cfg or DEFAULT_CONFIG).halfline_rule))


def integrate_realline(f: Callable[[float], complex], cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate ``f`` over (-inf, inf); see :func:`integrate_halfline`."""
    return _result(*_integrate(f, (cfg or DEFAULT_CONFIG).realline_rule))

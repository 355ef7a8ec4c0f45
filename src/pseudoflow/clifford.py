"""Pauli/Dirac matrix parametrizations of operator square roots.

The algebraic identity (sigma . v)^2 = (v . v) 1 and its 4x4 analogues turn
square roots of scalars-plus-operators into first-order matrix forms; this
module provides the generators, the closed-form exponentials they admit,
the 2D/4D evolution operators, the Heisenberg position operator with its
Zitterbewegung term, and eigenprojection powers of line matrices
R = a 1 + b sigma_1.

All matrices are small dense complex numpy arrays (``Mat2``/``Mat4`` are
aliases); generator entries are exact integers (or +-i), so the
anticommutation tables hold exactly in floating point.

Note: beta is diag(1, 1, -1, -1), the unique diagonal choice satisfying
beta^2 = 1 and {alpha_j, beta} = 0 with the standard alpha block form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from ._choices import (
    GENERATOR_KINDS,
    KAPPA_VARIANTS,
    POSITION_PARAMETRIZATIONS,
    _float,
    in_float_range,
    past_float_range,
    require,
    require_one_of,
)

__all__ = list(_EXPORTS["clifford"])

Mat2 = np.ndarray  # 2x2 complex
Mat4 = np.ndarray  # 4x4 complex

# bloch_evolve's step cap: 10^5 Runge-Kutta steps take 11-14 s at
# 114-141 us a step on a 2-CPU x86-64 host
_MAX_STEPS = 100_000

_ID2 = np.eye(2, dtype=complex)
_ID4 = np.eye(4, dtype=complex)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_ZERO2 = np.zeros((2, 2), dtype=complex)
_ALPHA = tuple(
    np.block([[_ZERO2, s], [s, _ZERO2]]) for s in _SIGMA
)
_BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
_GAMMA = tuple(_BETA @ a for a in _ALPHA)
_KAPPA = (-_ALPHA[2], _ALPHA[0], _BETA)
_DELTA = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)

# the matrices named by _choices.GENERATOR_KINDS, in its order
_GENERATORS = dict(zip(
    GENERATOR_KINDS,
    (*_SIGMA, *_ALPHA, _BETA, *_GAMMA, *_KAPPA, _DELTA, _ID2, _ID4),
    strict=True,
))


@dataclass(frozen=True)
class PauliVector:
    """Coefficients (c0, v) of c0 * 1 + v . sigma (or v . kappa in 4x4)."""

    c0: complex
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(map(complex, _vec3("v", self.v))))
        object.__setattr__(self, "c0", complex(require("finite", c0=self.c0)))

    def as_mat2(self) -> Mat2:
        with np.errstate(over="ignore", invalid="ignore"):
            mat = self.c0 * _ID2 + pauli_sqrt_identity(self.v)
        return in_float_range(mat, "c0 + sigma . v", c0=self.c0, v=self.v)


def generators(kind: str) -> np.ndarray:
    """Return a fresh copy of the named generator matrix.

    Kinds: sigma1..3 (2x2 Pauli), alpha1..3 / beta / gamma1..3 (4x4 Dirac,
    gamma_k = beta alpha_k), kappa1..3 / delta (the non-Hermitian variant:
    kappa1 = -alpha3, kappa2 = alpha1, kappa3 = beta, delta^2 = -1),
    identity2 / identity4.
    """
    require_one_of(GENERATOR_KINDS, kind=kind)
    return _GENERATORS[kind].copy()


def _vec3(name: str, v: Sequence[complex], domain: str = "finite") -> np.ndarray:
    """require(domain, <name>=v), a (3,) array, or ValueError("<name> must be 3 finite values")."""
    try:
        arr = require(domain, **{name: v})
    except ValueError:
        arr = None
    if np.shape(arr) != (3,):
        raise ValueError(f"{name} must be 3 finite values")
    return arr


def pauli_sqrt_identity(v: Sequence[complex]) -> Mat2:
    """N = sigma . v, which squares to (v1^2 + v2^2 + v3^2) * 1.

    The scalar is the *algebraic* sum of squares (no conjugation), so it is
    complex in general; this is what makes N a matrix square root of
    v . v.
    """
    arr = _vec3("v", v)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = arr[0] * _SIGMA[0] + arr[1] * _SIGMA[1] + arr[2] * _SIGMA[2]
    return in_float_range(mat, "sigma . v", v=lambda: tuple(map(_float, v)))


def exp_pauli(y: complex, v: Sequence[complex]) -> Mat2:
    """Closed-form exponential e^{y (sigma . v)}.

    With N^2 = (v . v) 1 the series collapses to
    cosh(y N) 1 + sinh(y N)/N * (sigma . v), where N = sqrt(v . v) on any
    branch (both coefficient functions are even). N = 0 degenerates to
    1 + y (sigma . v).

    The two-component first-order form of the sqrt(1 - d^2) flow is the
    preset ``exp_pauli(-tau, (1j * k, 0, 1))``: the Fourier-symbol
    exponential e^{-tau (sigma3 + i k sigma1)}.
    """
    y = require("finite", y=y)
    arr = _vec3("v", v)
    mat = pauli_sqrt_identity(v)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.sqrt(complex(arr @ arr))
        if n == 0:
            out = _ID2 + y * mat
        else:
            out = np.cosh(y * n) * _ID2 + (np.sinh(y * n) / n) * mat
    return in_float_range(out, "e^{y sigma . v}", y=y, v=lambda: tuple(map(_float, v)))


def dirac2_evolution(pi: float, tau: float) -> Mat2:
    """Two-component evolution U(tau) = e^{-i tau (sigma1 pi + sigma3)}.

    Closed form cos(E tau) 1 - i sin(E tau)/E (sigma1 pi + sigma3) with
    E = sqrt(1 + pi^2); unitary for real arguments.
    """
    pi = require("finite with a finite square", pi=pi)
    tau = require("real and finite", tau=tau)
    e = math.sqrt(1.0 + pi * pi)
    phase = in_float_range(e * tau, "the phase E tau", pi=pi, tau=tau)
    h = pi * _SIGMA[0] + _SIGMA[2]
    return math.cos(phase) * _ID2 - 1j * (math.sin(phase) / e) * h


def bloch_evolve(
    sigma0: Sequence[float], pi: float, tau: float, dt: float
) -> np.ndarray:
    """Integrate the precession dsigma/dt = Omega x sigma, Omega = 2(pi, 0, 1).

    Fixed-step classical Runge-Kutta from 0 to tau (step count
    ceil(tau/dt), at most 100000); the motion is an exact rotation about
    Omega, so |sigma| is conserved up to the integrator's O(dt^4) error.
    Where dt |Omega| is so large that the steps leave float range, or
    tau/dt exceeds the step cap, ValueError names the inputs.
    """
    s = _vec3("sigma0", sigma0, "real and finite")
    pi = require("finite with a finite square", pi=pi)
    tau = require("nonnegative and finite", tau=tau)
    dt = require("positive and finite", dt=dt)
    if not s.any():  # not by its norm, whose square leaves float range past 1e154
        raise ValueError("sigma0 must be nonzero")
    if tau == 0:
        return s.copy()
    if dt > tau:
        raise ValueError("dt must not exceed tau")
    if not tau / dt <= _MAX_STEPS:  # inf where the quotient leaves float range
        raise ValueError(
            f"bloch_evolve takes at most {_MAX_STEPS} steps, ceil(tau / dt), "
            f"at tau = {tau!r}, dt = {dt!r}"
        )
    omega = np.array([2.0 * pi, 0.0, 2.0])
    steps = math.ceil(tau / dt)
    h = tau / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = np.cross(omega, s)
            k2 = np.cross(omega, s + 0.5 * h * k1)
            k3 = np.cross(omega, s + 0.5 * h * k2)
            k4 = np.cross(omega, s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    named = {"sigma0": lambda: tuple(map(_float, sigma0)), "pi": pi, "tau": tau, "dt": dt}
    return in_float_range(s, "the Runge-Kutta solution", **named)


def dirac4_evolution(pi: Sequence[float], tau: float) -> Mat4:
    """Four-component evolution U(tau) = e^{-i tau (alpha . pi + beta)}.

    Since H = alpha . pi + beta satisfies H^2 = (1 + pi^2) 1, the
    exponential is cos(E tau) 1 - i sin(E tau)/E H with E = sqrt(1 + pi^2).
    """
    p = _vec3("pi", pi, "real and finite")
    tau = require("real and finite", tau=tau)
    with np.errstate(over="ignore"):
        square = in_float_range(float(p @ p), "pi . pi", pi=lambda: tuple(map(_float, pi)))
    h = p[0] * _ALPHA[0] + p[1] * _ALPHA[1] + p[2] * _ALPHA[2] + _BETA
    e = math.sqrt(1.0 + square)
    phase = in_float_range(e * tau, "the phase E tau", pi=lambda: tuple(map(_float, pi)), tau=tau)
    return math.cos(phase) * _ID4 - 1j * (math.sin(phase) / e) * h


def position_evolution(pi: float, tau: float, parametrization: str = "dirac") -> Mat4:
    """Heisenberg position displacement eta(tau) - eta(0) at momentum pi
    (1D motion along x).

    ``dirac``: tau pi H^{-1} + (i/2) H^{-1} (alpha1 - pi H^{-1})
    (1 - e^{-2 i tau H}), with H = alpha1 pi + beta and H^{-1} = H/(1+pi^2).
    The first term is the classical drift; the second is the Zitterbewegung
    oscillation between the energy branches. Because (alpha1 - pi H^{-1})
    anticommutes with H, the sign of the exponent depends on which side the
    oscillating factor is written; the convention here is the one whose
    tau-derivative equals the Heisenberg velocity U(tau)^dag alpha1 U(tau).

    ``beta_diagonal``: the interference-free parametrization, a pure
    two-branch drift tau beta pi / sqrt(1 + pi^2).
    """
    require_one_of(POSITION_PARAMETRIZATIONS, parametrization=parametrization)
    pi = require("finite with a finite square", pi=pi)
    tau = require("real and finite", tau=tau)
    e2 = 1.0 + pi * pi
    e = math.sqrt(e2)
    if parametrization == "beta_diagonal":
        return in_float_range(tau * pi / e, "the drift tau pi / E", pi=pi, tau=tau) * _BETA
    h = pi * _ALPHA[0] + _BETA
    h_inv = h / e2
    # a finite 2 E tau bounds the drift tau pi H^{-1} too
    phase = in_float_range(2.0 * tau * e, "the phase 2 E tau", pi=pi, tau=tau)
    evol = math.cos(phase) * _ID4 - 1j * (math.sin(phase) / e) * h
    return tau * pi * h_inv + 0.5j * h_inv @ (_ALPHA[0] - pi * h_inv) @ (_ID4 - evol)


def sqrt_symbol_check(k: float) -> Mat4:
    """Fourier symbol M(k) of the operator square root i alpha . grad/sqrt(3) + beta
    specialised to a plane wave: M(k) = -(k/sqrt(3))(alpha1+alpha2+alpha3) + beta.

    Squares to (1 + k^2) 1 because (alpha1+alpha2+alpha3)^2 = 3 and the
    cross terms with beta cancel.
    """
    k = require("real and finite", k=k)
    return (-k / math.sqrt(3.0)) * (_ALPHA[0] + _ALPHA[1] + _ALPHA[2]) + _BETA


def kappa_parametrization(
    w: Sequence[float], r: float, variant: str = "i_delta"
) -> Mat4:
    """Non-Hermitian square-root parametrization over the kappa/delta set.

    ``i_delta``:    N = kappa . w + i delta r,  N^2 = (w^2 + r^2) 1.
    ``plain_delta``: N = kappa . w + delta r,   N^2 = (w^2 - r^2) 1 —
    which reaches sqrt(-1) (w = 0) and even the nilpotent square root of
    the zero matrix (w^2 = r^2).
    """
    require_one_of(KAPPA_VARIANTS, variant=variant)
    arr = _vec3("w", w, "real and finite")
    r = require("real and finite", r=r)
    n = arr[0] * _KAPPA[0] + arr[1] * _KAPPA[1] + arr[2] * _KAPPA[2]
    with np.errstate(over="ignore"):
        mat = n + 1j * r * _DELTA if variant == "i_delta" else n + r * _DELTA
    return in_float_range(mat, "kappa . w + delta r", w=lambda: tuple(map(_float, w)), r=r)


def pauli_line_power(a: float, b: float, p: float) -> Mat2:
    """Power R^p of the positive-definite line matrix R = a 1 + b sigma1.

    Eigenprojection form:
    R^p = [(a-b)^p (1 - sigma1) + (a+b)^p (1 + sigma1)] / 2.
    Requires a > |b| so both eigenvalues a -+ b are positive and every real
    power is unambiguous.
    """
    a = require("real and finite", a=a)
    b = require("real and finite", b=b)
    p = require("real and finite", p=p)
    if not a > abs(b):
        raise ValueError("pauli_line_power requires a > |b| (positive definite)")
    named = {"a": a, "b": b, "p": p}
    in_float_range(a + abs(b), "a + |b|", **named)
    try:
        lo = (a - b) ** p
        hi = (a + b) ** p
    except OverflowError:  # float ** float raises where * gives inf
        raise past_float_range("R^p", **named) from None
    with np.errstate(over="ignore", invalid="ignore"):
        mat = 0.5 * (lo * (_ID2 - _SIGMA[0]) + hi * (_ID2 + _SIGMA[0]))
    return in_float_range(mat, "R^p", **named)

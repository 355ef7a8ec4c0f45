"""Release gate: eleven numbered end-to-end checks with stated tolerances.

Each check prints one ``acceptance NN [pass|FAIL]`` line with its runtime
(run pytest with ``-s`` to see the lines as they happen) and enforces a
wall-clock budget on top of its numerical tolerances.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

from pseudoflow import (
    Field,
    ObservableInputs,
    QuadratureConfig,
    SymbolSpec,
    apply_inv_sqrt_shift,
    bloch_evolve,
    commutator_xt_x0,
    dirac2_evolution,
    dirac4_evolution,
    exp_sqrt_via_doetsch,
    f_function,
    gauss_weierstrass,
    generators,
    glaisher,
    integrate_halfline,
    packet_width,
    pauli_line_power,
    position_evolution,
    pseudoheat_gaussian,
    r_function,
    series_solution,
    solve_pseudoheat,
    solve_symbol_spectral,
    spectral_schrodinger,
    sqrt_symbol_check,
)
from conftest import child_env


class criterion:
    """Context manager: time a block, print its pass/fail line, enforce budget."""

    def __init__(self, num, label, budget=None):
        self.num, self.label, self.budget = num, label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        over = self.budget is not None and dt >= self.budget
        ok = exc_type is None and not over
        budget_txt = "" if self.budget is None else f" (budget {self.budget:g}s)"
        print(
            f"acceptance {self.num:2d} [{'pass' if ok else 'FAIL'}] "
            f"{self.label}: {dt:.2f}s{budget_txt}",
            flush=True,
        )
        if exc_type is None and over:
            raise AssertionError(
                f"acceptance {self.num} exceeded {self.budget:g}s: took {dt:.2f}s"
            )
        return False


def taylor_expm(m):
    """Scaled-and-squared 60-term Taylor exponential (independent oracle)."""
    nrm = float(np.abs(m).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    a = m / (2.0**s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, 60):
        term = term @ a / n
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def maxabs(m):
    return float(np.max(np.abs(m)))


def test_01_subordination_identity():
    with criterion(1, "exp(-x sqrt(y)) via half-line quadrature, both forms", 1.0):
        for x in (0.5, 1.0, 2.0):
            for y in (0.5, 1.0, 2.0):
                ref = math.exp(-x * math.sqrt(y))
                for form in ("t_form", "xi_form"):
                    got = exp_sqrt_via_doetsch(x, y, form=form)
                    assert abs(got - ref) <= 1e-8 * ref


def test_02_gaussian_smoothing_closed_form():
    with criterion(2, "heat smoothing of a Gaussian vs closed form", 5.0):
        f = Field.from_function(-18.0, 18.0, 1201, lambda x: np.exp(-(x**2)))
        sel = np.abs(f.x) <= 3.0
        for alpha in (0.25, 1.0, 2.0):
            out = gauss_weierstrass(f, alpha)
            assert maxabs(out.values[sel] - glaisher(alpha, f.x[sel])) <= 1e-9


def test_03_pseudoheat_three_methods_agree():
    with criterion(3, "pseudoheat: integral / closed form / spectral pairwise", 30.0):
        f = Field.from_function(-16.0, 16.0, 256, lambda x: np.exp(-(x**2)))
        sel = np.abs(f.x) <= 6.0
        for tau in (0.5, 1.0):
            integral = np.asarray(solve_pseudoheat(f, tau).values)[sel]
            closed = np.array(
                [pseudoheat_gaussian(tau, float(xx)) for xx in f.x[sel]]
            )
            spectral = np.asarray(
                solve_symbol_spectral(f, tau, SymbolSpec.pseudoheat()).values
            )[sel]
            for u, v in ((integral, closed), (integral, spectral), (closed, spectral)):
                assert maxabs(u - v) <= 1e-6


def _fwhm(x, v):
    half = v.max() / 2.0
    idx = np.nonzero(v >= half)[0]
    lo, hi = idx[0], idx[-1]
    xl = x[lo - 1] + (half - v[lo - 1]) * (x[lo] - x[lo - 1]) / (v[lo] - v[lo - 1])
    xr = x[hi] + (half - v[hi]) * (x[hi + 1] - x[hi]) / (v[hi + 1] - v[hi])
    return xr - xl


def test_04_pseudoheat_peak_and_width_vs_heat():
    with criterion(4, "pseudoheat peak and FWHM both below the heat flow's", 10.0):
        f = Field.from_function(-10.0, 10.0, 257, lambda x: np.exp(-(x**2)))
        pseudo = np.asarray(solve_pseudoheat(f, 1.0).values, dtype=float)
        heat = np.asarray(gauss_weierstrass(f, 1.0).values, dtype=float)
        assert pseudo.max() < 5.0**-0.5
        assert _fwhm(f.x, pseudo) < _fwhm(f.x, heat)


def test_05_series_solution_vs_spectral():
    with criterion(5, "pointwise tau-power series vs spectral solver", 60.0):
        f = Field.from_function(-16.0, 16.0, 512, lambda x: np.exp(-(x**2)))
        spec_half = spectral_schrodinger(f, 0.5)
        idx = np.nonzero(np.abs(f.x) <= 4.0)[0]
        vals = np.array([series_solution(float(f.x[j]), 0.5) for j in idx])
        assert maxabs(vals - spec_half.values[idx]) <= 1e-8
        spec_one = spectral_schrodinger(f, 1.0)
        assert np.abs(spec_half.values).max() > np.abs(spec_one.values).max()


def test_06_observable_factors_vs_momentum_oracles():
    with criterion(6, "R/F/width/commutator vs momentum-space quadrature", 10.0):
        assert abs(r_function(0.0) - 1.0) <= 1e-15
        assert abs(f_function(0.0) - 1.0) <= 1e-15
        assert abs(r_function(0.1) - (1.0 - 0.75 * 0.01)) <= 1e-3
        grid = np.arange(0.25, 5.25, 0.25)
        for seq in ([r_function(a) for a in grid], [f_function(a) for a in grid]):
            assert all(b < a for a, b in zip(seq, seq[1:]))

        def gauss_avg(fn, a):
            sd = a / 2.0
            val, _ = integrate.quad(
                lambda u: fn(u)
                * np.exp(-u * u / (2.0 * sd * sd))
                / (sd * math.sqrt(2.0 * math.pi)),
                -np.inf,
                np.inf,
                limit=200,
            )
            return val

        # the QUADPACK references are themselves off by up to 6e-15 (R at a = 1)
        rel = 2e-14
        for a in (0.5, 1.0, 2.0):
            drift = gauss_avg(lambda u: u * u / (1.0 + u * u), a)
            r_ref = 4.0 / (a * a) * drift
            f_ref = gauss_avg(lambda u: (1.0 + u * u) ** -1.5, a)
            assert abs(r_function(a) - r_ref) <= rel * r_ref
            assert abs(f_function(a) - f_ref) <= rel * f_ref
            width = packet_width(ObservableInputs(sigma=1.0, a=a, t=2.0))
            width_ref = 1.0 + 4.0 * drift
            assert abs(width - width_ref) <= rel * width_ref
            comm = commutator_xt_x0(ObservableInputs(sigma=1.0, a=a, t=2.0))
            assert abs(comm - (-2.0j * f_ref)) <= rel * abs(2.0 * f_ref)


def test_07_kernel_identity_and_delocalization():
    with criterion(7, "s-integral kernel equals Bessel K0 / pi; spreading", 10.0):
        adaptive = QuadratureConfig(halfline_rule="adaptive_subdivision")
        for delta in (0.1, 1.0, 3.0):
            got = integrate_halfline(
                lambda s: math.exp(-s - delta * delta / (4.0 * s))
                / (2.0 * math.pi * s),
                adaptive,
            ).value.real
            ref = special.k0(delta) / math.pi
            assert abs(got - ref) <= 1e-6 * ref
        from pseudoflow import phi_transform

        f = Field.from_function(-24.0, 24.0, 1024, lambda x: x**2 * np.exp(-(x**2)))
        phi = phi_transform(f)

        def second_moment(w):
            return np.trapezoid(f.x**2 * np.abs(w), f.x) / np.trapezoid(np.abs(w), f.x)

        assert second_moment(phi.values) > second_moment(f.values)


def test_08_matrix_algebra_exactness():
    with criterion(8, "anticommutation tables exact; symbol and power laws", 1.0):
        sigma = [generators(f"sigma{i}") for i in (1, 2, 3)]
        alpha = [generators(f"alpha{i}") for i in (1, 2, 3)]
        kappa = [generators(f"kappa{i}") for i in (1, 2, 3)]
        beta, delta = generators("beta"), generators("delta")
        for fam, dim in ((sigma, 2), (alpha, 4), (kappa, 4)):
            for i in range(3):
                for j in range(3):
                    want = 2.0 * np.eye(dim) if i == j else np.zeros((dim, dim))
                    assert np.array_equal(fam[i] @ fam[j] + fam[j] @ fam[i], want)
        for i in range(3):
            assert np.array_equal(alpha[i] @ beta + beta @ alpha[i], np.zeros((4, 4)))
            assert np.array_equal(kappa[i] @ delta + delta @ kappa[i], np.zeros((4, 4)))
        assert np.array_equal(beta @ beta, np.eye(4))
        assert np.array_equal(delta @ delta, -np.eye(4))
        rng = np.random.default_rng(2024)
        for k in rng.uniform(-3.0, 3.0, 20):
            m = sqrt_symbol_check(float(k))
            assert maxabs(m @ m - (1.0 + k * k) * np.eye(4)) <= 1e-14
        root = pauli_line_power(1.25, 0.75, 0.5)
        r = 1.25 * np.eye(2) + 0.75 * generators("sigma1")
        assert maxabs(root @ root - r) <= 1e-13
        for p in (-1.0, -0.5, 0.5, 1.0):
            for q in (-1.0, -0.5, 0.5, 1.0):
                lhs = pauli_line_power(1.25, 0.75, p) @ pauli_line_power(1.25, 0.75, q)
                assert maxabs(lhs - pauli_line_power(1.25, 0.75, p + q)) <= 1e-13


def test_09_evolution_operator_oracles():
    with criterion(9, "evolution operators: unitarity, exponential, velocity", 10.0):
        rng = np.random.default_rng(99)
        alpha = [generators(f"alpha{i}") for i in (1, 2, 3)]
        beta = generators("beta")
        sigma1, sigma3 = generators("sigma1"), generators("sigma3")
        for _ in range(50):  # 2x2 family
            pi_ = float(rng.uniform(-3, 3))
            t1, t2 = rng.uniform(0, 2, 2)
            u1, u2 = dirac2_evolution(pi_, t1), dirac2_evolution(pi_, t2)
            assert maxabs(u1.conj().T @ u1 - np.eye(2)) <= 1e-13
            assert maxabs(u1 @ u2 - dirac2_evolution(pi_, t1 + t2)) <= 1e-13
            h = pi_ * sigma1 + sigma3
            assert maxabs(u1 - taylor_expm(-1j * t1 * h)) <= 1e-10
        for _ in range(50):  # 4x4 family
            p = rng.uniform(-2, 2, 3)
            t1, t2 = rng.uniform(0, 2, 2)
            u1, u2 = dirac4_evolution(p, t1), dirac4_evolution(p, t2)
            assert maxabs(u1.conj().T @ u1 - np.eye(4)) <= 1e-13
            assert maxabs(u1 @ u2 - dirac4_evolution(p, t1 + t2)) <= 1e-13
            h = sum(c * a for c, a in zip(p, alpha)) + beta
            assert maxabs(u1 - taylor_expm(-1j * t1 * h)) <= 1e-10
        pi_, tau, step = 0.9, 0.7, 1e-5
        fd = (
            position_evolution(pi_, tau + step) - position_evolution(pi_, tau - step)
        ) / (2.0 * step)
        u = dirac4_evolution((pi_, 0.0, 0.0), tau)
        assert maxabs(fd - u.conj().T @ generators("alpha1") @ u) <= 1e-6
        s0 = np.array([0.3, -0.5, 0.8])
        out = bloch_evolve(s0, 0.7, 10.0, 1e-3)
        omega = np.array([1.4, 0.0, 2.0])
        axis = omega / np.linalg.norm(omega)
        ang = np.linalg.norm(omega) * 10.0
        rot = (
            s0 * math.cos(ang)
            + np.cross(axis, s0) * math.sin(ang)
            + axis * np.dot(axis, s0) * (1.0 - math.cos(ang))
        )
        assert maxabs(out - rot) <= 1e-8


def test_10_inverse_sqrt_shift_operator():
    with criterion(10, "inverse-sqrt operator: cosine check and round trip", 10.0):
        f = Field.from_function(-200.0, 20.0, 2048, lambda x: np.cos(0.5 * x))
        out = apply_inv_sqrt_shift(f)
        sel = np.abs(f.x) <= 15.0
        ref = np.cos(0.5 * f.x[sel]) / math.sqrt(1.0 - 0.25)
        assert maxabs(out.values[sel] - ref) <= 1e-6
        # band-limited round trip: forward multiplier built independently
        # on a zero-padded transform, then undone by the operator
        x = np.linspace(-260.0, 260.0, 4096)
        g = np.cos(0.3 * x) * np.exp(-((x / 40.0) ** 2))
        n_pad = 8192
        k = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=x[1] - x[0])
        padded = np.zeros(n_pad)
        padded[:4096] = g
        mult = np.sqrt(np.where(np.abs(k) < 1.0, 1.0 - k * k, 1.0)).astype(complex)
        forward = np.fft.ifft(mult * np.fft.fft(padded))[:4096].real
        back = apply_inv_sqrt_shift(Field(-260.0, 260.0, 4096, forward))
        sel = np.abs(x) <= 100.0
        assert maxabs(back.values[sel] - g[sel]) <= 1e-6


def test_11_cli_presets_are_deterministic(tmp_path):
    with criterion(11, "figure presets byte-identical across two runs"):
        env = child_env()
        for preset in ("fig1", "fig2", "fig3", "fig4"):
            blobs = []
            for run in ("a", "b"):
                out = tmp_path / f"{preset}_{run}.csv"
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "pseudoflow", preset, "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env=env,
                    cwd=tmp_path,
                )
                elapsed = time.perf_counter() - t0
                assert proc.returncode == 0, proc.stderr
                assert elapsed < 60.0, f"{preset} run took {elapsed:.1f}s"
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"{preset} output differs between runs"

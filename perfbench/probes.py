"""Layer probes: each public function called directly, timed from outside.

Integrands are the benchmark's own, wrapped in call counters, so node
counts are exact and need nothing from inside the package. Inputs are drawn
from the workloads' distributions with the run's seed; where a function's
cost steps with a parameter (solve_pseudoheat with tau), the timing probe
uses the preset default so the probe times compare across seeds.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads as W
from pseudoflow import (
    ConvergenceError,
    Field,
    QuadratureConfig,
    SymbolSpec,
    cli,
    clifford,
    doetsch_weight,
    exp_sqrt_via_doetsch,
    f2k,
    f_function,
    gauss_weierstrass,
    hermite2,
    integrate_halfline,
    integrate_realline,
    phi_transform,
    pseudoheat_gaussian,
    r_function,
    series_solution,
    solve_pseudoheat,
    solve_symbol_spectral,
    spectral_schrodinger,
)
from pseudoflow.relativistic import ObservableInputs, commutator_xt_x0, packet_width


class Counted:
    """Integrand wrapper that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


def median_time(fn, reps):
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _spawn_time(argv, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_probes():
    bare = _spawn_time([sys.executable, "-c", "pass"], 3)
    full = _spawn_time([sys.executable, "-c", "import pseudoflow"], 3)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import pseudoflow"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    interp = 0.0  # scipy.interpolate not imported by `import pseudoflow`
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.interpolate":
            interp = int(parts[1]) * 1e-6
    return {"import.pseudoflow_s": full - bare, "import.scipy_interpolate_s": interp}


def _rule_probe(prefix, integrate, integrand, cfg, reps=5):
    counted = Counted(integrand)
    call_s, _ = median_time(lambda: integrate(counted, cfg), reps)
    nodes = counted.calls // reps
    return {
        f"{prefix}.nodes": nodes,
        f"{prefix}.call_s": call_s,
        f"{prefix}.ns_per_node": call_s / nodes * 1e9,
    }


def quadrature_probes(rng):
    b, w = rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0)
    x, y = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    c = x * x * y
    a = rng.uniform(0.25, 5.0)
    out = {}
    out.update(_rule_probe(
        "special.halfline.gauss_laguerre", integrate_halfline,
        lambda s: math.exp(-b * s) * math.cos(w * s), QuadratureConfig(),
    ))
    out.update(_rule_probe(
        "special.halfline.inverse_square_substitution", integrate_halfline,
        lambda t: doetsch_weight(t) * math.exp(-t * c),
        QuadratureConfig(halfline_rule="inverse_square_substitution"),
    ))
    out.update(_rule_probe(
        "special.halfline.adaptive_subdivision", integrate_halfline,
        lambda s: math.exp(-s) * (2.0 + a * a * s) ** -1.5,
        QuadratureConfig(halfline_rule="adaptive_subdivision"),
    ))

    # the f_2k integrand, rebuilt from the public hermite2
    eta = float(rng.uniform(-4.0, 4.0))
    k = int(rng.integers(3, 9))
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)

    def f2k_shape(u):
        arg = 1.0 + 4.0 * u * u
        return (
            inv_sqrt_pi * math.exp(-u * u) / math.sqrt(arg)
            * hermite2(2 * k, 2.0 * eta / arg, -1.0 / arg) * math.exp(-eta * eta / arg)
        )

    def realline(fn, cfg):
        # Gauss-Hermite stalls on this integrand's poles at u = +-i/2; the
        # time and nodes until it gives up are what the probe records
        try:
            return integrate_realline(fn, cfg)
        except ConvergenceError:
            return None

    out.update(_rule_probe(
        "special.realline.gauss_hermite", realline, f2k_shape, QuadratureConfig(), reps=3
    ))
    out.update(_rule_probe(
        "special.realline.truncated_adaptive", realline, f2k_shape,
        QuadratureConfig(realline_rule="truncated_adaptive"), reps=3,
    ))
    args = [(2 * kk, 2.0 * eta / (1 + u), -1.0 / (1 + u)) for kk in range(13) for u in (0.5, 2.0, 8.0)]
    calls = 200 * len(args)
    t0 = time.perf_counter()
    for _ in range(200):
        for n_, x_, y_ in args:
            hermite2(n_, x_, y_)
    out["special.hermite2.ns_per_call"] = (time.perf_counter() - t0) / calls * 1e9
    return out


def kernel_probes(rng):
    sigma = float(rng.uniform(0.7, 1.5))
    alpha = float(rng.uniform(0.25, 1.5))
    out = {}
    for n, reps in ((128, 9), (256, 9), (1024, 5)):
        f = W._gaussian(-16.0, 16.0, n, sigma)
        out[f"transforms.gauss_weierstrass.call_s.n{n}"] = median_time(
            lambda: gauss_weierstrass(f, alpha), reps
        )[0]
    for n in (128, 256):
        f = W._gaussian(-16.0, 16.0, n, sigma)
        out[f"evolution.solve_pseudoheat.call_s.n{n}"] = median_time(lambda: solve_pseudoheat(f, 1.0), 1)[0]
    # accuracy where the workload's draw is hardest: the coarse grid at the
    # small edge of the tau range
    op = W._op_pseudoheat(rng, 128, 0.25, 0.25)
    out["evolution.solve_pseudoheat.err_vs_spectral"] = op.check(op.call())[0]

    ops = {
        "relativistic.phi_transform.call_s": W._op_phi(rng),
        "evolution.apply_inv_sqrt_shift.call_s": W._op_inv_sqrt(rng),
        "relativistic.iterated_series.call_s": W._op_iterated(rng),
        "evolution.solve_half_derivative.call_s": W._op_half_derivative(rng),
        "evolution.solve_affine_sqrt.call_s": W._op_affine(rng),
    }
    for name, op in ops.items():
        out[name] = median_time(op.call, 3)[0]

    g = W._gaussian(-16.0, 16.0, 256, sigma)
    out["evolution.solve_symbol_spectral.call_s"] = median_time(
        lambda: solve_symbol_spectral(g, 1.0, SymbolSpec.pseudoheat()), 21
    )[0]
    a = float(rng.uniform(1.0, 2.0))
    b, p = float(rng.uniform(0.1, 0.9)) * a, float(rng.uniform(-1.0, 1.0))
    t0 = time.perf_counter()
    for _ in range(200):
        clifford.pauli_line_power(a, b, p)
    out["clifford.pauli_line_power.call_s"] = (time.perf_counter() - t0) / 200
    return out


def scalar_probes(rng):
    x, y = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    tau, xx = float(rng.uniform(0.25, 1.5)), float(rng.uniform(-4.0, 4.0))
    a = float(rng.uniform(0.25, 5.0))
    calls = {
        "transforms.exp_sqrt_via_doetsch.t_form.call_s": lambda: exp_sqrt_via_doetsch(x, y, "t_form"),
        "transforms.exp_sqrt_via_doetsch.xi_form.call_s": lambda: exp_sqrt_via_doetsch(x, y, "xi_form"),
        "evolution.pseudoheat_gaussian.call_s": lambda: pseudoheat_gaussian(tau, xx),
        "relativistic.r_function.call_s": lambda: r_function(a),
        "relativistic.f_function.call_s": lambda: f_function(a),
    }
    return {name: median_time(fn, 7)[0] for name, fn in calls.items()}


def series_probes(rng):
    oracle = W.SeriesOracle()
    j = int(rng.choice(oracle.nodes))
    eta = float(oracle.x[j])
    k = int(rng.integers(3, 9))

    def cold_f2k():
        W.clear_f2k_cache()
        return f2k(eta, k)

    out = {"relativistic.f2k.call_s": median_time(cold_f2k, 5)[0]}
    cold, warm, err = [], [], 0.0
    for tau in W.SERIES_TAUS:
        W.clear_f2k_cache()
        t0 = time.perf_counter()
        value, _, terms = series_solution(eta, tau, return_diagnostics=True)
        cold.append(time.perf_counter() - t0)
        warm.append(median_time(lambda: series_solution(eta, tau), 3)[0])
        err = max(err, abs(value - oracle.ref[tau][j]))
    out["relativistic.series_solution.cold_call_s"] = statistics.median(cold)
    out["relativistic.series_solution.warm_call_s"] = statistics.median(warm)
    out["relativistic.series_solution.terms"] = terms
    out["relativistic.series_solution.err_vs_spectral"] = err
    return out


def _grid(text):
    lo, hi, n = text.split(":")
    return float(lo), float(hi), int(n)


def _library_calls(kind, argv):
    """The library calls a preset makes, without parsing or CSV formatting."""
    opt = dict(zip(argv[1::2], argv[2::2])) if argv[0] != "fig2" else {}
    if kind == "fig1":
        lo, hi, n = _grid(opt["--grid"])
        tau = float(opt["--tau"])
        f0 = Field.from_function(lo, hi, n, lambda x: np.exp(-(x**2)))
        return lambda: (gauss_weierstrass(f0, tau), solve_pseudoheat(f0, tau))
    if kind in ("fig2", "fig2_series"):
        lo, hi, n = _grid(argv[-1])
        f0 = Field.from_function(lo, hi, n, lambda x: np.exp(-(x**2)))
        if kind == "fig2":
            return lambda: [spectral_schrodinger(f0, t) for t in (0.0, 0.5, 1.0)]

        def series():
            W.clear_f2k_cache()
            return [[series_solution(float(e), t) for e in f0.x] for t in (0.0, 0.5, 1.0)]

        return series
    if kind == "fig3":
        lo, hi, n = _grid(opt["--grid"])
        psi = Field.from_function(lo, hi, n, lambda x: x**2 * np.exp(-(x**2)))
        return lambda: phi_transform(psi)
    if kind == "fig4":
        a_values = np.linspace(0.0, float(opt["--a-max"]), int(opt["--steps"]))
        return lambda: ([r_function(float(a)) for a in a_values], [f_function(float(a)) for a in a_values])
    if kind == "solve":
        lo, hi, n = _grid(opt["--grid"])
        tau = float(opt["--tau"])
        f0 = Field.from_function(lo, hi, n, lambda x: np.exp(-(x**2)))
        return lambda: (solve_pseudoheat(f0, tau), solve_symbol_spectral(f0, tau, SymbolSpec.pseudoheat()))
    if kind == "matrix":
        if opt["--what"] == "line_power":
            a, b, p = float(opt["--a"]), float(opt["--b"]), float(opt["--p"])
            return lambda: clifford.pauli_line_power(a, b, p)
        pi_, tau = float(opt["--pi"]), float(opt["--tau"])
        return lambda: clifford.dirac2_evolution(pi_, tau)
    if kind == "observables":
        sigma, a = float(opt["--sigma"]), float(opt["--a"])
        ts = np.linspace(0.0, float(opt["--t-max"]), int(opt["--steps"]))

        def obs():
            for t in ts:
                inp = ObservableInputs(sigma=sigma, a=a, t=float(t))
                packet_width(inp)
                commutator_xt_x0(inp)
            return r_function(a), f_function(a)

        return obs
    raise ValueError(kind)


def cli_probes(rng):
    out = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "probe.csv")
        for kind, argv, _, _ in W.cli_specs(rng):
            full = [*argv, "--out", path]

            def in_process():
                if kind == "fig2_series":
                    W.clear_f2k_cache()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(full)
                if code != 0:
                    raise RuntimeError(f"cli.run {argv} exited {code}")

            run_s = median_time(in_process, 3)[0]
            lib_s = median_time(_library_calls(kind, argv), 3)[0]
            out[f"cli.run.call_s.{kind}"] = run_s
            out[f"cli.format_s.{kind}"] = run_s - lib_s
            if kind == "matrix":
                spawn = _spawn_time([sys.executable, "-m", "pseudoflow", *full], 3)
                out["cli.spawn_overhead_s"] = spawn - run_s
    return out


def run_all(seed):
    rng = np.random.default_rng([seed, 7])
    out = {}
    out.update(import_probes())
    out.update(quadrature_probes(rng))
    out.update(kernel_probes(rng))
    out.update(scalar_probes(rng))
    out.update(series_probes(rng))
    out.update(cli_probes(rng))
    return out


def error_metrics(records, layers):
    """Fold the loop's own pseudoheat and series errors into the probes'."""
    for kind, name in (
        ("solve_pseudoheat", "evolution.solve_pseudoheat.err_vs_spectral"),
        ("series_solution", "relativistic.series_solution.err_vs_spectral"),
    ):
        errs = [r["err"] for r in records if r["kind"].startswith(kind) and "err" in r]
        if errs:
            layers[name] = max(layers[name], max(errs))
    return layers

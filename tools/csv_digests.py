"""Print the SHA-256 of the CSV that each of a fixed list of CLI runs writes.

    python tools/csv_digests.py                   # the package in this checkout
    python tools/csv_digests.py --src OTHER/src   # the package in another one
    python tools/csv_digests.py --arrays          # library arrays instead

The list holds every preset (fig1-fig4, observables), every matrix and
`solve` for every (equation, method) pair, both read from the CLI's own
tables (``cli._MATRIX_BUILDERS`` and ``cli._SOLVERS``), `solve` with
`--compare`, with `--ic gaussian(2)` and with `--ic file=` on a fixed table
that the tool writes, spectral routes on a grid whose n is not a power of
two, each subordination flow at a tau where it is the identity to
rounding, a series run on a grid where Psi is 0 to rounding, the
benchmark's usage errors, one refusal for each range-checked flag, the
series route's refusal of an initial condition other than e^{-x^2}, one
packet width past float range, five matrices that would leave float
range, the half-derivative and affine flows at tau where the kernel
underflows on every cell (1e200; 1.3e154 and 1e300), fig1 and the heat
integral at a width of 1e-320 and the heat integral at 1e308, the affine
flow without drift (c = 0) on [0, 12] and on data at x < 0, where it
diverges, two splines past float range: the half-derivative and affine
flows on a grid of step 3e-202, and the heat flow on a second fixed table
of values near 1.6e308 that the tool writes, whose spline rows pass float
range unless scaled (it is splined scaled, as every field route runs its
data); then, after all of those, each spectral
route (heat, schrodinger, optics, pseudoheat) and the pseudoheat flow on a
third fixed table, of values rising from 1.5e308 to 1.7e308, and the
series route at tau = 4, where its two trapezoid steps disagree; last, an
int flag past float range: fig1's grid n and fig4's --steps at 10^400. One
line per run, "<csv sha256>  <text sha256>  <arguments>", where the first hash reads
"exit <code>" where the run failed, or "error <type>" where ``cli.run``
raised, and the second is the SHA-256 of the run's stdout and stderr with
the output path masked. Each run shows every warning it raises, however
often an earlier run raised it, so each text hash holds the run's own
warnings. Two checkouts write
the same CSV bytes, summary lines and error text where these lines agree:

    diff <(python tools/csv_digests.py --src PARENT/src) <(python tools/csv_digests.py)

Compare two checkouts on one machine under one BLAS thread setting, since
OpenBLAS may round a matrix product differently with its thread count:
on a 2-CPU host, ``solve --equation affine_sqrt --c 1 --tau 1`` writes
other bytes with OPENBLAS_NUM_THREADS=1 than with the default two threads
(19 of 1024 rows, by at most 2.2e-17 of the peak), and so does this
tool's affine run, while ``fig1`` does not move. Under ``--arrays`` three
lines move with the thread count too: "apply_inv_sqrt_shift 2048 packet
on [-200, 200]", "apply_inv_sqrt_shift 4097 packet on [-40, 40]" (the J0
operator's window sums are matrix products) and "solve_affine_sqrt 4097
complex c -1 tau 0.5".

With ``--arrays`` the lines are the SHA-256 of the values of library calls
that no CLI run writes (the iterated series on 512 and 200 points, the J0
operator, the s-integral form of D, its spectral form on 200 points, the
affine flow on a 4097-point grid, R(a) and F(a) on a = 10^k for
k = -3, -2.5, ..., 19, phi_transform and the half-derivative flow on the
benchmark's grids, the Doetsch weight where its decay underflows, the
closed-form pseudoheat Gaussian at tiny tau and huge x, the J0 operator on
a 4097-point grid, whose windows are copied a few columns at a time, and
three refusals: J0 on a span of 2e150, the iterated series at tau = 1e16
and the Bloch precession at tau = 1e300, dt = 1e-300; then H_n(x, y) past
float range, also at a numpy x, the spectral pseudoheat flow at tau = inf,
the heat smoothing at alpha = 1e-320, R(a) on no a, and each fixed-node
and adaptive integration rule on an integrand of inf, -inf and complex
inf; then the spectral pseudoheat flow and the spectral D on data near
1e307, which run scaled to a peak in [0.5, 1), and the series at eta = 0,
tau = 4; last the float edges of the J0 operator (1e307 and 1.6e308),
the pseudoheat flow (1.6e308) and the affine flow (1e307 on two grids));
then the refusals of a result past float range, each digested by the
bytes of its message ("refusal text", see ``refusal_text``): the Pauli
vector's matrix, sigma . v, the kappa parametrization, dirac4's pi . pi,
the commutator, both of laplace_inv_power's (a^-nu itself, and its value
after the rule), the linear-potential trajectory, the Gauss-Weierstrass
smoothing of constant data at the largest float on [-50, 50] with 64
points and the pseudoheat flow of the largest float at tau = 1e-15 on
[-2, 14] with 161 points; then the Gauss-Weierstrass smoothing of
1e308 e^{-(x/20)^2} on that coarse grid, which solves, and the
half-derivative flow at tau = 1e-30 on [-8, 8] with 64 points, a tau at
which it is the identity to rounding; last the refusals of an int past
float range, by their messages: H_n's x, laplace_inv_power's a, J0's x, a
Field's x_max and the iterated series' tau at 10^400, and dirac2's pi at
10^200, whose square is past float range. One line per call,
"<sha256>  <call>", or "error <type>" where the call raised, followed by
" warned <sha256 of its warnings>" where the call warned. The K0, J0 and half-derivative
routes keep a plan per grid: each of them runs again on a grid after a
call on another grid with the same n ("again"), so the lines cover a plan
built by the call and a plan met in the cache.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

PRESETS = (
    ("fig1",),
    ("fig2",),
    ("fig2", "--method", "series"),
    ("fig3",),
    ("fig4",),
    ("observables",),
)
# the runs after PRESETS and the CLI's tables (see runs)
RUNS = (
    ("solve", "--equation", "pseudoheat", "--tau", "0.5", "--compare", "spectral"),
    # a complex primary beside a real secondary
    ("solve", "--equation", "heat", "--method", "spectral", "--tau", "0.5", "--compare", "integral"),
    ("solve", "--equation", "schrodinger", "--tau", "0.5", "--compare", "series"),
    ("solve", "--equation", "pseudoheat", "--tau", "0.5", "--ic", "gaussian(2)"),
    # spectral routes on grids whose n is not a power of two
    ("solve", "--equation", "pseudoheat", "--method", "spectral", "--tau", "0.5",
     "--grid", "-12:12:200"),
    ("solve", "--equation", "schrodinger", "--tau", "0.5", "--compare", "series",
     "--grid", "-16:16:200"),
    # a tau at which each subordination flow is the identity to rounding
    ("solve", "--equation", "half_derivative", "--tau", "1e-300"),
    ("solve", "--equation", "affine_sqrt", "--c", "-1", "--tau", "1e-300"),
    ("solve", "--equation", "pseudoheat", "--tau", "1e-160"),
    # past the reach of R's window: a numerical failure
    ("observables", "--a", "1e25", "--steps", "3"),
    # a grid so wide that the series is 0 to rounding at every point
    ("fig2", "--method", "series", "--grid", "-1e100:1e100:16"),
    # shift flows whose kernel underflows on every cell, and heat widths
    # far below 4 h^2, where the sampled kernel's exponent overflows
    ("solve", "--equation", "half_derivative", "--tau", "1e200", "--grid", "-8:8:64"),
    ("solve", "--equation", "affine_sqrt", "--c", "1", "--tau", "1.3e154", "--grid", "-2:14:161"),
    ("solve", "--equation", "affine_sqrt", "--c", "-1", "--tau", "1e300", "--grid", "-2:14:161"),
    ("fig1", "--tau", "1e-320", "--grid", "-8:8:64"),
    ("solve", "--equation", "heat", "--method", "integral", "--tau", "1e-320", "--grid", "-8:8:64"),
    # heat widths past max / pi, where pi alpha overflows
    ("solve", "--equation", "heat", "--method", "integral", "--tau", "1e308", "--grid", "-8:8:64"),
    # the affine flow without drift: a multiplier, and divergent on data at x < 0
    ("solve", "--equation", "affine_sqrt", "--c", "0", "--tau", "0.7", "--grid", "0:12:97"),
    ("solve", "--equation", "affine_sqrt", "--c", "0", "--tau", "1", "--grid", "-8:8:64"),
    # spline coefficient rows past float range on a grid of step 3e-202
    ("solve", "--equation", "half_derivative", "--tau", "0.5", "--ic", "gaussian(1e-201)",
     "--grid", "-1e-200:1e-200:64"),
    ("solve", "--equation", "affine_sqrt", "--c", "1", "--tau", "0.5", "--ic", "gaussian(1e-201)",
     "--grid", "-1e-200:1e-200:64"),
)
# runs the parser refuses, each by a flag's type or choices, as the benchmark's cli_cold draws them
USAGE_ERRORS = (
    ("fig1", "--tau", "not-a-number"),
    ("solve", "--equation", "pseudoheat", "--tau", "-1"),
    ("fig2", "--grid", "1:0:8"),
    ("matrix", "--what", "no_such_matrix"),
    ("fig4", "--steps", "1"),
    ("observables", "--t-max", "0"),
)
# non-finite or out-of-domain values, one for each flag checked by its type,
# and a width that the observables handler refuses past float range
REFUSALS = (
    ("solve", "--equation", "heat", "--tau", "nan"),
    ("solve", "--equation", "heat", "--tau", "inf"),
    ("solve", "--equation", "heat", "--tau", "0.5", "--ic", "gaussian(nan)"),
    ("solve", "--equation", "heat", "--tau", "0.5", "--ic", "gaussian(inf)"),
    ("solve", "--equation", "affine_sqrt", "--tau", "1", "--c", "nan"),
    ("solve", "--equation", "optics", "--tau", "1", "--refractive-index", "nan"),
    ("solve", "--equation", "optics", "--tau", "1", "--refractive-index", "1e200"),
    ("observables", "--sigma", "nan"),
    ("observables", "--a", "inf"),
    ("observables", "--sigma", "1e-300", "--steps", "3"),
    ("matrix", "--what", "dirac2", "--tau", "inf"),
    ("matrix", "--what", "dirac2", "--y", "nan"),
    ("matrix", "--what", "generator", "--kind", "foo"),
    # the series route sums the series of e^{-x^2} alone
    ("solve", "--equation", "schrodinger", "--method", "series", "--ic", "fig3", "--tau", "0.5"),
    # finite flags whose matrix would leave float range
    ("matrix", "--what", "exp_pauli", "--y", "800"),
    ("matrix", "--what", "line_power", "--a", "1e308", "--b", "0", "--p", "2"),
    ("matrix", "--what", "dirac2", "--pi", "1e200"),
    ("matrix", "--what", "dirac4", "--pi", "1e200,0,0"),
    ("matrix", "--what", "position", "--pi", "1e200"),
)
# runs on the tables that write_ic_table, write_huge_table and
# write_float_edge_table put in the working directory
IC_TABLE = "ic.csv"
HUGE_TABLE = "huge.csv"
FLOAT_EDGE_TABLE = "float_edge.csv"
IC_FILE_RUNS = (
    ("solve", "--equation", "heat", "--method", "integral", "--tau", "0", "--ic", f"file={IC_TABLE}",
     "--grid", "-4:4:64"),
    # a table whose spline rows leave float range as they are, and not scaled
    ("solve", "--equation", "heat", "--tau", "0.5", "--ic", f"file={HUGE_TABLE}", "--grid", "-4:4:64"),
)
# runs printed after all others: each spectral route and the pseudoheat
# flow on data near the largest float whose spline stays finite, and the
# series where its two trapezoid steps disagree
EDGE_RUNS = (
    *(("solve", "--equation", *eq, "--tau", "0.5", "--ic", f"file={FLOAT_EDGE_TABLE}",
       "--grid", "-4:4:64")
      for eq in (("heat",), ("schrodinger",), ("optics",), ("pseudoheat", "--method", "spectral"),
                 ("pseudoheat",))),
    ("solve", "--equation", "schrodinger", "--method", "series", "--tau", "4"),
)
# runs printed last: an int flag past float range, in a grid and as a count
PAST_FLOAT_INTS = (
    ("fig1", "--grid", f"-8:8:{10**400}"),
    ("fig4", "--steps", str(10**400)),
)


def runs(cli) -> tuple:
    """PRESETS, a run of every matrix and of every (equation, method) pair,
    in the order of the loaded CLI's own tables, then RUNS."""
    return (
        *PRESETS,
        *(("matrix", "--what", what) for what in cli._MATRIX_BUILDERS),
        *(("solve", "--equation", eq, "--method", method, "--tau", "0.5")
          for eq, method in cli._SOLVERS),
        *RUNS,
    )


def write_ic_table(path: Path) -> None:
    """A fixed (x, value) table: a header row, then 25 unevenly spaced rows
    of a skewed Gaussian on about [-3, 3]."""
    xs = [-3.0 + 0.25 * i + 0.04 * (-1) ** i for i in range(25)]
    rows = "".join(f"{x!r},{math.exp(-x * x) * (1.0 + x / 2.0)!r}\n" for x in xs)
    Path(path).write_text("x,value\n" + rows)


def write_huge_table(path: Path) -> None:
    """A fixed (x, value) table: a header row, then 6 rows 10 apart whose
    values alternate between 1.5e308 and 1.7e308."""
    rows = "".join(f"{10.0 * i!r},{1.7e308 if i % 2 else 1.5e308!r}\n" for i in range(6))
    Path(path).write_text("x,value\n" + rows)


def write_float_edge_table(path: Path) -> None:
    """A fixed (x, value) table: a header row, then 25 rows at
    x = -3 + 0.25 i whose values rise linearly from 1.5e308 to 1.7e308."""
    rows = "".join(f"{-3.0 + 0.25 * i!r},{1.5e308 + i * (2e307 / 24)!r}\n" for i in range(25))
    Path(path).write_text("x,value\n" + rows)


def digests(cli, args, directory: Path) -> tuple[str, str]:
    """(csv, text) for the run of ``cli.run`` on ``args``: the SHA-256 of
    the CSV it writes, or "exit <code>" where it fails, or "error <type>"
    where ``cli.run`` raises, and the SHA-256 of its stdout and stderr with
    the output path masked."""
    out = Path(directory) / "out.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning an earlier run raised, too
        try:
            code = cli.run([*args, "--out", str(out)])
            failure = f"exit {code}" if code != 0 else None
        except Exception as exc:  # a failure is a result to compare, too
            failure = f"error {type(exc).__name__}"
    text = f"{stdout.getvalue()}\0{stderr.getvalue()}".replace(str(out), "OUT")
    text_digest = hashlib.sha256(text.encode()).hexdigest()
    if failure:
        return failure, text_digest
    return hashlib.sha256(out.read_bytes()).hexdigest(), text_digest


def digest(cli, args, directory: Path) -> str:
    """SHA-256 of the CSV that ``cli.run`` writes for ``args``, or
    "exit <code>" where it fails; the run's own output is discarded."""
    return digests(cli, args, directory)[0]


def array_calls(pf):
    """(label, thunk) for each library call that ``--arrays`` digests."""
    gauss = pf.Field.from_function(-16.0, 16.0, 512, lambda x: np.exp(-(x**2)))
    wavy = gauss.with_values(gauss.values * (1.0 + 0.5j * np.sin(gauss.x)))
    packet = pf.Field.from_function(
        -260.0, 260.0, 2048, lambda x: np.cos(0.3 * x) * np.exp(-((x / 40.0) ** 2))
    )
    small = pf.Field.from_function(-16.0, 16.0, 256, lambda x: np.exp(-(x**2)))
    odd = pf.Field.from_function(-16.0, 16.0, 200, lambda x: np.exp(-(x**2)))
    fine = pf.Field.from_function(-6.0, 10.0, 4097, lambda x: np.exp(-((x - 3.0) ** 2)))
    fine_c = fine.with_values(fine.values * (1.0 + 0.3j * np.cos(fine.x)))
    calls = [
        ("iterated_series 512 real tau 0.3", lambda: pf.iterated_series(gauss, 0.3)),
        ("iterated_series 512 real tau -0.4", lambda: pf.iterated_series(gauss, -0.4)),
        ("iterated_series 512 complex tau 0.3", lambda: pf.iterated_series(wavy, 0.3)),
        ("apply_inv_sqrt_shift 2048 packet", lambda: pf.apply_inv_sqrt_shift(packet)),
        ("dhat_apply 256 s_integral", lambda: pf.dhat_apply(small, "s_integral")),
        ("iterated_series 200 real tau 0.3", lambda: pf.iterated_series(odd, 0.3)),
        ("dhat_apply 200 spectral", lambda: pf.dhat_apply(odd, "spectral")),
    ]
    for c in (1.0, -1.0):
        for name, f in (("real", fine), ("complex", fine_c)):
            calls.append((
                f"solve_affine_sqrt 4097 {name} c {c:g} tau 0.5",
                lambda f=f, c=c: pf.solve_affine_sqrt(f, 0.5, c),
            ))
    a_values = 10.0 ** np.arange(-3.0, 19.25, 0.5)
    calls += [
        ("r_function a = 10^-3..10^19", lambda: pf.r_function(a_values)),
        ("f_function a = 10^-3..10^19", lambda: pf.f_function(a_values)),
    ]
    # the benchmark's grids, then each planned route on a grid with the
    # same n and other bounds, then again on the first grid
    phi = pf.Field.from_function(-20.0, 20.0, 1024, lambda x: np.exp(-(x**2)))
    phi_other = pf.Field.from_function(-16.0, 16.0, 1024, lambda x: np.exp(-(x**2)))
    half = pf.Field.from_function(-12.0, 8.0, 1281, lambda x: np.exp(-(x**2)))
    half_other = pf.Field.from_function(-10.0, 10.0, 1281, lambda x: np.exp(-(x**2)))
    packet_other = pf.Field.from_function(
        -200.0, 200.0, 2048, lambda x: np.cos(0.3 * x) * np.exp(-((x / 40.0) ** 2))
    )
    gauss_other = pf.Field.from_function(-12.0, 12.0, 512, lambda x: np.exp(-(x**2)))
    calls += [
        ("phi_transform 1024 on [-20, 20]", lambda: pf.phi_transform(phi)),
        ("phi_transform 1024 on [-16, 16]", lambda: pf.phi_transform(phi_other)),
        ("phi_transform 1024 on [-20, 20] again", lambda: pf.phi_transform(phi)),
        ("solve_half_derivative 1281 on [-12, 8] tau 0.7",
         lambda: pf.solve_half_derivative(half, 0.7)),
        ("solve_half_derivative 1281 on [-10, 10] tau 0.7",
         lambda: pf.solve_half_derivative(half_other, 0.7)),
        ("solve_half_derivative 1281 on [-12, 8] tau 0.7 again",
         lambda: pf.solve_half_derivative(half, 0.7)),
        ("apply_inv_sqrt_shift 2048 packet on [-200, 200]",
         lambda: pf.apply_inv_sqrt_shift(packet_other)),
        ("apply_inv_sqrt_shift 2048 packet again", lambda: pf.apply_inv_sqrt_shift(packet)),
        ("iterated_series 512 on [-12, 12] real tau 0.3",
         lambda: pf.iterated_series(gauss_other, 0.3)),
        ("iterated_series 512 real tau 0.3 again", lambda: pf.iterated_series(gauss, 0.3)),
    ]
    # where e^{-1/(4t)} underflows, at tiny tau and past |x| = 746.25
    tiny_t = np.array([1e-300, 1e-200, 5e-324, 3.3e-4, 1.0])
    calls += [
        ("doetsch_weight t = 1e-300, 1e-200, 5e-324, 3.3e-4, 1",
         lambda: pf.doetsch_weight(tiny_t)),
        ("pseudoheat_gaussian x = 1 tau = 1e-20, 1e-40, 1e-160, 1e-200",
         lambda: [pf.pseudoheat_gaussian(tau, 1.0) for tau in (1e-20, 1e-40, 1e-160, 1e-200)]),
        ("pseudoheat_gaussian tau = 1 x = 700, 1e50, 1e60, 1e200",
         lambda: [pf.pseudoheat_gaussian(1.0, x) for x in (700.0, 1e50, 1e60, 1e200)]),
        ("pseudoheat_gaussian tau = 1e-20 x = 10", lambda: pf.pseudoheat_gaussian(1e-20, 10.0)),
        ("pseudoheat_gaussian tau = 1e-40 x = 10", lambda: pf.pseudoheat_gaussian(1e-40, 10.0)),
    ]
    # the J0 windows copied a few columns at a time, on a fine grid
    fine_packet = pf.Field.from_function(
        -40.0, 40.0, 4097, lambda x: np.cos(0.3 * x) * np.exp(-((x / 6.0) ** 2))
    )
    wide = pf.Field.from_function(-1e150, 1e150, 16, np.cos)
    calls += [
        ("apply_inv_sqrt_shift 4097 packet on [-40, 40]",
         lambda: pf.apply_inv_sqrt_shift(fine_packet)),
        # refusals that fail fast on every checkout
        ("apply_inv_sqrt_shift 16 on [-1e150, 1e150]", lambda: pf.apply_inv_sqrt_shift(wide)),
        ("iterated_series 512 real tau 1e16", lambda: pf.iterated_series(gauss, 1e16)),
        ("bloch_evolve tau 1e300 dt 1e-300",
         lambda: pf.bloch_evolve((1.0, 0.0, 0.0), 0.5, 1e300, 1e-300)),
    ]
    # H_n(x, y) past float range, an infinite tau and a heat width far below 4 h^2
    narrow = pf.Field.from_function(-8.0, 8.0, 64, lambda x: np.exp(-(x**2)))
    calls += [
        (f"hermite2{args}", lambda args=args: pf.hermite2(*args))
        for args in ((1000, 1e10, 1.0), (2, 1e200, -1e300), (40, 1e10, -1e10), (200, 1e200, -1e200))
    ]
    calls += [
        ("solve_symbol_spectral 64 pseudoheat tau inf",
         lambda: pf.solve_symbol_spectral(narrow, math.inf, pf.SymbolSpec.pseudoheat())),
        ("gauss_weierstrass 64 alpha 1e-320", lambda: pf.gauss_weierstrass(narrow, 1e-320)),
    ]
    # a numpy scalar in H_n's recurrence, R(a) on no a, and each rule on an
    # infinite integrand
    calls += [
        ("hermite2(1000, np.float64(1e10), 1.0)", lambda: pf.hermite2(1000, np.float64(1e10), 1.0)),
        ("r_function(np.array([]))", lambda: pf.r_function(np.array([]))),
    ]
    rules = [(pf.integrate_halfline, {"halfline_rule": rule}) for rule in
             ("gauss_laguerre", "inverse_square_substitution", "adaptive_subdivision")]
    rules += [(pf.integrate_realline, {"realline_rule": rule}) for rule in
              ("gauss_hermite", "truncated_adaptive")]
    for integrate, rule in rules:
        for value in (math.inf, -math.inf, complex(math.inf, 0.0)):
            calls.append((
                f"{integrate.__name__} {next(iter(rule.values()))} f = {value!r}",
                lambda integrate=integrate, rule=rule, value=value: integrate(
                    lambda s: value, pf.QuadratureConfig(**rule)
                ).value,
            ))
    # the spectral routes on data near 1e307, whose transform left float
    # range until the data ran scaled, and the series where its two
    # trapezoid steps disagree
    near_max = pf.Field.from_function(-8.0, 8.0, 128, lambda x: 1e307 * np.exp(-(x**2)))
    calls += [
        ("solve_symbol_spectral 128 pseudoheat 1e307 e^{-x^2} tau 0.5",
         lambda: pf.solve_symbol_spectral(near_max, 0.5, pf.SymbolSpec.pseudoheat())),
        ("dhat_apply 128 spectral 1e307 e^{-x^2}", lambda: pf.dhat_apply(near_max, "spectral")),
        ("series_solution(0.0, 4.0)", lambda: pf.series_solution(0.0, 4.0)),
    ]
    # float edges: the J0 operator at 1e307 and past float range at 1.6e308,
    # the pseudoheat flow near 1.6e308 and the affine flow at 1e307, whose
    # result is past float range on [-8, 8] and solves on [-2, 14]
    def edge(scale, x_min, x_max, n, width):
        data = lambda x: scale * np.exp(-((x / width) ** 2))
        return pf.Field.from_function(x_min, x_max, n, data)

    calls += [
        (f"apply_inv_sqrt_shift 64 {s:g} e^{{-(x/2)^2}}",
         lambda s=s: pf.apply_inv_sqrt_shift(edge(s, -8.0, 8.0, 64, 2.0)))
        for s in (1e307, 1.6e308)
    ]
    calls.append((
        "solve_pseudoheat 64 on [-4, 4] 1.6e308 e^{-(x/3)^2} tau 0.5",
        lambda: pf.solve_pseudoheat(edge(1.6e308, -4.0, 4.0, 64, 3.0), 0.5),
    ))
    calls += [
        (f"solve_affine_sqrt {n} on [{lo:g}, {hi:g}] 1e307 e^{{-(x/2)^2}} c {c:g} tau 0.5",
         lambda c=c, grid=(lo, hi, n): pf.solve_affine_sqrt(edge(1e307, *grid, 2.0), 0.5, c))
        for lo, hi, n in ((-8.0, 8.0, 64), (-2.0, 14.0, 161)) for c in (1.0, -1.0)
    ]
    # each refusal of a result past float range, by its message
    coarse = (-50.0, 50.0, 64)

    def largest(x_min, x_max, n):
        return pf.Field.from_function(x_min, x_max, n, lambda x: np.full_like(x, np.finfo(float).max))

    physical = dict(sigma=1e200, a=1.0, t=1e200, units="physical", c=1e200, lambda_c=1e200)
    refusals = [
        ("PauliVector(1e308, (0, 0, 1e308)).as_mat2()",
         lambda: pf.PauliVector(1e308, (0.0, 0.0, 1e308)).as_mat2()),
        ("pauli_sqrt_identity((1e308, 1e308j, 0))",
         lambda: pf.pauli_sqrt_identity((1e308, 1e308j, 0.0))),
        ("kappa_parametrization((1e308, 1e308, 1e308), 1e308, 'plain_delta')",
         lambda: pf.kappa_parametrization((1e308, 1e308, 1e308), 1e308, "plain_delta")),
        ("dirac4_evolution((1e200, 0, 0), 1)", lambda: pf.dirac4_evolution((1e200, 0.0, 0.0), 1.0)),
        ("commutator_xt_x0 physical sigma 1e200 c 1e200 lambda_c 1e200 t 1e200",
         lambda: pf.commutator_xt_x0(pf.ObservableInputs(**physical))),
        ("laplace_inv_power(50, 1e-8)", lambda: pf.laplace_inv_power(50.0, 1e-8)),
        ("laplace_inv_power(2, 7.458340731200208e-155)",
         lambda: pf.laplace_inv_power(2.0, 7.458340731200208e-155)),
        ("linear_potential_trajectory(0, 1, 1e300, 1e300)",
         lambda: pf.linear_potential_trajectory(0.0, 1.0, 1e300, 1e300)),
        ("gauss_weierstrass 64 on [-50, 50] largest float alpha 0.5",
         lambda: pf.gauss_weierstrass(largest(*coarse), 0.5)),
        ("solve_pseudoheat 161 on [-2, 14] largest float tau 1e-15",
         lambda: pf.solve_pseudoheat(largest(-2.0, 14.0, 161), 1e-15)),
    ]
    calls += [(f"refusal text: {label}", lambda thunk=thunk: refusal_text(thunk))
              for label, thunk in refusals]
    calls += [
        ("gauss_weierstrass 64 on [-50, 50] 1e308 e^{-(x/20)^2} alpha 0.5",
         lambda: pf.gauss_weierstrass(edge(1e308, *coarse, 20.0), 0.5)),
        ("solve_half_derivative 64 on [-8, 8] e^{-x^2} tau 1e-30",
         lambda: pf.solve_half_derivative(narrow, 1e-30)),
    ]
    # an int past float range (or, for pi, whose square is), at the boundary
    big = 10**400
    refusals = [
        ("hermite2(2, 10**400, 0)", lambda: pf.hermite2(2, big, 0)),
        ("laplace_inv_power(1.0, 10**400)", lambda: pf.laplace_inv_power(1.0, big)),
        ("bessel('J0', 10**400)", lambda: pf.bessel("J0", big)),
        ("Field(0.0, 10**400, 8, zeros)", lambda: pf.Field(0.0, big, 8, np.zeros(8))),
        ("dirac2_evolution(10**200, 1.0)", lambda: pf.dirac2_evolution(10**200, 1.0)),
        ("iterated_series 512 real tau 10**400", lambda: pf.iterated_series(gauss, big)),
    ]
    calls += [(f"refusal text: {label}", lambda thunk=thunk: refusal_text(thunk))
              for label, thunk in refusals]
    return calls


def refusal_text(thunk):
    """The UTF-8 bytes of "<type>: <message>" of the exception that
    ``thunk`` raises, as an array, so that its line digests the wording;
    the thunk's own values where it raises nothing."""
    try:
        return thunk()
    except Exception as exc:  # the refusal is the result to compare
        return np.frombuffer(f"{type(exc).__name__}: {exc}".encode(), dtype=np.uint8)


def array_digest(thunk) -> str:
    """SHA-256 of the values that ``thunk`` returns (an array, or a Field's
    values), or "error <type>" where it raises, followed by
    " warned <sha256>" of the warnings' categories and messages where it
    warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = thunk()
            values = getattr(values, "values", values)
            result = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
        except Exception as exc:  # a failure is a result to compare, too
            result = f"error {type(exc).__name__}"
    if caught:
        text = "\n".join(f"{w.category.__name__}: {w.message}" for w in caught)
        result += f" warned {hashlib.sha256(text.encode()).hexdigest()}"
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory holding the pseudoflow package (default: this checkout's src)",
    )
    parser.add_argument(
        "--arrays", action="store_true",
        help="digest the values of library calls that no CLI run writes",
    )
    ns = parser.parse_args()
    sys.path.insert(0, str(Path(ns.src).resolve()))
    if ns.arrays:
        import pseudoflow

        for label, thunk in array_calls(pseudoflow):
            print(f"{array_digest(thunk)}  {label}", flush=True)
        return
    from pseudoflow import cli

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # where IC_FILE_RUNS find their table
        write_ic_table(Path(tmp) / IC_TABLE)
        write_huge_table(Path(tmp) / HUGE_TABLE)
        write_float_edge_table(Path(tmp) / FLOAT_EDGE_TABLE)
        for args in (*runs(cli), *IC_FILE_RUNS, *USAGE_ERRORS, *REFUSALS, *EDGE_RUNS,
                     *PAST_FLOAT_INTS):
            print(f"{'  '.join(digests(cli, args, Path(tmp)))}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()

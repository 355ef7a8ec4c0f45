"""Command-line interface: figure presets plus generic solve / matrix /
observables subcommands, all emitting deterministic CSV.

Output contract: header row, comma separator, LF line endings, floats
rendered with Python's shortest round-trip repr (17 significant digits at
most), complex values as paired ``_re``/``_im`` columns. Two runs with the
same flags produce byte-identical files; results are written to a temporary
file and renamed into place, so a failed run leaves no partial output.

Exit codes: 0 success, 1 usage error (message on stderr), 2 numerical
non-convergence (ConvergenceError/TruncationError; message on stderr).
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import clifford
from .errors import ConvergenceError, TruncationError
from .evolution import (
    SymbolSpec,
    solve_affine_sqrt,
    solve_half_derivative,
    solve_pseudoheat,
    solve_symbol_spectral,
)
from .relativistic import (
    ObservableInputs,
    _commutator,
    _f_values,
    _r_values,
    _series_sum,
    _width_sq,
    phi_transform,
    spectral_schrodinger,
)
from .transforms import Field, gauss_weierstrass

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports flag problems as exit-1 usage errors.

    Also widens argparse's negative-number detection so values like
    ``-8:8:1024`` or ``-1,0,0`` are read as option values, not flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise _UsageError(message)


# ----------------------------------------------------------------------
# small parsing / formatting helpers


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must look like min:max:n, got {text!r}")
    try:
        x_min, x_max, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"grid must look like min:max:n, got {text!r}") from None
    if not (x_min < x_max) or n < 8:
        raise _UsageError("grid needs min < max and n >= 8")
    if not math.isfinite(x_max - x_min):
        raise _UsageError("grid span max - min must be finite")
    # the solvers square both the points and the lags between them
    reach = max(abs(x_min), abs(x_max), x_max - x_min)
    if not math.isfinite(reach * reach):
        raise _UsageError("grid x^2 and span^2 must be finite")
    # the cubic spline's coefficient rows weigh each offset's cube
    step = (x_max - x_min) / (n - 1)
    if not math.isfinite(step * step * step):
        raise _UsageError("grid step^3 must be finite")
    return (x_min, x_max, n)


def _parse_vec(text: str, kind=float, length: int = 3):
    try:
        items = tuple(kind(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"could not parse {text!r} as comma-separated values") from None
    if len(items) != length:
        raise _UsageError(f"expected {length} comma-separated values, got {text!r}")
    return items


def _make_ic(spec: str, grid: tuple):
    """Turn an --ic flag value into initial samples on the grid."""
    x = np.linspace(grid[0], grid[1], grid[2])
    if spec == "gaussian":
        return np.exp(-(x**2))
    if spec.startswith("gaussian(") and spec.endswith(")"):
        try:
            sigma = float(spec[len("gaussian(") : -1])
        except ValueError:
            raise _UsageError(f"bad gaussian width in {spec!r}") from None
        if sigma <= 0:
            raise _UsageError("gaussian width must be positive")
        return np.exp(-((x / sigma) ** 2))
    if spec == "fig3":
        return x**2 * np.exp(-(x**2))
    if spec.startswith("file="):
        return _load_ic_file(spec[len("file=") :], x)
    raise _UsageError(
        f"unknown initial condition {spec!r}; expected gaussian, gaussian(sigma), "
        "fig3 or file=<path>"
    )


def _load_ic_file(path: str, x: np.ndarray) -> np.ndarray:
    """Read a two-column CSV (x, value) and spline it onto the grid.

    Points outside the file's range are taken as zero.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read initial-condition file: {exc}") from None
    rows = []
    for i, ln in enumerate(lines):
        parts = ln.split(",")
        if len(parts) < 2:
            raise _UsageError(f"{path}:{i + 1}: expected two comma-separated columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if i == 0:
                continue  # header row
            raise _UsageError(f"{path}:{i + 1}: non-numeric data") from None
    if len(rows) < 4:
        raise _UsageError(f"{path}: need at least 4 data rows")
    rows.sort()
    xi = np.array([r[0] for r in rows])
    yi = np.array([r[1] for r in rows])
    if np.any(np.diff(xi) <= 0):
        raise _UsageError(f"{path}: x column must be strictly increasing")
    from scipy.interpolate import CubicSpline

    spl = CubicSpline(xi, yi, extrapolate=False)
    vals = spl(x)
    return np.where(np.isnan(vals), 0.0, vals)


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, columns: list) -> int:
    """Write (name, values) columns as the CSV of the module docstring and
    return the row count. Complex values take a name_re/name_im pair;
    floats are written as _fmt writes them, integers as integers."""
    parts = []
    for name, values in columns:
        values = np.asarray(values)
        if np.iscomplexobj(values):
            parts += [(f"{name}_re", values.real), (f"{name}_im", values.imag)]
        else:
            parts.append((name, values))
    rows = [",".join(row) + "\n" for row in zip(*(map(repr, v.tolist()) for _, v in parts))]
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".partial")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(name for name, _ in parts) + "\n")
            fh.writelines(rows)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path given, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    return len(rows)


def _field_err(f: Field) -> float | None:
    err = f.meta.get("quadrature_error")
    return None if err is None else float(err)


# ----------------------------------------------------------------------
# solve dispatch


def _series_field(f0: Field, tau: float) -> Field:
    return f0.with_values(_series_sum(f0.x, tau)[0])


_DEFAULT_METHODS = {
    "heat": "spectral",
    "pseudoheat": "integral",
    "schrodinger": "spectral",
    "half_derivative": "integral",
    "affine_sqrt": "integral",
    "optics": "spectral",
}

# (equation, method) -> solver of (namespace, initial field)
_SOLVERS = {
    ("heat", "spectral"): lambda ns, f0: solve_symbol_spectral(f0, ns.tau, SymbolSpec.heat()),
    ("heat", "integral"): lambda ns, f0: f0 if ns.tau == 0 else gauss_weierstrass(f0, ns.tau),
    ("pseudoheat", "integral"): lambda ns, f0: solve_pseudoheat(f0, ns.tau),
    ("pseudoheat", "spectral"): lambda ns, f0: solve_symbol_spectral(
        f0, ns.tau, SymbolSpec.pseudoheat()
    ),
    ("schrodinger", "spectral"): lambda ns, f0: spectral_schrodinger(f0, ns.tau),
    ("schrodinger", "series"): lambda ns, f0: _series_field(f0, ns.tau),
    ("half_derivative", "integral"): lambda ns, f0: solve_half_derivative(f0, ns.tau),
    ("affine_sqrt", "integral"): lambda ns, f0: solve_affine_sqrt(f0, ns.tau, ns.c),
    ("optics", "spectral"): lambda ns, f0: solve_symbol_spectral(
        f0, ns.tau, SymbolSpec.optics(ns.refractive_index)
    ),
}


def _solver(equation: str, method: str):
    try:
        return _SOLVERS[(equation, method)]
    except KeyError:
        raise _UsageError(f"method {method!r} is not available for equation {equation!r}") from None


# ----------------------------------------------------------------------
# subcommand handlers: each takes the parsed namespace and returns
# ([(column name, values)], err, extra_summary)


def _run_fig1(ns: argparse.Namespace):
    grid, tau = _parse_grid(ns.grid), ns.tau
    if not (math.isfinite(tau) and tau > 0):
        raise _UsageError("--tau must be positive and finite")
    f0 = Field(*grid, _make_ic("gaussian", grid))
    heat = gauss_weierstrass(f0, tau)
    pseudo = solve_pseudoheat(f0, tau)
    columns = [
        ("x", f0.x),
        ("initial", f0.values),
        ("heat", heat.values),
        ("pseudoheat", pseudo.values),
    ]
    return columns, _field_err(pseudo), ""


def _run_fig2(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    f0 = Field(*grid, _make_ic("gaussian", grid))
    solve = _series_field if ns.method == "series" else spectral_schrodinger
    columns = [("x", f0.x)]
    for t in (0.0, 0.5, 1.0):
        columns.append((f"abs_psi_tau_{_fmt(t)}", np.abs(solve(f0, t).values)))
    return columns, None, ""


def _run_fig3(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    psi = Field(*grid, _make_ic("fig3", grid))
    phi = phi_transform(psi)
    return [("x", psi.x), ("psi", psi.values), ("phi", phi.values.real)], _field_err(phi), ""


def _run_fig4(ns: argparse.Namespace):
    if not (math.isfinite(ns.a_max) and ns.a_max > 0):
        raise _UsageError("--a-max must be positive and finite")
    if ns.steps < 2:
        raise _UsageError("--steps must be at least 2")
    a_values = np.linspace(0.0, ns.a_max, ns.steps)
    return [("a", a_values), ("R", _r_values(a_values)), ("F", _f_values(a_values))], None, ""


def _run_solve(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    if ns.tau < 0:
        raise _UsageError("--tau must be nonnegative")
    f0 = Field(grid[0], grid[1], grid[2], _make_ic(ns.ic, grid))
    # both methods are checked before either solve runs
    solve = _solver(ns.equation, ns.method or _DEFAULT_METHODS[ns.equation])
    other = ns.compare
    solve_other = _solver(ns.equation, other) if other else None
    primary = solve(ns, f0)
    columns = [("x", f0.x), ("value", primary.values)]
    extra = ""
    err = _field_err(primary)
    if other:
        secondary = solve_other(ns, f0)
        columns.append((f"{other}_value", secondary.values))
        delta = float(np.max(np.abs(primary.values - secondary.values)))
        extra = f"; max |delta| vs {other} = {_fmt(delta)}"
        err2 = _field_err(secondary)
        if err2 is not None:
            err = err2 if err is None else max(err, err2)
    for w in primary.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return columns, err, extra


_MATRIX_BUILDERS = {
    "generator": lambda p: clifford.generators(p["kind"]),
    "pauli_sqrt": lambda p: clifford.pauli_sqrt_identity(p["v"]),
    "exp_pauli": lambda p: clifford.exp_pauli(p["y"], p["v"]),
    "dirac2": lambda p: clifford.dirac2_evolution(p["pi1"], p["tau"]),
    "dirac4": lambda p: clifford.dirac4_evolution(p["pi3"], p["tau"]),
    "position": lambda p: clifford.position_evolution(
        p["pi1"], p["tau"], p["parametrization"]
    ),
    "sqrt_symbol": lambda p: clifford.sqrt_symbol_check(p["k"]),
    "kappa": lambda p: clifford.kappa_parametrization(p["w"], p["r"], p["variant"]),
    "line_power": lambda p: clifford.pauli_line_power(p["a"], p["b"], p["p"]),
}


def _run_matrix(ns: argparse.Namespace):
    # Every vector and complex flag is parsed, whichever matrix is built, so
    # a malformed value is an error even where the chosen builder ignores it.
    params = dict(
        vars(ns),
        v=_parse_vec(ns.v, complex),
        y=complex(ns.y),
        pi1=float(ns.pi.split(",")[0]),
        pi3=_parse_vec(ns.pi, float) if "," in ns.pi else (float(ns.pi), 0.0, 0.0),
        w=_parse_vec(ns.w, float),
    )
    mat = np.asarray(_MATRIX_BUILDERS[ns.what](params), dtype=complex)
    row, col = np.indices(mat.shape)
    return [("row", row.ravel()), ("col", col.ravel()), ("value", mat.ravel())], None, ""


def _run_observables(ns: argparse.Namespace):
    if ns.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if not (math.isfinite(ns.t_max) and ns.t_max > 0):
        raise _UsageError("--t-max must be positive and finite")
    ts = np.linspace(0.0, ns.t_max, ns.steps)
    inputs = [ObservableInputs(sigma=ns.sigma, a=ns.a, t=float(t)) for t in ts]
    # R(a) and F(a) once, for every t and the summary line
    r, f = (float(factor(np.array([ns.a]))[0]) for factor in (_r_values, _f_values))
    columns = [
        ("t", ts),
        ("width_sq", [_width_sq(inp, r) for inp in inputs]),
        ("commutator_re", np.zeros_like(ts)),
        ("commutator_im", [_commutator(inp, f).imag for inp in inputs]),
    ]
    return columns, None, f"; R(a) = {_fmt(r)}, F(a) = {_fmt(f)}"


_HANDLERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "solve": _run_solve,
    "matrix": _run_matrix,
    "observables": _run_observables,
}


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(prog="pseudoflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, grid_default):
        p.add_argument("--grid", default=grid_default, help="grid as min:max:n")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("fig1", help="heat vs pseudoheat spreading of a Gaussian")
    p.add_argument("--tau", type=float, default=1.0)
    add_common(p, "-8:8:1024")

    p = sub.add_parser("fig2", help="|psi| of the relativistic packet at tau = 0, 0.5, 1")
    p.add_argument("--method", choices=("spectral", "series"), default="spectral")
    add_common(p, "-16:16:512")

    p = sub.add_parser("fig3", help="psi = x^2 e^{-x^2} and its delocalized companion")
    add_common(p, "-12:12:1024")

    p = sub.add_parser("fig4", help="observable correction factors R(a), F(a)")
    p.add_argument("--a-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("solve", help="evolve an initial condition")
    p.add_argument(
        "--equation",
        required=True,
        choices=tuple(_DEFAULT_METHODS),
    )
    p.add_argument("--ic", default="gaussian", help="gaussian | gaussian(sigma) | fig3 | file=<path>")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--method", choices=("integral", "spectral", "series"), default=None)
    p.add_argument("--compare", choices=("integral", "spectral", "series"), default=None)
    p.add_argument("--c", type=float, default=1.0, help="drift coefficient (affine_sqrt)")
    p.add_argument(
        "--refractive-index", type=float, default=2.0, help="refractive index (optics)"
    )
    add_common(p, "-8:8:1024")

    p = sub.add_parser("matrix", help="emit a generator/evolution matrix as CSV")
    p.add_argument("--what", required=True, choices=tuple(_MATRIX_BUILDERS))
    p.add_argument("--kind", default="beta", help="generator name (what=generator)")
    p.add_argument("--v", default="0,0,1", help="3 complex components, comma-separated")
    p.add_argument("--y", default="1", help="complex scalar, e.g. 0.3-0.7j")
    p.add_argument("--pi", default="0.9", help="momentum: scalar, or 3 components for dirac4")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument(
        "--parametrization",
        choices=clifford.POSITION_PARAMETRIZATIONS,
        default="dirac",
    )
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--w", default="1,0,0", help="3 real components, comma-separated")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--variant", choices=clifford.KAPPA_VARIANTS, default="i_delta")
    p.add_argument("--a", type=float, default=1.25)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("observables", help="packet width and commutator vs time")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


def run(args) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(list(args))
        columns, err, extra = _HANDLERS[ns.subcommand](ns)
        n_rows = _write_csv(ns.out, columns)
    except (ConvergenceError, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OSError) as exc:
        # library-level precondition violations are user-input problems
        print(f"error: {exc}", file=sys.stderr)
        return 1
    err_text = "n/a" if err is None else _fmt(err)
    print(
        f"wrote {n_rows} rows to {ns.out}; max quadrature error {err_text}{extra}"
    )
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

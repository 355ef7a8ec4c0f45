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
    commutator_xt_x0,
    f_function,
    packet_width,
    phi_transform,
    r_function,
    series_solution,
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


def _columns_for(values: np.ndarray, name: str):
    """One real column or an _re/_im pair, already formatted."""
    if np.iscomplexobj(values):
        return (
            [f"{name}_re", f"{name}_im"],
            [[_fmt(v) for v in values.real], [_fmt(v) for v in values.imag]],
        )
    return ([name], [[_fmt(v) for v in values]])


def _write_csv(path: str, header: list, columns: list) -> int:
    rows = list(zip(*columns))
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".partial")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(rows)


def _field_err(f: Field) -> float | None:
    err = f.meta.get("quadrature_error", f.meta.get("tail_estimate"))
    return None if err is None else float(err)


# ----------------------------------------------------------------------
# solve dispatch


def _series_field(grid: tuple, tau: float) -> Field:
    x = np.linspace(grid[0], grid[1], grid[2])
    values = np.array([series_solution(float(eta), tau) for eta in x])
    return Field(grid[0], grid[1], grid[2], values)


_DEFAULT_METHODS = {
    "heat": "spectral",
    "pseudoheat": "integral",
    "schrodinger": "spectral",
    "half_derivative": "integral",
    "affine_sqrt": "integral",
    "optics": "spectral",
}

# (equation, method) -> solver of (namespace, grid, initial field)
_SOLVERS = {
    ("heat", "spectral"): lambda ns, grid, f0: solve_symbol_spectral(f0, ns.tau, SymbolSpec.heat()),
    ("heat", "integral"): lambda ns, grid, f0: f0 if ns.tau == 0 else gauss_weierstrass(f0, ns.tau),
    ("pseudoheat", "integral"): lambda ns, grid, f0: solve_pseudoheat(f0, ns.tau),
    ("pseudoheat", "spectral"): lambda ns, grid, f0: solve_symbol_spectral(
        f0, ns.tau, SymbolSpec.pseudoheat()
    ),
    ("schrodinger", "spectral"): lambda ns, grid, f0: spectral_schrodinger(f0, ns.tau),
    ("schrodinger", "series"): lambda ns, grid, f0: _series_field(grid, ns.tau),
    ("half_derivative", "integral"): lambda ns, grid, f0: solve_half_derivative(f0, ns.tau),
    ("half_derivative", "spectral"): lambda ns, grid, f0: solve_symbol_spectral(
        f0, ns.tau, SymbolSpec.half_derivative()
    ),
    ("affine_sqrt", "integral"): lambda ns, grid, f0: solve_affine_sqrt(f0, ns.tau, ns.c),
    ("optics", "spectral"): lambda ns, grid, f0: solve_symbol_spectral(
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
# (header, columns, err, extra_summary)


def _run_fig1(ns: argparse.Namespace):
    grid, tau = _parse_grid(ns.grid), ns.tau
    if not (math.isfinite(tau) and tau > 0):
        raise _UsageError("--tau must be positive and finite")
    f0 = Field.from_function(grid[0], grid[1], grid[2], lambda x: np.exp(-(x**2)))
    heat = gauss_weierstrass(f0, tau)
    pseudo = solve_pseudoheat(f0, tau)
    header = ["x", "initial", "heat", "pseudoheat"]
    cols = [
        [_fmt(v) for v in f0.x],
        [_fmt(v) for v in f0.values],
        [_fmt(v) for v in heat.values],
        [_fmt(v) for v in pseudo.values],
    ]
    return header, cols, _field_err(pseudo), ""


def _run_fig2(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    taus = (0.0, 0.5, 1.0)
    if ns.method == "series":
        fields = [_series_field(grid, t) for t in taus]
    else:
        f0 = Field.from_function(grid[0], grid[1], grid[2], lambda x: np.exp(-(x**2)))
        fields = [spectral_schrodinger(f0, t) for t in taus]
    header = ["x"] + [f"abs_psi_tau_{_fmt(t)}" for t in taus]
    x = np.linspace(grid[0], grid[1], grid[2])
    cols = [[_fmt(v) for v in x]]
    for fld in fields:
        cols.append([_fmt(v) for v in np.abs(fld.values)])
    return header, cols, None, ""


def _run_fig3(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    psi = Field.from_function(
        grid[0], grid[1], grid[2], lambda x: x**2 * np.exp(-(x**2))
    )
    phi = phi_transform(psi)
    header = ["x", "psi", "phi"]
    cols = [
        [_fmt(v) for v in psi.x],
        [_fmt(v) for v in psi.values],
        [_fmt(v) for v in phi.values.real],
    ]
    return header, cols, _field_err(phi), ""


def _run_fig4(ns: argparse.Namespace):
    if ns.a_max <= 0:
        raise _UsageError("--a-max must be positive")
    if ns.steps < 2:
        raise _UsageError("--steps must be at least 2")
    a_values = np.linspace(0.0, ns.a_max, ns.steps)
    r_vals = [r_function(float(a)) for a in a_values]
    f_vals = [f_function(float(a)) for a in a_values]
    header = ["a", "R", "F"]
    cols = [
        [_fmt(v) for v in a_values],
        [_fmt(v) for v in r_vals],
        [_fmt(v) for v in f_vals],
    ]
    return header, cols, None, ""


def _run_solve(ns: argparse.Namespace):
    grid = _parse_grid(ns.grid)
    if ns.tau < 0:
        raise _UsageError("--tau must be nonnegative")
    f0 = Field(grid[0], grid[1], grid[2], _make_ic(ns.ic, grid))
    # both methods are checked before either solve runs
    solve = _solver(ns.equation, ns.method or _DEFAULT_METHODS[ns.equation])
    other = ns.compare
    solve_other = _solver(ns.equation, other) if other else None
    primary = solve(ns, grid, f0)
    header = ["x"]
    x = np.linspace(grid[0], grid[1], grid[2])
    cols = [[_fmt(v) for v in x]]
    names, data = _columns_for(primary.values, "value")
    header += names
    cols += data
    extra = ""
    err = _field_err(primary)
    if other:
        secondary = solve_other(ns, grid, f0)
        names2, data2 = _columns_for(secondary.values, f"{other}_value")
        header += names2
        cols += data2
        delta = float(np.max(np.abs(primary.values - secondary.values)))
        extra = f"; max |delta| vs {other} = {_fmt(delta)}"
        err2 = _field_err(secondary)
        if err2 is not None:
            err = err2 if err is None else max(err, err2)
    for w in primary.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return header, cols, err, extra


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
    mat = _MATRIX_BUILDERS[ns.what](params)
    header = ["row", "col", "value_re", "value_im"]
    rows, cols_, re_, im_ = [], [], [], []
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            rows.append(repr(i))
            cols_.append(repr(j))
            re_.append(_fmt(mat[i, j].real))
            im_.append(_fmt(mat[i, j].imag))
    return header, [rows, cols_, re_, im_], None, ""


def _run_observables(ns: argparse.Namespace):
    if ns.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if ns.t_max <= 0:
        raise _UsageError("--t-max must be positive")
    ts = np.linspace(0.0, ns.t_max, ns.steps)
    widths, comm_im = [], []
    for t in ts:
        inp = ObservableInputs(sigma=ns.sigma, a=ns.a, t=float(t))
        widths.append(packet_width(inp))
        comm_im.append(commutator_xt_x0(inp).imag)
    header = ["t", "width_sq", "commutator_re", "commutator_im"]
    cols = [
        [_fmt(v) for v in ts],
        [_fmt(v) for v in widths],
        [_fmt(0.0) for _ in ts],
        [_fmt(v) for v in comm_im],
    ]
    extra = f"; R(a) = {_fmt(r_function(ns.a))}, F(a) = {_fmt(f_function(ns.a))}"
    return header, cols, None, extra


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
        choices=(
            "heat",
            "pseudoheat",
            "schrodinger",
            "half_derivative",
            "affine_sqrt",
            "optics",
        ),
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
        header, cols, err, extra = _HANDLERS[ns.subcommand](ns)
        n_rows = _write_csv(ns.out, header, cols)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # library-level precondition violations are user-input problems
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, TruncationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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

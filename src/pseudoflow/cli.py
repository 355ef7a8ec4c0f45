"""Command-line interface: figure presets plus generic solve / matrix /
observables subcommands, all emitting deterministic CSV.

Output contract: header row, comma separator, LF line endings, floats
rendered with Python's shortest round-trip repr (17 significant digits at
most), complex values as paired ``_re``/``_im`` columns. Two runs with the
same flags produce byte-identical files; results are written to a temporary
file and renamed into place, so a failed run leaves no partial output.

Exit codes: 0 success, 1 usage error (message on stderr), 2 numerical
non-convergence (ConvergenceError/TruncationError; message on stderr).

Each flag is read and range-checked once, by the argparse type it is
declared with, against the library's own domain table (``_choices``): in
argv order, then the defaults, whichever subcommand or equation uses it,
and a refusal names its flag. The only checks left for later are of pairs
of flags: the equation and its method in ``solve``, the series method and
its ``--ic``, and a > |b| in ``pauli_line_power``. This module imports no
numpy, and handlers reach the solvers through the package's lazy
namespace, so a refused invocation answers in about the start-up time of
the interpreter.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import tempfile

import pseudoflow as pf

from ._choices import GENERATOR_KINDS, KAPPA_VARIANTS, POSITION_PARAMETRIZATIONS, _finite, require
from .errors import ConvergenceError, TruncationError

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
# flag types: argparse reads and range-checks each flag once, before numpy loads

def _number(flag: str, domain: str = "finite", kind=float):
    """argparse type: the text read by ``kind``, as ``require`` accepts it."""
    def read(text: str):
        value = kind(text)
        try:
            return require(domain, **{flag: value})
        except ValueError as exc:  # argparse would report "invalid float value"
            raise _UsageError(exc) from None

    read.__name__ = kind.__name__  # argparse reports "invalid float value: ..."
    return read


def _parse_vec(flag: str, kind=float, scalar: bool = False):
    """argparse type for three comma-separated values, each read as _number
    reads it; with ``scalar``, one value v stands for (v, 0, 0)."""
    def read(text: str) -> tuple:
        items = tuple(map(_number(flag, kind=kind), text.split(",")))
        if len(items) != 3 and not (scalar and len(items) == 1):
            raise _UsageError(f"{flag}: expected 3 comma-separated values, got {text!r}")
        return (*items, 0.0, 0.0) if len(items) == 1 else items

    read.__name__ = kind.__name__
    return read


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must look like min:max:n, got {text!r}")
    try:
        x_min, x_max, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"grid must look like min:max:n, got {text!r}") from None
    if not _finite(n):  # the step (max - min) / (n - 1) needs n as a float
        raise _UsageError("grid n must be an integer below 2^1024")
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


def _parse_ic(spec: str) -> tuple:
    """argparse type for --ic. Returns ("gaussian", width), ("fig3", None)
    or ("file", sorted (x, value) rows)."""
    if spec == "gaussian":
        return ("gaussian", 1.0)  # x / 1.0 is x, bit for bit
    if spec.startswith("gaussian(") and spec.endswith(")"):
        width = _number("--ic gaussian width", "positive and finite")
        try:
            return ("gaussian", width(spec[len("gaussian(") : -1]))
        except ValueError:
            raise _UsageError(f"bad gaussian width in {spec!r}") from None
    if spec == "fig3":
        return ("fig3", None)
    if spec.startswith("file="):
        return ("file", _read_ic_file(spec[len("file=") :]))
    raise _UsageError(
        f"unknown initial condition {spec!r}; expected gaussian, gaussian(sigma), "
        "fig3 or file=<path>"
    )


def _read_ic_file(path: str) -> list:
    """Read a two-column CSV of finite (x, value) rows, sorted by x."""
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
            row = (float(parts[0]), float(parts[1]))
        except ValueError:
            if i == 0:
                continue  # header row
            raise _UsageError(f"{path}:{i + 1}: non-numeric data") from None
        if not all(map(math.isfinite, row)):
            raise _UsageError(f"{path}:{i + 1}: x and value must be finite")
        rows.append(row)
    if len(rows) < 4:
        raise _UsageError(f"{path}: need at least 4 data rows")
    rows.sort()
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise _UsageError(f"{path}: x column must be strictly increasing")
    return rows


def _make_ic(ic: tuple, grid: tuple):
    """Initial samples on the grid for a checked --ic value. A file's rows
    are splined onto the grid, and points outside their range are zero."""
    import numpy as np

    kind, arg = ic
    x = np.linspace(grid[0], grid[1], grid[2])
    if kind == "gaussian":
        return np.exp(-((x / arg) ** 2))
    if kind == "fig3":
        return x**2 * np.exp(-(x**2))
    from .evolution import _coefficients
    from .transforms import _homogeneous

    xi, yi = (np.array(column) for column in zip(*arg))
    inside = (xi[0] <= x) & (x <= xi[-1])
    # the cell at or left of each point, the last one closed on the right
    cell = np.minimum(np.searchsorted(xi, x[inside], side="right") - 1, xi.size - 2)
    s = x[inside] - xi[cell]

    def spline(y: np.ndarray) -> np.ndarray:
        c = _coefficients(xi, y)[:, cell]
        # summed from 0.0 in CubicSpline's own order, so the values equal its values bit for bit
        vals = np.zeros_like(x)
        vals[inside] = 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)
        return vals

    # the spline is linear in the values: a table near the largest float is
    # splined scaled, as every field route runs its data
    return _homogeneous(spline, yi, "the cubic spline through the data")


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, columns: list) -> int:
    """Write (name, values) columns as the CSV of the module docstring and
    return the row count. Complex values take a name_re/name_im pair;
    floats are written as _fmt writes them, integers as integers."""
    import numpy as np

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


def _field_err(f: pf.Field) -> float | None:
    err = f.meta.get("quadrature_error")
    return None if err is None else float(err)


# ----------------------------------------------------------------------
# solve dispatch


# (equation, method) -> solver of (initial field, tau, namespace): the one
# declaration of the CLI's routes. An equation's first row is its default
# method; solve's and fig2's choices, and the fig1 and fig2 solves, read it.
_SOLVERS = {
    ("heat", "spectral"): lambda f0, tau, ns: pf.solve_symbol_spectral(
        f0, tau, pf.SymbolSpec.heat()
    ),
    ("heat", "integral"): lambda f0, tau, ns: f0 if tau == 0 else pf.gauss_weierstrass(f0, tau),
    ("pseudoheat", "integral"): lambda f0, tau, ns: pf.solve_pseudoheat(f0, tau),
    ("pseudoheat", "spectral"): lambda f0, tau, ns: pf.solve_symbol_spectral(
        f0, tau, pf.SymbolSpec.pseudoheat()
    ),
    ("schrodinger", "spectral"): lambda f0, tau, ns: pf.spectral_schrodinger(f0, tau),
    ("schrodinger", "series"): lambda f0, tau, ns: f0.with_values(pf.series_solution(f0.x, tau)),
    ("half_derivative", "integral"): lambda f0, tau, ns: pf.solve_half_derivative(f0, tau),
    ("affine_sqrt", "integral"): lambda f0, tau, ns: pf.solve_affine_sqrt(f0, tau, ns.c),
    ("optics", "spectral"): lambda f0, tau, ns: pf.solve_symbol_spectral(
        f0, tau, pf.SymbolSpec.optics(ns.refractive_index)
    ),
}
# each equation's methods in table order, its default first
_METHODS = {eq: tuple(m for e, m in _SOLVERS if e == eq) for eq, _ in _SOLVERS}


def _solver(equation: str, method: str):
    try:
        return _SOLVERS[(equation, method)]
    except KeyError:
        raise _UsageError(f"method {method!r} is not available for equation {equation!r}") from None


# ----------------------------------------------------------------------
# subcommand handlers: each computes from flags the parser has checked and
# returns ([(column name, values)], err, extra_summary)


def _run_fig1(ns: argparse.Namespace):
    f0 = pf.Field(*ns.grid, _make_ic(_parse_ic("gaussian"), ns.grid))
    heat = _SOLVERS["heat", "integral"](f0, ns.tau, ns)
    pseudo = _SOLVERS["pseudoheat", "integral"](f0, ns.tau, ns)
    columns = [
        ("x", f0.x),
        ("initial", f0.values),
        ("heat", heat.values),
        ("pseudoheat", pseudo.values),
    ]
    return columns, _field_err(pseudo), ""


def _run_fig2(ns: argparse.Namespace):
    import numpy as np

    f0 = pf.Field(*ns.grid, _make_ic(_parse_ic("gaussian"), ns.grid))
    solve = _SOLVERS["schrodinger", ns.method]
    columns = [("x", f0.x)]
    for t in (0.0, 0.5, 1.0):
        columns.append((f"abs_psi_tau_{_fmt(t)}", np.abs(solve(f0, t, ns).values)))
    return columns, None, ""


def _run_fig3(ns: argparse.Namespace):
    psi = pf.Field(*ns.grid, _make_ic(_parse_ic("fig3"), ns.grid))
    phi = pf.phi_transform(psi)
    return [("x", psi.x), ("psi", psi.values), ("phi", phi.values.real)], _field_err(phi), ""


def _run_fig4(ns: argparse.Namespace):
    import numpy as np

    a_values = np.linspace(0.0, ns.a_max, ns.steps)
    columns = [("a", a_values), ("R", pf.r_function(a_values)), ("F", pf.f_function(a_values))]
    return columns, None, ""


def _run_solve(ns: argparse.Namespace):
    # both methods, and the initial condition they take, are checked before either solve runs
    method, other = ns.method or _METHODS[ns.equation][0], ns.compare
    solve = _solver(ns.equation, method)
    solve_other = _solver(ns.equation, other) if other else None
    if "series" in (method, other) and ns.ic != ("gaussian", 1.0):
        raise _UsageError("--ic must be gaussian or gaussian(1) for the series method of e^{-x^2}")
    import numpy as np

    f0 = pf.Field(*ns.grid, _make_ic(ns.ic, ns.grid))
    primary = solve(f0, ns.tau, ns)
    columns = [("x", f0.x), ("value", primary.values)]
    extra = ""
    err = _field_err(primary)
    if other:
        secondary = solve_other(f0, ns.tau, ns)
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
    "generator": lambda ns: pf.generators(ns.kind),
    "pauli_sqrt": lambda ns: pf.pauli_sqrt_identity(ns.v),
    "exp_pauli": lambda ns: pf.exp_pauli(ns.y, ns.v),
    "dirac2": lambda ns: pf.dirac2_evolution(ns.pi[0], ns.tau),
    "dirac4": lambda ns: pf.dirac4_evolution(ns.pi, ns.tau),
    "position": lambda ns: pf.position_evolution(ns.pi[0], ns.tau, ns.parametrization),
    "sqrt_symbol": lambda ns: pf.sqrt_symbol_check(ns.k),
    "kappa": lambda ns: pf.kappa_parametrization(ns.w, ns.r, ns.variant),
    "line_power": lambda ns: pf.pauli_line_power(ns.a, ns.b, ns.p),
}


def _run_matrix(ns: argparse.Namespace):
    import numpy as np

    mat = np.asarray(_MATRIX_BUILDERS[ns.what](ns), dtype=complex)
    row, col = np.indices(mat.shape)
    return [("row", row.ravel()), ("col", col.ravel()), ("value", mat.ravel())], None, ""


def _run_observables(ns: argparse.Namespace):
    import numpy as np

    from .relativistic import _commutator, _width_sq

    ts = np.linspace(0.0, ns.t_max, ns.steps)
    inputs = [pf.ObservableInputs(sigma=ns.sigma, a=ns.a, t=float(t)) for t in ts]
    # R(a) and F(a) once, for every t and the summary line
    r, f = pf.r_function(ns.a), pf.f_function(ns.a)
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
        p.add_argument("--grid", type=_parse_grid, default=grid_default, help="grid as min:max:n")
        p.add_argument("--out", required=True, help="output CSV path")

    def number(p, flag, default, domain="finite", kind=float, **kwargs):
        p.add_argument(flag, type=_number(flag, domain, kind), default=default, **kwargs)

    p = sub.add_parser("fig1", help="heat vs pseudoheat spreading of a Gaussian")
    number(p, "--tau", 1.0, "positive and finite")
    add_common(p, "-8:8:1024")

    p = sub.add_parser("fig2", help="|psi| of the relativistic packet at tau = 0, 0.5, 1")
    methods = _METHODS["schrodinger"]
    p.add_argument("--method", choices=methods, default=methods[0])
    add_common(p, "-16:16:512")

    p = sub.add_parser("fig3", help="psi = x^2 e^{-x^2} and its delocalized companion")
    add_common(p, "-12:12:1024")

    p = sub.add_parser("fig4", help="observable correction factors R(a), F(a)")
    number(p, "--a-max", 5.0, "positive and finite")
    number(p, "--steps", 100, "at least 2", int)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("solve", help="evolve an initial condition")
    p.add_argument("--equation", required=True, choices=tuple(_METHODS))
    ic_help = "gaussian | gaussian(sigma) | fig3 | file=<path>"
    p.add_argument("--ic", type=_parse_ic, default="gaussian", help=ic_help)
    number(p, "--tau", None, "nonnegative and finite", required=True)
    methods = tuple(dict.fromkeys(m for _, m in _SOLVERS))
    p.add_argument("--method", choices=methods, default=None)
    p.add_argument("--compare", choices=methods, default=None)
    number(p, "--c", 1.0, help="drift coefficient (affine_sqrt)")
    n_help = "refractive index (optics)"
    number(p, "--refractive-index", 2.0, "finite with a finite square", help=n_help)
    add_common(p, "-8:8:1024")

    p = sub.add_parser("matrix", help="emit a generator/evolution matrix as CSV")
    p.add_argument("--what", required=True, choices=tuple(_MATRIX_BUILDERS))
    kind_help = "generator name (what=generator)"
    p.add_argument("--kind", choices=GENERATOR_KINDS, default="beta", help=kind_help)
    v_help = "3 complex components, comma-separated"
    p.add_argument("--v", type=_parse_vec("--v", complex), default="0,0,1", help=v_help)
    number(p, "--y", "1", kind=complex, help="complex scalar, e.g. 0.3-0.7j")
    pi_help = "momentum: scalar, or 3 components for dirac4"
    p.add_argument("--pi", type=_parse_vec("--pi", scalar=True), default="0.9", help=pi_help)
    number(p, "--tau", 1.0)
    p.add_argument(
        "--parametrization",
        choices=POSITION_PARAMETRIZATIONS,
        default="dirac",
    )
    number(p, "--k", 1.0)
    w_help = "3 real components, comma-separated"
    p.add_argument("--w", type=_parse_vec("--w"), default="1,0,0", help=w_help)
    number(p, "--r", 1.0)
    p.add_argument("--variant", choices=KAPPA_VARIANTS, default="i_delta")
    number(p, "--a", 1.25)
    number(p, "--b", 0.75)
    number(p, "--p", 0.5)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("observables", help="packet width and commutator vs time")
    number(p, "--sigma", 1.0, "positive and finite")
    a_help = "Compton wavelength / sigma: 1/sigma for the mass-1 flow's packet"
    number(p, "--a", 1.0, "positive and finite", help=a_help)
    number(p, "--t-max", 5.0, "positive and finite")
    number(p, "--steps", 50, "at least 2", int)
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

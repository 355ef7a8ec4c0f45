"""End-to-end CLI runs: CSV contract, exit codes, determinism."""
import csv
import hashlib
import importlib.util
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudoflow
from conftest import PACKAGE_ROOT, child_env
from pseudoflow import cli

CMD = [sys.executable, "-m", "pseudoflow"]


def run_cli(tmp_path, *args):
    return subprocess.run(
        [*CMD, *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )


def test_subprocess_imports_the_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import pseudoflow; print(pseudoflow.__file__)"],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(pseudoflow.__file__).resolve()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {
        name: np.array([float(row[i]) for row in data])
        for i, name in enumerate(header)
    }
    return header, cols


def no_partials(tmp_path):
    return [p.name for p in tmp_path.iterdir() if p.name.endswith(".partial")] == []


# ----------------------------------------------------------------------
# figure presets


def test_fig4_columns_values_and_float_format(tmp_path):
    out = tmp_path / "fig4.csv"
    proc = run_cli(tmp_path, "fig4", "--a-max", "5", "--steps", "10", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"wrote 10 rows to {out}")
    header, cols = read_csv(out)
    assert header == ["a", "R", "F"]
    assert cols["a"][0] == 0.0
    assert cols["R"][0] == pytest.approx(1.0, rel=1e-12)
    assert cols["F"][0] == pytest.approx(1.0, rel=1e-12)
    for name in ("R", "F"):
        assert np.all(np.diff(cols[name]) < 0)
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    # every cell is the shortest round-trip decimal for its float
    for line in raw.decode().strip().splitlines()[1:]:
        for cell in line.split(","):
            assert repr(float(cell)) == cell


def test_fig1_peak_ordering_and_determinism(tmp_path):
    outs = [tmp_path / "fig1_a.csv", tmp_path / "fig1_b.csv"]
    for out in outs:
        proc = run_cli(tmp_path, "fig1", "--tau", "1.0", "--grid", "-10:10:129", "--out", out)
        assert proc.returncode == 0
        assert re.match(
            r"wrote 129 rows to .*; max quadrature error \d", proc.stdout
        )
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header, cols = read_csv(outs[0])
    assert header == ["x", "initial", "heat", "pseudoheat"]
    assert cols["pseudoheat"].max() < cols["heat"].max() < cols["initial"].max()


def test_fig2_spectral_columns(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = run_cli(tmp_path, "fig2", "--grid", "-16:16:128", "--out", out)
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["x", "abs_psi_tau_0.0", "abs_psi_tau_0.5", "abs_psi_tau_1.0"]
    np.testing.assert_allclose(
        cols["abs_psi_tau_0.0"], np.exp(-cols["x"] ** 2), rtol=0, atol=1e-12
    )
    peaks = [cols[f"abs_psi_tau_{t}"].max() for t in ("0.0", "0.5", "1.0")]
    assert peaks[0] > peaks[1] > peaks[2]


def test_fig2_series_is_deterministic(tmp_path):
    outs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for out in outs:
        proc = run_cli(
            tmp_path, "fig2", "--method", "series", "--grid", "-16:16:32", "--out", out
        )
        assert proc.returncode == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_series_route_takes_gaussian_of_width_one(tmp_path):
    # gaussian(1) is the unit Gaussian the series route sums, bit for bit
    digests = []
    for ic in ("gaussian", "gaussian(1)", "gaussian(1e0)"):
        out = tmp_path / "series.csv"
        args = ("solve", "--equation", "schrodinger", "--method", "series", "--ic", ic)
        proc = run_cli(tmp_path, *args, "--tau", "0.5", "--grid", "-8:8:32", "--out", out)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(set(digests)) == 1


def test_fig2_series_default_grid_matches_spectral(tmp_path):
    outs = {m: tmp_path / f"{m}.csv" for m in ("series", "spectral")}
    for method, out in outs.items():
        proc = run_cli(tmp_path, "fig2", "--method", method, "--out", out)
        assert proc.returncode == 0, proc.stderr
    (header, series), (_, spectral) = (read_csv(out) for out in outs.values())
    assert len(series["x"]) == 512
    for name in header[1:]:
        np.testing.assert_allclose(series[name], spectral[name], rtol=0, atol=1e-8)


def test_fig3_delocalization(tmp_path):
    out = tmp_path / "fig3.csv"
    proc = run_cli(tmp_path, "fig3", "--grid", "-12:12:256", "--out", out)
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["x", "psi", "phi"]
    x = cols["x"]
    np.testing.assert_allclose(cols["psi"], x**2 * np.exp(-(x**2)), rtol=0, atol=1e-12)

    def second_moment(w):
        return np.trapezoid(x**2 * np.abs(w), x) / np.trapezoid(np.abs(w), x)

    assert second_moment(cols["phi"]) > second_moment(cols["psi"])


# ----------------------------------------------------------------------
# solve


def test_solve_compare_reports_cross_method_delta(tmp_path):
    out = tmp_path / "cmp.csv"
    proc = run_cli(
        tmp_path,
        "solve", "--equation", "pseudoheat", "--tau", "0.5",
        "--method", "integral", "--compare", "spectral",
        "--grid", "-16:16:256", "--out", out,
    )
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["x", "value", "spectral_value_re", "spectral_value_im"]
    m = re.search(r"max \|delta\| vs spectral = (\S+)$", proc.stdout.strip())
    assert m is not None
    assert float(m.group(1)) <= 1e-6
    assert float(np.max(np.abs(cols["value"] - cols["spectral_value_re"]))) <= 1e-6


def test_solve_compare_pairs_a_complex_primary_with_a_real_secondary(tmp_path):
    # spectral heat is complex and the Gauss-Weierstrass integral real; each
    # column keeps its own form, in the order the methods were named
    out = tmp_path / "cmp.csv"
    args = ["solve", "--equation", "heat", "--method", "spectral", "--compare", "integral"]
    assert cli.run([*args, "--tau", "0.5", "--grid", "-8:8:64", "--out", str(out)]) == 0
    header, cols = read_csv(out)
    assert header == ["x", "value_re", "value_im", "integral_value"]
    np.testing.assert_allclose(cols["value_re"], cols["integral_value"], rtol=0, atol=1e-9)


def test_solve_heat_matches_closed_form(tmp_path):
    out = tmp_path / "heat.csv"
    proc = run_cli(
        tmp_path,
        "solve", "--equation", "heat", "--tau", "0.5", "--grid", "-8:8:128", "--out", out,
    )
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["x", "value_re", "value_im"]
    exact = np.exp(-cols["x"] ** 2 / 3.0) / math.sqrt(3.0)
    np.testing.assert_allclose(cols["value_re"], exact, rtol=0, atol=1e-9)
    np.testing.assert_allclose(cols["value_im"], 0.0, rtol=0, atol=1e-12)


def test_solve_affine_zero_drift_is_pointwise_multiplier(tmp_path):
    out = tmp_path / "aff.csv"
    proc = run_cli(
        tmp_path,
        "solve", "--equation", "affine_sqrt", "--tau", "0.7", "--c", "0",
        "--grid", "0:12:97", "--out", out,
    )
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["x", "value"]
    x = cols["x"]
    exact = np.exp(-0.7 * np.sqrt(x)) * np.exp(-(x**2))
    np.testing.assert_allclose(cols["value"], exact, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tau", ["0.5", "1"])
def test_solve_affine_negative_drift_converges(tmp_path, tau):
    # Gaussian data reaching x_min = -6 meet a shift to the left
    out = tmp_path / "aff.csv"
    proc = run_cli(
        tmp_path,
        "solve", "--equation", "affine_sqrt", "--tau", tau, "--c", "-1",
        "--grid", "-6:10:161", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    _, cols = read_csv(out)
    assert np.all(np.isfinite(cols["value"]))


def test_solve_file_initial_condition_round_trip(tmp_path):
    xi = np.linspace(-3.0, 3.0, 25)
    yi = np.exp(-(xi**2))
    ic_path = tmp_path / "ic.csv"
    with open(ic_path, "w") as fh:
        fh.write("x,value\n")  # header row is tolerated
        for a, b in zip(xi, yi):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    out = tmp_path / "rt.csv"
    # the heat integral at tau = 0 writes the initial samples as they are
    proc = run_cli(
        tmp_path,
        "solve", "--equation", "heat", "--method", "integral", "--tau", "0",
        "--ic", f"file={ic_path}", "--grid", "-3:3:32", "--out", out,
    )
    assert proc.returncode == 0
    _, cols = read_csv(out)
    from scipy.interpolate import CubicSpline

    ref = np.nan_to_num(CubicSpline(xi, yi, extrapolate=False)(cols["x"]))
    assert np.array_equal(cols["value"], ref)


@pytest.mark.parametrize(
    "xi, yi",
    [
        (np.linspace(-3.0, 3.0, 25), np.exp(-np.linspace(-3.0, 3.0, 25) ** 2)),
        (np.array([-2.0, -0.5, 0.1, 1.7, 4.0]), np.array([1.0, -3.0, 0.5, 2.0, -1.0])),
        # -0.0 at a knot with every row negative: CubicSpline sums from +0.0
        (np.arange(5.0), np.array([-0.0, -3.0, -14.0, -39.0, -84.0])),
    ],
)
def test_file_initial_condition_is_cubic_spline_bit_for_bit(xi, yi):
    from scipy.interpolate import CubicSpline

    for grid in ((-4.0, 5.0, 64), (float(xi[0]), float(xi[-1]), 9)):
        got = cli._make_ic(("file", list(zip(xi.tolist(), yi.tolist()))), grid)
        ref = np.nan_to_num(CubicSpline(xi, yi, extrapolate=False)(np.linspace(*grid)))
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("row", ["nan,0.5", "0.5,inf"])
def test_ic_file_refuses_nonfinite_rows_before_numpy_loads(tmp_path, row):
    # the parser reads the file, so a non-finite x or value is refused by
    # file and line before the spline or numpy sees it
    (tmp_path / "ic.csv").write_text(f"x,value\n-1,0\n{row}\n1,0\n2,1\n3,0\n")
    args = ["solve", "--equation", "heat", "--tau", "0", "--ic", "file=ic.csv", "--out", "x.csv"]
    [(_what, rc, modules)] = _probe_imports(tmp_path, "numpy", [args])[1:-1]
    assert (rc, modules) == (1, [])
    proc = run_cli(tmp_path, *args)
    assert proc.returncode == 1
    assert proc.stderr == "error: ic.csv:3: x and value must be finite\n"


def test_solve_divergent_case_exits_2_without_partial_output(tmp_path):
    out = tmp_path / "div.csv"
    for args in (
        ("--equation", "affine_sqrt", "--tau", "1.0", "--c", "0", "--grid", "-8:8:64"),
        # tau^2 overflows: a failed series, not a traceback
        ("--equation", "schrodinger", "--method", "series", "--tau", "1e200",
         "--grid", "-2:2:16"),
    ):
        proc = run_cli(tmp_path, "solve", *args, "--out", out)
        assert proc.returncode == 2
        # one message, and no numpy floating-point warnings before it
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numerical failure:")
        assert not out.exists()
        assert no_partials(tmp_path)


def test_solve_compare_checks_both_methods_before_solving(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        pseudoflow, "solve_affine_sqrt", lambda f, tau, c: calls.append(tau) or f
    )
    out = tmp_path / "never.csv"
    code = cli.run(
        ["solve", "--equation", "affine_sqrt", "--tau", "0.6", "--compare", "spectral",
         "--out", str(out)]
    )
    assert code == 1
    assert calls == []
    assert "method 'spectral' is not available for equation 'affine_sqrt'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("--equation", "half_derivative", "--tau", "1e-300"),
        ("--equation", "affine_sqrt", "--c", "-1", "--tau", "1e-300"),
        ("--equation", "pseudoheat", "--tau", "1e-160"),
    ],
)
def test_solve_at_tiny_tau_writes_the_input(tmp_path, capsys, args):
    # the flow is the identity to rounding where its quadrature leaves float
    # range: exit 0, no warning, and the initial values written back
    out = tmp_path / "tiny.csv"
    assert cli.run(["solve", *args, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, cols = read_csv(out)
    assert header == ["x", "value"]
    assert np.array_equal(cols["value"], np.exp(-(cols["x"] ** 2)))


# the CLI's routes, grouped by equation, as its solver table lists them
_ROUTES = {eq: [m for e, m in cli._SOLVERS if e == eq] for eq, _ in cli._SOLVERS}
# the largest gap between two routes of an equation over the grids below,
# measured 5.6e-16 (heat), 1.24e-13 (pseudoheat) and 1.23e-10 (schrodinger,
# where the series stops at its 1e-9 tail test)
_ROUTE_GAPS = {"heat": 1e-15, "pseudoheat": 2e-13, "schrodinger": 2e-10}


@pytest.mark.parametrize("equation", [eq for eq, methods in _ROUTES.items() if len(methods) > 1])
def test_every_pair_of_routes_meets_on_every_grid(equation):
    # each equation the CLI solves two or more ways is solved each way, from
    # the default initial condition e^{-x^2} (the series route assumes it),
    # on power-of-two grids and others; a route listed in the table is
    # checked here, and an equation that gains a second route needs a bound
    parser = cli._build_parser()
    gap = 0.0
    for grid in ("-8:8:128", "-8:8:161", "-12:12:200", "-16:16:256", "-16:16:997"):
        argv = ["solve", "--equation", equation, "--tau", "0.5", "--grid", grid, "--out", "x.csv"]
        ns = parser.parse_args(argv)
        f0 = pseudoflow.Field(*ns.grid, cli._make_ic(ns.ic, ns.grid))
        values = [cli._SOLVERS[equation, m](f0, ns.tau, ns).values for m in _ROUTES[equation]]
        for a, b in itertools.combinations(values, 2):
            gap = max(gap, float(np.max(np.abs(a - b))))
    assert gap <= _ROUTE_GAPS[equation]


def test_parser_choices_are_the_route_tables_keys():
    # solve's and fig2's choices and defaults are read from the route table,
    # so a new row is at once a choice, a route-walk pair and a digest run
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "subcommand").choices

    def action(subcommand, dest):
        return next(a for a in subparsers[subcommand]._actions if a.dest == dest)

    methods = tuple(dict.fromkeys(m for _, m in cli._SOLVERS))
    assert action("solve", "equation").choices == tuple(_ROUTES)
    assert action("solve", "method").choices == methods
    assert action("solve", "compare").choices == methods
    assert set(methods) == {"spectral", "integral", "series"}
    assert action("fig2", "method").choices == tuple(_ROUTES["schrodinger"])
    assert action("fig2", "method").default == _ROUTES["schrodinger"][0] == "spectral"
    assert {eq: cli._METHODS[eq][0] for eq in _ROUTES} == {
        "heat": "spectral",
        "pseudoheat": "integral",
        "schrodinger": "spectral",
        "half_derivative": "integral",
        "affine_sqrt": "integral",
        "optics": "spectral",
    }


# ----------------------------------------------------------------------
# matrix / observables


def test_matrix_generator_csv(tmp_path):
    out = tmp_path / "delta.csv"
    proc = run_cli(tmp_path, "matrix", "--what", "generator", "--kind", "delta", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout.startswith("wrote 16 rows")
    header, cols = read_csv(out)
    assert header == ["row", "col", "value_re", "value_im"]
    mat = np.zeros((4, 4), dtype=complex)
    for r, c, re_, im_ in zip(cols["row"], cols["col"], cols["value_re"], cols["value_im"]):
        mat[int(r), int(c)] = re_ + 1j * im_
    want = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    assert np.array_equal(mat, want)


def test_matrix_pauli_sqrt_csv(tmp_path):
    out = tmp_path / "n.csv"
    proc = run_cli(tmp_path, "matrix", "--what", "pauli_sqrt", "--v", "3,4,0", "--out", out)
    assert proc.returncode == 0
    _, cols = read_csv(out)
    mat = np.zeros((2, 2), dtype=complex)
    for r, c, re_, im_ in zip(cols["row"], cols["col"], cols["value_re"], cols["value_im"]):
        mat[int(r), int(c)] = re_ + 1j * im_
    assert np.array_equal(mat, np.array([[0, 3 - 4j], [3 + 4j, 0]]))
    assert np.array_equal(mat @ mat, 25.0 * np.eye(2))


def test_observables_output(tmp_path):
    out = tmp_path / "obs.csv"
    proc = run_cli(
        tmp_path,
        "observables", "--sigma", "1.0", "--a", "1.0", "--t-max", "2.0",
        "--steps", "5", "--out", out,
    )
    assert proc.returncode == 0
    header, cols = read_csv(out)
    assert header == ["t", "width_sq", "commutator_re", "commutator_im"]
    assert cols["width_sq"][0] == 1.0
    assert np.all(np.diff(cols["width_sq"]) > 0)
    assert cols["width_sq"][-1] == pytest.approx(1.6290461656955679, rel=1e-8)
    assert np.all(cols["commutator_re"] == 0.0)
    assert np.all(cols["commutator_im"][1:] < 0)
    m = re.search(r"R\(a\) = (\S+), F\(a\) = (\S+)$", proc.stdout.strip())
    assert m is not None
    assert float(m.group(1)) == pytest.approx(0.62904616569556793, rel=1e-8)
    assert float(m.group(2)) == pytest.approx(0.78462436801283553, rel=1e-8)


# ----------------------------------------------------------------------
# failure modes


_USAGE_ERRORS = [
    (("fig1", "--grid", "8:-8:100"), "grid needs min < max and n >= 8"),
    (("fig1", "--grid", "a:b:c"), "grid must look like min:max:n"),
    (("solve", "--equation", "heat", "--tau", "-0.5"), "--tau must be nonnegative"),
    (
        ("solve", "--equation", "heat", "--tau", "0.5", "--method", "series"),
        "not available for equation",
    ),
    (
        ("solve", "--equation", "heat", "--tau", "0.5", "--ic", "quadratic"),
        "unknown initial condition",
    ),
    (("matrix", "--what", "pauli_sqrt", "--v", "1,2"), "expected 3 comma-separated"),
    (("observables", "--steps", "1"), "--steps must be at least 2"),
    (("fig4", "--a-max", "-1"), "--a-max must be positive"),
    (("fig3",), "--out"),
    (("fig1", "--tau", "inf"), "--tau must be positive and finite"),
    (("fig1", "--tau", "nan"), "--tau must be positive and finite"),
    (("fig1", "--tau", "-1"), "--tau must be positive and finite"),
    (("fig1", "--tau", "0"), "--tau must be positive and finite"),
    (
        ("solve", "--equation", "half_derivative", "--tau", "1", "--method", "spectral"),
        "not available for equation",
    ),
    # non-finite values are refused before numpy sees them
    (("fig4", "--a-max", "inf"), "--a-max must be positive and finite"),
    (("observables", "--t-max", "inf"), "--t-max must be positive and finite"),
    (("fig1", "--grid", "-1e308:1e308:16"), "grid span max - min must be finite"),
    (
        ("solve", "--equation", "heat", "--tau", "0.5", "--grid", "-1e308:1e308:16"),
        "grid span max - min must be finite",
    ),
    # a finite span whose square overflows is refused before numpy warns
    (("fig1", "--grid", "-1e160:1e160:16"), "grid x^2 and span^2 must be finite"),
    # a finite x^2 whose grid step cubed overflows in the spline's rows
    (("fig3", "--grid", "-1e150:1e150:16"), "grid step^3 must be finite"),
    (
        ("solve", "--equation", "half_derivative", "--tau", "0.5", "--grid",
         "-1e150:1e150:16"),
        "grid step^3 must be finite",
    ),
    # each numeric, vector or complex flag is range-checked by its parser
    # type, so the refusal names the flag even where the code it feeds
    # would have refused it later, or not at all
    (("solve", "--equation", "heat", "--tau", "nan"), "--tau must be nonnegative and finite"),
    (("solve", "--equation", "heat", "--tau", "inf"), "--tau must be nonnegative and finite"),
    (
        ("solve", "--equation", "heat", "--tau", "0.5", "--ic", "gaussian(nan)"),
        "--ic gaussian width must be positive and finite",
    ),
    (
        ("solve", "--equation", "heat", "--tau", "0.5", "--ic", "gaussian(inf)"),
        "--ic gaussian width must be positive and finite",
    ),
    (("solve", "--equation", "affine_sqrt", "--tau", "1", "--c", "nan"), "--c must be finite"),
    (
        ("solve", "--equation", "optics", "--tau", "1", "--refractive-index", "nan"),
        "--refractive-index must be finite",
    ),
    (("observables", "--sigma", "nan"), "--sigma must be positive and finite"),
    (("observables", "--a", "inf"), "--a must be positive and finite"),
    (("matrix", "--what", "dirac2", "--tau", "inf"), "--tau must be finite"),
    (("matrix", "--what", "dirac2", "--y", "nan"), "--y must be finite"),
    (("matrix", "--what", "generator", "--kind", "foo"), "argument --kind: invalid choice: 'foo'"),
    # n * n overflows in the optics symbol
    (
        ("solve", "--equation", "optics", "--tau", "1", "--refractive-index", "1e200", "--grid",
         "-8:8:64"),
        "--refractive-index must be finite with a finite square",
    ),
    # the series route sums the series of e^{-x^2}, whatever --ic says
    (
        ("solve", "--equation", "schrodinger", "--method", "series", "--ic", "fig3", "--tau",
         "0.5", "--grid", "-16:16:512"),
        "--ic must be gaussian or gaussian(1) for the series method",
    ),
    (
        ("solve", "--equation", "schrodinger", "--compare", "series", "--ic", "gaussian(2)",
         "--tau", "0.5"),
        "--ic must be gaussian or gaussian(1) for the series method",
    ),
    # an int past float range: the grid's n, whose step had no float, and a
    # count that numpy could not size an array by
    (("fig1", "--grid", f"-8:8:{10**400}"), "grid n must be an integer below 2^1024"),
    (("fig4", "--steps", str(10**400)), "--steps must be at least 2"),
]


@pytest.mark.parametrize("args, fragment", _USAGE_ERRORS)
def test_usage_errors_exit_1(tmp_path, args, fragment):
    out = tmp_path / "never.csv"
    full = args if args == ("fig3",) else (*args, "--out", out)
    proc = run_cli(tmp_path, *full)
    assert proc.returncode == 1
    assert fragment in proc.stderr
    # one error line, and no numpy warning ahead of it
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


def test_require_checks_every_value_against_its_domain():
    # the one check behind every flag type and every scalar library parameter,
    # and its twin for named choices
    from pseudoflow._choices import require, require_one_of

    def refusal(domain, check=require, **named):
        with pytest.raises(ValueError) as exc:
            check(domain, **named)
        return str(exc.value)

    assert refusal("finite", x=math.nan) == "x must be finite"
    assert refusal("finite", x=1.0, y=math.inf) == "x and y must be finite"
    three = refusal("positive and finite", x=1.0, y=2.0, z=0.0)
    assert three == "x, y and z must be positive and finite"
    # a number must have a float: an int past float range is refused like inf,
    # and so is one whose square has no float, where the domain squares it
    assert refusal("finite", x=10**400) == "x must be finite"
    assert refusal("positive and finite", x=10**400) == "x must be positive and finite"
    require("finite", x=10**300)
    assert refusal("finite with a finite square", x=10**200) == "x must be finite with a finite square"
    # complex values go through cmath
    require("finite", z=complex(1e308, -1e308))
    assert refusal("finite", z=complex(1.0, math.nan)) == "z must be finite"
    # a bool is not an integer here, nor a float of integral value
    require("a nonnegative integer", k=3)
    require("a nonnegative integer", k=np.int64(3))
    assert refusal("a nonnegative integer", k=True) == "k must be a nonnegative integer"
    assert refusal("a nonnegative integer", k=3.0) == "k must be a nonnegative integer"
    # sequences and 1-D arrays element by element, for finiteness and for the domain
    require("positive and finite", x=(1.0, 2), y=[3.0])
    require("positive and finite", x=np.array([1.0, 2.0]))
    require("finite", v=(1j, 2.0, -3))
    negative = refusal("positive and finite", x=np.array([1.0, -2.0]))
    assert negative == "x must be positive and finite"
    assert refusal("positive and finite", x=[1.0, math.nan]) == "x must be positive and finite"
    assert refusal("finite", x=0.0, v=np.array([1.0, math.inf])) == "x and v must be finite"
    tiny = refusal("nonnegative and finite", a=(0.0, -1e-300))
    assert tiny == "a must be nonnegative and finite"
    # past one dimension the value is refused by name, not element by element
    assert refusal("finite", x=1.0, v=np.ones((2, 2))) == "v must be a number or 1-D"
    assert refusal("finite", v=[[1.0], [2.0]]) == "v must be a number or 1-D"
    assert refusal("finite", v=(np.array([1.0]),)) == "v must be a number or 1-D"
    assert refusal("finite", v=[1.0, [2.0, 3.0]]) == "v must be a number or 1-D"
    require("finite", v=np.array(1.0), w=[])
    # and so are the library's array parameters
    for call, name in (
        (lambda: pseudoflow.r_function(np.ones((2, 2))), "a"),
        (lambda: pseudoflow.f_function(np.ones((2, 2))), "a"),
        (lambda: pseudoflow.series_solution(np.ones((2, 2)), 0.5), "eta"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a number or 1-D$"):
            call()
    # a name must be a string among the choices, which join with "or"
    require_one_of(("t_form", "xi_form"), form="xi_form")
    require_one_of(("a", "b", "c"), x="a", y="c")
    one_of = require_one_of
    assert refusal(("J0", "K0"), one_of, kind="Y0") == "kind must be one of J0 or K0"
    assert refusal(("a",), one_of, kind="b") == "kind must be one of a"
    assert refusal(("a", "b", "c"), one_of, x="a", y="d") == "x and y must be one of a, b or c"
    # an unhashable, a non-string or a case-changed value is refused the same way
    for value in (["a"], ("a",), None, 1, "A", "a "):
        assert refusal(("a", "b"), one_of, kind=value) == "kind must be one of a or b"


@pytest.mark.parametrize(
    "module, call, message",
    [
        ("relativistic", lambda m: m.dhat_apply(None, "collocation"),
         "method must be one of kernel_k0, s_integral or spectral"),
        ("relativistic", lambda m: m.ObservableInputs(units="si"),
         "units must be one of normalized or physical"),
        ("relativistic", lambda m: m.ObservableInputs(units=["physical"]),
         "units must be one of normalized or physical"),
        ("transforms", lambda m: m.exp_sqrt_via_doetsch(1.0, 1.0, form="s_form"),
         "form must be one of t_form or xi_form"),
        # the form is checked ahead of x and y
        ("transforms", lambda m: m.exp_sqrt_via_doetsch(-1.0, math.nan, form=None),
         "form must be one of t_form or xi_form"),
        ("special", lambda m: m.bessel("Y0", 1.0), "kind must be one of J0 or K0"),
        ("special", lambda m: m.bessel(["J0"], 1.0), "kind must be one of J0 or K0"),
        ("special", lambda m: m.QuadratureConfig(halfline_rule="simpson"),
         "halfline_rule must be one of gauss_laguerre, adaptive_subdivision or "
         "inverse_square_substitution"),
        ("special", lambda m: m.QuadratureConfig(realline_rule="simpson"),
         "realline_rule must be one of gauss_hermite or truncated_adaptive"),
    ],
)
def test_library_refuses_unknown_names_in_one_wording(module, call, message):
    # the library's named choices outside clifford, each refused before any work
    with pytest.raises(ValueError) as exc:
        call(importlib.import_module(f"pseudoflow.{module}"))
    assert str(exc.value) == message


def test_observables_past_the_reach_of_r_exits_2(tmp_path):
    # R's weight lies near s = 4/a^2, beyond the rule's window at a = 1e25: a
    # numerical failure, not a tiny wrong R in every width_sq
    out = tmp_path / "never.csv"
    proc = run_cli(tmp_path, "observables", "--a", "1e25", "--steps", "3", "--out", out)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr
    assert not out.exists()
    assert no_partials(tmp_path)


def test_observables_past_float_range_exits_1(tmp_path):
    # (a / sigma)^2 overflows: a refusal naming the parameters, not a traceback
    out = tmp_path / "never.csv"
    proc = run_cli(tmp_path, "observables", "--sigma", "1e-300", "--steps", "3", "--out", out)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: the packet width is past float range at sigma = 1e-300")
    assert not out.exists()
    assert no_partials(tmp_path)


@pytest.mark.parametrize(
    "args",
    [
        ("fig2", "--method", "series"),
        ("solve", "--equation", "schrodinger", "--method", "series", "--tau", "0.5"),
    ],
)
def test_huge_grid_series_is_zero_without_warnings(tmp_path, args):
    # at |eta| >= 6.7e98 e^{-eta^2} and the f_2k integrand underflow at every
    # node, so Psi is 0 to rounding: written as 0, with no numpy warning,
    # where the H_n recurrence once ran past float range
    out = tmp_path / "zero.csv"
    proc = run_cli(tmp_path, *args, "--grid", "-1e100:1e100:16", "--out", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, cols = read_csv(out)
    assert len(cols["x"]) == 16 and len(header) > 2
    for name in header[1:]:
        assert not cols[name].any(), name


@pytest.mark.parametrize("a", ["nan", "inf"])
def test_nonfinite_observable_parameter_exits_1(tmp_path, a):
    # R(a) and F(a) refuse a non-finite a rather than writing NaN rows
    out = tmp_path / "never.csv"
    proc = run_cli(tmp_path, "observables", "--a", a, "--out", out)
    assert proc.returncode == 1
    assert "finite" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("--what", "dirac2", "--pi", "nan"),
        ("--what", "line_power", "--a", "inf"),
        ("--what", "dirac4", "--pi", "0.1,nan,0"),
    ],
)
def test_nonfinite_matrix_parameter_exits_1(tmp_path, args):
    # the builders refuse a non-finite parameter rather than writing NaN rows
    out = tmp_path / "never.csv"
    proc = run_cli(tmp_path, "matrix", *args, "--out", out)
    assert proc.returncode == 1
    assert "must be finite" in proc.stderr
    assert not out.exists()
    assert no_partials(tmp_path)


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ("--what", "exp_pauli", "--y", "800"),
            "e^{y sigma . v} is past float range at y = (800+0j), v = (0j, 0j, (1+0j))",
        ),
        (
            ("--what", "line_power", "--a", "1e308", "--b", "0", "--p", "2"),
            "R^p is past float range at a = 1e+308, b = 0.0, p = 2.0",
        ),
        (("--what", "dirac2", "--pi", "1e200"), "pi must be finite with a finite square"),
        (
            ("--what", "dirac4", "--pi", "1e200,0,0"),
            "pi . pi is past float range at pi = (1e+200, 0.0, 0.0)",
        ),
        (("--what", "position", "--pi", "1e200"), "pi must be finite with a finite square"),
    ],
)
def test_matrix_past_float_range_exits_1(tmp_path, capsys, args, message):
    # finite flags whose matrix leaves float range: one line naming the
    # inputs, where NaN rows, a traceback or "math domain error" came out
    out = tmp_path / "never.csv"
    assert cli.run(["matrix", *args, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
    assert no_partials(tmp_path)


@pytest.mark.parametrize(
    "args, column",
    [
        (("solve", "--equation", "half_derivative", "--tau", "1e200"), "value"),
        (("fig1", "--tau", "1e-320"), "heat"),
        (("solve", "--equation", "heat", "--method", "integral", "--tau", "1e-320"), "value"),
    ],
)
def test_tau_at_the_ends_of_float_range_exits_0(tmp_path, capsys, args, column):
    # the first exited 1 with "cannot convert float NaN to integer", the
    # others printed numpy's "overflow encountered in divide" (an error in
    # this suite): the half-derivative writes zeros, the heat kernel at
    # tau = 1e-320 the input to 1e-13
    out = tmp_path / "out.csv"
    assert cli.run([*args, "--grid", "-8:8:64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _header, cols = read_csv(out)
    if "half_derivative" in args:
        assert not np.any(cols[column])
    else:
        assert np.max(np.abs(cols[column] - np.exp(-cols["x"] ** 2))) <= 1e-13


def test_heat_integral_past_max_over_pi_exits_0(tmp_path, capsys):
    # pi tau overflowed: numpy's "overflow encountered in multiply", then
    # zeros for 1/(2 sqrt(tau)) = 5e-155
    out = tmp_path / "out.csv"
    args = ["solve", "--equation", "heat", "--method", "integral", "--tau", "1e308"]
    assert cli.run([*args, "--grid", "-8:8:64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _header, cols = read_csv(out)
    np.testing.assert_allclose(cols["value"], 5e-155, rtol=1e-13)


@pytest.mark.parametrize(
    "args",
    [
        ("--equation", "half_derivative", "--ic", "gaussian(1e-201)", "--grid", "-1e-200:1e-200:64"),
        ("--equation", "affine_sqrt", "--c", "1", "--ic", "gaussian(1e-201)",
         "--grid", "-1e-200:1e-200:64"),
        ("--equation", "heat", "--ic", "file=huge.csv", "--grid", "-4:4:64"),
    ],
)
def test_spline_past_float_range_exits_1(tmp_path, args):
    # numpy's overflow warnings came first, then exit 2 for the shift flows
    # and "error: values must be finite", which names nothing, for the table
    rows = "".join(f"{10.0 * i!r},{1.7e308 if i % 2 else 1.5e308!r}\n" for i in range(6))
    (tmp_path / "huge.csv").write_text("x,value\n" + rows)
    proc = run_cli(tmp_path, "solve", "--tau", "0.5", *args, "--out", tmp_path / "out.csv")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the cubic spline through the data is past float range at step = ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "equation",
    [("heat",), ("schrodinger",), ("optics",), ("pseudoheat", "--method", "spectral")],
    ids=["heat", "schrodinger", "optics", "pseudoheat"],
)
def test_spectral_routes_solve_the_float_edge_table(tmp_path, capsys, equation):
    # a table near 1.6e308 whose transform overflowed: the routes exited 1
    # ("the spectral <name> flow is past float range"); the data now run
    # scaled to a peak in [1, 2), and the flows, in float range, solve
    table = tmp_path / "float_edge.csv"
    _tool("csv_digests").write_float_edge_table(table)
    out = tmp_path / "spectral.csv"
    args = ["solve", "--equation", *equation, "--tau", "0.5", "--ic", f"file={table}"]
    assert cli.run([*args, "--grid", "-4:4:64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, cols = read_csv(out)
    assert all(np.isfinite(values).all() for values in cols.values())
    assert 0.0 < max(np.max(np.abs(values)) for name, values in cols.items() if name != "x") < 1.7e308


def test_pseudoheat_integral_solves_the_float_edge_table(tmp_path, capsys):
    # the flow is a contraction: the integral route solves the table (it
    # exited 2 with a NaN bound)
    table = tmp_path / "float_edge.csv"
    _tool("csv_digests").write_float_edge_table(table)
    out = tmp_path / "pseudoheat.csv"
    args = ["solve", "--equation", "pseudoheat", "--tau", "0.5", "--ic", f"file={table}"]
    assert cli.run([*args, "--grid", "-4:4:64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, cols = read_csv(out)
    assert 9.7e307 < cols["value"].max() < 9.9e307


def test_fig4_reaches_large_a(tmp_path):
    # R's weight lies near s ~ 1/a^2, far left of s = 1
    out = tmp_path / "fig4.csv"
    proc = run_cli(tmp_path, "fig4", "--a-max", "10000", "--steps", "3", "--out", out)
    assert proc.returncode == 0, proc.stderr
    _header, cols = read_csv(out)
    assert list(cols["a"]) == [0.0, 5000.0, 10000.0]
    for name in ("R", "F"):
        assert np.all(cols[name] > 0) and np.all(np.diff(cols[name]) < 0)
    # R ~ 4/a^2 and F ~ sqrt(8/pi)/a for large a
    assert cols["R"][2] == pytest.approx(4e-8, rel=1e-3)
    assert cols["F"][2] == pytest.approx(math.sqrt(8.0 / math.pi) / 1e4, rel=1e-3)


def test_unwritable_output_path_exits_1(tmp_path):
    out = tmp_path / "no_such_dir" / "out.csv"
    proc = run_cli(tmp_path, "fig4", "--steps", "10", "--out", out)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    # the message names the path given, not the writer's temporary file
    assert str(out) in proc.stderr
    assert ".partial" not in proc.stderr


# ----------------------------------------------------------------------
# import boundary

# Runs in a fresh interpreter: prints the modules of one top-level package
# (the first argument) loaded after the package import and after each CLI
# call, one JSON list per line, then imports that package as a control.
_IMPORT_PROBE = """
import importlib, json, sys
root = sys.argv[1]
def loaded():
    return sorted(m for m in sys.modules if m == root or m.startswith(root + "."))
import pseudoflow
from pseudoflow import cli
print(json.dumps(["import pseudoflow", loaded()]))
for args in json.loads(sys.argv[2]):
    rc = cli.run(args)
    print(json.dumps([" ".join(args), rc, loaded()]))
importlib.import_module(root)
print(json.dumps(["control", loaded()[:1]]))
"""


def _probe_imports(tmp_path, root, runs):
    """The rows the import probe prints for ``runs``, watching ``root``."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, root, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert [row[0] for row in rows[1:-1]] == [" ".join(args) for args in runs]
    # the probe itself sees the package once it is imported
    assert rows[-1] == ["control", [root]]
    return rows


_SCIPY_FREE_RUNS = [
    ["fig1", "--grid", "8:-8:128", "--out", "never.csv"],
    ["fig1", "--grid", "-8:8:128", "--out", "fig1.csv"],
    ["fig2", "--out", "fig2.csv"],
    ["fig2", "--method", "series", "--out", "fig2_series.csv"],
    [
        "solve", "--equation", "pseudoheat", "--tau", "0.5", "--compare", "spectral",
        "--grid", "-8:8:128", "--out", "solve.csv",
    ],
    ["matrix", "--what", "dirac2", "--out", "matrix.csv"],
    ["fig4", "--out", "fig4.csv"],
    ["observables", "--out", "observables.csv"],
]


def test_numpy_only_commands_never_import_scipy(tmp_path):
    # fig3 and the half-derivative and affine solves call K0 or the spline's
    # LAPACK solve and load scipy; the package import and the presets run
    # here must not.
    rows = _probe_imports(tmp_path, "scipy", _SCIPY_FREE_RUNS)
    assert rows[0] == ["import pseudoflow", []]
    calls = rows[1:-1]
    assert [row[1] for row in calls] == [1] + [0] * (len(_SCIPY_FREE_RUNS) - 1)
    for what, _rc, modules in calls:
        assert modules == [], f"{what} imported {modules}"


def test_usage_errors_never_import_numpy(tmp_path):
    # a refused invocation answers before numpy loads: every flag a handler
    # checks is checked first
    runs = [
        list(args) if args == ("fig3",) else [*args, "--out", "never.csv"]
        for args, _fragment in _USAGE_ERRORS
    ]
    runs += [[*args, "--out", "never.csv"] for args in _tool("csv_digests").USAGE_ERRORS]
    rows = _probe_imports(tmp_path, "numpy", runs)
    assert rows[0] == ["import pseudoflow", []]
    for what, rc, modules in rows[1:-1]:
        assert (rc, modules) == (1, []), f"{what} exited {rc} with {modules[:3]}"


_SPLINE_RUNS = [
    ["fig3", "--grid", "-12:12:256", "--out", "fig3.csv"],
    [
        "solve", "--equation", "half_derivative", "--tau", "0.5", "--grid", "-12:8:161",
        "--out", "half.csv",
    ],
    [
        "solve", "--equation", "affine_sqrt", "--tau", "0.5", "--c", "1", "--grid", "-2:14:161",
        "--out", "affine_pos.csv",
    ],
    [
        "solve", "--equation", "affine_sqrt", "--tau", "0.5", "--c", "-1", "--grid", "-6:10:161",
        "--out", "affine_neg.csv",
    ],
]


def test_spline_commands_never_import_scipy_interpolate(tmp_path):
    # the K0 and shift-panel solvers, and --ic file=, build the spline's
    # coefficient rows by a bare LAPACK solve
    xi = np.linspace(-3.0, 3.0, 25)
    rows = zip(xi.tolist(), np.exp(-(xi**2)).tolist())
    (tmp_path / "ic.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
    file_run = [
        "solve", "--equation", "heat", "--tau", "0", "--ic", "file=ic.csv", "--grid", "-3:3:32",
        "--out", "file.csv",
    ]
    runs = _SPLINE_RUNS + [file_run]
    calls = _probe_imports(tmp_path, "scipy", runs)[1:-1]
    assert [row[1] for row in calls] == [0] * len(runs)
    for what, _rc, modules in calls:
        assert "scipy.linalg._flapack" in modules, what  # the spline's LAPACK solve ran
        assert "scipy.interpolate" not in modules, f"{what} imported scipy.interpolate"


def test_fig3_loads_compiled_scipy_modules_alone(tmp_path):
    # K0 and the spline's gtsv come from scipy's extension modules, loaded
    # without the scipy.special and scipy.linalg packages
    [(what, rc, modules)] = _probe_imports(tmp_path, "scipy", _SPLINE_RUNS[:1])[1:-1]
    assert rc == 0
    assert {"scipy.linalg._flapack", "scipy.special._special_ufuncs"} <= set(modules), modules
    for package in ("scipy.linalg", "scipy.linalg.lapack", "scipy.special", "scipy.special._basic"):
        assert package not in modules, f"{what} imported {package}"


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_csv_digests_cover_every_command_and_solver(tmp_path):
    # tools/csv_digests.py compares two checkouts' CSV bytes; its run list
    # must reach every subcommand and every (equation, method) solver
    tool = _tool("csv_digests")
    parser = cli._build_parser()
    commands, solvers = set(), set()
    for args in tool.runs(cli):
        ns = parser.parse_args([*args, "--out", "x.csv"])
        commands.add(ns.subcommand)
        if ns.subcommand == "solve":
            solvers.add((ns.equation, ns.method or cli._METHODS[ns.equation][0]))
    assert commands == set(cli._HANDLERS)
    assert solvers == set(cli._SOLVERS)
    # a digest is the SHA-256 of the CSV the run writes
    args = ["matrix", "--what", "dirac2"]
    assert cli.run([*args, "--out", str(tmp_path / "ref.csv")]) == 0
    expected = hashlib.sha256((tmp_path / "ref.csv").read_bytes()).hexdigest()
    assert tool.digest(cli, args, tmp_path) == expected
    assert tool.digest(cli, ["fig4", "--steps", "1"], tmp_path) == "exit 1"
    # the runs printed last: an int flag past float range, a usage error
    assert [tool.digest(cli, args, tmp_path) for args in tool.PAST_FLOAT_INTS] == ["exit 1"] * 2


def test_csv_digests_text_hash_masks_the_output_path(tmp_path):
    # the second hash covers stdout and stderr, which name the output path;
    # the same run in another directory must hash the same
    tool = _tool("csv_digests")
    args = ["matrix", "--what", "dirac2"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert tool.digests(cli, args, tmp_path / "a") == tool.digests(cli, args, tmp_path / "b")
    # each usage error fails with exit 1 and its own message
    runs = [tool.digests(cli, bad, tmp_path) for bad in tool.USAGE_ERRORS]
    assert [csv_digest for csv_digest, _ in runs] == ["exit 1"] * len(runs)
    assert len({text for _, text in runs}) == len(runs)
    assert {tool.digest(cli, bad, tmp_path) for bad in tool.REFUSALS} == {"exit 1"}


def test_csv_digests_report_a_run_that_raises(tmp_path):
    # a checkout whose cli.run raises is compared past that run: the CSV
    # column names the exception, and what the run printed is still hashed
    class RaisingCli:
        @staticmethod
        def run(argv):
            print("partial output")
            raise OverflowError("int too large to convert to float")

    tool = _tool("csv_digests")
    csv_digest, text_digest = tool.digests(RaisingCli, ["observables"], tmp_path)
    assert csv_digest == "error OverflowError"
    assert text_digest == hashlib.sha256(b"partial output\n\0").hexdigest()


def test_csv_digests_show_each_run_its_own_warnings(tmp_path, monkeypatch):
    # Python prints a warning from one line once per process; the tool
    # shows it again to every run that raises it, so two runs that warn
    # alike hash alike, and a call's warnings mark its --arrays line
    import warnings

    def show(message, category, filename, lineno, file=None, line=None):
        # as Python's own, which pytest's recording replaces: to sys.stderr
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)

    class WarningCli:
        @staticmethod
        def run(argv):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return 1

    tool = _tool("csv_digests")
    first, second = (tool.digests(WarningCli, ["fig1"], tmp_path) for _ in range(2))
    assert first == second
    assert first[1] != hashlib.sha256(b"\0").hexdigest()
    plain = tool.array_digest(lambda: np.zeros(3))
    assert plain == hashlib.sha256(np.zeros(3).tobytes()).hexdigest()

    def warns():
        warnings.warn("invalid value encountered in subtract", RuntimeWarning)
        return np.zeros(3)

    assert tool.array_digest(warns).startswith(f"{plain} warned ")
    assert tool.array_digest(warns) == tool.array_digest(warns)


def test_csv_digests_arrays_cover_the_calls_no_cli_run_writes():
    # --arrays digests library values that no CSV holds; each line is the
    # SHA-256 of a call's values, or the type of the error it raised
    tool = _tool("csv_digests")
    labels = [label for label, _ in tool.array_calls(pseudoflow)]
    for name in ("iterated_series", "apply_inv_sqrt_shift", "dhat_apply", "solve_affine_sqrt"):
        assert any(label.startswith(name) for label in labels)
    assert any("s_integral" in label for label in labels)
    assert any(label.startswith("solve_affine_sqrt 4097") for label in labels)
    assert len(set(labels)) == len(labels)
    f = pseudoflow.Field.from_function(-16.0, 16.0, 256, lambda x: np.exp(-(x**2)))
    out = pseudoflow.iterated_series(f, 0.3)
    expected = hashlib.sha256(out.values.tobytes()).hexdigest()
    assert tool.array_digest(lambda: pseudoflow.iterated_series(f, 0.3)) == expected
    assert tool.array_digest(lambda: pseudoflow.iterated_series(f, math.inf)) == "error ValueError"
    # each refusal of a result past float range is digested by its message
    for name in ("PauliVector", "pauli_sqrt_identity", "kappa_parametrization", "dirac4_evolution",
                 "commutator_xt_x0", "linear_potential_trajectory", "gauss_weierstrass",
                 "solve_pseudoheat"):
        assert any(label.startswith(f"refusal text: {name}") for label in labels), name
    # both of laplace_inv_power's, and its refusal of an int past float range
    assert sum(label.startswith("refusal text: laplace_inv_power") for label in labels) == 3
    text = tool.refusal_text(lambda: pseudoflow.laplace_inv_power(50.0, 1e-8))
    assert text.tobytes() == b"ValueError: a^-nu is past float range at nu = 50.0, a = 1e-08"
    # each refusal of an int past float range, last
    ints = ("hermite2", "laplace_inv_power", "bessel", "Field", "dirac2_evolution", "iterated_series")
    assert all(label.startswith(f"refusal text: {name}") for label, name in zip(labels[-6:], ints))
    text = tool.refusal_text(lambda: pseudoflow.hermite2(2, 10**400, 0))
    assert text.tobytes() == b"ValueError: x and y must be real and finite"
    assert tool.refusal_text(lambda: np.ones(2)).tolist() == [1.0, 1.0]


def test_cli_times_runs_the_usage_error_row(tmp_path):
    # tools/cli_times.py times the rows of ROADMAP's end-to-end table: every
    # preset, four solves and a usage error, each in a fresh interpreter
    tool = _tool("cli_times")
    labels = [label for label, _args, _code in tool.ROWS]
    assert labels[:6] == ["fig1", "fig2", "fig2 --method series", "fig3", "fig4", "observables"]
    assert len(labels) == 11 and len(set(labels)) == 11
    label, args, code = tool.ROWS[-1]
    assert (label, code) == ("a usage error", 1)
    [elapsed] = tool.cold_times(PACKAGE_ROOT, args, code, 1, tmp_path)
    assert 0 < elapsed < 60
    assert not (tmp_path / "out.csv").exists()


def test_cli_times_against_a_base_prints_both_medians(monkeypatch, capsys, tmp_path):
    # each row alternates between the base and the checkout; the times here
    # are stand-ins, 0.2 s on the base and 0.1 s on the checkout
    tool = _tool("cli_times")
    base, src = tmp_path / "parent" / "src", tmp_path / "change" / "src"
    trees = []

    def cold_times(tree, args, expected, repeats, directory):
        trees.append(tree)
        return [0.2 if tree == base else 0.1] * repeats

    monkeypatch.setattr(tool, "ROWS", tool.ROWS[:2])
    monkeypatch.setattr(tool, "cold_times", cold_times)
    monkeypatch.setattr(tool.compileall, "compile_dir", lambda *args, **kwargs: True)
    monkeypatch.setattr(sys, "argv", ["cli_times.py", "--src", str(src), "--against", str(base)])
    tool.main()
    assert capsys.readouterr().out.splitlines() == [
        f"base {base}  against  {src}",
        "0.200 s  0.100 s  x0.50  fig1",
        "0.200 s  0.100 s  x0.50  fig2",
    ]
    assert trees == [base, src, src, base, base, src, src, base, base, src] * 2

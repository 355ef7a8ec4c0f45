"""Print the SHA-256 of the CSV that each of a fixed list of CLI runs writes.

    python tools/csv_digests.py                   # the package in this checkout
    python tools/csv_digests.py --src OTHER/src   # the package in another one
    python tools/csv_digests.py --arrays          # library arrays instead

The list holds every preset (fig1-fig4, observables), every matrix, `solve`
for every (equation, method) pair of the CLI's solver table, `solve` with
`--compare`, with `--ic gaussian(2)` and with `--ic file=` on a fixed table
that the tool writes, the benchmark's usage errors, one refusal for each
range-checked flag, and one packet width past float range. One line per
run, "<csv sha256>  <text sha256>  <arguments>", where the first hash reads
"exit <code>" where the run failed, or "error <type>" where ``cli.run``
raised, and the second is the SHA-256 of the run's stdout and stderr with
the output path masked. Two checkouts write
the same CSV bytes, summary lines and error text where these lines agree:

    diff <(python tools/csv_digests.py --src PARENT/src) <(python tools/csv_digests.py)

With ``--arrays`` the lines are the SHA-256 of the values of library calls
that no CLI run writes (the iterated series, the J0 operator, the
s-integral form of D, the affine flow on a 4097-point grid, and R(a) and
F(a) on a = 10^k for k = -3, -2.5, ..., 19), one line per call,
"<sha256>  <call>", or "error <type>" where the call raised.
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
from pathlib import Path

import numpy as np

MATRICES = (
    "generator", "pauli_sqrt", "exp_pauli", "dirac2", "dirac4",
    "position", "sqrt_symbol", "kappa", "line_power",
)
SOLVERS = (
    ("heat", "spectral"), ("heat", "integral"),
    ("pseudoheat", "integral"), ("pseudoheat", "spectral"),
    ("schrodinger", "spectral"), ("schrodinger", "series"),
    ("half_derivative", "integral"), ("affine_sqrt", "integral"),
    ("optics", "spectral"),
)
RUNS = (
    ("fig1",),
    ("fig2",),
    ("fig2", "--method", "series"),
    ("fig3",),
    ("fig4",),
    ("observables",),
    *(("matrix", "--what", what) for what in MATRICES),
    *(("solve", "--equation", eq, "--method", method, "--tau", "0.5") for eq, method in SOLVERS),
    ("solve", "--equation", "pseudoheat", "--tau", "0.5", "--compare", "spectral"),
    # a complex primary beside a real secondary
    ("solve", "--equation", "heat", "--method", "spectral", "--tau", "0.5", "--compare", "integral"),
    ("solve", "--equation", "schrodinger", "--tau", "0.5", "--compare", "series"),
    ("solve", "--equation", "pseudoheat", "--tau", "0.5", "--ic", "gaussian(2)"),
    # past the reach of R's window: a numerical failure
    ("observables", "--a", "1e25", "--steps", "3"),
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
)
# runs on the table that write_ic_table puts in the working directory
IC_TABLE = "ic.csv"
IC_FILE_RUNS = (
    ("solve", "--equation", "heat", "--method", "integral", "--tau", "0", "--ic", f"file={IC_TABLE}",
     "--grid", "-4:4:64"),
)


def write_ic_table(path: Path) -> None:
    """A fixed (x, value) table: a header row, then 25 unevenly spaced rows
    of a skewed Gaussian on about [-3, 3]."""
    xs = [-3.0 + 0.25 * i + 0.04 * (-1) ** i for i in range(25)]
    rows = "".join(f"{x!r},{math.exp(-x * x) * (1.0 + x / 2.0)!r}\n" for x in xs)
    Path(path).write_text("x,value\n" + rows)


def digests(cli, args, directory: Path) -> tuple[str, str]:
    """(csv, text) for the run of ``cli.run`` on ``args``: the SHA-256 of
    the CSV it writes, or "exit <code>" where it fails, or "error <type>"
    where ``cli.run`` raises, and the SHA-256 of its stdout and stderr with
    the output path masked."""
    out = Path(directory) / "out.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
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
    fine = pf.Field.from_function(-6.0, 10.0, 4097, lambda x: np.exp(-((x - 3.0) ** 2)))
    fine_c = fine.with_values(fine.values * (1.0 + 0.3j * np.cos(fine.x)))
    calls = [
        ("iterated_series 512 real tau 0.3", lambda: pf.iterated_series(gauss, 0.3)),
        ("iterated_series 512 real tau -0.4", lambda: pf.iterated_series(gauss, -0.4)),
        ("iterated_series 512 complex tau 0.3", lambda: pf.iterated_series(wavy, 0.3)),
        ("apply_inv_sqrt_shift 2048 packet", lambda: pf.apply_inv_sqrt_shift(packet)),
        ("dhat_apply 256 s_integral", lambda: pf.dhat_apply(small, "s_integral")),
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
    return calls


def array_digest(thunk) -> str:
    """SHA-256 of the values that ``thunk`` returns (an array, or a Field's
    values), or "error <type>" where it raises."""
    try:
        values = thunk()
    except Exception as exc:  # a failure is a result to compare, too
        return f"error {type(exc).__name__}"
    values = getattr(values, "values", values)
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


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
        for args in (*RUNS, *IC_FILE_RUNS, *USAGE_ERRORS, *REFUSALS):
            print(f"{'  '.join(digests(cli, args, Path(tmp)))}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()

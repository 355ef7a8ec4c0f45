"""Print the SHA-256 of the CSV that each of a fixed list of CLI runs writes.

    python tools/csv_digests.py                   # the package in this checkout
    python tools/csv_digests.py --src OTHER/src   # the package in another one
    python tools/csv_digests.py --arrays          # library arrays instead

The list holds every preset (fig1-fig4, observables), every matrix, `solve`
for every (equation, method) pair of the CLI's solver table, `solve` with
`--compare` and with `--ic gaussian(2)`, and a list of usage errors. One
line per run, "<csv sha256>  <text sha256>  <arguments>", where the first
hash reads "exit <code>" where the run failed, and the second is the
SHA-256 of the run's stdout and stderr with the output path masked. Two
checkouts write the same CSV bytes, summary lines and error text where
these lines agree:

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
# runs the parser or a handler refuses, as the benchmark's cli_cold draws them
USAGE_ERRORS = (
    ("fig1", "--tau", "not-a-number"),
    ("solve", "--equation", "pseudoheat", "--tau", "-1"),
    ("fig2", "--grid", "1:0:8"),
    ("matrix", "--what", "no_such_matrix"),
    ("fig4", "--steps", "1"),
    ("observables", "--t-max", "0"),
)


def digests(cli, args, directory: Path) -> tuple[str, str]:
    """(csv, text) for the run of ``cli.run`` on ``args``: the SHA-256 of
    the CSV it writes, or "exit <code>" where it fails, and the SHA-256 of
    its stdout and stderr with the output path masked."""
    out = Path(directory) / "out.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([*args, "--out", str(out)])
    text = f"{stdout.getvalue()}\0{stderr.getvalue()}".replace(str(out), "OUT")
    text_digest = hashlib.sha256(text.encode()).hexdigest()
    if code != 0:
        return f"exit {code}", text_digest
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
        ("_r_values a = 10^-3..10^19", lambda: pf.relativistic._r_values(a_values)),
        ("_f_values a = 10^-3..10^19", lambda: pf.relativistic._f_values(a_values)),
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
        for args in (*RUNS, *USAGE_ERRORS):
            print(f"{'  '.join(digests(cli, args, Path(tmp)))}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()

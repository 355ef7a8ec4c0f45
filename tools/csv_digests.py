"""Print the SHA-256 of the CSV that each of a fixed list of CLI runs writes.

    python tools/csv_digests.py                   # the package in this checkout
    python tools/csv_digests.py --src OTHER/src   # the package in another one

The list holds every preset (fig1-fig4, observables), every matrix, and
`solve` for every (equation, method) pair of the CLI's solver table. One
line per run, "<sha256>  <arguments>", or "exit <code>" where the run
failed. Two checkouts write the same CSV bytes where these lines agree:

    diff <(python tools/csv_digests.py --src PARENT/src) <(python tools/csv_digests.py)
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

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
)


def digest(cli, args, directory: Path) -> str:
    """SHA-256 of the CSV that ``cli.run`` writes for ``args``, or
    "exit <code>" where it fails; the run's own output is discarded."""
    out = Path(directory) / "out.csv"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*args, "--out", str(out)])
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory holding the pseudoflow package (default: this checkout's src)",
    )
    ns = parser.parse_args()
    sys.path.insert(0, str(Path(ns.src).resolve()))
    from pseudoflow import cli

    with tempfile.TemporaryDirectory() as tmp:
        for args in RUNS:
            print(f"{digest(cli, args, Path(tmp))}  {' '.join(args)}", flush=True)


if __name__ == "__main__":
    main()

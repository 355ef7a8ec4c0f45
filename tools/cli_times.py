"""Print the median cold wall time of each CLI row of ROADMAP's end-to-end table.

    python tools/cli_times.py                   # the package in this checkout
    python tools/cli_times.py --src OTHER/src   # the package in another one

Each row runs five times, each run a fresh ``python -m pseudoflow``
process timed from spawn to exit, in a scratch directory with the
checkout's ``src`` first on ``PYTHONPATH``. The package's bytecode is
compiled first, so every run reads it from the cache as a user's second
run does, whether or not PYTHONDONTWRITEBYTECODE is set. One line per row,
"<median> s  (<min>-<max> s)  <row>". A run that exits with another code
than its row expects (0, or 1 for the usage error) stops the script with
that run's stderr.
"""
from __future__ import annotations

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 5

# (label, arguments, expected exit code)
ROWS = (
    ("fig1", ("fig1",), 0),
    ("fig2", ("fig2",), 0),
    ("fig2 --method series", ("fig2", "--method", "series"), 0),
    ("fig3", ("fig3",), 0),
    ("fig4", ("fig4",), 0),
    ("observables", ("observables",), 0),
    *(
        (f"solve {' '.join(args)}", ("solve", *args), 0)
        for args in (
            ("--equation", "pseudoheat", "--tau", "0.5", "--compare", "spectral"),
            ("--equation", "affine_sqrt", "--c", "1", "--tau", "1"),
            ("--equation", "affine_sqrt", "--c", "-1", "--tau", "1", "--grid", "-6:10:161"),
            ("--equation", "half_derivative", "--tau", "0.5"),
        )
    ),
    # refused by a handler, after parsing: the longest path to exit 1
    ("a usage error", ("fig4", "--steps", "1"), 1),
)


def cold_times(src, args, expected: int, repeats: int, directory) -> list[float]:
    """Wall times of ``repeats`` fresh ``python -m pseudoflow`` runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pseudoflow", *args, "--out", "out.csv"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=directory)
        times.append(time.perf_counter() - t0)
        if proc.returncode != expected:
            raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory holding the pseudoflow package (default: this checkout's src)",
    )
    ns = parser.parse_args()
    src = Path(ns.src).resolve()
    compileall.compile_dir(src / "pseudoflow", quiet=1)
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, expected in ROWS:
            times = cold_times(src, args, expected, REPEATS, tmp)
            print(
                f"{statistics.median(times):.3f} s  ({min(times):.3f}-{max(times):.3f} s)  {label}",
                flush=True,
            )


if __name__ == "__main__":
    main()

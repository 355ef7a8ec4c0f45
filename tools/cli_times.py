"""Print the median cold wall time of each CLI row of ROADMAP's end-to-end table.

    python tools/cli_times.py                          # the package in this checkout
    python tools/cli_times.py --src OTHER/src          # the package in another one
    python tools/cli_times.py --against PARENT/src     # this checkout against another

Each row runs five times, each run a fresh ``python -m pseudoflow``
process timed from spawn to exit, in a scratch directory with the
checkout's ``src`` first on ``PYTHONPATH``. One line per row,
"<median> s  (<min>-<max> s)  <row>". A run that exits with another code
than its row expects (0, or 1 for the usage error) stops the script with
that run's stderr.

With ``--against BASE`` each row runs five times on each tree, the two
trees alternating (the base first on the first, third and fifth runs),
so host drift falls on both alike. A first line names the base,
then one line per row, "<base median> s  <median> s  x<median / base
median>  <row>". Rows moved by up to 55% between two separate runs of the
script on one noisy host; one interleaved run compares two trees.

The script times cached bytecode: each tree's package is compiled first,
so every run reads it from the cache as a user's second run does, whether
or not PYTHONDONTWRITEBYTECODE is set. A child that runs with
PYTHONDONTWRITEBYTECODE=1 and finds no cache compiles the package from
source on every start: about 30 ms for the whole package (26-34 ms over
seven rounds of ``compile()`` on its eleven modules, Python 3.11 on a
2-CPU host).
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
    # refused by the --steps flag's argparse type, before numpy loads
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
    parser.add_argument(
        "--against",
        metavar="BASE",
        help="another directory holding the package: time each row on both, alternately",
    )
    ns = parser.parse_args()
    src = Path(ns.src).resolve()
    trees = [src] if ns.against is None else [Path(ns.against).resolve(), src]
    for tree in trees:
        compileall.compile_dir(tree / "pseudoflow", quiet=1)
    if ns.against is not None:
        print(f"base {trees[0]}  against  {src}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, expected in ROWS:
            times = [[] for _ in trees]
            for run in range(REPEATS):
                for i in sorted(range(len(trees)), reverse=run % 2 == 1):
                    times[i] += cold_times(trees[i], args, expected, 1, tmp)
            medians = [statistics.median(t) for t in times]
            if ns.against is None:
                spread = f"({min(times[0]):.3f}-{max(times[0]):.3f} s)"
                print(f"{medians[0]:.3f} s  {spread}  {label}", flush=True)
            else:
                base, change = medians
                print(f"{base:.3f} s  {change:.3f} s  x{change / base:.2f}  {label}", flush=True)


if __name__ == "__main__":
    main()

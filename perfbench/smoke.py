"""Self-check of the benchmark, run from the root of a checkout:

    python3 perfbench/smoke.py [--seconds 1]

1. Every workload (the two BENCHMARK.json gates and the two ungated ones),
   untraced and traced, produces every metric named in BENCHMARK.json
   (end_to_end and per_layer respectively) and a correct run.
2. An oracle value shifted by ten times its tolerance is counted as a
   failed operation: the perturbed run has a higher fail_frac than the
   same seed unperturbed.

Takes about four minutes; exits non-zero on the first broken assertion.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def bench(workload, seconds, trace, *extra):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = bench(workload, args.seconds, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(want) ^ set(got))}"
            assert res["correct"] and res["attempted"] >= 1, (workload, trace, res)
            print(f"ok  {workload:22s} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} ops, {res['failed']} failed")

    plain = bench("pointwise_quadrature", args.seconds, 0)
    shifted = bench("pointwise_quadrature", args.seconds, 0, "--perturb-oracle")
    frac = [r["failed"] / r["attempted"] for r in (plain, shifted)]
    assert frac[1] > frac[0], frac
    print(f"ok  perturbed oracle: fail_frac {frac[0]:.4f} -> {frac[1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

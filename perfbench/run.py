"""pseudoflow benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in fresh interpreters
(perfbench/worker.py) with the checkout's absolute ``src`` on PYTHONPATH, a
scratch working directory under perfbench/.work and PSEUDOFLOW_THREADS
unset. Set-up is measured three times (two set-up-only interpreters and the
measuring one) and reported as the median.

Every metric is printed as ``name value unit``; the last line of standard
output is the JSON result. With ``--trace 0`` its metrics are the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` ones. A results file with the environment, the per-kind
breakdown and every metric goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_subordination", "pointwise_quadrature", "hermite_series", "cli_cold")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


# Units of the printed metrics that BENCHMARK.json does not list; any other
# unlisted name is a time in seconds.
PRINTED_UNITS = {
    "fail_frac": "1",
    "tail_percentile": "%",
    "tail_samples_beyond": "count",
    "trace.ops": "count",
}


def units(spec: dict) -> dict:
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return collections.defaultdict(lambda: "s", {**PRINTED_UNITS, **listed})


def run_child(argv, env, cwd, timeout):
    """Run a worker in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f}s") from None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(libs, seed) -> dict:
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **libs,
        "blas_threads": threads,
        "blas_threads_effective": "library default (one per CPU)"
        if all(v == "unset" for v in threads.values()) else "from environment",
        "cli_thread_pool": min(4, os.cpu_count() or 1),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-oracle", action="store_true",
                    help="self-check: shift one oracle value per pass by 10x its tolerance")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pseudoflow", "__init__.py")):
        print(f"error: no pseudoflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    env = os.environ.copy()
    env.pop("PSEUDOFLOW_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        base = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
        ]
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            res = run_child(base + ["--mode", "setup", "--t0", repr(time.time())], env, workdir, 120)
            setups.append(res["setup_s"])
        extra = ["--perturb-oracle"] if args.perturb_oracle else []
        left = DEADLINE_S - (time.perf_counter() - start)
        res = run_child(base + extra + ["--t0", repr(time.time())], env, workdir, left)
        setups.append(res["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {"setup_s": statistics.median(setups)}
    for name in (
        "ops_per_s", "op_s.p50", "op_s.tail", "peak_rss_mb", "usage_error_s",  # cli_cold only
        "fail_frac", "tail_percentile", "tail_samples_beyond",
    ):
        if name in res:
            metrics[name] = res[name]
    metrics.update(res.get("layers", {}))
    unit = units(spec)
    correct = res["wrong"] == 0 and res["attempted"] > 0

    record = environment(res["libs"], args.seed)
    record.update({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "package_file": res["package_file"],
        "setup_samples_s": setups,
        "passes": res["passes"],
        "loop_wall_s": res["loop_wall_s"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": correct,
        "errors": res["errors"],
        "kinds": res["kinds"],
        "cli_csv": res.get("cli_csv", {}),
        "tail_kind": res["tail_kind"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    })
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, value in metrics.items():
        if value is None:
            print(f"{name:58s} unavailable: {res['attempted']} samples, "
                  f"a tail needs at least {res['tail_min_samples']}")
        else:
            print(f"{name:58s} {value:.6g} {unit[name]}")
    if res["tail_kind"] is not None:
        print(f"{'tail_kind':58s} {res['tail_kind']}")
    print(f"{'attempted':58s} {res['attempted']}  failed {res['failed']}  wrong {res['wrong']}")
    for kind, k in sorted(res["kinds"].items()):
        print(f"  {kind:40s} n={k['n']:4d} failed={k['failed']:3d} "
              f"median={k['median_s']:.4g}s max={k['max_s']:.4g}s max_err={k['max_err']:.2e}")
    for err in res["errors"]:
        print(f"  error: {err}")
    print(f"results: {os.path.relpath(path, ROOT)}")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter: set up, measure, print one JSON line.

Started by run.py with an absolute ``src`` on PYTHONPATH, a scratch working
directory and PSEUDOFLOW_THREADS unset. ``--t0`` is the parent's wall clock
just before the spawn, so setup time covers interpreter start, the package
import, input generation and one unscored warm-up operation.

    --mode setup   stop after the warm-up and report the setup time only
    --mode run     also run the closed loop (and, with --trace 1, the
                   traced rerun and the layer probes)
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import workloads as W
from run import WORKLOADS
from tracing import LAYERS, NullTracer, Tracer


def libraries() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


class Workload:
    """Pass generator plus warm-up for one named workload."""

    def __init__(self, name: str, seed: int, workdir: str, perturb: bool = False):
        self.name = name
        self.seed = seed
        self.perturb = perturb
        self.runner = None
        self.oracle = None
        if name == "hermite_series":
            self.oracle = W.SeriesOracle()
        if name == "cli_cold":
            self.runner = W.CliRunner(workdir)

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def pass_ops(self, index: int) -> list:
        rng = self.rng(index)
        if self.name == "grid_subordination":
            ops = W.grid_pass(rng)
        elif self.name == "pointwise_quadrature":
            ops = W.pointwise_pass(rng)
        elif self.name == "hermite_series":
            ops = W.hermite_pass(rng, self.oracle)
        else:
            ops = W.cli_pass(rng, self.runner)
        if self.perturb:
            perturb_oracle(next(op for op in ops if op.tol > 0))
        return ops

    def warmup(self):
        rng = np.random.default_rng([self.seed, 1 << 30])
        if self.name == "grid_subordination":
            return W.grid_warmup(rng)
        if self.name == "pointwise_quadrature":
            return W.pointwise_warmup(rng)
        if self.name == "hermite_series":
            return W._op_series(rng, self.oracle)
        return self.runner.make_op(W.usage_spec(rng))


def perturb_oracle(op) -> None:
    """Shift the op's oracle value by ten times its tolerance (self-check)."""
    check = op.check

    def shifted(result):
        err, scale = check(result)
        return err + 10.0 * op.tol, scale

    op.check = shifted


def run_op(op, tracer) -> dict:
    """Time one operation, then check it outside the timed interval."""
    rec = {"kind": op.kind, "layer": op.layer, "latency_s": None, "passed": False}
    wall0 = time.perf_counter()
    try:
        with tracer.span("harness"):
            if op.prepare is not None:
                op.prepare()
            try:
                with tracer.span(op.layer):
                    t0 = time.perf_counter()
                    result = op.call()
                    rec["latency_s"] = time.perf_counter() - t0
            except Exception as exc:  # the run goes on; the failure is counted
                rec["latency_s"] = time.perf_counter() - t0
                rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["wrong"] = True
                return rec
            try:
                with tracer.span("oracle"):
                    err, scale = op.check(result)
            except Exception as exc:
                rec["error"] = f"check: {type(exc).__name__}: {exc}"
                rec["wrong"] = True
                return rec
    finally:
        rec["wall_s"] = time.perf_counter() - wall0
    rec["err"] = err
    rec["tol"] = op.tol
    rec["passed"] = bool(err <= op.tol)
    rec["wrong"] = bool(not math.isfinite(err) or err > W.GROSS * scale)
    return rec


def operations(wl: Workload, tracer):
    """The workload's operations, pass after pass."""
    index = 0
    while True:
        with tracer.span("harness"):
            ops = wl.pass_ops(index)
        yield from ops
        index += 1


def closed_loop(wl: Workload, seconds: float):
    """Run whole passes until ``seconds`` of timed calls; return the records."""
    records = []
    timed = 0.0
    passes = 0
    tracer = NullTracer()
    while timed < seconds:
        for op in wl.pass_ops(passes):
            rec = run_op(op, tracer)
            records.append(rec)
            timed += rec["latency_s"]
        passes += 1
    return records, passes


# With fewer samples the 11th largest is not above the median.
TAIL_MIN_SAMPLES = 23


def tail(records):
    """Highest percentile with at least ten samples above it, and its kind.

    None when there are too few samples for that percentile to be a tail.
    """
    ranked = sorted(records, key=lambda r: r["latency_s"])
    n = len(ranked)
    if n < TAIL_MIN_SAMPLES:
        return None, None, None, None
    k = n - 11  # 0-based index of the 11th largest
    return ranked[k]["latency_s"], 100.0 * k / n, n - 1 - k, ranked[k]["kind"]


def summarize(records):
    lat = [r["latency_s"] for r in records]
    passed = sum(r["passed"] for r in records)
    tail_v, tail_p, beyond, tail_kind = tail(records)
    return {
        "attempted": len(records),
        "failed": len(records) - passed,
        "wrong": sum(r.get("wrong", False) for r in records),
        "timed_s": sum(lat),
        "ops_per_s": passed / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_v,
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "tail_kind": tail_kind,
        "tail_min_samples": TAIL_MIN_SAMPLES,
        "fail_frac": (len(records) - passed) / len(records),
    }


def by_kind(records) -> dict:
    out = {}
    for r in records:
        k = out.setdefault(r["kind"], {"n": 0, "failed": 0, "lat": [], "max_err": 0.0})
        k["n"] += 1
        k["failed"] += not r["passed"]
        k["lat"].append(r["latency_s"])
        if "err" in r:
            k["max_err"] = max(k["max_err"], r["err"])
    for k in out.values():
        lat = k.pop("lat")
        k["median_s"] = statistics.median(lat)
        k["max_s"] = max(lat)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--perturb-oracle", action="store_true")
    args = ap.parse_args()

    pkg = W.package_file()
    root = os.path.realpath(args.root)
    if not pkg.startswith(root + os.sep):
        raise SystemExit(f"pseudoflow imported from {pkg}, outside the checkout {root}")

    wl = Workload(args.workload, args.seed, os.getcwd(), args.perturb_oracle)
    warm = wl.warmup()
    run_op(warm, NullTracer())
    wl.pass_ops(0)  # input generation, as the loop's first pass will do it
    setup_s = time.time() - args.t0
    out = {"setup_s": setup_s, "package_file": pkg, "libs": libraries()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    records, passes = closed_loop(wl, args.seconds)
    out.update(summarize(records))
    out["passes"] = passes
    out["loop_wall_s"] = sum(r["wall_s"] for r in records)
    out["kinds"] = by_kind(records)
    out["errors"] = [r["error"] for r in records if "error" in r][:20]
    if args.workload == "cli_cold":
        usage = [r["latency_s"] for r in records if r["kind"] == "usage_error"]
        out["usage_error_s"] = statistics.median(usage)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        out["cli_csv"] = wl.runner.csv_record
    else:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import probes

        out["layers"] = layer_metrics(wl, args, records)
        out["layers"].update(probes.run_all(args.seed))
        probes.error_metrics(records, out["layers"])
    print(json.dumps(out))
    return 0


def layer_metrics(wl, args, plain):
    """Traced rerun of the loop's first operations, a third of its timed calls.

    The rerun gets the same inputs (passes are seeded by index); the
    overhead compares its wall time with those operations untraced.
    """
    tracer = Tracer()
    traced = []
    timed = 0.0
    for op, before in zip(operations(wl, tracer), plain):
        tracer.op_id = len(traced)
        traced.append(run_op(op, tracer))
        timed += before["latency_s"]
        if timed >= args.seconds / 3:
            break
    path = os.path.join(args.root, "perfbench", "results", f"{args.workload}-seed{args.seed}-spans.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.dump(path)
    self_t = tracer.self_times()
    n = len(traced)
    out = {f"span.{layer}.self_s": self_t.get(layer, 0.0) / n for layer in LAYERS}
    plain_wall = sum(r["wall_s"] for r in plain[:n])
    out["trace.overhead_frac"] = sum(r["wall_s"] for r in traced) / plain_wall - 1.0
    out["trace.ops"] = n
    return out


if __name__ == "__main__":
    sys.exit(main())

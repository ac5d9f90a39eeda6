#!/usr/bin/env python3
"""iwacalc benchmark: three workloads, end-to-end and per-layer metrics.

One workload, in this process:

    python3 bench/run.py --workload group-route --seed 1 --seconds 30 --trace 0

Every workload, each in a process of its own, N seeds each:

    python3 bench/run.py [--runs N] [--seed S] [--results FILE]

The last line of a one-workload run is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it
holds the raw wall seconds.  See bench/README.md for the method.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("group-route", "ideal-closure", "cli-tasks")
SETUP_REPS = 3


def load_program() -> None:
    """Import iwacalc from this checkout's src/, or exit 2."""
    package = os.path.join(SRC, "iwacalc")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no iwacalc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import iwacalc
    if os.path.dirname(os.path.abspath(iwacalc.__file__)) != package:
        print(f"error: imported iwacalc from {iwacalc.__file__}", file=sys.stderr)
        sys.exit(2)


def make_ops(workload: str, seed: int, workdir: str):
    import workloads
    if workload == "group-route":
        return workloads.group_route_ops(seed)
    if workload == "ideal-closure":
        return workloads.ideal_closure_ops(seed)
    return workloads.cli_tasks_ops(seed, workdir)


class Run:
    """Samples of one workload run, and its operation accounting."""

    def __init__(self, ops):
        self.ops = ops
        self.setup = {op.name: [] for op in ops}
        self.run = {op.name: [] for op in ops}
        self.kernels: list[float] = []
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @staticmethod
    def _timed(fn, *args):
        gc.collect()
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out

    def one_pass(self, setup_reps: int = SETUP_REPS) -> float:
        """Run every operation once; return the seconds spent on checks."""
        checking = 0.0
        for op in self.ops:
            self.attempted += 1
            self.kernels.append(calib.kernel())
            try:
                for _ in range(setup_reps):
                    dt, ctx = self._timed(op.setup)
                    self.setup[op.name].append(dt)
                    self.kernels.append(calib.kernel())
                args = op.prepare(ctx)
                dt, out = self._timed(op.run, args)
                self.run[op.name].append(dt)
            except Exception as exc:  # a raising operation counts as failed
                self.failed += 1
                self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                self.kernels.append(calib.kernel())
            t0 = time.perf_counter()
            try:
                problems = self._verify(op, args, out)
            except Exception as exc:
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
            checking += time.perf_counter() - t0
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return checking

    def _verify(self, op, args, out) -> list[str]:
        seen = self.fingerprints.get(op.name)
        if seen is None:
            problems = op.check(args, out)
            if not problems:
                self.fingerprints[op.name] = op.fingerprint(out)
            return problems
        if op.fingerprint(out) != seen:
            return [f"{op.name}: output differs from the checked pass"]
        return []

    def per_op(self) -> dict:
        """Median raw (set-up, run) seconds of each operation."""
        return {name: [round(statistics.median(self.setup[name]), 4),
                       round(statistics.median(times), 4)]
                for name, times in self.run.items() if times}

    def scale(self) -> float:
        """Seconds to reference seconds (see calib.py)."""
        return calib.KERNEL_REF_S / statistics.mean(self.kernels)

    def totals(self) -> tuple[float, float]:
        """(run, set-up) wall seconds of one pass: each operation counts at
        the median of its repetitions."""
        run_s = setup_s = 0.0
        for op in self.ops:
            if not self.run[op.name]:
                continue
            s = statistics.median(self.setup[op.name])
            r = statistics.median(self.run[op.name])
            if op.run_includes_setup:
                r = max(r - s, 0.0)
            run_s += r
            setup_s += s
        return run_s, setup_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """(result, raw figures) of one run of one workload."""
    load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        ops = make_ops(workload, seed, workdir)
        r = Run(ops)
        if trace:
            return _traced(r, workload, seed)
        start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            checking = r.one_pass()
            passes += 1
            now = time.perf_counter()
            if now - start + (now - t0 - checking) > seconds:
                break
        raw_run, raw_setup = r.totals()
        scale = r.scale()
        metrics = {
            "run_s": {"value": raw_run * scale, "unit": "s"},
            "setup_s": {"value": raw_setup * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        raw = {"passes": passes, "raw_run_s": raw_run, "raw_setup_s": raw_setup,
               "kernel_mean_s": statistics.mean(r.kernels), "ops": r.per_op(),
               "problems": r.problems[:10]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": r.failed == 0, "attempted": r.attempted,
            "failed": r.failed, "metrics": metrics}, raw


def _traced(r: Run, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; per-layer metrics come from
    the traced pass, and the difference of the two is the overhead."""
    import spans
    import workloads
    r.one_pass(setup_reps=1)
    plain = r.totals()
    r.run = {op.name: [] for op in r.ops}
    r.setup = {op.name: [] for op in r.ops}
    tracer = spans.Tracer()
    tracer.install(namespaces=[workloads])
    try:
        r.one_pass(setup_reps=1)
    finally:
        tracer.uninstall()
    traced = r.totals()
    scale = r.scale()
    metrics = spans.per_layer_metrics(tracer, scale)
    metrics["trace.run_s"] = {"value": traced[0] * scale, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": (traced[0] - plain[0]) * scale,
                                   "unit": "s"}
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(path)
    raw = {"trace_file": os.path.relpath(path, ROOT), "absent": tracer.absent,
           "raw_untraced_run_s": plain[0], "raw_traced_run_s": traced[0],
           "kernel_mean_s": statistics.mean(r.kernels), "problems": r.problems[:10]}
    return {"correct": r.failed == 0, "attempted": r.attempted,
            "failed": r.failed, "metrics": metrics}, raw


def run_all(args) -> int:
    """Each workload in a child process, `--runs` seeds, interleaved."""
    status = 0
    for k in range(args.runs):
        for workload in WORKLOADS:
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.results:
                cmd += ["--results", args.results]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed={seed}: exit code {proc.returncode}")
                status = 1
                continue
            res = json.loads(lines[-1])
            shown = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                              for name, m in res["metrics"].items())
            print(f"{workload} seed={seed}: {shown}  attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']}", flush=True)
            if not res["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1,
                    help="with --workload all: seeds per workload")
    ap.add_argument("--results", default=None,
                    help="append each run's result, as a JSON line, to this file")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, raw = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    tag = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**tag, **result, "raw": raw}) + "\n")
    print(json.dumps({**tag, **raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in benchmark of distress-lda.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client for S seconds, checks
every op's output against the goldens, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it is the full record of the run (environment, input shares, sample
counts, problems). With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer self times and counts, taken from spans the
benchmark records around the package's public functions, and the spans are
written to .bench_out/. Workloads, metrics and their expected movement are
described in bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import COUNTS, TARGETS, Tracer

ROOT = workloads.ROOT
PACKAGE = workloads.SRC / "distress_lda"
SETUP_RUNS = 9  # cold set-ups per untraced run, spread over it; setup_s is their median
PROBE_RUNS = 9  # cold interpreter / import processes per traced run
CALIB_EVERY_S = 1.0
MAX_PROBLEMS = 5


def calibrate() -> float:
    """A fixed pure-Python loop, in ms; timed between ops to show host drift."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return (time.perf_counter() - t0) * 1e3


def environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    ) if Path("/proc/cpuinfo").exists() else platform.processor()
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = None  # not a git checkout; src_sha256 still identifies the code
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def _cold(argv: list[str], env: dict | None = None) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a cold set-up: build the workload and pass one checked op."""
    bench = workloads.WORKLOADS[workload](seed, traced=False)
    try:
        problems = bench.check(0, bench.op(0))
    finally:
        bench.close()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile by statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(bench, seconds: float, tracer, setup) -> dict:
    """Closed loop for `seconds`: time each op, check it outside the timing.

    When `setup` is given, it is called SETUP_RUNS times at even intervals
    between ops, so that the set-up times sample the host over the whole
    run, as the op times do, and not only its first seconds.

    In a traced run each op input runs twice in a row, untraced then
    traced. Each such pair shares its input and, nearly, the host's state, so
    the traced time minus its untraced twin is one sample of tracing overhead.
    """
    timings = {False: [], True: []}
    twin: dict[int, float] = {}  # untraced ms of op input n, until its traced run
    overhead: list[float] = []
    by_label: dict[str, list[float]] = {}
    attempted = failed = 0
    problems: list[str] = []
    calib = []
    setup_s: list[float] = []
    setups_run = 0
    start = time.perf_counter()
    deadline = start + seconds
    next_calib = start
    i = 0
    while time.perf_counter() < deadline:
        due = setups_run < SETUP_RUNS and time.perf_counter() >= start + setups_run * seconds / SETUP_RUNS
        if setup is not None and due:
            setups_run += 1
            try:
                setup_s.append(setup())
            except RuntimeError as exc:
                problems += [f"set-up failed: {exc}"][: MAX_PROBLEMS - len(problems)]
        if time.perf_counter() >= next_calib:
            calib.append(calibrate())
            next_calib += CALIB_EVERY_S
        traced = tracer is not None and i % 2 == 1
        n = i // 2 if tracer is not None else i
        attempted += 1
        try:
            if traced:
                with tracer.installed(i):
                    t0 = time.perf_counter()
                    with tracer.span(bench.root(n)):
                        output = bench.op(n)
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                output = bench.op(n)
                t1 = time.perf_counter()
            found = bench.check(n, output)
        except Exception:  # a failing op is counted and reported, never timed
            found = [traceback.format_exc(limit=3)]
        if found:
            failed += 1
            problems += found[: MAX_PROBLEMS - len(problems)]
        else:
            timings[traced].append((t1 - t0) * 1e3)
            if traced and n in twin:
                overhead.append((t1 - t0) * 1e3 - twin.pop(n))
            elif not traced:
                by_label.setdefault(bench.label(n), []).append((t1 - t0) * 1e3)
                if tracer is not None:
                    twin[n] = (t1 - t0) * 1e3
        i += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced_ms": timings[False],
        "traced_ms": timings[True],
        "overhead_ms": overhead,
        "untraced_by_label": by_label,
        "calib_ms": calib,
        "setup_s": setup_s,
        "wall_s": time.perf_counter() - start,
    }


def end_to_end(loop: dict, setup_s: float, workload: str) -> dict:
    ms = loop["untraced_ms"]
    who = resource.RUSAGE_CHILDREN if workload == "cli-case-study" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss  # KiB on Linux
    ok = loop["attempted"] - loop["failed"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.p50": {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"},
        "op_ms.p90": {"value": quantile(ms, 90) if ms else 0.0, "unit": "ms"},
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3) if ms else 0.0, "unit": "1/s"},
        "ok_ratio": {"value": ok / loop["attempted"], "unit": "ratio"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(loop: dict, tracer, probes: dict) -> dict:
    """Self time per op (median over the traced ops that reach the layer; 0
    when none does), counts per traced op, and the process-level probes."""
    metrics = {
        "interpreter.ms": {"value": probes["interpreter_ms"], "unit": "ms"},
        "import.ms": {"value": probes["import_ms"], "unit": "ms"},
    }
    self_ms = tracer.self_times()
    for name in [f"cli.main.{cmd}" for cmd in workloads.CLI_COMMANDS] + list(TARGETS):
        per_op = list(self_ms.get(name, {}).values())
        metrics[f"{name}.ms"] = {"value": statistics.median(per_op) if per_op else 0.0, "unit": "ms"}
    ops = max(len(loop["traced_ms"]), 1)
    totals: dict[str, int] = {}
    for counts in tracer.counts.values():
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    for name in COUNTS:
        metrics[name] = {"value": totals.get(name, 0) / ops, "unit": "count"}
    records = totals.get("classification.records", 0)
    metrics["classification.scored_ratio"] = {
        "value": totals.get("classification.scored", 0) / records if records else 0.0, "unit": "ratio",
    }
    calib = loop["calib_ms"]
    metrics["host.calib_ms"] = {"value": statistics.median(calib) if calib else 0.0, "unit": "ms"}
    overhead = loop["overhead_ms"]
    metrics["trace.overhead_ms"] = {"value": statistics.median(overhead) if overhead else 0.0, "unit": "ms"}
    return metrics


def process_probes() -> dict:
    """Cold `python -c pass` and `import distress_lda.cli`, alternated; medians in ms."""
    env = workloads.cli_env()
    bare, loaded = [], []
    for _ in range(PROBE_RUNS):
        bare.append(_cold([sys.executable, "-c", "pass"], env) * 1e3)
        loaded.append(_cold([sys.executable, "-c", "import distress_lda.cli"], env) * 1e3)
    return {"interpreter_ms": statistics.median(bare), "import_ms": statistics.median(loaded) - statistics.median(bare)}


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    return {"n": len(values), "p50": statistics.median(values), "min": min(values), "max": max(values),
            "first": values[0], "last": values[-1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    # The CLI reads its config file from this variable. The subprocess calls
    # already run without it (workloads.cli_env); dropping it here gives the
    # in-process calls of a traced run the same settings.
    os.environ.pop("DISTRESS_LDA_CONFIG", None)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    def setup() -> float:
        return _cold([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                      "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"])

    probes = process_probes() if args.trace else None

    bench = workloads.WORKLOADS[args.workload](args.seed, traced=bool(args.trace))
    try:
        # Warm-up, untimed: first-call costs such as the package import are set-up.
        problems = [f"warm-up: {p}" for p in bench.check(0, bench.op(0))]
        tracer = Tracer() if args.trace else None
        loop = measure(bench, args.seconds, tracer, None if args.trace else setup)
    finally:
        bench.close()
    loop["problems"] = problems + loop["problems"]
    correct = not loop["problems"] and loop["failed"] == 0

    if args.trace:
        metrics = per_layer(loop, tracer, probes)
        spans_file = workloads.WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["probes"] = probes
    else:
        metrics = end_to_end(loop, statistics.median(loop["setup_s"]) if loop["setup_s"] else 0.0, args.workload)
    record.update({
        "input": bench.info,
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "fail_ratio": loop["failed"] / loop["attempted"],
        "problems": loop["problems"],
        "setup_s_samples": loop["setup_s"],
        "untraced_ms": summary(loop["untraced_ms"]),
        "traced_ms": summary(loop["traced_ms"]),
        "overhead_ms": summary(loop["overhead_ms"]),
        "untraced_ms_by_label": {k: summary(v) for k, v in sorted(loop["untraced_by_label"].items())},
        "calib_ms": summary(loop["calib_ms"]),
        "wall_s": loop["wall_s"],
        "loadavg_end": list(os.getloadavg()),
        "metrics": metrics,
    })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": loop["attempted"], "failed": loop["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over seeds 1..10 and save the records as one result set.

    python3 bench/collect.py --out SET.json [--parent DIR]

Every workload in BENCHMARK.json runs once per seed, over seeds 1-10, and
then once traced with seed 1; seeds go in the outer loop so host drift
spreads over all workloads. With --parent DIR, where DIR is a checkout of
the parent commit, each run is made twice, once in DIR and once in this
tree, and which of the two goes first alternates from one pair to the next.
Every record carries its "side": "parent", or "change" for this tree. Only
a paired set lets compare.py call a metric improved or regressed.

After the runs it prints, per side, workload and end-to-end metric, the
spread between runs (quartile distance over median) against the metric's
bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # untraced runs per workload and side: the pairs a verdict needs
TRACE_RUNS = 1


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: no result (exit {proc.returncode}): "
                           f"{proc.stderr[-800:]}")
    record = json.loads(lines[-2])["record"]
    record["exit_code"] = proc.returncode
    return record


def collect(trees: dict, names: list[str], seeds: range, seconds: int, trace: int) -> list[dict]:
    runs = []
    for seed in seeds:
        for index, name in enumerate(names):
            sides = list(trees)
            if (seed + index) % 2:  # alternate which side of a pair runs first
                sides.reverse()
            for side in sides:
                record = run_once(trees[side], name, seed, seconds, trace)
                record["side"] = side
                runs.append(record)
                print(f"{name} seed {seed} trace {trace} {side}: correct={record['correct']}", file=sys.stderr)
    return runs


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit to pair every run with")
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": args.parent.resolve(), "change": ROOT}

    runs = collect(trees, names, range(1, RUNS + 1), bench["run_seconds"], 0)
    runs += collect(trees, names, range(1, TRACE_RUNS + 1), bench["run_seconds"], 1)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(json.dumps(run, sort_keys=True) for run in runs)  # one run per line
    args.out.write_text(f'{{"seconds": {bench["run_seconds"]}, "runs": [\n{body}\n]}}\n', encoding="utf-8")

    print(f"{'side':<8}{'workload':<16}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    worst = "ok"
    for side in trees:
        for name in names:
            records = [r for r in runs if r["workload"] == name and r["trace"] == 0 and r["side"] == side]
            for metric in bench["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in records]
                if len(values) < 2:
                    continue
                q1, median, q3 = quartiles(values)
                share = (q3 - q1) / abs(median) if median else 0.0
                flag = "" if share < metric["bound"] / 3 else (" >bound/3" if share <= metric["bound"] else " >BOUND")
                if flag:
                    worst = "unsteady"
                print(f"{side:<8}{name:<16}{metric['name']:<14}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{share:>9.4f}{metric['bound']:>7.2f}{flag}")
    failures = [r for r in runs if not r["correct"]]
    for r in failures:
        print(f"INCORRECT: {r['side']} {r['workload']} seed {r['seed']}: {r['problems'][:2]}")
    print(f"runs: {len(runs)}, incorrect: {len(failures)}, spreads: {worst}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

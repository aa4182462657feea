"""Compare the two sides of a paired result set written by collect.py --parent.

    python3 bench/compare.py SET.json

In a paired set every seed ran once in the parent tree and once in the
changed tree, alternating which ran first, so host drift falls on both sides
of a pair alike. For each workload and metric it prints both sides' median
and quartiles, the fraction of seed-matched pairs that the change wins (ties
count for neither), and a verdict:

- improved: the change wins at least 9 of 10 pairs, over at least 10 pairs,
  the medians differ by more than the parent's own quartile distance, and no
  more ops failed than on the parent;
- unresolved: the run-to-run spread of either side exceeds the metric's
  bound, unless every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- unchanged: otherwise.

Per-layer metrics have no bound: they get improved/regressed by the pair
rule in either direction, or "no claim". It also prints each side's host
calibration loop. Sets collected apart are not compared, since drift
between them would count as a change; collect.py prints each set's spread.
Exits 1 when an end-to-end metric regressed, 2 on a set that is not paired.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(result_set: dict, workload: str, trace: int, metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of one metric, matched by seed."""
    by_side = {side: {} for side in SIDES}
    for r in result_set["runs"]:
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]:
            by_side[r["side"]][r["seed"]] = r["metrics"][metric]["value"]
    parent, change = by_side["parent"], by_side["change"]
    return [(parent[seed], change[seed]) for seed in sorted(parent.keys() & change.keys())]


def verdict(base: list[float], new: list[float], lower_is_better: bool, bound: float | None,
            more_failures: bool) -> tuple[float, str]:
    def better(b: float, a: float) -> bool:
        return b < a if lower_is_better else b > a

    matched = list(zip(base, new))
    wins = sum(better(b, a) for a, b in matched) / len(matched)
    losses = sum(better(a, b) for a, b in matched) / len(matched)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    apart = abs(nmed - bmed) > bq3 - bq1
    if len(matched) >= MIN_PAIRS and apart and wins >= WIN_SHARE and better(nmed, bmed) and not more_failures:
        return wins, "improved"
    if bound is None:
        if len(matched) >= MIN_PAIRS and apart and losses >= WIN_SHARE:
            return wins, "regressed"
        return wins, "no claim"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound and not all(better(b, a) for a in base for b in new):
        return wins, "unresolved"
    worse = (nmed - bmed) if lower_is_better else (bmed - nmed)
    if bmed and worse / abs(bmed) > bound:
        return wins, "regressed"
    return wins, "unchanged"


def calibration(result_set: dict, side: str) -> str:
    values = [r["calib_ms"]["p50"] for r in result_set["runs"] if r["side"] == side and r["calib_ms"].get("n")]
    if not values:
        return "n/a"
    q1, median, q3 = quartiles(values)
    return f"{median:.2f} ms [{q1:.2f}, {q3:.2f}] over {len(values)} runs"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    result_set = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    if {r.get("side") for r in result_set["runs"]} != set(SIDES):
        print(f"{argv[0]}: not a paired set; collect one with collect.py --parent", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"host calibration loop: parent {calibration(result_set, 'parent')}; "
          f"change {calibration(result_set, 'change')}")
    print(f"{'workload':<16}{'metric':<40}{'parent p50 [q1, q3]':>32}{'change p50 [q1, q3]':>32}"
          f"{'wins':>6}  verdict")
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        failed = {side: sum(r["failed"] for r in result_set["runs"] if r["workload"] == workload
                            and r["side"] == side) for side in SIDES}
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for metric in metrics:
                matched = pairs(result_set, workload, trace, metric["name"])
                if not matched:
                    continue
                a, b = [p for p, _ in matched], [c for _, c in matched]
                wins, result = verdict(a, b, metric["better"] == "lower", metric.get("bound"),
                                       failed["change"] > failed["parent"])
                regressed |= trace == 0 and result == "regressed"
                aq1, amed, aq3 = quartiles(a)
                bq1, bmed, bq3 = quartiles(b)
                print(f"{workload:<16}{metric['name']:<40}"
                      f"{f'{amed:.4g} [{aq1:.4g}, {aq3:.4g}]':>32}{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>32}"
                      f"{wins:>6.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

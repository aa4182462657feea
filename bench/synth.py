"""Seeded synthetic bank-year panels for the benchmark.

A panel spans 2012-2020. About 15% of banks are distressed: they report
through 2015 and drop out in a year drawn from 2016-2019, after which every
row is an all-zero placeholder, as in the bundled appendix panels. About 10%
of going concerns start late (2013-2015) and carry leading placeholders.
Every bank therefore has data in the 2012-2015 training window.

The package only ever sees the CSV text; the generator never imports it.
"""
from __future__ import annotations

import csv
import io
import random

YEARS = tuple(range(2012, 2021))
COLUMNS = ("bank", "year", "eaa", "roae", "roaa", "nii", "laaa", "bdtla", "label")
DISTRESSED_SHARE = 0.15
LATE_START_SHARE = 0.10

# (mean, between-bank sd) per ratio, going concerns then distressed banks.
_PROFILE = {
    "nonbankrupt": ((0.13, 0.05), (0.14, 0.10), (0.018, 0.012), (0.055, 0.015), (0.55, 0.12), (0.04, 0.025)),
    "bankrupt": ((0.08, 0.07), (0.00, 0.12), (-0.004, 0.02), (0.045, 0.02), (0.66, 0.14), (0.09, 0.05)),
}
_PLACEHOLDER = ["0.0000"] * 6


def generate_panel(seed: int, banks: int) -> tuple[str, dict]:
    """Return (CSV text, info) for a panel of `banks` banks over YEARS.

    info records the seed and the measured shares of placeholder rows,
    distressed banks and late starters, so a result says what it ran on.
    """
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    rows = placeholders = distressed = late = 0
    for index in range(banks):
        name = f"Bank {index:04d}, S.A"
        is_distressed = rng.random() < DISTRESSED_SHARE
        label = "bankrupt" if is_distressed else "nonbankrupt"
        first, stop = YEARS[0], YEARS[-1] + 1
        if is_distressed:
            distressed += 1
            stop = rng.randint(2016, 2019)
        elif rng.random() < LATE_START_SHARE:
            late += 1
            first = rng.randint(2013, 2015)
        base = [rng.gauss(mean, sd) for mean, sd in _PROFILE[label]]
        spread = [sd for _, sd in _PROFILE[label]]
        for year in YEARS:
            rows += 1
            if not first <= year < stop:
                placeholders += 1
                writer.writerow([name, year, *_PLACEHOLDER, label])
                continue
            cells = [f"{b + 0.3 * s * rng.gauss(0.0, 1.0):.4f}" for b, s in zip(base, spread)]
            if all(float(c) == 0.0 for c in cells):
                cells[0] = "0.0001"  # an all-zero row would read as a placeholder
            writer.writerow([name, year, *cells, label])
    info = {
        "seed": seed,
        "banks": banks,
        "rows": rows,
        "placeholder_share": placeholders / rows,
        "distressed_share": distressed / banks,
        "late_start_share": late / banks,
    }
    return out.getvalue(), info

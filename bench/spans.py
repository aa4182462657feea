"""In-memory spans around the package's public functions.

The tracer lives entirely on the benchmark side: it swaps named functions
for timing wrappers in every loaded `distress_lda` module that refers to
them (the defining module, `cli`, the package namespace), and swaps them
back afterwards. No file of the package is touched.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int


def _count_records(counts: dict, args: tuple, result) -> None:
    counts["dataset.rows"] = counts.get("dataset.rows", 0) + len(result)
    unavailable = sum(1 for record in result if not record.available)
    counts["dataset.unavailable_rows"] = counts.get("dataset.unavailable_rows", 0) + unavailable


def _count_samples(counts: dict, args: tuple, result) -> None:
    counts["dataset.banks_averaged"] = counts.get("dataset.banks_averaged", 0) + len(result.samples)


def _count_fit(counts: dict, args: tuple, result) -> None:
    counts["lda_fit.fits"] = counts.get("lda_fit.fits", 0) + 1


def _count_evaluation(counts: dict, args: tuple, result) -> None:
    # evaluate_panel(model, stats, records, ...): every caller passes records positionally.
    counts["classification.records"] = counts.get("classification.records", 0) + len(args[2])
    scored = sum(row.total for row in result.years)
    grey = sum(row.grey_count for row in result.years)
    counts["classification.scored"] = counts.get("classification.scored", 0) + scored
    counts["classification.grey"] = counts.get("classification.grey", 0) + grey


# Public functions timed as layers, with the counts taken from their results.
TARGETS = {
    "dataset.parse_panel": _count_records,
    "dataset.panel_labels": None,
    "dataset.training_set_from_panel": _count_samples,
    "classification.infer_warning_years": None,
    "classification.evaluate_panel": _count_evaluation,
    "classification.report_to_dict": None,
    "classification.confusion_matrix": None,
    "normalization.fit_normalizer": None,
    "normalization.normalize_training_set": None,
    "lda_fit.fit": _count_fit,
    "diagnostics.wilks_test": None,
    "diagnostics.box_m_from_model": None,
    "diagnostics.collinearity_check": None,
    "model_io.model_to_dict": None,
    "model_io.model_from_dict": None,
    "model_io.save_model": None,
    "model_io.load_model": None,
}
# Counts the hooks above produce, reported per traced op.
COUNTS = (
    "dataset.rows", "dataset.unavailable_rows", "dataset.banks_averaged",
    "lda_fit.fits", "classification.scored", "classification.grey",
)


class Tracer:
    """Keeps spans and per-op counts in memory until `write` is called."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for name, counter in TARGETS.items():
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"distress_lda.{module}"), func)
            self._wrappers[original] = self._wrap(name, original, counter)

    def _wrap(self, name, func, counter):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                counter(self.counts.setdefault(self._op, {}), args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrappers in place for the duration of op `op`; spans and counts go to it."""
        self._op = op
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "distress_lda" or n.startswith("distress_lda.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, dict[int, float]]:
        """name -> op -> self time in ms: each span minus its direct children."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        out: dict[str, dict[int, float]] = {}
        for index, span in enumerate(self.spans):
            per_op = out.setdefault(span.name, {})
            per_op[span.op] = per_op.get(span.op, 0.0) + (span.end - span.start - children[index]) * 1e3
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span; start and end in ms from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record["start"] = (span.start - t0) * 1e3
                record["end"] = (span.end - t0) * 1e3
                handle.write(json.dumps(record) + "\n")

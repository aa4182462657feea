"""The benchmark's workloads: inputs, one op, and the check of its output.

Each workload is a closed loop with one client: `op(i)` runs operation i
and returns its output, `check(i, output)` compares that output with the
goldens captured from the package (`capture.py`) and returns a list of
problems, empty when the output is right. Checks run outside the timed
region.

The package is reached only through its public functions, looked up on its
modules at call time so that a tracer can wrap them, or through whole
`python -m distress_lda.cli` processes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "distress_lda" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
WORK = ROOT / ".bench_out"

PANEL_BANKS = 800
PANEL_SEEDS = 32  # --seed maps onto this many golden-checked panels
PANEL_WINDOW = (2012, 2015)
REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for values that are zero up to rounding, such as the constant


# ------------------------------------------------------------------ checking


def diff(actual, expected, path: str = "$") -> list[str]:
    """Differences between two JSON-like values: floats within REL_TOL, the rest exact."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if actual == expected or abs(actual - expected) <= max(REL_TOL * max(abs(actual), abs(expected)), ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for key in expected for p in diff(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in diff(a, e, f"{path}[{i}]")]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _identity_problems(model, wilks) -> list[str]:
    # The fit's own identities: z-scored inputs centre the scores, and
    # Wilks' lambda is 1/(1 + eigenvalue) both in the model and in the test.
    problems = []
    if abs(model.constant) > 1e-9:
        problems.append(f"constant {model.constant!r} is not ~0 on z-scores")
    expected = 1.0 / (1.0 + model.eigenvalue)
    for where, value in (("model", model.wilks_lambda), ("wilks_test", wilks.wilks_lambda)):
        if abs(value - expected) > 1e-12 * expected:
            problems.append(f"{where} wilks {value!r} != 1/(1+eigenvalue) = {expected!r}")
    return problems


def _fit_digest(stats, model, confusion, wilks, box, collinearity, zones) -> dict:
    from distress_lda.dataset import VARIABLES, GroupLabel

    return {
        "n": [model.n0, model.n1],
        "normalization": [[stats.mean[v], stats.sd[v]] for v in VARIABLES],
        "coefficients": [model.coefficients[v] for v in VARIABLES],
        "standardized": [model.standardized[v] for v in VARIABLES],
        "constant": model.constant,
        "centroids": [model.y0, model.y1, model.s0, model.s1],
        "eigenvalue": model.eigenvalue,
        "fisher_constants": [model.fisher.constants[g] for g in ("bankrupt", "nonbankrupt")],
        "confusion": [confusion.count(a, p) for a in GroupLabel for p in GroupLabel],
        "wilks": [wilks.wilks_lambda, wilks.chi_square, wilks.df, wilks.p_value],
        "box_m": [box.m, box.f_approx, box.df1, box.df2, box.p_value, box.branch],
        "collinear": [[a, b, r] for a, b, r in collinearity.flagged_pairs],
        "zones": [zones.cutoff, list(zones.grey) if zones.grey is not None else None],
    }


def _diagnose(model, tsZ):
    from distress_lda import classification, diagnostics

    confusion = classification.confusion_matrix(model, tsZ)
    wilks = diagnostics.wilks_test(model)
    box = diagnostics.box_m_from_model(model)
    collinearity = diagnostics.collinearity_check(model.pooled_correlation, 0.8, model.variables)
    return confusion, wilks, box, collinearity


def _load_golden(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


# ------------------------------------------------------------- cli-case-study

CLI_COMMANDS = ("fit", "diagnose", "classify", "evaluate")
CLI_KINDS = tuple((cmd, fmt) for cmd in CLI_COMMANDS for fmt in ("text", "json"))


def cli_argv(cmd: str, fmt: str) -> list[str]:
    """Arguments of one CLI call on the bundled case study, run from a scratch cwd."""
    panels = ["--panel", str(DATA / "appendix_a.csv"), "--panel", str(DATA / "appendix_b.csv")]
    args = {
        # model.json is relative: fit echoes the path, so it must not depend on the checkout.
        "fit": ["--train", str(DATA / "table2.csv"), "--model", "model.json"],
        "diagnose": ["--model", "model.json"],
        "classify": [*panels, "--model", str(DATA / "reference_model.json"), "--zones", "paper"],
        "evaluate": [*panels, "--model", str(DATA / "reference_model.json"), "--zones", "paper"],
    }[cmd]
    return [cmd, *args, "--format", fmt]


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DISTRESS_LDA_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class CliCaseStudy:
    """One op is one cold `python -m distress_lda.cli` call; in a traced run,
    one in-process `cli.main(argv)` call with stdout captured instead."""

    name = "cli-case-study"

    def __init__(self, seed: int, traced: bool) -> None:
        self.traced = traced
        self.offset = seed % len(CLI_KINDS)
        self.goldens = {kind: (GOLDEN / "cli" / f"{kind[0]}.{kind[1]}").read_bytes() for kind in CLI_KINDS}
        WORK.mkdir(exist_ok=True)
        self.cwd = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        self.env = cli_env()
        self.info = {"seed": seed, "first_kind": "/".join(CLI_KINDS[self.offset])}
        # diagnose reads the model that fit writes into the scratch cwd.
        problems = self.check(-1, self._run(CLI_KINDS[0]))
        if problems:
            self.close()
            raise RuntimeError("; ".join(problems))

    def kind(self, i: int) -> tuple[str, str]:
        return CLI_KINDS[(i + self.offset) % len(CLI_KINDS)]

    def root(self, i: int) -> str:
        return f"cli.main.{self.kind(i)[0]}"

    def label(self, i: int) -> str:
        return "/".join(self.kind(i))

    def _run(self, kind):
        argv = cli_argv(*kind)
        if not self.traced:
            proc = subprocess.run(
                [sys.executable, "-m", "distress_lda.cli", *argv],
                cwd=self.cwd, env=self.env, capture_output=True, check=False,
            )
            return kind, proc.returncode, proc.stdout, proc.stderr
        from distress_lda import cli

        out, err = io.StringIO(), io.StringIO()
        previous = Path.cwd()
        os.chdir(self.cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(previous)
        return kind, code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    def op(self, i: int):
        return self._run(self.kind(i))

    def check(self, i: int, output) -> list[str]:
        (cmd, fmt), code, stdout, stderr = output
        where = f"{cmd} --format {fmt}"
        if code != 0:
            return [f"{where}: exit {code}: {stderr.decode('utf-8', 'replace').strip()}"]
        golden = self.goldens[(cmd, fmt)]
        if fmt == "json":
            try:
                actual = json.loads(stdout)
            except ValueError as exc:
                return [f"{where}: stdout is not JSON: {exc}"]
            return [f"{where}: {p}" for p in diff(actual, json.loads(golden))[:5]]
        if stdout != golden:
            got, want = stdout.decode("utf-8", "replace").splitlines(), golden.decode("utf-8").splitlines()
            line = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            return [f"{where}: text differs from golden at line {line + 1}"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.cwd, ignore_errors=True)


# ----------------------------------------------------------------- panel-800


class Panel800:
    """One op is the full library pipeline on an 800-bank synthetic panel."""

    name = "panel-800"

    def __init__(self, seed: int, traced: bool) -> None:
        self.panel_seed = seed % PANEL_SEEDS
        self.text, self.info = synth.generate_panel(self.panel_seed, PANEL_BANKS)
        self.golden = None

    def root(self, i: int) -> str:
        return "op"

    def label(self, i: int) -> str:
        return "pipeline"

    def op(self, i: int):
        from distress_lda import classification, dataset, lda_fit, normalization

        records = dataset.parse_panel(self.text)
        labels = dataset.panel_labels(self.text)
        ts = dataset.training_set_from_panel(records, labels, window=PANEL_WINDOW)
        stats = normalization.fit_normalizer(ts)
        tsZ = normalization.normalize_training_set(stats, ts)
        model = lda_fit.fit(tsZ)
        confusion, wilks, box, collinearity = _diagnose(model, tsZ)
        zones = classification.derive_zones(model)
        report = classification.evaluate_panel(model, stats, records, labels, zones, mode="normalized")
        doc = classification.report_to_dict(report)
        return records, ts, stats, model, (confusion, wilks, box, collinearity), zones, doc

    @staticmethod
    def digest(output) -> dict:
        records, ts, stats, model, diagnostics, zones, doc = output
        year_rows = [
            [y["year"], y["counts"]["bankrupt"], y["counts"]["grey"], y["counts"]["nonbankrupt"],
             y["hits"], y["total"], y["type1"], y["type2"], y["accuracy"],
             math.fsum(abs(b["score"]) for b in y["banks"])]
            for y in doc["years"]
        ]
        cutoff_rows = [
            [y["year"], y["counts"]["bankrupt"], y["counts"]["nonbankrupt"],
             y["hits"], y["total"], y["type1"], y["type2"], y["accuracy"]]
            for y in doc["cutoff_only"]
        ]
        zoned = [[y["year"], [[b["bank"], b["zone"]] for b in y["banks"]]] for y in doc["years"] + doc["cutoff_only"]]
        return {
            "rows": len(records),
            "unavailable": sum(1 for r in records if not r.available),
            "banks": len(ts.samples),
            "fit": _fit_digest(stats, model, *diagnostics, zones),
            "years": year_rows,
            "cutoff_only": cutoff_rows,
            "zones_sha256": hashlib.sha256(json.dumps(zoned).encode("utf-8")).hexdigest(),
            "report_zones": doc["zones"],
            "mode": doc["mode"],
            "notices": doc["notices"],
        }

    def check(self, i: int, output) -> list[str]:
        if self.golden is None:
            self.golden = _load_golden("panel-800.json")[str(self.panel_seed)]
        model, wilks = output[3], output[4][1]
        return _identity_problems(model, wilks) + diff(self.digest(output), self.golden)[:5]

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (CliCaseStudy, Panel800)}

"""Command-line interface: config precedence, output formats, exit codes.

Tests drive main(argv) directly, against the bundled case-study data or
against small handcrafted panels written to tmp_path; the closed-stdout case
runs the CLI as a subprocess.
"""
from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import distress_lda
from distress_lda.cli import _SETTINGS, main, parse_window
from distress_lda.errors import ConfigError
from distress_lda.fixtures import data_path
from distress_lda.model_io import load_model

TABLE = str(data_path("table2.csv"))
PANEL_A = str(data_path("appendix_a.csv"))
PANEL_B = str(data_path("appendix_b.csv"))
REFERENCE = str(data_path("reference_model.json"))
PAPER_ZONES = str(data_path("paper_zones.json"))
MISSING_MODEL = str(Path(REFERENCE).with_name("no_such_model.json"))
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "cli"
README = Path(__file__).resolve().parents[1] / "README.md"

RATIO_HEADER = "bank,year,eaa,roae,roaa,nii,laaa,bdtla"


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv("DISTRESS_LDA_CONFIG", raising=False)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestFitCommand:
    def test_fit_writes_model_and_reports(self, tmp_path, capsys):
        """Proportional priors reclassify the full training table correctly."""
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(
            capsys, "fit", "--train", TABLE, "--model", str(model_path)
        )
        assert code == 0
        assert err == ""
        assert f"model written to {model_path}" in out
        assert "training classification: 14/14 correct (100.0%)" in out
        model, stats = load_model(model_path)
        assert model.coefficients["bdtla"] == pytest.approx(4.6879, abs=1e-3)
        assert stats.mean["eaa"] == pytest.approx(0.21144, abs=5e-5)

    def test_fit_text_lists_every_variable(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--train", TABLE, "--model", str(tmp_path / "m.json")
        )
        assert code == 0
        assert "variable" in out and "standardized" in out
        for name in ("eaa", "roae", "roaa", "nii", "laaa", "bdtla"):
            assert f"\n{name}" in out
        assert "fisher classification functions (proportional priors):" in out
        assert "cut-off" in out and "grey zone" in out

    def test_fit_default_model_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--train", TABLE)
        assert code == 0
        assert "model written to model.json" in out
        assert (tmp_path / "model.json").is_file()

    def test_fit_json_document(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys,
            "fit", "--train", TABLE, "--model", str(model_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"model_file", "model", "zones", "training_classification"}
        assert doc["model_file"] == str(model_path)
        assert doc["model"]["coefficients"]["bdtla"] == pytest.approx(4.6879, abs=1e-3)
        counts = doc["training_classification"]["counts"]
        assert counts["bankrupt"]["bankrupt"] == 2
        assert counts["nonbankrupt"]["nonbankrupt"] == 12
        assert doc["training_classification"]["correct_fraction"] == 1.0
        assert doc["zones"]["source"] == "derived-from-model"

    def test_fit_equal_priors_loses_one_bank(self, tmp_path, capsys):
        """Equal priors pull the boundary toward the small group: 13/14."""
        code, out, _ = run_cli(
            capsys,
            "fit", "--train", TABLE, "--model", str(tmp_path / "m.json"),
            "--priors", "equal",
        )
        assert code == 0
        assert "fisher classification functions (equal priors):" in out
        assert "training classification: 13/14 correct (92.9%)" in out

    def test_fit_refuses_to_overwrite_its_training_panel(self, tmp_path, capsys):
        panel = tmp_path / "t.csv"
        panel.write_bytes(Path(TABLE).read_bytes())
        (tmp_path / "sub").mkdir()
        same = tmp_path / "sub" / ".." / "t.csv"  # another spelling of the same file
        code, out, err = run_cli(capsys, "fit", "--train", str(panel), "--model", str(same))
        assert (code, out) == (2, "")
        assert err == f"error: fit would overwrite its training panel {panel} with the model\n"
        assert panel.read_bytes() == Path(TABLE).read_bytes()

    @pytest.mark.parametrize(
        "name, text",
        [("run.json", '{"format": "json"}'), ("run.cfg", "window = 2012:2015\n")],
        ids=["json", "key-value"],
    )
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_fit_refuses_to_overwrite_its_config_file(self, tmp_path, capsys, monkeypatch, name, text, source):
        """The --config file and the DISTRESS_LDA_CONFIG file are inputs like the
        training panel: a --model naming either is refused and the file kept."""
        config = tmp_path / name
        config.write_text(text, encoding="utf-8")
        (tmp_path / "sub").mkdir()
        same = tmp_path / "sub" / ".." / name
        argv = ["fit", "--train", TABLE, "--model", str(same)]
        if source == "flag":
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("DISTRESS_LDA_CONFIG", str(config))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: fit would overwrite its config file {config} with the model\n"
        assert config.read_text(encoding="utf-8") == text

    def test_fit_writes_beside_its_config_file(self, tmp_path, capsys):
        """A model next to the config file, in a new file, is written as usual."""
        config = tmp_path / "run.cfg"
        config.write_text("window = 2012:2015\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "fit", "--train", TABLE, "--config", str(config), "--model", str(tmp_path / "m.json")
        )
        assert (code, err) == (0, "")
        assert config.read_text(encoding="utf-8") == "window = 2012:2015\n"

    def test_fit_without_training_panel(self, capsys):
        code, out, err = run_cli(capsys, "fit")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "fit requires a training panel" in err


class TestDiagnoseCommand:
    def test_text_battery_on_reference_model(self, capsys):
        """Reported battery: lambda .242, chi2 12.778, M 4.417, F 3.722."""
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE)
        assert code == 0
        assert err == ""
        assert "wilks lambda 0.242" in out
        assert "chi-square 12.778" in out
        assert "df 6" in out
        assert "sig 0.047" in out
        assert "-> discriminant function is significant (alpha = 0.05)" in out
        assert "box's m 4.417" in out
        assert "df2 26.596" in out
        assert "f 3.722" in out
        assert "sig 0.064" in out
        assert "-> group score variance is homogenous (alpha = 0.05)" in out
        assert "canonical correlation 0.871" in out

    def test_collinearity_flags(self, capsys):
        _, out, _ = run_cli(capsys, "diagnose", "--model", REFERENCE)
        assert "collinear pairs (|r| > 0.8):" in out
        assert "roaa/bdtla r=-0.859" in out
        assert "roae/roaa r=0.833" in out

    def test_threshold_option_widens_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--model", REFERENCE, "--collinearity-threshold", "0.7"
        )
        assert code == 0
        assert "collinear pairs (|r| > 0.7):" in out
        assert "roae/bdtla r=-0.799" in out

    def test_alpha_changes_verdicts(self, capsys):
        """At alpha 0.01 the Wilks p-value of 0.047 is no longer significant."""
        code, out, _ = run_cli(
            capsys, "diagnose", "--model", REFERENCE, "--alpha", "0.01"
        )
        assert code == 0
        assert "-> discriminant function is not significant (alpha = 0.01)" in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--model", REFERENCE, "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"collinearity", "wilks", "box_m", "canonical", "alpha"}
        assert doc["alpha"] == 0.05
        assert doc["wilks"]["p_value"] == pytest.approx(0.046698, abs=1e-4)
        assert doc["wilks"]["df"] == 6
        assert doc["box_m"]["branch"] == "c2<=c1^2"
        assert doc["box_m"]["df1"] == 1
        assert doc["box_m"]["p_value"] == pytest.approx(0.064418, abs=1e-4)
        pairs = [tuple(entry["pair"]) for entry in doc["collinearity"]["flagged"]]
        assert pairs == [("roaa", "bdtla"), ("roae", "roaa")]
        matrix = np.array(doc["collinearity"]["matrix"])
        assert matrix.shape == (6, 6)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_missing_model_file(self, capsys):
        code, out, err = run_cli(capsys, "diagnose", "--model", "no-such-model.json")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


class TestClassifyCommand:
    def test_zones_line_with_published_zones(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", "paper",
        )
        assert code == 0
        first = out.splitlines()[0]
        assert first == (
            "zones: cut-off -0.000007, grey [-0.040000, -0.003000] "
            "(explicit-override); mode: raw"
        )

    def test_text_glyphs_and_missing_years(self, capsys):
        """Intervened banks: alarm and grey glyphs appear, silent years print n.a."""
        _, out, _ = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", "paper",
        )
        assert "▼" in out  # bankrupt zone
        assert "■" in out  # grey zone
        assert "n.a" in out
        moza_2015 = next(
            line for line in out.splitlines()
            if line.startswith("Moza Banco, S.A") and "2015" in line
        )
        assert "▼" in moza_2015
        assert f"{-8.96:7.2f}%"[:5] in moza_2015

    def test_default_zones_come_from_model(self, capsys):
        """Derived zones sit on the z-score scale, so the default scores z-scores:
        Moza Banco's 2012 ratios (raw score -26.88%) raise the alarm."""
        code, out, _ = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE
        )
        assert code == 0
        assert out.splitlines()[0].endswith("(derived-from-model); mode: normalized")
        moza_2012 = next(line for line in out.splitlines() if line.startswith("Moza Banco, S.A   2012"))
        assert "▼" in moza_2012

    def test_json_skips_unavailable_records(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--model", REFERENCE,
            "--zones", "paper", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "raw"
        assert doc["zones"]["source"] == "explicit-override"
        seen = {(r["bank"], r["year"]) for r in doc["records"]}
        assert ("Moza Banco, S.A", 2015) in seen
        assert ("Moza Banco, S.A", 2016) not in seen  # blank rows are dropped
        for record in doc["records"]:
            assert record["zone"] in ("bankrupt", "grey", "nonbankrupt")
            assert np.isfinite(record["score"])

    def test_overflowing_z_score_is_one_error_line(self, tmp_path, capsys):
        """A finite ratio whose z-score overflows is refused, naming its bank-year."""
        panel = tmp_path / "huge.csv"
        panel.write_text(RATIO_HEADER + "\nAlpha,2014,1e308,0.1,0.01,0.05,0.5,0.04\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--panel", str(panel), "--model", REFERENCE)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: bank 'Alpha' year 2014: score must be finite, got -inf"]

    def test_zones_file(self, tmp_path, capsys):
        zones_path = tmp_path / "zones.json"
        zones_path.write_text(
            json.dumps({"cutoff": 0.0, "grey": None, "source": "explicit-override"}),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--model", REFERENCE,
            "--zones", str(zones_path),
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "zones: cut-off 0.000000, no grey zone (explicit-override); mode: raw"
        )

    def test_zones_file_tagged_derived_scores_z_scores(self, tmp_path, capsys):
        """The scale follows the zones' source, not whether they came from a file."""
        zones_path = tmp_path / "zones.json"
        zones_path.write_text(
            json.dumps({"cutoff": 0.0, "grey": None, "source": "derived-from-model"}),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--model", REFERENCE,
            "--zones", str(zones_path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "normalized"

    @pytest.mark.parametrize("model", [REFERENCE, MISSING_MODEL], ids=["reference", "missing"])
    def test_requires_panel(self, capsys, model):
        code, _, err = run_cli(capsys, "classify", "--model", model)
        assert code == 2
        assert "classify requires at least one panel" in err

    def test_unknown_label_is_not_read(self, tmp_path, capsys):
        panel = tmp_path / "healthy.csv"
        panel.write_text(
            RATIO_HEADER + ",label\nAlpha,2012,0.10,0.20,0.010,0.050,0.60,0.030,healthy\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "classify", "--panel", str(panel), "--model", REFERENCE)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("Alpha  2012")

    def test_conflicting_labels_across_panels_are_not_read(self, tmp_path, capsys):
        panels = []
        for year, label in ((2012, "bankrupt"), (2013, "nonbankrupt")):
            panel = tmp_path / f"{label}.csv"
            panel.write_text(
                RATIO_HEADER + f",label\nAlpha,{year},0.10,0.20,0.010,0.050,0.60,0.030,{label}\n",
                encoding="utf-8",
            )
            panels += ["--panel", str(panel)]
        code, out, err = run_cli(capsys, "classify", *panels, "--model", REFERENCE)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3
        code, out, err = run_cli(capsys, "evaluate", *panels, "--model", REFERENCE)
        assert code == 3
        assert out == ""
        conflict = f"panel file {tmp_path / 'nonbankrupt.csv'}: row 2: bank 'Alpha' has conflicting labels"
        assert conflict in err


class TestEvaluateCommand:
    def test_text_sections(self, capsys):
        code, out, err = run_cli(
            capsys,
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper",
        )
        assert code == 0
        assert err == ""
        assert "with grey zone:" in out
        assert "cut-off only:" in out
        assert "per-bank scores (with grey zone):" in out

    def test_reported_yearly_rows(self, capsys):
        """2015 row: 4 alarms, 15 healthy, 16/19 hits, type I 50%, type II 17.6%."""
        _, out, _ = run_cli(
            capsys,
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper",
        )
        lines = out.splitlines()
        grey_block = lines[lines.index("with grey zone:"):lines.index("cut-off only:")]
        row_2015 = next(line for line in grey_block if line.lstrip().startswith("2015"))
        assert row_2015.split() == [
            "2015", "4", "0", "15", "16", "19", "84.2%", "50.0%", "17.6%"
        ]
        row_2019 = next(line for line in grey_block if line.lstrip().startswith("2019"))
        assert row_2019.split() == [
            "2019", "0", "0", "17", "17", "17", "100.0%", "0.0%", "0.0%"
        ]

    def test_json_deterministic(self, capsys):
        argv = (
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--format", "json",
        )
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert code == 0
        assert first == second
        doc = json.loads(first)
        by_year = {row["year"]: row for row in doc["years"]}
        assert by_year[2015]["type1"] == 0.5
        assert by_year[2019]["accuracy"] == 1.0
        assert "grey" in by_year[2015]["counts"]
        cutoff_years = {row["year"]: row for row in doc["cutoff_only"]}
        assert "grey" not in cutoff_years[2015]["counts"]

    def test_default_evaluation_raises_alarms(self, capsys):
        """Derived zones score z-scores: 2015 has 3 alarms and 13/19 hits."""
        code, out, err = run_cli(
            capsys, "evaluate", "--panel", PANEL_A, "--panel", PANEL_B, "--model", REFERENCE
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].endswith("(derived-from-model); mode: normalized")
        grey_block = lines[lines.index("with grey zone:"):lines.index("cut-off only:")]
        row_2015 = next(line for line in grey_block if line.lstrip().startswith("2015"))
        assert row_2015.split() == [
            "2015", "3", "4", "12", "13", "19", "68.4%", "50.0%", "11.8%"
        ]

    def test_warning_year_override_via_config(self, tmp_path, capsys):
        """Moving the alarm year to 2014 makes 2015 a clean type I miss."""
        config = tmp_path / "eval.json"
        config.write_text(
            json.dumps({"warning_years": {"Moza Banco, S.A": 2014}}), encoding="utf-8"
        )
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper",
            "--format", "json", "--config", str(config),
        )
        assert code == 0
        by_year = {row["year"]: row for row in json.loads(out)["years"]}
        assert by_year[2015]["type1"] == 1.0
        assert by_year[2014]["type1"] == 1.0

    def test_warning_year_for_unknown_bank_noticed(self, tmp_path, capsys):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"warning_years": {"Ghost Bank": 2014}}), encoding="utf-8")
        argv = (
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--config", str(config),
        )
        notice = "warning year for bank 'Ghost Bank' ignored: bank not in panel"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"note: {notice}"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["notices"] == [notice]

    def test_warning_year_for_healthy_bank_noticed(self, tmp_path, capsys):
        bank = "Banco Internacional de Moçambique, S.A"
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"warning_years": {bank: 2015}}), encoding="utf-8")
        argv = (
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--config", str(config),
        )
        notice = f"warning year for bank {bank!r} ignored: bank is not labelled bankrupt"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"note: {notice}"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["notices"] == [notice]

    def test_warning_year_without_available_record_noticed(self, tmp_path, capsys):
        """An override to a year the bank is not scored in would drop its 2015
        alarm from the expected calls and turn 16/19 into 15/19."""
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"warning_years": {"Moza Banco, S.A": 2030}}), encoding="utf-8")
        argv = (
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--format", "json",
        )
        _, base, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--config", str(config))
        assert code == 0
        doc = json.loads(out)
        assert doc["notices"] == [
            "warning year 2030 for bank 'Moza Banco, S.A' ignored: "
            "bank has no available record in 2030"
        ]
        assert doc["years"] == json.loads(base)["years"]
        row2015 = next(row for row in doc["years"] if row["year"] == 2015)
        assert (row2015["hits"], row2015["total"]) == (16, 19)

    def test_warning_year_skips_a_year_without_a_row(self, tmp_path, capsys):
        """Without its 2015 row, Moza Banco's missed warning shows in 2014."""
        rows = Path(PANEL_A).read_text(encoding="utf-8").splitlines()
        panel = tmp_path / "a.csv"
        panel.write_text(
            "\n".join(row for row in rows if not row.startswith('"Moza Banco, S.A",2015,')) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--panel", str(panel), "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["notices"] == []
        by_year = {row["year"]: row for row in doc["years"]}
        assert (by_year[2014]["type1"], by_year[2015]["type1"]) == (1.0, 1.0)

    def test_numeric_cell_in_python_literal_form_is_not_read(self, tmp_path, capsys):
        """float() reads 0_5 as 5.0, which would score the row as if its equity ratio were 5."""
        panel = tmp_path / "a.csv"
        panel.write_text(
            RATIO_HEADER + "\nA,2012,0_5,0.2,0.01,0.05,0.6,0.03\n", encoding="utf-8"
        )
        code, out, err = run_cli(
            capsys, "classify", "--panel", str(panel), "--model", REFERENCE, "--zones", "paper"
        )
        assert (code, out) == (3, "")
        assert err == f"error: panel file {panel}: row 2: column 'eaa': not a plain ASCII number: '0_5'\n"

    def test_labels_from_config_cover_unlabeled_panel(self, tmp_path, capsys):
        panel = tmp_path / "going.csv"
        panel.write_text(
            RATIO_HEADER + "\n"
            "Alpha,2012,0.10,0.20,0.010,0.050,0.60,0.030\n"
            "Beta,2012,0.20,0.10,0.020,0.040,0.50,0.060\n",
            encoding="utf-8",
        )
        config = tmp_path / "labels.json"
        config.write_text(
            json.dumps({"labels": {"Alpha": "nonbankrupt", "Beta": "nonbankrupt"}}),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--panel", str(panel), "--model", REFERENCE,
            "--zones", "paper", "--format", "json", "--config", str(config),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["years"]) == 1
        assert doc["years"][0]["total"] == 2

    def test_unlabeled_bank_fails(self, tmp_path, capsys):
        panel = tmp_path / "partial.csv"
        panel.write_text(
            RATIO_HEADER + ",label\n"
            "Alpha,2012,0.10,0.20,0.010,0.050,0.60,0.030,nonbankrupt\n"
            "Beta,2012,0.20,0.10,0.020,0.040,0.50,0.060,\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "evaluate", "--panel", str(panel), "--model", REFERENCE
        )
        assert code == 5
        assert out == ""
        assert "bank 'Beta' has no group label" in err

    def test_overflowing_z_score_is_one_error_line(self, tmp_path, capsys):
        """evaluate scores through classify's panel scorer, so it names the bank-year too."""
        panel = tmp_path / "huge.csv"
        panel.write_text(
            RATIO_HEADER + ",label\nAlpha,2014,1e308,0.1,0.01,0.05,0.5,0.04,bankrupt\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "evaluate", "--panel", str(panel), "--model", REFERENCE)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: bank 'Alpha' year 2014: score must be finite, got -inf"]

    @pytest.mark.parametrize("model", [REFERENCE, MISSING_MODEL], ids=["reference", "missing"])
    def test_requires_panel(self, capsys, model):
        code, _, err = run_cli(capsys, "evaluate", "--model", model)
        assert code == 2
        assert "evaluate requires at least one panel" in err


class TestConfigPrecedence:
    def test_key_value_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# training run\n"
            f"train = {TABLE}\n"
            f"model = {tmp_path / 'm.json'}\n"
            "priors = equal\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "fit", "--config", str(config))
        assert code == 0
        assert "13/14 correct" in out
        assert (tmp_path / "m.json").is_file()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"train = {TABLE}\nmodel = {tmp_path / 'm.json'}\npriors = equal\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "fit", "--config", str(config), "--priors", "proportional"
        )
        assert code == 0
        assert "14/14 correct" in out

    def test_env_config_applies(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "env.cfg"
        config.write_text(
            f"train = {TABLE}\nmodel = {tmp_path / 'm.json'}\npriors = equal\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("DISTRESS_LDA_CONFIG", str(config))
        code, out, _ = run_cli(capsys, "fit")
        assert code == 0
        assert "13/14 correct" in out

    def test_config_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        env_config = tmp_path / "env.cfg"
        env_config.write_text(
            f"train = {TABLE}\nmodel = {tmp_path / 'm.json'}\npriors = equal\n",
            encoding="utf-8",
        )
        flag_config = tmp_path / "flag.cfg"
        flag_config.write_text("priors = proportional\n", encoding="utf-8")
        monkeypatch.setenv("DISTRESS_LDA_CONFIG", str(env_config))
        code, out, _ = run_cli(capsys, "fit", "--config", str(flag_config))
        assert code == 0
        assert "14/14 correct" in out

    def test_json_config_object(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"train": TABLE, "model": str(tmp_path / "m.json"), "format": "json"}
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "fit", "--config", str(config))
        assert code == 0
        assert json.loads(out)["training_classification"]["correct_fraction"] == 1.0

    @pytest.mark.parametrize(
        "name, text, key",
        [
            ("run.cfg", "alpha = 0.01\nalpha = 0.5\n", "alpha"),
            (
                "run.json",
                '{"collinearity-threshold": 0.5, "collinearity_threshold": 0.9}',
                "collinearity_threshold",
            ),
        ],
        ids=["key-value", "json-dash-and-underscore"],
    )
    def test_key_set_twice_in_one_file(self, tmp_path, capsys, name, text, key):
        """Within one source a repeated key is refused, not resolved to its last value."""
        config = tmp_path / name
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: config key {key!r} is set twice\n"

    def test_panel_is_a_list_except_in_key_value_files(self, tmp_path, capsys):
        """Only a key=value file lists panels comma-separated; a JSON string is refused."""
        argv = ("classify", "--model", REFERENCE, "--zones", "paper", "--format", "json")
        _, expected, _ = run_cli(capsys, *argv, "--panel", PANEL_A, "--panel", PANEL_B)
        key_value = tmp_path / "run.cfg"
        key_value.write_text(f"panel = {PANEL_A} , {PANEL_B}\n", encoding="utf-8")
        assert run_cli(capsys, *argv, "--config", str(key_value)) == (0, expected, "")
        as_json = tmp_path / "run.json"
        as_json.write_text(json.dumps({"panel": f"{PANEL_A},{PANEL_B}"}), encoding="utf-8")
        assert run_cli(capsys, *argv, "--config", str(as_json)) == (
            2, "", f"error: config file {as_json}: 'panel' must be a path list\n"
        )

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate = 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--config", str(config))
        assert code == 2
        assert "unknown config key 'frobnicate'" in err

    def test_non_numeric_alpha_in_config(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("alpha = high\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "diagnose", "--config", str(config))
        assert code == 2
        assert "'alpha' must be a number" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--config", "no-such.cfg")
        assert code == 2
        assert "cannot read config file" in err


COMMAND_FLAGS = {
    "fit": {"--train", "--model", "--window", "--priors", "--format"},
    "diagnose": {"--model", "--alpha", "--collinearity-threshold", "--format"},
    "classify": {"--panel", "--model", "--zones", "--format"},
    "evaluate": {"--panel", "--model", "--zones", "--format"},
}


class TestSettings:
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_each_command_takes_only_the_flags_it_reads(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == COMMAND_FLAGS[command] | {"--config", "--help"}
        for flag in set().union(*COMMAND_FLAGS.values()) - COMMAND_FLAGS[command]:
            with pytest.raises(SystemExit) as exit_:
                main([command, flag, "x"])
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err

    def test_every_command_accepts_every_config_key(self, tmp_path, capsys):
        """One config file serves all four commands, so each takes all 11 keys."""
        config = tmp_path / "all.json"
        config.write_text(
            json.dumps({
                "train": TABLE, "panel": [PANEL_A, PANEL_B], "model": str(tmp_path / "m.json"),
                "zones": "paper", "format": "json", "alpha": 0.05,
                "collinearity_threshold": 0.8, "window": "2012:2015", "priors": "proportional",
                "labels": {}, "warning_years": {"Moza Banco, S.A": "2015"},
            }),
            encoding="utf-8",
        )
        for command in COMMAND_FLAGS:  # fit first: the others read its model
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert (code, err) == (0, "")
            json.loads(out)

    @pytest.mark.parametrize(
        "doc",
        [
            {"model": 5},
            {"zones": ["paper"]},
            {"format": None},
            {"panel": 3},
            {"warning_years": {"Moza Banco, S.A": 2015.9}},
            {"warning_years": {"Moza Banco, S.A": True}},
            {"warning_years": ["Moza Banco, S.A", 2015]},
            {"labels": {"Moza Banco, S.A": 0}},
        ],
    )
    def test_config_values_are_typed(self, tmp_path, capsys, doc):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "evaluate", "--panel", PANEL_A, "--panel", PANEL_B, "--config", str(config)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config file {config}: ") and err.count("\n") == 1

    def test_missing_subcommand_is_one_error_line(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([])
        assert exit_.value.code == 2
        assert capsys.readouterr() == ("", "error: the following arguments are required: command\n")

    def test_diagnose_help_prints_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["diagnose", "--help"])
        out = capsys.readouterr().out
        assert "significance level (default 0.05)" in out
        assert "|r| flag threshold (default 0.8)" in out

    def test_bad_flag_value_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE, "--alpha", "high")
        assert (code, out) == (2, "")
        assert err == "error: argument --alpha: 'alpha' must be a number\n"

    def test_overridden_config_value_is_still_checked(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("format = fancy\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE,
            "--config", str(config), "--format", "text",
        )
        assert code == 2
        assert err == f"error: config file {config}: format must be 'text' or 'json', got 'fancy'\n"

    def test_mode_is_not_a_setting(self, tmp_path, capsys):
        """The zones fix the score scale, so neither a flag nor a key may set it."""
        with pytest.raises(SystemExit) as exit_:
            main(["classify", "--panel", PANEL_A, "--model", REFERENCE, "--mode", "raw"])
        assert exit_.value.code == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --mode raw\n")
        config = tmp_path / "run.cfg"
        config.write_text("mode = raw\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE, "--config", str(config)
        )
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: unknown config key 'mode'\n"

    def test_readme_flags_table_matches_the_parser(self):
        """The README's table of flags per subcommand names what --help lists."""
        readme = README.read_text(encoding="utf-8")
        table = readme[readme.index("| subcommand "):]
        table = table[:table.index("\n\n")].splitlines()[2:]
        documented = {}
        for row in table:
            commands, flags = row.strip("|").split("|")
            for command in re.findall(r"`([a-z]+)`", commands):
                documented[command] = set(flags.strip(" `").split())
        assert documented == {
            command: flags | {"--config"} for command, flags in COMMAND_FLAGS.items()
        }

    def test_readme_lists_every_config_key(self):
        readme = README.read_text(encoding="utf-8")
        count, listed = re.search(
            r"A config file may set any of the (\d+) keys (.*?) for every subcommand", readme, re.S
        ).groups()
        keys = re.findall(r"`([a-z_]+)`", listed)
        assert len(keys) == int(count)
        assert keys == list(_SETTINGS)


class TestWindowParsing:
    def test_parse_window(self):
        assert parse_window("2012:2015") == (2012, 2015)
        assert parse_window("2014:2014") == (2014, 2014)

    def test_rejects_malformed(self):
        # int() reads 2_012, Arabic-Indic digits and -5, but a window year is
        # ASCII digits by the same rule as a panel's year cells.
        for text in ("2012-2015", "twelve:2015", "2_012:2015", "\u0662\u0660\u0661\u0662:2015", "-5:2015"):
            with pytest.raises(ConfigError, match="must be YYYY:YYYY"):
                parse_window(text)

    def test_rejects_inverted(self):
        with pytest.raises(ConfigError, match="window is inverted: 2016 > 2012"):
            parse_window("2016:2012")


class TestExitCodes:
    def test_inverted_window_flag(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--train", TABLE, "--window", "2016:2012")
        assert code == 2
        assert "window is inverted" in err

    @pytest.mark.parametrize("text", ["0.0_5", "\u0660.\u0660\u0665", "\uff10.\uff10\uff15", "nan", "inf"])
    @pytest.mark.parametrize("key", ["alpha", "collinearity_threshold"])
    def test_fraction_follows_the_ratio_number_rule(self, tmp_path, capsys, key, text):
        """float() reads 0.0_5, Arabic-Indic and full-width digits as 0.05, but a
        setting's text is a number by the rule of a panel's ratio cells."""
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE, flag, text)
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: {key!r} must be a number\n"
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {text}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: {key!r} must be a number\n"

    @pytest.mark.parametrize("literal", ["true", "false"])
    @pytest.mark.parametrize("key", ["alpha", "collinearity_threshold"])
    def test_fraction_refuses_a_json_boolean(self, tmp_path, capsys, key, literal):
        """float(True) is 1.0, but a JSON true or false is no number."""
        config = tmp_path / "run.json"
        config.write_text(f'{{"{key}": {literal}}}', encoding="utf-8")
        code, out, err = run_cli(capsys, "diagnose", "--model", REFERENCE, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: {key!r} must be a number\n"

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "diagnose", "--model", REFERENCE, "--alpha", "1.5")
        assert code == 2
        assert "alpha must lie in (0, 1)" in err

    def test_malformed_panel_cell(self, tmp_path, capsys):
        panel = tmp_path / "bad.csv"
        panel.write_text(
            RATIO_HEADER + "\nAlpha,2012,0.1,0.2,x,0.05,0.6,0.03\n", encoding="utf-8"
        )
        code, _, err = run_cli(
            capsys, "classify", "--panel", str(panel), "--model", REFERENCE
        )
        assert code == 3
        assert "not a number: 'x'" in err

    def test_missing_ratio_column(self, tmp_path, capsys):
        panel = tmp_path / "short.csv"
        panel.write_text(
            "bank,year,eaa,roae,roaa,nii,laaa,label\n"
            "Alpha,2013,0.1,0.2,0.01,0.05,0.6,bankrupt\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "fit", "--train", str(panel))
        assert code == 3
        assert "bdtla" in err

    def test_degenerate_training_panel(self, tmp_path, capsys):
        """Matching group means leave nothing to separate: exit 4."""
        a = (0.10, 0.30, 0.05, 0.20, 0.60, 0.08)
        b = (0.20, 0.10, 0.02, 0.04, 0.50, 0.06)
        t = 0.001953125  # 2**-9, exact in binary
        rows = [
            ("fail-a", a, "bankrupt"),
            ("fail-b", b, "bankrupt"),
        ]
        # healthy banks straddle the failed pair symmetrically, so both
        # group mean vectors coincide
        for k in (1, 2, 3):
            rows.append((f"up-{k}", tuple(v + k * t for v in a), "nonbankrupt"))
            rows.append((f"down-{k}", tuple(v - k * t for v in b), "nonbankrupt"))
        lines = [RATIO_HEADER + ",label"]
        for bank, values, label in rows:
            cells = ",".join(f"{v:.9f}" for v in values)
            lines.append(f"{bank},2013,{cells},{label}")
        panel = tmp_path / "degenerate.csv"
        panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "fit", "--train", str(panel), "--model", str(tmp_path / "m.json")
        )
        assert code == 4
        assert "group means coincide" in err

    def test_window_mean_overflow(self, tmp_path, capsys):
        """Moza Banco's 2012 and 2013 EAA of 1e308 are finite, their sum is not."""
        rows = Path(PANEL_A).read_text(encoding="utf-8").splitlines()
        rows += Path(PANEL_B).read_text(encoding="utf-8").splitlines()[1:]
        rows = [re.sub(r'^("Moza Banco, S\.A",201[23]),[^,]*', r"\1,1e308", row) for row in rows]
        panel = tmp_path / "both.csv"
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--train", str(panel), "--model", str(tmp_path / "m.json"))
        assert (code, out) == (3, "")
        assert err == "error: bank 'Moza Banco, S.A': mean over 2012-2015: ratio 'eaa' must be finite, got inf\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "eaa, moments",
        [(["1e308"] * 2, "mean inf, sd inf"), (["-1e200", "1e200"] * 7, "mean 0.0, sd inf")],
        ids=["mean", "sd"],
    )
    def test_normalizer_overflow(self, tmp_path, capsys, eaa, moments):
        """An overflowing EAA mean would z-score to NaN, an overflowing sd to all
        zeros and a singular fit: both are input errors."""
        rows = list(csv.reader(Path(TABLE).read_text(encoding="utf-8").splitlines()))
        for row, value in zip(rows[1:], eaa):
            row[rows[0].index("eaa")] = value
        panel = tmp_path / "table.csv"
        with panel.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, out, err = run_cli(capsys, "fit", "--train", str(panel), "--model", str(tmp_path / "m.json"))
        assert (code, out) == (3, "")
        assert err == f"error: variable 'eaa' overflows across the training set: {moments}\n"

    @pytest.mark.parametrize(
        "grey", ["[NaN, NaN]", "[-Infinity, Infinity]", "[1e999, 1e999]"]
    )
    def test_non_finite_zones_file(self, tmp_path, capsys, grey):
        zones = tmp_path / "zones.json"
        zones.write_text(
            f'{{"cutoff": -0.000007, "grey": {grey}, "source": "explicit-override"}}',
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", str(zones)
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: zones") and err.count("\n") == 1

    def test_misspelled_zones_key(self, tmp_path, capsys):
        """The bundled zones with "grey" spelled "gray" would turn each grey call into a bankrupt one."""
        doc = json.loads(Path(PAPER_ZONES).read_text(encoding="utf-8"))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps({"gray" if key == "grey" else key: value for key, value in doc.items()}),
                         encoding="utf-8")
        code, out, err = run_cli(
            capsys, "evaluate", "--panel", PANEL_A, "--model", REFERENCE, "--zones", str(zones)
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: zones: unknown key 'gray'; a zones document holds exactly 'cutoff', 'grey' and 'source'\n"
        )

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--panel", "{}", "--model", REFERENCE, "--zones", "paper"),
        ("classify", "--panel", PANEL_A, "--panel", "{}", "--model", REFERENCE),
        ("fit", "--train", "{}"),
    ], ids=["evaluate", "classify-second-panel", "fit"])
    def test_header_only_panel(self, tmp_path, capsys, argv):
        """A panel file of the header alone holds no bank-year: evaluate would print
        empty tables, and classify its zones line alone, and exit 0."""
        panel = tmp_path / "header.csv"
        panel.write_text(RATIO_HEADER + ",label\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *(arg.format(panel) for arg in argv))
        assert (code, out) == (3, "")
        what = "training" if argv[0] == "fit" else "panel"
        assert err == f"error: {what} file {panel}: panel has a header but no data rows\n"

    def test_zones_cutoff_past_float_range(self, tmp_path, capsys):
        """A JSON integer past float's range is not a finite number, as 1e400 is not."""
        huge = 10**400
        zones = tmp_path / "zones.json"
        zones.write_text(
            json.dumps({"cutoff": huge, "grey": None, "source": "explicit-override"}), encoding="utf-8"
        )
        code, out, err = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", str(zones)
        )
        assert (code, out) == (3, "")
        assert err == f"error: zones: 'cutoff' must be a finite number, got {huge}\n"

    def test_model_constant_past_float_range(self, tmp_path, capsys):
        huge = 10**400
        doc = json.loads(Path(REFERENCE).read_text(encoding="utf-8"))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**doc, "constant": huge}), encoding="utf-8")
        code, out, err = run_cli(capsys, "diagnose", "--model", str(model))
        assert (code, out) == (3, "")
        assert err == f"error: model: 'constant' must be a finite number, got {huge}\n"

    @pytest.mark.parametrize("source", [["x"], {}], ids=["list", "object"])
    def test_unhashable_zones_source(self, tmp_path, capsys, source):
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps({"cutoff": 0.0, "grey": None, "source": source}), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", str(zones)
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: zones: source must be one of ('derived-from-model', 'explicit-override'), "
            f"got {source!r}\n"
        )

    @pytest.mark.parametrize("year", ["Infinity", "1e999"])
    def test_non_finite_warning_year_in_config(self, tmp_path, capsys, year):
        config = tmp_path / "eval.json"
        config.write_text(f'{{"warning_years": {{"Moza Banco, S.A": {year}}}}}', encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "evaluate", "--panel", PANEL_A, "--panel", PANEL_B,
            "--model", REFERENCE, "--zones", "paper", "--config", str(config),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--train", TABLE],
            ["evaluate", "--panel", PANEL_A, "--panel", PANEL_B, "--model", REFERENCE],
        ],
    )
    def test_label_must_name_a_bank(self, tmp_path, capsys, monkeypatch, argv):
        """A mistyped bank name in `labels` is refused, not dropped: without its
        comma, Moza Banco would stay bankrupt."""
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"labels": {"Moza Banco SA": "nonbankrupt"}}), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: label for bank 'Moza Banco SA' rejected: bank not in panel\n"
        assert not (tmp_path / "model.json").exists()

    def test_unreadable_panel_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code, out, err = run_cli(
            capsys, "classify", "--panel", str(missing), "--model", REFERENCE
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: cannot read panel file {missing}") and err.count("\n") == 1

    def test_panel_file_not_utf8(self, tmp_path, capsys):
        panel = tmp_path / "latin1.csv"
        panel.write_bytes((RATIO_HEADER + "\nMo\xe7a,2012,0.1,0.2,0.01,0.05,0.6,0.03\n").encode("latin-1"))
        code, out, err = run_cli(capsys, "classify", "--panel", str(panel), "--model", REFERENCE)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read panel file {panel}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_duplicate_record_across_panels(self, capsys):
        code, _, err = run_cli(
            capsys,
            "classify", "--panel", PANEL_A, "--panel", PANEL_A, "--model", REFERENCE,
        )
        assert code == 3
        assert "duplicate" in err.lower()

    def test_model_statistics_must_agree(self, tmp_path, capsys):
        doc = json.loads(Path(REFERENCE).read_text(encoding="utf-8"))
        doc["eigenvalue"] = 5.0
        doc["wilks_lambda"] = 0.9
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "diagnose", "--model", str(model))
        assert code == 3
        assert out == ""
        assert err.startswith("error: model: wilks_lambda disagrees") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["diagnose", "classify"])
    def test_model_group_sizes_must_fit_the_design(self, tmp_path, capsys, command):
        """Five banks cannot carry six ratios, so no fit writes group sizes 2 and 3."""
        doc = json.loads(Path(REFERENCE).read_text(encoding="utf-8"))
        doc["group_sizes"]["nonbankrupt"] = 3
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--model", str(model)] + (["--panel", PANEL_A] if command == "classify" else [])
        assert run_cli(capsys, *argv) == (
            3, "", "error: model: group_sizes: 6 variables exceed the limit of 3 for 5 samples\n"
        )

    def test_seven_banks_cannot_carry_six_variables(self, tmp_path, capsys):
        """The pooled scatter of 7 banks has rank 5 at most, so 6 ratios make it singular."""
        rows = [
            f"bank-{k},2013,{0.1 + 0.01 * k * k},{0.2 - 0.03 * k},{0.01 * k},"
            f"{0.05 + 0.002 * k * k * k},{0.6 - 0.01 * k * k},{0.03 * (k % 3)},"
            + ("bankrupt" if k < 3 else "nonbankrupt")
            for k in range(7)
        ]
        panel = tmp_path / "seven.csv"
        panel.write_text("\n".join([RATIO_HEADER + ",label", *rows]) + "\n", encoding="utf-8")
        model = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--train", str(panel), "--model", str(model))
        assert (code, out) == (3, "")
        assert err == "error: 6 variables exceed the limit of 5 for 7 samples\n"
        assert not model.exists()

    @pytest.mark.parametrize("where", ["missing-dir/m.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_model_file(self, tmp_path, capsys, where):
        model = tmp_path / where
        code, out, err = run_cli(capsys, "fit", "--train", TABLE, "--model", str(model))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write model file {model}: ") and err.count("\n") == 1

    # json keeps the last of two equal keys: the second constant below would
    # move Moza Banco 2012 from bankrupt to healthy under the paper's zones.
    @pytest.mark.parametrize(
        "flag, source, old, new, code",
        [
            ("--model", REFERENCE, '"constant": 0.0,', '"constant": 0.0, "constant": 0.5,', 3),
            ("--model", REFERENCE, '"bankrupt": -4.01605', '"bankrupt": -4.01605, "bankrupt": -1.0', 3),
            ("--zones", PAPER_ZONES, '"cutoff": -7e-06,', '"cutoff": -7e-06, "cutoff": 0.5,', 3),
            ("--config", None, '{"format": "json"}', '{"format": "json", "format": "text"}', 2),
        ],
        ids=["model", "model-nested", "zones", "config"],
    )
    def test_repeated_json_key(self, tmp_path, capsys, flag, source, old, new, code):
        text = Path(source).read_text(encoding="utf-8") if source else old
        path = tmp_path / "doc.json"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        key = re.search(r'"(\w+)"', new).group(1)
        argv = ["classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones", "paper", flag, str(path)]
        assert run_cli(capsys, *argv) == (
            code, "", f"error: {flag[2:]} file {path} is not valid JSON: key {key!r} is repeated\n"
        )

    def test_closed_stdout_exits_quietly(self, tmp_path):
        """A reader that hangs up early (`| head -1`) gets exit 1 and no traceback."""
        _classify_into_closed_pipe(tmp_path, unbuffered=False)

    @pytest.mark.parametrize("encoding", ["ascii", "cp1252"])
    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_stdout_that_cannot_encode_the_report(self, command, encoding):
        """The text report's zone glyphs have no byte in ascii or cp1252: one
        error line naming the encoding, nothing on stdout, while JSON (ASCII) works."""
        env = {k: v for k, v in os.environ.items() if k != "DISTRESS_LDA_CONFIG"}
        env["PYTHONIOENCODING"] = encoding
        env["PYTHONPATH"] = str(Path(distress_lda.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "distress_lda.cli", command, "--panel", PANEL_A,
                "--model", REFERENCE, "--zones", "paper"]
        text = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (text.returncode, text.stdout) == (1, b"")
        assert text.stderr.decode("ascii").startswith(
            f"error: stdout encoding {encoding!r} cannot encode the report"
        )
        assert text.stderr.count(b"\n") == 1
        as_json = subprocess.run(argv + ["--format", "json"], capture_output=True, env=env, timeout=60)
        assert (as_json.returncode, as_json.stderr) == (0, b"")
        json.loads(as_json.stdout)

    def test_closed_unbuffered_stdout_exits_quietly(self, tmp_path):
        """Under PYTHONUNBUFFERED a write to a closed pipe can come back short
        instead of raising; the rest of the report must still be written."""
        _classify_into_closed_pipe(tmp_path, unbuffered=True)


# Each file a run reads, saved with the UTF-8 byte-order mark of spreadsheet
# exports: (argv before the file, file content, file name).
BOM_CASES = {
    "panel": (["classify", "--model", REFERENCE, "--panel"], Path(PANEL_A).read_bytes(), "p.csv"),
    "train": (["fit", "--model", "{tmp}/m.json", "--train"], Path(TABLE).read_bytes(), "t.csv"),
    "model": (["diagnose", "--model"], Path(REFERENCE).read_bytes(), "m.json"),
    "zones": (
        ["classify", "--panel", PANEL_A, "--model", REFERENCE, "--zones"],
        Path(PAPER_ZONES).read_bytes(),
        "z.json",
    ),
    "json-config": (["diagnose", "--model", REFERENCE, "--config"], b'{"alpha": 0.1}', "c.json"),
    "key-value-config": (["diagnose", "--model", REFERENCE, "--config"], b"alpha = 0.1\n", "c.cfg"),
}


@pytest.mark.parametrize("case", BOM_CASES)
def test_byte_order_mark_is_not_data(tmp_path, capsys, case):
    """A file that starts with a byte-order mark reads as the same file without it."""
    argv, content, name = BOM_CASES[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / prefix.hex() / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(prefix + content)
        outputs.append(run_cli(capsys, *argv, str(path)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def _classify_into_closed_pipe(tmp_path, unbuffered: bool) -> None:
    """Run `classify --format json` on a large panel, close the pipe after
    one line, and check for exit 1 with nothing on stderr."""
    panel = tmp_path / "large.csv"
    rows = [
        f"Bank {bank:03d},{year},0.10,0.20,0.010,0.050,0.60,0.030"
        for bank in range(300)
        for year in range(2012, 2021)
    ]
    panel.write_text("\n".join([RATIO_HEADER, *rows]) + "\n", encoding="utf-8")
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("DISTRESS_LDA_CONFIG", "PYTHONUNBUFFERED")
    }
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(distress_lda.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "distress_lda.cli", "classify", "--panel", str(panel),
         "--model", REFERENCE, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # The report (~250 kB) is far larger than a pipe buffer, so the CLI is
    # still writing when the pipe closes.
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


CASE_STUDY_ARGS = {
    "fit": ["--train", TABLE, "--model", "model.json"],
    "diagnose": ["--model", "model.json"],
    "classify": ["--panel", PANEL_A, "--panel", PANEL_B, "--model", REFERENCE, "--zones", "paper"],
    "evaluate": ["--panel", PANEL_A, "--panel", PANEL_B, "--model", REFERENCE, "--zones", "paper"],
}


def test_case_study_outputs_match_goldens(tmp_path, capsys, monkeypatch):
    """stdout of each command and format on the bundled case study is byte-equal
    to the goldens the benchmark checks against."""
    monkeypatch.chdir(tmp_path)
    for cmd, args in CASE_STUDY_ARGS.items():  # fit first: diagnose reads its model.json
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, cmd, *args, "--format", fmt)
            assert (code, err) == (0, "")
            assert out.encode("utf-8") == (GOLDEN / f"{cmd}.{fmt}").read_bytes(), f"{cmd}.{fmt}"


def _loaded_after(modules: set[str], *calls: list[str]) -> set[str]:
    """Run the CLI calls in one fresh interpreter; which of the modules got imported."""
    script = (
        "import contextlib, io, json, sys\n"
        "from distress_lda.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "assert codes == [0] * len(codes), codes\n"
        "print(json.dumps(sorted(set(json.loads(sys.argv[2])) & set(sys.modules))))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "DISTRESS_LDA_CONFIG"}
    env["PYTHONPATH"] = str(Path(distress_lda.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls), json.dumps(sorted(modules))],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _every_command(model: Path) -> list[list[str]]:
    """The four commands on the case study, each in both formats; fit writes model and diagnose reads it."""
    args = {**CASE_STUDY_ARGS, "fit": ["--train", TABLE, "--model", str(model)], "diagnose": ["--model", str(model)]}
    return [[cmd, *argv, "--format", fmt] for cmd, argv in args.items() for fmt in ("text", "json")]


def test_no_command_imports_numpy(tmp_path):
    """The fit runs on plain floats, so no command pays for numpy's import."""
    assert _loaded_after({"numpy"}, *_every_command(tmp_path / "m.json")) == set()


def test_no_command_imports_dataclasses(tmp_path):
    """The value records are built without dataclasses, whose import pulls in
    inspect, ast, dis and tokenize; no command loads inspect by another road."""
    assert _loaded_after({"dataclasses", "inspect"}, *_every_command(tmp_path / "m.json")) == set()


class TestTextMatchesJson:
    """Every number a text report prints is the JSON value at the text's precision."""

    NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])")
    GLYPHS = {"▼": "bankrupt", "■": "grey", "▲": "nonbankrupt"}

    @staticmethod
    def both_formats(capsys, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        if cmd == "diagnose":
            run_cli(capsys, "fit", *CASE_STUDY_ARGS["fit"])
        code, text, _ = run_cli(capsys, cmd, *CASE_STUDY_ARGS[cmd])
        assert code == 0
        code, out, _ = run_cli(capsys, cmd, *CASE_STUDY_ARGS[cmd], "--format", "json")
        assert code == 0
        return text, json.loads(out)

    def assert_numbers(self, text, expected):
        tokens = self.NUMBER.findall(text)
        assert len(tokens) == len(expected)
        for token, value in zip(tokens, expected):
            decimals = len(token.partition(".")[2])
            assert abs(float(token) - value) <= 0.5 * 10.0**-decimals + 1e-9, (token, value)

    def test_fit(self, capsys, tmp_path, monkeypatch):
        text, doc = self.both_formats(capsys, tmp_path, monkeypatch, "fit")
        model, zones = doc["model"], doc["zones"]
        norm, fisher = model["normalization"], model["fisher"]
        expected = []
        for name in model["variables"]:
            expected += [norm["means"][name], norm["sds"][name]]
            expected += [model["coefficients"][name], model["standardized"][name]]
        expected.append(model["constant"])
        for group in ("bankrupt", "nonbankrupt"):
            expected += [model["centroids"][group], model["score_sd"][group]]
        expected += [model["eigenvalue"], model["canonical_correlation"], model["wilks_lambda"]]
        expected += [zones["cutoff"], *zones["grey"]]
        for name in model["variables"]:
            expected += [fisher["weights"]["bankrupt"][name], fisher["weights"]["nonbankrupt"][name]]
        expected += [fisher["constants"]["bankrupt"], fisher["constants"]["nonbankrupt"]]
        counts = doc["training_classification"]["counts"]
        expected += [
            sum(counts[group][group] for group in counts),
            sum(sum(row.values()) for row in counts.values()),
            100.0 * doc["training_classification"]["correct_fraction"],
        ]
        self.assert_numbers(text, expected)

    def test_diagnose(self, capsys, tmp_path, monkeypatch):
        text, doc = self.both_formats(capsys, tmp_path, monkeypatch, "diagnose")
        collinearity, wilks, box, canon = (
            doc["collinearity"], doc["wilks"], doc["box_m"], doc["canonical"]
        )
        expected = [value for row in collinearity["matrix"] for value in row]
        expected += [collinearity["threshold"], *(entry["r"] for entry in collinearity["flagged"])]
        expected += [wilks["lambda"], wilks["chi_square"], wilks["df"], wilks["p_value"], doc["alpha"]]
        expected += [box["m"], box["f"], box["df1"], box["df2"], box["p_value"], doc["alpha"]]
        expected += [canon["eigenvalue"], canon["percent_variance"]]
        expected += [canon["canonical_correlation"], canon["r_squared"]]
        self.assert_numbers(text, expected)
        assert f"-> {wilks['verdict']} " in text and f"-> {box['verdict']} " in text

    def test_classify(self, capsys, tmp_path, monkeypatch):
        text, doc = self.both_formats(capsys, tmp_path, monkeypatch, "classify")
        zones_line, *rows = text.splitlines()
        self.assert_numbers(zones_line, [doc["zones"]["cutoff"], *doc["zones"]["grey"]])
        records = {(r["bank"], r["year"]): r for r in doc["records"]}
        scored = 0
        for line in rows:
            bank, year, cell = re.fullmatch(r"(.+?)\s+(\d{4})\s+(.+)", line).groups()
            record = records.get((bank, int(year)))
            if cell == "n.a":
                assert record is None
                continue
            scored += 1
            assert self.GLYPHS[cell[0]] == record["zone"]
            self.assert_numbers(cell, [100.0 * record["score"]])
        assert scored == len(records)

    def test_evaluate(self, capsys, tmp_path, monkeypatch):
        text, doc = self.both_formats(capsys, tmp_path, monkeypatch, "evaluate")
        expected = [doc["zones"]["cutoff"], *doc["zones"]["grey"]]
        for table, columns in (
            ("years", ("bankrupt", "grey", "nonbankrupt")),
            ("cutoff_only", ("bankrupt", "nonbankrupt")),
        ):
            for row in doc[table]:
                expected += [row["year"], *(row["counts"][c] for c in columns)]
                expected += [row["hits"], row["total"]]
                expected += [100.0 * row[key] for key in ("accuracy", "type1", "type2")]
        zones = []
        for row in doc["years"]:
            expected.append(row["year"])
            expected += [100.0 * bank["score"] for bank in row["banks"]]
            zones += [bank["zone"] for bank in row["banks"]]
        self.assert_numbers(text, expected)
        assert [self.GLYPHS[g] for g in re.findall("[▼■▲]", text)] == zones

"""Zones and their score scales, scoring, confusion counts, and the yearly evaluation."""
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from observations import RAW_ZONES, raw_scores
from oracles import linear_form_reference, z_score_reference
from records import replace

from distress_lda import (
    BankYearRecord,
    BindingError,
    ClassificationZones,
    ConfusionMatrix,
    DomainError,
    GroupLabel,
    MissingLabelError,
    RatioVector,
    confusion_matrix,
    cutoff_from_centroids,
    derive_zones,
    evaluate_panel,
    fit,
    fit_from_matrices,
    fit_normalizer,
    grey_zone,
    infer_warning_years,
    normalize_training_set,
    panel_labels,
    parse_panel,
    report_to_dict,
    score_panel,
    training_set_from_panel,
)
from distress_lda.classification import _zones_of

# Frozen yearly evaluation of the bundled panel under the override zones:
# (bankrupt, grey, nonbankrupt, hits, total, type1_count, type2_count).
EXPECTED_YEARS = {
    2012: (7, 0, 7, 7, 14, 0, 7),
    2013: (3, 1, 12, 12, 16, 0, 3),
    2014: (5, 0, 11, 11, 16, 0, 5),
    2015: (4, 0, 15, 16, 19, 1, 3),
    2016: (4, 1, 12, 12, 17, 0, 4),
    2017: (3, 0, 15, 15, 18, 0, 3),
    2018: (2, 0, 16, 16, 18, 0, 2),
    2019: (0, 0, 17, 17, 17, 0, 0),
    2020: (2, 1, 14, 14, 17, 0, 2),
}
# Same panel with the cut-off alone: (bankrupt, nonbankrupt, hits, type2_count).
EXPECTED_CUTOFF_ONLY = {
    2012: (7, 7, 7, 7),
    2013: (4, 12, 12, 4),
    2014: (5, 11, 11, 5),
    2015: (4, 15, 16, 3),
    2016: (5, 12, 12, 5),
    2017: (3, 15, 15, 3),
    2018: (2, 16, 16, 2),
    2019: (0, 17, 17, 0),
    2020: (3, 14, 14, 3),
}


@pytest.fixture(scope="module")
def evaluation_report(reference_model, reference_stats, evaluation_panel, published_zones):
    records, labels = evaluation_panel
    return evaluate_panel(reference_model, reference_stats, records, labels, published_zones)


class TestCutoff:
    def test_weighted_centroid_mean(self):
        """Centroids -4.016 and 0.669 with sizes 2 and 12 meet at -0.000286."""
        assert cutoff_from_centroids(-4.016, 2, 0.669, 12) == pytest.approx(
            -2.857142857e-4, rel=1e-9
        )

    def test_balanced_groups_meet_in_the_middle(self):
        assert cutoff_from_centroids(-1.0, 3, 1.0, 3) == 0.0
        assert cutoff_from_centroids(1.0, 3, -3.0, 1) == 0.0

    def test_cutoff_equals_grand_score_mean(self, fitted_model, normalized_set):
        scores = raw_scores(fitted_model, [s.ratios for s in normalized_set.samples])
        cutoff = cutoff_from_centroids(
            fitted_model.y0, fitted_model.n0, fitted_model.y1, fitted_model.n1
        )
        assert cutoff == pytest.approx(np.mean(scores), abs=1e-12)


class TestGreyZone:
    def test_one_dispersion_inside_each_centroid(self, fitted_model):
        lo, hi = grey_zone(fitted_model)
        assert lo == pytest.approx(fitted_model.y0 + fitted_model.s0, rel=1e-12)
        assert hi == pytest.approx(fitted_model.y1 - fitted_model.s1, rel=1e-12)
        assert lo < hi

    def test_wide_dispersions_collapse_the_interval(self, fitted_model):
        blurred = replace(fitted_model, s0=5.0, s1=5.0)
        assert grey_zone(blurred) is None

    def test_zero_dispersions_span_the_centroids(self, fitted_model):
        sharp = replace(fitted_model, s0=0.0, s1=0.0)
        assert grey_zone(sharp) == (fitted_model.y0, fitted_model.y1)

    def test_derive_zones_is_tagged(self, reference_model):
        zones = derive_zones(reference_model)
        assert zones.source == "derived-from-model"
        m = reference_model
        cutoff = cutoff_from_centroids(m.y0, m.n0, m.y1, m.n1)
        assert zones.cutoff == pytest.approx(cutoff, rel=1e-15)
        assert zones.grey == grey_zone(reference_model)

    def test_zone_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            ClassificationZones(cutoff=0.0, grey=(1.0, -1.0), source="explicit-override")
        with pytest.raises(ValueError, match="source"):
            ClassificationZones(cutoff=0.0, grey=None, source="guessed")

    @pytest.mark.parametrize(
        "cutoff, grey",
        [
            (float("nan"), None),
            (float("-inf"), None),
            (0.0, (float("nan"), 1.0)),
            (0.0, (-1.0, float("nan"))),
            (0.0, (float("-inf"), 1.0)),
            (0.0, (-1.0, float("inf"))),
        ],
    )
    def test_non_finite_bounds_rejected(self, cutoff, grey):
        """A NaN cut-off would zone every score healthy, a NaN grey bound every low score grey."""
        with pytest.raises(ValueError, match="finite"):
            ClassificationZones(cutoff=cutoff, grey=grey, source="explicit-override")


def zone_of(score_value, zones):
    """The zone's text of one score by the zone rule."""
    [zone] = _zones_of([score_value], zones)
    return zone


class TestClassifyZone:
    def test_three_zone_boundaries_are_grey(self, published_zones):
        lo, hi = published_zones.grey
        assert zone_of(lo - 1e-12, published_zones) == "bankrupt"
        assert zone_of(lo, published_zones) == "grey"
        assert zone_of(hi, published_zones) == "grey"
        assert zone_of(hi + 1e-12, published_zones) == "nonbankrupt"

    def test_cutoff_only_equality_counts_healthy(self):
        zones = ClassificationZones(cutoff=0.25, grey=None, source="explicit-override")
        assert zone_of(0.25, zones) == "nonbankrupt"
        assert zone_of(0.2499999, zones) == "bankrupt"

    def test_partition_and_monotonicity(self, published_zones):
        rng = np.random.default_rng(23)
        order = {"bankrupt": 0, "grey": 1, "nonbankrupt": 2}
        values = np.sort(rng.uniform(-0.2, 0.2, size=500))
        ranks = [order[zone] for zone in _zones_of(list(map(float, values)), published_zones)]
        assert ranks == sorted(ranks)


def score_one(model, stats, ratios, zones):
    """score_panel's score of one available bank-year with these ratios."""
    record = BankYearRecord("Alpha", 2015, ratios, True)
    [entry] = score_panel(model, stats, [record], zones)
    return entry["score"]


class TestScoreObservation:
    """Observations scored through score_panel, on the scale of the zones."""

    def test_raw_mode_reproduces_reported_index(
        self, reference_model, evaluation_panel, published_zones
    ):
        """Last pre-failure year of the failed bank scores about -0.09."""
        records, _ = evaluation_panel
        rec = next(r for r in records if r.bank_id == "Moza Banco, S.A" and r.year == 2015)
        [entry] = score_panel(reference_model, None, [rec], published_zones)
        assert (entry["bank"], entry["year"]) == (rec.bank_id, rec.year)
        assert entry["score"] == pytest.approx(-0.0896, abs=2e-3)

    def test_unavailable_record_skipped(self, reference_model, evaluation_panel, published_zones):
        """Unavailable records are left out; the others keep the order given."""
        records, _ = evaluation_panel
        moza = {r.year: r for r in records if r.bank_id == "Moza Banco, S.A"}
        assert not moza[2016].available
        given = [moza[2015], moza[2016], moza[2012]]
        scored = score_panel(reference_model, None, given, published_zones)
        assert [(entry["bank"], entry["year"]) for entry in scored] == [
            (moza[2015].bank_id, 2015), (moza[2012].bank_id, 2012)
        ]

    def test_normalized_mode_composes_z_scoring(self, fitted_model, norm_stats):
        v = RatioVector(0.2, 0.1, 0.02, 0.05, 0.5, 0.08)
        direct = linear_form_reference(fitted_model.constant, fitted_model.coefficients, z_score_reference(norm_stats, v))
        assert score_one(fitted_model, norm_stats, v, derive_zones(fitted_model)) == direct

    def test_normalized_mode_requires_stats(self, fitted_model):
        with pytest.raises(ValueError, match="normalization stats"):
            score_panel(fitted_model, None, [], derive_zones(fitted_model))

    def test_zero_vector_scores_the_constant(self, fitted_model):
        value = score_one(fitted_model, None, RatioVector(0, 0, 0, 0, 0, 0), RAW_ZONES)
        assert value == pytest.approx(fitted_model.constant, abs=1e-15)

    def test_non_finite_score_names_the_bank_year(self, reference_model, reference_stats):
        """A finite ratio whose z-score overflows is refused with its bank-year."""
        huge = BankYearRecord("Alpha", 2014, RatioVector(1e308, 0.1, 0.01, 0.05, 0.5, 0.04), True)
        zones = derive_zones(reference_model)
        with pytest.raises(DomainError) as refused:
            score_panel(reference_model, reference_stats, [huge], zones)
        assert str(refused.value) == "bank 'Alpha' year 2014: score must be finite, got -inf"


class TestConfusionMatrix:
    def test_bundled_panel_is_diagonal(self, fitted_model, normalized_set):
        cm = confusion_matrix(fitted_model, normalized_set)
        assert cm.count(GroupLabel.BANKRUPT, GroupLabel.BANKRUPT) == 2
        assert cm.count(GroupLabel.NONBANKRUPT, GroupLabel.NONBANKRUPT) == 12
        assert cm.count(GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT) == 0
        assert cm.total() == 14
        assert cm.correct_fraction() == 1.0

    def test_empty_matrix_reports_zero(self):
        cm = ConfusionMatrix(counts={})
        assert cm.total() == 0
        assert cm.correct_fraction() == 0.0


class TestWarningYears:
    HEADER = "bank,year,eaa,roae,roaa,nii,laaa,bdtla"

    def _records(self, rows):
        return parse_panel("\n".join([self.HEADER, *rows]) + "\n")

    def test_year_before_first_gap(self):
        records = self._records(
            [
                "Fail,2012,1,1,1,1,1,1",
                "Fail,2013,1,1,1,1,1,1",
                "Fail,2014,0,0,0,0,0,0",
                "Fail,2015,1,1,1,1,1,1",
            ]
        )
        warning = infer_warning_years(records, {"Fail": GroupLabel.BANKRUPT})
        assert warning == {"Fail": 2013}

    def test_no_gap_uses_last_available_year(self):
        records = self._records(["Fail,2012,1,1,1,1,1,1", "Fail,2013,1,1,1,1,1,1"])
        warning = infer_warning_years(records, {"Fail": GroupLabel.BANKRUPT})
        assert warning == {"Fail": 2013}

    def test_leading_gap_ignored(self):
        records = self._records(
            [
                "Fail,2012,0,0,0,0,0,0",
                "Fail,2013,1,1,1,1,1,1",
                "Fail,2014,1,1,1,1,1,1",
            ]
        )
        warning = infer_warning_years(records, {"Fail": GroupLabel.BANKRUPT})
        assert warning == {"Fail": 2014}

    def test_year_without_a_row_is_never_the_warning_year(self):
        """The panel has no 2014 row for the bank: it last reported in 2013."""
        records = self._records(
            [
                "Fail,2012,1,1,1,1,1,1",
                "Fail,2013,1,1,1,1,1,1",
                "Fail,2015,0,0,0,0,0,0",
            ]
        )
        warning = infer_warning_years(records, {"Fail": GroupLabel.BANKRUPT})
        assert warning == {"Fail": 2013}

    def test_healthy_and_silent_banks_skipped(self):
        records = self._records(
            [
                "Ok,2012,1,1,1,1,1,1",
                "Ghost,2012,0,0,0,0,0,0",
            ]
        )
        warning = infer_warning_years(
            records, {"Ok": GroupLabel.NONBANKRUPT, "Ghost": GroupLabel.BANKRUPT}
        )
        assert warning == {}

    def test_bundled_panel_warning_years(self, evaluation_panel):
        records, labels = evaluation_panel
        warning = infer_warning_years(records, labels)
        assert warning == {"Moza Banco, S.A": 2015, "Nosso Banco, S.A": 2015}


class TestEvaluatePanel:
    def test_yearly_rows_match_frozen_counts(self, evaluation_report):
        assert [row.year for row in evaluation_report.years] == sorted(EXPECTED_YEARS)
        for row in evaluation_report.years:
            expected = EXPECTED_YEARS[row.year]
            got = (
                row.bankrupt_count,
                row.grey_count,
                row.nonbankrupt_count,
                row.hits,
                row.total,
                row.type1_count,
                row.type2_count,
            )
            assert got == expected, f"year {row.year}"

    def test_cutoff_only_rows_match_frozen_counts(self, evaluation_report):
        for row in evaluation_report.cutoff_only:
            expected = EXPECTED_CUTOFF_ONLY[row.year]
            got = (row.bankrupt_count, row.nonbankrupt_count, row.hits, row.type2_count)
            assert got == expected, f"year {row.year}"
            assert row.grey_count == 0

    def test_hits_match_between_panels(self, evaluation_report):
        with_grey = {row.year: row.hits for row in evaluation_report.years}
        cutoff = {row.year: row.hits for row in evaluation_report.cutoff_only}
        assert with_grey == cutoff

    def test_count_identity_every_row(self, evaluation_report):
        for row in (*evaluation_report.years, *evaluation_report.cutoff_only):
            assert row.hits + row.type2_count + row.grey_count == row.total
            assert row.bankrupt_count + row.grey_count + row.nonbankrupt_count == row.total

    def test_missed_warning_year(self, evaluation_report):
        row = next(r for r in evaluation_report.years if r.year == 2015)
        assert row.type1_count == 1
        assert row.type1_rate == 0.5
        nosso = next(b for b in row.banks if b["bank"] == "Nosso Banco, S.A")
        assert nosso["zone"] == "nonbankrupt"

    def test_warning_year_skips_a_year_without_a_row(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        """Without its 2015 row, Moza Banco last reports in 2014 and is scored
        there as a missed warning, instead of vanishing from the expected calls."""
        records, labels = evaluation_panel
        moza = "Moza Banco, S.A"
        records = [r for r in records if (r.bank_id, r.year) != (moza, 2015)]
        report = evaluate_panel(reference_model, reference_stats, records, labels, published_zones)
        assert report.notices == ()
        row2014 = next(r for r in report.years if r.year == 2014)
        assert (row2014.type1_count, row2014.type1_rate) == (1, 1.0)
        assert next(b for b in row2014.banks if b["bank"] == moza)["zone"] == "nonbankrupt"
        row2015 = next(r for r in report.years if r.year == 2015)
        assert (row2015.type1_count, row2015.type1_rate) == (1, 1.0)  # Nosso Banco alone

    def test_grey_banks_named(self, evaluation_report):
        greys = {
            row.year: [b["bank"] for b in row.banks if b["zone"] == "grey"]
            for row in evaluation_report.years
            if row.grey_count
        }
        assert greys == {
            2013: ["Moza Banco, S.A"],
            2016: ["Société Générale Moçambique, S.A"],
            2020: ["Ecobank Moçambique, S.A"],
        }

    def test_banks_sorted_within_year(self, evaluation_report):
        for row in evaluation_report.years:
            names = [b["bank"] for b in row.banks]
            assert names == sorted(names)

    def test_missing_label_rejected(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        partial = dict(labels)
        del partial["Moza Banco, S.A"]
        with pytest.raises(MissingLabelError, match="Moza"):
            evaluate_panel(reference_model, reference_stats, records, partial, published_zones)

    def test_warning_year_override_moves_the_expectation(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        report = evaluate_panel(
            reference_model,
            reference_stats,
            records,
            labels,
            published_zones,
            warning_years={"Moza Banco, S.A": 2014},
        )
        row2015 = next(r for r in report.years if r.year == 2015)
        # Moza's 2015 distress call now counts as a false alarm, and the
        # remaining expected failure (missed) is the whole denominator.
        assert row2015.type2_count == 4
        assert row2015.type1_rate == 1.0
        row2014 = next(r for r in report.years if r.year == 2014)
        assert row2014.type1_count == 1  # healthy-looking in its warning year

    def test_override_for_unknown_bank_noticed(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        base = evaluate_panel(reference_model, reference_stats, records, labels, published_zones)
        report = evaluate_panel(
            reference_model,
            reference_stats,
            records,
            labels,
            published_zones,
            warning_years={"Zeta Bank": 2014, "Alpha Bank": 2013},
        )
        assert report.notices == (
            "warning year for bank 'Alpha Bank' ignored: bank not in panel",
            "warning year for bank 'Zeta Bank' ignored: bank not in panel",
        )
        assert report.years == base.years
        assert report.cutoff_only == base.cutoff_only

    def test_override_for_healthy_bank_noticed(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        base = evaluate_panel(reference_model, reference_stats, records, labels, published_zones)
        bank = "Banco Internacional de Moçambique, S.A"
        assert labels[bank] is GroupLabel.NONBANKRUPT
        report = evaluate_panel(
            reference_model, reference_stats, records, labels, published_zones,
            warning_years={bank: 2015},
        )
        assert report.notices == (
            f"warning year for bank {bank!r} ignored: bank is not labelled bankrupt",
        )
        assert report.years == base.years
        assert report.cutoff_only == base.cutoff_only

    @pytest.mark.parametrize("year", [2030, 2016])
    def test_override_without_available_record_noticed(
        self, reference_model, reference_stats, evaluation_panel, published_zones, year
    ):
        """Moza Banco has no record in 2030 and only an n.a row in 2016; an
        override to either would take its 2015 alarm out of the expectation."""
        records, labels = evaluation_panel
        base = evaluate_panel(reference_model, reference_stats, records, labels, published_zones)
        bank = "Moza Banco, S.A"
        report = evaluate_panel(
            reference_model, reference_stats, records, labels, published_zones,
            warning_years={bank: year},
        )
        assert report.notices == (
            f"warning year {year} for bank {bank!r} ignored: bank has no available record in {year}",
        )
        assert report.years == base.years
        assert report.cutoff_only == base.cutoff_only

    @pytest.mark.parametrize(
        "rows, scoring, expected",
        [
            pytest.param(["Alpha,2012,0.2,0.1,0.02,0.05,0.5,0.08", "Alpha,2013,0,0,0,0,0,0", "Beta,2013,0,0,0,0,0,0"],
                         "paper", ([2012], ("year 2013: no available records, omitted",)), id="last-year-empty"),
            pytest.param(["Beta,2014,0.2,0.1,0.02,0.05,0.5,0.08", "Alpha,2013,0,0,0,0,0,0",
                          "Alpha,2012,0.2,0.1,0.02,0.05,0.5,0.08", "Beta,2011,0,0,0,0,0,0"],
                         "paper", ([2012, 2014], ("year 2011: no available records, omitted",
                                                  "year 2013: no available records, omitted")), id="years-in-order"),
            pytest.param(["Alpha,2012,0,0,0,0,0,0", "Beta,2013,0,0,0,0,0,0"], "paper",
                         ([], ("year 2012: no available records, omitted", "year 2013: no available records, omitted")),
                         id="none-available"),
            pytest.param(["Alpha,2012,0,0,0,0,0,0"], "foreign variable",
                         (BindingError, "observation has no variable 'u'"), id="none-available-foreign-variable"),
            pytest.param(["Alpha,2012,0,0,0,0,0,0"], "derived without stats",
                         (ValueError, "the normalized scale requires normalization stats"),
                         id="none-available-no-stats"),
            pytest.param(["Alpha,2014,1e308,0.1,0.02,0.05,0.5,0.08", "Gamma,2013,1e308,0.1,0.02,0.05,0.5,0.08",
                          "Beta,2013,1e308,0.1,0.02,0.05,0.5,0.08", "Alpha,2012,0.2,0.1,0.02,0.05,0.5,0.08"],
                         "derived", (DomainError, r"^bank 'Beta' year 2013: score must be finite, got -inf$"),
                         id="non-finite-in-two-years"),
        ],
    )
    def test_empty_year_noticed_and_omitted(
        self, reference_model, reference_stats, published_zones, rows, scoring, expected
    ):
        """Evaluation works a year at a time, and still: a year without an
        available record is noticed in its place among the years; the model and
        the scale are checked when no year is scored; a score that is not finite
        is refused at the first one in (year, bank) order."""
        model, stats, zones = {
            "paper": (reference_model, reference_stats, published_zones),
            "derived": (reference_model, reference_stats, derive_zones(reference_model)),
            "derived without stats": (reference_model, None, derive_zones(reference_model)),
            "foreign variable": (fit_from_matrices([[0.0], [1.0], [0.5]], [[3.0], [4.0], [3.5]], ("u",)),
                                 None, RAW_ZONES),
        }[scoring]
        records = parse_panel("\n".join(["bank,year,eaa,roae,roaa,nii,laaa,bdtla", *rows]))
        labels = {r.bank_id: GroupLabel.BANKRUPT if r.bank_id == "Alpha" else GroupLabel.NONBANKRUPT for r in records}
        if isinstance(expected[0], list):
            report = evaluate_panel(model, stats, records, labels, zones)
            assert ([row.year for row in report.years], report.notices) == expected
        else:
            with pytest.raises(expected[0], match=expected[1]):
                evaluate_panel(model, stats, records, labels, zones)

    def test_derived_zones_score_the_normalized_scale(
        self, reference_model, reference_stats, evaluation_panel
    ):
        """With no mode, derived zones z-score the ratios: 2015 raises three alarms."""
        records, labels = evaluation_panel
        zones = derive_zones(reference_model)
        report = evaluate_panel(reference_model, reference_stats, records, labels, zones)
        row = next(r for r in report.years if r.year == 2015)
        assert (row.bankrupt_count, row.grey_count, row.hits, row.total) == (3, 4, 13, 19)
        assert report_to_dict(report)["mode"] == "normalized"

    def test_mode_must_name_the_zones_scale(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        derived = derive_zones(reference_model)
        for zones, mode in ((published_zones, "normalized"), (derived, "raw"), (derived, "zscore")):
            with pytest.raises(ValueError, match="mode"):
                evaluate_panel(reference_model, reference_stats, records, labels, zones, mode)
        agreed = evaluate_panel(
            reference_model, reference_stats, records, labels, derived, mode="normalized"
        )
        unnamed = evaluate_panel(reference_model, reference_stats, records, labels, derived)
        assert agreed == unnamed

    def test_report_dict_schema(self, evaluation_report, published_zones):
        doc = report_to_dict(evaluation_report)
        assert set(doc) == {"years", "cutoff_only", "zones", "mode", "notices"}
        assert doc["mode"] == "raw"
        assert doc["zones"]["cutoff"] == published_zones.cutoff
        assert doc["zones"]["grey"] == list(published_zones.grey)
        assert doc["zones"]["source"] == "explicit-override"

        first = doc["years"][0]
        assert set(first) == {
            "year",
            "counts",
            "hits",
            "total",
            "type1",
            "type2",
            "accuracy",
            "banks",
        }
        assert set(first["counts"]) == {"bankrupt", "grey", "nonbankrupt"}
        assert set(doc["cutoff_only"][0]["counts"]) == {"bankrupt", "nonbankrupt"}
        assert set(first["banks"][0]) == {"bank", "score", "zone"}
        for row in doc["years"]:
            assert row["type1"] == (0.5 if row["year"] == 2015 else 0.0)


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written and prints one line per panel year."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    years = [line.split()[0] for line in lines if re.fullmatch(r"\d{4} \d+%", line)]
    assert years == [str(year) for year in range(2012, 2021)]


def test_evaluation_holds_no_whole_panel_temporaries(monkeypatch):
    """evaluate_panel scores, zones and tallies one year at a time. On an
    800-bank panel over nine years, its peak memory above the report it
    returns stays under a sixth of that report; whole-panel lists of scores,
    zones and entries took 0.29 of it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from synth import generate_panel

    text, _ = generate_panel(1, 800)
    records, labels = parse_panel(text), panel_labels(text)
    ts = training_set_from_panel(records, labels, window=(2012, 2015))
    stats = fit_normalizer(ts)
    model = fit(normalize_training_set(stats, ts))
    zones = derive_zones(model)
    tracemalloc.start()
    try:
        report = evaluate_panel(model, stats, records, labels, zones)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.years) == 9
    assert peak - retained < retained / 6

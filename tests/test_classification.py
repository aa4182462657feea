"""Zones, scoring modes, confusion counts, and the yearly evaluation."""
import dataclasses

import numpy as np
import pytest

from distress_lda import (
    BankYearRecord,
    ClassificationZones,
    ConfusionMatrix,
    DomainError,
    GroupLabel,
    MissingDataError,
    MissingLabelError,
    RatioVector,
    ZoneLabel,
    classify_zone,
    confusion_matrix,
    cutoff_from_centroids,
    derive_zones,
    evaluate_panel,
    grey_zone,
    infer_warning_years,
    parse_panel,
    report_to_dict,
    score,
    score_observation,
)
from distress_lda.normalization import apply

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
    return evaluate_panel(
        reference_model, reference_stats, records, labels, published_zones, mode="raw"
    )


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
        scores = [score(fitted_model, s.ratios) for s in normalized_set.samples]
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
        blurred = dataclasses.replace(fitted_model, s0=5.0, s1=5.0)
        assert grey_zone(blurred) is None

    def test_zero_dispersions_span_the_centroids(self, fitted_model):
        sharp = dataclasses.replace(fitted_model, s0=0.0, s1=0.0)
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


class TestClassifyZone:
    def test_three_zone_boundaries_are_grey(self, published_zones):
        lo, hi = published_zones.grey
        assert classify_zone(lo - 1e-12, published_zones) is ZoneLabel.BANKRUPT
        assert classify_zone(lo, published_zones) is ZoneLabel.GREY
        assert classify_zone(hi, published_zones) is ZoneLabel.GREY
        assert classify_zone(hi + 1e-12, published_zones) is ZoneLabel.NONBANKRUPT

    def test_cutoff_only_equality_counts_healthy(self):
        zones = ClassificationZones(cutoff=0.25, grey=None, source="explicit-override")
        assert classify_zone(0.25, zones) is ZoneLabel.NONBANKRUPT
        assert classify_zone(0.2499999, zones) is ZoneLabel.BANKRUPT

    def test_non_finite_score_rejected(self, published_zones):
        with pytest.raises(DomainError):
            classify_zone(float("nan"), published_zones)
        with pytest.raises(DomainError):
            classify_zone(float("inf"), published_zones)

    def test_partition_and_monotonicity(self, published_zones):
        rng = np.random.default_rng(23)
        order = {ZoneLabel.BANKRUPT: 0, ZoneLabel.GREY: 1, ZoneLabel.NONBANKRUPT: 2}
        values = np.sort(rng.uniform(-0.2, 0.2, size=500))
        ranks = [order[classify_zone(float(v), published_zones)] for v in values]
        assert ranks == sorted(ranks)


class TestScoreObservation:
    def test_raw_mode_reproduces_reported_index(self, reference_model, evaluation_panel):
        """Last pre-failure year of the failed bank scores about -0.09."""
        records, _ = evaluation_panel
        rec = next(r for r in records if r.bank_id == "Moza Banco, S.A" and r.year == 2015)
        value = score_observation(reference_model, None, rec, mode="raw")
        assert value == pytest.approx(-0.0896, abs=2e-3)

    def test_unavailable_record_rejected(self, reference_model, evaluation_panel):
        records, _ = evaluation_panel
        rec = next(r for r in records if r.bank_id == "Moza Banco, S.A" and r.year == 2016)
        assert not rec.available
        with pytest.raises(MissingDataError, match="2016"):
            score_observation(reference_model, None, rec, mode="raw")

    def test_normalized_mode_composes_z_scoring(self, fitted_model, norm_stats):
        v = RatioVector(0.2, 0.1, 0.02, 0.05, 0.5, 0.08)
        direct = score(fitted_model, apply(norm_stats, v))
        assert score_observation(fitted_model, norm_stats, v, mode="normalized") == direct

    def test_normalized_mode_requires_stats(self, fitted_model):
        with pytest.raises(ValueError, match="normalization stats"):
            score_observation(fitted_model, None, RatioVector(0, 0, 0, 0, 0, 0), "normalized")

    def test_mode_validated(self, fitted_model, norm_stats):
        with pytest.raises(ValueError, match="mode"):
            score_observation(fitted_model, norm_stats, RatioVector(0, 0, 0, 0, 0, 0), "zscore")

    def test_zero_vector_scores_the_constant(self, fitted_model):
        value = score_observation(fitted_model, None, RatioVector(0, 0, 0, 0, 0, 0), "raw")
        assert value == pytest.approx(fitted_model.constant, abs=1e-15)


class TestConfusionMatrix:
    def test_bundled_panel_is_diagonal(self, fitted_model, normalized_set):
        cm = confusion_matrix(fitted_model, normalized_set)
        assert cm.count(GroupLabel.BANKRUPT, GroupLabel.BANKRUPT) == 2
        assert cm.count(GroupLabel.NONBANKRUPT, GroupLabel.NONBANKRUPT) == 12
        assert cm.count(GroupLabel.BANKRUPT, GroupLabel.NONBANKRUPT) == 0
        assert cm.total() == 14
        assert cm.correct_fraction() == 1.0
        assert cm.row_percent(GroupLabel.BANKRUPT, GroupLabel.BANKRUPT) == 100.0

    def test_empty_matrix_reports_zero(self):
        cm = ConfusionMatrix(counts={})
        assert cm.total() == 0
        assert cm.correct_fraction() == 0.0
        assert cm.row_percent(GroupLabel.BANKRUPT, GroupLabel.BANKRUPT) == 0.0


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
        nosso = next(b for b in row.banks if b.bank == "Nosso Banco, S.A")
        assert nosso.zone is ZoneLabel.NONBANKRUPT

    def test_grey_banks_named(self, evaluation_report):
        greys = {
            row.year: [b.bank for b in row.banks if b.zone is ZoneLabel.GREY]
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
            names = [b.bank for b in row.banks]
            assert names == sorted(names)

    def test_missing_label_rejected(
        self, reference_model, reference_stats, evaluation_panel, published_zones
    ):
        records, labels = evaluation_panel
        partial = dict(labels)
        del partial["Moza Banco, S.A"]
        with pytest.raises(MissingLabelError, match="Moza"):
            evaluate_panel(
                reference_model, reference_stats, records, partial, published_zones, "raw"
            )

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
            mode="raw",
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
        base = evaluate_panel(
            reference_model, reference_stats, records, labels, published_zones, "raw"
        )
        report = evaluate_panel(
            reference_model,
            reference_stats,
            records,
            labels,
            published_zones,
            mode="raw",
            warning_years={"Zeta Bank": 2014, "Alpha Bank": 2013},
        )
        assert report.notices == (
            "warning year for bank 'Alpha Bank' ignored: bank not in panel",
            "warning year for bank 'Zeta Bank' ignored: bank not in panel",
        )
        assert report.years == base.years
        assert report.cutoff_only == base.cutoff_only

    def test_empty_year_noticed_and_omitted(
        self, reference_model, reference_stats, published_zones
    ):
        header = "bank,year,eaa,roae,roaa,nii,laaa,bdtla"
        records = parse_panel(
            "\n".join(
                [
                    header,
                    "Alpha,2012,0.2,0.1,0.02,0.05,0.5,0.08",
                    "Alpha,2013,0,0,0,0,0,0",
                    "Beta,2013,0,0,0,0,0,0",
                ]
            )
        )
        labels = {"Alpha": GroupLabel.BANKRUPT, "Beta": GroupLabel.NONBANKRUPT}
        report = evaluate_panel(
            reference_model, reference_stats, records, labels, published_zones, "raw"
        )
        assert [row.year for row in report.years] == [2012]
        assert report.notices == ("year 2013: no available records, omitted",)

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

"""Panel parsing, window averaging, and training-set assembly."""
import re

import pytest

from distress_lda import (
    BankYearRecord,
    DuplicateRecordError,
    EmptyWindowError,
    GroupLabel,
    InsufficientGroupError,
    LabeledSample,
    MissingLabelError,
    ParseError,
    RatioVector,
    SchemaError,
    VariableCountError,
    average_ratios,
    build_training_set,
    panel_labels,
    parse_panel,
    training_set_from_panel,
)
from distress_lda.dataset import load_panels
from panel_csv import serialize_panel

HEADER = "bank,year,eaa,roae,roaa,nii,laaa,bdtla"


def _panel(*rows: str) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


def _vec(k: float) -> RatioVector:
    return RatioVector(k, k, k, k, k, k)


class TestParsePanel:
    def test_basic_row(self):
        # Cells are stripped of surrounding whitespace before they are read.
        for row in ("Alpha,2014,0.1,0.2,0.3,0.4,0.5,0.6", " Alpha , 2014 , 0.1 ,0.2, 0.3,0.4 ,0.5,\t0.6 "):
            records = parse_panel(_panel(row))
            assert len(records) == 1
            rec = records[0]
            assert rec.bank_id == "Alpha"
            assert rec.year == 2014
            assert rec.available
            assert rec.ratios == RatioVector(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

    def test_column_order_is_free(self):
        # Blank and unknown header cells may repeat, as in spreadsheet exports.
        for text in (
            "year,bdtla,laaa,nii,roaa,roae,eaa,bank\n2013,6,5,4,3,2,1,Alpha\n",
            "note,year,bdtla,laaa,nii,roaa,roae,eaa,bank,note,,\nx,2013,6,5,4,3,2,1,Alpha,y,,\n",
        ):
            rec = parse_panel(text)[0]
            assert rec.ratios == RatioVector(1, 2, 3, 4, 5, 6)

    def test_blank_lines_ignored(self):
        records = parse_panel(_panel("", "Alpha,2014,1,1,1,1,1,1", " , , ", "", ""))
        assert len(records) == 1

    def test_all_zero_row_is_unavailable(self):
        rec = parse_panel(_panel("Alpha,2016,0,0,0,0,0,0"))[0]
        assert not rec.available
        assert rec.ratios == _vec(0.0)

    def test_all_empty_row_is_unavailable(self):
        # A row shorter than the header has empty cells for the columns it lacks.
        for row in ("Alpha,2016,,,,,,", "Alpha,2016, , ,,,,", "Alpha,2016"):
            rec = parse_panel(_panel(row))[0]
            assert not rec.available
            assert rec.ratios == _vec(0.0)

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError, match="'bdtla'"):
            parse_panel("bank,year,eaa,roae,roaa,nii,laaa\nAlpha,2014,1,1,1,1,1\n")

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError, match="header"):
            parse_panel("")

    def test_bad_year_names_row_and_column(self):
        with pytest.raises(ParseError, match=r"row 2: column 'year'"):
            parse_panel(_panel("Alpha,20x4,1,1,1,1,1,1"))

    def test_bad_number_names_row_and_column(self):
        # The first bad cell in column order is named; a short row's missing cells are empty.
        for row, match in (
            ("Beta,2014,1,1,x,1,1,1", r"row 3: column 'roaa': not a number: 'x'"),
            ("Beta,2014,1,1,1", r"row 3: column 'nii': not a number: ''"),
            ("Beta,2014,1,1, x ,inf,1,1", r"row 3: column 'roaa': not a number: 'x'"),
        ):
            with pytest.raises(ParseError, match=match):
                parse_panel(_panel("Alpha,2014,1,1,1,1,1,1", row))

    # int() and float() read each of these, but no panel means them.
    @pytest.mark.parametrize("cell", ["2_015", "\u0662\u0660\u0661\u0665", "-2015", "+2015"])
    def test_year_must_be_ascii_digits(self, cell):
        with pytest.raises(ParseError, match=re.escape(f"row 2: column 'year': not an integer: {cell!r}")):
            parse_panel(_panel(f"Alpha,{cell},1,1,1,1,1,1"))

    def test_year_past_int_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"row 2: column 'year': Exceeds the limit"):
            parse_panel(_panel(f"Alpha,{'9' * 5000},1,1,1,1,1,1"))

    @pytest.mark.parametrize("cell", ["0_5", "1_000.0", "\u0660.\u0665", "\uff10.5"])
    def test_ratio_cell_must_be_plain_ascii(self, cell):
        with pytest.raises(ParseError, match=re.escape(f"row 2: column 'roae': not a plain ASCII number: {cell!r}")):
            parse_panel(_panel(f"Alpha,2014,1,{cell},x,1,1,1"))
        # The first bad cell in column order is named, whichever rule it breaks.
        with pytest.raises(ParseError, match=r"row 2: column 'eaa': not a number: 'x'"):
            parse_panel(_panel(f"Alpha,2014,x,{cell},1,1,1,1"))

    def test_non_finite_cell_rejected(self):
        for row, match in (
            ("Alpha,2014,1,inf,1,1,1,1", r"column 'roae': not finite: 'inf'"),
            ("Alpha,2014,1,1,nan,x,1,1", r"column 'roaa': not finite: 'nan'"),
            ("Alpha,2014,1,1,1,1,1,1e999", r"column 'bdtla': not finite: '1e999'"),
        ):
            with pytest.raises(ParseError, match=match):
                parse_panel(_panel(row))

    def test_empty_bank_rejected(self):
        with pytest.raises(ParseError, match="'bank'"):
            parse_panel(_panel(",2014,1,1,1,1,1,1"))

    @pytest.mark.parametrize(
        "row, match",
        [
            ("Al\rpha,2014,1,1,1,1,1,1", "new-line character"),
            ("A" * 200_000 + ",2014,1,1,1,1,1,1", "field larger than field limit"),
        ],
    )
    def test_unreadable_csv_is_a_parse_error(self, row, match):
        with pytest.raises(ParseError, match=f"line 2: {match}"):
            parse_panel(_panel(row))

    def test_bank_name_with_carriage_return_round_trips(self):
        records = [BankYearRecord("Al\rpha", 2014, _vec(1.0), True)]
        assert parse_panel(serialize_panel(records)) == records

    def test_duplicate_bank_year_rejected(self):
        with pytest.raises(DuplicateRecordError, match="Alpha"):
            parse_panel(_panel("Alpha,2014,1,1,1,1,1,1", "Alpha,2014,2,2,2,2,2,2"))

    def test_same_bank_different_years_allowed(self):
        records = parse_panel(_panel("Alpha,2014,1,1,1,1,1,1", "Alpha,2015,2,2,2,2,2,2"))
        assert [r.year for r in records] == [2014, 2015]

    def test_round_trip(self):
        records = parse_panel(
            _panel(
                '"Comma, Bank",2012,0.1,-0.2,0.3,0.04,0.5,1.1892',
                '"Comma, Bank",2013,0,0,0,0,0,0',
                "Other,2012,1e-3,2,3,4,5,6",
            )
        )
        again = parse_panel(serialize_panel(records))
        assert again == records

    def test_round_trip_with_labels(self):
        records = parse_panel(_panel("Alpha,2014,1,1,1,1,1,1", "Beta,2014,2,2,2,2,2,2"))
        labels = {"Alpha": GroupLabel.BANKRUPT, "Beta": GroupLabel.NONBANKRUPT}
        text = serialize_panel(records, labels)
        assert parse_panel(text) == records
        assert panel_labels(text) == labels


def test_text_readers_drop_one_byte_order_mark():
    """Both text readers read a text that starts with the byte-order mark as
    load_panels reads a file that does: without the one mark."""
    text = HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\n"
    assert parse_panel("\ufeff" + text) == parse_panel(text)
    assert panel_labels("\ufeff" + text) == panel_labels(text) == {"Alpha": GroupLabel.BANKRUPT}
    for read in (parse_panel, panel_labels):
        with pytest.raises(SchemaError, match="missing required column 'bank'"):
            read("\ufeff\ufeff" + text)


class TestPanelLabels:
    def test_reads_labels_per_bank(self):
        text = HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\nBeta,2014,2,2,2,2,2,2,nonbankrupt\n"
        assert panel_labels(text) == {
            "Alpha": GroupLabel.BANKRUPT,
            "Beta": GroupLabel.NONBANKRUPT,
        }

    def test_label_column_required(self):
        with pytest.raises(SchemaError, match="'label'"):
            panel_labels(_panel("Alpha,2014,1,1,1,1,1,1"))

    def test_empty_cells_skipped(self):
        text = HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,\nAlpha,2015,1,1,1,1,1,1,bankrupt\n"
        assert panel_labels(text) == {"Alpha": GroupLabel.BANKRUPT}

    def test_unknown_label_rejected(self):
        text = HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,solvent\n"
        with pytest.raises(ParseError, match="unknown label 'solvent'"):
            panel_labels(text)

    def test_conflicting_labels_rejected(self):
        text = (
            HEADER
            + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\nAlpha,2015,1,1,1,1,1,1,nonbankrupt\n"
        )
        with pytest.raises(ParseError, match="conflicting"):
            panel_labels(text)

    def test_label_case_insensitive(self):
        assert GroupLabel.from_string(" Bankrupt ") is GroupLabel.BANKRUPT
        with pytest.raises(ValueError):
            GroupLabel.from_string("failed")


class TestLoadPanels:
    """Several panel files are checked as one panel, and an error names its file."""

    def _write(self, tmp_path, *texts):
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"panel{i}.csv")
            paths[-1].write_text(text, encoding="utf-8")
        return paths

    def test_records_and_labels_of_every_file(self, tmp_path):
        paths = self._write(
            tmp_path,
            HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\n",
            HEADER + ",label\nBeta,2014,2,2,2,2,2,2,nonbankrupt\nAlpha,2015,0,0,0,0,0,0,\n",
        )
        records, labels = load_panels(paths, "panel", {})
        assert [(r.bank_id, r.year) for r in records] == [("Alpha", 2014), ("Beta", 2014), ("Alpha", 2015)]
        assert labels == {"Alpha": GroupLabel.BANKRUPT, "Beta": GroupLabel.NONBANKRUPT}

    def test_quoted_carriage_return_is_kept(self, tmp_path):
        # Read as text with universal newlines, the quoted CR would become LF.
        records = [BankYearRecord("Al\rpha", 2014, _vec(1.0), True)]
        paths = self._write(tmp_path, serialize_panel(records))
        assert load_panels(paths, "panel", None)[0] == records

    def test_duplicate_in_another_file_names_file_and_row(self, tmp_path):
        paths = self._write(
            tmp_path,
            _panel("Alpha,2014,1,1,1,1,1,1"),
            _panel("Beta,2014,1,1,1,1,1,1", "Alpha,2014,2,2,2,2,2,2"),
        )
        message = f"panel file {paths[1]}: row 3: duplicate record for bank 'Alpha', year 2014"
        with pytest.raises(DuplicateRecordError, match=re.escape(message)):
            load_panels(paths, "panel", None)

    def test_conflicting_label_in_another_file_names_file_and_row(self, tmp_path):
        paths = self._write(
            tmp_path,
            HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\n",
            HEADER + ",label\nAlpha,2015,1,1,1,1,1,1,nonbankrupt\n",
        )
        message = f"panel file {paths[1]}: row 2: bank 'Alpha' has conflicting labels"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_panels(paths, "panel", {})

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (_panel("Alpha,2015,x,1,1,1,1,1"), ParseError, "row 2: column 'eaa': not a number: 'x'"),
            ("bank,year\nAlpha,2015\n", SchemaError, "panel is missing required column 'eaa'"),
            (HEADER + ",label,eaa\nAlpha,2015,1,1,1,1,1,1,bankrupt,2\n", SchemaError,
             "panel names column 'eaa' more than once"),
            (HEADER + ",label,label\nAlpha,2015,1,1,1,1,1,1,bankrupt,nonbankrupt\n", SchemaError,
             "panel names column 'label' more than once"),
            (_panel("Al\rpha,2015,1,1,1,1,1,1"), ParseError, "line 2: new-line character"),
            (_panel("Alpha,2015,1,1,1,1,1,1"), SchemaError, "panel has no 'label' column"),
        ],
    )
    def test_error_names_its_file(self, tmp_path, text, error, message):
        paths = self._write(tmp_path, HEADER + ",label\nAlpha,2014,1,1,1,1,1,1,bankrupt\n", text)
        with pytest.raises(error) as raised:
            load_panels(paths, "panel", {})
        assert str(raised.value).startswith(f"panel file {paths[1]}: {message}")


# A panel fault met before a row the csv reader cannot split, as (name, text
# ending in a newline, the readers that refuse the fault, the error they raise).
_LABELLED = HEADER + ",label\n"
_EARLIER_FAULTS = [
    ("duplicate", _LABELLED + "Alpha,2014,1,1,1,1,1,1,bankrupt\nAlpha,2014,2,2,2,2,2,2,bankrupt\n",
     ("parse_panel", "load_panels"), DuplicateRecordError),
    ("bad year", _LABELLED + "Alpha,20x4,1,1,1,1,1,1,bankrupt\nBeta,2014,1,1,1,1,1,1,bankrupt\n",
     ("parse_panel", "load_panels"), ParseError),
    ("unknown label", _LABELLED + "Alpha,2014,1,1,1,1,1,1,zzz\nBeta,2014,1,1,1,1,1,1,bankrupt\n",
     ("panel_labels", "load_panels"), ParseError),
    ("conflicting label", _LABELLED + "Alpha,2014,1,1,1,1,1,1,bankrupt\nAlpha,2015,1,1,1,1,1,1,nonbankrupt\n",
     ("panel_labels", "load_panels"), ParseError),
    ("missing column", "bank,year,eaa,roae,roaa,nii,laaa,label\nAlpha,2014,1,1,1,1,1,bankrupt\n"
     "Beta,2014,1,1,1,1,1,bankrupt\n", ("parse_panel", "panel_labels", "load_panels"), SchemaError),
]
_CSV_FAULTS = [
    ("Ga\rmma,2014,1,1,1,1,1,1,bankrupt\n", "line 4: new-line character seen in unquoted field"),
    ("G" * 200_000 + ",2014,1,1,1,1,1,1,bankrupt\n", "line 4: field larger than field limit"),
]


class TestCsvErrorsWin:
    """A csv error anywhere in a panel wins over a fault in an earlier row or in the header."""

    @staticmethod
    def _read(reader, text, tmp_path):
        if reader != "load_panels":
            return {"parse_panel": parse_panel, "panel_labels": panel_labels}[reader](text)
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_panels([path], "panel", {})

    @pytest.mark.parametrize("csv_row, message", _CSV_FAULTS, ids=["bare CR", "over-limit field"])
    @pytest.mark.parametrize(
        "reader, text, error",
        [(reader, text, error) for _, text, readers, error in _EARLIER_FAULTS for reader in readers],
        ids=[f"{reader}-{name}" for name, _, readers, _ in _EARLIER_FAULTS for reader in readers],
    )
    def test_csv_error_wins_over_earlier_fault(self, tmp_path, reader, text, error, csv_row, message):
        with pytest.raises(error):  # the earlier fault alone is refused
            self._read(reader, text, tmp_path)
        with pytest.raises(ParseError) as raised:
            self._read(reader, text + csv_row, tmp_path)
        assert type(raised.value) is ParseError
        assert message in str(raised.value)

    @pytest.mark.parametrize(
        "rows, where",
        [
            (['"Al\npha",20x4,1,1,1,1,1,1'], "row 2: column 'year'"),
            (['"Al\npha",2014,1,1,1,1,1,1', "Beta,20x4,1,1,1,1,1,1"], "row 3: column 'year'"),
        ],
    )
    def test_row_number_counts_records_not_lines(self, rows, where):
        # The quoted bank name spans two physical lines but is one record.
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_panel(_panel(*rows))


class TestRatioVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="'roae'"):
            RatioVector(0.1, float("nan"), 0.3, 0.4, 0.5, 0.6)

    def test_array_round_trip(self):
        v = RatioVector(0.1, -0.2, 0.3, 0.4, 1.5, 0.6)
        assert RatioVector(*v) == v


class TestAverageRatios:
    def test_window_mean_skips_unavailable_years(self):
        records = parse_panel(
            _panel(
                "Alpha,2012,0.2,0.2,0.2,0.2,0.2,0.2",
                "Alpha,2013,0,0,0,0,0,0",
                "Alpha,2014,0.4,0.4,0.4,0.4,0.4,0.4",
                "Alpha,2016,9,9,9,9,9,9",
            )
        )
        avg = average_ratios(records, "Alpha", (2012, 2015))
        assert tuple(avg) == pytest.approx([0.3] * 6, rel=1e-12)

    def test_single_available_year_passes_through(self):
        records = parse_panel(_panel("Alpha,2013,0.1,0.2,0.3,0.4,0.5,0.6"))
        avg = average_ratios(records, "Alpha", (2012, 2015))
        assert avg == RatioVector(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

    def test_empty_window_rejected(self):
        records = parse_panel(_panel("Alpha,2016,1,1,1,1,1,1"))
        with pytest.raises(EmptyWindowError, match="'Alpha' has no available data in 2012-2015"):
            average_ratios(records, "Alpha", (2012, 2015))

    def test_overflowing_window_mean_rejected(self):
        """Two finite EAA values of 1e308 sum past the float range; the error names
        the bank, the ratio and the window."""
        records = parse_panel(
            _panel("Alpha,2012,1e308,0.1,0.1,0.1,0.1,0.1", "Alpha,2013,1e308,0.2,0.2,0.2,0.2,0.2")
        )
        with pytest.raises(EmptyWindowError, match="'Alpha': mean over 2012-2015: ratio 'eaa' must be finite, got inf"):
            average_ratios(records, "Alpha", (2012, 2015))

    def test_bundled_panel_reproduces_training_average(self, evaluation_panel):
        """The failed bank's 2012-2015 mean EAA is 0.13388 to 4 decimals."""
        records, _ = evaluation_panel
        avg = average_ratios(records, "Moza Banco, S.A", (2012, 2015))
        assert avg.eaa == pytest.approx(0.13388, abs=5e-4)
        assert avg.laaa == pytest.approx(0.74642, abs=5e-4)


class TestTrainingSetAssembly:
    def test_counts_and_order(self):
        samples = [
            LabeledSample("B1", _vec(0.1), GroupLabel.BANKRUPT),
            LabeledSample("H1", _vec(0.2), GroupLabel.NONBANKRUPT),
            LabeledSample("B2", _vec(0.3), GroupLabel.BANKRUPT),
            LabeledSample("H2", _vec(0.4), GroupLabel.NONBANKRUPT),
            LabeledSample("H3", _vec(0.5), GroupLabel.NONBANKRUPT),
            LabeledSample("H4", _vec(0.6), GroupLabel.NONBANKRUPT),
            LabeledSample("H5", _vec(0.7), GroupLabel.NONBANKRUPT),
            LabeledSample("H6", _vec(0.8), GroupLabel.NONBANKRUPT),
        ]
        ts = build_training_set(samples)
        assert (ts.n0, ts.n1) == (2, 6)
        assert ts.n0 + ts.n1 == len(ts.samples)
        assert [s.bank_id for s in ts.samples] == ["B1", "H1", "B2", "H2", "H3", "H4", "H5", "H6"]

    def test_single_member_group_rejected(self):
        samples = [LabeledSample("B1", _vec(0.1), GroupLabel.BANKRUPT)] + [
            LabeledSample(f"H{i}", _vec(0.2 + i), GroupLabel.NONBANKRUPT) for i in range(12)
        ]
        with pytest.raises(InsufficientGroupError, match="bankrupt=1"):
            build_training_set(samples)

    def test_six_samples_cannot_carry_six_variables(self):
        samples = [LabeledSample(f"B{i}", _vec(0.1 * i), GroupLabel.BANKRUPT) for i in range(3)] + [
            LabeledSample(f"H{i}", _vec(1 + i), GroupLabel.NONBANKRUPT) for i in range(3)
        ]
        with pytest.raises(VariableCountError, match="6 variables exceed"):
            build_training_set(samples)

    def test_eight_samples_suffice(self):
        """The pooled within-group scatter of N samples has rank at most N - 2."""
        samples = [LabeledSample(f"B{i}", _vec(0.1 * i), GroupLabel.BANKRUPT) for i in range(3)] + [
            LabeledSample(f"H{i}", _vec(1 + i), GroupLabel.NONBANKRUPT) for i in range(5)
        ]
        ts = build_training_set(samples)
        assert (ts.n0, ts.n1) == (3, 5)
        with pytest.raises(VariableCountError, match="6 variables exceed the limit of 5 for 7 samples"):
            build_training_set(samples[:-1])

    def test_from_panel_first_appearance_order(self):
        text = _panel(
            "Beta,2013,1,1,1,1,1,1",
            "Alpha,2012,2,2,2,2,2,2",
            "Beta,2014,3,3,3,3,3,3",
            "Gamma,2012,4,4,4,4,4,4",
            "Delta,2012,5,5,5,5,5,5",
            "Epsilon,2012,6,6,6,6,6,6",
            "Zeta,2012,7,7,7,7,7,7",
            "Eta,2012,8,8,8,8,8,8",
            "Theta,2012,9,9,9,9,9,9",
        )
        labels = {"Beta": GroupLabel.BANKRUPT, "Alpha": GroupLabel.BANKRUPT}
        labels.update(
            {b: GroupLabel.NONBANKRUPT for b in ("Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta")}
        )
        ts = training_set_from_panel(parse_panel(text), labels)
        assert [s.bank_id for s in ts.samples][:2] == ["Beta", "Alpha"]
        assert ts.samples[0].ratios == _vec(2.0)  # mean of 1 and 3

    def test_from_panel_requires_labels(self):
        records = parse_panel(_panel("Alpha,2014,1,1,1,1,1,1"))
        with pytest.raises(MissingLabelError, match="'Alpha'"):
            training_set_from_panel(records, {})

    def test_bundled_panel_shape(self, training_set):
        assert (training_set.n0, training_set.n1) == (2, 12)

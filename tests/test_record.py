"""The contract of the package's value records, over every record type.

Fields come from the class annotations in order and are taken by position or
keyword; a record is a tuple of its fields in that order, refuses assignment,
deletion and ordering, compares and hashes by value within its class (never
equal to a plain tuple; DiscriminantModel by identity), prints as
Name(field=value, ...), and survives pickle and copy.
"""
import copy
import operator
import pickle

import pytest
from records import astuple, fields, replace

from distress_lda import (
    BankYearRecord,
    BoxMResult,
    ClassificationZones,
    CollinearityReport,
    ConfusionMatrix,
    DiscriminantModel,
    EvaluationReport,
    FisherFunctions,
    GroupLabel,
    LabeledSample,
    NormalizationStats,
    RatioVector,
    TrainingSet,
    WilksResult,
    YearRow,
)
from distress_lda.cli import RunConfig, build_config, build_parser
from distress_lda.fixtures import load_reference_model
from distress_lda.record import Record

MODEL, STATS = load_reference_model()
RATIOS = RatioVector(0.1, -0.2, 0.03, 0.4, 0.5, 0.06)
SAMPLE = LabeledSample("Alpha", RATIOS, GroupLabel.BANKRUPT)
ZONES = ClassificationZones(-0.5, (-1.0, 1.0), "explicit-override")
ROW = YearRow(2015, 0, 0, 1, 1, 1, 0, 0, 0.0, 0.0, 1.0, ({"bank": "Alpha", "score": 1.5, "zone": "nonbankrupt"},))

# Per record type: one record's field values, and one field with another valid value.
CASES = [
    (RatioVector, astuple(RATIOS), "bdtla", 0.07),
    (BankYearRecord, ("Alpha", 2015, RATIOS, True), "available", False),
    (LabeledSample, astuple(SAMPLE), "label", GroupLabel.NONBANKRUPT),
    (TrainingSet, ((SAMPLE,),), "samples", (SAMPLE, SAMPLE)),
    (FisherFunctions, astuple(MODEL.fisher), "constants", {"bankrupt": 0.0, "nonbankrupt": 0.0}),
    (DiscriminantModel, astuple(MODEL), "constant", 1.0),
    (NormalizationStats, astuple(STATS), "mean", dict.fromkeys(STATS.mean, 0.0)),
    (ClassificationZones, astuple(ZONES), "grey", None),
    (ConfusionMatrix, ({(GroupLabel.BANKRUPT, GroupLabel.BANKRUPT): 2},), "counts", {}),
    (YearRow, astuple(ROW), "hits", 0),
    (EvaluationReport, ((ROW,), (ROW,), ZONES, ("a notice",)), "notices", ()),
    (WilksResult, (0.3, 12.5, 6, 0.04), "df", 5),
    (BoxMResult, (1.2, 1.1, 1.0, 300.0, 0.3, "c2<=c1^2"), "branch", "c2>c1^2"),
    (CollinearityReport, ((("eaa", "roae", 0.9),),), "flagged_pairs", ()),
    (
        RunConfig,
        ("t.csv", ("a.csv",), "m.json", "paper", "json", 0.01, 0.9, (2012, 2015), "equal",
         {"Alpha": GroupLabel.BANKRUPT}, {"Alpha": 2015}),
        "format",
        "text",
    ),
]
cases = pytest.mark.parametrize("cls, values, field, other", CASES, ids=[case[0].__name__ for case in CASES])


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_type_is_covered():
    import distress_lda

    exported = {
        value for value in vars(distress_lda).values() if isinstance(value, type) and issubclass(value, Record)
    }
    assert exported | {RunConfig} == {case[0] for case in CASES}
    assert len(CASES) == 15


@cases
def test_fields_follow_the_annotations_by_position_or_keyword(cls, values, field, other):
    assert fields(cls) == tuple(cls.__annotations__)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields(cls), values)))
    assert astuple(by_position) == astuple(by_keyword) == values
    assert tuple(by_position) == values  # unpacks in field order
    assert [by_position[at] for at in range(len(values))] == list(values)
    assert not hasattr(by_position, "__dict__")  # one object per record


@cases
def test_fields_refuse_assignment_and_deletion(cls, values, field, other):
    record = cls(*values)
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = other
    assert astuple(record) == values


@cases
def test_equality_and_hash(cls, values, field, other):
    record, twin, changed = cls(*values), cls(*values), replace(cls(*values), **{field: other})
    assert record == record
    assert record != changed
    # A tuple of the same values is another class, on either side.
    assert record != values and values != record
    assert not record == values and not values == record
    for a, b in ((record, twin), (record, values), (values, record)):
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(a, b)
    if cls is DiscriminantModel:  # compared and hashed by identity
        assert (record == twin, record != twin) == (False, True)
        assert (record.__eq__(twin), record.__ne__(twin)) == (False, True)
        assert hash(record) != hash(twin)
        return
    assert record == twin and not record != twin
    if _hashable(values):
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)


@cases
def test_repr_lists_the_fields_in_order(cls, values, field, other):
    listed = ", ".join(f"{name}={value!r}" for name, value in zip(fields(cls), values))
    assert repr(cls(*values)) == f"{cls.__name__}({listed})"


@cases
def test_bad_field_lists_raise_type_error(cls, values, field, other):
    first = fields(cls)[0]
    for call in (
        lambda: cls(*values, values[0]),  # one value too many
        lambda: cls(*values, unknown=values[0]),
        lambda: cls(*values, **{first: values[0]}),  # by position and by keyword
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(TypeError, match=repr(fields(cls)[-1])):
        cls(*values[:-1])


def test_a_field_default_is_refused():
    # The field's property would replace the value, so a default would be lost silently.
    with pytest.raises(TypeError, match="Point.y: a record field takes no default"):

        class Point(Record):
            x: float
            y: float = 0.0


def test_run_config_defaults_are_fresh_per_config(monkeypatch):
    """build_config starts every field at its default, with a dict of its own per config."""
    monkeypatch.delenv("DISTRESS_LDA_CONFIG", raising=False)

    def build():
        return build_config(build_parser().parse_args(["evaluate"]))

    first, second = build(), build()
    assert first == second
    assert first.labels == {} and first.labels is not second.labels
    assert first.warning_years == {} and first.warning_years is not second.warning_years
    first.labels["Alpha"] = GroupLabel.BANKRUPT
    assert build().labels == {}


@cases
def test_pickle_and_copy_round_trip(cls, values, field, other):
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert astuple(twin) == values
        if cls is not DiscriminantModel:
            assert twin == record

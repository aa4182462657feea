"""Observations as the package reads them: scored through score_panel on the raw
scale, which leaves every finite ratio's bits, and Fisher-classified as a
training set through confusion_matrix. A row gives the leading ratios in
VARIABLES order and the rest are 0.0, which a model fitted on the leading
variables alone never reads.
"""
from distress_lda import (
    VARIABLES,
    BankYearRecord,
    ClassificationZones,
    LabeledSample,
    RatioVector,
    TrainingSet,
    score_panel,
)

RAW_ZONES = ClassificationZones(cutoff=0.0, grey=None, source="explicit-override")


def vector(row) -> RatioVector:
    """The ratio vector whose leading ratios are the row's values, the rest 0.0."""
    values = [float(v) for v in row]
    return RatioVector(*values, *[0.0] * (len(VARIABLES) - len(values)))


def raw_scores(model, rows) -> list[float]:
    """The model's score of each row, in order."""
    records = [BankYearRecord(f"B{k}", 2015, vector(row), True) for k, row in enumerate(rows)]
    return [entry["score"] for entry in score_panel(model, None, records, RAW_ZONES)]


def labelled(rows, labels) -> TrainingSet:
    """The rows as training samples with these labels, in order."""
    samples = (LabeledSample(f"B{k}", vector(row), label) for k, (row, label) in enumerate(zip(rows, labels)))
    return TrainingSet(tuple(samples))

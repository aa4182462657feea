"""Writing panels as CSV text, for tests that read them back."""
import csv
import io

from distress_lda import VARIABLES, BankYearRecord, GroupLabel


def serialize_panel(records: list[BankYearRecord], labels: dict[str, GroupLabel] | None = None) -> str:
    """Inverse of parse_panel (plus optional label column); round-trips exactly.

    Lines end in CRLF, the csv default, which also makes the writer quote a
    bank name holding a bare carriage return.
    """
    out = io.StringIO()
    columns = ["bank", "year", *VARIABLES] + (["label"] if labels is not None else [])
    writer = csv.writer(out)
    writer.writerow(columns)
    for rec in records:
        row = [rec.bank_id, str(rec.year)]
        row += [repr(getattr(rec.ratios, name)) for name in VARIABLES]
        if labels is not None:
            label = labels.get(rec.bank_id)
            row.append(label.name.lower() if label is not None else "")
        writer.writerow(row)
    return out.getvalue()

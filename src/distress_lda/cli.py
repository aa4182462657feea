"""Command-line interface: fit, diagnose, classify, evaluate.

Configuration precedence, lowest to highest: built-in defaults, the file
named by DISTRESS_LDA_CONFIG, the file named by --config, then explicit
flags. Config files are either JSON objects or key=value lines.

Exit codes: 0 success, 2 configuration problems, 3 unreadable/invalid input
data or model files, 4 fit degeneracies (singular covariance, coincident
group means), 5 evaluation problems such as unlabeled banks.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .classification import (
    ClassificationZones,
    ZoneLabel,
    classify_zone,
    confusion_matrix,
    derive_zones,
    evaluate_panel,
    report_to_dict,
    score_observation,
    zones_to_dict,
)
from .dataset import (
    BankYearRecord,
    GroupLabel,
    panel_labels,
    parse_panel,
    training_set_from_panel,
)
from .diagnostics import (
    box_m_from_model,
    box_verdict,
    canonical_summary,
    collinearity_check,
    wilks_test,
    wilks_verdict,
)
from .errors import (
    ConfigError,
    DegenerateSeparationError,
    DistressLdaError,
    DuplicateRecordError,
    EvaluationError,
    PanelError,
    ParseError,
    SchemaError,
    SingularMatrixError,
)
from .fixtures import load_published_zones
from .lda_fit import DiscriminantModel, fit
from .model_io import load_model, load_zones, loads_finite, model_to_dict, save_model
from .normalization import fit_normalizer, normalize_training_set

_GLYPH = {ZoneLabel.BANKRUPT: "▼", ZoneLabel.GREY: "■", ZoneLabel.NONBANKRUPT: "▲"}

_CONFIG_KEYS = (
    "train",
    "panel",
    "model",
    "zones",
    "mode",
    "format",
    "alpha",
    "collinearity_threshold",
    "window",
    "priors",
    "labels",
    "warning_years",
)


@dataclass(frozen=True)
class RunConfig:
    train: str | None
    panels: tuple[str, ...]
    model: str
    zones: str
    mode: str
    format: str
    alpha: float
    collinearity_threshold: float
    window: tuple[int, int]
    priors: str
    labels: dict[str, GroupLabel]
    warning_years: dict[str, int]


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window must be YYYY:YYYY, got {text!r}")
    try:
        first, last = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"window must be YYYY:YYYY, got {text!r}") from None
    if first > last:
        raise ConfigError(f"window is inverted: {first} > {last}")
    return first, last


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            doc = loads_finite(text)
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return doc
    doc = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config file {path} line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        doc[key.strip()] = value.strip()
    return doc


def _apply_config(values: dict, doc: dict, origin: str) -> None:
    for key, raw in doc.items():
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        if key == "panel":
            if isinstance(raw, str):
                values["panels"] = tuple(p.strip() for p in raw.split(",") if p.strip())
            elif isinstance(raw, list) and all(isinstance(p, str) for p in raw):
                values["panels"] = tuple(raw)
            else:
                raise ConfigError(f"{origin}: 'panel' must be a path list")
        elif key == "alpha" or key == "collinearity_threshold":
            try:
                values[key] = float(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{origin}: {key!r} must be a number") from None
        elif key == "window":
            values["window"] = parse_window(str(raw))
        elif key == "labels":
            if not isinstance(raw, dict):
                raise ConfigError(f"{origin}: 'labels' must be a bank -> label object")
            values["labels"] = dict(raw)
        elif key == "warning_years":
            if not isinstance(raw, dict):
                raise ConfigError(f"{origin}: 'warning_years' must be a bank -> year object")
            values["warning_years"] = dict(raw)
        else:
            values[key] = raw


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {
        "train": None,
        "panels": (),
        "model": "model.json",
        "zones": "derived",
        "mode": "raw",
        "format": "text",
        "alpha": 0.05,
        "collinearity_threshold": 0.8,
        "window": (2012, 2015),
        "priors": "proportional",
        "labels": {},
        "warning_years": {},
    }
    env_path = os.environ.get("DISTRESS_LDA_CONFIG")
    if env_path:
        _apply_config(values, _read_config_file(env_path), f"config file {env_path}")
    if args.config:
        _apply_config(values, _read_config_file(args.config), f"config file {args.config}")
    if args.train is not None:
        values["train"] = args.train
    if args.panel:
        values["panels"] = tuple(args.panel)
    for flag in ("model", "zones", "mode", "format", "alpha", "collinearity_threshold", "priors"):
        value = getattr(args, flag)
        if value is not None:
            values[flag] = value
    if args.window is not None:
        values["window"] = parse_window(args.window)

    if values["mode"] not in ("raw", "normalized"):
        raise ConfigError(f"mode must be 'raw' or 'normalized', got {values['mode']!r}")
    if values["format"] not in ("text", "json"):
        raise ConfigError(f"format must be 'text' or 'json', got {values['format']!r}")
    if values["priors"] not in ("proportional", "equal"):
        raise ConfigError(f"priors must be 'proportional' or 'equal', got {values['priors']!r}")
    if not 0.0 < values["alpha"] < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {values['alpha']}")
    if not 0.0 < values["collinearity_threshold"] < 1.0:
        raise ConfigError(
            f"collinearity threshold must lie in (0, 1), got {values['collinearity_threshold']}"
        )
    labels = {}
    for bank, raw in values["labels"].items():
        try:
            labels[bank] = GroupLabel.from_string(str(raw))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    warning_years = {}
    for bank, raw in values["warning_years"].items():
        try:
            warning_years[bank] = int(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"warning year for {bank!r} must be an integer") from None
    values["labels"] = labels
    values["warning_years"] = warning_years
    return RunConfig(**values)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None


def _load_panels(paths: tuple[str, ...], need_labels: bool, config_labels: dict) -> tuple[
    list[BankYearRecord], dict[str, GroupLabel]
]:
    records: list[BankYearRecord] = []
    labels: dict[str, GroupLabel] = {}
    seen: set[tuple[str, int]] = set()
    for path in paths:
        text = _read_text(path, "panel")
        for record in parse_panel(text):
            key = (record.bank_id, record.year)
            if key in seen:
                raise DuplicateRecordError(
                    f"duplicate record for bank {record.bank_id!r}, year {record.year} across panels"
                )
            seen.add(key)
            records.append(record)
        try:
            file_labels = panel_labels(text)
        except SchemaError:
            if need_labels and not config_labels:
                raise
            file_labels = {}
        for bank, label in file_labels.items():
            if bank in labels and labels[bank] is not label:
                raise ParseError(f"bank {bank!r} has conflicting labels across panels")
            labels[bank] = label
    labels.update(config_labels)
    return records, labels


def _resolve_zones(config: RunConfig, model: DiscriminantModel) -> ClassificationZones:
    if config.zones == "derived":
        return derive_zones(model)
    if config.zones == "paper":
        return load_published_zones()
    return load_zones(config.zones)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _score_cell(score: float, zone: ZoneLabel) -> str:
    return f"{_GLYPH[zone]} {100.0 * score:7.2f}%"


# ------------------------------------------------------------------ commands


def cmd_fit(config: RunConfig) -> int:
    if not config.train:
        raise ConfigError("fit requires a training panel (--train)")
    text = _read_text(config.train, "training")
    records = parse_panel(text)
    try:
        labels = panel_labels(text)
    except SchemaError:
        if not config.labels:
            raise
        labels = {}
    labels.update(config.labels)
    ts = training_set_from_panel(records, labels, config.window)
    stats = fit_normalizer(ts)
    tsZ = normalize_training_set(stats, ts)
    model = fit(tsZ, priors=config.priors)
    save_model(config.model, model, stats)
    zones = derive_zones(model)
    confusion = confusion_matrix(model, tsZ)

    if config.format == "json":
        _print_json(
            {
                "model_file": config.model,
                "model": model_to_dict(model, stats),
                "zones": zones_to_dict(zones),
                "training_classification": {
                    "counts": {
                        actual.name.lower(): {
                            pred.name.lower(): confusion.count(actual, pred) for pred in GroupLabel
                        }
                        for actual in GroupLabel
                    },
                    "correct_fraction": confusion.correct_fraction(),
                },
            }
        )
        return 0

    lines = [f"model written to {config.model}", ""]
    lines.append(f"{'variable':<10}{'mean':>12}{'sd':>12}{'coefficient':>14}{'standardized':>14}")
    for name in model.variables:
        lines.append(
            f"{name:<10}{stats.mean[name]:>12.5f}{stats.sd[name]:>12.5f}"
            f"{model.coefficients[name]:>14.4f}{model.standardized[name]:>14.4f}"
        )
    lines.append(f"{'constant':<10}{'':>12}{'':>12}{model.constant:>14.4f}")
    lines.append("")
    lines.append(
        f"centroids: bankrupt {model.y0:.4f} (sd {model.s0:.4f}), "
        f"nonbankrupt {model.y1:.4f} (sd {model.s1:.4f})"
    )
    lines.append(
        f"eigenvalue {model.eigenvalue:.4f}   canonical correlation "
        f"{model.canonical_correlation:.4f}   wilks lambda {model.wilks_lambda:.4f}"
    )
    grey = zones.grey
    grey_text = f"[{grey[0]:.4f}, {grey[1]:.4f}]" if grey else "none (cut-off only)"
    lines.append(f"cut-off {zones.cutoff:.6f}   grey zone {grey_text}")
    lines.append("")
    lines.append(f"fisher classification functions ({config.priors} priors):")
    lines.append(f"{'variable':<10}{'bankrupt':>14}{'nonbankrupt':>14}")
    for name in model.variables:
        lines.append(
            f"{name:<10}{model.fisher.weights['bankrupt'][name]:>14.4f}"
            f"{model.fisher.weights['nonbankrupt'][name]:>14.4f}"
        )
    lines.append(
        f"{'constant':<10}{model.fisher.constants['bankrupt']:>14.4f}"
        f"{model.fisher.constants['nonbankrupt']:>14.4f}"
    )
    lines.append("")
    correct = sum(confusion.count(g, g) for g in GroupLabel)
    lines.append(
        f"training classification: {correct}/{confusion.total()} correct "
        f"({100.0 * confusion.correct_fraction():.1f}%)"
    )
    print("\n".join(lines))
    return 0


def cmd_diagnose(config: RunConfig) -> int:
    model, _stats = load_model(config.model)
    report = collinearity_check(
        model.pooled_correlation, config.collinearity_threshold, model.variables
    )
    wilks = wilks_test(model)
    box = box_m_from_model(model)
    canon = canonical_summary(model)

    if config.format == "json":
        _print_json(
            {
                "collinearity": {
                    "threshold": config.collinearity_threshold,
                    "matrix": [list(row) for row in model.pooled_correlation],
                    "flagged": [
                        {"pair": [a, b], "r": r} for a, b, r in report.flagged_pairs
                    ],
                },
                "wilks": {
                    "lambda": wilks.wilks_lambda,
                    "chi_square": wilks.chi_square,
                    "df": wilks.df,
                    "p_value": wilks.p_value,
                    "verdict": wilks_verdict(wilks, config.alpha),
                },
                "box_m": {
                    "m": box.m,
                    "f": box.f_approx,
                    "df1": box.df1,
                    "df2": box.df2,
                    "p_value": box.p_value,
                    "branch": box.branch,
                    "verdict": box_verdict(box, config.alpha),
                },
                "canonical": canon,
                "alpha": config.alpha,
            }
        )
        return 0

    lines = ["pooled within-group correlations:"]
    header = "          " + "".join(f"{name:>8}" for name in model.variables)
    lines.append(header)
    for name, row in zip(model.variables, model.pooled_correlation):
        lines.append(f"{name:<10}" + "".join(f"{value:>8.3f}" for value in row))
    if report.flagged_pairs:
        flagged = ", ".join(f"{a}/{b} r={r:.3f}" for a, b, r in report.flagged_pairs)
        lines.append(f"collinear pairs (|r| > {config.collinearity_threshold:g}): {flagged}")
    else:
        lines.append(f"no pair exceeds |r| = {config.collinearity_threshold:g}")
    lines.append("")
    lines.append(
        f"wilks lambda {wilks.wilks_lambda:.3f}   chi-square {wilks.chi_square:.3f}   "
        f"df {wilks.df}   sig {wilks.p_value:.3f}"
    )
    lines.append(f"  -> {wilks_verdict(wilks, config.alpha)} (alpha = {config.alpha:g})")
    lines.append(
        f"box's m {box.m:.3f}   f {box.f_approx:.3f}   df1 {box.df1:g}   "
        f"df2 {box.df2:.3f}   sig {box.p_value:.3f}"
    )
    lines.append(f"  -> {box_verdict(box, config.alpha)} (alpha = {config.alpha:g})")
    lines.append("")
    lines.append(
        f"eigenvalue {canon['eigenvalue']:.3f}   % of variance {canon['percent_variance']:.1f}   "
        f"canonical correlation {canon['canonical_correlation']:.3f}   "
        f"r-squared {canon['r_squared']:.3f}"
    )
    print("\n".join(lines))
    return 0


def cmd_classify(config: RunConfig) -> int:
    model, stats = load_model(config.model)
    if not config.panels:
        raise ConfigError("classify requires at least one panel (--panel)")
    records, _labels = _load_panels(config.panels, need_labels=False, config_labels={})
    zones = _resolve_zones(config, model)

    rows = []
    for record in sorted(records, key=lambda r: (r.bank_id, r.year)):
        if not record.available:
            rows.append((record.bank_id, record.year, None, None))
            continue
        s = score_observation(model, stats, record, config.mode)
        rows.append((record.bank_id, record.year, s, classify_zone(s, zones)))

    if config.format == "json":
        _print_json(
            {
                "mode": config.mode,
                "zones": zones_to_dict(zones),
                "records": [
                    {"bank": bank, "year": year, "score": s, "zone": zone.value}
                    for bank, year, s, zone in rows
                    if s is not None
                ],
            }
        )
        return 0

    width = max((len(bank) for bank, *_ in rows), default=4)
    lines = [_zones_line(zones, config.mode)]
    for bank, year, s, zone in rows:
        cell = _score_cell(s, zone) if s is not None else "      n.a"
        lines.append(f"{bank:<{width}}  {year}  {cell}")
    print("\n".join(lines))
    return 0


def _zones_line(zones: ClassificationZones, mode: str) -> str:
    grey = zones.grey
    grey_text = f"grey [{grey[0]:.6f}, {grey[1]:.6f}]" if grey else "no grey zone"
    return f"zones: cut-off {zones.cutoff:.6f}, {grey_text} ({zones.source}); mode: {mode}"


def cmd_evaluate(config: RunConfig) -> int:
    model, stats = load_model(config.model)
    if not config.panels:
        raise ConfigError("evaluate requires at least one panel (--panel)")
    records, labels = _load_panels(config.panels, need_labels=True, config_labels=config.labels)
    zones = _resolve_zones(config, model)
    report = evaluate_panel(
        model, stats, records, labels, zones, config.mode, config.warning_years or None
    )

    if config.format == "json":
        _print_json(report_to_dict(report))
        return 0

    lines = [_zones_line(zones, config.mode), ""]
    lines.append("with grey zone:")
    lines.append(
        f"{'year':>6}{'bankrupt':>10}{'grey':>6}{'healthy':>9}{'hits':>6}{'total':>7}"
        f"{'accuracy':>10}{'type I':>8}{'type II':>9}"
    )
    for row in report.years:
        lines.append(
            f"{row.year:>6}{row.bankrupt_count:>10}{row.grey_count:>6}{row.nonbankrupt_count:>9}"
            f"{row.hits:>6}{row.total:>7}{100.0 * row.accuracy:>9.1f}%"
            f"{100.0 * row.type1_rate:>7.1f}%{100.0 * row.type2_rate:>8.1f}%"
        )
    lines.append("")
    lines.append("cut-off only:")
    lines.append(
        f"{'year':>6}{'bankrupt':>10}{'healthy':>9}{'hits':>6}{'total':>7}"
        f"{'accuracy':>10}{'type I':>8}{'type II':>9}"
    )
    for row in report.cutoff_only:
        lines.append(
            f"{row.year:>6}{row.bankrupt_count:>10}{row.nonbankrupt_count:>9}"
            f"{row.hits:>6}{row.total:>7}{100.0 * row.accuracy:>9.1f}%"
            f"{100.0 * row.type1_rate:>7.1f}%{100.0 * row.type2_rate:>8.1f}%"
        )
    lines.append("")
    lines.append("per-bank scores (with grey zone):")
    for row in report.years:
        lines.append(f"{row.year}:")
        for bank in row.banks:
            lines.append(f"  {_score_cell(bank.score, bank.zone)}  {bank.bank}")
    for notice in report.notices:
        lines.append(f"note: {notice}")
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "diagnose": cmd_diagnose,
    "classify": cmd_classify,
    "evaluate": cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distress-lda",
        description="Two-group linear discriminant toolkit for bank-distress early warning.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    helps = {
        "fit": "fit a discriminant model from a labeled training panel",
        "diagnose": "run the diagnostic battery on a fitted model",
        "classify": "score panel observations and assign zones",
        "evaluate": "yearly hit/miss evaluation of labeled panels",
    }
    for name, help_text in helps.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--train", metavar="FILE", help="training panel CSV")
        sub.add_argument(
            "--panel", metavar="FILE", action="append", help="panel CSV (repeatable)"
        )
        sub.add_argument(
            "--model", metavar="FILE", help="model file (written by fit, read elsewhere)"
        )
        sub.add_argument(
            "--zones", metavar="SRC", help="'derived', 'paper', or a zones JSON file"
        )
        sub.add_argument("--mode", choices=("raw", "normalized"), help="scoring mode")
        sub.add_argument("--format", choices=("text", "json"), help="report format")
        sub.add_argument("--alpha", type=float, help="significance level (default 0.05)")
        sub.add_argument(
            "--collinearity-threshold",
            type=float,
            dest="collinearity_threshold",
            help="|r| flag threshold (default 0.8)",
        )
        sub.add_argument("--window", metavar="YYYY:YYYY", help="averaging window for fit")
        sub.add_argument(
            "--priors", choices=("proportional", "equal"), help="fisher priors for fit"
        )
        sub.add_argument("--config", metavar="FILE", help="config file (JSON or key=value)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        return _fail(exc, 2)
    except (SingularMatrixError, DegenerateSeparationError) as exc:
        return _fail(exc, 4)
    except PanelError as exc:
        return _fail(exc, 3)
    except EvaluationError as exc:
        return _fail(exc, 5)
    except DistressLdaError as exc:
        return _fail(exc, 1)


def _fail(exc: DistressLdaError, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: fit, diagnose, classify, evaluate.

Configuration precedence, lowest to highest: built-in defaults, the file
named by DISTRESS_LDA_CONFIG, the file named by --config, then explicit
flags. Config files are either JSON objects or key=value lines. _SETTINGS
declares each setting once: its default, its one parser, which every value
passes whatever its source, its flag's subcommands and its help.

Exit codes: 0 success, 2 configuration problems, 3 unreadable/invalid input
data or model files, 4 fit degeneracies (singular covariance, coincident
group means), 5 evaluation problems such as unlabeled banks.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from operator import itemgetter

from .classification import (
    confusion_matrix,
    derive_zones,
    evaluate_panel,
    report_to_dict,
    score_panel,
    zones_to_dict,
)
from .dataset import (
    WINDOW_DEFAULT, GroupLabel, load_panels, parse_number, parse_year, read_text, training_set_from_panel
)
from .diagnostics import (
    ALPHA_DEFAULT,
    COLLINEARITY_THRESHOLD_DEFAULT,
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
    EvaluationError,
    PanelError,
    SingularMatrixError,
)
from .fixtures import load_published_zones
from .lda_fit import PRIORS, fit
from .model_io import json_text, load_model, load_zones, model_to_dict, parse_json, save_model
from .normalization import fit_normalizer, normalize_training_set
from .record import Record

_GLYPH = {"bankrupt": "▼", "grey": "■", "nonbankrupt": "▲"}


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window must be YYYY:YYYY, got {text!r}")
    try:
        first, last = parse_year(parts[0]), parse_year(parts[1])
    except ValueError:
        raise ConfigError(f"window must be YYYY:YYYY, got {text!r}") from None
    if first > last:
        raise ConfigError(f"window is inverted: {first} > {last}")
    return first, last


# Setting parsers: (key, flag text, key=value text or any JSON value) -> typed value.


def _text(key: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key!r} must be a non-empty string, got {value!r}")
    return value


def _paths(key: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(path, str) for path in value):
        raise ConfigError(f"{key!r} must be a path list")
    return tuple(value)


def _choice(allowed: tuple[str, str], key: str, value) -> str:
    if value not in allowed:
        raise ConfigError(f"{key} must be {allowed[0]!r} or {allowed[1]!r}, got {value!r}")
    return value


def _fraction(key: str, value) -> float:
    try:  # a JSON value by its text, so true and false are no numbers (float(True) is 1.0)
        number = parse_number(str(value))
    except ValueError:
        raise ConfigError(f"{key!r} must be a number") from None
    if not 0.0 < number < 1.0:
        raise ConfigError(f"{key.replace('_', ' ')} must lie in (0, 1), got {number}")
    return number


def _year(text: str) -> int:
    try:
        return parse_year(text)
    except ValueError:
        raise ConfigError(f"warning year must be an integer, got {text}") from None


def _bank_map(parse_entry, what: str, key: str, value) -> dict:
    # Entries are parsed as text, so a JSON year 2015 reads as "2015".
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a bank -> {what} object")
    return {bank: parse_entry(str(raw)) for bank, raw in value.items()}


def _read_config_file(path: str) -> list[tuple[str, object]]:
    """The (key, value) pairs of a config file, in file order, repeats kept."""
    text = read_text(path, "config", ConfigError)
    if text.lstrip().startswith("{"):  # JSON that starts with { is an object or no JSON at all
        return list(parse_json(text, "config", path, ConfigError).items())
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config file {path} line {lineno}: expected key=value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key == "panel":  # the one list setting, written comma-separated
            value = [panel.strip() for panel in value.split(",") if panel.strip()]
        pairs.append((key, value))
    return pairs


def build_config(args: argparse.Namespace) -> RunConfig:
    paths = [path for path in (os.environ.get("DISTRESS_LDA_CONFIG"), args.config) if path]
    sources = [(f"config file {path}", _read_config_file(path)) for path in paths]
    flags = {key: raw for key, raw in vars(args).items() if key in _SETTINGS and raw is not None}
    sources += [(f"argument --{key.replace('_', '-')}", [(key, raw)]) for key, raw in flags.items()]
    # Every field starts at its default; each config gets its own copy of a dict default.
    defaults = ((key, row[0]) for key, row in _SETTINGS.items())
    values = {key: dict(value) if isinstance(value, dict) else value for key, value in defaults}
    for origin, pairs in sources:
        seen = set()  # a later source overrides an earlier one, but no source sets a key twice
        for key, raw in pairs:
            key = key.replace("-", "_")
            if key not in _SETTINGS:
                raise ConfigError(f"{origin}: unknown config key {key!r}")
            if key in seen:
                raise ConfigError(f"{origin}: config key {key!r} is set twice")
            seen.add(key)
            try:
                values[key] = _SETTINGS[key][1](key, raw)
            except (ConfigError, ValueError) as exc:  # ValueError: unknown label, huge year
                raise ConfigError(f"{origin}: {exc}") from None
    config = RunConfig(**values)
    if args.command == "fit" and config.train:  # fit, the one command that writes, keeps its inputs
        for what, path in [("training panel", config.train)] + [("config file", p) for p in paths]:
            try:
                same = os.path.samefile(path, config.model)
            except OSError:  # either file missing: the model cannot replace the input
                same = False
            if same:
                raise ConfigError(f"fit would overwrite its {what} {path} with the model")
    return config


def _panel_inputs(config: RunConfig, command: str, config_labels: dict | None) -> tuple:
    """Model, normalization, records, labels and zones of a panel-scoring command."""
    if not config.panel:
        raise ConfigError(f"{command} requires at least one panel (--panel)")
    model, stats = load_model(config.model)
    records, labels = load_panels(config.panel, "panel", config_labels)
    if config.zones == "derived":
        zones = derive_zones(model)
    elif config.zones == "paper":
        zones = load_published_zones()
    else:
        zones = load_zones(config.zones)
    return model, stats, records, labels, zones


# ------------------------------------------------------------------ commands
#
# Each command returns its JSON document plus the context its text renderer
# needs beyond that document; main prints one or the other.


def cmd_fit(config: RunConfig) -> tuple[dict, str]:
    if not config.train:
        raise ConfigError("fit requires a training panel (--train)")
    records, labels = load_panels((config.train,), "training", config.labels)
    ts = training_set_from_panel(records, labels, config.window)
    stats = fit_normalizer(ts)
    tsZ = normalize_training_set(stats, ts)
    model = fit(tsZ, priors=config.priors)
    save_model(config.model, model, stats)
    confusion = confusion_matrix(model, tsZ)
    doc = {
        "model_file": config.model,
        "model": model_to_dict(model, stats),
        "zones": zones_to_dict(derive_zones(model)),
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
    # The priors name is context: stored priors of 0.5/0.5 cannot tell "equal"
    # from "proportional" on balanced groups.
    return doc, config.priors


def cmd_diagnose(config: RunConfig) -> tuple[dict, tuple[str, ...]]:
    model, _stats = load_model(config.model)
    report = collinearity_check(
        model.pooled_correlation, config.collinearity_threshold, model.variables
    )
    wilks = wilks_test(model)
    box = box_m_from_model(model)
    doc = {
        "collinearity": {
            "threshold": config.collinearity_threshold,
            "matrix": [list(row) for row in model.pooled_correlation],
            "flagged": [{"pair": [a, b], "r": r} for a, b, r in report.flagged_pairs],
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
            "f": box.f_approx if math.isfinite(box.f_approx) else None,  # null past the approximation's range
            "df1": box.df1,
            "df2": box.df2,
            "p_value": box.p_value,
            "branch": box.branch,
            "verdict": box_verdict(box, config.alpha),
        },
        "canonical": canonical_summary(model.eigenvalue),
        "alpha": config.alpha,
    }
    return doc, model.variables


def cmd_classify(config: RunConfig) -> tuple[dict, list[tuple[str, int]]]:
    model, stats, records, _labels, zones = _panel_inputs(config, "classify", None)
    ordered = sorted(records, key=itemgetter(0, 1))  # by bank, then year
    scored = score_panel(model, stats, ordered, zones)  # refuses a score that is not finite
    # Text prints the unavailable bank-years as n.a; JSON leaves them out.
    unavailable = [(r.bank_id, r.year) for r in ordered if not r.available]
    doc = {"mode": zones.scale, "zones": zones_to_dict(zones), "records": scored}
    return doc, unavailable


def cmd_evaluate(config: RunConfig) -> tuple[dict, None]:
    model, stats, records, labels, zones = _panel_inputs(config, "evaluate", config.labels)
    report = evaluate_panel(
        model, stats, records, labels, zones, warning_years=config.warning_years or None
    )
    return report_to_dict(report), None


# ----------------------------------------------------------------- renderers


def _score_cell(score: float, zone: str) -> str:
    return f"{_GLYPH[zone]} {100.0 * score:7.2f}%"


def _zones_line(doc: dict) -> str:
    zones = doc["zones"]
    grey = zones["grey"]
    grey_text = f"grey [{grey[0]:.6f}, {grey[1]:.6f}]" if grey else "no grey zone"
    return (
        f"zones: cut-off {zones['cutoff']:.6f}, {grey_text} ({zones['source']}); mode: {doc['mode']}"
    )


def render_fit(doc: dict, priors: str) -> str:
    model = doc["model"]
    norm = model["normalization"]
    lines = [f"model written to {doc['model_file']}", ""]
    lines.append(f"{'variable':<10}{'mean':>12}{'sd':>12}{'coefficient':>14}{'standardized':>14}")
    for name in model["variables"]:
        lines.append(
            f"{name:<10}{norm['means'][name]:>12.5f}{norm['sds'][name]:>12.5f}"
            f"{model['coefficients'][name]:>14.4f}{model['standardized'][name]:>14.4f}"
        )
    lines.append(f"{'constant':<10}{'':>12}{'':>12}{model['constant']:>14.4f}")
    lines.append("")
    centroids, sd = model["centroids"], model["score_sd"]
    lines.append(
        f"centroids: bankrupt {centroids['bankrupt']:.4f} (sd {sd['bankrupt']:.4f}), "
        f"nonbankrupt {centroids['nonbankrupt']:.4f} (sd {sd['nonbankrupt']:.4f})"
    )
    lines.append(
        f"eigenvalue {model['eigenvalue']:.4f}   canonical correlation "
        f"{model['canonical_correlation']:.4f}   wilks lambda {model['wilks_lambda']:.4f}"
    )
    grey = doc["zones"]["grey"]
    grey_text = f"[{grey[0]:.4f}, {grey[1]:.4f}]" if grey else "none (cut-off only)"
    lines.append(f"cut-off {doc['zones']['cutoff']:.6f}   grey zone {grey_text}")
    lines.append("")
    weights, constants = model["fisher"]["weights"], model["fisher"]["constants"]
    lines.append(f"fisher classification functions ({priors} priors):")
    lines.append(f"{'variable':<10}{'bankrupt':>14}{'nonbankrupt':>14}")
    for name in model["variables"]:
        lines.append(
            f"{name:<10}{weights['bankrupt'][name]:>14.4f}{weights['nonbankrupt'][name]:>14.4f}"
        )
    lines.append(f"{'constant':<10}{constants['bankrupt']:>14.4f}{constants['nonbankrupt']:>14.4f}")
    lines.append("")
    training = doc["training_classification"]
    counts = training["counts"]
    correct = sum(counts[group][group] for group in counts)
    total = sum(sum(row.values()) for row in counts.values())
    lines.append(
        f"training classification: {correct}/{total} correct "
        f"({100.0 * training['correct_fraction']:.1f}%)"
    )
    return "\n".join(lines)


def render_diagnose(doc: dict, variables: tuple[str, ...]) -> str:
    collinearity, wilks = doc["collinearity"], doc["wilks"]
    box, canon = doc["box_m"], doc["canonical"]
    lines = ["pooled within-group correlations:"]
    lines.append("          " + "".join(f"{name:>8}" for name in variables))
    for name, row in zip(variables, collinearity["matrix"]):
        lines.append(f"{name:<10}" + "".join(f"{value:>8.3f}" for value in row))
    threshold = collinearity["threshold"]
    if collinearity["flagged"]:
        flagged = ", ".join(
            f"{entry['pair'][0]}/{entry['pair'][1]} r={entry['r']:.3f}"
            for entry in collinearity["flagged"]
        )
        lines.append(f"collinear pairs (|r| > {threshold:g}): {flagged}")
    else:
        lines.append(f"no pair exceeds |r| = {threshold:g}")
    lines.append("")
    lines.append(
        f"wilks lambda {wilks['lambda']:.3f}   chi-square {wilks['chi_square']:.3f}   "
        f"df {wilks['df']}   sig {wilks['p_value']:.3f}"
    )
    lines.append(f"  -> {wilks['verdict']} (alpha = {doc['alpha']:g})")
    f_text = "inf" if box["f"] is None else f"{box['f']:.3f}"  # JSON null: an F past the approximation's range
    lines.append(
        f"box's m {box['m']:.3f}   f {f_text}   df1 {box['df1']:g}   "
        f"df2 {box['df2']:.3f}   sig {box['p_value']:.3f}"
    )
    lines.append(f"  -> {box['verdict']} (alpha = {doc['alpha']:g})")
    lines.append("")
    lines.append(
        f"eigenvalue {canon['eigenvalue']:.3f}   % of variance {canon['percent_variance']:.1f}   "
        f"canonical correlation {canon['canonical_correlation']:.3f}   "
        f"r-squared {canon['r_squared']:.3f}"
    )
    return "\n".join(lines)


def render_classify(doc: dict, unavailable: list[tuple[str, int]]) -> str:
    rows = [(r["bank"], r["year"], _score_cell(r["score"], r["zone"])) for r in doc["records"]]
    rows += [(bank, year, "      n.a") for bank, year in unavailable]
    rows.sort(key=lambda row: row[:2])
    width = max((len(bank) for bank, *_ in rows), default=4)
    lines = [_zones_line(doc)]
    lines += [f"{bank:<{width}}  {year}  {cell}" for bank, year, cell in rows]
    return "\n".join(lines)


def _year_table(rows: list[dict], with_grey: bool) -> list[str]:
    grey_head = f"{'grey':>6}" if with_grey else ""
    lines = [
        f"{'year':>6}{'bankrupt':>10}{grey_head}{'healthy':>9}{'hits':>6}{'total':>7}"
        f"{'accuracy':>10}{'type I':>8}{'type II':>9}"
    ]
    for row in rows:
        counts = row["counts"]
        grey = f"{counts['grey']:>6}" if with_grey else ""
        lines.append(
            f"{row['year']:>6}{counts['bankrupt']:>10}{grey}{counts['nonbankrupt']:>9}"
            f"{row['hits']:>6}{row['total']:>7}{100.0 * row['accuracy']:>9.1f}%"
            f"{100.0 * row['type1']:>7.1f}%{100.0 * row['type2']:>8.1f}%"
        )
    return lines


def render_evaluate(doc: dict, _context: None) -> str:
    lines = [_zones_line(doc), "", "with grey zone:"]
    lines += _year_table(doc["years"], with_grey=True)
    lines += ["", "cut-off only:"]
    lines += _year_table(doc["cutoff_only"], with_grey=False)
    lines += ["", "per-bank scores (with grey zone):"]
    for row in doc["years"]:
        lines.append(f"{row['year']}:")
        lines += [f"  {_score_cell(b['score'], b['zone'])}  {b['bank']}" for b in row["banks"]]
    lines += [f"note: {notice}" for notice in doc["notices"]]
    return "\n".join(lines)


_COMMANDS = {
    "fit": (cmd_fit, render_fit, "fit a discriminant model from a labeled training panel"),
    "diagnose": (cmd_diagnose, render_diagnose, "run the diagnostic battery on a fitted model"),
    "classify": (cmd_classify, render_classify, "score panel observations and assign zones"),
    "evaluate": (cmd_evaluate, render_evaluate, "yearly hit/miss evaluation of labeled panels"),
}

# First match wins, so subclasses come before the classes they refine.
_EXIT_CODES = (
    (ConfigError, 2),
    ((SingularMatrixError, DegenerateSeparationError), 4),
    (PanelError, 3),
    (EvaluationError, 5),
    (DistressLdaError, 1),
)

_PANEL_COMMANDS = ("classify", "evaluate")

# One row per setting, in RunConfig's field order: its default, its parser, the
# subcommands taking it as a flag, and the flag's help, where {default} is the
# row's default. Config files may set any key, as one file serves all commands.
_SETTINGS = {
    "train": (None, _text, ("fit",), "training panel CSV"),
    "panel": ((), _paths, _PANEL_COMMANDS, "panel CSV (repeatable)"),
    "model": ("model.json", _text, tuple(_COMMANDS), "model file (written by fit, read elsewhere)"),
    "zones": ("derived", _text, _PANEL_COMMANDS, "'derived', 'paper', or a zones JSON file"),
    "format": ("text", partial(_choice, ("text", "json")), tuple(_COMMANDS), "text|json"),
    "alpha": (ALPHA_DEFAULT, _fraction, ("diagnose",), "significance level (default {default:g})"),
    "collinearity_threshold": (
        COLLINEARITY_THRESHOLD_DEFAULT, _fraction, ("diagnose",), "|r| flag threshold (default {default:g})"
    ),
    "window": (WINDOW_DEFAULT, lambda _key, value: parse_window(str(value)), ("fit",), "averaging YYYY:YYYY"),
    "priors": (PRIORS[0], partial(_choice, PRIORS), ("fit",), "|".join(PRIORS) + " priors"),
    "labels": ({}, partial(_bank_map, GroupLabel.from_string, "label"), (), None),
    "warning_years": ({}, partial(_bank_map, _year, "year"), (), None),
}


class RunConfig(Record):  # the settings of one run: a field per row of _SETTINGS, in its order
    __annotations__ = dict.fromkeys(_SETTINGS)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, like every other error;
    add_subparsers makes each subcommand parser of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distress-lda",
        description="Two-group linear discriminant toolkit for bank-distress early warning.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_command, _render, help_text) in _COMMANDS.items():
        # No abbreviations: --mode, an unknown flag, would read as --model.
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        for key, (default, _parse, commands, flag_help) in _SETTINGS.items():
            if name in commands:
                action = "append" if key == "panel" else "store"
                flag_help = flag_help.format(default=default)
                sub.add_argument(f"--{key.replace('_', '-')}", action=action, help=flag_help)
        sub.add_argument("--config", metavar="FILE", help="config file (JSON or key=value)")
    return parser


def _write_stdout(text: str) -> None:
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    # Under PYTHONUNBUFFERED the buffer is a raw file whose write may take only
    # part of the data; write the rest until a reader that hung up raises.
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    sys.stdout.flush()
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, render, _help = _COMMANDS[args.command]
    try:
        config = build_config(args)
        doc, context = command(config)
    except DistressLdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    text = json_text(doc) if config.format == "json" else render(doc, context) + "\n"
    try:
        _write_stdout(text)
    except BrokenPipeError:
        # The reader hung up (`| head -1`). Point stdout at devnull so the
        # interpreter's final flush cannot raise again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnicodeEncodeError:  # raised before any byte is written
        print(
            f"error: stdout encoding {sys.stdout.encoding!r} cannot encode the report;"
            " use --format json or a UTF-8 stdout (PYTHONIOENCODING=utf-8)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

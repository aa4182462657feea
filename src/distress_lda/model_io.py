"""Model and zone files: JSON documents with load-time validation.

json_text is the one layout of JSON output (model and zones files, `--format
json`), write_json the one file writer and parse_json the one reader of model,
zones and JSON config files.

The loader checks structure and ranges, then the two identities that tie the
stored separation statistics to the eigenvalue: wilks = 1/(1 + eigenvalue)
and canonical correlation = sqrt(eigenvalue/(1 + eigenvalue)). Stored models
round their statistics, so the identities are checked within 1e-5, which the
bundled reference model (off by 2.3e-7 on both) passes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .classification import ClassificationZones, zones_to_dict
from .dataset import VARIABLES, read_text
from .diagnostics import check_correlation_matrix
from .errors import DistressLdaError, DomainError, ModelFileError
from .lda_fit import GROUP_KEYS, DiscriminantModel, FisherFunctions
from .normalization import NormalizationStats

_IDENTITY_TOLERANCE = 1e-5


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _number(doc: dict, key: str, context: str) -> float:
    value = doc.get(key)
    if not _is_finite_number(value):
        raise ModelFileError(f"{context}: {key!r} must be a finite number, got {value!r}")
    return float(value)


def _group_numbers(doc: dict, key: str, context: str) -> dict[str, float]:
    block = doc.get(key)
    if not isinstance(block, dict) or set(block) != set(GROUP_KEYS):
        raise ModelFileError(f"{context}: {key!r} must map exactly {GROUP_KEYS}")
    return {group: _number(block, group, f"{context}.{key}") for group in GROUP_KEYS}


def _variable_map(doc: dict, key: str, variables: tuple[str, ...], context: str) -> dict[str, float]:
    block = doc.get(key)
    if not isinstance(block, dict) or set(block) != set(variables):
        raise ModelFileError(f"{context}: {key!r} must map exactly the model variables")
    return {name: _number(block, name, f"{context}.{key}") for name in variables}


def model_to_dict(model: DiscriminantModel, stats: NormalizationStats) -> dict:
    """Serializable document holding the model plus its normalization."""
    return {
        "variables": list(model.variables),
        "coefficients": dict(model.coefficients),
        "constant": model.constant,
        "standardized": dict(model.standardized),
        "centroids": {"bankrupt": model.y0, "nonbankrupt": model.y1},
        "score_sd": {"bankrupt": model.s0, "nonbankrupt": model.s1},
        "group_sizes": {"bankrupt": model.n0, "nonbankrupt": model.n1},
        "eigenvalue": model.eigenvalue,
        "canonical_correlation": model.canonical_correlation,
        "wilks_lambda": model.wilks_lambda,
        "fisher": {
            "priors": dict(model.fisher.priors),
            "weights": {g: dict(w) for g, w in model.fisher.weights.items()},
            "constants": dict(model.fisher.constants),
        },
        "pooled_correlation": [list(row) for row in model.pooled_correlation],
        "normalization": {"means": dict(stats.mean), "sds": dict(stats.sd)},
    }


def model_from_dict(doc: dict) -> tuple[DiscriminantModel, NormalizationStats]:
    """Validate and rebuild a model document; raises on structural problems."""
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    context = "model"
    variables = doc.get("variables")
    if (
        not isinstance(variables, list)
        or not all(isinstance(v, str) for v in variables)
        or sorted(variables) != sorted(VARIABLES)
    ):
        raise ModelFileError(
            f"{context}: 'variables' must list the distinct ratio names {', '.join(VARIABLES)}"
        )
    variables = tuple(variables)

    coefficients = _variable_map(doc, "coefficients", variables, context)
    standardized = _variable_map(doc, "standardized", variables, context)
    constant = _number(doc, "constant", context)
    centroids = _group_numbers(doc, "centroids", context)
    score_sd = _group_numbers(doc, "score_sd", context)
    group_sizes = _group_numbers(doc, "group_sizes", context)

    if centroids["nonbankrupt"] <= centroids["bankrupt"]:
        raise ModelFileError(f"{context}: non-bankrupt centroid must exceed the bankrupt one")
    for group in GROUP_KEYS:
        if score_sd[group] < 0:
            raise ModelFileError(f"{context}: score_sd.{group} must be non-negative")
        size = group_sizes[group]
        if size != int(size) or size < 2:
            raise ModelFileError(f"{context}: group_sizes.{group} must be an integer >= 2")

    eigenvalue = _number(doc, "eigenvalue", context)
    canonical = _number(doc, "canonical_correlation", context)
    wilks = _number(doc, "wilks_lambda", context)
    if eigenvalue < 0:
        raise ModelFileError(f"{context}: eigenvalue must be non-negative")
    if not 0.0 <= canonical < 1.0:
        raise ModelFileError(f"{context}: canonical_correlation must lie in [0, 1)")
    if not 0.0 < wilks <= 1.0:
        raise ModelFileError(f"{context}: wilks_lambda must lie in (0, 1]")
    if abs(wilks - 1.0 / (1.0 + eigenvalue)) > _IDENTITY_TOLERANCE:
        raise ModelFileError(f"{context}: wilks_lambda disagrees with 1/(1 + eigenvalue)")
    if abs(canonical - math.sqrt(eigenvalue / (1.0 + eigenvalue))) > _IDENTITY_TOLERANCE:
        raise ModelFileError(
            f"{context}: canonical_correlation disagrees with sqrt(eigenvalue/(1 + eigenvalue))"
        )

    fisher_doc = doc.get("fisher")
    if not isinstance(fisher_doc, dict):
        raise ModelFileError(f"{context}: 'fisher' block missing")
    priors = _group_numbers(fisher_doc, "priors", f"{context}.fisher")
    if any(pi <= 0 for pi in priors.values()) or abs(sum(priors.values()) - 1.0) > 1e-6:
        raise ModelFileError(f"{context}: fisher priors must be positive and sum to 1")
    weights_doc = fisher_doc.get("weights")
    if not isinstance(weights_doc, dict) or set(weights_doc) != set(GROUP_KEYS):
        raise ModelFileError(f"{context}: fisher weights must map exactly {GROUP_KEYS}")
    weights = {
        group: _variable_map(weights_doc, group, variables, f"{context}.fisher.weights")
        for group in GROUP_KEYS
    }
    constants = _group_numbers(fisher_doc, "constants", f"{context}.fisher")

    corr_doc = doc.get("pooled_correlation")
    p = len(variables)
    if (
        not isinstance(corr_doc, list)
        or len(corr_doc) != p
        or any(not isinstance(row, list) or len(row) != p for row in corr_doc)
    ):
        raise ModelFileError(f"{context}: pooled_correlation must be a {p}x{p} matrix")
    correlation = []
    for row in corr_doc:
        if not all(map(_is_finite_number, row)):
            raise ModelFileError(f"{context}: pooled_correlation entries must be finite numbers")
        correlation.append(tuple(float(v) for v in row))
    try:
        check_correlation_matrix(correlation, p)
    except DomainError as exc:
        raise ModelFileError(f"{context}: pooled_correlation: {exc}") from None

    norm_doc = doc.get("normalization")
    if not isinstance(norm_doc, dict):
        raise ModelFileError(f"{context}: 'normalization' block missing")
    means = _variable_map(norm_doc, "means", variables, f"{context}.normalization")
    sds = _variable_map(norm_doc, "sds", variables, f"{context}.normalization")
    try:
        stats = NormalizationStats(mean=means, sd=sds)
    except ValueError as exc:
        raise ModelFileError(f"{context}: {exc}") from None

    model = DiscriminantModel(
        variables=variables,
        coefficients=coefficients,
        constant=constant,
        standardized=standardized,
        y0=centroids["bankrupt"],
        y1=centroids["nonbankrupt"],
        s0=score_sd["bankrupt"],
        s1=score_sd["nonbankrupt"],
        n0=int(group_sizes["bankrupt"]),
        n1=int(group_sizes["nonbankrupt"]),
        eigenvalue=eigenvalue,
        canonical_correlation=canonical,
        wilks_lambda=wilks,
        fisher=FisherFunctions(priors=priors, weights=weights, constants=constants),
        pooled_correlation=tuple(correlation),
    )
    return model, stats


def json_text(doc) -> str:
    """The layout of every JSON document written, to a file or to stdout."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, doc, what: str) -> None:
    """Write doc in the json_text layout; a file that cannot be written raises ModelFileError."""
    try:
        Path(path).write_text(json_text(doc), encoding="utf-8")
    except OSError as exc:
        raise ModelFileError(f"cannot write {what} file {path}: {exc}") from None


def parse_json(text: str, what: str, path: str | Path, error: type[DistressLdaError]):
    """The JSON value of a file's text. Besides malformed text, `error` refuses
    what Python's json would accept: NaN and Infinity, an object that repeats
    a key (json keeps the last value unseen) and nesting too deep to decode."""

    def finite_only(literal: str):
        raise ValueError(f"{literal} is not a finite number")

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"key {key!r} is repeated")
            obj[key] = value
        return obj

    try:
        return json.loads(text, parse_constant=finite_only, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} file {path} is not valid JSON: {exc}") from None


def save_model(path: str | Path, model: DiscriminantModel, stats: NormalizationStats) -> None:
    write_json(path, model_to_dict(model, stats), "model")


def load_model(path: str | Path) -> tuple[DiscriminantModel, NormalizationStats]:
    text = read_text(path, "model", ModelFileError)
    return model_from_dict(parse_json(text, "model", path, ModelFileError))


def zones_from_dict(doc: dict) -> ClassificationZones:
    if not isinstance(doc, dict):
        raise ModelFileError("zones document must be a JSON object")
    cutoff = _number(doc, "cutoff", "zones")
    grey_doc = doc.get("grey")
    grey: tuple[float, float] | None
    if grey_doc is None:
        grey = None
    elif isinstance(grey_doc, list) and len(grey_doc) == 2 and all(map(_is_finite_number, grey_doc)):
        grey = (float(grey_doc[0]), float(grey_doc[1]))
    else:
        raise ModelFileError("zones: 'grey' must be null or a [lo, hi] pair of finite numbers")
    try:
        return ClassificationZones(cutoff=cutoff, grey=grey, source=doc.get("source"))
    except ValueError as exc:
        raise ModelFileError(f"zones: {exc}") from None


def load_zones(path: str | Path) -> ClassificationZones:
    text = read_text(path, "zones", ModelFileError)
    return zones_from_dict(parse_json(text, "zones", path, ModelFileError))


def save_zones(path: str | Path, zones: ClassificationZones) -> None:
    write_json(path, zones_to_dict(zones), "zones")

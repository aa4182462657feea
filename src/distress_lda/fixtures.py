"""Bundled case-study data and loaders.

The package ships a small Mozambican banking panel: a 14-bank table of
window-averaged training ratios, two yearly evaluation panels (the two
intervened banks and seventeen going concerns, 2012-2020), the published
classification zones, and the published reference model whose coefficients
reproduce the case study's score tables.
"""
from __future__ import annotations

from pathlib import Path

from .classification import ClassificationZones
from .dataset import BankYearRecord, GroupLabel, load_panels
from .lda_fit import DiscriminantModel
from .model_io import load_model, load_zones
from .normalization import NormalizationStats

_DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Path of a bundled data file (table2.csv, appendix_a.csv, ...)."""
    path = _DATA_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def load_training_panel() -> tuple[list[BankYearRecord], dict[str, GroupLabel]]:
    """The 14-bank training table of 2012-2015 average ratios, with labels."""
    return load_panels([data_path("table2.csv")], "training", {})


def load_evaluation_panel() -> tuple[list[BankYearRecord], dict[str, GroupLabel]]:
    """Both yearly panels (2012-2020) concatenated, with labels."""
    return load_panels([data_path("appendix_a.csv"), data_path("appendix_b.csv")], "panel", {})


def load_reference_model() -> tuple[DiscriminantModel, NormalizationStats]:
    """The published model (coefficients, centroids, Fisher functions)."""
    return load_model(data_path("reference_model.json"))


def load_published_zones() -> ClassificationZones:
    """The published cut-off and grey interval (raw-ratio score scale)."""
    return load_zones(data_path("paper_zones.json"))

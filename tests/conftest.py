"""Shared fixtures: bundled panels, fitted and reference models, zones."""
import pytest
from hypothesis import settings

import distress_lda
from distress_lda import (
    fit,
    fit_normalizer,
    normalize_training_set,
    training_set_from_panel,
)
from distress_lda.fixtures import (
    load_evaluation_panel,
    load_published_zones,
    load_reference_model,
    load_training_panel,
)


# A larger budget for the CLI boundary test, run in CI as its own step:
# pytest tests/test_cli_boundary.py --hypothesis-profile=boundary
settings.register_profile("boundary", max_examples=3000)


def pytest_report_header(config):
    # pyproject's pythonpath puts this tree's src first, so name the package a run really tests.
    return f"distress_lda: {distress_lda.__file__}"


# Score table bundled with the reference model: the per-bank discriminant
# indices over the 2012-2015 averaging window, two failed banks first.
REFERENCE_SCORES_BANKRUPT = (-4.0643, -3.9678)
REFERENCE_SCORES_NONBANKRUPT = (
    1.5754,
    -0.3502,
    0.4877,
    -1.8925,
    0.1921,
    0.2839,
    1.1443,
    1.6832,
    1.7902,
    1.4226,
    0.9507,
    0.7444,
)


@pytest.fixture(scope="session")
def training_panel():
    return load_training_panel()


@pytest.fixture(scope="session")
def training_set(training_panel):
    records, labels = training_panel
    return training_set_from_panel(records, labels)


@pytest.fixture(scope="session")
def norm_stats(training_set):
    return fit_normalizer(training_set)


@pytest.fixture(scope="session")
def normalized_set(norm_stats, training_set):
    return normalize_training_set(norm_stats, training_set)


@pytest.fixture(scope="session")
def fitted_model(normalized_set):
    return fit(normalized_set)


@pytest.fixture(scope="session")
def reference():
    """(model, normalization) pair shipped with the package data."""
    return load_reference_model()


@pytest.fixture(scope="session")
def reference_model(reference):
    return reference[0]


@pytest.fixture(scope="session")
def reference_stats(reference):
    return reference[1]


@pytest.fixture(scope="session")
def published_zones():
    return load_published_zones()


@pytest.fixture(scope="session")
def evaluation_panel():
    return load_evaluation_panel()


@pytest.fixture(scope="session")
def score_table():
    return {
        "bankrupt": list(REFERENCE_SCORES_BANKRUPT),
        "nonbankrupt": list(REFERENCE_SCORES_NONBANKRUPT),
    }

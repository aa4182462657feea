"""Model and zone files: round trips, validation, deterministic bytes."""
import json

import pytest

from distress_lda import (
    ClassificationZones,
    ModelFileError,
    load_model,
    load_zones,
    model_to_dict,
    save_model,
    zones_to_dict,
)
from distress_lda.model_io import model_from_dict, write_json, zones_from_dict


@pytest.fixture()
def model_doc(fitted_model, norm_stats):
    return model_to_dict(fitted_model, norm_stats)


class TestModelRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path, fitted_model, norm_stats):
        path = tmp_path / "model.json"
        save_model(path, fitted_model, norm_stats)
        loaded_model, loaded_stats = load_model(path)
        assert loaded_model.coefficients == fitted_model.coefficients
        assert loaded_model.constant == fitted_model.constant
        assert loaded_model.standardized == fitted_model.standardized
        assert (loaded_model.y0, loaded_model.y1) == (fitted_model.y0, fitted_model.y1)
        assert (loaded_model.s0, loaded_model.s1) == (fitted_model.s0, fitted_model.s1)
        assert (loaded_model.n0, loaded_model.n1) == (fitted_model.n0, fitted_model.n1)
        assert loaded_model.eigenvalue == fitted_model.eigenvalue
        assert loaded_model.fisher == fitted_model.fisher
        assert loaded_model.pooled_correlation == fitted_model.pooled_correlation
        assert loaded_stats == norm_stats

    def test_bytes_are_deterministic(self, tmp_path, fitted_model, norm_stats):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(a, fitted_model, norm_stats)
        save_model(b, fitted_model, norm_stats)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_document_schema(self, model_doc):
        assert set(model_doc) == {
            "variables",
            "coefficients",
            "constant",
            "standardized",
            "centroids",
            "score_sd",
            "group_sizes",
            "eigenvalue",
            "canonical_correlation",
            "wilks_lambda",
            "fisher",
            "pooled_correlation",
            "normalization",
        }
        assert model_doc["variables"] == ["eaa", "roae", "roaa", "nii", "laaa", "bdtla"]
        assert set(model_doc["centroids"]) == {"bankrupt", "nonbankrupt"}
        # Plain JSON types only; numpy scalars would survive json.dumps but
        # break byte equality across platforms.
        for value in model_doc["coefficients"].values():
            assert type(value) is float

    def test_bundled_reference_model(self, reference_model):
        assert reference_model.coefficients == pytest.approx(
            {
                "eaa": -0.040,
                "roae": 2.151,
                "roaa": 2.548,
                "nii": 2.377,
                "laaa": -0.487,
                "bdtla": 4.734,
            },
            abs=5e-4,
        )
        assert reference_model.y0 == pytest.approx(-4.01605, abs=5e-5)
        assert reference_model.y1 == pytest.approx(0.669317, abs=5e-6)


class TestModelValidation:
    def _reject(self, doc, match):
        with pytest.raises(ModelFileError, match=match):
            model_from_dict(doc)

    def test_top_level_type(self):
        self._reject([], "JSON object")

    def test_variables_distinct(self, model_doc):
        model_doc["variables"] = ["eaa"] * 6
        self._reject(model_doc, "distinct")

    def test_variables_must_be_the_ratio_names(self, model_doc):
        """A model over an extra variable would load, then fail to score any panel."""
        model_doc["variables"].append("foo")
        weights = model_doc["fisher"]["weights"]
        for block in (model_doc["coefficients"], model_doc["standardized"], *weights.values()):
            block["foo"] = 0.0
        model_doc["normalization"]["means"]["foo"] = 0.0
        model_doc["normalization"]["sds"]["foo"] = 1.0
        corr = model_doc["pooled_correlation"]
        model_doc["pooled_correlation"] = [row + [0.0] for row in corr] + [[0.0] * 6 + [1.0]]
        self._reject(model_doc, "'variables' must list the distinct ratio names")

    def test_coefficients_must_cover_variables(self, model_doc):
        del model_doc["coefficients"]["nii"]
        self._reject(model_doc, "exactly the model variables")

    def test_centroids_ordered(self, model_doc):
        model_doc["centroids"] = {"bankrupt": 1.0, "nonbankrupt": -1.0}
        self._reject(model_doc, "must exceed")

    def test_score_sd_non_negative(self, model_doc):
        model_doc["score_sd"]["bankrupt"] = -0.1
        self._reject(model_doc, "non-negative")

    def test_group_sizes_integral(self, model_doc):
        model_doc["group_sizes"]["bankrupt"] = 1
        self._reject(model_doc, ">= 2")
        model_doc["group_sizes"]["bankrupt"] = 2.5
        self._reject(model_doc, ">= 2")

    def test_group_sizes_must_fit_the_design(self, model_doc):
        """Six ratios need N >= 8 banks; the fit could never write 2 and 3."""
        model_doc["group_sizes"] = {"bankrupt": 2, "nonbankrupt": 3}
        self._reject(model_doc, r"^model: group_sizes: 6 variables exceed the limit of 3 for 5 samples$")
        model_doc["group_sizes"]["nonbankrupt"] = 6
        model, _stats = model_from_dict(model_doc)  # 8 banks carry 6 ratios
        assert (model.n0, model.n1) == (2, 6)

    def test_booleans_are_not_numbers(self, model_doc):
        model_doc["constant"] = True
        self._reject(model_doc, "finite number")

    def test_non_finite_rejected(self, model_doc):
        model_doc["eigenvalue"] = float("inf")
        self._reject(model_doc, "finite number")

    def test_eigenvalue_sign(self, model_doc):
        model_doc["eigenvalue"] = -0.5
        self._reject(model_doc, "non-negative")

    def test_canonical_correlation_range(self, model_doc):
        model_doc["canonical_correlation"] = 1.0
        self._reject(model_doc, r"\[0, 1\)")

    def test_wilks_lambda_range(self, model_doc):
        model_doc["wilks_lambda"] = 0.0
        self._reject(model_doc, r"\(0, 1\]")

    def test_wilks_must_match_eigenvalue(self, model_doc):
        model_doc["eigenvalue"] = 5.0
        model_doc["wilks_lambda"] = 0.9
        self._reject(model_doc, r"wilks_lambda disagrees with 1/\(1 \+ eigenvalue\)")

    def test_canonical_correlation_must_match_eigenvalue(self, model_doc):
        model_doc["canonical_correlation"] += 2e-5
        self._reject(model_doc, "canonical_correlation disagrees")

    def test_fisher_block_required(self, model_doc):
        del model_doc["fisher"]
        self._reject(model_doc, "'fisher' block")

    def test_priors_must_normalize(self, model_doc):
        model_doc["fisher"]["priors"] = {"bankrupt": 0.3, "nonbankrupt": 0.3}
        self._reject(model_doc, "sum to 1")

    def test_correlation_shape(self, model_doc):
        model_doc["pooled_correlation"] = [[1.0, 0.0], [0.0, 1.0]]
        self._reject(model_doc, "6x6")

    def test_correlation_entries_finite(self, model_doc):
        model_doc["pooled_correlation"][2][3] = None
        self._reject(model_doc, "finite numbers")

    @pytest.mark.parametrize(
        "cells, match",
        [
            ({(2, 3): 0.5}, "symmetric"),
            ({(0, 0): 0.9}, "unit diagonal"),
            ({(1, 2): 1.5, (2, 1): 1.5}, r"\[-1, 1\]"),
            # Within numpy's default rtol of 1e-5, not within the documented 1e-8.
            ({(0, 0): 0.999995}, "unit diagonal"),
            ({(1, 2): 0.832995}, "symmetric"),
        ],
    )
    def test_correlation_must_be_a_correlation_matrix(self, model_doc, cells, match):
        for (i, j), value in cells.items():
            model_doc["pooled_correlation"][i][j] = value
        self._reject(model_doc, f"pooled_correlation: correlation .*{match}")

    def test_normalization_block_required(self, model_doc):
        del model_doc["normalization"]
        self._reject(model_doc, "'normalization' block")

    def test_normalization_sd_positive(self, model_doc):
        model_doc["normalization"]["sds"]["eaa"] = 0.0
        self._reject(model_doc, "positive")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFileError, match="not valid JSON"):
            load_model(path)

    def test_non_finite_literal_rejected(self, tmp_path, model_doc):
        model_doc["constant"] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_doc), encoding="utf-8")  # json.dumps writes the NaN literal
        with pytest.raises(ModelFileError, match="not valid JSON: NaN is not a finite number"):
            load_model(path)


    def test_nesting_too_deep_to_decode(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(ModelFileError, match="not valid JSON: maximum recursion depth"):
            load_model(path)


class TestZonesIO:
    def test_round_trip(self, tmp_path):
        zones = ClassificationZones(cutoff=-7e-6, grey=(-0.04, -0.003), source="explicit-override")
        path = tmp_path / "zones.json"
        write_json(path, zones_to_dict(zones), "zones")
        assert load_zones(path) == zones

    def test_null_grey_round_trip(self, tmp_path):
        zones = ClassificationZones(cutoff=0.5, grey=None, source="derived-from-model")
        path = tmp_path / "zones.json"
        write_json(path, zones_to_dict(zones), "zones")
        assert load_zones(path) == zones

    def test_bundled_override_zones(self, published_zones):
        assert published_zones.cutoff == -0.000007
        assert published_zones.grey == (-0.040, -0.003)
        assert published_zones.source == "explicit-override"

    @pytest.mark.parametrize(
        "doc, problem",
        [
            ({"cutoff": 0.0, "gray": [-0.04, -0.003], "source": "explicit-override"}, "unknown key 'gray'"),
            ({"cutoff": 0.0, "grey": None, "source": "explicit-override", "note": "x"}, "unknown key 'note'"),
            ({"cutoff": 0.0, "source": "explicit-override"}, "missing key 'grey'"),
        ],
        ids=["misspelled", "extra", "missing"],
    )
    def test_keys_are_exact(self, doc, problem):
        """A zones document that spells grey otherwise is refused, not read as having no grey zone."""
        with pytest.raises(ModelFileError) as caught:
            zones_from_dict(doc)
        assert str(caught.value) == (
            f"zones: {problem}; a zones document holds exactly 'cutoff', 'grey' and 'source'"
        )

    def test_grey_must_be_pair_or_null(self):
        with pytest.raises(ModelFileError, match="lo, hi"):
            zones_from_dict({"cutoff": 0.0, "grey": [1.0], "source": "explicit-override"})

    @pytest.mark.parametrize("grey", [[float("nan"), float("nan")], [0.0, float("inf")]])
    def test_grey_bounds_must_be_finite(self, grey):
        with pytest.raises(ModelFileError, match="finite numbers"):
            zones_from_dict({"cutoff": 0.0, "grey": grey, "source": "explicit-override"})

    def test_source_vocabulary_enforced(self):
        with pytest.raises(ModelFileError, match="source"):
            zones_from_dict({"cutoff": 0.0, "grey": None, "source": "folk-wisdom"})

    @pytest.mark.parametrize("source", [["x"], {}], ids=["list", "object"])
    def test_unhashable_source_is_a_file_error(self, source):
        """A JSON list or object as source is an unknown source, not a TypeError."""
        with pytest.raises(ModelFileError, match="source"):
            zones_from_dict({"cutoff": 0.0, "grey": None, "source": source})

    def test_cutoff_must_be_number(self):
        with pytest.raises(ModelFileError, match="finite number"):
            zones_from_dict({"cutoff": True, "grey": None, "source": "explicit-override"})

    def test_inverted_grey_reported_as_file_error(self):
        with pytest.raises(ModelFileError, match="inverted"):
            zones_from_dict(
                {"cutoff": 0.0, "grey": [0.5, -0.5], "source": "explicit-override"}
            )

"""The JSON form of every result: each report is its result type's fields,
plus ``schema_version`` where the type declares one."""

import json
import math
import runpy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fairmimic as fm
from fairmimic.model import to_json

from conftest import base_template, make_generator, simulate_from

REPO = Path(__file__).resolve().parents[1]

# Maps keyed by column names, group labels or indicator names: their keys
# are data, so the key paths below write them as "*".
DATA_KEYED = {"roles", "sensitive_coding", "coding", "standardize", "rate_by_group", "n_by_group"}

RUN_CONFIG = {"command", "out_dir"}

MODEL_KEYS = [
    "covariate_names", "dif_offsets", "free_mask", "indicator_names", "intercepts",
    "latent_var", "loadings", "resid_vars", "schema_version", "sens_coef",
    "sensitive_coding", "sensitive_coding.*", "struct_coefs",
]

ROLE_CONFIG_KEYS = ["log_scale", "roles", "roles.*", "sensitive_coding", "sensitive_coding.*"]

CURVE_KEYS = [
    "bins", "bins[].count", "bins[].group", "bins[].mean", "bins[].percentile_high",
    "bins[].percentile_low", "gap_by_bin", "groups", "mean_abs_gap", "n_bins",
]

# Key paths of every JSON file scripts/run_demo.py writes.
DEMO_KEY_PATHS = {
    "sim/roles.json": ROLE_CONFIG_KEYS,
    "sim/run_config.json": sorted(RUN_CONFIG | {"seed", "spec"}),
    "select/lasso_path.json": [
        "active_set", "chosen_index", "chosen_penalty", "coefs", "cv_mse", "cv_se",
        "feature_names", "intercepts", "penalties", "rule", "schema_version",
    ],
    "select/selected_roles.json": ROLE_CONFIG_KEYS,
    "select/run_config.json": sorted(RUN_CONFIG | {"data", "folds", "roles", "rule", "seed", "target"}),
    "roles_fit.json": sorted(ROLE_CONFIG_KEYS + ["standardize"]),
    "fit/model.json": MODEL_KEYS,
    "fit/fit_report.json": sorted(
        [
            "converged", "data_fingerprint", "estimates", "grad_norm", "holdout_loglik",
            "loglik", "model", "n_iter", "n_obs", "n_test", "n_train", "param_names",
            "schema_version", "std_errors", "vcov",
        ]
        + [f"model.{k}" for k in MODEL_KEYS]
    ),
    "fit/transform_record.json": [
        "log1p", "standardize", "standardize.*", "standardize.*.mean", "standardize.*.std",
    ],
    "fit/run_config.json": sorted(
        RUN_CONFIG | {"data", "free_dif", "max_iter", "roles", "seed", "tol", "train_frac"}
    ),
    "score/score_summary.json": [
        "n", "n_selected", "reference_level", "threshold_percentile",
        "threshold_value",
    ],
    "score/run_config.json": sorted(
        RUN_CONFIG
        | {"data", "model", "percentile", "reference_level", "reference_scores", "roles", "transform"}
    ),
    "audit/audit_report.json": sorted(
        [
            "comparison", "comparison.mean_abs_gap_fair", "comparison.mean_abs_gap_naive",
            "counterfactual_discrepancy", "counterfactual_discrepancy.fair",
            "counterfactual_discrepancy.naive", "curves", "curves.fair", "curves.naive",
            "proxy", "schema_version", "statistical_parity", "statistical_parity.n_by_group",
            "statistical_parity.n_by_group.*", "statistical_parity.parity_gap",
            "statistical_parity.rate_by_group", "statistical_parity.rate_by_group.*",
        ]
        + [f"curves.{name}.{k}" for name in ("fair", "naive") for k in CURVE_KEYS]
    ),
    "audit/run_config.json": sorted(
        RUN_CONFIG
        | {"bins", "data", "model", "outcome_col", "proxy", "roles", "scores"}
    ),
    "dif/dif_report.json": [
        "base_loglik", "coding", "coding.*", "n_obs", "rows", "rows[].ci_high", "rows[].ci_low",
        "rows[].converged", "rows[].delta", "rows[].error", "rows[].indicator",
        "rows[].log_scale", "rows[].lr_statistic", "rows[].p_value", "rows[].percent_effect",
        "rows[].percent_effect.ci_high", "rows[].percent_effect.ci_low",
        "rows[].percent_effect.percent", "schema_version",
    ],
    "dif/run_config.json": sorted(RUN_CONFIG | {"data", "max_iter", "roles", "tol"}),
}


def key_paths(value, prefix=""):
    """Every key path in a JSON value: keys joined by ".", list items as
    "[]", and the keys of a data-keyed map as "*"."""
    found = set()
    if isinstance(value, dict):
        data_keyed = prefix.rsplit(".", 1)[-1] in DATA_KEYED
        for k, v in value.items():
            path = f"{prefix}.{'*' if data_keyed else k}" if prefix else k
            found |= {path} | key_paths(v, path)
    elif isinstance(value, list):
        for v in value:
            found |= key_paths(v, prefix + "[]")
    return found


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    run = runpy.run_path(str(REPO / "scripts" / "run_demo.py"))["run"]
    assert run(str(out)) == 0
    return out


def test_demo_json_key_paths(demo_dir):
    written = sorted(str(p.relative_to(demo_dir)) for p in demo_dir.rglob("*.json"))
    assert written == sorted(DEMO_KEY_PATHS)
    for name, expected in DEMO_KEY_PATHS.items():
        found = sorted(key_paths(json.loads((demo_dir / name).read_text())))
        assert found == sorted(expected), name


def field_names(obj):
    return {f.name for f in fields(obj)}


def test_fit_result_dict_with_nan_standard_errors(fitted_example):
    result, _ = fitted_example
    k = len(result.param_names)
    nan_fit = replace(result, std_errors=np.full(k, np.nan), vcov=np.full((k, k), np.nan))
    for fit in (result, nan_fit):
        d = fit.to_dict()
        assert set(d) == field_names(fit) | {"schema_version", "estimates"}
        assert d["model"] == fit.model.to_dict()
        assert d["estimates"] == fm.pack(fit.model).tolist()
        assert d["param_names"] == list(fit.param_names)
        assert len(d["std_errors"]) == k and len(d["vcov"]) == k
    d = nan_fit.to_dict()
    assert all(math.isnan(v) for v in d["std_errors"])
    assert all(math.isnan(v) for row in d["vcov"] for v in row)
    assert json.dumps(d["std_errors"]) == "[" + ", ".join(["NaN"] * k) + "]"


def test_model_and_sim_spec_dicts():
    gen = make_generator()
    d = gen.to_dict()
    assert set(d) == field_names(gen) | {"schema_version"}
    assert fm.MimicModel.from_dict(json.loads(json.dumps(d))).to_dict() == d
    for spec in (
        fm.SimSpec(n=10, model=gen, group_prob=0.5, seed=1),
        fm.SimSpec(n=10, model=gen, group_prob=0.5, seed=1, group_shift=[0.1, 0.0, -0.2]),
    ):
        d = spec.to_dict()
        assert set(d) == field_names(spec) | {"schema_version"}
        assert d["model"] == gen.to_dict()
        assert fm.SimSpec.from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_dif_dicts():
    data, _ = simulate_from(make_generator(dif=(0.3, 0.0, 0.0, 0.0)), n=400, seed=21)
    data = data.replace_columns({}, log_scale={"y1"})
    report = fm.dif_scan(base_template(), data)
    d = report.to_dict()
    assert set(d) == field_names(report) | {"schema_version"}
    rows = [fm.DifRow(indicator="y3", converged=False, error="ValueError: x"), *report.rows]
    assert d["rows"] == [to_json(r) for r in report.rows]
    for row in rows:
        assert set(to_json(row)) == field_names(row)
    with_pct = d["rows"][0]["percent_effect"]
    assert with_pct == dict(zip(("percent", "ci_low", "ci_high"), report.rows[0].percent_effect))
    assert d["rows"][1]["percent_effect"] is None


def test_audit_select_and_transform_dicts():
    labels = ["a", "a", "b", "b", "b", "a"]
    decisions = [1, 0, 1, 1, 0, 0]
    scores = [0.1, 0.5, 0.2, 0.9, 0.4, 0.7]
    rng = np.random.default_rng(3)
    data, _ = simulate_from(make_generator(), n=60, seed=22)
    results = [
        fm.statistical_parity(decisions, labels),
        fm.predictive_parity(decisions, [1, 0, 0, 1, 1, 0], labels),
        fm.conditional_parity_curve(scores, labels, scores, n_bins=2),
        fm.cv_select(rng.normal(size=(40, 3)), rng.normal(size=40), k_folds=3),
        fm.transform(data, standardize=["x1", "x2"])[1],
    ]
    for result in results:
        d = result.to_dict()
        expected = field_names(result)
        if isinstance(result, fm.LassoPath):
            expected |= {"schema_version"}
        assert set(d) == expected, type(result).__name__
        json.dumps(d)
    curve = results[2].to_dict()
    assert set(curve["bins"][0]) == {"percentile_low", "percentile_high", "group", "mean", "count"}
    record = results[4]
    assert record.to_dict()["standardize"]["x1"] == dict(zip(("mean", "std"), record.standardize["x1"]))
    assert fm.TransformRecord.from_dict(record.to_dict()) == record

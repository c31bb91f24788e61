"""Subcommand behavior: files, exit codes, determinism."""

import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairmimic as fm
from fairmimic import data as data_mod
from fairmimic.cli import build_parser, main

from conftest import CODING, make_generator


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    spec = fm.SimSpec(n=600, model=make_generator(dif=(0.0, 0.3, 0.0, 0.0)), group_prob=0.5, seed=77)
    path = out / "simspec.json"
    path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    code = main(["simulate", "--spec", str(path), "--out-dir", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = main(
        [
            "fit",
            "--data", str(sim_dir / "data.csv"),
            "--roles", str(sim_dir / "roles.json"),
            "--train-frac", "0.8",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("data.csv", "latent.csv", "roles.json", "run_config.json"):
            assert (sim_dir / name).exists()

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        code = main(
            ["simulate", "--spec", str(sim_dir / "simspec.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "data.csv").read_bytes() == (sim_dir / "data.csv").read_bytes()
        assert (tmp_path / "latent.csv").read_bytes() == (sim_dir / "latent.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("n", 1000.0), ("n", True), ("seed", 1.5), ("seed", False)])
    def test_non_integer_size_or_seed_exits_1(self, sim_dir, tmp_path, capsys, field, value):
        spec = json.loads((sim_dir / "simspec.json").read_text())
        path = tmp_path / "simspec.json"
        path.write_text(json.dumps({**spec, field: value}))
        code = main(["simulate", "--spec", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"fairmimic simulate: error: {field} must be an integer")
        assert not (tmp_path / "out").exists()

    def test_ids_are_the_row_numbers(self, sim_dir, fit_dir, tmp_path):
        # the ids print as 0 .. n-1, and scores of those files pass audit's
        # check that each scores row is the data row of the same id
        expected = [str(i) for i in range(600)]
        for name, column in (("data.csv", "id"), ("latent.csv", "row_id")):
            with open(sim_dir / name, newline="", encoding="utf-8") as fh:
                assert [row[column] for row in csv.DictReader(fh)] == expected, name
        data_args = ["--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json")]
        code = main(["score", "--model", str(fit_dir / "model.json"), *data_args, "--out-dir", str(tmp_path / "s")])
        assert code == 0
        assert read_score_columns(tmp_path / "s" / "scores.csv")["row_id"] == expected
        code = main(["audit", "--scores", str(tmp_path / "s" / "scores.csv"), *data_args, "--out-dir", str(tmp_path / "a")])
        assert code == 0

    def test_seed_override_changes_data(self, sim_dir, tmp_path):
        code = main(
            ["simulate", "--spec", str(sim_dir / "simspec.json"), "--seed", "123",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "data.csv").read_bytes() != (sim_dir / "data.csv").read_bytes()


class TestFit:
    def test_outputs_and_convergence(self, fit_dir):
        report = json.loads((fit_dir / "fit_report.json").read_text())
        assert report["converged"] is True
        assert report["holdout_loglik"] is not None
        for name in ("model.json", "fit_report.json", "transform_record.json", "run_config.json"):
            assert (fit_dir / name).exists()

    def test_model_json_loads(self, fit_dir):
        model = fm.load_model(fit_dir / "model.json")
        assert model.loadings[0] == 1.0

    def test_rerun_byte_identical_model(self, sim_dir, fit_dir, tmp_path):
        code = main(
            [
                "fit",
                "--data", str(sim_dir / "data.csv"),
                "--roles", str(sim_dir / "roles.json"),
                "--train-frac", "0.8",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "model.json").read_bytes() == (fit_dir / "model.json").read_bytes()

    def test_corrupt_csv_exits_1_no_partial_outputs(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,grp,x1\n1,a\n")
        out = tmp_path / "out"
        code = main(
            ["fit", "--data", str(bad), "--roles", str(sim_dir / "roles.json"),
             "--out-dir", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_non_convergence_exits_2(self, sim_dir, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                [
                    "fit",
                    "--data", str(sim_dir / "data.csv"),
                    "--roles", str(sim_dir / "roles.json"),
                    "--max-iter", "0",
                    "--out-dir", str(tmp_path),
                ]
            )
        assert code == 2
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["converged"] is False  # diagnostics still written

    def test_loose_tolerance_met_exits_0(self, tmp_path):
        # The exit code reads the same threshold the optimizer stops on: a
        # fit that met --tol 1e-3 has converged, whatever its gradient norm
        # against the default tolerance.
        data, _ = fm.simulate(fm.SimSpec(n=400, model=make_generator(), group_prob=0.5, seed=0))
        fm.write_csv(data, tmp_path / "data.csv")
        (tmp_path / "roles.json").write_text(json.dumps(data_mod.role_config_of(data)))
        code = main(
            ["fit", "--data", str(tmp_path / "data.csv"), "--roles", str(tmp_path / "roles.json"),
             "--train-frac", "1.0", "--tol", "1e-3", "--out-dir", str(tmp_path / "fit")]
        )
        assert code == 0
        report = json.loads((tmp_path / "fit" / "fit_report.json").read_text())
        assert report["converged"] is True
        assert 1e-5 < report["grad_norm"] < 1e-3

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "nan"), ("--max-iter", "-1")])
    def test_meaningless_solver_setting_exits_1(self, sim_dir, tmp_path, capsys, flag, value):
        code = main(
            ["fit", "--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json"),
             flag, value, "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1.5", "nan", "inf", "0", "-0.2"])
    def test_train_frac_outside_unit_interval_exits_1(self, sim_dir, tmp_path, capsys, value):
        code = main(
            ["fit", "--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json"),
             "--train-frac", value, "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("fairmimic fit: error: --train-frac must be in (0, 1]")
        assert not (tmp_path / "out").exists()

    def test_free_dif_flag(self, sim_dir, tmp_path):
        code = main(
            [
                "fit",
                "--data", str(sim_dir / "data.csv"),
                "--roles", str(sim_dir / "roles.json"),
                "--train-frac", "0.9",
                "--free-dif", "y2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        model = fm.load_model(tmp_path / "model.json")
        assert bool(model.free_mask[1]) is True
        assert model.dif_offsets[1] != 0.0


class TestScoreAuditDif:
    def test_score_outputs(self, sim_dir, fit_dir, tmp_path):
        code = main(
            [
                "score",
                "--model", str(fit_dir / "model.json"),
                "--data", str(sim_dir / "data.csv"),
                "--roles", str(sim_dir / "roles.json"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "scores.csv").read_text().strip().splitlines()
        assert len(lines) == 601
        summary = json.loads((tmp_path / "score_summary.json").read_text())
        assert summary["threshold_percentile"] == 55.0

    def test_score_thresholds_at_the_reference_scores(self, sim_dir, fit_dir, tmp_path):
        # the reference set is the first 200 rows' scores, so its threshold
        # differs from that of the scored rows themselves
        argv = ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
                "--roles", str(sim_dir / "roles.json"), "--percentile", "30"]
        assert main(argv + ["--out-dir", str(tmp_path / "own")]) == 0
        lines = (tmp_path / "own" / "scores.csv").read_text().splitlines(keepends=True)
        (tmp_path / "reference.csv").write_text("".join(lines[:201]), newline="")
        assert main(argv + ["--reference-scores", str(tmp_path / "reference.csv"),
                            "--out-dir", str(tmp_path / "ref")]) == 0
        own = read_score_columns(tmp_path / "own" / "scores.csv")
        scored = read_score_columns(tmp_path / "ref" / "scores.csv")
        decisions, threshold = fm.decide(own["fair_score"], 30.0, reference_scores=own["fair_score"][:200])
        assert threshold != fm.decide(own["fair_score"], 30.0)[1]
        assert json.loads((tmp_path / "ref" / "score_summary.json").read_text())["threshold_value"] == threshold
        assert scored["fair_score"] == own["fair_score"]
        assert scored["decision"] == decisions.tolist()

    def test_score_of_transformed_roles_needs_the_record(self, sim_dir, tmp_path, capsys):
        # standardizing the scored rows with their own statistics would move
        # every score; the training record must be passed instead
        roles = json.loads((sim_dir / "roles.json").read_text())
        roles["standardize"] = ["x1"]
        roles_path = tmp_path / "roles.json"
        roles_path.write_text(json.dumps(roles))
        fit_out = tmp_path / "fit"
        code = main(["fit", "--data", str(sim_dir / "data.csv"), "--roles", str(roles_path),
                     "--out-dir", str(fit_out)])
        assert code == 0
        argv = ["score", "--model", str(fit_out / "model.json"), "--data", str(sim_dir / "data.csv"),
                "--roles", str(roles_path)]
        assert main(argv + ["--out-dir", str(tmp_path / "bare")]) == 1
        assert "--transform" in capsys.readouterr().err
        assert not (tmp_path / "bare").exists()
        code = main(argv + ["--transform", str(fit_out / "transform_record.json"),
                            "--out-dir", str(tmp_path / "scored")])
        assert code == 0

    def test_fit_refuses_a_misspelled_roles_key(self, sim_dir, tmp_path, capsys):
        # "standardise" would be ignored, and the covariates fitted unscaled
        roles = json.loads((sim_dir / "roles.json").read_text())
        roles["standardise"] = ["x1"]
        roles_path = tmp_path / "roles.json"
        roles_path.write_text(json.dumps(roles))
        code = main(["fit", "--data", str(sim_dir / "data.csv"), "--roles", str(roles_path),
                     "--out-dir", str(tmp_path / "fit")])
        assert code == 1
        assert "unknown keys ['standardise']" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_audit_outputs(self, sim_dir, fit_dir, tmp_path):
        score_dir = tmp_path / "scores"
        main(
            ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(score_dir)]
        )
        audit_dir = tmp_path / "audit"
        code = main(
            [
                "audit",
                "--scores", str(score_dir / "scores.csv"),
                "--data", str(sim_dir / "data.csv"),
                "--roles", str(sim_dir / "roles.json"),
                "--proxy", "y2",
                "--model", str(fit_dir / "model.json"),
                "--out-dir", str(audit_dir),
            ]
        )
        assert code == 0
        report = json.loads((audit_dir / "audit_report.json").read_text())
        assert report["counterfactual_discrepancy"]["fair"] == 0.0
        assert report["counterfactual_discrepancy"]["naive"] > 0.0
        assert set(report["statistical_parity"]["rate_by_group"]) == {"a", "b"}
        lines = (audit_dir / "parity_curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("score_type,")
        assert len(lines) == 1 + 2 * 10 * 2  # score types x bins x groups

        # the same curves, formatted here from to_rows(): floats as repr, an
        # empty cell's mean as an empty field
        data = fm.load_csv(sim_dir / "data.csv", json.loads((sim_dir / "roles.json").read_text()))
        with open(score_dir / "scores.csv", newline="", encoding="utf-8") as fh:
            score_rows = list(csv.DictReader(fh))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(
            ["score_type", "percentile_low", "percentile_high", "group", "mean_proxy", "count"]
        )
        for name in ("fair", "naive"):
            curve = fm.conditional_parity_curve(
                [float(r[f"{name}_score"]) for r in score_rows],
                data.sensitive_labels(),
                data.column("y2"),
                n_bins=10,
            )
            for lo, hi, group, mean, count in curve.to_rows():
                writer.writerow([name, lo, hi, group, "" if mean is None else repr(mean), count])
        assert (audit_dir / "parity_curve.csv").read_bytes().decode() == expected.getvalue()

    @pytest.mark.parametrize("proxy", ["id", "x1", "group", "nothere"])
    def test_audit_proxy_must_be_an_indicator(self, sim_dir, fit_dir, tmp_path, capsys, proxy):
        # a proxy that is not an indicator (the ids, a covariate, the group)
        # would be audited as if it were an outcome
        main(
            ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(tmp_path)]
        )
        code = main(
            ["audit", "--scores", str(tmp_path / "scores.csv"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--proxy", proxy, "--out-dir", str(tmp_path / "audit")]
        )
        assert code == 1
        assert f"column {proxy!r} is not an indicator column" in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()

    def test_audit_rejects_scores_of_other_rows(self, sim_dir, fit_dir, tmp_path, capsys):
        main(
            ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(tmp_path)]
        )
        header, first, second, *rest = (tmp_path / "scores.csv").read_bytes().split(b"\r\n")
        (tmp_path / "swapped.csv").write_bytes(b"\r\n".join([header, second, first, *rest]))
        code = main(
            ["audit", "--scores", str(tmp_path / "swapped.csv"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(tmp_path / "audit")]
        )
        assert code == 1
        assert "does not match the data ids" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["fair_score", "naive_score"])
    def test_non_finite_scores_file_exits_1(self, sim_dir, fit_dir, tmp_path, capsys, column):
        main(
            ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(tmp_path)]
        )
        with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index(column)] = "nan"
        spoiled = tmp_path / "spoiled.csv"
        with open(spoiled, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        common = ["--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json")]
        runs = [
            ["audit", "--scores", str(spoiled), *common, "--out-dir", str(tmp_path / "audit")],
            ["score", "--model", str(fit_dir / "model.json"), "--reference-scores", str(spoiled),
             *common, "--out-dir", str(tmp_path / "rescored")],
        ]
        for argv in runs:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert str(spoiled) in err and repr(column) in err and "row 4" in err
        assert not (tmp_path / "audit").exists() and not (tmp_path / "rescored").exists()

    def test_score_refuses_data_coded_the_other_way(self, tmp_path, capsys):
        # the demo codes "w" as 0; roles without a sensitive_coding code the
        # sorted labels, "b" as 0, which would swap every naive score's group
        demo = Path(__file__).resolve().parents[1] / "scripts" / "demo_simspec.json"
        sim, fit_out = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--spec", str(demo), "--out-dir", str(sim)]) == 0
        common = ["--data", str(sim / "data.csv")]
        assert main(["fit", *common, "--roles", str(sim / "roles.json"), "--out-dir", str(fit_out)]) == 0
        roles = json.loads((sim / "roles.json").read_text())
        del roles["sensitive_coding"]
        uncoded = tmp_path / "roles.json"
        uncoded.write_text(json.dumps(roles))
        score = ["score", "--model", str(fit_out / "model.json"), *common]
        assert main([*score, "--roles", str(sim / "roles.json"), "--out-dir", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert main([*score, "--roles", str(uncoded), "--out-dir", str(tmp_path / "swapped")]) == 1
        assert "codes the sensitive levels" in capsys.readouterr().err
        assert not (tmp_path / "swapped" / "scores.csv").exists()

    def test_audit_refuses_a_non_binary_outcome(self, sim_dir, fit_dir, tmp_path, capsys):
        score_dir = tmp_path / "scores"
        main(
            ["score", "--model", str(fit_dir / "model.json"), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(score_dir)]
        )
        with open(sim_dir / "data.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[0].append("outcome")
        for i, row in enumerate(rows[1:]):
            row.append(str(i % 2))
        roles = json.loads((sim_dir / "roles.json").read_text())
        roles_path = tmp_path / "roles.json"

        def audit(outcome, out, role="covariate"):  # a numeric role is read as float64, "ignore" as text
            roles["roles"]["outcome"] = role
            roles_path.write_text(json.dumps(roles))
            with open(tmp_path / "data.csv", "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
            return main(["audit", "--scores", str(score_dir / "scores.csv"), "--data", str(tmp_path / "data.csv"),
                         "--roles", str(roles_path), "--outcome-col", outcome, "--out-dir", str(tmp_path / out)])

        for role in ("covariate", "ignore"):
            assert audit("outcome", role, role) == 0
            report = json.loads((tmp_path / role / "audit_report.json").read_text())
            assert report["predictive_parity"]["parity_gap"] is not None
        assert (tmp_path / "covariate" / "audit_report.json").read_bytes() == (
            tmp_path / "ignore" / "audit_report.json"
        ).read_bytes()
        capsys.readouterr()
        rows[3][-1] = "0.5"  # once cast to an integer, it would read as 0
        assert audit("outcome", "half") == 1
        assert "outcome must be binary 0/1" in capsys.readouterr().err
        assert audit("y2", "proxy") == 1  # a continuous column is no outcome
        assert not (tmp_path / "half").exists() and not (tmp_path / "proxy").exists()

    def test_dif_table_schema(self, sim_dir, tmp_path):
        code = main(
            ["dif", "--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "dif_report.json").read_text())
        assert len(report["rows"]) == 4
        required = {
            "indicator", "delta", "ci_low", "ci_high",
            "lr_statistic", "p_value", "percent_effect", "log_scale",
        }
        for row in report["rows"]:
            assert required <= set(row)
        assert (tmp_path / "dif_table.txt").read_text().count("\n") >= 5

    def test_select_feeds_fit(self, sim_dir, tmp_path):
        sel_dir = tmp_path / "sel"
        code = main(
            ["select", "--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json"),
             "--target", "y1", "--folds", "5", "--out-dir", str(sel_dir)]
        )
        assert code == 0
        fit_dir2 = tmp_path / "fit2"
        code = main(
            ["fit", "--data", str(sim_dir / "data.csv"),
             "--roles", str(sel_dir / "selected_roles.json"),
             "--train-frac", "0.9", "--out-dir", str(fit_dir2)]
        )
        assert code == 0

    def test_select_1se_marks_a_pure_noise_covariate_ignore(self, tmp_path):
        gen = fm.MimicModel(
            loadings=[1.0, 0.8], intercepts=[0.0, 0.0], struct_coefs=[1.0, -0.5, 0.0], sens_coef=0.4,
            dif_offsets=[0.0, 0.0], resid_vars=[0.5, 0.5], latent_var=0.8, free_mask=[False, False],
            indicator_names=("y1", "y2"), covariate_names=("x1", "x2", "noise"), sensitive_coding=CODING,
        )
        spec = tmp_path / "simspec.json"
        spec.write_text(json.dumps(fm.SimSpec(n=300, model=gen, group_prob=0.5, seed=0).to_dict()))
        assert main(["simulate", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        code = main(
            ["select", "--data", str(tmp_path / "data.csv"), "--roles", str(tmp_path / "roles.json"),
             "--target", "y1", "--folds", "5", "--rule", "1se", "--out-dir", str(tmp_path / "sel")]
        )
        assert code == 0
        roles = json.loads((tmp_path / "sel" / "selected_roles.json").read_text())["roles"]
        assert [roles[c] for c in ("x1", "x2", "noise")] == ["covariate", "covariate", "ignore"]

    def test_select_carries_the_roles_transforms_to_fit(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "scripts" / "demo_simspec.json"
        sim, sel = tmp_path / "sim", tmp_path / "sel"
        assert main(["simulate", "--spec", str(demo), "--out-dir", str(sim)]) == 0
        roles = json.loads((sim / "roles.json").read_text())
        covariates = [c for c, r in roles["roles"].items() if r == "covariate"]
        (tmp_path / "roles.json").write_text(json.dumps({**roles, "standardize": covariates}))
        data = ["--data", str(sim / "data.csv")]
        code = main(["select", *data, "--roles", str(tmp_path / "roles.json"), "--target", "cost",
                     "--seed", "1", "--rule", "1se", "--out-dir", str(sel)])
        assert code == 0
        selected = json.loads((sel / "selected_roles.json").read_text())
        kept = [c for c in covariates if c not in ("noise1", "noise2")]
        assert [c for c in covariates if selected["roles"][c] == "covariate"] == kept
        assert selected["standardize"] == kept
        assert main(["fit", *data, "--roles", str(sel / "selected_roles.json"), "--out-dir", str(tmp_path / "fit")]) == 0
        record = json.loads((tmp_path / "fit" / "transform_record.json").read_text())
        assert sorted(record["standardize"]) == sorted(kept)

    @pytest.mark.parametrize("target", ["x1", "group", "nothere"])
    def test_select_target_must_be_an_indicator(self, sim_dir, tmp_path, capsys, target):
        code = main(
            ["select", "--data", str(sim_dir / "data.csv"), "--roles", str(sim_dir / "roles.json"),
             "--target", target, "--folds", "5", "--out-dir", str(tmp_path / "sel")]
        )
        assert code == 1
        assert f"column {target!r} is not an indicator column" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    def test_select_without_covariates_exits_1(self, sim_dir, tmp_path, capsys):
        roles = json.loads((sim_dir / "roles.json").read_text())
        roles["roles"] = {c: "ignore" if r == "covariate" else r for c, r in roles["roles"].items()}
        (tmp_path / "roles.json").write_text(json.dumps(roles))
        code = main(
            ["select", "--data", str(sim_dir / "data.csv"), "--roles", str(tmp_path / "roles.json"),
             "--out-dir", str(tmp_path / "sel")]
        )
        assert code == 1
        assert "fairmimic select: error: features have no columns" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    def test_schema_version_mismatch_exits_1(self, sim_dir, fit_dir, tmp_path):
        model = json.loads((fit_dir / "model.json").read_text())
        model["schema_version"] = 99
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model))
        code = main(
            ["score", "--model", str(bad), "--data", str(sim_dir / "data.csv"),
             "--roles", str(sim_dir / "roles.json"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 1


def read_score_columns(path) -> dict:
    """The row ids, fair scores and decisions of a scores.csv, as text, Python floats and ints."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "row_id": [r["row_id"] for r in rows],
        "fair_score": [float(r["fair_score"]) for r in rows],
        "decision": [int(r["decision"]) for r in rows],
    }


def test_flag_defaults_equal_the_library_defaults():
    # Each flag below mirrors a library default; parsing a subcommand with
    # only its required flags must give that default, so editing one copy
    # alone fails here.
    solver = {f.name: f.default for f in dataclasses.fields(fm.OptimOptions)}

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    mirrored = {
        "fit": {"max_iter": solver["max_iter"], "tol": solver["grad_tol"]},
        "dif": {"max_iter": solver["max_iter"], "tol": solver["grad_tol"]},
        "score": {
            "percentile": default(fm.score_dataset, "percentile"),
            "reference_level": default(fm.score_dataset, "reference_level"),
        },
        "audit": {"bins": default(fm.conditional_parity_curve, "n_bins")},
        "select": {
            "folds": default(fm.cv_select, "k_folds"),
            "seed": default(fm.cv_select, "seed"),
            "rule": default(fm.cv_select, "rule"),
        },
    }
    required = {
        "fit": [],
        "dif": [],
        "score": ["--model", "m"],
        "audit": ["--scores", "s"],
        "select": [],
    }
    parser = build_parser()
    for command, flags in mirrored.items():
        args = parser.parse_args([command, "--out-dir", "o", "--data", "d", "--roles", "r", *required[command]])
        assert {k: getattr(args, k) for k in flags} == flags, command


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this package."""
    src = str(Path(fm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


def test_import_leaves_scipy_stats_unloaded():
    # scipy would be about half of the import time that every command pays;
    # the package needs none of it, so no scipy module at all is loaded.
    proc = _run_python(
        "import sys, fairmimic.cli\n"
        "print([m in sys.modules for m in ('scipy.stats', 'scipy.linalg')])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[False, False]", "[]"]


NO_SCIPY_RUN = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is not importable here: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from fairmimic.cli import main

out = sys.argv[1]
data = ["--data", f"{out}/sim/data.csv", "--roles", f"{out}/sim/roles.json"]
codes = [
    main(["simulate", "--spec", f"{out}/simspec.json", "--out-dir", f"{out}/sim"]),
    main(["fit", *data, "--out-dir", f"{out}/fit"]),
    main(["dif", *data, "--out-dir", f"{out}/dif"]),
]
print(json.dumps(codes))
"""


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # scipy is a test oracle, not a runtime dependency: simulate, fit and a
    # DIF scan run through the CLI with every scipy import refused.
    spec = fm.SimSpec(n=600, model=make_generator(dif=(0.0, 0.0, 0.3, 0.0)), group_prob=0.5, seed=5)
    (tmp_path / "simspec.json").write_text(json.dumps(spec.to_dict()))
    proc = _run_python(NO_SCIPY_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"
    report = json.loads((tmp_path / "dif" / "dif_report.json").read_text())
    assert all(0.0 <= row["p_value"] <= 1.0 for row in report["rows"])

"""Subcommand behavior: files, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairmimic as fm
from fairmimic.cli import main

from conftest import make_generator


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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.linalg would be much of the import time that
    # every command pays; the package needs only scipy.special.
    src = str(Path(fm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fairmimic.cli; print([m in sys.modules for m in ('scipy.stats', 'scipy.linalg')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[False, False]"

"""Command-line pipeline: simulate, select, fit, score, audit, dif.

Every subcommand is a pure function of its input files, flags and seed;
rerunning with identical inputs produces byte-identical outputs.  Exit
codes: 0 success, 1 input or validation error, 2 numerical non-convergence.
After a subcommand returns 0 or 2, :func:`main` writes its flags to
``run_config.json`` in ``--out-dir``; after an error it writes nothing more.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import data as data_mod
from . import dif as dif_mod
from . import score as score_mod
from . import select as select_mod
from .estimate import OptimOptions, fit
from .exceptions import FairMimicError
from .model import dump_json, load_model, log_likelihood, save_model, template

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _read_json(path):
    return json.loads(Path(path).read_text())


def _echo_config(args: argparse.Namespace) -> None:
    """The run's flags, as ``run_config.json`` beside the command's outputs."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    dump_json(config, Path(args.out_dir) / "run_config.json")


def _load_dataset(args):
    """The ``--data`` table under the ``--roles`` config, and the config's
    transforms: its ``log1p`` and ``standardize`` entries, those present,
    keyed as :func:`~fairmimic.data.transform` takes them."""
    roles = _read_json(args.roles)
    transforms = {key: roles[key] for key in ("log1p", "standardize") if key in roles}
    return data_mod.load_csv(args.data, roles), transforms


def _optim_options(args) -> OptimOptions:
    return OptimOptions(max_iter=args.max_iter, grad_tol=args.tol)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec = data_mod.SimSpec.from_dict(_read_json(args.spec))
    if args.seed is not None:
        spec = data_mod.SimSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    dataset, latent = data_mod.simulate(spec)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_csv(dataset, out / "data.csv")
    data_mod.write_table(out / "latent.csv", ("row_id", "latent"), (dataset.column(dataset.id_name), latent))
    dump_json(data_mod.role_config_of(dataset), out / "roles.json")
    return EXIT_OK


def cmd_fit(args) -> int:
    if not 0.0 < args.train_frac <= 1.0:
        raise ValueError(f"--train-frac must be in (0, 1], got {args.train_frac}")
    train, transforms = _load_dataset(args)
    test = None
    if args.train_frac < 1.0:  # the parts are copies: rebinding train frees the loaded table
        train, test = data_mod.split(train, args.train_frac, args.seed)
    train, record = data_mod.transform(train, **transforms)
    if test is not None:
        test = record.apply(test)

    spec = template(
        train.indicator_names,
        train.covariate_names,
        train.sensitive_coding,
        free_dif=args.free_dif or (),
    )
    result = fit(spec, train, _optim_options(args))

    report = result.to_dict()
    report["n_train"] = train.n
    report["n_test"] = 0 if test is None else test.n
    report["holdout_loglik"] = None if test is None else log_likelihood(result.model, test)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(result.model, out / "model.json")
    dump_json(report, out / "fit_report.json")
    dump_json(record.to_dict(), out / "transform_record.json")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_score(args) -> int:
    model = load_model(args.model)
    dataset, transforms = _load_dataset(args)
    if args.transform is not None:
        record = data_mod.TransformRecord.from_dict(_read_json(args.transform))
        dataset = record.apply(dataset)
    elif any(transforms.values()):
        raise FairMimicError(
            "the roles declare log1p/standardize transforms; pass the fit's "
            "transform_record.json with --transform, so the rows are scored "
            "with the training statistics"
        )

    reference_scores = None
    if args.reference_scores is not None:
        reference_scores = score_mod.read_scores(args.reference_scores)["fair_score"]

    scores = score_mod.score_dataset(
        model,
        dataset,
        percentile=args.percentile,
        reference_level=args.reference_level,
        reference_scores=reference_scores,
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scores.to_csv(out / "scores.csv")
    dump_json(scores.summary_dict(), out / "score_summary.json")
    return EXIT_OK


def cmd_audit(args) -> int:
    dataset, _ = _load_dataset(args)
    scores = score_mod.read_scores(args.scores)
    if len(scores["row_id"]) != dataset.n:
        raise FairMimicError(
            f"scores file has {len(scores['row_id'])} rows, data has {dataset.n}"
        )
    id_name = dataset.id_name
    if id_name is not None and not np.array_equal(dataset.column(id_name), scores["row_id"]):
        raise FairMimicError("row_id column of scores does not match the data ids")

    proxy_name = args.proxy or dataset.indicator_names[0]
    (proxy,) = dataset.role_columns([proxy_name], "indicator")
    sensitive = dataset.sensitive_labels()

    parity = audit_mod.statistical_parity(scores["decision"], sensitive)
    curves = {
        "fair": audit_mod.conditional_parity_curve(
            scores["fair_score"], sensitive, proxy, n_bins=args.bins
        ),
        "naive": audit_mod.conditional_parity_curve(
            scores["naive_score"], sensitive, proxy, n_bins=args.bins
        ),
    }

    report = {
        "schema_version": 1,
        "proxy": proxy_name,
        "statistical_parity": parity.to_dict(),
        "curves": {k: v.to_dict() for k, v in curves.items()},
        "comparison": {
            "mean_abs_gap_fair": curves["fair"].mean_abs_gap,
            "mean_abs_gap_naive": curves["naive"].mean_abs_gap,
        },
    }
    if args.model is not None:
        model = load_model(args.model)
        X = dataset.covariate_matrix(model.covariate_names)
        report["counterfactual_discrepancy"] = {
            "fair": audit_mod.counterfactual_check(model, X, score="fair"),
            "naive": audit_mod.counterfactual_check(model, X, score="naive"),
        }
    if args.outcome_col is not None:
        # as floats, so that predictive_parity refuses a 0.5 an integer cast would truncate to 0
        outcome = dataset.column(args.outcome_col).astype(np.float64)
        report["predictive_parity"] = audit_mod.predictive_parity(
            scores["decision"], outcome, sensitive
        ).to_dict()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(report, out / "audit_report.json")
    rows = [row for name, curve in curves.items() for row in curve.csv_rows(name)]
    data_mod.write_table(
        out / "parity_curve.csv",
        ("score_type", *audit_mod.ConditionalParityCurve.CSV_HEADER),
        list(zip(*rows)),
    )
    return EXIT_OK


def cmd_dif(args) -> int:
    dataset, transforms = _load_dataset(args)
    dataset, _ = data_mod.transform(dataset, **transforms)
    base = template(
        dataset.indicator_names, dataset.covariate_names, dataset.sensitive_coding
    )
    report = dif_mod.dif_scan(base, dataset, options=_optim_options(args))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(report.to_dict(), out / "dif_report.json")
    (out / "dif_table.txt").write_text(report.to_text_table())
    return EXIT_OK


def cmd_select(args) -> int:
    dataset, transforms = _load_dataset(args)
    (target,) = dataset.role_columns([args.target or dataset.indicator_names[0]], "indicator")
    names = dataset.covariate_names
    features = dataset.covariate_matrix(names)

    path = select_mod.cv_select(
        features,
        target,
        k_folds=args.folds,
        seed=args.seed,
        rule=args.rule,
        feature_names=names,
    )

    active = set(path.active_names())
    selected_roles = data_mod.role_config_of(dataset)
    kept = selected_roles["roles"]
    for c in names:
        if c not in active:
            kept[c] = "ignore"
    for key, columns in transforms.items():  # on the columns still modelled
        selected_roles[key] = [c for c in columns if kept.get(c) in ("indicator", "covariate")]

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(path.to_dict(), out / "lasso_path.json")
    dump_json(selected_roles, out / "selected_roles.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmimic",
        description="Fair risk scoring on error-prone outcomes via a MIMIC measurement model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        p.add_argument("--out-dir", required=True, help="directory for output files")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
            p.add_argument("--roles", required=True, help="role-config JSON")

    def add_solver(p):
        p.add_argument("--max-iter", type=int, default=OptimOptions.max_iter)
        p.add_argument("--tol", type=float, default=OptimOptions.grad_tol, help="converged: gradient norm below this")

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a SimSpec")
    p.add_argument("--spec", required=True, help="SimSpec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the SimSpec seed")
    add_common(p, data=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the measurement model")
    add_common(p)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0, help="split seed")
    add_solver(p)
    p.add_argument("--free-dif", nargs="*", default=None, help="indicators with a free dif offset")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="produce fair and naive risk scores")
    add_common(p)
    p.add_argument("--model", required=True, help="model.json from fit")
    p.add_argument("--transform", default=None, help="transform_record.json from fit")
    p.add_argument("--percentile", type=float, default=55.0)
    p.add_argument("--reference-level", default=None)
    p.add_argument("--reference-scores", default=None, help="scores.csv defining the threshold")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("audit", help="fairness diagnostics for a score set")
    add_common(p)
    p.add_argument("--scores", required=True, help="scores.csv from score")
    p.add_argument("--proxy", default=None, help="proxy indicator to audit (default: first indicator)")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--model", default=None, help="model.json for the counterfactual check")
    p.add_argument("--outcome-col", default=None, help="binary outcome column for PPV parity")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("dif", help="scan indicators for differential item functioning")
    add_common(p)
    add_solver(p)
    p.set_defaults(func=cmd_dif)

    p = sub.add_parser("select", help="LASSO feature selection with cross-validation")
    add_common(p)
    p.add_argument("--target", default=None, help="target indicator column (default: first indicator)")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", choices=("min", "1se"), default="min")
    p.set_defaults(func=cmd_select)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        _echo_config(args)
    except (FairMimicError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"fairmimic {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())

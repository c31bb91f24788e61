"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness calls
``run_pass`` again only after the previous pass returned.  A workload makes
every input from the seed it is given, calls the package only through module
attributes (so the tracer's patches apply), and checks its outputs after the
timed passes.

* ``dif_mc``: the Monte-Carlo simulate + dif_scan load of the test suite.
* ``pipeline_csv``: the CLI pipeline through files at n=100k.
* ``select_cv``: cross-validated LASSO on a 20k x 30 design.
* ``score_audit_1m``: in-memory scoring and auditing of 1M rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from fairmimic import audit, cli, data, dif, estimate, model, score, select

WORK_DIR = Path(".perfbench_work")

CODING = {"a": 0, "b": 1}

# Generating model of the CLI demo (p=4 indicators, q=6 covariates), copied
# here with the suite generator below so that the benchmark's inputs do not
# change when the demo or the tests do.
DEMO_MODEL = {
    "schema_version": 1,
    "indicator_names": ["cost", "chronic", "pressure", "renal"],
    "covariate_names": ["age", "util", "biomarker", "comorbid", "noise1", "noise2"],
    "loadings": [1.0, 0.8, 0.7, 0.9],
    "intercepts": [5.0, 2.0, 0.0, 1.0],
    "struct_coefs": [0.8, 0.5, 0.4, 0.6, 0.0, 0.0],
    "sens_coef": 0.3,
    "dif_offsets": [-0.2, 0.3, 0.0, 0.0],
    "resid_vars": [0.6, 0.5, 0.7, 0.5],
    "latent_var": 0.5,
    "free_mask": [True, True, False, False],
    "sensitive_coding": {"w": 0, "b": 1},
}
DEMO_GROUP_PROB = 0.45


def child_seed(*key) -> int:
    """Deterministic 32-bit seed derived from the workload seed and a key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def suite_generator(dif=(0.0, 0.0, 0.0, 0.0)):
    """The test suite's standard p=4, q=3 generating model."""
    dif = np.asarray(dif, dtype=float)
    return model.MimicModel(
        loadings=[1.0, 0.8, 1.2, 0.6],
        intercepts=[0.5, -0.2, 1.0, 0.0],
        struct_coefs=[1.0, -0.5, 0.3],
        sens_coef=0.4,
        dif_offsets=dif,
        resid_vars=[0.5, 0.4, 0.6, 0.5],
        latent_var=0.8,
        free_mask=dif != 0.0,
        indicator_names=("y1", "y2", "y3", "y4"),
        covariate_names=("x1", "x2", "x3"),
        sensitive_coding=CODING,
    )


def flip_labels(ds):
    """Copy of ``ds`` with every row's sensitive label swapped."""
    zero, one = sorted(ds.sensitive_coding, key=ds.sensitive_coding.get)
    labels = ds.sensitive_labels()
    flipped = np.where(labels == zero, one, zero).astype(object)
    return ds.replace_columns({ds.sensitive_name: flipped})


def by_kind(ops) -> dict:
    """Durations of the operations grouped by kind, in order of first use."""
    kinds = {}
    for kind, dt, _ in ops:
        kinds.setdefault(kind, []).append(dt)
    return kinds


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it:
    (percentile, value), or None with fewer than 11 samples."""
    m = len(values)
    if m < 11:
        return None
    return 100.0 * (m - 10) / m, sorted(values)[m - 11]


def tree_digest(root: Path) -> dict:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Recorder:
    """Operations of one pass: kind, seconds, success."""

    def __init__(self, traced=False):
        self.traced = traced
        self.ops = []

    def op(self, kind, fn):
        """Time ``fn()``; it returns (ok, value).  An exception counts as a
        failed operation and is reported, not raised."""
        t0 = time.perf_counter()
        try:
            ok, value = fn()
        except Exception as exc:  # a failed operation; the loop keeps running
            ok, value = False, f"{type(exc).__name__}: {exc}"
        self.ops.append((kind, time.perf_counter() - t0, bool(ok)))
        return ok, value


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


# ---------------------------------------------------------------------------


class DifMc:
    """Blocks of three simulate + dif_scan operations: two n=400 scans
    without DIF and one n=5000 scan with delta_3 = 0.2 injected, the 2:1
    ratio of the Monte-Carlo test fixtures."""

    name = "dif_mc"
    BLOCK = (("null", 400), ("null", 400), ("injected", 5000))
    INJECTED = 0.2
    INJECTED_INDICATOR = "y3"

    def __init__(self, seed):
        self.seed = seed
        self.lr_stats = []
        self.row_errors = []
        self.injected = []  # (delta, se) per n=5000 scan

    def setup(self):
        gens = {
            "null": suite_generator(),
            "injected": suite_generator(dif=(0.0, 0.0, self.INJECTED, 0.0)),
        }
        base = model.template(("y1", "y2", "y3", "y4"), ("x1", "x2", "x3"), CODING)
        warm, _ = data.simulate(data.SimSpec(n=400, model=gens["null"], group_prob=0.5, seed=child_seed(self.seed, 0)))
        dif.dif_scan(base, warm)
        return {"gens": gens, "base": base}

    def run_pass(self, state, index, rec):
        for k, (kind, n) in enumerate(self.BLOCK):
            spec = data.SimSpec(
                n=n, model=state["gens"][kind], group_prob=0.5, seed=child_seed(self.seed, 1, index, k)
            )
            ds, _ = data.simulate(spec)
            rec.op(f"scan_n{n}", lambda: self._scan(state["base"], ds, kind))

    def _scan(self, base, ds, kind):
        report = dif.dif_scan(base, ds)
        ok = True
        for row in report.rows:
            if row.error is not None or not row.converged:
                self.row_errors.append(f"{row.indicator}: {row.error or 'not converged'}")
                ok = False
            else:
                self.lr_stats.append(row.lr_statistic)
        if kind == "injected":
            row = next(r for r in report.rows if r.indicator == self.INJECTED_INDICATOR)
            if row.error is None:
                self.injected.append((row.delta, (row.ci_high - row.ci_low) / (2 * estimate.WALD_Z)))
        return ok, report

    def report(self, ops, wall):
        scans = by_kind(ops)
        small, large = scans.get("scan_n400", []), scans.get("scan_n5000", [])
        t = tail(small)
        return [
            f"scans_per_s = {len(ops) / sum(dt for _, dt, _ in ops):.4g} 1/s",
            f"scan_n400_p50_ms = {1e3 * statistics.median(small):.1f} ms (n={len(small)})",
            "scan_n400_tail_ms = n/a (fewer than 11 samples)" if t is None
            else f"scan_n400_tail_ms = {1e3 * t[1]:.1f} ms at p{t[0]:.1f} (n={len(small)})",
            f"scan_n5000_p50_ms = {1e3 * statistics.median(large):.1f} ms (n={len(large)})",
        ]

    def check(self, state, checks):
        checks.add("dif rows without errors", not self.row_errors, "; ".join(self.row_errors[:3]))
        checks.add(
            "LR statistics >= 0",
            self.lr_stats and min(self.lr_stats) >= 0.0,
            f"min {min(self.lr_stats, default=float('nan')):.3g} over {len(self.lr_stats)} rows",
        )
        m = len(self.injected)
        if m == 0:
            checks.add("mean injected delta in Monte-Carlo band", False, "no n=5000 scan finished")
            return
        deltas = np.array([d for d, _ in self.injected])
        ses = np.array([s for _, s in self.injected])
        # 4 standard errors of a mean of m independent estimates
        band = 4.0 * float(np.sqrt(np.mean(ses**2) / m))
        mean = float(deltas.mean())
        checks.add(
            "mean injected delta in Monte-Carlo band",
            abs(mean - self.INJECTED) <= band,
            f"mean {mean:.4f} over {m} scans, band 0.2 +/- {band:.4f}",
        )


# ---------------------------------------------------------------------------


class PipelineCsv:
    """simulate -> fit -> score -> audit through ``fairmimic.cli.main`` on
    the demo model at n=100k, every pass into the same output directory."""

    name = "pipeline_csv"
    N = 100_000
    COMMANDS = ("simulate", "fit", "score", "audit")

    def __init__(self, seed):
        self.seed = seed
        self.root = WORK_DIR / self.name
        self.digests = []  # (traced, digest) per finished pass
        self.codes = []

    def _write_inputs(self, where: Path, n: int):
        where.mkdir(parents=True, exist_ok=True)
        simspec = {
            "schema_version": 1,
            "n": n,
            "seed": child_seed(self.seed, 1),
            "group_prob": DEMO_GROUP_PROB,
            "sensitive_column": "group",
            "id_column": "id",
            "model": DEMO_MODEL,
        }
        roles = {"id": "id", "group": "sensitive"}
        roles.update({c: "covariate" for c in DEMO_MODEL["covariate_names"]})
        roles.update({c: "indicator" for c in DEMO_MODEL["indicator_names"]})
        roles_fit = {
            "roles": roles,
            "sensitive_coding": DEMO_MODEL["sensitive_coding"],
            "standardize": list(DEMO_MODEL["covariate_names"]),
            "log_scale": ["cost"],
        }
        (where / "simspec.json").write_text(json.dumps(simspec, indent=2, sort_keys=True) + "\n")
        (where / "roles_fit.json").write_text(json.dumps(roles_fit, indent=2, sort_keys=True) + "\n")

    def _argv(self, inp: Path, out: Path):
        sim, fit, sco, aud = (str(out / c) for c in self.COMMANDS)
        roles = str(inp / "roles_fit.json")
        return {
            "simulate": ["simulate", "--spec", str(inp / "simspec.json"), "--out-dir", sim],
            "fit": ["fit", "--data", f"{sim}/data.csv", "--roles", roles,
                    "--train-frac", "0.7", "--seed", "0", "--out-dir", fit],
            "score": ["score", "--data", f"{sim}/data.csv", "--roles", roles,
                      "--model", f"{fit}/model.json", "--transform", f"{fit}/transform_record.json",
                      "--out-dir", sco],
            "audit": ["audit", "--data", f"{sim}/data.csv", "--roles", roles,
                      "--scores", f"{sco}/scores.csv", "--model", f"{fit}/model.json",
                      "--proxy", "chronic", "--out-dir", aud],
        }

    def setup(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self._write_inputs(self.root / "in", self.N)
        warm = self.root / "warm"
        self._write_inputs(warm / "in", 2000)
        for argv in self._argv(warm / "in", warm / "out").values():
            cli.main(argv)
        shutil.rmtree(warm)
        return {"in": self.root / "in", "out": self.root / "out"}

    def run_pass(self, state, index, rec):
        out = state["out"]
        shutil.rmtree(out, ignore_errors=True)
        codes = []
        for name, argv in self._argv(state["in"], out).items():
            _, code = rec.op(name, lambda: self._cli(argv))
            codes.append((name, code))
        self.codes.append(codes)
        self.digests.append((rec.traced, tree_digest(out)))

    @staticmethod
    def _cli(argv):
        code = cli.main(argv)
        return code == 0, code

    def check(self, state, checks):
        bad = [(n, c) for codes in self.codes for n, c in codes if c != 0]
        checks.add("every CLI exit code is 0", not bad, str(bad[:4]))
        out = state["out"]
        report = json.loads((out / "fit" / "fit_report.json").read_text())
        checks.add("fit converged", report.get("converged") is True, f"grad_norm {report.get('grad_norm')}")

        first = self.digests[0][1]
        differing = sorted(
            {f for _, d in self.digests for f in set(d) | set(first) if d.get(f) != first.get(f)}
        )
        traced = [t for t, _ in self.digests]
        label = "untraced and traced passes" if any(traced) else "passes"
        checks.add(
            f"output files identical across {len(self.digests)} {label}",
            len(self.digests) >= 2 and not differing,
            ", ".join(differing[:4]) or f"{len(first)} files",
        )

        roles = json.loads((state["in"] / "roles_fit.json").read_text())
        ds = data.load_csv(out / "simulate" / "data.csv", roles)
        record = data.TransformRecord.from_dict(json.loads((out / "fit" / "transform_record.json").read_text()))
        fitted = model.load_model(out / "fit" / "model.json")
        cli_fair = _read_score_column(out / "score" / "scores.csv", "fair_score")
        _check_flip(checks, fitted, record.apply(ds), cli_fair)

    def report(self, ops, wall):
        lines = [
            f"{kind}_s = {statistics.median(v):.4f} s (median of {len(v)})" for kind, v in by_kind(ops).items()
        ]
        if self.digests:
            tree = json.dumps(self.digests[0][1], sort_keys=True).encode()
            lines.append(f"output tree sha256 {hashlib.sha256(tree).hexdigest()}")
        return lines


def _read_score_column(path, column):
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([float(r[column]) for r in csv.DictReader(fh)])


def _check_flip(checks, fitted, ds, fair):
    """Score a label-flipped copy of ``ds``: the fair scores must equal
    ``fair`` bit for bit, and the naive scores must change (which shows the
    flip reached the scorer)."""
    flipped = score.score_dataset(fitted, flip_labels(ds))
    checks.add(
        "fair scores bit-identical with every sensitive label flipped",
        np.array_equal(flipped.fair, fair),
        f"{int(np.sum(flipped.fair != fair))} of {fair.size} rows differ",
    )
    original_naive = score.score_dataset(fitted, ds).naive
    checks.add(
        "naive scores change with every sensitive label flipped",
        not np.array_equal(flipped.naive, original_naive),
    )


# ---------------------------------------------------------------------------


class SelectCv:
    """``cv_select`` on a 20k x 30 Gaussian design with a planted 5-sparse
    support, 10 folds and the default 100-point penalty grid."""

    name = "select_cv"
    N, Q = 20_000, 30
    SUPPORT = (3, 8, 14, 19, 26)
    COEFS = (1.5, -1.2, 1.0, -0.8, 0.6)

    def __init__(self, seed):
        self.seed = seed
        self.paths = []

    def setup(self):
        # The planted model is fixed so that the solver's work depends on the
        # seed only through the sampled design and noise.
        rng = np.random.default_rng(child_seed(self.seed, 1))
        F = rng.standard_normal((self.N, self.Q))
        w = np.zeros(self.Q)
        w[list(self.SUPPORT)] = self.COEFS
        y = 0.7 + F @ w + rng.standard_normal(self.N)
        warm_rng = np.random.default_rng(child_seed(self.seed, 2))
        Fw = warm_rng.standard_normal((300, 6))
        select.cv_select(Fw, Fw[:, 0] - Fw[:, 3] + warm_rng.standard_normal(300), k_folds=5)
        return {"F": F, "y": y}

    def run_pass(self, state, index, rec):
        def op():
            path = select.cv_select(state["F"], state["y"], k_folds=10, seed=0)
            self.paths.append(path)
            return True, path

        rec.op("cv_select", op)

    def report(self, ops, wall):
        return []

    def check(self, state, checks):
        if not self.paths:
            checks.add("cv_select finished", False)
            return
        path = self.paths[-1]
        active = set(path.active_set)
        checks.add(
            "planted support inside the active set",
            set(self.SUPPORT) <= active,
            f"support {self.SUPPORT}, active {sorted(active)}",
        )
        F, y = state["F"], state["y"]
        w, b0, pen = path.chosen_coefs, path.chosen_intercept, path.chosen_penalty
        g = (F - F.mean(axis=0)).T @ (y - b0 - F @ w) / F.shape[0]
        on = w != 0.0
        viol = np.concatenate([np.abs(g[on] - pen * np.sign(w[on])), np.maximum(np.abs(g[~on]) - pen, 0.0)])
        checks.add("KKT conditions at the chosen penalty", viol.max() <= 1e-5, f"max violation {viol.max():.2e}")
        same = all(np.array_equal(p.coefs, path.coefs) for p in self.paths)
        checks.add("identical paths across passes", same)


# ---------------------------------------------------------------------------


class ScoreAudit1m:
    """score_dataset -> statistical_parity -> two conditional parity curves
    -> two counterfactual checks -> predictive_parity on 1M in-memory rows,
    with the model fitted on a 20k-row sample in set-up."""

    name = "score_audit_1m"
    N = 1_000_000
    N_TRAIN = 20_000
    PROXY = "chronic"

    def __init__(self, seed):
        self.seed = seed
        self.last = None

    def setup(self):
        gen = model.MimicModel.from_dict(DEMO_MODEL)
        ds, latent = data.simulate(
            data.SimSpec(n=self.N, model=gen, group_prob=DEMO_GROUP_PROB, seed=child_seed(self.seed, 1))
        )
        train, _ = data.simulate(
            data.SimSpec(n=self.N_TRAIN, model=gen, group_prob=DEMO_GROUP_PROB, seed=child_seed(self.seed, 2))
        )
        base = model.template(gen.indicator_names, gen.covariate_names, gen.sensitive_coding)
        result = estimate.fit(base, train)
        if not result.converged:
            raise RuntimeError("set-up fit did not converge")
        outcome = (latent > np.median(latent)).astype(np.int64)
        state = {"model": result.model, "data": ds, "outcome": outcome}
        warm = ds.subset(np.arange(10_000))
        self._pass(state["model"], warm, outcome[:10_000], Recorder())
        return state

    def run_pass(self, state, index, rec):
        self.last = self._pass(state["model"], state["data"], state["outcome"], rec)

    def _pass(self, fitted, ds, outcome, rec):
        out = {}
        sens = ds.sensitive_labels()
        proxy = ds.column(self.PROXY)

        def step(name, fn):
            ok, value = rec.op(name, lambda: (True, fn()))
            out[name] = value if ok else None

        step("score_dataset", lambda: score.score_dataset(fitted, ds))
        scores = out["score_dataset"]
        if scores is None:
            return out
        step("statistical_parity", lambda: audit.statistical_parity(scores.decision, sens))
        step("curve_fair", lambda: audit.conditional_parity_curve(scores.fair, sens, proxy))
        step("curve_naive", lambda: audit.conditional_parity_curve(scores.naive, sens, proxy))
        X = ds.covariate_matrix(fitted.covariate_names)
        step("counterfactual_fair", lambda: audit.counterfactual_check(fitted, X, None, "fair"))
        step("counterfactual_naive", lambda: audit.counterfactual_check(fitted, X, None, "naive"))
        step("predictive_parity", lambda: audit.predictive_parity(scores.decision, outcome, sens))
        return out

    def report(self, ops, wall):
        return [f"rows_per_s = {self.N / statistics.median(wall):.4g} rows/s"] + [
            f"{kind}_ms = {1e3 * statistics.median(v):.1f} ms" for kind, v in by_kind(ops).items()
        ]

    def check(self, state, checks):
        out = self.last or {}
        n = state["data"].n
        for name in ("curve_fair", "curve_naive"):
            curve = out.get(name)
            total = sum(b.count for b in curve.bins) if curve is not None else None
            checks.add(f"{name} counts sum to n", total == n, f"{total} of {n}")
        scores = out.get("score_dataset")
        if scores is None:
            checks.add("scores produced", False)
            return
        _check_flip(checks, state["model"], state["data"], scores.fair)


WORKLOADS = {w.name: w for w in (DifMc, PipelineCsv, SelectCv, ScoreAudit1m)}

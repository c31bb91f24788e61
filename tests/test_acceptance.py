"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fairmimic as fm

from conftest import CODING, base_template, extract_arrays, ll_value, make_generator, simulate_from

REPO = Path(__file__).resolve().parent.parent


import conftest


def _report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}: {desc}{extra}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {desc}{extra}"


def test_criterion_01_gradient_correctness():
    gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
    data, _ = simulate_from(gen, n=150, seed=201)
    Y, X, s = extract_arrays(gen, data)
    x0 = fm.pack(gen)
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x = x0 + rng.normal(scale=0.05, size=x0.shape)
        grad = fm.log_likelihood_grad(fm.unpack(gen, x), data)
        fd = np.zeros_like(x)
        h = 1e-5
        for k in range(len(x)):
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            fd[k] = (ll_value(xp, gen, Y, X, s) - ll_value(xm, gen, Y, X, s)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "analytic gradient vs central differences at 20 random points",
        worst < 1e-6 and elapsed < 10.0,
        f" (max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_parameter_recovery():
    gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
    spec = base_template(gen, free_dif=("y2",))
    truth = fm.pack(gen)
    t0 = time.perf_counter()
    successes = 0
    for seed in range(20):
        data, _ = simulate_from(gen, n=5000, seed=1000 + seed)
        res = fm.fit(spec, data)
        est = fm.pack(res.model)
        within_3se = res.converged and np.all(np.abs(est - truth) <= 3.0 * res.std_errors)
        loadings_ok = np.max(np.abs(res.model.loadings - gen.loadings)) < 0.05
        if within_3se and loadings_ok:
            successes += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "every free parameter within 3 SEs and loadings within 0.05",
        successes >= 18 and elapsed < 120.0,
        f" ({successes}/20 runs, {elapsed:.1f}s)",
    )


def test_criterion_03_lr_test_calibration(null_dif_study, injected_dif_study):
    rates = []
    for j in range(4):
        p = np.array([rep.rows[j].p_value for rep in null_dif_study])
        rates.append(float((p < 0.05).mean()))
    null_ok = all(0.02 <= r <= 0.09 for r in rates)

    power_p = np.array([rep.rows[2].p_value for rep in injected_dif_study])
    power = float((power_p < 0.05).mean())
    _report(
        3,
        "LR rejection rate in [0.02, 0.09] under the null and >= 0.95 under delta = 0.2",
        null_ok and power >= 0.95,
        f" (null rates {['%.3f' % r for r in rates]}, power {power:.2f})",
    )


def test_criterion_04_dif_ci_coverage(injected_dif_study):
    covered = sum(
        1 for rep in injected_dif_study if rep.rows[2].ci_low <= 0.2 <= rep.rows[2].ci_high
    )
    _report(
        4,
        "95% Wald CI covers the injected delta = 0.2 in >= 88/100 replications",
        covered >= 88,
        f" ({covered}/100)",
    )


def test_criterion_05_counterfactual_invariance():
    checks = []
    for seed, gamma, dif in [(301, 0.4, (0.0, 0.3, 0.0, 0.0)), (302, -0.7, (0.0, 0.0, 0.0, 0.0)), (303, 0.0, (0.2, 0.0, 0.0, 0.0))]:
        gen = make_generator(gamma=gamma, dif=dif)
        data, _ = simulate_from(gen, n=1200, seed=seed)
        res = fm.fit(base_template(gen, free_dif=tuple(n for n, d in zip(gen.indicator_names, dif) if d)), data)
        X = data.covariate_matrix(res.model.covariate_names)
        # same covariates under both group assignments, bitwise
        score_as_0 = fm.fair_score(res.model, X)
        score_as_1 = fm.fair_score(res.model, X)
        checks.append(np.array_equal(score_as_0, score_as_1))
        checks.append(fm.counterfactual_check(res.model, X, score="fair") == 0.0)
        # rows that differ only in the sensitive attribute get identical rows
        X_pair = np.vstack([X[:5], X[:5]])
        pair_scores = fm.fair_score(res.model, X_pair)
        checks.append(np.array_equal(pair_scores[:5], pair_scores[5:]))
    _report(5, "fair scores bitwise invariant to the sensitive attribute", all(checks))


def test_criterion_06_figure_3_4_qualitative_reproduction():
    # group-shifted covariates, strong negative DIF plus an idiosyncratic
    # covariate path on the scored cost-like proxy, near-zero DIF on the
    # audited renal-like proxy, small nonzero latent group effect
    gen = fm.MimicModel(
        loadings=[1.0, 0.9, 0.8, 0.7],
        intercepts=[1.0, 0.0, 0.5, 2.0],
        struct_coefs=[1.0, 0.7, 0.5],
        sens_coef=0.1,
        dif_offsets=[-0.5, 0.45, -0.25, -0.02],
        resid_vars=[1.0, 0.5, 0.5, 0.5],
        latent_var=0.3,
        free_mask=[True, True, True, True],
        indicator_names=("y1", "y2", "y3", "y4"),
        covariate_names=("x1", "x2", "x3"),
        sensitive_coding=CODING,
    )
    cross = np.zeros((4, 3))
    cross[0, 0] = -0.6
    spec = fm.SimSpec(
        n=24_000,
        model=gen,
        group_prob=0.5,
        seed=314,
        group_shift=np.array([1.2, 0.0, 0.0]),
        cross_loadings=cross,
    )
    data, _ = fm.simulate(spec)
    train, audit_split = fm.split(data, 1.0 / 6.0, seed=0)

    mimic = fm.fit(base_template(gen), train)
    assert mimic.converged
    X_audit = audit_split.covariate_matrix(mimic.model.covariate_names)
    s_audit = audit_split.sensitive_codes()
    fair = fm.fair_score(mimic.model, X_audit)

    # single-proxy regression of the cost-like indicator on [1, X, S]
    design = np.column_stack([np.ones(train.n), train.covariate_matrix(), train.sensitive_codes()])
    coef, *_ = np.linalg.lstsq(design, train.column("y1"), rcond=None)
    naive_proxy = coef[0] + X_audit @ coef[1:4] + coef[4] * s_audit  # open path
    corrected_proxy = coef[0] + X_audit @ coef[1:4]  # blocked at reference

    proxy = audit_split.column("y4")
    labels = audit_split.sensitive_labels()
    gap_naive = fm.conditional_parity_curve(naive_proxy, labels, proxy, 10).mean_abs_gap
    gap_corr = fm.conditional_parity_curve(corrected_proxy, labels, proxy, 10).mean_abs_gap
    gap_fair = fm.conditional_parity_curve(fair, labels, proxy, 10).mean_abs_gap

    ordering = gap_naive > gap_corr > gap_fair
    ratio = gap_fair / gap_naive
    _report(
        6,
        "parity summary: naive proxy > corrected proxy > latent fair, fair < 25% of naive",
        ordering and ratio < 0.25,
        f" (gaps {gap_naive:.3f} > {gap_corr:.3f} > {gap_fair:.3f}, ratio {ratio:.2f})",
    )


def test_criterion_07_percent_effect_spot_check():
    pct, _ = fm.percent_effect(0.198, (0.172, 0.225))
    err = abs(pct - 21.9)
    _report(7, "percent effect of delta = 0.198 is 21.9%", err < 0.05, f" (off by {err:.3f}pp)")


def test_criterion_08_lasso_oracles():
    ok = True
    notes = []

    rng = np.random.default_rng(401)
    F = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    pen = 0.4 * fm.penalty_max(F, y)
    w, b0 = fm.lasso_fit(F, y, pen)
    r = y - b0 - F @ w
    for j in range(3):
        g = F[:, j] @ r / 6
        if w[j] == 0.0:
            ok &= abs(g) <= pen + 1e-5
        else:
            ok &= abs(g - pen * np.sign(w[j])) <= 1e-5
    notes.append("KKT")

    F, yq = rng.normal(size=(80, 4)), None
    w_true = np.array([1.0, -0.5, 0.0, 2.0])
    yq = 0.3 + F @ w_true + 0.5 * rng.normal(size=80)
    w0, b0 = fm.lasso_fit(F, yq, 0.0)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(80), F]), yq, rcond=None)
    ok &= bool(np.max(np.abs(w0 - coef[1:])) < 1e-6 and abs(b0 - coef[0]) < 1e-6)
    notes.append("unpenalized=OLS")

    F = rng.normal(size=(500, 10))
    y_exact = 2.0 * F[:, 3] - 1.5 * F[:, 7]
    path = fm.cv_select(F, y_exact, k_folds=10, seed=0)
    ok &= path.active_set == (3, 7)
    notes.append("planted support")

    _report(8, "LASSO KKT, unpenalized limit, planted-support recovery", bool(ok), f" ({', '.join(notes)})")


def test_criterion_09_spearman_oracle():
    exact = (
        abs(fm.spearman([1.0, 2.0, 3.0], [5.0, 6.0, 7.0]) - 1.0) < 1e-12
        and abs(fm.spearman([1.0, 2.0, 3.0], [7.0, 6.0, 5.0]) + 1.0) < 1e-12
        and abs(fm.spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) - 0.5) < 1e-12
    )
    invariant = True
    rng = np.random.default_rng(402)
    monotone_maps = [np.exp, np.arctan, lambda v: v**3, lambda v: 5.0 * v - 2.0]
    for i in range(100):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        base = fm.spearman(a, b)
        f = monotone_maps[i % len(monotone_maps)]
        invariant &= abs(fm.spearman(f(a), b) - base) < 1e-12
        invariant &= abs(fm.spearman(a, f(b)) - base) < 1e-12
    _report(9, "Spearman hand cases exact, monotone-transform invariant (100 cases)", exact and invariant)


def test_criterion_10_demo_determinism(tmp_path):
    script = REPO / "scripts" / "run_demo.py"
    out = tmp_path / "demo"

    def run():
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(script), str(out)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        snapshot = {str(p): (out / p).read_bytes() for p in files}
        return snapshot, elapsed

    snap1, t1 = run()
    shutil.rmtree(out)
    snap2, t2 = run()

    identical = snap1.keys() == snap2.keys() and all(snap1[k] == snap2[k] for k in snap1)
    fast = t1 < 60.0 and t2 < 60.0
    _report(
        10,
        "demo pipeline byte-identical across runs and under 60 s",
        identical and fast,
        f" ({len(snap1)} files, runs {t1:.1f}s / {t2:.1f}s)",
    )

"""LASSO coordinate descent, cross-validated selection, Spearman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import fairmimic as fm
from fairmimic import select
from fairmimic.exceptions import ConvergenceError


def random_instance(n, q, seed, noise=1.0):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, q))
    w_true = np.zeros(q)
    w_true[: min(3, q)] = (1.5, -2.0, 0.5)[: min(3, q)]
    y = 0.7 + F @ w_true + noise * rng.normal(size=n)
    return F, y, w_true


def shifted_instance(n, q, seed):
    """Columns with means up to +-100 and scales from 0.1 to 50."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, q)) * rng.uniform(0.1, 50.0, q) + rng.uniform(-100.0, 100.0, q)
    w_true = np.zeros(q)
    w_true[:3] = (0.8, -0.05, 0.3)
    y = 40.0 + F @ w_true + 2.0 * rng.normal(size=n)
    return F, y


def residual_lasso(F, y, pen, w0=None, tol=select.COEF_TOL):
    """Oracle: coordinate descent on the row-wise residual, O(n) per step,
    until the largest change in a sweep is below ``tol``.

    Returns the intercept and the coefficients after every sweep.
    """
    n, q = F.shape
    Fc = F - F.mean(axis=0)
    norms = (Fc * Fc).mean(axis=0)
    w = np.zeros(q) if w0 is None else np.array(w0, dtype=np.float64)
    r = y - y.mean() - Fc @ w
    sweeps = []
    for _ in range(select.MAX_SWEEPS):
        max_change = 0.0
        for j in range(q):
            if norms[j] == 0.0:
                continue
            old = w[j]
            z = Fc[:, j] @ r / n + norms[j] * old
            new = np.sign(z) * max(abs(z) - pen, 0.0) / norms[j]
            if new != old:
                r -= (new - old) * Fc[:, j]
                w[j] = new
                max_change = max(max_change, abs(new - old))
        sweeps.append(w.copy())
        if max_change < tol:
            return y.mean() - F.mean(axis=0) @ w, sweeps
    raise AssertionError("oracle did not converge")


def objective(F, y, pen, w):
    b0 = y.mean() - F.mean(axis=0) @ w
    r = y - b0 - F @ w
    return 0.5 * (r @ r) / len(y) + pen * np.abs(w).sum()


def kkt_violation(F, y, pen, w, b0):
    grad = F.T @ (y - b0 - F @ w) / len(y)
    on = w != 0.0
    return np.concatenate(
        [np.abs(grad[on] - pen * np.sign(w[on])), np.maximum(np.abs(grad[~on]) - pen, 0.0)]
    ).max()


class TestLassoFit:
    def test_zero_penalty_matches_normal_equations(self):
        F, y, _ = random_instance(80, 4, seed=70)
        w, b0 = fm.lasso_fit(F, y, 0.0)
        design = np.column_stack([np.ones(len(y)), F])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_allclose(w, coef[1:], atol=1e-6)
        assert b0 == pytest.approx(coef[0], abs=1e-6)

    def test_penalty_max_zeroes_everything(self):
        F, y, _ = random_instance(60, 5, seed=71)
        pmax = fm.penalty_max(F, y)
        for pen in (pmax, 2.0 * pmax):
            w, b0 = fm.lasso_fit(F, y, pen)
            np.testing.assert_array_equal(w, np.zeros(5))
            assert b0 == pytest.approx(y.mean())
        w, _ = fm.lasso_fit(F, y, 0.95 * pmax)
        assert np.any(w != 0.0)

    def test_kkt_conditions_on_small_instance(self):
        rng = np.random.default_rng(72)
        F = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        pen = 0.4 * fm.penalty_max(F, y)
        w, b0 = fm.lasso_fit(F, y, pen)
        r = y - b0 - F @ w
        n = len(y)
        for j in range(3):
            grad_j = F[:, j] @ r / n
            if w[j] == 0.0:
                assert abs(grad_j) <= pen + 1e-5
            else:
                assert grad_j == pytest.approx(pen * np.sign(w[j]), abs=1e-5)

    def test_sweeps_never_increase_objective(self):
        # the descent is the path's fallback; lasso_fit itself walks the path
        F, y, _ = random_instance(100, 8, seed=73)
        mom = select._moments(F, y)
        trace = []
        select._descend(mom.G, mom.c, mom.yy, 0.05, np.zeros(8), trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 60),
        q=st.integers(1, 8),
        frac=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_kkt_conditions_hold_on_random_designs(self, seed, n, q, frac):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(n, q)) * rng.uniform(0.2, 5.0, q)
        y = F @ rng.normal(size=q) + rng.normal(size=n)
        pen = frac * fm.penalty_max(F, y)
        w, b0 = fm.lasso_fit(F, y, pen)
        assert kkt_violation(F, y, pen, w, b0) <= 1e-5

    @pytest.mark.parametrize(
        "seed,n,q,frac", [(839, 5, 8, 0.001), (7, 5, 5, 0.001953125)], ids=["seed839", "seed7"]
    )
    def test_kkt_conditions_hold_on_recorded_small_designs(self, seed, n, q, frac):
        # falsifying examples of the random-design test above: a cold descent
        # at these n <= q designs ran past MAX_SWEEPS and raised
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(n, q)) * rng.uniform(0.2, 5.0, q)
        y = F @ rng.normal(size=q) + rng.normal(size=n)
        pen = frac * fm.penalty_max(F, y)
        w, b0 = fm.lasso_fit(F, y, pen)
        assert kkt_violation(F, y, pen, w, b0) <= 1e-5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fm.lasso_fit(np.zeros((3, 2)), np.zeros(4), 0.1)
        with pytest.raises(ValueError):
            fm.lasso_fit(np.zeros((3, 2)), np.zeros(3), -0.1)
        with pytest.raises(ValueError, match="non-finite"):
            fm.lasso_fit(np.array([[1.0], [np.nan], [2.0]]), np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="finite"):
            fm.lasso_fit(np.zeros((3, 2)), np.zeros(3), np.nan)


class TestGramFormOracle:
    """The Gram-form solver against the row-wise residual descent it replaced."""

    @pytest.mark.parametrize("n,q,seed", [(100, 10, 90), (400, 5, 91), (2000, 12, 92)])
    def test_lasso_fit_matches_residual_oracle(self, n, q, seed):
        F, y = shifted_instance(n, q, seed)
        pmax = fm.penalty_max(F, y)
        for frac in (0.9, 0.3, 0.05, 0.002):
            w, b0 = fm.lasso_fit(F, y, frac * pmax)
            b0_ref, sweeps = residual_lasso(F, y, frac * pmax, tol=1e-13)
            np.testing.assert_allclose(w, sweeps[-1], rtol=0, atol=1e-9)
            assert b0 == pytest.approx(b0_ref, rel=0, abs=1e-9)

    def test_cv_select_path_matches_residual_oracle(self):
        F, y = shifted_instance(300, 8, seed=93)
        path = fm.cv_select(F, y, k_folds=5, seed=4)
        w = np.zeros(8)
        for i, pen in enumerate(path.penalties):
            b0, sweeps = residual_lasso(F, y, pen, w0=w, tol=1e-13)
            w = sweeps[-1]
            np.testing.assert_allclose(path.coefs[i], w, rtol=0, atol=1e-9)
            assert path.intercepts[i] == pytest.approx(b0, rel=0, abs=1e-9)

    def test_trace_is_the_objective_of_each_sweep(self):
        F, y = shifted_instance(250, 6, seed=94)
        pen = 0.02 * fm.penalty_max(F, y)
        mom = select._moments(F, y)
        trace = []
        w = select._descend(mom.G, mom.c, mom.yy, pen, np.zeros(6), trace)
        _, sweeps = residual_lasso(F, y, pen)
        assert len(trace) == len(sweeps) > 2
        expected = [objective(F, y, pen, ws) for ws in sweeps]
        np.testing.assert_allclose(trace, expected, rtol=1e-12, atol=0)
        assert trace[-1] == pytest.approx(objective(F, y, pen, w), rel=1e-12, abs=0)

    def test_constant_column_stays_zero_along_the_path(self):
        F, y = shifted_instance(200, 6, seed=95)
        F[:, 2] = 5.0  # centred exactly to zero variance: skipped
        F[:, 4] = 3.7  # its mean is not exactly 3.7: a variance of ~1e-31 remains
        path = fm.cv_select(F, y, k_folds=5, seed=0)
        assert np.all(path.coefs[:, [2, 4]] == 0.0)
        assert np.any(path.coefs != 0.0)

    def test_constant_column_exactly_zero_at_penalty_zero(self):
        # np.mean of a column of 3.7 is inexact; without the exact constant
        # test the column keeps a centred variance of ~1e-31 and, with no
        # soft threshold, a coefficient fitted to rounding noise
        rng = np.random.default_rng(0)
        F = rng.normal(size=(200, 4))
        F[:, 3] = 3.7
        y = F[:, 0] + 0.5 * rng.normal(size=200)
        w, _ = fm.lasso_fit(F, y, 0.0)
        assert w[3] == 0.0
        assert w[0] == pytest.approx(1.0, abs=0.2)

    def test_each_row_enters_sample_moments_once(self, monkeypatch):
        F, y, _ = random_instance(100, 5, seed=97)
        first_columns = []
        sample_moments = select.sample_moments
        monkeypatch.setattr(
            select, "sample_moments", lambda columns: first_columns.append(columns[0].copy()) or sample_moments(columns)
        )
        fm.cv_select(F, y, k_folds=5)
        assert len(first_columns) == 5
        # F[:, 0] holds 100 distinct values, so this is each row exactly once
        np.testing.assert_array_equal(np.sort(np.concatenate(first_columns)), np.sort(F[:, 0]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pooled_training_moments_match_direct(self, seed, monkeypatch):
        n, k, hold = 300, 5, 2
        F, y = shifted_instance(n, 8, seed=100 + seed)
        rng = np.random.default_rng(seed)
        folds = np.array_split(rng.permutation(n), k)  # cv_select's folds for this seed
        F[:, 5] = 7.3  # constant on the training rows of fold `hold` only
        F[folds[hold], 5] = rng.normal(size=len(folds[hold]))
        # |mean| = 1000 sd: centred pooling errs by about eps * 1000 relative,
        # pooling uncentred sums of squares by about eps * 1000^2
        F[:, 6] = 100.0 + 0.1 * rng.normal(size=n)
        pooled = []
        fit_path = select._fit_path
        monkeypatch.setattr(select, "_fit_path", lambda mom, grid: pooled.append(mom) or fit_path(mom, grid))
        fm.cv_select(F, y, k_folds=k, seed=seed)
        assert len(pooled) == k + 1
        for f in range(k):
            mask = np.ones(n, dtype=bool)
            mask[folds[f]] = False
            assert_moments_close(pooled[f], select._moments(F[mask], y[mask]))
        assert_moments_close(pooled[k], select._moments(F, y))
        G, c = pooled[hold].G, pooled[hold].c
        assert np.all(G[5] == 0.0) and np.all(G[:, 5] == 0.0) and c[5] == 0.0
        assert np.all(pooled[0].G[5] != 0.0)

    def test_sweep_limit_raises(self, monkeypatch):
        F, y = shifted_instance(100, 5, seed=96)
        monkeypatch.setattr(select, "MAX_SWEEPS", 1)
        mom = select._moments(F, y)
        with pytest.raises(ConvergenceError):
            select._descend(mom.G, mom.c, mom.yy, 0.01 * fm.penalty_max(F, y), np.zeros(5))
        fm.cv_select(F, y, k_folds=5)  # every point solved exactly, no descent
        # refusing the exact segment solve forces the descent fallback
        monkeypatch.setattr(select, "_segment", lambda G, c, penalties, signs: (np.empty((0, len(c))), None))
        with pytest.raises(ConvergenceError):
            fm.cv_select(F, y, k_folds=5)


def assert_moments_close(mom, ref, tol=1e-12):
    """Means and scaled moments of ``mom`` within ``tol`` of ``ref``, each
    entry relative to the spread of its columns; an entry of a zero-variance
    column must match exactly."""
    M = np.block([[mom.G, mom.c[:, None]], [mom.c[None, :], np.array([[mom.yy]])]])
    R = np.block([[ref.G, ref.c[:, None]], [ref.c[None, :], np.array([[ref.yy]])]])
    sd = np.sqrt(np.diag(R))
    assert np.all(np.abs(M - R) <= tol * np.outer(sd, sd))
    means = np.append(mom.f_mean, mom.y_mean)
    ref_means = np.append(ref.f_mean, ref.y_mean)
    assert np.all(np.abs(means - ref_means) <= tol * (np.abs(ref_means) + sd))


def path_kkt_violation(mom, grid, coefs):
    """Worst KKT violation over a path, from the moments (G, c), relative to
    max|c|."""
    worst = 0.0
    for pen, w in zip(grid, coefs):
        g = mom.c - mom.G @ w
        on = w != 0.0
        viol = np.concatenate([np.abs(g[on] - pen * np.sign(w[on])), np.maximum(np.abs(g[~on]) - pen, 0.0)])
        worst = max(worst, viol.max())
    return worst / np.abs(mom.c).max()


def correlated_instance(seed):
    """x3 is close to (x1 + x2) / 2 but absent from y: it enters the path
    first and leaves it once x1 and x2 are in."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 4))
    x3 = 0.5 * (X[:, 0] + X[:, 1]) + 0.2 * rng.normal(size=200)
    F = np.column_stack([X[:, 0], X[:, 1], x3, X[:, 2], X[:, 3]])
    y = F[:, 0] + F[:, 1] + 0.3 * F[:, 3] + 0.5 * rng.normal(size=200)
    return F, y


class TestExactPath:
    """Each point of a cv_select path is an exact solution on its active set."""

    @pytest.mark.parametrize(
        "F, y",
        [shifted_instance(300, 8, seed=93), random_instance(500, 12, seed=98)[:2], correlated_instance(3)],
        ids=["shifted", "sparse", "correlated"],
    )
    def test_every_path_point_meets_kkt(self, F, y, monkeypatch):
        paths = []
        fit_path = select._fit_path

        def recorded(mom, grid):
            coefs, intercepts = fit_path(mom, grid)
            paths.append((mom, grid, coefs))
            return coefs, intercepts

        monkeypatch.setattr(select, "_fit_path", recorded)
        fm.cv_select(F, y, k_folds=5, seed=1)
        assert len(paths) == 1 + 5  # each fold, then the full data
        for mom, grid, coefs in paths:
            assert path_kkt_violation(mom, grid, coefs) <= 1e-12

    def test_coefficient_leaving_the_set_matches_oracle(self, monkeypatch):
        F, y = correlated_instance(3)
        descended = []
        descend = select._descend
        monkeypatch.setattr(
            select, "_descend", lambda G, c, yy, pen, w: descended.append(pen) or descend(G, c, yy, pen, w)
        )
        path = fm.cv_select(F, y, k_folds=5, seed=0)
        on = path.coefs != 0.0
        left = np.flatnonzero((on[:-1] & ~on[1:]).any(axis=1)) + 1
        assert left.size > 0 and on[left[0] - 1, 2] and not on[left[0], 2]
        # x3 left at a point the guessed update solved, without descent
        assert path.penalties[left[0]] not in descended
        w = np.zeros(5)
        for i, pen in enumerate(path.penalties):
            b0, sweeps = residual_lasso(F, y, pen, w0=w, tol=1e-13)
            w = sweeps[-1]
            np.testing.assert_allclose(path.coefs[i], w, rtol=0, atol=1e-9)
            assert path.intercepts[i] == pytest.approx(b0, rel=0, abs=1e-9)


class TestCvSelect:
    def test_pure_noise_selects_almost_nothing(self):
        # the min-CV rule lands randomly on the flat CV curve under pure
        # noise and keeps ~1-3 spurious features in a quarter of runs; the
        # one-SE rule is the flag for null-sparsity, so it carries the bound
        hits = 0
        for rep in range(50):
            rng = np.random.default_rng(7000 + rep)
            F = rng.normal(size=(100, 10))
            y = rng.normal(size=100)
            path = fm.cv_select(F, y, k_folds=10, seed=rep, rule="1se")
            if len(path.active_set) <= 1:
                hits += 1
        assert hits >= 45  # >= 90% of 50 replications

    def test_planted_support_recovered_exactly(self):
        rng = np.random.default_rng(75)
        F = rng.normal(size=(500, 10))
        y = 2.0 * F[:, 3] - 1.5 * F[:, 7]  # exact linear function of 2 features
        path = fm.cv_select(F, y, k_folds=10, seed=0)
        assert path.active_set == (3, 7)

    def test_leave_one_out_matches_brute_force(self):
        rng = np.random.default_rng(76)
        F = rng.normal(size=(10, 3))
        y = F @ np.array([1.0, 0.0, -0.5]) + 0.3 * rng.normal(size=10)
        grid = np.geomspace(fm.penalty_max(F, y), 1e-3 * fm.penalty_max(F, y), 12)
        path = fm.cv_select(F, y, k_folds=10, penalty_grid=grid, seed=3)

        brute = np.zeros(len(grid))
        for i in range(10):
            mask = np.ones(10, dtype=bool)
            mask[i] = False
            for g, pen in enumerate(grid):
                w, b0 = fm.lasso_fit(F[mask], y[mask], pen)
                brute[g] += (y[i] - b0 - F[i] @ w) ** 2
        brute /= 10.0
        np.testing.assert_allclose(path.cv_mse, brute, rtol=1e-6, atol=1e-10)

    def test_deterministic_given_seed(self):
        F, y, _ = random_instance(90, 6, seed=77)
        p1 = fm.cv_select(F, y, k_folds=5, seed=11)
        p2 = fm.cv_select(F, y, k_folds=5, seed=11)
        assert p1.chosen_penalty == p2.chosen_penalty
        np.testing.assert_array_equal(p1.coefs, p2.coefs)

    def test_one_se_rule_picks_larger_penalty(self):
        F, y, _ = random_instance(150, 8, seed=78, noise=2.0)
        p_min = fm.cv_select(F, y, k_folds=5, seed=0, rule="min")
        p_1se = fm.cv_select(F, y, k_folds=5, seed=0, rule="1se")
        assert p_1se.chosen_penalty >= p_min.chosen_penalty

    @pytest.mark.parametrize(
        "case, match",
        [
            ("1-D features", "n x q"),
            ("short target", "n x q"),
            ("empty grid", "non-empty"),
            ("negative penalty", "nonnegative"),
            ("NaN penalty", "finite"),
            ("infinite penalty", "finite"),
        ],
    )
    def test_invalid_inputs(self, case, match):
        F, y, _ = random_instance(40, 3, seed=81)
        pmax = fm.penalty_max(F, y)
        args = {
            "1-D features": (F[:, 0], y, None),
            "short target": (F, y[:-1], None),
            "empty grid": (F, y, []),
            "negative penalty": (F, y, [pmax, 0.1 * pmax, -0.01 * pmax]),
            "NaN penalty": (F, y, [pmax, np.nan]),
            "infinite penalty": (F, y, [np.inf, pmax]),
        }[case]
        with pytest.raises(ValueError, match=match):
            fm.cv_select(args[0], args[1], k_folds=5, penalty_grid=args[2])

    def test_design_without_columns_rejected(self):
        y = random_instance(50, 1, seed=82)[1]
        for call in (fm.cv_select, fm.penalty_max, lambda F, y: fm.lasso_fit(F, y, 0.1)):
            with pytest.raises(ValueError, match="features have no columns"):
                call(np.empty((50, 0)), y)

    def test_fold_too_small_rejected(self):
        F, y, _ = random_instance(5, 2, seed=79)
        with pytest.raises(ValueError, match="folds"):
            fm.cv_select(F, y, k_folds=6)

    def test_feature_names_length_checked_before_fitting(self, monkeypatch):
        F, y, _ = random_instance(100, 4, seed=80)

        def no_fit(mom, grid):
            raise AssertionError("a path was fitted")

        monkeypatch.setattr(select, "_fit_path", no_fit)
        with pytest.raises(ValueError, match="feature_names"):
            fm.cv_select(F, y, k_folds=5, feature_names=("a", "b", "c"))

    def test_role_fragment(self):
        F, y, _ = random_instance(100, 4, seed=80, noise=0.2)
        path = fm.cv_select(F, y, k_folds=5, seed=0, feature_names=("a", "b", "c", "d"))
        frag = path.to_role_fragment()
        assert set(frag["roles"].values()) == {"covariate"}
        assert set(frag["roles"]) == set(path.active_names())


class TestSpearman:
    def test_perfect_monotone(self):
        assert fm.spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0, abs=1e-12)
        assert fm.spearman([1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        assert fm.spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_midranks_for_ties(self):
        # ranks of (1, 1, 2) are (1.5, 1.5, 3); Pearson computed by hand
        a = np.array([1.0, 1.0, 2.0])
        b = np.array([3.0, 5.0, 9.0])
        ra = np.array([1.5, 1.5, 3.0])
        rb = np.array([1.0, 2.0, 3.0])
        expected = np.corrcoef(ra, rb)[0, 1]
        assert fm.spearman(a, b) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        base = fm.spearman(a, b)
        assert fm.spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert fm.spearman(a, 3.0 * b + 7.0) == pytest.approx(base, abs=1e-12)
        assert fm.spearman(a, np.arctan(b)) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert fm.spearman(a, b) == pytest.approx(fm.spearman(b, a), abs=1e-15)

    # no NaN: spearman refuses one before it ranks
    @given(st.lists(st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf]), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_match_scipy(self, values):
        a = np.array(values)
        np.testing.assert_array_equal(select._average_ranks(a), rankdata(a, method="average"))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            fm.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("a, b", [([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [3.0, 1.0, np.nan])])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            fm.spearman(a, b)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fm.spearman([1.0], [2.0])

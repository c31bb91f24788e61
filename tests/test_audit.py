"""Parity reports, conditional parity curves, PPV, counterfactual check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmimic as fm
from fairmimic.model import GRAM_CHUNK_ROWS

from conftest import make_generator, simulate_from


class TestStatisticalParity:
    def test_symmetric_case(self):
        rep = fm.statistical_parity([1, 0, 1, 0], ["a", "a", "b", "b"])
        assert rep.rate_by_group == {"a": 0.5, "b": 0.5}
        assert rep.parity_gap == 0.0
        assert rep.n_by_group == {"a": 2, "b": 2}

    def test_extreme_case(self):
        rep = fm.statistical_parity([1, 1, 0, 0], ["a", "a", "b", "b"])
        assert rep.parity_gap == 1.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(50)
        d = rng.integers(0, 2, size=1000)
        g = rng.choice(["a", "b", "c"], size=1000)
        rep = fm.statistical_parity(d, g)
        for grp in ("a", "b", "c"):
            num = sum(1 for i in range(1000) if g[i] == grp and d[i] == 1)
            den = sum(1 for i in range(1000) if g[i] == grp)
            assert rep.rate_by_group[grp] == pytest.approx(num / den, abs=1e-12)
        pairwise = max(
            abs(rep.rate_by_group[x] - rep.rate_by_group[y])
            for x in "abc"
            for y in "abc"
        )
        assert rep.parity_gap == pytest.approx(pairwise, abs=1e-12)

    @given(st.lists(st.sampled_from([0, 1]), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_gap_invariant_under_relabeling(self, decisions):
        n = len(decisions)
        groups = ["a" if i % 2 else "b" for i in range(n)]
        renamed = ["east" if g == "a" else "west" for g in groups]
        assert (
            fm.statistical_parity(decisions, groups).parity_gap
            == fm.statistical_parity(decisions, renamed).parity_gap
        )

    def test_declared_empty_group_rejected(self):
        with pytest.raises(ValueError, match="zero rows"):
            fm.statistical_parity([1, 0], ["a", "a"], levels=["a", "b"])

    def test_non_binary_decisions_rejected(self):
        with pytest.raises(ValueError):
            fm.statistical_parity([1, 2], ["a", "b"])


class TestConditionalParityCurve:
    def test_requires_two_bins(self):
        with pytest.raises(ValueError, match="at least 2"):
            fm.conditional_parity_curve([1.0, 2.0], ["a", "b"], [0.0, 1.0], n_bins=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_or_proxy_rejected(self, bad):
        rng = np.random.default_rng(53)
        scores = rng.normal(size=200)
        proxy = rng.normal(size=200)
        groups = rng.choice(["a", "b"], size=200)
        for name, values in (("scores", scores), ("proxy_values", proxy)):
            spoiled = values.copy()
            spoiled[rng.choice(200, size=60, replace=False)] = bad
            args = {"scores": scores, "proxy_values": proxy, name: spoiled}
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                fm.conditional_parity_curve(args["scores"], groups, args["proxy_values"])

    def test_identical_scores_reduce_to_overall_group_means(self):
        # all rows share one percentile, so the top bin holds everything and
        # its gap is the difference of overall group means
        proxy = np.array([1.0, 3.0, 2.0, 6.0])
        groups = ["a", "a", "b", "b"]
        curve = fm.conditional_parity_curve(np.zeros(4), groups, proxy, n_bins=2)
        assert curve.gap_by_bin[0] is None
        assert curve.gap_by_bin[1] == pytest.approx(4.0 - 2.0)
        empty = [b for b in curve.bins if b.percentile_high <= 50.0]
        assert all(b.count == 0 and b.mean is None for b in empty)

    def test_bin_means_aggregate_to_group_means(self):
        rng = np.random.default_rng(51)
        n = 500
        scores = rng.normal(size=n)
        proxy = rng.normal(size=n)
        groups = rng.choice(["a", "b"], size=n)
        curve = fm.conditional_parity_curve(scores, groups, proxy, n_bins=10)
        for g in ("a", "b"):
            total = sum(b.mean * b.count for b in curve.bins if b.group == g and b.count)
            count = sum(b.count for b in curve.bins if b.group == g)
            assert count == (groups == g).sum()
            assert total / count == pytest.approx(proxy[groups == g].mean(), abs=1e-10)

    def test_counts_partition_every_row(self):
        rng = np.random.default_rng(52)
        scores = rng.normal(size=317)
        groups = rng.choice(["a", "b"], size=317)
        proxy = rng.normal(size=317)
        curve = fm.conditional_parity_curve(scores, groups, proxy, n_bins=7)
        assert sum(b.count for b in curve.bins) == 317

    def test_null_generator_gap_within_noise(self):
        # proxy independent of group given the score: delta = 0, gamma = 0
        gen = make_generator(gamma=0.0)
        data, _ = simulate_from(gen, n=4000, seed=53)
        X = data.covariate_matrix()
        scores = fm.fair_score(gen, X)
        proxy = data.column("y2")
        groups = data.sensitive_labels()
        curve = fm.conditional_parity_curve(scores, groups, proxy, n_bins=10)

        # Monte-Carlo SE of a per-bin gap from the pooled within-bin spread
        ses = []
        s = data.sensitive_codes()
        order = np.sort(scores)
        counts = np.searchsorted(order, scores, side="right")
        idx = (counts * 10 + len(scores) - 1) // len(scores) - 1
        for b in range(10):
            n1 = ((idx == b) & (s == 1)).sum()
            n0 = ((idx == b) & (s == 0)).sum()
            sd = proxy[idx == b].std(ddof=1)
            ses.append(sd * np.sqrt(1.0 / n1 + 1.0 / n0))
        assert curve.mean_abs_gap < 2.0 * np.mean(ses)

    def test_group_biased_proxy_shows_persistent_gap(self):
        # group offset 0.45 on the audited proxy: the gap survives in every
        # bin no matter how fair the score is
        gen = make_generator(gamma=0.0, dif=(0.0, 0.45, 0.0, 0.0))
        data, _ = simulate_from(gen, n=20_000, seed=54)
        scores = fm.fair_score(gen, data.covariate_matrix())
        curve = fm.conditional_parity_curve(
            scores, data.sensitive_labels(), data.column("y2"), n_bins=10
        )
        assert all(g is not None and g > 0 for g in curve.gap_by_bin)

    def test_csv_export(self, tmp_path):
        curve = fm.conditional_parity_curve(
            np.arange(10.0), ["a", "b"] * 5, np.arange(10.0), n_bins=2
        )
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "percentile_low,percentile_high,group,mean_proxy,count"
        assert len(lines) == 1 + 2 * 2  # bins x groups


def str_labels(sensitive):
    return np.array([str(v) for v in np.asarray(sensitive)], dtype=object)


def mask_loop_curve(scores, sensitive, proxy, n_bins):
    """Reference curve: per-row ``str`` labels, per-row percentile counts and
    one boolean mask per (bin, group).  Returns the groups and, per cell,
    (group, count, mean, mean |proxy|)."""
    scores = np.asarray(scores, dtype=np.float64)
    proxy = np.asarray(proxy, dtype=np.float64)
    groups = str_labels(sensitive)
    n = scores.shape[0]
    counts_leq = np.searchsorted(np.sort(scores), scores, side="right")
    bin_idx = (counts_leq * n_bins + n - 1) // n - 1  # ceil(count * k / n) - 1
    levels = sorted(set(groups))
    cells = []
    for b in range(n_bins):
        for g in levels:
            sel = (bin_idx == b) & (groups == g)
            cnt = int(sel.sum())
            if cnt:
                cells.append((g, cnt, float(proxy[sel].mean()), float(np.abs(proxy[sel]).mean())))
            else:
                cells.append((g, 0, None, None))
    return tuple(levels), cells


def str_loop_parity(decisions, sensitive):
    d = np.asarray(decisions)
    groups = str_labels(sensitive)
    rates, counts = {}, {}
    for g in sorted(set(groups)):
        mask = groups == g
        counts[g] = int(mask.sum())
        rates[g] = float(d[mask].mean())
    vals = list(rates.values())
    gap = float(max(vals) - min(vals))
    return {"rate_by_group": rates, "parity_gap": gap, "n_by_group": counts}


def str_loop_ppv(decisions, outcome, sensitive):
    d = np.asarray(decisions)
    y = np.asarray(outcome)
    groups = str_labels(sensitive)
    ppv, npos, undefined = {}, {}, []
    for g in sorted(set(groups)):
        sel = (groups == g) & (d == 1)
        npos[g] = int(sel.sum())
        ppv[g] = float(y[sel].mean()) if npos[g] else None
        if not npos[g]:
            undefined.append(g)
    defined = [v for v in ppv.values() if v is not None]
    gap = float(max(defined) - min(defined)) if len(defined) >= 2 else None
    return {
        "ppv_by_group": ppv,
        "parity_gap": gap,
        "n_positive_by_group": npos,
        "undefined_groups": undefined,
    }


LABEL_POOLS = {
    "str": ["b", "a", "c"],
    "int": [10, -1, 3],
    "float": [0.1, -2.0, 1e16],
}


@st.composite
def audit_cases(draw):
    n = draw(st.integers(1, 300))
    pool = LABEL_POOLS[draw(st.sampled_from(sorted(LABEL_POOLS)))][: draw(st.integers(1, 3))]
    labels = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct scores give heavy ties, n distinct ones almost none
    scores = rng.integers(0, draw(st.integers(1, n)), size=n) * rng.normal()
    proxy = rng.normal(size=n) * 10.0 + draw(st.sampled_from([0.0, 5.0]))
    decisions = rng.integers(0, 2, size=n)
    outcome = rng.integers(0, 2, size=n)
    return scores, labels, proxy, decisions, outcome, draw(st.integers(2, 15))


class TestAgainstMaskLoopOracle:
    @given(audit_cases())
    @settings(max_examples=300, deadline=None)
    def test_curve_matches_oracle(self, case):
        scores, labels, proxy, _, _, n_bins = case
        curve = fm.conditional_parity_curve(scores, labels, proxy, n_bins=n_bins)
        groups, cells = mask_loop_curve(scores, labels, proxy, n_bins)
        assert curve.groups == groups
        assert [(b.group, b.count) for b in curve.bins] == [(g, c) for g, c, _, _ in cells]
        for b, (_, _, mean, mean_abs) in zip(curve.bins, cells):
            if mean is None:
                assert b.mean is None
            else:
                assert abs(b.mean - mean) <= 1e-12 * mean_abs

    @given(audit_cases())
    @settings(max_examples=300, deadline=None)
    def test_parity_reports_match_oracle(self, case):
        _, labels, _, decisions, outcome, _ = case
        rep = fm.statistical_parity(decisions, labels).to_dict()
        assert json.dumps(rep) == json.dumps(str_loop_parity(decisions, labels))
        rep = fm.predictive_parity(decisions, outcome, labels).to_dict()
        assert json.dumps(rep) == json.dumps(str_loop_ppv(decisions, outcome, labels))


@st.composite
def tied_curve_cases(draw):
    """Scores drawn from one to three distinct values, or all equal, so most
    rows tie with a cut; integer proxy values make every proxy sum exact in
    any order of addition."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.normal(size=draw(st.integers(1, 3)))
    scores = distinct[rng.integers(0, distinct.size, size=n)]
    labels = rng.choice(np.array(["a", "b", "c"])[: draw(st.integers(1, 3))], size=n)
    proxy = rng.integers(-50, 51, size=n).astype(np.float64)
    return scores, labels, proxy, draw(st.integers(2, 15))


class TestTiedScoresAgainstOracle:
    @given(tied_curve_cases())
    @settings(max_examples=200, deadline=None)
    def test_counts_and_sums_match_oracle_exactly(self, case):
        scores, labels, proxy, n_bins = case
        curve = fm.conditional_parity_curve(scores, labels, proxy, n_bins=n_bins)
        groups, cells = mask_loop_curve(scores, labels, proxy, n_bins)
        assert curve.groups == groups
        assert [(b.group, b.count) for b in curve.bins] == [(g, c) for g, c, _, _ in cells]
        # exact sums over equal counts give equal means, bit for bit
        assert [b.mean for b in curve.bins] == [mean for _, _, mean, _ in cells]

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 1000])
    def test_all_equal_scores_fill_the_top_bin(self, n):
        rng = np.random.default_rng(n)
        labels = rng.choice(["a", "b"], size=n)
        proxy = rng.integers(-50, 51, size=n).astype(np.float64)
        curve = fm.conditional_parity_curve(np.full(n, 0.25), labels, proxy)
        groups, cells = mask_loop_curve(np.full(n, 0.25), labels, proxy, 10)
        assert [(b.group, b.count, b.mean) for b in curve.bins] == [(g, c, m) for g, c, m, _ in cells]
        # every row ties with every cut: all sit in the last bin
        assert sum(b.count for b in curve.bins[-len(groups) :]) == n


class TestWideCountingPaths:
    """Bin counters one or two bytes wide, and integer tallies over 0/1
    flags, against the mask-loop oracles."""

    @pytest.mark.parametrize("n_bins,groups", [(300, ("a", "b", "c")), (200, ("a", "b"))])
    def test_many_bins_match_oracle_exactly(self, n_bins, groups):
        # 300 bins need a two-byte counter; 200 bins fit a byte, but bin * 2
        # groups does not
        rng = np.random.default_rng(n_bins)
        n = 3000
        scores = rng.normal(size=n)
        labels = rng.choice(groups, size=n)
        proxy = rng.integers(-50, 51, size=n).astype(np.float64)
        curve = fm.conditional_parity_curve(scores, labels, proxy, n_bins=n_bins)
        levels, cells = mask_loop_curve(scores, labels, proxy, n_bins)
        assert curve.groups == levels
        # integer proxy values: exact sums, so equal counts give equal means
        assert [(b.group, b.count, b.mean) for b in curve.bins] == [(g, c, m) for g, c, m, _ in cells]

    @pytest.mark.parametrize("outcome_dtype", [bool, np.float64, np.int64])
    @pytest.mark.parametrize("decision_dtype", [bool, np.float64, np.int64])
    def test_parity_reports_match_oracle_for_each_dtype(self, decision_dtype, outcome_dtype):
        # cmd_audit passes decisions read from a CSV and outcomes as floats
        rng = np.random.default_rng(58)
        labels = rng.choice(["c", "a", "b"], size=500)
        decisions = rng.integers(0, 2, size=500).astype(decision_dtype)
        outcome = rng.integers(0, 2, size=500).astype(outcome_dtype)
        rep = fm.statistical_parity(decisions, labels).to_dict()
        assert json.dumps(rep) == json.dumps(str_loop_parity(decisions, labels))
        rep = fm.predictive_parity(decisions, outcome, labels).to_dict()
        assert json.dumps(rep) == json.dumps(str_loop_ppv(decisions, outcome, labels))


class TestPredictiveParity:
    def test_all_decisions_correct(self):
        outcome = np.array([1, 0, 1, 0, 1, 0])
        rep = fm.predictive_parity(outcome, outcome, ["a", "a", "b", "b", "a", "b"])
        assert rep.ppv_by_group == {"a": 1.0, "b": 1.0}
        assert rep.parity_gap == 0.0
        assert rep.undefined_groups == ()

    def test_hand_tabulated_confusion_tables(self):
        # 12 handcrafted rows; PPV computed from explicit 2x2 tables:
        # group a: d=1 rows have outcomes (1, 1, 0)    -> PPV 2/3
        # group b: d=1 rows have outcomes (1, 0, 0, 0) -> PPV 1/4
        decisions = [1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0]
        outcome = [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0]
        groups = ["a"] * 6 + ["b"] * 6
        rep = fm.predictive_parity(decisions, outcome, groups)
        assert rep.ppv_by_group["a"] == pytest.approx(2 / 3)
        assert rep.ppv_by_group["b"] == pytest.approx(1 / 4)
        assert rep.parity_gap == pytest.approx(2 / 3 - 1 / 4)

    def test_no_positive_decisions_flagged(self):
        rep = fm.predictive_parity([1, 1, 0, 0], [1, 0, 1, 0], ["a", "a", "b", "b"])
        assert rep.ppv_by_group["b"] is None
        assert rep.undefined_groups == ("b",)
        assert rep.parity_gap is None

    def test_independent_decisions_give_base_rates(self):
        rng = np.random.default_rng(55)
        n = 40_000
        groups = np.where(rng.random(n) < 0.5, "a", "b")
        base = np.where(groups == "a", 0.3, 0.6)
        outcome = (rng.random(n) < base).astype(int)
        decisions = rng.integers(0, 2, size=n)  # independent of outcome
        rep = fm.predictive_parity(decisions, outcome, groups)
        assert rep.ppv_by_group["a"] == pytest.approx(0.3, abs=0.03)
        assert rep.ppv_by_group["b"] == pytest.approx(0.6, abs=0.03)
        assert rep.parity_gap == pytest.approx(0.3, abs=0.04)


class TestCounterfactualCheck:
    def test_fair_discrepancy_exactly_zero(self, fitted_example):
        res, data = fitted_example
        X = data.covariate_matrix(res.model.covariate_names)
        assert fm.counterfactual_check(res.model, X, score="fair") == 0.0

    def test_naive_discrepancy_is_gamma(self):
        gen = make_generator(gamma=3.0)
        X = np.random.default_rng(56).normal(size=(40, 3))
        assert fm.counterfactual_check(gen, X, score="naive") == pytest.approx(3.0, abs=1e-12)

    def test_single_covariate_row(self):
        # a 1-D input is one row of q covariates, not q rows
        gen = make_generator(gamma=3.0)
        row = np.array([0.5, -1.0, 2.0])
        assert fm.counterfactual_check(gen, row, score="naive") == pytest.approx(3.0, abs=1e-12)
        assert fm.counterfactual_check(gen, row, score="fair") == 0.0

    def test_naive_discrepancy_matches_fitted_gamma(self, fitted_example):
        # algebraic oracle: |gamma_hat| times the coding span (1 by contract)
        res, data = fitted_example
        X = data.covariate_matrix(res.model.covariate_names)
        disc = fm.counterfactual_check(res.model, X, score="naive")
        assert disc == pytest.approx(abs(res.model.sens_coef), abs=1e-12)

    @pytest.mark.parametrize("score", ["fair", "naive"])
    def test_zero_rows_rejected(self, score):
        with pytest.raises(ValueError, match="covariates must be nonempty"):
            fm.counterfactual_check(make_generator(), np.empty((0, 3)), score=score)

    @pytest.mark.parametrize("row", [0, GRAM_CHUNK_ROWS + 3, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_row_gives_nan(self, bad, row):
        # each level's score of that row is not finite, and so is their spread,
        # wherever the row sits among the blocks of GRAM_CHUNK_ROWS rows
        gen = make_generator(gamma=3.0)
        X = np.random.default_rng(59).normal(size=(2 * GRAM_CHUNK_ROWS + 5, 3))
        assert fm.counterfactual_check(gen, X, score="naive") == pytest.approx(3.0, abs=1e-12)
        assert fm.counterfactual_check(gen, X, score="fair") == 0.0
        X[row, 1] = bad
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is the point
            assert math.isnan(fm.counterfactual_check(gen, X, score="naive"))
            assert math.isnan(fm.counterfactual_check(gen, X, score="fair"))

"""Fair/naive scoring, percentile decisions, and factor scores."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmimic as fm
from fairmimic.model import GRAM_CHUNK_ROWS, _precision
from fairmimic.score import as_codes, nearest_rank_percentile

from conftest import CODING, make_generator, simulate_from


def score_model(beta=(1.0, 2.0), gamma=3.0):
    q = len(beta)
    return fm.MimicModel(
        loadings=[1.0, 0.8],
        intercepts=[0.0, 0.0],
        struct_coefs=beta,
        sens_coef=gamma,
        dif_offsets=[0.0, 0.0],
        resid_vars=[0.5, 0.5],
        latent_var=1.0,
        free_mask=[False, False],
        indicator_names=("y1", "y2"),
        covariate_names=tuple(f"x{i}" for i in range(1, q + 1)),
        sensitive_coding=CODING,
    )


class TestFairScore:
    def test_blocked_path_examples(self):
        m = score_model()
        x = np.array([[1.0, 1.0]])
        assert fm.fair_score(m, x, "a")[0] == 3.0
        # row group is irrelevant by construction; same covariates, same score
        assert fm.fair_score(m, x, "a")[0] == 3.0

    def test_bitwise_equal_across_flipped_sensitive(self):
        m = score_model(beta=(0.3, -1.2), gamma=0.7)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        s0 = fm.fair_score(m, X)
        s1 = fm.fair_score(m, X)  # rows' groups flipped: not even an input
        assert np.array_equal(s0, s1)

    def test_reference_level_shifts_by_gamma(self):
        m = score_model()
        X = np.zeros((3, 2))
        np.testing.assert_allclose(fm.fair_score(m, X, "b") - fm.fair_score(m, X, "a"), 3.0)

    def test_single_covariate_row(self):
        # a 1-D input is one row of q covariates, as naive_score reads it
        m = score_model(beta=(0.5, -0.25), gamma=1.5)
        row = np.array([1.0, 2.0])
        np.testing.assert_array_equal(fm.fair_score(m, row, "b"), [1.5])
        np.testing.assert_array_equal(fm.fair_score(m, row, "b"), fm.naive_score(m, row, ["b"]))

    def test_unknown_reference_level(self):
        with pytest.raises(ValueError, match="unknown sensitive level"):
            fm.fair_score(score_model(), np.zeros((1, 2)), "zzz")

    def test_hand_computed_structural_expectation(self):
        # five rows, expectation from the structural equation by hand
        m = score_model(beta=(0.5, -0.25), gamma=1.5)
        X = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 4.0], [2.0, 2.0], [0.5, -0.5]])
        ref_code = 0.0
        expected = []
        for i in range(5):
            eta = 0.5 * X[i, 0] + (-0.25) * X[i, 1] + 1.5 * ref_code
            expected.append(eta)
        np.testing.assert_allclose(fm.fair_score(m, X, "a"), expected, atol=1e-10)


class TestNaiveScore:
    def test_equals_fair_when_gamma_zero(self):
        m = score_model(gamma=0.0)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        s = rng.integers(0, 2, size=50)
        np.testing.assert_array_equal(fm.naive_score(m, X, s), fm.fair_score(m, X))

    def test_open_path_arithmetic(self):
        m = score_model()
        assert fm.naive_score(m, np.array([[1.0, 1.0]]), np.array([1.0]))[0] == 6.0

    def test_group_mean_difference_is_gamma(self):
        m = score_model(beta=(0.4, 0.9), gamma=2.5)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 2))
        s = np.ones(100)
        naive = fm.naive_score(m, X, s)
        fair = fm.fair_score(m, X, "a")  # reference coded 0
        assert (naive - fair).mean() == pytest.approx(2.5 * (1.0 - 0.0), abs=1e-12)

    def test_accepts_labels(self):
        m = score_model()
        X = np.zeros((2, 2))
        np.testing.assert_allclose(fm.naive_score(m, X, np.array(["a", "b"], dtype=object)), [0.0, 3.0])


    def test_label_codes_match_per_label_lookup(self):
        m = score_model()
        labels = np.random.default_rng(6).choice(["a", "b"], size=500)
        for arr in (labels, labels.astype(object)):
            expected = np.array([m.level_code(v) for v in arr], dtype=np.float64)
            codes = as_codes(m, arr)
            assert codes.dtype == np.float64
            np.testing.assert_array_equal(codes, expected)
        with pytest.raises(ValueError, match="unknown sensitive level 'c'"):
            as_codes(m, np.array(["a", "c", "b"], dtype=object))


    def test_numeric_codes_outside_zero_one_rejected(self):
        m = score_model()
        np.testing.assert_array_equal(as_codes(m, np.array([True, False])), [1.0, 0.0])
        for bad in (2.0, math.nan):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                fm.naive_score(m, np.zeros((3, 2)), np.array([0.0, 1.0, bad]))


class TestDecide:
    def test_integer_scores_percentile_55(self):
        scores = np.arange(1.0, 101.0)
        decisions, threshold = fm.decide(scores, 55.0)
        assert threshold == 55.0
        np.testing.assert_array_equal(decisions, (scores > 55).astype(int))
        assert decisions.sum() == 45

    def test_all_equal_scores_select_nobody(self):
        decisions, threshold = fm.decide(np.full(20, 7.0), 55.0)
        assert threshold == 7.0
        assert decisions.sum() == 0

    def test_matches_brute_force_rank_oracle(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=1000)
        for pct in (10.0, 37.5, 55.0, 90.0):
            decisions, threshold = fm.decide(scores, pct)
            # brute force: smallest value covering pct percent of the sample
            srt = np.sort(scores)
            brute = next(v for v in srt if (srt <= v).sum() >= pct / 100.0 * len(srt))
            assert threshold == brute
            np.testing.assert_array_equal(decisions, (scores > brute).astype(int))

    def test_decimal_percentile_takes_the_exact_rank(self):
        # in floats 16.1 * 1000 / 100 is 161.00000000000003, whose ceiling
        # is one rank too high
        assert fm.decide(np.arange(1.0, 1001.0), 16.1)[1] == 161.0
        for n in (10, 100, 1000, 2000):
            values = np.arange(1.0, n + 1.0)
            for tenths in range(1, 1000):
                rank = -(-tenths * n // 1000)  # ceil(tenths / 10 * n / 100), in integers
                assert fm.decide(values, tenths / 10)[1] == rank

    def test_selection_fraction_with_distinct_scores(self):
        rng = np.random.default_rng(5)
        scores = rng.permutation(1000).astype(float)
        decisions, _ = fm.decide(scores, 55.0)
        assert abs(decisions.mean() - 0.45) <= 1.0 / len(scores)

    @given(
        scores=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60).map(np.array),
        pct=st.floats(1.0, 99.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_scores(self, scores, pct):
        decisions, _ = fm.decide(scores, pct)
        order = np.argsort(scores)
        selected = decisions[order]
        # once selected along the sorted order, stay selected
        first = np.argmax(selected) if selected.any() else len(selected)
        assert np.all(selected[first:] == selected[first:].max(initial=0))

    def test_reference_scores_define_threshold(self):
        decisions, threshold = fm.decide(np.array([0.0, 100.0]), 55.0, np.arange(1.0, 101.0))
        assert threshold == 55.0
        np.testing.assert_array_equal(decisions, [0, 1])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            fm.decide(np.array([]), 55.0)
        with pytest.raises(ValueError):
            fm.decide(np.array([1.0]), 0.0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_or_reference_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            fm.decide([1.0, 2.0, 3.0], 50.0, reference_scores=[bad] * 3)
        with pytest.raises(ValueError, match="must be finite"):
            fm.decide([1.0, 2.0, 3.0], 50.0, reference_scores=[1.0, bad, 2.0])
        with pytest.raises(ValueError, match="must be finite"):
            fm.decide([1.0, bad, 3.0], 50.0, reference_scores=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="must be finite"):
            fm.decide([1.0, bad, 3.0], 50.0)
        with pytest.raises(ValueError, match="must be finite"):
            nearest_rank_percentile([1.0, bad, 2.0], 90.0)

    def test_scores_checked_once_when_they_are_the_reference(self, monkeypatch):
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checked.append(len(a)) or isfinite(a))
        fm.decide(np.arange(5.0), 50.0)
        assert checked == [5]
        fm.decide(np.arange(5.0), 50.0, reference_scores=np.arange(3.0))
        assert checked == [5, 5, 3]


class TestNearestRankPercentile:
    @given(
        values=st.lists(
            # a pool of a few values, so most draws hold many duplicates
            st.sampled_from([-2.5, -1.0, 0.0, 0.125, 3.0, 1e300]) | st.floats(-1e6, 1e6).map(lambda v: v + 0.0),
            min_size=1,
            max_size=80,
        ).map(np.array),
        pct=st.floats(0.001, 99.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_sorted_order_statistic(self, values, pct):
        rank = math.ceil(Fraction(repr(pct)) * values.size / 100)
        expected = np.sort(values)[rank - 1]
        assert np.float64(nearest_rank_percentile(values, pct)).tobytes() == expected.tobytes()

    def test_caller_array_left_in_place(self):
        values = np.array([3.0, 1.0, 2.0, 1.0])
        assert nearest_rank_percentile(values, 50.0) == 1.0
        np.testing.assert_array_equal(values, [3.0, 1.0, 2.0, 1.0])


class TestFactorScore:
    def test_noiseless_limit_pins_first_indicator(self):
        gen = replace(make_generator(), resid_vars=np.full(4, 1e-8))
        data, eta = simulate_from(gen, n=50, seed=40)
        fs = fm.factor_score(gen, data)
        y1 = data.column("y1")
        np.testing.assert_allclose(fs, y1 - gen.intercepts[0], atol=1e-3)

    def test_joint_gaussian_conditioning_oracle(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, _ = simulate_from(gen, n=3, seed=41)
        fs = fm.factor_score(gen, data)

        # direct conditional-Gaussian formula with explicit inverse
        Y = np.column_stack([data.column(c) for c in data.indicator_names])
        X = data.covariate_matrix()
        s = data.sensitive_codes()
        lam, psi = gen.loadings, gen.latent_var
        sigma = psi * np.outer(lam, lam) + np.diag(gen.resid_vars)
        inv = np.linalg.inv(sigma)
        for i in range(3):
            m = gen.struct_coefs @ X[i] + gen.sens_coef * s[i]
            mu = gen.intercepts + lam * m + gen.dif_offsets * s[i]
            cond = m + psi * lam @ inv @ (Y[i] - mu)
            assert fs[i] == pytest.approx(cond, abs=1e-10)

    def test_beats_any_single_indicator(self):
        gen = make_generator()
        data, eta = simulate_from(gen, n=20_000, seed=42)
        fs = fm.factor_score(gen, data)
        r_fs = np.corrcoef(fs, eta)[0, 1]
        Y = np.column_stack([data.column(c) for c in data.indicator_names])
        r_single = max(abs(np.corrcoef(Y[:, j], eta)[0, 1]) for j in range(Y.shape[1]))
        assert r_fs > r_single


class TestScoreSet:
    def test_build_and_schema(self, fitted_example):
        res, data = fitted_example
        scores = fm.score_dataset(res.model, data, percentile=55.0)
        assert scores.decision.shape == (data.n,)
        assert set(np.unique(scores.decision)) <= {0, 1}
        assert scores.threshold_percentile == 55.0
        assert scores.reference_level == res.model.reference_level
        # decision rule: strictly above the threshold on the fair score
        np.testing.assert_array_equal(scores.decision, (scores.fair > scores.threshold_value).astype(int))

    def test_fair_invariant_naive_not(self, fitted_example):
        res, data = fitted_example
        scores = fm.score_dataset(res.model, data)
        s = data.sensitive_codes()
        X = data.covariate_matrix(res.model.covariate_names)
        flipped = fm.naive_score(res.model, X, 1.0 - s)
        assert not np.array_equal(scores.naive, flipped)
        assert np.array_equal(scores.fair, fm.fair_score(res.model, X))

    def test_scores_equal_public_scorers_bitwise(self, fitted_example):
        res, data = fitted_example
        X = data.covariate_matrix(res.model.covariate_names)
        s = data.sensitive_codes()
        for level in (None, "a", "b"):
            scores = fm.score_dataset(res.model, data, reference_level=level)
            assert scores.fair.tobytes() == fm.fair_score(res.model, X, level).tobytes()
            assert scores.naive.tobytes() == fm.naive_score(res.model, X, s).tobytes()

    def test_row_ids_lazy_without_id_column(self, tmp_path):
        gen = make_generator()
        data, _ = simulate_from(gen, n=30, seed=29)
        keep = tuple(c for c in data.column_order if c != data.id_name)
        no_id = fm.Dataset(
            keep, {c: data.roles[c] for c in keep}, {c: data.values[c] for c in keep}, data.sensitive_coding
        )
        scores = fm.score_dataset(gen, no_id)
        assert scores.row_ids is None
        assert scores.summary_dict()["n"] == 30
        scores.to_csv(tmp_path / "no_id.csv")
        fm.score_dataset(gen, data).to_csv(tmp_path / "with_id.csv")
        # simulate numbers its ids 0 .. n-1, so the two files are the same bytes
        assert (tmp_path / "no_id.csv").read_bytes() == (tmp_path / "with_id.csv").read_bytes()

    def test_csv_round_trip(self, fitted_example, tmp_path):
        res, data = fitted_example
        scores = fm.score_dataset(res.model, data)
        path = tmp_path / "scores.csv"
        scores.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row_id,fair_score,naive_score,decision"
        assert len(lines) == data.n + 1
        first = lines[1].split(",")
        assert float(first[1]) == scores.fair[0]


B = GRAM_CHUNK_ROWS


def block_edge_case(n, q):
    """A model with ``q`` covariates and a dataset of ``n`` rows in two
    groups, with shifted and scaled covariate columns."""
    rng = np.random.default_rng(1000 * q + n)
    model = score_model(beta=tuple(rng.normal(size=q)), gamma=-0.7)
    names = model.covariate_names
    X = rng.normal(size=(n, q)) * rng.uniform(0.5, 20.0, q) + rng.uniform(-50.0, 50.0, q)
    values = {"g": rng.choice(["a", "b"], size=n), "y1": rng.normal(size=n), "y2": rng.normal(size=n)}
    values.update({name: X[:, j].copy() for j, name in enumerate(names)})
    roles = {"g": "sensitive", "y1": "indicator", "y2": "indicator", **{name: "covariate" for name in names}}
    data = fm.Dataset(("g", "y1", "y2", *names), roles, values, CODING)
    return model, data


class TestBlockedPredictor:
    """Scores are formed a block of GRAM_CHUNK_ROWS rows at a time; every
    row of every block, the short last one included, must be scored."""

    @pytest.mark.parametrize("q", [1, 6])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7])
    def test_dataset_scores_equal_matrix_scores_and_oracle(self, n, q):
        model, data = block_edge_case(n, q)
        X = data.covariate_matrix(model.covariate_names)
        s = data.sensitive_codes()
        scores = fm.score_dataset(model, data)
        assert scores.fair.tobytes() == fm.fair_score(model, X).tobytes()
        assert scores.naive.tobytes() == fm.naive_score(model, X, s).tobytes()
        beta, gamma = np.asarray(model.struct_coefs), model.sens_coef
        # whole-matrix products by bytes: at n = B + 1 the last row must not
        # be a block of its own, which numpy's one-row matmul rounds otherwise
        code = model.level_code(model.reference_level)
        assert scores.fair.tobytes() == (X @ beta + gamma * code).tobytes()
        assert scores.naive.tobytes() == (X @ beta + gamma * s).tobytes()
        scale = np.abs(X) @ np.abs(beta) + abs(gamma)
        assert np.all(np.abs(scores.fair - X @ beta) <= 1e-12 * scale)
        assert np.all(np.abs(scores.naive - (X @ beta + gamma * s)) <= 1e-12 * scale)

    @pytest.mark.parametrize("q", [1, 6])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7])
    def test_factor_scores_equal_dense_formula_by_bytes(self, n, q):
        model, data = block_edge_case(n, q)
        X = data.covariate_matrix(model.covariate_names)
        s = data.sensitive_codes()
        Y = np.column_stack([data.column(c) for c in model.indicator_names])
        mu = fm.implied_moments(model, X, s).cond_mean
        m = X @ np.asarray(model.struct_coefs) + model.sens_coef * s
        w = model.latent_var * (_precision(vars(model))[0] @ model.loadings)
        assert fm.factor_score(model, data).tobytes() == (m + (Y - mu) @ w).tobytes()

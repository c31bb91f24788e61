"""Ingestion, transforms, splitting and the synthetic generator."""

import math

import numpy as np
import pytest

import fairmimic as fm
from fairmimic import data as data_mod
from fairmimic.data import role_config_of

from conftest import make_generator, simulate_from

FIXTURE_CSV = """id,grp,x1,y1,y2
r1,a,0.25,1.5,2.0
r2,b,-1.0,0.5,0.125
r3,a,2.0,3.75,-0.5
"""

ROLES = {
    "roles": {"id": "id", "grp": "sensitive", "x1": "covariate", "y1": "indicator", "y2": "indicator"}
}


def write_fixture(tmp_path, text=FIXTURE_CSV):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_fixture_loads(self, tmp_path):
        ds = fm.load_csv(write_fixture(tmp_path), ROLES)
        assert ds.n == 3
        assert ds.indicator_names == ("y1", "y2")
        assert ds.covariate_names == ("x1",)
        assert ds.sensitive_name == "grp"
        np.testing.assert_array_equal(ds.sensitive_codes(), [0.0, 1.0, 0.0])
        assert tuple(ds.column("id")) == ("r1", "r2", "r3")

    def test_missing_cell_names_row_and_column(self, tmp_path):
        text = FIXTURE_CSV.replace("-1.0,0.5", "-1.0,")
        with pytest.raises(fm.DataValidationError, match=r"row 3.*'y1'.*1 of 3"):
            fm.load_csv(write_fixture(tmp_path, text), ROLES)

    def test_non_numeric_cell(self, tmp_path):
        text = FIXTURE_CSV.replace("3.75", "oops")
        with pytest.raises(fm.DataValidationError, match="non-numeric"):
            fm.load_csv(write_fixture(tmp_path, text), ROLES)

    def test_unknown_column_in_roles(self, tmp_path):
        roles = {"roles": {**ROLES["roles"], "nothere": "covariate"}}
        with pytest.raises(fm.DataValidationError, match="unknown columns"):
            fm.load_csv(write_fixture(tmp_path), roles)

    def test_unassigned_column(self, tmp_path):
        roles = {"roles": {k: v for k, v in ROLES["roles"].items() if k != "x1"}}
        with pytest.raises(fm.DataValidationError, match="without a role"):
            fm.load_csv(write_fixture(tmp_path), roles)

    def test_too_few_indicators(self, tmp_path):
        roles = {"roles": {**ROLES["roles"], "y2": "ignore"}}
        with pytest.raises(fm.DataValidationError, match="2 indicator"):
            fm.load_csv(write_fixture(tmp_path), roles)

    def test_explicit_coding_respected(self, tmp_path):
        roles = {**ROLES, "sensitive_coding": {"b": 0, "a": 1}}
        ds = fm.load_csv(write_fixture(tmp_path), roles)
        np.testing.assert_array_equal(ds.sensitive_codes(), [1.0, 0.0, 1.0])

    def test_round_trip_bit_exact(self, tmp_path):
        gen = make_generator()
        data, _ = simulate_from(gen, n=57, seed=123)
        path = tmp_path / "round.csv"
        fm.write_csv(data, path)
        back = fm.load_csv(path, role_config_of(data))
        for c in data.column_order:
            if data.values[c].dtype == np.float64:
                np.testing.assert_array_equal(back.values[c], data.values[c])
            else:
                assert list(back.values[c]) == list(data.values[c])
        assert back.fingerprint() == data.fingerprint()


def three_row_dataset(labels, coding):
    return fm.Dataset(
        column_order=("g", "y1", "y2"),
        roles={"g": "sensitive", "y1": "indicator", "y2": "indicator"},
        values={"g": labels, "y1": np.array([1.0, 2.0, 4.0]), "y2": np.array([0.5, 0.0, 1.0])},
        sensitive_coding=coding,
    )


class TestSensitiveColumn:
    def test_coded_once_per_dataset(self, monkeypatch):
        gen = make_generator()
        data, _ = simulate_from(gen, n=50, seed=5)
        calls = []
        real = data_mod.group_codes

        def counted(labels):
            calls.append(len(labels))
            return real(labels)

        monkeypatch.setattr(data_mod, "group_codes", counted)
        ds = fm.Dataset(data.column_order, data.roles, data.values, data.sensitive_coding)
        codes = [ds.sensitive_codes() for _ in range(3)]
        scores = fm.score_dataset(gen, ds)
        assert calls == [50]
        expected = [data.sensitive_coding[v] for v in data.sensitive_labels()]
        for c in codes:
            np.testing.assert_array_equal(c, expected)
        np.testing.assert_array_equal(scores.naive, fm.naive_score(gen, ds.covariate_matrix(), expected))

    def test_label_column_read_only_and_callers_array_untouched(self):
        labels = np.array(["a", "b", "a"], dtype=object)
        ds = three_row_dataset(labels, {"a": 0, "b": 1})
        with pytest.raises(ValueError, match="read-only"):
            ds.sensitive_labels()[0] = "b"
        with pytest.raises(ValueError, match="read-only"):
            ds.sensitive_codes()[0] = 1.0
        assert labels.flags.writeable
        labels[0] = "b"
        assert ds.sensitive_labels().tolist() == ["a", "b", "a"]
        np.testing.assert_array_equal(ds.sensitive_codes(), [0.0, 1.0, 0.0])

    def test_labels_coded_by_their_str(self):
        # the one coder maps labels through str, so numeric labels match
        # str keys, and keys of any type are read as their str
        for coding in ({"0": 1, "1": 0}, {0: 1, 1: 0}):
            ds = three_row_dataset(np.array([0, 1, 0]), coding)
            np.testing.assert_array_equal(ds.sensitive_codes(), [1.0, 0.0, 1.0])
            assert ds.sensitive_coding == {"0": 1, "1": 0}

    def test_label_without_code_rejected(self):
        with pytest.raises(fm.DataValidationError, match=r"without a code: \['c'\]"):
            three_row_dataset(np.array(["a", "c", "a"], dtype=object), {"a": 0, "b": 1})


class TestTransform:
    def test_log1p_example(self, tmp_path):
        text = "grp,x1,y1,y2\na,0.0,0.0,1.0\nb,1.0," + repr(math.e - 1) + ",2.0\n"
        ds = fm.load_csv(write_fixture(tmp_path, text), {"roles": {
            "grp": "sensitive", "x1": "covariate", "y1": "indicator", "y2": "indicator"}})
        out, record = fm.transform(ds, log1p=["y1"])
        np.testing.assert_allclose(out.column("y1"), [0.0, 1.0], atol=1e-15)
        assert "y1" in out.log_scale
        assert record.log1p == ("y1",)

    def test_negative_value_rejected(self, tmp_path):
        ds = fm.load_csv(write_fixture(tmp_path), ROLES)
        with pytest.raises(fm.DataValidationError, match="negative"):
            fm.transform(ds, log1p=["y2"])

    def test_standardized_column_has_zero_mean_unit_var(self):
        data, _ = simulate_from(make_generator(), n=200, seed=3)
        out, record = fm.transform(data, standardize=["x1", "x2"])
        for c in ("x1", "x2"):
            assert abs(out.column(c).mean()) < 1e-10
            assert abs(out.column(c).var(ddof=0) - 1.0) < 1e-10
        assert set(record.standardize) == {"x1", "x2"}

    def test_test_split_uses_training_statistics(self):
        # handcrafted shifted test split: applying the training record must
        # reproduce (x - train_mean) / train_std, not restandardize
        data, _ = simulate_from(make_generator(), n=100, seed=4)
        train, test = fm.split(data, 0.5, seed=0)
        shifted = test.replace_columns({"x1": test.column("x1") + 10.0})
        _, record = fm.transform(train, standardize=["x1"])
        mean, std = record.standardize["x1"]
        out = record.apply(shifted)
        np.testing.assert_allclose(out.column("x1"), (shifted.column("x1") - mean) / std, atol=1e-12)
        assert abs(out.column("x1").mean()) > 1.0  # clearly not re-centered

    def test_empty_transform_returns_the_dataset(self):
        data, _ = simulate_from(make_generator(), n=50, seed=5)
        out, record = fm.transform(data)
        assert out is data
        assert record.apply(data) is data

    def test_idempotence_with_own_record(self):
        data, _ = simulate_from(make_generator(), n=150, seed=5)
        once, _ = fm.transform(data, standardize=["x1"])
        twice, _ = fm.transform(once, standardize=["x1"])
        np.testing.assert_allclose(twice.column("x1"), once.column("x1"), atol=1e-12)


class TestSplit:
    def test_sizes_and_determinism(self):
        data, _ = simulate_from(make_generator(), n=10, seed=6)
        a1, b1 = fm.split(data, 0.8, seed=42)
        a2, b2 = fm.split(data, 0.8, seed=42)
        assert (a1.n, b1.n) == (8, 2)
        assert a1.fingerprint() == a2.fingerprint()
        assert b1.fingerprint() == b2.fingerprint()

    def test_partition_is_exhaustive_and_disjoint(self):
        data, _ = simulate_from(make_generator(), n=37, seed=7)
        train, test = fm.split(data, 0.6, seed=1)
        ids = sorted([*train.column("id"), *test.column("id")])
        assert ids == sorted(data.column("id"))
        assert set(train.column("id")).isdisjoint(test.column("id"))

    def test_seed_sensitivity(self):
        data, _ = simulate_from(make_generator(), n=1000, seed=8)
        a1, _ = fm.split(data, 0.7, seed=1)
        a2, _ = fm.split(data, 0.7, seed=2)
        assert set(a1.column("id")) != set(a2.column("id"))

    def test_invalid_fraction(self):
        data, _ = simulate_from(make_generator(), n=10, seed=9)
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                fm.split(data, frac, seed=0)


class TestSimulate:
    def test_noiseless_degenerate(self):
        gen = make_generator(gamma=0.0).with_values(
            struct_coefs=np.zeros(3),
            resid_vars=np.full(4, 1e-12),
            latent_var=1e-12,
        )
        data, _ = simulate_from(gen, n=200, seed=10)
        Y = data.indicator_matrix()
        np.testing.assert_allclose(Y, np.broadcast_to(gen.intercepts, Y.shape), atol=1e-5)

    def test_sample_covariance_matches_implied(self):
        gen = make_generator(gamma=0.0).with_values(struct_coefs=np.zeros(3))
        data, _ = simulate_from(gen, n=100_000, seed=11)
        Y = data.indicator_matrix()
        sample = np.cov(Y, rowvar=False)
        implied = fm.implied_moments(gen, np.zeros((1, 3)), np.zeros(1)).cond_cov
        np.testing.assert_allclose(sample, implied, rtol=0.02, atol=0.0)

    def test_seed_determinism(self):
        gen = make_generator()
        d1, e1 = simulate_from(gen, n=100, seed=12)
        d2, e2 = simulate_from(gen, n=100, seed=12)
        d3, _ = simulate_from(gen, n=100, seed=13)
        assert d1.fingerprint() == d2.fingerprint()
        np.testing.assert_array_equal(e1, e2)
        assert d1.fingerprint() != d3.fingerprint()

    def test_latent_consistent_with_indicators(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, eta = simulate_from(gen, n=500, seed=14)
        # indicator j equals nu_j + lambda_j eta + delta_j s up to N(0, theta_j) noise
        Y = data.indicator_matrix()
        s = data.sensitive_codes()
        resid = Y - gen.intercepts - np.outer(eta, gen.loadings) - np.outer(s, gen.dif_offsets)
        np.testing.assert_allclose(resid.std(axis=0), np.sqrt(gen.resid_vars), rtol=0.2)

    def test_group_shift_moves_covariate_means(self):
        gen = make_generator()
        data, _ = simulate_from(gen, n=20_000, seed=15, group_shift=np.array([1.0, 0.0, 0.0]))
        s = data.sensitive_codes()
        x1 = data.column("x1")
        assert x1[s == 1].mean() - x1[s == 0].mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_spec(self):
        gen = make_generator()
        with pytest.raises(ValueError):
            fm.SimSpec(n=0, model=gen, group_prob=0.5, seed=0)
        with pytest.raises(ValueError):
            fm.SimSpec(n=10, model=gen, group_prob=1.5, seed=0)
        with pytest.raises(ValueError):
            fm.SimSpec(n=10, model=gen, group_prob=0.5, seed=0, group_shift=np.zeros(2))

    def test_fingerprint_sensitive_to_values(self):
        data, _ = simulate_from(make_generator(), n=20, seed=16)
        bumped = data.replace_columns({"y1": data.column("y1") + 1e-12})
        assert data.fingerprint() != bumped.fingerprint()

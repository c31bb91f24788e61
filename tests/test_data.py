"""Ingestion, transforms, splitting and the synthetic generator."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fairmimic as fm
from fairmimic import audit as audit_mod
from fairmimic import data as data_mod
from fairmimic import score as score_mod
from fairmimic.cli import main
from fairmimic.data import role_config_of

from conftest import CODING, make_generator, same_bits, same_table, simulate_from

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

    @pytest.mark.parametrize("key", ["standardise", "role", "log_scales"])
    def test_unknown_config_key(self, tmp_path, key):
        # a misspelled key would be ignored, and its transform never applied
        with pytest.raises(fm.DataValidationError, match=f"unknown keys \\['{key}'\\]"):
            fm.load_csv(write_fixture(tmp_path), {**ROLES, key: ["x1"]})

    def test_config_without_roles(self, tmp_path):
        with pytest.raises(fm.DataValidationError, match="no 'roles' entry"):
            fm.load_csv(write_fixture(tmp_path), {"sensitive_coding": CODING})

    def test_unassigned_column(self, tmp_path):
        roles = {"roles": {k: v for k, v in ROLES["roles"].items() if k != "x1"}}
        with pytest.raises(fm.DataValidationError, match="without a role"):
            fm.load_csv(write_fixture(tmp_path), roles)

    def test_too_few_indicators(self, tmp_path):
        roles = {"roles": {**ROLES["roles"], "y2": "ignore"}}
        with pytest.raises(fm.DataValidationError, match="2 indicator"):
            fm.load_csv(write_fixture(tmp_path), roles)

    @pytest.mark.parametrize("name", ["cots", "x1", "grp"])
    def test_log_scale_names_indicators_only(self, tmp_path, name):
        # a typo or a non-indicator would load silently, and the DIF scan
        # would then report no percent effect
        with pytest.raises(fm.DataValidationError, match=f"log_scale names columns that are not indicators: \\['{name}'\\]"):
            fm.load_csv(write_fixture(tmp_path), {**ROLES, "log_scale": [name]})

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
        # the simulated ids are int64 row numbers; the file holds them as
        # text, which is what a table read from disk keeps
        ids = data.column("id")
        as_text = data.replace_columns({"id": np.array([str(i) for i in ids.tolist()], dtype=object)})
        for c in data.column_order:
            if data.values[c].dtype == np.float64:
                np.testing.assert_array_equal(back.values[c], data.values[c])
            else:
                assert list(back.values[c]) == list(as_text.values[c])
        assert same_table(back, as_text)
        # and the text is a fixed point: writing the loaded table gives the same bytes
        again = tmp_path / "again.csv"
        fm.write_csv(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_repeated_header_name_rejected(self, tmp_path):
        # keyed by name, the second x1 would replace the first, and the fit
        # would see one covariate twice
        text = "id,grp,x1,x1,y1,y2\nr1,a,0.25,7.0,1.5,2.0\nr2,b,-1.0,3.0,0.5,0.125\nr3,a,2.0,-1.0,3.75,-0.5\n"
        with pytest.raises(fm.DataValidationError, match=r"header repeats column names: \['x1'\]"):
            fm.load_csv(write_fixture(tmp_path, text), ROLES)


BAD_CODINGS = [
    {"a": 0.6, "b": 1.9},
    {"a": 0.5, "b": 1},
    {"a": 0, "b": "1"},
    {"a": False, "b": True},
    {"a": 0, "b": 1.0},
    {"a": 0, "b": 0},
    {"a": 0, "b": 2},
    {"a": 0, "b": 1, "c": 1},
    {1: 0, "1": 1},  # two keys whose str collide
]


class TestSensitiveCoding:
    @pytest.mark.parametrize("coding", BAD_CODINGS, ids=repr)
    def test_every_entry_point_refuses_a_bad_coding(self, tmp_path, capsys, coding):
        gen = make_generator()
        data, _ = simulate_from(gen, n=50, seed=1)
        model_dict = {**gen.to_dict(), "sensitive_coding": coding}
        calls = {
            "template": lambda: fm.template(gen.indicator_names, gen.covariate_names, coding),
            "MimicModel": lambda: dataclasses.replace(gen, sensitive_coding=coding),
            "MimicModel.from_dict": lambda: fm.MimicModel.from_dict(model_dict),
            "Dataset": lambda: fm.Dataset(data.column_order, data.roles, data.values, coding),
            "load_csv": lambda: fm.load_csv(write_fixture(tmp_path), {**ROLES, "sensitive_coding": coding}),
        }
        for call in calls.values():
            with pytest.raises(fm.DataValidationError, match="sensitive_coding"):
                call()
        fm.write_csv(data, tmp_path / "sim.csv")
        (tmp_path / "roles.json").write_text(json.dumps({**role_config_of(data), "sensitive_coding": coding}))
        argv = ["fit", "--data", str(tmp_path / "sim.csv"), "--roles", str(tmp_path / "roles.json")]
        assert main([*argv, "--out-dir", str(tmp_path / "fit")]) == 1
        assert "sensitive_coding must map" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_a_numpy_int_coding_round_trips_as_ints(self, tmp_path):
        coding = {"b": np.int32(1), "a": np.int64(0)}
        gen = make_generator()
        spec = fm.template(gen.indicator_names, gen.covariate_names, coding)
        data, _ = simulate_from(gen, n=50, seed=1)
        ds = fm.Dataset(data.column_order, data.roles, data.values, coding)
        loaded = fm.load_csv(write_fixture(tmp_path), {**ROLES, "sensitive_coding": coding})
        for coded in (spec.sensitive_coding, ds.sensitive_coding, loaded.sensitive_coding):
            assert coded == CODING and all(type(v) is int for v in coded.values())
        back = fm.MimicModel.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.sensitive_coding == CODING and back.reference_level == "a"
        assert json.loads(json.dumps(role_config_of(ds)))["sensitive_coding"] == CODING


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

    @pytest.mark.parametrize("source", ["Dataset", "load_csv"])
    def test_one_coding_pass_through_score_and_audit(self, monkeypatch, tmp_path, source):
        gen = make_generator()
        data, latent = simulate_from(gen, n=200, seed=6)
        path = tmp_path / "data.csv"
        fm.write_csv(data, path)
        callers = np.array(data.sensitive_labels())
        passes = count_coding_passes(monkeypatch)
        if source == "Dataset":
            ds = fm.Dataset(data.column_order, data.roles,
                            {**data.values, data.sensitive_name: callers}, data.sensitive_coding)
        else:
            ds = fm.load_csv(path, role_config_of(data))
        labels = ds.sensitive_labels()
        outcome = (latent > np.median(latent)).astype(np.int64)
        proxy = ds.column("y1")

        def audits(sens):
            scores = fm.score_dataset(gen, ds)
            return [
                fm.statistical_parity(scores.decision, sens),
                fm.conditional_parity_curve(scores.fair, sens, proxy),
                fm.conditional_parity_curve(scores.naive, sens, proxy),
                fm.predictive_parity(scores.decision, outcome, sens),
                score_mod.as_codes(gen, sens).tolist(),
            ]

        reports = audits(labels)
        assert passes == [200]
        assert reports == audits(callers)
        assert passes == [200] * 6  # the caller's own array is coded afresh by each call

    def test_arrays_derived_from_the_labels_coded_afresh(self, monkeypatch):
        ds = three_row_dataset(np.array(["a", "b", "b"], dtype=object), {"a": 0, "b": 1})
        carried = ds.sensitive_labels()
        flipped = np.where(carried == "a", "b", "a")
        swapped = ds.replace_columns({"g": flipped})  # every label flipped
        np.testing.assert_array_equal(swapped.sensitive_codes(), [1.0, 0.0, 0.0])
        derived = [carried[1:], carried[::-1], carried.copy(), carried == "b", flipped,
                   swapped.sensitive_labels()]
        expected = [data_mod.group_codes(list(arr)) for arr in derived]
        passes = count_coding_passes(monkeypatch)
        for arr, (levels, index) in zip(derived, expected):
            got_levels, got_index = data_mod.group_codes(arr)
            assert got_levels == levels
            np.testing.assert_array_equal(got_index, index)
        # all but the swapped-in column, which carries the coding it was given
        assert len(passes) == len(derived) - 1

    def test_numeric_replacement_keeps_the_coding(self, monkeypatch):
        ds = three_row_dataset(np.array(["a", "b", "a"], dtype=object), {"a": 0, "b": 1})
        passes = count_coding_passes(monkeypatch)
        out = ds.replace_columns({"y1": np.array([0.0, 1.0, 2.0])})
        assert out.sensitive_labels() is ds.sensitive_labels()
        assert passes == []
        np.testing.assert_array_equal(out.sensitive_codes(), [0.0, 1.0, 0.0])

    def test_replacing_an_unknown_column_raises(self):
        ds = three_row_dataset(np.array(["a", "b", "a"], dtype=object), {"a": 0, "b": 1})
        with pytest.raises(fm.DataValidationError, match="no column named 'y3', 'z' to replace"):
            ds.replace_columns({"y1": np.zeros(3), "z": np.zeros(3), "y3": np.zeros(3)})

    def test_carried_coding_cannot_go_stale(self):
        ds = three_row_dataset(np.array(["a", "b", "a"], dtype=object), {"a": 0, "b": 1})
        with pytest.raises(ValueError):
            ds.sensitive_labels().flags.writeable = True
        for labels in (ds.sensitive_labels(), np.array(["b", "a"])):
            levels, index = data_mod.group_codes(labels)
            with pytest.raises(TypeError):
                levels[0] = "z"
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1

    def test_labels_coded_by_their_str(self):
        # the one coder maps labels through str, so numeric labels match
        # str keys, and keys of any type are read as their str
        for coding in ({"0": 1, "1": 0}, {0: 1, 1: 0}):
            ds = three_row_dataset(np.array([0, 1, 0]), coding)
            np.testing.assert_array_equal(ds.sensitive_codes(), [1.0, 0.0, 1.0])
            assert ds.sensitive_coding == {"0": 1, "1": 0}

    @pytest.mark.parametrize("rows", ["one level", "permuted"])
    def test_subset_carries_the_parents_coding(self, monkeypatch, rows):
        data, _ = simulate_from(make_generator(), n=60, seed=7)
        plain = np.array(data.sensitive_labels())  # coded by group_codes, not by simulate
        parent = fm.Dataset(data.column_order, data.roles, {**data.values, "group": plain}, data.sensitive_coding)
        if rows == "one level":
            rows = np.flatnonzero(plain == "b")[::-1]
        else:
            rows = np.random.default_rng(3).permutation(parent.n)
        passes = count_coding_passes(monkeypatch)
        sub = parent.subset(rows)
        assert passes == []
        monkeypatch.undo()
        levels, index = data_mod.group_codes(plain[rows])
        assert sub.sensitive_labels().groups[0] == levels
        assert same_bits(sub.sensitive_labels().groups[1], index)
        assert sub.sensitive_labels().tolist() == plain[rows].tolist()
        assert same_bits(sub.sensitive_codes(), parent.sensitive_codes()[rows])
        with pytest.raises(ValueError):
            sub.sensitive_labels().flags.writeable = True
        assert not sub.sensitive_labels().groups[1].flags.writeable

    def test_subset_refuses_a_boolean_mask(self):
        # cast to row numbers, the mask [F, F, T, T, T] would pick ids 0, 0, 1, 1, 1
        data, _ = simulate_from(make_generator(), n=5, seed=7)
        mask = [False, False, True, True, True]
        for rows in (mask, np.array(mask)):
            with pytest.raises(ValueError, match="flatnonzero"):
                data.subset(rows)
        ids = data.subset(np.flatnonzero(mask)).column("id")
        assert ids.dtype == np.int64 and ids.tolist() == [2, 3, 4]

    def test_repeated_column_name_rejected(self):
        with pytest.raises(fm.DataValidationError, match=r"column_order repeats column names: \['y1'\]"):
            fm.Dataset(
                column_order=("g", "y1", "y2", "y1"),
                roles={"g": "sensitive", "y1": "indicator", "y2": "indicator"},
                values={"g": np.array(["a", "b", "a"]), "y1": np.array([1.0, 2.0, 4.0]), "y2": np.array([0.5, 0.0, 1.0])},
                sensitive_coding=CODING,
            )

    def test_extra_values_key_rejected(self):
        # an extra column would survive subset and be dropped by write_csv
        values = {"g": np.array(["a", "b", "a"]), "y1": np.array([1.0, 2.0, 4.0]), "y2": np.array([0.5, 0.0, 1.0])}
        with pytest.raises(fm.DataValidationError, match=r"missing \[\], extra \['z'\]"):
            fm.Dataset(
                column_order=("g", "y1", "y2"),
                roles={"g": "sensitive", "y1": "indicator", "y2": "indicator"},
                values={**values, "z": np.zeros(3)},
                sensitive_coding=CODING,
            )

    def test_missing_values_key_rejected(self):
        # a table without its id values would report id_name "id", and
        # write_csv would then fail on the absent column
        values = {"g": np.array(["a", "b", "a"]), "y1": np.array([1.0, 2.0, 4.0]), "y2": np.array([0.5, 0.0, 1.0])}
        with pytest.raises(fm.DataValidationError, match=r"missing \['id'\], extra \[\]"):
            fm.Dataset(
                column_order=("id", "g", "y1", "y2"),
                roles={"id": "id", "g": "sensitive", "y1": "indicator", "y2": "indicator"},
                values=values,
                sensitive_coding=CODING,
            )

    def test_label_without_code_rejected(self):
        with pytest.raises(fm.DataValidationError, match=r"without a code: \['c'\]"):
            three_row_dataset(np.array(["a", "c", "a"], dtype=object), {"a": 0, "b": 1})


def count_coding_passes(monkeypatch) -> list:
    """Patch every module's ``group_codes`` to record the length of each
    array it codes afresh, that is each call not handing back the coding the
    array carries."""
    passes = []
    real = data_mod.group_codes

    def counted(labels):
        out = real(labels)
        if out is not getattr(labels, "groups", None):
            passes.append(len(labels))
        return out

    for module in (data_mod, audit_mod, score_mod):
        monkeypatch.setattr(module, "group_codes", counted)
    return passes


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
        assert same_table(a1, a2) and same_table(b1, b2)

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


DEMO_MODEL = fm.SimSpec.from_dict(
    json.loads((Path(__file__).resolve().parents[1] / "scripts" / "demo_simspec.json").read_text())
).model


def dense_simulate(spec):
    """The group codes, covariates, indicators and latent of ``spec`` drawn
    as ``simulate`` drew them before it wrote each block of draws into the
    columns: one ``_gauss`` call for every normal draw after the group, then
    the generating formulas on whole matrices."""
    model = spec.model
    n, p, q = spec.n, model.n_indicators, model.n_covariates
    rng = np.random.default_rng(spec.seed)
    s = (rng.random(n) < spec.group_prob).astype(np.float64)
    z = data_mod._gauss(rng, n * (q + 1 + p))
    X = z[: n * q].reshape(n, q)
    if spec.group_shift is not None:
        X = X + s[:, None] * spec.group_shift[None, :]
    zeta = z[n * q : n * (q + 1)] * np.sqrt(model.latent_var)
    eps = z[n * (q + 1) :].reshape(n, p) * np.sqrt(model.resid_vars)[None, :]
    eta = X @ model.struct_coefs + model.sens_coef * s + zeta
    Y = (
        model.intercepts[None, :]
        + eta[:, None] * model.loadings[None, :]
        + s[:, None] * model.dif_offsets[None, :]
        + eps
    )
    if spec.cross_loadings is not None:
        Y = Y + X @ spec.cross_loadings.T
    return s, X, Y, eta


class TestSimulate:
    # The suite generator draws 8 normals a row, so GAUSS_BLOCK entries are
    # 2048 rows; the demo generator draws 11.  Every size sits next to the
    # edge of a block of draws or of a GRAM_CHUNK_ROWS block of rows.
    @pytest.mark.parametrize("options", ["plain", "group_shift", "cross_loadings", "both"])
    @pytest.mark.parametrize(
        "gen, n",
        [("suite", n) for n in (1, 2047, 2048, 2049, 4095, 4096, 4097, 5000, 8193)]
        + [("demo", 1490), ("demo", 4097)],
    )
    def test_bit_identical_to_the_dense_draw(self, gen, n, options):
        model = make_generator(dif=(0.0, 0.3, 0.0, -0.2)) if gen == "suite" else DEMO_MODEL
        p, q = model.n_indicators, model.n_covariates
        kwargs = {}
        if options in ("group_shift", "both"):
            kwargs["group_shift"] = np.linspace(-1.5, 0.7, q)
        if options in ("cross_loadings", "both"):
            kwargs["cross_loadings"] = np.linspace(-0.9, 1.3, p * q).reshape(p, q) / 3.0
        level = {code: label for label, code in model.sensitive_coding.items()}
        # several seeds: a row block of one row rounds otherwise only now and then
        for seed in range(4):
            spec = fm.SimSpec(n=n, model=model, group_prob=0.45, seed=seed, **kwargs)
            data, eta = fm.simulate(spec)
            s, X, Y, dense_eta = dense_simulate(spec)
            assert same_bits(eta, dense_eta)
            assert same_bits(data.sensitive_codes(), s)
            for j, c in enumerate(model.covariate_names):
                assert same_bits(data.column(c), X[:, j]), c
            for j, c in enumerate(model.indicator_names):
                assert same_bits(data.column(c), Y[:, j]), c
            assert data.sensitive_labels().tolist() == [level[code] for code in s.astype(int).tolist()]
            assert same_bits(data.column("id"), np.arange(n, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 1001, data_mod.GAUSS_BLOCK // 8 + 1])
    def test_ids_are_the_row_numbers_as_str(self, n, tmp_path):
        # the suite generator draws 8 normals a row, so GAUSS_BLOCK / 8 + 1
        # rows cross a block of the draw.  The ids are held as int64 row
        # numbers and written as their str.
        data = fm.simulate(fm.SimSpec(n=n, model=make_generator(), group_prob=0.5, seed=n))[0]
        ids = data.column("id")
        assert same_bits(ids, np.arange(n, dtype=np.int64))
        fm.write_csv(data, tmp_path / "data.csv")
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert [line.split(",", 1)[0] for line in lines] == ["id"] + [str(i) for i in range(n)]

    @pytest.mark.parametrize(
        "n, group_prob, coding, present",
        [
            (1, 0.5, CODING, None),
            (1, 0.5, {"b": 0, "a": 1}, None),
            (300, 1e-9, CODING, ("a",)),  # one group only
            (300, 1.0 - 1e-9, CODING, ("b",)),  # the other group only, the second level
            (300, 0.5, {"b": 0, "a": 1}, ("a", "b")),  # the codes run against the sorted levels
        ],
    )
    def test_carries_the_coding_group_codes_gives(self, monkeypatch, n, group_prob, coding, present):
        gen = dataclasses.replace(make_generator(), sensitive_coding=coding)
        group_codes = data_mod.group_codes
        passes = count_coding_passes(monkeypatch)
        for seed in range(3):
            data, _ = fm.simulate(fm.SimSpec(n=n, model=gen, group_prob=group_prob, seed=seed))
            assert passes == []  # the dataset kept the coding simulate handed over
            labels = data.sensitive_labels()
            levels, index = labels.groups
            expected_levels, expected_index = group_codes(np.array(labels))  # a plain copy
            assert levels == expected_levels
            assert same_bits(index, expected_index) and not index.flags.writeable
            assert present is None or levels == present

    def test_draw_holds_one_block_beyond_the_table(self):
        # The dense draw, which held every normal draw and the indicator
        # matrix at once, peaked at 1.8 times the table.  What is kept is
        # q + p + 5 arrays of 8 bytes a row: the value columns, the latent,
        # the label pointers, the codes, the group index and the ids; a
        # Python str per id would add about 50 bytes a row.
        n, model = 200_000, make_generator()
        spec = fm.SimSpec(n=n, model=model, group_prob=0.5, seed=1)
        tracemalloc.start()
        try:
            table = fm.simulate(spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table[0].n == n
        arrays = model.n_covariates + model.n_indicators + 5
        assert kept <= 8 * n * arrays + 1e6, f"{kept / 1e6:.2f} MB kept for {arrays} arrays of {n} rows"
        assert peak <= 1.3 * kept, f"peak {peak / 1e6:.1f} MB for {kept / 1e6:.1f} MB returned"

    def test_noiseless_degenerate(self):
        gen = dataclasses.replace(
            make_generator(gamma=0.0),
            struct_coefs=np.zeros(3),
            resid_vars=np.full(4, 1e-12),
            latent_var=1e-12,
        )
        data, _ = simulate_from(gen, n=200, seed=10)
        Y = np.column_stack([data.column(c) for c in data.indicator_names])
        np.testing.assert_allclose(Y, np.broadcast_to(gen.intercepts, Y.shape), atol=1e-5)

    def test_sample_covariance_matches_implied(self):
        gen = dataclasses.replace(make_generator(gamma=0.0), struct_coefs=np.zeros(3))
        data, _ = simulate_from(gen, n=100_000, seed=11)
        Y = np.column_stack([data.column(c) for c in data.indicator_names])
        sample = np.cov(Y, rowvar=False)
        implied = fm.implied_moments(gen, np.zeros((1, 3)), np.zeros(1)).cond_cov
        np.testing.assert_allclose(sample, implied, rtol=0.02, atol=0.0)

    def test_seed_determinism(self):
        gen = make_generator()
        d1, e1 = simulate_from(gen, n=100, seed=12)
        d2, e2 = simulate_from(gen, n=100, seed=12)
        d3, _ = simulate_from(gen, n=100, seed=13)
        assert same_table(d1, d2)
        np.testing.assert_array_equal(e1, e2)
        assert not same_table(d1, d3)

    def test_latent_consistent_with_indicators(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, eta = simulate_from(gen, n=500, seed=14)
        # indicator j equals nu_j + lambda_j eta + delta_j s up to N(0, theta_j) noise
        Y = np.column_stack([data.column(c) for c in data.indicator_names])
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

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("n", 1000.0), ("n", True), ("seed", 0.5), ("seed", True)])
    def test_non_integer_size_or_seed_rejected(self, field, value):
        kwargs = {"n": 10, "model": make_generator(), "group_prob": 0.5, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            fm.SimSpec(**kwargs)
        fm.SimSpec(**{**kwargs, field: np.int64(7)})  # numpy integers are integers

"""Model parameterization, implied moments, likelihood, gradient and Hessian."""

import dataclasses
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmimic as fm
from fairmimic import model as model_mod
from fairmimic.model import GRAM_CHUNK_ROWS, _extract_arrays, _ll_value, _loglik, _matrix, _precision, _structure, data_moments, n_free_params

from conftest import CODING, make_generator, simulate_from


def tiny_model(**overrides):
    kwargs = dict(
        loadings=[1.0, 0.5],
        intercepts=[0.0, 0.0],
        struct_coefs=[0.0],
        sens_coef=0.0,
        dif_offsets=[0.0, 0.0],
        resid_vars=[0.5, 0.5],
        latent_var=1.0,
        free_mask=[False, False],
        indicator_names=("y1", "y2"),
        covariate_names=("x1",),
        sensitive_coding=CODING,
    )
    kwargs.update(overrides)
    return fm.MimicModel(**kwargs)


class TestImpliedMoments:
    def test_closed_form_covariance(self):
        mom = fm.implied_moments(tiny_model(), np.zeros((1, 1)), np.zeros(1))
        np.testing.assert_allclose(mom.cond_cov, [[1.5, 0.5], [0.5, 0.75]])
        np.testing.assert_allclose(mom.cond_mean, [[0.0, 0.0]])

    def test_latent_shift_propagates_through_loadings(self):
        m = tiny_model(sens_coef=2.0)
        mom = fm.implied_moments(m, np.zeros((1, 1)), np.ones(1))
        np.testing.assert_allclose(mom.cond_mean, [[2.0, 1.0]])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        lam = np.array([1.0, *rng.normal(size=2)])
        model = fm.MimicModel(
            loadings=lam,
            intercepts=rng.normal(size=3),
            struct_coefs=rng.normal(size=2),
            sens_coef=rng.normal(),
            dif_offsets=rng.normal(size=3),
            resid_vars=rng.uniform(0.2, 1.0, size=3),
            latent_var=0.7,
            free_mask=[True, True, True],
            indicator_names=("y1", "y2", "y3"),
            covariate_names=("x1", "x2"),
            sensitive_coding=CODING,
        )
        X = rng.normal(size=(4, 2))
        s = np.array([0.0, 1.0, 1.0, 0.0])
        mom = fm.implied_moments(model, X, s)

        # element-wise recomputation from the scalar formulas
        for i in range(4):
            eta_mean = sum(model.struct_coefs[k] * X[i, k] for k in range(2))
            eta_mean += model.sens_coef * s[i]
            for j in range(3):
                mu_ij = model.intercepts[j] + model.loadings[j] * eta_mean
                mu_ij += model.dif_offsets[j] * s[i]
                assert mom.cond_mean[i, j] == pytest.approx(mu_ij, abs=1e-12)
        for j in range(3):
            for k in range(3):
                sig = model.loadings[j] * model.latent_var * model.loadings[k]
                if j == k:
                    sig += model.resid_vars[j]
                assert mom.cond_cov[j, k] == pytest.approx(sig, abs=1e-12)

    def test_covariance_identical_across_rows_and_pd(self):
        gen = make_generator()
        X = np.random.default_rng(0).normal(size=(5, 3))
        mom = fm.implied_moments(gen, X, np.zeros(5))
        np.testing.assert_array_equal(mom.cond_cov, mom.cond_cov.T)
        assert np.all(np.linalg.eigvalsh(mom.cond_cov) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fm.implied_moments(tiny_model(), np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            fm.implied_moments(tiny_model(), np.zeros((3, 1)), np.zeros(4))


class TestValidation:
    def test_first_loading_pinned(self):
        with pytest.raises(ValueError, match="identification"):
            tiny_model(loadings=[0.9, 0.5])

    def test_positive_variances(self):
        with pytest.raises(ValueError):
            tiny_model(resid_vars=[0.5, 0.0])
        with pytest.raises(ValueError):
            tiny_model(latent_var=-1.0)

    def test_subnormal_residual_variance_rejected(self):
        # lambda / theta would overflow in the closed-form precision
        with pytest.raises(ValueError, match="resid_vars"):
            tiny_model(resid_vars=[0.5, 1e-310])
        model = tiny_model(resid_vars=[0.5, np.finfo(float).tiny])
        data = _dataset_from_rows(model, np.array([[0.3, -0.2]]), np.zeros((1, 1)), ["a"])
        assert np.isfinite(fm.log_likelihood(model, data))

    @pytest.mark.parametrize("loadings, resid_vars, latent_var", [
        ([1.0, 4.0], [0.5, 3e-308], 10.0),  # t_2 = psi lambda_2 u_2 overflows
        ([1.0, 5.0], [0.5, 2.5e-308], 1e-300),  # u_2 = lambda_2 / theta_2 overflows
        ([1.0, 1.0], [1e-300, 1e-300], 1e8),  # each t_j is finite, their sum is not
    ])
    def test_overflowing_precision_terms_rejected(self, loadings, resid_vars, latent_var):
        # the closed-form precision would be NaN, with only RuntimeWarnings
        with pytest.raises(ValueError, match="resid_vars"):
            tiny_model(loadings=loadings, resid_vars=resid_vars, latent_var=latent_var)
        model = tiny_model(loadings=[1.0, 4.0], resid_vars=[0.5, 1e-300], latent_var=10.0)
        data = _dataset_from_rows(model, np.array([[0.3, -0.2]]), np.zeros((1, 1)), ["a"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(fm.log_likelihood(model, data))

    def test_trusted_constructor_equals_the_validating_one(self):
        fields = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in vars(make_generator(dif=(0.0, 0.3, 0.0, 0.0))).items()}
        plain = fm.MimicModel(**fields)
        trusted = fm.MimicModel._trusted(**fields)
        for f in dataclasses.fields(plain):
            want, got = getattr(plain, f.name), getattr(trusted, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and not got.flags.writeable, f.name
            np.testing.assert_array_equal(got, want)
        assert vars(trusted).keys() == vars(plain).keys()

    @pytest.mark.parametrize("changes, match", [
        ({"intercepts": [0.0, math.nan]}, "intercepts must be finite"),
        ({"loadings": [1.0, math.inf]}, "loadings must be finite"),
        ({"sens_coef": math.inf}, "sens_coef must be finite"),
        ({"latent_var": math.nan}, "latent_var must be finite"),
        ({"resid_vars": [0.5, 1e-310]}, "smallest normal float"),
        ({"latent_var": -1.0}, "strictly positive"),
        ({"loadings": [1.0, 4.0], "resid_vars": [0.5, 3e-308], "latent_var": 10.0}, "overflows"),
    ])
    def test_trusted_constructor_keeps_the_value_checks(self, changes, match):
        fields = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in vars(tiny_model()).items()}
        fields.update({k: np.array(v, dtype=np.float64) if isinstance(v, list) else v for k, v in changes.items()})
        with pytest.raises(ValueError, match=match):
            fm.MimicModel._trusted(**fields)

    def test_constrained_dif_must_be_zero(self):
        with pytest.raises(ValueError, match="constrained"):
            tiny_model(dif_offsets=[0.0, 0.1])

    def test_coding_must_be_binary(self):
        with pytest.raises(ValueError):
            tiny_model(sensitive_coding={"a": 0, "b": 2})
        with pytest.raises(ValueError):
            tiny_model(sensitive_coding={"a": 0, "b": 1, "c": 1})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tiny_model(intercepts=[0.0])

    def test_array_fields_are_read_only_copies(self):
        given = {name: np.array(value) for name, value in
                 dict(loadings=[1.0, 0.5], resid_vars=[0.5, 0.5], free_mask=[False, True]).items()}
        model = tiny_model(**given)
        for value in given.values():
            value[1] = 0
        np.testing.assert_array_equal(model.loadings, [1.0, 0.5])
        np.testing.assert_array_equal(model.resid_vars, [0.5, 0.5])
        np.testing.assert_array_equal(model.free_mask, [False, True])
        for name in ("loadings", "intercepts", "struct_coefs", "dif_offsets", "resid_vars", "free_mask"):
            assert not getattr(model, name).flags.writeable, name

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loadings", [1.0, math.nan]),
            ("intercepts", [math.nan, 0.0]),
            ("struct_coefs", [-math.inf]),
            ("sens_coef", math.inf),
            ("dif_offsets", [0.0, math.nan]),
            ("resid_vars", [0.5, math.inf]),
            ("latent_var", math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        overrides = {field: value}
        if field == "dif_offsets":
            overrides["free_mask"] = [False, True]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            tiny_model(**overrides)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        path = tmp_path / "model.json"
        fm.save_model(gen, path)
        back = fm.load_model(path)
        np.testing.assert_array_equal(back.loadings, gen.loadings)
        np.testing.assert_array_equal(back.dif_offsets, gen.dif_offsets)
        np.testing.assert_array_equal(back.free_mask, gen.free_mask)
        assert back.sensitive_coding == gen.sensitive_coding
        assert back.indicator_names == gen.indicator_names

    def test_non_finite_value_in_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        fm.save_model(make_generator(), path)
        d = json.loads(path.read_text())
        d["intercepts"][1] = math.nan
        path.write_text(json.dumps(d))  # written as the bare token NaN, which json accepts
        with pytest.raises(ValueError, match="intercepts must be finite"):
            fm.load_model(path)

    def test_schema_version_checked(self):
        d = make_generator().to_dict()
        d["schema_version"] = 99
        with pytest.raises(fm.SchemaVersionError):
            fm.MimicModel.from_dict(d)


class TestLogLikelihood:
    def test_density_at_mean_identity_cov(self):
        # one row with y = mu and Sigma = I2 has density -log(2*pi)
        model = tiny_model(loadings=[1.0, 0.0], resid_vars=[0.5, 1.0], latent_var=0.5)
        mom = fm.implied_moments(model, np.zeros((1, 1)), np.zeros(1))
        np.testing.assert_allclose(mom.cond_cov, np.eye(2))
        data = _dataset_from_rows(model, mom.cond_mean, np.zeros((1, 1)), ["a"])
        assert fm.log_likelihood(model, data) == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_matches_direct_formula_oracle(self, generator):
        data, _ = simulate_from(generator, n=50, seed=5)
        ll = fm.log_likelihood(generator, data)
        assert ll == pytest.approx(_row_wise_loglik(generator, data), rel=1e-10)

    def test_matches_direct_formula_oracle_across_gram_chunks(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, -0.2))
        n = 2 * GRAM_CHUNK_ROWS + 123
        data, _ = simulate_from(gen, n=n, seed=15)
        ll = fm.log_likelihood(gen, data)
        assert ll == pytest.approx(_row_wise_loglik(gen, data), rel=1e-10)

    def test_additivity_over_rows(self, generator):
        data, _ = simulate_from(generator, n=40, seed=6)
        doubled = data.subset(np.r_[0 : data.n, 0 : data.n])
        assert fm.log_likelihood(generator, doubled) == pytest.approx(
            2.0 * fm.log_likelihood(generator, data), rel=1e-12
        )

    def test_partition_reassociation(self, generator):
        data, _ = simulate_from(generator, n=90, seed=7)
        full = fm.log_likelihood(generator, data)
        chunks = [data.subset(np.arange(a, b)) for a, b in [(0, 31), (31, 60), (60, 90)]]
        summed = sum(fm.log_likelihood(generator, c) for c in chunks)
        assert summed == pytest.approx(full, rel=1e-8)


class TestGradient:
    def test_matches_central_differences(self, generator):
        data, _ = simulate_from(generator, n=120, seed=8)
        Y, X, s = _extract_arrays(generator, data)
        rng = np.random.default_rng(9)
        x0 = fm.pack(generator)
        for _ in range(5):
            x = x0 + rng.normal(scale=0.05, size=x0.shape)
            model = fm.unpack(generator, x)
            grad = fm.log_likelihood_grad(model, data)
            fd = _fd_gradient(x, generator, Y, X, s)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-6

    def test_constrained_offsets_absent_from_gradient(self):
        gen_free = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        gen_none = make_generator()
        data, _ = simulate_from(gen_free, n=60, seed=10)
        assert len(fm.log_likelihood_grad(gen_none, data)) == len(fm.param_names(gen_none))
        assert len(fm.log_likelihood_grad(gen_free, data)) == len(fm.param_names(gen_none)) + 1
        assert "delta[y2]" in fm.param_names(gen_free)
        assert "delta[y1]" not in fm.param_names(gen_free)

    def test_pack_unpack_round_trip(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        back = fm.unpack(gen, fm.pack(gen))
        np.testing.assert_allclose(fm.pack(back), fm.pack(gen), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(back.free_mask, gen.free_mask)

    def test_covariance_reconstruction_to_machine_precision(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int(rng.integers(2, 6))
            lam = np.concatenate([[1.0], rng.normal(size=p - 1)])
            theta = rng.uniform(0.1, 2.0, size=p)
            psi = float(rng.uniform(0.1, 2.0))
            model = fm.MimicModel(
                loadings=lam,
                intercepts=np.zeros(p),
                struct_coefs=[],
                sens_coef=0.0,
                dif_offsets=np.zeros(p),
                resid_vars=theta,
                latent_var=psi,
                free_mask=np.zeros(p, dtype=bool),
                indicator_names=tuple(f"y{j}" for j in range(p)),
                covariate_names=(),
                sensitive_coding=CODING,
            )
            mom = fm.implied_moments(model, np.zeros((1, 0)), np.zeros(1))
            expected = psi * np.outer(lam, lam) + np.diag(theta)
            np.testing.assert_array_equal(mom.cond_cov, expected)


def _exact_precision(lam, theta, psi):
    """``Sigma^-1`` and ``|Sigma|`` of ``psi lam lam' + diag(theta)`` in
    exact rational arithmetic on the float inputs, by Gauss-Jordan
    elimination; Sigma is positive definite, so no pivot is 0."""
    p = len(lam)
    a = [
        [Fraction(psi) * Fraction(lam[j]) * Fraction(lam[k]) + (Fraction(theta[j]) if j == k else 0) for k in range(p)]
        + [Fraction(int(j == k)) for k in range(p)]
        for j in range(p)
    ]
    det = Fraction(1)
    for c in range(p):
        pivot = a[c][c]
        det *= pivot
        a[c] = [v / pivot for v in a[c]]
        for r in range(p):
            if r != c:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    return [row[p:] for row in a], det


def _assert_exact_precision(model, rel=1e-14):
    P, logdet = _precision(vars(model))
    exact, det = _exact_precision(model.loadings, model.resid_vars, model.latent_var)
    p = model.n_indicators
    for j in range(p):
        for k in range(p):
            err = abs(Fraction(P[j, k]) - exact[j][k]) / abs(exact[j][k])
            assert err <= rel, (j, k, float(err))
    assert logdet == pytest.approx(math.log(det), rel=rel, abs=0.0)


class TestPrecision:
    def test_exact_next_to_a_heywood_case(self):
        # theta_3 = 1e-9: P_33 written as 1/theta_3 - psi u_3^2 / (1 + sum t)
        # loses about 9 digits to cancellation
        gen = dataclasses.replace(make_generator(), resid_vars=np.array([0.5, 0.4, 1e-9, 0.5]))
        _assert_exact_precision(gen)

    def test_agrees_with_inverse_and_slogdet_on_random_stacks(self):
        rng = np.random.default_rng(24)
        for p in range(2, 9):
            lam = np.concatenate([np.ones((3, 1)), rng.uniform(-2.0, 2.0, size=(3, p - 1))], axis=1)
            theta = rng.uniform(0.05, 2.0, size=(3, p))
            psi = rng.uniform(0.1, 2.0, size=3)
            P, logdet = _precision({"loadings": lam, "resid_vars": theta, "latent_var": psi})
            sigma = psi[:, None, None] * lam[:, :, None] * lam[:, None, :] + theta[:, :, None] * np.eye(p)
            inv = np.linalg.inv(sigma)
            assert np.abs(P - inv).max() <= 1e-12 * np.abs(inv).max()
            np.testing.assert_array_equal(P, P.swapaxes(-1, -2))
            np.testing.assert_allclose(logdet, np.linalg.slogdet(sigma)[1], rtol=1e-12)


class TestSingularCovariance:
    # lambda = (1, 1), psi = 1 and theta = 1e-20 make the covariance rank 1
    # in floating point, but not in exact arithmetic: P has entries of size
    # 5e19 and log|Sigma| = log(2e-20 + 1e-40)
    MODEL = tiny_model(loadings=[1.0, 1.0], resid_vars=[1e-20, 1e-20], latent_var=1.0)

    def test_precision_is_exact(self):
        _assert_exact_precision(self.MODEL)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, d: fm.implied_moments(m, np.zeros((1, 1)), np.zeros(1)).cond_cov,
            fm.log_likelihood,
            fm.log_likelihood_grad,
            fm.factor_score,
        ],
        ids=["implied_moments", "log_likelihood", "log_likelihood_grad", "factor_score"],
    )
    def test_returns_finite_values(self, call):
        data = _dataset_from_rows(self.MODEL, np.array([[0.0, 0.1], [0.3, 0.2]]), np.zeros((2, 1)), ["a", "b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(call(self.MODEL, data)))


@pytest.mark.parametrize(
    "call",
    [fm.log_likelihood, fm.log_likelihood_grad, fm.observed_information, fm.factor_score, fm.score_dataset],
    ids=["log_likelihood", "log_likelihood_grad", "observed_information", "factor_score", "score_dataset"],
)
def test_data_coded_the_other_way_rejected(generator, call):
    """Every entry point reading a dataset through a model refuses the same
    table coded the other way round, which would swap the groups."""
    data, _ = simulate_from(generator, n=200, seed=31)
    swapped = fm.Dataset(data.column_order, data.roles, data.values, {"a": 1, "b": 0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # information away from the optimum
        call(generator, data)
    with pytest.raises(ValueError, match="codes the sensitive levels"):
        call(generator, swapped)


B = GRAM_CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("d", [0, 1, 6])
def test_matrix_equals_column_stack(n, d):
    """The blocked fill gives np.column_stack's array bit for bit, C-ordered,
    on both sides of every block boundary."""
    rng = np.random.default_rng(n * 7 + d)
    columns = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300) for _ in range(d)]
    out = _matrix(columns, n)
    expected = np.column_stack(columns) if d else np.empty((n, 0))
    assert out.shape == expected.shape == (n, d)
    assert out.dtype == np.float64
    assert out.flags.c_contiguous
    assert out.tobytes() == expected.tobytes()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_layout_round_trip_and_derivatives(draw):
    """Over p, q and free masks: the packed layout round-trips, the gradient
    matches central differences of the value and the Hessian central
    differences of the gradient."""
    p, q = draw.draw(st.integers(2, 6)), draw.draw(st.integers(0, 4))
    mask = np.array(draw.draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    model = fm.MimicModel(
        loadings=np.concatenate([[1.0], rng.uniform(0.5, 1.5, size=p - 1)]),
        intercepts=rng.normal(size=p),
        struct_coefs=rng.normal(size=q),
        sens_coef=rng.normal(),
        dif_offsets=np.where(mask, rng.normal(scale=0.3, size=p), 0.0),
        resid_vars=rng.uniform(0.3, 1.5, size=p),
        latent_var=rng.uniform(0.3, 1.5),
        free_mask=mask,
        indicator_names=tuple(f"y{j}" for j in range(p)),
        covariate_names=tuple(f"x{c}" for c in range(q)),
        sensitive_coding=CODING,
    )
    x = fm.pack(model)
    assert len(fm.param_names(model)) == n_free_params(model) == len(x)
    structure = _structure(model)
    assert _structure(model.with_values(sens_coef=1.0)) is structure  # one record per structure
    arrays = [a for b in structure.layout.values() for a in (b.index, b.at) if a is not None]
    arrays += [structure.free, structure.head, structure.scatter.jac, structure.scatter.curv]
    assert not any(a.flags.writeable for a in arrays)
    np.testing.assert_array_equal(structure.free, mask)
    back = fm.unpack(model, x)
    for f in dataclasses.fields(model):
        want, got = getattr(model, f.name), getattr(back, f.name)
        if f.name in ("resid_vars", "latent_var"):  # exp(log v) may differ from v in the last bit
            np.testing.assert_allclose(got, want, rtol=1e-15)
        else:
            np.testing.assert_array_equal(got, want)

    data, _ = simulate_from(model, n=60, seed=int(rng.integers(2**31)))
    mom = data_moments(model, data)
    _, grad, hess = _loglik(x, model, mom, order=2)
    fd_grad, fd_hess = np.empty_like(grad), np.empty_like(hess)
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k] = h = 1e-5 * (1.0 + abs(x[k]))
        fd_grad[k] = (_loglik(x + step, model, mom) - _loglik(x - step, model, mom)) / (2.0 * h)
        _, gp = _loglik(x + step, model, mom, order=1)
        _, gm = _loglik(x - step, model, mom, order=1)
        fd_hess[:, k] = (gp - gm) / (2.0 * h)
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(fd_grad).max()))
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-7 * np.abs(fd_hess).max())
    with mock.patch.object(model_mod, "_second_differential", _kron_second_differential):
        _, _, kron_hess = _loglik(x, model, mom, order=2)
    np.testing.assert_allclose(hess, kron_hess, rtol=0, atol=1e-12 * np.abs(kron_hess).max())


def _kron_second_differential(jb, js, n, szz, G, P, Q):
    """Oracle for ``model._second_differential`` that forms every Kronecker
    matrix and sandwiches it between the flattened Jacobians."""
    k = jb.shape[0]
    jb, js = jb.reshape(k, -1), js.reshape(k, -1)
    cross = jb @ np.kron(G, P) @ js.T
    return (
        js @ (0.5 * n * np.kron(P, P) - np.kron(P, Q)) @ js.T
        - jb @ np.kron(szz, P) @ jb.T
        - cross
        - cross.T
    )


class TestHessian:
    @pytest.mark.parametrize(
        "dif", [(0.0, 0.0, 0.0, 0.0), (0.0, 0.3, 0.0, -0.2)], ids=["fixed_delta", "free_delta"]
    )
    def test_matches_central_differences_of_gradient(self, dif):
        gen = make_generator(dif=dif)
        data, _ = simulate_from(gen, n=300, seed=12)
        mom = data_moments(gen, data)
        rng = np.random.default_rng(13)
        x0 = fm.pack(gen)
        for _ in range(10):
            x = x0 + rng.normal(scale=0.1, size=x0.shape)
            _, _, hess = _loglik(x, gen, mom, order=2)
            fd = np.empty_like(hess)
            for k in range(len(x)):
                h = 1e-5 * (1.0 + abs(x[k]))
                step = np.zeros_like(x)
                step[k] = h
                _, gp = _loglik(x + step, gen, mom, order=1)
                _, gm = _loglik(x - step, gen, mom, order=1)
                fd[:, k] = (gp - gm) / (2.0 * h)
            np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())

    def test_value_and_gradient_agree_across_orders(self, generator):
        data, _ = simulate_from(generator, n=200, seed=14)
        mom = data_moments(generator, data)
        x = fm.pack(generator)
        ll0 = _loglik(x, generator, mom)
        ll1, g1 = _loglik(x, generator, mom, order=1)
        ll2, g2, hess = _loglik(x, generator, mom, order=2)
        assert ll0 == ll1 == ll2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(hess, hess.T)

    def test_observed_information_is_negative_hessian(self, fitted_example):
        res, data = fitted_example
        _, _, hess = _loglik(fm.pack(res.model), res.model, data_moments(res.model, data), order=2)
        np.testing.assert_array_equal(fm.observed_information(res.model, data), -hess)


def _row_wise_loglik(model, data):
    """Brute force from the scalar model equations: explicit inverse and
    determinant, one row at a time."""
    Y, X, s = _extract_arrays(model, data)
    lam, p = model.loadings, model.n_indicators
    cov = np.empty((p, p))
    for j in range(p):
        for k in range(p):
            cov[j, k] = lam[j] * model.latent_var * lam[k] + (model.resid_vars[j] if j == k else 0.0)
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    total = 0.0
    for i in range(Y.shape[0]):
        eta = model.struct_coefs @ X[i] + model.sens_coef * s[i]
        r = Y[i] - (model.intercepts + lam * eta + model.dif_offsets * s[i])
        total += -0.5 * (p * math.log(2 * math.pi) + logdet + r @ inv @ r)
    return total


def _fd_gradient(x, spec, Y, X, s, h=1e-5):
    fd = np.zeros_like(x)
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fd[k] = (_ll_value(xp, spec, Y, X, s) - _ll_value(xm, spec, Y, X, s)) / (2 * h)
    return fd


def _dataset_from_rows(model, Y, X, labels):
    values = {"g": np.array(labels, dtype=object)}
    roles = {"g": "sensitive"}
    order = ["g"]
    for j, c in enumerate(model.covariate_names):
        values[c] = np.asarray(X[:, j], dtype=np.float64)
        roles[c] = "covariate"
        order.append(c)
    for j, c in enumerate(model.indicator_names):
        values[c] = np.asarray(Y[:, j], dtype=np.float64)
        roles[c] = "indicator"
        order.append(c)
    return fm.Dataset(
        column_order=tuple(order),
        roles=roles,
        values=values,
        sensitive_coding=dict(model.sensitive_coding),
    )

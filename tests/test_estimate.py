"""Fitting, observed information, and likelihood-ratio tests."""

import numpy as np
import pytest
from scipy.stats import chi2

import fairmimic as fm
from fairmimic.estimate import CONVERGED_GRAD_NORM

from conftest import base_template, make_generator, simulate_from


class TestFit:
    def test_parameter_recovery_single_run(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, _ = simulate_from(gen, n=5000, seed=21)
        spec = base_template(gen, free_dif=("y2",))
        res = fm.fit(spec, data)
        assert res.converged
        truth = fm.pack(gen)
        est = fm.pack(res.model)
        z = np.abs(est - truth) / res.std_errors
        assert z.max() < 3.0
        np.testing.assert_allclose(res.model.loadings, gen.loadings, atol=0.05)

    def test_null_gamma_recovered_near_zero(self):
        gen = make_generator(gamma=0.0)
        data, _ = simulate_from(gen, n=4000, seed=22)
        res = fm.fit(base_template(gen), data)
        assert abs(res.model.sens_coef) < 3.0 * res.se("gamma")

    def test_refit_from_optimum_is_identity(self, fitted_example):
        res, data = fitted_example
        again = fm.fit(res.model, data, fm.OptimOptions(init="model"))
        np.testing.assert_allclose(fm.pack(again.model), fm.pack(res.model), rtol=0, atol=1e-8)

    def test_monotone_ascent_of_accepted_iterates(self, generator):
        data, _ = simulate_from(generator, n=800, seed=23)
        spec = base_template(generator)
        lls = []
        fm.fit(spec, data, callback=lambda x: lls.append(fm.log_likelihood(fm.unpack(spec, x), data)))
        lls = np.asarray(lls)
        slack = 1e-9 * np.abs(lls[:-1])
        assert np.all(np.diff(lls) >= -slack)

    def test_indicator_reordering_invariance(self, generator):
        data, _ = simulate_from(generator, n=1500, seed=24)
        spec = base_template(generator)
        res = fm.fit(spec, data)
        # permuted indicator order, same anchor indicator first
        permuted = fm.template(
            ("y1", "y3", "y2", "y4"), generator.covariate_names, generator.sensitive_coding
        )
        res_perm = fm.fit(permuted, data)
        assert res_perm.loglik == pytest.approx(res.loglik, abs=1e-8)

    def test_converged_implies_small_gradient(self, fitted_example):
        res, _ = fitted_example
        assert res.converged and res.grad_norm < 1e-5

    def test_not_enough_rows(self, generator):
        data, _ = simulate_from(generator, n=100, seed=25)
        with pytest.raises(ValueError, match="rows"):
            fm.fit(base_template(generator), data.subset(np.arange(10)))

    def test_constant_indicator_rejected(self, generator):
        data, _ = simulate_from(generator, n=100, seed=26)
        degenerate = data.replace_columns({"y3": np.zeros(data.n)})
        with pytest.raises(ValueError, match="constant"):
            fm.fit(base_template(generator), degenerate)

    def test_one_group_split_rejected(self, generator):
        data, _ = simulate_from(generator, n=400, seed=26)
        one_group = data.subset(np.flatnonzero(data.sensitive_codes() == 1.0))
        with pytest.raises(ValueError, match=repr(data.sensitive_name)):
            fm.fit(base_template(generator), one_group)

    def test_non_convergence_reported_not_raised(self, generator):
        data, _ = simulate_from(generator, n=600, seed=27)
        with pytest.warns(UserWarning):  # SEs are unreliable away from the optimum
            res = fm.fit(base_template(generator), data, fm.OptimOptions(max_iter=0))
        assert not res.converged
        assert np.isfinite(res.loglik)
        assert res.grad_norm > CONVERGED_GRAD_NORM

    def test_deterministic(self, generator):
        data, _ = simulate_from(generator, n=700, seed=28)
        r1 = fm.fit(base_template(generator), data)
        r2 = fm.fit(base_template(generator), data)
        np.testing.assert_array_equal(fm.pack(r1.model), fm.pack(r2.model))
        assert r1.loglik == r2.loglik

    def test_vcov_symmetric_psd_and_se_consistent(self, fitted_example):
        res, _ = fitted_example
        np.testing.assert_allclose(res.vcov, res.vcov.T, atol=1e-12)
        eigmin = np.linalg.eigvalsh(res.vcov).min()
        assert eigmin > -1e-10
        np.testing.assert_allclose(res.std_errors, np.sqrt(np.diag(res.vcov)), rtol=1e-12)


class TestObservedInformation:
    def test_symmetry(self, fitted_example):
        res, data = fitted_example
        info = fm.observed_information(res.model, data)
        np.testing.assert_allclose(info, info.T, rtol=1e-6)

    def test_duplicating_data_doubles_information(self, fitted_example):
        res, data = fitted_example
        info = fm.observed_information(res.model, data)
        doubled = data.subset(np.r_[0 : data.n, 0 : data.n])
        info2 = fm.observed_information(res.model, doubled)
        np.testing.assert_allclose(info2, 2.0 * info, rtol=1e-6, atol=1e-8 * np.abs(info).max())

    def test_warns_away_from_stationary_point(self, generator):
        data, _ = simulate_from(generator, n=300, seed=29)
        with pytest.warns(UserWarning, match="stationary"):
            fm.observed_information(generator, data)

    def test_nonsingular_at_optimum(self, fitted_example):
        # local identification: n = 2000 >= 50 p
        res, data = fitted_example
        info = fm.observed_information(res.model, data)
        assert np.linalg.cond(info) < 1e10

    def test_monte_carlo_se_oracle(self, null_dif_study):
        # SE(delta_1) from inverse information vs the Monte-Carlo spread of
        # delta_1 across replications
        deltas = np.array([rep.rows[0].delta for rep in null_dif_study])
        ses = np.array([(rep.rows[0].ci_high - rep.rows[0].delta) / 1.96 for rep in null_dif_study])
        mc_sd = deltas.std(ddof=1)
        assert abs(ses.mean() - mc_sd) / mc_sd < 0.15


class TestLrTest:
    def test_paper_scale_statistic(self):
        res = fm.LrTestResult.from_statistic(50.0, 1)
        assert res.p_value < 0.001
        assert res.p_value == pytest.approx(float(chi2.sf(50.0, 1)), rel=1e-12)

    def test_identical_models(self, fitted_example):
        res, _ = fitted_example
        out = fm.lr_test(res, res)
        assert out.statistic == 0.0
        assert out.df == 0
        assert out.p_value == 1.0

    def test_nested_fit_statistic_and_df(self, generator):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, _ = simulate_from(gen, n=2500, seed=30)
        base = fm.fit(base_template(gen), data)
        full = fm.fit(base_template(gen, free_dif=("y2",)), data)
        out = fm.lr_test(full, base)
        assert out.df == 1
        assert out.statistic == pytest.approx(2.0 * (full.loglik - base.loglik))
        assert out.statistic > 0.0
        assert out.p_value == pytest.approx(float(chi2.sf(out.statistic, 1)), rel=1e-12)

    def test_different_data_rejected(self, generator):
        d1, _ = simulate_from(generator, n=400, seed=31)
        d2, _ = simulate_from(generator, n=400, seed=32)
        r1 = fm.fit(base_template(generator), d1)
        r2 = fm.fit(base_template(generator), d2)
        with pytest.raises(ValueError, match="different datasets"):
            fm.lr_test(r1, r2)

    def test_non_nested_rejected(self, generator):
        data, _ = simulate_from(generator, n=400, seed=33)
        r1 = fm.fit(base_template(generator, free_dif=("y2",)), data)
        r2 = fm.fit(base_template(generator, free_dif=("y3",)), data)
        with pytest.raises(ValueError, match="not nested"):
            fm.lr_test(r1, r2)

    def test_null_calibration(self, null_dif_study):
        # under a true null the rejection rate at p < 0.05 is near nominal
        p_values = np.array([rep.rows[0].p_value for rep in null_dif_study])
        rate = float((p_values < 0.05).mean())
        assert 0.02 <= rate <= 0.09

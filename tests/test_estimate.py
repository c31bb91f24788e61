"""Fitting, observed information, and likelihood-ratio tests."""

import warnings

import numpy as np
import pytest
from scipy.stats import chi2

import fairmimic as fm
from fairmimic import estimate as estimate_mod
from fairmimic.estimate import CONVERGED_GRAD_NORM, _start_values, fit_stack
from fairmimic.model import _loglik, data_moments, sample_moments

from conftest import CODING, base_template, make_generator, simulate_from


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

    @pytest.mark.parametrize(
        "n, seed, dif", [(400, 41, 0.0), (400, 42, 0.2), (5000, 43, 0.0), (5000, 44, 0.2)]
    )
    def test_converges_from_indefinite_start(self, n, seed, dif):
        # The Hessian at the starting values is indefinite on the suite
        # generator, so a plain Newton step there need not go uphill; the
        # shifted trust-region step still reaches the optimum.
        gen = make_generator(dif=(0.0, 0.0, dif, 0.0))
        data, _ = simulate_from(gen, n=n, seed=seed)
        spec = base_template(gen)
        mom = data_moments(spec, data)
        _, _, hess = _loglik(_start_values(spec, mom), spec, mom, order=2)
        assert np.linalg.eigvalsh(-hess).min() < 0.0
        res = fm.fit(spec, data, fm.OptimOptions(grad_tol=1e-8))
        assert res.converged and res.grad_norm < 1e-8
        # Stopped at that start, the fit is at no maximum and reports no SE.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = fm.fit(spec, data, fm.OptimOptions(max_iter=0))
        assert [w.category for w in caught] == [UserWarning]
        assert np.all(np.isnan(start.std_errors)) and np.all(np.isnan(start.vcov))

    def test_callback_fires_once_per_iterate(self, generator):
        data, _ = simulate_from(generator, n=800, seed=45)
        cold = []
        res = fm.fit(base_template(generator), data, callback=cold.append)
        assert len(cold) == res.n_iter > 0
        warm = []
        spec = res.model.with_values(free_mask=np.array([False, True, False, False]))
        refit = fm.fit(spec, data, fm.OptimOptions(init="model"), callback=warm.append)
        assert len(warm) == refit.n_iter > 0

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_max_iter_bounds_iterates(self, generator, max_iter):
        data, _ = simulate_from(generator, n=800, seed=46)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # SEs away from the optimum
            res = fm.fit(
                base_template(generator), data, fm.OptimOptions(max_iter=max_iter), callback=calls.append
            )
        assert len(calls) == res.n_iter <= max_iter

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

    def test_spec_coding_must_match_data(self, generator):
        data, _ = simulate_from(generator, n=400, seed=28)
        flipped = {k: 1 - v for k, v in data.sensitive_coding.items()}
        spec = fm.template(data.indicator_names, data.covariate_names, flipped)
        own = data_moments(base_template(generator), data)  # under the data's own coding
        for call in (data_moments, fm.fit, fm.dif_scan):
            for given in (data, own):
                with pytest.raises(ValueError, match="codes the sensitive levels"):
                    call(spec, given)

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

    def test_vcov_inverts_observed_information(self, fitted_example):
        res, data = fitted_example
        product = res.vcov @ fm.observed_information(res.model, data)
        assert np.abs(product - np.eye(len(res.param_names))).max() <= 1e-10

    def test_collinear_covariate_reports_no_standard_errors(self, generator):
        data, _ = simulate_from(generator, n=2000, seed=30)
        collinear = data.replace_columns({"x3": 2.0 * data.column("x1")})
        with pytest.warns(UserWarning):
            res = fm.fit(base_template(generator), collinear)
        assert np.all(np.isnan(res.std_errors)) and np.all(np.isnan(res.vcov))

    def test_duplicated_rows_divide_standard_errors_by_sqrt2(self):
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        spec = base_template(gen, free_dif=("y3",))
        for seed in range(20):
            data, _ = simulate_from(gen, n=3000, seed=seed)
            once = fm.fit(spec, data)
            twice = fm.fit(spec, data.subset(np.r_[0 : data.n, 0 : data.n]))
            np.testing.assert_allclose(fm.pack(twice.model), fm.pack(once.model), rtol=0, atol=1e-11)
            np.testing.assert_allclose(twice.std_errors * np.sqrt(2.0), once.std_errors, rtol=1e-11)


class TestFitFromMoments:
    def test_matches_fit_from_dataset(self, generator):
        data, _ = simulate_from(generator, n=800, seed=47)
        spec = base_template(generator, free_dif=("y2",))
        from_data = fm.fit(spec, data)
        from_moments = fm.fit(spec, data_moments(spec, data))
        assert from_moments.to_dict() == from_data.to_dict()
        assert from_moments.data_fingerprint == data.fingerprint()

    def test_refuses_moments_not_built_for_the_spec(self, generator):
        data, _ = simulate_from(generator, n=400, seed=48)
        spec = base_template(generator)
        bare = sample_moments(
            [*data.covariate_matrix().T, data.sensitive_codes(), *data.indicator_matrix().T]
        )
        reordered = fm.template(("y2", "y1", "y3", "y4"), generator.covariate_names, CODING)
        fewer = fm.template(generator.indicator_names, ("x1", "x2"), CODING)
        for mom in (bare, data_moments(reordered, data), data_moments(fewer, data)):
            with pytest.raises(ValueError, match="data_moments"):
                fm.fit(spec, mom)


class TestFitStack:
    """``fit_stack`` runs each member's own iteration; members share only
    the batched evaluations."""

    @staticmethod
    def nested_specs(data, gen):
        base = fm.fit(base_template(gen), data)
        return [base.model.with_values(free_mask=np.arange(4) == j) for j in range(4)]

    @staticmethod
    def assert_same_fit(a, b, tol=1e-12):
        assert a.param_names == b.param_names and a.n_iter == b.n_iter and a.converged == b.converged
        assert abs(a.loglik - b.loglik) <= tol * abs(b.loglik)
        np.testing.assert_allclose(fm.pack(a.model), fm.pack(b.model), rtol=tol, atol=tol)
        np.testing.assert_allclose(a.std_errors, b.std_errors, rtol=1e-9, atol=tol)

    def test_members_match_independent_fits(self):
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=3000, seed=49)
        mom = data_moments(base_template(gen), data)
        specs = self.nested_specs(data, gen)
        warm = fm.OptimOptions(init="model")
        for options in (warm, fm.OptimOptions()):  # warm from the base optimum, and cold
            stacked = fit_stack(specs, mom, options)
            assert len(stacked) == len(specs)
            for spec, res in zip(specs, stacked):
                self.assert_same_fit(res, fm.fit(spec, mom, options))

    def test_specs_of_different_length_refused(self, generator):
        data, _ = simulate_from(generator, n=400, seed=50)
        specs = [base_template(generator), base_template(generator, free_dif=("y2",))]
        with pytest.raises(ValueError, match="same number of free parameters"):
            fit_stack(specs, data)

    def test_failed_trial_point_rejects_that_members_step_only(self, monkeypatch):
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=3000, seed=51)
        mom = data_moments(base_template(gen), data)
        specs = self.nested_specs(data, gen)
        warm = fm.OptimOptions(init="model")
        alone = [fm.fit(spec, mom, warm) for spec in specs]

        # y2's first trial point raises, as a point outside the model does,
        # whether it is evaluated in the stack or by itself.
        real, points, poisoned = estimate_mod._loglik, [], []

        def loglik(x, spec, mom, order=0):
            members = [spec] if isinstance(spec, fm.MimicModel) else list(spec)
            for member, row in zip(members, np.atleast_2d(x)):
                if member.free_mask[1]:
                    points.append((len(members), row.copy()))
                    if len(points) == 2:
                        poisoned.append(row.copy())
                    if poisoned and np.array_equal(row, poisoned[0]):
                        raise FloatingPointError("overflow")
            return real(x, spec, mom, order)

        monkeypatch.setattr(estimate_mod, "_loglik", loglik)
        stacked = fit_stack(specs, mom, warm)
        monkeypatch.undo()

        start, bad = points[0][1], poisoned[0]
        assert any(size == 1 and np.array_equal(row, bad) for size, row in points)  # found alone
        after = next(row for _, row in points[2:] if not np.array_equal(row, bad))
        # the step was rejected: y2 stayed at its start and its radius shrank
        assert np.linalg.norm(after - start) <= 0.25 * np.linalg.norm(bad - start) * (1.0 + 1e-12)
        assert stacked[1].converged
        assert abs(stacked[1].loglik - alone[1].loglik) <= 1e-9 * abs(alone[1].loglik)
        for j in (0, 2, 3):
            self.assert_same_fit(stacked[j], alone[j])


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

    @pytest.mark.parametrize("statistic", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_statistic_rejected(self, statistic):
        # max(0.0, nan) is 0.0 in Python: a NaN statistic must not pass as 0
        with pytest.raises(ValueError, match="finite"):
            fm.LrTestResult.from_statistic(statistic, 1)

    def test_small_negative_statistic_counts_as_zero(self):
        res = fm.LrTestResult.from_statistic(-1e-10, 1)
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_null_calibration(self, null_dif_study):
        # under a true null the rejection rate at p < 0.05 is near nominal
        p_values = np.array([rep.rows[0].p_value for rep in null_dif_study])
        rate = float((p_values < 0.05).mean())
        assert 0.02 <= rate <= 0.09

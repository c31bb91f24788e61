"""Fitting, observed information, and likelihood-ratio tests."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

import fairmimic as fm
from fairmimic import estimate as estimate_mod
from fairmimic.estimate import LR_REL_TOL, _guess_values, _start_values, _step, _trial_loglik, _trust_step, fit_stack
from fairmimic.model import _loglik, _stack, data_moments, sample_moments

from conftest import CODING, base_template, make_generator, simulate_from


def assert_indefinite_at(spec, data):
    """-H is indefinite at the parameter values of ``spec``."""
    mom = data_moments(spec, data)
    _, _, hess = _loglik(fm.pack(spec), spec, mom, order=2)
    assert np.linalg.eigvalsh(-hess).min() < 0.0


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
        # The solver is deterministic, so a fit stopped after i accepted
        # iterates returns the full fit's i-th iterate.
        data, _ = simulate_from(generator, n=800, seed=23)
        spec = base_template(generator)
        full = fm.fit(spec, data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # SEs away from the optimum
            stops = [fm.fit(spec, data, fm.OptimOptions(max_iter=i)) for i in range(full.n_iter + 1)]
        assert full.n_iter > 0 and [r.n_iter for r in stops] == list(range(full.n_iter + 1))
        assert fm.pack(stops[-1].model).tobytes() == fm.pack(full.model).tobytes()
        lls = np.array([fm.log_likelihood(r.model, data) for r in stops])
        slack = 1e-9 * np.abs(lls[:-1])
        assert np.all(np.diff(lls) >= -slack)

    @pytest.mark.parametrize(
        "n, seed, dif", [(400, 41, 0.0), (400, 42, 0.2), (5000, 43, 0.0), (5000, 44, 0.2)]
    )
    def test_converges_from_indefinite_start(self, n, seed, dif):
        # The Hessian at the template's neutral values is indefinite on the
        # suite generator, so a plain Newton step there need not go uphill;
        # the shifted trust-region step still reaches the optimum.
        gen = make_generator(dif=(0.0, 0.0, dif, 0.0))
        data, _ = simulate_from(gen, n=n, seed=seed)
        spec = base_template(gen)
        assert_indefinite_at(spec, data)
        from_template = fm.OptimOptions(grad_tol=1e-8, init="model")
        res = fm.fit(spec, data, from_template)
        assert res.converged and res.grad_norm < 1e-8
        # Stopped at that start, the fit is at no maximum and reports no SE.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = fm.fit(spec, data, replace(from_template, max_iter=0))
        assert [w.category for w in caught] == [UserWarning]
        assert np.all(np.isnan(start.std_errors)) and np.all(np.isnan(start.vcov))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_max_iter_bounds_iterates(self, generator, max_iter):
        data, _ = simulate_from(generator, n=800, seed=46)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # SEs away from the optimum
            res = fm.fit(base_template(generator), data, fm.OptimOptions(max_iter=max_iter))
        assert res.n_iter <= max_iter

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

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_swapping_the_coding_negates_the_group_effects(self, seed):
        # Coding b as the reference in both the data and the spec is the same
        # model with s -> 1 - s: ll is unchanged, gamma and the free offset
        # negate, and the fair score, which sets every row to the group coded
        # 0, is beta' x in both.
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=3000, seed=seed)
        swapped_coding = {"a": 1, "b": 0}
        swapped_data = fm.Dataset(
            column_order=data.column_order,
            roles=dict(data.roles),
            values=dict(data.values),
            sensitive_coding=swapped_coding,
            log_scale=data.log_scale,
        )
        res = fm.fit(base_template(gen, free_dif=("y3",)), data)
        swapped = fm.fit(fm.template(gen.indicator_names, gen.covariate_names, swapped_coding, ("y3",)), swapped_data)
        assert res.converged and swapped.converged
        assert abs(swapped.loglik - res.loglik) <= 1e-13 * abs(res.loglik)
        for name in ("gamma", "delta[y3]"):
            assert abs(swapped.estimate(name) + res.estimate(name)) <= 1e-12
        X = data.covariate_matrix(gen.covariate_names)
        np.testing.assert_allclose(fm.fair_score(swapped.model, X), fm.fair_score(res.model, X), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_scaling_a_covariate_rescales_only_its_coefficient(self, seed):
        # x2 -> 10 x2 is the same model with beta[x2] -> beta[x2] / 10: the
        # conditional likelihood of the indicators is unchanged, beta[x2] and
        # its SE divide by 10, and every other estimate and SE stays.  The
        # tolerances sit at least 400 times above the float noise of seeds 5-9
        # (ll 2.4e-16 relative, beta[x2] 6.6e-16 and its SE 2.3e-15
        # relative, the other estimates 2.3e-15 absolute, their SEs 1.3e-14
        # relative).
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        spec = base_template(gen, free_dif=("y3",))
        data, _ = simulate_from(gen, n=3000, seed=seed)
        res = fm.fit(spec, data)
        scaled = fm.fit(spec, data.replace_columns({"x2": 10.0 * data.column("x2")}))
        assert res.converged and scaled.converged
        assert abs(scaled.loglik - res.loglik) <= 1e-12 * abs(res.loglik)
        assert scaled.estimate("beta[x2]") * 10.0 == pytest.approx(res.estimate("beta[x2]"), rel=1e-12, abs=0)
        assert scaled.se("beta[x2]") * 10.0 == pytest.approx(res.se("beta[x2]"), rel=1e-11, abs=0)
        others = [name for name in res.param_names if name != "beta[x2]"]
        assert {"gamma", "delta[y3]", "beta[x1]", "beta[x3]"} <= set(others)
        for name in others:
            assert abs(scaled.estimate(name) - res.estimate(name)) <= 1e-12, name
            assert scaled.se(name) == pytest.approx(res.se(name), rel=1e-11, abs=0), name

    @pytest.mark.parametrize("lookup", ["estimate", "se", "wald_ci"])
    def test_unknown_parameter_name_raises_key_error(self, fitted_example, lookup):
        res, _ = fitted_example
        getattr(res, lookup)("gamma")  # a known name resolves
        with pytest.raises(KeyError, match="no free parameter named 'nope'"):
            getattr(res, lookup)("nope")

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
        spec = base_template(generator)
        assert_indefinite_at(spec, data)
        with pytest.warns(UserWarning):  # SEs are unreliable away from the optimum
            res = fm.fit(spec, data, fm.OptimOptions(max_iter=0, init="model"))
        assert not res.converged
        assert np.isfinite(res.loglik)
        assert res.grad_norm > fm.OptimOptions().grad_tol

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": 0.0},
            {"grad_tol": -1e-6},
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
            {"grad_tol": "1e-6"},
            {"max_iter": -1},
            {"max_iter": 2.5},
            {"max_iter": True},
        ],
        ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "tol-str", "iter-negative", "iter-float", "iter-bool"],
    )
    def test_meaningless_solver_settings_refused(self, kwargs):
        # converged reads grad_norm < grad_tol, so a tolerance that no norm
        # can be below would report every fit as not converged.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            fm.OptimOptions(**kwargs)

    def test_solver_settings_at_their_limits_accepted(self):
        assert fm.OptimOptions(max_iter=0).max_iter == 0
        assert fm.OptimOptions(max_iter=np.int64(3), grad_tol=np.float64(1e-300)).grad_tol == 1e-300

    def test_converged_means_below_the_given_tolerance(self, generator):
        # The optimizer stops on grad_tol, and that is the threshold the
        # verdict reads: a fit that met a loose tolerance has converged.
        data, _ = simulate_from(generator, n=400, seed=0)
        res = fm.fit(base_template(generator), data, fm.OptimOptions(grad_tol=1e-3))
        assert res.converged
        assert 1e-5 < res.grad_norm < 1e-3

    @pytest.mark.parametrize("seed", [8, 19, 56, 76])
    def test_converges_at_a_near_heywood_boundary(self, seed):
        # theta_3 = 1e-9 puts one residual variance next to 0.  Only the
        # naive Sherman-Morrison diagonal 1/theta_3 - psi u_3^2 / (1 + sum t)
        # loses these fits: it cancels two terms of size 1/theta_3, and they
        # stall above grad_tol.  The closed form that sums the other
        # indicators' terms keeps them, as a factorization of Sigma does.
        gen = replace(make_generator(), resid_vars=np.array([0.5, 0.4, 1e-9, 0.5]))
        data, _ = simulate_from(gen, n=60, seed=seed)
        res = fm.fit(base_template(gen), data)
        assert res.converged and res.grad_norm < fm.OptimOptions().grad_tol
        assert res.model.resid_vars[2] < 1e-8

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

    def test_standard_errors_do_not_depend_on_a_covariates_units(self):
        # x2 in units 1e6 times smaller: the information's condition number
        # grows by 1e12, the one scaled to unit diagonal does not move, and
        # only beta[x2]'s SE changes, by the factor 1e6
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        spec = base_template(gen, free_dif=("y3",))
        data, _ = simulate_from(gen, n=3000, seed=5)
        plain = fm.fit(spec, data)
        scaled = fm.fit(spec, data.replace_columns({"x2": data.column("x2") * 1e6}))
        expected = plain.std_errors.copy()
        expected[plain.param_names.index("beta[x2]")] /= 1e6
        assert np.isfinite(scaled.std_errors).all()
        np.testing.assert_allclose(scaled.std_errors, expected, rtol=1e-10)

    def test_duplicated_rows_divide_standard_errors_by_sqrt2(self):
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        spec = base_template(gen, free_dif=("y3",))
        for seed in range(20):
            data, _ = simulate_from(gen, n=3000, seed=seed)
            once = fm.fit(spec, data)
            twice = fm.fit(spec, data.subset(np.r_[0 : data.n, 0 : data.n]))
            np.testing.assert_allclose(fm.pack(twice.model), fm.pack(once.model), rtol=0, atol=1e-11)
            np.testing.assert_allclose(twice.std_errors * np.sqrt(2.0), once.std_errors, rtol=1e-11)


class TestStartValues:
    @pytest.mark.parametrize("seed", range(10))
    def test_moment_start_is_closer_to_the_optimum_than_the_guess(self, generator, seed):
        data, _ = simulate_from(generator, n=2000, seed=seed)
        spec = base_template(generator)
        mom = data_moments(spec, data)
        res = fm.fit(spec, mom)
        optimum = fm.pack(res.model)
        distance = lambda x: np.linalg.norm(x - optimum)
        assert distance(_start_values(spec, mom)) < distance(_guess_values(spec, mom))
        assert res.converged and res.n_iter <= 4

    def test_free_offset_starts_at_the_group_coefficient_gamma_leaves(self):
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=20_000, seed=3)
        spec = base_template(gen, free_dif=("y3",))
        start = fm.unpack(spec, _start_values(spec, data_moments(spec, data)))
        assert start.dif_offsets[2] == pytest.approx(0.3, abs=0.05)
        assert start.sens_coef == pytest.approx(0.4, abs=0.05)

    @pytest.mark.parametrize("seed", [10, 16, 20])
    def test_weak_factor_starts_from_the_guess(self, seed):
        # The loadings of y2..y4 are near 0, so the residual correlations
        # are within noise of 0 at n = 100 and every triad is a ratio of
        # noise.  Started from those triads, these fits ended in a local
        # maximum below the generating model's log-likelihood.
        gen = replace(make_generator(), loadings=np.array([1.0, 0.04, 0.06, -0.03]))
        data, _ = simulate_from(gen, n=100, seed=seed)
        spec = base_template(gen)
        mom = data_moments(spec, data)
        np.testing.assert_array_equal(_start_values(spec, mom), _guess_values(spec, mom))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a Heywood maximum: NaN SEs
            res = fm.fit(spec, mom)
        assert res.converged and res.loglik > fm.log_likelihood(gen, data)

    @pytest.mark.parametrize("case", ["two indicators", "collinear covariates"])
    def test_guess_where_the_moment_estimate_is_undefined(self, generator, case):
        data, _ = simulate_from(generator, n=2000, seed=30)
        if case == "two indicators":
            spec = fm.template(("y1", "y2"), generator.covariate_names, CODING)
        else:
            data = data.replace_columns({"x3": 2.0 * data.column("x1")})
            spec = base_template(generator)
        mom = data_moments(spec, data)
        np.testing.assert_array_equal(_start_values(spec, mom), _guess_values(spec, mom))

    def test_guess_where_an_indicator_has_no_residual_variance(self, generator, monkeypatch):
        # y4 = 2 x1 exactly, an affine function of [x, s]: the reduced-form
        # regression leaves it a residual variance of exactly 0, and the
        # start falls back to the guess before any triad is formed
        data, _ = simulate_from(generator, n=2000, seed=30)
        data = data.replace_columns({"y4": 2.0 * data.column("x1")})
        spec = base_template(generator)
        mom = data_moments(spec, data)

        def no_triads(values):
            raise AssertionError("the triads were formed")

        monkeypatch.setattr(estimate_mod.statistics, "median", no_triads)
        np.testing.assert_array_equal(_start_values(spec, mom), _guess_values(spec, mom))


class TestFitFromMoments:
    def test_matches_fit_from_dataset(self, generator):
        data, _ = simulate_from(generator, n=800, seed=47)
        spec = base_template(generator, free_dif=("y2",))
        from_data = fm.fit(spec, data)
        mom = data_moments(spec, data)
        from_moments = fm.fit(spec, mom)
        assert from_moments.to_dict() == from_data.to_dict()
        assert from_moments.data_fingerprint == mom.fingerprint

    def test_refuses_moments_not_built_for_the_spec(self, generator):
        data, _ = simulate_from(generator, n=400, seed=48)
        spec = base_template(generator)
        bare = sample_moments(
            [*data.covariate_matrix().T, data.sensitive_codes(), *(data.column(c) for c in data.indicator_names)]
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
        return [replace(base.model, free_mask=np.arange(4) == j) for j in range(4)]

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

    def test_specs_coded_differently_refused(self, generator):
        data, _ = simulate_from(generator, n=400, seed=50)
        flipped = fm.template(generator.indicator_names, generator.covariate_names, {"a": 1, "b": 0})
        with pytest.raises(ValueError, match="sensitive coding"):
            fit_stack([base_template(generator), flipped], data)

    def test_indefinite_member_does_not_change_the_others(self):
        # Member y3 starts at the template's neutral values, where -H is
        # indefinite; the others start at the base optimum, where it is
        # positive definite, so the stack mixes the two step routes.
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=3000, seed=49)
        mom = data_moments(base_template(gen), data)
        specs = self.nested_specs(data, gen)
        specs[2] = base_template(gen, free_dif=("y3",))
        assert_indefinite_at(specs[2], data)
        warm = fm.OptimOptions(init="model")
        for spec, res in zip(specs, fit_stack(specs, mom, warm)):
            self.assert_same_fit(res, fm.fit(spec, mom, warm))

    def test_cholesky_step_is_the_trust_region_step_where_newton_fits(self, generator, monkeypatch):
        data, _ = simulate_from(generator, n=2000, seed=52)
        spec = base_template(generator)
        mom = data_moments(spec, data)
        near = fm.fit(spec, mom, fm.OptimOptions(max_iter=2))  # -H is positive definite, |g| is not 0
        _, grad, hess = _loglik(fm.pack(near.model)[None], (spec,), mom, order=2)
        info, radius = -hess, np.array([10.0])
        w, v = np.linalg.eigh(info)
        assert w.min() > 0.0
        expected, gain = _trust_step(grad, w, v, radius)
        assert np.linalg.norm(expected) < radius[0]

        def no_eigh(a):
            raise AssertionError("the Newton step needs no eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        step, predicted = _step(grad, info, radius)
        np.testing.assert_allclose(step, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
        assert predicted[0] == pytest.approx(gain[0], rel=1e-12)

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

        def loglik(x, stack, mom, order=0):
            for free, row in zip(stack.free, x):  # each member's row of the stacked record
                if free[1]:
                    points.append((len(x), row.copy()))
                    if len(points) == 2:
                        poisoned.append(row.copy())
                    if poisoned and np.array_equal(row, poisoned[0]):
                        raise FloatingPointError("overflow")
            return real(x, stack, mom, order)

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

    def test_underflowed_variance_is_outside_the_model(self, generator):
        # exp(-800) underflows to theta_3 = 0, where the precision divides
        # by zero: that member's trial point is rejected, not scored
        data, _ = simulate_from(generator, n=500, seed=53)
        spec = base_template(generator)
        mom = data_moments(spec, data)
        x = np.stack([fm.pack(generator)] * 2)
        x[1, fm.param_names(spec).index("log_theta[y3]")] = -800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ll, grad, _ = _trial_loglik(x, _stack([spec, spec]), mom)
        assert ll[1] == -np.inf
        assert ll[0] == _loglik(x[0], spec, mom) and np.isfinite(grad[0]).all()


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

    @pytest.mark.parametrize(
        "column, edit",
        [
            ("y3", "bump"),
            ("x2", "bump"),
            ("group", "flip"),
            # rows 0 and 8 meet in one accumulator of numpy's unrolled sum, so
            # the swap keeps the column mean bit for bit and moves only the Gram
            ("y3", "swap"),
        ],
    )
    def test_tables_differing_in_a_cell_or_two_rejected(self, generator, column, edit):
        d1, _ = simulate_from(generator, n=400, seed=31)
        value = d1.column(column).copy()
        if edit == "bump":
            value[17] += 0.25
        elif edit == "flip":
            value[17] = {"a": "b", "b": "a"}[value[17]]
        else:
            value[[0, 8]] = value[[8, 0]]
        d2 = d1.replace_columns({column: value})
        r1 = fm.fit(base_template(generator), d1)
        r2 = fm.fit(base_template(generator), d2)
        with pytest.raises(ValueError, match="different datasets"):
            fm.lr_test(r1, r2)

    @pytest.mark.parametrize("df", [True, 1.5, 1.0, "1", -1])
    def test_df_must_be_a_nonnegative_integer(self, df):
        with pytest.raises(ValueError, match="df must be a nonnegative integer"):
            fm.LrTestResult.from_statistic(3.0, df)

    def test_numpy_integer_df_accepted(self):
        res = fm.LrTestResult.from_statistic(3.0, np.int64(2))
        assert res.df == 2 and type(res.df) is int
        assert res.p_value == pytest.approx(float(chi2.sf(3.0, 2)), rel=1e-13)

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

    def test_nested_fit_above_the_full_one_refused(self, generator):
        # a full fit stopped at the template's neutral values is far below
        # the converged nested fit; only float noise counts as statistic 0
        data, _ = simulate_from(generator, n=2000, seed=34)
        nested = fm.fit(base_template(generator), data)
        with pytest.warns(UserWarning, match="not a well-identified maximum"):  # -H is indefinite there
            full = fm.fit(base_template(generator, free_dif=("y2",)), data, fm.OptimOptions(max_iter=0, init="model"))
        assert full.loglik < nested.loglik - 1.0
        with pytest.raises(ValueError, match=f"{re.escape(repr(full.loglik))}.*{re.escape(repr(nested.loglik))}"):
            fm.lr_test(full, nested)
        noise = replace(full, loglik=nested.loglik - 0.5 * LR_REL_TOL * abs(nested.loglik))
        out = fm.lr_test(noise, nested)
        assert out.statistic == 0.0 and out.p_value == 1.0

    @pytest.mark.parametrize("side", ["full", "nested"])
    def test_nan_loglik_refused(self, generator, side):
        # no comparison with a NaN is true, so it must not pass the shortfall
        # check and be read as statistic 0
        data, _ = simulate_from(generator, n=400, seed=35)
        fits = {
            "full": fm.fit(base_template(generator, free_dif=("y2",)), data),
            "nested": fm.fit(base_template(generator), data),
        }
        fits[side] = replace(fits[side], loglik=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            fm.lr_test(fits["full"], fits["nested"])

    def test_negative_statistic_refused(self):
        # only lr_test has the log-likelihoods that float noise is relative
        # to, so it alone reads a small shortfall as 0
        for statistic in (-1e-10, -50.0):
            with pytest.raises(ValueError, match="LR statistic must be nonnegative"):
                fm.LrTestResult.from_statistic(statistic, 1)

    def test_null_calibration(self, null_dif_study):
        # under a true null the rejection rate at p < 0.05 is near nominal
        p_values = np.array([rep.rows[0].p_value for rep in null_dif_study])
        rate = float((p_values < 0.05).mean())
        assert 0.02 <= rate <= 0.09

"""One-at-a-time DIF scan and percent-scale interpretation."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmimic as fm
from fairmimic import dif as dif_mod
from fairmimic import estimate as estimate_mod
from fairmimic import model as model_mod
from fairmimic.model import _structure, data_moments

from conftest import CODING, base_template, make_generator, same_bits, simulate_from


def counting(monkeypatch, *targets):
    """Patch each ``(owner, name)`` to count its calls; returns the counter,
    keyed by name."""
    calls = collections.Counter()
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestPercentEffect:
    def test_published_scale_example(self):
        pct, ci = fm.percent_effect(0.198, (0.172, 0.225))
        assert pct == pytest.approx(21.9, abs=0.05)
        assert ci[0] == pytest.approx(18.8, abs=0.1)
        assert ci[1] == pytest.approx(25.2, abs=0.1)

    def test_zero_is_identity(self):
        assert fm.percent_effect(0.0) == 0.0

    def test_log_two_is_doubling(self):
        assert fm.percent_effect(math.log(2.0)) == pytest.approx(100.0, rel=1e-12)

    @given(st.floats(-2.0, 2.0), st.floats(0.001, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_and_order_preserving(self, delta, width):
        lo, hi = delta - width, delta + width
        pct, (plo, phi) = fm.percent_effect(delta, (lo, hi))
        assert plo < pct < phi
        assert fm.percent_effect(delta + 1e-6) > pct


class TestDifScan:
    def test_eight_indicator_scan_shape(self):
        # Table-style report: one row per indicator, input order, explicit
        # group coding, mixed offset signs recovered with their signs
        p = 8
        names = tuple(f"y{j}" for j in range(1, p + 1))
        dif = np.array([0.45, -0.26, -0.34, 0.25, -0.02, -0.24, 0.2, -0.05])
        gen = fm.MimicModel(
            loadings=np.concatenate([[1.0], np.linspace(0.6, 1.3, p - 1)]),
            intercepts=np.zeros(p),
            struct_coefs=[1.0, -0.5],
            sens_coef=0.3,
            dif_offsets=dif,
            resid_vars=np.full(p, 0.5),
            latent_var=0.8,
            free_mask=np.ones(p, dtype=bool),
            indicator_names=names,
            covariate_names=("x1", "x2"),
            sensitive_coding=CODING,
        )
        data, _ = simulate_from(gen, n=3000, seed=60)
        base = fm.template(names, gen.covariate_names, CODING)
        report = fm.dif_scan(base, data)
        assert len(report.rows) == 8
        assert tuple(r.indicator for r in report.rows) == names
        assert report.coding == CODING
        for r in report.rows:
            assert r.error is None
            assert r.ci_low <= r.delta <= r.ci_high
            assert 0.0 <= r.p_value <= 1.0

    def test_injected_offset_recovered(self, injected_dif_study):
        # delta_3 = 0.2 injected: the scan's CI for y3 covers truth in at
        # least 90% of replications
        cover_y3 = np.mean(
            [rep.rows[2].ci_low <= 0.2 <= rep.rows[2].ci_high for rep in injected_dif_study]
        )
        assert cover_y3 >= 0.90

    def test_clean_indicators_cover_zero(self, null_dif_study):
        # with no DIF anywhere, every indicator's CI covers 0 at the nominal
        # rate; with DIF elsewhere one-at-a-time estimates are contaminated
        # (no anchor set), so the clean-generator case is the honest check
        for j in range(4):
            cover = np.mean(
                [rep.rows[j].ci_low <= 0.0 <= rep.rows[j].ci_high for rep in null_dif_study]
            )
            assert cover >= 0.90, f"indicator {j}: coverage {cover}"

    def test_null_rejection_rates_calibrated(self, null_dif_study):
        for j in range(4):
            p_values = np.array([rep.rows[j].p_value for rep in null_dif_study])
            rate = float((p_values < 0.05).mean())
            assert 0.02 <= rate <= 0.09, f"indicator {j}: rate {rate}"

    def test_freed_offset_never_lowers_loglik(self, null_dif_study):
        for rep in null_dif_study[:25]:
            for row in rep.rows:
                assert row.lr_statistic >= 0.0

    @given(st.integers(0, 2**31 - 1), st.integers(200, 2000))
    @settings(max_examples=30, deadline=None)
    def test_rows_match_independent_fits(self, seed, n):
        # Each row's LR statistic is twice the log-likelihood gained by a
        # warm refit from the base optimum with that one offset freed.
        gen = make_generator()
        data, _ = simulate_from(gen, n=n, seed=seed)
        base = base_template(gen)
        report = fm.dif_scan(base, data)
        base_fit = fm.fit(base, data)
        assert report.base_loglik == base_fit.loglik
        for j, row in enumerate(report.rows):
            assert row.error is None and row.converged
            spec_j = base_fit.model.with_values(free_mask=np.arange(4) == j)
            fit_j = fm.fit(spec_j, data, fm.OptimOptions(init="model"))
            assert row.lr_statistic >= 0.0
            assert abs(row.lr_statistic - 2.0 * (fit_j.loglik - base_fit.loglik)) <= 1e-8

    def test_rows_do_not_depend_on_the_other_indicators(self):
        # The nested fits are solved as one stack: a row must come out the
        # same whether its indicator is scanned alone, with the others, or
        # in reverse order, here with DIF on y3.
        gen = make_generator(dif=(0.0, 0.0, 0.3, 0.0))
        data, _ = simulate_from(gen, n=3000, seed=67)
        base = base_template(gen)
        names = gen.indicator_names
        full = fm.dif_scan(base, data)
        reverse = fm.dif_scan(base, data, indicators_to_test=names[::-1])
        assert tuple(r.indicator for r in reverse.rows) == names[::-1]
        assert full.rows[2].p_value < 1e-6  # the injected DIF is found
        scans = [{r.indicator: r for r in report.rows} for report in (full, reverse)]
        for name in names:
            (alone,) = fm.dif_scan(base, data, indicators_to_test=[name]).rows
            assert alone.error is None and alone.converged
            for rows in scans:
                for field in ("delta", "ci_low", "ci_high", "lr_statistic", "p_value"):
                    assert abs(getattr(alone, field) - getattr(rows[name], field)) <= 1e-12

    def test_sign_flips_with_swapped_coding(self):
        # Coding b as the reference is the same model with s -> 1 - s: on
        # every row delta and its interval negate, the endpoints trading
        # places, and the LR statistic and its p-value stay.  The tolerances
        # sit at least 100 times above the float noise of seeds 61 and
        # 71-75 (delta and endpoints 3.1e-15 absolute, the statistic
        # 2.3e-12 and the p-value 8.2e-12 relative).
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        swapped_coding = {"a": 1, "b": 0}
        swapped_base = fm.template(gen.indicator_names, gen.covariate_names, swapped_coding)
        for seed in (61, 71, 72, 73):
            data, _ = simulate_from(gen, n=3000, seed=seed)
            report = fm.dif_scan(base_template(gen), data)
            swapped_data = fm.Dataset(
                column_order=data.column_order,
                roles=dict(data.roles),
                values=dict(data.values),
                sensitive_coding=swapped_coding,
                log_scale=data.log_scale,
            )
            swapped = fm.dif_scan(swapped_base, swapped_data)
            assert len(report.rows) == len(swapped.rows) == 4
            for row, flipped in zip(report.rows, swapped.rows):
                assert row.error is None and flipped.error is None and row.indicator == flipped.indicator
                assert abs(flipped.delta + row.delta) <= 1e-12
                assert abs(flipped.ci_low + row.ci_high) <= 1e-12 and abs(flipped.ci_high + row.ci_low) <= 1e-12
                assert flipped.lr_statistic == pytest.approx(row.lr_statistic, rel=1e-9, abs=0)
                assert flipped.p_value == pytest.approx(row.p_value, rel=1e-9, abs=0)

    def test_percent_effect_only_for_log_scale(self):
        gen = make_generator(dif=(0.3, 0.0, 0.0, 0.0))
        data, _ = simulate_from(gen, n=1500, seed=62)
        flagged = fm.Dataset(
            column_order=data.column_order,
            roles=dict(data.roles),
            values=dict(data.values),
            sensitive_coding=dict(data.sensitive_coding),
            log_scale=frozenset({"y1"}),
        )
        report = fm.dif_scan(base_template(gen), flagged)
        by_name = {r.indicator: r for r in report.rows}
        assert by_name["y1"].percent_effect is not None
        assert by_name["y1"].percent_effect[0] == pytest.approx(
            (math.exp(by_name["y1"].delta) - 1) * 100, rel=1e-12
        )
        assert by_name["y2"].percent_effect is None

    def test_requires_fully_constrained_base(self):
        gen = make_generator(dif=(0.0, 0.3, 0.0, 0.0))
        data, _ = simulate_from(gen, n=500, seed=63)
        with pytest.raises(ValueError, match="constrained"):
            fm.dif_scan(base_template(gen, free_dif=("y2",)), data)

    def test_unknown_indicator_rejected(self, generator):
        data, _ = simulate_from(generator, n=500, seed=64)
        with pytest.raises(ValueError, match="unknown indicators"):
            fm.dif_scan(base_template(generator), data, indicators_to_test=["nope"])

    def test_sample_moments_refused_before_fitting(self, generator, monkeypatch):
        # the percent effects need the dataset's log_scale, which moments lack
        data, _ = simulate_from(generator, n=500, seed=64)
        mom = data_moments(base_template(generator), data)

        def no_fit(*args, **kwargs):
            raise AssertionError("dif_scan fitted before refusing its input")

        monkeypatch.setattr(dif_mod, "fit", no_fit)
        monkeypatch.setattr(dif_mod, "fit_stack", no_fit)
        with pytest.raises(TypeError, match="log_scale"):
            fm.dif_scan(base_template(generator), mom)

    def test_per_indicator_failure_recorded_and_scan_continues(self, generator, monkeypatch):
        # The nested fits run as one stacked solve; the LR test is still
        # taken row by row, so a failure there is y2's alone.
        data, _ = simulate_from(generator, n=500, seed=65)
        real_lr_test = dif_mod.lr_test

        def flaky_lr_test(full, nested):
            if "delta[y2]" in full.param_names:
                raise RuntimeError("boom")
            return real_lr_test(full, nested)

        monkeypatch.setattr(dif_mod, "lr_test", flaky_lr_test)
        report = fm.dif_scan(base_template(generator), data)
        by_name = {r.indicator: r for r in report.rows}
        assert by_name["y2"].error is not None and "boom" in by_name["y2"].error
        assert by_name["y2"].delta is None
        for name in ("y1", "y3", "y4"):
            assert by_name[name].error is None

    def test_failed_stacked_refit_recorded_in_every_row(self, generator, monkeypatch):
        data, _ = simulate_from(generator, n=500, seed=65)

        def broken_fit_stack(specs, d, options=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(dif_mod, "fit_stack", broken_fit_stack)
        report = fm.dif_scan(base_template(generator), data)
        assert np.isfinite(report.base_loglik)
        for row in report.rows:
            assert row.delta is None and not row.converged and "boom" in row.error
        table = report.to_text_table().splitlines()
        for row in report.rows:
            assert [line.split() for line in table if line.split()[:1] == [row.indicator]] == [[row.indicator, "failed"]]

    def test_failed_rows_print_their_errors_below_the_table(self, generator, monkeypatch):
        data, _ = simulate_from(generator, n=500, seed=65)

        def broken_fit_stack(specs, d, options=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(dif_mod, "fit_stack", broken_fit_stack)
        report = fm.dif_scan(base_template(generator), data)
        lines = report.to_text_table().splitlines()
        rows = len(report.rows)
        assert [line.split() for line in lines[2 : 2 + rows]] == [[r.indicator, "failed"] for r in report.rows]
        assert lines[2 + rows :] == ["Failed rows:"] + [f"  {r.indicator}: RuntimeError: boom" for r in report.rows]
        assert all(line == line.rstrip() for line in lines)

    def test_a_scan_builds_no_model_through_full_validation(self, monkeypatch):
        # Deterministic per-scan counters: the models a scan builds from its
        # own values (the fits' results and the nested specs) skip
        # MimicModel.__post_init__, and the two solves take 10 order-2
        # evaluations between them.
        data, _ = simulate_from(make_generator(dif=(0.0, 0.0, 0.2, 0.0)), n=5000, seed=3)
        base = base_template()
        counts = collections.Counter()
        real_post_init, real_loglik = fm.MimicModel.__post_init__, estimate_mod._loglik

        def post_init(model):
            counts["validating constructions"] += 1
            real_post_init(model)

        def loglik(x, spec, mom, order=0):
            counts[f"order-{order} evaluations"] += 1
            return real_loglik(x, spec, mom, order)

        monkeypatch.setattr(fm.MimicModel, "__post_init__", post_init)
        monkeypatch.setattr(estimate_mod, "_loglik", loglik)
        report = fm.dif_scan(base, data)
        assert all(r.error is None for r in report.rows)
        assert counts == {"order-2 evaluations": 10}

    def test_stacked_rows_are_each_members_own_structure(self, generator, monkeypatch):
        # Row b of every stack a scan evaluates, the members still running
        # re-stacked included, holds member b's own free mask and Jacobian
        # head, from the member's cached structure; a second scan with the
        # same names builds no structure again.
        stacks = []
        real_loglik = estimate_mod._loglik

        def loglik(x, spec, mom, order=0):
            stacks.append(spec)
            return real_loglik(x, spec, mom, order)

        monkeypatch.setattr(estimate_mod, "_loglik", loglik)
        data, _ = simulate_from(generator, n=500, seed=64)
        fm.dif_scan(base_template(generator), data)
        assert max(len(s) for s in stacks) == generator.n_indicators
        assert any(1 < len(s) < generator.n_indicators for s in stacks)
        for stack in stacks:
            for b, member in enumerate(stack):
                own = _structure(member)
                assert same_bits(stack.free[b], own.free) and same_bits(stack.head[b], own.head)
        misses = model_mod._structure_of.cache_info().misses
        fresh, _ = simulate_from(generator, n=500, seed=65)
        fm.dif_scan(base_template(generator), fresh)
        assert model_mod._structure_of.cache_info().misses == misses

    def test_moments_and_fingerprint_built_once_per_scan(self, generator, monkeypatch):
        data, _ = simulate_from(generator, n=500, seed=66)
        calls = counting(monkeypatch, (fm.Dataset, "sensitive_codes"), (dif_mod, "fit"), (dif_mod, "fit_stack"))
        report = fm.dif_scan(base_template(generator), data)
        assert all(r.error is None for r in report.rows)
        # one base fit, then one stacked solve for the four nested fits; the
        # fits' fingerprint is a digest of the moments, built with them
        assert calls == {"sensitive_codes": 1, "fit": 1, "fit_stack": 1}

    def test_one_eigendecomposition_per_stacked_solve(self, generator, monkeypatch):
        # Near the optimum each step is a Cholesky Newton step, so the only
        # eigendecomposition of a solve is the one for the SEs at its end,
        # and the moment start leaves few iterates to evaluate.
        data, _ = simulate_from(generator, n=400, seed=50_001)
        calls = counting(
            monkeypatch,
            (estimate_mod, "fit_stack"),  # the base fit's
            (dif_mod, "fit_stack"),  # the nested refits'
            (estimate_mod, "_loglik"),
            (np.linalg, "eigh"),
        )
        fm.dif_scan(base_template(generator), data)
        assert calls["fit_stack"] == 2 and calls["eigh"] == 2
        assert calls["_loglik"] <= 10

    def test_text_table_mirrors_report(self, generator):
        data, _ = simulate_from(generator, n=600, seed=66)
        report = fm.dif_scan(base_template(generator), data)
        table = report.to_text_table()
        lines = table.strip().splitlines()
        assert "Indicator" in lines[1]
        assert len(lines) == 2 + len(report.rows)
        for row in report.rows:
            assert row.indicator in table

"""Differential item functioning scan.

Each indicator is tested one at a time: the model is refitted with only
that indicator's group offset freed and compared against the all-constrained
base fit by a likelihood-ratio test, with a Wald 95% interval from the
observed information.  One-at-a-time freeing keeps the model identified; a
single-factor model with every offset free alongside gamma is not.  The p
refits share their packed length and start at the base optimum, so they run
as one stacked solve (:func:`~fairmimic.estimate.fit_stack`), each with its
own iterate and stopping; a row equals the one its refit alone would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .estimate import OptimOptions, fit, fit_stack, lr_test
from .model import MimicModel, SampleMoments, _levels, data_moments, to_json


def percent_effect(delta: float, ci=None):
    """Percent-scale interpretation (e^delta - 1) * 100 of a group offset on
    a log-transformed indicator, with the endpoint-transformed interval."""
    pct = (math.exp(delta) - 1.0) * 100.0
    if ci is None:
        return pct
    lo, hi = ci
    return pct, ((math.exp(lo) - 1.0) * 100.0, (math.exp(hi) - 1.0) * 100.0)


class PercentEffect(NamedTuple):
    """A log-scale offset on the percent scale, with its interval."""

    percent: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class DifRow:
    indicator: str
    delta: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    lr_statistic: float | None = None
    p_value: float | None = None
    percent_effect: PercentEffect | None = None  # for log-scale indicators
    log_scale: bool = False
    converged: bool = True
    error: str | None = None


@dataclass(frozen=True)
class DifReport:
    """Per-indicator offset estimates, intervals and LR tests.

    ``coding`` records which sensitive level is coded 1, so the sign of
    every delta is unambiguous: delta is the mean deviation of the level
    coded 1 relative to the reference level at equal latent value.
    """

    rows: tuple
    base_loglik: float
    coding: dict
    n_obs: int

    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        return to_json(self)

    def to_text_table(self) -> str:
        """Aligned table with the estimate and 95% interval per indicator.
        A row whose refit or test failed reads ``failed``, and its error is
        listed below the table."""
        header = ("Indicator", "delta", "2.5%", "97.5%", "LR", "p")
        body = []
        for r in self.rows:
            if r.error is not None:
                body.append((r.indicator, "failed", "", "", "", ""))
                continue
            body.append(
                (
                    r.indicator,
                    f"{r.delta:.3f}",
                    f"{r.ci_low:.3f}",
                    f"{r.ci_high:.3f}",
                    f"{r.lr_statistic:.1f}",
                    _fmt_p(r.p_value),
                )
            )
        zero, one = _levels(self.coding)
        lines = [
            f"Group offsets per indicator: level {one!r} (coded 1) minus "
            f"level {zero!r} (coded 0), given the latent value."
        ]
        widths = [max(len(str(row[i])) for row in [header] + body) for i in range(len(header))]
        fmt = "  ".join("{:>%d}" % w for w in widths)
        lines.append(fmt.format(*header))
        lines += [fmt.format(*row).rstrip() for row in body]
        failed = [r for r in self.rows if r.error is not None]
        if failed:
            lines.append("Failed rows:")
            lines += [f"  {r.indicator}: {r.error}" for r in failed]
        return "\n".join(lines) + "\n"


def _fmt_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def dif_scan(
    base_spec: MimicModel,
    data,
    indicators_to_test=None,
    options: OptimOptions | None = None,
) -> DifReport:
    """Scan indicators for differential item functioning.

    ``base_spec`` must constrain every dif offset to 0.  Per tested
    indicator, the corresponding offset is freed, the model refitted from
    the base optimum (shared starting point, which keeps the LR statistic
    nonnegative), and the estimate, Wald interval, LR statistic and p-value
    recorded.  The refits run as one stacked solve.  A row whose result
    fails is recorded as failed and the scan continues; should the stacked
    solve itself raise, every row records that error.  The sample moments,
    with their fingerprint, are built once and shared by every fit of the
    scan.  ``data`` must be the :class:`~fairmimic.data.Dataset`, not its
    sample moments: the percent effects read its ``log_scale``.
    """
    if base_spec.free_mask.any():
        raise ValueError("base_spec must have every dif offset constrained to 0")
    if indicators_to_test is None:
        indicators_to_test = base_spec.indicator_names
    unknown = set(indicators_to_test) - set(base_spec.indicator_names)
    if unknown:
        raise ValueError(f"unknown indicators: {sorted(unknown)}")
    options = options or OptimOptions()

    mom = data_moments(base_spec, data)
    if isinstance(data, SampleMoments):
        raise TypeError(
            "dif_scan needs the Dataset, not its SampleMoments: the percent effects read the dataset's log_scale"
        )
    base_fit = fit(base_spec, mom, options)
    columns = [base_spec.indicator_names.index(name) for name in indicators_to_test]
    # the base optimum with one offset freed: its offsets are all 0, so every
    # mask leaves a valid model
    fields = vars(base_fit.model)
    specs = [MimicModel._trusted(**{**fields, "free_mask": np.arange(base_spec.n_indicators) == j}) for j in columns]
    try:
        nested = fit_stack(specs, mom, replace(options, init="model")) if specs else ()
    except Exception as exc:  # the stacked refit failed: every row records it
        nested = [exc] * len(specs)
    rows = []
    for name, j, fit_j in zip(indicators_to_test, columns, nested):
        log_flag = name in data.log_scale
        try:
            if isinstance(fit_j, Exception):
                raise fit_j
            delta = float(fit_j.model.dif_offsets[j])
            ci = fit_j.wald_ci(f"delta[{name}]")
            test = lr_test(fit_j, base_fit)
            pct = None
            if log_flag:
                p_val, p_ci = percent_effect(delta, ci)
                pct = PercentEffect(p_val, *p_ci)
            rows.append(
                DifRow(
                    indicator=name,
                    delta=delta,
                    ci_low=ci[0],
                    ci_high=ci[1],
                    lr_statistic=test.statistic,
                    p_value=test.p_value,
                    percent_effect=pct,
                    log_scale=log_flag,
                    converged=fit_j.converged,
                )
            )
        except Exception as exc:  # record and continue with the other indicators
            error = f"{type(exc).__name__}: {exc}"
            rows.append(DifRow(indicator=name, log_scale=log_flag, converged=False, error=error))
    return DifReport(
        rows=tuple(rows),
        base_loglik=base_fit.loglik,
        coding=dict(mom.coding),
        n_obs=base_fit.n_obs,
    )

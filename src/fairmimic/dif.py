"""Differential item functioning scan.

Each indicator is tested one at a time: the model is refitted with only
that indicator's group offset freed and compared against the all-constrained
base fit by a likelihood-ratio test, with a Wald 95% interval from the
observed information.  One-at-a-time freeing keeps the model identified; a
single-factor model with every offset free alongside gamma is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimate import OptimOptions, fit, lr_test
from .model import MimicModel, data_moments


def percent_effect(delta: float, ci=None):
    """Percent-scale interpretation (e^delta - 1) * 100 of a group offset on
    a log-transformed indicator, with the endpoint-transformed interval."""
    pct = (math.exp(delta) - 1.0) * 100.0
    if ci is None:
        return pct
    lo, hi = ci
    return pct, ((math.exp(lo) - 1.0) * 100.0, (math.exp(hi) - 1.0) * 100.0)


@dataclass(frozen=True)
class DifRow:
    indicator: str
    delta: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    lr_statistic: float | None = None
    p_value: float | None = None
    percent: tuple | None = None  # (percent, pct_ci_low, pct_ci_high) for log-scale indicators
    log_scale: bool = False
    converged: bool = True
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "indicator": self.indicator,
            "delta": self.delta,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "lr_statistic": self.lr_statistic,
            "p_value": self.p_value,
            "percent_effect": (
                None
                if self.percent is None
                else {
                    "percent": self.percent[0],
                    "ci_low": self.percent[1],
                    "ci_high": self.percent[2],
                }
            ),
            "log_scale": self.log_scale,
            "converged": self.converged,
            "error": self.error,
        }


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

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "coding": dict(self.coding),
            "base_loglik": self.base_loglik,
            "n_obs": self.n_obs,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_text_table(self) -> str:
        """Aligned table with the estimate and 95% interval per indicator."""
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
        one = next(k for k, v in self.coding.items() if v == 1)
        zero = next(k for k, v in self.coding.items() if v == 0)
        lines = [
            f"Group offsets per indicator: level {one!r} (coded 1) minus "
            f"level {zero!r} (coded 0), given the latent value."
        ]
        widths = [max(len(str(row[i])) for row in [header] + body) for i in range(len(header))]
        fmt = "  ".join("{:>%d}" % w for w in widths)
        lines.append(fmt.format(*header))
        lines += [fmt.format(*row) for row in body]
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
    recorded.  A failed per-indicator fit is recorded in its row and the
    scan continues.  The sample moments and the data fingerprint are built
    once and shared by every fit of the scan.
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
    base_fit = fit(base_spec, mom, options)
    warm = replace(options, init="model")

    rows = []
    for name in indicators_to_test:
        j = base_spec.indicator_names.index(name)
        mask = np.zeros(base_spec.n_indicators, dtype=bool)
        mask[j] = True
        spec_j = base_fit.model.with_values(free_mask=mask)
        log_flag = name in data.log_scale
        try:
            fit_j = fit(spec_j, mom, warm)
            delta = float(fit_j.model.dif_offsets[j])
            ci = fit_j.wald_ci(f"delta[{name}]")
            test = lr_test(fit_j, base_fit)
            pct = None
            if log_flag:
                p_val, p_ci = percent_effect(delta, ci)
                pct = (p_val, p_ci[0], p_ci[1])
            rows.append(
                DifRow(
                    indicator=name,
                    delta=delta,
                    ci_low=ci[0],
                    ci_high=ci[1],
                    lr_statistic=test.statistic,
                    p_value=test.p_value,
                    percent=pct,
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

"""Fairness diagnostics: selection-rate parity, conditional parity curves
over score percentiles, positive predictive value parity, and the
counterfactual-invariance check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import group_codes, write_table
from .model import MimicModel, _covariate_matrix, to_json
from .score import fair_score, naive_score


@dataclass(frozen=True)
class ParityReport:
    """Per-group selection rates and the largest pairwise gap."""

    rate_by_group: dict
    parity_gap: float
    n_by_group: dict

    def to_dict(self) -> dict:
        return to_json(self)


def statistical_parity(decisions, sensitive, levels=None) -> ParityReport:
    """Selection rate P(d=1 | group) per group and the max pairwise gap."""
    d = np.asarray(decisions)
    if d.size == 0:
        raise ValueError("decisions must be nonempty")
    if not np.isin(d, (0, 1)).all():
        raise ValueError("decisions must be binary 0/1")
    names, codes = group_codes(sensitive)
    if codes.shape[0] != d.shape[0]:
        raise ValueError("decisions and sensitive must have equal length")
    levels = names if levels is None else [str(v) for v in levels]
    index = {g: i for i, g in enumerate(names)}
    n_rows = np.bincount(codes, minlength=len(names)).tolist()
    n_selected = np.bincount(codes, weights=d, minlength=len(names)).tolist()
    rates, counts = {}, {}
    for g in levels:
        i = index.get(g)
        n_g = 0 if i is None else n_rows[i]
        if n_g == 0:
            raise ValueError(f"group {g!r} has zero rows")
        counts[g] = n_g
        rates[g] = n_selected[i] / n_g
    vals = list(rates.values())
    return ParityReport(
        rate_by_group=rates,
        parity_gap=float(max(vals) - min(vals)),
        n_by_group=counts,
    )


@dataclass(frozen=True)
class CurveBin:
    percentile_low: float
    percentile_high: float
    group: str
    mean: float | None
    count: int


@dataclass(frozen=True)
class ConditionalParityCurve:
    """Mean proxy value per score-percentile bin and group.

    ``gap_by_bin`` holds, per bin, the cross-group difference of mean proxy
    values (second group minus first for two groups, max minus min
    otherwise); ``None`` marks bins where some group is empty.
    ``mean_abs_gap`` is the count-weighted mean absolute per-bin gap, the
    scalar parity summary.
    """

    bins: tuple
    gap_by_bin: tuple
    groups: tuple
    n_bins: int
    mean_abs_gap: float

    CSV_HEADER = ("percentile_low", "percentile_high", "group", "mean_proxy", "count")

    def to_rows(self):
        return [
            (b.percentile_low, b.percentile_high, b.group, b.mean, b.count)
            for b in self.bins
        ]

    def to_dict(self) -> dict:
        return to_json(self)

    def csv_rows(self, score_type=None) -> list:
        """``to_rows()`` as records of the tidy CSV, in the order of
        ``CSV_HEADER``: the mean as its ``repr``, empty for an empty cell,
        and ``score_type`` in front when one is given."""
        lead = [] if score_type is None else [score_type]
        return [
            lead + [lo, hi, group, "" if mean is None else repr(float(mean)), count]
            for lo, hi, group, mean, count in self.to_rows()
        ]

    def write_csv(self, path, score_type=None) -> None:
        """Tidy CSV (bin bounds, group, mean, count) for external plotting."""
        header = self.CSV_HEADER if score_type is None else ("score_type", *self.CSV_HEADER)
        write_table(path, header, list(zip(*self.csv_rows(score_type))))


def conditional_parity_curve(scores, sensitive, proxy_values, n_bins: int = 10) -> ConditionalParityCurve:
    """Bucket rows into equal-width score-percentile bins and compare the
    mean proxy value across groups within each bin.

    Percentile rank is the fraction of scores at or below a row's score, so
    the bins partition (0, 100] and a row with c scores at or below its own
    falls in bin ceil(c * n_bins / n) - 1; tied scores share a bin.  The bins
    are cut at order statistics: with the scores sorted, row i is in bin b or
    above exactly when its score is at least the sorted score at index
    (b * n) // n_bins, for b = 1 .. n_bins - 1.  Counts and proxy sums per
    (bin, group) cell come from one ``np.bincount`` each.  Empty group-bins
    are reported with count 0 and a null mean; bins where any group is empty
    contribute no gap.
    """
    scores = np.asarray(scores, dtype=np.float64)
    proxy = np.asarray(proxy_values, dtype=np.float64)
    levels, codes = group_codes(sensitive)
    n = scores.shape[0]
    if n == 0:
        raise ValueError("scores must be nonempty")
    if proxy.shape[0] != n or codes.shape[0] != n:
        raise ValueError("scores, sensitive and proxy_values must have equal length")
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")

    n_groups = len(levels)
    cuts = np.sort(scores)[np.arange(1, n_bins) * n // n_bins]
    cell = np.searchsorted(cuts, scores, side="right") * n_groups + codes
    shape = (n_bins, n_groups)
    counts = np.bincount(cell, minlength=n_bins * n_groups).reshape(shape).tolist()
    sums = np.bincount(cell, weights=proxy, minlength=n_bins * n_groups).reshape(shape).tolist()

    edges = [(100.0 * b / n_bins, 100.0 * (b + 1) / n_bins) for b in range(n_bins)]
    bins = []
    gaps = []
    weights = []
    for b in range(n_bins):
        means = [s / c if c else None for s, c in zip(sums[b], counts[b])]
        for g, mean, cnt in zip(levels, means, counts[b]):
            bins.append(
                CurveBin(
                    percentile_low=edges[b][0],
                    percentile_high=edges[b][1],
                    group=g,
                    mean=mean,
                    count=cnt,
                )
            )
        if None in means:
            gaps.append(None)
            continue
        if n_groups == 2:
            gap = means[1] - means[0]
        else:
            gap = max(means) - min(means)
        gaps.append(float(gap))
        weights.append((b, sum(counts[b])))

    if weights:
        total = sum(w for _, w in weights)
        mean_abs = sum(abs(gaps[b]) * w for b, w in weights) / total
    else:
        mean_abs = float("nan")
    return ConditionalParityCurve(
        bins=tuple(bins),
        gap_by_bin=tuple(gaps),
        groups=tuple(levels),
        n_bins=n_bins,
        mean_abs_gap=float(mean_abs),
    )


@dataclass(frozen=True)
class PpvReport:
    """Positive predictive value per group; groups without positive
    decisions are flagged rather than silently dropped."""

    ppv_by_group: dict
    parity_gap: float | None
    n_positive_by_group: dict
    undefined_groups: tuple

    def to_dict(self) -> dict:
        return to_json(self)


def predictive_parity(decisions, outcome_binary, sensitive) -> PpvReport:
    """P(outcome=1 | d=1, group) per group and the max pairwise gap.

    The caller supplies the binarized outcome (for a continuous latent there
    is no intrinsic positive class)."""
    d = np.asarray(decisions)
    y = np.asarray(outcome_binary)
    levels, codes = group_codes(sensitive)
    if not (d.shape == y.shape == codes.shape):
        raise ValueError("decisions, outcome and sensitive must have equal length")
    if not np.isin(d, (0, 1)).all() or not np.isin(y, (0, 1)).all():
        raise ValueError("decisions and outcome must be binary 0/1")
    n_selected = np.bincount(codes, weights=d, minlength=len(levels)).tolist()
    n_hits = np.bincount(codes, weights=d * y, minlength=len(levels)).tolist()
    ppv, npos = {}, {}
    undefined = []
    for g, sel, hits in zip(levels, n_selected, n_hits):
        npos[g] = int(sel)
        if npos[g] == 0:
            ppv[g] = None
            undefined.append(g)
        else:
            ppv[g] = hits / sel
    defined = [v for v in ppv.values() if v is not None]
    gap = float(max(defined) - min(defined)) if len(defined) >= 2 else None
    return PpvReport(
        ppv_by_group=ppv,
        parity_gap=gap,
        n_positive_by_group=npos,
        undefined_groups=tuple(undefined),
    )


def counterfactual_check(model: MimicModel, covariates, reference_level=None, score: str = "fair") -> float:
    """Largest per-row score discrepancy across interventions on the group.

    Scores every row once per declared sensitive level, with the level
    forced on all rows, and returns max_i (max_level - min_level).  For the
    fair score this is exactly 0; for the naive score it equals |gamma|
    times the coding span.
    """
    if score not in ("fair", "naive"):
        raise ValueError("score must be 'fair' or 'naive'")
    X = _covariate_matrix(model, covariates)
    per_level = []
    for level in sorted(model.sensitive_coding):
        if score == "fair":
            per_level.append(fair_score(model, X, reference_level))
        else:
            forced = np.full(X.shape[0], model.level_code(level))
            per_level.append(naive_score(model, X, forced))
    stacked = np.stack(per_level)
    return float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))

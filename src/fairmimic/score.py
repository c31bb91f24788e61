"""Risk scores from a fitted model and percentile-threshold decisions.

The fair score blocks the sensitive-attribute path by evaluating the
structural equation with the sensitive attribute pinned at a reference
level for every row, so two people with the same covariates get exactly the
same score no matter their group.  The naive score leaves the path open and
serves as the comparison baseline in audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import group_codes, write_table
from .model import (
    MimicModel, _check_regressors, _columns, _covariate_matrix, _extract_arrays, _matrix, implied_moments
)


def fair_score(model: MimicModel, covariates, reference_level=None) -> np.ndarray:
    """Blocked-path risk score beta' x + gamma * s_ref for every row.

    The rows' own sensitive values play no part, which makes the score
    counterfactually invariant by construction.  ``reference_level``
    defaults to the group coded 0.
    """
    if reference_level is None:
        reference_level = model.reference_level
    code = model.level_code(reference_level)
    X = _covariate_matrix(model, covariates)
    return X @ model.struct_coefs + model.sens_coef * code


def naive_score(model: MimicModel, covariates, sensitive) -> np.ndarray:
    """Open-path risk score beta' x + gamma * s using each row's own group."""
    s = as_codes(model, sensitive)
    X, s = _check_regressors(model, covariates, s)
    return X @ model.struct_coefs + model.sens_coef * s


def as_codes(model: MimicModel, sensitive) -> np.ndarray:
    """Map an array of labels or numeric codes onto {0, 1} codes; a numeric
    code outside {0, 1}, NaN included, raises ValueError."""
    arr = np.asarray(sensitive)
    if arr.dtype.kind in "fiub":
        codes = arr.astype(np.float64)
        bad = (codes != 0.0) & (codes != 1.0)
        if bad.any():
            raise ValueError(f"sensitive codes must be 0 or 1, got {codes[bad][0]!r}")
        return codes
    levels, index = group_codes(sensitive)
    return np.array([model.level_code(v) for v in levels], dtype=np.float64)[index]


def nearest_rank_percentile(values, percentile: float) -> float:
    """Smallest sample value with at least ``percentile`` percent of the
    sample at or below it; the rank is exact for the decimal ``percentile``
    prints as (16.1 percent of 1000 values is rank 161, not 162)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must be strictly between 0 and 100")
    rank = math.ceil(Fraction(repr(float(percentile))) * values.size / 100)
    return float(np.sort(values)[rank - 1])


def decide(scores, percentile: float, reference_scores=None):
    """Threshold scores at the nearest-rank percentile of a reference set.

    Returns ``(decisions, threshold_value)``; a decision is 1 exactly when
    the score is strictly greater than the threshold.  The reference set
    (training scores) defaults to ``scores`` itself.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    ref = scores if reference_scores is None else reference_scores
    threshold = nearest_rank_percentile(ref, percentile)
    return (scores > threshold).astype(np.int64), threshold


def factor_score(model: MimicModel, data) -> np.ndarray:
    """Posterior mean of the latent variable given indicators, covariates
    and group (regression factor scores); diagnostic use only."""
    Y, X, s = _extract_arrays(model, data)
    implied = implied_moments(model, X, s)
    m = X @ model.struct_coefs + model.sens_coef * s
    weights = model.latent_var * np.linalg.solve(implied.cond_cov, model.loadings)
    return m + (Y - implied.cond_mean) @ weights


@dataclass(frozen=True)
class ScoreSet:
    """Per-row fair and naive scores plus threshold decisions.

    ``row_ids`` is the data's id column, or None for data without one, whose
    rows are numbered 0 .. n-1 in the CSV file.
    """

    row_ids: np.ndarray | None
    fair: np.ndarray
    naive: np.ndarray
    decision: np.ndarray
    threshold_value: float
    threshold_percentile: float
    reference_level: str
    decided_on: str = "fair"

    def to_csv(self, path) -> None:
        ids = range(len(self.fair)) if self.row_ids is None else self.row_ids
        write_table(
            path,
            ("row_id", "fair_score", "naive_score", "decision"),
            (ids, self.fair, self.naive, self.decision),
        )

    def summary_dict(self) -> dict:
        return {
            "threshold_value": self.threshold_value,
            "threshold_percentile": self.threshold_percentile,
            "reference_level": self.reference_level,
            "decided_on": self.decided_on,
            "n": len(self.fair),
            "n_selected": int(self.decision.sum()),
        }


def score_dataset(
    model: MimicModel,
    data,
    percentile: float = 55.0,
    reference_level=None,
    reference_scores=None,
    decided_on: str = "fair",
) -> ScoreSet:
    """Score every row of a dataset and apply the percentile decision rule.

    ``reference_scores`` (training-set scores) define the threshold; they
    default to the scores of ``data`` itself.  Decisions are taken on the
    fair score unless ``decided_on="naive"``.
    """
    if decided_on not in ("fair", "naive"):
        raise ValueError("decided_on must be 'fair' or 'naive'")
    if reference_level is None:
        reference_level = model.reference_level
    cov, s, _ = _columns(model, data)
    X = _matrix(cov, len(s))  # the covariates alone are stacked
    fair = fair_score(model, X, reference_level)
    naive = naive_score(model, X, s)
    chosen = fair if decided_on == "fair" else naive
    decisions, threshold = decide(chosen, percentile, reference_scores)
    return ScoreSet(
        row_ids=None if data.id_name is None else data.column(data.id_name),
        fair=fair,
        naive=naive,
        decision=decisions,
        threshold_value=threshold,
        threshold_percentile=float(percentile),
        reference_level=str(reference_level),
        decided_on=decided_on,
    )

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

from .data import group_codes, read_table, write_table
from .exceptions import FairMimicError
from .model import (
    MimicModel,
    _block_products,
    _check_regressors,
    _columns,
    _covariate_matrix,
    _mean_coefs,
    _precision,
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
    (fair,) = _predictors(model, X, len(X), [code])
    return fair


def naive_score(model: MimicModel, covariates, sensitive) -> np.ndarray:
    """Open-path risk score beta' x + gamma * s using each row's own group."""
    s = as_codes(model, sensitive)
    X, s = _check_regressors(model, covariates, s)
    (naive,) = _predictors(model, X, len(X), [s])
    return naive


def _predictors(model: MimicModel, rows, n: int, codes) -> list:
    """The linear predictor beta' x + gamma * code of each of the ``n``
    covariate rows (an n x q matrix or q columns), once per entry of
    ``codes`` (one code for all rows, or one per row).  ``beta' x`` is
    formed once per block by ``_block_products`` and read by every code
    while it is in cache, so no n-row array is made beyond the results."""
    out = [np.empty(n) for _ in codes]
    for a, b, _, xb in _block_products(rows, n, model.struct_coefs):
        for pred, code in zip(out, codes):
            np.add(xb, model.sens_coef * (code if np.ndim(code) == 0 else code[a:b]), out=pred[a:b])
    return out


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
    prints as (16.1 percent of 1000 values is rank 161, not 162).  A NaN or
    infinite value raises ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return _order_statistic(values, percentile)


def _order_statistic(values: np.ndarray, percentile: float) -> float:
    """:func:`nearest_rank_percentile` of nonempty float64 ``values`` already
    checked finite."""
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must be strictly between 0 and 100")
    rank = math.ceil(Fraction(repr(float(percentile))) * values.size / 100)
    return float(np.partition(values, rank - 1)[rank - 1])


def decide(scores, percentile: float, reference_scores=None):
    """Threshold scores at the nearest-rank percentile of a reference set.

    Returns ``(decisions, threshold_value)``; a decision is 1 exactly when
    the score is strictly greater than the threshold.  The reference set
    (training scores) defaults to ``scores`` itself.  A NaN or infinite
    score, or reference score, raises ValueError; each array is checked once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if reference_scores is None:
        threshold = _order_statistic(scores, percentile)
    else:
        threshold = nearest_rank_percentile(reference_scores, percentile)
    return (scores > threshold).astype(np.int64), threshold


def factor_score(model: MimicModel, data) -> np.ndarray:
    """Posterior mean of the latent variable given indicators, covariates
    and group (regression factor scores); diagnostic use only.

    With the conditional mean ``mu = Bt[0] + [x, s] Bt[1:]`` of the
    indicators, the score of a row is ``beta' x + gamma s + (y - mu) w``,
    ``w = psi Sigma^-1 lambda``.  It is formed one block of rows of
    ``[x, s, y]`` at a time, so no n-row array is made beyond the result.
    """
    cov, s, ind = _columns(model, data)
    q, Bt = len(cov), _mean_coefs(vars(model))
    weights = model.latent_var * (_precision(vars(model))[0] @ model.loadings)
    out = np.empty(len(s))
    for a, b, block, xb in _block_products([*cov, s, *ind], len(s), model.struct_coefs):
        resid = block[:, q + 1 :] - (Bt[0] + block[:, : q + 1] @ Bt[1:])
        out[a:b] = xb + model.sens_coef * block[:, q] + resid @ weights
    return out


# The scores file's columns and the dtypes they are read as, in file order.
_SCORE_DTYPES = {"row_id": object, "fair_score": np.float64, "naive_score": np.float64, "decision": np.int64}


@dataclass(frozen=True)
class ScoreSet:
    """Per-row fair and naive scores plus threshold decisions.

    ``row_ids`` is the data's id column as the data holds it: the text read
    from disk, or a simulated table's int64 row numbers, which the CSV file
    prints as the same text.  It is None for data without an id column,
    whose rows are numbered 0 .. n-1 in the CSV file.
    """

    row_ids: np.ndarray | None
    fair: np.ndarray
    naive: np.ndarray
    decision: np.ndarray
    threshold_value: float
    threshold_percentile: float
    reference_level: str

    def to_csv(self, path) -> None:
        """The scores file :func:`read_scores` reads."""
        ids = range(len(self.fair)) if self.row_ids is None else self.row_ids
        write_table(path, tuple(_SCORE_DTYPES), (ids, self.fair, self.naive, self.decision))

    def summary_dict(self) -> dict:
        return {
            "threshold_value": self.threshold_value,
            "threshold_percentile": self.threshold_percentile,
            "reference_level": self.reference_level,
            "n": len(self.fair),
            "n_selected": int(self.decision.sum()),
        }


def score_dataset(
    model: MimicModel,
    data,
    percentile: float = 55.0,
    reference_level=None,
    reference_scores=None,
) -> ScoreSet:
    """Score every row of a dataset and apply the percentile decision rule
    to its fair scores.

    ``reference_scores`` (training-set fair scores) define the threshold;
    they default to the fair scores of ``data`` itself.

    The covariate columns are read one block of rows at a time into one
    reused buffer, and both scores are written from that block's
    ``beta' x``, so the n x q covariate matrix is never formed; the scores
    equal :func:`fair_score` and :func:`naive_score` of that matrix bit for
    bit.
    """
    if reference_level is None:
        reference_level = model.reference_level
    cov, s, _ = _columns(model, data)
    # the dataset's codes are 0/1 under the model's coding, checked by _columns
    codes = [model.level_code(reference_level), s]
    fair, naive = _predictors(model, cov, len(s), codes)
    decisions, threshold = decide(fair, percentile, reference_scores)
    return ScoreSet(
        row_ids=None if data.id_name is None else data.column(data.id_name),
        fair=fair,
        naive=naive,
        decision=decisions,
        threshold_value=threshold,
        threshold_percentile=float(percentile),
        reference_level=str(reference_level),
    )


def read_scores(path) -> dict:
    """The columns of a scores file that :meth:`ScoreSet.to_csv` wrote, by
    name and in its order; columns it did not write are ignored.  A missing
    column or a non-finite score raises FairMimicError."""

    def dtypes_of(header):
        missing = [c for c in _SCORE_DTYPES if c not in header]
        if missing:
            raise FairMimicError(f"{path}: scores file has no column {missing[0]!r}")
        return [_SCORE_DTYPES.get(c, object) for c in header]

    header, columns = read_table(path, dtypes_of)
    values = dict(zip(header, columns))
    for c in ("fair_score", "naive_score"):
        bad = np.flatnonzero(~np.isfinite(values[c]))
        if bad.size:
            raise FairMimicError(f"{path}: column {c!r} has a non-finite value in row {bad[0] + 2}")
    return {c: values[c] for c in _SCORE_DTYPES}

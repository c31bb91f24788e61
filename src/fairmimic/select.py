"""LASSO feature selection with cross-validation, plus Spearman correlation.

The solver is cyclic coordinate descent with soft-thresholding on the
objective (1/2n)||y - b0 - F w||^2 + penalty * ||w||_1; the intercept is
handled by centering and is never penalized.  It uses the covariance updates
of Friedman, Hastie & Tibshirani (2010, JSS 33(1)): the objective depends on
the data only through the centred moments G = Fc'Fc/n, c = Fc'yc/n and
yy = yc'yc/n, so they are computed once per penalty path and every
coordinate step costs O(q) instead of O(n).  The descent carries
g = c - G w, which is Fc'r/n for the centred residual r, and after each
change of w[j] updates it with the row G[j].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvergenceError
from .model import sample_moments, to_json

MAX_SWEEPS = 10_000
COEF_TOL = 1e-7
GRID_POINTS = 100
GRID_RATIO = 1e-3


def _soft_threshold(z: float, threshold: float) -> float:
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


class _Moments(NamedTuple):
    f_mean: np.ndarray  # (q,) column means of F
    y_mean: float
    G: np.ndarray  # (q, q) Fc'Fc / n
    c: np.ndarray  # (q,) Fc'yc / n
    yy: float  # yc'yc / n


def _moments(F, y) -> _Moments:
    """Column means and centred second moments of (F, y), divided by n.

    A constant column gets exactly zero moments: ``np.mean`` of a constant is
    often inexact, which would leave it a tiny centred variance and let the
    descent give it a coefficient at a penalty near 0.
    """
    q = F.shape[1]
    mom = sample_moments(list(F.T) + [y])
    scaled = mom.gram / mom.n
    # A constant column's mean is off by about log2(n) * eps relative, so its
    # centred variance is far below (1e-8 * mean)^2; only such columns are
    # tested for exact constancy.
    small = np.flatnonzero(np.diag(scaled)[:q] <= (1e-8 * mom.mean[:q]) ** 2)
    constant = small[F[:, small].max(axis=0) == F[:, small].min(axis=0)]
    scaled[constant, :] = 0.0
    scaled[:, constant] = 0.0
    return _Moments(
        f_mean=mom.mean[:q],
        y_mean=float(mom.mean[q]),
        G=scaled[:q, :q],
        c=scaled[:q, q],
        yy=float(scaled[q, q]),
    )


def _descend(G, c, yy, penalty, w, trace=None):
    """Cyclic coordinate descent on the Gram form, updating ``w`` in place.

    A column with zero centred variance is never updated.  Stops when the
    largest coefficient change in a sweep is below ``COEF_TOL``; if ``trace``
    is a list, the objective after each sweep is appended to it.
    """
    norms = np.diag(G).tolist()
    g = c - G @ w
    for _ in range(MAX_SWEEPS):
        max_change = 0.0
        for j, norm in enumerate(norms):
            if norm == 0.0:
                continue
            old = float(w[j])
            new = _soft_threshold(float(g[j]) + norm * old, penalty) / norm
            if new != old:
                g -= (new - old) * G[j]
                w[j] = new
                max_change = max(max_change, abs(new - old))
        if trace is not None:
            # 0.5 ||r||^2 / n = 0.5 (yy - 2 w'c + w'G w) = 0.5 (yy - w'(c + g))
            trace.append(0.5 * (yy - float(w @ (c + g))) + penalty * float(np.abs(w).sum()))
        if max_change < COEF_TOL:
            return w
    raise ConvergenceError(
        f"coordinate descent did not converge in {MAX_SWEEPS} sweeps"
    )


def penalty_max(features, target) -> float:
    """Smallest penalty at which every coefficient is exactly zero."""
    F = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    return _penalty_max(_moments(F, y))


def _penalty_max(mom: _Moments) -> float:
    return float(np.max(np.abs(mom.c)))


def lasso_fit(features, target, penalty_weight: float, w0=None, trace=None):
    """Cyclic coordinate descent for the LASSO with covariance updates.

    Computes the centred moments of (features, target) once and descends on
    them (see the module docstring), so each coordinate step costs O(q).

    Parameters
    ----------
    features : (n, q) array
    target : (n,) array
    penalty_weight : float, >= 0
    w0 : optional warm-start coefficients.
    trace : optional list; if given, the objective value after each sweep is
        appended (used to check that sweeps never increase the objective).

    Returns
    -------
    (coefficients, intercept)

    Raises
    ------
    ConvergenceError
        If the maximum coefficient change is still above 1e-7 after 10^4
        sweeps.
    """
    F = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if F.ndim != 2 or y.ndim != 1 or F.shape[0] != y.shape[0]:
        raise ValueError("features must be n x q and target length n")
    if penalty_weight < 0:
        raise ValueError("penalty_weight must be nonnegative")
    mom = _moments(F, y)
    w = np.zeros(F.shape[1]) if w0 is None else np.array(w0, dtype=np.float64)
    _descend(mom.G, mom.c, mom.yy, penalty_weight, w, trace)
    return w, float(mom.y_mean - mom.f_mean @ w)


def default_penalty_grid(features, target, n_points: int = GRID_POINTS, ratio: float = GRID_RATIO):
    """Log-spaced descending grid from penalty_max down to ratio * penalty_max."""
    return _penalty_grid(penalty_max(features, target), n_points, ratio)


def _penalty_grid(pmax: float, n_points: int, ratio: float):
    if pmax == 0.0:
        raise ValueError("target is uncorrelated with every feature; empty grid")
    return np.geomspace(pmax, ratio * pmax, n_points)


@dataclass(frozen=True)
class LassoPath:
    """Solution path over a descending penalty grid with CV error."""

    penalties: np.ndarray
    coefs: np.ndarray  # (grid, q), fitted on the full data
    intercepts: np.ndarray
    cv_mse: np.ndarray
    cv_se: np.ndarray
    chosen_index: int
    chosen_penalty: float
    active_set: tuple  # indices of nonzero coefficients at the chosen penalty
    feature_names: tuple | None
    rule: str

    SCHEMA_VERSION = 1

    @property
    def chosen_coefs(self) -> np.ndarray:
        return self.coefs[self.chosen_index]

    @property
    def chosen_intercept(self) -> float:
        return float(self.intercepts[self.chosen_index])

    def active_names(self):
        if self.feature_names is None:
            return tuple(str(j) for j in self.active_set)
        return tuple(self.feature_names[j] for j in self.active_set)

    def to_dict(self) -> dict:
        return to_json(self)

    def to_role_fragment(self) -> dict:
        """Role-config fragment declaring the selected features as covariates."""
        return {"roles": {name: "covariate" for name in self.active_names()}}


def _fit_path(mom: _Moments, grid):
    """Coefficients and intercepts over a descending grid from one set of
    moments, warm-starting each penalty from the previous solution."""
    q = mom.c.shape[0]
    coefs = np.empty((len(grid), q))
    w = np.zeros(q)
    for i, pen in enumerate(grid):
        coefs[i] = _descend(mom.G, mom.c, mom.yy, pen, w)
    return coefs, mom.y_mean - coefs @ mom.f_mean


def cv_select(
    features,
    target,
    k_folds: int = 10,
    penalty_grid=None,
    seed: int = 0,
    rule: str = "min",
    feature_names=None,
) -> LassoPath:
    """K-fold cross-validated LASSO path and penalty choice.

    The penalty minimizing CV MSE is chosen (``rule="min"``); ``rule="1se"``
    instead picks the largest penalty within one standard error of the
    minimum.  Fold assignment is a seeded permutation, so the result is
    deterministic given the seed.
    """
    F = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    n = F.shape[0]
    if k_folds < 2:
        raise ValueError("k_folds must be at least 2")
    if k_folds > n:
        raise ValueError(f"{k_folds} folds over {n} rows leaves folds smaller than 1 row")
    if rule not in ("min", "1se"):
        raise ValueError("rule must be 'min' or '1se'")
    full = _moments(F, y)
    if penalty_grid is None:
        grid = _penalty_grid(_penalty_max(full), GRID_POINTS, GRID_RATIO)
    else:
        grid = np.asarray(penalty_grid, dtype=np.float64)
        if np.any(np.diff(grid) > 0):
            raise ValueError("penalty_grid must be descending")

    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k_folds)

    fold_mse = np.empty((k_folds, len(grid)))
    for f, val_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        coefs, intercepts = _fit_path(_moments(F[mask], y[mask]), grid)
        preds = F[val_idx] @ coefs.T + intercepts[None, :]
        fold_mse[f] = ((preds - y[val_idx, None]) ** 2).mean(axis=0)

    cv_mse = fold_mse.mean(axis=0)
    cv_se = fold_mse.std(axis=0, ddof=1) / np.sqrt(k_folds)

    best = int(np.argmin(cv_mse))
    if rule == "1se":
        limit = cv_mse[best] + cv_se[best]
        chosen = next(i for i in range(len(grid)) if cv_mse[i] <= limit)
    else:
        chosen = best

    coefs, intercepts = _fit_path(full, grid)
    active = tuple(int(j) for j in np.flatnonzero(coefs[chosen]))
    return LassoPath(
        penalties=grid,
        coefs=coefs,
        intercepts=intercepts,
        cv_mse=cv_mse,
        cv_se=cv_se,
        chosen_index=chosen,
        chosen_penalty=float(grid[chosen]),
        active_set=active,
        feature_names=None if feature_names is None else tuple(feature_names),
        rule=rule,
    )


def spearman(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of midranked values."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("spearman undefined for input holding NaN")
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        raise ValueError("spearman undefined for zero-variance input")
    return float(np.corrcoef(ra, rb)[0, 1])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``a``, each tie group given the mean of its ranks; all
    NaN when ``a`` holds a NaN."""
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], a.size)  # tie group i holds ranks starts[i]+1 .. ends[i]
    ranks = np.empty(a.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks

"""LASSO feature selection with cross-validation, plus Spearman correlation.

The objective is (1/2n)||y - b0 - F w||^2 + penalty * ||w||_1; the intercept
is handled by centering and is never penalized.  It depends on the data only
through the centred moments G = Fc'Fc/n, c = Fc'yc/n and yy = yc'yc/n.

:func:`cv_select` reads each row once: it takes the count, means, centred
Gram matrix and column range of each fold's rows, and pools them (Chan,
Golub & LeVeque 1983, Am. Stat. 37(3)): the Gram matrices add, plus
n_g (m_g - m)(m_g - m)' for each part's mean m_g about the pooled mean m.
A training set pools a prefix of the folds with a suffix, so the k training
sets cost O(k d^2), and all folds pooled are the full data.  Nothing is
subtracted from a larger Gram matrix, so a column that is constant on the
training rows is found by its range and gets exactly zero moments.

A path over a descending grid (the full data and each training set) is
solved exactly, one affine segment per active set.  Given a support A with
signs s and a nonsingular G_AA, the only candidate at a penalty is the
solution of G_AA w_A = c_A - penalty s_A, which is u - penalty v for the one
solve G_AA [u v] = [c_A s_A] (Efron, Hastie, Johnstone & Tibshirani 2004,
Ann. Statist. 32(2)).  It is the LASSO solution when its signs are s and
every column j off A has |c_j - G_jA w_A| <= penalty (the KKT conditions;
Osborne, Presnell & Turlach 2000).  A segment checks every remaining grid
point at once and keeps the leading run that passes.  Where it ends, the
next segment is a guessed set: the members whose sign did not hold dropped,
and each violator added with the sign of its gradient.  Only when that
fails too does the point run cyclic coordinate descent from the previous
solution, followed by the same two tries on the support the descent found.

The descent is cyclic coordinate descent with soft-thresholding and the
covariance updates of Friedman, Hastie & Tibshirani (2010, JSS 33(1)), so
each coordinate step costs O(q) instead of O(n).  It carries g = c - G w,
which is Fc'r/n for the centred residual r, and after each change of w[j]
updates it with the row G[j].  :func:`lasso_fit` is the same path, walked
down to the one penalty it is asked for.
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


class _Part(NamedTuple):
    """Moments of some rows of (F, y), before scaling: pooled by :func:`_pool`."""

    n: int
    mean: np.ndarray  # (q + 1,) column means of F, then of y
    gram: np.ndarray  # (q + 1, q + 1) centred Gram matrix of [F, y], not divided by n
    lo: np.ndarray  # (q,) column minima of F
    hi: np.ndarray  # (q,) column maxima of F


class _Moments(NamedTuple):
    f_mean: np.ndarray  # (q,) column means of F
    y_mean: float
    G: np.ndarray  # (q, q) Fc'Fc / n
    c: np.ndarray  # (q,) Fc'yc / n
    yy: float  # yc'yc / n


def _part(F, y) -> _Part:
    """The moments of the rows (F, y), each row read once by ``sample_moments``."""
    mom = sample_moments(list(F.T) + [y])
    return _Part(mom.n, mom.mean, mom.gram, F.min(axis=0), F.max(axis=0))


def _pool(a: _Part | None, b: _Part | None) -> _Part | None:
    """The moments of the rows of both parts, either of which may be None
    for no rows (Chan, Golub & LeVeque 1983): the centred Gram matrices add,
    plus the spread of the two means about the pooled one.  Nothing is
    subtracted, so no cancellation enters, and a column constant on the rows
    of both keeps only a rounding-size Gram row, which :func:`_scaled`
    zeroes exactly."""
    if a is None or b is None:
        return b if a is None else a
    n = a.n + b.n
    delta = b.mean - a.mean
    return _Part(
        n=n,
        mean=a.mean + delta * (b.n / n),
        gram=a.gram + b.gram + np.outer(delta, delta * (a.n * b.n / n)),
        lo=np.minimum(a.lo, b.lo),
        hi=np.maximum(a.hi, b.hi),
    )


def _scaled(part: _Part) -> _Moments:
    """Column means and centred second moments divided by n.

    A constant column, one whose minimum equals its maximum, gets exactly
    zero moments: ``np.mean`` of a constant is often inexact, which would
    leave it a tiny centred variance and let the descent give it a
    coefficient at a penalty near 0.
    """
    q = part.lo.shape[0]
    scaled = part.gram / part.n
    constant = np.flatnonzero(part.lo == part.hi)
    scaled[constant, :] = 0.0
    scaled[:, constant] = 0.0
    return _Moments(
        f_mean=part.mean[:q],
        y_mean=float(part.mean[q]),
        G=scaled[:q, :q],
        c=scaled[:q, q],
        yy=float(scaled[q, q]),
    )


def _moments(F, y) -> _Moments:
    """Column means and centred second moments of (F, y), divided by n."""
    return _scaled(_part(F, y))


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


def _segment(G, c, penalties, signs):
    """The LASSO solutions on the support A and signs s of ``signs`` over
    the leading run of the descending ``penalties`` at which they hold, and
    the guessed signs for the first penalty at which they do not.

    One solve of G_AA [u v] = [c_A s_A] gives the candidate
    w_A = u - penalty v at every penalty.  A candidate holds when its signs
    are s and every gradient off A is at most the penalty in absolute
    value.  The guess drops the members whose sign did not hold and adds
    each violator with the sign of its gradient; it is None when the run
    covers every penalty, G_AA is singular or the gradient is not finite.

    Returns ``(coefs, guess)`` with ``coefs`` of shape (run, q).
    """
    active = signs.nonzero()[0]
    off = np.flatnonzero(signs == 0.0)
    try:
        uv = np.linalg.solve(G[np.ix_(active, active)], np.column_stack([c[active], signs[active]]))
    except np.linalg.LinAlgError:
        return np.empty((0, c.shape[0])), None
    w_active = uv[:, 0] - penalties[:, None] * uv[:, 1]
    grad = c - w_active @ G[active]
    finite = np.isfinite(grad).all(axis=1)
    flipped = np.sign(w_active) != signs[active]
    over = np.abs(grad[:, off]) > penalties[:, None]
    fails = ~finite | flipped.any(axis=1) | over.any(axis=1)
    run = int(fails.argmax()) if fails.any() else len(penalties)
    coefs = np.zeros((run, c.shape[0]))
    coefs[:, active] = w_active[:run]
    if run == len(penalties) or not finite[run]:
        return coefs, None
    guess = signs.copy()
    guess[active[flipped[run]]] = 0.0
    guess[off[over[run]]] = np.sign(grad[run, off[over[run]]])
    return coefs, guess


def _settle(G, c, penalties, signs):
    """:func:`_segment` on ``signs`` or, when they fail at the first
    penalty, on their guessed update."""
    coefs, guess = _segment(G, c, penalties, signs)
    if len(coefs) or guess is None:
        return coefs, guess
    return _segment(G, c, penalties, guess)


def _arrays(features, target):
    F = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if F.ndim != 2 or y.ndim != 1 or F.shape[0] != y.shape[0]:
        raise ValueError("features must be n x q and target length n")
    if F.shape[1] == 0:
        raise ValueError("features have no columns: there is nothing to select")
    return F, y


def penalty_max(features, target) -> float:
    """Smallest penalty at which every coefficient is exactly zero."""
    return _penalty_max(_moments(*_arrays(features, target)))


def _penalty_max(mom: _Moments) -> float:
    return float(np.max(np.abs(mom.c)))


def lasso_fit(features, target, penalty_weight: float):
    """The LASSO solution at one penalty, as the end point of the exact path.

    Computes the centred moments of (features, target) once and solves on
    them (see the module docstring): the solution is the last point of
    :func:`_fit_path` over the default grid's points above the penalty
    followed by the penalty itself.  Warm starts along a path are what
    keeps the descent fallback short at small penalties (Friedman, Hastie,
    Hoefling & Tibshirani 2007, Ann. Appl. Stat. 1(2)); a cold descent
    there can need more than ``MAX_SWEEPS`` sweeps.  A penalty of 0 is a
    valid end point, and one at or above :func:`penalty_max` gives all-zero
    coefficients.

    Parameters
    ----------
    features : (n, q) array
    target : (n,) array
    penalty_weight : float, finite and >= 0

    Returns
    -------
    (coefficients, intercept)

    Raises
    ------
    ValueError
        If the inputs are malformed.
    ConvergenceError
        If a fallback descent on the path still moves a coefficient by more
        than 1e-7 after 10^4 sweeps.
    """
    F, y = _arrays(features, target)
    pen = float(penalty_weight)
    if not np.isfinite(pen):
        raise ValueError("penalty_weight must be finite")
    if pen < 0:
        raise ValueError("penalty_weight must be nonnegative")
    mom = _moments(F, y)
    pmax = _penalty_max(mom)
    if pen >= pmax:
        w = np.zeros(F.shape[1])
    else:
        grid = _penalty_grid(pmax)
        w = _fit_path(mom, np.append(grid[grid > pen], pen))[0][-1]
    return w, float(mom.y_mean - mom.f_mean @ w)


def _penalty_grid(pmax: float):
    """The default grid: ``GRID_POINTS`` log-spaced penalties from ``pmax``
    down to ``GRID_RATIO * pmax``."""
    if pmax == 0.0:
        raise ValueError("target is uncorrelated with every feature; empty grid")
    return np.geomspace(pmax, GRID_RATIO * pmax, GRID_POINTS)


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


def _fit_path(mom: _Moments, grid):
    """Coefficients and intercepts over a descending grid from one set of
    moments, one affine segment per support and signs (module docstring).

    Each point first tries the support and signs of the previous point's
    solution, then their guessed update; along a segment the first try
    holds, and where it ends its guess is already known.  When both fail,
    the point descends from the previous solution and tries the same two on
    the support the descent found, keeping the descent's solution when
    neither holds.
    """
    G, c = mom.G, mom.c
    m, q = len(grid), c.shape[0]
    coefs = np.empty((m, q))
    i = 0
    held, guess = _settle(G, c, grid, np.zeros(q))
    while True:
        if not len(held):  # the set in use and its guess both fail at grid[i]
            w = coefs[i - 1].copy() if i else np.zeros(q)
            _descend(G, c, mom.yy, grid[i], w)
            held, guess = _settle(G, c, grid[i:], np.sign(w))
        if len(held):
            coefs[i : i + len(held)] = held
            i += len(held)
            if i == m:
                break
            held, guess = (held[:0], None) if guess is None else _segment(G, c, grid[i:], guess)
        else:  # no exact solution on the descent's support either
            coefs[i] = w
            i += 1
            if i == m:
                break
            held, guess = _settle(G, c, grid[i:], np.sign(w))
    return coefs, mom.y_mean - coefs @ mom.f_mean


def cv_select(
    features,
    target,
    k_folds: int = 10,
    seed: int = 0,
    rule: str = "min",
    feature_names=None,
) -> LassoPath:
    """K-fold cross-validated LASSO path and penalty choice over the default
    grid: ``GRID_POINTS`` log-spaced penalties from :func:`penalty_max` of
    the full data down to ``GRID_RATIO`` times it.

    The penalty minimizing CV MSE is chosen (``rule="min"``); ``rule="1se"``
    instead picks the largest penalty within one standard error of the
    minimum.  Fold assignment is a seeded permutation, so the result is
    deterministic given the seed.
    """
    F, y = _arrays(features, target)
    n = F.shape[0]
    if k_folds < 2:
        raise ValueError("k_folds must be at least 2")
    if k_folds > n:
        raise ValueError(f"{k_folds} folds over {n} rows leaves folds smaller than 1 row")
    if rule not in ("min", "1se"):
        raise ValueError("rule must be 'min' or '1se'")
    names = None if feature_names is None else tuple(feature_names)
    if names is not None and len(names) != F.shape[1]:
        raise ValueError(f"{len(names)} feature_names for {F.shape[1]} features")

    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k_folds)
    # Each fold's rows are read once; the training moments of fold f pool
    # the folds before f with the folds after it, and all k give the full data.
    parts = [_part(F[val_idx], y[val_idx]) for val_idx in folds]
    before = [None]
    for part in parts[:-1]:
        before.append(_pool(before[-1], part))
    after = [None]
    for part in parts[:0:-1]:
        after.append(_pool(part, after[-1]))
    after.reverse()
    full = _scaled(_pool(before[-1], parts[-1]))

    grid = _penalty_grid(_penalty_max(full))

    fold_mse = np.empty((k_folds, len(grid)))
    for f, val_idx in enumerate(folds):
        coefs, intercepts = _fit_path(_scaled(_pool(before[f], after[f])), grid)
        resid = F[val_idx] @ coefs.T
        resid -= y[val_idx, None]
        resid += intercepts
        fold_mse[f] = np.einsum("ij,ij->j", resid, resid) / len(val_idx)

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
        feature_names=names,
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
    """Ranks 1..n of ``a``, which holds no NaN, each tie group given the
    mean of its ranks."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], a.size)  # tie group i holds ranks starts[i]+1 .. ends[i]
    ranks = np.empty(a.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(first) - 1]
    return ranks

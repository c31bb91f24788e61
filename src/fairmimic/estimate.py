"""Maximum-likelihood estimation, observed information, and LR tests."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .exceptions import NotPositiveDefiniteError
from .model import (
    MimicModel,
    _layout,
    _loglik,
    _pack_fields,
    _stack_layout,
    data_moments,
    pack,
    param_names,
    to_json,
    unpack,
)

# A fit is declared converged when the Euclidean gradient norm at the
# returned point is below this, independent of why the optimizer stopped.
CONVERGED_GRAD_NORM = 1e-5

# observed_information warns when the gradient norm at its point is at
# least this: the information is then not taken at a stationary point.
STATIONARY_GRAD_NORM = 1e-3

WALD_Z = 1.96  # two-sided 95%

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class OptimOptions:
    """Trust-region Newton optimizer settings.

    The optimizer stops when the gradient 2-norm falls below ``grad_tol``,
    after ``max_iter`` accepted Newton iterates, or when no step within the
    trust radius improves the log-likelihood.  ``init="auto"`` computes
    deterministic, scale-aware starting values from the data;
    ``init="model"`` starts from the parameter values of the spec model
    (used e.g. to refit from a previous optimum).
    """

    max_iter: int = 500
    grad_tol: float = 1e-6
    init: str = "auto"

    def __post_init__(self):
        if self.init not in ("auto", "model"):
            raise ValueError("init must be 'auto' or 'model'")


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics at the likelihood optimum."""

    model: MimicModel
    loglik: float
    std_errors: np.ndarray
    vcov: np.ndarray
    param_names: tuple
    n_iter: int
    converged: bool
    grad_norm: float
    n_obs: int
    data_fingerprint: str

    SCHEMA_VERSION = 1

    def se(self, name: str) -> float:
        """Standard error of a named free parameter."""
        try:
            return float(self.std_errors[self.param_names.index(name)])
        except ValueError:
            raise KeyError(f"no free parameter named {name!r}") from None

    def estimate(self, name: str) -> float:
        return float(pack(self.model)[self.param_names.index(name)])

    def wald_ci(self, name: str):
        est, se = self.estimate(name), self.se(name)
        return est - WALD_Z * se, est + WALD_Z * se

    def to_dict(self) -> dict:
        """The fields, plus the packed ``estimates`` in ``param_names`` order."""
        return {**to_json(self), "estimates": pack(self.model).tolist()}


@dataclass(frozen=True)
class LrTestResult:
    """Likelihood-ratio test of nested fits against chi-square."""

    statistic: float
    df: int
    p_value: float

    @classmethod
    def from_statistic(cls, statistic: float, df: int) -> "LrTestResult":
        """The test of ``statistic`` against chi-square with ``df`` degrees
        of freedom; a small negative statistic (float noise in two nearly
        equal log-likelihoods) counts as 0, a non-finite one raises."""
        if not math.isfinite(statistic):
            raise ValueError(f"LR statistic must be finite, got {statistic}")
        statistic = max(0.0, float(statistic))
        if df < 0:
            raise ValueError("df must be nonnegative")
        # df == 0 means the models coincide; the test is vacuous.
        p = 1.0 if df == 0 else float(chdtrc(df, statistic))
        return cls(statistic=statistic, df=df, p_value=p)


def _start_values(spec: MimicModel, mom) -> np.ndarray:
    """Deterministic scale-aware starting point.

    Indicator means seed the intercepts, half the indicator variances seed
    the residual variances, half the first indicator's variance seeds the
    latent variance, and a least-squares regression of the first indicator
    on the covariates seeds the structural coefficients.  Loadings start at
    1, gamma and all free deltas at 0.
    """
    p, q = spec.n_indicators, spec.n_covariates
    var = np.diag(mom.gram)[q + 1 :] / (mom.n - 1)
    beta, *_ = np.linalg.lstsq(mom.gram[:q, :q], mom.gram[:q, q + 1], rcond=None)
    start = dict(
        loadings=np.ones(p),
        intercepts=mom.mean[q + 1 :],
        struct_coefs=beta,
        sens_coef=0.0,
        dif_offsets=np.zeros(p),
        resid_vars=var / 2.0,
        latent_var=float(var[0]) / 2.0,
    )
    return _pack_fields(_layout(spec)[0], start)


def fit(spec: MimicModel, data, options: OptimOptions | None = None, callback=None) -> FitResult:
    """Maximize the model log-likelihood by trust-region Newton steps on the
    exact Hessian.

    Each step maximizes the exact quadratic model within a trust radius
    (:func:`_trust_step`): shifted where the Hessian is indefinite, as it
    often is at the starting values, and plain Newton near the optimum.  A
    step is accepted only if it raises the log-likelihood, or, because the
    summed log-likelihood runs out of float resolution before the gradient
    does, lowers it by at most ``1e-12 * |ll|`` while the gradient norm
    falls.  The radius follows the ratio of actual to predicted gain.

    The data enter once, through their sample moments; a caller that fits
    several specs with the same columns to one dataset can build those once
    with :func:`~fairmimic.model.data_moments` and pass them as ``data``.
    Specs that also share their number of free parameters can be fitted in
    one stacked solve by :func:`fit_stack`; ``fit`` is its stack of one.

    Deterministic given (spec, data, options): starting values are fixed
    functions of the data, the optimizer uses no randomness, and the
    sensitive effect gamma is always estimated freely.  Non-convergence does
    not raise; it is reported through ``converged=False``.  The standard
    errors and ``vcov`` come from the solver's eigendecomposition of the
    information -H at the returned point; they are all NaN, with a warning,
    unless -H is positive definite with condition number below 1e12.

    Parameters
    ----------
    spec : MimicModel
        Structural template; its free_mask decides which dif offsets are
        estimated.
    data : Dataset or SampleMoments
        The dataset, or its moments from ``data_moments`` for a spec with
        the same covariates and indicators as ``spec``.  Its sensitive
        coding must equal the spec's.
    options : OptimOptions, optional
    callback : callable, optional
        Invoked with the packed parameter vector after every accepted
        iterate; ``n_iter`` of the result counts these calls.
    """
    return fit_stack((spec,), data, options, callback)[0]


def fit_stack(specs, data, options: OptimOptions | None = None, callback=None) -> tuple:
    """Fit several specs to one dataset in one stacked Newton solve.

    The specs share their covariates, indicators, sensitive coding and
    number of free parameters, and may differ in which dif offsets are
    free, as the nested specs of a DIF scan do.  Every member runs the
    iteration :func:`fit` describes on its own: its own iterate, trust
    radius, acceptance and stopping; only the evaluations of the members
    still running are batched into one call.  A trial point outside the
    model rejects that member's step only.  Returns one :class:`FitResult`
    per spec, in order, each equal to ``fit(spec, data, options)``;
    ``callback`` is invoked with a member's packed vector after each of its
    accepted iterates.
    """
    options = options or OptimOptions()
    specs = tuple(specs)
    if not specs:
        raise ValueError("fit_stack needs at least one spec")
    k = _stack_layout(specs)[1]  # the specs share their names and length
    mom = data
    for s in specs:  # the moments are built for the first spec and checked against each
        mom = data_moments(s, mom)
    spec, q = specs[0], specs[0].n_covariates
    if mom.n < k:
        raise ValueError(f"need at least {k} rows to estimate {k} free parameters, got {mom.n}")
    var = np.diag(mom.gram)[q + 1 :]
    if np.any(var == 0.0):
        j = int(np.argmin(var))
        raise ValueError(f"indicator {spec.indicator_names[j]!r} is constant")
    if mom.gram[q, q] == 0.0:
        raise ValueError(
            f"sensitive column {mom.columns[q]!r} holds one group only; "
            "its effect gamma is not identified"
        )

    start = pack if options.init == "model" else (lambda s: _start_values(s, mom))
    x = np.array([start(s) for s in specs])
    ll, grad, hess = _loglik(x, specs, mom, order=2)
    ll = ll.tolist()
    w, v = np.linalg.eigh(-hess)
    norm = _norms(grad)
    radius, n_iter = [1.0] * len(specs), [0] * len(specs)
    live = list(range(len(specs)))  # the members still running
    while True:
        live = [i for i in live if n_iter[i] < options.max_iter and norm[i] >= options.grad_tol]
        if not live:
            break
        rows = live if len(live) < len(specs) else slice(None)
        step, predicted = _trust_step(grad[rows], w[rows], v[rows], np.array([radius[i] for i in live]))
        trial = x[rows] + step
        ll_try, grad_try, hess_try = _trial_loglik(trial, [specs[i] for i in live], mom)
        norm_try, length = _norms(grad_try), _norms(step)
        accepted = []
        for j, i in enumerate(live):
            if ll_try[j] > ll[i] or (ll_try[j] >= ll[i] - 1e-12 * abs(ll[i]) and norm_try[j] < norm[i]):
                ratio = (ll_try[j] - ll[i]) / predicted[j]
                ll[i], norm[i] = ll_try[j], norm_try[j]
                n_iter[i] += 1
                accepted.append(j)
            else:
                ratio = -np.inf
            if ratio < 0.25:
                radius[i] = 0.25 * length[j]
            elif ratio > 0.75 and length[j] > 0.99 * radius[i]:
                radius[i] *= 2.0
        if accepted:
            every = len(accepted) == len(live)
            took, moved = (slice(None), rows) if every else (accepted, [live[j] for j in accepted])
            x[moved], grad[moved] = trial[took], grad_try[took]
            w[moved], v[moved] = np.linalg.eigh(-hess_try[took])
            if callback is not None:
                for j in accepted:
                    callback(trial[j].copy())
        # a member stops when no step the floats can represent improves
        size = _norms(x[rows])
        live = [i for i, s in zip(live, size) if radius[i] > _EPS * (1.0 + s)]
    return tuple(_result(*a, mom) for a in zip(specs, x, ll, norm, w, v, n_iter))


def _norms(a) -> list:
    """The 2-norms of the rows of ``a``."""
    return np.sqrt((a * a).sum(1)).tolist()


def _trial_loglik(x, specs, mom):
    """The order-2 log-likelihood of a stack at trial points, the values as
    a list.  A member whose point lies outside the model gets log-likelihood
    -inf (a rejected step); when one does, the members are evaluated one at
    a time to find it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            ll, grad, hess = _loglik(x, specs, mom, order=2)
            return ll.tolist(), grad, hess
    except (FloatingPointError, NotPositiveDefiniteError):
        if len(specs) == 1:
            k = x.shape[1]
            return [-np.inf], np.full((1, k), np.nan), np.full((1, k, k), np.nan)
    ll, grad, hess = zip(*(_trial_loglik(x[i : i + 1], specs[i : i + 1], mom) for i in range(len(specs))))
    return sum(ll, []), np.concatenate(grad), np.concatenate(hess)


def _result(spec, x, ll, grad_norm, w, v, n_iter, mom) -> FitResult:
    """The FitResult of one member at its returned point, with the SEs from
    its eigendecomposition ``w, v`` of the information -H."""
    if w[0] > 1e-12 * w[-1]:  # -H positive definite, condition number below 1e12
        root = v / np.sqrt(w)
        vcov = root @ root.T
        std_errors = np.sqrt(np.diag(vcov))
    else:
        warnings.warn(
            f"observed information has eigenvalues from {w[0]:.3g} to {w[-1]:.3g}: "
            "not a well-identified maximum, standard errors set to NaN"
        )
        vcov = np.full(v.shape, np.nan)
        std_errors = np.full(len(w), np.nan)
    return FitResult(
        model=unpack(spec, x),
        loglik=float(ll),
        std_errors=std_errors,
        vcov=vcov,
        param_names=param_names(spec),
        n_iter=n_iter,
        converged=grad_norm < CONVERGED_GRAD_NORM,
        grad_norm=grad_norm,
        n_obs=mom.n,
        data_fingerprint=mom.fingerprint,
    )


def _trust_step(grad, w, v, radius):
    """Steps ``s`` maximizing ``grad @ s - s @ info @ s / 2`` subject to
    ``|s| <= radius``, and the list of gains that quadratic model predicts,
    given the eigendecomposition ``info = v @ diag(w) @ v.T`` (``w``
    ascending); every argument and the steps carry a leading member axis.

    The solution is ``s = (info + lam I)^-1 grad`` with the smallest shift
    ``lam >= 0`` that makes ``info + lam I`` positive semidefinite and the
    step fit the radius (Moré & Sorensen 1983); ``lam = 0`` is the Newton
    step.  On the eigenbasis of ``info`` the step length is explicit in
    ``lam``, and Newton's method on ``1 / |s(lam)| = 1 / radius``, started
    below the root, increases monotonically to it because that function is
    concave; each member iterates until its own step fits.  When the
    gradient has no component along the most negative curvature (the hard
    case), the step at the smallest shift is extended along that direction
    to the radius.
    """
    a = (grad[:, None, :] @ v)[:, 0]  # v.T @ grad, member by member
    # A lower bound on the shift: below -w[0] the matrix is indefinite, and
    # below |a_i| / radius - w_i component i alone exceeds the radius.  It is
    # 0 when the Newton step fits.
    lam = np.maximum(np.maximum((np.abs(a) / radius[:, None] - w).max(1), -w[:, 0]), 0.0)
    floor = w.shape[1] * _EPS * np.abs(w).max(1, keepdims=True)  # eigenvalue resolution
    top = radius * (1.0 + 1e-6)
    for _ in range(50):
        # A component whose shifted curvature is below the resolution
        # carries no gradient the floats can resolve; it is left out.
        d = w + lam[:, None]
        live = d > floor
        d = np.where(live, d, np.inf)
        coef = a / d
        square = coef * coef
        length = np.sqrt(square.sum(1))
        long = length > top
        if not long.any():
            break
        # Only a member whose step is still too long moves its shift; one
        # whose step fits keeps it, and so its step.
        curve = np.where(long, (square / d).sum(1), 1.0)
        lam = np.where(long, lam + (length * length / curve) * (length - radius) / radius, lam)
    over = length > radius  # the root lies within float resolution of lam
    if over.any():
        coef[over] *= (radius[over] / length[over])[:, None]
    if not live[:, 0].all():
        hard = (length < radius) & (lam > 0.0) & ~live[:, 0]  # the hard case
        coef[hard, 0] = np.sqrt(radius[hard] * radius[hard] - length[hard] * length[hard])
    predicted = np.einsum("ij,ij->i", a - 0.5 * w * coef, coef)
    return (v @ coef[:, :, None])[:, :, 0], predicted.tolist()


def observed_information(model: MimicModel, data) -> np.ndarray:
    """Negative exact Hessian of the log-likelihood at ``model``, in the
    packed parameters.

    Warns when the gradient norm suggests the model is not at a stationary
    point.
    """
    _, g, hess = _loglik(pack(model), model, data_moments(model, data), order=2)
    if np.linalg.norm(g) >= STATIONARY_GRAD_NORM:
        warnings.warn(
            f"observed_information evaluated away from a stationary point "
            f"(gradient norm {np.linalg.norm(g):.3g})"
        )
    return -hess


def lr_test(full: FitResult, nested: FitResult) -> LrTestResult:
    """Likelihood-ratio test of ``nested`` against ``full``.

    Both fits must come from the same data (checked by fingerprint) and the
    nested model's free parameters must be a subset of the full model's.
    """
    if full.data_fingerprint != nested.data_fingerprint:
        raise ValueError("fits were computed on different datasets")
    full_names = set(full.param_names)
    nested_names = set(nested.param_names)
    if not nested_names <= full_names:
        extra = sorted(nested_names - full_names)
        raise ValueError(f"models are not nested; nested-only parameters: {extra}")
    df = len(full_names) - len(nested_names)
    return LrTestResult.from_statistic(2.0 * (full.loglik - nested.loglik), df)

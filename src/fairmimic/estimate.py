"""Maximum-likelihood estimation, observed information, and LR tests."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .exceptions import NotPositiveDefiniteError, SingularInformationError
from .model import (
    MimicModel,
    SampleMoments,
    _loglik,
    _moments_of,
    data_moments,
    n_free_params,
    pack,
    param_names,
    to_json,
    unpack,
)

# A fit is declared converged when the Euclidean gradient norm at the
# returned point is below this, independent of why the optimizer stopped.
CONVERGED_GRAD_NORM = 1e-5

WALD_Z = 1.96  # two-sided 95%


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
    start = spec.with_values(
        loadings=np.ones(p),
        intercepts=mom.mean[q + 1 :],
        struct_coefs=beta,
        sens_coef=0.0,
        dif_offsets=np.zeros(p),
        resid_vars=var / 2.0,
        latent_var=float(var[0]) / 2.0,
    )
    return pack(start)


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

    Deterministic given (spec, data, options): starting values are fixed
    functions of the data, the optimizer uses no randomness, and the
    sensitive effect gamma is always estimated freely.  Non-convergence does
    not raise; it is reported through ``converged=False``.

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
    options = options or OptimOptions()
    mom = data if isinstance(data, SampleMoments) else data_moments(spec, data)
    q = spec.n_covariates
    columns = mom.columns or ()
    if columns[:q] != spec.covariate_names or columns[q + 1 :] != spec.indicator_names:
        raise ValueError(
            "sample moments must come from data_moments for the spec's covariates "
            f"{spec.covariate_names} and indicators {spec.indicator_names}; got columns {mom.columns}"
        )
    if mom.coding != spec.sensitive_coding:
        raise ValueError(
            f"the spec codes the sensitive levels as {spec.sensitive_coding}, "
            f"the data as {mom.coding}"
        )
    n = mom.n
    k = n_free_params(spec)
    if n < k:
        raise ValueError(f"need at least {k} rows to estimate {k} free parameters, got {n}")
    var = np.diag(mom.gram)[q + 1 :]
    if np.any(var == 0.0):
        j = int(np.argmin(var))
        raise ValueError(f"indicator {spec.indicator_names[j]!r} is constant")
    if mom.gram[q, q] == 0.0:
        raise ValueError(
            f"sensitive column {columns[q]!r} holds one group only; "
            "its effect gamma is not identified"
        )

    x = pack(spec) if options.init == "model" else _start_values(spec, mom)
    ll, grad, hess = _loglik(x, spec, mom, order=2)
    radius, n_iter = 1.0, 0
    while n_iter < options.max_iter and np.linalg.norm(grad) >= options.grad_tol:
        step, predicted = _trust_step(grad, -hess, radius)
        try:
            with np.errstate(over="raise", invalid="raise"):
                ll_try, grad_try, hess_try = _loglik(x + step, spec, mom, order=2)
        except (FloatingPointError, NotPositiveDefiniteError):
            ll_try = -np.inf  # a trial point outside the model is a rejected step
        length = float(np.linalg.norm(step))
        if ll_try > ll or (
            ll_try >= ll - 1e-12 * abs(ll) and np.linalg.norm(grad_try) < np.linalg.norm(grad)
        ):
            ratio = (ll_try - ll) / predicted
            x, ll, grad, hess = x + step, ll_try, grad_try, hess_try
            n_iter += 1
            if callback is not None:
                callback(x)
        else:
            ratio = -np.inf
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length > 0.99 * radius:
            radius *= 2.0
        if not radius > np.finfo(float).eps * (1.0 + np.linalg.norm(x)):
            break  # no step the floats can represent improves
    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm < CONVERGED_GRAD_NORM

    try:
        vcov = _invert_information(-hess)
        diag = np.diag(vcov).copy()
        bad = diag < 0
        if bad.any():
            warnings.warn("negative variance estimates in vcov; SEs set to NaN")
            diag[bad] = np.nan
        std_errors = np.sqrt(diag)
    except SingularInformationError:
        warnings.warn("observed information is singular; standard errors unavailable")
        vcov = np.full((k, k), np.nan)
        std_errors = np.full(k, np.nan)

    return FitResult(
        model=unpack(spec, x),
        loglik=float(ll),
        std_errors=std_errors,
        vcov=vcov,
        param_names=param_names(spec),
        n_iter=n_iter,
        converged=converged,
        grad_norm=grad_norm,
        n_obs=n,
        data_fingerprint=mom.fingerprint,
    )


def _trust_step(grad, info, radius):
    """Step ``s`` maximizing ``grad @ s - s @ info @ s / 2`` subject to
    ``|s| <= radius``, and the gain that quadratic model predicts.

    The solution is ``s = (info + lam I)^-1 grad`` with the smallest shift
    ``lam >= 0`` that makes ``info + lam I`` positive semidefinite and the
    step fit the radius (Moré & Sorensen 1983); ``lam = 0`` is the Newton
    step.  On the eigenbasis of ``info`` the step length is explicit in
    ``lam``, and Newton's method on ``1 / |s(lam)| = 1 / radius``, started
    below the root, increases monotonically to it because that function is
    concave.  When the gradient has no component along the most negative
    curvature (the hard case), the step at the smallest shift is extended
    along that direction to the radius.
    """
    w, v = np.linalg.eigh(info)
    a = v.T @ grad
    # A lower bound on the shift: below -w[0] the matrix is indefinite, and
    # below |a_i| / radius - w_i component i alone exceeds the radius.  It is
    # 0 when the Newton step fits.
    lam = max(0.0, -w[0], float(np.max(np.abs(a) / radius - w)))
    floor = len(w) * np.finfo(float).eps * np.abs(w).max()  # eigenvalue resolution
    for _ in range(50):
        # A component whose shifted curvature is below the resolution
        # carries no gradient the floats can resolve; it is left out.
        d = w + lam
        live = d > floor
        coef = np.divide(a, d, out=np.zeros_like(a), where=live)
        length = np.linalg.norm(coef)
        if length <= radius * (1.0 + 1e-6):
            break
        curve = coef @ np.divide(coef, d, out=np.zeros_like(a), where=live)
        lam += (length * length / curve) * (length - radius) / radius
    if length > radius:  # the root lies within float resolution of lam
        coef *= radius / length
    elif length < radius and lam > 0.0 and not live[0]:  # hard case
        coef[0] = np.sqrt(radius * radius - length * length)
    predicted = float(a @ coef - 0.5 * (w * coef) @ coef)
    return v @ coef, predicted


def observed_information(model: MimicModel, data, _warn_threshold: float = 1e-3) -> np.ndarray:
    """Negative exact Hessian of the log-likelihood at ``model``, in the
    packed parameters.

    Warns when the gradient norm suggests the model is not at a stationary
    point.
    """
    _, g, hess = _loglik(pack(model), model, _moments_of(model, data), order=2)
    if np.linalg.norm(g) >= _warn_threshold:
        warnings.warn(
            f"observed_information evaluated away from a stationary point "
            f"(gradient norm {np.linalg.norm(g):.3g})"
        )
    return -hess


def _invert_information(info: np.ndarray) -> np.ndarray:
    try:
        vcov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularInformationError(
            "observed information matrix is singular (model not identified?)"
        ) from None
    if not np.all(np.isfinite(vcov)) or np.linalg.cond(info) > 1e12:
        raise SingularInformationError(
            "observed information matrix is numerically singular "
            "(model not identified?)"
        )
    return 0.5 * (vcov + vcov.T)


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

"""Maximum-likelihood estimation, observed information, and LR tests."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import chi2

from .exceptions import NotPositiveDefiniteError, SingularInformationError
from .model import MimicModel, _loglik, data_moments, n_free_params, pack, param_names, unpack

# A fit is declared converged when the Euclidean gradient norm at the
# returned point is below this, independent of why the optimizer stopped.
CONVERGED_GRAD_NORM = 1e-5

WALD_Z = 1.96  # two-sided 95%


@dataclass(frozen=True)
class OptimOptions:
    """Quasi-Newton optimizer settings.

    The optimizer stops on ``grad_tol`` (gradient 2-norm) or when the
    objective stagnates; ``rel_obj_tol`` is the relative objective change
    treated as stagnation noise.  ``init="auto"`` computes deterministic,
    scale-aware starting values from the data; ``init="model"`` starts from
    the parameter values of the spec model (used e.g. to refit from a
    previous optimum).
    """

    max_iter: int = 500
    grad_tol: float = 1e-6
    rel_obj_tol: float = 1e-10
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
        return {
            "schema_version": 1,
            "model": self.model.to_dict(),
            "loglik": self.loglik,
            "param_names": list(self.param_names),
            "estimates": [float(v) for v in pack(self.model)],
            "std_errors": [float(v) for v in self.std_errors],
            "vcov": [[float(v) for v in row] for row in self.vcov],
            "n_iter": self.n_iter,
            "converged": self.converged,
            "grad_norm": self.grad_norm,
            "n_obs": self.n_obs,
            "data_fingerprint": self.data_fingerprint,
        }


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
        p = 1.0 if df == 0 else float(chi2.sf(statistic, df))
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
    """Maximize the model log-likelihood by BFGS with the analytic gradient,
    then polish with Newton steps on the exact Hessian.

    The data enter once, through their sample moments.  Deterministic given
    (spec, data, options): starting values are fixed functions of the data,
    the optimizer uses no randomness, and the sensitive effect gamma is
    always estimated freely.  Non-convergence does not raise; it is reported
    through ``converged=False``.

    Parameters
    ----------
    spec : MimicModel
        Structural template; its free_mask decides which dif offsets are
        estimated.
    data : Dataset
    options : OptimOptions, optional
    callback : callable, optional
        Invoked with the packed parameter vector after every accepted
        optimizer iterate.
    """
    options = options or OptimOptions()
    mom = data_moments(spec, data)
    n = mom.n
    k = n_free_params(spec)
    if n < k:
        raise ValueError(f"need at least {k} rows to estimate {k} free parameters, got {n}")
    var = np.diag(mom.gram)[spec.n_covariates + 1 :]
    if np.any(var == 0.0):
        j = int(np.argmin(var))
        raise ValueError(f"indicator {spec.indicator_names[j]!r} is constant")
    if mom.gram[spec.n_covariates, spec.n_covariates] == 0.0:
        raise ValueError(
            f"sensitive column {data.sensitive_name!r} holds one group only; "
            "its effect gamma is not identified"
        )

    x0 = pack(spec) if options.init == "model" else _start_values(spec, mom)

    def objective(x):
        try:
            with np.errstate(over="raise", invalid="raise"):
                ll, grad = _loglik(x, spec, mom, order=1)
        except (FloatingPointError, NotPositiveDefiniteError):
            return np.inf, np.zeros_like(x)
        if not np.isfinite(ll):
            return np.inf, np.zeros_like(x)
        return -ll, -grad

    with warnings.catch_warnings():
        # BFGS warns about line-search precision loss near flat optima; the
        # post-hoc gradient-norm check below is the convergence authority.
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            objective,
            x0,
            jac=True,
            method="BFGS",
            callback=callback,
            options={"gtol": options.grad_tol, "maxiter": options.max_iter},
        )

    # The summed log-likelihood is large in absolute value, so the line
    # search runs out of float resolution with the gradient still around
    # n * eps.  Newton steps on the exact Hessian (the gradient stays
    # accurate far below that) push the gradient norm to the requested
    # tolerance.  Skipped when the iteration budget is already exhausted.
    if res.nit < options.max_iter:
        x_hat, ll_hat, grad_hat, hess, n_polish = _newton_polish(res.x, spec, mom, options, callback)
    else:
        x_hat = res.x
        ll_hat, grad_hat, hess = _loglik(x_hat, spec, mom, order=2)
        n_polish = 0
    grad_norm = float(np.linalg.norm(grad_hat))
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
        model=unpack(spec, x_hat),
        loglik=float(ll_hat),
        std_errors=std_errors,
        vcov=vcov,
        param_names=param_names(spec),
        n_iter=int(res.nit) + n_polish,
        converged=converged,
        grad_norm=grad_norm,
        n_obs=n,
        data_fingerprint=data.fingerprint(),
    )


def _newton_polish(x, spec, mom, options, callback, max_steps: int = 15):
    """Drive the gradient norm below options.grad_tol with damped Newton
    steps on the exact Hessian.

    A step is accepted only if it shrinks the gradient norm and does not
    decrease the log-likelihood by more than rel_obj_tol in relative terms
    (objective changes below that are float-resolution noise here), so
    accepted iterates remain monotone in the likelihood up to that slack.
    Stops on the gradient tolerance or when no damped step helps, the
    latter being the objective-stagnation stop.  Returns the point with its
    log-likelihood, gradient and Hessian, and the number of steps taken.
    """
    ll, g, hess = _loglik(x, spec, mom, order=2)
    steps = 0
    while steps < max_steps and np.linalg.norm(g) >= options.grad_tol:
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        for _ in range(8):  # halve until the step helps
            try:
                ll_try, g_try, hess_try = _loglik(x + step, spec, mom, order=2)
            except NotPositiveDefiniteError:
                step = 0.5 * step
                continue
            if (
                np.isfinite(ll_try)
                and np.linalg.norm(g_try) < np.linalg.norm(g)
                and ll_try >= ll - options.rel_obj_tol * abs(ll)
            ):
                break
            step = 0.5 * step
        else:
            break
        x, ll, g, hess = x + step, ll_try, g_try, hess_try
        steps += 1
        if callback is not None:
            callback(x)
    return x, ll, g, hess, steps


def observed_information(model: MimicModel, data, _warn_threshold: float = 1e-3) -> np.ndarray:
    """Negative exact Hessian of the log-likelihood at ``model``, in the
    packed parameters.

    Warns when the gradient norm suggests the model is not at a stationary
    point.
    """
    _, g, hess = _loglik(pack(model), model, data_moments(model, data), order=2)
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

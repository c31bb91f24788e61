"""Maximum-likelihood estimation, observed information, and LR tests."""

from __future__ import annotations

import math
import numbers
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import chi2_sf
from .model import (
    MimicModel,
    _loglik,
    _pack_fields,
    _residual_moments,
    _Stack,
    _structure,
    data_moments,
    pack,
    param_names,
    to_json,
    unpack,
)

# observed_information warns when the gradient norm at its point is at
# least this: the information is then not taken at a stationary point.
STATIONARY_GRAD_NORM = 1e-3

WALD_Z = 1.96  # two-sided 95%

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class OptimOptions:
    """Trust-region Newton optimizer settings.

    The optimizer stops when the gradient 2-norm falls below ``grad_tol``
    (convergence; finite, > 0), after ``max_iter`` accepted Newton iterates
    (an integer >= 0), or when no step within the trust radius improves the
    log-likelihood.  The default 1e-8 lets a fit that has reached the
    quadratic phase of Newton's method take its last step, so two fits
    whose gradients differ only in scale (the same rows once and twice)
    stop at the same point.  The smallest gradient norm the floats allow
    grows about linearly in n, to about 1e-9 at a million rows, so a fit
    of well over ten million rows may need a looser ``grad_tol``.
    ``init="auto"`` starts from the moment estimate of
    :func:`_start_values`; ``init="model"`` starts from the parameter values
    of the spec model (used e.g. to refit from a previous optimum).
    """

    max_iter: int = 500
    grad_tol: float = 1e-8
    init: str = "auto"

    def __post_init__(self):
        if not (isinstance(self.grad_tol, numbers.Real) and 0 < self.grad_tol < math.inf):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError(f"max_iter must be a nonnegative integer, got {self.max_iter!r}")
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

    def _position(self, name: str) -> int:
        """Index of a free parameter in ``param_names``; KeyError for no such name."""
        if name not in self.param_names:
            raise KeyError(f"no free parameter named {name!r}")
        return self.param_names.index(name)

    def se(self, name: str) -> float:
        """Standard error of a named free parameter."""
        return float(self.std_errors[self._position(name)])

    def estimate(self, name: str) -> float:
        return float(pack(self.model)[self._position(name)])

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
        equal log-likelihoods) counts as 0, a non-finite one raises, and so
        does a ``df`` that is not a nonnegative integer."""
        if not math.isfinite(statistic):
            raise ValueError(f"LR statistic must be finite, got {statistic}")
        statistic = max(0.0, float(statistic))
        if isinstance(df, bool) or not isinstance(df, numbers.Integral) or df < 0:
            raise ValueError(f"df must be a nonnegative integer, got {df!r}")
        df = int(df)
        # df == 0 means the models coincide; the test is vacuous.
        p = 1.0 if df == 0 else chi2_sf(statistic, df)
        return cls(statistic=statistic, df=df, p_value=p)


def _start_values(spec: MimicModel, mom) -> np.ndarray:
    """Deterministic starting point: the one-factor model's noniterative
    moment estimate (Hägglund 1982; Bollen 1996).

    The reduced-form regression of the indicators on [1, x, s], one solve of
    the centred normal equations, gives the coefficients B and, through
    ``_residual_moments``, the residual covariance S.  Spearman's triads on
    S, the median over pairs (j, k) of S_1j S_1k / S_jk, give psi; then
    lambda_j = S_1j / psi and theta_j = S_jj - psi lambda_j^2, at least 5%
    of S_jj.  Each row of B is a multiple of lambda: weighted least squares
    with weights lambda/theta gives beta from the covariate rows and gamma
    from the group row on the items whose offset is fixed, and a free offset
    is what gamma lambda_j leaves of its item's group coefficient.

    A triad counts only where its three residual correlations all exceed
    2 / sqrt(n), about twice the standard error of a correlation that is 0:
    where the factor barely shows in the residuals, the ratios are noise,
    and their loadings can start the solver in the basin of a worse local
    maximum.  Where no triad counts (two indicators, or a weak factor),
    where the triads give no positive psi, or where the covariates are
    collinear, it returns :func:`_guess_values` instead.
    """
    p, q = spec.n_indicators, spec.n_covariates
    try:  # (q+1) x p: the rows of beta lambda' and gamma lambda + delta
        slopes = np.linalg.solve(mom.gram[: q + 1, : q + 1], mom.gram[: q + 1, q + 1 :])
    except np.linalg.LinAlgError:  # collinear covariates
        return _guess_values(spec, mom)
    intercepts, _, _, W = _residual_moments(mom, slopes)
    S = W / mom.n
    var = np.diag(S)
    if not (np.isfinite(S).all() and (var > 0.0).all()):
        return _guess_values(spec, mom)
    c, r = S.tolist(), np.abs(S / np.sqrt(np.outer(var, var))).tolist()
    noise = 2.0 / math.sqrt(mom.n)
    triads = [
        c[0][j] * c[0][k] / c[j][k]
        for j in range(1, p)
        for k in range(j + 1, p)
        if min(r[0][j], r[0][k], r[j][k]) > noise
    ]
    psi = statistics.median(triads) if triads else 0.0
    if not 0.0 < psi < math.inf:
        return _guess_values(spec, mom)
    lam = S[0] / psi
    lam[0] = 1.0  # the anchor's loading is pinned
    theta = np.maximum(var - psi * lam * lam, 0.05 * var)
    w = lam / theta
    beta = slopes[:q] @ w / (lam @ w)
    fixed = ~spec.free_mask
    gamma = float(slopes[q, fixed] @ w[fixed] / (lam[fixed] @ w[fixed])) if fixed.any() else 0.0
    start = dict(
        loadings=lam,
        intercepts=intercepts,
        struct_coefs=beta,
        sens_coef=gamma,
        dif_offsets=slopes[q] - gamma * lam,
        resid_vars=theta,
        latent_var=psi,
    )
    return _pack_fields(_structure(spec).layout, start)


def _guess_values(spec: MimicModel, mom) -> np.ndarray:
    """A scale-aware starting point where the moment estimate is undefined.

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
    return _pack_fields(_structure(spec).layout, start)


def fit(spec: MimicModel, data, options: OptimOptions | None = None, callback=None) -> FitResult:
    """Maximize the model log-likelihood by trust-region Newton steps on the
    exact Hessian.

    It starts at the moment estimate of :func:`_start_values`, where the
    information -H is usually already positive definite.  Each step
    maximizes the exact quadratic model within a trust radius
    (:func:`_step`): the plain Newton step, by a Cholesky factorization of
    -H, wherever -H is positive definite and that step fits the radius, and
    the shifted step of :func:`_trust_step`, through an eigendecomposition,
    otherwise.  A step is accepted only if it raises the log-likelihood,
    or, because the summed log-likelihood runs out of float resolution
    before the gradient does, lowers it by at most ``1e-12 * |ll|`` while
    the gradient norm falls.  The radius follows the ratio of actual to
    predicted gain.

    The data enter once, through their sample moments; a caller that fits
    several specs with the same columns to one dataset can build those once
    with :func:`~fairmimic.model.data_moments` and pass them as ``data``.
    Specs that also share their number of free parameters can be fitted in
    one stacked solve by :func:`fit_stack`; ``fit`` is its stack of one.

    Deterministic given (spec, data, options): starting values are fixed
    functions of the data, the optimizer uses no randomness, and the
    sensitive effect gamma is always estimated freely.  The fit has
    converged when its gradient norm is below ``options.grad_tol``, the
    tolerance the optimizer stops on; otherwise ``converged=False``, which
    does not raise.  The standard errors and ``vcov`` come from one
    eigendecomposition of the information -H at the returned point, scaled
    to unit diagonal; they are all NaN, with a warning, unless -H is
    positive definite and the scaled matrix has condition number below
    1e12, a cutoff that no change of a column's units moves.

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
    model rejects that member's step only, and the step route (Cholesky or
    eigendecomposition) is chosen member by member.  One batched
    eigendecomposition of the scaled informations at the returned points
    gives every member's SEs.
    Returns one :class:`FitResult` per spec, in order, each equal to
    ``fit(spec, data, options)``; ``callback`` is invoked with a member's
    packed vector after each of its accepted iterates.
    """
    options = options or OptimOptions()
    specs = tuple(specs)
    if not specs:
        raise ValueError("fit_stack needs at least one spec")
    specs = _Stack.of(specs)  # the specs share their names and length, resolved once
    k = specs.k
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
    ll, info = ll.tolist(), -hess
    norm = _norms(grad)
    radius, n_iter = [1.0] * len(specs), [0] * len(specs)
    live = list(range(len(specs)))  # the members still running
    while True:
        live = [i for i in live if n_iter[i] < options.max_iter and norm[i] >= options.grad_tol]
        if not live:
            break
        rows, members = (live, [specs[i] for i in live]) if len(live) < len(specs) else (slice(None), specs)
        step, predicted = _step(grad[rows], info[rows], np.array([radius[i] for i in live]))
        trial = x[rows] + step
        ll_try, grad_try, hess_try = _trial_loglik(trial, members, mom)
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
            x[moved], grad[moved], info[moved] = trial[took], grad_try[took], -hess_try[took]
            if callback is not None:
                for j in accepted:
                    callback(trial[j].copy())
        # a member stops when no step the floats can represent improves
        size = _norms(x[rows])
        live = [i for i, s in zip(live, size) if radius[i] > _EPS * (1.0 + s)]
    # The SEs' cutoff reads the information scaled to unit diagonal,
    # D^-1/2 (-H) D^-1/2, which no change of a parameter's units moves; its
    # eigenvectors map back through D^-1/2.  Scaling is a congruence, so it
    # keeps whether -H is definite; a diagonal entry that is not positive,
    # which only an indefinite -H has, is left unscaled.
    diag = np.diagonal(info, axis1=1, axis2=2)
    scale = np.where(diag > 0.0, diag, 1.0) ** -0.5
    w, v = np.linalg.eigh(info * scale[:, :, None] * scale[:, None, :])
    v *= scale[:, :, None]
    return tuple(_result(*a, mom, options.grad_tol) for a in zip(specs, x, ll, norm, w, v, n_iter))


def _norms(a) -> list:
    """The 2-norms of the rows of ``a``."""
    return np.sqrt((a * a).sum(1)).tolist()


def _trial_loglik(x, specs, mom):
    """The order-2 log-likelihood of a stack at trial points, the values as
    a list.  A member whose point lies outside the model gets log-likelihood
    -inf (a rejected step); when one does, the members are evaluated one at
    a time to find it.  A point is outside the model when its evaluation
    overflows or divides by zero, as where a variance underflows to 0."""
    specs = _Stack.of(specs)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ll, grad, hess = _loglik(x, specs, mom, order=2)
            return ll.tolist(), grad, hess
    except FloatingPointError:
        if len(specs) == 1:
            k = x.shape[1]
            return [-np.inf], np.full((1, k), np.nan), np.full((1, k, k), np.nan)
    ll, grad, hess = zip(*(_trial_loglik(x[i : i + 1], specs[i : i + 1], mom) for i in range(len(specs))))
    return sum(ll, []), np.concatenate(grad), np.concatenate(hess)


def _result(spec, x, ll, grad_norm, w, v, n_iter, mom, grad_tol) -> FitResult:
    """The FitResult of one member at its returned point, with the SEs from
    the eigenvalues ``w`` of its information -H scaled to unit diagonal and
    their eigenvectors ``v`` mapped back through D^-1/2, so that
    ``v diag(1/w) v'`` is the inverse of -H; it has converged when its
    gradient norm is below ``grad_tol``."""
    if w[0] > 1e-12 * w[-1]:  # -H positive definite, scaled condition number below 1e12
        root = v / np.sqrt(w)
        vcov = root @ root.T
        std_errors = np.sqrt(np.diag(vcov))
    else:
        warnings.warn(
            f"observed information scaled to unit diagonal has eigenvalues from {w[0]:.3g} to {w[-1]:.3g}: "
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
        converged=grad_norm < grad_tol,
        grad_norm=grad_norm,
        n_obs=mom.n,
        data_fingerprint=mom.fingerprint,
    )


def _step(grad, info, radius):
    """The trust-region steps of :func:`_trust_step` for a stack of
    gradients, informations ``info = -H`` and radii, and the list of gains
    the quadratic model predicts, without an eigendecomposition where it is
    not needed.

    Where ``info`` is positive definite, which its Cholesky factorization
    tells, and the Newton step ``info^-1 grad`` fits the radius, that step
    is the solution and its predicted gain is ``grad @ step / 2``.  Only the
    other members are eigendecomposed for the shifted step.  The route is
    chosen member by member, so a member's step does not depend on the rest
    of the stack.
    """
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:  # some member is not definite: find which, and solve for the others
        definite = np.array([_is_definite(a) for a in info])
        step = np.zeros(grad.shape)
        if definite.any():
            step[definite] = np.linalg.solve(info[definite], grad[definite][:, :, None])[:, :, 0]
    else:
        definite = True
        step = np.linalg.solve(info, grad[:, :, None])[:, :, 0]
    newton = definite & (np.sqrt((step * step).sum(1)) <= radius)
    predicted = 0.5 * (grad * step).sum(1)
    if not newton.all():
        other = ~newton
        w, v = np.linalg.eigh(info[other])
        step[other], predicted[other] = _trust_step(grad[other], w, v, radius[other])
    return step, predicted.tolist()


def _is_definite(a) -> bool:
    """Whether the symmetric matrix ``a`` is positive definite in floats:
    its Cholesky factorization succeeds."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


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

    Both fits must come from the same data (checked by the fingerprint of
    their sample moments) and the nested model's free parameters must be a
    subset of the full model's.
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

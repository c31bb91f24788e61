"""Linear-Gaussian MIMIC measurement model.

A single latent variable is measured by p observed indicators and regressed
on q exogenous covariates plus a binary sensitive attribute:

    eta_i = beta' x_i + gamma * s_i + zeta_i,      zeta_i ~ N(0, psi)
    y_ij  = nu_j + lambda_j * eta_i + delta_j * s_i + eps_ij,
                                                   eps_ij ~ N(0, theta_j)

Conditional on (x_i, s_i) the indicator vector is Gaussian with mean
``nu + lambda * (beta' x_i + gamma * s_i) + delta * s_i`` and covariance
``psi * lambda lambda' + diag(theta)``, identical across rows.  The first
loading is pinned to 1 for identification, so the latent variable carries
the scale of the first indicator.  Residual variances and the latent
variance are optimized on the log scale, which keeps them positive without
constrained optimization.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .exceptions import NotPositiveDefiniteError, SchemaVersionError

LOG_2PI = math.log(2.0 * math.pi)

_FLOAT_FIELDS = (
    "loadings",
    "intercepts",
    "struct_coefs",
    "sens_coef",
    "dif_offsets",
    "resid_vars",
    "latent_var",
)


@dataclass(frozen=True)
class MimicModel:
    """Parameter container for the MIMIC model.

    Attributes
    ----------
    loadings : (p,) array
        Indicator loadings lambda; ``loadings[0]`` is always exactly 1 and
        is never a free parameter.
    intercepts : (p,) array
        Indicator intercepts nu, in indicator units.
    struct_coefs : (q,) array
        Structural regression coefficients beta of the latent variable on
        the covariates.
    sens_coef : float
        Structural coefficient gamma of the latent variable on the
        sensitive attribute.
    dif_offsets : (p,) array
        Per-indicator group offsets delta (differential item functioning).
        Entries where ``free_mask`` is False are constrained to exactly 0.
    resid_vars : (p,) array
        Indicator residual variances theta, all strictly positive.
    latent_var : float
        Residual variance psi of the latent variable, strictly positive.
    free_mask : (p,) bool array
        Which dif_offsets entries are free parameters.
    indicator_names, covariate_names : tuple of str
        Column names used to align the model with a dataset.
    sensitive_coding : dict
        Maps sensitive-attribute level labels to the numeric codes
        {0, 1}; the level coded 0 is the reference group.
    """

    loadings: np.ndarray
    intercepts: np.ndarray
    struct_coefs: np.ndarray
    sens_coef: float
    dif_offsets: np.ndarray
    resid_vars: np.ndarray
    latent_var: float
    free_mask: np.ndarray
    indicator_names: tuple
    covariate_names: tuple
    sensitive_coding: dict

    SCHEMA_VERSION = 1

    def __post_init__(self):
        arr = lambda v, dt=np.float64: np.array(v, dtype=dt, copy=True)
        object.__setattr__(self, "loadings", arr(self.loadings))
        object.__setattr__(self, "intercepts", arr(self.intercepts))
        object.__setattr__(self, "struct_coefs", arr(self.struct_coefs))
        object.__setattr__(self, "sens_coef", float(self.sens_coef))
        object.__setattr__(self, "dif_offsets", arr(self.dif_offsets))
        object.__setattr__(self, "resid_vars", arr(self.resid_vars))
        object.__setattr__(self, "latent_var", float(self.latent_var))
        object.__setattr__(self, "free_mask", arr(self.free_mask, np.bool_))
        object.__setattr__(self, "indicator_names", tuple(self.indicator_names))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(
            self,
            "sensitive_coding",
            {str(k): int(v) for k, v in self.sensitive_coding.items()},
        )

        p = self.loadings.shape[0]
        q = self.struct_coefs.shape[0]
        if self.loadings.ndim != 1 or p < 2:
            raise ValueError("loadings must be a vector with at least 2 entries")
        for name, vec in (
            ("intercepts", self.intercepts),
            ("dif_offsets", self.dif_offsets),
            ("resid_vars", self.resid_vars),
            ("free_mask", self.free_mask),
        ):
            if vec.shape != (p,):
                raise ValueError(f"{name} must have length {p}, got {vec.shape}")
        if len(self.indicator_names) != p:
            raise ValueError("indicator_names must match the number of loadings")
        if len(self.covariate_names) != q:
            raise ValueError("covariate_names must match struct_coefs")
        values = [getattr(self, name) for name in _FLOAT_FIELDS]
        if not np.isfinite(np.hstack(values)).all():
            name, v = next((n, v) for n, v in zip(_FLOAT_FIELDS, values) if not np.isfinite(v).all())
            raise ValueError(f"{name} must be finite, got {v!r}")
        if self.loadings[0] != 1.0:
            raise ValueError("loadings[0] must be exactly 1 (identification)")
        if np.any(self.resid_vars <= 0.0):
            raise ValueError("resid_vars must all be strictly positive")
        if self.latent_var <= 0.0:
            raise ValueError("latent_var must be strictly positive")
        if np.any(self.dif_offsets[~self.free_mask] != 0.0):
            raise ValueError("constrained dif_offsets entries must be exactly 0")
        codes = sorted(self.sensitive_coding.values())
        if codes != [0, 1]:
            raise ValueError("sensitive_coding must map exactly two levels to {0, 1}")
        for a in (
            self.loadings,
            self.intercepts,
            self.struct_coefs,
            self.dif_offsets,
            self.resid_vars,
            self.free_mask,
        ):
            a.flags.writeable = False

    @property
    def n_indicators(self):
        return self.loadings.shape[0]

    @property
    def n_covariates(self):
        return self.struct_coefs.shape[0]

    @property
    def reference_level(self):
        """Label of the group coded 0."""
        return next(k for k, v in self.sensitive_coding.items() if v == 0)

    def level_code(self, level) -> float:
        try:
            return float(self.sensitive_coding[str(level)])
        except KeyError:
            raise ValueError(
                f"unknown sensitive level {level!r}; "
                f"declared levels: {sorted(self.sensitive_coding)}"
            ) from None

    def with_values(self, **changes) -> "MimicModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MimicModel":
        version = d.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise SchemaVersionError(
                f"model schema_version {version!r} is not supported "
                f"(expected {cls.SCHEMA_VERSION})"
            )
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def template(
    indicator_names,
    covariate_names,
    sensitive_coding,
    free_dif=(),
) -> MimicModel:
    """Build a neutral model skeleton (unit loadings and variances, zero
    regression parameters) used as a fit specification.

    ``free_dif`` lists the indicator names whose dif offset is a free
    parameter; all others are constrained to 0.
    """
    indicator_names = tuple(indicator_names)
    p = len(indicator_names)
    q = len(covariate_names)
    unknown = set(free_dif) - set(indicator_names)
    if unknown:
        raise ValueError(f"free_dif names not among indicators: {sorted(unknown)}")
    mask = np.array([name in set(free_dif) for name in indicator_names])
    return MimicModel(
        loadings=np.ones(p),
        intercepts=np.zeros(p),
        struct_coefs=np.zeros(q),
        sens_coef=0.0,
        dif_offsets=np.zeros(p),
        resid_vars=np.ones(p),
        latent_var=1.0,
        free_mask=mask,
        indicator_names=indicator_names,
        covariate_names=tuple(covariate_names),
        sensitive_coding=sensitive_coding,
    )


def to_json(value):
    """The JSON form of a result.

    A dataclass becomes the dict of its fields, led by ``schema_version``
    when its class declares ``SCHEMA_VERSION``; a field value with its own
    ``to_dict`` is written by it.  A named tuple becomes a dict, arrays and
    tuples become lists, and dict values are converted in turn.
    """
    if is_dataclass(value):
        d = {f.name: _json_field(getattr(value, f.name)) for f in fields(value)}
        version = getattr(value, "SCHEMA_VERSION", None)
        return d if version is None else {"schema_version": version, **d}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "_asdict"):
        return to_json(value._asdict())
    if isinstance(value, dict):
        return {k: _json_field(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json_field(v) for v in value]
    return value


def _json_field(value):
    return value.to_dict() if hasattr(value, "to_dict") else to_json(value)


def dump_json(obj, path) -> None:
    """Write ``obj`` as JSON: indented, keys sorted, newline-terminated."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_model(model: MimicModel, path) -> None:
    dump_json(model.to_dict(), path)


def load_model(path) -> MimicModel:
    return MimicModel.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Free-parameter vector
# ---------------------------------------------------------------------------


class _Block(NamedTuple):
    """One block of the packed free-parameter vector."""

    field: str  # the MimicModel field it holds
    index: object  # the field's packed entries; None for a scalar field
    names: tuple  # names of the field's entries, for the parameter names
    log: bool  # packed as the log of the field
    at: np.ndarray  # positions in the packed vector
    span: slice  # the same positions, as a slice


def _layout(spec: MimicModel):
    """The packed vector of ``spec``'s free parameters: its blocks by name,
    in packing order, and its length.  Built once per structure and shared,
    so the mapping and its index arrays are read-only."""
    return _layout_of(spec.indicator_names, spec.covariate_names, spec.free_mask.tobytes())


@functools.lru_cache(maxsize=128)
def _layout_of(ind, cov, free_mask):
    every = np.arange(len(ind))
    rows = (  # name, field, packed entries, names of the field's entries, log scale
        ("lambda", "loadings", every[1:], ind, False),
        ("nu", "intercepts", every, ind, False),
        ("beta", "struct_coefs", np.arange(len(cov)), cov, False),
        ("gamma", "sens_coef", None, (), False),
        ("delta", "dif_offsets", every[np.frombuffer(free_mask, dtype=np.bool_)], ind, False),
        ("log_theta", "resid_vars", every, ind, True),
        ("log_psi", "latent_var", None, (), True),
    )
    layout, k = {}, 0
    for name, field, index, names, log in rows:
        size = 1 if index is None else len(index)
        layout[name] = _Block(field, index, names, log, np.arange(k, k + size), slice(k, k + size))
        k += size
    for b in layout.values():
        for a in (b.index, b.at):
            if a is not None:
                a.flags.writeable = False
    return MappingProxyType(layout), k


def _stack_layout(spec):
    """The layout of ``spec``, its length and its free-offset mask.

    ``spec`` may also be a sequence of B specs with the same names and
    packed length.  They then differ at most in which offsets are free, so
    every block sits at the same positions, and the mask is (B, p): row b
    marks the offsets member b's delta block holds.
    """
    if isinstance(spec, MimicModel):
        return (*_layout(spec), spec.free_mask)
    layout, k = _layout(spec[0])
    names = (spec[0].indicator_names, spec[0].covariate_names)
    for s in spec:
        if (s.indicator_names, s.covariate_names) != names or _layout(s)[1] != k:
            raise ValueError(
                "the specs of a stack must share their indicators and covariates "
                "and have the same number of free parameters"
            )
    return layout, k, np.array([s.free_mask for s in spec])


def param_names(model: MimicModel):
    """Names of the free parameters in packing order."""
    names = []
    for name, b in _layout(model)[0].items():
        names += [name] if b.index is None else [f"{name}[{b.names[i]}]" for i in b.index]
    return tuple(names)


def n_free_params(model: MimicModel) -> int:
    return _layout(model)[1]


def pack(model: MimicModel) -> np.ndarray:
    """Flatten the free parameters into a single vector."""
    return _pack_fields(_layout(model)[0], vars(model))


def _pack_fields(layout, values) -> np.ndarray:
    """The packed vector of the fields in ``values``, by name."""
    parts = []
    for b in layout.values():
        v = values[b.field]
        v = [v] if b.index is None else v[b.index]
        parts.append(np.log(v) if b.log else v)
    return np.concatenate(parts)


def unpack(spec: MimicModel, x: np.ndarray) -> MimicModel:
    """Rebuild a model from a packed free-parameter vector, keeping the
    structure (names, free_mask, coding) of ``spec``."""
    x = np.asarray(x, dtype=np.float64)
    layout, k, free = _stack_layout(spec)
    if x.shape != (k,):
        raise ValueError(f"expected {k} free parameters, got {x.shape}")
    return spec.with_values(**_field_values(layout, free, x))


def _field_values(layout, free, x: np.ndarray) -> dict:
    """The fields the packed vectors ``x`` (..., k) hold, by name, each with
    the leading axes of ``x``.  Entries a packed vector does not hold are
    the same in every model: the first loading is pinned to 1, and the
    offsets outside ``free`` (the free-offset mask, (..., p)) are 0."""
    values = {}
    for b in layout.values():
        v = np.exp(x[..., b.span]) if b.log else x[..., b.span]
        values[b.field] = v[..., 0] if b.index is None else v
    lam = np.ones(free.shape)
    lam[..., 1:] = values["loadings"]
    delta = np.zeros(free.shape)
    delta[free] = values["dif_offsets"].ravel()  # which are free may differ by member
    values["loadings"], values["dif_offsets"] = lam, delta
    return values


# ---------------------------------------------------------------------------
# Implied moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpliedMoments:
    """Conditional moments of the indicators given covariates and group.

    ``cond_mean`` is n x p; ``cond_cov`` is the p x p covariance shared by
    every row (the model is homoscedastic conditional on the regressors).
    """

    cond_mean: np.ndarray
    cond_cov: np.ndarray


def _covariate_matrix(model, covariates):
    """``covariates`` as an n x q matrix; a 1-D input is one row, or one
    column when the model has a single covariate."""
    X = np.asarray(covariates, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if model.n_covariates == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n_covariates:
        raise ValueError(
            f"covariates must be n x {model.n_covariates}, got shape {X.shape}"
        )
    return X


def _check_regressors(model, covariates, sensitive):
    X = _covariate_matrix(model, covariates)
    s = np.asarray(sensitive, dtype=np.float64).reshape(-1)
    if s.shape[0] != X.shape[0]:
        raise ValueError(
            f"sensitive has {s.shape[0]} rows but covariates have {X.shape[0]}"
        )
    return X, s


def _mean_cov(values):
    """Conditional mean coefficients, covariance and its Cholesky factor.

    ``values`` maps the MimicModel fields to their values, or to stacks of
    them with a leading member axis.  Returns the (q+2) x p matrix
    ``Bt = [nu'; beta lambda'; (gamma lambda + delta)']``, so that the mean
    of a row is ``[1, x, s] @ Bt``, the covariance
    ``Sigma = psi lambda lambda' + diag(theta)`` and its lower Cholesky
    factor, each with that leading axis.
    """
    lam, beta = values["loadings"], values["struct_coefs"]
    gamma, psi = np.asarray(values["sens_coef"]), np.asarray(values["latent_var"])
    p, q = lam.shape[-1], beta.shape[-1]
    Bt = np.empty(lam.shape[:-1] + (q + 2, p))
    Bt[..., 0, :] = values["intercepts"]
    Bt[..., 1 : q + 1, :] = beta[..., :, None] * lam[..., None, :]
    Bt[..., q + 1, :] = gamma[..., None] * lam + values["dif_offsets"]
    sigma = psi[..., None, None] * (lam[..., :, None] * lam[..., None, :])
    sigma.reshape(lam.shape[:-1] + (p * p,))[..., :: p + 1] += values["resid_vars"]
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "implied indicator covariance is not positive definite"
        ) from None
    return Bt, sigma, chol


def implied_moments(model: MimicModel, covariates, sensitive) -> ImpliedMoments:
    """Compute the model-implied conditional mean matrix and covariance.

    Parameters
    ----------
    model : MimicModel
    covariates : (n, q) array
    sensitive : (n,) array of numeric codes (reference group 0, other 1).

    Raises
    ------
    ValueError
        On dimension mismatch.
    NotPositiveDefiniteError
        If the implied covariance fails a Cholesky factorization, which
        signals invalid variance parameters.
    """
    X, s = _check_regressors(model, covariates, sensitive)
    Bt, sigma, _ = _mean_cov(vars(model))
    mu = Bt[0] + np.column_stack([X, s]) @ Bt[1:]
    return ImpliedMoments(cond_mean=mu, cond_cov=sigma)


# ---------------------------------------------------------------------------
# Sample moments
#
# Given (x, s), the indicators are Gaussian with a mean linear in [1, x, s]
# and a covariance shared by every row, so the log-likelihood depends on the
# data only through n, the column means and the centred Gram matrix of
# w = [x, s, y] (the covariance-structure reduction; Joreskog 1973, Bollen
# 1989 ch. 4 and 8).
# ---------------------------------------------------------------------------

# Rows per block of the Gram accumulation.  Blocks are summed in a fixed
# order, so the result does not depend on how BLAS splits one product.
GRAM_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SampleMoments:
    """Sufficient statistics of ``[x_1..x_q, s, y_1..y_p]``: the row count,
    the column means and ``gram = sum_i (w_i - mean)(w_i - mean)'``.

    Moments built by :func:`data_moments` also record the names of the
    columns, in that order, the fingerprint of the dataset and its
    sensitive coding; those from :func:`sample_moments` record none of them.
    """

    n: int
    mean: np.ndarray
    gram: np.ndarray
    columns: tuple | None = None
    fingerprint: str | None = None
    coding: dict | None = None

    @functools.cached_property
    def cross(self) -> np.ndarray:
        """``sum_i [1, w_i]' [1, w_i]``, the uncentred cross products of
        the columns led by the intercept."""
        m = np.concatenate([[1.0], self.mean])
        cross = np.outer(self.n * m, m)
        cross[1:, 1:] += self.gram
        return cross


def sample_moments(columns) -> SampleMoments:
    """Means and centred Gram matrix of equal-length 1-D columns, built one
    block of rows at a time without stacking the columns into one array."""
    n = len(columns[0])
    d = len(columns)
    mean = np.array([np.mean(c) for c in columns])
    gram = np.zeros((d, d))
    block = np.empty((min(n, GRAM_CHUNK_ROWS), d))
    for a in range(0, n, GRAM_CHUNK_ROWS):
        b = min(a + GRAM_CHUNK_ROWS, n)
        rows = block[: b - a]
        for j, col in enumerate(columns):
            np.subtract(col[a:b], mean[j], out=rows[:, j])
        gram += rows.T @ rows
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(gram))):
        raise ValueError("data contains missing or non-finite values")
    return SampleMoments(n=n, mean=mean, gram=gram)


def _check_coding(model: MimicModel, coding) -> None:
    """Refuse data whose sensitive ``coding`` differs from the model's."""
    if coding != model.sensitive_coding:
        raise ValueError(f"the spec codes the sensitive levels as {model.sensitive_coding}, the data as {coding}")


def _columns(model: MimicModel, data):
    """The model's covariate columns, the rows' group codes and the model's
    indicator columns in the dataset ``data``, none of them copied; every
    read of a dataset by a model goes through here and its coding check."""
    _check_coding(model, data.sensitive_coding)
    return (
        data.role_columns(model.covariate_names, "covariate"),
        data.sensitive_codes(),
        data.role_columns(model.indicator_names, "indicator"),
    )


def _matrix(columns, n: int) -> np.ndarray:
    """Equal-length columns of ``n`` rows side by side, as an n x d matrix."""
    return np.column_stack(columns) if columns else np.empty((n, 0))


def data_moments(model: MimicModel, data) -> SampleMoments:
    """Sample moments of the model's covariates, group codes and indicators
    in ``data``, with their column names, the dataset's fingerprint and its
    coding: the one way data reach the likelihood.  Such moments given as
    ``data`` are checked to hold the model's columns and coding."""
    if isinstance(data, SampleMoments):
        q, columns = model.n_covariates, data.columns or ()
        if columns[:q] != model.covariate_names or columns[q + 1 :] != model.indicator_names:
            raise ValueError(
                "sample moments must come from data_moments for the spec's covariates "
                f"{model.covariate_names} and indicators {model.indicator_names}; got columns {data.columns}"
            )
        _check_coding(model, data.coding)
        return data
    cov, s, ind = _columns(model, data)
    return replace(
        sample_moments([*cov, s, *ind]),
        columns=(*model.covariate_names, data.sensitive_name, *model.indicator_names),
        fingerprint=data.fingerprint(),
        coding=dict(data.sensitive_coding),
    )


def _extract_arrays(model: MimicModel, data):
    """Row-wise (Y, X, s) arrays of the model's columns in ``data``."""
    cov, s, ind = _columns(model, data)
    Y, X = np.column_stack(ind), _matrix(cov, len(s))
    if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(X))):
        raise ValueError("data contains missing or non-finite values")
    return Y, X, s


# ---------------------------------------------------------------------------
# Log-likelihood, gradient and Hessian from the sample moments
#
# The conditional mean is [1, z_i] @ Bt with z_i = [x_i, s_i] and
# Bt = [nu'; beta lambda'; (gamma lambda + delta)'], a (q+2) x p matrix, and
# the covariance is Sigma = psi lambda lambda' + diag(theta).  With
# P = Sigma^-1 and W the residual cross-product matrix,
#
#   ll = -(n p log 2 pi + n log|Sigma| + tr(P W)) / 2,
#   dll/dBt = F P,  F = sum_i [1, z_i]' r_i',
#   dll/dSigma = M / 2,  M = Q - n P,  Q = P W P,
#
# and the second differential, with S = sum_i [1, z_i]' [1, z_i], is
#
#   -tr(P dBt' S dBt) - 2 tr(F P dSigma P dBt')
#   + n/2 tr(P dSigma P dSigma) - tr(P dSigma Q dSigma).
#
# The gradient and the Hessian map these through the Jacobians of Bt and
# Sigma with respect to the packed parameters.  Each term of the second
# differential then becomes a Kronecker sandwich of the flattened Jacobians,
# and for row-major vec
#
#   vec(X)' (A kron B) vec(Y) = sum(X * (A Y B'))
#
# (Magnus & Neudecker 2019, ch. 2), so each sandwich is one batched matrix
# product over the k Jacobian slices and no Kronecker matrix is formed.  The
# Hessian adds the curvature of that map: loading times beta or gamma in Bt,
# loading times loading or log psi in Sigma, and on each log-scale block the
# curvature of exp, which equals the block's gradient.
#
# Every array may carry a leading member axis: a stack of specs that differ
# only in which offsets are free shares the data and the layout, so one
# batched call evaluates every member by the same formulas.
# ---------------------------------------------------------------------------


def _jacobians(layout, k, free, values):
    """Derivatives of Bt and of Sigma with respect to every packed
    parameter, as (..., k, q+2, p) and (..., k, p, p) arrays with the
    leading axes of ``values``; ``free`` is the free-offset mask of
    :func:`_stack_layout`."""
    lam, beta, gamma = values["loadings"], values["struct_coefs"], values["sens_coef"]
    theta, psi = values["resid_vars"], values["latent_var"]
    p, q = lam.shape[-1], beta.shape[-1]
    lead = lam.shape[:-1]
    lo, th = layout["lambda"], layout["log_theta"]
    jb = np.zeros(lead + (k, q + 2, p))
    jb[..., lo.at, 1 : q + 1, lo.index] = beta
    jb[..., lo.at, q + 1, lo.index] = gamma[..., None]
    jb[..., layout["nu"].at, 0, layout["nu"].index] = 1.0
    jb[..., layout["beta"].at, 1 + layout["beta"].index, :] = lam[..., None, :]
    jb[..., layout["gamma"].at, q + 1, :] = lam[..., None, :]
    jb[..., layout["delta"].at, q + 1, :] = np.eye(p)[np.nonzero(free)[-1]].reshape(lead + (-1, p))
    js = np.zeros(lead + (k, p, p))
    js[..., lo.at, lo.index, :] = (psi[..., None] * lam)[..., None, :]
    js[..., lo.span, :, :] += js[..., lo.span, :, :].swapaxes(-1, -2)
    js[..., th.at, th.index, th.index] = theta
    js[..., layout["log_psi"].at[0], :, :] = psi[..., None, None] * (lam[..., :, None] * lam[..., None, :])
    return jb, js


def _second_differential(jb, js, n, szz, G, P, Q):
    """The second differential of the log-likelihood in the packed
    parameters, before the curvature of the parameter map: with ``jb`` and
    ``js`` the Jacobians of Bt and Sigma,

        js (P kron (n P / 2 - Q)) js' - jb (szz kron P) jb' - C - C',
        C = jb (G kron P) js',

    each sandwich evaluated slice by slice without the Kronecker matrix,
    and member by member when the arrays carry a leading member axis."""
    lead, k = jb.shape[:-3], jb.shape[-3]
    flat_b, flat_s = jb.reshape(lead + (k, -1)), js.reshape(lead + (k, -1))
    G, P, Q = G[..., None, :, :], P[..., None, :, :], Q[..., None, :, :]  # over the k slices

    def sandwich(flat, slices):
        return flat @ slices.reshape(lead + (k, -1)).swapaxes(-1, -2)

    cross = sandwich(flat_b, G @ js @ P)
    return (
        sandwich(flat_s, P @ js @ (0.5 * n * P - Q.swapaxes(-1, -2)))
        - sandwich(flat_b, szz @ jb @ P)
        - cross
        - cross.swapaxes(-1, -2)
    )


def _loglik(x, spec, mom: SampleMoments, order: int = 0):
    """Log-likelihood at the packed vector ``x``; with ``order`` 1 also its
    gradient, with ``order`` 2 also the gradient and the exact Hessian.

    ``spec`` may also be a sequence of B specs that differ at most in which
    offsets are free (see :func:`_stack_layout`), with ``x`` the (B, k)
    stack of their packed vectors; the log-likelihoods (B,), gradients
    (B, k) and Hessians (B, k, k) then come from the same formulas, member
    by member, in one batched product per step.
    """
    layout, k, free = _stack_layout(spec)
    values = _field_values(layout, free, x)
    Bt, _, chol = _mean_cov(values)
    p, q = Bt.shape[-1], Bt.shape[-2] - 2
    lead = Bt.shape[:-2]
    n = mom.n
    zbar, ybar = mom.mean[: q + 1], mom.mean[q + 1 :]
    czz, czy, cyy = mom.gram[: q + 1, : q + 1], mom.gram[: q + 1, q + 1 :], mom.gram[q + 1 :, q + 1 :]

    B = Bt[..., 1:, :]
    rbar = ybar - Bt[..., 0, :] - zbar @ B
    E = czy - czz @ B  # sum_i (z_i - zbar) r_i'
    W = n * rbar[..., :, None] * rbar[..., None, :] + cyy - czy.T @ B - B.swapaxes(-1, -2) @ E

    chol_inv = np.linalg.inv(chol)
    P = chol_inv.swapaxes(-1, -2) @ chol_inv
    logdet = 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)
    ll = -0.5 * (n * (p * LOG_2PI + logdet) + (P * W).sum((-2, -1)))
    if order == 0:
        return ll

    F = np.empty(Bt.shape)
    F[..., 0, :] = n * rbar
    F[..., 1:, :] = n * zbar[:, None] * rbar[..., None, :] + E
    G = F @ P
    Q = P @ W @ P
    M = 0.5 * (Q + Q.swapaxes(-1, -2)) - n * P
    jb, js = _jacobians(layout, k, free, values)
    grad = (
        jb.reshape(lead + (k, -1)) @ G.reshape(lead + (-1, 1))
        + 0.5 * (js.reshape(lead + (k, -1)) @ M.reshape(lead + (-1, 1)))
    )[..., 0]
    if order == 1:
        return ll, grad

    szz = mom.cross[: q + 2, : q + 2]  # sum_i [1, z_i]' [1, z_i]
    hess = _second_differential(jb, js, n, szz, G, P, Q)
    # The curvature of the parameter map.  The free loadings are all but
    # the first; a term placed on one side of the diagonal only is doubled,
    # for the symmetrization halves it.
    lam, psi = values["loadings"], values["latent_var"]
    lo = layout["lambda"].span
    hess[..., lo, lo] += psi[..., None, None] * M[..., 1:, 1:]  # loading x loading
    hess[..., lo, layout["beta"].span] += 2.0 * G[..., 1 : q + 1, 1:].swapaxes(-1, -2)
    hess[..., lo, layout["gamma"].at[0]] += 2.0 * G[..., q + 1, 1:]
    hess[..., lo, layout["log_psi"].at[0]] += 2.0 * psi[..., None] * (M @ lam[..., None])[..., 1:, 0]
    diag = hess.reshape(lead + (k * k,))[..., :: k + 1]
    for b in layout.values():
        if b.log:  # the curvature of exp equals the block's gradient
            diag[..., b.span] += grad[..., b.span]
    return ll, grad, 0.5 * (hess + hess.swapaxes(-1, -2))


def _ll_value(x, spec, Y, X, s):
    """Log-likelihood at a packed vector, from row-wise arrays."""
    return _loglik(x, spec, sample_moments([*X.T, s, *Y.T]))


def log_likelihood(model: MimicModel, data) -> float:
    """Conditional Gaussian log-likelihood of the indicators, summed over
    rows; covariates and the sensitive attribute are treated as fixed."""
    return float(_loglik(pack(model), model, data_moments(model, data)))


def log_likelihood_grad(model: MimicModel, data) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to the packed free
    parameters (variances on the log scale); see :func:`param_names` for
    the coordinate order."""
    _, grad = _loglik(pack(model), model, data_moments(model, data), order=1)
    return grad

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
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .exceptions import DataValidationError, SchemaVersionError

LOG_2PI = math.log(2.0 * math.pi)
_TINY = float(np.finfo(np.float64).tiny)

_FLOAT_FIELDS = (
    "loadings",
    "intercepts",
    "struct_coefs",
    "sens_coef",
    "dif_offsets",
    "resid_vars",
    "latent_var",
)
_SCALAR_FIELDS = ("sens_coef", "latent_var")
_ARRAY_FIELDS = tuple(name for name in _FLOAT_FIELDS if name not in _SCALAR_FIELDS)


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
        Indicator residual variances theta, all at least the smallest
        normal float (``np.finfo(float).tiny``), so that ``lambda / theta``
        in the closed-form precision does not overflow at a subnormal one,
        and large enough that ``u_j = lambda_j / theta_j``,
        ``t_j = psi lambda_j u_j`` and their sum over the indicators are
        finite.
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
        # Every field is converted once and checked.  The models a solve
        # builds from its own values skip this through _trusted.
        fixed = {name: float(getattr(self, name)) for name in _SCALAR_FIELDS}
        arrays = {name: np.array(getattr(self, name), dtype=np.float64) for name in _ARRAY_FIELDS}
        arrays["free_mask"] = np.array(self.free_mask, dtype=np.bool_)
        for name, value in (*fixed.items(), *arrays.items()):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "indicator_names", tuple(self.indicator_names))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(self, "sensitive_coding", _coding(self.sensitive_coding))

        p = self.loadings.shape[0]
        q = self.struct_coefs.shape[0]
        if self.loadings.ndim != 1 or p < 2:
            raise ValueError("loadings must be a vector with at least 2 entries")
        for name in ("intercepts", "dif_offsets", "resid_vars", "free_mask"):
            if arrays[name].shape != (p,):
                raise ValueError(f"{name} must have length {p}, got {arrays[name].shape}")
        if len(self.indicator_names) != p:
            raise ValueError("indicator_names must match the number of loadings")
        if len(self.covariate_names) != q:
            raise ValueError("covariate_names must match struct_coefs")
        self._check_values()
        if self.loadings[0] != 1.0:
            raise ValueError("loadings[0] must be exactly 1 (identification)")
        if self.dif_offsets[~self.free_mask].any():
            raise ValueError("constrained dif_offsets entries must be exactly 0")
        for a in arrays.values():
            a.setflags(write=False)

    def _check_values(self):
        """The checks that the float values of a model of valid structure
        can still fail: every value finite, every residual variance at least
        the smallest normal float, a positive latent variance, and finite
        terms of the closed-form precision."""
        arrays = np.concatenate([getattr(self, n) for n in _ARRAY_FIELDS])
        if not (np.isfinite(arrays).all() and math.isfinite(self.sens_coef) and math.isfinite(self.latent_var)):
            name = next(n for n in _FLOAT_FIELDS if not np.isfinite(getattr(self, n)).all())
            raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        psi, loadings, resid_vars = self.latent_var, self.loadings.tolist(), self.resid_vars.tolist()
        if not min(resid_vars) >= _TINY:
            raise ValueError(f"resid_vars must all be at least the smallest normal float {_TINY!r}")
        if psi <= 0.0:
            raise ValueError("latent_var must be strictly positive")
        # the terms of the closed-form precision, u = lambda / theta and
        # t = psi lambda u, as _precision forms them, in Python floats,
        # which overflow to inf without a warning
        t = [psi * lam * (lam / theta) for lam, theta in zip(loadings, resid_vars)]
        if not math.isfinite(sum(t)):
            raise ValueError(
                "resid_vars are too small for the loadings and latent_var: "
                "psi lambda_j^2 / theta_j or its sum over the indicators overflows"
            )

    @classmethod
    def _trusted(cls, **fields) -> "MimicModel":
        """The model with ``fields``, built without ``__post_init__``, for
        values that come from a model or a packed vector of valid
        structure: float64 arrays of the right lengths that no caller
        holds, Python floats for the two scalars, a first loading of 1,
        constrained offsets of 0, and the names and coding of a valid
        model.  The conversions and the structural checks are skipped,
        since such fields cannot fail them; the checks of
        :meth:`_check_values`, which any values can fail, still run, and
        the arrays are made read-only."""
        for name in (*_ARRAY_FIELDS, "free_mask"):
            fields[name].flags.writeable = False
        model = object.__new__(cls)
        model.__dict__.update(fields)
        model._check_values()
        return model

    @property
    def n_indicators(self):
        return self.loadings.shape[0]

    @property
    def n_covariates(self):
        return self.struct_coefs.shape[0]

    @property
    def reference_level(self):
        """Label of the group coded 0."""
        return _levels(self.sensitive_coding)[0]

    def level_code(self, level) -> float:
        try:
            return float(self.sensitive_coding[str(level)])
        except KeyError:
            raise ValueError(
                f"unknown sensitive level {level!r}; "
                f"declared levels: {sorted(self.sensitive_coding)}"
            ) from None

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


def _coding(mapping) -> dict:
    """The package's one check of a sensitive coding: ``mapping`` as a dict
    of two ``str`` levels to the ints 0 and 1, each code a Python or numpy
    int.  A bool, a float (1.0 too), a string or two keys whose ``str``
    collide raise DataValidationError.  The level coded 0 is the reference."""
    coding = {str(k): v for k, v in mapping.items()} if isinstance(mapping, Mapping) else {}
    codes = sorted(v for v in coding.values() if isinstance(v, (int, np.integer)) and not isinstance(v, bool))
    if codes != [0, 1] or len(mapping) != 2:
        raise DataValidationError(f"sensitive_coding must map two distinct levels to the ints 0 and 1, got {mapping!r}")
    return {level: int(code) for level, code in coding.items()}


def _levels(coding) -> tuple:
    """The levels of a valid ``coding``: (the level coded 0, the level coded 1)."""
    return tuple(sorted(coding, key=coding.__getitem__))


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
    log: bool  # packed as the log of the field
    at: np.ndarray  # positions in the packed vector
    span: slice  # the same positions, as a slice


class _Structure(NamedTuple):
    """The packed free-parameter vector of one structure (indicator names,
    covariate names and free-offset mask): ``layout``, its blocks by name in
    packing order; its length ``k``; the parameter ``names``; the
    :class:`_Scatter` of its derivatives; the free-offset mask ``free``; and
    ``head``, the constant lead of the Jacobian source (0, 1 and the rows of
    the identity at the free offsets).  Built once per structure and shared,
    so every array in it is read-only.  The record of a stack of specs, from
    :func:`_stack`, has ``free`` and ``head`` with a leading member axis and
    no ``names``."""

    layout: MappingProxyType
    k: int
    names: tuple | None
    scatter: _Scatter
    free: np.ndarray
    head: np.ndarray

    def members(self, rows) -> "_Structure":
        """The record of a stack's members at ``rows``, in that order."""
        return self._replace(free=self.free[rows], head=self.head[rows])


def _structure(spec: MimicModel) -> _Structure:
    """The :class:`_Structure` of ``spec``: every read of a spec's packed
    structure goes through here."""
    return _structure_of(spec.indicator_names, spec.covariate_names, spec.free_mask.tobytes())


@functools.lru_cache(maxsize=128)
def _structure_of(ind, cov, free_mask) -> _Structure:
    """The :class:`_Structure` of indicators ``ind``, covariates ``cov`` and
    the bytes of the free-offset mask, built once per structure."""
    free = np.frombuffer(free_mask, dtype=np.bool_)
    every = np.arange(len(ind))
    rows = (  # name, field, packed entries, names of the field's entries, log scale
        ("lambda", "loadings", every[1:], ind, False),
        ("nu", "intercepts", every, ind, False),
        ("beta", "struct_coefs", np.arange(len(cov)), cov, False),
        ("gamma", "sens_coef", None, (), False),
        ("delta", "dif_offsets", every[free], ind, False),
        ("log_theta", "resid_vars", every, ind, True),
        ("log_psi", "latent_var", None, (), True),
    )
    layout, names, k = {}, [], 0
    for name, field, index, entries, log in rows:
        size = 1 if index is None else len(index)
        layout[name] = _Block(field, index, log, np.arange(k, k + size), slice(k, k + size))
        names += [name] if index is None else [f"{name}[{entries[i]}]" for i in index]
        k += size
    scatter = _scatter(layout, k, len(ind), len(cov))
    head = np.concatenate([[0.0, 1.0], np.eye(len(ind))[free].ravel()])
    for a in (*(a for b in layout.values() for a in (b.index, b.at)), *scatter, free, head):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return _Structure(MappingProxyType(layout), k, tuple(names), scatter, free, head)


class _Scatter(NamedTuple):
    """Where the entries of the Jacobian and of the curvature of the
    parameter map come from, as positions in a source vector per member;
    they depend only on the layout, so each array is filled by one gather.

    With ``m = (q+2)p + p^2``, ``jac`` gives, for each entry of the (k, m)
    Jacobian ``J = [d vec Bt, d vec Sigma]``, its position in the source
    ``[0, 1, E, x, theta, psi lambda, 2 psi lambda, psi lambda lambda']``,
    where ``E`` is the rows of the identity at the member's free offsets and
    ``x`` is its packed vector, and ``width`` is the source's length.
    ``curv`` gives, for each entry of the (k, k) curvature of the map, its
    position in ``[0, vec G, vec M / 2, psi vec M, psi M lambda, gradient]``.
    """

    jac: np.ndarray
    width: int
    curv: np.ndarray


def _scatter(layout, k, p, q) -> _Scatter:
    """The :class:`_Scatter` of a layout with p indicators and q covariates."""
    lo, th, delta, lpsi = layout["lambda"], layout["log_theta"], layout["delta"], layout["log_psi"]
    r, every, d = q + 2, np.arange(p), len(delta.index)
    # the Jacobian source: 0, 1, E, x, theta, psi lambda, 2 psi lambda, psi lambda lambda'
    rows, x = 2, 2 + d * p
    theta, scaled = x + k, x + k + p
    doubled, outer = scaled + p, scaled + 2 * p
    lam = np.concatenate([[1], x + lo.at])
    bt = np.zeros((k, r, p), dtype=np.intp)  # 0 picks the source's 0
    bt[lo.at, 1 : q + 1, lo.index] = x + layout["beta"].at  # loading x beta
    bt[lo.at, q + 1, lo.index] = x + layout["gamma"].at[0]  # loading x gamma
    bt[layout["nu"].at, 0, layout["nu"].index] = 1
    bt[layout["beta"].at, 1 + layout["beta"].index, :] = lam
    bt[layout["gamma"].at, q + 1, :] = lam
    bt[delta.at, q + 1, :] = rows + np.arange(d * p).reshape(d, p)
    sigma = np.zeros((k, p, p), dtype=np.intp)
    sigma[lo.at, lo.index, :] = scaled + every  # d Sigma / d lambda_a = e_a (psi lambda)' + its transpose
    sigma[lo.at, :, lo.index] = scaled + every
    sigma[lo.at, lo.index, lo.index] = doubled + lo.index
    sigma[th.at, th.index, th.index] = theta + every
    sigma[lpsi.at[0]] = outer + np.arange(p * p).reshape(p, p)
    jac = np.concatenate([bt.reshape(k, -1), sigma.reshape(k, -1)], 1)

    # the curvature: the second derivatives of Bt and Sigma against
    # dll/dBt = G and dll/dSigma = M / 2, on both sides of the diagonal
    g, m = 1, 1 + r * p + p * p  # where G and psi vec M start
    lam_m, grad = m + p * p, m + p * p + p
    fl = lo.index  # the free loadings' indicators
    side = np.zeros((k, k), dtype=np.intp)
    side[np.ix_(lo.at, layout["beta"].at)] = g + (1 + layout["beta"].index) * p + fl[:, None]  # loading x beta
    side[lo.at, layout["gamma"].at[0]] = g + (q + 1) * p + fl  # loading x gamma
    side[lo.at, lpsi.at[0]] = lam_m + fl  # loading x log psi
    curv = side + side.T
    curv[np.ix_(lo.at, lo.at)] = m + fl[:, None] * p + fl  # loading x loading
    logs = np.concatenate([th.at, lpsi.at])
    curv[logs, logs] = grad + logs  # the curvature of exp equals the block's gradient
    return _Scatter(jac, outer + p * p, curv)


def _stack(specs) -> _Structure:
    """The :class:`_Structure` of a sequence of specs with the same names,
    packed length and sensitive coding.  They then differ at most in which
    offsets are free, so every block sits at the same positions: the record
    keeps the ``layout``, ``k`` and ``scatter`` the members share, and
    stacks each member's own ``free`` and ``head``, row b for member b."""
    first, structures = specs[0], [_structure(s) for s in specs]
    shared = (first.indicator_names, first.covariate_names, first.sensitive_coding, structures[0].k)
    for s, st in zip(specs, structures):
        if (s.indicator_names, s.covariate_names, s.sensitive_coding, st.k) != shared:
            raise ValueError("the specs of a stack must share their names and sensitive coding and "
                             "have the same number of free parameters")
    free, head = (np.array([getattr(st, a) for st in structures]) for a in ("free", "head"))
    return structures[0]._replace(names=None, free=free, head=head)


def param_names(model: MimicModel):
    """Names of the free parameters in packing order."""
    return _structure(model).names


def pack(model: MimicModel) -> np.ndarray:
    """Flatten the free parameters into a single vector."""
    return _pack_fields(_structure(model).layout, vars(model))


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
    structure (names, free_mask, coding) of ``spec``.

    The fields come from ``_field_values`` with the structure of a valid
    spec, so the model is built by :meth:`MimicModel._trusted`, which keeps
    every check that values from some ``x`` can fail."""
    x = np.array(x, dtype=np.float64)  # a copy: the model's arrays are views of it
    structure = _structure(spec)
    if x.shape != (structure.k,):
        raise ValueError(f"expected {structure.k} free parameters, got {x.shape}")
    values = _field_values(structure, x)
    for name in _SCALAR_FIELDS:
        values[name] = float(values[name])
    return MimicModel._trusted(
        **values,
        free_mask=spec.free_mask,
        indicator_names=spec.indicator_names,
        covariate_names=spec.covariate_names,
        sensitive_coding=dict(spec.sensitive_coding),
    )


def _field_values(structure, x: np.ndarray) -> dict:
    """The fields the packed vectors ``x`` (..., k) of a :class:`_Structure`
    hold, by name, each with the leading axes of ``x``.
    Entries a packed vector does not hold are the same in every model: the
    first loading is pinned to 1, and the offsets outside the structure's
    ``free`` mask, (..., p), are 0."""
    values, free = {}, structure.free
    for b in structure.layout.values():
        v = x[..., b.at[0] if b.index is None else b.span]
        values[b.field] = np.exp(v) if b.log else v
    lam = np.ones(free.shape)
    lam[..., 1:] = values["loadings"]
    delta = np.zeros(free.shape)
    if values["dif_offsets"].size:
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


def _mean_coefs(values):
    """The conditional mean coefficients: ``values`` maps the MimicModel
    fields to their values, or to stacks of them with a leading member
    axis, and the result is the (q+2) x p matrix
    ``Bt = [nu'; beta lambda'; (gamma lambda + delta)']``, with that leading
    axis, so that the mean of a row is ``[1, x, s] @ Bt``.
    """
    lam, beta = values["loadings"], values["struct_coefs"]
    gamma = np.asarray(values["sens_coef"])
    p, q = lam.shape[-1], beta.shape[-1]
    Bt = np.empty(lam.shape[:-1] + (q + 2, p))
    Bt[..., 0, :] = values["intercepts"]
    Bt[..., 1 : q + 1, :] = beta[..., :, None] * lam[..., None, :]
    Bt[..., q + 1, :] = gamma[..., None] * lam + values["dif_offsets"]
    return Bt


def _precision(values):
    """``P = Sigma^-1`` and ``log|Sigma|`` of the one-factor covariance
    ``Sigma = psi lambda lambda' + diag(theta)`` in closed form, for
    ``values`` as :func:`_mean_coefs` takes them.

    Sigma is diagonal plus rank one.  With ``u = lambda / theta`` and
    ``t_j = psi lambda_j u_j >= 0``, Sherman-Morrison and the matrix
    determinant lemma give ``P = -psi / (1 + sum t) u u'`` off the diagonal,
    ``P_jj = (1 + sum_{k != j} t_k) / (theta_j (1 + sum t))`` on it and
    ``log|Sigma| = sum log theta + log(1 + sum t)``.  No sum has a negative
    term, so nothing cancels next to a Heywood case (one tiny theta_j),
    where ``1 / theta_j - psi u_j^2 / (1 + sum t)`` or ``sum t - t_j``
    would cancel two terms of size ``1 / theta_j``.  The off-diagonal part
    is ``-v v'`` with ``v = u sqrt(psi / (1 + sum t))``: symmetric to the
    bit, and finite where ``u u'`` would overflow.
    """
    lam, theta = values["loadings"], values["resid_vars"]
    psi = np.asarray(values["latent_var"])[..., None]
    p = lam.shape[-1]
    u = lam / theta
    t = psi * lam * u
    total = t.sum(-1, keepdims=True)
    scale = 1.0 + total
    v = u * np.sqrt(psi / scale)
    P = v[..., :, None] * -v[..., None, :]
    P.reshape(lam.shape[:-1] + (p * p,))[..., :: p + 1] = (1.0 + t @ _off_diagonal(p)) / (theta * scale)
    return P, np.log(theta).sum(-1) + np.log1p(total[..., 0])


@functools.lru_cache(maxsize=128)
def _off_diagonal(p: int) -> np.ndarray:
    """``1 - I`` of order p, built once per p and read-only."""
    off = 1.0 - np.eye(p)
    off.flags.writeable = False
    return off


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
    """
    X, s = _check_regressors(model, covariates, sensitive)
    Bt = _mean_coefs(vars(model))
    mu = Bt[0] + _matrix([*X.T, s], len(s)) @ Bt[1:]
    sigma = model.latent_var * np.outer(model.loadings, model.loadings) + np.diag(model.resid_vars)
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
    columns, in that order, the dataset's sensitive coding, a SHA-256
    ``fingerprint`` of all of these and ``szz = sum_i [1, z_i]' [1, z_i]``,
    z = [x, s], the one uncentred block the Hessian reads; those from
    :func:`sample_moments` record none of them.
    """

    n: int
    mean: np.ndarray
    gram: np.ndarray
    columns: tuple | None = None
    fingerprint: str | None = None
    coding: dict | None = None
    szz: np.ndarray | None = None


def _residual_moments(mom: SampleMoments, B, nu=None):
    """Moments of the residuals ``r_i = y_i - nu - B' z_i``, with ``B`` the
    (q+1) x p rows of Bt after nu.  Under the residual map A = [-B; I],
    applied by blocks as ``X A = X_y - X_z B`` and never formed,
    ``r_i - rbar = A' (w_i - wbar)``, so the centred Gram C of w = [z, y]
    is read once, as C A:

        rbar = wbar A - nu,   E = sum_i (z_i - zbar) r_i' = the z rows of C A,
        W = sum_i r_i r_i' = A' C A + n rbar rbar'.

    Returns ``(nu, rbar, E, W)``; ``nu`` None stands for wbar A, the
    intercepts that centre the residuals, so that W / n is their covariance.
    ``B`` and ``nu`` may carry a leading member axis."""
    z = B.shape[-2]
    CA = mom.gram[:, z:] - mom.gram[:, :z] @ B
    wA = mom.mean[z:] - mom.mean[:z] @ B
    nu = wA if nu is None else nu
    rbar = wA - nu
    W = CA[..., z:, :] - B.swapaxes(-1, -2) @ CA[..., :z, :] + mom.n * rbar[..., :, None] * rbar[..., None, :]
    return nu, rbar, CA[..., :z, :], W


def sample_moments(columns) -> SampleMoments:
    """Means and centred Gram matrix of equal-length 1-D columns, built one
    block of rows of :func:`_column_blocks` at a time, centred in place,
    without stacking the columns into one array."""
    n = len(columns[0])
    mean = np.array([np.mean(c) for c in columns])
    gram = np.zeros((len(columns), len(columns)))
    for _, _, block in _column_blocks(columns, n):
        block -= mean
        gram += block.T @ block
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


def _row_blocks(n: int):
    """The row ranges ``(a, b)`` of ``GRAM_CHUNK_ROWS`` rows that cover rows
    0 .. n-1 in order: the one block loop of every row-wise pass that works
    a cache-sized block at a time, the Gram accumulation of
    :func:`sample_moments` included.  The last block is shorter, but never
    one row of several: numpy sends a one-row matmul down another BLAS
    route, which rounds otherwise, so a lone last row joins the block before
    it."""
    stops = [*range(GRAM_CHUNK_ROWS, n - 1, GRAM_CHUNK_ROWS), n] if n else []
    return zip([0, *stops], stops)


def _column_blocks(columns, n: int, out=None):
    """Equal-length columns of ``n`` rows side by side, one block of rows at
    a time: yields ``(a, b, block)`` with ``block`` holding rows a .. b-1 as
    a C-ordered float64 array.  Each block is written while it sits in cache
    rather than one strided column after another.  Given an n x d ``out``,
    the blocks are its rows; otherwise they share one buffer of at most
    ``GRAM_CHUNK_ROWS + 1`` rows, so no more than one block is ever held.
    Every stack of columns in the package is made here."""
    reuse = out is None
    if reuse:
        out = np.empty((min(n, GRAM_CHUNK_ROWS + 1), len(columns)))
    for a, b in _row_blocks(n):
        block = out[: b - a] if reuse else out[a:b]
        for j, col in enumerate(columns):
            block[:, j] = col[a:b]
        yield a, b, block


def _block_products(rows, n: int, coefs):
    """The row blocks of an n-row matrix and their products with ``coefs``:
    yields ``(a, b, block, block[:, :k] @ coefs)``, ``k = len(coefs)``, for
    each range of :func:`_row_blocks`.  ``rows`` is an n x d array, read a
    slice at a time, or d columns, stacked a block at a time by
    :func:`_column_blocks`.  The products share one reused buffer, and each
    row of them is bit for bit that row of ``rows[:, :k] @ coefs``: the one
    blocked product that simulate, the scores, the counterfactual check and
    the factor scores read their rows through."""
    matrix = isinstance(rows, np.ndarray)
    blocks = ((a, b, rows[a:b]) for a, b in _row_blocks(n)) if matrix else _column_blocks(rows, n)
    buffer = np.empty((min(n, GRAM_CHUNK_ROWS + 1), *np.shape(coefs)[1:]))
    for a, b, block in blocks:
        yield a, b, block, np.matmul(block[:, : len(coefs)], coefs, out=buffer[: b - a])


def _matrix(columns, n: int) -> np.ndarray:
    """Equal-length columns of ``n`` rows side by side, as a C-ordered n x d
    float64 matrix filled by :func:`_column_blocks`."""
    out = np.empty((n, len(columns)))
    for _ in _column_blocks(columns, n, out):
        pass
    return out


def data_moments(model: MimicModel, data) -> SampleMoments:
    """Sample moments of the model's covariates, group codes and indicators
    in ``data``, with their column names, the dataset's coding, their
    fingerprint and ``szz``: the one way data reach the likelihood.  Such
    moments given as ``data`` are checked to hold the model's columns and
    coding.

    The likelihood reads the data only through these moments, so their
    digest is what identifies "the same data" for ``lr_test``; it costs
    O(d^2) whatever the number of rows."""
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
    mom = sample_moments([*cov, s, *ind])
    columns = (*model.covariate_names, data.sensitive_name, *model.indicator_names)
    # _columns checked that the model's coding, which holds plain ints, is the data's
    digest = hashlib.sha256(json.dumps([mom.n, columns, model.sensitive_coding], sort_keys=True).encode())
    digest.update(mom.mean.tobytes())
    digest.update(mom.gram.tobytes())
    q = model.n_covariates
    mean1 = np.concatenate([[1.0], mom.mean[: q + 1]])  # the mean of [1, z_i]
    szz = np.outer(mom.n * mean1, mean1)
    szz[1:, 1:] += mom.gram[: q + 1, : q + 1]
    return replace(mom, columns=columns, fingerprint=digest.hexdigest(), coding=dict(data.sensitive_coding), szz=szz)


# ---------------------------------------------------------------------------
# Log-likelihood, gradient and Hessian from the sample moments
#
# The conditional mean is [1, z_i] @ Bt with z_i = [x_i, s_i] and
# Bt = [nu'; beta lambda'; (gamma lambda + delta)'], a (q+2) x p matrix, and
# the covariance is Sigma = psi lambda lambda' + diag(theta).  With
# P = Sigma^-1 and W the residual cross-product of _residual_moments,
#
#   ll = -(n p log 2 pi + n log|Sigma| + tr(P W)) / 2,
#   dll/dBt = F P,  F = sum_i [1, z_i]' r_i',
#   dll/dSigma = M / 2,  M = Q - n P,  Q = P W P,
#
# and the second differential, with szz = sum_i [1, z_i]' [1, z_i], which
# data_moments records with the moments, is
#
#   -tr(P dBt' szz dBt) - 2 tr(F P dSigma P dBt')
#   + n/2 tr(P dSigma P dSigma) - tr(P dSigma Q dSigma).
#
# The gradient and the Hessian map these through the (k, m) Jacobian J of
# (vec Bt, vec Sigma), m = (q+2)p + p^2, with respect to the packed
# parameters: the gradient is J (vec G, vec M / 2) with G = F P.  For
# row-major vec
#
#   vec(X)' (A kron B) vec(Y) = sum(X * (A Y B'))
#
# (Magnus & Neudecker 2019, ch. 2), so each term of the second differential,
# a Kronecker sandwich of the Bt and Sigma parts of J, is one batched matrix
# product over the k Jacobian slices and no Kronecker matrix is formed.  The
# Hessian adds the curvature of the map: loading times beta or gamma in Bt,
# loading times loading or log psi in Sigma, and on each log-scale block the
# curvature of exp, which equals the block's gradient.  J and the curvature
# are one gather each from a short source vector, at positions the layout
# fixes (_Scatter).
#
# Every array may carry a leading member axis: a stack of specs that differ
# only in which offsets are free shares the data and the layout, so one
# batched call evaluates every member by the same formulas, reading each
# member's free mask and Jacobian head from its row of the _stack record.
# ---------------------------------------------------------------------------


def _jacobians(scatter, head, x, values):
    """Derivatives of Bt and of Sigma with respect to every packed
    parameter at the packed vectors ``x``, as the (..., k, m) Jacobian
    ``J = [d vec Bt, d vec Sigma]`` with the leading axes of ``x``, gathered
    from its source vector by the layout's :class:`_Scatter`; ``head`` is
    the constant lead of the source, as :class:`_Structure` holds it, and
    ``values`` the fields at ``x``."""
    lam, theta = values["loadings"], values["resid_vars"]
    lead, k, p, h = x.shape[:-1], x.shape[-1], lam.shape[-1], head.shape[-1]
    scaled = h + k + p  # where psi lambda starts, after head, x and theta
    src = np.empty(lead + (scatter.width,))
    src[..., :h] = head
    src[..., h : h + k] = x
    src[..., h + k : scaled] = theta
    np.multiply(values["latent_var"][..., None], lam, out=src[..., scaled : scaled + p])
    np.multiply(src[..., scaled : scaled + p], 2.0, out=src[..., scaled + p : scaled + 2 * p])
    outer = src[..., scaled + 2 * p :].reshape(lead + (p, p))
    np.multiply(src[..., scaled : scaled + p, None], lam[..., None, :], out=outer)
    return src.take(scatter.jac, -1)


def _second_differential(jb, js, n, szz, G, P, Q):
    """The second differential of the log-likelihood in the packed
    parameters, before the curvature of the parameter map: with ``jb`` and
    ``js`` the Jacobians of Bt and Sigma, (..., k, q+2, p) and (..., k, p, p),

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
    offsets are free, or their :class:`_Structure` from :func:`_stack`,
    which a solve resolves once for all its evaluations, with ``x`` the
    (B, k) stack of their packed vectors; the log-likelihoods (B,),
    gradients (B, k) and Hessians (B, k, k) then come from the same
    formulas, member by member, in one batched product per step.  The
    moments are read through :func:`_residual_moments`, and order 2 also
    reads their ``szz``, which only :func:`data_moments` records.
    """
    structure = spec
    if not isinstance(spec, _Structure):  # a spec, or the specs of a stack
        structure = _structure(spec) if isinstance(spec, MimicModel) else _stack(spec)
    k, scatter = structure.k, structure.scatter
    values = _field_values(structure, x)
    Bt = _mean_coefs(values)
    P, logdet = _precision(values)
    p, q = Bt.shape[-1], Bt.shape[-2] - 2
    r, m = q + 2, (q + 2) * p + p * p
    lead = Bt.shape[:-2]
    n = mom.n
    _, rbar, E, W = _residual_moments(mom, Bt[..., 1:, :], Bt[..., 0, :])
    nr = n * rbar

    ll = -0.5 * (n * (p * LOG_2PI + logdet) + (P * W).sum((-2, -1)))
    if order == 0:
        return ll

    # the curvature source [0, vec G, vec M / 2, psi vec M, psi M lambda,
    # gradient]; its entries 1 .. m are dll / d(vec Bt, vec Sigma)
    cs = np.empty(lead + (1 + m + p * p + p + k,))
    cs[..., 0] = 0.0
    F = np.empty(Bt.shape)
    F[..., 0, :] = nr
    np.add(mom.mean[: q + 1, None] * nr[..., None, :], E, out=F[..., 1:, :])
    G = np.matmul(F, P, out=cs[..., 1 : 1 + r * p].reshape(lead + (r, p)))
    Q = P @ W @ P
    half = cs[..., 1 + r * p : 1 + m].reshape(lead + (p, p))  # M / 2, M = (Q + Q') / 2 - n P
    np.add(Q, Q.swapaxes(-1, -2), out=half)
    half *= 0.25
    half -= (0.5 * n) * P
    J = _jacobians(scatter, structure.head, x, values)
    grad = (J @ cs[..., 1 : 1 + m, None])[..., 0]
    if order == 1:
        return ll, grad

    lam, two_psi = values["loadings"], 2.0 * values["latent_var"]
    pm = 1 + m  # where psi vec M starts
    np.multiply(two_psi[..., None, None], half, out=cs[..., pm : pm + p * p].reshape(lead + (p, p)))
    np.multiply(two_psi[..., None], (half @ lam[..., None])[..., 0], out=cs[..., pm + p * p : pm + p * p + p])
    cs[..., pm + p * p + p :] = grad
    jb = J[..., : r * p].reshape(lead + (k, r, p))
    js = J[..., r * p :].reshape(lead + (k, p, p))
    hess = _second_differential(jb, js, n, mom.szz, G, P, Q)
    hess += hess.swapaxes(-1, -2)
    hess *= 0.5
    hess += cs.take(scatter.curv, -1)
    return ll, grad, hess


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

"""Dataset ingestion, transforms, splitting, and the synthetic generator.

A :class:`Dataset` is a column-major table in which every column carries a
role: ``indicator`` (error-prone proxy of the latent target), ``covariate``,
``sensitive`` (exactly one, binary), ``id`` or ``ignore``.  Indicator and
covariate columns are float64.  Text columns read from disk (sensitive, id,
ignore) keep the text that was read, so CSV round trips are exact.  A
simulated table's ids are its row numbers as int64, which print as that
same text: ``0`` .. ``n-1``.
"""

from __future__ import annotations

import csv
import itertools
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._special import ndtri
from .exceptions import DataValidationError
from .model import MimicModel, _block_products, _coding, _levels, _matrix, to_json

ROLES = ("indicator", "covariate", "sensitive", "id", "ignore")

_NUMERIC_ROLES = ("indicator", "covariate")

# The keys of a role config; the last two are the CLI's transforms.
ROLE_CONFIG_KEYS = ("roles", "sensitive_coding", "log_scale", "log1p", "standardize")


@dataclass(frozen=True)
class Dataset:
    """Column-role-tagged table.

    ``values`` maps column name to a numpy array: float64 for indicator and
    covariate columns; for sensitive, id and ignore columns read from disk,
    an object array of the text read.  The ids of a table from
    :func:`simulate` are int64 row numbers, written as the same text.
    ``sensitive_coding`` maps the two sensitive labels to {0, 1}.

    The sensitive column is coded once, at construction, by
    :func:`group_codes`.  The dataset keeps a read-only copy of the labels
    as a :class:`Labels` that carries that coding, so the stored codes
    cannot go stale and :func:`group_codes` hands the coding back when given
    :meth:`sensitive_labels`; the caller's array stays writeable.  Labels
    that already carry a coding are kept as they are.
    """

    column_order: tuple
    roles: dict
    values: dict
    sensitive_coding: dict
    log_scale: frozenset = frozenset()
    _codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "column_order", tuple(self.column_order))
        object.__setattr__(self, "log_scale", frozenset(self.log_scale))
        object.__setattr__(self, "sensitive_coding", _coding(self.sensitive_coding))
        _validate_dataset(self)
        name = self.sensitive_name
        labels = _coded_labels(self.values[name])
        levels, index = labels.groups
        missing = [v for v in levels if v not in self.sensitive_coding]
        if missing:
            raise DataValidationError(f"sensitive labels without a code: {missing}")
        codes = np.array([self.sensitive_coding[v] for v in levels], dtype=np.float64)[index]
        codes.flags.writeable = False
        object.__setattr__(self, "values", {**self.values, name: labels})
        object.__setattr__(self, "_codes", codes)

    @property
    def n(self) -> int:
        return len(next(iter(self.values.values())))

    @property
    def indicator_names(self):
        return tuple(c for c in self.column_order if self.roles[c] == "indicator")

    @property
    def covariate_names(self):
        return tuple(c for c in self.column_order if self.roles[c] == "covariate")

    @property
    def sensitive_name(self) -> str:
        return next(c for c in self.column_order if self.roles[c] == "sensitive")

    @property
    def id_name(self):
        for c in self.column_order:
            if self.roles[c] == "id":
                return c
        return None

    def column(self, name: str) -> np.ndarray:
        return self.values[name]

    def covariate_matrix(self, names=None) -> np.ndarray:
        names = self.covariate_names if names is None else names
        return _matrix(self.role_columns(names, "covariate"), self.n)

    def role_columns(self, names, role) -> list:
        """The named columns, not copied, each checked to have ``role``."""
        for c in names:
            if self.roles.get(c) != role:
                article = "an" if role[0] in "aeiou" else "a"
                raise DataValidationError(f"column {c!r} is not {article} {role} column")
        return [self.values[c] for c in names]

    def sensitive_labels(self) -> "Labels":
        """The sensitive column, read-only, carrying its coding."""
        return self.values[self.sensitive_name]

    def sensitive_codes(self) -> np.ndarray:
        """Each row's sensitive code as float64, read-only."""
        return self._codes

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in that order.  The sensitive column
        carries the parent's coding over, compacted to the levels still
        present, so no label is coded afresh; a level keeps the parent's
        name for it.  A boolean mask raises ValueError: pass
        ``np.flatnonzero(mask)``."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            raise ValueError("subset takes row numbers, not a boolean mask; pass np.flatnonzero(mask)")
        indices = indices.astype(np.intp, copy=False)
        labels = self.sensitive_labels()
        levels, index = labels.groups
        carried = _labels_with_codes(np.asarray(labels)[indices], levels, index[indices])
        values = {c: carried if v is labels else v[indices] for c, v in self.values.items()}
        return replace(self, values=values)

    def replace_columns(self, new_values: dict, log_scale=None) -> "Dataset":
        """A copy with the columns named in ``new_values`` replaced and, given
        ``log_scale``, that set of log-scale columns; a name that is not a
        column raises DataValidationError."""
        unknown = sorted(set(new_values) - set(self.values))
        if unknown:
            raise DataValidationError(f"no column named {', '.join(map(repr, unknown))} to replace")
        values = {c: new_values.get(c, v) for c, v in self.values.items()}
        return replace(self, values=values, log_scale=self.log_scale if log_scale is None else log_scale)


def _validate_dataset(ds: Dataset):
    repeated = _repeated(ds.column_order)
    if repeated:
        raise DataValidationError(f"column_order repeats column names: {repeated}")
    missing, extra = sorted(set(ds.column_order) - set(ds.values)), sorted(set(ds.values) - set(ds.column_order))
    if missing or extra:
        raise DataValidationError(f"values must hold exactly the table columns: missing {missing}, extra {extra}")
    if set(ds.roles) != set(ds.column_order):
        raise DataValidationError("roles must cover exactly the table columns")
    for c, r in ds.roles.items():
        if r not in ROLES:
            raise DataValidationError(f"unknown role {r!r} for column {c!r}")
    lengths = {len(v) for v in ds.values.values()}
    if len(lengths) != 1:
        raise DataValidationError("all columns must have the same length")
    sens = [c for c in ds.column_order if ds.roles[c] == "sensitive"]
    if len(sens) != 1:
        raise DataValidationError(f"need exactly one sensitive column, got {len(sens)}")
    if len(ds.indicator_names) < 2:
        raise DataValidationError(
            "a measurement model needs at least 2 indicator columns"
        )
    not_indicators = sorted(ds.log_scale - set(ds.indicator_names))
    if not_indicators:
        raise DataValidationError(f"log_scale names columns that are not indicators: {not_indicators}")
    for c in ds.column_order:
        if ds.roles[c] in _NUMERIC_ROLES:
            col = ds.values[c]
            if col.dtype != np.float64:
                raise DataValidationError(f"column {c!r} must be float64")
            if not np.all(np.isfinite(col)):
                raise DataValidationError(f"column {c!r} has non-finite values")


class Labels(np.ndarray):
    """A dataset's read-only sensitive column, carrying its coding.

    ``groups`` is the ``(levels, index)`` pair :func:`group_codes` gives
    for this very array, set on a view of a read-only array, which cannot
    be made writeable again.  :class:`Dataset` codes its own read-only copy
    of the labels it is given; :func:`simulate` and :meth:`Dataset.subset`
    hand over labels that already carry their coding, built from the group
    code of each row they know (:func:`_labels_with_codes`).  Every array
    derived from it (a slice, a copy, a comparison) has ``groups`` None and
    is coded afresh.
    """

    def __array_finalize__(self, obj):
        self.groups = None


def _coded_labels(values) -> Labels:
    """``values`` as a read-only :class:`Labels` carrying its coding: the
    array itself when it carries one, else a read-only copy.  Either way
    the coding comes from :func:`group_codes`, which hands a carried one
    back without a pass."""
    labels = values
    if not isinstance(labels, Labels) or labels.groups is None:
        labels = np.array(values)
        labels.flags.writeable = False  # before the view, so it stays read-only
        labels = labels.view(Labels)
    labels.groups = group_codes(labels)
    return labels


def _labels_with_codes(labels, names, index) -> Labels:
    """The fresh array ``labels``, made read-only, as a :class:`Labels`
    carrying its coding, where row i is known to hold level
    ``names[index[i]]`` of the distinct ``str`` ``names``: the levels
    present, sorted, and each row's index into them, the pair
    :func:`group_codes` gives, from one count of ``index`` and no pass over
    the labels.  ``index`` is a fresh intp array."""
    present = np.flatnonzero(np.bincount(index, minlength=len(names))).tolist()
    order = sorted(present, key=names.__getitem__)
    if order != list(range(len(names))):
        remap = np.zeros(len(names), dtype=np.intp)
        remap[order] = np.arange(len(order))
        index = remap[index]
    index.flags.writeable = False
    labels.flags.writeable = False  # before the view, so it stays read-only
    labels = labels.view(Labels)
    labels.groups = tuple(names[i] for i in order), index
    return labels


def group_codes(labels):
    """Sorted distinct labels as ``str`` and each row's index into them.

    One pass in C maps every row through a dict to the first row holding an
    equal value; ``str`` is then applied once per distinct value, to that
    row's element as the array holds it.  Values that compare equal (0.0 and
    -0.0, 1 and True) share one group.  This is the package's one coder of
    group labels: :class:`Dataset`, ``load_csv``, ``score.as_codes`` and the
    audit functions all go through it.  A dataset's
    :meth:`~Dataset.sensitive_labels` carry their coding, which is returned
    without a pass.  The result is shared, so it is immutable: ``levels`` is
    a tuple and ``index`` is read-only.
    """
    if isinstance(labels, Labels) and labels.groups is not None:
        return labels.groups
    arr = np.asarray(labels)
    n = len(arr)
    first = {}
    first_row = np.fromiter(
        map(first.setdefault, arr.tolist(), itertools.count()), dtype=np.intp, count=n
    )
    rows = list(first.values())
    names = [str(arr[i]) for i in rows]
    levels = tuple(sorted(set(names)))
    index = {name: i for i, name in enumerate(levels)}
    code = np.empty(n, dtype=np.intp)
    code[rows] = [index[name] for name in names]
    code = code[first_row]
    code.flags.writeable = False
    return levels, code


# ---------------------------------------------------------------------------
# CSV in/out
# ---------------------------------------------------------------------------

CSV_BLOCK_ROWS = 4096
"""Rows formatted and written at a time by :func:`write_table`."""

SCAN_CHUNK_BYTES = 1 << 16
"""Bytes per chunk when a file is checked for what only the csv module reads right."""

_CSV_SPECIAL = (",", '"', "\r", "\n")


def read_table(path, dtypes_of):
    """Read a headered CSV into one array per column; returns
    ``(header, columns)``.

    ``dtypes_of(header)`` gives each column's dtype (``np.float64``,
    ``np.int64`` or ``object`` for text) and may raise to reject the header.
    A header that repeats a name raises DataValidationError, since the
    columns are keyed by name.  A leading UTF-8 byte-order mark is dropped.
    The rows are tokenized and parsed in C by one ``np.loadtxt`` pass, whose
    quoting and line-end rules are the csv module's and whose number parse
    is correctly rounded.  A file it would read differently or rejects (a
    blank line, a ragged row, an empty or unparsable cell) is read row by
    row with the csv module instead, which loads it or names the first bad
    row or cell.
    """
    fast = not _tokenized_differently(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(iter(fh.readline, "")), None)
        if header is None:
            raise DataValidationError(f"{path}: empty file, header row required")
        repeated = _repeated(header)
        if repeated:
            raise DataValidationError(f"{path}: header repeats column names: {repeated}")
        dtypes = [np.dtype(t) for t in dtypes_of(header)]
        body = fh.tell()
        if fast and fh.read(1):
            fh.seek(body)
            columns = _loadtxt_columns(fh, dtypes)
            if columns is not None:
                return header, columns
        fh.seek(body)
        rows = list(csv.reader(fh))
    return header, _row_columns(path, header, rows, dtypes)


def _repeated(names) -> list:
    """The names that occur more than once, sorted."""
    return sorted({c for c in names if names.count(c) > 1})


def _tokenized_differently(path) -> bool:
    """Whether the file holds bytes that numpy's C tokenizer reads otherwise
    than the csv module: a blank line, that is two line breaks in a row
    other than CR LF (loadtxt skips it, csv.reader returns an empty row), or
    an ASCII separator 0x1c-0x1f (numpy's number parsers skip it as
    whitespace, float() and int() reject it).  Inside a quoted field both
    are legitimate; such a file just takes the csv-module path."""
    prev = np.zeros(1, dtype=np.uint8)
    with open(path, "rb") as fh:
        while chunk := fh.read(SCAN_CHUNK_BYTES):
            b = np.concatenate([prev, np.frombuffer(chunk, dtype=np.uint8)])
            lf, cr = b == 10, b == 13
            if ((lf[:-1] & (lf[1:] | cr[1:])) | (cr[:-1] & cr[1:])).any():
                return True
            if ((b >= 0x1C) & (b <= 0x1F)).any():
                return True
            prev = b[-1:]
    return False


def _loadtxt_columns(fh, dtypes):
    """The rows after the header as columns, or None where the csv module
    must decide: loadtxt rejects the file, or a text cell is empty."""
    dtype = np.dtype([(f"f{j}", t) for j, t in enumerate(dtypes)])
    try:
        table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    columns = [np.ascontiguousarray(table[name]) for name in dtype.names]
    if any(col.dtype == object and (col == "").any() for col in columns):
        return None
    return columns


def _row_columns(path, header, rows, dtypes) -> list:
    """Columns from csv-module rows; raises on a ragged row, an empty cell
    or a cell its column's dtype cannot parse."""
    n = len(rows)
    bad = [i for i, row in enumerate(rows) if len(row) != len(header) or "" in row]
    if bad:
        i = bad[0]
        row = rows[i]
        if len(row) != len(header):
            detail = f"row {i + 2} has {len(row)} fields, expected {len(header)}"
        else:
            col = header[row.index("")]
            detail = f"row {i + 2}, column {col!r} is empty"
        raise DataValidationError(
            f"{path}: {detail}; {len(bad)} of {n} rows have missing values"
        )

    columns = []
    for j, (name, dtype) in enumerate(zip(header, dtypes)):
        raw = [row[j] for row in rows]
        if dtype == object:
            columns.append(np.array(raw, dtype=object))
            continue
        parse = float if dtype.kind == "f" else int
        try:
            columns.append(np.array([parse(v) for v in raw], dtype=dtype))
        except ValueError:
            offender = next(v for v in raw if not _parses(parse, v))
            raise DataValidationError(
                f"{path}: column {name!r} has non-numeric cell {offender!r}"
            ) from None
    return columns


def _parses(parse, v: str) -> bool:
    try:
        parse(v)
        return True
    except ValueError:
        return False


def write_table(path, header, columns) -> None:
    """Write columns under a header row, byte for byte as ``csv.writer``
    does: CRLF line ends, and a field quoted (inner quotes doubled) only when
    it holds a comma, a quote, CR or LF.

    A float64 array is written as the shortest round-trip ``repr`` of each
    value, so :func:`read_table` gives back the same bits; any other column
    as the ``str`` of each value.  Rows are formatted and written
    ``CSV_BLOCK_ROWS`` at a time, so the text held in memory does not grow
    with the number of rows.  Columns of unequal length, or a column count
    other than the header's, raise ValueError.
    """
    lengths = [len(col) for col in columns]
    if len(lengths) != len(header) or len(set(lengths)) != 1:
        raise ValueError(f"need one column per header name, all of one length: {len(header)} names, lengths {lengths}")
    n = lengths[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_lines([_csv_fields([name]) for name in header]))
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            fh.write(_csv_lines([_csv_fields(col[start:stop]) for col in columns]))


def _csv_fields(col) -> list:
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return list(map(float.__repr__, col.tolist()))
        if col.dtype.kind in "biuOU":
            col = col.tolist()  # Python scalars print as their numpy ones do
    fields = list(map(str, col))
    text = "".join(fields)
    if any(c in text for c in _CSV_SPECIAL):
        fields = [_quoted(f) for f in fields]
    return fields


def _quoted(field: str) -> str:
    if any(c in field for c in _CSV_SPECIAL):
        return '"' + field.replace('"', '""') + '"'
    return field


def _csv_lines(columns) -> str:
    if len(columns) == 1:
        # a lone empty field is quoted, or the row would read as blank
        columns = [['""' if f == "" else f for f in columns[0]]]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def load_csv(path, role_config: dict) -> Dataset:
    """Read a headered CSV into a validated :class:`Dataset`.

    ``role_config`` is a mapping with a required ``"roles"`` entry
    (column name -> role) and optional ``"sensitive_coding"`` (the sorted
    labels coded 0 and 1 when absent) and ``"log_scale"`` (indicator
    names) entries; any key not in :data:`ROLE_CONFIG_KEYS` raises
    DataValidationError.  Every column in the file must be assigned a
    role.  Rows with missing cells are rejected: the error names the first
    offending row and column and reports how many rows are affected.
    """
    unknown = sorted(set(role_config) - set(ROLE_CONFIG_KEYS))
    if unknown:
        raise DataValidationError(f"role config has unknown keys {unknown}; its keys are {list(ROLE_CONFIG_KEYS)}")
    if "roles" not in role_config:
        raise DataValidationError("role config has no 'roles' entry")
    roles = dict(role_config["roles"])

    def dtypes_of(header):
        unknown = set(roles) - set(header)
        if unknown:
            raise DataValidationError(f"role_config names unknown columns: {sorted(unknown)}")
        unassigned = set(header) - set(roles)
        if unassigned:
            raise DataValidationError(f"columns without a role: {sorted(unassigned)}")
        return [np.float64 if roles[c] in _NUMERIC_ROLES else object for c in header]

    header, columns = read_table(path, dtypes_of)
    values = dict(zip(header, columns))

    sens_cols = [c for c in header if roles[c] == "sensitive"]
    if len(sens_cols) != 1:
        raise DataValidationError(f"need exactly one sensitive column, got {len(sens_cols)}")
    labels = _coded_labels(values[sens_cols[0]])
    values[sens_cols[0]] = labels
    levels = labels.groups[0]
    if len(levels) != 2:
        raise DataValidationError(
            f"sensitive column {sens_cols[0]!r} must have exactly 2 levels, got {list(levels)}"
        )
    coding = role_config.get("sensitive_coding")
    if coding is None:
        coding = {levels[0]: 0, levels[1]: 1}

    return Dataset(
        column_order=tuple(header),
        roles=roles,
        values=values,
        sensitive_coding=coding,
        log_scale=frozenset(role_config.get("log_scale", ())),
    )


def write_csv(data: Dataset, path) -> None:
    """Write the dataset as RFC-4180 CSV; floats use shortest round-trip
    formatting so that load_csv reproduces them bit-exactly."""
    write_table(path, data.column_order, [data.values[c] for c in data.column_order])


def role_config_of(data: Dataset) -> dict:
    return {
        "roles": {c: data.roles[c] for c in data.column_order},
        "sensitive_coding": dict(data.sensitive_coding),
        "log_scale": sorted(data.log_scale),
    }


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class Standardization(NamedTuple):
    """The statistics a column is standardized with: ``(x - mean) / std``."""

    mean: float
    std: float


@dataclass(frozen=True)
class TransformRecord:
    """Frozen transform statistics, fitted on the training split and reused
    verbatim on any later split (no leakage of test statistics)."""

    log1p: tuple
    standardize: dict  # column -> Standardization

    def apply(self, data: Dataset) -> Dataset:
        """``data`` with the recorded transform applied; ``data`` itself
        when the record is empty."""
        if not (self.log1p or self.standardize):
            return data
        missing = [c for c in (*self.log1p, *self.standardize) if c not in data.values]
        if missing:
            raise DataValidationError(f"transform record names absent columns: {missing}")
        new = {}
        for c in self.log1p:
            col = data.values[c]
            if np.any(col < 0):
                raise DataValidationError(f"column {c!r} has negative values, cannot log1p")
            new[c] = np.log1p(col)
        for c, (mean, std) in self.standardize.items():
            base = new.get(c, data.values[c])
            new[c] = (base - mean) / std
        flags = data.log_scale | {c for c in self.log1p if data.roles[c] == "indicator"}
        return data.replace_columns(new, log_scale=flags)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TransformRecord":
        return cls(
            log1p=tuple(d.get("log1p", ())),
            standardize={
                c: Standardization(v["mean"], v["std"])
                for c, v in d.get("standardize", {}).items()
            },
        )


def transform(data: Dataset, log1p=(), standardize=()):
    """Apply ln(1+x) and standardization, recording the statistics.

    Returns ``(transformed, record)``.  Standardization statistics are
    computed after :meth:`TransformRecord.apply`'s log1p step; apply
    ``record`` to a test split instead of calling transform on it.
    """
    log1p, standardize = tuple(log1p), tuple(standardize)
    for c in log1p + standardize:
        if data.roles.get(c) not in _NUMERIC_ROLES:
            raise DataValidationError(f"cannot transform non-numeric column {c!r}")
    logged = TransformRecord(log1p, {}).apply(data)
    stats = {}
    for c in standardize:
        col = logged.values[c]
        std = float(col.std(ddof=0))
        if std == 0.0:
            raise DataValidationError(f"column {c!r} is constant, cannot standardize")
        stats[c] = Standardization(float(col.mean()), std)
    record = TransformRecord(log1p=log1p, standardize=stats)
    return TransformRecord((), stats).apply(logged), record


# ---------------------------------------------------------------------------
# Train/test split
# ---------------------------------------------------------------------------


def split(data: Dataset, train_frac: float, seed: int):
    """Seeded disjoint row partition into (train, test)."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be strictly between 0 and 1")
    n = data.n
    # floor of frac*n; the nudge keeps products like 0.7*n from rounding
    # down one row when the float product lands just below an integer
    k = int(train_frac * n + 1e-9)
    if k == 0 or k == n:
        raise ValueError(f"split of {n} rows at {train_frac} leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:k])
    test_idx = np.sort(perm[k:])
    return data.subset(train_idx), data.subset(test_idx)


# ---------------------------------------------------------------------------
# Synthetic data generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """Specification for the synthetic-data harness.

    The generating process matches the MIMIC model: group membership is
    Bernoulli(group_prob), covariates are standard normal, the latent is the
    structural equation plus N(0, psi) noise, and indicators add loadings,
    dif offsets and N(0, theta_j) noise.

    Two optional realism knobs (both default to "off") extend the base
    process for fairness-audit studies:

    * ``group_shift``: per-covariate mean shift added for rows with group
      code 1, inducing the covariate/group correlation seen in observational
      data.
    * ``cross_loadings``: p x q matrix of direct covariate-to-indicator
      effects bypassing the latent variable (proxy-idiosyncratic structure).
    """

    n: int
    model: MimicModel
    group_prob: float
    seed: int
    group_shift: np.ndarray | None = None
    cross_loadings: np.ndarray | None = None
    sensitive_column: str = "group"
    id_column: str = "id"

    SCHEMA_VERSION = 1

    def __post_init__(self):
        if not 0.0 < self.group_prob < 1.0:
            raise ValueError("group_prob must be strictly between 0 and 1")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.group_shift is not None:
            gs = np.asarray(self.group_shift, dtype=np.float64)
            if gs.shape != (self.model.n_covariates,):
                raise ValueError("group_shift must have one entry per covariate")
            object.__setattr__(self, "group_shift", gs)
        if self.cross_loadings is not None:
            cl = np.asarray(self.cross_loadings, dtype=np.float64)
            if cl.shape != (self.model.n_indicators, self.model.n_covariates):
                raise ValueError("cross_loadings must be p x q")
            object.__setattr__(self, "cross_loadings", cl)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimSpec":
        return cls(
            n=d["n"],
            model=MimicModel.from_dict(d["model"]),
            group_prob=d["group_prob"],
            seed=d["seed"],
            group_shift=d.get("group_shift"),
            cross_loadings=d.get("cross_loadings"),
            sensitive_column=d.get("sensitive_column", "group"),
            id_column=d.get("id_column", "id"),
        )


# Entries that _gauss draws and transforms at a time: the quantile's
# temporaries stay in cache, and a large draw holds no full-size uniforms.
GAUSS_BLOCK = 1 << 14


def _gauss(rng, size):
    # Inverse-CDF transform of 53-bit uniforms from PCG64.  The uniforms are
    # (k + 0.5) * 2^-53 with k drawn as integers, so they lie strictly inside
    # (0, 1) and the output stream is reproducible bit-for-bit from the seed.
    # Successive integer draws continue one stream, so drawing block by
    # block gives the same values as one draw of every entry.  The uniforms
    # of every block share one buffer, and the quantile is written straight
    # into the output.
    out = np.empty(size)
    flat = out.reshape(-1)
    u = np.empty(min(GAUSS_BLOCK, flat.size))
    for a in range(0, flat.size, GAUSS_BLOCK):
        b = min(a + GAUSS_BLOCK, flat.size)
        block = u[: b - a]
        np.add(rng.integers(0, 1 << 53, size=b - a), 0.5, out=block)
        block *= 2.0**-53
        ndtri(block, out=flat[a:b])
    return out


def simulate(spec: SimSpec):
    """Draw a dataset from the generating model.

    Returns ``(dataset, latent)`` with the true latent value per row.  Draw
    order is fixed (group, the covariates row by row, the latent noise, the
    indicator noise row by row) so a given seed always produces the
    identical table.  The normal stream is drawn ``GAUSS_BLOCK`` entries at
    a time by :func:`_gauss`, and each block goes straight into the table's
    columns and the latent array, so the draw holds one block beyond the
    table it returns.  The sensitive column is handed to :class:`Dataset`
    with its coding, since each row's group code is known.
    """
    model = spec.model
    n, p, q = spec.n, model.n_indicators, model.n_covariates
    rng = np.random.default_rng(spec.seed)

    drawn = rng.random(n) < spec.group_prob
    s = drawn.astype(np.float64)
    X = [np.empty(n) for _ in range(q)]
    Y = [np.empty(n) for _ in range(p)]
    eta = np.empty(n)
    sd_latent, sd_resid = np.sqrt(model.latent_var), np.sqrt(model.resid_vars)
    latent_at, total = n * q, n * (q + 1 + p)  # where the latent and the indicator noise start
    structural = False
    for a in range(0, total, GAUSS_BLOCK):
        z = _gauss(rng, min(GAUSS_BLOCK, total - a))
        for j, r0, r1, x in _segment(z, a, 0, q, n):
            X[j][r0:r1] = x
            if spec.group_shift is not None:
                X[j][r0:r1] += s[r0:r1] * spec.group_shift[j]
        if not structural and a + z.size >= latent_at:  # every covariate is drawn
            for r0, r1, _, xb in _block_products(X, n, model.struct_coefs):
                eta[r0:r1] = xb
                eta[r0:r1] += model.sens_coef * s[r0:r1]
            structural = True
        for _, r0, r1, zeta in _segment(z, a, latent_at, 1, n):
            eta[r0:r1] += sd_latent * zeta
        for j, r0, r1, eps in _segment(z, a, latent_at + n, p, n):
            y = Y[j][r0:r1]
            y[:] = model.intercepts[j] + eta[r0:r1] * model.loadings[j]
            y += s[r0:r1] * model.dif_offsets[j]
            y += eps * sd_resid[j]
    if spec.cross_loadings is not None:
        for r0, r1, _, direct in _block_products(X, n, spec.cross_loadings.T):
            for j, y in enumerate(Y):
                y[r0:r1] += direct[:, j]

    levels, code = _levels(model.sensitive_coding), drawn.astype(np.intp)
    labels = _labels_with_codes(np.array(levels, dtype=object)[code], levels, code)

    column_order = (
        (spec.id_column, spec.sensitive_column)
        + tuple(model.covariate_names)
        + tuple(model.indicator_names)
    )
    roles = {spec.id_column: "id", spec.sensitive_column: "sensitive"}
    roles.update({c: "covariate" for c in model.covariate_names})
    roles.update({c: "indicator" for c in model.indicator_names})
    values = {
        spec.id_column: np.arange(n, dtype=np.int64),
        spec.sensitive_column: labels,
        **dict(zip(model.covariate_names, X)),
        **dict(zip(model.indicator_names, Y)),
    }
    dataset = Dataset(
        column_order=column_order,
        roles=roles,
        values=values,
        sensitive_coding=dict(model.sensitive_coding),
    )
    return dataset, eta


def _segment(z, a, start, width, n):
    """Where the stream entries ``a .. a + len(z) - 1``, held in ``z``, go
    in the segment of the stream that starts at entry ``start`` and holds an
    n x ``width`` matrix row by row: yields ``(j, r0, r1, piece)`` for each
    column j the block reaches, ``piece`` being the strided view of ``z``
    that holds that column's rows r0 .. r1-1."""
    lo = max(a, start) - start
    hi = min(a + len(z), start + n * width) - start
    for j in range(width):
        first = lo + (j - lo) % width
        if first < hi:
            piece = z[first + start - a : hi + start - a : width]
            r0 = first // width
            yield j, r0, r0 + len(piece), piece

"""Mixed tabular data ingestion and sorted per-column views.

A :class:`MixedDataset` holds discrete columns as integer codes in
``1..cardinality`` and continuous columns as floats.  Rows containing any
missing cell are dropped at load time and the drop count is recorded.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ValidationError

MISSING_TOKENS = {"", "?", "NA", "NaN", "nan", "na"}

#: discrete cardinalities above this trigger a warning (joint instantiation
#: tables grow multiplicatively with neighbor cardinalities)
MAX_CARDINALITY_WARNING = 20

#: an inferred column is discrete only if it has at most this many levels
MAX_DISCRETE_LEVELS = 20

KINDS = ("continuous", "discrete")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "continuous" | "discrete"
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown variable kind {self.kind!r}")


@dataclass
class MixedDataset:
    """Rows of mixed continuous/discrete cells with provenance."""

    variables: list[Variable]
    columns: dict[str, np.ndarray]
    source: str = "<memory>"
    n_dropped: int = 0
    label_maps: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ValidationError(f"no variable named {name!r}")

    def is_continuous(self, name: str) -> bool:
        return self.variable(name).kind == "continuous"

    def continuous_names(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == "continuous"]

    def subset_rows(self, idx: np.ndarray) -> "MixedDataset":
        cols = {k: v[idx] for k, v in self.columns.items()}
        return MixedDataset(self.variables, cols, source=self.source,
                            n_dropped=self.n_dropped, label_maps=self.label_maps)


@dataclass(frozen=True)
class DiscreteDataset:
    """Fully discrete image of a dataset, valid by construction: columns of
    unequal length or a code outside ``1..cardinality`` raise when it is made."""

    columns: dict[str, np.ndarray]
    cardinalities: dict[str, int]

    def __post_init__(self):
        n = self.n_rows if self.columns else 0
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValidationError(f"column {name!r} has {len(col)} rows, not {n}")
        if n:  # one stacked min and max: this runs on every replace_column
            codes = np.array(list(self.columns.values()))
            for name, lo, hi in zip(self.columns, codes.min(axis=1).tolist(),
                                    codes.max(axis=1).tolist()):
                card = self.cardinalities[name]
                if lo < 1 or hi > card:
                    raise ValidationError(f"column {name!r} has values outside 1..{card}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def replace_column(self, name: str, values: np.ndarray, cardinality: int) -> "DiscreteDataset":
        return DiscreteDataset({**self.columns, name: values},
                               {**self.cardinalities, name: cardinality})


@dataclass(frozen=True)
class SortedColumn:
    """One continuous column sorted ascending with unique-value bookkeeping.

    ``last_occurrence`` holds 1-based indices into ``values``: the position of
    the final occurrence of each unique value.  ``permutation[p]`` is the
    original row index of sorted position ``p``.
    """

    values: np.ndarray
    uniques: np.ndarray
    last_occurrence: np.ndarray
    permutation: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.uniques)


def _check_schema(columns, where: str) -> None:
    """A schema's ``columns`` list must not be empty, and every entry needs a
    unique string ``name`` and a ``kind`` of ``"continuous"`` or
    ``"discrete"``; anything else is a :class:`DataError` that starts with
    ``where``."""
    if not columns:
        raise DataError(f"{where}: 'columns' is empty")
    seen = set()
    for i, c in enumerate(columns):
        if not isinstance(c, dict) or not isinstance(c.get("name"), str) or "kind" not in c:
            raise DataError(f"{where}: column {i + 1} needs a 'name' and a 'kind'")
        if c["kind"] not in KINDS:
            raise DataError(f"{where}: column {c['name']!r} has unknown kind "
                            f"{c['kind']!r}, expected one of {KINDS}")
        if c["name"] in seen:
            raise DataError(f"{where}: column {c['name']!r} is listed twice")
        seen.add(c["name"])


def load_schema(path: str) -> list[dict]:
    """The ``columns`` list of a schema file, checked by :func:`_check_schema`."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:  # also UnicodeDecodeError
        raise DataError(f"schema {path}: not valid JSON ({e})")
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise DataError(f"schema {path}: missing 'columns'")
    _check_schema(doc["columns"], f"schema {path}")
    return doc["columns"]


def infer_schema(header: list[str], rows: list[list[str]]) -> list[dict]:
    """Heuristic: a column is discrete iff it has a non-numeric cell (a
    label), or at most :data:`MAX_DISCRETE_LEVELS` distinct values that are
    all integral."""
    cols = []
    for j, name in enumerate(header):
        cells = [r[j] for r in rows if r[j] not in MISSING_TOKENS]
        try:
            values = [float(c) for c in cells]
        except ValueError:  # categorical labels, however many
            kind = "discrete"
        else:
            few = len(set(cells)) <= MAX_DISCRETE_LEVELS
            integral = all(x.is_integer() for x in values)
            kind = "discrete" if few and integral else "continuous"
        cols.append({"name": name, "kind": kind})
    return cols


def load_csv(path: str, schema: list[dict] | None = None) -> MixedDataset:
    """Read a headered CSV, drop incomplete rows, and code discrete columns.

    A given ``schema`` is checked like a schema file (:func:`_check_schema`);
    without one, column kinds are inferred from the cells.

    Categorical labels are mapped to ``1..cardinality`` in lexicographic label
    order; the mapping is recorded in ``label_maps``.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
            raw_rows = [row for row in reader if row]
        except StopIteration:
            raise DataError(f"{path}: empty file")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")

    header = [h.strip() for h in header]
    for i, row in enumerate(raw_rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 1} has {len(row)} fields, "
                            f"the header has {len(header)}")
    if schema is None:
        schema = infer_schema(header, raw_rows)
    else:
        _check_schema(schema, f"{path}: schema")

    names = [c["name"] for c in schema]
    for name in names:
        if name not in header:
            raise DataError(f"{path}: schema column {name!r} not found in header")
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears "
                            f"{header.count(name)} times in the header")
    kinds = {c["name"]: c["kind"] for c in schema}
    col_idx = {name: header.index(name) for name in names}

    kept, row_numbers = [], []  # 1-based data rows, dropped ones counted
    for i, row in enumerate(raw_rows):
        cells = [row[col_idx[name]].strip() for name in names]
        if not any(c in MISSING_TOKENS for c in cells):
            kept.append(cells)
            row_numbers.append(i + 1)
    n_dropped = len(raw_rows) - len(kept)
    if not kept:
        raise DataError(f"{path}: no complete rows after dropping missing data")

    variables: list[Variable] = []
    columns: dict[str, np.ndarray] = {}
    label_maps: dict[str, dict[str, int]] = {}
    for j, name in enumerate(names):
        cells = [r[j] for r in kept]
        if kinds[name] == "continuous":
            vals = np.empty(len(cells))
            for i, c in enumerate(cells):
                try:
                    vals[i] = float(c)
                except ValueError:
                    raise DataError(f"{path}: row {row_numbers[i]}, column {name!r}: "
                                    f"cannot parse {c!r} as a real number")
                if not np.isfinite(vals[i]):
                    raise DataError(f"{path}: row {row_numbers[i]}, column {name!r}: "
                                    f"non-finite value")
            variables.append(Variable(name, "continuous"))
            columns[name] = vals
        else:
            labels = sorted(set(cells))
            mapping = {lab: i + 1 for i, lab in enumerate(labels)}
            columns[name] = np.array([mapping[c] for c in cells], dtype=np.int64)
            variables.append(Variable(name, "discrete", len(labels)))
            label_maps[name] = mapping
            if len(labels) > MAX_CARDINALITY_WARNING:
                warnings.warn(
                    f"{path}: discrete column {name!r} has {len(labels)} levels; "
                    f"joint count tables may be very large", stacklevel=2)

    return MixedDataset(variables, columns, source=path,
                        n_dropped=n_dropped, label_maps=label_maps)


def sorted_view(d: MixedDataset, var: str) -> SortedColumn:
    """Sorted ascending view of a continuous column with unique bookkeeping."""
    if not d.is_continuous(var):
        raise ValidationError(f"{var!r} is not a continuous variable")
    return sorted_column(d.columns[var])


def sorted_column(raw: np.ndarray) -> SortedColumn:
    """Build a :class:`SortedColumn` from raw values (stable under ties)."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or len(raw) == 0:
        raise ValidationError("column must be a nonempty 1-d array")
    perm = np.argsort(raw, kind="stable")
    values = raw[perm]
    n = len(values)
    is_last = np.empty(n, dtype=bool)
    is_last[:-1] = values[1:] > values[:-1]
    is_last[-1] = True
    last_occurrence = np.nonzero(is_last)[0] + 1  # 1-based
    uniques = values[last_occurrence - 1]
    return SortedColumn(values=values, uniques=uniques,
                        last_occurrence=last_occurrence, permutation=perm)

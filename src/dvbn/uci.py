"""Column schemas and formatting helpers for the supported UCI datasets.

The tool never downloads data.  The Iris and Wine CSVs under ``data/`` were
written by ``scripts/make_datasets.py``; Auto MPG and Housing must be
supplied by the user and can be converted from the raw UCI format with the
helpers below.
"""

from __future__ import annotations

import csv

from .errors import DataError

SCHEMAS: dict[str, list[dict]] = {
    "auto-mpg": [
        {"name": "mpg", "kind": "continuous"},
        {"name": "cylinders", "kind": "discrete"},
        {"name": "displacement", "kind": "continuous"},
        {"name": "horsepower", "kind": "continuous"},
        {"name": "weight", "kind": "continuous"},
        {"name": "acceleration", "kind": "continuous"},
        {"name": "model_year", "kind": "discrete"},
        {"name": "origin", "kind": "discrete"},
    ],
    "wine": [{"name": "class", "kind": "discrete"}] + [
        {"name": name, "kind": "continuous"} for name in (
            "alcohol", "malic_acid", "ash", "alcalinity_of_ash", "magnesium",
            "total_phenols", "flavanoids", "nonflavanoid_phenols",
            "proanthocyanins", "color_intensity", "hue",
            "od280_od315_of_diluted_wines", "proline")
    ],
    "iris": [
        {"name": "sepal_length", "kind": "continuous"},
        {"name": "sepal_width", "kind": "continuous"},
        {"name": "petal_length", "kind": "continuous"},
        {"name": "petal_width", "kind": "continuous"},
        {"name": "species", "kind": "discrete"},
    ],
    "housing": [
        {"name": n, "kind": "discrete" if n in ("chas", "rad") else "continuous"}
        for n in ("crim", "zn", "indus", "chas", "nox", "rm", "age", "dis",
                  "rad", "tax", "ptratio", "b", "lstat", "medv")
    ],
}

def _convert_raw(raw_path: str, out_csv: str, dataset: str, fields_of) -> None:
    """Write a whitespace-separated raw UCI file as a CSV with the dataset's
    schema header; ``fields_of`` splits one nonblank line into cells."""
    names = [c["name"] for c in SCHEMAS[dataset]]
    with open(raw_path) as f, open(out_csv, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(names)
        for line in f:
            line = line.strip()
            if not line:
                continue
            fields = fields_of(line)
            if len(fields) != len(names):
                raise DataError(f"unexpected field count in line: {line!r}")
            w.writerow(fields)


def convert_uci_auto_mpg(raw_path: str, out_csv: str) -> None:
    """Convert the raw whitespace-separated UCI ``auto-mpg.data`` file.

    Missing horsepower cells ('?') become empty cells so the loader drops
    those rows; the trailing quoted car-name field is discarded.
    """
    _convert_raw(raw_path, out_csv, "auto-mpg", lambda line: [
        "" if v == "?" else v for v in line.split('"')[0].split()])


def convert_uci_housing(raw_path: str, out_csv: str) -> None:
    """Convert the raw whitespace-separated UCI ``housing.data`` file."""
    _convert_raw(raw_path, out_csv, "housing", str.split)

"""Materialize the bundled Iris and Wine CSVs under data/, and convert raw UCI
Auto MPG and Housing files.

    python3 scripts/make_datasets.py

Iris and Wine come from scikit-learn's bundled copies, so this needs
scikit-learn; the package and its tests do not.  Auto MPG and Housing are not
redistributed here: convert a user-supplied raw UCI file with
:func:`convert_uci_auto_mpg` or :func:`convert_uci_housing`.  Every CSV
header is read from the committed ``data/<name>.schema.json``, which this
script never writes.
"""

import csv
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DATA = os.path.join(ROOT, "data")
sys.path.insert(0, os.path.join(ROOT, "src"))

from dvbn.errors import DataError  # noqa: E402


def header(name: str) -> list[str]:
    """Column names of ``data/<name>.schema.json``, in order."""
    with open(os.path.join(DATA, f"{name}.schema.json")) as f:
        return [c["name"] for c in json.load(f)["columns"]]


def _convert_raw(raw_path: str, out_csv: str, dataset: str, fields_of) -> None:
    """Write a whitespace-separated raw UCI file as a CSV with the dataset's
    schema header; ``fields_of`` splits one nonblank line into cells."""
    names = header(dataset)
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


def write_sklearn_csv(name: str, out_csv: str) -> None:
    """Materialize iris or wine from scikit-learn's bundled copies."""
    try:
        from sklearn import datasets as skd
    except ImportError:
        sys.exit("scikit-learn is required to materialize the Iris and Wine CSVs")
    if name == "iris":
        bunch = skd.load_iris()
        labels = [bunch.target_names[t] for t in bunch.target]
        rows = [list(x) + [lab] for x, lab in zip(bunch.data, labels)]
    else:
        bunch = skd.load_wine()
        rows = [[t + 1] + list(x) for x, t in zip(bunch.data, bunch.target)]
    with open(out_csv, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(header(name))
        w.writerows(rows)


def main() -> None:
    for name in ("iris", "wine"):
        write_sklearn_csv(name, os.path.join(DATA, f"{name}.csv"))
        print(f"wrote {name}.csv")


if __name__ == "__main__":
    main()

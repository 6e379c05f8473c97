"""Materialize the bundled CSVs and schema files under data/.

Iris and Wine come from scikit-learn's bundled copies, so this script needs
scikit-learn; the package and its tests do not.  Auto MPG and Housing are not
redistributed here; convert user-supplied raw UCI files with
``dvbn.uci.convert_uci_auto_mpg`` / ``convert_uci_housing``.
"""

import csv
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dvbn.uci import SCHEMAS  # noqa: E402


def write_sklearn_csv(name: str, out_csv: str) -> None:
    """Materialize iris or wine from scikit-learn's bundled copies."""
    try:
        from sklearn import datasets as skd
    except ImportError:
        sys.exit("scikit-learn is required to materialize the Iris and Wine CSVs")
    if name == "iris":
        bunch = skd.load_iris()
        header = [c["name"] for c in SCHEMAS["iris"]]
        labels = [bunch.target_names[t] for t in bunch.target]
        rows = [list(x) + [lab] for x, lab in zip(bunch.data, labels)]
    else:
        bunch = skd.load_wine()
        header = [c["name"] for c in SCHEMAS["wine"]]
        rows = [[t + 1] + list(x) for x, t in zip(bunch.data, bunch.target)]
    with open(out_csv, "w", newline="") as out:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)


def main() -> None:
    root = os.path.join(os.path.dirname(__file__), "..", "data")
    os.makedirs(root, exist_ok=True)
    for name in ("iris", "wine"):
        write_sklearn_csv(name, os.path.join(root, f"{name}.csv"))
        with open(os.path.join(root, f"{name}.schema.json"), "w") as f:
            json.dump({"columns": SCHEMAS[name]}, f, indent=2)
        print(f"wrote {name}.csv and {name}.schema.json")
    for name in ("auto-mpg", "housing"):
        with open(os.path.join(root, f"{name}.schema.json"), "w") as f:
            json.dump({"columns": SCHEMAS[name]}, f, indent=2)
        print(f"wrote {name}.schema.json (CSV must be user-supplied)")


if __name__ == "__main__":
    main()

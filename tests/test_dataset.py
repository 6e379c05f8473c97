import importlib.util
import os

import numpy as np
import pytest

from conftest import DATA_DIR
from dvbn.dataset import (DiscreteDataset, MixedDataset, Variable, infer_schema, load_csv,
                          load_schema, sorted_column)
from dvbn.errors import DataError, ValidationError


def _make_datasets():
    """``scripts/make_datasets.py``, imported as a module."""
    path = os.path.join(DATA_DIR, "..", "scripts", "make_datasets.py")
    spec = importlib.util.spec_from_file_location("make_datasets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,x\nred,1.5\nblue,2.5\nred,0.5\n")
    d = load_csv(path, [{"name": "a", "kind": "discrete"},
                        {"name": "x", "kind": "continuous"}])
    assert d.n_rows == 3
    assert d.label_maps["a"] == {"blue": 1, "red": 2}  # lexicographic
    assert list(d.columns["a"]) == [2, 1, 2]
    assert d.variable("a").cardinality == 2
    assert d.is_continuous("x")


def test_missing_rows_dropped(tmp_path):
    path = _write(tmp_path, "a,x\n1,1.0\n2,?\n1,\n2,3.0\n1,NA\n")
    d = load_csv(path, [{"name": "a", "kind": "discrete"},
                        {"name": "x", "kind": "continuous"}])
    assert d.n_rows == 2
    assert d.n_dropped == 3


def test_bad_float_names_row_and_column(tmp_path):
    path = _write(tmp_path, "x\n1.0\nbogus\n")
    with pytest.raises(DataError, match="row 2.*'x'"):
        load_csv(path, [{"name": "x", "kind": "continuous"}])


def test_bad_float_row_counts_dropped_rows(tmp_path):
    path = _write(tmp_path, "a,x\n1,?\n2,1.0\n1,bogus\n")
    with pytest.raises(DataError, match="row 3, column 'x'"):
        load_csv(path, [{"name": "a", "kind": "discrete"},
                        {"name": "x", "kind": "continuous"}])


@pytest.mark.parametrize("text, match", [
    ('{"columns": [', "not valid JSON"),
    ('{"columns": [{"kind": "continuous"}]}', "column 1 needs a 'name'"),
    ('{"columns": [{"name": "x"}]}', "column 1 needs a 'name' and a 'kind'"),
    ('{"columns": [{"name": "x", "kind": "continous"}]}', "unknown kind 'continous'"),
    ('{"columns": [{"name": "x", "kind": "continuous"}, {"name": "x", "kind": "discrete"}]}',
     "column 'x' is listed twice"),
    ('{"columns": []}', "schema .*: 'columns' is empty"),
], ids=["malformed_json", "no_name", "no_kind", "unknown_kind", "duplicate", "empty"])
def test_bad_schema_file_is_data_error(tmp_path, text, match):
    path = _write(tmp_path, text, "schema.json")
    with pytest.raises(DataError, match=match):
        load_schema(path)


def test_all_rows_missing_is_error(tmp_path):
    path = _write(tmp_path, "x\n?\nNA\n")
    with pytest.raises(DataError, match="no complete rows"):
        load_csv(path, [{"name": "x", "kind": "continuous"}])


def test_schema_column_must_exist(tmp_path):
    path = _write(tmp_path, "x\n1.0\n")
    with pytest.raises(DataError, match="'y'"):
        load_csv(path, [{"name": "y", "kind": "continuous"}])


@pytest.mark.parametrize("schema, match", [
    ([{"name": "a", "kind": "discrete"}, {"name": "x", "kind": "continous"}],
     "column 'x' has unknown kind 'continous'"),
    ([{"name": "a", "kind": "discrete"}, {"kind": "continuous"}],
     "column 2 needs a 'name'"),
    ([{"name": "x", "kind": "continuous"}, {"name": "x", "kind": "continuous"}],
     "column 'x' is listed twice"),
    ([], "schema: 'columns' is empty"),
], ids=["unknown_kind", "no_name", "duplicate", "empty"])
def test_bad_in_memory_schema_is_data_error(tmp_path, schema, match):
    path = _write(tmp_path, "a,x\n1,1.0\n2,2.0\n")
    with pytest.raises(DataError, match=match):
        load_csv(path, schema)


@pytest.mark.parametrize("schema", [
    None, [{"name": "a", "kind": "discrete"}, {"name": "b", "kind": "continuous"}],
], ids=["inferred", "given"])
def test_duplicate_header_column_is_data_error(tmp_path, schema):
    path = _write(tmp_path, "a,a,b\n1,2,0.5\n2,1,1.5\n")
    with pytest.raises(DataError, match="column 'a' appears 2 times in the header"):
        load_csv(path, schema)


def test_unused_duplicate_header_column_is_allowed(tmp_path):
    path = _write(tmp_path, "a,x,x\n1,2,0.5\n2,1,1.5\n")
    d = load_csv(path, [{"name": "a", "kind": "discrete"}])
    assert d.names == ["a"] and list(d.columns["a"]) == [1, 2]


def test_infer_schema():
    header = ["a", "b", "c"]
    rows = [["1", "1.5", "cat"], ["2", "2.5", "dog"], ["1", "0.1", "cat"]]
    schema = infer_schema(header, rows)
    kinds = {c["name"]: c["kind"] for c in schema}
    assert kinds == {"a": "discrete", "b": "continuous", "c": "discrete"}


def test_infer_schema_labels_are_discrete_at_any_level_count():
    header = ["city", "mixed", "n", "big"]
    rows = [[f"c{i}", "x" if i == 7 else str(i), str(i), "inf" if i else "1"]
            for i in range(25)]
    kinds = {c["name"]: c["kind"] for c in infer_schema(header, rows)}
    # 25 distinct integers make a numeric column continuous, and inf is not
    # integral; a column with a label is discrete at any level count
    assert kinds == {"city": "discrete", "mixed": "discrete",
                     "n": "continuous", "big": "continuous"}


def test_many_label_column_loads_without_schema(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["city,x"] + [f"c{i % 25},{rng.normal():.3f}" for i in range(60)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="'city' has 25 levels"):
        d = load_csv(path)
    assert d.variable("city") == Variable("city", "discrete", 25)
    assert d.is_continuous("x")


def test_sorted_column_bookkeeping():
    col = sorted_column(np.array([3.0, 1.0, 2.0, 1.0, 3.0]))
    assert list(col.values) == [1.0, 1.0, 2.0, 3.0, 3.0]
    assert list(col.uniques) == [1.0, 2.0, 3.0]
    assert list(col.last_occurrence) == [2, 3, 5]  # 1-based
    assert col.n == 5 and col.m == 3
    # permutation maps sorted position -> original row
    orig = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
    assert np.array_equal(orig[col.permutation], col.values)


def test_sorted_column_rejects_empty():
    with pytest.raises(ValidationError):
        sorted_column(np.array([]))


def test_discrete_dataset_checks_codes_and_rows_when_made():
    ok = {"a": np.array([1, 2, 2]), "b": np.array([1, 1, 3])}
    assert DiscreteDataset(ok, {"a": 2, "b": 3}).n_rows == 3
    with pytest.raises(ValidationError, match="column 'b' has values outside 1..2"):
        DiscreteDataset(ok, {"a": 2, "b": 2})
    with pytest.raises(ValidationError, match="column 'a' has values outside 1..2"):
        DiscreteDataset({"a": np.array([0, 1, 2])}, {"a": 2})
    with pytest.raises(ValidationError, match="column 'b' has 2 rows, not 3"):
        DiscreteDataset({"a": [1, 2, 1], "b": [1, 2]}, {"a": 2, "b": 2})
    with pytest.raises(ValidationError, match="column 'a'"):
        DiscreteDataset(ok, {"a": 2, "b": 3}).replace_column("a", np.array([1, 2, 5]), 4)


def test_subset_rows_and_names():
    d = MixedDataset([Variable("x", "continuous")], {"x": np.array([1.0, 2.0, 3.0])})
    sub = d.subset_rows(np.array([0, 2]))
    assert list(sub.columns["x"]) == [1.0, 3.0]
    assert sub.names == ["x"]


def test_high_cardinality_warning(tmp_path):
    rows = "\n".join(f"v{i:02d}" for i in range(25))
    path = _write(tmp_path, "a\n" + rows + "\n")
    with pytest.warns(UserWarning, match="25 levels"):
        load_csv(path, [{"name": "a", "kind": "discrete"}])


def test_uci_converters_round_trip(tmp_path):
    script = _make_datasets()
    convert_uci_auto_mpg, convert_uci_housing = (script.convert_uci_auto_mpg,
                                                 script.convert_uci_housing)
    raw = _write(tmp_path, '18.0 8 307.0 130.0 3504. 12.0 70 1\t"chevy malibu"\n\n'
                 '25.0 4 98.00 ? 2046. 19.0 71 1\t"ford pinto"\n', "auto.data")
    out = str(tmp_path / "auto.csv")
    convert_uci_auto_mpg(raw, out)
    d = load_csv(out, load_schema(os.path.join(DATA_DIR, "auto-mpg.schema.json")))
    assert d.n_rows == 1 and d.n_dropped == 1  # the '?' horsepower row
    assert d.columns["weight"].tolist() == [3504.0]
    raw = _write(tmp_path, " 0.006 18 2.3 0 0.53 6.5 65.2 4.09 1 296 15.3 396.9 4.98 24\n\n",
                 "housing.data")
    convert_uci_housing(raw, out)
    housing = load_schema(os.path.join(DATA_DIR, "housing.schema.json"))
    assert load_csv(out, housing).columns["medv"].tolist() == [24.0]
    bad = _write(tmp_path, "1 2 3\n", "bad.data")
    for convert in (convert_uci_auto_mpg, convert_uci_housing):
        with pytest.raises(DataError, match="field count"):
            convert(bad, out)

"""Command-line entry points: discretize, learn, evaluate.

All randomness flows from the ``--seed`` that ``learn`` and ``evaluate``
require; outputs are JSON and CSV files under ``--out``, bit-reproducible
for a fixed seed (wall-time fields excepted).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
import warnings

import click
from click.core import ParameterSource

from .dataset import MixedDataset, load_csv, load_schema
from .errors import ConfigError, DvbnError
from .evaluation import (CvReport, cross_validate, naive_bayes_protocol,
                         train_policies)
from .graph import Dag
from .multivar import NOT_CONVERGED
from .structure import multi_restart

EXIT_CONFIG = 2
EXIT_DATA = 3


def _echo_warning(message, *_):
    click.echo(f"warning: {message}", err=True)


def _handle_errors(fn):
    """Run a command under the exit-code contract, printing each library
    warning as one ``warning: <message>`` line."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.showwarning = _echo_warning
            try:
                return fn(*args, **kwargs)
            except ConfigError as e:
                click.echo(f"config error: {e}", err=True)
                sys.exit(EXIT_CONFIG)
            except DvbnError as e:
                click.echo(f"data error: {e}", err=True)
                sys.exit(EXIT_DATA)
    return wrapper


def _load_dataset(data_path: str, schema_path: str | None):
    if not os.path.exists(data_path):
        raise ConfigError(f"data file not found: {data_path}")
    schema = None
    if schema_path is not None:
        if not os.path.exists(schema_path):
            raise ConfigError(f"schema file not found: {schema_path}")
        schema = load_schema(schema_path)
    return load_csv(data_path, schema)


def _load_structure(path: str, d: MixedDataset) -> Dag:
    """The structure file's graph; its nodes must be exactly the data's
    variables."""
    if not os.path.exists(path):
        raise ConfigError(f"structure file not found: {path}")
    with open(path) as f:
        text = f.read()
    try:
        g = Dag.from_json(text)
    except (ValueError, KeyError, TypeError, DvbnError) as e:
        raise ConfigError(f"bad structure file {path}: {type(e).__name__}: {e}")
    missing = sorted(set(d.names) - set(g.nodes))
    extra = sorted(set(g.nodes) - set(d.names))
    if missing or extra:
        raise ConfigError(f"structure nodes must equal the data's variables "
                          f"(missing: {missing}, not in data: {extra})")
    return g


def _refuse_given(why: str, *params: str) -> None:
    """Config error naming those of ``params`` set on the command line; a
    flag left at its default is not refused."""
    ctx = click.get_current_context()
    given = [f"--{p.replace('_', '-')}" for p in params
             if ctx.get_parameter_source(p) is not ParameterSource.DEFAULT]
    if given:
        raise ConfigError(f"{why}: {', '.join(given)} would be ignored")


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as f:
        f.write(text)
    return path


def _write_csv(out_dir: str, name: str, fields: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    w.writerows(rows)
    return _write(out_dir, name, buf.getvalue())


@click.group()
def main():
    """Discrete-valued Bayesian networks from mixed continuous/discrete data."""


@main.command()
@click.option("--data", required=True, help="CSV dataset path")
@click.option("--schema", default=None, help="column schema JSON")
@click.option("--structure", required=True, help="network structure JSON")
@click.option("--method", type=click.Choice(["bayes", "mdl", "uniform"]), default="bayes")
@click.option("--k", type=click.IntRange(min=1), default=5,
              help="interval count for method=uniform")
@click.option("--out", required=True, help="output directory")
@_handle_errors
def discretize(data, schema, structure, method, k, out):
    """Discretize all continuous variables on a fixed structure."""
    if method != "uniform":
        _refuse_given("only --method uniform reads an interval count", "k")
    d = _load_dataset(data, schema)
    g = _load_structure(structure, d)
    pset = train_policies(d, g, method, uniform_k=k)
    for name, pol in sorted(pset.policies.items()):
        _write(out, f"policy_{name}.json", pol.to_json(variable=name))
    rows = [{"variable": name, "k": pol.k,
             "edges": " ".join(repr(e) for e in pol.edges)}
            for name, pol in sorted(pset.policies.items())]
    _write_csv(out, "policies.csv", ["variable", "k", "edges"], rows)
    summary = {"method": method, "converged": pset.converged,
               "passes": pset.pass_count}
    if not pset.converged:
        summary["warning"] = NOT_CONVERGED
    _write(out, "discretize_summary.json", json.dumps(summary, indent=2))
    click.echo(f"wrote {len(pset.policies)} policies to {out}")


@main.command()
@click.option("--data", required=True)
@click.option("--schema", default=None)
@click.option("--method", type=click.Choice(["bayes", "mdl"]), default="bayes")
@click.option("--seed", type=int, required=True)
@click.option("--restarts", type=click.IntRange(min=1), default=1)
@click.option("--max-parents", type=click.IntRange(min=0), default=None)
@click.option("--out", required=True)
@_handle_errors
def learn(data, schema, method, seed, restarts, max_parents, out):
    """Learn structure and discretization policies jointly (restarted K2)."""
    d = _load_dataset(data, schema)
    res = multi_restart(d, restarts, seed, max_parents=max_parents, method=method)
    _write(out, "learn_result.json", res.to_json())
    click.echo(f"best score {res.score:.6f} "
               f"(restart {res.restart_seed}, {len(res.graph.edges)} edges)")


@main.command()
@click.option("--data", required=True)
@click.option("--schema", default=None)
@click.option("--structure", default=None, help="fixed structure JSON (else joint learning)")
@click.option("--method", "methods", type=click.Choice(["bayes", "mdl", "uniform"]),
              multiple=True, required=True)
@click.option("--k", type=click.IntRange(min=1), default=5,
              help="interval count for method=uniform")
@click.option("--naive-bayes", "nb_class", default=None,
              help="run the naive-Bayes protocol with this class variable")
@click.option("--seed", type=int, required=True)
@click.option("--folds", type=click.IntRange(min=2), default=10)
@click.option("--restarts", type=click.IntRange(min=1), default=1)
@click.option("--max-parents", type=click.IntRange(min=0), default=None)
@click.option("--out", required=True)
@_handle_errors
def evaluate(data, schema, structure, methods, k, nb_class, seed, folds,
             restarts, max_parents, out):
    """Cross-validated normalized log-likelihood per method."""
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigError(f"--method given more than once: {', '.join(repeated)}")
    if nb_class is not None:
        _refuse_given("--naive-bayes uses the naive-Bayes structure",
                      "structure", "restarts", "max_parents")
    elif structure is not None:
        _refuse_given("--structure fixes the graph", "restarts", "max_parents")
    if "uniform" not in methods:
        _refuse_given("only --method uniform reads an interval count", "k")
    if nb_class is None and structure is None and "uniform" in methods:
        raise ConfigError("--method uniform needs --structure "
                          "(joint learning has no uniform method)")
    d = _load_dataset(data, schema)
    if nb_class is not None:
        if nb_class not in d.names:
            raise ConfigError(f"--naive-bayes: no column named {nb_class!r} in the data")
        res = naive_bayes_protocol(d, nb_class, folds=folds, seed=seed,
                                   methods=methods, uniform_k=k)
        doc = {m: {"accuracy": r["accuracy"], "mean_loglik": r["mean_loglik"],
                   "fold_accuracies": r["fold_accuracies"],
                   "fold_logliks": r["fold_logliks"],
                   "edges": {v: list(p.edges) for v, p in sorted(r["policies"].items())}}
               for m, r in res.items()}
        _write(out, "naive_bayes_report.json", json.dumps(doc, indent=2))
        for m, r in res.items():
            click.echo(f"{m}: accuracy={r['accuracy']:.4f} mean_ll={r['mean_loglik']:.4f}")
        return
    g = _load_structure(structure, d) if structure is not None else None
    reports: list[CvReport] = []
    for method in methods:
        rep = cross_validate(d, method, structure=g, folds=folds, seed=seed,
                             uniform_k=k, restarts=restarts, max_parents=max_parents)
        reports.append(rep)
        _write(out, f"cv_{method}.json", rep.to_json())
        click.echo(f"{method}: mean normalized loglik = {rep.mean:.6f}")
    rows = [row for rep in reports for row in rep.csv_rows()]
    _write_csv(out, "cv_folds.csv", ["method", "fold", "loglik_per_sample"], rows)
    if len(reports) >= 2:
        comp = {"methods": [r.method for r in reports],
                "means": [r.mean for r in reports],
                "best": max(reports, key=lambda r: r.mean).method}
        _write(out, "cv_comparison.json", json.dumps(comp, indent=2))


if __name__ == "__main__":
    main()

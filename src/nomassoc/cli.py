"""Command-line interface.

Subcommands: inspect, matrix, vector, tau, select, equiv, predict,
bootstrap, simulate.  Exit codes: 0 success, 1 usage error (including a
``--delimiter`` that is not one character, or is ``"``, CR or LF, a
``--seed`` that is not a non-negative integer, and a count, ``-B``,
``-n``, ``--max-vars`` or ``--max-cells``, that is not a positive
integer), 2 data error (including a file that cannot be read or written,
and a field longer than the csv module's limit, with its line).  Flag
defaults are the library's own (``SelectionConfig``, ``DEFAULT_TOLERANCE``
and ``FluScenarioConfig``).

Output formats (``--format``): ``human`` prints aligned tables,
``delimited`` prints delimiter-separated rows, ``structured`` prints
deterministic ``key = value`` lines (nested keys joined with dots, matrix
entries keyed by row and column labels) suitable for scripting.

matrix, vector, tau, select and equiv read only joint mass tables, so they
run on the file's distinct records, each with the number of its lines as
its mass, then compressed (``compress``), with results bit-identical to the
row form; so does predict's fit on its training file.  inspect, bootstrap
and predict's scoring of its test file keep one row per line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np

from . import __version__
from .association import (
    WeightVector,
    _tau,
    association_matrix,
    association_vector,
)
from .dataset import MISSING_TOKEN, CategoricalDataset, compress, contingency
from .dataset import _load_table, _open_text, load_delimited
from .equivalence import DEFAULT_TOLERANCE, LEVEL_NAMES, EquivalenceLevel
from .equivalence import check, hierarchy_scan
from .errors import DataError, NomassocError
from .prediction import fit, predict_and_score
from .resampling import bootstrap, make_reduction_statistic
from .scenarios import COLUMN_NAMES, FluScenarioConfig, generate_flu
from .selection import SelectionConfig, select_structural, select_supervised


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


class Printer:
    """Renders results in one of the three output modes."""

    def __init__(self, mode: str, precision: int, delimiter: str):
        self.mode = mode
        self.precision = max(1, precision)
        self.delimiter = delimiter

    def num(self, value) -> str:
        return f"{float(value):.{self.precision}f}"

    def _rows(self, rows) -> None:
        """Prints ``rows`` as delimited lines; ``csv`` quotes a field that
        holds the delimiter, a quote or a line break."""
        csv.writer(sys.stdout, delimiter=self.delimiter,
                   lineterminator="\n").writerows(rows)

    def kv(self, key: str, value) -> None:
        if isinstance(value, (float, np.floating)):
            value = self.num(value)
        if self.mode == "structured":
            print(f"{key} = {value}")
        elif self.mode == "delimited":
            self._rows([[key, str(value)]])
        else:
            print(f"{key}: {value}")

    def matrix(self, key: str, rows, row_labels, col_labels) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if self.mode == "structured":
            for r, rl in enumerate(row_labels):
                for c, cl in enumerate(col_labels):
                    print(f"{key}.{rl}.{cl} = {self.num(rows[r, c])}")
            return
        if self.mode == "delimited":
            self._rows([[key, *col_labels]] + [
                [rl, *map(self.num, rows[r])]
                for r, rl in enumerate(row_labels)])
            return
        width = max(
            [len(str(l)) for l in col_labels]
            + [self.precision + 3]
        )
        label_w = max(len(str(l)) for l in list(row_labels) + [key])
        print(f"{key:<{label_w}}  " + "  ".join(f"{l:>{width}}" for l in col_labels))
        for r, rl in enumerate(row_labels):
            cells = "  ".join(f"{self.num(v):>{width}}" for v in rows[r])
            print(f"{rl:<{label_w}}  {cells}")

    def vector(self, key: str, values, labels) -> None:
        if self.mode == "structured":
            for lab, v in zip(labels, values):
                print(f"{key}.{lab} = {self.num(v)}")
        elif self.mode == "delimited":
            self._rows([[key, *labels], ["", *map(self.num, values)]])
        else:
            body = "  ".join(f"{lab}={self.num(v)}" for lab, v in zip(labels, values))
            print(f"{key}: {body}")


def _delimiter(text: str) -> str:
    """``--delimiter``: one character, as ``csv`` requires, and one it can
    split on: not the quote character ``"``, CR or LF."""
    if len(text) != 1 or text in '"\r\n':
        raise argparse.ArgumentTypeError(
            f"must be one character but a quote or line break, got {text!r}")
    return text


def _integer(least: int):
    """An argparse type: an integer in decimal digits, at least ``least``
    (0 for ``--seed``, as numpy's seeding requires; 1 for a count)."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {least}, got {text!r}")
        return int(text)

    return parse


_seed, _count = _integer(0), _integer(1)


def _level(text: str) -> str:
    """``--level``: a level as its help lists it (``3``, ``2prime``) or by
    its name (``E3``), as the name."""
    name = text if text.startswith("E") else f"E{text}"
    if name not in LEVEL_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown level {text!r}; expected 1|2|2prime|3|4|5")
    return name


def _command(p: _Parser, handler, reads: str | None) -> None:
    """Gives subcommand ``p`` the shared input and output flags and its
    ``handler(ds, printer, args)``.  ``dispatch`` passes as ``ds`` the file
    argument loaded as ``reads`` (see :func:`_load`); with ``reads`` None,
    ``p`` takes no file argument and ``ds`` is None."""
    if reads:
        p.add_argument("file", help="delimited input file")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (default ,)")
    p.add_argument("--missing-token", default=MISSING_TOKEN)
    p.add_argument(
        "--missing-policy", choices=("own-category", "drop-row"),
        default="own-category",
    )
    p.add_argument("--mass-column", default=None,
                   help="column holding per-row masses")
    p.add_argument(
        "--format", choices=("human", "delimited", "structured"),
        default="human", dest="out_format",
    )
    p.add_argument("--precision", type=int, default=4)
    p.set_defaults(func=handler, reads=reads)


def _load(args, path, reads: str) -> CategoricalDataset:
    """``path`` read as ``reads``: ``"rows"``, one row per line, or
    ``"table"``, its distinct records, each with its line count as its
    mass, compressed (:func:`~nomassoc.dataset._load_table`).  Both
    loaders are looked up in this module at each call, so a tracer that
    rebinds them sees every load."""
    load = load_delimited if reads == "rows" else _load_table
    return load(
        path,
        delimiter=args.delimiter,
        missing_token=args.missing_token,
        missing_policy=args.missing_policy,
        mass_column=args.mass_column,
    )


def _names(raw: str, flag: str) -> list[str]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        raise UsageError(f"{flag} requires at least one variable name")
    return names


def _resolve(dataset: CategoricalDataset, names, flag: str):
    """Validate variable names against the dataset, naming the flag."""
    if isinstance(names, str):
        names = [names]
    try:
        for name in names:
            dataset.index_of(name)
    except DataError as exc:
        raise DataError(f"{flag}: {exc}") from None
    return list(names)


def _weights_spec(raw: str, printer: Printer):
    if not raw.startswith("file:"):
        return raw
    path = raw[len("file:"):]
    values = []
    with _open_text(path) as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise DataError(f"{path}, line {n}: weight {line.strip()!r}"
                                    " is not a number") from None
    vec = WeightVector.from_raw(np.asarray(values))
    printer.kv("weights.normalized",
               " ".join(printer.num(w) for w in vec.weights))
    printer.kv("weights.regular", str(vec.regular).lower())
    return vec


def _response_table(dataset, args):
    given = _resolve(dataset, _names(args.given, "--given"), "--given")
    _resolve(dataset, args.response, "--response")
    return contingency(dataset, given, args.response)


# -- subcommand handlers -----------------------------------------------------


def _cmd_inspect(ds, pr, args) -> int:
    pr.kv("rows", ds.n_rows)
    pr.kv("distinct_rows", compress(ds).n_rows)
    pr.kv("variables", ds.n_variables)
    pr.kv("total_mass", ds.total_mass)
    for v in ds.variables:
        preview = ",".join(v.levels[:8]) + (",..." if v.cardinality > 8 else "")
        pr.kv(f"variable.{v.name}.cardinality", v.cardinality)
        pr.kv(f"variable.{v.name}.levels", preview)
    return 0


def _cmd_matrix(ds, pr, args) -> int:
    m = association_matrix(_response_table(ds, args))
    if m.dropped_levels:
        pr.kv("dropped_levels", ",".join(str(i) for i in m.dropped_levels))
    pr.matrix("matrix", m.entries, m.y_labels, m.y_labels)
    return 0


def _cmd_vector(ds, pr, args) -> int:
    vec = association_vector(_response_table(ds, args))
    if vec.excluded_levels:
        pr.kv("excluded_levels", ",".join(str(i) for i in vec.excluded_levels))
    pr.vector("vector", vec.components, vec.y_labels)
    return 0


def _cmd_tau(ds, pr, args) -> int:
    spec = _weights_spec(args.weights, pr)
    table = _response_table(ds, args)
    pr.kv("tau", _tau(table.mass, spec, table.y_name, table.y_labels))
    return 0


def _cmd_select(ds, pr, args) -> int:
    spec = _weights_spec(args.weights, pr)
    config = SelectionConfig(
        weights=spec,
        epsilon=args.epsilon,
        max_vars=args.max_vars,
        max_cells=args.max_cells,
    )
    candidates = (
        _resolve(ds, _names(args.candidates, "--candidates"), "--candidates")
        if args.candidates
        else None
    )
    if args.mode == "supervised":
        if not args.response:
            raise UsageError("select supervised requires --response")
        _resolve(ds, args.response, "--response")
        result = select_supervised(ds, args.response, candidates, config)
    else:
        result = select_structural(ds, candidates, config)
    pr.kv("basis", ",".join(result.basis_names) or "(empty)")
    pr.kv("final_value", result.final_value)
    pr.kv("terminated_by", result.terminated_by)
    for i, step in enumerate(result.trace, start=1):
        pr.kv(f"trace.{i}.variable", step.chosen_name)
        pr.kv(f"trace.{i}.value", step.value)
    if result.removed:
        pr.kv("removed", ",".join(ds.variables[i].name for i in result.removed))
    if result.skipped:
        pr.kv("skipped_max_cells",
              ",".join(ds.variables[i].name for i in result.skipped))
    return 0


def _cmd_equiv(ds, pr, args) -> int:
    alpha = _weights_spec(args.weights, pr) if args.weights else None
    x1 = _resolve(ds, _names(args.x1, "--x1"), "--x1")
    x2 = _resolve(ds, _names(args.x2, "--x2"), "--x2")
    _resolve(ds, args.response, "--response")
    if args.level:
        report = check(ds, x1, x2, args.response, EquivalenceLevel(
            args.level, tolerance=args.tol, alpha=alpha))
        pr.kv(f"equivalent.{report.level}", str(report.holds).lower())
        if report.witness is not None:
            pr.kv("witness", str(report.witness))
        return 0
    for name, holds in hierarchy_scan(ds, x1, x2, args.response,
                                      alpha=alpha, tolerance=args.tol):
        pr.kv(f"equivalent.{name}", str(holds).lower())
    return 0


def _cmd_predict(_ds, pr, args) -> int:
    train = _load(args, args.train, "table")  # fit reads only its table
    test = _load(args, args.test, "rows")
    given = _resolve(train, _names(args.given, "--given"), "--given")
    _resolve(train, args.response, "--response")
    predictor = fit(train, given, args.response, seed=args.seed)
    cm = predict_and_score(predictor, test)
    pr.kv("rows_scored", cm.total)
    pr.kv("accuracy", cm.accuracy())
    pr.matrix("confusion_counts", cm.counts.astype(float), cm.labels, cm.labels)
    pr.matrix("confusion_rates", cm.row_normalized, cm.labels, cm.labels)
    return 0


def _cmd_bootstrap(ds, pr, args) -> int:
    if args.stat != "reduction":
        raise UsageError(f"--stat: unknown statistic {args.stat!r}")
    if not args.response or not args.subset:
        raise UsageError("bootstrap --stat reduction requires --response and --subset")
    _resolve(ds, args.response, "--response")
    subset = _resolve(ds, _names(args.subset, "--subset"), "--subset")
    full = (
        _resolve(ds, _names(args.full, "--full"), "--full")
        if args.full
        else [n for n in ds.names if n != ds.variable(args.response).name]
    )
    spec = _weights_spec(args.weights, pr)
    statistic = make_reduction_statistic(args.response, subset, full, spec)
    stratify = args.stratify_by if args.stratify_by else args.response
    _resolve(ds, stratify, "--stratify-by")
    summary = bootstrap(
        ds, statistic,
        iterations=args.iterations, sample_size=args.sample_size,
        seed=args.seed, stratify_by=stratify, confidence=args.confidence,
    )
    pr.kv("statistic", "reduction")
    pr.kv("subset", ",".join(subset))
    pr.kv("full_set", ",".join(full))
    for name in ("point_estimate", "mean", "ci_low", "ci_high", "confidence",
                 "iterations", "failures", "sample_size", "stratified_by",
                 "seed"):
        pr.kv(name, getattr(summary, name))
    return 0


def _cmd_simulate(_ds, _pr, args) -> int:
    if args.scenario != "flu":
        raise UsageError(f"unknown scenario {args.scenario!r}; available: flu")
    config = FluScenarioConfig(
        n=args.n, seed=args.seed,
        flip_prob=args.flip_prob, s5_prob=args.s5_prob,
        one_sided_noise=not args.symmetric_noise,
    )
    ds = generate_flu(config)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=args.delimiter)
        writer.writerow(COLUMN_NAMES)
        label_columns = [
            np.asarray(ds.variable(n).levels)[ds.codes[ds.index_of(n)]].tolist()
            for n in COLUMN_NAMES
        ]
        writer.writerows(zip(*label_columns))
    print(f"wrote {ds.n_rows} rows to {args.output} (seed={args.seed})")
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="nomassoc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="describe a delimited file")
    _command(p, _cmd_inspect, "rows")

    for name, handler, needs_weights in (
        ("matrix", _cmd_matrix, False),
        ("vector", _cmd_vector, False),
        ("tau", _cmd_tau, True),
    ):
        p = sub.add_parser(name, help=f"print the association {name}")
        _command(p, handler, "table")
        p.add_argument("--response", required=True)
        p.add_argument("--given", required=True,
                       help="comma-separated explanatory variables")
        if needs_weights:
            p.add_argument("--weights", default="gk",
                           help="gk|equal|invprob|file:<path>")

    p = sub.add_parser("select", help="greedy basis selection")
    p.add_argument("mode", choices=("supervised", "structural"))
    _command(p, _cmd_select, "table")
    p.add_argument("--response", default=None)
    p.add_argument("--candidates", default=None,
                   help="comma-separated candidates (default: all)")
    p.add_argument("--weights", default="gk")
    p.add_argument("--epsilon", type=float, default=SelectionConfig.epsilon)
    p.add_argument("--max-vars", type=_count, default=None)
    p.add_argument("--max-cells", type=_count, default=SelectionConfig.max_cells)

    p = sub.add_parser("equiv", help="pairwise equivalence of two variables")
    _command(p, _cmd_equiv, "table")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--level", type=_level, default=None,
                   help="1|2|2prime|3|4|5 (default: scan the hierarchy)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--weights", default=None)

    p = sub.add_parser("predict",
                       help="fit on train, score proportional predictions on test")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _command(p, _cmd_predict, None)
    p.add_argument("--response", required=True)
    p.add_argument("--given", required=True)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("bootstrap", help="stratified bootstrap of a statistic")
    _command(p, _cmd_bootstrap, "rows")
    p.add_argument("--stat", default="reduction")
    p.add_argument("--response", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--full", default=None)
    p.add_argument("--weights", default="gk")
    p.add_argument("-B", "--iterations", type=_count, default=1000)
    p.add_argument("-n", "--sample-size", type=_count, default=500)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--stratify-by", default=None,
                   help="stratum variable (default: the response)")

    p = sub.add_parser("simulate", help="write a synthetic scenario file")
    p.add_argument("scenario", help="scenario name (flu)")
    p.add_argument("-n", type=_count, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--flip-prob", type=float,
                   default=FluScenarioConfig.flip_prob)
    p.add_argument("--s5-prob", type=float, default=FluScenarioConfig.s5_prob)
    p.add_argument("--symmetric-noise", action="store_true",
                   help="also corrupt negative results")
    # no output flags: its printer, built like every command's, goes unused
    p.set_defaults(func=_cmd_simulate, reads=None, out_format="human",
                   precision=4)

    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code.  Parsing,
    loading the file argument and the handler share one ``try``: a usage
    error from any of them exits 1, a data error or an unreadable file 2."""
    try:
        args = build_parser().parse_args(argv)
        ds = _load(args, args.file, args.reads) if args.reads else None
        printer = Printer(args.out_format, args.precision, args.delimiter)
        return args.func(ds, printer, args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help/--version
        return int(exc.code or 0)
    except (NomassocError, OSError) as exc:  # OSError: an unreadable file
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

import contextlib
import csv
import hashlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nomassoc
from nomassoc.cli import build_parser, dispatch
from nomassoc.equivalence import DEFAULT_TOLERANCE
from nomassoc.reference import fixture_e4_without_e3, loan_tables
from nomassoc.scenarios import (
    FluScenarioConfig, flu_population_distribution, flu_population_tables,
)
from nomassoc.selection import SelectionConfig


@pytest.fixture(scope="module")
def screening_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "screen.csv"
    code = dispatch(
        ["simulate", "flu", "-n", "5000", "--seed", "5", "-o", str(path)]
    )
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def flu_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "flu.csv"
    code = dispatch(
        ["simulate", "flu", "-n", "20000", "--seed", "5", "-o", str(path)]
    )
    assert code == 0
    return str(path)


@pytest.fixture()
def loan_file(tmp_path):
    # expand the On-Time x Risk table into unit rows
    table = loan_tables("Risk")["OnTime"]
    path = tmp_path / "loan.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["OnTime", "Risk"])
        for i, xl in enumerate(table.x_labels):
            for s, yl in enumerate(table.y_labels):
                for _ in range(int(table.mass[i, s])):
                    writer.writerow([xl, yl])
    return str(path)


#: Three response levels over two explanatory ones, six rows.
SMALL = "Y,X\na,p\na,p\nb,q\na,q\nc,q\nc,p\n"


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert dispatch(["tau", "--given", "A", "nonexistent.csv"]) == 1
        assert dispatch(["nonsense"]) == 1

    def test_data_error_is_two(self, capsys, screening_file):
        code = dispatch(
            ["tau", "--response", "Nope", "--given", "X1", screening_file]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "available" in err and "X1" in err

    @pytest.mark.parametrize("weights", ["gk", "equal", "invprob"])
    def test_one_level_response_is_a_data_error(self, capsys, tmp_path, weights):
        path = tmp_path / "one.csv"
        path.write_text("Y,X\na,p\na,q\n", encoding="utf-8")
        code = dispatch(["tau", "--response", "Y", "--given", "X",
                         "--weights", weights, str(path)])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_one_level_response_has_one_reason_for_every_scheme(
        self, capsys, tmp_path
    ):
        path = tmp_path / "one.csv"
        path.write_text("Y,X\na,p\na,q\n", encoding="utf-8")
        reasons = {}
        for weights in ("gk", "equal", "invprob"):
            code = dispatch(["tau", "--response", "Y", "--given", "X",
                             "--weights", weights, str(path)])
            assert code == 2
            reasons[weights] = capsys.readouterr().err
        assert set(reasons.values()) == {
            "data error: weighted association undefined: the response has "
            "one level of positive mass\n"
        }

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_a_data_error(self, capsys, screening_file,
                                                epsilon):
        code = dispatch(["select", "supervised", "--response", "Y",
                         "--epsilon", epsilon, screening_file])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: epsilon must be finite and non-negative\n")

    def test_misconfigured_bootstrap_reports_the_cause(
        self, capsys, screening_file
    ):
        code = dispatch(["bootstrap", "--stat", "reduction", "--response", "Y",
                         "--subset", "X1", "--full", "X2,R3", "--seed", "7",
                         "-B", "40", "-n", "200", screening_file])
        assert code == 2
        err = capsys.readouterr().err
        assert "subset must be contained" in err and "iterations failed" not in err

    def test_help_is_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("value", [",,", "", '"', "\n", "\r"])
    def test_bad_delimiter_is_a_usage_error(self, capsys, screening_file, value):
        code = dispatch(["inspect", "--delimiter", value, screening_file])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--delimiter" in err

    @pytest.mark.parametrize("value", [",,", "", '"', "\n", "\r"])
    def test_bad_simulate_delimiter_is_a_usage_error(self, capsys, tmp_path, value):
        out = tmp_path / "flu.csv"
        code = dispatch(["simulate", "flu", "-n", "10", "--seed", "1",
                         "-o", str(out), "--delimiter", value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--delimiter" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--response", "Y", "--subset", "X", "FILE"],
        ["predict", "--train", "FILE", "--test", "FILE", "--response", "Y",
         "--given", "X"],
        ["simulate", "flu", "-n", "10", "-o", "OUT"],
    ])
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "small.csv"
        path.write_text(SMALL)
        out = tmp_path / "out.csv"
        argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert dispatch(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    @pytest.mark.parametrize("argv, flag", [
        (["bootstrap", "--response", "Y", "--subset", "X", "--seed", "1",
          "FILE", "-B"], "--iterations"),
        (["bootstrap", "--response", "Y", "--subset", "X", "--seed", "1",
          "FILE", "-n"], "--sample-size"),
        (["simulate", "flu", "--seed", "1", "-o", "OUT", "-n"], "-n"),
        (["select", "supervised", "--response", "Y", "FILE", "--max-cells"],
         "--max-cells"),
        (["select", "supervised", "--response", "Y", "FILE", "--max-vars"],
         "--max-vars"),
        (["tau", "--response", "Y", "--given", "X", "FILE", "--precision"],
         "--precision"),
    ])
    def test_count_that_is_not_positive_is_a_usage_error(
            self, capsys, tmp_path, argv, flag, value):
        path = tmp_path / "small.csv"
        path.write_text(SMALL)
        out = tmp_path / "out.csv"
        argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert dispatch(argv + [value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err
        assert "must be an integer of at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["select", "supervised", "FILE"],
         "select supervised requires --response"),
        (["tau", "--response", "Y", "--given", ",", "FILE"],
         "--given requires at least one variable name"),
        (["bootstrap", "--stat", "mean", "--response", "Y", "--subset", "X",
          "--seed", "1", "FILE"],
         "--stat: unknown statistic 'mean'"),
        (["simulate", "nope", "-n", "10", "--seed", "1", "-o", "OUT"],
         "unknown scenario 'nope'; available: flu"),
        (["bootstrap", "--response", "", "--subset", "X", "--seed", "1",
          "FILE"],
         "bootstrap --stat reduction requires --response and --subset"),
    ])
    def test_handler_usage_error_is_one(self, capsys, tmp_path, argv, message):
        path = tmp_path / "small.csv"
        path.write_text(SMALL)
        out = tmp_path / "out.csv"
        argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert dispatch(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not out.exists()

    def test_over_long_field_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("u,v\na,x\n" + "b" * (csv.field_size_limit() + 1)
                        + ",x\n", encoding="utf-8")
        assert dispatch(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3: ")

    @pytest.mark.parametrize("text, flags, message", [
        ("w\n1\n2\n", ["--mass-column", "w"],
         "header names no variable column"),
        ("u,v\n", [], "file contains a header but no data rows"),
        ("\n\n\n", [], "header names no variable column"),
    ])
    def test_file_without_variables_or_rows_is_a_data_error(
        self, capsys, tmp_path, text, flags, message
    ):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        assert dispatch(["inspect", *flags, str(path)]) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_blank_line_before_the_header_is_skipped(self, capsys, tmp_path,
                                                     quote):
        path = tmp_path / "data.csv"
        path.write_text(f"\nu,v\na,x\n{quote}b{quote},y\n", encoding="utf-8")
        assert dispatch(["inspect", "--format", "structured", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rows = 2\n" in out and "variables = 2\n" in out

    @pytest.mark.parametrize("flag", ["file", "--train", "--test", "--weights"])
    @pytest.mark.parametrize("problem", ["missing", "directory"])
    def test_unreadable_path_is_a_data_error(
        self, capsys, tmp_path, screening_file, flag, problem
    ):
        bad = str(tmp_path / "absent.csv" if problem == "missing" else tmp_path)
        tau = ["tau", "--response", "Y", "--given", "X1"]
        predict = ["predict", "--response", "Y", "--given", "X1"]
        argv = {
            "file": tau + [bad],
            "--train": predict + ["--train", bad, "--test", screening_file],
            "--test": predict + ["--train", screening_file, "--test", bad],
            "--weights": tau + ["--weights", f"file:{bad}", screening_file],
        }[flag]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and bad in err

    @pytest.mark.parametrize("flag", ["file", "--weights"])
    def test_non_utf8_file_is_a_data_error(
        self, capsys, tmp_path, loan_file, flag
    ):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"Risk,OnTime\n\xff,yes\n" if flag == "file"
                        else b"1\n\xff\n")
        tau = ["tau", "--response", "Risk", "--given", "OnTime"]
        argv = {
            "file": tau + [str(bad)],
            "--weights": tau + ["--weights", f"file:{bad}", loan_file],
        }[flag]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err
        assert "UTF-8" in err

    def test_non_numeric_weight_names_file_and_line(
        self, capsys, tmp_path, loan_file
    ):
        wpath = tmp_path / "w.txt"
        wpath.write_text("2\n\nabc\n1\n")
        code = dispatch(["tau", "--response", "Risk", "--given", "OnTime",
                         "--weights", f"file:{wpath}", loan_file])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{wpath}, line 3: weight 'abc' is not a number" in err


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    select = parse(["select", "structural", "FILE"])
    config = SelectionConfig()
    assert (select.epsilon, select.max_vars, select.max_cells) == (
        config.epsilon, config.max_vars, config.max_cells)
    equiv = parse(["equiv", "--x1", "A", "--x2", "B", "--response", "Y",
                   "FILE"])
    assert equiv.tol == DEFAULT_TOLERANCE
    simulate = parse(["simulate", "flu", "-n", "1", "--seed", "1", "-o", "O"])
    flu = FluScenarioConfig(n=1, seed=1)
    assert (simulate.flip_prob, simulate.s5_prob,
            not simulate.symmetric_noise) == (
        flu.flip_prob, flu.s5_prob, flu.one_sided_noise)
    for population in (flu_population_distribution, flu_population_tables):
        defaults = inspect.signature(population).parameters
        assert [defaults[name].default for name in (
            "flip_prob", "s5_prob", "one_sided_noise")] == [
            flu.flip_prob, flu.s5_prob, flu.one_sided_noise]


@pytest.mark.parametrize("module", ["nomassoc", "nomassoc.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = os.path.dirname(os.path.dirname(nomassoc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", module, "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == nomassoc.__version__


class TestSubcommands:
    def test_inspect(self, capsys, screening_file):
        code, out = run(capsys, "inspect", screening_file)
        assert code == 0
        assert "rows: 5000" in out
        assert "variable.Y.cardinality: 3" in out

    def test_matrix_matches_published(self, capsys, loan_file):
        code, out = run(
            capsys, "matrix", "--response", "Risk", "--given", "OnTime",
            loan_file,
        )
        assert code == 0
        assert "0.5108" in out and "0.0407" in out and "0.4485" in out

    def test_vector_and_tau(self, capsys, loan_file):
        code, out = run(
            capsys, "vector", "--response", "Risk", "--given", "OnTime",
            loan_file,
        )
        assert code == 0 and "0.0451" in out
        code, out = run(
            capsys, "tau", "--response", "Risk", "--given", "OnTime",
            loan_file,
        )
        assert code == 0 and "0.0432" in out

    def test_tau_equal_weights_deterministic_fixture(self, capsys, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("X,Y\n" + "a,p\n" * 5 + "b,q\n" * 3)
        code, out = run(
            capsys, "tau", "--response", "Y", "--given", "X",
            "--weights", "equal", str(path),
        )
        assert code == 0
        assert "tau: 1.0000" in out

    def test_weights_from_file(self, capsys, loan_file, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_text("2\n1\n1\n")
        code, out = run(
            capsys, "tau", "--response", "Risk", "--given", "OnTime",
            "--weights", f"file:{wpath}", loan_file,
        )
        assert code == 0
        assert "weights.normalized: 0.5000 0.2500 0.2500" in out
        assert "weights.regular: true" in out

    def test_weights_file_with_byte_order_mark(self, capsys, loan_file, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_bytes(b"\xef\xbb\xbf2\n1\n1\n")
        code, out = run(
            capsys, "tau", "--response", "Risk", "--given", "OnTime",
            "--weights", f"file:{wpath}", loan_file,
        )
        assert code == 0
        assert "weights.normalized: 0.5000 0.2500 0.2500" in out

    def test_matrix_warns_once_about_dropped_levels(self, capsys, tmp_path):
        path = tmp_path / "mass.csv"
        path.write_text("Y,X,m\na,p,2\nb,q,1\nc,p,0\na,q,1\n",
                        encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(capsys, "matrix", "--response", "Y", "--given", "X",
                          "--mass-column", "m", str(path))
        assert code == 0
        assert [w.category for w in caught] == [nomassoc.DroppedLevelsWarning]

    def test_delimited_output_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text(SMALL.replace(",", ";"))
        argv = ["--response", "Y", "--given", "X", "--delimiter", ";",
                "--format", "delimited", str(path)]
        assert run(capsys, "matrix", *argv) == (0, (
            "matrix;a;b;c\n"
            "a;0.5556;0.1111;0.3333\n"
            "b;0.3333;0.3333;0.3333\n"
            "c;0.5000;0.1667;0.3333\n"
        ))
        assert run(capsys, "vector", *argv) == (0, (
            "vector;a;b;c\n"
            ";0.1111;0.2000;0.0000\n"
        ))

    def test_delimited_rows_quote_labels_that_need_it(self, capsys, tmp_path):
        # levels holding the delimiter and a quote; read back, each row of
        # a 3 x 3 matrix and of its vector has 1 + 3 fields
        path = tmp_path / "quoted.csv"
        path.write_text('Y,X\n"a,b",p\n"a,b",q\nc,q\n"say ""hi""",p\n')
        for command, n_rows in (("matrix", 4), ("vector", 2)):
            code, out = run(capsys, command, "--response", "Y", "--given",
                            "X", "--format", "delimited", str(path))
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert [len(row) for row in rows] == [4] * n_rows
            assert rows[0] == [command, "a,b", "c", 'say "hi"']

    def test_delimited_key_value_rows_read_back_as_two_fields(
            self, capsys, screening_file):
        # a basis or subset of several names holds the delimiter
        for argv in (["select", "supervised", "--response", "Y",
                      "--epsilon", "0.005"],
                     ["bootstrap", "--response", "Y", "--subset", "X1,X2",
                      "--seed", "1", "-B", "20", "-n", "50"]):
            code, out = run(capsys, *argv, "--format", "delimited",
                            screening_file)
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and [len(row) for row in rows] == [2] * len(rows)
            keys = dict(rows)
            assert keys.get("basis", keys.get("subset")) == "X1,X2"

    def test_select_supervised(self, capsys, screening_file):
        code, out = run(
            capsys, "select", "supervised", "--response", "Y",
            "--epsilon", "0.005", screening_file,
        )
        assert code == 0
        assert "basis: X1,X2" in out and "terminated_by: no-gain" in out

    @pytest.mark.parametrize("argv, skipped", [
        (["supervised", "--response", "Y"], "X2,R3,R4"),
        (["structural"], "X1,X2,R3,R4,S5"),
    ])
    def test_select_reports_candidates_skipped_by_max_cells(
            self, capsys, tmp_path, argv, skipped):
        path = str(tmp_path / "flu.csv")
        run(capsys, "simulate", "flu", "-n", "2000", "--seed", "3", "-o", path)
        code, out = run(capsys, "select", *argv, "--max-cells", "3",
                        "--format", "structured", path)
        assert code == 0
        lines = out.splitlines()
        assert f"skipped_max_cells = {skipped}" in lines
        assert "terminated_by = max_cells" in lines

    def test_error_names_offending_flag(self, capsys, screening_file):
        code = dispatch(
            ["tau", "--response", "Y", "--given", "Bogus", screening_file]
        )
        assert code == 2
        assert "--given" in capsys.readouterr().err

    def test_equiv_scan(self, capsys, screening_file):
        code, out = run(
            capsys, "equiv", "--x1", "X1", "--x2", "X2", "--response", "Y",
            screening_file,
        )
        assert code == 0
        for level in ("E1", "E2", "E3", "E4", "E5"):
            assert f"equivalent.{level}: " in out

    def test_equiv_on_overlapping_references(self, capsys, tmp_path):
        path = tmp_path / "overlap.csv"
        path.write_text("Y,A,B,C\n0,a,p,x\n1,b,p,y\n1,b,q,y\n0,a,q,x\n")
        code, out = run(capsys, "equiv", "--x1", "A,B", "--x2", "B,C",
                        "--response", "Y", "--format", "structured",
                        str(path))
        assert code == 0
        assert out == "".join(f"equivalent.{level} = true\n"
                              for level in ("E1", "E2", "E3", "E4", "E5"))

    @pytest.mark.parametrize("level, expected", [
        ("3", "equivalent.E3 = false\n"
              "witness = association matrix entry at ('1', '2'): 0.5 != 0\n"),
        ("E4", "equivalent.E4 = true\n"),
        ("2prime", "equivalent.E2prime = false\n"
                   "witness = tau(X1|X2): 0.25 != 1\n"),
    ])
    def test_equiv_single_level(self, capsys, tmp_path, level, expected):
        # the E4-without-E3 fixture's six scenarios, of equal mass
        ds = fixture_e4_without_e3()
        path = tmp_path / "e4.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*ds.names, "m"])
            for r in range(ds.n_rows):
                writer.writerow([v.levels[c[r]] for v, c in
                                 zip(ds.variables, ds.codes)] + [1])
        code, out = run(capsys, "equiv", "--x1", "X1", "--x2", "X2",
                        "--response", "Y", "--level", level, "--mass-column",
                        "m", "--format", "structured", str(path))
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("level", ["e3", "9"])
    def test_unknown_equiv_level_is_a_usage_error(self, capsys,
                                                  screening_file, level):
        code = dispatch(["equiv", "--x1", "X1", "--x2", "X2", "--response",
                         "Y", "--level", level, screening_file])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--level" in err
        assert f"unknown level {level!r}" in err

    @pytest.mark.parametrize("command", [["inspect"], ["select", "structural"]])
    def test_drop_row_that_drops_every_row_says_so(self, capsys, tmp_path,
                                                   command):
        path = tmp_path / "missing.csv"
        path.write_text("a,b\n__NA__,x\ny,__NA__\n")
        code = dispatch([*command, "--missing-policy", "drop-row", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: missing_policy 'drop-row' drops every data row: "
            "each holds the missing token '__NA__'\n")

    def test_predict(self, capsys, screening_file, tmp_path):
        code, out = run(
            capsys, "predict", "--train", screening_file, "--test",
            screening_file, "--response", "Y", "--given", "X1,X2",
            "--seed", "3",
        )
        assert code == 0
        assert "rows_scored: 5000" in out
        assert "confusion_counts" in out and "confusion_rates" in out

    def test_predict_ignores_test_column_order(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        rows = [(a, b, (a + 2 * b) % 3) for a, b in rng.integers(0, 3, (300, 2))]
        paths = {}
        for order in ("YAB", "YBA"):
            paths[order] = tmp_path / f"{order}.csv"
            with open(paths[order], "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(order)
                for a, b, y in rows:
                    writer.writerow([{"A": a, "B": b, "Y": y}[c] for c in order])
        outs = [
            run(capsys, "predict", "--train", str(paths["YAB"]), "--test",
                str(paths[order]), "--response", "Y", "--given", "A,B",
                "--seed", "3")
            for order in ("YAB", "YBA")
        ]
        assert outs[0][0] == outs[1][0] == 0
        assert "accuracy: 1" in outs[0][1]
        assert outs[1][1] == outs[0][1]

    def test_bootstrap(self, capsys, screening_file):
        code, out = run(
            capsys, "bootstrap", "--stat", "reduction", "--response", "Y",
            "--subset", "X1,X2", "--seed", "7", "-B", "40", "-n", "200",
            screening_file,
        )
        assert code == 0
        assert "mean: " in out and "ci_low: " in out

    def test_structured_output_byte_identical(self, capsys, screening_file):
        argv = [
            "select", "supervised", "--response", "Y", "--epsilon", "0.005",
            "--format", "structured", screening_file,
        ]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second
        assert "basis = " in first

    def test_simulate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "sim.csv"
        assert dispatch(
            ["simulate", "flu", "-n", "100", "--seed", "1", "-o", str(path)]
        ) == 0
        capsys.readouterr()
        code, out = run(capsys, "inspect", str(path))
        assert code == 0 and "rows: 100" in out

    @pytest.mark.parametrize("extra, digest", [
        ([], "e6a43f9c431aef927d9998ac1b2b944c37992d3a1dd1098620641031627e48c1"),
        (["--delimiter", ";", "--symmetric-noise"],
         "7301674251ceb85f199f961d6d4d517814186a31726373c048e7efee782e3e4e"),
    ])
    def test_simulate_file_bytes_are_unchanged(self, tmp_path, capsys, extra, digest):
        path = tmp_path / "sim.csv"
        argv = ["simulate", "flu", "-n", "2000", "--seed", "11", "-o", str(path)]
        assert dispatch(argv + extra) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_inspect_reports_distinct_rows(self, capsys, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text("u,v\na,x\nb,x\na,x\n")
        code, out = run(capsys, "inspect", str(path))
        assert code == 0
        assert "rows: 3" in out and "distinct_rows: 2" in out
        # non-integer masses are not merged, so every row stays
        path.write_text("u,w\na,0.5\na,0.5\n")
        code, out = run(capsys, "inspect", "--mass-column", "w", str(path))
        assert code == 0
        assert "rows: 2" in out and "distinct_rows: 2" in out

    # digests of the structured output computed before these commands ran
    # on distinct rows: the compressed form must be bit-identical
    @pytest.mark.parametrize("argv, digest", [
        (["matrix", "--response", "Y", "--given", "X1,X2"],
         "99ddd7f4fd66502ac9edd6b08512cbb5b81ae3f99879604062ceefc70c15195d"),
        (["vector", "--response", "Y", "--given", "X1,X2"],
         "3c7ea5ebd1c4ddcf9f20fd804e4ba3d15d37bf1caf266fe4c8527b9df981cb8c"),
        (["tau", "--response", "Y", "--given", "X1,X2"],
         "6e1d6c960b797346791ed5f4e79fa19e2ec60fd584dc1727516d7835fb2d0d2a"),
        (["select", "supervised", "--response", "Y"],
         "a802776beae5d0c15229b438c3534d79718cf783a0b0ccb41d7eed0b9a2e4820"),
        (["select", "structural"],
         "d67c4888d6a92b1637db8bc7892dcc188446290b7f3c15064a5da962c9d27382"),
        (["equiv", "--x1", "X1,X2", "--x2", "R3,R4", "--response", "Y"],
         "09fe830d6cf81c064c8012ff1883b4230284cc10e2b052fddf13754d20c155a1"),
    ])
    def test_table_commands_output_is_unchanged(self, capsys, flu_file, argv, digest):
        code, out = run(capsys, *argv, flu_file, "--format", "structured",
                        "--precision", "17")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # digests computed while ``bootstrap`` printed its summary one named
    # field at a time, in every output format
    @pytest.mark.parametrize("fmt, digest", [
        ("structured",
         "931958f54523a04d2e2499ba3b8470334626c8bc08b24838536777f221af0f4a"),
        ("human",
         "3fa30cfbc275e63f23c6f16159e7735555d6597f1ddbc54d5d50338e78772660"),
        ("delimited",  # its subset and full_set rows quoted by csv.writer
         "6e2367bcfdae3a36c9e68f32a0a20ac9085bba4e41c168801b7cb723b80b08d9"),
    ])
    def test_bootstrap_output_is_unchanged(self, capsys, flu_file, fmt, digest):
        code, out = run(capsys, "bootstrap", flu_file, "--response", "Y",
                        "--subset", "X1,X2", "--seed", "3", "-B", "200",
                        "-n", "200", "--weights", "equal", "--format", fmt,
                        "--precision", "17")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_inspect_output_is_unchanged(self, capsys, flu_file):
        code, out = run(capsys, "inspect", flu_file, "--format", "structured",
                        "--precision", "17")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "42a636f0ccc997e342702d89b53ce4d5b03820d5b76082e11ff5d9fdf40a945a")

    def test_predict_output_is_unchanged(self, capsys, flu_file, screening_file):
        code, out = run(capsys, "predict", "--train", flu_file, "--test",
                        screening_file, "--response", "Y", "--given", "X1,X2",
                        "--seed", "7", "--format", "structured",
                        "--precision", "17")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "68213df328fa3dbbb6d56f153f00d373688a84659b209b7bd62873e47d44d3ef")

    # digests of the structured output computed while ``tau`` still
    # resolved its weights on an association vector
    @pytest.mark.parametrize("weights, digest", [
        ("equal",
         "c27e965f0183433861f0fcf90a4e514efb9dc52659de890b5733ffe3bfc99a53"),
        ("invprob",
         "4769c16a05746490b890d9652756e6c698e1399d4f1672453ab16874eb957037"),
        ("file:",
         "df755e55842519ff85216bdca0dee801ceb9da634e0cfabd74d31e9044381464"),
    ])
    def test_tau_output_under_each_weighting_is_unchanged(
        self, capsys, flu_file, tmp_path, weights, digest
    ):
        if weights == "file:":
            wpath = tmp_path / "w.txt"
            wpath.write_text("2\n1\n1\n")
            weights += str(wpath)
        code, out = run(capsys, "tau", "--response", "Y", "--given", "X1,X2",
                        "--weights", weights, flu_file, "--format",
                        "structured", "--precision", "17")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@st.composite
def cli_calls(draw):
    """A small delimited file and one command line over it: random names,
    values, masses, weights, levels, numeric flags and missing policies."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    names = draw(st.lists(st.text("ABXY", min_size=1, max_size=2),
                          min_size=2, max_size=4, unique=True))
    mass = draw(st.none() | st.sampled_from(names))
    values = st.sampled_from(["a", "b", "c", " c", "__NA__"])
    masses = st.sampled_from(["1", "2", "0", "0.5"])
    lines = [names] + [
        [draw(masses) if n == mass else draw(values) for n in names]
        for _ in range(draw(st.integers(1, 12)))
    ]
    # at most one fault: an odd name, a malformed line or a bad mass
    fault = draw(st.sampled_from([None, None, None, "name", "line", "mass"]))
    if fault == "name":
        names[-1] = draw(st.sampled_from(["", " A", "m-", "A B", '"q"']))
    elif fault == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
            [[], ["a"], names + ["a"], ['"q"'] * len(names)])))
    elif fault == "mass" and mass is not None:
        lines[-1][names.index(mass)] = draw(st.sampled_from(
            ["-1", "x", "nan", "inf", ""]))
    text = "".join(delimiter.join(line) + "\n" for line in lines)

    pick = st.sampled_from(names + names + ["Nope"])
    group = st.lists(pick, min_size=1, max_size=2).map(",".join)
    common = ["--delimiter", delimiter,
              "--missing-policy", draw(st.sampled_from(["own-category",
                                                        "drop-row"])),
              "--format", draw(st.sampled_from(["human", "delimited",
                                                "structured"])),
              "--precision", draw(st.sampled_from(["-1", "0", "3", "17"]))]
    if mass is not None:
        common += ["--mass-column", mass]
    weights = draw(st.sampled_from(["gk", "equal", "invprob", "zipf"]))
    command = draw(st.sampled_from([
        "inspect", "matrix", "vector", "tau", "select", "equiv", "predict",
        "bootstrap", "simulate",
    ]))
    if command == "inspect":
        argv = ["inspect", "FILE"]
    elif command in ("matrix", "vector", "tau"):
        argv = [command, "--response", draw(pick), "--given", draw(group),
                "FILE"]
        if command == "tau":
            argv += ["--weights", weights]
    elif command == "select":
        mode = draw(st.sampled_from(["supervised", "structural"]))
        argv = ["select", mode, "FILE", "--weights", weights,
                "--epsilon", draw(st.sampled_from(["0", "1e-9", "0.5"])),
                "--max-cells", draw(st.sampled_from(["1", "4", "10000"]))]
        if draw(st.booleans()):
            argv += ["--response", draw(pick)]
        if draw(st.booleans()):
            argv += ["--max-vars", draw(st.sampled_from(["-1", "0", "2"]))]
        if draw(st.booleans()):
            argv += ["--candidates", draw(group)]
    elif command == "equiv":
        argv = ["equiv", "--x1", draw(group), "--x2", draw(group),
                "--response", draw(pick), "--tol",
                draw(st.sampled_from(["0", "1e-9", "0.5"])), "FILE"]
        if draw(st.booleans()):
            argv += ["--level", draw(st.sampled_from(
                ["1", "2", "2prime", "3", "E4", "5", "9"]))]
        if draw(st.booleans()):
            argv += ["--weights", weights]
    elif command == "predict":
        argv = ["predict", "--train", "FILE", "--test", "FILE",
                "--response", draw(pick), "--given", draw(group),
                "--seed", "3"]
    elif command == "bootstrap":
        argv = ["bootstrap", "--response", draw(pick), "--subset",
                draw(group), "--seed", "1", "--weights", weights,
                "-B", draw(st.sampled_from(["0", "1", "3"])),
                "-n", draw(st.sampled_from(["0", "1", "5"])),
                "--confidence", draw(st.sampled_from(["0.5", "0.95", "1.5"])),
                "FILE"]
        if draw(st.booleans()):
            argv += ["--full", draw(group)]
        if draw(st.booleans()):
            argv += ["--stratify-by", draw(pick)]
    else:
        return text, ["simulate", "flu", "-n",
                      draw(st.sampled_from(["0", "1", "7", "40"])),
                      "--seed", "2", "-o", "OUT", "--delimiter", delimiter]
    return text, argv + common


@given(cli_calls())
@settings(max_examples=300, deadline=None)
def test_every_call_exits_with_a_documented_code(call):
    text, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out.csv")
        argv = [{"FILE": path, "OUT": out}.get(a, a) for a in argv]
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = dispatch(argv)
    assert code in (0, 1, 2)

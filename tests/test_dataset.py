import csv
import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from nomassoc import (
    ContingencyTable,
    DataError,
    FluScenarioConfig,
    ParseError,
    compose,
    compress,
    contingency,
    expand_to_unit_rows,
    from_scenarios,
    generate_flu,
    load_delimited,
    split,
)
from nomassoc import dataset
from nomassoc.cli import dispatch
from nomassoc.dataset import _load_table
from nomassoc.reference import fixture_e5_without_e4, retail_dataset, retail_table


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDelimited:
    def test_basic_read_back(self, tmp_path):
        path = write(tmp_path, "u,v\na,x\nb,x\na,x\n")
        ds = load_delimited(path)
        assert ds.names == ("u", "v")
        assert [v.cardinality for v in ds.variables] == [2, 1]
        assert ds.total_mass == 3.0
        assert ds.variable("u").levels == ("a", "b")  # first appearance

    def test_missing_own_category_appends_level(self, tmp_path):
        path = write(tmp_path, "u,v\na,x\n__NA__,x\nb,y\nc,__NA__\n")
        ds = load_delimited(path, missing_policy="own-category")
        assert "__NA__" in ds.variable("u").levels
        assert ds.variable("u").levels.index("__NA__") == 1
        assert ds.total_mass == 4.0

    def test_missing_drop_row(self, tmp_path):
        path = write(tmp_path, "u,v\na,x\n__NA__,x\nb,y\nc,__NA__\n")
        ds = load_delimited(path, missing_policy="drop-row")
        assert ds.n_rows == 2
        assert ds.total_mass == 2.0
        assert "__NA__" not in ds.variable("u").levels

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "u,v\na,x\nb\n")
        with pytest.raises(ParseError, match="line 3"):
            load_delimited(path)

    def test_ragged_row_after_multiline_field_reports_physical_line(self, tmp_path):
        # the quoted field spans lines 2 and 3, so "c" sits on line 4
        path = write(tmp_path, 'u,v\n"a\nb",x\nc\n')
        with pytest.raises(ParseError, match="line 4") as err:
            load_delimited(path)
        assert err.value.line == 4

    def test_bad_mass_after_multiline_fields_reports_physical_line(self, tmp_path):
        # records start on lines 2, 4, 5 and 8; the value "d\n\ne" spans 5-7
        path = write(tmp_path, 'u,w\n"a\nb",1\nc,1\n"d\n\ne",1\nc,zz\n')
        with pytest.raises(ParseError, match="line 8") as err:
            load_delimited(path, mass_column="w")
        assert err.value.line == 8

    def test_multiline_bad_record_reported_where_it_starts(self, tmp_path):
        # the one-field record "a<newline>b" spans lines 2 and 3
        path = write(tmp_path, 'u,v\n"a\nb"\n')
        with pytest.raises(ParseError) as err:
            load_delimited(path)
        assert err.value.line == 2
        # CRLF line ends, a CRLF and a lone CR inside quoted fields
        path = tmp_path / "crlf.csv"
        path.write_bytes(b'u,v\r\n"a\r\nb",x\r\n"c\rd"\r\nc,y\r\n')
        with pytest.raises(ParseError) as err:
            load_delimited(path)
        assert err.value.line == 4

    def test_bad_record_line_from_input_read_once(self, tmp_path):
        read_end, write_end = os.pipe()
        os.write(write_end, b'u,v\na,x\n"b\nc"\n')
        os.close(write_end)
        with pytest.raises(ParseError) as err:
            load_delimited(read_end)  # a pipe cannot be read again
        assert err.value.line == 3

    def test_bad_unquoted_record_line_from_input_read_once(self):
        # no quote character: the line path refuses the ragged record, and
        # the record path runs over the bytes already read
        read_end, write_end = os.pipe()
        os.write(write_end, b"u,v\r\na,x\r\na,x\r\nb\r\n")
        os.close(write_end)
        with pytest.raises(ParseError, match="line 4") as err:
            load_delimited(read_end)
        assert err.value.line == 4

    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("line", [1, 3])
    def test_over_long_field_reports_its_line(self, tmp_path, quote, line):
        # csv refuses a field over its limit; the limit is left as it is
        lines = ["u,v", "a,x", f"{quote}b{quote},x"]
        lines[line - 1] = "w" * (csv.field_size_limit() + 1) + ",x"
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_delimited(path)
        assert err.value.line == line

    def test_values_are_stripped(self, tmp_path):
        path = write(tmp_path, "u,v\na ,x\n a,x\n")
        ds = load_delimited(path)
        assert ds.variable("u").levels == ("a",)
        assert ds.codes[0].tolist() == [0, 0]

    def test_stripped_missing_token_is_dropped(self, tmp_path):
        path = write(tmp_path, "u,v\na,x\n __NA__ ,x\n")
        ds = load_delimited(path, missing_policy="drop-row")
        assert ds.n_rows == 1

    def test_repeated_ragged_record_reports_first_line(self, tmp_path):
        # "b" first occurs on line 3; "c" is ragged too but occurs later
        path = write(tmp_path, "u,v\na,x\nb\na,x\nc\nb\n")
        with pytest.raises(ParseError, match="line 3") as err:
            load_delimited(path)
        assert err.value.line == 3

    def test_repeated_bad_mass_reports_first_line(self, tmp_path):
        # "b,zz" occurs on lines 4 and 7, another bad record between them
        path = write(tmp_path, "u,w\na,1\na,1\nb,zz\na,1\nc,-1\nb,zz\n")
        with pytest.raises(ParseError, match="line 4") as err:
            load_delimited(path, mass_column="w")
        assert err.value.line == 4

    def test_repeated_records_keep_row_order(self, tmp_path):
        path = write(tmp_path, "u,v,w\na,x,2\n\nb,y,1\na,x,2\nb,x,1\n")
        ds = load_delimited(path, mass_column="w")
        assert ds.codes[0].tolist() == [0, 1, 0, 1]
        assert ds.codes[1].tolist() == [0, 1, 0, 0]
        assert ds.mass.tolist() == [2.0, 1.0, 2.0, 1.0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_delimited(write(tmp_path, ""))
        with pytest.raises(ParseError):
            load_delimited(write(tmp_path, "u,v\n"))

    @pytest.mark.parametrize("text, kwargs, message", [
        ("w\n1\n2\n", {"mass_column": "w"},
         "header names no variable column"),
        ("u,v\n", {}, "file contains a header but no data rows"),
        ("\n\n\n", {}, "header names no variable column"),
    ])
    def test_file_without_variables_or_rows(self, tmp_path, text, kwargs,
                                            message):
        with pytest.raises(ParseError) as err:
            load_delimited(write(tmp_path, text), **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("quote", ["", '"'])  # line path, record path
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, quote):
        path = write(tmp_path, f"\n\nu,v\na,x\n{quote}b{quote},y\n")
        for ds in (load_delimited(path), _load_table(path)):
            assert ds.names == ("u", "v")
            assert ds.variable("u").levels == ("a", "b")
            assert ds.codes[1].tolist() == [0, 1]

    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("text, line", [
        ("\n\nu,v\na,x\n{q}b{q}\n", 5),
        ("\n\nu,{q}u{q}\na,x\n", 3),
    ])
    def test_errors_after_blank_lines_name_their_physical_line(
        self, tmp_path, quote, text, line
    ):
        path = write(tmp_path, text.format(q=quote))
        with pytest.raises(ParseError, match=f"line {line}") as err:
            load_delimited(path)
        assert err.value.line == line

    def test_mass_column(self, tmp_path):
        path = write(tmp_path, "u,w\na,2\nb,0.5\n")
        ds = load_delimited(path, mass_column="w")
        assert ds.names == ("u",)
        assert ds.total_mass == 2.5

    def test_bad_mass_rejected(self, tmp_path):
        for bad in ("-1", "nan", "inf", "zzz"):
            path = write(tmp_path, f"u,w\na,{bad}\n", name=f"m{bad}.csv")
            with pytest.raises(ParseError):
                load_delimited(path, mass_column="w")

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_delimited(write(tmp_path, "u,u\na,b\n"))

    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path, "u;v\na;x\n")
        ds = load_delimited(path, delimiter=";")
        assert ds.names == ("u", "v")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfY,X\na,p\nb,q\n")
        ds = load_delimited(path)
        assert ds.names == ("Y", "X")
        assert ds.variable("Y").levels == ("a", "b")

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbf", "empty file"),
        (b"\xef\xbb\xbf\n", "header names no variable column"),
        (b"\xef\xbb\xbf\n\r\n", "header names no variable column"),
    ])
    def test_a_byte_order_mark_alone_is_not_a_header(self, tmp_path, data,
                                                      message):
        # as after no mark: a header search that could take the mark's
        # bytes for a line would report a header with no data rows
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        for load in (load_delimited, _load_table):
            with pytest.raises(ParseError) as err:
                load(path)
            assert str(err.value) == message


class TestLoadTable:
    """``_load_table`` is ``compress(load_delimited(...))``, field by field."""

    @pytest.mark.parametrize("text, kwargs, rows", [
        ("u,v\na,x\nb,y\na,x\n", {}, 2),
        ("u,w\na,2\nb,1\na,2\n", {"mass_column": "w"}, 2),
        ("u,w\na,0.5\nb,1\na,0.5\n", {"mass_column": "w"}, 3),  # row form
        ("u,v\na,x\n__NA__,y\na,x\n", {"missing_policy": "drop-row"}, 1),
        ("u,v\n\na,x\n\nb,y\n\n", {}, 2),  # blank lines
        ("u,v\na,x\n a ,x\na\t, x\nb,x\n", {}, 2),  # padded variants
        ("u,v\r\na,x\r\n\"a\",x\r\nb,y", {}, 2),  # quoted: the record path
    ])
    def test_equals_compressed_rows(self, tmp_path, text, kwargs, rows):
        path = write(tmp_path, text)
        table = _load_table(path, **kwargs)
        expected = compress(load_delimited(path, **kwargs))
        assert table.variables == expected.variables
        assert [c.tolist() for c in table.codes] == [
            c.tolist() for c in expected.codes]
        assert table.mass.tolist() == expected.mass.tolist()
        assert table.total_mass == expected.total_mass
        assert table.n_rows == rows

    def test_errors_equal_the_row_loader(self, tmp_path):
        for text in ("", "u,v\n", "u,u\na,b\n", "u,v\na,x\nb\n"):
            path = write(tmp_path, text)
            with pytest.raises(ParseError) as table:
                _load_table(path)
            with pytest.raises(ParseError) as rows:
                load_delimited(path)
            assert (str(table.value), table.value.line) == (
                str(rows.value), rows.value.line)


class PerLine(Exception):
    """The per-line path was asked for."""


def fixed_width_returns(path):
    """Whether ``dataset._fixed_width`` numbered ``path`` in one ``_scan``,
    one entry per call; the per-line path, which a declined file goes on
    to, raises :class:`PerLine` from ``dataset._blocks`` instead of
    splitting the body.  A file whose records are refused after its lines
    are numbered ends in the record path's :class:`ParseError`."""
    taken = []
    fixed_width = dataset._fixed_width

    def count(*args):
        scan = fixed_width(*args)
        taken.append(scan is not None)
        return scan

    def per_line(*args, **kwargs):
        raise PerLine

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_fixed_width", count)
        mp.setattr(dataset, "_blocks", per_line)
        try:
            dataset._scan(path)
        except (PerLine, ParseError):
            pass
    return taken


class TestFixedWidthPath:
    """Files of one line width take the fixed-width path; a change to its
    shape check that sent them to the per-line path would give the same
    results, only slower, so no other test would fail."""

    def test_simulated_files_are_numbered_as_byte_columns(self, tmp_path):
        crlf = tmp_path / "flu.csv"
        assert dispatch(["simulate", "flu", "-n", "20000", "--seed", "1",
                         "-o", str(crlf)]) == 0
        data = crlf.read_bytes()
        assert data.endswith(b"\r\n")  # csv.writer ends lines with CR LF
        lf = tmp_path / "lf.csv"
        lf.write_bytes(data.replace(b"\r\n", b"\n"))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + data)
        tables = []
        for path in (crlf, lf, bom):
            assert fixed_width_returns(path) == [True]
            table = _load_table(path)
            tables.append((table.variables, [c.tolist() for c in table.codes],
                           table.mass.tolist()))
        assert tables[0] == tables[1] == tables[2]

    def test_a_refused_record_is_still_numbered_as_byte_columns(self,
                                                               tmp_path):
        # lines of one width whose fields exceed csv.field_size_limit()
        field = b"x" * (csv.field_size_limit() + 1)
        path = tmp_path / "long.csv"
        path.write_bytes(b"a,b\n" + (field + b"," + field + b"\n") * 2)
        assert fixed_width_returns(path) == [True]
        with pytest.raises(ParseError, match="field larger than field limit"):
            _load_table(path)

    def test_nearly_distinct_lines_are_declined(self, tmp_path):
        # 200k rows of 30 variables of 2 to 7 levels, written as digits
        rows, cards = 200_000, 2 + np.arange(30) % 6
        codes = np.random.default_rng(1).random((rows, 30)) * cards
        lines = np.full((rows, 61), ord(","), dtype=np.uint8)
        lines[:, 0:59:2] = codes.astype(np.uint8) + ord("0")
        lines[:, 59:] = (ord("\r"), ord("\n"))
        path = tmp_path / "wide.csv"
        header = ",".join(f"V{j}" for j in range(30)).encode() + b"\r\n"
        path.write_bytes(header + lines.tobytes())
        assert fixed_width_returns(path) == [False]

    def test_a_sparse_key_range_costs_no_more_than_the_line_path(self,
                                                                 tmp_path):
        # two distinct lines over 3 * 10**6 key slots, 15 per line: a table
        # of one id per slot would take 7 times the body's bytes
        path = tmp_path / "sparse.csv"
        path.write_bytes(b"c\n" + b"0000000\n2999999\n" * 100_000)
        assert fixed_width_returns(path) == [False]
        peaks = []
        for fixed_width in (dataset._fixed_width, lambda *args: None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, "_fixed_width", fixed_width)
                tracemalloc.start()
                try:
                    table = _load_table(path)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert table.mass.tolist() == [100_000.0, 100_000.0]
        assert peaks[0] <= 1.1 * peaks[1]


class TestFromScenarios:
    def test_exact_masses_and_normalisation(self):
        ds = fixture_e5_without_e4()
        assert ds.total_mass == pytest.approx(1.0, abs=1e-15)
        assert ds.n_rows == 8

    def test_single_scenario_point_mass(self):
        ds = from_scenarios([(("a", "x"), 5.0)])
        assert ds.total_mass == 5.0
        table = contingency(ds, 0, 1)
        assert table.x_marginal.tolist() == [5.0]
        assert table.y_marginal.tolist() == [5.0]

    def test_y_marginal_of_perfect_prediction_fixture(self):
        # masses (2/7, 2/7, 2/7, 1/7) over Y in {1, 0}
        from nomassoc.reference import fixture_e2_without_e1

        ds = fixture_e2_without_e1()
        table = contingency(ds, "X1", "Y")
        p = table.y_probabilities()
        assert table.y_labels == ("1", "0")
        assert p == pytest.approx([3 / 7, 4 / 7], abs=1e-15)

    def test_duplicates_merge(self):
        ds = from_scenarios([(("a",), 1.0), (("a",), 2.0), (("b",), 1.0)])
        assert ds.n_rows == 2
        assert ds.total_mass == 4.0

    def test_arity_mismatch(self):
        with pytest.raises(DataError):
            from_scenarios([(("a", "x"), 1.0), (("b",), 1.0)])

    def test_nonpositive_mass(self):
        with pytest.raises(DataError):
            from_scenarios([(("a",), 0.0)])

    #: Repeated tuples whose masses sum in list order (``0.1 + 0.2 + 0.3``
    #: differs from ``0.1 + (0.2 + 0.3)``), labels that are not strings
    #: (``1`` and ``"1"`` are one label), fractional masses, and both
    #: given and default names.
    PINNED = [
        ([(("a", "x"), 0.1), (("b", "y"), 1 / 3), (("a", "x"), 0.2),
          (("c", "x"), 2.5), (("a", "x"), 0.3)], ["Y", "X"]),
        ([((1, None), 1.0), (("1", "None"), 0.7), ((2.5, True), 1e-3),
          ((0, False), 3.0), ((2.5, 1), 1 / 7)], None),
        ([(("p",), 0.5), (("q",), 0.25), (("p",), 0.125)], None),
    ]

    def test_output_is_pinned(self):
        # SHA-256 over names, levels, codes and the exact masses of each
        lines = []
        for scenarios, names in self.PINNED:
            ds = from_scenarios(scenarios, names)
            lines.append(repr([(v.name, v.levels) for v in ds.variables]))
            lines.append(repr([c.tolist() for c in ds.codes]))
            lines.append(repr([m.hex() for m in ds.mass.tolist()]))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "5ad33d16bb8c289a2a3546768e77529ecdd9d224eb8da2869eb9ef8c1198f141")


class TestCompose:
    def test_singleton_identity(self):
        ds = fixture_e5_without_e4()
        comp = compose(ds, ["X1"])
        assert comp.observed_cardinality == ds.variable("X1").cardinality
        # code-preserving up to relabelling: level k of the composite is
        # exactly level k of the variable (labels are already sorted here)
        codes = ds.codes[ds.index_of("X1")]
        assert np.array_equal(comp.row_codes, codes)

    def test_observed_pairs_only(self):
        ds = fixture_e5_without_e4()
        comp = compose(ds, ["X1", "X2"])
        # the eight scenarios visit six distinct (X1, X2) pairs; the two
        # repeated pairs (1,1) and (4,4) merge
        assert comp.observed_cardinality == 6
        assert set(comp.scenario_labels) == {
            ("1", "1"), ("1", "2"), ("1", "3"),
            ("2", "1"), ("3", "1"), ("4", "4"),
        }
        bound = ds.variable("X1").cardinality * ds.variable("X2").cardinality
        assert comp.observed_cardinality <= bound

    def test_lexicographic_order(self):
        ds = from_scenarios(
            [(("b", "y"), 1.0), (("a", "z"), 1.0), (("a", "y"), 1.0)]
        )
        comp = compose(ds, [0, 1])
        # member codes: a=1? no -- levels are first-appearance: b=0, a=1
        assert comp.scenario_codes.tolist() == sorted(
            comp.scenario_codes.tolist()
        )

    def test_empty_and_duplicate_members(self):
        ds = fixture_e5_without_e4()
        with pytest.raises(DataError):
            compose(ds, [])
        with pytest.raises(DataError):
            compose(ds, ["X1", "X1"])


class TestContingency:
    def test_retail_reconstruction(self):
        table = retail_table()
        assert table.mass[2][1] == 2363
        assert table.y_marginal.tolist() == [2499, 7384, 7344, 3794, 2637, 342]
        assert table.total == 24000

    def test_loan_fixture_total(self):
        from nomassoc.reference import loan_tables

        table = loan_tables("Risk")["OnTime"]
        assert table.mass.tolist() == [[11, 2, 52], [306, 24, 255]]
        assert table.total == 650

    def test_product_masses_are_independent(self):
        a = np.array([2.0, 3.0])
        b = np.array([1.0, 4.0, 5.0])
        scenarios = [
            ((f"a{i}", f"b{j}"), a[i] * b[j])
            for i in range(2)
            for j in range(3)
        ]
        ds = from_scenarios(scenarios)
        t = contingency(ds, 0, 1)
        outer = np.outer(t.x_marginal, t.y_marginal) / t.total
        assert np.allclose(t.mass, outer, atol=1e-12)

    def test_overlap_rejected(self):
        ds = fixture_e5_without_e4()
        with pytest.raises(DataError):
            contingency(ds, ["X1", "X2"], "X1")

    def test_round_trip_masses_exact(self):
        ds = fixture_e5_without_e4()
        t = contingency(ds, ["X1", "X2"], "Y")
        assert t.total == ds.total_mass
        assert t.mass.sum() == ds.mass.sum()

    def test_round_trip_dyadic_masses_bit_exact(self):
        scenarios = [
            (("a", "u"), 0.25),
            (("a", "v"), 0.5),
            (("b", "u"), 0.125),
            (("b", "v"), 2.0),
        ]
        ds = from_scenarios(scenarios, names=("X", "Y"))
        t = contingency(ds, "X", "Y")
        lookup = {
            (t.x_labels[i], t.y_labels[s]): t.mass[i, s]
            for i in range(t.x_levels)
            for s in range(t.y_levels)
        }
        for (x, y), mass in scenarios:
            assert lookup[(x, y)] == mass  # bit-exact for dyadic inputs

    def test_marginals_permutation_invariant(self):
        ds = fixture_e5_without_e4()
        perm = np.random.default_rng(0).permutation(ds.n_rows)
        shuffled = ds.take(perm)
        t1 = contingency(ds, ["X1"], "Y")
        t2 = contingency(shuffled, ["X1"], "Y")
        assert np.array_equal(t1.mass, t2.mass)
        assert np.array_equal(t1.y_marginal, t2.y_marginal)

    def test_hand_built_composite_is_left_unchanged(self):
        ds = fixture_e5_without_e4()
        built = compose(ds, ["X1", "X2"])
        codes = built.row_codes.copy()  # writeable
        by_hand = dataclasses.replace(built, row_codes=codes)
        t = contingency(ds, by_hand, "Y")
        assert np.array_equal(codes, built.row_codes)
        assert np.array_equal(t.mass, contingency(ds, built, "Y").mass)


class TestContingencyLabels:
    def test_default_labels_and_transpose(self):
        table = ContingencyTable(np.ones((3, 2)))
        assert table.x_labels == ("0", "1", "2")
        assert table.y_labels == ("0", "1")
        flipped = table.transpose()
        assert flipped.x_labels == ("0", "1")
        assert flipped.y_labels == ("0", "1", "2")

    def test_given_labels_are_kept(self):
        table = ContingencyTable(np.ones((2, 2)), x_labels=["p", "q"])
        assert table.x_labels == ("p", "q")
        assert table.transpose().y_labels == ("p", "q")


class TestSplit:
    def test_sizes(self, tmp_path):
        path = tmp_path / "ten.csv"
        path.write_text("u\n" + "\n".join("abcdefghij") + "\n")
        ds = load_delimited(path)
        first, second = split(ds, 0.8, seed=1)
        assert (first.n_rows, second.n_rows) == (8, 2)

    def test_deterministic(self):
        ds = expand_to_unit_rows(retail_dataset())
        a1, b1 = split(ds, 0.8, seed=42)
        a2, b2 = split(ds, 0.8, seed=42)
        for x, y in ((a1, a2), (b1, b2)):
            assert all(
                np.array_equal(cx, cy) for cx, cy in zip(x.codes, y.codes)
            )

    def test_retail_split_sizes(self):
        ds = expand_to_unit_rows(retail_dataset())
        assert ds.n_rows == 24000
        first, second = split(ds, 0.8, seed=0)
        assert (first.n_rows, second.n_rows) == (19200, 4800)

    def test_empty_part_rejected(self):
        ds = generate_flu(FluScenarioConfig(n=10, seed=1))
        with pytest.raises(DataError, match="parts of 0 and 10 rows"):
            split(ds, 0.01, 1)
        ds = generate_flu(FluScenarioConfig(n=1000, seed=1))
        first, second = split(ds, 0.01, 1)
        assert (first.n_rows, second.n_rows) == (10, 990)

    def test_weighted_dataset_rejected(self):
        ds = retail_dataset()
        with pytest.raises(DataError, match="expand_to_unit_rows"):
            split(ds, 0.8, seed=0)

    def test_expand_requires_integer_masses(self):
        ds = from_scenarios([(("a",), 1.5)])
        with pytest.raises(DataError):
            expand_to_unit_rows(ds)

"""Columnar categorical datasets and joint-mass structures.

A :class:`CategoricalDataset` stores one dense integer code array per
variable plus an optional non-negative mass per row, so exact probability
tables (masses) and raw observation files (unit masses) share one
representation.  :func:`compose` turns any subset of variables into a single
composite variable over its *observed* joint levels, and :func:`contingency`
builds the joint mass table between a composite and a response.

One kernel, :func:`_count`, counts every mass table: a composite's cell
masses for :func:`compose` and :func:`compress`, a composite against a
response for :func:`contingency`, selection's tables from scratch, the
cell masses of a concentration, and the bootstrap's resamples.  Tables
from the chosen set carried across greedy steps (:func:`_candidate_table`)
are counted over a key with the response folded in before the candidate,
and keep their positive rows with the same tail (:func:`_positive_rows`).

One loop, :func:`_joint_codes`, builds the key of every composite built
from scratch: each member is multiplied onto the key, ``key * card +
code``, so the key is a mixed-radix number of the tuple, in lexicographic
order, and the key is ranked (:func:`_rank`) only where counting needs
the ranks: before a multiply that would take its range past the row
count, until most rows sit in cells of their own, before one that could
pass int64, and once at the end if the range is still wider than the row
count.  A rank counts over the key slots in O(n) time, with one byte of
occupancy and one int64 remap entry per slot; only key ranges too wide to
count are sorted.  The key that results has a range of at most the row
count, so its table is counted densely, with no further rank.

Greedy selection carries the chosen set's codes across steps in pick
order and folds the response into them once per step, ``key * levels +
response``; each candidate then counts its table in one ``bincount`` over
``folded * card + code``, a ``(cell, level, code)`` array moved to one row
per ``(cell, code)``, with no rank.  That table is the one a
greedy step sorts, and only when its members are not in ascending order
(:func:`_candidate_table`).

All structures are immutable after construction; the underlying numpy
arrays are marked read-only so datasets can be shared without copies.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DataError, NomassocError, ParseError

#: Token treated as a missing value by default in delimited files.
MISSING_TOKEN = "__NA__"

VarRef = Union[int, str]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class VariableMeta:
    """Name and ordered category labels of one categorical variable."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if len(self.levels) < 1:
            raise DataError(f"variable {self.name!r} has no levels")
        if len(set(self.levels)) != len(self.levels):
            raise DataError(f"variable {self.name!r} has duplicate level labels")

    @property
    def cardinality(self) -> int:
        return len(self.levels)


class CategoricalDataset:
    """Immutable column-encoded categorical table with per-row masses.

    Parameters
    ----------
    variables : sequence of VariableMeta
        Ordered variable descriptions; names must be unique.
    codes : sequence of integer arrays
        One array per variable, all of equal length; every code of variable
        ``v`` must lie in ``[0, cardinality(v))``.
    mass : array, optional
        Non-negative, finite per-row mass.  Defaults to 1.0 per row.  Masses
        may be counts or probabilities; queries normalise by ``total_mass``.
    """

    __slots__ = ("variables", "codes", "mass", "total_mass")

    def __init__(
        self,
        variables: Sequence[VariableMeta],
        codes: Sequence[np.ndarray],
        mass: np.ndarray | None = None,
        *,
        validate: bool = True,
    ):
        variables = tuple(variables)
        codes = tuple(_readonly(np.asarray(c, dtype=np.int64)) for c in codes)
        n = len(codes[0]) if codes else 0
        if mass is None:
            mass = np.ones(n, dtype=np.float64)
        mass = _readonly(np.asarray(mass, dtype=np.float64))
        if validate:
            names = [v.name for v in variables]
            if len(set(names)) != len(names):
                raise DataError("duplicate variable names")
            if len(codes) != len(variables):
                raise DataError("one code array per variable is required")
            for meta, col in zip(variables, codes):
                if len(col) != n:
                    raise DataError("code arrays must have equal length")
                if n and (col.min() < 0 or col.max() >= meta.cardinality):
                    raise DataError(
                        f"codes of variable {meta.name!r} outside "
                        f"[0, {meta.cardinality})"
                    )
            if len(mass) != n:
                raise DataError("mass array length does not match rows")
            if not np.all(np.isfinite(mass)):
                raise DataError("row masses must be finite")
            if n and mass.min() < 0:
                raise DataError("row masses must be non-negative")
        with np.errstate(over="ignore"):  # an overflowing total is refused
            total = float(mass.sum())
        if validate and total <= 0:
            raise DataError("total mass must be positive")
        if validate and total == np.inf:
            raise DataError("total mass overflows float64")
        self.variables = variables
        self.codes = codes
        self.mass = mass
        self.total_mass = total

    # -- basic queries ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.mass)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def unit_mass(self) -> bool:
        return bool(np.all(self.mass == 1.0))

    def index_of(self, ref: VarRef) -> int:
        """Resolve a variable name or index to a validated index."""
        if isinstance(ref, str):
            try:
                return self.names.index(ref)
            except ValueError:
                raise DataError(
                    f"unknown variable {ref!r}; available: {', '.join(self.names)}"
                ) from None
        idx = int(ref)
        if not 0 <= idx < self.n_variables:
            raise DataError(f"variable index {idx} out of range")
        return idx

    def variable(self, ref: VarRef) -> VariableMeta:
        return self.variables[self.index_of(ref)]

    def take(self, rows: np.ndarray) -> "CategoricalDataset":
        """Row subset/resample sharing variable metadata (no re-validation)."""
        return CategoricalDataset(
            self.variables,
            [c[rows] for c in self.codes],
            self.mass[rows],
            validate=False,
        )

    def __repr__(self) -> str:
        return (
            f"CategoricalDataset({self.n_variables} variables, "
            f"{self.n_rows} rows, total_mass={self.total_mass:g})"
        )


# -- construction ---------------------------------------------------------


class _RecordIndex(dict):
    """Numbers each distinct record of a file in first-appearance order.

    Built from the header record: ``header`` holds the stripped names,
    ``mass_idx`` the mass column's position (or ``None``) and
    ``var_positions`` the positions of the variables.  Indexing with a
    record tuple returns its id.  :meth:`__missing__` runs once per
    distinct record, so the per-record work below (:meth:`add`) is paid
    once however often the record repeats; records known to be distinct
    go to :meth:`add` alone, unkeyed.  For each id it keeps the record's
    stripped values (``None`` for a blank or dropped record) and its
    mass.  A malformed record raises :class:`ParseError` at its first
    occurrence, which is the bad record that occurs first, naming the
    physical line where ``reader``, the ``csv.reader`` the records come
    from, read it.
    """

    def __init__(self, header, mass_column, missing_token, drop, reader):
        super().__init__()
        self.reader = reader
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            raise self._bad(header, "header names are not unique")
        header = names
        mass_idx = None
        if mass_column is not None:
            if mass_column not in header:
                raise DataError(
                    f"mass column {mass_column!r} not in header: {header}"
                )
            mass_idx = header.index(mass_column)
        self.header = header
        self.width = len(header)
        self.var_positions = [i for i in range(len(header)) if i != mass_idx]
        self.mass_idx = mass_idx
        self.missing_token = missing_token
        self.drop = drop
        self.dropped = False  # whether a record was dropped
        self.values: list[tuple[str, ...] | None] = []
        self.masses: list[float] = []

    def __missing__(self, record: tuple[str, ...]) -> int:
        rid = self[record] = self.add(record)
        return rid

    def add(self, record: tuple[str, ...]) -> int:
        """The id of ``record``, known to be new, checked and kept as the
        next record without being keyed."""
        values, mass = self._check(record)
        self.values.append(values)
        self.masses.append(mass)
        return len(self.values) - 1

    def _bad(self, record: tuple[str, ...], problem: str) -> ParseError:
        """``problem`` at the physical line where ``record``, just read,
        starts: the reader's line count less the line breaks that quoted
        fields of the record hold."""
        breaks = sum(
            v.count("\n") + v.count("\r") - v.count("\r\n") for v in record
        )
        return ParseError(problem, line=self.reader.line_num - breaks)

    def _check(self, record: tuple[str, ...]):
        if not record:  # blank line
            return None, 0.0
        if len(record) != self.width:
            raise self._bad(
                record, f"expected {self.width} fields, got {len(record)}"
            )
        values = tuple(v.strip() for v in record)
        if values == record:
            values = record  # share the record's tuple
        if self.drop and any(
            values[i] == self.missing_token for i in self.var_positions
        ):
            self.dropped = True
            return None, 0.0
        if self.mass_idx is None:
            return values, 1.0
        text = values[self.mass_idx]
        try:
            mass = float(text)
        except ValueError:
            raise self._bad(
                record, f"mass value {text!r} is not a number"
            ) from None
        if not np.isfinite(mass) or mass < 0:
            raise self._bad(record, f"mass value {mass!r} is invalid")
        return values, mass

    def kept(self) -> np.ndarray:
        """Which records hold a row: not blank and not dropped."""
        return np.array([v is not None for v in self.values], dtype=bool)

    def dataset(
        self, rows: np.ndarray, mass: np.ndarray | None
    ) -> CategoricalDataset:
        """The dataset of the kept records ``rows`` (ids, one per row) with
        row masses ``mass`` (``None`` for 1.0)."""
        if not self.var_positions:  # a blank header, or only the mass column
            raise ParseError("header names no variable column")
        if not len(rows) and self.dropped:
            raise ParseError(
                "missing_policy 'drop-row' drops every data row: each holds "
                f"the missing token {self.missing_token!r}")
        if not len(rows):
            raise ParseError("file contains a header but no data rows")
        return _encode([self.header[i] for i in self.var_positions],
                       self.var_positions, self.values, rows, mass)


def _encode(names, positions, records, rows, mass) -> CategoricalDataset:
    """The dataset whose variable ``names[j]`` is field ``positions[j]`` of
    ``records`` (``None`` for a record that holds no row), taken at the
    record indices ``rows``, with row masses ``mass`` (``None`` for 1.0).
    Each variable numbers its levels in order of first appearance over
    ``records``."""
    variables = []
    codes = []
    for name, i in zip(names, positions):
        level_index: dict[str, int] = {}
        record_codes = np.array(
            [level_index.setdefault(r[i], len(level_index))
             if r is not None else 0 for r in records],
            dtype=np.int64,
        )
        variables.append(VariableMeta(name, tuple(level_index)))
        codes.append(record_codes[rows])
    return CategoricalDataset(variables, codes, mass)


class _Numbering(dict):
    """Numbers each distinct key in order of first appearance: a new key
    takes the next id."""

    def __missing__(self, key) -> int:
        number = self[key] = len(self)
        return number


def _records(lines, delimiter, args, distinct=False):
    """``(index, ids)`` of the records ``csv.reader`` reads from ``lines``
    (an iterable of strings): the :class:`_RecordIndex` built from the
    header, the first record that is not blank, with ``args``, and the id
    of each record after it.  With ``distinct``, those records are known
    to be distinct, so each is added to the index without being keyed.  A
    ``csv`` error (such as a field over ``csv.field_size_limit()``) is a
    :class:`ParseError` naming the line it was found on."""
    reader = csv.reader(lines, delimiter=delimiter)
    records = map(tuple, reader)
    try:
        header = next(records, None)
        if header is None:
            raise ParseError("empty file")
        if not header:  # blank records first; all blank: a blank header
            header = next(filter(None, records), header)
        index = _RecordIndex(header, *args, reader)
        number = index.add if distinct else index.__getitem__
        return index, np.fromiter(map(number, records), np.int64)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


@contextmanager
def _decoding(path):
    """Turns a byte sequence that is not UTF-8 into a :class:`DataError`
    naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _open_text(path):
    """``path`` opened as UTF-8 text for the csv module (``newline=""``)
    with a leading byte-order mark skipped; a byte sequence that is not
    UTF-8 raises :class:`DataError` naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, \
            _decoding(path):
        yield fh


#: The line path splits at most about this many bytes into lines at once,
#: and :func:`_fixed_width` numbers rows of about this many bytes at once,
#: so the lines or keys alive at one time are one block's, not the file's.
_BLOCK = 1 << 20
#: :func:`_fixed_width` reduces its rows this many to a row, and numbers
#: this many rows in its first block, where most keys are new.
_FOLD = 256


def _row_blocks(rows):
    """``(start, rows[start:start + size])`` over ``rows``: ``_FOLD`` rows
    first, then blocks of about ``_BLOCK`` bytes."""
    step = max(1, _BLOCK // rows.shape[1])
    start, size = 0, min(_FOLD, step)
    while start < len(rows):
        yield start, rows[start:start + size]
        start += size
        size = step


#: A line end: CR LF, a lone CR or LF, as ``bytes.splitlines`` and ``csv``
#: end a line.
_BREAK = re.compile(rb"\r\n?|\n")


def _blocks(data: bytes, start: int):
    """``data[start:]`` in pieces of about ``_BLOCK`` bytes, each cut just
    after the first line break (``_BREAK``, so a CR LF pair is never cut)
    at or past ``_BLOCK`` bytes into the piece, or at the end."""
    while start < len(data):
        cut = _BREAK.search(data, start + _BLOCK)
        end = cut.end() if cut else len(data)
        yield data[start:end]
        start = end


#: Blank lines, then the header, the first line that is not blank, and
#: its line end (``_BREAK``).
_HEADER = re.compile(rb"[\r\n]*([^\r\n]+)(?:%s)" % _BREAK.pattern)
_LF, _CR = b"\n\r"


def _fixed_width(data, body, lines):
    """The number in ``lines``, a :class:`_Numbering`, of each line of
    ``data[body:]``, numbered as byte columns, or ``None``, with no line
    numbered, when the body is not of that shape.

    The body is every line after the header, the first line that is not
    blank.  It has that shape when each of its lines, but a last one with
    no line end, has the same byte width, no CR or LF in it, and the same
    line end: LF on every line, or CR LF on every line.  Then the body is
    an ``(n, stride)`` byte array, read in place, whose column ranges come
    from one reduction over its rows folded ``_FOLD`` to a row (a view).
    The line of each row is numbered by an exact key: the bytes of the
    columns that vary, as a mixed-radix number over each column's range,
    in the narrowest type that holds the key of the greatest bytes.  A key
    range whose table of ids, one per slot, would take more bytes than the
    body (plus ``_SMALL_SLOTS``), such as that of mostly distinct lines, is
    declined too.  Each distinct line is numbered in ``lines`` in order of
    first appearance (a block's new keys sorted by the first row
    ``np.unique`` finds for each), so ``lines`` holds the lines the
    per-line split would number, in the same order, and each row's number
    is gathered from its key.  The rows are
    numbered a block at a time (:func:`_row_blocks`), so the memory beyond
    ``data`` is the ids, one block's keys and the table, which is no
    larger than the body.
    """
    lf = data.find(b"\n", body)
    if lf <= body:  # no line end, or a blank first line
        return None
    ends = [_CR, _LF] if data[lf - 1] == _CR else [_LF]
    stride = lf + 1 - body
    width = stride - len(ends)
    n = (len(data) - body) // stride
    tail = data[body + n * stride:]
    if width < 1 or b"\r" in tail or b"\n" in tail:
        return None
    rows = np.frombuffer(data, np.uint8, n * stride, body).reshape(n, stride)
    fold = min(_FOLD, n)
    m = n - n % fold
    folded = rows[:m].reshape(-1, fold * stride)  # a view, fold rows a row
    lo = np.minimum(folded.min(0).reshape(fold, stride).min(0),
                    rows[m:].min(0, initial=255))
    hi = np.maximum(folded.max(0).reshape(fold, stride).max(0),
                    rows[m:].max(0, initial=0))
    if lo[width:].tolist() != ends or hi[width:].tolist() != ends:
        return None
    if any(((rows[:, c] == _LF) | (rows[:, c] == _CR)).any()
           for c in range(width) if lo[c] <= _CR and hi[c] >= _LF):
        return None
    varying = np.flatnonzero(lo[:width] < hi[:width]).tolist() or [0]
    radix = [int(hi[c]) - int(lo[c]) + 1 for c in varying]
    cells = math.prod(radix)
    id_type = np.min_scalar_type(-n - 1)  # signed, for -1, and holds every id
    if cells * id_type.itemsize > n * stride + _SMALL_SLOTS:
        return None
    base = top = 0  # the keys of the smallest and of the largest bytes
    for c, r in zip(varying, radix):
        base = base * r + int(lo[c])
        top = top * r + int(hi[c])
    kind = np.min_scalar_type(top)
    number = np.full(cells, -1, dtype=id_type)  # each key's id; -1: unseen
    ids = np.empty(n + bool(tail), dtype=np.int64)
    for s, block in _row_blocks(rows):
        key = block[:, varying[0]].astype(kind)
        for c, r in zip(varying[1:], radix[1:]):
            key *= r
            key += block[:, c]
        key -= base
        got = number[key]
        new = np.flatnonzero(got < 0)
        if len(new):  # each new key's first row, in row order
            new = new[np.sort(np.unique(key[new], return_index=True)[1])]
            number[key[new]] = np.fromiter(
                (lines[data[at:at + width]]
                 for at in (body + stride * (s + new)).tolist()),
                dtype=np.int64, count=len(new))
            got = number[key]
        ids[s:s + len(block)] = got
    if tail:
        ids[n] = lines[tail]
    return ids


def _scan(path, delimiter=",", missing_token=MISSING_TOKEN,
          missing_policy="own-category", mass_column=None):
    """``(index, ids)`` of the file at ``path`` (a path or a file
    descriptor), read once: the :class:`_RecordIndex` of its records and
    the record id of each record after the header.  One helper,
    :func:`_records`, parses records on both paths below.

    When the bytes hold no quote character and the header, the first line
    that is not blank past a byte-order mark (``_HEADER``), has a line end,
    the line path numbers the distinct raw lines of the body in one
    :class:`_Numbering`: then a line is one record, since
    ``bytes.splitlines`` splits at LF, CR LF and a lone CR, exactly where
    ``csv`` ends a record, and keeps ``\\x85``, ``\\x0b``, ``\\x0c`` and
    ``\\x1c``-``\\x1e`` in the value, as ``csv`` does (``str.splitlines``
    would split there).  A body of lines of one byte width and one line
    end is numbered by its byte columns (:func:`_fixed_width`), which
    numbers the same lines in the same order; when it declines, the body
    is split into lines, a block at a time, for the same numbering.  Then
    the header line and the distinct lines, decoded, are parsed once each
    and added to the index unkeyed: the line numbers are the record ids.
    The line path's errors need not name their line: when it finds a
    fault (a bad record, bytes that are not UTF-8, a csv error), or when
    the bytes hold a quote or no header with a line end (an empty or blank
    file, or a header alone: each an error), the record path parses the
    text of the same bytes, so every error is the record path's.  There a
    quoted field may span lines, and an error names the physical line
    where its record starts, or for a ``csv`` error the line it was found
    on."""
    if missing_policy not in ("own-category", "drop-row"):
        raise DataError(f"unknown missing policy {missing_policy!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    args = (mass_column, missing_token, missing_policy == "drop-row")
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    header = b'"' not in data and _HEADER.match(data, start)
    if header:
        try:
            lines = _Numbering()
            ids = _fixed_width(data, header.end(), lines)
            if ids is None:
                body = chain.from_iterable(map(bytes.splitlines,
                                               _blocks(data, header.end())))
                ids = np.fromiter(map(lines.__getitem__, body), np.int64)
            # With no quote character, the record of a line holding no CR
            # or LF is line.split(delimiter) ([] when blank), which is one
            # to one, so the k-th distinct line is the k-th distinct
            # record, added without a second key, and a line's number is
            # its record id.
            return _records(map(bytes.decode, chain((header[1],), lines)),
                            delimiter, args, distinct=True)[0], ids
        except (NomassocError, UnicodeDecodeError):
            pass
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    with _decoding(path):
        return _records(text, delimiter, args)


def load_delimited(
    path,
    *,
    delimiter: str = ",",
    missing_token: str = MISSING_TOKEN,
    missing_policy: str = "own-category",
    mass_column: str | None = None,
) -> CategoricalDataset:
    """Read a delimited UTF-8 text file into a dataset.

    A leading byte-order mark is skipped, and so are blank lines before
    the header.  The first other record must be a header of unique names.
    Surrounding whitespace is stripped from names and values.  Category
    levels are the distinct observed strings in first-appearance order.
    ``missing_policy`` is ``"own-category"`` (the missing token becomes a
    regular level) or ``"drop-row"``.  If ``mass_column`` names a column,
    it supplies per-row masses instead of 1.0 and is not encoded as a
    variable.  A malformed record is reported
    at the first line where it occurs.

    The file is read once, as bytes.  When they hold no quote character
    ``"``, each line is one record: the lines after the header are
    numbered as raw bytes, and only the header and the distinct lines are
    decoded, parsed, checked and encoded, once each.
    When those lines share one byte width and one line end (LF, or CR
    LF), as short category codes written by ``csv.writer`` do, they are
    numbered by array passes over their byte columns; otherwise a repeated
    line costs one dictionary lookup.  When the bytes hold a quote, a
    quoted field may span lines, so ``csv.reader`` parses the whole text;
    and when the line path finds a fault, or no header with a line end,
    that record path runs over the same bytes, so every error, with its
    physical line, is the same on both.  The rows are one gather of the
    distinct records' codes.
    """
    index, ids = _scan(path, delimiter, missing_token, missing_policy,
                       mass_column)
    kept = index.kept()
    if not kept.all():
        ids = ids[kept[ids]]
    mass = np.asarray(index.masses)[ids] if index.mass_idx is not None else None
    return index.dataset(ids, mass)


def _load_table(path, **options) -> CategoricalDataset:
    """``compress(load_delimited(path, **options))``, from the same scan:
    each distinct kept record is one row, with the number of its lines as
    its integer mass, so the rows are never gathered.  With a mass column,
    whose values need not be integers, it is that expression itself."""
    if options.get("mass_column") is not None:
        return compress(load_delimited(path, **options))
    index, ids = _scan(path, **options)
    rows = np.flatnonzero(index.kept())
    lines = np.bincount(ids, minlength=len(index.values))
    return compress(index.dataset(rows, lines[rows]))


def from_scenarios(
    scenarios: Iterable[tuple[Sequence, float]],
    names: Sequence[str] | None = None,
) -> CategoricalDataset:
    """Build a dataset from explicit ``(label tuple, mass)`` scenarios.

    The empirical distribution of the result equals the given masses exactly
    (duplicate tuples merge by summing mass).  Level order follows first
    appearance in the scenario list.
    """
    merged: dict[tuple[str, ...], float] = {}
    arity = None
    for labels, mass in scenarios:
        labels = tuple(str(x) for x in labels)
        if arity is None:
            arity = len(labels)
        elif len(labels) != arity:
            raise DataError(
                f"scenario {labels} has arity {len(labels)}, expected {arity}"
            )
        mass = float(mass)
        if not np.isfinite(mass) or mass <= 0:
            raise DataError(f"scenario mass {mass!r} must be positive")
        merged[labels] = merged.get(labels, 0.0) + mass
        if merged[labels] == np.inf:
            raise DataError("total mass overflows float64")
    if not merged:
        raise DataError("no scenarios given")
    if names is None:
        names = [f"V{i + 1}" for i in range(arity)]
    elif len(names) != arity:
        raise DataError("number of names does not match scenario arity")
    return _encode([str(name) for name in names], range(arity), list(merged),
                   slice(None), np.array(list(merged.values())))


def expand_to_unit_rows(dataset: CategoricalDataset) -> CategoricalDataset:
    """Expand integer row masses into repeated unit-mass rows."""
    counts = np.rint(dataset.mass)
    if not np.allclose(dataset.mass, counts, rtol=0, atol=1e-9):
        raise DataError("expansion requires integer row masses")
    reps = counts.astype(np.int64)
    return CategoricalDataset(
        dataset.variables,
        [np.repeat(c, reps) for c in dataset.codes],
        validate=False,
    )


def _unit_rows(dataset: CategoricalDataset, what: str) -> None:
    """Refuses ``dataset`` for ``what``, which resamples or scores its
    rows one by one, unless every row mass is 1."""
    if not dataset.unit_mass:
        raise DataError(
            f"{what} requires unit-mass rows; use expand_to_unit_rows() first")


def _check_seed(seed: int) -> None:
    """Refuses ``seed`` unless it is a non-negative integer, a numpy
    integer included: the seeds numpy's generators take."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError("seed must be a non-negative integer")


def _row_weights(dataset: CategoricalDataset) -> np.ndarray | None:
    """The weights a count adds up: ``None`` when every row mass is 1,
    whose plain counts are exact in float64, else the row masses."""
    return None if dataset.unit_mass else dataset.mass


# -- composite variables ---------------------------------------------------


@dataclass(frozen=True)
class CompositeVariable:
    """A subset of variables viewed as one variable over observed tuples.

    ``scenario_codes[k]`` holds the member codes of composite level ``k``;
    levels are ordered lexicographically by member codes (members in
    ascending variable-index order).  Tuples with zero total mass are
    absent.  ``row_codes`` maps each dataset row to its composite level,
    with -1 for rows whose tuple carries zero total mass.
    """

    member_indices: tuple[int, ...]
    member_names: tuple[str, ...]
    scenario_codes: np.ndarray  # (K, m) int64
    scenario_labels: tuple[tuple[str, ...], ...]
    row_codes: np.ndarray  # (n_rows,) int64, -1 = zero-mass tuple
    cell_mass: np.ndarray  # (K,) positive

    @property
    def observed_cardinality(self) -> int:
        return len(self.cell_mass)

    @property
    def name(self) -> str:
        if len(self.member_names) == 1:
            return self.member_names[0]
        return "(" + ",".join(self.member_names) + ")"


#: A rank (:func:`_rank`) counts over a table of one entry per key slot
#: while that table has at most this many slots per row (plus
#: ``_SMALL_SLOTS``); a wider key range, such as two high-cardinality
#: variables, is ranked by a sort, whose memory follows the rows alone.
#: :func:`_count` keeps to the same bound (:func:`_dense`), so a table of
#: few rows, such as a bootstrap resample's, is never counted over many
#: more slots than rows.
_SLOTS_PER_ROW = 16
_SMALL_SLOTS = 1 << 12


def _dense(slots: int, rows: int) -> bool:
    """Whether a table of ``slots`` key slots over ``rows`` rows is counted
    densely rather than ranked by a sort."""
    return slots <= _SLOTS_PER_ROW * rows + _SMALL_SLOTS


def _rank(key: np.ndarray, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, occupied)``: each row's rank among the occupied slots of
    ``key`` (codes in ``[0, slots)``), so the codes keep the key's order,
    and the occupied slots in ascending order.

    Within the bound of :func:`_dense`, a boolean scatter marks the
    occupied slots and one scatter over those numbers them, with no sort,
    in O(n + slots); a wider key range is ranked by ``np.unique``, whose
    memory follows the rows alone.
    """
    if not _dense(slots, len(key)):
        occupied, key = np.unique(key, return_inverse=True)
        return key, occupied
    seen = np.zeros(slots, dtype=bool)
    seen[key] = True
    occupied = np.flatnonzero(seen)
    remap = np.empty(slots, dtype=np.int64)  # read at occupied slots only
    remap[occupied] = np.arange(len(occupied))
    return remap[key], occupied


@dataclass(frozen=True)
class _Occupied:
    """The tuples a member set takes in some row, zero-mass ones included.

    ``key`` numbers each row's tuple, lexicographically over member codes
    in the order of ``members``, the order they were added in;
    ``scenarios[k]`` holds the member codes of tuple ``k`` in that order.
    Greedy selection carries one of these for its chosen set, in pick
    order, so that a candidate's table costs one ``bincount``
    (:func:`_candidate_table`).
    """

    members: tuple[int, ...]
    key: np.ndarray  # (n_rows,) int64
    scenarios: np.ndarray  # (cells, len(members)) int64

    @classmethod
    def empty(cls, dataset: CategoricalDataset) -> "_Occupied":
        return cls((), np.zeros(dataset.n_rows, dtype=np.int64),
                   np.zeros((1, 0), dtype=np.int64))

    def folded(self, target: np.ndarray | None, n_target: int) -> np.ndarray:
        """``key * n_target + target`` (``key`` itself when ``target`` is
        ``None``): the key a greedy step folds once for all its candidates
        (:func:`_candidate_table`)."""
        return self.key if target is None else self.key * n_target + target

    def extended(self, keys: np.ndarray, card: int) -> np.ndarray:
        """The member codes of the tuples ``keys`` numbers ``tuple * card +
        code`` when a member of ``card`` levels is added last."""
        parent, code = np.divmod(keys, card)
        return np.column_stack((self.scenarios[parent], code))


def _extend(dataset: CategoricalDataset, base: _Occupied, idx: int) -> _Occupied:
    """``base`` with variable ``idx`` added as its last member: one
    :func:`_rank` of ``key * card + code`` numbers the tuples
    lexicographically in pick order, ``idx`` last."""
    card = dataset.variables[idx].cardinality
    key = base.key * card
    key += dataset.codes[idx]
    key, occupied = _rank(key, len(base.scenarios) * card)
    return _Occupied(base.members + (idx,), key, base.extended(occupied, card))


#: The largest key an int64 holds: :func:`_joint_codes` ranks before a
#: multiply that could pass it.
_KEY_MAX = int(np.iinfo(np.int64).max)


def _joint_codes(
    dataset: CategoricalDataset, indices: Sequence[int]
) -> tuple[np.ndarray, int]:
    """``(key, cells)``: ``key`` numbers each row's tuple of the variables
    ``indices`` (sorted) in ``[0, cells)``, lexicographically over member
    codes in ascending member index, with ``cells`` at most the row count.
    The key need not be ranked: ``cells`` is its range, in which tuples of
    no row keep their slots, so ``_rank(key, cells)`` numbers the tuples
    taken.

    Each member after the first is multiplied onto the key, ``key * card +
    code``, a mixed-radix number of the tuple so far.  Before a multiply
    the key is ranked (:func:`_rank`), which keeps its order, in two cases:

    - the multiply could pass the largest int64;
    - it would take the range past the row count ``n``, the key is no
      longer the first member's codes, and no rank so far has left more
      than half the rows in cells of their own (``2 * cells > n``).  Up to
      that point a correlated composite, whose tuples stay few, is ranked
      within the dense count at every step, with no sort; after it, a rank
      has little left to compact.

    A rank that leaves ``cells == n`` ends the loop: every row then has its
    own tuple, which later members, ordered after the key, cannot split.  A
    range still wider than ``n`` after the last member is ranked once, by a
    sort when it is too wide to count.  Any rank numbers the tuples as
    pairing every member in turn would, so a table counted over the key is
    the same to the bit.  Memory is the n-row int64 key plus, for a rank,
    one byte of occupancy and one int64 remap entry per key slot, or a
    sort's.
    """
    first = dataset.codes[indices[0]]
    key, cells, n = first, dataset.variables[indices[0]].cardinality, len(first)
    apart = False  # a rank has left more than half the rows apart
    for idx in indices[1:]:
        card = dataset.variables[idx].cardinality
        if cells * card - 1 > _KEY_MAX or (
                cells * card > n and key is not first and not apart):
            key, occupied = _rank(key, cells)
            cells = len(occupied)
            if cells == n:
                return key, cells
            apart = 2 * cells > n
        key = np.multiply(key, card, out=None if key is first else key)
        key += dataset.codes[idx]
        cells *= card
    if cells > n:
        key, occupied = _rank(key, cells)
        cells = len(occupied)
    return key, cells


def _positive_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, keys)``: the rows of positive mass of a mass table whose
    last axis holds the target levels, flattened over its other axes, as
    one C-ordered float64 array, and their row numbers."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    table = table.reshape(-1, table.shape[-1])
    # entries are non-negative: a row sums to more than 0 when one does
    keys = np.flatnonzero(table @ np.ones(table.shape[1]) > 0)
    if len(keys) < len(table):
        table = table[keys]
    return table, keys


def _count(
    key: np.ndarray,
    slots: int,
    target: np.ndarray | None,
    n_target: int,
    weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(table, keys)``: the mass table of ``key`` (codes in
    ``[0, slots)``) against ``target`` (``n_target`` levels; ``None`` and 1
    for the key's masses alone), as its float64 rows of positive mass in
    ascending key order, and their key codes.

    One ``bincount`` over the dense key ``key * n_target + target`` adds
    ``weights`` (the row masses; ``None`` for unit masses, whose integer
    counts are exact in float64) in row order, so the table does not
    depend on how the codes were built.  Above the bound of :func:`_dense`,
    the key codes are first ranked among the distinct ones (:func:`_rank`),
    so the table's size follows the rows.  With a ``target``, a writeable
    ``key`` is overwritten; a dataset's arrays and those :func:`compose`
    builds are read-only.
    """
    occupied = None
    if not _dense(slots * n_target, len(key)):
        key, occupied = _rank(key, slots)
        slots = len(occupied)
    if target is not None:  # in place: a freshly built key is not copied
        out = key if key.flags.writeable else None
        key = np.multiply(key, n_target, out=out)
        key += target
    table = np.bincount(key, weights=weights, minlength=slots * n_target)
    table, keys = _positive_rows(table.reshape(slots, n_target))
    return table, keys if occupied is None else occupied[keys]


def _candidate_table(
    dataset: CategoricalDataset,
    base: _Occupied,
    folded: np.ndarray,
    idx: int,
    target: np.ndarray | None,
    n_target: int,
    weights: np.ndarray | None,
) -> np.ndarray:
    """:func:`_count` of ``base`` with variable ``idx`` added against
    ``target``, with no rank.

    ``folded`` is ``base.folded(target, n_target)``, folded once per
    greedy step for all its candidates.  One ``bincount`` over ``folded *
    card + code`` counts a ``(cells, n_target, card)`` array; moved to
    ``(cells * card, n_target)``, its rows are the cells ``cell * card +
    code``, in lexicographic order over the members in pick order, ``idx``
    last.  A key range too wide to count takes :func:`_count`'s ranked
    route on the key ``base.key * card + code``.  Unless the pick order is
    ascending, the table's rows, one per cell, are sorted by a lexsort of
    their member codes taken in ascending member index, the composite's own
    order.  The result equals the table of the composite built from
    scratch over :func:`_joint_codes`, to the bit.
    """
    card = dataset.variables[idx].cardinality
    cells = len(base.scenarios)
    if _dense(cells * card * n_target, len(folded)):
        key = folded * card
        key += dataset.codes[idx]
        table = np.bincount(key, weights=weights,
                            minlength=cells * n_target * card)
        table, keys = _positive_rows(
            table.reshape(cells, n_target, card).transpose(0, 2, 1))
    else:
        key = base.key * card
        key += dataset.codes[idx]
        table, keys = _count(key, cells * card, target, n_target, weights)
    members = base.members + (idx,)
    if list(members) != sorted(members):
        scenarios = base.extended(keys, card)[:, np.argsort(members)]
        table = table[np.lexsort(scenarios.T[::-1])]
    return table


def _representatives(
    key: np.ndarray, cells: int, keys: np.ndarray
) -> np.ndarray:
    """One row of each cell in ``keys``, of the codes ``key`` numbers in
    ``[0, cells)``; any row of a cell has its member codes."""
    rows = np.empty(cells, dtype=np.int64)  # read at occupied cells only
    rows[key] = np.arange(len(key))
    return rows[keys]


def compress(dataset: CategoricalDataset) -> CategoricalDataset:
    """The distinct rows of ``dataset`` with their masses summed.

    Rows follow the lexicographic order of their codes, and rows of zero
    mass are gone; the variables, with all their levels, are unchanged.
    Every measure of the package reads a dataset only through the masses
    of its joint cells, so on the result it is computed over one row per
    cell.  Integer masses below 2**53 add exactly in any order, so those
    results are bit-identical to the row form's; any other dataset is
    returned unchanged.
    """
    mass = dataset.mass
    if not (dataset.total_mass < 2**53 and np.array_equal(mass, np.floor(mass))):
        return dataset
    key, cells = _joint_codes(dataset, range(dataset.n_variables))
    cell_mass, keys = _count(key, cells, None, 1, mass)
    rows = _representatives(key, cells, keys)
    return CategoricalDataset(
        dataset.variables, [c[rows] for c in dataset.codes], cell_mass[:, 0],
        validate=False,
    )


def compose(dataset: CategoricalDataset, indices: Sequence[VarRef]) -> CompositeVariable:
    """View an ordered set of variables as one composite categorical variable.

    Member order is normalised to ascending variable index; composite level
    codes enumerate only observed (positive-mass) tuples, lexicographically.
    """
    resolved = [dataset.index_of(i) for i in indices]
    if not resolved:
        raise DataError("composite requires at least one variable")
    if len(set(resolved)) != len(resolved):
        raise DataError("composite members must be distinct")
    members = tuple(sorted(resolved))
    row_codes, cells = _joint_codes(dataset, members)
    cell_mass, keys = _count(row_codes, cells, None, 1, dataset.mass)
    cell_mass = cell_mass[:, 0]
    rep_rows = _representatives(row_codes, cells, keys)
    if len(keys) < cells:  # renumber the positive cells; -1 for the rest
        remap = np.full(cells, -1, dtype=np.int64)
        remap[keys] = np.arange(len(keys))
        row_codes = remap[row_codes]
    scenario_codes = np.stack(
        [dataset.codes[i][rep_rows] for i in members], axis=1
    )
    labels = tuple(
        tuple(
            dataset.variables[i].levels[scenario_codes[k, j]]
            for j, i in enumerate(members)
        )
        for k in range(len(cell_mass))
    )
    return CompositeVariable(
        member_indices=members,
        member_names=tuple(dataset.variables[i].name for i in members),
        scenario_codes=_readonly(scenario_codes),
        scenario_labels=labels,
        row_codes=_readonly(row_codes),
        cell_mass=_readonly(cell_mass),
    )


# -- contingency tables ----------------------------------------------------


class ContingencyTable:
    """Joint mass table between a composite explanatory variable and a response.

    ``mass[i, s]`` is the total mass of rows at composite level ``i`` and
    response level ``s``.  Marginals and the grand total are derived from the
    table; all entries must be non-negative and the total positive.
    """

    __slots__ = ("mass", "x_marginal", "y_marginal", "total",
                 "x_labels", "y_labels", "x_name", "y_name")

    def __init__(
        self,
        mass: np.ndarray,
        *,
        x_labels: Sequence | None = None,
        y_labels: Sequence | None = None,
        x_name: str = "X",
        y_name: str = "Y",
    ):
        mass = np.asarray(mass, dtype=np.float64)
        if mass.ndim != 2:
            raise DataError("contingency mass must be a 2-d array")
        if not np.all(np.isfinite(mass)):
            raise DataError("contingency mass must be finite")
        if mass.size and mass.min() < 0:
            raise DataError("contingency mass must be non-negative")
        with np.errstate(over="ignore"):  # an overflowing total is refused
            total = float(mass.sum())
        if total <= 0:
            raise DataError("contingency table is degenerate (total mass 0)")
        if total == np.inf:
            raise DataError("contingency total mass is not finite")
        self.mass = _readonly(mass)
        self.x_marginal = _readonly(mass.sum(axis=1))
        self.y_marginal = _readonly(mass.sum(axis=0))
        self.total = total
        self.x_labels = tuple(x_labels) if x_labels is not None else tuple(
            str(i) for i in range(mass.shape[0])
        )
        self.y_labels = tuple(y_labels) if y_labels is not None else tuple(
            str(s) for s in range(mass.shape[1])
        )
        self.x_name = x_name
        self.y_name = y_name

    @property
    def x_levels(self) -> int:
        return self.mass.shape[0]

    @property
    def y_levels(self) -> int:
        return self.mass.shape[1]

    def y_probabilities(self) -> np.ndarray:
        return self.y_marginal / self.total

    def transpose(self) -> "ContingencyTable":
        """Swap the explanatory and response roles."""
        return ContingencyTable(
            self.mass.T.copy(),
            x_labels=self.y_labels,
            y_labels=self.x_labels,
            x_name=self.y_name,
            y_name=self.x_name,
        )

    def __repr__(self) -> str:
        return (
            f"ContingencyTable({self.x_name}[{self.x_levels}] x "
            f"{self.y_name}[{self.y_levels}], total={self.total:g})"
        )


def _as_composite(
    dataset: CategoricalDataset, ref
) -> CompositeVariable:
    if isinstance(ref, CompositeVariable):
        return ref
    if isinstance(ref, (int, str, np.integer)):
        return compose(dataset, [ref])
    return compose(dataset, list(ref))


def contingency(
    dataset: CategoricalDataset,
    x,
    y,
) -> ContingencyTable:
    """Joint mass table of ``y`` (response) against composite ``x``.

    ``x`` may be a :class:`CompositeVariable`, a variable reference, or a
    sequence of references; ``y`` a variable reference or composite.  The
    response axis of a plain variable keeps that variable's full level set,
    so levels with zero mass appear as zero columns.  A plain response must
    not be a member of ``x``; a composite response may share members with
    it, being a variable of its own.
    """
    xc = _as_composite(dataset, x)
    if isinstance(y, CompositeVariable) or not isinstance(y, (int, str, np.integer)):
        yc = _as_composite(dataset, y)
        y_codes = yc.row_codes
        n_y = yc.observed_cardinality
        y_labels = tuple("/".join(t) for t in yc.scenario_labels)
        y_name = yc.name
    else:
        y_idx = dataset.index_of(y)
        if y_idx in xc.member_indices:
            raise DataError(
                f"response {dataset.variables[y_idx].name!r} is a member of x"
            )
        y_codes = dataset.codes[y_idx]
        n_y = dataset.variables[y_idx].cardinality
        y_labels = dataset.variables[y_idx].levels
        y_name = dataset.variables[y_idx].name
    x_codes, mass = xc.row_codes, dataset.mass
    if x_codes.min(initial=0) < 0 or y_codes.min(initial=0) < 0:
        valid = (x_codes >= 0) & (y_codes >= 0)  # rows of zero-mass tuples
        x_codes, y_codes, mass = x_codes[valid], y_codes[valid], mass[valid]
    # copied: the codes of a composite built by hand may be writeable
    table = _count(x_codes.copy(), xc.observed_cardinality, y_codes, n_y,
                   mass)[0]
    return ContingencyTable(
        table,
        x_labels=tuple("/".join(t) for t in xc.scenario_labels),
        y_labels=y_labels,
        x_name=xc.name,
        y_name=y_name,
    )


# -- splitting -------------------------------------------------------------


def split(
    dataset: CategoricalDataset, fraction: float, seed: int
) -> tuple[CategoricalDataset, CategoricalDataset]:
    """Disjoint random row partition with sizes ``(round(f*n), rest)``.

    Requires unit row masses; row-level resampling of weighted scenario
    tables is meaningless.  Raises when either part would be empty.
    Deterministic given ``seed``.
    """
    if not 0 < fraction < 1:
        raise DataError("fraction must be in (0, 1)")
    _check_seed(seed)
    _unit_rows(dataset, "split")
    n = dataset.n_rows
    k = int(round(fraction * n))
    if not 0 < k < n:
        raise DataError(f"fraction {fraction} splits {n} rows into parts "
                        f"of {k} and {n - k} rows; both must be non-empty")
    perm = np.random.default_rng(seed).permutation(n)
    first = np.sort(perm[:k])
    second = np.sort(perm[k:])
    return dataset.take(first), dataset.take(second)

"""Independent brute-force oracles used to compute expected test values.

Everything here is deliberately written with plain Python dictionaries and
loops -- no numpy, no calls into the package under test -- so the values it
produces constitute an independent check of the library's vectorised paths.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from fractions import Fraction
from itertools import product


def joint_from_rows(rows, masses, x_pos, y_pos):
    """Joint mass dict {(x_tuple, y_val): mass} from raw row tuples."""
    joint = defaultdict(float)
    for row, m in zip(rows, masses):
        x = tuple(row[p] for p in x_pos)
        joint[(x, row[y_pos])] += m
    return dict(joint)


def marginals(joint):
    mx = defaultdict(float)
    my = defaultdict(float)
    total = 0.0
    for (x, y), m in joint.items():
        mx[x] += m
        my[y] += m
        total += m
    return dict(mx), dict(my), total


def gamma(joint):
    """Association matrix as a nested dict {s: {t: value}}."""
    mx, my, total = marginals(joint)
    out = {}
    for s in my:
        if my[s] == 0:
            continue
        out[s] = {}
        for t in my:
            if my[t] == 0:
                continue
            acc = 0.0
            for x in mx:
                acc += (
                    joint.get((x, s), 0.0) * joint.get((x, t), 0.0) / mx[x]
                )
            out[s][t] = acc / my[s]
    return out

def lift_vector(joint):
    """Accuracy-lift components {s: value} for levels with 0 < p_s < 1."""
    g = gamma(joint)
    _, my, total = marginals(joint)
    out = {}
    for s, row in g.items():
        p = my[s] / total
        if 0.0 < p < 1.0:
            out[s] = (row[s] - p) / (1.0 - p)
    return out


def weighted_tau(joint, scheme="gk"):
    """Weighted association; scheme in {gk, equal, invprob}."""
    lifts = lift_vector(joint)
    _, my, total = marginals(joint)
    p = {s: my[s] / total for s in lifts}
    if scheme == "gk":
        raw = {s: p[s] * (1.0 - p[s]) for s in lifts}
    elif scheme == "equal":
        raw = {s: 1.0 for s in lifts}
    elif scheme == "invprob":
        raw = {s: 1.0 / p[s] for s in lifts}
    else:
        raise ValueError(scheme)
    z = sum(raw.values())
    return sum(raw[s] / z * lifts[s] for s in lifts)


def exact_gk_tau(counts):
    """Goodman-Kruskal tau of an integer count table (list of rows), as an
    exact :class:`Fraction`; rows and levels of zero count drop out."""
    rows = [[int(c) for c in row] for row in counts if sum(row) > 0]
    total = sum(map(sum, rows))
    y_sq = Fraction(sum(sum(col) ** 2 for col in zip(*rows)), total * total)
    cond = sum(Fraction(sum(c * c for c in row), sum(row)) for row in rows)
    return (cond / total - y_sq) / (1 - y_sq)


def joint_codes(rows, masses, positions):
    """Composite over ``positions``: ``(row_codes, scenarios, cell_masses)``.

    Cells are the tuples with positive total mass, sorted; rows of zero-mass
    tuples get -1.  Masses add in row order.
    """
    cells = {}
    for row, m in zip(rows, masses):
        key = tuple(row[p] for p in positions)
        cells[key] = cells.get(key, 0.0) + m
    scenarios = sorted(key for key, m in cells.items() if m > 0)
    index = {key: i for i, key in enumerate(scenarios)}
    row_codes = [index.get(tuple(row[p] for p in positions), -1) for row in rows]
    return row_codes, scenarios, [cells[key] for key in scenarios]


class BadLine(Exception):
    """A record :func:`load_delimited` rejects; ``line`` is its line number
    (1 is the header), or ``None`` when no data row is left."""

    def __init__(self, line):
        super().__init__(f"line {line}")
        self.line = line


def _read(reader):
    """The records of ``reader``; a ``csv`` error (such as a field over
    ``csv.field_size_limit()``) as a :class:`BadLine` at the line where
    the reader found it."""
    try:
        yield from reader
    except csv.Error:
        raise BadLine(reader.line_num) from None


def load_delimited(path, delimiter=",", missing_token="__NA__",
                   missing_policy="own-category", mass_column=None):
    """Read a delimited file cell by cell: ``(names, levels, codes, masses)``.

    ``levels[v]`` lists variable ``v``'s labels in first-appearance order,
    ``codes[v]`` its per-row codes, ``masses`` the per-row masses (``None``
    without a mass column).  Values are stripped before the missing-token
    comparison.  Raises :class:`BadLine` at the first bad record or
    ``csv`` error.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _read(csv.reader(fh, delimiter=delimiter))
        header = [h.strip() for h in next(reader)]
        mass_idx = header.index(mass_column) if mass_column is not None else None
        positions = [i for i in range(len(header)) if i != mass_idx]
        columns = [[] for _ in positions]
        masses = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise BadLine(lineno)
            record = [value.strip() for value in record]
            if missing_policy == "drop-row" and any(
                record[i] == missing_token for i in positions
            ):
                continue
            if mass_idx is not None:
                try:
                    m = float(record[mass_idx])
                except ValueError:
                    raise BadLine(lineno) from None
                if not math.isfinite(m) or m < 0:
                    raise BadLine(lineno)
                masses.append(m)
            for col, i in zip(columns, positions):
                col.append(record[i])
    if not columns or not columns[0]:
        raise BadLine(None)
    levels, codes = [], []
    for col in columns:
        index = {}
        codes.append([index.setdefault(label, len(index)) for label in col])
        levels.append(tuple(index))
    names = [header[i] for i in positions]
    return names, levels, codes, masses if mass_idx is not None else None


def concentration(masses):
    """sum(p^2) over a list of cell masses."""
    total = sum(masses)
    return sum((m / total) ** 2 for m in masses)


def concentration_from_rows(rows, masses, positions):
    cells = defaultdict(float)
    for row, m in zip(rows, masses):
        cells[tuple(row[p] for p in positions)] += m
    return concentration(list(cells.values()))


def determined(rows, masses, target, given):
    """Whether position ``target`` is a function of the positions ``given``
    over the rows of positive mass: each ``given`` tuple meets one value."""
    seen = {}
    for row, m in zip(rows, masses):
        if m > 0 and seen.setdefault(
            tuple(row[p] for p in given), row[target]
        ) != row[target]:
            return False
    return True


def structural_verdicts(rows, masses, basis, candidates):
    """``(determinism, achieves_full, irredundant)`` of a structural basis:
    every candidate determined by the basis, no member by the others."""
    determinism = [
        (v, v in basis or determined(rows, masses, v, basis))
        for v in candidates
    ]
    irredundant = not any(
        determined(rows, masses, v, [c for c in basis if c != v])
        for v in basis
    )
    return determinism, all(d for _, d in determinism), irredundant


# -- screening-scenario population, enumerated independently -----------------

SCREEN_PAIR = {(0, 0): 9 / 16, (0, 1): 3 / 16, (1, 0): 3 / 16, (1, 1): 1 / 16}
SCREEN_COND = {
    (0, 0): (0.95, 0.05, 0.00),
    (0, 1): (0.50, 0.50, 0.00),
    (1, 0): (0.30, 0.70, 0.00),
    (1, 1): (0.00, 0.05, 0.95),
}


def screening_population(flip_prob=0.10, s5_prob=0.8, one_sided=True):
    """Exact joint {(y, x1, x2, r3, r4, s5): prob} over positive cells."""

    def copy_prob(value, source):
        if source == 1:
            return 1.0 - flip_prob if value == 1 else flip_prob
        if one_sided:
            return 1.0 if value == 0 else 0.0
        return flip_prob if value == 1 else 1.0 - flip_prob

    cells = {}
    for x1, x2, y, r3, r4, s5 in product((0, 1), (0, 1), (0, 1, 2),
                                         (0, 1), (0, 1), (0, 1)):
        p_s5 = s5_prob if (x1 == 1 and x2 == 1) else 0.0
        prob = (
            SCREEN_PAIR[(x1, x2)]
            * SCREEN_COND[(x1, x2)][y]
            * copy_prob(r3, x1)
            * copy_prob(r4, x2)
            * (p_s5 if s5 == 1 else 1.0 - p_s5)
        )
        if prob > 0:
            cells[(y, x1, x2, r3, r4, s5)] = prob
    return cells


def screening_tau(columns, scheme="gk", **kwargs):
    """Population weighted association of the response on given columns.

    ``columns`` are names from (X1, X2, R3, R4, S5).
    """
    order = ("Y", "X1", "X2", "R3", "R4", "S5")
    pos = [order.index(c) for c in columns]
    cells = screening_population(**kwargs)
    joint = defaultdict(float)
    for key, prob in cells.items():
        joint[(tuple(key[p] for p in pos), key[0])] += prob
    return weighted_tau(dict(joint), scheme)

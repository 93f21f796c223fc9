"""Built-in reference tables used by the demos and the regression suite.

``loan_tables`` exposes joint frequency tables from a 650-record loan
application dataset (variables On-Time, Age, Income, Risk, Credit), for each
of the three response choices analysed in the demos.  ``retail_table`` is a
7x6 joint frequency table between an account attribute and a six-category
response from a retail-credit dataset with 24,000 records.

The ``fixture_*`` distributions are small exact scenario tables that
separate adjacent levels of the equivalence hierarchy: each satisfies one
relation while violating the next stronger one.
"""

from __future__ import annotations

from .dataset import CategoricalDataset, ContingencyTable, from_scenarios
from .errors import DataError

ON_TIME_LEVELS = ("no", "yes")
AGE_LEVELS = ("young", "med", "sen")
INCOME_LEVELS = ("low", "mid", "hi")
RISK_LEVELS = ("low", "med", "hi")
CREDIT_LEVELS = ("red", "yellow", "green")

_RISK_TABLES = {
    "OnTime": ([[11, 2, 52], [306, 24, 255]], ON_TIME_LEVELS),
    "Age": ([[13, 9, 246], [291, 17, 61], [13, 0, 0]], AGE_LEVELS),
    "Income": ([[19, 8, 45], [211, 17, 209], [87, 1, 53]], INCOME_LEVELS),
    "Credit": ([[35, 2, 40], [98, 9, 93], [184, 15, 174]], CREDIT_LEVELS),
}

_CREDIT_TABLES = {
    "OnTime": ([[19, 30, 16], [58, 170, 357]], ON_TIME_LEVELS),
    "Age": ([[40, 80, 148], [34, 118, 217], [3, 2, 8]], AGE_LEVELS),
    "Income": ([[7, 20, 45], [54, 137, 246], [16, 43, 82]], INCOME_LEVELS),
    "Risk": ([[35, 98, 184], [2, 9, 15], [40, 93, 174]], RISK_LEVELS),
}

_Y_LEVELS = {"Risk": RISK_LEVELS, "Credit": CREDIT_LEVELS, "OnTime": ON_TIME_LEVELS}


def loan_tables(response: str) -> dict[str, ContingencyTable]:
    """Joint frequency tables of the loan dataset for one response choice.

    ``response`` is ``"Risk"``, ``"Credit"`` or ``"OnTime"``; the result maps
    each available explanatory variable name to its contingency table.  The
    On-Time response tables are the transposed Risk/Credit tables, so only
    the pairings observed in the source data are available.
    """
    if response == "Risk":
        source = _RISK_TABLES
    elif response == "Credit":
        source = _CREDIT_TABLES
    elif response == "OnTime":
        return {
            "Risk": loan_tables("Risk")["OnTime"].transpose(),
            "Credit": loan_tables("Credit")["OnTime"].transpose(),
        }
    else:
        raise DataError(
            f"unknown loan response {response!r}; "
            "expected 'Risk', 'Credit' or 'OnTime'"
        )
    return {
        name: ContingencyTable(
            counts,
            x_labels=levels,
            y_labels=_Y_LEVELS[response],
            x_name=name,
            y_name=response,
        )
        for name, (counts, levels) in source.items()
    }


_RETAIL_COUNTS = [
    [16, 1, 0, 0, 0, 0],
    [1199, 1274, 346, 66, 33, 1],
    [640, 2363, 1363, 343, 103, 7],
    [381, 2203, 2646, 949, 402, 18],
    [182, 1131, 2038, 1369, 762, 55],
    [79, 407, 937, 1047, 1286, 206],
    [2, 5, 14, 20, 51, 55],
]


def retail_table() -> ContingencyTable:
    """7x6 joint frequency table from a retail-credit dataset (24,000 rows)."""
    return ContingencyTable(
        _RETAIL_COUNTS,
        x_labels=[str(i) for i in range(1, 8)],
        y_labels=[str(s) for s in range(1, 7)],
        x_name="V6",
        y_name="V4",
    )


def retail_dataset() -> CategoricalDataset:
    """The retail table as a weighted two-variable scenario dataset."""
    scenarios = []
    for i, row in enumerate(_RETAIL_COUNTS, start=1):
        for s, count in enumerate(row, start=1):
            if count:
                scenarios.append(((str(i), str(s)), float(count)))
    return from_scenarios(scenarios, names=("V6", "V4"))


# -- equivalence-ladder fixtures -------------------------------------------


def fixture_e2_without_e1() -> CategoricalDataset:
    """Both variables predict the response perfectly, yet neither determines
    the other: E2 holds, E1 fails."""
    rows = [
        (("1", "1", "2"), 2 / 7),
        (("0", "2", "3"), 2 / 7),
        (("0", "3", "1"), 2 / 7),
        (("1", "4", "2"), 1 / 7),
    ]
    return from_scenarios(rows, names=("Y", "X1", "X2"))


def fixture_e4_without_e3() -> CategoricalDataset:
    """Equal association vectors but different matrices: E4 holds, E3 fails
    (the matrices differ in the entry coupling the first two categories)."""
    rows = [
        (("1", "1", "1"), 1 / 6),
        (("2", "1", "3"), 1 / 6),
        (("2", "2", "2"), 1 / 6),
        (("4", "2", "3"), 1 / 6),
        (("3", "3", "1"), 1 / 6),
        (("4", "3", "2"), 1 / 6),
    ]
    return from_scenarios(rows, names=("Y", "X1", "X2"))


def fixture_e5_without_e4() -> CategoricalDataset:
    """Equal weighted association under component-symmetric weights but
    different vectors (the first two components are swapped): E5 holds for
    such weights, E4 fails."""
    rows = [
        (("1", "1", "2"), 1 / 10),
        (("1", "1", "1"), 2 / 10),
        (("2", "2", "1"), 1 / 10),
        (("3", "3", "1"), 1 / 10),
        (("1", "4", "4"), 1 / 10),
        (("2", "1", "1"), 2 / 10),
        (("3", "1", "3"), 1 / 10),
        (("2", "4", "4"), 1 / 10),
    ]
    return from_scenarios(rows, names=("Y", "X1", "X2"))


def fixture_relabeled_pair() -> CategoricalDataset:
    """A variable, a relabelled copy, and a response depending on both only
    through the first: mutual determinism (E2prime) holds by construction."""
    rows = [
        (("0", "a", "c"), 0.3),
        (("1", "b", "b"), 0.5),
        (("1", "c", "a"), 0.2),
    ]
    return from_scenarios(rows, names=("Y", "X1", "X2"))

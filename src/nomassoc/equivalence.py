"""Pairwise equivalence relations between explanatory variables.

Two explanatory variables (or composites) can be compared with respect to a
response through a strictly weakening chain of relations:

* ``E1`` -- mutual determinism plus perfect prediction of the response:
  the association of each variable on the other and of the response on the
  first all equal 1;
* ``E2`` -- the response is perfectly predicted by both variables;
* ``E2prime`` -- mutual determinism of the two variables (implies ``E3``);
* ``E3`` -- equal association matrices;
* ``E4`` -- equal association vectors;
* ``E5`` -- equal weighted association for a given weight vector.

``E-i`` implies ``E-(i+1)``; for a binary response E3, E4 and E5 coincide.
Identical member sets are equivalent at every level by reflexivity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .association import (
    WeightVector,
    _tau,
    association_matrix,
    association_vector,
    goodman_kruskal_tau,
    resolve_weights,
    weighted_tau,
)
from .dataset import CategoricalDataset, _as_composite, contingency
from .errors import DataError, HierarchyInconsistencyError

LEVEL_NAMES = ("E1", "E2", "E2prime", "E3", "E4", "E5")

#: Order evaluated by :func:`hierarchy_scan` (E2prime sits beside E2 and is
#: not part of the numbered chain).
HIERARCHY = ("E1", "E2", "E3", "E4", "E5")

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EquivalenceLevel:
    """A relation identifier with its comparison tolerance.

    ``alpha`` selects the weights for E5 (and, per the generalised form of
    the perfect-prediction checks, for E1/E2/E2prime); a scheme name or an
    explicit :class:`WeightVector`.  The default is the variation-weighted
    scheme, i.e. the Goodman-Kruskal tau.
    """

    level: str
    tolerance: float = DEFAULT_TOLERANCE
    alpha: Union[str, WeightVector, None] = None

    def __post_init__(self):
        if self.level not in LEVEL_NAMES:
            raise DataError(
                f"unknown equivalence level {self.level!r}; "
                f"expected one of {LEVEL_NAMES}"
            )
        if not self.tolerance > 0:
            raise DataError("tolerance must be positive")


@dataclass(frozen=True)
class Witness:
    """First violated comparison of a failed equivalence check."""

    comparison: str
    index: tuple[int, ...] | None
    labels: tuple[str, ...] | None
    lhs: float
    rhs: float

    def __str__(self) -> str:
        where = f" at {self.labels or self.index}" if (self.labels or self.index) else ""
        return f"{self.comparison}{where}: {self.lhs:.6g} != {self.rhs:.6g}"


@dataclass(frozen=True)
class EquivalenceReport:
    level: str
    holds: bool
    witness: Witness | None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise DataError("a holding report cannot carry a witness")
        if not self.holds and self.witness is None:
            raise DataError("a failing report must carry a witness")


def _first_difference(
    comparison: str, lhs: np.ndarray, rhs: np.ndarray, labels, tol: float
) -> Witness | None:
    """The first entry, in C order, where ``lhs`` and ``rhs`` differ by more
    than ``tol``, with its index and the response labels at that index;
    ``None`` if no entry does."""
    diff = np.abs(lhs - rhs)
    if not (diff.size and diff.max() > tol):
        return None
    index = np.unravel_index(int(np.argmax(diff > tol)), diff.shape)
    index = tuple(int(i) for i in index)
    return Witness(comparison, index, tuple(labels[i] for i in index),
                   float(lhs[index]), float(rhs[index]))


def check(
    dataset: CategoricalDataset,
    x1,
    x2,
    y,
    level: Union[EquivalenceLevel, str],
) -> EquivalenceReport:
    """Decide one equivalence relation between ``x1`` and ``x2`` w.r.t. ``y``.

    ``x1``/``x2`` may be variable references, index sequences, or
    :class:`~nomassoc.dataset.CompositeVariable` objects, and may share
    members: the mutual comparisons tabulate one composite against the
    other.  Each level is an ordered list of comparisons; the report
    carries the first one that fails.
    """
    if isinstance(level, str):
        level = EquivalenceLevel(level)
    tol = level.tolerance
    c1 = _as_composite(dataset, x1)
    c2 = _as_composite(dataset, x2)
    if c1.member_indices == c2.member_indices:
        return EquivalenceReport(level=level.level, holds=True, witness=None)

    if level.level in ("E1", "E2", "E2prime"):
        # explicit weight vectors are sized for the response; the mutual
        # determinism checks compare the two explanatory variables, whose
        # level counts differ, so only scheme names carry over (any regular
        # scheme yields the same truth value for a tau = 1 predicate)
        scheme = level.alpha if isinstance(level.alpha, str) else None
        n1, n2 = c1.name, c2.name
        mutual = [(f"tau({n1}|{n2})", c2, c1, scheme),
                  (f"tau({n2}|{n1})", c1, c2, scheme)]
        of_y = [(f"tau(Y|{n1})", c1, y, level.alpha),
                (f"tau(Y|{n2})", c2, y, level.alpha)]
        comparisons = {"E1": mutual + of_y[:1], "E2": of_y,
                       "E2prime": mutual}[level.level]
        for name, given, response, alpha in comparisons:
            table = contingency(dataset, given, response)
            if alpha is None or alpha == "gk":
                value = goodman_kruskal_tau(table)
            else:
                value = _tau(table.mass, alpha, table.y_name, table.y_labels)
                if isinstance(alpha, WeightVector) and not alpha.regular:
                    warnings.warn(
                        "perfect-prediction checks with a non-regular weight "
                        "vector do not characterise determinism",
                        stacklevel=2,
                    )
            if not abs(value - 1.0) <= tol:  # a NaN fails too
                return EquivalenceReport(
                    level.level, False, Witness(name, None, None, value, 1.0)
                )
        return EquivalenceReport(level.level, True, None)

    measure = association_matrix if level.level == "E3" else association_vector
    s1 = measure(contingency(dataset, c1, y))
    s2 = measure(contingency(dataset, c2, y))
    # both tables hold the same rows against the same response, so both
    # keep the same positive-mass levels
    if level.level == "E3":
        w = _first_difference("association matrix entry", s1.entries,
                              s2.entries, s1.y_labels, tol)
    elif level.level == "E4":
        w = _first_difference("association vector component", s1.components,
                              s2.components, s1.y_labels, tol)
    else:
        alpha = resolve_weights(
            level.alpha if level.alpha is not None else "gk", s1.stats()
        )
        if not alpha.regular:
            warnings.warn(
                "E5 with a non-regular weight vector ignores some response "
                "categories",
                stacklevel=2,
            )
        t1 = weighted_tau(s1, alpha)
        t2 = weighted_tau(s2, alpha)
        w = (Witness("weighted association", None, None, t1, t2)
             if abs(t1 - t2) > tol else None)
    return EquivalenceReport(level.level, w is None, w)


def hierarchy_scan(
    dataset: CategoricalDataset,
    x1,
    x2,
    y,
    alpha: Union[str, WeightVector, None] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[tuple[str, bool]]:
    """Evaluate E1 through E5 in order and assert verdict monotonicity.

    Once a level holds every later level must hold; a violation indicates
    misconfigured tolerances and raises :class:`HierarchyInconsistencyError`
    rather than passing silently.
    """
    levels = [EquivalenceLevel(name, tolerance, alpha) for name in HIERARCHY]
    c1 = _as_composite(dataset, x1)
    c2 = _as_composite(dataset, x2)
    verdicts = [(lv.level, check(dataset, c1, c2, y, lv).holds)
                for lv in levels]
    held = False
    for name, holds in verdicts:
        if held and not holds:
            raise HierarchyInconsistencyError(
                f"{name} fails although a stronger level holds; "
                f"verdicts={verdicts} (check tolerances)"
            )
        held = held or holds
    return verdicts

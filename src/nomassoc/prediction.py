"""Proportional prediction and empirical confusion evaluation.

A proportional predictor assigns a category to the response by sampling from
the conditional distribution estimated on training data (conditional
Monte-Carlo), rather than always predicting the mode.  Its expected
confusion matrix is exactly the association matrix of the training table,
which :func:`expected_confusion` exposes directly; :func:`predict_and_score`
estimates the same matrix empirically on held-out rows.

Sampling is reproducible and order-independent: row ``r`` consumes the
``r``-th value of a single seeded uniform stream, so processing order and
chunking cannot change the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import AssociationMatrix, association_matrix
from .dataset import CategoricalDataset, ContingencyTable, _as_composite, contingency
from .dataset import _check_seed, _unit_rows
from .errors import DataError


@dataclass(frozen=True)
class ProportionalPredictor:
    """Per-scenario response conditionals estimated from training data.

    ``conditionals`` maps each observed explanatory label tuple to a
    probability vector over ``response_levels``; unseen tuples fall back to
    the training marginal.  Rows are matched by labels, so any dataset whose
    level labels agree with the training data can be scored.  ``seed`` is
    checked on construction, so a predictor from :func:`fit`, from
    ``dataclasses.replace`` or built by hand refuses the same seeds.
    """

    member_names: tuple[str, ...]
    response_name: str
    response_levels: tuple[str, ...]
    conditionals: dict[tuple[str, ...], np.ndarray]
    fallback: np.ndarray
    seed: int

    def __post_init__(self):
        _check_seed(self.seed)


def fit(
    train: CategoricalDataset,
    given,
    response,
    seed: int = 0,
) -> ProportionalPredictor:
    """Estimate plug-in conditionals of ``response`` per ``given`` scenario."""
    xc = _as_composite(train, given)
    table = contingency(train, xc, response)
    marginal = table.y_probabilities()
    if np.max(marginal) >= 1.0:
        raise DataError(
            f"response {table.y_name!r} is constant in the training data"
        )
    conditionals: dict[tuple[str, ...], np.ndarray] = {}
    rows = table.mass / table.x_marginal[:, None]
    for k, labels in enumerate(xc.scenario_labels):
        vec = rows[k] / rows[k].sum()
        vec.flags.writeable = False
        conditionals[labels] = vec
    fallback = marginal / marginal.sum()
    fallback.flags.writeable = False
    return ProportionalPredictor(
        member_names=xc.member_names,
        response_name=table.y_name,
        response_levels=table.y_labels,
        conditionals=conditionals,
        fallback=fallback,
        seed=seed,
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (true category, predicted category) over scored rows."""

    counts: np.ndarray
    labels: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def row_normalized(self) -> np.ndarray:
        """Rows scaled to relative frequencies; all-zero rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        return np.divide(
            self.counts,
            np.where(sums == 0, 1.0, sums),
            dtype=np.float64,
        )

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / max(self.total, 1)


def predict_and_score(
    predictor: ProportionalPredictor,
    test: CategoricalDataset,
) -> ConfusionMatrix:
    """Sample one prediction per test row and tally the confusion counts.

    The predictor's own variables are matched by name on the test dataset.
    Requires unit-mass rows; expand weighted tables first.  Deterministic
    for the predictor's seed.
    """
    _unit_rows(test, "scoring")
    xc = _as_composite(test, predictor.member_names)
    # the composite orders its members by the test file's columns; the
    # conditionals are keyed in the training file's member order
    order = [xc.member_names.index(name) for name in predictor.member_names]
    y_meta = test.variable(predictor.response_name)
    level_of = {label: i for i, label in enumerate(predictor.response_levels)}
    y_codes = test.codes[test.index_of(predictor.response_name)]
    true_codes = np.asarray(
        [level_of.get(lv, -1) for lv in y_meta.levels], dtype=np.int64
    )[y_codes]
    unseen = y_codes[true_codes < 0]
    if unseen.size:  # the first in level order that a row takes
        raise DataError(f"test response level {y_meta.levels[unseen.min()]!r} "
                        "was never seen in training")

    n = test.n_rows
    n_levels = len(predictor.response_levels)
    rng = np.random.default_rng(predictor.seed)
    uniforms = rng.random(n)  # value r is fixed by (seed, r)

    # one conditional CDF per observed test scenario, then an inverse-CDF
    # draw per row: the number of CDF entries at or below its uniform,
    # added one level at a time to the row's confusion cell; a CDF never
    # falls, so leaving out its last entry caps the draw at the last level
    cdf = np.empty((xc.observed_cardinality, n_levels))
    for k, labels in enumerate(xc.scenario_labels):
        key = tuple(labels[j] for j in order)
        cdf[k] = np.cumsum(predictor.conditionals.get(key, predictor.fallback))
    cell = true_codes * n_levels  # true * n_levels + predicted
    for level in cdf[:, :-1].T:
        cell += level[xc.row_codes] <= uniforms
    counts = np.bincount(cell, minlength=n_levels * n_levels)
    counts = counts.reshape(n_levels, n_levels)
    counts.flags.writeable = False
    return ConfusionMatrix(counts=counts, labels=predictor.response_levels)


def expected_confusion(table: ContingencyTable) -> AssociationMatrix:
    """Expected confusion matrix of proportional prediction from a table.

    The diagonal entries are the expected per-category accuracy rates; use
    :meth:`AssociationMatrix.type_one_error_rates` and
    :meth:`AssociationMatrix.type_two_error_rates` for the off-diagonal
    row- and column-wise error totals.
    """
    return association_matrix(table)

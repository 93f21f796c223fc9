"""Stratified bootstrap confidence intervals for association statistics.

Each iteration draws ``sample_size`` rows with replacement while preserving
per-stratum proportions (largest-remainder rounding of stratum sizes), then
evaluates the statistic on the resample.  Iteration seeds are spawned from
one root seed, so results are deterministic and iterations could run in any
order or concurrently without changing the summary.

A statistic is any callable mapping a dataset to a float; a plain callable
receives each resample as a row dataset.  The association reduction
percentage of a variable subset against a full set --
``100 * tau(subset) / tau(full)`` -- is provided both as a direct function
and as a statistic factory for bootstrapping, with one body for both.

That body works on cell counts instead of rows.  It reads a dataset only
through two joint tables with the response: of the full set, and of the
subset.  A resample of n rows is a multinomial draw over the observed
cells of the full set and the response, so its cell counts are a
sufficient statistic (Efron & Tibshirani, *An Introduction to the
Bootstrap*, 1993).  Each row's cell of the full set and of the subset is
numbered once per dataset.  A resample then costs, per table, one
``bincount`` of its drawn rows' cells against the response
(``dataset._count``), with no resampled dataset and no composite; when the
observed cells far outnumber the drawn rows, the drawn cells are first
ranked among the distinct ones drawn, so the work follows the drawn rows.
The direct function evaluates the same body over every row of the
dataset, adding up the row masses.  A table's entries add up the drawn
rows' masses in row order (integer counts for unit masses, exact in
float64), and its rows are the cells of positive mass in lexicographic
order, the order a composite gives its rows, so each table equals the
table :func:`~nomassoc.dataset.contingency` builds from a composite of the
same rows, entry for entry.  The summary is therefore bit-identical to
bootstrapping a row statistic built from
:func:`~nomassoc.association.tau_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .association import WeightVector, _known_scheme, _tau
from .dataset import CategoricalDataset, VarRef, _count, _joint_codes
from .errors import DataError, NomassocError


@dataclass(frozen=True)
class BootstrapSummary:
    """Percentile-interval bootstrap result."""

    point_estimate: float
    mean: float
    ci_low: float
    ci_high: float
    iterations: int
    failures: int
    sample_size: int
    seed: int
    confidence: float
    stratified_by: str | None

    def __post_init__(self):
        if not self.ci_low <= self.ci_high:
            raise DataError("confidence interval bounds are out of order")


def _stratum_sizes(counts: np.ndarray, sample_size: int) -> np.ndarray:
    """Largest-remainder apportionment of ``sample_size`` over strata."""
    exact = sample_size * counts / counts.sum()
    base = np.floor(exact).astype(np.int64)
    shortfall = sample_size - int(base.sum())
    if shortfall:
        remainders = exact - base
        # ties resolved toward lower stratum index for determinism
        order = np.lexsort((np.arange(len(counts)), -remainders))
        base[order[:shortfall]] += 1
    return base


def bootstrap(
    dataset: CategoricalDataset,
    statistic: Callable[[CategoricalDataset], float],
    iterations: int,
    sample_size: int,
    seed: int,
    stratify_by: VarRef | None = None,
    confidence: float = 0.95,
) -> BootstrapSummary:
    """Stratified bootstrap of ``statistic`` with a percentile interval.

    An iteration whose statistic raises a data error (for example a response
    level vanishing from the resample) is redrawn once with a fresh derived
    seed, then counted as failed; more than 5% failures abort.  A statistic
    from :func:`make_reduction_statistic` has its arguments checked against
    ``dataset`` before the first draw, and is evaluated on the resample's
    cell counts (see the module docstring).
    """
    if iterations < 1:
        raise DataError("iterations must be positive")
    if sample_size < 1:
        raise DataError("sample size must be positive")
    if not 0 < confidence < 1:
        raise DataError("confidence must be in (0, 1)")
    if not dataset.unit_mass:
        raise DataError(
            "bootstrap requires unit-mass rows; use expand_to_unit_rows() first"
        )
    if stratify_by is None:
        strata_rows = [np.arange(dataset.n_rows)]
        strat_name = None
    else:
        idx = dataset.index_of(stratify_by)
        codes = dataset.codes[idx]
        strata_rows = [
            np.flatnonzero(codes == level)
            for level in range(dataset.variables[idx].cardinality)
        ]
        strata_rows = [rows for rows in strata_rows if len(rows)]
        strat_name = dataset.variables[idx].name
    counts = np.asarray([len(rows) for rows in strata_rows])
    sizes = _stratum_sizes(counts, sample_size)

    if isinstance(statistic, _ReductionStatistic):
        evaluate = statistic.on_cells(dataset)
    else:
        def evaluate(picks: np.ndarray) -> float:
            return statistic(dataset.take(picks))

    children = np.random.SeedSequence(seed).spawn(iterations)

    def draw(rng: np.random.Generator) -> np.ndarray:
        picks = [
            rows[rng.integers(0, len(rows), size)]
            for rows, size in zip(strata_rows, sizes)
            if size
        ]
        return np.concatenate(picks)

    values = []
    failures = 0
    for child in children:
        try:
            values.append(float(evaluate(draw(np.random.default_rng(child)))))
            continue
        except NomassocError:
            pass
        retry = child.spawn(1)[0]
        try:
            values.append(float(evaluate(draw(np.random.default_rng(retry)))))
        except NomassocError:
            failures += 1
    if failures > 0.05 * iterations:
        raise DataError(
            f"{failures}/{iterations} bootstrap iterations failed; "
            "the statistic is unstable at this sample size"
        )
    values = np.asarray(values)
    lo, hi = np.quantile(
        values, [(1 - confidence) / 2, (1 + confidence) / 2]
    )
    return BootstrapSummary(
        point_estimate=float(statistic(dataset)),
        mean=float(values.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        iterations=len(values),
        failures=failures,
        sample_size=sample_size,
        seed=seed,
        confidence=confidence,
        stratified_by=strat_name,
    )


def _reduction_members(
    dataset: CategoricalDataset,
    response: VarRef,
    subset: Sequence[VarRef],
    full_set: Sequence[VarRef],
) -> tuple[int, list[int], list[int]]:
    """``(response, subset, full set)`` as variable indices, the sets
    sorted; raises if they define no reduction on any data."""
    sub = {dataset.index_of(v) for v in subset}
    full = {dataset.index_of(v) for v in full_set}
    if not sub <= full:
        raise DataError("subset must be contained in the full variable set")
    if not sub:
        raise DataError("subset must name at least one variable")
    y_idx = dataset.index_of(response)
    if y_idx in full:
        raise DataError(
            f"response {dataset.variables[y_idx].name!r} is in the full "
            "variable set"
        )
    return y_idx, sorted(sub), sorted(full)


def reduction_statistic(
    dataset: CategoricalDataset,
    response: VarRef,
    subset: Sequence[VarRef],
    full_set: Sequence[VarRef],
    weights: Union[str, WeightVector] = "gk",
) -> float:
    """Percentage of the full-set association retained by a variable subset.

    ``100 * tau(response | subset) / tau(response | full_set)``; at most 100
    (up to rounding) because the association is non-decreasing under
    variable addition.
    """
    return _ReductionStatistic(response, subset, full_set, weights)(dataset)


class _ReductionStatistic:
    """:func:`reduction_statistic` with its arguments bound."""

    def __init__(self, response, subset, full_set, weights):
        self.response = response
        self.subset = tuple(subset)
        self.full_set = tuple(full_set)
        self.weights = weights

    def __call__(self, dataset: CategoricalDataset) -> float:
        # every row, as a copy: the count overwrites a writeable key
        return self.on_cells(dataset)(np.arange(dataset.n_rows))

    def on_cells(
        self, dataset: CategoricalDataset
    ) -> Callable[[np.ndarray], float]:
        """The statistic on the resample of ``dataset`` made of rows
        ``picks``, as a function of ``picks``, from cell counts.

        Raises at once if the arguments define no reduction on ``dataset``.
        Numbers each row's cell of the full set and of the subset, once;
        a call then counts the drawn rows' cells against the response,
        adding up the rows' masses (plain counts when every mass is 1).
        """
        y_idx, sub, full = _reduction_members(
            dataset, self.response, self.subset, self.full_set
        )
        weights = self.weights
        _known_scheme(weights)
        y = dataset.variables[y_idx]
        y_codes = dataset.codes[y_idx]
        mass = None if dataset.unit_mass else dataset.mass
        sub_cells = _joint_codes(dataset, sub)
        full_cells = _joint_codes(dataset, full)

        def tau(cells: tuple[np.ndarray, int], picks: np.ndarray):
            key, n_cells = cells
            table = _count(key[picks], n_cells, y_codes[picks], y.cardinality,
                           None if mass is None else mass[picks])[0]
            return _tau(table, weights, y.name, y.levels)

        def statistic(picks: np.ndarray) -> float:
            denom = tau(full_cells, picks)  # the full set's first
            if denom == 0:
                raise DataError(
                    "association of the full set is zero; reduction undefined"
                )
            return 100.0 * tau(sub_cells, picks) / denom

        return statistic


def make_reduction_statistic(
    response: VarRef,
    subset: Sequence[VarRef],
    full_set: Sequence[VarRef],
    weights: Union[str, WeightVector] = "gk",
) -> Callable[[CategoricalDataset], float]:
    """Bind :func:`reduction_statistic` arguments into a bootstrap statistic.

    Scheme weights are re-resolved on every resample's own marginal.
    :func:`bootstrap` evaluates it on each resample's cell counts; called
    on a dataset, it evaluates the same body over every row, as
    :func:`reduction_statistic` does.
    """
    return _ReductionStatistic(response, subset, full_set, weights)

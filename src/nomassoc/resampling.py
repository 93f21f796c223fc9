"""Stratified bootstrap confidence intervals for association statistics.

Each iteration draws ``sample_size`` rows with replacement while preserving
per-stratum proportions (largest-remainder rounding of stratum sizes), then
evaluates the statistic on the resample.  The rows are held in one order,
stratum by stratum, and a resample is one ``integers`` call that draws
each row's place within its stratum (below the stratum's size), offset by
where that stratum starts in the order: numpy draws the same values, and
leaves the generator in the same state, as one call per stratum would.
Iteration seeds are spawned from one root seed, so results are
deterministic and iterations could run in any order or concurrently
without changing the summary.

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

The bootstrap evaluates that body over blocks of iterations, about
``_BLOCK_ROWS`` drawn rows each, so beyond one float per iteration for
the summary its memory does not grow with the iteration count.  A
block's resamples are drawn as one at a time would draw them, each from
its own seed; the block's seeds are spawned from the root seed as it is
drawn, and successive spawns give the seeds one spawn of every iteration
would.  Each set's tables of the whole block come from one ``_count``
over the key ``resample * cells + cell``, which lists them resample by
resample (a key too wide to count densely is ranked first, as for one
resample), and their taus from one
:func:`~nomassoc.association._taus` pass, equal to one tau at a time to
the bit.  That pass settles only what needs no warning, no error and no
clamp; every iteration it leaves unsettled runs as an iteration alone
does, redraw included, in iteration order, so the warnings, redraws,
failures and errors come out as before.  One resample on its own is
counted as a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .association import WeightVector, _fit_levels, _known_scheme, _tau, _taus
from .dataset import CategoricalDataset, VarRef, _count, _joint_codes, _rank
from .dataset import _check_seed, _row_weights, _unit_rows
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


#: Drawn rows per block of bootstrap iterations: a reduction statistic
#: counts a block's resamples and computes their taus together (see the
#: module docstring).
_BLOCK_ROWS = 1 << 16


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
    from :func:`make_reduction_statistic` is checked before the first draw:
    its arguments against ``dataset``, and the response levels the rows
    observe, which must be at least two and fit an explicit weight vector.
    It is evaluated on the resamples' cell counts, a block of resamples at
    a time (see the module docstring).
    """
    for name, count in (("iterations", iterations),
                        ("sample size", sample_size)):
        if not count >= 1:  # true for NaN too
            raise DataError(f"{name} must be positive")
        if count % 1:  # inf % 1 is NaN
            raise DataError(f"{name} must be a whole number")
    iterations, sample_size = int(iterations), int(sample_size)
    if not 0 < confidence < 1:
        raise DataError("confidence must be in (0, 1)")
    _check_seed(seed)
    _unit_rows(dataset, "bootstrap")
    if stratify_by is None:  # one stratum of every row
        codes = np.zeros(dataset.n_rows, dtype=np.int64)
        strat_name = None
    else:
        idx = dataset.index_of(stratify_by)
        codes = dataset.codes[idx]
        strat_name = dataset.variables[idx].name
    # the rows stratum by stratum, each in row order, and the strata sizes
    counts = np.bincount(codes)
    levels = np.flatnonzero(counts)
    order = np.concatenate([np.flatnonzero(codes == k) for k in levels])
    counts = counts[levels]
    # each drawn row's stratum: where it starts in ``order``, and its size
    sizes = _stratum_sizes(counts, sample_size)
    low = np.repeat(np.cumsum(counts) - counts, sizes)
    high = np.repeat(counts, sizes)

    if isinstance(statistic, _ReductionStatistic):
        evaluate = statistic.on_cells(dataset)
        settle = evaluate.block
        # the point estimate's refusals, before the first draw: a level's
        # marginal is strictly inside (0, 1) when its count is neither 0
        # nor every row
        y_codes = dataset.codes[dataset.index_of(statistic.response)]
        counts = np.bincount(y_codes)
        _fit_levels(statistic.weights,
                    np.count_nonzero((counts > 0) & (counts < len(y_codes))))

        def estimate() -> float:  # statistic(dataset), on the same cells
            return evaluate(np.arange(dataset.n_rows))
    else:
        def evaluate(picks: np.ndarray) -> float:
            return statistic(dataset.take(picks))

        def settle(picks: np.ndarray) -> np.ndarray:
            return np.full(len(picks), np.nan)  # each runs alone, on rows

        def estimate() -> float:
            return statistic(dataset)

    root = np.random.SeedSequence(seed)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return order[low + rng.integers(0, high)]

    def iteration(child: np.random.SeedSequence, picks: np.ndarray):
        """The statistic on the resample ``picks`` drawn from ``child``,
        redrawn once on a data error; ``None`` when both draws fail."""
        try:
            return float(evaluate(picks))
        except NomassocError:
            pass
        retry = child.spawn(1)[0]
        try:
            return float(evaluate(draw(np.random.default_rng(retry))))
        except NomassocError:
            return None

    values = []
    step = max(1, _BLOCK_ROWS // sample_size)
    for start in range(0, iterations, step):
        block = root.spawn(min(step, iterations - start))
        picks = np.stack([draw(np.random.default_rng(c)) for c in block])
        for child, rows, value in zip(block, picks, settle(picks)):
            # NaN: not settled by the block, so run as one iteration
            values.append(float(value) if value == value
                          else iteration(child, rows))
    values = [value for value in values if value is not None]
    failures = iterations - len(values)
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
        point_estimate=float(estimate()),
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
        ``picks``, as a function of ``picks``, from cell counts, counted
        as a block of one resample.  Its ``block(picks)`` takes one
        resample per row of ``picks`` and gives the statistic of each, NaN
        where the block does not settle it.

        Raises at once if the arguments define no reduction on ``dataset``.
        Numbers each row's cell of the full set and of the subset, once;
        a call then counts the drawn rows' cells against the response,
        adding up the rows' masses (plain counts when every mass is 1).
        A block is counted with one ``_count`` per set, its resamples'
        tables kept apart by the key ``resample * cells + cell``, and its
        taus come from one :func:`~nomassoc.association._taus` per set,
        NaN wherever ``statistic`` could warn, raise or clamp.
        """
        y_idx, sub, full = _reduction_members(
            dataset, self.response, self.subset, self.full_set
        )
        weights = self.weights
        _known_scheme(weights)
        y = dataset.variables[y_idx]
        y_codes = dataset.codes[y_idx]
        mass = _row_weights(dataset)

        def observed(members):  # ranked, so a block spans cells x resamples
            key, occupied = _rank(*_joint_codes(dataset, members))
            return key, len(occupied)

        sub_cells, full_cells = observed(sub), observed(full)

        def table(cells: tuple[np.ndarray, int], picks: np.ndarray):
            # one resample per row of picks: resample r's cells from r * cells
            key, n_cells = cells
            key = key[picks]
            key += n_cells * np.arange(len(picks))[:, None]
            picks = picks.ravel()
            return _count(key.ravel(), n_cells * len(key), y_codes[picks],
                          y.cardinality, None if mass is None else mass[picks])

        def tau(cells: tuple[np.ndarray, int], picks: np.ndarray):
            # one resample, counted as a block of one
            return _tau(table(cells, picks[None])[0], weights, y.name, y.levels)

        def statistic(picks: np.ndarray) -> float:
            denom = tau(full_cells, picks)  # the full set's first
            if denom == 0:
                raise DataError(
                    "association of the full set is zero; reduction undefined"
                )
            return 100.0 * tau(sub_cells, picks) / denom

        def taus(cells: tuple[np.ndarray, int], picks: np.ndarray):
            counts, keys = table(cells, picks)
            sizes = np.bincount(keys // cells[1], minlength=len(picks))
            return _taus(counts, sizes, weights)

        def block(picks: np.ndarray) -> np.ndarray:
            denom = taus(full_cells, picks)
            denom[denom == 0] = np.nan  # no reduction: left to statistic
            return 100.0 * taus(sub_cells, picks) / denom

        statistic.block = block
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

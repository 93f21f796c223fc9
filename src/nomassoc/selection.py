"""Greedy basis construction for categorical variables.

Two selectors are provided:

* :func:`select_supervised` builds an irredundant variable subset whose
  weighted association with a response matches that of the full candidate
  set (forward greedy on the weighted association, which is non-decreasing
  under variable addition, followed by backward redundancy removal);
* :func:`select_structural` builds an irredundant subset that determines
  every candidate variable (forward greedy minimisation of the joint
  concentration ``sum(p(cell)^2)``, which is non-increasing under variable
  addition, followed by backward removal).

Ties are broken by smallest observed composite cardinality, then smallest
variable index, so results are deterministic.  Candidates whose composite
would exceed ``max_cells`` observed scenarios are skipped and recorded:
association estimates over very fine composites are unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .association import MarginalStats, WeightVector, _tau, resolve_weights
from .association import _concentration
from .dataset import (
    CategoricalDataset,
    VarRef,
    _candidate_groups,
    _candidate_table,
    _count,
    _exact_sums,
    _extend,
    _group_tables,
    _joint_codes,
    _Occupied,
    _row_weights,
)
from .errors import DataError


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs shared by both selectors.

    ``epsilon`` is the absolute gain tolerance, finite and non-negative (a
    NaN would never stop a phase): forward selection stops when the best
    objective improvement is at most ``epsilon`` and backward removal
    deletes variables whose absence changes the objective by at most
    ``epsilon``.  Exact-equality stopping is recovered on exact tables by
    the tiny default.
    """

    weights: Union[str, WeightVector] = "gk"
    epsilon: float = 1e-9
    max_vars: int | None = None
    max_cells: int | None = 10_000

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:  # false for NaN too
            raise DataError("epsilon must be finite and non-negative")
        for name in ("max_vars", "max_cells"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 1:  # true for NaN too
                raise DataError(f"{name} must be positive when given")
            if limit is not None and limit % 1:  # inf % 1 is NaN
                raise DataError(f"{name} must be a whole number")


@dataclass(frozen=True)
class SelectionStep:
    """One committed forward step with the scores it was chosen from."""

    chosen: int
    chosen_name: str
    value: float
    scores: tuple[tuple[int, float], ...]
    skipped: tuple[int, ...] = ()


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a greedy selection run.

    ``trace`` values are non-decreasing for the supervised objective and
    non-increasing for the structural one; ``removed`` lists variables
    deleted as redundant during the backward phase; ``skipped`` lists
    candidates ever excluded by the ``max_cells`` guard.
    """

    basis: tuple[int, ...]
    basis_names: tuple[str, ...]
    trace: tuple[SelectionStep, ...]
    removed: tuple[int, ...]
    skipped: tuple[int, ...]
    final_value: float
    terminated_by: str  # no-gain | max_vars | max_cells | exhausted
    objective: str  # association | concentration


def _evaluate_all(
    candidates: Sequence[int],
    evaluate: Callable[[int], tuple[int, float]],
) -> list[tuple[int, int, float]]:
    """``(candidate, cells, value)`` of each candidate, in candidate order."""
    return [(c, *evaluate(c)) for c in candidates]


@dataclass(frozen=True)
class _Score:
    """Objective of a composite, read from its mass table against
    ``target`` (``levels`` codes per row; ``None`` and 1 for the cell
    masses alone), counted with ``weights`` (:func:`_row_weights`, read
    once): ``value`` maps the table's positive-mass rows, in lexicographic
    cell order, to the objective.  The empty composite, a point mass, has
    the value ``empty``; ``maximise`` says which way the objective
    improves."""

    target: np.ndarray | None
    levels: int
    value: Callable[[np.ndarray], float]
    weights: np.ndarray | None
    empty: float
    maximise: bool


def _measure(
    dataset: CategoricalDataset, score: _Score, indices: Sequence[int]
) -> tuple[int, float]:
    """``(observed cells, objective value)`` of the composite over
    ``indices``, built from scratch."""
    table = _count(*_joint_codes(dataset, sorted(indices)), score.target,
                   score.levels, score.weights)[0]
    return len(table), score.value(table)


def _leave_one_out(
    dataset: CategoricalDataset,
    score: _Score,
    members: Sequence[int],
) -> Iterator[tuple[int, int, float]]:
    """``(member, cells, value)`` of ``members`` less each member in turn,
    in member order, each set built from scratch; the empty set has one
    cell and ``score.empty``."""
    for v in members:
        rest = [c for c in members if c != v]
        cells, value = _measure(dataset, score, rest) if rest else (1, score.empty)
        yield v, cells, value


def _greedy(
    dataset: CategoricalDataset,
    config: SelectionConfig,
    candidates: list[int],
    score: _Score,
) -> SelectionResult:
    """Shared forward/backward loop over ``score``, the objective of
    :func:`_objective`, which starts at ``score.empty``.

    The forward phase carries the chosen set's occupied tuples, in pick
    order (``occupied.members`` is the chosen set), and folds the target
    into them once per step, so each candidate's table is one
    ``bincount`` (:func:`_candidate_table`).  When the masses' sums are
    exact (:func:`_exact_sums`), the candidates are packed into groups
    once per call (:func:`_candidate_groups`), and a step counts each
    group in one ``bincount`` and reads its members' tables off it
    (:func:`_group_tables`); a candidate no group counted takes its own.
    The backward phase builds each reduced set from scratch
    (:func:`_leave_one_out`).  All give the tables, and so the values, of
    :func:`_measure`.
    """
    sign = 1.0 if score.maximise else -1.0
    cap = config.max_cells
    groups = _candidate_groups(dataset, candidates) if _exact_sums(dataset) else []
    occupied = _Occupied.empty(dataset)
    current = score.empty
    trace: list[SelectionStep] = []
    skipped_ever: set[int] = set()
    terminated = None

    while True:
        if config.max_vars is not None and len(occupied.members) >= config.max_vars:
            terminated = "max_vars"
            break
        remaining = [c for c in candidates if c not in occupied.members]
        if not remaining:
            terminated = "exhausted"
            break

        folded = occupied.folded(score.target, score.levels)
        tables: dict[int, np.ndarray] = {}
        for members, code in groups:
            tables.update(_group_tables(dataset, occupied, folded, members,
                                        code, score.levels, score.weights))

        def evaluate(cand: int) -> tuple[int, float]:
            table = tables.get(cand)
            if table is None:
                table = _candidate_table(dataset, occupied, folded, cand,
                                         score.target, score.levels,
                                         score.weights)
            return len(table), score.value(table)

        evals = _evaluate_all(remaining, evaluate)
        usable = [(c, cells, v) for c, cells, v in evals
                  if cap is None or cells <= cap]
        step_skipped = tuple(c for c, cells, _ in evals
                             if cap is not None and cells > cap)
        skipped_ever.update(step_skipped)
        if not usable:
            terminated = "max_cells"
            break
        best_cand, best_cells, best_value = min(
            usable, key=lambda e: (-sign * e[2], e[1], e[0])
        )
        if occupied.members and sign * (best_value - current) <= config.epsilon:
            terminated = "no-gain"
            break
        occupied = _extend(dataset, occupied, best_cand)
        current = best_value
        trace.append(
            SelectionStep(
                chosen=best_cand,
                chosen_name=dataset.variables[best_cand].name,
                value=best_value,
                scores=tuple((c, v) for c, _, v in usable),
                skipped=step_skipped,
            )
        )

    chosen = list(occupied.members)
    removed: list[int] = []
    while True:
        # selection order, scored lazily; restart after each removal
        for v, _, value in _leave_one_out(dataset, score, chosen):
            if sign * (current - value) <= config.epsilon:
                break
        else:
            break
        chosen.remove(v)
        removed.append(v)
        current = value

    return SelectionResult(
        basis=tuple(chosen),
        basis_names=tuple(dataset.variables[c].name for c in chosen),
        trace=tuple(trace),
        removed=tuple(removed),
        skipped=tuple(sorted(skipped_ever)),
        final_value=current,
        terminated_by=terminated,
        objective="association" if score.maximise else "concentration",
    )


def _response_weights(
    dataset: CategoricalDataset, y_idx: int, spec: Union[str, WeightVector]
) -> WeightVector:
    counts = np.bincount(
        dataset.codes[y_idx],
        weights=dataset.mass,
        minlength=dataset.variables[y_idx].cardinality,
    )
    p = counts / dataset.total_mass
    positive = p > 0
    if positive.sum() < 2:
        raise DataError(
            f"response {dataset.variables[y_idx].name!r} is constant; "
            "supervised selection is undefined"
        )
    stats = MarginalStats.from_probabilities(p[positive])
    alpha = resolve_weights(spec, stats)
    if not alpha.regular:
        raise DataError("supervised selection requires a regular weight vector")
    return alpha


def _tau_score(
    dataset: CategoricalDataset, y_idx: int, alpha: WeightVector
) -> _Score:
    y_meta = dataset.variables[y_idx]

    def value(table: np.ndarray) -> float:
        return _tau(table, alpha, y_meta.name, y_meta.levels)

    return _Score(dataset.codes[y_idx], y_meta.cardinality, value,
                  _row_weights(dataset), 0.0, True)


def _concentration_score(dataset: CategoricalDataset) -> _Score:
    total = dataset.total_mass
    return _Score(None, 1, lambda table: _concentration(table, total),
                  _row_weights(dataset), 1.0, False)


def _resolve_candidates(
    dataset: CategoricalDataset,
    candidates: Sequence[VarRef] | None,
    exclude: int | None = None,
) -> list[int]:
    if candidates is None:
        resolved = [i for i in range(dataset.n_variables) if i != exclude]
    else:
        resolved = [dataset.index_of(c) for c in candidates]
        if len(set(resolved)) != len(resolved):
            raise DataError("candidate variables must be distinct")
    if not resolved:
        raise DataError("candidate set is empty")
    return resolved


def _objective(
    dataset: CategoricalDataset,
    response: VarRef | None,
    candidates: Sequence[VarRef] | None,
    config: SelectionConfig,
) -> tuple[list[int], _Score]:
    """``(candidates, score)`` of a selection: with ``response``, its
    weighted association, to be maximised, over the candidates (default:
    all other variables); without, the joint concentration, to be
    minimised (default candidates: all variables).  The empty composite is
    a point mass: association 0, concentration 1.
    """
    y_idx = None if response is None else dataset.index_of(response)
    resolved = _resolve_candidates(dataset, candidates, exclude=y_idx)
    if y_idx is None:
        return resolved, _concentration_score(dataset)
    if y_idx in resolved:
        raise DataError("response cannot be a candidate")
    alpha = _response_weights(dataset, y_idx, config.weights)
    return resolved, _tau_score(dataset, y_idx, alpha)


def select_supervised(
    dataset: CategoricalDataset,
    response: VarRef,
    candidates: Sequence[VarRef] | None = None,
    config: SelectionConfig = SelectionConfig(),
) -> SelectionResult:
    """Greedy association basis for ``response`` over the candidates.

    Forward phase: the first pick maximises the weighted association of the
    response on a single candidate; subsequent picks maximise it on the
    current set plus one candidate, stopping when the best gain is at most
    ``config.epsilon``.  Backward phase: repeatedly delete any chosen
    variable whose removal changes the value by at most ``epsilon``.
    """
    candidates, score = _objective(dataset, response, candidates, config)
    return _greedy(dataset, config, candidates, score)


def select_structural(
    dataset: CategoricalDataset,
    candidates: Sequence[VarRef] | None = None,
    config: SelectionConfig = SelectionConfig(),
) -> SelectionResult:
    """Greedy structural basis: a subset that determines every candidate.

    Forward phase greedily adds the variable minimising the joint
    concentration of the chosen set; at the stopping point every remaining
    candidate leaves the concentration unchanged, which holds exactly when
    it is determined by the chosen set.  Backward phase removes variables
    whose absence leaves the concentration unchanged.  The empty composite
    is a point mass (concentration 1).
    """
    candidates, score = _objective(dataset, None, candidates, config)
    return _greedy(dataset, config, candidates, score)


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class BasisReport:
    """Explicit check of the two basis conditions with measured values.

    For an association basis: ``achieves_full`` states that the basis value
    matches the full candidate-set value within epsilon, ``irredundant``
    that deleting any single member drops the value below the full value by
    more than epsilon.  For a structural basis: ``achieves_full`` states
    that every candidate variable is determined by the basis and
    ``irredundant`` that no member is determined by the others.
    ``basis_cells`` is the observed cardinality of the basis composite; any
    two verified structural bases of one dataset have equal cardinality.
    """

    kind: str  # association | structural
    achieves_full: bool
    irredundant: bool
    basis: tuple[int, ...]
    value: float
    full_value: float
    leave_one_out: tuple[tuple[int, float], ...]
    determinism: tuple[tuple[int, bool], ...] | None
    basis_cells: int


def verify_basis(
    dataset: CategoricalDataset,
    basis: Sequence[VarRef],
    response: VarRef | None = None,
    config: SelectionConfig = SelectionConfig(),
    candidates: Sequence[VarRef] | None = None,
) -> BasisReport:
    """Check the defining conditions of a selected basis explicitly.

    With ``response`` the basis is verified as an association basis against
    the full candidate set (default: all other variables); without it, as a
    structural basis (default candidates: all variables).

    Determinism is read from cell counts: ``v`` is determined by a set
    ``S`` exactly when ``S`` and ``S`` with ``v`` added have equal numbers
    of positive-mass cells, since every cell of ``S`` meets at least one
    level of ``v`` and a sum of non-negative masses is positive exactly
    when one of them is.  The counts are integers, so no tolerance enters.
    The basis is paired once; each candidate's cells are then counted with
    one ``bincount`` over the key ``basis tuple * card + code``, whose
    positive-mass slots are the cells of the basis with ``v`` added.
    """
    basis_idx = [dataset.index_of(b) for b in basis]
    if not basis_idx:
        raise DataError("basis must be non-empty")
    if len(set(basis_idx)) != len(basis_idx):
        raise DataError("basis variables must be distinct")
    if response is not None and dataset.index_of(response) in basis_idx:
        raise DataError("response cannot be a basis member")
    cand, score = _objective(dataset, response, candidates, config)
    basis_cells, value = _measure(dataset, score, basis_idx)
    full_value = _measure(dataset, score, cand)[1]
    loo = list(_leave_one_out(dataset, score, basis_idx))

    if score.maximise:
        eps = config.epsilon
        achieves = bool(full_value - value <= eps)
        irredundant = not any(full_value - loo_value <= eps
                              for _, _, loo_value in loo)
        determinism = None
    else:
        key, cells = _joint_codes(dataset, sorted(basis_idx))

        def is_determined(v: int) -> bool:
            card = dataset.variables[v].cardinality
            pairs = key * card
            pairs += dataset.codes[v]
            return basis_cells == len(
                _count(pairs, cells * card, None, 1, score.weights)[1])

        determinism = tuple(
            (v, v in basis_idx or is_determined(v)) for v in cand
        )
        achieves = all(determined for _, determined in determinism)
        irredundant = not any(cells == basis_cells for _, cells, _ in loo)
    return BasisReport(
        kind="association" if score.maximise else "structural",
        achieves_full=achieves,
        irredundant=irredundant,
        basis=tuple(basis_idx),
        value=value,
        full_value=full_value,
        leave_one_out=tuple((v, loo_value) for v, _, loo_value in loo),
        determinism=determinism,
        basis_cells=basis_cells,
    )

"""Local-to-global and weighted global association measures.

Given a joint mass table between an explanatory variable ``X`` (possibly a
composite) and a response ``Y``, this module computes

* the **association matrix**: the row-stochastic matrix whose ``(s, t)``
  entry is the probability of predicting ``Y = t`` under proportional
  (conditional Monte-Carlo) prediction when the truth is ``Y = s`` -- the
  expected confusion matrix of the proportional predictor;
* the **association vector**: the per-category accuracy-lift rates obtained
  by normalising the matrix diagonal,
  ``lift_s = (m[s, s] - p_s) / (1 - p_s)``;
* **weighted global measures**: simplex-weighted averages of the vector
  components.  With weights proportional to ``p_s * (1 - p_s)`` this is
  exactly the Goodman-Kruskal tau, which is also computed directly from its
  classical conditional-Gini form as an independent code path;
* the **expected concentration** of a joint distribution,
  ``sum(p(cell)^2)``, used by unsupervised structural selection.

All functions are pure and deterministic: sums run in ascending level-code
order via numpy pairwise reduction, so results repeat to the bit.

The lift and weighted-sum formulas exist once, in private helpers that
:func:`association_vector`, :func:`weighted_tau` and :func:`tau_for` wrap.
``_tau`` chains them on a bare ``(cells, n_y)`` mass array, with every
check and warning of the public route and with no table or vector object,
for callers that evaluate many small tables: greedy selection and the
bootstrap's cell counts.  ``_taus`` runs the same helpers over a block of
tables at once, for the bootstrap, and leaves to ``_tau`` every table
that needs a warning, an error, a clamp or a rounding bound.
:func:`goodman_kruskal_tau` keeps its own classical form as an
independent reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dataset import CategoricalDataset, ContingencyTable, VarRef, contingency
from .dataset import _count, _joint_codes
from .errors import DataError, DroppedLevelsWarning

#: Allowed floating-point drift outside [0, 1] before values are clamped.
CLAMP_TOL = 1e-12
#: Required agreement of association-matrix row sums with 1.
ROW_SUM_TOL = 1e-9
#: Required agreement of the two accuracy-lift forms (see ``_lifts``).
_FORMS_TOL = 1e-12


def _clamp_unit(values: np.ndarray, what: str, rounding=None) -> np.ndarray:
    """``values`` clipped to [0, 1]; drift beyond ``CLAMP_TOL`` raises,
    unless ``rounding()``, the values' own rounding bound, covers it.
    Values already inside come back as the same array."""
    low, high = values.min(initial=0.0), values.max(initial=1.0)
    if low < -CLAMP_TOL or high > 1 + CLAMP_TOL:
        drift = np.maximum(-values, values - 1.0)
        if rounding is None or np.any(drift > rounding()):
            raise DataError(
                f"{what} outside [0, 1] beyond tolerance: "
                f"min={low!r}, max={high!r}"
            )
    if low < 0 or high > 1:
        return np.clip(values, 0.0, 1.0)
    return values


def _clamp_scalar(value: float, what: str) -> float:
    """:func:`_clamp_unit` for one value."""
    if value < -CLAMP_TOL or value > 1 + CLAMP_TOL:
        raise DataError(f"{what} outside [0, 1] beyond tolerance: {value!r}")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class MarginalStats:
    """Response marginal and its Gini variation ``1 - sum(p^2)``."""

    p: np.ndarray
    gini_variation: float

    @classmethod
    def from_probabilities(cls, p) -> "MarginalStats":
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise DataError("marginal must be a non-empty vector")
        if p.min() < -CLAMP_TOL or abs(p.sum() - 1.0) > 1e-9:
            raise DataError("marginal must be a probability vector")
        p = np.clip(p, 0.0, 1.0)
        return cls(p=p, gini_variation=float(_gini(p)))

    @property
    def n_levels(self) -> int:
        return len(self.p)


def marginal_stats(source: Union[ContingencyTable, Sequence] ) -> MarginalStats:
    """Marginal statistics of a response, from a table or a raw vector."""
    if isinstance(source, ContingencyTable):
        return MarginalStats.from_probabilities(source.y_probabilities())
    return MarginalStats.from_probabilities(source)


class AssociationMatrix:
    """Row-stochastic matrix of proportional-prediction category outcomes.

    ``entries[s, t]`` is the probability of predicting category ``t`` when
    the truth is category ``s``.  Levels of the response with zero mass are
    dropped (and recorded in ``dropped_levels``); ``level_indices`` maps the
    retained rows back to the response's original level positions.
    """

    __slots__ = ("entries", "y_marginal", "level_indices", "dropped_levels",
                 "y_labels", "x_descriptor")

    def __init__(self, entries, y_marginal, *, level_indices=None,
                 dropped_levels=(), y_labels=None, x_descriptor="X"):
        entries = np.array(entries, dtype=np.float64)  # owned: made read-only
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DataError("association matrix must be square")
        entries = _clamp_unit(entries, "association matrix entries")
        row_sums = entries.sum(axis=1)
        if entries.size and np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise DataError("association matrix rows do not sum to 1")
        self.entries = entries
        self.entries.flags.writeable = False
        self.y_marginal = np.asarray(y_marginal, dtype=np.float64)
        self.level_indices = (
            tuple(level_indices)
            if level_indices is not None
            else tuple(range(entries.shape[0]))
        )
        self.dropped_levels = tuple(dropped_levels)
        self.y_labels = (
            tuple(y_labels)
            if y_labels is not None
            else tuple(str(i) for i in self.level_indices)
        )
        self.x_descriptor = x_descriptor

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def accuracy_rates(self) -> np.ndarray:
        """Expected per-category accuracy of proportional prediction."""
        return np.diag(self.entries).copy()

    def type_one_error_rates(self) -> np.ndarray:
        """Per-category total rate of misassigning a true category elsewhere
        (off-diagonal row sums)."""
        return self.entries.sum(axis=1) - np.diag(self.entries)

    def type_two_error_rates(self) -> np.ndarray:
        """Per-category total rate of false assignments into a category
        (off-diagonal column sums)."""
        return self.entries.sum(axis=0) - np.diag(self.entries)

    def is_identity(self, tol: float = 1e-9) -> bool:
        return bool(
            np.max(np.abs(self.entries - np.eye(self.size))) <= tol
        )

    def rows_equal_marginal(self, tol: float = 1e-9) -> bool:
        return bool(
            np.max(np.abs(self.entries - self.y_marginal[None, :])) <= tol
        )

    def __repr__(self) -> str:
        return f"AssociationMatrix(size={self.size}, x={self.x_descriptor!r})"


@dataclass(frozen=True)
class AssociationVector:
    """Per-category accuracy-lift rates, each in [0, 1].

    Components cover response levels with marginal strictly inside (0, 1);
    other levels are listed in ``excluded_levels`` and require downstream
    weight renormalisation.
    """

    components: np.ndarray
    y_marginal: np.ndarray
    level_indices: tuple[int, ...]
    excluded_levels: tuple[int, ...]
    y_labels: tuple[str, ...]
    x_descriptor: str = "X"

    @property
    def size(self) -> int:
        return len(self.components)

    def stats(self) -> MarginalStats:
        """Marginal statistics over the retained levels."""
        p = np.asarray(self.y_marginal, dtype=np.float64)
        return MarginalStats(p=p, gini_variation=float(_gini(p)))


@dataclass(frozen=True)
class WeightVector:
    """Simplex weights over response categories.

    Regularity is read from the weights, not given: :attr:`regular` is true
    when every weight is strictly positive, the condition under which a
    weighted association of 0 characterises independence and 1
    characterises determinism.  Two vectors are equal, and hash alike,
    when their weights have the same shape and bytes, so a vector can sit
    in a frozen configuration that is compared or hashed.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DataError("weights must form a non-empty vector")
        object.__setattr__(self, "weights", np.clip(_simplex(w), 0.0, None))

    def _value(self) -> tuple[tuple[int, ...], bytes]:
        return self.weights.shape, self.weights.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @property
    def regular(self) -> bool:
        return bool(self.weights.min() > 0)

    @classmethod
    def from_raw(cls, raw) -> "WeightVector":
        """Normalise arbitrary non-negative values onto the simplex."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 1 or raw.size == 0:
            raise DataError("weights must form a non-empty vector")
        if not np.all(np.isfinite(raw)) or raw.min() < 0:
            raise DataError("raw weights must be finite and non-negative")
        total = raw.sum()
        if total <= 0:
            raise DataError("raw weights must have positive sum")
        return cls(raw / total)

    @property
    def size(self) -> int:
        return len(self.weights)

    @classmethod
    def _checked(cls, w: np.ndarray) -> "WeightVector":
        """``w`` as :func:`_weight_array` returns it, already checked and
        clipped, kept as it is."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "weights", w)
        return vector


def _simplex(w: np.ndarray, gini: float | None = None) -> np.ndarray:
    """``w`` with values in [-1e-12, 0) set to 0; raises unless ``w`` is
    finite, non-negative and sums to 1, both within 1e-12.

    ``gini`` marks ``w`` as the k weights ``p (1 - p) / gini``: each
    ``p (1 - p)`` is rounded and so is ``gini``, so their sum is good only
    to ``(k + 2)`` eps relative to ``1 / gini``, past 1e-12 for a dominant
    level, whose ``gini`` is tiny.  That bound is worked out only when the
    fixed one fails.
    """
    if not np.isfinite(w).all():  # a NaN passes every comparison below
        raise DataError("weights must be finite")
    low = w.min()
    if low < -CLAMP_TOL:
        raise DataError("weights must be non-negative")
    error = abs(w.sum() - 1.0)
    if error > CLAMP_TOL and (
        gini is None or error > np.finfo(np.float64).eps * (len(w) + 2) / gini
    ):
        raise DataError("weights must sum to 1 within 1e-12")
    return np.clip(w, 0.0, None) if low < 0 else w


# -- core computations -------------------------------------------------------


def _prepared(mass: np.ndarray, y_name: str, y_labels: Sequence[str]):
    """``(kept, x_mass, total, keep)`` of a non-negative mass table; a
    table of zero total raises, as :class:`ContingencyTable` does.

    ``keep`` marks the response levels with positive mass; the others are
    dropped with a warning.  ``kept`` is the table without them and then
    without its zero-mass rows, ``x_mass`` its row sums (taken before the
    levels are dropped) and ``total`` the table's total.

    The order fixes the last bit of every result: ``mass[:, keep]`` is a
    Fortran-ordered copy, so each column sum over ``kept`` runs along one
    contiguous column, while a boolean row index gives C order.  A caller
    that drops zero-mass rows itself, as the bootstrap does, drops them
    before calling, so that its table sums like one built over observed
    cells only.
    """
    total = float(mass.sum())
    if not total > 0:  # a row subset of zero mass
        raise DataError("contingency table is degenerate (total mass 0)")
    x_mass = mass.sum(axis=1)
    keep = mass.any(axis=0)  # positive mass, as no entry is negative
    if not keep.all():
        labels = [y_labels[s] for s in np.flatnonzero(~keep)]
        warnings.warn(
            f"response {y_name!r}: dropping zero-mass levels {labels}",
            DroppedLevelsWarning,
            stacklevel=3,
        )
    kept = mass[:, keep]
    if not x_mass.min() > 0:
        rows = x_mass > 0
        kept, x_mass = kept[rows], x_mass[rows]
    return kept, x_mass, total, keep


def _column_sums(levels_by_rows: np.ndarray, x_mass: np.ndarray) -> np.ndarray:
    """``col[..., s] = sum_i M[i, s]^2 / Mx[i]`` of tables given level by
    level, ``(..., levels, rows)``, and their row sums ``(..., rows)``.

    The matrix diagonal is ``col[s] / My[s]``.  Each sum runs along the
    last axis, so over one table's rows as laid out in memory: in numpy's
    pairwise order when they are contiguous, as for a table from
    :func:`_prepared` (its kept columns, transposed) or a C-ordered block of
    tables of one row count.  Over tables stacked row after row,
    ``np.add.reduceat`` sums in another order and changes the last bit of
    a large share of the values.
    """
    squares = levels_by_rows * levels_by_rows
    squares /= x_mass[..., None, :]
    return squares.sum(axis=-1)


def _lift_forms(col, y_mass, p, total):
    """``(q, lift, alt)`` of levels with column sums ``col``, masses
    ``y_mass`` and marginals ``p`` below 1, of tables of total ``total``:
    ``q = 1 - p``, the accuracy lift ``(col / My - p) / q`` and its
    independent second-moment form ``(col / total - p^2) / (p q)``,
    element by element over any leading table axes."""
    q = 1.0 - p
    lift = (col / y_mass - p) / q
    alt = (col / total - p * p) / (p * q)
    return q, lift, alt


def _gini(p: np.ndarray):
    """Gini variation ``1 - sum(p^2)`` over the last axis of ``p``."""
    return 1.0 - (p * p).sum(axis=-1)


def _lifts(kept: np.ndarray, x_mass: np.ndarray, total: float):
    """``(definable, p, lift)`` of a table from :func:`_prepared`.

    ``definable`` holds the positions, among the kept levels, of those with
    marginal below 1, ``p`` their marginals and ``lift`` their accuracy
    lifts (:func:`_lift_forms`), checked against the second-moment form
    and clamped to [0, 1].

    The forms must agree to ``_FORMS_TOL``, and the lifts lie within
    ``CLAMP_TOL`` of [0, 1], or else within their rounding: each form sums
    ``kept.size`` terms at most, good to that many units of float64 eps
    relative (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002), and divides by ``p * (1 - p)``, which amplifies the error for a
    rare or a dominant level.  That bound is worked out only when a fixed
    one fails.
    """
    y_mass = kept.sum(axis=0)
    p = y_mass / total
    col = _column_sums(kept.T, x_mass)
    # a sole level of positive mass has marginal 1, even where its column
    # sum rounds below the table's total
    definable = ((p < 1.0) & (len(p) > 1)).nonzero()[0]
    if len(definable) < len(p):
        p, col, y_mass = p[definable], col[definable], y_mass[definable]
    q, lift, alt = _lift_forms(col, y_mass, p, total)

    def rounding():
        return np.finfo(np.float64).eps * kept.size / (p * q)

    if lift.size and np.abs(lift - alt).max() > _FORMS_TOL:
        if np.any(np.abs(lift - alt) > rounding()):
            raise DataError(
                "association-vector formulas disagree beyond 1e-12 and "
                "beyond rounding; the table is numerically ill-conditioned"
            )
    return definable, p, _clamp_unit(
        lift, "association vector components", rounding
    )


def _weighted(w: np.ndarray, lift: np.ndarray) -> float:
    return _clamp_scalar(float(np.dot(w, lift)), "weighted association")


def _tau(
    mass: np.ndarray,
    weights: Union[str, WeightVector],
    y_name: str,
    y_labels: Sequence[str],
) -> float:
    """Weighted association of a ``(cells, n_y)`` float64 mass table.

    The one formula behind :func:`association_vector`,
    :func:`weighted_tau` and :func:`tau_for`, with their checks and
    warnings, for callers that hold a bare mass array: a scheme name is
    resolved on the table's own marginal, a :class:`WeightVector` must
    cover its levels with marginal strictly inside (0, 1).  ``mass`` must
    be non-negative, and a zero total raises; ``y_name`` and ``y_labels``
    name the response in the dropped-levels warning, which an unknown
    scheme name never reaches.
    """
    _known_scheme(weights)
    kept, x_mass, total, _ = _prepared(mass, y_name, y_labels)
    _, p, lift = _lifts(kept, x_mass, total)
    gini = float(_gini(p))
    return _weighted(_weight_array(weights, p, gini), lift)


def _taus(
    mass: np.ndarray, sizes: np.ndarray, weights: Union[str, WeightVector]
) -> np.ndarray:
    """:func:`_tau` of each of many tables, NaN where it is not settled.

    ``mass`` stacks the tables row after row, ``sizes[t]`` rows for table
    ``t``, every row of positive mass, as :func:`~nomassoc.dataset._count`
    lists a table's cells; ``weights`` is a known scheme or a
    :class:`WeightVector`.  A table's value is NaN when :func:`_tau` would
    warn about it, refuse it or clamp a value of it, or when only the
    rounding bounds of :func:`_lifts` and :func:`_simplex` would accept it:
    a level of zero mass or of marginal 1, lift forms apart by more than
    ``_FORMS_TOL``, a lift or a weighted value outside [0, 1], weights that
    do not fit the levels or do not sum to 1 within ``CLAMP_TOL``.  No
    warning is raised; evaluate such a table with :func:`_tau`.  Every
    other value equals :func:`_tau`'s to the bit.

    The tables are grouped by row count, and each group is laid out level
    by level as one C-ordered ``(tables, levels, rows)`` array, so that
    each sum runs over one table's values in the order :func:`_tau` sums
    them (:func:`_column_sums`).  The weighted sum is one ``np.dot`` per
    table: a row sum of ``w * lift``, or ``einsum``, rounds differently.
    """
    n_y = mass.shape[1]
    out = np.full(len(sizes), np.nan)
    if isinstance(weights, WeightVector) and weights.size != n_y:
        return out
    x_all = mass.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in np.unique(sizes[sizes > 0]):
            tables = np.flatnonzero(sizes == rows)
            at = (starts[tables, None] + np.arange(rows)).ravel()
            group = mass[at].reshape(len(tables), rows, n_y)
            # as float(mass.sum()): one pairwise sum over the table in C order
            total = group.reshape(len(tables), -1).sum(axis=1)[:, None]
            kept = group.transpose(0, 2, 1).copy()
            y_mass = kept.sum(axis=-1)
            p = y_mass / total
            _, lift, alt = _lift_forms(_column_sums(
                kept, x_all[at].reshape(len(tables), rows)), y_mass, p, total)
            gini = _gini(p)
            settled = (
                (y_mass > 0) & (p < 1.0) & (np.abs(lift - alt) <= _FORMS_TOL)
                & (lift >= 0.0) & (lift <= 1.0)
            ).all(axis=1) & (gini > 0)
            if isinstance(weights, WeightVector):
                w = np.broadcast_to(weights.weights, p.shape)
            else:
                w = _SCHEMES[weights](p, gini[:, None])
                settled &= (w.min(axis=-1) >= 0) & (
                    np.abs(w.sum(axis=-1) - 1.0) <= CLAMP_TOL
                )
            for t in np.flatnonzero(settled):
                out[tables[t]] = np.dot(w[t], lift[t])
    return np.where((out >= 0.0) & (out <= 1.0), out, np.nan)


def association_matrix(table: ContingencyTable) -> AssociationMatrix:
    """Expected confusion matrix of proportional prediction from a table.

    ``entries[s, t] = sum_i p(X=i, Y=s) p(X=i, Y=t) / (p(X=i) p(Y=s))``.
    Zero-mass explanatory scenarios contribute nothing; zero-mass response
    levels are dropped with a warning.
    """
    mass, x_mass, total, keep = _prepared(
        table.mass, table.y_name, table.y_labels
    )
    retained = tuple(int(s) for s in np.flatnonzero(keep))
    y_mass = mass.sum(axis=0)
    cond = mass / x_mass[:, None]
    n = mass.shape[1]
    entries = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        entries[s] = (mass[:, s][:, None] * cond).sum(axis=0) / y_mass[s]
    return AssociationMatrix(
        entries,
        y_mass / total,
        level_indices=retained,
        dropped_levels=tuple(int(s) for s in np.flatnonzero(~keep)),
        y_labels=[table.y_labels[s] for s in retained],
        x_descriptor=table.x_name,
    )


def association_vector(table: ContingencyTable) -> AssociationVector:
    """Per-category accuracy-lift rates of proportional prediction.

    For each retained level ``s`` with marginal strictly inside (0, 1),
    ``lift_s = (m[s, s] - p_s) / (1 - p_s)`` where ``m`` is the association
    matrix; the equivalent second-moment form
    ``(E[p(Y=s|X)^2] - p_s^2) / (p_s (1 - p_s))`` is evaluated as well and
    both must agree to 1e-12, or within their rounding for a rare or a
    dominant level.  Levels with marginal 0 or 1 are excluded and
    recorded; weights used downstream must be renormalised accordingly.
    """
    kept, x_mass, total, keep = _prepared(
        table.mass, table.y_name, table.y_labels
    )
    definable, p, lift = _lifts(kept, x_mass, total)
    levels = tuple(int(s) for s in np.flatnonzero(keep)[definable])
    return AssociationVector(
        components=lift,
        y_marginal=p,
        level_indices=levels,
        excluded_levels=tuple(
            s for s in range(table.y_levels) if s not in levels),
        y_labels=tuple(table.y_labels[s] for s in levels),
        x_descriptor=table.x_name,
    )


def weighted_tau(vector: AssociationVector, alpha: WeightVector) -> float:
    """Weighted global association ``sum_s alpha_s * lift_s`` in [0, 1].

    With a regular weight vector the value is 0 exactly when response and
    explanatory variable are independent and 1 exactly when the response is
    completely determined.
    """
    if alpha.size != vector.size:
        raise DataError(
            f"weight vector has {alpha.size} components, association vector "
            f"has {vector.size}"
        )
    return _weighted(alpha.weights, vector.components)


def goodman_kruskal_tau(table: ContingencyTable) -> float:
    """Goodman-Kruskal tau: normalised conditional Gini concentration.

    ``(sum_{i,s} p(i,s)^2 / p(i) - sum_s p_s^2) / (1 - sum_s p_s^2)``.
    Computed directly from the classical form; agrees with
    ``weighted_tau(..., goodman_kruskal_weights(...))`` to 1e-12.
    """
    mass, x_mass, total, _ = _prepared(
        table.mass, table.y_name, table.y_labels
    )
    p = mass.sum(axis=0) / total
    v_g = 1.0 - float(np.sum(p * p))
    if len(p) < 2 or v_g <= 0:  # rounding may leave v_g of one level above 0
        raise DataError(
            "Goodman-Kruskal tau undefined: response is a point mass"
        )
    cond_conc = float(
        ((mass * mass) / x_mass[:, None]).sum(axis=0).sum()
    ) / total
    value = (cond_conc - float(np.sum(p * p))) / v_g
    return _clamp_scalar(value, "Goodman-Kruskal tau")


# -- weight schemes -----------------------------------------------------------

#: Each named weight scheme's weights over the last axis of ``p``, the
#: marginals of the levels strictly inside (0, 1), with their Gini
#: variation ``gini``; :func:`_weight_array` holds each scheme's refusals.
_SCHEMES = {
    "gk": lambda p, gini: p * (1.0 - p) / gini,
    "equal": lambda p, gini: np.full(p.shape, 1.0 / p.shape[-1]),
    # a subnormal marginal overflows 1 / p: the weights come out non-finite
    # and are refused, so numpy's overflow warning would only repeat that
    "invprob": np.errstate(over="ignore", invalid="ignore")(lambda p, gini: (
        (1.0 / p) / (1.0 / p).sum(axis=-1, keepdims=True))),
}

#: Named weight schemes accepted wherever a WeightVector is expected.
WEIGHT_SCHEMES = tuple(_SCHEMES)


def goodman_kruskal_weights(stats: MarginalStats) -> WeightVector:
    """Weights ``p_s (1 - p_s) / V_G`` reproducing the Goodman-Kruskal tau."""
    return resolve_weights("gk", stats)


def equal_weights(n_levels: int) -> WeightVector:
    """Uniform weights ``1 / n`` over the response categories."""
    if n_levels < 1:
        raise DataError("need at least one response level")
    return WeightVector(np.full(n_levels, 1.0 / n_levels))


def inverse_probability_weights(stats: MarginalStats) -> WeightVector:
    """Weights proportional to ``1 / p_s``, emphasising rare categories."""
    return resolve_weights("invprob", stats)


def _weight_array(
    spec: Union[str, WeightVector], p: np.ndarray, gini: float
) -> np.ndarray:
    """The weights ``spec`` gives a response with marginal ``p`` and Gini
    variation ``gini``, checked as :class:`WeightVector` checks them.

    From :func:`_lifts`, ``p`` covers the levels with marginal strictly
    inside (0, 1): it is empty exactly when the response has a single level of
    positive mass, which :func:`_fit_levels` refuses for every weighting.
    """
    _known_scheme(spec)
    _fit_levels(spec, len(p))
    if isinstance(spec, WeightVector):
        return spec.weights
    if spec == "gk" and gini <= 0:
        raise DataError("variation-proportional weights undefined: point mass")
    if spec == "invprob" and p.min() <= 0:
        raise DataError(
            "inverse-probability weights undefined for zero-probability "
            "levels; re-code the response to eliminate them"
        )
    return _simplex(_SCHEMES[spec](p, gini), gini if spec == "gk" else None)


def _known_scheme(spec: Union[str, WeightVector]) -> None:
    """Refuse ``spec`` unless it is a :class:`WeightVector` or names one of
    :data:`WEIGHT_SCHEMES`, before any table is looked at."""
    if not (isinstance(spec, WeightVector) or spec in WEIGHT_SCHEMES):
        raise DataError(
            f"unknown weight scheme {spec!r}; expected one of "
            f"{WEIGHT_SCHEMES} or a WeightVector"
        )


def _fit_levels(spec: Union[str, WeightVector], levels: int) -> None:
    """Refuse every weighting of a response with ``levels`` levels of
    marginal strictly inside (0, 1) when there are none, and a
    :class:`WeightVector` without one weight per such level."""
    if not levels:
        raise DataError(
            "weighted association undefined: the response has one level of "
            "positive mass"
        )
    if isinstance(spec, WeightVector) and spec.size != levels:
        raise DataError(
            f"weight vector has {spec.size} components, response has "
            f"{levels} levels"
        )


def resolve_weights(
    spec: Union[str, WeightVector], stats: MarginalStats
) -> WeightVector:
    """Resolve a scheme name or pass through an explicit weight vector."""
    w = _weight_array(spec, stats.p, stats.gini_variation)
    if isinstance(spec, WeightVector):
        return spec
    return WeightVector._checked(w)


# -- dataset-level helpers ----------------------------------------------------


def tau_for(
    dataset: CategoricalDataset,
    response,
    given,
    weights: Union[str, WeightVector] = "gk",
) -> float:
    """Weighted association of ``response`` on the composite ``given``."""
    table = contingency(dataset, given, response)
    return _tau(table.mass, weights, table.y_name, table.y_labels)


def expected_concentration(
    dataset: CategoricalDataset, indices: Sequence[VarRef]
) -> float:
    """Concentration ``sum(p(cell)^2)`` of the joint distribution over
    ``indices``; 1 for a point mass, ``1/k`` for a uniform over k cells."""
    resolved = [dataset.index_of(i) for i in indices]
    if not resolved:
        raise DataError("expected_concentration requires at least one variable")
    if len(set(resolved)) != len(resolved):
        raise DataError("variables must be distinct")
    return _concentration(_count(*_joint_codes(dataset, sorted(resolved)),
                                 None, 1, dataset.mass)[0], dataset.total_mass)


def _concentration(table: np.ndarray, total: float) -> float:
    """``sum(p^2)`` over the cells of the one-column mass ``table``, with
    ``p`` a cell's mass over ``total``."""
    p = table[:, 0] / total
    return float(np.sum(p * p))

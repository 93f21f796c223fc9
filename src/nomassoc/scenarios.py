"""Seeded generators for the two-test screening simulation.

The scenario: a response with three categories (0 = healthy, 1 = common
strain, 2 = severe strain) and two independent binary screening tests X1 and
X2 with ``P(X1=1) = P(X2=1) = 1/4``.  Neither test alone is conclusive; the
severe strain occurs only when both tests fire.  The joint design is:

==========  =========  ==========  ==========  ==========
(X1, X2)    P(X1,X2)   P(Y=0|..)   P(Y=1|..)   P(Y=2|..)
==========  =========  ==========  ==========  ==========
(0, 0)      9/16       0.95        0.05        0.00
(0, 1)      3/16       0.50        0.50        0.00
(1, 0)      3/16       0.30        0.70        0.00
(1, 1)      1/16       0.00        0.05        0.95
==========  =========  ==========  ==========  ==========

Three redundant variables are derived: R3 and R4 are degraded copies of X1
and X2 (a positive result is lost with probability ``flip_prob``; in the
default one-sided mode a negative result is never corrupted), and S5 fires
when both tests are positive and an independent event of probability
``s5_prob`` occurs.  X1 is the more informative single test.

``generate_flu`` draws seeded samples; ``flu_population_distribution``
returns the exact weighted joint so population values need no sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, ContingencyTable, VariableMeta, contingency
from .errors import DataError

#: P(X1, X2) over the four cells in (X1 major, X2 minor) order.
PAIR_PROBS = np.array([9, 3, 3, 1], dtype=np.float64) / 16.0

#: P(Y | X1, X2), one row per cell in the same order.
CONDITIONALS = np.array(
    [
        [0.95, 0.05, 0.00],
        [0.50, 0.50, 0.00],
        [0.30, 0.70, 0.00],
        [0.00, 0.05, 0.95],
    ]
)

COLUMN_NAMES = ("Y", "X1", "X2", "R3", "R4", "S5")


@dataclass(frozen=True)
class FluScenarioConfig:
    """Sampling configuration for the screening simulation."""

    n: int
    seed: int
    flip_prob: float = 0.10
    s5_prob: float = 0.8
    one_sided_noise: bool = True

    def __post_init__(self):
        if not self.n >= 1:  # true for NaN too
            raise DataError("sample count must be at least 1")
        if self.n % 1:  # inf % 1 is NaN
            raise DataError("sample count must be a whole number")
        if not 0 <= self.flip_prob <= 1:
            raise DataError("flip_prob must be in [0, 1]")
        if not 0 <= self.s5_prob <= 1:
            raise DataError("s5_prob must be in [0, 1]")


def _variables() -> list[VariableMeta]:
    metas = [VariableMeta("Y", ("0", "1", "2"))]
    metas += [VariableMeta(name, ("0", "1")) for name in COLUMN_NAMES[1:]]
    return metas


def generate_flu(config: FluScenarioConfig) -> CategoricalDataset:
    """Draw a seeded sample of (Y, X1, X2, R3, R4, S5).

    Randomness is consumed in a fixed column order, so the output is fully
    determined by ``config`` and stable across library versions of the same
    draw sequence.
    """
    rng = np.random.default_rng(config.seed)
    n = int(config.n)
    u = np.empty(n)  # one buffer takes every uniform draw in turn
    x1 = rng.random(out=u) < 0.25
    x2 = rng.random(out=u) < 0.25
    cell = 2 * x1 + x2
    cdf = np.cumsum(CONDITIONALS, axis=1)
    rng.random(out=u)
    y = np.zeros(n, dtype=np.int64)
    for k in range(cdf.shape[1]):  # y = number of cdf steps at or below u
        y += cdf[:, k][cell] <= u
    lost3 = rng.random(out=u) < config.flip_prob
    lost4 = rng.random(out=u) < config.flip_prob
    if config.one_sided_noise:
        r3 = x1 & ~lost3
        r4 = x2 & ~lost4
    else:
        r3 = x1 ^ lost3
        r4 = x2 ^ lost4
    s5 = x1 & x2 & (rng.random(out=u) < config.s5_prob)
    codes = [y] + [c.astype(np.int64) for c in (x1, x2, r3, r4, s5)]
    return CategoricalDataset(_variables(), codes, validate=False)


def flu_population_distribution(
    flip_prob: float = FluScenarioConfig.flip_prob,
    s5_prob: float = FluScenarioConfig.s5_prob,
    one_sided_noise: bool = FluScenarioConfig.one_sided_noise,
) -> CategoricalDataset:
    """Exact weighted joint distribution of (Y, X1, X2, R3, R4, S5).

    Enumerates every positive-probability cell analytically -- no sampling.
    Total mass is 1.
    """
    rows: list[tuple[int, ...]] = []
    masses: list[float] = []
    for x1, x2, y, r3, r4, s5 in itertools.product(
        (0, 1), (0, 1), (0, 1, 2), (0, 1), (0, 1), (0, 1)
    ):
        p_s5 = s5_prob if (x1 and x2) else 0.0
        factors = (
            PAIR_PROBS[x1 * 2 + x2],
            CONDITIONALS[x1 * 2 + x2][y],
            _copy_prob(r3, x1, flip_prob, one_sided_noise),
            _copy_prob(r4, x2, flip_prob, one_sided_noise),
            p_s5 if s5 else 1.0 - p_s5,
        )
        if 0 in factors:  # a factor, not the product, which may underflow
            continue
        rows.append((y, x1, x2, r3, r4, s5))
        masses.append(float(math.prod(factors)))  # left to right
    codes = np.asarray(rows, dtype=np.int64)
    return CategoricalDataset(
        _variables(),
        [codes[:, j] for j in range(6)],
        np.asarray(masses),
        validate=False,
    )


def _copy_prob(value: int, source: int, flip_prob: float, one_sided: bool) -> float:
    """P(degraded copy = value | source) under the chosen noise mode."""
    if source == 1:
        return 1.0 - flip_prob if value == 1 else flip_prob
    if one_sided:
        return 1.0 if value == 0 else 0.0
    return flip_prob if value == 1 else 1.0 - flip_prob


def flu_population_tables(
    flip_prob: float = FluScenarioConfig.flip_prob,
    s5_prob: float = FluScenarioConfig.s5_prob,
    one_sided_noise: bool = FluScenarioConfig.one_sided_noise,
) -> dict[str, ContingencyTable]:
    """Exact population tables of Y against X1, X2, and the pair (X1, X2)."""
    population = flu_population_distribution(flip_prob, s5_prob, one_sided_noise)
    return {
        "X1": contingency(population, "X1", "Y"),
        "X2": contingency(population, "X2", "Y"),
        "X1+X2": contingency(population, ("X1", "X2"), "Y"),
    }

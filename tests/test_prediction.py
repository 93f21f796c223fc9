import dataclasses
import warnings

import numpy as np
import pytest

from nomassoc import (
    ContingencyTable,
    DataError,
    association_matrix,
    contingency,
    expand_to_unit_rows,
    expected_confusion,
    fit,
    from_scenarios,
    load_delimited,
    predict_and_score,
    split,
)
from nomassoc.dataset import _load_table
from nomassoc.reference import loan_tables, retail_dataset


def write_rows(path, names, rows):
    """Write ``rows`` (dicts keyed by name) as a CSV file with columns in
    ``names`` order; returns the path as a string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(str(row[n]) for n in names) + "\n")
    return str(path)


def mod3_rows(n=300, seed=4):
    """Rows with ``Y = (A + 2 B) % 3``: A and B share their labels, so a
    tuple read in the wrong member order still names a trained scenario."""
    rng = np.random.default_rng(seed)
    rows = []
    for a, b in rng.integers(0, 3, (n, 2)):
        rows.append({"Y": (a + 2 * b) % 3, "A": a, "B": b})
    return rows


def table_as_unit_dataset(mass, x_name="X", y_name="Y"):
    mass = np.asarray(mass)
    scenarios = []
    for i in range(mass.shape[0]):
        for s in range(mass.shape[1]):
            if mass[i, s]:
                scenarios.append(((f"x{i}", f"y{s}"), float(mass[i, s])))
    ds = from_scenarios(scenarios, names=(x_name, y_name))
    return expand_to_unit_rows(ds)


class TestFit:
    def test_one_hot_for_deterministic_table(self):
        ds = table_as_unit_dataset([[5, 0], [0, 3]])
        predictor = fit(ds, "X", "Y")
        for vec in predictor.conditionals.values():
            assert sorted(vec.tolist()) == [0.0, 1.0]

    def test_retail_first_row_conditional(self):
        ds = expand_to_unit_rows(retail_dataset())
        predictor = fit(ds, "V6", "V4")
        vec = predictor.conditionals[("1",)]
        assert vec == pytest.approx([16 / 17, 1 / 17, 0, 0, 0, 0], abs=1e-15)

    def test_constant_response_rejected(self):
        ds = table_as_unit_dataset([[3], [2]])
        with pytest.raises(DataError):
            fit(ds, "X", "Y")

    def test_overflowing_scenario_mass_is_refused(self):
        # every row mass is finite, but scenario a's two rows sum past the
        # largest float: its conditional would be 0/0, so the dataset is
        # refused when built, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="total mass overflows float64"):
                from_scenarios([(("a", "0"), 1e308), (("a", "1"), 1e308),
                                (("b", "0"), 1.0)], names=("X", "Y"))

    def test_unseen_scenario_uses_marginal_fallback(self):
        train = table_as_unit_dataset([[8, 2], [1, 9]])
        predictor = fit(train, "X", "Y", seed=5)
        test = expand_to_unit_rows(
            from_scenarios([(("x9", "y0"), 4000.0)], names=("X", "Y"))
        )
        cm = predict_and_score(predictor, test)
        rate = cm.counts[0] / cm.counts[0].sum()
        assert rate == pytest.approx(predictor.fallback, abs=0.03)


def weighted_rows(masses, seed=6):
    """Noisy ``Y = (A + B) % 3`` rows, each with the next of ``masses`` in
    column ``w`` (repeated lines, so the table path merges them)."""
    rng = np.random.default_rng(seed)
    rows = []
    for k, (a, b, noise) in enumerate(rng.integers(0, 3, (400, 3))):
        y = (a + b + (noise == 0)) % 3
        rows.append({"Y": y, "A": a, "B": b, "w": masses[k % len(masses)]})
    return rows


@pytest.mark.parametrize("masses, kwargs", [
    ([1], {}),  # unit rows: w is a variable, not read as a mass
    ([1, 2, 5], {"mass_column": "w"}),
    ([0.5, 1.25, 3], {"mass_column": "w"}),
    ([0, 1, 2, 0], {"mass_column": "w"}),
    (["__NA__", 1, 2], {"missing_policy": "drop-row"}),
])
def test_fit_on_table_equals_fit_on_rows(tmp_path, masses, kwargs):
    path = write_rows(tmp_path / "train.csv", ["Y", "A", "B", "w"],
                      weighted_rows(masses))
    given = ["A", "B"] if "mass_column" in kwargs else ["A", "B", "w"]
    got = fit(_load_table(path, **kwargs), given, "Y", seed=3)
    want = fit(load_delimited(path, **kwargs), given, "Y", seed=3)
    assert (got.member_names, got.response_name, got.response_levels,
            got.seed) == (want.member_names, want.response_name,
                          want.response_levels, want.seed)
    assert list(got.conditionals) == list(want.conditionals)
    for key, vec in want.conditionals.items():
        assert np.array_equal(got.conditionals[key], vec)
    assert np.array_equal(got.fallback, want.fallback)


def level_matrix_counts(predictor, test):
    """The confusion counts of ``predict_and_score`` by its former formula,
    kept as the oracle: an ``(n, levels)`` matrix of each row's CDF
    compared with its uniform, summed, capped at the last level and tallied
    by ``np.add.at``."""
    x_levels = test.variable("X").levels
    cdf = np.array([np.cumsum(predictor.conditionals.get((lv,),
                                                         predictor.fallback))
                    for lv in x_levels])
    uniforms = np.random.default_rng(predictor.seed).random(test.n_rows)
    n_levels = len(predictor.response_levels)
    predicted = np.minimum(
        (cdf[test.codes[test.index_of("X")]] <= uniforms[:, None]).sum(axis=1),
        n_levels - 1)
    true = np.asarray([predictor.response_levels.index(lv)
                       for lv in test.variable("Y").levels])
    counts = np.zeros((n_levels, n_levels), dtype=np.int64)
    np.add.at(counts, (true[test.codes[test.index_of("Y")]], predicted), 1)
    return counts


class TestPredictAndScore:
    def test_counts_equal_the_level_matrix_formula(self):
        train = table_as_unit_dataset([[30, 10, 5], [5, 25, 10], [2, 3, 40]])
        test = expand_to_unit_rows(from_scenarios(
            [((x, y), 60.0) for x in ("x0", "x1", "x2", "x9")
             for y in ("y0", "y1", "y2")], names=("X", "Y")))
        predictor = fit(train, "X", "Y", seed=7)
        uniforms = np.random.default_rng(7).random(test.n_rows)
        x = np.asarray(test.variable("X").levels)[
            test.codes[test.index_of("X")]]
        capped = "x1" if x[0] != "x1" else "x2"
        predictor = dataclasses.replace(predictor, conditionals={
            # row 0's uniform equals a CDF entry, repeated by a zero level
            (x[0],): np.array([uniforms[0], 0.0, 1.0 - uniforms[0]]),
            # a CDF that ends below 1: a draw above it is capped
            (capped,): np.array([0.25, 0.25, 0.25]),
        }, fallback=np.array([0.5, 0.0, 0.5]))  # for x9 and the third x
        assert np.cumsum(predictor.conditionals[(x[0],)])[1] == uniforms[0]
        assert (uniforms[x == capped] > 0.75).any()
        cm = predict_and_score(predictor, test)
        want = level_matrix_counts(predictor, test)
        assert cm.counts.dtype == want.dtype
        assert cm.counts.tolist() == want.tolist()
        assert cm.total == test.n_rows

    def test_deterministic_predictor_identity(self):
        ds = table_as_unit_dataset([[50, 0], [0, 30]])
        predictor = fit(ds, "X", "Y")
        cm = predict_and_score(predictor, ds)
        assert np.allclose(cm.row_normalized, np.eye(2))
        assert cm.accuracy() == 1.0

    def test_seed_determinism(self):
        ds = table_as_unit_dataset([[30, 10, 5], [5, 25, 10], [2, 3, 40]])
        predictor = fit(ds, "X", "Y", seed=11)
        c1 = predict_and_score(predictor, ds)
        c2 = predict_and_score(predictor, ds)
        assert np.array_equal(c1.counts, c2.counts)
        c3 = predict_and_score(fit(ds, "X", "Y", seed=12), ds)
        assert not np.array_equal(c1.counts, c3.counts)

    def test_processing_order_independent(self):
        ds = table_as_unit_dataset([[30, 10], [5, 25]])
        predictor = fit(ds, "X", "Y", seed=3)
        cm = predict_and_score(predictor, ds)
        # scoring a reordered copy with per-row draws keyed to position
        # tallies the same aggregate as long as the rows travel with their
        # draws; here we check the vectorised path against a row loop
        rng = np.random.default_rng(3)
        u = rng.random(ds.n_rows)
        x_idx = ds.index_of("X")
        y_idx = ds.index_of("Y")
        counts = np.zeros((2, 2), dtype=int)
        for r in range(ds.n_rows):
            label = (ds.variable("X").levels[ds.codes[x_idx][r]],)
            cdf = np.cumsum(predictor.conditionals[label])
            pred = int(np.searchsorted(cdf, u[r], side="right"))
            true = predictor.response_levels.index(
                ds.variable("Y").levels[ds.codes[y_idx][r]]
            )
            counts[true, min(pred, 1)] += 1
        assert np.array_equal(cm.counts, counts)

    def test_grand_total(self):
        ds = table_as_unit_dataset([[30, 10], [5, 25]])
        predictor = fit(ds, "X", "Y")
        assert predict_and_score(predictor, ds).total == ds.n_rows

    def test_weighted_test_rejected(self):
        train = table_as_unit_dataset([[30, 10], [5, 25]])
        predictor = fit(train, "X", "Y")
        weighted = from_scenarios([(("x0", "y0"), 2.5)], names=("X", "Y"))
        with pytest.raises(DataError, match="unit-mass"):
            predict_and_score(predictor, weighted)

    def test_rows_matched_by_labels_not_codes(self):
        # test data discovered its levels in a different order than train;
        # matching goes through the labels, so results agree with a test
        # set that shares the training dictionaries
        train = table_as_unit_dataset([[40, 5], [10, 30]])
        predictor = fit(train, "X", "Y", seed=9)
        aligned = table_as_unit_dataset([[12, 3], [4, 9]])
        reordered = expand_to_unit_rows(
            from_scenarios(
                [
                    (("x1", "y1"), 9.0),  # levels appear in swapped order
                    (("x1", "y0"), 4.0),
                    (("x0", "y1"), 3.0),
                    (("x0", "y0"), 12.0),
                ],
                names=("X", "Y"),
            )
        )
        cm_a = predict_and_score(predictor, aligned)
        cm_b = predict_and_score(predictor, reordered)
        # same multiset of rows, same label keying: identical marginals of
        # true categories; counts agree up to the per-position draws
        assert cm_a.counts.sum(axis=1).tolist() == cm_b.counts.sum(axis=1).tolist()
        assert cm_a.labels == cm_b.labels == ("y0", "y1")

    def test_test_file_column_order_does_not_matter(self, tmp_path):
        # training tuples are keyed in (A, B) order; a test file with the
        # columns swapped must be matched in that same order
        rows = mod3_rows()
        train = load_delimited(write_rows(tmp_path / "train.csv", "YAB", rows))
        same = load_delimited(write_rows(tmp_path / "same.csv", "YAB", rows))
        swapped = load_delimited(write_rows(tmp_path / "swap.csv", "YBA", rows))
        predictor = fit(train, ["A", "B"], "Y", seed=2)
        cm_same = predict_and_score(predictor, same)
        assert cm_same.accuracy() == 1.0
        cm_swapped = predict_and_score(predictor, swapped)
        assert cm_swapped.counts.tolist() == cm_same.counts.tolist()

    def test_unseen_true_label_rejected(self):
        train = table_as_unit_dataset([[40, 5], [10, 30]])
        predictor = fit(train, "X", "Y")
        alien = expand_to_unit_rows(
            from_scenarios([(("x0", "y9"), 3.0)], names=("X", "Y"))
        )
        with pytest.raises(DataError, match="never seen"):
            predict_and_score(predictor, alien)

    def test_monte_carlo_agreement(self):
        # empirical confusion over 10^6 rows matches the expected matrix
        mass = np.array([[60, 25, 15], [10, 70, 20], [30, 30, 40]], dtype=float)
        reps = 1_000_000 / mass.sum()
        ds = table_as_unit_dataset((mass * reps).astype(int))
        predictor = fit(ds, "X", "Y", seed=123)
        cm = predict_and_score(predictor, ds)
        expected = expected_confusion(
            contingency(ds, "X", "Y")
        ).entries
        assert np.max(np.abs(cm.row_normalized - expected)) <= 0.003

    def test_deviation_shrinks_with_sample_size(self):
        mass = np.array([[60, 25, 15], [10, 70, 20], [30, 30, 40]], dtype=float)
        devs = {}
        for n in (1_000, 100_000):
            ds = table_as_unit_dataset((mass * (n / mass.sum())).astype(int))
            predictor = fit(ds, "X", "Y", seed=31)
            cm = predict_and_score(predictor, ds)
            expected = expected_confusion(contingency(ds, "X", "Y")).entries
            devs[n] = np.max(np.abs(cm.row_normalized - expected))
        assert devs[1_000] / devs[100_000] > 2


class TestExpectedConfusion:
    def test_loan_accuracy_rates(self):
        m = expected_confusion(loan_tables("Risk")["OnTime"])
        assert m.accuracy_rates() == pytest.approx(
            (0.5108, 0.0402, 0.4976), abs=5e-5
        )

    def test_independence_accuracy_equals_marginal(self):
        mass = np.outer([3.0, 2.0], [1.0, 2.0, 2.0])
        m = expected_confusion(ContingencyTable(mass))
        assert m.accuracy_rates() == pytest.approx(m.y_marginal, abs=1e-12)

    def test_split_confusion_close_to_training_matrix(self):
        ds = expand_to_unit_rows(retail_dataset())
        train, test = split(ds, 0.8, seed=22)
        predictor = fit(train, "V6", "V4", seed=22)
        m_train = association_matrix(contingency(train, "V6", "V4"))
        cm = predict_and_score(predictor, test)
        assert np.max(np.abs(cm.row_normalized - m_train.entries)) <= 0.03

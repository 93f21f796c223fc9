import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomassoc import (
    CategoricalDataset,
    ContingencyTable,
    DataError,
    DroppedLevelsWarning,
    EquivalenceLevel,
    FluScenarioConfig,
    MarginalStats,
    SelectionConfig,
    VariableMeta,
    WeightVector,
    association_matrix,
    association_vector,
    check,
    contingency,
    equal_weights,
    expected_concentration,
    from_scenarios,
    generate_flu,
    goodman_kruskal_tau,
    goodman_kruskal_weights,
    inverse_probability_weights,
    marginal_stats,
    resolve_weights,
    select_supervised,
    tau_for,
    weighted_tau,
)
from nomassoc import association
from nomassoc.association import _tau
from nomassoc.reference import (
    fixture_e4_without_e3,
    fixture_e5_without_e4,
    loan_tables,
)

from expected_values import LOAN_EXPECTED, LOAN_MARGINALS, LOAN_ON_TIME_TAUS
import oracles


def random_table(rng, max_levels=6, min_y=2):
    """Random integer-mass table with strictly positive marginals."""
    while True:
        n_x = rng.integers(1, max_levels + 1)
        n_y = rng.integers(min_y, max_levels + 1)
        mass = rng.integers(0, 10, size=(n_x, n_y)).astype(float)
        if (mass.sum(axis=0) > 0).all() and (mass.sum(axis=1) > 0).all():
            if 1.0 - np.sum((mass.sum(axis=0) / mass.sum()) ** 2) > 0:
                return ContingencyTable(mass)


class TestAssociationMatrix:
    def test_loan_values_match_published(self):
        for response, per_x in LOAN_EXPECTED.items():
            for x_name, (_, _, matrix) in per_x.items():
                table = loan_tables(response)[x_name]
                m = association_matrix(table)
                assert np.max(np.abs(m.entries - np.asarray(matrix))) <= 5e-5

    def test_determinism_gives_identity(self):
        m = association_matrix(ContingencyTable([[5.0, 0.0], [0.0, 3.0]]))
        assert m.is_identity(tol=0)

    def test_independence_gives_marginal_rows(self):
        mass = np.outer([2.0, 5.0, 1.0], [3.0, 1.0, 4.0])
        m = association_matrix(ContingencyTable(mass))
        assert m.rows_equal_marginal(tol=1e-12)

    def test_equal_lift_different_matrix_fixture(self):
        # gamma(Y|X1) couples the first two categories, gamma(Y|X2) does not
        ds = fixture_e4_without_e3()
        m1 = association_matrix(contingency(ds, "X1", "Y"))
        m2 = association_matrix(contingency(ds, "X2", "Y"))
        for m in (m1, m2):
            assert np.allclose(np.diag(m.entries), 0.5, atol=1e-12)
        assert m1.entries[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert m2.entries[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            table = random_table(rng)
            m = association_matrix(table)
            joint = {
                ((i,), s): table.mass[i, s]
                for i in range(table.x_levels)
                for s in range(table.y_levels)
                if table.mass[i, s]
            }
            ref = oracles.gamma(joint)
            for a, s in enumerate(sorted(ref)):
                for b, t in enumerate(sorted(ref)):
                    assert m.entries[a, b] == pytest.approx(
                        ref[s][t], abs=1e-12
                    )

    def test_zero_mass_level_dropped_with_warning(self):
        mass = np.array([[2.0, 0.0, 1.0], [1.0, 0.0, 3.0]])
        with pytest.warns(DroppedLevelsWarning):
            m = association_matrix(ContingencyTable(mass))
        assert m.size == 2
        assert m.dropped_levels == (1,)

    def test_error_rate_accessors(self):
        table = loan_tables("Risk")["OnTime"]
        m = association_matrix(table)
        assert np.allclose(
            m.type_one_error_rates(), 1.0 - m.accuracy_rates(), atol=1e-12
        )
        assert m.type_two_error_rates() == pytest.approx(
            m.entries.sum(axis=0) - np.diag(m.entries), abs=1e-15
        )


class TestAssociationVector:
    def test_exact_fraction_fixture(self):
        ds = fixture_e5_without_e4()
        v1 = association_vector(contingency(ds, "X1", "Y"))
        v2 = association_vector(contingency(ds, "X2", "Y"))
        expected = np.array([1 / 6, 17 / 72, 23 / 48])
        assert np.max(np.abs(v1.components - expected)) <= 1e-12
        assert np.max(np.abs(v2.components - expected[[1, 0, 2]])) <= 1e-12

    def test_independence_gives_zero_vector(self):
        mass = np.outer([1.0, 2.0], [3.0, 1.0, 4.0])
        v = association_vector(ContingencyTable(mass))
        assert np.max(np.abs(v.components)) <= 1e-12

    def test_sole_positive_level_is_excluded_whatever_its_rounding(self):
        # the column sum 0.6 + 3.0 + 0.7 + 0.1 rounds just below the total
        # 4.4: the one level of positive mass still has marginal 1
        mass = np.array([[0.6, 0.0], [3.0, 0.0], [0.7, 0.0], [0.1, 0.0]])
        with pytest.warns(DroppedLevelsWarning):
            v = association_vector(ContingencyTable(mass))
        assert v.level_indices == ()
        assert v.excluded_levels == (0, 1)
        with pytest.warns(DroppedLevelsWarning), \
                pytest.raises(DataError, match="one level of positive mass"):
            _tau(mass, "gk", "Y", ("0", "1"))

    def test_disagreeing_formulas_are_a_data_error(self, monkeypatch):
        # the two lift forms agree to rounding on every table the other
        # tests build, so the second form is set 1e-6 off on a
        # well-conditioned one
        forms = association._lift_forms

        def off(*args):
            q, lift, alt = forms(*args)
            return q, lift, alt + 1e-6

        monkeypatch.setattr(association, "_lift_forms", off)
        ds = generate_flu(FluScenarioConfig(n=300, seed=4))
        with pytest.raises(DataError, match="formulas disagree"):
            association_vector(contingency(ds, "X1", "Y"))
        with pytest.raises(DataError, match="formulas disagree"):
            tau_for(ds, "Y", ["X1"])

    def test_loan_values_match_published(self):
        for response, per_x in LOAN_EXPECTED.items():
            for x_name, (_, lift, _) in per_x.items():
                v = association_vector(loan_tables(response)[x_name])
                assert np.max(np.abs(v.components - np.asarray(lift))) <= 5e-5

    def test_marginals_match_published(self):
        for response, marginal in LOAN_MARGINALS.items():
            table = next(iter(loan_tables(response).values()))
            assert table.y_probabilities() == pytest.approx(
                marginal, abs=5e-5
            )

    @pytest.mark.parametrize("counts", [
        [[453498, 2]],
        [[27559, 2]],
        [[511822, 0], [755168, 0], [950464, 2]],
        [[249228, 2], [311831, 0], [869026, 1], [423326, 1], [273169, 1]],
    ])
    def test_dominant_level_lift_is_accepted_and_accurate(self, counts):
        # 1 - p of the dominant level is near 1e-5; dividing by it scales
        # the rounding of both lift formulas past an absolute 1e-12
        v = association_vector(ContingencyTable(np.asarray(counts, float)))
        total = sum(map(sum, counts))
        y = [sum(row[s] for row in counts) for s in range(2)]
        for s in range(2):
            col = sum(Fraction(row[s] ** 2, sum(row)) for row in counts)
            p = Fraction(y[s], total)
            exact = (col / y[s] - p) / (1 - p)
            assert abs(v.components[s] - float(exact)) <= 1e-9

    def test_large_counts_with_a_rare_level_are_accepted(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k, s = rng.integers(1, 201), rng.integers(2, 13)
            mass = rng.integers(0, 10**6 + 1, (k, s)).astype(float)
            mass[:, rng.integers(s)] = rng.integers(0, 3, k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DroppedLevelsWarning)
                v = association_vector(ContingencyTable(mass))
            assert np.all((v.components >= 0) & (v.components <= 1))

    def test_diagonal_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = random_table(rng)
            m = association_matrix(table)
            v = association_vector(table)
            p = v.y_marginal
            recon = (1.0 - p) * v.components + p
            assert np.max(np.abs(np.diag(m.entries) - recon)) <= 1e-12


class TestWeightedTau:
    def test_determinism_reaches_one(self):
        table = ContingencyTable([[5.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
        v = association_vector(table)
        for scheme in ("gk", "equal", "invprob"):
            alpha = resolve_weights(scheme, v.stats())
            assert weighted_tau(v, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_loan_binary_response(self):
        for x_name, expected in LOAN_ON_TIME_TAUS.items():
            table = loan_tables("OnTime")[x_name]
            assert goodman_kruskal_tau(table) == pytest.approx(
                expected, abs=5e-5
            )

    def test_symmetric_weights_agree_on_swapped_fixture(self):
        ds = fixture_e5_without_e4()
        assert tau_for(ds, "Y", ["X1"], "gk") == pytest.approx(
            13 / 48, abs=1e-12
        )
        for scheme in ("gk", "equal", "invprob"):
            t1 = tau_for(ds, "Y", ["X1"], scheme)
            t2 = tau_for(ds, "Y", ["X2"], scheme)
            assert abs(t1 - t2) <= 1e-12

    def test_dimension_mismatch(self):
        table = ContingencyTable([[1.0, 2.0], [3.0, 4.0]])
        v = association_vector(table)
        with pytest.raises(DataError):
            weighted_tau(v, equal_weights(3))


class TestGoodmanKruskalTau:
    def test_independence_zero(self):
        mass = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        assert goodman_kruskal_tau(ContingencyTable(mass)) <= 1e-15

    def test_equals_weighted_route(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mass = rng.integers(0, 10, size=(4, 3)).astype(float)
            if (mass.sum(axis=0) == 0).any() or (mass.sum(axis=1) == 0).any():
                continue
            p = mass.sum(axis=0) / mass.sum()
            if 1.0 - np.sum(p * p) <= 0:
                continue
            table = ContingencyTable(mass)
            direct = goodman_kruskal_tau(table)
            v = association_vector(table)
            routed = weighted_tau(v, goodman_kruskal_weights(v.stats()))
            assert abs(direct - routed) <= 1e-12

    def test_point_mass_rejected(self):
        with pytest.raises(DataError):
            goodman_kruskal_tau(ContingencyTable([[3.0], [2.0]]))

    def test_point_mass_rejected_despite_rounding(self):
        # the one level of positive mass sums to the total only within an
        # ulp, so 1 - sum p^2 is not 0
        table = ContingencyTable([[0.7, 0.0], [3.0, 0.0], [1.0, 0.0],
                                  [0.1, 0.0]])
        with pytest.warns(DroppedLevelsWarning):
            with pytest.raises(DataError, match="point mass"):
                goodman_kruskal_tau(table)


class TestWeightSchemes:
    def test_symmetric_binary(self):
        stats = MarginalStats.from_probabilities([0.5, 0.5])
        for builder in (goodman_kruskal_weights, inverse_probability_weights):
            assert builder(stats).weights == pytest.approx([0.5, 0.5])
        assert equal_weights(2).weights == pytest.approx([0.5, 0.5])

    def test_variation_weights_direct_substitution(self):
        stats = MarginalStats.from_probabilities([0.4, 0.4, 0.2])
        w = goodman_kruskal_weights(stats)
        assert w.weights == pytest.approx([0.375, 0.375, 0.25], abs=1e-12)

    def test_inverse_probability_weights(self):
        stats = MarginalStats.from_probabilities([0.6875, 0.2531, 0.0594])
        w = inverse_probability_weights(stats)
        raw = 1.0 / stats.p
        assert w.weights == pytest.approx(raw / raw.sum(), abs=1e-12)
        assert w.weights == pytest.approx((0.0654, 0.1777, 0.7570), abs=5e-4)

    def test_zero_probability_rejected_for_invprob(self):
        stats = MarginalStats(
            p=np.array([0.5, 0.5, 0.0]), gini_variation=0.5
        )
        with pytest.raises(DataError):
            inverse_probability_weights(stats)

    def test_unknown_scheme(self):
        stats = MarginalStats.from_probabilities([0.5, 0.5])
        with pytest.raises(DataError):
            resolve_weights("zipf", stats)

    def test_unknown_scheme_is_refused_before_dropping_levels(self):
        # level "b" has zero mass, so a known scheme would warn first
        mass = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
        ds = CategoricalDataset(
            [VariableMeta("Y", ("a", "b", "c")), VariableMeta("X", ("p", "q"))],
            [np.array([0, 2, 0]), np.array([0, 0, 1])],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="unknown weight scheme 'zipf'"):
                _tau(mass, "zipf", "Y", ("a", "b", "c"))
            with pytest.raises(DataError, match="unknown weight scheme 'zipf'"):
                tau_for(ds, "Y", ["X"], "zipf")

    def test_one_level_response_is_a_data_error(self):
        # the only observed level has marginal 1, so no level is left to
        # weight: a DataError, not numpy's error on an empty reduction
        table = ContingencyTable([[1.0, 0.0], [1.0, 0.0]])
        with pytest.warns(DroppedLevelsWarning):
            vector = association_vector(table)
        assert vector.size == 0
        ds = from_scenarios([(("a", "p"), 1.0), (("a", "q"), 1.0)], ["Y", "X"])
        for scheme in ("gk", "equal", "invprob"):
            with pytest.raises(DataError):
                resolve_weights(scheme, vector.stats())
            with pytest.raises(DataError):
                tau_for(ds, "Y", ["X"], scheme)


class TestDerivedRegularity:
    """A weight vector is regular exactly when every weight is positive;
    nothing else can say so."""

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_regular_iff_every_weight_is_positive(self, raw):
        raw = np.array(raw)
        builders = [lambda: equal_weights(len(raw)),
                    lambda: WeightVector.from_raw(raw)]
        if raw.sum() > 0:
            p = raw / raw.sum()
            builders.append(lambda: WeightVector(p))
            builders += [
                lambda s=scheme: resolve_weights(
                    s, MarginalStats.from_probabilities(p))
                for scheme in ("gk", "equal", "invprob")
            ]
        for build in builders:
            try:
                vector = build()
            except DataError:
                continue
            assert vector.regular is bool(vector.weights.min() > 0)

    def test_regularity_is_not_an_argument(self):
        with pytest.raises(TypeError):
            WeightVector(np.array([0.5, 0.5]), True)
        assert not WeightVector(np.array([1.0, 0.0])).regular

    def test_supervised_selection_refuses_a_zero_weight(self):
        ds = generate_flu(FluScenarioConfig(n=2000, seed=1))
        config = SelectionConfig(weights=WeightVector(np.array([1.0, 0, 0])))
        with pytest.raises(DataError, match="requires a regular weight"):
            select_supervised(ds, "Y", config=config)

    def test_perfect_prediction_check_warns_on_a_zero_weight(self):
        ds = generate_flu(FluScenarioConfig(n=2000, seed=1))
        level = EquivalenceLevel(
            "E2", alpha=WeightVector(np.array([1.0, 0.0, 0.0])))
        with pytest.warns(UserWarning, match="non-regular weight vector"):
            check(ds, "X1", "X2", "Y", level)


class TestWeightVectorValue:
    """Weight vectors compare and hash by their weights, so the frozen
    configurations that hold one compare and hash too."""

    def test_equal_weights_give_equal_vectors(self):
        a = WeightVector(np.array([0.5, 0.5]))
        b = WeightVector.from_raw(np.array([2.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != WeightVector(np.array([0.25, 0.75]))
        assert a != WeightVector(np.array([1 / 3, 1 / 3, 1 / 3]))
        assert a != "equal"
        assert len({a, b, equal_weights(2)}) == 1

    def test_equivalence_levels_holding_vectors_compare(self):
        a = EquivalenceLevel("E5", alpha=WeightVector(np.array([0.5, 0.5])))
        b = EquivalenceLevel("E5", alpha=equal_weights(2))
        assert a == b and hash(a) == hash(b)
        assert a != EquivalenceLevel("E5", alpha="equal")
        assert a != EquivalenceLevel(
            "E5", alpha=WeightVector(np.array([1.0, 0.0])))

    def test_selection_configs_holding_vectors_compare(self):
        a = SelectionConfig(weights=WeightVector(np.array([0.2, 0.8])))
        b = SelectionConfig(
            weights=WeightVector.from_raw(np.array([1.0, 4.0])))
        assert a == b and hash(a) == hash(b)
        assert a != SelectionConfig(weights=equal_weights(2))


def test_invprob_overflow_is_refused_without_a_numpy_warning():
    # 1 / 1e-310 overflows; the refusal is the only report of it
    ds = from_scenarios([(("a", "p"), 1e-310), (("b", "q"), 1.0),
                         (("b", "p"), 1.0)], names=["Y", "X"])
    stats = MarginalStats.from_probabilities(np.array([1e-310, 1.0 - 1e-310]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="weights must be finite"):
            tau_for(ds, "Y", "X", "invprob")
        with pytest.raises(DataError, match="weights must be finite"):
            resolve_weights("invprob", stats)


class TestExpectedConcentration:
    def test_uniform_and_point_mass(self):
        ds_uniform = from_scenarios([((str(i),), 1.0) for i in range(5)])
        assert expected_concentration(ds_uniform, [0]) == pytest.approx(
            1 / 5, abs=1e-15
        )
        ds_point = from_scenarios([(("a",), 9.0)])
        assert expected_concentration(ds_point, [0]) == pytest.approx(1.0)

    def test_swapped_fixture_single_variable(self):
        ds = fixture_e5_without_e4()
        # squared marginals of the first variable: .36+.01+.01+.04
        assert expected_concentration(ds, ["X1"]) == pytest.approx(
            0.42, abs=1e-12
        )

    def test_matches_bruteforce(self):
        ds = fixture_e5_without_e4()
        rows = list(zip(*[c.tolist() for c in ds.codes]))
        ref = oracles.concentration_from_rows(rows, ds.mass.tolist(), [1, 2])
        assert expected_concentration(ds, ["X1", "X2"]) == pytest.approx(
            ref, abs=1e-15
        )


def rare_level_tables(seed=5, n=300):
    """Count tables with k <= 200 rows, s <= 12 levels and counts below
    1e6, one level of counts 0-2: a dominant level for s = 2."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k, s = rng.integers(1, 201), rng.integers(2, 13)
        mass = rng.integers(0, 10**6, (k, s)).astype(float)
        mass[:, rng.integers(s)] = rng.integers(0, 3, k)
        if np.count_nonzero(mass.sum(axis=0)) >= 2:
            yield mass


def table_dataset(mass):
    """Dataset of rows ``(X = i, Y = s)`` with mass ``mass[i, s]``."""
    k, s = mass.shape
    return CategoricalDataset(
        [VariableMeta("X", tuple(f"x{i}" for i in range(k))),
         VariableMeta("Y", tuple(f"y{j}" for j in range(s)))],
        [np.repeat(np.arange(k), s), np.tile(np.arange(s), k)],
        mass.ravel(),
    )


class TestGkWeightsWithADominantLevel:
    # with 1 - sum(p^2) near 4e-6, p (1 - p) / (1 - sum(p^2)) sums to 1
    # only to about 1e-10: rounding of the division, not bad weights

    @staticmethod
    def probes():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedLevelsWarning)
            for mass in rare_level_tables():
                yield mass, float(oracles.exact_gk_tau(mass.tolist()))

    def test_tau_core_and_tau_for(self):
        for mass, exact in self.probes():
            labels = [str(j) for j in range(mass.shape[1])]
            assert abs(_tau(mass, "gk", "Y", labels) - exact) <= 1e-9
            assert abs(tau_for(table_dataset(mass), "Y", "X") - exact) <= 1e-9

    def test_resolve_weights(self):
        beyond_fixed = 0
        for mass, _ in self.probes():
            stats = marginal_stats(ContingencyTable(mass))
            alpha = resolve_weights("gk", stats)
            assert np.array_equal(
                alpha.weights, goodman_kruskal_weights(stats).weights
            )
            if abs(alpha.weights.sum() - 1.0) > 1e-12:
                beyond_fixed += 1
                # a user-built vector keeps the fixed check
                with pytest.raises(DataError, match="within 1e-12"):
                    WeightVector(weights=alpha.weights)
        assert beyond_fixed > 0

    def test_select_supervised(self):
        for mass, exact in self.probes():
            result = select_supervised(table_dataset(mass), "Y")
            if result.basis:
                assert abs(result.final_value - exact) <= 1e-9


def test_marginal_stats_from_table():
    table = loan_tables("Risk")["OnTime"]
    stats = marginal_stats(table)
    assert stats.n_levels == 3
    assert stats.gini_variation == pytest.approx(
        1.0 - np.sum(table.y_probabilities() ** 2), abs=1e-15
    )

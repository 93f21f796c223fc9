import hashlib

import numpy as np
import pytest

from nomassoc import (
    FluScenarioConfig,
    contingency,
    flu_population_distribution,
    flu_population_tables,
    generate_flu,
    goodman_kruskal_tau,
    tau_for,
)

from expected_values import (
    SCREENING_COLUMNS,
    SCREENING_MARGINAL,
    SCREENING_PUBLISHED,
)
import oracles

SEED = 8  # pinned: the sampled grid of this draw sits within 0.01 of the
# published 100,000-sample figures for every column and scheme


@pytest.fixture(scope="module")
def sample_100k():
    return generate_flu(FluScenarioConfig(n=100_000, seed=SEED))


class TestGenerate:
    def test_columns_and_levels(self, sample_100k):
        assert sample_100k.names == ("Y", "X1", "X2", "R3", "R4", "S5")
        assert sample_100k.variable("Y").levels == ("0", "1", "2")
        assert sample_100k.n_rows == 100_000

    def test_empirical_marginals(self, sample_100k):
        ds = sample_100k
        y = ds.codes[0]
        p = np.bincount(y, minlength=3) / ds.n_rows
        assert p[2] == pytest.approx(0.0594, abs=0.003)
        assert p[0] == pytest.approx(SCREENING_MARGINAL[0], abs=0.005)
        s5 = ds.codes[ds.index_of("S5")]
        assert s5.mean() == pytest.approx(0.05, abs=0.003)

    def test_seed_determinism(self):
        a = generate_flu(FluScenarioConfig(n=500, seed=3))
        b = generate_flu(FluScenarioConfig(n=500, seed=3))
        assert all(np.array_equal(x, y) for x, y in zip(a.codes, b.codes))

    def test_whole_float_count_is_its_int(self):
        a = generate_flu(FluScenarioConfig(n=1e3, seed=3))
        b = generate_flu(FluScenarioConfig(n=1000, seed=3))
        assert a.n_rows == 1000
        assert all(np.array_equal(x, y) for x, y in zip(a.codes, b.codes))

    @pytest.mark.parametrize("seed, one_sided, digest", [
        (1, True, "9023bdf0ab3d04a4709f8ddfa15edd19cb27704ab682cf4c783333cee2fb3c76"),
        (1, False, "f1e30d8e5f379890138b48a25897873d79a4ce660970f8e114d887846eaeed66"),
        (8, True, "4b21543f1db200cc9b53c4101e9779e7af92102edf719ec7142e3ec28ddd70e4"),
        (8, False, "d2d8545c42f2203d1fb8a0b544a9233d5e22eb2d1a187c37003d12a488adeab2"),
    ])
    def test_codes_of_fixed_seeds_are_unchanged(self, seed, one_sided, digest):
        # SHA-256 of the little-endian int64 codes, column after column
        ds = generate_flu(
            FluScenarioConfig(n=5000, seed=seed, one_sided_noise=one_sided)
        )
        raw = np.stack(ds.codes).astype("<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_one_sided_noise_never_corrupts_negatives(self):
        ds = generate_flu(FluScenarioConfig(n=20_000, seed=1))
        x1 = ds.codes[ds.index_of("X1")]
        r3 = ds.codes[ds.index_of("R3")]
        assert not np.any(r3[x1 == 0])
        sym = generate_flu(
            FluScenarioConfig(n=20_000, seed=1, one_sided_noise=False)
        )
        x1s = sym.codes[sym.index_of("X1")]
        r3s = sym.codes[sym.index_of("R3")]
        assert np.any(r3s[x1s == 0])

    def test_positive_copy_rate(self, sample_100k):
        ds = sample_100k
        x1 = ds.codes[ds.index_of("X1")]
        r3 = ds.codes[ds.index_of("R3")]
        rate = r3[x1 == 1].mean()
        assert rate == pytest.approx(0.90, abs=0.01)


class TestPopulation:
    def test_total_mass_and_support(self):
        pop = flu_population_distribution()
        assert pop.total_mass == pytest.approx(1.0, abs=1e-12)
        # one-sided noise: R3=1 requires X1=1, S5=1 requires X1=X2=1
        r3 = pop.codes[pop.index_of("R3")]
        x1 = pop.codes[pop.index_of("X1")]
        assert not np.any(r3[pop.mass > 0] & (1 - x1[pop.mass > 0]))

    def test_marginal_is_exact(self):
        tables = flu_population_tables()
        assert tables["X1"].y_probabilities() == pytest.approx(
            SCREENING_MARGINAL, abs=1e-12
        )

    def test_population_matches_enumeration_oracle(self):
        pop = flu_population_distribution()
        for name, cols in SCREENING_COLUMNS.items():
            for scheme in ("gk", "equal", "invprob"):
                lib = tau_for(pop, "Y", list(cols), scheme)
                ref = oracles.screening_tau(cols, scheme)
                assert lib == pytest.approx(ref, abs=1e-12), (name, scheme)

    def test_population_near_published_sample_grid(self):
        # the published grid is a single 100,000-sample draw; the exact
        # population values sit within sampling distance of it
        pop = flu_population_distribution()
        for scheme, row in SCREENING_PUBLISHED.items():
            for name, expected in row.items():
                value = tau_for(
                    pop, "Y", list(SCREENING_COLUMNS[name]), scheme
                )
                assert value == pytest.approx(expected, abs=0.01), (
                    scheme, name,
                )

    def test_population_tables_match_distribution(self):
        pop = flu_population_distribution()
        tables = flu_population_tables()
        direct = contingency(pop, ("X1", "X2"), "Y")
        assert np.allclose(
            tables["X1+X2"].mass, direct.mass, atol=1e-15
        )

    def test_noise_mode_calibration(self):
        # the one-sided mode reproduces the published R3 value; the
        # symmetric mode is far off -- this pins the default
        one_sided = goodman_kruskal_tau(
            contingency(flu_population_distribution(), "R3", "Y")
        )
        symmetric = goodman_kruskal_tau(
            contingency(
                flu_population_distribution(one_sided_noise=False), "R3", "Y"
            )
        )
        published = SCREENING_PUBLISHED["gk"]["R3"]
        assert abs(one_sided - published) < 0.005
        assert abs(symmetric - published) > 0.05


class TestSampledGrid:
    def test_sampled_tau_close_to_population(self, sample_100k):
        pop = flu_population_distribution()
        for name, cols in SCREENING_COLUMNS.items():
            sampled = tau_for(sample_100k, "Y", list(cols), "gk")
            exact = tau_for(pop, "Y", list(cols), "gk")
            assert sampled == pytest.approx(exact, abs=0.01), name

    def test_sampled_grid_matches_published(self, sample_100k):
        for scheme, row in SCREENING_PUBLISHED.items():
            for name, expected in row.items():
                value = tau_for(
                    sample_100k, "Y", list(SCREENING_COLUMNS[name]), scheme
                )
                assert value == pytest.approx(expected, abs=0.01), (
                    scheme, name,
                )

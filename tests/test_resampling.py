import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nomassoc import (
    BootstrapSummary,
    CategoricalDataset,
    DataError,
    DroppedLevelsWarning,
    FluScenarioConfig,
    VariableMeta,
    WeightVector,
    bootstrap,
    flu_population_distribution,
    from_scenarios,
    generate_flu,
    make_reduction_statistic,
    reduction_statistic,
    tau_for,
)
from nomassoc import dataset, resampling

FULL = ("X1", "X2", "R3", "R4", "S5")


@pytest.fixture(scope="module")
def screening_500():
    return generate_flu(FluScenarioConfig(n=500, seed=11))


class TestBootstrap:
    def test_constant_statistic_collapses_interval(self, screening_500):
        summary = bootstrap(
            screening_500, lambda ds: 7.5, iterations=50, sample_size=100,
            seed=0, stratify_by="Y",
        )
        assert summary.ci_low == summary.ci_high == summary.mean == 7.5

    def test_seed_determinism(self, screening_500):
        stat = make_reduction_statistic("Y", ["X1", "X2"], FULL)
        kwargs = dict(iterations=100, sample_size=300, seed=9,
                      stratify_by="Y")
        s1 = bootstrap(screening_500, stat, **kwargs)
        s2 = bootstrap(screening_500, stat, **kwargs)
        assert s1 == s2
        s3 = bootstrap(screening_500, stat, iterations=100, sample_size=300,
                       seed=10, stratify_by="Y")
        assert s1.mean != s3.mean

    def test_stratum_proportions_preserved(self, screening_500):
        ds = screening_500
        y = ds.codes[0]
        observed_props = np.bincount(y, minlength=3) / ds.n_rows
        sizes = []

        def spy(sample):
            sizes.append(np.bincount(sample.codes[0], minlength=3))
            return 0.0

        bootstrap(ds, spy, iterations=20, sample_size=137, seed=4,
                  stratify_by="Y")
        draws = [c for c in sizes if c.sum() == 137]  # last call is the
        # point estimate on the full dataset
        assert len(draws) == 20
        for counts in draws:
            assert np.max(np.abs(counts - 137 * observed_props)) <= 1.0

    def test_failure_budget(self, screening_500):
        calls = {"n": 0}

        def flaky(ds):
            calls["n"] += 1
            raise DataError("always broken")

        with pytest.raises(DataError, match="failed"):
            bootstrap(screening_500, flaky, iterations=20, sample_size=50,
                      seed=1, stratify_by="Y")
        # each failing iteration is retried exactly once
        assert calls["n"] == 40

    def test_resample_with_one_response_level_is_a_data_error(self):
        # unstratified draws of 3 rows often hold one level of a balanced
        # binary Y; each such resample fails as a data error and is
        # redrawn, so the run ends on the failure budget
        rng = np.random.default_rng(3)
        ds = CategoricalDataset(
            [VariableMeta("Y", ("a", "b")), VariableMeta("X1", ("p", "q")),
             VariableMeta("X2", ("r", "s", "t"))],
            [np.repeat([0, 1], 250), rng.integers(0, 2, 500),
             rng.integers(0, 3, 500)],
        )
        stat = make_reduction_statistic("Y", ["X1"], ["X1", "X2"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedLevelsWarning)
            with pytest.raises(DataError, match="iterations failed"):
                bootstrap(ds, stat, iterations=200, sample_size=3, seed=0)

    @pytest.mark.parametrize("subset, full, weights, one_level, message", [
        (["X1"], ["X2", "R3"], "gk", False, "subset must be contained"),
        (["X1"], ["X1", "Nope"], "gk", False, "unknown variable 'Nope'"),
        (["X1"], ["X1", "Y"], "gk", False, "response 'Y'"),
        (["Y"], FULL + ("Y",), "gk", False, "response 'Y'"),
        ([], FULL, "gk", False, "at least one variable"),
        (["X1"], FULL, WeightVector.from_raw([1.0, 2.0]), False,
         "weight vector has 2 components, response has 3 levels"),
        (["X1"], FULL, "gk", True, "the response has one level"),
    ])
    def test_misconfigured_statistic_fails_before_drawing(
        self, screening_500, subset, full, weights, one_level, message
    ):
        ds = screening_500
        if one_level:  # the rows whose Y is its first level
            ds = ds.take(np.flatnonzero(ds.codes[ds.index_of("Y")] == 0))
        stat = make_reduction_statistic("Y", subset, full, weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a draw would warn first
            with pytest.raises(DataError, match=message) as err:
                bootstrap(ds, stat, iterations=50, sample_size=100,
                          seed=0, stratify_by="Y")
        assert "iterations failed" not in str(err.value)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedLevelsWarning)
            with pytest.raises(DataError, match=message):
                stat(ds)

    def test_whole_float_counts_are_their_ints(self, screening_500):
        stat = make_reduction_statistic("Y", ["X1", "X2"], FULL)
        kwargs = dict(seed=5, stratify_by="Y")
        floats = bootstrap(screening_500, stat, iterations=20.0,
                           sample_size=100.0, **kwargs)
        ints = bootstrap(screening_500, stat, iterations=20, sample_size=100,
                         **kwargs)
        assert floats == ints
        assert type(floats.sample_size) is int

    def test_weighted_dataset_rejected(self):
        ds = from_scenarios([(("a", "x"), 2.5), (("b", "y"), 1.0)])
        with pytest.raises(DataError, match="unit-mass"):
            bootstrap(ds, lambda d: 0.0, iterations=5, sample_size=3, seed=0)

    def test_interval_ordering_and_point_estimate(self, screening_500):
        stat = make_reduction_statistic("Y", ["X1"], FULL)
        s = bootstrap(screening_500, stat, iterations=200, sample_size=400,
                      seed=2, stratify_by="Y")
        assert s.ci_low <= s.ci_high
        assert s.point_estimate == pytest.approx(
            reduction_statistic(screening_500, "Y", ["X1"], FULL)
        )

    def test_coverage_sanity(self):
        # CI for a mean-like statistic should usually contain the truth
        rng = np.random.default_rng(0)
        hits = 0
        trials = 100
        for t in range(trials):
            values = rng.integers(0, 2, 400)
            ds = CategoricalDataset(
                [VariableMeta("B", ("0", "1"))], [np.asarray(values)]
            )

            def share_of_ones(d):
                idx = d.variable("B").levels.index("1")
                return float(np.mean(d.codes[0] == idx))

            s = bootstrap(ds, share_of_ones, iterations=200,
                          sample_size=400, seed=t, stratify_by=None)
            if s.ci_low - 1e-12 <= 0.5 <= s.ci_high + 1e-12:
                hits += 1
        assert hits >= 85


class TestReductionStatistic:
    def test_subset_equals_full(self, screening_500):
        assert reduction_statistic(
            screening_500, "Y", FULL, FULL
        ) == pytest.approx(100.0, abs=1e-9)

    def test_population_ratio(self):
        pop = flu_population_distribution()
        # the two tests carry all of the association in the population
        assert reduction_statistic(
            pop, "Y", ["X1", "X2"], FULL
        ) == pytest.approx(100.0, abs=1e-9)
        partial = reduction_statistic(pop, "Y", ["X1"], FULL)
        expected = 100.0 * tau_for(pop, "Y", ["X1"]) / tau_for(
            pop, "Y", list(FULL)
        )
        assert partial == pytest.approx(expected, abs=1e-12)
        assert partial == pytest.approx(46.53, abs=0.05)

    def test_never_exceeds_hundred(self, screening_500):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = rng.integers(1, len(FULL) + 1)
            subset = list(rng.choice(FULL, size=k, replace=False))
            value = reduction_statistic(screening_500, "Y", subset, FULL)
            assert value <= 100.0 + 1e-9

    def test_subset_containment_enforced(self, screening_500):
        with pytest.raises(DataError):
            reduction_statistic(screening_500, "Y", ["X1"], ["X2", "R3"])


def outcome_and_warnings(run):
    """``run()`` or its DataError as ``(type, message)``, with the
    ``(category, message)`` of every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except DataError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def row_oracle(response, subset, full, weights="gk"):
    """The reduction percentage on a row dataset, from the public
    ``tau_for``: the full set's tau first, and no reduction when it is 0."""
    def statistic(ds):
        denom = tau_for(ds, response, list(full), weights)
        if denom == 0:
            raise DataError(
                "association of the full set is zero; reduction undefined")
        return 100.0 * tau_for(ds, response, list(subset), weights) / denom

    return statistic


@st.composite
def weighted_reductions(draw, max_vars=5, max_levels=4, max_rows=25):
    """A dataset with zero, fractional and integer row masses and
    unobserved levels, a subset and full set of variables other than the
    response ``V0``, and a scheme name, an unknown one, or explicit
    weights (whose size need not fit the response)."""
    n_vars = draw(st.integers(2, max_vars))
    n_rows = draw(st.integers(1, max_rows))
    cards = draw(st.lists(st.integers(1, max_levels), min_size=n_vars,
                          max_size=n_vars))
    columns = [
        draw(st.lists(st.integers(0, card - 1), min_size=n_rows,
                      max_size=n_rows))
        for card in cards
    ]
    masses = draw(st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 2.5, 4.0]),
                           min_size=n_rows, max_size=n_rows))
    masses[0] = masses[0] or 0.5  # total mass must be positive
    metas = [VariableMeta(f"V{v}", tuple(str(c) for c in range(card)))
             for v, card in enumerate(cards)]
    ds = CategoricalDataset(metas, [np.asarray(c) for c in columns],
                            np.asarray(masses))
    full = draw(st.lists(st.integers(1, n_vars - 1), min_size=1, unique=True))
    subset = draw(st.lists(st.sampled_from(full), min_size=1, unique=True))
    weights = draw(st.sampled_from(["gk", "equal", "invprob", "zipf"])
                   | st.integers(1, 4).map(
                       lambda k: WeightVector.from_raw(np.arange(1.0, k + 1.0))))
    return ds, subset, full, weights


@given(weighted_reductions())
@example((flu_population_distribution(), ["X1"], list(FULL), "gk"))
@settings(max_examples=300, deadline=None)
def test_reduction_statistic_equals_row_oracle(case):
    ds, subset, full, weights = case
    value = outcome_and_warnings(
        lambda: reduction_statistic(ds, 0, subset, full, weights))
    expected = outcome_and_warnings(
        lambda: row_oracle(0, subset, full, weights)(ds))
    assert value == expected
    if weights == "zipf":  # refused before any level is dropped
        assert value[0][1].startswith("unknown weight scheme")


def test_row_subset_of_zero_mass_is_a_data_error():
    # a row subset is not re-validated, so its total mass may be 0
    ds = CategoricalDataset(
        [VariableMeta("Y", ("a", "b")), VariableMeta("X", ("p", "q"))],
        [np.array([0, 1, 1]), np.array([0, 0, 1])], np.array([0.0, 1.0, 2.0]),
    ).take(np.array([0, 0]))
    value = outcome_and_warnings(
        lambda: reduction_statistic(ds, "Y", ["X"], ["X"]))
    assert value == outcome_and_warnings(
        lambda: row_oracle("Y", ["X"], ["X"])(ds))
    assert value == ((DataError, "contingency table is degenerate "
                      "(total mass 0)"), [])


class TestCellCounts:
    """A reduction statistic runs on cell counts; bootstrapping it must
    give exactly what bootstrapping a row oracle on row resamples gives."""

    @pytest.mark.parametrize("subset, full, weights, sample_size, strata, expect", [
        (["X1", "X2"], FULL, "gk", 100, "Y", "clean"),
        (FULL, FULL, "gk", 100, "Y", "clean"),
        (["X1", "X2"], FULL, "invprob", 60, "X1", "clean"),
        # unstratified draws of a few rows lose response levels, so they
        # warn, redraw and sometimes fail
        (["X1"], FULL, "gk", 8, None, "failures"),
        (["X1"], FULL, "equal", 10, None, "failures"),
        (["R3", "S5"], ["R3", "R4", "S5"], "invprob", 10, None, "failures"),
        (["X1"], FULL, WeightVector.from_raw([1.0, 2.0, 3.0]), 30, None,
         "failures"),
        (["X1"], FULL, WeightVector.from_raw([1.0, 2.0, 3.0]), 8, None,
         "aborts"),
    ])
    def test_summary_equals_row_resamples(
        self, screening_500, subset, full, weights, sample_size, strata, expect
    ):
        stat = make_reduction_statistic("Y", subset, full, weights)
        kwargs = dict(iterations=100, sample_size=sample_size, seed=3,
                      stratify_by=strata)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CategoricalDataset, "take", None)  # no row resamples
            cells = outcome_and_warnings(
                lambda: bootstrap(screening_500, stat, **kwargs))
        oracle = row_oracle("Y", subset, full, weights)
        rows = outcome_and_warnings(
            lambda: bootstrap(screening_500, oracle, **kwargs))
        assert cells == rows
        summary = cells[0]
        if expect == "aborts":
            assert summary[0] is DataError and "iterations failed" in summary[1]
        else:
            assert isinstance(summary, BootstrapSummary)
            assert (summary.failures > 0) == (expect == "failures")
        if strata is None:
            assert cells[1]  # dropped response levels were warned about

    def test_more_cells_than_drawn_rows(self):
        # about 1500 observed cells against 20 drawn rows: nearly every
        # drawn row is a cell of its own, and most cells go undrawn
        rng = np.random.default_rng(5)
        digits = tuple("0123456789")
        ds = CategoricalDataset(
            [VariableMeta("Y", ("a", "b"))]
            + [VariableMeta(f"V{j}", digits) for j in range(3)],
            [rng.integers(0, 2, 3000)]
            + [rng.integers(0, 10, 3000) for _ in range(3)],
        )
        stat = make_reduction_statistic("Y", ["V0"], ["V0", "V1", "V2"])
        kwargs = dict(iterations=30, sample_size=20, seed=2, stratify_by="Y")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CategoricalDataset, "take", None)  # no row resamples
            cells = outcome_and_warnings(lambda: bootstrap(ds, stat, **kwargs))
        oracle = row_oracle("Y", ["V0"], ["V0", "V1", "V2"])
        rows = outcome_and_warnings(lambda: bootstrap(ds, oracle, **kwargs))
        assert cells == rows
        assert isinstance(cells[0], BootstrapSummary)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tables_of_many_drawn_cells(self, seed):
        # resamples of 200 rows from 5000 draw the cells in no particular
        # order; their tables must still list them as a composite does
        ds = generate_flu(FluScenarioConfig(n=5000, seed=seed))
        stat = make_reduction_statistic("Y", ["X1", "X2"], FULL)
        kwargs = dict(iterations=100, sample_size=200, seed=seed,
                      stratify_by="Y")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CategoricalDataset, "take", None)  # no row resamples
            cells = outcome_and_warnings(lambda: bootstrap(ds, stat, **kwargs))
        oracle = row_oracle("Y", ["X1", "X2"], FULL)
        rows = outcome_and_warnings(lambda: bootstrap(ds, oracle, **kwargs))
        assert cells == rows

    @pytest.mark.parametrize("iterations, seed, redrawn, failed", [
        # blocks of 10 iterations: 1, block - 1, block, block + 1 and
        # 2 * block + 3 iterations, redrawn on a block's first iteration
        # (0) and on its last (9), with one failure, then with the two
        # failures that abort 23 iterations
        (1, 33, [0], []),
        (9, 33, [0, 4, 8], [4]),
        (10, 33, [0, 4, 8, 9], [4]),
        (11, 33, [0, 4, 8, 9], [4]),
        (23, 33, [0, 4, 8, 9], [4]),
        (23, 1, [2, 6, 11, 18], [2, 18]),
    ])
    def test_block_boundaries_equal_row_resamples(
        self, screening_500, iterations, seed, redrawn, failed
    ):
        stat = make_reduction_statistic("Y", ["X1"], FULL)
        kwargs = dict(iterations=iterations, sample_size=6, seed=seed)
        blocks = []
        # blocks of 10 resamples of 6, then of 7, which divides no count
        # here, so the seeds are spawned in other runs; no row resamples
        for block_rows in (60, 42):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(resampling, "_BLOCK_ROWS", block_rows)
                mp.setattr(CategoricalDataset, "take", None)
                blocks.append(outcome_and_warnings(
                    lambda: bootstrap(screening_500, stat, **kwargs)))
        cells = blocks[0]
        assert blocks[1] == cells
        oracle = row_oracle("Y", ["X1"], FULL)
        raised = []

        def recording(ds):
            try:
                value = oracle(ds)
            except DataError:
                raised.append(True)
                raise
            raised.append(False)
            return value

        rows = outcome_and_warnings(
            lambda: bootstrap(screening_500, recording, **kwargs))
        assert cells == rows
        assert cells[1]  # dropped response levels were warned about
        attempts = iter(raised)  # a raising first draw is redrawn once
        first, second = [], []
        for it in range(iterations):
            if next(attempts):
                first.append(it)
                if next(attempts):
                    second.append(it)
        assert (first, second) == (redrawn, failed)
        if len(failed) > 0.05 * iterations:
            assert cells[0] == (DataError, f"{len(failed)}/{iterations} "
                                "bootstrap iterations failed; the statistic "
                                "is unstable at this sample size")
        else:
            assert cells[0].failures == len(failed)

    def test_wide_block_key_is_ranked(self):
        # about 14k observed cells of the full set: a block of 131
        # resamples of 500 rows spans 1.85M cells, so its count ranks the
        # drawn cells instead of counting a dense block x cells table
        rng = np.random.default_rng(7)
        cards = (2, 30, 30, 30)
        ds = CategoricalDataset(
            [VariableMeta(f"V{v}", tuple(map(str, range(card))))
             for v, card in enumerate(cards)],
            [rng.integers(0, card, 20000) for card in cards],
        )
        full_cells = dataset._joint_codes(ds, [1, 2, 3])[1]
        assert full_cells >= 10_000
        stat = make_reduction_statistic("V0", ["V1"], ["V1", "V2", "V3"])
        kwargs = dict(iterations=300, sample_size=500, seed=4,
                      stratify_by="V0")
        count, blocks = resampling._count, []

        def measured(key, slots, target, n_target, weights):
            tracemalloc.start()
            try:
                table, keys = count(key, slots, target, n_target, weights)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            resamples = len(key) // 500
            if resamples > 1 and slots == full_cells * resamples:
                blocks.append((len(key), slots, n_target, peak, len(table)))
            return table, keys

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resampling, "_count", measured)
            mp.setattr(CategoricalDataset, "take", None)  # no row resamples
            cells = outcome_and_warnings(lambda: bootstrap(ds, stat, **kwargs))
        oracle = row_oracle("V0", ["V1"], ["V1", "V2", "V3"])
        rows = outcome_and_warnings(lambda: bootstrap(ds, oracle, **kwargs))
        assert cells == rows
        assert isinstance(cells[0], BootstrapSummary)
        # 300 iterations: blocks of 131, 131 and 38 resamples
        assert [b[0] for b in blocks] == [131 * 500, 131 * 500, 38 * 500]
        for drawn, slots, n_target, peak, table_rows in blocks:
            assert not dataset._dense(slots * n_target, drawn)  # ranked,
            assert not dataset._dense(slots, drawn)  # by a sort
            assert table_rows <= drawn
            # under a quarter of a dense block x cells table's 8 bytes a slot
            assert peak < 2 * slots * n_target

    def test_unknown_weight_scheme_fails_before_drawing(self, screening_500):
        stat = make_reduction_statistic("Y", ["X1"], FULL, "zipf")
        with pytest.raises(DataError, match="unknown weight scheme"):
            bootstrap(screening_500, stat, iterations=50, sample_size=100,
                      seed=0, stratify_by="Y")


@st.composite
def stratified_draws(draw):
    """Stratum codes over up to 4 levels, some of them unobserved, with a
    sample size, an iteration count, a block size, a seed and the calls
    of the statistic that raise."""
    levels = draw(st.integers(1, 4))
    strata = draw(st.lists(st.integers(0, levels - 1), min_size=1,
                           max_size=30))
    iterations = draw(st.integers(1, 12))
    return (
        strata, levels, draw(st.booleans()), draw(st.integers(1, 20)),
        iterations, draw(st.integers(1, 40)), draw(st.integers(0, 2**32)),
        draw(st.sets(st.integers(0, 2 * iterations))),
    )


@given(stratified_draws())
@example(  # level 1 unobserved, levels 2 and 3 apportioned 0 draws
    ([0] * 10 + [2, 3], 4, True, 2, 5, 4, 7, {1, 2}))
@example(([0, 1, 1, 0, 1], 2, False, 3, 6, 7, 3, {0, 4}))  # unstratified
@settings(max_examples=100, deadline=None)
def test_resamples_follow_one_call_per_stratum(case):
    """Each resample's rows, read back through a row-id variable, are those
    of one ``integers(0, len(rows), size)`` call per stratum with a draw,
    in stratum order, from the iteration's seed, and a redraw's are those
    of the seed's first spawn."""
    strata, levels, stratified, sample_size, iterations, block_rows, seed, \
        raising = case
    n = len(strata)
    ds = CategoricalDataset(
        [VariableMeta("id", tuple(map(str, range(n)))),
         VariableMeta("S", tuple(map(str, range(levels))))],
        [np.arange(n), strata],
    )
    codes = np.asarray(strata) if stratified else np.zeros(n, dtype=int)
    stratum_rows = [np.flatnonzero(codes == k) for k in range(levels)]
    stratum_rows = [rows for rows in stratum_rows if len(rows)]
    sizes = resampling._stratum_sizes(
        np.asarray([len(rows) for rows in stratum_rows]), sample_size)

    def oracle(child):
        rng = np.random.default_rng(child)
        return np.concatenate([
            rows[rng.integers(0, len(rows), size)]
            for rows, size in zip(stratum_rows, sizes) if size
        ])

    expected, failures = [], 0
    for child in np.random.SeedSequence(seed).spawn(iterations):
        expected.append(oracle(child))
        if len(expected) - 1 in raising:
            expected.append(oracle(child.spawn(1)[0]))
            failures += len(expected) - 1 in raising
    if failures <= 0.05 * iterations:  # the point estimate, on every row
        expected.append(np.arange(n))

    calls = []

    def spy(sample):
        calls.append(sample.codes[0])
        if len(calls) - 1 in raising:
            raise DataError("chosen to fail")
        return 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resampling, "_BLOCK_ROWS", block_rows)
        try:
            bootstrap(ds, spy, iterations=iterations, sample_size=sample_size,
                      seed=seed, stratify_by="S" if stratified else None)
        except DataError:
            pass
    assert [c.tolist() for c in calls] == [e.tolist() for e in expected]

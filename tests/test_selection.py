from itertools import combinations

import numpy as np
import pytest

from nomassoc import (
    CategoricalDataset,
    DataError,
    SelectionConfig,
    VariableMeta,
    expected_concentration,
    select_structural,
    select_supervised,
    tau_for,
    verify_basis,
)

from nomassoc import selection
import oracles


def dataset_from_columns(columns: dict[str, list[int]]) -> CategoricalDataset:
    metas, codes = [], []
    for name, values in columns.items():
        arr = np.asarray(values, dtype=np.int64)
        metas.append(
            VariableMeta(name, tuple(str(v) for v in range(arr.max() + 1)))
        )
        codes.append(arr)
    return CategoricalDataset(metas, codes)


def random_dataset(rng, n_vars=5, n_rows=60, with_structure=True):
    columns = {}
    base = rng.integers(0, 3, size=(n_rows, 2))
    columns["Y"] = (
        ((base[:, 0] + base[:, 1]) % 3).tolist()
        if with_structure
        else rng.integers(0, 3, n_rows).tolist()
    )
    columns["A"] = base[:, 0].tolist()
    columns["B"] = base[:, 1].tolist()
    for k in range(n_vars - 2):
        columns[f"N{k}"] = rng.integers(0, 3, n_rows).tolist()
    return dataset_from_columns(columns)


class TestSupervised:
    def test_copy_response_found(self):
        rng = np.random.default_rng(0)
        x1 = rng.integers(0, 3, 100)
        ds = dataset_from_columns({
            "Y": x1.tolist(),
            "X1": x1.tolist(),
            "noise1": rng.integers(0, 3, 100).tolist(),
            "noise2": rng.integers(0, 2, 100).tolist(),
        })
        result = select_supervised(ds, "Y", ["X1", "noise1", "noise2"],
                                   SelectionConfig(epsilon=1e-6))
        assert result.basis_names == ("X1",)
        assert result.final_value == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_candidate_resolved_to_earlier_index(self):
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 3, 200)
        noise = rng.integers(0, 2, 200)
        y = (x1 + (noise & (x1 > 1))) % 3  # partially dependent on X1
        ds = dataset_from_columns({
            "Y": y.tolist(),
            "X1": x1.tolist(),
            "X1_dup": x1.tolist(),
        })
        result = select_supervised(ds, "Y", ["X1", "X1_dup"])
        assert result.basis_names == ("X1",)

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        result = select_supervised(ds, "Y", None, SelectionConfig())
        values = [s.value for s in result.trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_max_cells_skip_recorded(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(0, 40, 80)  # high-cardinality candidate
        ds = dataset_from_columns({
            "Y": rng.integers(0, 2, 80).tolist(),
            "A": rng.integers(0, 2, 80).tolist(),
            "W": wide.tolist(),
        })
        config = SelectionConfig(max_cells=10)
        result = select_supervised(ds, "Y", ["A", "W"], config)
        assert ds.index_of("W") in result.skipped
        assert "W" not in result.basis_names

    def test_independent_response_gives_empty_basis(self):
        # Y carries no information: the first pick is removed again
        ds = dataset_from_columns({
            "Y": [0, 0, 1, 1] * 6,
            "A": [0, 1, 0, 1] * 6,
            "B": [0, 0, 1, 1, 1, 0, 0, 1] * 3,
        })
        assert tau_for(ds, "Y", ["A"]) <= 1e-12
        result = select_supervised(ds, "Y", ["A"])
        assert result.basis == ()
        assert result.final_value == 0.0
        assert result.removed != ()

    def test_response_not_a_candidate(self):
        ds = random_dataset(np.random.default_rng(5))
        with pytest.raises(DataError):
            select_supervised(ds, "Y", ["Y", "A"])
        with pytest.raises(DataError):
            select_supervised(ds, "Y", [])

    def test_greedy_matches_exhaustive_full_set(self):
        rng = np.random.default_rng(6)
        eps = 1e-9
        for trial in range(30):
            ds = random_dataset(rng, with_structure=bool(trial % 2))
            candidates = [n for n in ds.names if n != "Y"]
            result = select_supervised(ds, "Y", candidates,
                                       SelectionConfig(epsilon=eps))
            tau_full = tau_for(ds, "Y", candidates, "gk")
            assert result.final_value >= tau_full - len(candidates) * eps - 1e-9
            # exhaustive search cannot beat the full set
            best = max(
                tau_for(ds, "Y", list(sub), "gk")
                for r in range(1, len(candidates) + 1)
                for sub in combinations(candidates, r)
            )
            assert best <= tau_full + 1e-12


class TestStructural:
    def test_derived_variable_excluded(self):
        rng = np.random.default_rng(7)
        v1 = rng.integers(0, 2, 400)
        v2 = rng.integers(0, 3, 400)
        v3 = (v1 + v2) % 2  # lossy deterministic function of (V1, V2)
        ds = dataset_from_columns(
            {"V1": v1.tolist(), "V2": v2.tolist(), "V3": v3.tolist()}
        )
        result = select_structural(ds)
        assert set(result.basis_names) == {"V1", "V2"}
        report = verify_basis(ds, result.basis)
        assert report.achieves_full and report.irredundant

    def test_all_independent_all_kept(self):
        rng = np.random.default_rng(8)
        ds = dataset_from_columns({
            "A": rng.integers(0, 2, 500).tolist(),
            "B": rng.integers(0, 2, 500).tolist(),
            "C": rng.integers(0, 3, 500).tolist(),
        })
        result = select_structural(ds)
        assert set(result.basis_names) == {"A", "B", "C"}

    def test_relabelings_collapse_to_single_variable(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 4, 300)
        perm = np.array([2, 0, 3, 1])
        ds = dataset_from_columns({
            "A": a.tolist(),
            "B": perm[a].tolist(),   # relabelling of A
            "C": (a // 2).tolist(),  # coarsening of A
        })
        result = select_structural(ds)
        assert result.basis_names == ("A",)
        # verify determinism of the others via the report
        report = verify_basis(ds, ["A"])
        assert report.achieves_full and report.irredundant
        assert dict(report.determinism) == {0: True, 1: True, 2: True}

    def test_trace_is_nonincreasing(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng)
        result = select_structural(ds)
        values = [s.value for s in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_concentration_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng)
        rows = list(zip(*[c.tolist() for c in ds.codes]))
        for k in (1, 2, 3):
            ref = oracles.concentration_from_rows(
                rows, ds.mass.tolist(), list(range(k))
            )
            assert expected_concentration(ds, list(range(k))) == pytest.approx(
                ref, abs=1e-13
            )


class TestIncrementalBuild:
    """The forward phase carries the chosen set's codes across steps; every
    value it reports must equal a from-scratch build of the same set."""

    @staticmethod
    def dataset():
        rng = np.random.default_rng(16)
        n = 400
        columns = {f"V{j}": rng.integers(0, 2 + j % 3, n) for j in range(6)}
        # Y follows the highest-index variables, so they are chosen first
        # and the lower-index candidates sort before a chosen member
        y = (columns["V5"] + columns["V4"] * (rng.random(n) < 0.7)) % 3
        mass = rng.choice([0.0, 1.0, 2.0], n, p=[0.1, 0.6, 0.3])
        metas = [VariableMeta("Y", ("0", "1", "2"))] + [
            VariableMeta(name, tuple(str(k) for k in range(c.max() + 1)))
            for name, c in columns.items()
        ]
        return CategoricalDataset(metas, [y] + list(columns.values()), mass)

    @staticmethod
    def assert_trace_matches(ds, result, score):
        chosen: list[int] = []
        below = False
        for step in result.trace:
            for cand, value in step.scores:
                assert value == selection._measure(ds, score, chosen + [cand])[1]
                below = below or any(cand < c for c in chosen)
            chosen.append(step.chosen)
            assert step.value == selection._measure(ds, score, chosen)[1]
        assert below, "no candidate sorted before a chosen member"

    def test_supervised(self):
        ds = self.dataset()
        result = select_supervised(ds, "Y", config=SelectionConfig(epsilon=0.0))
        assert len(result.trace) >= 3
        alpha = selection._response_weights(ds, 0, "gk")
        self.assert_trace_matches(
            ds, result, selection._tau_score(ds, 0, alpha)
        )

    def test_structural(self):
        ds = self.dataset()
        result = select_structural(ds, config=SelectionConfig(epsilon=0.0))
        assert len(result.trace) >= 3
        self.assert_trace_matches(
            ds, result, selection._concentration_score(ds)
        )


class TestVerifyBasis:
    def test_selected_basis_verifies(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            ds = random_dataset(rng, with_structure=True)
            result = select_supervised(ds, "Y")
            if not result.basis:
                continue
            report = verify_basis(ds, result.basis, response="Y")
            assert report.kind == "association"
            assert report.achieves_full
            assert report.value == pytest.approx(result.final_value, abs=1e-12)

    def test_dropping_a_member_is_detected(self):
        rng = np.random.default_rng(13)
        base = rng.integers(0, 3, size=(200, 2))
        ds = dataset_from_columns({
            "Y": ((base[:, 0] + base[:, 1]) % 3).tolist(),
            "A": base[:, 0].tolist(),
            "B": base[:, 1].tolist(),
        })
        full = verify_basis(ds, ["A", "B"], response="Y")
        assert full.achieves_full
        partial = verify_basis(ds, ["A"], response="Y")
        assert not partial.achieves_full
        drops = dict(full.leave_one_out)
        assert all(
            full.full_value - v > 1e-9 for v in drops.values()
        )

    def test_structural_bases_have_equal_cardinality(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 4, 300)
        perm = np.array([1, 3, 0, 2])
        ds = dataset_from_columns({
            "A": a.tolist(),
            "B": perm[a].tolist(),
        })
        ra = verify_basis(ds, ["A"])
        rb = verify_basis(ds, ["B"])
        assert ra.achieves_full and rb.achieves_full
        assert ra.basis_cells == rb.basis_cells

    def test_empty_basis_rejected(self):
        ds = random_dataset(np.random.default_rng(15))
        with pytest.raises(DataError):
            verify_basis(ds, [])

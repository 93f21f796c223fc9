"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed, and
repeated by the harness), computes reference results for its output checks
in :meth:`prepare` (untimed), and lists the operations of one pass in
:meth:`tasks`.  A task returns its output; :meth:`check` returns a problem
description or ``None``; :meth:`canonical` renders an output exactly (floats
as hex bit patterns) for the run's digest.

:meth:`reference` is a fixed computation that uses numpy and the standard
library but no nomassoc code, shaped like the workload's dominant cost.  The
harness times it between passes: pass time divided by reference time cancels
the machine's speed swings (on a shared host, contention from other tenants
changes the speed of the same pass by up to 2x for minutes at a time) while
any change to nomassoc still moves the ratio in full.

All library calls go through module attributes (``nm.select_supervised``,
``cli.dispatch``) so the traced run's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np

import nomassoc as nm
from nomassoc import cli


def _hex(value) -> str:
    return float(value).hex()


def _canonical_selection(result) -> str:
    steps = ";".join(f"{s.chosen}:{_hex(s.value)}:{s.skipped}" for s in result.trace)
    return (
        f"basis={result.basis} value={_hex(result.final_value)} "
        f"removed={result.removed} skipped={result.skipped} "
        f"stop={result.terminated_by} trace={steps}"
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: ``(exit code, standard output)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv)
    return code, out.getvalue()


def _structured(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key: value for key, value in pairs}


def _write_csv(dataset, path) -> None:
    columns = [np.asarray(v.levels)[c] for v, c in zip(dataset.variables, dataset.codes)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.names)
        writer.writerows(zip(*columns))


class WideSelect:
    """About 200k rows x 30 candidates, almost every row a distinct tuple."""

    N_ROWS = 200_000
    CARDINALITIES = tuple(2 + j % 6 for j in range(30))  # fixed shape; values vary by seed
    PLANTED = (3, 10, 17)
    NOISE = 0.3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.N_ROWS
        codes = [rng.integers(0, card, n) for card in self.CARDINALITIES]
        # Y counts how many planted candidates sit in their upper half, so
        # each one is informative alone and the three determine Y jointly.
        y = sum((codes[j] * 2) // self.CARDINALITIES[j] for j in self.PLANTED)
        noisy = rng.random(n) < self.NOISE
        y = np.where(noisy, rng.integers(0, 4, n), y)
        variables = [nm.VariableMeta("Y", ("0", "1", "2", "3"))] + [
            nm.VariableMeta(f"V{j:02d}", tuple(str(k) for k in range(card)))
            for j, card in enumerate(self.CARDINALITIES)
        ]
        self.data = nm.CategoricalDataset(variables, [y] + codes)
        self.planted = {f"V{j:02d}" for j in self.PLANTED}

    def prepare(self) -> None:
        rng = np.random.default_rng(0)
        self._ref_keys = rng.integers(0, 7**4, self.N_ROWS)

    def reference(self) -> None:
        for _ in range(15):
            np.unique(self._ref_keys, return_inverse=True)

    def tasks(self):
        ds = self.data
        state = {}

        def supervised():
            state["supervised"] = nm.select_supervised(
                ds, "Y", config=nm.SelectionConfig(max_vars=4)
            )
            return state["supervised"]

        def structural():
            return nm.select_structural(ds, config=nm.SelectionConfig(max_vars=3))

        def verify():
            if "supervised" not in state:
                raise RuntimeError("no supervised basis to verify")
            return nm.verify_basis(ds, state["supervised"].basis, "Y")

        self._state = state
        return [
            ("select_supervised_s", supervised),
            ("select_structural_s", structural),
            ("verify_basis_s", verify),
        ]

    def check(self, task: str, out) -> str | None:
        ds = self.data
        if task == "select_supervised_s":
            if not self.planted <= set(out.basis_names):
                return f"planted {sorted(self.planted)} not in basis {out.basis_names}"
            tau = nm.goodman_kruskal_tau(nm.contingency(ds, list(out.basis), "Y"))
            if abs(out.final_value - tau) > 1e-12:
                return f"final_value {out.final_value!r} != tau {tau!r}"
        elif task == "select_structural_s":
            conc = nm.expected_concentration(ds, list(out.basis))
            if out.final_value != conc:
                return f"final_value {out.final_value!r} != concentration {conc!r}"
        elif out.value != self._state["supervised"].final_value:
            want = self._state["supervised"].final_value
            return f"verify value {out.value!r} != final_value {want!r}"
        return None

    def canonical(self, task: str, out) -> str:
        if task == "verify_basis_s":
            loo = ";".join(f"{v}:{_hex(x)}" for v, x in out.leave_one_out)
            return (
                f"value={_hex(out.value)} full={_hex(out.full_value)} "
                f"achieves={out.achieves_full} irredundant={out.irredundant} "
                f"cells={out.basis_cells} loo={loo}"
            )
        return _canonical_selection(out)


class FluCli:
    """The CLI on a simulated screening file with only a few dozen distinct rows."""

    N_ROWS = 300_000
    TRAIN_FRACTION = 0.7
    X1, X2 = "X1,X2", "R3,R4"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.flu = os.path.join(workdir, "flu.csv")
        self.train = os.path.join(workdir, "train.csv")
        self.test = os.path.join(workdir, "test.csv")

    def setup(self) -> None:
        code, text = _run_cli(
            ["simulate", "flu", "-n", str(self.N_ROWS), "--seed", str(self.seed),
             "-o", self.flu]
        )
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}: {text}")
        self.population = nm.generate_flu(
            nm.FluScenarioConfig(n=self.N_ROWS, seed=self.seed)
        )
        train, test = nm.split(self.population, self.TRAIN_FRACTION, self.seed)
        _write_csv(train, self.train)
        _write_csv(test, self.test)
        self.test_rows = test.n_rows

    def prepare(self) -> None:
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, (120_000, 6))
        self._ref_text = "".join(",".join(map(str, row)) + "\n" for row in rows.tolist())
        self._ref_keys = rng.integers(0, 26, self.N_ROWS)
        ds = self.population
        self.expected = {
            "select_supervised_s": {
                "basis": ",".join(nm.select_supervised(ds, "Y").basis_names)
            },
            "select_structural_s": {
                "basis": ",".join(nm.select_structural(ds).basis_names)
            },
            "predict_s": {"rows_scored": str(self.test_rows)},
            "equiv_s": {
                f"equivalent.{name}": str(holds).lower()
                for name, holds in nm.hierarchy_scan(
                    ds, self.X1.split(","), self.X2.split(","), "Y"
                )
            },
        }

    def reference(self) -> None:
        levels: list[dict[str, int]] = [{} for _ in range(6)]
        for record in csv.reader(io.StringIO(self._ref_text)):
            for level_index, label in zip(levels, record):
                level_index.setdefault(label, len(level_index))
        np.unique(self._ref_keys, return_inverse=True)

    def tasks(self):
        fmt = ["--format", "structured", "--precision", "17"]
        commands = {
            "select_supervised_s": ["select", "supervised", self.flu, "--response", "Y"],
            "select_structural_s": ["select", "structural", self.flu],
            "predict_s": ["predict", "--train", self.train, "--test", self.test,
                          "--response", "Y", "--given", "X1,X2",
                          "--seed", str(self.seed)],
            "equiv_s": ["equiv", self.flu, "--x1", self.X1, "--x2", self.X2,
                        "--response", "Y"],
        }
        return [(task, lambda argv=argv + fmt: _run_cli(argv))
                for task, argv in commands.items()]

    def check(self, task: str, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        got = _structured(text)
        for key, want in self.expected[task].items():
            if got.get(key) != want:
                return f"{key} = {got.get(key)!r}, expected {want!r}"
        return None

    def canonical(self, task: str, out) -> str:
        code, text = out
        return f"exit={code}\n{text}"


class BootSmall:
    """Stratified bootstrap: a thousand resamples of 500 rows each."""

    N_ROWS = 100_000
    ITERATIONS = 1000
    SAMPLE_SIZE = 500
    SUBSET = ["X1", "X2"]
    FULL = ["X1", "X2", "R3", "R4", "S5"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.data = nm.generate_flu(nm.FluScenarioConfig(n=self.N_ROWS, seed=self.seed))

    def prepare(self) -> None:
        self.point = nm.reduction_statistic(self.data, "Y", self.SUBSET, self.FULL)
        rng = np.random.default_rng(0)
        self._ref_codes = rng.integers(0, 3, (2, self.N_ROWS))

    def reference(self) -> None:
        rng = np.random.default_rng(0)
        x, y = self._ref_codes
        for _ in range(1_500):
            rows = rng.integers(0, self.N_ROWS, self.SAMPLE_SIZE)
            cells, inverse = np.unique(x[rows] * 3 + y[rows], return_inverse=True)
            np.bincount(inverse, minlength=len(cells))

    def tasks(self):
        def run():
            statistic = nm.make_reduction_statistic("Y", self.SUBSET, self.FULL)
            return nm.bootstrap(
                self.data, statistic, iterations=self.ITERATIONS,
                sample_size=self.SAMPLE_SIZE, seed=self.seed, stratify_by="Y",
            )

        return [("bootstrap_s", run)]

    def check(self, task: str, out) -> str | None:
        if out.iterations != self.ITERATIONS:
            return f"iterations {out.iterations} != {self.ITERATIONS}"
        if out.point_estimate != self.point:
            return f"point estimate {out.point_estimate!r} != {self.point!r}"
        return None

    def canonical(self, task: str, out) -> str:
        return (
            f"point={_hex(out.point_estimate)} mean={_hex(out.mean)} "
            f"ci=[{_hex(out.ci_low)},{_hex(out.ci_high)}] "
            f"iterations={out.iterations} failures={out.failures}"
        )


WORKLOADS = {
    "wide_select": WideSelect,
    "flu_cli": FluCli,
    "boot_small": BootSmall,
}

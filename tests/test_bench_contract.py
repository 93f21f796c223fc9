"""The benchmark's traced run binds to library names; these tests keep the
names it uses, and the counts it reads from them, in step with the code.

``bench/tracing.py`` is loaded from its file and not modified: its
:class:`Tracer` is installed on a small dataset and removed again.
``bench/workloads.py`` is loaded the same way, to run one pass of each
workload, and its output checks, at a small size.  Each pass's canonical
outputs are pinned by their SHA-256, hashed as ``bench/run.py`` hashes a
run's digest, so a kernel change that moves any output by one bit fails
here and not only in the benchmark.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nomassoc as nm
import nomassoc.cli  # noqa: F401  (a traced module the package does not import)
from nomassoc import selection

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench("tracing")


def small_dataset():
    rng = np.random.default_rng(8)
    n = 500
    columns = [rng.integers(0, 2 + j % 3, n) for j in range(6)]
    y = (columns[1] + columns[4]) % 3
    y = np.where(rng.random(n) < 0.2, rng.integers(0, 3, n), y)
    metas = [nm.VariableMeta("Y", ("0", "1", "2"))] + [
        nm.VariableMeta(f"V{j}", tuple(str(k) for k in range(2 + j % 3)))
        for j in range(6)
    ]
    return nm.CategoricalDataset(metas, [y] + columns)


def test_every_traced_target_resolves(tracing):
    targets = list(tracing.SPANS.values()) + list(tracing.COUNTERS)
    assert ("selection", "_evaluate_all") in targets
    for module, attr in targets:
        owner = importlib.import_module(f"nomassoc.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


def forward_evaluations(result, n_candidates):
    """Candidates scored across the forward steps, the last (uncommitted)
    step included when the run stopped there."""
    steps = len(result.trace)
    if result.terminated_by in ("no-gain", "max_cells"):
        steps += 1
    return sum(n_candidates - k for k in range(steps))


@pytest.mark.parametrize("config, stops", [
    (nm.SelectionConfig(), "exhausted"),
    (nm.SelectionConfig(max_vars=2), "max_vars"),
    (nm.SelectionConfig(epsilon=0.05), "no-gain"),
    (nm.SelectionConfig(max_cells=3), "max_cells"),
])
def test_traced_run_counts_every_forward_evaluation(tracing, config, stops):
    ds = small_dataset()
    original = selection._evaluate_all
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        supervised = nm.select_supervised(ds, "Y", config=config)
        structural = nm.select_structural(ds, config=config)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert selection._evaluate_all is original
    assert supervised.terminated_by == stops

    for result, n_candidates in ((supervised, 6), (structural, 7)):
        for k, step in enumerate(result.trace):
            assert len(step.scores) + len(step.skipped) == n_candidates - k
    assert tracer.counts["selection.evaluations"] == (
        forward_evaluations(supervised, 6) + forward_evaluations(structural, 7)
    )
    spans = tracer.aggregate()["spans"]
    assert spans["selection.select_supervised"]["calls"] == 1
    assert spans["selection.select_structural"]["calls"] == 1


def test_hierarchy_scan_composes_each_side_once(tracing):
    ds = small_dataset()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        verdicts = nm.hierarchy_scan(ds, ["V1", "V4"], ["V2", "V3"], "Y")
        tracer.active = False
    finally:
        tracer.uninstall()
    assert [name for name, _ in verdicts] == ["E1", "E2", "E3", "E4", "E5"]
    spans = tracer.aggregate()["spans"]
    assert spans["equivalence.hierarchy_scan"]["calls"] == 1
    assert spans["equivalence.check"]["calls"] == 5
    assert spans["dataset.compose"]["calls"] == 2


def run_small(workload):
    """``({task: problem}, digest)`` of one pass of ``workload``, after its
    set-up; ``digest`` is the SHA-256 of the tasks' canonical outputs."""
    workload.setup()
    workload.prepare()
    outputs = {task: run() for task, run in workload.tasks()}
    digest = hashlib.sha256()
    for task in sorted(outputs):
        text = workload.canonical(task, outputs[task])
        digest.update(f"{task}\n{text}\n".encode())
    problems = {task: workload.check(task, out)
                for task, out in outputs.items()}
    return problems, digest.hexdigest()


#: Digests of the small passes below, computed before the folded candidate
#: keys and the multiplied members of ``dataset._joint_codes``.
FLU_CLI_DIGEST = (
    "32a064cbbe65da1865395ada9725dad7ca51d8919a5a001b8d690eef1652d30b")
WIDE_SELECT_DIGESTS = {
    1: "52adb2e78ddd7c0940e36d0adb3130b9fffaec0bbfdc453212112b7214eabab2",
    2: "5d6d2275da4959f002ab79eba3af00daa475ab4e7b17186d240486bc2c0b9968",
    3: "379f524d6906b89f2a8379d10706e18f2dc3617120c33da6b895cf44ecbd877e",
}
BOOT_SMALL_DIGESTS = {
    1: "bbf1e3317fd7a40993b36bf6025ef23257ce465c687d52a79d13261568816901",
    2: "b39bbc560a2f0b00016b76d8a0dc339c5e5df4a01aa8f3e05bf5976ebf9deab8",
}


def test_flu_cli_commands_pass_their_checks(tmp_path):
    workloads = load_bench("workloads")

    class SmallFluCli(workloads.FluCli):
        N_ROWS = 3000

    problems, digest = run_small(SmallFluCli(seed=1, workdir=str(tmp_path)))
    assert problems == dict.fromkeys(
        ["select_supervised_s", "select_structural_s", "predict_s", "equiv_s"]
    )
    assert digest == FLU_CLI_DIGEST


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wide_select_tasks_pass_their_checks(tmp_path, seed):
    workloads = load_bench("workloads")

    class SmallWideSelect(workloads.WideSelect):
        N_ROWS = 3000

    problems, digest = run_small(
        SmallWideSelect(seed=seed, workdir=str(tmp_path)))
    assert problems == dict.fromkeys(
        ["select_supervised_s", "select_structural_s", "verify_basis_s"]
    )
    assert digest == WIDE_SELECT_DIGESTS[seed]


@pytest.mark.parametrize("seed", [1, 2])
def test_boot_small_task_passes_its_check(tmp_path, seed):
    workloads = load_bench("workloads")

    class SmallBootSmall(workloads.BootSmall):
        N_ROWS = 2000
        ITERATIONS = 50
        SAMPLE_SIZE = 200

    problems, digest = run_small(
        SmallBootSmall(seed=seed, workdir=str(tmp_path)))
    assert problems == {"bootstrap_s": None}
    assert digest == BOOT_SMALL_DIGESTS[seed]

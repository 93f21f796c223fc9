"""nomassoc benchmark: one seeded workload, measured for a fixed time.

Run from the repository root::

    python3 bench/run.py --workload wide_select --seed 1 --seconds 35 --trace 0

The harness imports the library from ``./src``, builds the workload's inputs
from the seed (set-up, repeated and reported as a median), then runs passes
of the workload's tasks in a closed loop until the next pass would overrun
``--seconds``.  Every task output is checked; a task that raises, exits
non-zero or fails its check counts as failed.  Human-readable lines go to
standard output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  ``wall_norm`` is the median over passes of a pass's time
divided by the workload's reference computation, timed just before and
after it (see ``workloads.py``).  The traced run alternates untraced and
traced passes, to measure the tracing overhead; per-layer values are per
traced pass.  A JSON record of the run (environment, all timings, output
digests) and, when traced, the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin the environment before numpy loads: selection runs its default single
# worker and BLAS starts one thread (never more than the machine's cores).
os.environ.pop("NOMASSOC_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up repeats: at least SETUP_MIN, then more until SETUP_BUDGET seconds
#: are spent or SETUP_MAX repeats are made.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 25, 1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "all": values}


class Run:
    """Set-up, passes and bookkeeping of one benchmark run."""

    def __init__(self, workload, tracer, seconds: float):
        self.workload = workload
        self.tracer = tracer
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.task_times: dict[str, list[float]] = {}
        self.walls: list[tuple[bool, float]] = []  # (traced, seconds) per pass
        self.references: list[float] = []  # before the first pass and after each
        self.first_outputs: dict[str, str] = {}

    def setup(self) -> list[float]:
        times: list[float] = []
        while len(times) < SETUP_MIN or (
            sum(times) < SETUP_BUDGET and len(times) < SETUP_MAX
        ):
            self._activate(True)
            start = time.perf_counter()
            try:
                self.workload.setup()
            finally:
                times.append(time.perf_counter() - start)
                self._activate(False)
        return times

    def _activate(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def one_pass(self, traced: bool) -> None:
        wall = 0.0
        for task, fn in self.workload.tasks():
            self.attempted += 1
            self._activate(traced)
            start = time.perf_counter()
            try:
                out = self.tracer.root(f"task.{task}", fn) if traced else fn()
            except Exception:  # a failing operation is counted, not fatal
                self._fail(task, traceback.format_exc())
                continue
            finally:
                elapsed = time.perf_counter() - start
                self._activate(False)
            wall += elapsed
            if not traced:
                self.task_times.setdefault(task, []).append(elapsed)
            problem = self.workload.check(task, out)
            text = self.workload.canonical(task, out)
            if problem is None and self.first_outputs.setdefault(task, text) != text:
                problem = "output differs from the first pass"
            if problem is not None:
                self._fail(task, problem)
        self.walls.append((traced, wall))

    def _time_reference(self) -> None:
        start = time.perf_counter()
        self.workload.reference()
        self.references.append(time.perf_counter() - start)

    def wall(self, traced: bool) -> list[float]:
        return [w for t, w in self.walls if t == traced]

    def wall_norm(self) -> list[float]:
        """Each untraced pass's time over the mean of the reference timings
        taken just before and just after it."""
        refs = self.references
        return [w / ((refs[i] + refs[i + 1]) / 2)
                for i, (traced, w) in enumerate(self.walls) if not traced]

    def _fail(self, task: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{task}: {problem}")
        print(f"FAILED {task}: {problem}", file=sys.stderr)

    def passes(self) -> None:
        """Closed loop: the next pass starts when the previous one ends, and
        none starts that would end after ``seconds``.  At least one pass
        runs, and a traced run makes at least one untraced and one traced."""
        start = time.perf_counter()
        durations: list[float] = []
        minimum = 1 if self.tracer is None else 2
        self._time_reference()
        while True:
            traced = self.tracer is not None and len(durations) % 2 == 1
            began = time.perf_counter()
            self.one_pass(traced)
            self._time_reference()
            durations.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if len(durations) >= minimum and (
                elapsed + statistics.median(durations) > self.seconds
            ):
                return

    def digest(self) -> str:
        h = hashlib.sha256()
        for task in sorted(self.first_outputs):
            h.update(f"{task}\n{self.first_outputs[task]}\n".encode())
        return h.hexdigest()


def layer_values(tracer, setup_agg, n_setups: int, pass_agg, n_passes: int,
                 overhead: float) -> dict[str, float]:
    """Every per-layer number the traced run can give, per traced pass
    (set-up spans per set-up)."""
    values: dict[str, float] = {}
    for span, stats in pass_agg["spans"].items():
        for field, value in stats.items():
            values[f"{span}.{field}"] = value / n_passes
    for counter, value in tracer.counts.items():
        values[counter] = value / n_passes
    values["dataset.joint_codes.bytes"] = 8 * values.get("dataset.joint_codes.row_members", 0)
    values["resampling.statistic_calls"] = values.get("resampling.reduction_statistic.calls", 0.0)
    flu = setup_agg["spans"].get("scenarios.generate_flu")
    values["scenarios.generate_flu.s"] = flu["s"] / n_setups if flu else 0.0
    values["trace.overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nomassoc", "__init__.py")):
        print(f"bench: no nomassoc sources in {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import nomassoc

    if os.path.dirname(os.path.abspath(nomassoc.__file__)) != os.path.join(src, "nomassoc"):
        print(f"bench: imported nomassoc from {nomassoc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = Run(workload, tracer, args.seconds)
        if tracer is not None:
            tracer.install()
        setup_times = run.setup()
        setup_agg = tracer.aggregate() if tracer else None
        if tracer:
            tracer.reset()
        workload.prepare()
        run.passes()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = run.wall(traced=False)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": _summary(setup_times),
        "wall_s": _summary(untraced),
        "reference_s": _summary(run.references),
        "wall_norm": _summary(run.wall_norm()),
        "tasks": {task: _summary(times) for task, times in run.task_times.items()},
        "peak_rss_mb": peak_rss_mb,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
        "digest": run.digest(),
        "outputs": run.first_outputs,
    }

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    env = record["environment"]
    print(f"environment cpu={env['cpu_model']!r} cores={env['cores']} "
          f"usable={env['cores_usable']} threads={env['threads']} "
          f"python={env['python']} numpy={env['numpy']}")
    rows = [("setup_s", record["setup_s"])] + list(record["tasks"].items())
    rows += [("wall_s", record["wall_s"]), ("reference_s", record["reference_s"])]
    for name, stats in rows:
        print(f"{name:<22} {stats['median']:.6f} s median, {stats['max']:.6f} s max "
              f"(n={stats['n']})")
    stats = record["wall_norm"]
    print(f"{'wall_norm':<22} {stats['median']:.4f} x_ref median, {stats['max']:.4f} "
          f"x_ref max (n={stats['n']})")
    print(f"{'peak_rss_mb':<22} {peak_rss_mb:.1f} MB")
    print(f"{'error_rate':<22} {record['error_rate']:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    print(f"{'digest':<22} {record['digest']}")

    if tracer is None:
        values = {"setup_s": record["setup_s"]["median"],
                  "wall_norm": record["wall_norm"]["median"],
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    else:
        traced = run.wall(traced=True)
        overhead = statistics.median(traced) - statistics.median(untraced)
        pass_agg = tracer.aggregate()
        values = layer_values(tracer, setup_agg, len(setup_times), pass_agg,
                              len(traced), overhead)
        wanted = spec["per_layer"]
        record["layers"] = values
        record["by_task"] = pass_agg["by_root"]
        for task, spans in sorted(pass_agg["by_root"].items()):
            task_s = pass_agg["spans"][task]["s"]
            print(f"{task}: {task_s / len(traced):.6f} s per traced pass")
            for span, busy in sorted(spans.items(), key=lambda kv: -kv[1]):
                print(f"  {span:<34} {busy / len(traced):.6f} s  "
                      f"{100 * busy / task_s:5.1f} %")
        print(f"tracing overhead {overhead:.6f} s per pass "
              f"({len(traced)} traced, {len(untraced)} untraced passes)")
        tracer.dump(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-spans.json"))

    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

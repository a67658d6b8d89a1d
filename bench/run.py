"""qcode benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every iteration of a workload runs in a
fresh child interpreter (bench/child.py), so field tables, form analyses
and the get_field cache start cold, as on each ``qcode`` invocation.  The
load is a closed loop with one caller: one child at a time, single
threaded, never passing ``workers``.

--trace 0 spawns children for up to S seconds (at least one; none is
started that would end past S) and reports the end-to-end metrics, each
the median over the run's children: setup_s (spawn to ``import qcode``
done, also sampled by import-only children), wall_s (set-up done to the
last output checked), cpu_s (user+sys of the child) and peak_rss_mb (the
child's max RSS).  --trace 1 runs one untraced child, one child under the
span recorder and one under the allocation recorder, and reports the
per-layer metrics; the full span summary goes to
.bench_work/trace-NAME-seedN.json.

Every output is checked (see workloads.py).  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the exit code is 1 when
any item failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import per_layer_names  # noqa: E402
from workloads import WORKLOADS, make_inputs, planned_items  # noqa: E402

SETUP_SPAWNS = 8
RUN_LIMIT_S = 170.0  # a whole invocation must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _has_key(obj, key: str) -> bool:
    if isinstance(obj, dict):
        return key in obj or any(_has_key(v, key) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_key(v, key) for v in obj)
    return False


def refuse_parallel(environ, inputs: dict) -> None:
    """The load must stay one process: no worker override may reach a child."""
    if "QCODE_THREADS" in environ:
        problem = "unset QCODE_THREADS; the benchmark load is single-process"
    elif _has_key(inputs, "workers"):
        problem = "workload inputs must not set workers"
    else:
        return
    print(f"bench: {problem}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Runner:
    """Spawns children one at a time and tallies their items."""

    def __init__(self, workload: str, seed: int, reference: dict,
                 work_dir: Path, deadline: float):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.work_dir, self.deadline = work_dir, deadline
        self.env = child_env()
        self.count = 0
        self.attempted = 0
        self.problems: list[str] = []

    def inputs(self, child: int) -> dict:
        inputs = make_inputs(self.workload, self.seed, child, self.reference)
        refuse_parallel(os.environ, inputs)
        return inputs

    def spawn(self, mode: str, inputs: dict | None = None) -> dict | None:
        """One child; None when it crashed or ran past the deadline."""
        self.count += 1
        spec_path = self.work_dir / f"spec-{self.count}.json"
        result_path = self.work_dir / f"result-{self.count}.json"
        spec_path.write_text(json.dumps({
            "workload": self.workload, "inputs": inputs, "mode": mode,
            "work_dir": str(self.work_dir), "result": str(result_path)}))
        with open(self.work_dir / f"stderr-{self.count}.txt", "w+b") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(spawned)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace")
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        elif tail:
            print(tail, file=sys.stderr)
        if mode == "import":
            return result
        if result is None:
            n = planned_items(self.workload, inputs)
            self.attempted += n
            self.problems += [f"{mode} child died (exit {proc.returncode})"] * n
            return None
        self.attempted += result["attempted"]
        self.problems += result["problems"]
        return result


def timed_run(runner: Runner, seconds: float) -> dict:
    setups = [r["setup_s"] for r in
              (runner.spawn("import") for _ in range(SETUP_SPAWNS)) if r]
    children, durations = [], []
    start = time.perf_counter()
    for child in itertools.count():
        began = time.perf_counter()
        result = runner.spawn("timed", runner.inputs(child))
        if result:
            children.append(result)
        now = time.perf_counter()
        durations.append(now - began)
        # start no child that would end past the measuring window
        if (now - start + statistics.median(durations) > seconds
                or now > runner.deadline - 5):
            break
    setups += [r["setup_s"] for r in children]
    metrics = {}
    for name, unit in END_TO_END.items():
        values = setups if name == "setup_s" else [r[name] for r in children]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"children: {len(children)} timed, {len(setups)} set-up samples",
          file=sys.stderr)
    return metrics


def traced_run(runner: Runner, trace_path: Path) -> dict:
    inputs = runner.inputs(0)
    plain = runner.spawn("timed", inputs)
    spans = runner.spawn("spans", inputs)
    alloc = runner.spawn("alloc", inputs)
    if not (plain and spans and alloc):
        return {}
    layers = dict(spans["layers"])
    layers.update(alloc["layers"])
    layers["trace.wall_s"] = spans["wall_s"]
    layers["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    trace_path.write_text(json.dumps({
        "workload": runner.workload, "inputs": inputs,
        "untraced_wall_s": plain["wall_s"], "per_layer": layers,
        "spans": spans["spans"]}, indent=1, sort_keys=True))
    return {name: {"value": layers[name], "unit": _unit(name)}
            for name in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "qcode" / "__init__.py").is_file():
        print(f"bench: no qcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refuse_parallel(os.environ, {})
    reference = json.loads((HERE / "reference.json").read_text())

    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, reference, work_dir,
                    started + RUN_LIMIT_S)
    try:
        if runner.spawn("import") is None:  # also fills the bytecode cache
            print("bench: the child cannot import qcode", file=sys.stderr)
            return 2
        if args.trace:
            trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced_run(runner, trace_path)
        else:
            metrics = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = min(len(runner.problems), runner.attempted)
    attempted = max(runner.attempted, 1)
    for problem in runner.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    if args.trace and metrics:
        print(f"per-layer trace written to {trace_path.relative_to(ROOT)}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

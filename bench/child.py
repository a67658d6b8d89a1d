"""One benchmark iteration, run in a fresh interpreter by bench/run.py.

Usage: child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is run.py's time.perf_counter() just before it spawned
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so setup_s covers interpreter start plus ``import qcode``.
The spec names the workload, its inputs, the mode (``import`` stops after
the import, ``timed`` runs the workload, ``spans`` and ``alloc`` run it
under a recorder) and where to write the result.
"""

import json
import resource
import sys
import time


def main() -> None:
    spawned = float(sys.argv[2])
    import qcode  # noqa: F401  -- the set-up being measured

    setup_done = time.perf_counter()
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_done - spawned}
    if spec["mode"] != "import":
        from spans import AllocRecorder, SpanRecorder
        from workloads import run_workload

        recorder = {"spans": SpanRecorder, "alloc": AllocRecorder}.get(spec["mode"])
        if recorder:
            recorder = recorder()
            recorder.install()
        start = time.perf_counter()
        attempted, problems = run_workload(spec["workload"], spec["inputs"],
                                           spec["work_dir"])
        result["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024,
                      attempted=attempted, problems=problems)
        if recorder:
            result["layers"] = recorder.metrics()
        if isinstance(recorder, SpanRecorder):
            result["spans"] = recorder.span_summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

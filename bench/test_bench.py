"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q bench/test_bench.py

Shows that every output check counts a corrupted output as a failed item,
that run.py refuses worker overrides and a tree without sources, and
that a traced run reports every per-layer metric.  The repository's own
suite does not collect this file (its testpaths is tests/).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import qcode  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qcode import cli  # noqa: E402
from qcode.quadform import parse_preset  # noqa: E402
from spans import IDENTITY_IDS, per_layer_names  # noqa: E402

SMALL_CALL = {"p": 3, "m": 4, "preset": "cor1:u=2", "alpha": "5"}
SMALL_THEOREM = {"specs": [[3, 3, 7], [3, 4, 8], [5, 3, 9]], "trials": 10,
                 "min_branch": 1}
SMALL_LEMMA = dict(workloads.LEMMA_SWEEP, trials=2, min_branch=1, seed=7)


def _cli_json(tmp_path, command: str, call: dict) -> dict:
    out = tmp_path / f"{command}.json"
    argv = [command, "--p", str(call["p"]), "--m", str(call["m"]),
            "--preset", call["preset"], "--alpha", call["alpha"], "--out", str(out)]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def _small_expectation(tmp_path, command: str) -> dict:
    payload = _cli_json(tmp_path, command, SMALL_CALL)
    if command == "predict":
        payload = payload["predicted"]
    return dict(SMALL_CALL, length=payload["length"], enumerator=payload["enumerator"])


@pytest.fixture(scope="module")
def theorem_reports():
    return [qcode.theorem_sweep(trials=SMALL_THEOREM["trials"], seed=seed,
                                field_specs=[(p, m)], min_branch=0)
            for p, m, seed in SMALL_THEOREM["specs"]]


@pytest.fixture(scope="module")
def lemma_report():
    return qcode.lemma_sweep(SMALL_LEMMA["grid"], trials=SMALL_LEMMA["trials"],
                             seed=SMALL_LEMMA["seed"],
                             min_branch=SMALL_LEMMA["min_branch"])


def test_build_check_counts_corrupted_outputs(tmp_path):
    expect = _small_expectation(tmp_path, "build")
    payload = _cli_json(tmp_path, "build", SMALL_CALL)
    ctx = qcode.get_field(3, 4)
    an = qcode.analyze(parse_preset(ctx, SMALL_CALL["preset"]))
    case = qcode.classify(an, ctx.parse_element(SMALL_CALL["alpha"]))
    n, rows = qcode.predict_length(an, case), qcode.predict_distribution(an, case)
    assert workloads.check_build(payload, n, rows, expect) == []

    wrong = dict(payload, enumerator=payload["enumerator"].replace("+", "+1", 1))
    assert len(workloads.check_build(wrong, n, rows, expect)) == 1
    assert len(workloads.check_build(dict(payload, length=n + 1), n, rows, expect)) == 1
    stale = dict(expect, enumerator="1+80z^54")
    assert len(workloads.check_build(payload, n, rows, stale)) == 1


def test_predict_check_counts_corrupted_outputs(tmp_path):
    expect = _small_expectation(tmp_path, "predict")
    payload = _cli_json(tmp_path, "predict", SMALL_CALL)
    assert workloads.check_predict(payload, 3, 4, expect) == []

    rows = payload["predicted"]["weight_distribution"]
    w_lo, w_hi = sorted(rows, key=int)[:2]
    moved = copy.deepcopy(payload)  # same sum, wrong first moment
    moved["predicted"]["weight_distribution"][w_lo] += 1
    moved["predicted"]["weight_distribution"][w_hi] -= 1
    lost = copy.deepcopy(payload)
    lost["predicted"]["weight_distribution"][w_lo] -= 1
    for bad in (moved, lost):
        assert len(workloads.check_predict(bad, 3, 4, expect)) == 1
    stale = dict(expect, length=expect["length"] + 1)
    assert len(workloads.check_predict(payload, 3, 4, stale)) == 1


def test_theorem_sweep_check_counts_corrupted_outputs(theorem_reports):
    check = workloads.check_theorem_sweep
    assert check(theorem_reports, SMALL_THEOREM) == []
    flipped = [dict(theorem_reports[0], all_match=False)] + theorem_reports[1:]
    assert len(check(flipped, SMALL_THEOREM)) == 1
    short = [dict(r, branches=dict(r["branches"], **{"T1:odd_zero": 0}))
             for r in theorem_reports]
    assert len(check(short, SMALL_THEOREM)) == 1
    cut = [dict(theorem_reports[0], trials=SMALL_THEOREM["trials"] - 1)]
    assert len(check(cut + theorem_reports[1:], SMALL_THEOREM)) == 1


def test_lemma_sweep_check_counts_corrupted_outputs(lemma_report):
    assert workloads.check_lemma_sweep(lemma_report, SMALL_LEMMA) == []
    flipped = copy.deepcopy(lemma_report)
    flipped["lemmas"]["16"]["all_equal"] = False
    assert len(workloads.check_lemma_sweep(flipped, SMALL_LEMMA)) == 1
    top = dict(lemma_report, all_equal=False)
    assert len(workloads.check_lemma_sweep(top, SMALL_LEMMA)) == 1
    short = copy.deepcopy(lemma_report)
    short["lemmas"]["10"]["branches"]["S1"] = 0
    assert len(workloads.check_lemma_sweep(short, SMALL_LEMMA)) == 1


def test_run_workload_charges_a_wrong_reference(tmp_path):
    call = dict(_small_expectation(tmp_path, "build"), enumerator="1+80z^54")
    attempted, problems = workloads.run_workload("build", {"calls": [call]},
                                                 str(tmp_path))
    assert (attempted, len(problems)) == (1, 1)


def test_every_seed_draws_recorded_candidates():
    reference = json.loads((HERE / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        assert (workloads.make_inputs(name, 3, 1, reference)
                == workloads.make_inputs(name, 3, 1, reference))
        assert (workloads.make_inputs(name, 3, 0, reference)
                != workloads.make_inputs(name, 4, 0, reference))
    calls = workloads.make_inputs("build", 3, 0, reference)["calls"]
    assert [(c["p"], c["m"], c["preset"].split(":")[0]) for c in calls] == [
        tuple(s) for s in workloads.BUILD_SLOTS]


def test_runner_refuses_worker_overrides():
    with pytest.raises(SystemExit):
        run.refuse_parallel({"QCODE_THREADS": "2"}, {"seed": 1})
    with pytest.raises(SystemExit):
        run.refuse_parallel({}, {"calls": [{"workers": 2}]})
    run.refuse_parallel({}, {"calls": [{"p": 3}]})


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _traced(tmp_path, name: str, inputs: dict, monkeypatch) -> dict:
    runner = run.Runner(name, 0, {}, tmp_path, deadline=float("inf"))
    monkeypatch.setattr(runner, "inputs", lambda child: inputs)
    metrics = run.traced_run(runner, tmp_path / "trace.json")
    assert runner.problems == []
    assert set(metrics) == set(per_layer_names())
    return {k: v["value"] for k, v in metrics.items()}


def test_traced_runs_report_every_layer(tmp_path, monkeypatch):
    build = _traced(tmp_path, "build",
                    {"calls": [_small_expectation(tmp_path, "build")]}, monkeypatch)
    for name in ("field.calls", "codes.weight_distribution_calls",
                 "codes.peak_alloc_mb", "counting.hyperplane_calls",
                 "quadform.solve_xb_calls", "cli.self_s"):
        assert build[name] > 0, name
    predict = _traced(tmp_path, "predict",
                      {"calls": [_small_expectation(tmp_path, "predict")]}, monkeypatch)
    assert predict["field.calls"] > 0 and predict["field.peak_alloc_mb"] > 0
    assert predict["codes.weight_distribution_calls"] == 0
    theorem = _traced(tmp_path, "theorem_sweep", SMALL_THEOREM, monkeypatch)
    assert theorem["predictor.verify_calls"] >= 3 * SMALL_THEOREM["trials"]
    assert 0 < theorem["quadform.solve_xb_distinct_ratio"] <= 1
    lemma = _traced(tmp_path, "lemma_sweep", SMALL_LEMMA, monkeypatch)
    assert lemma["counting.oracle_calls"] > 0 and lemma["cyclotomic.mul_calls"] > 0
    assert all(lemma[f"counting.lemma_{i}_s"] > 0 for i in IDENTITY_IDS)
    for layers in (build, predict, theorem, lemma):
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert self_sum <= layers["trace.wall_s"] * 1.0001

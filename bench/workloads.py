"""The four benchmark workloads: input generation and output checks.

make_inputs() runs in run.py and never imports qcode: it turns the
benchmark seed and a child's index into concrete inputs, drawing build and
predict elements from the candidates recorded in reference.json (each with
its expected output).  Successive children of one run get different
draws, so a run's median averages over inputs as well as over timing
noise.  run_workload() runs in the child interpreter, drives the package
through its public entry points, and checks every output.  Nothing here
passes ``workers``: every load is single-process.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("build", "predict", "theorem_sweep", "lemma_sweep")

# (p, m, preset family) slots; the seed draws the element and alpha
BUILD_SLOTS = ((3, 9, "cor1"), (5, 6, "cor1"), (7, 5, "cor1"), (3, 8, "trmv"))
PREDICT_SLOTS = ((3, 11, "cor1"), (7, 6, "cor1"), (11, 5, "cor1"))

# The theorem sweep runs once per (p, m) of the default mix, 38 instances
# each (304 in all), instead of drawing the field per instance: the 5^5
# instances cost most, and a per-instance draw lets their number, and so
# the run time, vary by +-15% with the seed.  min_branch applies to the
# totals over the mix.
THEOREM_SWEEP = {"specs": [[p, m] for p in (3, 5) for m in (2, 3, 4, 5)],
                 "trials": 38, "min_branch": 5}
LEMMA_SWEEP = {"grid": [[p, m] for p in (3, 5) for m in (2, 3, 4, 5)],
               "trials": 1500, "min_branch": 3}

# Branch labels each sweep must reach, frozen here so that renaming a
# label in the package cannot make a short branch pass unnoticed.
SWEEP_BRANCHES = ("T1:even_nonzero", "T1:even_zero", "T1:odd_nonzero",
                  "T1:odd_zero", "T2:even", "T2:odd")
REQUIRED_BRANCHES = {
    5: ["I", "II:in_image", "II:outside_image"],
    6: ["nondegenerate", "degenerate"],
    7: ["even", "odd"],
    8: ["odd_rank", "even_rank_derived_variant"],
    9: ["outside_image", "even_zero", "even_nonzero", "odd_zero",
        "odd_nonzero"],
    10: ["S1", "S2:in_zero", "S2:in_nonzero", "S2:outside",
         "S3:even:in_zero", "S3:even:in_nonzero", "S3:even:outside",
         "S3:odd:in_zero", "S3:odd:in_nonzero", "S3:odd:outside"],
    11: ["even:in_zero", "even:in_nonzero", "even:outside",
         "odd:in_zero", "odd:in_nonzero", "odd:outside"],
    13: ["I:in:zero_zero", "I:in:zero_nonzero", "I:in:nonzero",
         "I:outside_beta", "II:in_union", "II:outside_union"],
    14: ["I:ez:zz", "I:ez:mixed", "I:ez:nznz", "I:ez:bout",
         "I:en:zz", "I:en:zeros", "I:en:Enz", "I:en:bout",
         "I:oz:fb0_or_bout", "I:oz:tr0", "I:oz:trnz",
         "I:on:zz", "I:on:znz", "I:on:E0", "I:on:Enz", "I:on:bout",
         "II:even:fnz", "II:even:f0", "II:even:out",
         "II:odd:fnz", "II:odd:out"],
    15: ["I:ez:zz", "I:ez:mixed", "I:ez:nznz", "I:ez:bout",
         "I:en:zz", "I:en:zeros", "I:en:Enz", "I:en:bout",
         "I:oz:fb0", "I:oz:tr0", "I:oz:trnz", "I:oz:bout",
         "I:on:zz", "I:on:znz", "I:on:E0", "I:on:Enz", "I:on:bout",
         "II:even:fnz", "II:even:f0", "II:odd:fnz", "II:outside_union"],
    16: ["S6", "sigma:even", "sigma:odd", "NE:even", "NE:odd"],
    17: ["gsum", "even:t0", "even:tnz", "odd:t0", "odd:tnz"],
    18: ["I1", "I2", "I3", "I4", "J1", "J2", "J3", "J4", "J5", "J6"],
    19: ["sq_tr0", "nsq_tr0", "sq_trnz", "nsq_trnz",
         "even:sq_tr0", "even:nsq_tr0", "even:sq_trnz", "even:nsq_trnz"],
}


def slot_key(p: int, m: int, family: str) -> str:
    return f"{p},{m},{family}"


def make_inputs(name: str, seed: int, child: int, reference: dict) -> dict:
    """Inputs of one child; the same (seed, child) gives the same inputs."""
    rng = random.Random(f"{name}:{seed}:{child}")
    if name in ("build", "predict"):
        slots = BUILD_SLOTS if name == "build" else PREDICT_SLOTS
        table = reference[name]
        return {"calls": [rng.choice(table[slot_key(*slot)]) for slot in slots]}
    if name == "theorem_sweep":
        return {"specs": [[p, m, rng.randrange(1, 2**31)]
                          for p, m in THEOREM_SWEEP["specs"]],
                "trials": THEOREM_SWEEP["trials"],
                "min_branch": THEOREM_SWEEP["min_branch"]}
    if name == "lemma_sweep":
        return dict(LEMMA_SWEEP, seed=rng.randrange(1, 2**31))
    raise ValueError(f"unknown workload {name!r}")


def planned_items(name: str, inputs: dict) -> int:
    """Items one iteration attempts, for charging a child that died."""
    if name in ("build", "predict"):
        return len(inputs["calls"])
    if name == "theorem_sweep":
        return inputs["trials"] * len(inputs["specs"])
    return inputs["trials"] * len(REQUIRED_BRANCHES)


def enumerator(rows: dict) -> str:
    """1 + A_w z^w + ... in ascending weight order, as the CLI prints it."""
    return "+".join(["1"] + [f"{c}z^{w}" for w, c in sorted(rows.items())])


# --- output checks: each returns a list of problems, one per failed item ----


def check_build(payload: dict, predicted_length: int, predicted_rows: dict,
                expect: dict) -> list[str]:
    if payload.get("length") != predicted_length:
        return [f"length {payload.get('length')} != predicted {predicted_length}"]
    if payload.get("enumerator") != enumerator(predicted_rows):
        return ["enumerator differs from the closed-form prediction"]
    if (payload["length"], payload["enumerator"]) != (
            expect["length"], expect["enumerator"]):
        return ["output differs from the recorded reference"]
    return []


def check_predict(payload: dict, p: int, m: int, expect: dict) -> list[str]:
    pred = payload.get("predicted", {})
    rows = {int(w): c for w, c in pred.get("weight_distribution", {}).items()}
    n = pred.get("length")
    if sum(rows.values()) != p**m - 1:
        return ["multiplicities do not sum to p^m - 1"]
    if n is None or sum(w * c for w, c in rows.items()) != n * (p - 1) * p ** (m - 1):
        return ["first power moment fails"]
    if (n, pred.get("enumerator")) != (expect["length"], expect["enumerator"]):
        return ["prediction differs from the recorded reference"]
    return []


def check_theorem_sweep(reports: list[dict], inputs: dict) -> list[str]:
    """reports holds one sweep per (p, m) of inputs["specs"]."""
    problems = []
    branches = dict.fromkeys(SWEEP_BRANCHES, 0)
    for (p, m, _), report in zip(inputs["specs"], reports):
        bad = [f"({p},{m}) mismatch {x}" for x in report.get("mismatches", [])]
        if not report.get("all_match") and not bad:
            bad.append(f"({p},{m}) all_match is false")
        if report.get("trials", 0) < inputs["trials"]:
            bad.append(f"({p},{m}) only {report.get('trials')} instances")
        problems += bad
        for b, count in report.get("branches", {}).items():
            branches[b] = branches.get(b, 0) + count
    problems += [f"branch {b} hit {count} times" for b, count in branches.items()
                 if count < inputs["min_branch"]]
    return problems


def check_lemma_sweep(report: dict, inputs: dict) -> list[str]:
    problems = []
    lemmas = report.get("lemmas", {})
    for lemma_id, required in REQUIRED_BRANCHES.items():
        sub = lemmas.get(str(lemma_id))
        if sub is None:
            problems.append(f"id {lemma_id} missing")
            continue
        bad = [f"id {lemma_id} counterexample" for _ in sub["counterexamples"]]
        if not sub["all_equal"] and not bad:
            bad.append(f"id {lemma_id} all_equal is false")
        problems += bad
        if sub["trials"] < inputs["trials"]:
            problems.append(f"id {lemma_id} ran {sub['trials']} trials")
        problems += [f"id {lemma_id} branch {b} short" for b in required
                     if sub["branches"].get(b, 0) < inputs["min_branch"]]
    if not report.get("all_equal") and not problems:
        problems.append("all_equal is false")
    return problems


def lemma_checks(report: dict) -> int:
    """Registry checks a sweep made: one per (identity, branch) result."""
    return sum(sum(sub["branches"].values())
               for sub in report.get("lemmas", {}).values())


# --- child side ---------------------------------------------------------------


def run_workload(name: str, inputs: dict, work_dir: str) -> tuple[int, list[str]]:
    """One iteration; returns (items attempted, problems).  Each problem is
    one failed item; an item that raises counts as failed too."""
    import qcode
    from qcode import cli

    if name in ("build", "predict"):
        attempted, problems = 0, []
        for i, call in enumerate(inputs["calls"]):
            attempted += 1
            out = os.path.join(work_dir, f"{name}-{i}.json")
            argv = [name, "--p", str(call["p"]), "--m", str(call["m"]),
                    "--preset", call["preset"], "--alpha", call["alpha"],
                    "--out", out]
            if name == "build":
                argv += ["--mode", "both"]
            try:
                if cli.main(argv) != 0:
                    problems.append(f"{name} {argv} exited non-zero")
                    continue
                with open(out, encoding="utf-8") as fh:
                    payload = json.load(fh)
                if name == "predict":
                    problems += check_predict(payload, call["p"], call["m"], call)
                    continue
                from qcode.quadform import parse_preset

                ctx = qcode.get_field(call["p"], call["m"], None)  # the CLI's key
                an = qcode.analyze(parse_preset(ctx, call["preset"]))
                case = qcode.classify(an, ctx.parse_element(call["alpha"]))
                problems += check_build(payload, qcode.predict_length(an, case),
                                        qcode.predict_distribution(an, case), call)
            except Exception as exc:  # an item that raises is a failed item
                problems.append(f"{name} {argv} raised {exc!r}")
        return attempted, problems

    if name == "theorem_sweep":
        try:
            reports = [qcode.theorem_sweep(trials=inputs["trials"], seed=seed,
                                           field_specs=[(p, m)], min_branch=0)
                       for p, m, seed in inputs["specs"]]
        except Exception as exc:  # the whole sweep failed
            n = planned_items(name, inputs)
            return n, [f"theorem_sweep raised {exc!r}"] * n
        problems = check_theorem_sweep(reports, inputs)
        return max(sum(r["trials"] for r in reports), len(problems), 1), problems

    try:
        report = qcode.lemma_sweep(inputs["grid"], trials=inputs["trials"],
                                   seed=inputs["seed"],
                                   min_branch=inputs["min_branch"])
    except Exception as exc:  # the whole sweep failed
        n = planned_items(name, inputs)
        return n, [f"lemma_sweep raised {exc!r}"] * n
    problems = check_lemma_sweep(report, inputs)
    return max(lemma_checks(report), len(problems), 1), problems

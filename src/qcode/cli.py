"""Command-line surface.

Subcommands: analyze, build, predict, verify, lemmas, paper-examples.
JSON is the machine contract; text renders the same data for reading.
Identical configurations produce byte-identical output: all randomness
is seed-derived and every iteration order is fixed.  The QCODE_THREADS
environment variable, a positive integer, caps the worker count of
commands that can parallelize internally (currently the lemma sweep); the
pool never exceeds the task count or the machine's CPU count.  Any other
non-empty value is a configuration error.

Exit codes: 0 success (for verify: prediction matches brute force; for
lemmas: every identity ran checks and all agreed), 1 verify mismatch or a
lemmas sweep that is not all_equal, 2 configuration or computation error,
or an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .codes import (
    WeightDistribution,
    code_json,
    defining_set,
    enumerator_string,
    generator_matrix_csv,
    weight_distribution,
)
from .counting import IDENTITY_IDS, get_field, lemma_sweep
from .errors import QCodeError
from .field import eta_bar, parse_modulus
from .predictor import (
    check_prediction,
    classify,
    paper_examples,
    predict_distribution,
    predict_length,
    verdict_json,
)
from .quadform import QuadraticFunction, analyze, parse_preset


def worker_count() -> int:
    """The QCODE_THREADS cap: a positive integer, 1 when unset or empty."""
    cap = os.environ.get("QCODE_THREADS", "").strip()
    if not cap:
        return 1
    try:
        workers = int(cap)
    except ValueError:
        workers = 0
    if workers < 1:
        raise QCodeError(f"QCODE_THREADS must be a positive integer, got {cap!r}")
    return workers


def _dump(payload) -> str:
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _field_and_form(args):
    if bool(args.coeffs) == bool(args.preset):
        raise QCodeError("exactly one of --coeffs or --preset is required")
    modulus = parse_modulus(args.modulus) if args.modulus else None
    ctx = get_field(args.p, args.m, tuple(modulus) if modulus else None)
    if args.preset:
        f = parse_preset(ctx, args.preset)
    else:
        f = QuadraticFunction(
            ctx, [ctx.parse_element(c) for c in args.coeffs.split(",")])
    return ctx, f


def _require_alpha(ctx, args) -> int:
    if args.alpha is None:
        raise QCodeError("--alpha is required for this command")
    return ctx.parse_element(args.alpha)


def _preset_cross_check(ctx, args, an) -> dict | None:
    """Closed-form rank/sign of the preset families, checked against the
    computed analysis."""
    if not args.preset:
        return None
    name, _, arg = args.preset.partition(":")
    value = ctx.parse_element(arg.partition("=")[2])
    if name == "cor1":
        expected_rank = ctx.m
        expected_sign = (-1) ** (ctx.m - 1) * ctx.eta(ctx.neg(value))
    else:
        tv2 = ctx.trace(ctx.mul(value, value))
        expected_rank = ctx.m - 1
        expected_sign = ((-1) ** (ctx.m - 1) * ctx.eta(ctx.neg(1))
                         * eta_bar(-tv2, ctx.p))
    return {
        "rank": expected_rank,
        "sign": expected_sign,
        "matches": (an.rank, an.sign) == (expected_rank, expected_sign),
    }


def cmd_analyze(args) -> int:
    ctx, f = _field_and_form(args)
    if args.alpha is not None:  # not reported, but refused when meaningless
        ctx.parse_element(args.alpha)
    an = analyze(f)
    payload = {
        "p": ctx.p,
        "m": ctx.m,
        "modulus": ctx.modulus_text(),
        "coeffs": ",".join(ctx.element_text(c) for c in f.coeffs),
        "gram": an.gram.tolist(),
        "rank": an.rank,
        "sign": an.sign,
        "kernel_dimension": ctx.m - an.rank,
        "image_dimension": an.rank,
        "kernel_basis": [ctx.element_text(b) for b in an.ker_basis],
        "image_basis": [ctx.element_text(b) for b in an.im_basis],
    }
    check = _preset_cross_check(ctx, args, an)
    if check:
        payload["preset_check"] = check
    if args.format == "text":
        lines = [f"GF({ctx.p}^{ctx.m}), modulus {ctx.modulus_text()}",
                 f"coeffs: {payload['coeffs']}",
                 f"rank: {an.rank}   sign: {an.sign:+d}",
                 f"kernel dim: {ctx.m - an.rank}   image dim: {an.rank}",
                 "gram: " + "; ".join(" ".join(map(str, r)) for r in payload["gram"])]
        if check:
            lines.append(f"preset check: rank {check['rank']}, "
                         f"sign {check['sign']:+d}, "
                         f"matches: {check['matches']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_build(args) -> int:
    ctx, f = _field_and_form(args)
    an = analyze(f)
    alpha = _require_alpha(ctx, args)
    ds = defining_set(an, alpha)
    wd = weight_distribution(ds, args.mode)
    if args.format == "csv":
        _emit(generator_matrix_csv(ds), args.out)
        return 0
    payload = code_json(ds, wd)
    if args.format == "text":
        lines = [f"[{wd.n}, {wd.k}, {wd.d_min}] code over GF({ctx.p})",
                 f"enumerator: {payload['enumerator']}",
                 f"defining set size: {ds.length}"]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_predict(args) -> int:
    ctx, f = _field_and_form(args)
    an = analyze(f)
    alpha = _require_alpha(ctx, args)
    case = classify(an, alpha)
    n = predict_length(an, case)
    rows = predict_distribution(an, case)
    check_prediction(an, alpha, n, rows)
    payload = {
        "case": case.to_json(),
        "predicted": {
            "length": n,
            "dimension": ctx.m,
            "weight_distribution": {str(w): c for w, c in rows.items()},
            "enumerator": enumerator_string(WeightDistribution(n, ctx.m, rows)),
        },
    }
    if args.format == "text":
        _emit(f"predicted [{n}, {ctx.m}] with "
              f"{payload['predicted']['enumerator']}\n", args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    ctx, f = _field_and_form(args)
    an = analyze(f)
    alpha = _require_alpha(ctx, args)
    payload = verdict_json(an, alpha, args.mode)
    if args.format == "text":
        _emit(f"match: {payload['match']}\n", args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0 if payload["match"] else 1


def cmd_lemmas(args) -> int:
    if args.seed is None or args.trials is None:
        raise QCodeError("--seed and --trials are required for lemmas")
    if args.trials < 1:
        raise QCodeError(f"--trials must be positive, got {args.trials}")
    if args.lemma is not None and args.lemma not in IDENTITY_IDS:
        raise QCodeError(f"--lemma must be one of {list(IDENTITY_IDS)}")
    ids = IDENTITY_IDS if args.lemma is None else (args.lemma,)
    workers = worker_count()
    report = lemma_sweep([(args.p, args.m)], trials=args.trials,
                         seed=args.seed, lemma_ids=ids, workers=workers)
    if args.format == "text":
        lines = [f"identity sweep over GF({args.p}^{args.m}), "
                 f"seed {args.seed}, trials {args.trials}"]
        for key, sub in report["lemmas"].items():
            lines.append(f"  id {key}: all_equal={sub['all_equal']} "
                         f"branches={len(sub['branches'])}")
        lines.append(f"all_equal: {report['all_equal']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(report), args.out)
    return 0 if report["all_equal"] else 1


def cmd_paper_examples(args) -> int:
    report = paper_examples(args.mode)
    if args.format == "text":
        lines = []
        for e in report["examples"]:
            c = e["computed"]
            lines.append(
                f"example {e['example']:>2}: {e['verdict']:<8} computed "
                f"[{c['length']}, {c['dimension']}, {c['min_distance']}] "
                f"{c['enumerator']}")
            for note in e.get("adjudication", ()):
                lines.append(f"    note: {note}")
        lines.append(f"clean: {report['clean_matches']}")
        lines.append(f"flagged: {report['flagged']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcode",
        description="few-weight linear codes from quadratic level sets, "
                    "with exact verification")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is registered only on the subcommands that read it
    mode = dict(choices=("naive", "analytic", "both"), default="both")

    def add_common(p, needs_field=True):
        if needs_field:
            p.add_argument("--p", type=int, required=True,
                           help="odd prime characteristic")
            p.add_argument("--m", type=int, required=True,
                           help="extension degree")
        p.add_argument("--format", choices=("json", "text", "csv"),
                       default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")

    for name in ("analyze", "build", "predict", "verify"):
        sp = sub.add_parser(name)
        add_common(sp)
        sp.add_argument("--modulus",
                        help="comma-separated coefficients c0,...,cm")
        sp.add_argument("--coeffs", help="comma-separated element encodings")
        sp.add_argument("--preset", help='"cor1:u=<elt>" or "trmv:v=<elt>"')
        sp.add_argument("--alpha", help='element encoding or "g^k"')
        if name in ("build", "verify"):
            sp.add_argument("--mode", **mode)

    sp = sub.add_parser("lemmas", help="identity registry sweep")
    add_common(sp)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--lemma", type=int, help="registry id (5..19, not 12)")

    sp = sub.add_parser("paper-examples",
                        help="replay the ten reference constructions")
    add_common(sp, needs_field=False)
    sp.add_argument("--mode", **mode)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser of every main call in this process.  parse_args
    leaves a parser as it was, so reuse is safe as long as nothing else
    touches it; build_parser gives callers a parser of their own."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command != "build":
            raise QCodeError("--format csv is only available for build")
        # looked up per call, so a rebound cmd_* function is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (QCodeError, ZeroDivisionError, ValueError, OSError) as exc:
        # machine-readable failure channel; exit code 2 is the contract
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

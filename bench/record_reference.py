"""Regenerate bench/reference.json: the build and predict candidates.

For each slot it draws CANDIDATES (element, alpha) pairs from a fixed
generator, runs the CLI on each (build in ``both`` mode, so naive and
closed-form weights already agree), and records the length and
enumerator.  The benchmark seed later picks one candidate per slot, and
its output must equal the recorded one.  Run from the repository root:

    PYTHONPATH=src python3 bench/record_reference.py

It takes a few minutes.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import BUILD_SLOTS, PREDICT_SLOTS, slot_key  # noqa: E402

CANDIDATES = 8


def _draw(ctx, family: str, rng: random.Random) -> tuple[str, str]:
    while True:
        u = rng.randrange(1, ctx.q)
        if family == "trmv" and ctx.trace(ctx.mul(u, u)) == 0:
            continue
        key = "u" if family == "cor1" else "v"
        return f"{family}:{key}={u}", str(rng.randrange(1, ctx.q))


def _record(command: str, slots, out_dir: str) -> dict:
    from qcode import cli, get_field

    table = {}
    for p, m, family in slots:
        ctx = get_field(p, m)
        rng = random.Random(f"reference:{command}:{p}:{m}:{family}")
        rows = []
        while len(rows) < CANDIDATES:
            preset, alpha = _draw(ctx, family, rng)
            out = os.path.join(out_dir, "out.json")
            argv = [command, "--p", str(p), "--m", str(m), "--preset", preset,
                    "--alpha", alpha, "--out", out]
            if cli.main(argv) != 0:
                continue  # outside the theorems' domain: draw again
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            if command == "predict":
                payload = payload["predicted"]
            rows.append({"p": p, "m": m, "preset": preset, "alpha": alpha,
                         "length": payload["length"],
                         "enumerator": payload["enumerator"]})
            print(command, rows[-1], file=sys.stderr)
        table[slot_key(p, m, family)] = rows
    return table


def main() -> None:
    work = HERE.parent / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "build": _record("build", BUILD_SLOTS, str(work)),
        "predict": _record("predict", PREDICT_SLOTS, str(work)),
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

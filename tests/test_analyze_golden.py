"""`qcode analyze` JSON and text outputs against tests/golden/analyze_forms.json.

The cases cover ranks 0, 1, m - 1 and m, both presets and random
coefficients on five fields, so the golden pins gram, rank, sign and the
kernel and image bases.  Regenerate the golden with
`PYTHONPATH=src python tests/test_analyze_golden.py`, only for a change
that means to alter these outputs.
"""

import json
import pathlib
import tempfile

import pytest

from qcode.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analyze_forms.json"

CASES = {
    "zero_3_4": ["--p", "3", "--m", "4", "--coeffs", "0,0,0,0"],
    "trace_square_3_4": ["--p", "3", "--m", "4", "--coeffs", "1,1,1,1"],
    "trace_square_7_3": ["--p", "7", "--m", "3", "--coeffs", "4,4,4"],
    "cor1_3_4": ["--p", "3", "--m", "4", "--preset", "cor1:u=1"],
    "cor1_5_3": ["--p", "5", "--m", "3", "--preset", "cor1:u=g^1"],
    "trmv_3_4": ["--p", "3", "--m", "4", "--preset", "trmv:v=1"],
    "trmv_5_3": ["--p", "5", "--m", "3", "--preset", "trmv:v=1"],
    "random_3_4": ["--p", "3", "--m", "4", "--coeffs", "37,10,2,75"],
    "random_3_11": ["--p", "3", "--m", "11", "--coeffs",
                    "80411,111082,99401,138959,93868,34158,50330,70092,"
                    "116542,3689,57944"],
    "random_5_3": ["--p", "5", "--m", "3", "--coeffs", "79,58,115"],
    "random_7_3": ["--p", "7", "--m", "3", "--coeffs", "12,54,43"],
    "random_11_5": ["--p", "11", "--m", "5", "--coeffs",
                    "130610,110427,5132,134383,113061"],
}


def _outputs(argv: list[str], folder: pathlib.Path) -> dict[str, str]:
    out = {}
    for fmt in ("json", "text"):
        path = folder / f"analyze.{fmt}"
        assert main(["analyze", *argv, "--format", fmt, "--out", str(path)]) == 0
        out[fmt] = path.read_text(encoding="utf-8")
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert golden["argv"] == CASES[name]
    assert _outputs(CASES[name], tmp_path) == {"json": golden["json"],
                                               "text": golden["text"]}


def test_analyze_golden_covers_ranks_zero_one_and_the_top_two():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    payloads = [json.loads(case["json"]) for case in golden.values()]
    assert {0, 1} <= {d["rank"] for d in payloads}
    assert {0, 1} <= {d["m"] - d["rank"] for d in payloads}

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: {"argv": argv, **_outputs(argv, pathlib.Path(tmp))}
                  for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import qcode
import qcode.cli as cli_mod
import qcode.predictor as predictor_mod
from qcode.cli import main, worker_count
from qcode.counting import check_brute_cap, get_field
from qcode.errors import QCodeError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# package API
# ---------------------------------------------------------------------------

def test_every_export_resolves_once():
    assert len(qcode.__all__) == len(set(qcode.__all__))
    missing = [name for name in qcode.__all__ if not hasattr(qcode, name)]
    assert not missing


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "3", "--m", "2",
                           "--coeffs", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"] == [[2, 0], [0, 1]]
    assert payload["rank"] == 2 and payload["sign"] == -1


def test_analyze_preset_cross_check(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "3", "--m", "4",
                           "--preset", "cor1:u=1")
    payload = json.loads(out)
    assert payload["rank"] == 4 and payload["sign"] == -1
    assert payload["preset_check"] == {"rank": 4, "sign": -1, "matches": True}


def test_analyze_accepts_missing_alpha(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--p", "3", "--m", "2",
                         "--coeffs", "1,0", "--alpha", "5")
    assert code == 0


# ---------------------------------------------------------------------------
# build / predict / verify
# ---------------------------------------------------------------------------

def test_build_reference_instance(capsys):
    code, out, _ = run_cli(capsys, "build", "--p", "3", "--m", "4",
                           "--preset", "cor1:u=1", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 29
    assert payload["dimension"] == 4
    assert payload["min_distance"] == 18
    assert payload["enumerator"] == "1+44z^18+30z^21+6z^24"


def test_build_with_gk_alpha_and_modulus(capsys):
    code, out, _ = run_cli(capsys, "build", "--p", "3", "--m", "5",
                           "--modulus", "1,2,0,0,0,1",
                           "--preset", "trmv:v=1", "--alpha", "g^2")
    payload = json.loads(out)
    assert (payload["length"], payload["dimension"],
            payload["min_distance"]) == (89, 5, 54)


def test_build_csv_generator_matrix(capsys):
    code, out, _ = run_cli(capsys, "build", "--p", "3", "--m", "3",
                           "--preset", "cor1:u=1", "--alpha", "1",
                           "--format", "csv")
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(len(row.split()) == 8 for row in lines)


def test_build_degree_one_default_mode_matches_naive(capsys):
    args = ("build", "--p", "3", "--m", "1", "--preset", "cor1:u=1",
            "--alpha", "1")
    code, both, _ = run_cli(capsys, *args)
    assert code == 0
    code, naive, _ = run_cli(capsys, *args, "--mode", "naive")
    assert code == 0
    assert both == naive


def test_predict_matches_build(capsys):
    _, pred_out, _ = run_cli(capsys, "predict", "--p", "3", "--m", "4",
                             "--preset", "cor1:u=1", "--alpha", "1")
    _, build_out, _ = run_cli(capsys, "build", "--p", "3", "--m", "4",
                              "--preset", "cor1:u=1", "--alpha", "1")
    pred = json.loads(pred_out)["predicted"]
    built = json.loads(build_out)
    assert pred["length"] == built["length"]
    assert pred["weight_distribution"] == built["weight_distribution"]


def test_predict_refuses_a_table_that_fails_its_moments(capsys, monkeypatch):
    # p - 1 codewords moved from one table row to another keep the total
    # and the divisibility by p - 1, but break the first power moment:
    # predict exits 2 on the JSON error channel and prints no table
    argv = ("predict", "--p", "3", "--m", "4", "--preset", "cor1:u=1", "--alpha", "1")
    assert run_cli(capsys, *argv)[0] == 0
    real = predictor_mod._table_rows

    def moved(an, case):
        (w0, a0), (w1, a1), *rest = real(an, case)
        shift = an.ctx.p - 1
        return [(w0, a0 - shift), (w1, a1 + shift), *rest]

    monkeypatch.setattr(predictor_mod, "_table_rows", moved)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "first power moment fails"}


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "4",
                           "--preset", "cor1:u=1", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["case"]["theorem"] == 1
    assert payload["computed"]["length"] == 29

    real = predictor_mod.predict_distribution

    def perturbed(an, case):
        rows = dict(real(an, case))
        first = next(iter(rows))
        rows[first] += 3
        return rows

    monkeypatch.setattr(predictor_mod, "predict_distribution", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "4",
                           "--preset", "cor1:u=1", "--alpha", "1")
    assert code == 1
    assert json.loads(out)["match"] is False


# ---------------------------------------------------------------------------
# config validation (nonzero exit, no partial output)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("build", "--p", "2", "--m", "3", "--preset", "cor1:u=1", "--alpha", "1"),
    ("build", "--p", "3", "--m", "3", "--preset", "cor1:u=1"),
    ("build", "--p", "3", "--m", "3", "--preset", "cor1:u=1",
     "--coeffs", "1,0,0", "--alpha", "1"),
    ("build", "--p", "3", "--m", "3", "--alpha", "1"),
    ("build", "--p", "3", "--m", "2", "--modulus", "1,2,1",
     "--preset", "cor1:u=1", "--alpha", "1"),
    ("analyze", "--p", "3", "--m", "3", "--preset", "nope:x=1"),
    ("lemmas", "--p", "3", "--m", "3", "--trials", "5", "--seed", "1",
     "--lemma", "12"),
    ("lemmas", "--p", "3", "--m", "3", "--trials", "5"),
    ("verify", "--p", "3", "--m", "4", "--preset", "cor1:u=1", "--alpha", "0"),
    ("lemmas", "--p", "3", "--m", "3", "--trials", "-5", "--seed", "1"),
    ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0", "--format", "csv"),
    ("predict", "--p", "3", "--m", "4", "--preset", "cor1:u=1", "--alpha", "1",
     "--format", "csv"),
    ("verify", "--p", "3", "--m", "4", "--preset", "cor1:u=1", "--alpha", "1",
     "--format", "csv"),
    ("lemmas", "--p", "3", "--m", "3", "--trials", "5", "--seed", "1",
     "--format", "csv"),
    ("paper-examples", "--format", "csv"),
    ("predict", "--p", "3", "--m", "100000000", "--preset", "cor1:u=1",
     "--alpha", "1"),
    ("predict", "--p", "3", "--m", "1000000", "--preset", "cor1:u=1",
     "--alpha", "1"),
    ("lemmas", "--p", "3", "--m", "3", "--trials", "5", "--seed", "1",
     "--lemma", "0"),
    ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0", "--alpha", "1.5"),
    ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0", "--alpha", "9"),
    ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0", "--alpha", "-1"),
])
def test_bad_configs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


_FORM = ("--preset", "cor1:u=1", "--alpha", "1")
_ONE_DRAW = ("--trials", "1", "--seed", "1")


# --modulus is registered only where a field is built from it (analyze,
# build, predict, verify) and --mode only where a weight route runs (build,
# verify, paper-examples); anywhere else each is an unknown flag
@pytest.mark.parametrize("argv", [
    ("lemmas", "--p", "3", "--m", "2", "--trials", "2", "--seed", "1",
     "--modulus", "1,1,1"),
    ("lemmas", "--p", "3", "--m", "2", *_ONE_DRAW, "--mode", "naive"),
    ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0", "--mode", "naive"),
    ("predict", "--p", "3", "--m", "4", *_FORM, "--mode", "naive"),
    ("paper-examples", "--modulus", "1,0,1"),
])
def test_flags_a_subcommand_never_reads_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--p", "3", "--m", "2", "--modulus", "1,0,1", "--coeffs", "1,0"),
    ("predict", "--p", "3", "--m", "4", "--modulus", "2,0,0,2,1", *_FORM),
    ("verify", "--p", "3", "--m", "4", *_FORM, "--mode", "naive"),
])
def test_flags_are_read_where_registered(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _parser_state(parser):
    """Every action and default of a parser and of its subparsers."""
    def actions(p):
        return ([(a.dest, tuple(a.option_strings), a.default, a.required,
                  a.choices, a.type, a.help) for a in p._actions], dict(p._defaults))
    return actions(parser), {name: actions(sp) for name, sp in _subparsers(parser).items()}


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    build = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or build())
    cli_mod._shared_parser.cache_clear()
    for argv in [("predict", "--p", "3", "--m", "4", *_FORM),
                 ("analyze", "--p", "3", "--m", "2", "--coeffs", "1,0"),
                 ("verify", "--p", "5", "--m", "3", *_FORM),
                 ("predict", "--p", "5", "--m", "2", *_FORM)]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)
    assert len(built) == 1
    # build_parser still gives each caller a parser of its own
    assert build() is not build() is not cli_mod._shared_parser()


def test_failed_argv_leaves_the_shared_parser_as_it_was(capsys):
    good = ("verify", "--p", "3", "--m", "4", *_FORM)
    _, expected, _ = run_cli(capsys, *good, "--mode", "both")
    state = _parser_state(cli_mod._shared_parser())
    for bad in [("predict", "--p", "3", "--m", "4", "--alpha", "1"),  # no form
                ("verify", *good[1:], "--mode", "naive", "--format", "csv"),
                ("predict", *good[1:], "--mode", "naive"),  # unknown flag
                ("verify", "--m", "4", *_FORM),  # --p missing
                ("verify", *good[1:], "--mode", "fast"),  # bad choice
                ("nope",)]:
        try:
            code = main(list(bad))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code == 2, bad
        capsys.readouterr()
        # the next good argv parses from scratch: --mode falls back to both
        assert run_cli(capsys, *good) == (0, expected, "")
    assert _parser_state(cli_mod._shared_parser()) == state


def test_dispatch_reaches_the_module_cmd_functions(capsys, monkeypatch):
    assert main(["predict", "--p", "3", "--m", "4", *_FORM]) == 0
    capsys.readouterr()
    state = _parser_state(cli_mod._shared_parser())
    names = list(_subparsers(cli_mod._shared_parser()))
    assert names == ["analyze", "build", "predict", "verify", "lemmas", "paper-examples"]
    for name in names:
        seen = []
        monkeypatch.setattr(cli_mod, "cmd_" + name.replace("-", "_"),
                            lambda args: seen.append(args.command) or 7)
        field = ["--p", "3", "--m", "2"] if name != "paper-examples" else []
        assert main([name, *field]) == 7 and seen == [name]
    assert _parser_state(cli_mod._shared_parser()) == state


# inside the field-size cap, but the exhaustive routes would run for
# seconds to minutes at these characteristics
@pytest.mark.parametrize("argv", [
    ("build", "--p", "1009", "--m", "1", *_FORM),
    ("build", "--p", "277", "--m", "2", *_FORM),
    ("build", "--p", "7919", "--m", "1", *_FORM),
    ("verify", "--p", "23", "--m", "2", *_FORM),
    ("lemmas", "--p", "31", "--m", "2", *_ONE_DRAW),
    ("lemmas", "--p", "53", "--m", "2", *_ONE_DRAW),
    ("lemmas", "--p", "199", "--m", "1", *_ONE_DRAW),
    ("lemmas", "--p", "199", "--m", "1", *_ONE_DRAW, "--lemma", "6"),
])
def test_large_characteristic_exits_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "characteristic" in json.loads(err)["error"]


# every field the exhaustive routes admit: p an odd prime up to the
# characteristic cap, and q up to the field-size cap
ADMITTED_FIELDS = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19)
                   for m in range(1, 12) if p**m <= 200_000]


def test_characteristic_cap_admits_the_fields_in_use(capsys):
    # the tests', the reference examples' and the benchmark's exhaustive
    # fields, and the benchmark's largest predict field, which never
    # enumerates
    in_use = ({(3, m) for m in range(1, 10)} | {(5, m) for m in range(1, 7)}
              | {(7, m) for m in range(1, 6)} | {(11, 1), (11, 2)}
              | {(s["p"], s["m"]) for s in predictor_mod.REFERENCE_EXAMPLES})
    assert in_use <= set(ADMITTED_FIELDS)
    for p, m in ADMITTED_FIELDS:
        check_brute_cap(get_field(p, m))
    code, _, _ = run_cli(capsys, "predict", "--p", "11", "--m", "5", *_FORM)
    assert code == 0
    code, _, _ = run_cli(capsys, "build", "--p", "19", "--m", "1", *_FORM)
    assert code == 0


def test_field_size_cap_refuses_every_route_alike(capsys):
    errors = set()
    for command in ("build", "verify", "predict"):
        code, out, err = run_cli(capsys, command, "--p", "3", "--m", "12", *_FORM)
        assert code == 2 and out == ""
        errors.add(json.loads(err)["error"])
    assert errors == {"field size 3^12 exceeds the desk-scale cap 200000"}


# ---------------------------------------------------------------------------
# argv fuzz: every input exits 0, 1 or 2, never with a traceback
# ---------------------------------------------------------------------------

_HUGE = "9" * 5000  # past int()'s default digit limit

# valid fields keep q <= 3^6, and the lemma sweep's q <= 9, so that the
# success paths stay cheap; a drawn malformed value replaces --p or --m
_FUZZ_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1),
                (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3)]
_FUZZ_LEMMA_FIELDS = [(3, 1), (3, 2), (5, 1)]
# (well-formed, malformed) values; a malformed --trials never parses as a
# large count, so no draw runs long
_FUZZ_VALUES = {
    "--p": (None, ["2", "9", "1", "0", "-3", "10000000000000000000000000000057",
                   _HUGE, "x", "3.0", "g^2", ""]),
    "--m": (None, ["0", "-1", "12", "100000000", _HUGE, "two", "g^1", ""]),
    "--alpha": (["1", "2", "5", "g", "g^3", "g^-1"],
                ["0", "g^" + _HUGE, "g^x", "g^", "-5", "99999999999", "", "1,0"]),
    "--preset": (["cor1:u=1", "cor1:u=g", "trmv:v=1", "trmv:v=g^2"],
                 ["cor1:u=0", "trmv:v=0", "nope:x=1", "cor1", "cor1:u=",
                  "cor1:u=g^x", "trmv:v=-4"]),
    "--coeffs": (["1", "1,0", "g,1", "1,0,0"],
                 ["0,0,0", "x", "1,,2", "", "1,0,0,0,0,0,0"]),
    "--modulus": (["1,0,1", "2,0,0,2,1"],
                  ["1,2,1", "1,0", "1", "a,b", "",
                   "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1"]),
    "--mode": (["naive", "analytic", "both"], ["fast"]),
    "--format": (["json", "text", "csv"], ["xml"]),
    "--trials": (["1", "2"], ["0", "-1", _HUGE, "many"]),
    "--seed": (["1", "7", "-4"], ["x"]),
    "--lemma": (["5", "9", "14"], ["12", "99", "-1", "x"]),
}


def _fuzz_argv(rng):
    # paper-examples takes no field or form options; its one fixed run is
    # covered by test_paper_examples_text
    cmd = rng.choice(("analyze", "build", "predict", "verify", "lemmas"))
    p, m = rng.choice(_FUZZ_LEMMA_FIELDS if cmd == "lemmas" else _FUZZ_FIELDS)
    argv = [cmd, "--p", str(p), "--m", str(m)]
    for opt in ("--p", "--m"):
        if rng.random() < 0.1:
            argv[argv.index(opt) + 1] = rng.choice(_FUZZ_VALUES[opt][1])
    if cmd == "lemmas":
        chances = {"--trials": 0.95, "--seed": 0.95, "--lemma": 0.3}
    else:
        form = rng.choice(("--preset",) * 4 + ("--coeffs", "both", "none"))
        chances = {"--preset": form in ("--preset", "both"),
                   "--coeffs": form in ("--coeffs", "both"),
                   "--alpha": 0.9}
        # each flag only where the subcommand registers it
        if cmd in ("build", "verify"):
            chances["--mode"] = 0.3
        chances["--modulus"] = 0.1
    chances["--format"] = 0.2
    for opt, chance in chances.items():
        if rng.random() < chance:
            good, bad = _FUZZ_VALUES[opt]
            argv += [opt, rng.choice(good if rng.random() < 0.85 else bad)]
    return argv


def test_fuzzed_argv_exits_cleanly(capsys):
    rng = random.Random(20161018)
    codes = []
    for _ in range(200):
        argv = _fuzz_argv(rng)
        parsed = True
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code, parsed = exc.code, False
        except Exception as exc:  # any other escape is the bug; name its argv
            pytest.fail(f"{argv!r} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if parsed and code == 2:
            assert out == "", argv
            payload = json.loads(err)
            assert isinstance(payload, dict) and list(payload) == ["error"], argv
        elif parsed:
            assert err == "", argv
        codes.append(code if parsed else "usage")
    # the draw reaches every outcome, real work included
    assert {0, 1, 2, "usage"} <= set(codes)
    assert codes.count(0) >= 30


# ---------------------------------------------------------------------------
# lemmas and the battery
# ---------------------------------------------------------------------------

def test_lemmas_single_id(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--p", "3", "--m", "3",
                           "--trials", "5", "--seed", "7", "--lemma", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert set(payload["lemmas"]) == {"9"}


def test_lemmas_without_draws_is_not_all_equal(capsys):
    # at degree 1 no nonzero alpha in Im(L) has f(x_alpha) = 0, so ids 8
    # and 19 draw nothing; a sweep that checked nothing must not pass
    code, out, _ = run_cli(capsys, "lemmas", "--p", "3", "--m", "1",
                           "--trials", "3", "--seed", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_equal"] is False
    for key, sub in payload["lemmas"].items():
        empty = key in ("8", "19")
        assert (sub["trials"] == 0) == empty, key
        assert sub["all_equal"] is not empty, key
        assert any("no parameters were drawn" in n for n in sub["notes"]) == empty


def test_paper_examples_text(capsys):
    code, out, _ = run_cli(capsys, "paper-examples", "--format", "text")
    assert code == 0
    assert "clean: [1, 2, 3, 4, 5, 6, 8]" in out
    assert "flagged: [7, 9, 10]" in out


# ---------------------------------------------------------------------------
# determinism and output files
# ---------------------------------------------------------------------------

def test_repeat_runs_byte_identical(capsys):
    args = ("lemmas", "--p", "3", "--m", "3", "--trials", "6", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    args = ("build", "--p", "3", "--m", "4", "--preset", "cor1:u=1",
            "--alpha", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "code.json"
    code, out, _ = run_cli(capsys, "build", "--p", "3", "--m", "3",
                           "--preset", "cor1:u=1", "--alpha", "1",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["length"] == 8


_OUT_COMMANDS = [
    ("build", "--p", "3", "--m", "3", *_FORM),
    ("predict", "--p", "3", "--m", "4", *_FORM),
    ("verify", "--p", "3", "--m", "4", *_FORM),
    ("lemmas", "--p", "3", "--m", "2", *_ONE_DRAW),
]


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, where):
    # exit 1 is verify's mismatch; a bad --out is a configuration error
    target = tmp_path if where == "directory" else tmp_path / "no" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert str(target) in json.loads(err)["error"]
    assert not (tmp_path / "no").exists()


def test_build_and_oracle_leave_numpy_random_unimported(tmp_path):
    """Past q = 81 the form spot check samples points with the stdlib
    generator, so a build and a registry check never import numpy.random
    (about 5 MB of RSS per process).  A fresh interpreter, since the test
    process has it loaded already."""
    script = f"""
import sys
from qcode.cli import main
from qcode.counting import LemmaParams, get_field, lemma_oracle
from qcode.quadform import analyze, preset_cor1

assert main(["build", "--p", "3", "--m", "5", "--preset", "cor1:u=1",
             "--alpha", "1", "--out", {str(tmp_path / "code.json")!r}]) == 0
F = get_field(3, 5)
an = analyze(preset_cor1(F, F.generator))
assert all(r.equal for r in lemma_oracle(9, LemmaParams(analysis=an, alpha=1)))
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("QCODE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("QCODE_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("QCODE_THREADS", "")
    assert worker_count() == 1
    for bad in ("zero", "abc", "0", "-3", "2.5"):
        monkeypatch.setenv("QCODE_THREADS", bad)
        with pytest.raises(QCodeError, match="QCODE_THREADS"):
            worker_count()


@pytest.mark.parametrize("bad", ["abc", "0", "-3"])
def test_meaningless_thread_cap_exits_2(capsys, monkeypatch, bad):
    monkeypatch.setenv("QCODE_THREADS", bad)
    code, out, err = run_cli(capsys, "lemmas", "--p", "3", "--m", "2",
                             "--trials", "1", "--seed", "1", "--lemma", "7")
    assert code == 2 and out == ""
    assert "QCODE_THREADS" in json.loads(err)["error"]

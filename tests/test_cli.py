import json

import pytest

import qcode.predictor as predictor_mod
from qcode.cli import main, worker_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "4",
                           "--preset", "cor1:u=1", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["case"]["theorem"] == 1
    assert payload["computed"]["length"] == 29

    real = predictor_mod.predict_distribution

    def perturbed(an, case, allow_collapse=False):
        rows = dict(real(an, case, allow_collapse))
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
])
def test_bad_configs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


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


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("QCODE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("QCODE_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("QCODE_THREADS", "zero")
    assert worker_count() == 1
    monkeypatch.setenv("QCODE_THREADS", "0")
    assert worker_count() == 1

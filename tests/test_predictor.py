import json
import random

import pytest

import qcode.predictor as predictor_mod
from qcode.codes import defining_set, weight_distribution
from qcode.counting import analysis_pool, get_field
from qcode.errors import (
    DegenerateFormError,
    DimensionCollapseError,
    PreconditionViolatedError,
)
from qcode.predictor import (
    classify,
    paper_examples,
    predict_distribution,
    predict_length,
    theorem_sweep,
    verify,
)
from qcode.quadform import (
    QuadraticFunction,
    analyze,
    preset_cor1,
    preset_trace_square_minus,
)


def trmv_analysis(p, m):
    F = get_field(p, m)
    v = next(x for x in F.nonzero_elements() if F.trace(F.mul(x, x)))
    return analyze(preset_trace_square_minus(F, v)), F, v


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_full_rank_always_theorem1():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    for alpha in list(F.nonzero_elements())[::5]:
        case = classify(an, alpha)
        assert case.theorem == 1 and case.alpha_in_image


def test_classify_trmv_routes_on_trace_of_v_alpha():
    an, F, v = trmv_analysis(3, 4)
    for alpha in list(F.nonzero_elements())[::3]:
        case = classify(an, alpha)
        if F.trace(F.mul(v, alpha)) == 0:
            assert case.theorem == 1
        else:
            assert case.theorem == 2


def test_classify_refuses_rank_zero_and_alpha_zero():
    F = get_field(3, 3)
    zero_form = analyze(QuadraticFunction(F, [0, 0, 0]))
    with pytest.raises(DegenerateFormError):
        classify(zero_form, 1)
    an = analyze(preset_cor1(F, 1))
    with pytest.raises(PreconditionViolatedError):
        classify(an, 0)


def test_case_label_fields():
    F = get_field(3, 4)
    case = classify(analyze(preset_cor1(F, 1)), 1)
    assert case.branch == "T1:even_nonzero"
    payload = case.to_json()
    assert payload["theorem"] == 1
    assert payload["rank"] == 4 and payload["sign"] == -1


# ---------------------------------------------------------------------------
# length and distribution predictions
# ---------------------------------------------------------------------------

def test_predict_length_reference_values():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    assert predict_length(an, classify(an, 1)) == 29

    an5, F5, _ = trmv_analysis(3, 5)
    assert predict_length(an5, classify(an5, 1)) == 80  # outside image

    F27 = get_field(3, 3)
    an27 = analyze(preset_cor1(F27, 1))  # odd rank, vanishing special value
    assert predict_length(an27, classify(an27, 1)) == 8


def test_predict_distribution_reference_rows():
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    rows = predict_distribution(an, classify(an, 1))
    assert rows == {18: 44, 21: 30, 24: 6}


def test_predict_distribution_theorem2_rows():
    an, F, _ = trmv_analysis(3, 4)
    alpha = 1  # Tr(v * 1) != 0 here
    case = classify(an, alpha)
    assert case.branch == "T2:odd"
    assert predict_distribution(an, case) == {15: 24, 18: 44, 21: 12}


def test_full_rank_drops_vanished_rows():
    # rank = m kills the p^m - p^r row; no zero-multiplicity entries leak
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    rows = predict_distribution(an, classify(an, 1))
    assert all(mult > 0 for mult in rows.values())
    assert sum(rows.values()) == F.q - 1


def test_predicted_multiplicities_always_tile():
    rng = random.Random(44)
    for p, m in [(3, 3), (3, 4), (5, 2), (5, 3)]:
        for an in analysis_pool(p, m, rng, extra=2):
            for _ in range(4):
                alpha = rng.randrange(1, an.ctx.q)
                try:
                    rows = predict_distribution(an, classify(an, alpha))
                except (DegenerateFormError, DimensionCollapseError):
                    continue
                assert sum(rows.values()) == an.ctx.q - 1
                assert all(w > 0 and c > 0 for w, c in rows.items())


def test_collapse_family_is_predicted_exactly():
    # p=3, rank 2, sign -1, nonzero special value: the tables put weight 0
    # on 2 nonzero indices; their raw index-weight multiset, duplicates
    # merged and zero multiplicities dropped, matches the scan including
    # those zero-weight indices
    F = get_field(3, 2)
    an = analyze(preset_cor1(F, 1))
    case = classify(an, 1)
    with pytest.raises(DimensionCollapseError):
        predict_distribution(an, case)
    rows = {}
    for weight, mult in predictor_mod._table_rows(an, case):
        if mult:
            w = predictor_mod._as_int(weight)
            rows[w] = rows.get(w, 0) + predictor_mod._as_int(mult)
    assert rows[0] == 2
    ds = defining_set(an, 1)
    from qcode.codes import weight_of

    multiset = {}
    for beta in F.nonzero_elements():
        w = weight_of(beta, ds)
        multiset[w] = multiset.get(w, 0) + 1
    assert rows == multiset


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_reference_instance_matches():
    F = get_field(3, 4)
    report, ds, wd = verify(analyze(preset_cor1(F, 1)), 1)
    assert report.match
    assert not report.witnesses
    assert report.n_predicted == wd.n == 29
    payload = report.to_json()
    assert payload["match"] is True
    assert payload["predicted"]["weight_distribution"] == {
        "18": 44, "21": 30, "24": 6}


def test_verify_flags_perturbed_multiplicity(monkeypatch):
    F = get_field(3, 4)
    an = analyze(preset_cor1(F, 1))
    real = predictor_mod.predict_distribution

    def perturbed(an_, case_):
        rows = dict(real(an_, case_))
        first = next(iter(rows))
        rows[first] += 3
        return rows

    monkeypatch.setattr(predictor_mod, "predict_distribution", perturbed)
    report, _, _ = predictor_mod.verify(an, 1)
    assert not report.match
    assert any(w["field"] == "weight 18" for w in report.witnesses)


def test_alpha_scaling_preserves_distribution():
    rng = random.Random(3)
    for p, m in [(3, 4), (5, 3)]:
        an, F, _ = trmv_analysis(p, m)
        for _ in range(4):
            alpha = rng.randrange(1, F.q)
            wd = weight_distribution(defining_set(an, alpha))
            for z in range(2, p):
                wd_scaled = weight_distribution(
                    defining_set(an, F.scalar_mul(z, alpha)))
                assert wd_scaled.counts == wd.counts
                assert wd_scaled.n == wd.n


def test_theorem2_length_alpha_independent():
    an, F, v = trmv_analysis(3, 4)
    outside = [a for a in F.nonzero_elements() if not an.in_image(a)]
    assert outside
    for alpha in outside:
        assert predict_length(an, classify(an, alpha)) == 26


# ---------------------------------------------------------------------------
# reference battery
# ---------------------------------------------------------------------------

def test_battery_overall_verdicts():
    rep = paper_examples()
    assert rep["clean_matches"] == [1, 2, 3, 4, 5, 6, 8]
    assert rep["flagged"] == [7, 9, 10]
    for entry in rep["examples"]:
        assert entry["predicted_matches_computed"]


def test_battery_example6_distance_adjudication():
    rep = paper_examples()
    e6 = next(e for e in rep["examples"] if e["example"] == 6)
    assert e6["verdict"] == "match"
    assert not e6["printed_d_consistent"]
    assert e6["computed"]["min_distance"] == 36
    assert any("contradicts" in note for note in e6["adjudication"])


def test_battery_example7_truth():
    rep = paper_examples()
    e7 = next(e for e in rep["examples"] if e["example"] == 7)
    assert e7["verdict"] == "mismatch"
    c = e7["computed"]
    assert (c["length"], c["dimension"], c["min_distance"]) == (17, 4, 6)
    assert c["enumerator"] == "1+4z^6+8z^9+66z^12+2z^15"


def test_battery_swapped_degree_reconciliation():
    rep = paper_examples()
    for ex, m2 in ((9, 4), (10, 5)):
        entry = next(e for e in rep["examples"] if e["example"] == ex)
        assert entry["swapped_m"]["m"] == m2
        assert entry["swapped_m"]["reconciles_printed_data"]


def test_battery_example1_side_condition():
    rep = paper_examples()
    e1 = next(e for e in rep["examples"] if e["example"] == 1)
    side = e1["side_condition"]
    assert side["trace_alpha"] != 0 and side["f_xalpha_nonzero"]


def test_battery_deterministic():
    a = json.dumps(paper_examples(), sort_keys=True)
    b = json.dumps(paper_examples(), sort_keys=True)
    assert a == b


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_small_sweep_matches_and_reports_domain():
    rep = theorem_sweep(trials=40, seed=99, field_specs=[(3, 2), (3, 3), (5, 2)],
                        min_branch=2)
    assert rep["all_match"]
    assert rep["trials"] >= 40
    assert set(rep["branches"]) == set(predictor_mod.SWEEP_BRANCHES)


def test_sweep_deterministic():
    kwargs = dict(trials=12, seed=5, field_specs=[(3, 3), (5, 2)], min_branch=1)
    a = theorem_sweep(**kwargs)
    b = theorem_sweep(**kwargs)
    assert a == b

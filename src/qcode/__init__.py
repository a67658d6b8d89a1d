"""Few-weight linear codes from quadratic level sets over GF(p^m).

Exact-arithmetic construction and verification: finite-field and
cyclotomic arithmetic, quadratic-form analysis, closed-form solution
counters with brute-force oracles, code building with weight
distributions, and case-table prediction checked against enumeration.
"""

from .cyclotomic import (
    CycNum,
    exp_sum,
    gauss_sum_ext,
    gauss_sum_prime,
    pstar,
    pstar_half_power,
    verify_quadratic_gauss,
    verify_sigma_power_sums,
)
from .codes import (
    DefiningSet,
    WeightDistribution,
    code_json,
    defining_set,
    enumerator_string,
    generator_matrix,
    parse_enumerator,
    weight_distribution,
    weight_of,
)
from .counting import (
    IDENTITY_IDS,
    LemmaParams,
    brute_count,
    get_field,
    lemma_oracle,
    lemma_sweep,
    predict_hyperplane_root_count,
    predict_root_count,
)
from .errors import QCodeError
from .field import ExtField, eta_bar, is_irreducible, is_prime
from .predictor import (
    CaseLabel,
    classify,
    paper_examples,
    predict_distribution,
    predict_length,
    theorem_sweep,
    verify,
)
from .quadform import (
    FormAnalysis,
    QuadraticFunction,
    analyze,
    gram_matrix,
    preset_cor1,
    preset_trace_square_minus,
    rank_and_sign,
)

__version__ = "0.1.0"

__all__ = [
    "CaseLabel", "CycNum", "DefiningSet", "ExtField", "FormAnalysis",
    "IDENTITY_IDS", "LemmaParams", "QCodeError", "QuadraticFunction",
    "WeightDistribution", "analyze", "brute_count", "classify", "code_json",
    "defining_set", "enumerator_string", "eta_bar", "exp_sum",
    "gauss_sum_ext", "gauss_sum_prime", "generator_matrix", "get_field",
    "gram_matrix", "is_irreducible", "is_prime", "lemma_oracle",
    "lemma_sweep", "paper_examples", "parse_enumerator",
    "predict_distribution", "predict_hyperplane_root_count",
    "predict_length", "predict_root_count", "preset_cor1",
    "preset_trace_square_minus", "pstar", "pstar_half_power",
    "rank_and_sign", "theorem_sweep", "verify", "verify_quadratic_gauss",
    "verify_sigma_power_sums", "weight_distribution", "weight_of",
]

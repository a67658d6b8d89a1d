"""Property tests: the weight routes agree on drawn codes."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcode.codes import _weights_analytic, _weights_naive, defining_set  # noqa: E402
from qcode.counting import get_field  # noqa: E402
from qcode.errors import EmptyDefiningSetError  # noqa: E402
from qcode.field import is_irreducible  # noqa: E402
from qcode.quadform import (  # noqa: E402
    QuadraticFunction,
    analyze,
    preset_cor1,
    preset_trace_square_minus,
)

# every (p, m) with q <= 5^3
FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
          (7, 1), (7, 2), (11, 1), (11, 2)]


@st.composite
def codes(draw):
    p, m = draw(st.sampled_from(FIELDS))
    F = get_field(p, m)
    elt = draw(st.integers(1, F.q - 1))
    if draw(st.sampled_from(("cor1", "trmv"))) == "cor1":
        f = preset_cor1(F, elt)
    else:
        assume(F.trace(F.mul(elt, elt)) != 0)
        f = preset_trace_square_minus(F, elt)
    alpha = draw(st.integers(0, F.q - 1))
    try:
        return defining_set(analyze(f), alpha)
    except EmptyDefiningSetError:
        reject()


@settings(max_examples=60, deadline=None, database=None)
@given(codes())
def test_naive_and_analytic_weights_agree(ds):
    assert _weights_naive(ds).tolist() == _weights_analytic(ds).tolist()


@st.composite
def codes_over_drawn_moduli(draw):
    """A code over GF(p^m) with a drawn irreducible modulus, from a
    preset or raw coefficients, with alpha forced outside Im(L) on about
    half the draws where that is possible."""
    p, m = draw(st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (7, 3), (11, 2), (13, 2)]))
    low = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    assume(is_irreducible(low + [1], p))
    F = get_field(p, m, low + [1])
    kind = draw(st.sampled_from(("cor1", "trmv", "coeffs")))
    if kind == "cor1":
        f = preset_cor1(F, draw(st.integers(1, F.q - 1)))
    elif kind == "trmv":
        v = draw(st.integers(1, F.q - 1))
        assume(F.trace(F.mul(v, v)) != 0)
        f = preset_trace_square_minus(F, v)
    else:
        coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=m, max_size=m))
        assume(any(coeffs))
        f = QuadraticFunction(F, coeffs)
    an = analyze(f)
    alpha = draw(st.integers(0, F.q - 1))
    if an.rank < m and draw(st.booleans()):
        # alpha + c for c outside Im(L) in the direction of the first
        # basis vector the image misses
        outside = next(F.pow_of_basis(j) for j in range(m)
                       if not an.in_image(F.pow_of_basis(j)))
        if an.in_image(alpha):
            alpha = F.add(alpha, outside)
    try:
        return defining_set(an, alpha)
    except EmptyDefiningSetError:
        reject()


@settings(max_examples=80, deadline=None, database=None)
@given(codes_over_drawn_moduli())
def test_class_route_matches_naive_transform(ds):
    assert _weights_analytic(ds).tolist() == _weights_naive(ds).tolist()

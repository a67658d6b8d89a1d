"""Property tests: the weight routes agree on drawn codes."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qcode.codes import _weights_analytic, _weights_naive, defining_set  # noqa: E402
from qcode.counting import get_field  # noqa: E402
from qcode.errors import EmptyDefiningSetError  # noqa: E402
from qcode.quadform import analyze, preset_cor1, preset_trace_square_minus  # noqa: E402

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

import pathlib
import sys

import pytest

from oracles import embed_scalar, l_apply

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


class BruteSolutions:
    """x_b, f(x_b) and z0 of a form by search over GF(q), as an oracle
    that reads neither FormAnalysis's solve matrix nor its tables: x_b is
    the smallest x with L(x) = -b/2 (oracles.l_apply), f(x_b) comes from f.evaluate,
    and z0 is found by trying every z against the image set.  Meant for
    q <= 7^3."""

    def __init__(self, an):
        F = self.F = an.ctx
        neg_half = F.neg(embed_scalar(F, (F.p + 1) // 2))
        smallest = {}
        for x in F.elements():
            smallest.setdefault(l_apply(an, x), x)
        self._xb = [smallest.get(F.mul(neg_half, b)) for b in F.elements()]
        self._fxb = [None if x is None else an.f.evaluate(x) for x in self._xb]

    def xb(self, b):
        return self._xb[b]

    def in_image(self, b):
        return self._xb[b] is not None

    def f_xb(self, b):
        return self._fxb[b]

    def z0(self, alpha, beta):
        F = self.F
        hits = [z for z in range(1, F.p)
                if self.in_image(F.sub(alpha, F.scalar_mul(z, beta)))]
        assert len(hits) <= 1, hits
        return hits[0] if hits else None


@pytest.fixture(scope="session")
def brute():
    """BruteSolutions: build one per analysis, brute(an)."""
    return BruteSolutions

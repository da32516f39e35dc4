"""A failing identity names the basis triple, pair or index where its
residual peaks.  One table entry is perturbed per identity, and the
reported location is pinned, so that a rewrite of the contraction behind
a check cannot move the argmax (a transposed right-hand side would)."""

import pytest

from weakhopf import examples as ex
from weakhopf.algebra import StarAlgebra, make_star_algebra
from weakhopf.errors import (
    ActionAxiomViolation,
    AssociativityViolation,
    StarViolation,
)
from weakhopf.modules import make_module_algebra


def _m3():
    return ex.matrix_algebra(3)[0]


def test_associativity_location():
    A = _m3()
    mult = A.mult.copy()
    mult[1, 3, 0] = 1.5                      # E12 E21 := 1.5 E11
    with pytest.raises(AssociativityViolation) as info:
        make_star_algebra(mult, A.unit, A.star, labels=A.labels)
    assert info.value.where == ("E12", "E21", "E12")


def test_star_antimultiplicativity_location():
    A = _m3()
    star = A.star.copy()
    star[4, 4] = -1.0                        # E22* := -E22, still involutive
    with pytest.raises(StarViolation, match="antimultiplicative") as info:
        make_star_algebra(A.mult, A.unit, star, labels=A.labels)
    assert info.value.where == ("E12", "E22")


def test_module_product_law_location():
    W, MA = ex.m2_pauli_action()
    M = MA.target
    mult = M.mult.copy()
    mult[1, 2, 0] += 0.25
    skewed = StarAlgebra(mult, M.unit, M.star, labels=M.labels)
    with pytest.raises(ActionAxiomViolation, match="product law") as info:
        make_module_algebra(W, skewed, MA.act)
    assert info.value.where == (2, 1, 2, 3)


def test_unit_coproduct_splitting_location():
    W, MA = ex.m2_pauli_action()
    D1 = W.delta_one().copy()
    D1[2, 5] += 0.25
    W._cache["D1"] = D1          # only the splitting check reads Delta(1)
    with pytest.raises(ActionAxiomViolation, match="splitting") as info:
        make_module_algebra(W, MA.target, MA.act)
    assert info.value.where == (0, 2, 2)


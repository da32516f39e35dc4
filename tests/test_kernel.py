"""Every rewritten contraction against its reference np.einsum formula.

The reference formulas live only in this file.  Random complex tensors take
a different size on every index the contraction lets vary, so that a
swapped axis fails on shape or on value.  Identities that are evaluated
inline inside a verifier are compared through the residual and location
that the verifier reports when a perturbed table makes it fail.
"""

import ast
import math
import string
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakhopf import _checks, _contract
from weakhopf import _linalg as la
from weakhopf import algebra as al
from weakhopf import crossed as cr
from weakhopf import hopf
from weakhopf import examples as ex
from weakhopf import modules as mo
from weakhopf import tower as tw
from weakhopf._checks import residual
from weakhopf._contract import (accumulate, contract, dense_step, difference, evaluate, join,
                                join_size, listed, pair_products)
from weakhopf.algebra import (
    StarAlgebra,
    Subspace,
    make_star_algebra,
    subalgebra_on_basis,
)
from weakhopf.config import tolerance
from weakhopf.errors import (
    ActionAxiomViolation,
    AssociativityViolation,
    AxiomViolation,
    StarViolation,
    UnitViolation,
)
from weakhopf.hopf import AxiomReport, WeakHopfAlgebra, verify_weak_hopf
from weakhopf.integrals import LeftIntegral, dual_integral
from weakhopf.modules import (
    ModuleAlgebra,
    _counital_rows,
    _quasi_basis_system,
    galois_test,
    hopf_adjoint_table,
    implementer_space,
    invariant_state,
    make_module_algebra,
    quasi_basis,
    to_coaction,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, ref):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(got - ref).max()) <= 1e-12 * scale


def _peak(gap):
    """(max, argmax index) of |gap| as the verifiers report them."""
    gap = np.abs(gap)
    return float(gap.max()), tuple(int(x) for x in
                                   np.unravel_index(int(gap.argmax()), gap.shape))


def _assert_reports(exc, gap):
    worst, where = _peak(gap)
    assert exc.residual == pytest.approx(worst, rel=1e-12)
    assert exc.where == where


# ---------------------------------------------------------------------------
# the shared kernels


def test_pair_products(rng):
    mult, xs, ys = _rand(rng, 5, 5, 5), _rand(rng, 5, 3), _rand(rng, 5, 4)
    _close(pair_products(mult, xs, ys), np.einsum("ia,jb,ijk->abk", xs, ys, mult))


def _split(coef, act, table):
    """The declared chain of the product law's (3-index coef) or the
    splitting's (2-index coef) right side over a given act-mult table
    [v, a, q, k]."""
    if coef.ndim == 3:
        return ("ivpa,vaqk->ipqk", ("iuv,upa->ivpa", "coef", "act"), table)
    return ("vpa,vaqk->pqk", ("uv,upa->vpa", "coef", "act"), table)


def _dense_value(chain, tables):
    """The value of a chain through dense_step, one step at a time: the
    steps of the dense path of evaluate, on whole tables."""
    if isinstance(chain, str):
        return tables[chain]
    return dense_step(chain[0], *(_dense_value(c, tables) for c in chain[1:]))


def _dense_split(coef, act, mult, table=None):
    """_split on the dense path: over the act-mult table given as a
    (v * a, q * k) matrix, or formed from act and mult."""
    tables = {"coef": coef, "act": act, "mult": mult}
    if table is None:
        return _dense_value(_split(coef, act, mo.ACT_MULT), tables)
    tables["table"] = table.reshape(act.shape[0], mult.shape[0], act.shape[1], mult.shape[2])
    return _dense_value(_split(coef, act, "table"), tables)


def _act_mult(act, mult):
    """The act-mult table [(v, a), (q, k)] = sum_b act[v, q, b] mult[a, b, k]."""
    nv, nq, _ = act.shape
    na, _, nk = mult.shape
    return np.matmul(act[:, None], mult[None]).reshape(nv * na, nq * nk)


def test_split_product(rng):
    # the right sides of the product law and the splitting on the dense path
    act = _rand(rng, 3, 4, 5)                 # [u, p, a]
    mult = _rand(rng, 5, 5, 6)                # [a, b, k]
    cop, d1 = _rand(rng, 2, 3, 3), _rand(rng, 3, 3)
    _close(_dense_split(cop, act, mult),
           np.einsum("iuv,upa,vqb,abk->ipqk", cop, act, act, mult))
    _close(_dense_split(d1, act, mult),
           np.einsum("uv,upa,vqb,abk->pqk", d1, act, act, mult))


def _full_split(coef, act, mult, table):
    """The reference product in the association of the declared chains
    (coef . act over u, then the table over (v, a)), each stage one sum of
    products per entry (np.einsum without BLAS), in which every 0 * NaN and
    0 * inf term stays NaN; a BLAS product may skip a zero factor."""
    nv, npq, na = act.shape
    lead = "i" if coef.ndim == 3 else ""
    left = np.einsum(f"{lead}uv,upa->{lead}vpa", coef, act)
    return np.einsum(f"{lead}vpa,vaqk->{lead}pqk", left,
                     table.reshape(nv, na, npq, mult.shape[2]))


def test_split_product_subtracts_from_out(rng, force_dense):
    # the dense path subtracts the two sides of the product law and the
    # splitting in place, also where cop has zero v legs: the residual and
    # location are those of the whole difference, and no table is written
    force_dense()
    act, mult = _rand(rng, 4, 3, 3), _rand(rng, 3, 3, 3)
    for zero_legs in (True, False):
        cop = _rand(rng, 4, 4, 4)
        if zero_legs:
            cop[:, :, 1] = 0
            cop[[0, 2], :, 3] = 0
        tables = {"cop": cop, "act": act, "mult": mult, "D1": cop[1]}
        kept = {k: t.copy() for k, t in tables.items()}
        product, splitting = evaluate(tables, mo.PRODUCT_LAW, mo.SPLITTING)
        for k, t in kept.items():
            np.testing.assert_array_equal(tables[k], t)
        gap = np.einsum("pqr,irk->ipqk", mult, act) \
            - np.einsum("iuv,upa,vqb,abk->ipqk", cop, act, act, mult)
        assert product[0] == pytest.approx(_peak(gap)[0], rel=1e-12)
        assert product[1] == _peak(gap)[1]
        gap = mult - np.einsum("uv,upa,vqb,abk->pqk", cop[1], act, act, mult)
        assert splitting[0] == pytest.approx(_peak(gap)[0], rel=1e-12)
        assert splitting[1] == _peak(gap)[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_split_product_keeps_non_finite_table_rows(rng, bad):
    # 0 * NaN and 0 * inf are NaN: a non-finite row of the table in a block
    # v where every item's coef is zero still makes column 4 NaN
    act, mult = _rand(rng, 4, 3, 5), _rand(rng, 5, 5, 6)
    cop = _rand(rng, 3, 4, 4)
    cop[:, :, 1] = 0
    cop[2] = 0
    table = _act_mult(act, mult)
    table[1 * 5 + 2, 4] = bad                 # row (v, a) = (1, 2)
    with np.errstate(invalid="ignore"):
        ref = _full_split(cop, act, mult, table)
        got = _dense_split(cop, act, mult, table)
    assert np.isnan(ref.reshape(3, 3, 18)[:, :, 4]).all()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_split_product_keeps_non_finite_actions(rng, bad):
    # a non-finite action entry spreads to every block through coef . act
    act, mult = _rand(rng, 4, 3, 5), _rand(rng, 5, 5, 6)
    cop = _rand(rng, 3, 4, 4)
    cop[:, :, 1] = 0
    act[2, 1, 3] = bad
    with np.errstate(invalid="ignore"):
        ref = _full_split(cop, act, mult, _act_mult(act, mult))
        got = _dense_split(cop, act, mult)
    assert not np.isfinite(ref).all()
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(ref))
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))


FINITE = [0.0, 1.0, -2.5, 1e-300, 3e7]
NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def _split_operands(draw):
    nr, nv, npq, na, nk = (draw(st.integers(lo, 3)) for lo in (0, 1, 0, 1, 0))
    complex_ = draw(st.booleans())

    def table(*shape):
        real = hnp.arrays(float, shape, elements=st.sampled_from(FINITE))
        t = draw(real)
        if complex_:
            t = t.astype(complex)
            t.imag = draw(real)
        return t

    coef = table(nr, nv, nv) if draw(st.booleans()) else table(nv, nv)
    legs = draw(hnp.arrays(bool, coef.shape[:-2] + (1, nv)))   # zero v legs
    coef = np.where(legs, 0, coef)
    act, tab = table(nv, npq, na), table(nv * na, npq * nk)
    for name in draw(st.lists(st.sampled_from(["coef", "act", "table"]), max_size=2)):
        t = {"coef": coef, "act": act, "table": tab}[name]
        if t.size:
            t.flat[draw(st.integers(0, t.size - 1))] = draw(st.sampled_from(NON_FINITE))
    return coef, act, np.zeros((na, na, nk)), tab


@settings(max_examples=300, deadline=None, database=None)
@given(_split_operands())
def test_split_product_agrees_with_the_full_product(operands):
    """The dense path of the product law's and the splitting's chains over
    random shapes, zero v legs of coef and NaN/inf entries in coef, act or
    the table: the product is non-finite where the exact reference is, NaN
    where it is on real tables, and equal to rounding elsewhere (on complex
    tables, NaN or inf depends on the multiplication kernel)."""
    coef, act, mult, table = operands
    with np.errstate(invalid="ignore", over="ignore"):
        ref = _full_split(coef, act, mult, table)
        got = _dense_split(coef, act, mult, table)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(ref))
    if not np.iscomplexobj(ref):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    finite = np.isfinite(ref)
    scale = 1.0
    for t in (coef, act, table):
        scale *= float(np.abs(t[np.isfinite(t)]).max(initial=1.0))
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-12 * scale)


def test_join_pairs_every_equal_key():
    ka, kb = np.array([2, 0, 2, 5]), np.array([2, 1, 2, 0, 7])
    ia, ib = join(ka, kb)
    assert list(zip(ia.tolist(), ib.tolist())) == [(0, 0), (0, 2), (1, 3), (2, 0), (2, 2)]
    assert join_size(ka, kb) == ia.size == 5


def test_accumulate_sums_each_key_in_order():
    keys = np.array([3, 1, 3, 3, 0])
    values = np.array([1, 2j, 1e16, -1e16, 4])
    got = accumulate(keys, values)
    assert got[0].tolist() == [0, 1, 3]
    # (1 + 1e16) - 1e16 rounds to 0: the values are summed in their order
    assert got[1].tolist() == [4, 2j, 0]
    keys, sums = accumulate(keys, values.real)
    assert sums.dtype == float and sums.tolist() == [4, 0, 0]


def test_empty_nonzero_sets_give_a_zero_residual():
    empty = np.zeros(0, dtype=np.intp)
    assert join_size(empty, np.arange(3)) == 0
    assert all(a.size == 0 for a in join(empty, np.arange(3)) + join(np.arange(3), empty))
    keys, sums = accumulate(empty, np.zeros(0, complex))
    assert keys.size == sums.size == 0 and residual(sums) == 0.0
    keys, values = listed(np.zeros((3, 3, 3), complex))
    assert keys.size == values.size == 0
    # all-zero tables are monomial: Ia and Ic run over empty lists
    n = 3
    zero = np.zeros((n, n, n), complex)
    W = WeakHopfAlgebra(StarAlgebra(zero, np.ones(n), np.eye(n)), zero, np.ones(n), np.eye(n))
    rep = verify_weak_hopf(W)
    assert rep.residuals["Ia"] == 0.0 and rep.residuals["Ic"] == 0.0


def _listed(table):
    """The nonzero list of a table with any number of nonzeros."""
    keys = np.flatnonzero(table)
    return keys, table.ravel()[keys]


def _dense_list(keys, values, shape):
    out = np.zeros(math.prod(shape), dtype=values.dtype)
    out[keys] = values
    return out.reshape(shape)


@st.composite
def _monomial_tables(draw):
    """Two (n, n, n) tables with at most n^2 nonzeros each, real or complex,
    at random places, from entries that include exact cancellations."""
    n = draw(st.integers(1, 4))
    complex_ = draw(st.booleans())

    def table():
        t = np.zeros(n ** 3, complex if complex_ else float)
        at = draw(st.lists(st.integers(0, n ** 3 - 1), max_size=n * n, unique=True))
        for k in at:
            re, im = draw(st.sampled_from(FINITE[1:] + [-1.0])), draw(st.sampled_from(FINITE))
            t[k] = complex(re, im) if complex_ else re
        return t.reshape(n, n, n)

    return table(), table()


def _declared_subscripts():
    """The subscripts of every step the package declares: the first entry of
    each three-entry tuple literal whose first entry holds "->"."""
    found = set()
    for path in Path(_contract.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Tuple) and len(node.elts) == 3:
                first = node.elts[0]
                if isinstance(first, ast.Constant) and "->" in str(first.value):
                    found.add(first.value)
    return sorted(found)


# associativity 2, axioms Ia and Ic 6, the projection identities 3, the
# composition law 2, the product law and the splitting 6, star
# antimultiplicativity 3, the coaction laws 6, covariance 7, the quasi-basis
# identities 6, the translation products 3, the exchange identity 4 and the
# regular homomorphism 3; the chains that build the crossed product's
# product table 4 and its star table 4; and the dual action's descent 2
DECLARED = _declared_subscripts()


def _identities(a, b):
    """Each declared identity over named tables: a as mult, act, rho, tau_r
    and ell, b as cop, the other algebras' products, the antipode tables
    and tau_l, the two-index tables b[0], a[0] and b[-1], the identity, and
    the four-index images, a contracted with b; the einsum reference of
    each side (None for a table); and the scale of its rounding: over both
    sides, the largest product of the largest entries of the tables a term
    multiplies, times n to the number of its summed letters."""
    n = a.shape[0]
    images = np.einsum("ijk,klm->ijlm", a, b)
    tables = {"mult": a, "act": a, "cop": b, "mult_A": b, "xS(y)": b, "S^-1(y)x": b,
              "D1": b[0], "conj(mult)": np.conj(a), "star": b[0], "rho": a,
              "mult_hat": b, "em": b[0], "ea": a[0], "S": b[-1], "table": b[0],
              "tensor": a[0], "eye": np.eye(n), "tau_r": a, "tau_l": b, "ell": a,
              "images": images, "mult_X": b}
    ma, mb, m1, m2, m3, m4 = (float(np.abs(t).max()) for t in (a, b, b[0], a[0], b[-1],
                                                              images))
    t1 = np.einsum("iaz,axy->ixyz", b, b)
    split = "upa,vqb,abk->"
    refs = [
        (al.ASSOCIATIVITY, (np.einsum("ijp,pkq->ijkq", a, a), np.einsum("jkp,ipq->ijkq", a, a)),
         ma ** 2 * n),
        (hopf.IA, (np.einsum("iab,jcd,acu,bdv->iujv", b, b, a, a, optimize=True),
                   np.einsum("ijk,kuv->iujv", a, b)), (ma * mb) ** 2 * n ** 3),
        (hopf.IC, (t1, np.einsum("ixb,byz->ixyz", b, b)), mb ** 2 * n),
        (hopf.PROJECTION_R, (np.einsum("ixyz,yzq->ixq", t1, b),
                             np.einsum("kix,kq->ixq", a, b[0])),
         max(mb ** 3 * n ** 2, ma * mb * n)),
        (hopf.PROJECTION_L_INV, (np.einsum("ixyz,yzq->ixq", t1, b),
                                 np.einsum("ikx,kq->ixq", a, b[0])),
         max(mb ** 3 * n ** 2, ma * mb * n)),
        (mo.COMPOSITION, (np.einsum("ijr,rpq->ijpq", b, a), np.einsum("jps,isq->ijpq", a, a)),
         max(ma * mb, ma ** 2) * n),
        (mo.PRODUCT_LAW, (np.einsum("pqr,irk->ipqk", a, a),
                          np.einsum("iuv," + split + "ipqk", b, a, a, a, optimize=True)),
         max(ma ** 2 * n, mb * ma ** 3 * n ** 3)),
        (mo.SPLITTING, (None, np.einsum("uv," + split + "pqk", b[0], a, a, a, optimize=True)),
         max(ma, mb * ma ** 3 * n ** 3)),
        (al.ANTIMULTIPLICATIVITY, (np.einsum("ijk,kl->ijl", np.conj(a), b[0]),
                                   np.einsum("ja,ib,abl->ijl", b[0], b[0], a)),
         max(ma * m1 * n, m1 ** 2 * ma * n ** 2)),
        (mo.COASSOCIATIVITY, (np.einsum("pqi,qrj->pirj", a, a), np.einsum("prk,kji->pirj", a, b)),
         max(ma, mb) * ma * n),
        (mo.MULTIPLICATIVITY, (np.einsum("pqr,rsk->pqsk", a, a),
                               np.einsum("pai,abs,qbj,ijk->pqsk", a, a, a, b, optimize=True)),
         max(ma ** 2 * n, ma ** 3 * mb * n ** 4)),
        (cr.COVARIANCE, (np.einsum("apq,kq->apk", a, b[0]),
                         np.einsum("auv,yw,wv,zu,cp,zcx,xyk->apk", b, a[0], b[-1], a[0], b[0],
                                   a, a, optimize=True)),
         max(ma * m1 * n, mb * m2 ** 2 * m3 * m1 * ma ** 2 * n ** 7)),
        *((identity, (np.einsum(ref, a[0], a, b[0], a, optimize=True), None),
           max(1.0, m2 * m1 * ma ** 2 * n ** 4))
          for identity, ref in zip(cr.QUASI_BASIS, ("pq,qmk,zk,pzs->ms", "pq,mpk,zk,zqs->ms"))),
        (cr.TRANSLATIONS[0], (np.einsum("sab,tbc->stac", a, b), np.einsum("tab,sbc->stac", b, a)),
         ma * mb * n),
        (cr.TRANSLATIONS[1], (np.einsum("sab,tbc->stac", a, a), np.einsum("stw,wac->stac", b, a)),
         max(ma, mb) * ma * n),
        (cr.TRANSLATIONS[2], (np.einsum("sab,tbc->stac", b, b), np.einsum("stw,wac->stac", b, b)),
         mb ** 2 * n),
        (cr.EXCHANGE, (np.einsum("iab,sbc->isac", a, b),
                       np.einsum("ujs,ijk,uab,kbc->isac", b, b, b, a, optimize=True)),
         max(ma * mb * n, mb ** 3 * ma * n ** 4)),
        (cr.HOMOMORPHISM, (np.einsum("xpab,yqbc,pqr->xaycr", images, images, a, optimize=True),
                           np.einsum("xyg,grac->xaycr", b, images)),
         max(m4 ** 2 * ma * n ** 3, mb * m4 * n)),
    ]
    return tables, refs


def _chain_scale(chain, tables):
    """The scale of the rounding of a chain that builds a table: the product
    of the largest entry of each table it reads, times the size of each
    letter it sums over, which bounds the sum of the magnitudes of the terms
    of each entry."""
    word = chain[0].split("->")[1]
    nodes = list(_contract._nodes(chain, word))
    scale = math.prod(float(np.abs(tables[c]).max(initial=0)) for c, _ in nodes
                      if isinstance(c, str))
    sizes = {x: d for c, w in nodes if isinstance(c, str) for x, d in zip(w, tables[c].shape)}
    return scale * math.prod(d for x, d in sizes.items() if x not in word)


@settings(max_examples=300, deadline=None, database=None)
@given(_monomial_tables())
def test_nonzero_lists_agree_with_einsum(tables):
    """contract and dense_step take every subscript the package declares as
    einsum does, join_size counts the pairs before they are formed, a join
    over one slice gives None and None passes through contract and
    difference; over nonzero lists and on the dense path, each side of
    every declared identity is its einsum reference, and the residual of
    the identity is that of the references; and each chain that builds a
    table is its einsum reference, on the lists and on dense slices, within
    the rounding of its own terms (_chain_scale), the list it keeps is that
    of its dense array, and row_maxima reads each row's largest entry; and a
    gathered table's list is that of its dense array."""
    a, b = tables
    n = a.shape[0]
    dims = dict.fromkeys(string.ascii_letters, n)

    def close(got, ref, scale):
        # sums of products of large entries cancel to rounding of their size
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * max(1.0, scale))

    # each operand of a declared subscript is a table of its arity: b[0], a,
    # the four-index contraction of a and b, the five-index one of a, b
    # and a or the six-index one of a, b, a and b, and the same with a and
    # b swapped; "ijp,jpq->ijq" keeps a letter that both operands carry
    assert len(DECLARED) == 61
    pools = [{2: x[0], 3: y, 4: np.einsum("ijk,klm->ijlm", y, x),
              5: np.einsum("ijk,klm,mpq->ijlpq", y, x, y),
              6: np.einsum("ijk,klm,mpq,qrs->ijlprs", y, x, y, x)}
             for x, y in ((b, a), (a, b))]
    for subscripts in DECLARED + ["ijp,jpq->ijq"]:
        inputs, out = subscripts.split("->")
        sx, sy = inputs.split(",")
        x, y = pools[0][len(sx)], pools[1][len(sy)]
        ref = np.einsum(subscripts, x, y)
        scale = n * n * float(np.abs(x).max()) * float(np.abs(y).max())
        got = contract(subscripts, _listed(x), _listed(y), dims)
        close(_dense_list(*got, (n,) * len(out)), ref, scale)
        close(dense_step(subscripts, x, y), ref, scale)

    x, y = listed(a), listed(b)
    ak, bi = x[0] % n, y[0] // (n * n)
    ia, ib = join(ak, bi)
    assert join_size(ak, bi) == ia.size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_checks, "SLICE_BYTES", 16 * ia.size - 1)
        assert contract("ijp,pkq->ijkq", x, y, dims) is None
    assert contract("ijp,pkq->ijkq", None, y, dims) is None
    assert contract("ijp,pkq->ijkq", x, None, dims) is None
    assert difference(None, y) is None and difference(x, None) is None

    # a table gathered along each axis at repeated positions out of order,
    # its list read from a's
    index = np.arange(2 * n)[::-1] % n
    for axis in range(3):
        got, want = _contract.gathered(a, axis, index), np.moveaxis(a, axis, 0)[index]
        assert got.shape == want.shape and np.array_equal(got.dense, want)
        kept = got.nonzeros()
        assert (kept is None) == (np.count_nonzero(want) > 2 * n * n)
        if kept is not None:
            assert np.array_equal(kept[0], _listed(want)[0])
            assert np.array_equal(kept[1], _listed(want)[1])

    # each chain that builds a table, on the lists and on dense slices, and
    # the largest entry of each row of what it builds
    named = {"cop[js]": b, "act[ps]": a, "multm[ps]": b, "multa[js]": a, "proj": b,
             "stara[js]": b[0], "starm[ps]": a[0], "cop": b, "act": a, "rel": a}
    builds = [(cr.PRODUCT, np.einsum("Auw,Bur,Ars,Bwk,Csk->ABC", b, a, b, a, b, optimize=True)),
              (cr.STAR, np.einsum("Ax,xuw,Aq,uqr,Crw->AC", b[0], b, a[0], a, b, optimize=True)),
              (cr.DESCENT, np.einsum("Cpo,kos,cpk->sCc", b, b, a, optimize=True))]
    for gate in (_listed, lambda table: None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_contract, "listed", gate)
            for chain, ref in builds:
                got = _contract.build(chain, named)
                close(got.dense, ref, _chain_scale(chain, named))
                assert np.array_equal(_contract.row_maxima(got),
                                      np.abs(got.dense).reshape(n, -1).max(axis=1, initial=0))
                if gate is _listed:
                    kept = got.nonzeros()
                    assert (kept is None) == (np.count_nonzero(got.dense) > n * n)
                    if kept is not None:
                        want = _listed(got.dense)
                        assert np.array_equal(kept[0], want[0])
                        assert np.array_equal(kept[1], want[1])

    # every table passes the list gate in the first pass (the einsum
    # references have up to n^4 nonzeros) and none in the second
    named, refs = _identities(a, b)
    for gate in (_listed, lambda table: None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_contract, "listed", gate)
            for identity, sides, scale in refs:
                bound = 1e-12 * max(1.0, scale)
                for side, ref in zip(identity, sides):
                    if ref is not None:
                        (worst, _), = evaluate(dict(named, ref=ref), (side, "ref"))
                        assert worst <= bound
                lhs, rhs = (named[side] if ref is None else ref
                            for side, ref in zip(identity, sides))
                gap = lhs - rhs
                (worst, _), = evaluate(named, identity)
                assert worst == pytest.approx(float(np.abs(gap).max(initial=0)),
                                              rel=1e-12, abs=bound)


def test_a_letter_read_at_two_sizes_is_refused():
    tables = {"x": np.ones((2, 3)), "y": np.ones((4, 5))}
    with pytest.raises(ValueError, match="letter j is read at sizes 3 and 4"):
        evaluate(tables, (("ij,jk->ik", "x", "y"), ("ij,jk->ik", "x", "y")))
    # the sizes of one call hold across its identities
    tables = {"w": np.ones((4, 4)), "z": np.ones((2, 2))}
    with pytest.raises(ValueError, match="letter i is read at sizes 4 and 2"):
        evaluate(tables, ("z", ("ij,jk->ik", "z", "z")), ("w", ("ij,jk->ik", "w", "w")))


# ---------------------------------------------------------------------------
# StarAlgebra on a contiguous table


def test_star_algebra_from_transposed_view(rng):
    base = _rand(rng, 4, 4, 4)
    view = base.transpose(2, 0, 1)
    assert not view.flags.c_contiguous
    A = StarAlgebra(view, _rand(rng, 4), _rand(rng, 4, 4))
    assert A.mult.flags.c_contiguous
    x, y = _rand(rng, 4), _rand(rng, 4)
    _close(A.product_coords(x, y), np.einsum("i,j,ijk->k", x, y, view))
    _close(A.left_mult_matrix(x), np.einsum("i,ijk->kj", x, view))
    _close(A.right_mult_matrix(x), np.einsum("j,ijk->ki", x, view))
    tr = np.einsum("kjj->k", view)
    _close(A.trace_gram(), np.einsum("ip,pjk,k->ij", A.star, view, tr))


def test_associativity_residual(rng):
    mult = _rand(rng, 4, 4, 4)
    ref = np.einsum("ijp,pkq->ijkq", mult, mult) - np.einsum("jkp,ipq->ijkq", mult, mult)
    with pytest.raises(AssociativityViolation) as info:
        make_star_algebra(mult, np.eye(4)[0], np.eye(4))
    worst, (i, j, k, _) = _peak(ref)
    assert info.value.residual == pytest.approx(worst, rel=1e-12)
    assert info.value.where == (f"e{i}", f"e{j}", f"e{k}")


def test_unit_law_residual(rng):
    A = ex.matrix_algebra(2)[0]
    unit = A.unit + 1e-3 * _rand(rng, 4)
    lu = np.einsum("i,ijk->jk", unit, A.mult) - np.eye(4)
    ru = np.einsum("j,ijk->ik", unit, A.mult) - np.eye(4)
    with pytest.raises(UnitViolation) as info:
        make_star_algebra(A.mult, unit, A.star, labels=A.labels)
    assert info.value.residual == pytest.approx(
        max(np.abs(lu).max(), np.abs(ru).max()), rel=1e-12)


def test_antimultiplicativity_residual(rng):
    A = ex.matrix_algebra(2)[0]
    b = _rand(rng, 4, 4)
    star = b @ np.linalg.inv(np.conj(b))          # involutive, not antimultiplicative
    ref = np.einsum("ijk,kl->ijl", np.conj(A.mult), star) \
        - np.einsum("jp,iq,pql->ijl", star, star, A.mult)
    with pytest.raises(StarViolation, match="antimultiplicative") as info:
        make_star_algebra(A.mult, A.unit, star, labels=A.labels)
    worst, (i, j, _) = _peak(ref)
    assert info.value.residual == pytest.approx(worst, rel=1e-12)
    assert info.value.where == (A.labels[i], A.labels[j])


def test_certify_and_subalgebra_on_basis(rng):
    A = ex.matrix_algebra(3)[0]
    diag = np.eye(9)[:, [0, 4, 8]]                 # E11, E22, E33
    S = Subspace(A, diag @ np.linalg.qr(_rand(rng, 3, 3))[0], orthonormalize=False)
    assert S.certify() == {"subalgebra": True, "star_closed": True, "unital": True}

    sub, B = subalgebra_on_basis(A, diag @ _rand(rng, 3, 3))
    _close(sub.mult, np.einsum("ia,jb,ijk,kc->abc", B, B, A.mult, B.conj()))
    _close(sub.star, np.einsum("ia,ik,kc->ac", B.conj(), A.star, B.conj()))

    # E12, E21 span no subalgebra: the first failing pair is reported
    span = np.eye(9)[:, [1, 3]] @ _rand(rng, 2, 2)
    B = la.orth(span)
    prods = np.einsum("ia,jb,ijk->abk", B, B, A.mult)
    first = next((a, b) for a in range(2) for b in range(2)
                 if not la.contains(B, prods[a, b].reshape(-1, 1)))
    with pytest.raises(AssociativityViolation) as info:
        subalgebra_on_basis(A, span)
    assert info.value.where == first


# ---------------------------------------------------------------------------
# module algebras


def test_module_algebra_maps(rng):
    hopf = types.SimpleNamespace(dim=3)
    target = types.SimpleNamespace(dim=4, unit=_rand(rng, 4))
    MA = ModuleAlgebra(hopf, target, _rand(rng, 3, 4, 4))
    a, m = _rand(rng, 3), _rand(rng, 4)
    _close(MA.act_op(a), np.einsum("i,ipq->qp", a, MA.act))
    _close(MA.apply_coords(a, m), np.einsum("i,ipq,p->q", a, MA.act, m))
    _close(MA.act_on_unit(), np.einsum("ipq,p->iq", MA.act, target.unit))
    proj = _rand(rng, 3, 3)
    ref = np.vstack([np.einsum("i,ipq->qp", np.eye(3)[i] - proj[:, i], MA.act)
                     for i in range(3)])
    _close(_counital_rows(MA, proj), ref)


@pytest.fixture
def pauli_parts():
    W, MA = ex.m2_pauli_action()          # W dim 16 on M dim 4
    return W, MA.target, MA.act


def test_composition_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    act = act + 1e-3 * _rand(rng, *act.shape)
    ref = np.einsum("ijr,rpq->ijpq", W.alg.mult, act) \
        - np.einsum("jpr,irq->ijpq", act, act)
    with pytest.raises(ActionAxiomViolation, match="composition") as info:
        make_module_algebra(W, M, act)
    _assert_reports(info.value, ref)


def test_product_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    mult = M.mult + 1e-3 * _rand(rng, 4, 4, 4)
    skewed = StarAlgebra(mult, M.unit, M.star)
    ref = np.einsum("pqr,irk->ipqk", mult, act) \
        - np.einsum("iuv,upa,vqb,abk->ipqk", W.cop, act, act, mult)
    with pytest.raises(ActionAxiomViolation, match="product law") as info:
        make_module_algebra(W, skewed, act)
    _assert_reports(info.value, ref)


def test_product_law_fails_under_a_conjugated_action(rng, pauli_parts):
    # act'_u = P act_u P^-1 keeps the composition and unit laws, not the
    # product law; the dense product must report the reference residual
    W, M, act = pauli_parts
    P = np.eye(4) + 0.05 * _rand(rng, 4, 4)
    moved = P @ act @ np.linalg.inv(P)
    composition = np.einsum("ijr,rpq->ijpq", W.alg.mult, moved) \
        - np.einsum("jpr,irq->ijpq", moved, moved)
    assert np.abs(composition).max() < 1e-12
    assert np.abs(np.tensordot(W.alg.unit, moved, 1) - np.eye(4)).max() < 1e-12
    ref = np.einsum("pqr,irk->ipqk", M.mult, moved) \
        - np.einsum("iuv,upa,vqb,abk->ipqk", W.cop, moved, moved, M.mult)
    with pytest.raises(ActionAxiomViolation, match="product law fails") as info:
        make_module_algebra(W, M, moved)
    _assert_reports(info.value, ref)


def test_star_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    star = M.star + 1e-3 * _rand(rng, 4, 4)
    skewed = StarAlgebra(M.mult, M.unit, star)
    lower = W.alg.star.T @ np.conj(W.antipode)
    ref = np.einsum("ipq,qr->ipr", np.conj(act), star) \
        - np.einsum("ui,ps,usr->ipr", lower, star, act)
    with pytest.raises(ActionAxiomViolation, match="star law") as info:
        make_module_algebra(W, skewed, act)
    _assert_reports(info.value, ref)


def test_unit_splitting_residual(rng):
    W, MA = ex.m2_pauli_action()
    d1 = W.delta_one() + 1e-3 * _rand(rng, 16, 16)
    W._cache["D1"] = d1          # only the splitting check reads Delta(1)
    ref = np.einsum("uv,upa,vqb,abk->pqk", d1, MA.act, MA.act, MA.target.mult) \
        - MA.target.mult
    with pytest.raises(ActionAxiomViolation, match="splitting") as info:
        make_module_algebra(W, MA.target, MA.act)
    _assert_reports(info.value, ref)


def test_coaction_law_residuals(rng, pauli_parts):
    W, M, act = pauli_parts
    Wd = W.dual()
    rho = np.transpose(act, (1, 2, 0))

    # the dual's Delta(1) is not symmetric here, so both weak unit laws
    # see a transposed factor
    to_coaction(ModuleAlgebra(W, M, act))

    def rejected(match, mult=M.mult, unit=M.unit, star=M.star):
        skewed = ModuleAlgebra(W, StarAlgebra(mult, unit, star), act)
        with pytest.raises(ActionAxiomViolation, match=match) as info:
            to_coaction(skewed)
        return info.value.residual

    mult = M.mult + 1e-3 * _rand(rng, 4, 4, 4)
    ref = np.einsum("pqr,rsi->pqsi", mult, rho) \
        - np.einsum("pai,qbj,abs,ijk->pqsk", rho, rho, mult, Wd.alg.mult)
    assert rejected("multiplicative", mult=mult) == pytest.approx(np.abs(ref).max(), rel=1e-12)

    star = M.star + 1e-3 * _rand(rng, 4, 4)
    ref = np.einsum("pr,rsi->psi", star, rho) \
        - np.einsum("pqi,qs,ij->psj", np.conj(rho), star, Wd.alg.star)
    assert rejected("star-preserving", star=star) == pytest.approx(np.abs(ref).max(), rel=1e-12)

    unit = M.unit + 1e-3 * _rand(rng, 4)
    rho1 = np.einsum("p,pqi->qi", unit, rho)
    ref = np.einsum("ak,qu,auj->qjk", Wd.delta_one(), rho1, Wd.alg.mult) \
        - np.einsum("qi,ijk->qjk", rho1, Wd.cop)
    assert rejected("weak unit law fails", unit=unit) == pytest.approx(np.abs(ref).max(), rel=1e-12)


def test_hopf_adjoint_table():
    W = ex.m2_pauli_action()[0]
    ref = np.einsum("iuv,upr,qv,rqs->ips", W.cop, W.alg.mult, W.antipode, W.alg.mult,
                    optimize=True)
    _close(hopf_adjoint_table(W), ref)


def test_implementer_space(pauli_parts):
    W, M, act = pauli_parts
    MA = ModuleAlgebra(W, M, act)
    da, dm = W.dim, M.dim
    ct = np.zeros((da, dm, dm, da, dm), dtype=complex)
    idx = np.arange(da)
    ct[idx, :, :, idx, :] = np.einsum("pjs->jsp", M.mult)[np.newaxis]
    x = np.einsum("iuv,uqm,jm->iqvj", W.cop, act, np.eye(dm))
    ct -= np.einsum("iqvj,jps->iqsvp", x, M.mult)
    ref = la.null_space(ct.reshape(da * dm * dm, da * dm))
    got = implementer_space(MA)
    assert got.shape == ref.shape and ref.shape[1] > 0
    assert la.span_equal(got, ref)


def test_gns_gram():
    _, MA = ex.m2_inner_z2_action()
    M = MA.target
    tr = M.trace_vector()
    gns = invariant_state(MA, tr / (tr @ M.unit))
    _close(gns.gram, np.einsum("ps,sqt,t->pq", M.star, M.mult, gns.omega))


def test_quasi_basis_system(rng):
    n = 5
    M = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    table = _rand(rng, n, n)
    a1 = np.einsum("qmr,tr,pts->mspq", M.mult, table, M.mult).reshape(n * n, n * n)
    a2 = np.einsum("mpr,tr,tqs->mspq", M.mult, table, M.mult).reshape(n * n, n * n)
    sys, rhs = _quasi_basis_system(M, table)
    _close(sys, np.vstack([a1, a2]))
    _close(rhs, np.concatenate([np.eye(n).reshape(-1)] * 2))


def test_galois_support_and_rank():
    _, MA = ex.m2_collapsed_action()          # not Galois: p != 1
    X = cr.crossed_product(MA)
    XA, em = X.algebra, X.embed_m
    eh = X.embed_a @ MA.hopf.haar().h.coords
    sandwiches = np.einsum("au,b,abc,dv,cdk->uvk", em, eh, XA.mult, em, XA.mult,
                           optimize=True)
    tensor = quasi_basis(MA.haar_expectation()).tensor
    p, galois, rank = galois_test(MA)
    assert not galois
    _close(p.coords, np.einsum("uv,uvk->k", tensor, sandwiches))
    assert rank == np.linalg.matrix_rank(sandwiches.reshape(-1, XA.dim), tol=1e-9)


# ---------------------------------------------------------------------------
# crossed products


@pytest.fixture
def pauli_crossed():
    _, MA = ex.m2_pauli_action()
    return MA, cr.crossed_product(MA)


def test_crossed_structure_constants(pauli_crossed, selection):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    dm, da = M.dim, W.dim
    reps = selection(X)
    prods = np.einsum("piA,qjB,iuv,uqr,prs,vjk->ABsk", reps, reps, W.cop, MA.act,
                      M.mult, W.alg.mult, optimize=True)
    _close(X.algebra.mult, np.einsum("ABsk,Csk->ABC", prods, X.proj.reshape(X.dim, dm, da)))
    dstar = np.einsum("ic,cuv->iuv", W.alg.star, W.cop)
    sbig = np.einsum("iuv,ps,usr->pirv", dstar, M.star, MA.act)
    sbig = sbig.reshape(dm * da, dm * da).T
    _close(X.algebra.star, (X.proj @ sbig @ reps.reshape(dm * da, X.dim)).T)


def test_embeddings(pauli_crossed):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    blocks = X.proj.reshape(X.dim, M.dim, W.dim)
    _close(X.embed_m, np.einsum("dpi,i->dp", blocks, W.alg.unit))
    _close(X.embed_a, np.einsum("dpi,p->di", blocks, M.unit))


def test_covariance_residual(rng, pauli_crossed):
    MA, X = pauli_crossed
    W, XA = MA.hopf, X.algebra
    rel_basis = cr._structure(MA)[1]
    act = MA.act + 1e-3 * _rand(rng, *MA.act.shape)
    skewed = ModuleAlgebra(W, MA.target, act)
    skewed._cache.update(MA._cache)          # keep the unperturbed image data
    X.base = skewed
    em, ea = X.embed_m, X.embed_a
    lhs = np.einsum("ipq,dq->dip", act, em)
    rhs = np.einsum("iuv,au,bp,abc,ew,wv,ced->dip", W.cop, ea, em, XA.mult,
                    ea, W.antipode, XA.mult, optimize=True)
    with pytest.raises(AxiomViolation, match="covariance") as info:
        X._verify(rel_basis, np.transpose(W.cop, (2, 1, 0)))
    assert info.value.residual == pytest.approx(np.abs(lhs - rhs).max(), rel=1e-10)


def test_hat_expectation_table(pauli_crossed, selection):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    lam = W.haar().hhat
    E = cr.hat_expectation(X, lam)
    mulam = MA.image_data().mu @ np.einsum("ios,s->oi", W.cop, lam.coords)
    ref = np.einsum("piA,ri,prs->sA", selection(X), mulam, M.mult)
    _close(E.m_table, ref)
    _close(E.table, X.embed_m @ ref)
    _close(E.index.coords, np.einsum("AB,ABC->C", E.canonical_tensor, X.algebra.mult))
    l_dual = dual_integral(LeftIntegral(W.dual(), lam))
    dl = W.delta_coords(l_dual.element.coords)
    _close(E.canonical_tensor, np.einsum("uv,Av,Bu->AB", dl, X.embed_a,
                                         X.embed_a @ W.antipode_inv()))


def test_quasi_basis_residual(rng):
    n = 5
    mult = _rand(rng, n, n, n)
    table, tensor = _rand(rng, n, n), _rand(rng, n, n)
    a1 = np.einsum("pq,qmr,tr,pts->ms", tensor, mult, table, mult)
    a2 = np.einsum("pq,mpr,tr,tqs->ms", tensor, mult, table, mult)
    tables = {"mult": mult, "table": table, "tensor": tensor, "eye": np.eye(n)}
    for got, ref in zip(evaluate(tables, *cr.QUASI_BASIS), (a1, a2)):
        assert got[0] == pytest.approx(np.abs(ref - np.eye(n)).max(), rel=1e-12)


def test_regular_rep_blocks(rng, pauli_crossed, selection):
    MA, X = pauli_crossed
    reg = cr.regular_homomorphism(X)
    M, A = MA.target, MA.hopf.alg
    dm, da = M.dim, A.dim
    _close(reg.ell, np.stack([np.einsum("i,ijk->kj", e, A.mult) for e in np.eye(da)]))
    xs, ys = _rand(rng, 3, dm, da, da), _rand(rng, 2, dm, da, da)
    _close(reg.block_product(xs[0], ys[0]),
           np.einsum("pab,qbc,pqr->rac", xs[0], ys[0], M.mult))
    _close(reg._block_products(xs, ys),
           np.einsum("spab,tqbc,pqr->stacr", xs, ys, M.mult))
    hhat = MA.hopf.haar().hhat.coords
    _close(reg.gram_a, np.einsum("ip,pjk,k->ij", A.star, A.mult, hhat))
    _close(reg.images, np.einsum("piC,pqs,sab,ibc->Cqac", selection(X), MA.coaction(),
                                 reg.tau_l, reg.ell, optimize=True))
    adjs = reg.gram_a_inv @ np.conj(xs).swapaxes(-1, -2) @ reg.gram_a
    _close(reg.block_star(xs), np.einsum("rq,srab->sqab", M.star, adjs))
    _close(reg.block_star(xs[1]), np.einsum("rq,rab->qab", M.star, adjs[1]))


def test_regular_rep_residuals(rng, pauli_crossed):
    MA, X = pauli_crossed
    W = MA.hopf
    Wd, A = W.dual(), W.alg
    reg = cr.regular_homomorphism(X)

    tau_r = reg.tau_r
    reg.tau_r = tau_r + 1e-3 * _rand(rng, *tau_r.shape)
    lhs = np.einsum("sAC,Cqac->sAqac", X.as_module.act, reg.images)
    rhs = np.einsum("suv,uab,Aqbc,wv,wcd->sAqad", Wd.cop, reg.tau_r, reg.images,
                    Wd.antipode, reg.tau_r, optimize=True)
    worst = np.abs(lhs - rhs).max()
    assert reg.intertwining_residual() == pytest.approx(worst, rel=1e-10)

    reg.tau_r = tau_r
    reg.ell = reg.ell + 1e-3 * _rand(rng, *reg.ell.shape)
    ref = np.einsum("iab,sbc->isac", reg.ell, reg.tau_l) \
        - np.einsum("ujs,ijk,uab,kbc->isac", A.mult, W.cop, reg.tau_l, reg.ell,
                    optimize=True)
    with pytest.raises(AxiomViolation, match="exchange") as info:
        reg._check_translations(W, Wd)
    assert info.value.residual == pytest.approx(np.abs(ref).max(), rel=1e-12)


# ---------------------------------------------------------------------------
# the weak Hopf axiom suite


def _mx(t):
    return float(np.abs(t).max()) if t.size else 0.0


def _reference_suite(W, tol=None):
    """verify_weak_hopf written with one np.einsum per term: residuals and
    antipode invertibility."""
    A, cop, eps, smat = W.alg, W.cop, W.counit, W.antipode
    mult, unit, n = A.mult, A.unit, A.dim
    r = {}

    sv = np.linalg.svd(smat, compute_uv=False)
    s_invertible = bool(sv.size and sv[-1] > tolerance(tol) * max(1.0, sv[0]))
    sinv = np.linalg.inv(smat) if s_invertible else None

    # multiplicativity / star / coassociativity
    lhs = np.einsum("ijr,ruv->ijuv", mult, cop)
    rhs = np.einsum("iab,jcd,acu,bdv->ijuv", cop, cop, mult, mult, optimize=True)
    r["Ia"] = _mx(lhs - rhs)

    lhs = np.einsum("ip,puv->iuv", A.star, cop)
    rhs = np.einsum("iab,au,bv->iuv", np.conj(cop), A.star, A.star, optimize=True)
    r["Ib"] = _mx(lhs - rhs)

    t1 = np.einsum("iaz,axy->ixyz", cop, cop)
    t2 = np.einsum("ixb,byz->ixyz", cop, cop)
    r["Ic"] = _mx(t1 - t2)

    D1 = np.einsum("i,ijk->jk", unit, cop)
    D3 = np.einsum("az,axy->xyz", D1, cop)
    idp = np.einsum("xb,cz,bcy->xyz", D1, D1, mult, optimize=True)
    idq = np.einsum("uz,xb,uby->xyz", D1, D1, mult, optimize=True)
    r["Id"] = _mx(idp - D3)
    r["Id_prime"] = _mx(idq - D3)
    r["coproduct_one_commutator"] = _mx(idp - idq)

    eye = np.eye(n)
    r["IIa"] = max(_mx(np.einsum("ijk,j->ik", cop, eps) - eye),
                   _mx(np.einsum("ijk,k->ij", cop, eps) - eye))

    E2 = np.einsum("ijr,r->ij", mult, eps)
    E3 = np.einsum("ijr,rks,s->ijk", mult, mult, eps, optimize=True)
    r["IIb"] = _mx(E3 - np.einsum("juv,iu,vk->ijk", cop, E2, E2, optimize=True))
    r["IIb_prime"] = _mx(E3 - np.einsum("juv,iv,uk->ijk", cop, E2, E2, optimize=True))

    # antipode axioms; the counital maps provide the right-hand sides
    sxy = np.einsum("iuv,pu,pvq->qi", cop, smat, mult, optimize=True)   # S(x1)x2
    xys = np.einsum("iuv,pv,upq->qi", cop, smat, mult, optimize=True)   # x1 S(x2)
    r["IIIa"] = _mx(sxy - np.einsum("qv,iv->qi", D1, E2))
    r["IIIb"] = _mx(xys - np.einsum("uq,ui->qi", D1, E2))
    sand = np.einsum("ixyz,px,pyq,rz,qrs->si", t1, smat, mult, smat, mult,
                     optimize=True)
    r["IIIc"] = _mx(sand - smat)

    rec = np.einsum("ixyz,py,xpq,qzs->si", t1, smat, mult, mult, optimize=True)
    r["coproduct_antipode_recovery"] = _mx(rec - eye)

    lhs = np.einsum("ijr,sr->sij", mult, smat)
    rhs = np.einsum("pj,qi,pqs->sij", smat, smat, mult, optimize=True)
    r["antipode_antimultiplicative"] = _mx(lhs - rhs)

    lhs = np.einsum("ri,ruv->iuv", smat, cop)
    rhs = np.einsum("iab,ub,va->iuv", cop, smat, smat, optimize=True)
    r["antipode_coproduct_flip"] = _mx(lhs - rhs)

    if s_invertible:
        lhs = A.star.T @ np.conj(smat) @ np.conj(A.star).T
        r["antipode_star_inverse"] = _mx(lhs - sinv)

        lhs = np.einsum("ixyz,px,pyq->iqz", t1, smat, mult, optimize=True)
        rhs = np.einsum("qv,ivz->iqz", D1, mult)
        r["projection_identity_L"] = _mx(lhs - rhs)

        lhs = np.einsum("ixyz,pz,ypq->ixq", t1, smat, mult, optimize=True)
        rhs = np.einsum("uv,uiq->iqv", D1, mult)
        r["projection_identity_R"] = _mx(lhs - rhs)

        lhs = np.einsum("ixyz,pz,pyq->iqx", t1, sinv, mult, optimize=True)
        rhs = np.einsum("uv,iuz->ivz", D1, mult)
        r["projection_identity_L_inv"] = _mx(lhs - rhs)

        lhs = np.einsum("ixyz,px,ypq->izq", t1, sinv, mult, optimize=True)
        rhs = np.einsum("uv,viq->iqu", D1, mult)
        r["projection_identity_R_inv"] = _mx(lhs - rhs)

        # the four counital factorizations and their sandwich laws
        EL = np.einsum("jik,k->ij", mult, eps)
        ER = np.einsum("ijk,k->ij", mult, eps)
        hEL = np.einsum("kis,k->si", cop, unit)
        hER = np.einsum("kis,k->is", cop, unit)
        r["counital_SL"] = _mx(sxy - hER @ EL)
        r["counital_LS"] = _mx(xys - hEL @ ER)
        siyx = np.einsum("iuv,pv,puq->qi", cop, sinv, mult, optimize=True)
        xsiy = np.einsum("iuv,pu,vpq->qi", cop, sinv, mult, optimize=True)
        r["counital_Linv"] = _mx(siyx - hEL @ EL)
        r["counital_Rinv"] = _mx(xsiy - hER @ ER)
        sandwich = 0.0
        for a in (EL, ER):
            for b in (hEL, hER):
                sandwich = max(sandwich, _mx(a @ b @ a - a))
        sandwich_hat = 0.0
        for a in (hEL, hER):
            for b in (EL, ER):
                sandwich_hat = max(sandwich_hat, _mx(a @ b @ a - a))
        r["counital_sandwich"] = sandwich
        r["counital_sandwich_hat"] = sandwich_hat
    else:
        for k in ["antipode_star_inverse", "projection_identity_L",
                  "projection_identity_R", "projection_identity_L_inv",
                  "projection_identity_R_inv", "counital_SL", "counital_LS",
                  "counital_Linv", "counital_Rinv", "counital_sandwich",
                  "counital_sandwich_hat"]:
            r[k] = float("inf")

    # positivity of the counit as a state
    geps = np.einsum("ip,pjk,k->ij", A.star, mult, eps, optimize=True)
    herm = _mx(geps - geps.conj().T)
    lam = np.linalg.eigvalsh((geps + geps.conj().T) / 2).min()
    r["counit_positive"] = max(herm, float(max(0.0, -lam)))

    return r, s_invertible


def _random_weak_hopf(rng, n, singular):
    """Random complex tables; not a weak Hopf algebra, so every residual
    is of order one.  A singular antipode repeats a column."""
    alg = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    smat = _rand(rng, n, n)
    if singular:
        smat[:, -1] = smat[:, 0]
    return WeakHopfAlgebra(alg, _rand(rng, n, n, n), _rand(rng, n), smat)


def _assert_suite_matches(W, **approx):
    ref, invertible = _reference_suite(W)
    rep = verify_weak_hopf(W)
    assert rep.antipode_invertible == invertible
    assert list(rep.residuals) == list(ref)
    for key, value in ref.items():
        assert rep.residuals[key] == pytest.approx(value, **approx), key


@pytest.mark.parametrize("singular", [False, True])
def test_axiom_suite_random_tables(rng, singular):
    W = _random_weak_hopf(rng, 5, singular)
    _assert_suite_matches(W, rel=1e-12)
    if singular:
        assert verify_weak_hopf(W).residuals["projection_identity_L"] == np.inf


def test_axiom_suite_builtin_instances(all_instances):
    for W in all_instances.values():
        for V in (W, W.dual()):
            _assert_suite_matches(V, rel=1e-12, abs=1e-14)


def test_axiom_suite_broken_counit(rng, wz3s3):
    W = wz3s3
    shift = 1e-3 * _rand(rng, W.dim)
    broken = WeakHopfAlgebra(W.alg, W.cop, W.counit + shift, W.antipode)
    _assert_suite_matches(broken, rel=1e-12, abs=1e-14)
    failures = verify_weak_hopf(broken).failures()
    assert failures and failures == AxiomReport(*_reference_suite(broken)).failures()


def _sparse_weak_hopf(rng, n, density):
    """Random tables with exact zeros at random places: at density 0.15 they
    mostly have at most n^2 nonzeros and the suite runs over nonzero lists,
    at 0.4 the dense path runs."""
    W = _random_weak_hopf(rng, n, False)
    mult, cop = (t * (rng.random(t.shape) < density) for t in (W.alg.mult, W.cop))
    return WeakHopfAlgebra(StarAlgebra(mult, W.alg.unit, W.alg.star), cop,
                           W.counit, W.antipode)


def _monomial_copy(W, rng):
    """W on the basis f_a = sum_i P[i, a] e_i for a permutation times
    phases P, which keeps every exact zero of the tables."""
    n = W.dim
    P = np.zeros((n, n), dtype=complex)
    P[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
    Q = P.conj().T
    A = W.alg
    mult = np.einsum("ia,jb,ijk,ck->abc", P, P, A.mult, Q, optimize=True)
    star = np.einsum("ia,ik,ck->ac", P.conj(), A.star, Q, optimize=True)
    cop = np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True)
    return WeakHopfAlgebra(StarAlgebra(mult, Q @ A.unit, star), cop,
                           P.T @ W.counit, Q @ W.antipode @ P)


@pytest.mark.parametrize("density", [0.15, 0.4])
def test_axiom_suite_sparse_random_tables(rng, density):
    for _ in range(3):
        _assert_suite_matches(_sparse_weak_hopf(rng, 6, density), rel=1e-12, abs=1e-14)


def test_axiom_suite_monomial_basis(rng, wz3s3):
    V = _monomial_copy(wz3s3, rng)
    assert np.count_nonzero(V.cop) == np.count_nonzero(wz3s3.cop)
    for U in (V, V.dual()):
        _assert_suite_matches(U, rel=1e-12, abs=1e-14)
    assert verify_weak_hopf(V).passed()


def test_axiom_suite_broken_coproduct_fails_ia(wz3s3, joins, force_dense):
    # one exact zero of the coproduct becomes 1e-3: a new entry of the
    # coproduct's nonzero list; the dense path reports the same residuals
    cop = wz3s3.cop.copy()
    cop[tuple(np.argwhere(cop == 0)[len(cop) // 2])] = 1e-3
    broken = WeakHopfAlgebra(wz3s3.alg, cop, wz3s3.counit, wz3s3.antipode)
    _assert_suite_matches(broken, rel=1e-12, abs=1e-14)
    ref = _reference_suite(broken)[0]["Ia"]
    assert ref >= 1e-4
    del joins[:]
    rep = verify_weak_hopf(broken)
    assert rep.residuals["Ia"] == pytest.approx(ref, rel=1e-12)
    assert "Ia" in rep.failures() and len(joins) == 10
    force_dense()
    dense = verify_weak_hopf(broken)
    assert dense.failures() == rep.failures()
    for key, value in dense.residuals.items():
        assert rep.residuals[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def test_ia_is_self_dual(rng, all_instances):
    # Ia of the dual is Ia of W with its four indices permuted
    tables = dict(all_instances, random=_random_weak_hopf(rng, 5, False),
                  sparse=_sparse_weak_hopf(rng, 6, 0.3))
    for name, W in tables.items():
        ia, ia_dual = (verify_weak_hopf(V).residuals["Ia"] for V in (W, W.dual()))
        assert ia == pytest.approx(ia_dual, rel=1e-12, abs=1e-15), name


def test_structure_maps(rng):
    W = _random_weak_hopf(rng, 5, False)
    x = _rand(rng, 5)
    _close(W.delta_coords(x), np.einsum("i,ijk->jk", x, W.cop))
    mult, cop, eps, unit = W.alg.mult, W.cop, W.counit, W.alg.unit
    _close(W.counital("L"), np.einsum("jik,k->ij", mult, eps))
    _close(W.counital("R"), np.einsum("ijk,k->ij", mult, eps))
    _close(W.counital("hL"), np.einsum("kis,k->si", cop, unit))
    _close(W.counital("hR"), np.einsum("kis,k->is", cop, unit))


def _first_failure(fn):
    """(where, residual) of the AxiomViolation fn raises, or None."""
    try:
        fn()
    except AxiomViolation as exc:
        return exc.where, exc.residual
    return None


def _reference_boundary(W, side, t=1e-9):
    """The checks of boundary_subalgebra as loops over basis vectors."""
    A, D1 = W.alg, W.delta_one()
    S = W.boundary(side)
    for j, a in enumerate(S.basis.T):
        da = np.einsum("i,ijk->jk", a, W.cop)
        if side == "L":
            t1 = np.einsum("pq,up->uq", D1, A.left_mult_matrix(a))
            t2 = np.einsum("pq,up->uq", D1, A.right_mult_matrix(a))
        else:
            t1 = np.einsum("pq,vq->pv", D1, A.left_mult_matrix(a))
            t2 = np.einsum("pq,vq->pv", D1, A.right_mult_matrix(a))
        gap = max(_mx(da - t1), _mx(da - t2))
        if gap > t:
            return (side, j), gap
    other = W.boundary("R" if side == "L" else "L")
    for i, x in enumerate(S.basis.T):
        for j, y in enumerate(other.basis.T):
            gap = _mx(A.product_coords(x, y) - A.product_coords(y, x))
            if gap > t:
                return (i, j), gap
    return None


def _reference_mu_iso(W, side, t=1e-9):
    """The *-homomorphism checks of mu_iso as loops over basis pairs."""
    Wd = W.dual()
    dom = W.boundary("R" if side == "L" else "L")
    fwd = W.counital(side)
    for i, x in enumerate(dom.basis.T):
        for j, y in enumerate(dom.basis.T):
            gap = _mx(fwd @ W.alg.product_coords(x, y)
                      - Wd.alg.product_coords(fwd @ x, fwd @ y))
            if gap > 100 * t:
                return (side, i, j), gap
        gap = _mx(fwd @ W.alg.star_coords(x) - Wd.alg.star_coords(fwd @ x))
        if gap > 100 * t:
            return (side, i), gap
    return None


def _orthogonal_to_leading(cols, k):
    """A unit vector u with sum_a cols[a, i] u[a] = 0 for i < k but not
    for i = k, so that a perturbation along u spares the first k columns."""
    N = la.null_space(cols[:, :k].T)
    u = N @ (N.conj().T @ cols[:, k].conj())
    assert abs(cols[:, k] @ u) > 1e-3
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("broken", ["coproduct", "product", "commutant"])
def test_boundary_subalgebra_residual(rng, side, broken):
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    S, other = W.boundary(side), W.boundary("R" if side == "L" else "L")
    W.delta_one()
    # the coproduct and product changes reach only the last basis vector
    last = S.basis[:, -1].conj()
    if broken == "coproduct":
        W.cop = W.cop + 1e-3 * np.einsum("i,jk->ijk", last, _rand(rng, W.dim, W.dim))
    elif broken == "product":
        # x y changes only when x is off the boundary: the leg of Delta(1)
        # times a moves, a times that leg does not
        w = la.null_space(S.basis.T) @ _rand(rng, W.dim - S.dim)
        W.alg.mult = W.alg.mult + 1e-3 * np.einsum("a,b,c->abc", w, last,
                                                   _rand(rng, W.dim))
    else:
        other.basis = la.orth(other.basis + 1e-3 * _rand(rng, *other.basis.shape))
    ref = _reference_boundary(W, side)
    assert ref is not None
    if broken != "commutant":
        assert ref[0] == (side, S.dim - 1)
    where, residual = _first_failure(lambda: hopf.boundary_subalgebra(W, side))
    assert where == ref[0]
    assert residual == pytest.approx(ref[1], rel=1e-12)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("broken", ["mult", "star", "both"])
def test_mu_iso_residual(rng, side, broken):
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    Wd = W.dual()
    dom = W.boundary("R" if side == "L" else "L")
    Wd.boundary("L"), Wd.boundary("R")
    img = W.counital(side) @ dom.basis
    k = dom.dim - 1
    u = _orthogonal_to_leading(img, k)
    if broken in ("mult", "both"):
        # the products of basis vector k grow with the second factor, so
        # the first failing pair is not the worst one
        v = np.linalg.lstsq(img.T, np.linspace(0.2, 1.0, dom.dim), rcond=None)[0]
        Wd.alg.mult = Wd.alg.mult + 1e-3 * np.einsum(
            "a,b,c->abc", u, v, _rand(rng, W.dim))
    if broken in ("star", "both"):
        Wd.alg.star = Wd.alg.star + 1e-3 * np.outer(u.conj(), _rand(rng, W.dim))
    ref = _reference_mu_iso(W, side)
    assert ref is not None and ref[0][1:] == ((k, 0) if broken != "star" else (k,))
    where, residual = _first_failure(lambda: hopf.mu_iso(W, side))
    assert where == ref[0]
    assert residual == pytest.approx(ref[1], rel=1e-12)


# ---------------------------------------------------------------------------
# towers


@pytest.mark.parametrize("dominant", [0, 1])
def test_jones_relation_residual(rng, dominant):
    # e x e against E(x) e (term 0) and against e E(x) (term 1); the
    # perturbation is drawn until the named term carries the maximum
    _, MA = ex.m2_inner_z2_action()
    T = tw.build_tower(MA, 2)
    lv = T.levels[3]
    XA, e0, incl = lv.algebra, lv.jones, lv.include
    ex_ = incl @ T.levels[2].expectation                       # E(x), columns
    for _ in range(100):
        e = e0 + 1e-3 * _rand(rng, XA.dim)
        exe = np.einsum("a,xp,axc,b,cbd->dp", e, incl, XA.mult, e, XA.mult)
        terms = [np.abs(exe - np.einsum("xp,b,xbd->dp", ex_, e, XA.mult)).max(),
                 np.abs(exe - np.einsum("a,xp,axd->dp", e, ex_, XA.mult)).max()]
        if terms[dominant] > 1.05 * terms[1 - dominant]:
            break
    else:
        pytest.fail("no perturbation separates the two terms")
    lv.jones = e
    with pytest.raises(AxiomViolation, match="Jones") as info:
        tw._verify_jones_relations(T)
    assert info.value.residual == pytest.approx(max(terms), rel=1e-10)

"""Associativity, the module composition and product laws, the
unit-coproduct splitting and the other declared identities over nonzero
lists (the list path of weakhopf._contract.evaluate), and the pure-tensor
quotient basis of the crossed product that keeps Pauli tower levels
monomial.

A check on a monomial table must take the list path and report what the
dense sliced path reports: the same exception, message and location, and
the same residual up to rounding.  Haar-random, non-finite and over-slice
tables must take the dense path.  The product and star tables that a
crossed product builds, on nonzero lists or on dense slices, must be those
of a dense assembly written out by hand (_assemble).  The readers of a
level built on lists (weakhopf.algebra.ListedAlgebra) must give what the
same readers give on its dense tables, and no dense table may be formed
for them."""

import json
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakhopf import _checks, _contract
from weakhopf import _linalg as la
from weakhopf import algebra as al
from weakhopf import cli
from weakhopf import serialize as ser
from weakhopf import modules as mo
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import tower as tw
from weakhopf.algebra import StarAlgebra, make_star_algebra
from weakhopf.config import DEFAULT_TOL, SLACK_COMPOSITE
from weakhopf.errors import (ActionAxiomViolation, AssociativityViolation, AxiomViolation,
                             NoSolution)
from weakhopf.hopf import WeakHopfAlgebra
from weakhopf.modules import make_module_algebra


def _monomial_unitary(rng, n):
    """A permutation times phases: it keeps every exact zero of the tables."""
    P = np.zeros((n, n), dtype=complex)
    P[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
    return P


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rebased_algebra(A, U):
    """The tables of A on the basis f_a = sum_i U[i, a] e_i."""
    V = np.linalg.inv(U)
    mult = np.einsum("ia,jb,ijk,ck->abc", U, U, A.mult, V, optimize=True)
    star = np.einsum("ia,ik,ck->ac", U.conj(), A.star, V, optimize=True)
    return mult, V @ A.unit, star


def _rebased_module(MA, P, U):
    """MA with W on the basis P and M on the basis U."""
    W, M = MA.hopf, MA.target
    Q, V = np.linalg.inv(P), np.linalg.inv(U)
    cop = np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True)
    Wp = WeakHopfAlgebra(StarAlgebra(*_rebased_algebra(W.alg, P)), cop,
                         P.T @ W.counit, Q @ W.antipode @ P)
    act = np.einsum("ub,pa,upq,cq->bac", P, U, MA.act, V, optimize=True)
    return make_module_algebra(Wp, StarAlgebra(*_rebased_algebra(M, U)), act)


def _outcome(fn):
    with pytest.raises(Exception) as info:
        fn()
    exc = info.value
    return type(exc), str(exc).split(",")[0], exc.where, exc.residual


def _same_outcome(listed, dense):
    assert listed[:3] == dense[:3]
    if np.isnan(dense[3]):
        assert np.isnan(listed[3])
    else:
        assert listed[3] == pytest.approx(dense[3], rel=1e-12, abs=1e-15)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(31)


@pytest.fixture(scope="module")
def pauli_level():
    """The dim-16 crossed product of the Pauli action: 128 nonzeros."""
    return cr.crossed_product(ex.named_action("m2-pauli")).algebra


@pytest.fixture(scope="module")
def pauli_seed():
    return ex.named_action("m2-pauli")


# ---------------------------------------------------------------------------
# the pure-tensor quotient basis


def test_pivoted_columns_take_the_largest_remaining_column():
    a = np.array([[1.0, 0.0, 3.0, 1.0], [0.0, 2.0, 0.0, 1.0]])
    # column 2 first (norm 3), then column 1 (norm 2 once column 2 is out)
    assert la.pivoted_columns(a, 2).tolist() == [1, 2]
    # tied columns go to the lowest index; picking every column takes all
    assert la.pivoted_columns(np.eye(3)[:, [2, 0, 1]], 1).tolist() == [0]
    assert la.pivoted_columns(np.eye(3)[:, [2, 0, 1]], 3).tolist() == [0, 1, 2]


def _whole_loop(a, k):
    """The picks of the Businger-Golub loop run on the whole matrix, one
    column at a time, as pivoted_columns ran before it split by blocks."""
    rest = np.array(a, dtype=complex)
    picks = []
    for _ in range(k):
        norms = (rest.real ** 2 + rest.imag ** 2).sum(axis=0)
        norms[picks] = 0.0
        j = int(np.argmax(norms >= (1 - 1e-8) * norms.max()))
        picks.append(j)
        q = rest[:, j] / np.sqrt(norms[j])
        rest -= np.outer(q, q.conj() @ rest)
    return sorted(picks)


def test_pivoted_columns_never_pick_a_column_twice():
    # once column 0 is out, its rounding remainder outweighs the tiny
    # column 1, which is the one independent column left
    a = np.array([[0.7, 0.0, 0.0], [0.6, 0.0, 0.0], [0.5, 1e-20, 0.0]])
    assert la.pivoted_columns(a, 2).tolist() == [0, 1]


def test_pivoted_columns_refuse_more_columns_than_are_independent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolution, match="no independent column is left"):
            la.pivoted_columns(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), 2)
        # blockwise: two blocks of rank 1 with four rows each, whose
        # remainders vanish exactly
        with pytest.raises(NoSolution, match="no independent column is left"):
            la.pivoted_columns(np.kron(np.eye(2), np.ones((4, 5))), 8)


# entries whose column norms tie exactly
_ENTRIES = [0, 1, -1, 1j, -1j, 1 + 1j, 2]


@st.composite
def _block_diagonal(draw):
    """A matrix made block diagonal from blocks of p rows and at least p
    columns, with its rows and columns in random order."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                           min_size=1, max_size=5))
    m, n = sum(p for p, _ in shapes), sum(p + e for p, e in shapes)
    a = np.zeros((m, n), dtype=complex)
    i = j = 0
    for p, e in shapes:
        size = p * (p + e)
        entries = draw(st.lists(st.sampled_from(_ENTRIES), min_size=size, max_size=size))
        a[i:i + p, j:j + p + e] = np.reshape(entries, (p, p + e))
        i, j = i + p, j + p + e
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(n)))
    return a[np.ix_(rows, cols)]


@settings(max_examples=150, deadline=None, database=None)
@given(_block_diagonal())
def test_blockwise_picks_are_those_of_the_whole_loop(a):
    m = a.shape[0]
    assume(np.linalg.matrix_rank(a) == m)
    assert la.pivoted_columns(a, m).tolist() == _whole_loop(a, m)


@pytest.mark.parametrize("basis", ["natural", "monomial"])
def test_pauli_tower_levels_are_monomial(basis):
    MA = ex.named_action("m2-pauli")
    if basis == "monomial":
        rng = np.random.default_rng(3)
        MA = _rebased_module(MA, _monomial_unitary(rng, MA.hopf.dim),
                             _monomial_unitary(rng, MA.target.dim))
    X1 = cr.crossed_product(MA)
    X2 = cr.crossed_product(X1.as_module)
    assert [np.count_nonzero(X.algebra.mult) for X in (X1, X2)] == [128, 512]
    assert (X1.dim, X2.dim) == (16, 64)


@pytest.mark.parametrize("basis", ["natural", "monomial"])
def test_the_pauli_tower_takes_no_dense_slice(tmp_path, capsys, basis, dense_steps):
    # every check and table of the depth-2 tower, with its depth-2 check
    # and report, stays within the list gate: no step runs dense
    MA = ex.named_action("m2-pauli")
    if basis == "monomial":
        rng = np.random.default_rng(3)
        MA = _rebased_module(MA, _monomial_unitary(rng, MA.hopf.dim),
                             _monomial_unitary(rng, MA.target.dim))
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(ser.module_algebra_record(MA)))
    assert cli.main(["tower", "--seed", str(path), "--depth", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 4, 16, 64]
    assert dense_steps == []


def test_s3_all_takes_no_dense_slice(tmp_path, capsys, dense_steps):
    # verify, report and integrals of C[S3] x_Ad S3 (dim 36) and of its dual
    W = ex.group_weak_hopf(ex.symmetric_group_3(), list(range(6)))
    for V in (W, W.dual()):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(ser.weak_hopf_record(V)))
        for command in ("verify", "report", "integrals"):
            assert cli.main([command, str(path)]) == 0, command
    capsys.readouterr()
    assert dense_steps == []


def test_quotient_basis_is_a_pure_tensor_selection(pauli_seed, selection):
    X = cr.crossed_product(pauli_seed)
    M, A = pauli_seed.target, pauli_seed.hopf.alg
    reps = selection(X)
    picked = np.argwhere(reps == 1)                                    # [p, i, B]
    assert sorted(picked[:, 2].tolist()) == list(range(X.dim))
    assert X.algebra.labels == [f"{M.labels[p]}#{A.labels[i]}" for p, i, _ in picked]
    assert np.array_equal(X.proj @ reps.reshape(-1, X.dim), np.eye(X.dim))
    assert np.abs(X.proj @ cr._structure(pauli_seed)[1]).max() < 1e-12
    # every class of a pure tensor is a multiple of one picked class
    assert (np.count_nonzero(X.proj, axis=0) <= 1).all()


# ---------------------------------------------------------------------------
# associativity


def test_monomial_associativity_takes_nonzero_lists(pauli_level, rng, joins, dense_steps):
    # associativity joins twice, star antimultiplicativity three times
    A = pauli_level
    make_star_algebra(A.mult, A.unit, A.star)
    assert len(joins) == 5 and not dense_steps
    # the same algebra in a Haar-random basis runs the dense path
    del joins[:]
    make_star_algebra(*_rebased_algebra(A, _haar_unitary(rng, A.dim)))
    assert not joins and len(dense_steps) == 5


def test_associativity_beyond_one_slice_takes_the_dense_path(pauli_level, monkeypatch, joins):
    A = pauli_level
    monkeypatch.setattr(_checks, "SLICE_BYTES", 1)
    make_star_algebra(A.mult, A.unit, A.star)
    assert not joins


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_associativity_takes_the_dense_path(pauli_level, joins, bad):
    A = pauli_level
    mult = A.mult.copy()
    mult[3, 5, 7] = bad
    with np.errstate(invalid="ignore"):
        exc = _outcome(lambda: make_star_algebra(mult, A.unit, A.star))
    assert not joins
    assert exc[0] is AssociativityViolation and np.isnan(exc[3])


@pytest.mark.parametrize("change", ["perturbed", "added"])
def test_broken_associativity_reports_as_the_dense_path(pauli_level, joins, force_dense,
                                                        change):
    A = pauli_level
    mult = A.mult.copy()
    if change == "perturbed":
        mult[tuple(np.argwhere(mult != 0)[40])] *= 1.001
    else:
        mult[tuple(np.argwhere(mult == 0)[1000])] = 1e-3
    assert np.count_nonzero(mult) <= A.dim ** 2

    def build():
        return make_star_algebra(mult, A.unit, A.star, labels=A.labels)

    listed = _outcome(build)
    assert len(joins) == 5 and listed[0] is AssociativityViolation
    force_dense()
    _same_outcome(listed, _outcome(build))


# ---------------------------------------------------------------------------
# star antimultiplicativity through the conjugating leaf conj(mult)


# the star law reading an explicit conjugated copy of mult under a plain name
STAR_BY_COPY = (("ijk,kl->ijl", "conjugated", "star"), al.ANTIMULTIPLICATIVITY[1])


@pytest.fixture(scope="module")
def complex_level(pauli_level):
    """The tables of the dim-16 Pauli level in a monomial basis with
    phases: still listed, and conjugation moves them."""
    P = _monomial_unitary(np.random.default_rng(7), pauli_level.dim)
    mult, _, star = _rebased_algebra(pauli_level, P)
    assert np.abs(mult.imag).max() > 0.1
    return mult, star


def _star_laws(mult, star):
    """(the star law through conj(mult), the star law through a copy)."""
    (leaf,) = _contract.evaluate({"mult": mult, "star": star}, al.ANTIMULTIPLICATIVITY)
    (copy,) = _contract.evaluate({"mult": mult, "conjugated": np.conj(mult), "star": star},
                                 STAR_BY_COPY)
    return leaf, copy


@pytest.mark.parametrize("change", ["clean", "perturbed"])
def test_conjugating_leaf_reads_as_a_conjugated_copy(complex_level, joins, force_dense,
                                                     change):
    mult, star = complex_level
    mult = mult.copy()
    if change == "perturbed":
        mult[tuple(np.argwhere(mult != 0)[40])] += 0.25
    listed, copy = _star_laws(mult, star)
    assert joins and listed == copy
    del joins[:]
    force_dense()
    dense, copy = _star_laws(mult, star)
    assert not joins and dense == copy
    if change == "clean":
        assert max(listed[0], dense[0]) < 1e-12
    else:
        # both paths give the residual and location of the whole table
        assert dense[0] > 0.2 and listed[1] == dense[1]
        assert listed[0] == pytest.approx(dense[0], rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_fails_the_conjugating_leaf(complex_level, joins, bad):
    mult, star = complex_level
    mult = mult.copy()
    mult[tuple(np.argwhere(mult != 0)[40])] = bad
    with np.errstate(invalid="ignore"):
        leaf, copy = _star_laws(mult, star)
    assert not joins                     # a non-finite table is not listed
    assert np.isnan(leaf[0]) and leaf[1] == copy[1] and np.isnan(copy[0])


# ---------------------------------------------------------------------------
# the module composition and product laws and the unit-coproduct splitting


# the act-mult products [v, a, q, k] that the product law and the splitting share
ACT_MULT = "vqb,abk->vaqk"


def test_monomial_module_laws_take_nonzero_lists(pauli_seed, rng, joins, dense_steps):
    # the composition law joins twice, the product law four times and the
    # splitting twice more, as it shares the act-mult products; the
    # crossed product's dual action is monomial too
    for MA in (pauli_seed, cr.crossed_product(pauli_seed).as_module):
        del joins[:]
        make_module_algebra(MA.hopf, MA.target, MA.act)
        assert len(joins) == 8
    assert not dense_steps
    # a target rotated by a Haar-random unitary runs the dense path, and
    # forms the act-mult products (dim A * dim M^3 entries) once
    del joins[:]
    U = _haar_unitary(rng, pauli_seed.target.dim)
    _rebased_module(pauli_seed, np.eye(pauli_seed.hopf.dim), U)
    assert not joins and dense_steps.count(ACT_MULT) == 1


def test_module_laws_beyond_one_slice_take_the_dense_path(pauli_seed, monkeypatch, joins,
                                                          dense_steps):
    monkeypatch.setattr(_checks, "SLICE_BYTES", 1)
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 1)
    make_module_algebra(pauli_seed.hopf, pauli_seed.target, pauli_seed.act)
    # one row per slice: the act-mult products are still formed once
    assert not joins and dense_steps.count(ACT_MULT) == 1
    assert len(dense_steps) > 2 * pauli_seed.hopf.dim


@pytest.mark.parametrize("table", ["mult", "D1"])
def test_non_finite_module_laws_take_the_dense_path(pauli_seed, joins, table):
    W, M = pauli_seed.hopf, pauli_seed.target
    mult = M.mult.copy()
    V = WeakHopfAlgebra(W.alg, W.cop, W.counit, W.antipode)
    V._cache = dict(W._cache)
    if table == "mult":
        mult[1, 2, 0] = np.nan
    else:
        D1 = W.delta_one().copy()
        D1[2, 5] = np.nan
        V._cache["D1"] = D1
    with np.errstate(invalid="ignore"):
        exc = _outcome(lambda: make_module_algebra(V, StarAlgebra(mult, M.unit, M.star),
                                                   pauli_seed.act))
    law = "product law" if table == "mult" else "unit-coproduct splitting"
    assert exc[0] is ActionAxiomViolation and exc[1].startswith(law)
    assert np.isnan(exc[3])
    # the composition law never reads M's product or Delta(1), and the
    # product law of the NaN D1 still runs over lists; the splitting does not
    assert len(joins) == (2 if table == "mult" else 6)


@pytest.mark.parametrize("change", ["perturbed", "added"])
@pytest.mark.parametrize("law", ["composition law", "product law", "splitting"])
def test_broken_module_laws_report_as_the_dense_path(pauli_seed, joins, force_dense, law,
                                                     change):
    # the seed's action has all dim A * dim M nonzeros its list may hold, so
    # the composition law is broken on the crossed product's dual action,
    # which has 64 of 256
    MA = cr.crossed_product(pauli_seed).as_module if law == "composition law" else pauli_seed
    W, M = MA.hopf, MA.target
    V = WeakHopfAlgebra(W.alg, W.cop, W.counit, W.antipode)
    V._cache = dict(W._cache)
    mult, act = M.mult.copy(), MA.act.copy()
    # the composition law is the first law, and the only one before the
    # product law that reads the action; the product law is the first law
    # that reads M's product, the splitting the only one that reads Delta(1)
    table = {"composition law": act, "product law": mult,
             "splitting": W.delta_one().copy()}[law]
    if change == "perturbed":
        table[tuple(np.argwhere(table != 0)[3])] += 0.25
    else:
        table[tuple(np.argwhere(table == 0)[5])] = 1e-3
    if law == "splitting":
        V._cache["D1"] = table
    assert np.count_nonzero(mult) <= M.dim ** 2
    assert np.count_nonzero(act) <= W.dim * M.dim

    def build():
        return make_module_algebra(V, StarAlgebra(mult, M.unit, M.star), act)

    listed = _outcome(build)
    assert len(joins) == (2 if law == "composition law" else 8)
    assert listed[0] is ActionAxiomViolation and law in listed[1]
    force_dense()
    _same_outcome(listed, _outcome(build))


# ---------------------------------------------------------------------------
# star antimultiplicativity, the coaction laws, covariance, the quasi-basis
# identities and the regular representation's products


def _declared_cases(MA):
    """name: (identity, its tables on the Pauli seed, its crossed product
    or their regular representation, the table to break)."""
    W, M = MA.hopf, MA.target
    Wd = W.dual()
    X = cr.crossed_product(MA)
    A = X.algebra
    E = cr.hat_expectation(X, W.haar().hhat)
    reg = cr.regular_homomorphism(X)
    star = {"mult": A.mult, "star": A.star}
    coaction = {"rho": MA.coaction(), "cop": Wd.cop, "mult": M.mult, "mult_hat": Wd.alg.mult}
    covariance = {"act": MA.act, "em": X.embed_m, "ea": X.embed_a, "S": W.antipode,
                  "cop": W.cop, "mult": A.mult}
    quasi = {"mult": A.mult, "table": E.table, "tensor": E.canonical_tensor,
             "eye": np.eye(A.dim)}
    translations = {"tau_r": reg.tau_r, "tau_l": reg.tau_l, "ell": reg.ell,
                    "mult_hat": Wd.alg.mult, "mult_A": W.alg.mult, "cop": W.cop}
    homomorphism = {"images": reg.images, "mult": M.mult, "mult_X": A.mult}
    return {
        "antimultiplicativity": (al.ANTIMULTIPLICATIVITY, star, "star"),
        "coassociativity": (mo.COASSOCIATIVITY, coaction, "rho"),
        "multiplicativity": (mo.MULTIPLICATIVITY, coaction, "mult"),
        "covariance": (cr.COVARIANCE, covariance, "act"),
        "quasi-basis, left": (cr.QUASI_BASIS[0], quasi, "table"),
        "quasi-basis, right": (cr.QUASI_BASIS[1], quasi, "mult"),
        "translations commute": (cr.TRANSLATIONS[0], translations, "tau_l"),
        "tau_r products": (cr.TRANSLATIONS[1], translations, "tau_r"),
        "tau_l products": (cr.TRANSLATIONS[2], translations, "mult_hat"),
        "exchange": (cr.EXCHANGE, translations, "ell"),
        "homomorphism": (cr.HOMOMORPHISM, homomorphism, "images"),
    }


@pytest.fixture(scope="module")
def declared_cases(pauli_seed):
    return _declared_cases(pauli_seed)


CASES = ["antimultiplicativity", "coassociativity", "multiplicativity", "covariance",
         "quasi-basis, left", "quasi-basis, right", "translations commute", "tau_r products",
         "tau_l products", "exchange", "homomorphism"]


def _broken(tables, key, bad):
    """tables with one nonzero entry of tables[key] shifted by bad."""
    table = tables[key].copy()
    table[tuple(np.argwhere(table != 0)[3])] += bad
    return dict(tables, **{key: table})


def _any_count(table):
    """The nonzero list of a table whatever its number of nonzeros."""
    keys = np.flatnonzero(table)
    return keys, table.ravel()[keys]


@pytest.mark.parametrize("case", CASES)
def test_perturbed_declared_identity_reports_as_the_dense_path(declared_cases, monkeypatch,
                                                              joins, case):
    identity, tables, key = declared_cases[case]
    (clean, _), = _contract.evaluate(tables, identity)
    assert clean < 1e-9
    broken = _broken(tables, key, 0.25)
    monkeypatch.setattr(_contract, "listed", _any_count)
    (listed, at), = _contract.evaluate(broken, identity)
    assert joins and listed > 1e-3
    del joins[:]
    monkeypatch.setattr(_contract, "listed", lambda table: None)
    (dense, dense_at), = _contract.evaluate(broken, identity)
    assert not joins
    assert at == dense_at and listed == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_nan_entry_fails_the_declared_identity(declared_cases, case):
    identity, tables, key = declared_cases[case]
    with np.errstate(invalid="ignore"):
        (worst, _), = _contract.evaluate(_broken(tables, key, np.nan), identity)
    assert np.isnan(worst)


# ---------------------------------------------------------------------------
# the crossed product's tables built on nonzero lists

# the depth-2 seeds of tests/test_tower.py, and dual-s3 (its level-3 crossed
# product has 216 dimensions)
TOWER_SEEDS = ["m2-z2", "m2-collapsed", "m2-pauli", "dual-z2", "dual-z3", "dual-z4",
               "dual-z2xz2", "dual-z2/0,1", "dual-z3/0,1,2", "dual-s3"]


def test_picks_are_those_of_the_whole_loop_on_every_seed(monkeypatch):
    # both crossed products of each depth-2 tower, and the three levels of
    # Pauli depth 3
    same, pick = [], la.pivoted_columns
    monkeypatch.setattr(la, "pivoted_columns",
                        lambda a, k: same.append(pick(a, k).tolist() == _whole_loop(a, k))
                        or pick(a, k))
    for name, depth in [(name, 2) for name in TOWER_SEEDS] + [("m2-pauli", 3)]:
        MA = ex.named_action(name)
        for _ in range(depth):
            MA = cr.crossed_product(MA).as_module
    assert len(same) == 2 * len(TOWER_SEEDS) + 3 and all(same)


def _dual_moves(reps, arrows):
    """f^s |> v for the functionals f^s of arrows[s, o, k] = cop[k, o, s] and
    each representative v of the selection reps[p, i, B], as [s, (p, o), B]:
    f^s |> (m (x) a) = m (x) (f^s -> a)."""
    moved = np.matmul(arrows[:, None], reps)                             # [s, p, o, B]
    return moved.reshape(len(arrows), -1, reps.shape[2])


def _reference_dual_action(X, reps):
    """proj times the moves of the picked pure tensors reps, as [s, B, C]."""
    moved = _dual_moves(reps, np.transpose(X.base.hopf.cop, (2, 1, 0)))
    return (X.proj @ moved).transpose(0, 2, 1)


def test_the_gathered_dual_action_is_the_product_with_the_moves(selection):
    MA = ex.named_action("m2-pauli")
    for _ in range(2):
        X = cr.crossed_product(MA)
        assert np.array_equal(X.as_module.act, _reference_dual_action(X, selection(X)))
        MA = X.as_module
    rng = np.random.default_rng(13)
    MA = ex.named_action("m2-pauli")
    MA = _rebased_module(MA, _haar_unitary(rng, MA.hopf.dim), _haar_unitary(rng, MA.target.dim))
    X = cr.crossed_product(MA)
    ref = _reference_dual_action(X, selection(X))
    assert np.abs(X.as_module.act - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture
def dense_builds(monkeypatch):
    """(chain, dimension of the level) of each table build forms on dense
    slices, the level's dimension read from the proj it is given."""
    calls, dense_table = [], _contract._dense_table

    def spy(chain, word, tables, dims):
        calls.append((chain, tables["proj"].shape[0]))
        return dense_table(chain, word, tables, dims)

    monkeypatch.setattr(_contract, "_dense_table", spy)
    return calls


def _first_failing_functional(X, rel_basis, arrows):
    """(s, largest entry) of the first functional whose moves of the
    relation basis proj does not kill, one functional at a time; else
    None."""
    dm, da = X.base.target.dim, X.base.hopf.dim
    rel = rel_basis.reshape(dm, da, -1)
    for s in range(da):
        moved = np.einsum("ok,pkR->poR", arrows[s], rel).reshape(dm * da, -1)
        gap = float(np.abs(X.proj @ moved).max())
        if not gap <= SLACK_COMPOSITE * DEFAULT_TOL:
            return s, gap
    return None


@pytest.mark.parametrize("level", [1, 2])
def test_a_monomial_break_of_the_arrows_is_refused_on_the_lists(level, dense_builds):
    MA = ex.named_action("m2-pauli")
    for _ in range(level - 1):
        MA = cr.crossed_product(MA).as_module
    X = cr.crossed_product(MA)
    # one arrow of functional 5 and, by more, one of functional 9 are
    # scaled: the zero pattern is kept, so every table stays listed
    arrows = np.transpose(MA.hopf.cop, (2, 1, 0)).copy()
    for s, scale in ((5, 1.001), (9, 1.1)):
        o, k = np.argwhere(arrows[s])[0]
        arrows[s, o, k] *= scale
    rel_basis = cr._structure(MA)[1]
    s, ref = _first_failing_functional(X, rel_basis, arrows)
    assert s == 5
    got = _outcome(lambda: X._verify(rel_basis, arrows))
    assert not dense_builds
    assert got[:3] == (AxiomViolation, "dual action does not descend", None)
    assert got[3] == pytest.approx(ref, rel=1e-12)


def test_the_descent_at_each_pauli_level_takes_the_lists(dense_builds):
    T = tw.build_tower(ex.named_action("m2-pauli"), 2)
    assert T.dims()[-1] == 64 and not dense_builds
    # in a Haar-random basis both levels build their tables, and the
    # descent for every functional at once, on dense slices
    rng = np.random.default_rng(14)
    MA = ex.named_action("m2-pauli")
    T = tw.build_tower(_rebased_module(MA, _haar_unitary(rng, MA.hopf.dim),
                                       _haar_unitary(rng, MA.target.dim)), 2)
    assert T.dims() == [1, 4, 16, 64]
    assert dense_builds == [(chain, dim) for dim in (16, 64)
                            for chain in (cr.PRODUCT, cr.STAR, cr.DESCENT)]


def _assemble(MA, proj, ps, js):
    """mult and the star table of the quotient by dense contractions written
    out by hand, the reference of the built tables.  The [A, s, B, k]
    products, Delta(e_i^*) and the pre x pre star block live only here."""
    W, M = MA.hopf, MA.target
    A = W.alg
    dm, da = M.dim, A.dim
    pre, dim = dm * da, len(ps)
    cop, act, multm, multa = W.cop, MA.act, M.mult, A.mult
    # (f_p x e_i)(f_q x e_j) = f_p (e_i(1) |> f_q) x e_i(2) e_j, between
    # picked pure tensors A = (p, i) and B = (q, j)
    tails = np.tensordot(cop, multa, 1)                            # [i, u, j, k]
    right = np.matmul(act[:, ps].transpose(1, 2, 0),               # [B, r, u]
                      tails[:, :, js].transpose(2, 1, 0, 3).reshape(dim, da, -1))
    del tails
    right = np.ascontiguousarray(
        right.reshape(dim, dm, da, da).transpose(2, 1, 0, 3))      # [i, r, B, k]
    mult = np.empty((dim, dim, dim), dtype=complex)
    # the [A, s, B, k] products, one group of classes A with the same i
    # at a time, contracted against proj over (s, k)
    for i in np.flatnonzero(np.bincount(js, minlength=da)):
        rows = np.flatnonzero(js == i)
        prods = np.matmul(multm[ps[rows]].transpose(0, 2, 1), right[i].reshape(dm, -1))
        mult[rows] = np.tensordot(prods.reshape(rows.size, dm, dim, da),
                                  proj.reshape(dim, dm, da), axes=([1, 3], [1, 2]))
    del right

    dstar = np.tensordot(A.star, cop, 1)                           # Delta(e_i^*)
    sbig = np.tensordot(dstar, np.matmul(M.star, act), axes=([1], [0]))
    sbig = sbig.transpose(2, 0, 3, 1).reshape(pre, pre).T   # columns: (f_p e_i)^*
    return mult, (proj @ sbig[:, ps * da + js]).T


def _assert_built_as_assembled(MA, on_lists=True):
    """mult and the star table of MA's crossed product, as _structure builds
    them (on nonzero lists where on_lists, each keeping the list listed
    gives of its table; else on dense slices), as it builds them on dense
    slices when the list gate refuses every table, and as the test-side
    _assemble gives them: the same exact-zero pattern, and values within
    1e-13 relative."""
    dense, dense_table = [], _contract._dense_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_contract, "_dense_table",
                      lambda chain, *args: dense.append(chain) or dense_table(chain, *args))
        _, _, proj, (ps, js), (mult, _, star, _) = cr._structure(MA)
    assert dense == ([] if on_lists else [cr.PRODUCT, cr.STAR])
    built = []
    for t in (mult, star):
        keys, values = got = _any_count(t.dense)
        if on_lists:                           # the list listed gives of the table
            assert np.array_equal(keys, t.nonzeros()[0])
            assert np.array_equal(values, t.nonzeros()[1])
        built.append(got)
    del mult, star, t

    def check(tables):
        for (keys, values), ref in zip(built, tables):
            flat = ref.ravel()
            assert np.count_nonzero(flat) == keys.size and np.all(flat[keys] != 0)
            assert np.abs(values - flat[keys]).max() <= 1e-13 * np.abs(flat[keys]).max()

    if on_lists:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_contract, "listed", lambda table: None)
            *_, (mult, _, star, _) = cr._structure(MA)
        check((mult.dense, star.dense))
        del mult, star
    check(_assemble(MA, proj.dense.reshape(len(ps), -1), ps, js))


@pytest.mark.parametrize("name", TOWER_SEEDS)
def test_list_built_tables_are_the_dense_assembly(name):
    # both crossed products of the depth-2 tower, in the natural basis and
    # a monomial basis with phases (on the lists) and in a Haar-random
    # basis (on dense slices)
    rng = np.random.default_rng(16)
    for draw in (None, _monomial_unitary, _haar_unitary):
        MA = ex.named_action(name)
        if draw is not None:
            MA = _rebased_module(MA, draw(rng, MA.hopf.dim), draw(rng, MA.target.dim))
        _assert_built_as_assembled(MA, draw is not _haar_unitary)
        _assert_built_as_assembled(cr.crossed_product(MA).as_module, draw is not _haar_unitary)


@pytest.mark.parametrize("name", TOWER_SEEDS)
def test_the_dual_expectation_keeps_its_values_in_m(name):
    # both levels of the depth-2 tower, in the natural basis, a monomial
    # basis with phases and a Haar-random basis: m_table is the table read
    # back through the pseudo-inverse of the embedding of M, and the table
    # is formed from it.  The dim-216 level of dual-s3 in a Haar-random
    # basis is left out: certifying its dense tables takes two minutes.
    rng = np.random.default_rng(17)
    for draw in (None, _monomial_unitary, _haar_unitary):
        MA = ex.named_action(name)
        if draw is not None:
            MA = _rebased_module(MA, draw(rng, MA.hopf.dim), draw(rng, MA.target.dim))
        for _ in range(1 if (name, draw) == ("dual-s3", _haar_unitary) else 2):
            X = cr.crossed_product(MA)
            E = cr.hat_expectation(X, MA.hopf.haar().hhat)
            ref = np.linalg.pinv(X.embed_m) @ E.table
            assert E.m_table.shape == (MA.target.dim, X.dim)
            assert np.abs(E.m_table - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(X.embed_m @ E.m_table, E.table)
            MA = X.as_module


def test_list_built_tables_of_pauli_depth_3_are_the_dense_assembly():
    # levels of 16, 64 and 256 dimensions, each built on the lists; the
    # test peaks near 570 MB, in the dense build and assembly of the last
    MA = ex.named_action("m2-pauli")
    for _ in range(3):
        _assert_built_as_assembled(MA)
        MA = cr.crossed_product(MA).as_module


@pytest.mark.parametrize("scaled", [False, True])
def test_list_built_tables_in_a_monomial_basis_with_phases(scaled):
    # on a unitary basis every star table is symmetric; scaled basis
    # vectors make it not, so that a transposed star would show
    rng = np.random.default_rng(11)
    MA = ex.named_action("m2-pauli")

    def draw(n):
        return _monomial_unitary(rng, n) * (rng.uniform(0.5, 2.0, n) if scaled else 1.0)

    MA = _rebased_module(MA, draw(MA.hopf.dim), draw(MA.target.dim))
    assert not np.isreal(MA.act[np.nonzero(MA.act)]).all()
    assert scaled != np.array_equal(MA.target.star, MA.target.star.T)
    for _ in range(2):
        _assert_built_as_assembled(MA)
        MA = cr.crossed_product(MA).as_module


@pytest.mark.parametrize("basis", ["monomial", "haar"])
def test_only_a_table_off_the_lists_takes_the_dense_assembly(basis, dense_builds):
    rng = np.random.default_rng(12)
    draw = _monomial_unitary if basis == "monomial" else _haar_unitary
    MA = ex.named_action("m2-pauli")
    MA = _rebased_module(MA, draw(rng, MA.hopf.dim), draw(rng, MA.target.dim))
    X = cr.crossed_product(MA)
    assert dense_builds == ([] if basis == "monomial"
                            else [(cr.PRODUCT, 16), (cr.STAR, 16), (cr.DESCENT, 16)])
    assert X.dim == 16
    assert (X.algebra.mult.flags.c_contiguous
            and np.count_nonzero(X.algebra.mult) == (128 if basis == "monomial" else 16 ** 3))


def test_the_dense_pauli_top_is_never_listed(monkeypatch):
    # the dim-64 level keeps the list its mult was built from, and every
    # later check reads that list
    arrays, tables, listed = [], [], _contract.listed

    def spy(t):
        (tables if isinstance(t, _contract.Table) else arrays).append(t.shape)
        return listed(t)

    monkeypatch.setattr(_contract, "listed", spy)
    T = tw.build_tower(ex.named_action("m2-pauli"), 2)
    assert tw.depth2_check(T)
    tw.commutant_table(T)
    assert T.dims()[-1] == 64
    assert (64, 64, 64) in tables and (64, 64, 64) not in arrays


# ---------------------------------------------------------------------------
# the readers of a listed level (weakhopf.algebra.ListedAlgebra)


def _crossed_levels(name, draw=None, depth=2):
    """The crossed products of the depth-`depth` tower of the named seed, in
    the natural basis or on the bases that draw gives."""
    MA = ex.named_action(name)
    if draw is not None:
        rng = np.random.default_rng(18)
        MA = _rebased_module(MA, draw(rng, MA.hopf.dim), draw(rng, MA.target.dim))
    levels = []
    for _ in range(depth):
        levels.append(cr.crossed_product(MA))
        MA = levels[-1].as_module
    return levels


def _close(got, ref):
    """The same terms summed in another order: within rounding of the
    largest entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))


def _rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("basis", ["natural", "monomial"])
@pytest.mark.parametrize("name", TOWER_SEEDS)
def test_listed_readers_are_the_dense_readers(name, basis):
    # each reader of both crossed products of the depth-2 tower on its list,
    # against the same reader on the dense tables: bit for bit where each
    # entry is one term (basis vectors in, and the center, whose commutator
    # entries are those of mult), else within rounding
    rng = np.random.default_rng(19)
    for X in _crossed_levels(name, None if basis == "natural" else _monomial_unitary):
        L = X.algebra
        assert type(L) is al.ListedAlgebra
        D = StarAlgebra(L.mult, L.unit, L.star)
        n, eye = L.dim, np.eye(L.dim)
        x, y, stack = _rand_c(rng, n), _rand_c(rng, n), _rand_c(rng, 3, n)
        for read in ("left_mult_matrix", "right_mult_matrix"):
            assert np.array_equal(getattr(L, read)(eye), getattr(D, read)(eye))
            _close(getattr(L, read)(x), getattr(D, read)(x))
            _close(getattr(L, read)(stack), getattr(D, read)(stack))
        _close(L.product_coords(x, y), D.product_coords(x, y))
        for xs, ys in ((X.embed_m, X.embed_m), (X.embed_a, X.embed_a),
                       (_rand_c(rng, n, 4), _rand_c(rng, n, 3))):
            _close(L.pair_products(xs, ys), D.pair_products(xs, ys))
        assert np.array_equal(L.mapped_products(eye), D.mapped_products(eye))
        f = _rand_c(rng, 5, n)
        _close(L.mapped_products(f), D.mapped_products(f))
        tensor = _rand_c(rng, n, n)
        _close(L.pair_sum(tensor), D.pair_sum(tensor))
        _close(L.trace_vector(), D.trace_vector())
        _close(L.trace_gram(), D.trace_gram())
        assert np.array_equal(L.center().basis, D.center().basis)
        for basis_of in (X.embed_m, X.embed_a, _rand_c(rng, n, 2)):
            got, ref = al.commutant(basis_of, L), al.commutant(basis_of, D)
            assert got.dim == ref.dim and la.span_equal(got.basis, ref.basis)


def test_the_pauli_tower_forms_no_dense_table_at_a_listed_level(tmp_path, monkeypatch):
    # depth 3 through the command line: the levels of 16, 64 and 256
    # dimensions read their lists, so no Table forms an (n, n, n) array (the
    # n x n star tables are formed), no commutator stack is formed for them,
    # and no null space is taken of an (n^2, n) matrix at the two levels
    # whose dims no dense algebra of the tower shares (the acting algebras
    # have 16)
    listed = (16, 64, 256)
    formed, stacks, shapes = Counter(), [], []
    commutators, null_space = al._commutators, la.null_space
    monkeypatch.setattr(_contract, "FORMED", formed)
    monkeypatch.setattr(al, "_commutators",
                        lambda A, basis=None: stacks.append(type(A)) or commutators(A, basis))
    monkeypatch.setattr(la, "null_space",
                        lambda a, tol=None: shapes.append(np.shape(a)) or null_space(a, tol=tol))
    path, out = tmp_path / "pauli.json", tmp_path / "report.json"
    path.write_text(json.dumps(ser.module_algebra_record(ex.named_action("m2-pauli"))))
    assert cli.main(["--out", str(out), "tower", "--seed", str(path), "--depth", "3"]) == 0
    assert json.loads(out.read_text())["dims"] == [1, 4] + list(listed)
    assert formed and all(len(shape) == 2 for shape in formed)
    assert stacks and al.ListedAlgebra not in stacks
    assert not [s for s in shapes for n in listed[1:] if s[0] >= n * n and s[1:] == (n,)]


def test_the_descent_takes_its_row_maxima_from_its_list(monkeypatch):
    # at the dim-64 Pauli level the descent's list holds more entries than
    # listed admits (16 * 64); its row maxima still come from that list
    MA = cr.crossed_product(ex.named_action("m2-pauli")).as_module
    X = cr.crossed_product(MA)
    rel_basis = cr._structure(MA)[1]
    built, build, formed = [], cr.build, Counter()
    monkeypatch.setattr(cr, "build", lambda chain, tables: built.append(build(chain, tables))
                        or built[-1])
    monkeypatch.setattr(_contract, "FORMED", formed)
    X._verify(rel_basis)
    moved, = built
    assert moved.entries[0].size > 16 * 64 and moved.nonzeros() is None
    assert not formed
    assert np.array_equal(_contract.row_maxima(moved),
                          np.abs(moved.dense).reshape(16, -1).max(axis=1))
    assert formed == {moved.shape: 1}


def test_a_haar_basis_algebra_reads_its_dense_tables(monkeypatch):
    # a crossed product built on dense slices is a plain StarAlgebra, and
    # its readers run on the dense mult: no list is looked up and no
    # nonzero counted per read
    rng = np.random.default_rng(20)
    MA = ex.named_action("m2-pauli")
    MA = _rebased_module(MA, _haar_unitary(rng, MA.hopf.dim), _haar_unitary(rng, MA.target.dim))
    X = cr.crossed_product(MA)
    assert type(X.algebra) is StarAlgebra
    A = StarAlgebra(X.algebra.mult, X.algebra.unit, X.algebra.star)
    n = A.dim
    calls = []
    for owner, name in ((_contract, "listed"), (np, "count_nonzero")):
        monkeypatch.setattr(owner, name, lambda *args, _fn=getattr(owner, name), _name=name,
                            **kwargs: calls.append(_name) or _fn(*args, **kwargs))
    x, basis = _rand_c(rng, n), _rand_c(rng, n, 3)
    A.left_mult_matrix(x), A.right_mult_matrix(basis.T), A.product_coords(x, x)
    A.pair_products(basis, basis), A.mapped_products(basis.T), A.pair_sum(_rand_c(rng, n, n))
    A.trace_vector(), A.trace_gram()
    assert calls == []
    A.center(), al.commutant(basis, A)
    assert "listed" not in calls


def test_a_commutant_over_the_gate_takes_the_dense_stack(monkeypatch):
    # when a join of the commutator entries does not fit the list gate, a
    # listed level forms the dense stack: the same center, bit for bit,
    # and the same commutant
    L = _crossed_levels("m2-pauli")[1].algebra
    basis = _rand_c(np.random.default_rng(21), L.dim, 3)
    listed_center, listed_comm = L.commutant(None), al.commutant(basis, L)
    monkeypatch.setattr(_checks, "SLICE_BYTES", 16)
    assert _contract.commutators(L._nonzeros(), L.dim, None) is None
    dense_center, dense_comm = L.commutant(None), al.commutant(basis, L)
    assert np.array_equal(dense_center.basis, listed_center.basis)
    assert dense_comm.dim == listed_comm.dim
    assert la.span_equal(dense_comm.basis, listed_comm.basis)

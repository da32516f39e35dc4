"""Stacked regular representations against the per-vector loops they
replace.

The loops are kept here as references, written as the checks used to be
written: one basis vector, or one basis pair, at a time.  Rewritten checks
are compared through the residual and the first failing location that they
report on perturbed tables; constructions are compared entry by entry.
"""

import copy

import numpy as np
import pytest

from weakhopf import _linalg as la
from weakhopf import algebra as al
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import integrals as itg
from weakhopf import modules as mo
from weakhopf.algebra import StarAlgebra, invert
from weakhopf.errors import ActionAxiomViolation, AxiomViolation, NoHaar, NotFaithful
from weakhopf.hopf import WeakHopfAlgebra

T = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mx(t):
    return float(np.abs(t).max()) if np.size(t) else 0.0


def _close(got, ref):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert _mx(got - ref) <= 1e-12 * max(1.0, _mx(ref))


def _raised(fn, exc):
    """(message, where, residual) of the exc that fn raises, or None."""
    try:
        fn()
    except exc as err:
        return str(err).split(",")[0], err.where, err.residual
    return None


def _spare_leading(cols, k):
    """A unit vector u with cols[:, i] . u = 0 for i < k but not for i = k."""
    N = la.null_space(cols[:, :k].T)
    u = N @ (N.conj().T @ cols[:, k].conj())
    assert abs(cols[:, k] @ u) > 1e-3
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# the stacked regular representation


def test_stacked_matrices_match_single_vectors(rng):
    n = 5
    view = _rand(rng, n, n, n).transpose(1, 2, 0)
    A = StarAlgebra(view, _rand(rng, n), _rand(rng, n, n))
    xs = _rand(rng, 2, 3, n)
    L, R = A.left_mult_matrix(xs), A.right_mult_matrix(xs)
    assert L.shape == R.shape == (2, 3, n, n)
    for a in range(2):
        for b in range(3):
            _close(L[a, b], A.left_mult_matrix(xs[a, b]))
            _close(R[a, b], A.right_mult_matrix(xs[a, b]))
    _close(L, np.einsum("abi,ijk->abkj", xs, view))
    _close(R, np.einsum("abj,ijk->abki", xs, view))
    # a non-contiguous stack: the columns of a matrix
    cols = _rand(rng, n, 4)
    assert not cols.T.flags.c_contiguous
    _close(A.left_mult_matrix(cols.T), np.einsum("ia,ijk->akj", cols, view))
    _close(A.right_mult_matrix(cols.T), np.einsum("ja,ijk->aki", cols, view))
    assert A.left_mult_matrix(np.zeros((0, n))).shape == (0, n, n)
    assert A.right_mult_matrix(np.zeros((0, n))).shape == (0, n, n)


def test_single_vector_unchanged(rng):
    n = 4
    A = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    x = _rand(rng, n)
    assert np.array_equal(A.left_mult_matrix(x),
                          (x @ A.mult.reshape(n, n * n)).reshape(n, n).T)
    assert np.array_equal(A.right_mult_matrix(x), (x @ A.mult).T)


@pytest.mark.parametrize("name", ["pauli", "random"])
def test_commutator_stacks_match_left_minus_right(rng, name):
    # the rows s x - x s that center and commutant hand to null_space on
    # dense tables; the Pauli crossed product's own algebra reads its lists
    # (tests/test_listed_readers.py), so its dense tables are taken here
    if name == "pauli":
        X = cr.crossed_product(ex.named_action("m2-pauli")).algebra
        A = StarAlgebra(X.mult, X.unit, X.star)
    else:
        A = StarAlgebra(_rand(rng, 6, 6, 6), _rand(rng, 6), _rand(rng, 6, 6))
    n = A.dim
    eye = np.eye(n, dtype=complex)
    assert np.array_equal(al._commutators(A),
                          A.left_mult_matrix(eye) - A.right_mult_matrix(eye))
    basis = _rand(rng, n, 3)
    assert np.array_equal(al._commutators(A, basis),
                          A.left_mult_matrix(basis.T) - A.right_mult_matrix(basis.T))


# ---------------------------------------------------------------------------
# crossed products


def _reference_relations(MA):
    """The relation columns of M x A, built entry by entry."""
    W, M = MA.hopf, MA.target
    A, AL = W.alg, W.boundary("L")
    dm, da = M.dim, A.dim
    mu = MA.image_data().mu
    rels = []
    for b in AL.basis.T:
        lb = A.left_mult_matrix(b)
        rb = M.right_mult_matrix(mu @ b)
        for p in range(dm):
            for i in range(da):
                v = np.zeros((dm, da), dtype=complex)
                v[p, :] = lb[:, i]
                v[:, i] -= rb[:, p]
                rels.append(v.reshape(dm * da))
    return np.array(rels).T


def _kron_relations(MA):
    """The relation columns of M x A as two kron blocks per boundary
    vector b, kron(I_M, L_b) - kron(R_(b |> 1), I_A), moved to (b, p, i)
    column order by a transposed copy."""
    W, M = MA.hopf, MA.target
    basis = W.boundary("L").basis.T
    lb = W.alg.left_mult_matrix(basis)
    rb = M.right_mult_matrix(basis @ MA.image_data().mu.T)
    blocks = np.kron(np.eye(M.dim)[None], lb)
    blocks -= np.kron(rb, np.eye(W.dim)[None])
    return blocks.transpose(1, 0, 2).reshape(M.dim * W.dim, -1)


@pytest.mark.parametrize("name", ["m2-z2", "m2-pauli", "m2-collapsed", "dual-z3"])
def test_relation_blocks_match_the_loop(name):
    MA = ex.named_action(name)
    assert np.array_equal(cr._relations(MA), _reference_relations(MA))


@pytest.mark.parametrize("name", ["m2-z2", "m2-pauli", "m2-collapsed", "dual-z3", "dual-s3"])
def test_relation_buffer_matches_the_kron_blocks_bitwise(name):
    MA = ex.named_action(name)
    got, ref = cr._relations(MA), _kron_relations(MA)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    # bit for bit, signed zeros included
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_relation_data_is_factored_twice(monkeypatch):
    MA = ex.named_action("m2-pauli")
    rels = cr._relations(MA)
    seen = {"rank": [], "orth_split": []}
    for name in seen:
        def spy(a, *args, _f=getattr(la, name), _seen=seen[name], **kwargs):
            _seen.append(np.array(a, copy=True))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(la, name, spy)
    X = cr.CrossedProduct(MA)
    for calls in seen.values():
        assert sum(c.shape == rels.shape and np.array_equal(c, rels) for c in calls) == 1
    s = np.linalg.svd(rels, compute_uv=False)
    count = int(np.sum(s > la._cutoff(s, None)))
    assert X.relation_rank == count
    assert X.dim == rels.shape[0] - count and cr._structure(MA)[1].shape[1] == count


# ---------------------------------------------------------------------------
# image_data: the boundary epimorphism


def _reference_image_homomorphism(MA):
    """The *-homomorphism checks of image_data as loops over basis pairs."""
    W, M = MA.hopf, MA.target
    A, AL = W.alg, W.boundary("L")
    mu = MA.act_on_unit().T
    for i, x in enumerate(AL.basis.T):
        for j, y in enumerate(AL.basis.T):
            gap = _mx(mu @ A.product_coords(x, y) - M.product_coords(mu @ x, mu @ y))
            if not gap <= 100 * T:
                return "boundary epimorphism not multiplicative", (i, j), gap
        gap = _mx(mu @ A.star_coords(x) - M.star_coords(mu @ x))
        if not gap <= 100 * T:
            return "boundary epimorphism not star-preserving", i, gap
    return None


@pytest.mark.parametrize("broken", ["mult", "star", "both", "mult-late"])
def test_image_homomorphism_reports_as_the_loop(rng, broken):
    _, MA = ex.m2_inner_z2_action()
    M = MA.target
    img = MA.act_on_unit().T @ MA.hopf.boundary("L").basis
    k = img.shape[1] - 1
    u = _spare_leading(img, k)
    if broken in ("mult", "both", "mult-late"):
        # "mult-late" changes only the products of the last basis vector,
        # while the star changes from the first one on
        first = u if broken != "mult" else _rand(rng, M.dim)
        M.mult = M.mult + 1e-3 * np.einsum("a,b,c->abc", first, _rand(rng, M.dim),
                                           _rand(rng, M.dim))
    if broken in ("star", "both", "mult-late"):
        side = u.conj() if broken != "mult-late" else _rand(rng, M.dim)
        M.star = M.star + 1e-3 * np.outer(side, _rand(rng, M.dim))
    ref = _reference_image_homomorphism(MA)
    expected = {"mult": ((0, 0), "multiplicative"), "star": (k, "star"),
                "both": ((k, 0), "multiplicative"), "mult-late": (0, "star")}[broken]
    assert ref is not None and ref[1] == expected[0] and expected[1] in ref[0]
    got = _raised(lambda: mo.image_data(MA), ActionAxiomViolation)
    assert got[:2] == ref[:2]
    assert got[2] == pytest.approx(ref[2], rel=1e-12)


def _reference_kernel_projection(A, K, AL):
    """The kernel projection z of image_data, its worst identity gap and
    the columns z a for a in A_L, one kernel vector at a time."""
    rows, rhs = [], []
    for k in K.T:
        rows.append(A.right_mult_matrix(k))
        rhs.append(k)
    z, _ = la.affine_solutions(np.vstack(rows) @ K, np.concatenate(rhs))
    z = K @ z
    gaps = [A.product_coords(z, z) - z, A.star_coords(z) - z]
    for k in K.T:
        gaps += [A.product_coords(z, k) - k, A.product_coords(k, z) - k]
    zal = np.array([A.product_coords(z, a) for a in AL.T]).T
    return z, max(_mx(g) for g in gaps), zal


def _collapsed_z3_action():
    """Z3 acting trivially on M_2: the kernel of the boundary map has dim 2."""
    W = ex.group_weak_hopf(ex.cyclic_group(3), [0, 1, 2])
    M, to_coords, _ = ex.matrix_algebra(2)
    alpha = {g: np.eye(4, dtype=complex) for g in range(3)}
    return ex.partly_inner_action(W, M, alpha, [to_coords(np.eye(2))] * 3)


@pytest.mark.parametrize("make", [ex.m2_collapsed_action, _collapsed_z3_action])
def test_kernel_projection_and_ideal_match_the_loops(make):
    made = make()
    MA = made[1] if isinstance(made, tuple) else made
    data = mo.image_data(MA)
    A, AL = MA.hopf.alg, MA.hopf.boundary("L").basis
    K = data.kernel.basis
    assert K.shape[1] and not data.standard
    z, worst, zal = _reference_kernel_projection(A, K, AL)
    _close(data.z_proj.coords, z)
    assert worst <= 1e-12
    assert la.span_equal(la.orth(zal), K)
    left = np.hstack([A.mult[i].T @ K for i in range(A.dim)])
    right = np.hstack([A.mult[:, i].T @ K for i in range(A.dim)])
    assert la.span_equal(data.ideal.basis, la.orth(left))
    assert la.span_equal(data.ideal.basis, la.orth(right))


def test_kernel_projection_gap_matches_the_loop(rng):
    # z stays a left unit of the kernel but stops being a right unit: the
    # products x y move by (x . u)(y . v) r with z . u = 0 and mu r = 0
    MA = _collapsed_z3_action()
    data = mo.image_data(MA)
    A, AL = MA.hopf.alg, MA.hopf.boundary("L").basis
    K, z = data.kernel.basis, data.z_proj.coords
    assert K.shape[1] == 2
    u = la.null_space(z[None, :]) @ _rand(rng, A.dim - 1)
    A.mult = A.mult + 1e-3 * np.einsum("a,b,c->abc", u, _rand(rng, A.dim), K[:, 0])
    ref_z, worst, _ = _reference_kernel_projection(A, K, AL)
    _close(ref_z, z)
    assert worst > 1e3 * T
    got = _raised(lambda: mo.image_data(MA), ActionAxiomViolation)
    assert got[0] == "kernel support projection is not a central projection in the left boundary"
    assert got[2] == pytest.approx(worst, rel=1e-12)


def test_dual_action_matches_the_loops(rng, selection):
    MA = ex.named_action("m2-pauli")
    X = cr.crossed_product(MA)
    W, dm, da = MA.hopf, MA.target.dim, MA.hopf.dim
    arrows = np.transpose(W.cop, (2, 1, 0))
    reps = selection(X)
    for s in range(da):
        moved = np.einsum("ok,pkA->poA", arrows[s], reps)
        _close(X.as_module.act[s], (X.proj @ moved.reshape(dm * da, X.dim)).T)
    # the descent check on skewed arrows: the first failing functional
    arrows = arrows + 1e-3 * _rand(rng, *arrows.shape)
    rel_basis = cr._structure(MA)[1]
    rel = rel_basis.reshape(dm, da, -1)
    ref = None
    for s in range(da):
        moved = np.einsum("ok,pkR->poR", arrows[s], rel)
        gap = _mx(X.proj @ moved.reshape(dm * da, -1))
        if ref is None and not gap <= 1e4 * T:
            ref = gap
    assert ref is not None
    got = _raised(lambda: X._verify(rel_basis, arrows), AxiomViolation)
    assert got[0] == "dual action does not descend"
    assert got[2] == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# conditional expectations and invariant states


def _reference_bimodule(MA, table):
    N = MA.fixed_points()
    M = MA.target
    for j, n in enumerate(N.basis.T):
        ln, rn = M.left_mult_matrix(n), M.right_mult_matrix(n)
        gap = max(_mx(table @ ln - ln @ table), _mx(table @ rn - rn @ table))
        if not gap <= 100 * T:
            return "expectation is not a bimodule map", j, gap
    return None


@pytest.mark.parametrize("spared", [0, 1])
def test_cond_expectation_reports_as_the_loop(rng, spared):
    _, MA = ex.m2_inner_z2_action()
    N = MA.fixed_points()
    M, h = MA.target, MA.hopf.haar().h
    assert N.dim == 2
    # with spared = 1 the products of the first fixed point stay intact
    u = _spare_leading(N.basis, 1) if spared else _rand(rng, M.dim)
    v = _spare_leading(N.basis, 1) if spared else _rand(rng, M.dim)
    M.mult = M.mult + 1e-3 * np.einsum("a,b,c->abc", u, v, _rand(rng, M.dim))
    ref = _reference_bimodule(MA, MA.act_op(h.coords))
    assert ref is not None and ref[1] == spared
    got = _raised(lambda: mo.cond_expectation(MA, h), ActionAxiomViolation)
    assert got[:2] == ref[:2]
    assert got[2] == pytest.approx(ref[2], rel=1e-12)


def _reference_invariance(MA, omega):
    W, M = MA.hopf, MA.target
    act1 = MA.act_on_unit()
    sinv1 = act1.T @ W.antipode_inv()
    s1 = act1.T @ W.antipode
    for i in range(W.dim):
        lhs = omega @ MA.act[i].T
        gap = _mx(lhs - omega @ M.left_mult_matrix(sinv1[:, i]))
        if not gap <= 1e3 * T:
            return "averaged state is not invariant", i, gap
        gap = _mx(lhs - omega @ M.right_mult_matrix(s1[:, i]))
        if not gap <= 1e3 * T:
            return "averaged state fails the mirrored invariance", i, gap
    return None


@pytest.mark.parametrize("broken", ["left", "right", "both"])
def test_invariant_state_reports_as_the_loop(rng, broken):
    W, MA = ex.m2_inner_z2_action()
    M = MA.target
    E = MA.haar_expectation()
    omega0 = M.trace_vector() / (M.trace_vector() @ M.unit)
    omega = omega0 @ E.table
    act1 = MA.act_on_unit()
    sinv1, s1 = act1.T @ W.antipode_inv(), act1.T @ W.antipode
    # M.mult += u (x) v (x) r moves L_x by (x . u) and R_x by (x . v); a
    # vector orthogonal to every S^{-1}(e_i) |> 1 (or S(e_i) |> 1) spares
    # that side of the check
    spare_l, spare_r = la.null_space(sinv1.T)[:, 0], la.null_space(s1.T)[:, 0]
    u = spare_l if broken == "right" else _rand(rng, M.dim)
    v = spare_r if broken == "left" else _rand(rng, M.dim)
    M.mult = M.mult + 1e-3 * np.einsum("a,b,c->abc", u, v, _rand(rng, M.dim))
    ref = _reference_invariance(MA, omega)
    assert ref is not None
    assert ("mirrored" in ref[0]) == (broken == "right")
    got = _raised(lambda: mo.invariant_state(MA, omega0), NotFaithful)
    assert got[:2] == ref[:2]
    assert got[2] == pytest.approx(ref[2], rel=1e-12)


# ---------------------------------------------------------------------------
# integrals


def _reference_integral_rows(W, side):
    A = W.alg
    if side == "L":
        proj = W.counital("hL") @ W.counital("R")
        rows = [A.mult[i].T - A.left_mult_matrix(proj[:, i]) for i in range(A.dim)]
    else:
        proj = W.counital("hR") @ W.counital("L")
        rows = [A.mult[:, i].T - A.right_mult_matrix(proj[:, i]) for i in range(A.dim)]
    return np.vstack(rows)


def _reference_integral_space(W, side):
    """NoHaar's where, or the orthonormal integral space."""
    ns = la.null_space(_reference_integral_rows(W, side))
    if ns.shape[1] != W.boundary(side).dim:
        return ("dim", ns.shape[1])
    return ns


@pytest.mark.parametrize("side", ["L", "R"])
def test_integral_rows_match_the_loop(rng, side):
    n = 5
    alg = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    W = WeakHopfAlgebra(alg, _rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    _close(itg._integral_rows(W, side), _reference_integral_rows(W, side))


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("scale", [0.0, 1e-3])
def test_integral_spaces_report_as_the_loop(rng, side, scale):
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    W.counital("L"), W.boundary(side)
    W.alg.mult = W.alg.mult + scale * _rand(rng, *W.alg.mult.shape)
    ref = _reference_integral_space(W, side)
    space = itg.left_integral_space if side == "L" else itg.right_integral_space
    if scale:
        assert isinstance(ref, tuple) and ref[1] < W.boundary(side).dim
        got = _raised(lambda: space(W), NoHaar)
        assert got[0].endswith("integral space has unexpected dimension")
        assert got[1] == ref
    else:
        assert la.span_equal(space(W).basis, ref)


def test_condition_residual_matches_the_loop(rng):
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    A = W.alg
    proj = W.counital("hL") @ W.counital("R")
    for l in (W.haar().h.coords, W.haar().h.coords + 1e-3 * _rand(rng, W.dim),
              _rand(rng, W.dim)):
        ref = max(_mx(l @ A.mult[i] - A.product_coords(proj[:, i], l))
                  for i in range(A.dim))
        got = itg.LeftIntegral(W, l, check=False).condition_residual()
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# the GNS extension of the crossed product


def _reference_pi_cros(gc, x):
    M = gc.X.base.target
    blocks = gc.reg.apply(x)
    return sum(np.kron(M.mult[r].T, blocks[r]) for r in range(M.dim))


def _reference_direct_pi_omega(gc, x, reps):
    """reps: the selection of the picked pure tensors, as [p, i, B]."""
    MA = gc.X.base
    M = MA.target
    v = reps @ x
    return sum(M.mult[p].T @ MA.act_op(v[p]) for p in range(M.dim))


def _reference_report(gc, reps):
    """The four loop-built entries of GnsCross.report, for the selection
    reps of the picked pure tensors."""
    X = gc.X
    MA = X.base
    W, M, A = MA.hopf, MA.target, MA.hopf.alg
    hd = W.haar()
    Ehat = cr.hat_expectation(X, hd.hhat)
    basis = np.eye(X.dim)
    r = {}
    gaps = []
    for x in basis:
        mpart = np.linalg.lstsq(X.embed_m, Ehat.apply_coords(x), rcond=None)[0]
        gaps.append(gc.state_cros(x) - gc.base_gns.omega @ mpart)
    r["state_through_expectation"] = _mx(np.array(gaps))
    r["compressed_representation"] = max(
        _mx(gc.v_dagger @ _reference_pi_cros(gc, x) @ gc.v_iso
            - _reference_direct_pi_omega(gc, x, reps)) for x in basis)
    gl0 = (hd.g_l * (hd.h * invert(hd.g_l))).coords
    mu = MA.image_data().mu
    blocks = X.proj.reshape(X.dim, M.dim, A.dim)
    worst = worst_a = 0.0
    for p in range(M.dim):
        for i in range(A.dim):
            vec = _reference_pi_cros(gc, blocks[:, p, i]) @ gc.omega_a
            target = (mu @ (hd.g_l.coords @ A.mult[i])) @ M.mult[p]
            worst_a = max(worst_a, _mx(gc.v_dagger @ vec - target))
            back = blocks[:, p] @ (gl0 @ A.mult[i])
            worst = max(worst, _mx(gc.v_iso @ gc.v_dagger @ vec
                                   - _reference_pi_cros(gc, back) @ gc.omega_a))
    r["compression_formula"] = worst_a
    r["range_projection_formula"] = worst
    return r


@pytest.fixture(scope="module")
def pauli_gns_cross():
    _, MA = ex.m2_pauli_action()
    M = MA.target
    tr = M.trace_vector()
    gns = mo.invariant_state(MA, tr / (tr @ M.unit))
    return cr.gns_cross(cr.crossed_product(MA), gns)


def test_gns_cross_representations_match_the_loops(rng, pauli_gns_cross, selection):
    gc = pauli_gns_cross
    xs = _rand(rng, 3, gc.X.dim)
    pis, directs = gc.pi_cros(xs), gc.direct_pi_omega(xs)
    for x, pi, direct in zip(xs, pis, directs):
        _close(pi, _reference_pi_cros(gc, x))
        _close(gc.pi_cros(x), pi)
        _close(direct, _reference_direct_pi_omega(gc, x, selection(gc.X)))
        _close(gc.direct_pi_omega(x), direct)
        _close(gc.pi_omega(x), gc.v_dagger @ pi @ gc.v_iso)


def test_gns_cross_report_matches_the_loops(rng, pauli_gns_cross, selection):
    # perturbed compression and state vectors make every entry of order 1e-3
    gc = copy.copy(pauli_gns_cross)
    gc.v_dagger = gc.v_dagger + 1e-3 * _rand(rng, *gc.v_dagger.shape)
    gc.omega_cros = gc.omega_cros + 1e-3 * _rand(rng, *gc.omega_cros.shape)
    got = gc.report()
    for key, value in _reference_report(gc, selection(gc.X)).items():
        assert value > 1e-5
        assert got[key] == pytest.approx(value, rel=1e-10), key

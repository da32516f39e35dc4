"""Iterated Jones towers by alternating crossed products, with per-level
Jones projections, Haar expectations, relative-commutant and center tables,
the basic-construction identification, and depth-2 verification.
"""

import numpy as np

from . import _linalg as la
from ._checks import outside, require, residual
from ._contract import evaluate, owned
from .algebra import (
    Element,
    Subspace,
    commutant,
    is_positive,
    subalgebra_on_basis,
)
from .config import DEFAULT_DIM_BUDGET, SLACK_COMPOSITE, tolerance
from .errors import AxiomViolation, DimensionBudgetExceeded
from .modules import galois_test, invariant_state, is_regular
from .crossed import QUASI_BASIS, crossed_product, gns_cross, hat_expectation

__all__ = [
    "Tower",
    "build_tower",
    "basic_construction_check",
    "commutant_table",
    "depth2_check",
]


class TowerLevel:
    def __init__(self, algebra, include, module=None, crossed=None,
                 jones=None, expectation=None, state=None, canonical_tensor=None):
        self.algebra = algebra          # StarAlgebra of this level
        self.include = include          # matrix: previous level -> this level
        self.module = module            # ModuleAlgebra built on this level
        self.crossed = crossed          # CrossedProduct that produced it
        self.jones = jones              # coords of the Jones projection here
        self.expectation = expectation  # endo-map table with range one level down
        self.canonical_tensor = canonical_tensor  # its canonical quasi-basis T[p, q]
        self.state = state              # invariant state covector


class Tower:
    """Levels M_{-1} = N, M_0 = M, M_1 = M x A, M_2 = M_1 x A^, ..."""

    def __init__(self, levels, seed):
        self.levels = levels
        self.seed = seed

    def __len__(self):
        return len(self.levels)

    def algebra(self, i):
        return self.levels[i + 1].algebra

    def include_map(self, i, j):
        """Inclusion matrix from level i into level j (i <= j)."""
        if j < i:
            raise ValueError("inclusions go upward")
        out = np.eye(self.algebra(i).dim, dtype=complex)
        for k in range(i + 1, j + 1):
            out = self.levels[k + 1].include @ out
        return out

    def dims(self):
        return [lv.algebra.dim for lv in self.levels]

    def module_at(self, i):
        """The module-algebra structure acting on level i."""
        if i == 0:
            return self.seed
        if 1 <= i <= len(self.levels) - 2:
            return self.levels[i + 1].module
        raise ValueError(f"no action recorded at level {i}")

    def basic_construction(self, i, tol=None):
        """Run the basic-construction identification for the step starting
        at level i, with the state propagated along the tower."""
        MA = self.module_at(i)
        omega = self.levels[i + 1].state
        return basic_construction_check(MA, omega0=omega, tol=tol)


def build_tower(MA, depth, omega0=None, tol=None, budget=DEFAULT_DIM_BUDGET):
    """Iterate crossed products by the alternating duals, carrying Jones
    projections, Haar expectations and the propagated invariant state."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    M = MA.target
    N = MA.fixed_points(tol=tol)
    n_alg, n_incl = subalgebra_on_basis(M, N.basis, tol=tol)

    if omega0 is None:
        tr = M.trace_vector()
        omega0 = tr / (tr @ M.unit)
    gns = invariant_state(MA, omega0, tol=tol)
    omega = gns.omega

    levels = [TowerLevel(n_alg, None),
              TowerLevel(M, n_incl, module=MA,
                         expectation=MA.haar_expectation(tol=tol).table,
                         state=omega)]
    current = MA
    for _ in range(depth):
        nxt = current.target.dim * current.hopf.dim
        if nxt > budget:
            raise DimensionBudgetExceeded(
                f"next level needs {nxt} pre-quotient dimensions")
        X = crossed_product(current, tol=tol)
        hd = current.hopf.haar(tol=tol)
        Ehat = hat_expectation(X, hd.hhat, tol=tol)
        levels.append(TowerLevel(
            X.algebra, X.embed_m, module=X.as_module, crossed=X,
            jones=X.embed_a @ hd.h.coords,
            expectation=Ehat.table, canonical_tensor=Ehat.canonical_tensor,
            state=levels[-1].state @ Ehat.m_table))
        current = X.as_module
    T = Tower(levels, MA)
    _verify_jones_relations(T, tol=tol)
    return T


def _verify_jones_relations(T, tol=None):
    """e x e = E(x) e = e E(x) for x one level down, at every level that
    carries a Jones projection."""
    t = tolerance(tol)
    for k in range(2, len(T.levels)):
        lv = T.levels[k]
        below = T.levels[k - 1]
        XA = lv.algebra
        e = lv.jones
        incl = lv.include
        etab = below.expectation      # endo of level k-1, range one further down
        # columns run over the basis of level k-1
        left_e, right_e = XA.left_mult_matrix(e), XA.right_mult_matrix(e)
        exe = right_e @ (left_e @ incl)
        ex = incl @ etab
        require(residual(exe - right_e @ ex, exe - left_e @ ex), SLACK_COMPOSITE * t,
                AxiomViolation, "Jones relation fails", where=("level", k - 1))


def basic_construction_check(MA, omega0=None, l=None, tol=None):
    """One inclusion step N = M^A in M in M x A: the GNS image of the
    crossed product is generated by M and the Jones projection, the dual
    expectation normalizes it, and the index is bounded by the transferred
    integral index with equality exactly in the Galois case."""
    from .integrals import LeftIntegral, jones_projection, p_dual

    t = tolerance(tol)
    M = MA.target
    W = MA.hopf
    if omega0 is None:
        tr = M.trace_vector()
        omega0 = tr / (tr @ M.unit)
    gns = invariant_state(MA, omega0, tol=tol)
    X = crossed_product(MA, tol=tol)
    gc = gns_cross(X, gns, tol=tol)
    hd = W.haar(tol=tol)
    if l is None:
        l = LeftIntegral(W, hd.h, tol=tol)

    dm = M.dim
    e_l = jones_projection(l, tol=tol)
    e_x = X.embed_a @ e_l.coords
    # the images of M's basis and of the Jones projection, flattened
    gens = gc.direct_pi_omega(np.vstack([X.embed_m.T, e_x])).reshape(dm + 1, -1)

    def op_product(x, y):
        return (x.reshape(dm, dm) @ y.reshape(dm, dm)).reshape(-1)

    generated = la.span_closure(gens.T, op_product, tol=tol)
    image = la.orth(gc.direct_pi_omega(np.eye(X.dim)).reshape(X.dim, -1).T, tol=tol)
    if not la.span_equal(generated, image, tol=tol):
        raise AxiomViolation("GNS image is not generated by M and the "
                             "Jones projection")

    p, galois, _ = galois_test(MA, tol=tol)
    lam = p_dual(l, tol=tol)
    Ehat = hat_expectation(X, lam, tol=tol)
    XA = X.algebra

    # dual expectation sends the Jones projection to the unit
    pe = XA.product_coords(p.coords, e_x)
    require(Ehat.apply_coords(pe) - XA.unit, SLACK_COMPOSITE * t, AxiomViolation,
            "dual expectation misses the Jones projection")

    ind_e = Ehat.m_table @ p.coords                        # Ind E_l in M
    bound = Ehat.m_table @ XA.unit                         # transferred index
    gap = Element(M, bound - ind_e)
    if not is_positive(gap + 1e-12 * M.one, tol=tol):
        raise AxiomViolation("index bound fails")
    tight = gap.norm() <= SLACK_COMPOSITE * t
    if tight != galois:
        raise AxiomViolation("index saturation disagrees with Galois support")
    return {
        "generated_dim": generated.shape[1],
        "image_dim": image.shape[1],
        "crossed_dim": X.dim,
        "galois": galois,
        "index": Element(M, ind_e),
        "index_bound": Element(M, bound),
        "index_gap_norm": gap.norm(),
    }


def commutant_table(T, tol=None):
    """N' & M_i, C(M_i) and C(M_i) & C(M_{i+1}) across the tower, checked
    against the boundary/center tables of the acting algebra whenever the
    seed action is regular."""
    t = tolerance(tol)
    MA = T.seed
    W = MA.hopf
    A = W.alg
    top = len(T.levels) - 2     # highest level index
    out = {"dims": T.dims()}

    n_comm, centers = [], []
    for i in range(0, top + 1):
        XA = T.algebra(i)
        inc = T.include_map(-1, i)
        n_img = Subspace(XA, inc, tol=tol)
        n_comm.append(commutant(n_img, XA, tol=tol))
        centers.append(XA.center(tol=tol))
    out["n_commutant_dims"] = [s.dim for s in n_comm]
    out["center_dims"] = [c.dim for c in centers]

    joint = []
    for i in range(0, top):
        up = T.levels[i + 2].include
        img = la.orth(up @ centers[i].basis, tol=tol)
        joint.append(la.intersect(img, centers[i + 1].basis, tol=tol).shape[1])
    out["joint_center_dims"] = joint
    if len(set(joint)) > 1:
        raise AxiomViolation("joint centers drift along the tower",
                             where=tuple(joint))

    regular = is_regular(MA, tol=tol)
    out["regular"] = regular
    if regular and top >= 1:
        M = MA.target
        X = T.levels[2].crossed
        XA = T.algebra(1)
        mu = MA.image_data(tol=tol).mu
        AL, AR = W.boundary("L", tol=tol), W.boundary("R", tol=tol)
        za = A.center(tol=tol)
        checks = {
            "n_comm_in_m_is_boundary": la.span_equal(
                n_comm[0].basis, la.orth(mu @ AL.basis, tol=tol), tol=tol),
            "n_comm_in_m1_is_a": la.span_equal(
                n_comm[1].basis, la.orth(X.embed_a, tol=tol), tol=tol),
            "m_comm_is_ar": la.span_equal(
                commutant(Subspace(XA, X.embed_m, tol=tol), XA, tol=tol).basis,
                la.orth(X.embed_a @ AR.basis, tol=tol), tol=tol),
            "center_n": _center_match(T, -1, mu @ AL.intersect(za, tol=tol).basis,
                                      tol=tol),
            "center_m": la.span_equal(
                M.center(tol=tol).basis,
                la.orth(mu @ W.boundary_intersection(tol=tol).basis, tol=tol), tol=tol),
            "center_m1": la.span_equal(
                centers[1].basis,
                la.orth(X.embed_a @ AR.intersect(za, tol=tol).basis, tol=tol),
                tol=tol),
        }
        hz = W.boundary_intersection(tol=tol).intersect(za, tol=tol)
        up = T.levels[2].include
        img = la.orth(up @ la.orth(mu @ hz.basis, tol=tol), tol=tol)
        joint_pred = la.intersect(
            la.orth(up @ M.center(tol=tol).basis, tol=tol),
            centers[1].basis, tol=tol)
        checks["joint_center"] = la.span_equal(img, joint_pred, tol=tol)
        out["regular_table"] = checks
        if not all(checks.values()):
            raise AxiomViolation("regular center/commutant table fails",
                                 where=tuple(k for k, v in checks.items()
                                             if not v))
        # derived tower dimension pattern: |A_L|, |A|, |A|^2/|A_L|, ...
        pred = [AL.dim, A.dim]
        while len(pred) < len(n_comm):
            pred.append(pred[-1] ** 2 // pred[-2])
        out["derived_dims_expected"] = pred[:len(n_comm)]
        if out["n_commutant_dims"] != out["derived_dims_expected"]:
            raise AxiomViolation("derived tower dimensions are off",
                                 where=tuple(out["n_commutant_dims"]))
    return out


def _center_match(T, level, predicted, tol=None):
    """Compare the center of the (sub)algebra at `level` against a
    predicted span given in the coordinates of level max(level, 0)."""
    XA = T.algebra(level)
    c = XA.center(tol=tol)
    if level == -1:
        inc = T.levels[1].include   # N -> M
        img = la.orth(inc @ c.basis, tol=tol)
        return la.span_equal(img, la.orth(predicted, tol=tol), tol=tol)
    return la.span_equal(c.basis, la.orth(predicted, tol=tol), tol=tol)


def depth2_check(T, tol=None):
    """The dual expectation of each step admits a quasi-basis inside the
    relative commutant of the level two below, which is the working form
    of the depth-2 property.

    Each level k >= 2 is certified by its witness, the canonical
    quasi-basis (1 x l(2)) (x) (1 x S^{-1} l(1)) that hat_expectation built
    for it (_witness_holds).  The verdict is False at the first level whose
    witness is refused; no other quasi-basis is searched for."""
    for k in range(2, len(T.levels)):
        lv = T.levels[k]
        XA = lv.algebra
        # level k-1 sits atop the triple (k-3, k-2, k-1) in tower indices;
        # the dual expectation needs a quasi-basis in the double commutant
        inc2 = T.include_map(k - 3, k - 1)
        rel = commutant(Subspace(XA, inc2, tol=tol), XA, tol=tol)
        if not _witness_holds(lv, rel, tol=tol):
            return False
    return True


def _witness_holds(lv, rel, tol=None):
    """Is the level's stored canonical tensor T a quasi-basis of its
    expectation inside rel (x) rel?  Its columns and rows lie in rel, both
    quasi-basis identities hold within tol (the bound of quasi_basis's
    a x - b check), and its index sum T[p, q] e_p e_q is central, as
    quasi_basis requires of a solution."""
    T = lv.canonical_tensor
    if not (rel.contains_coords(T, tol=tol) and rel.contains_coords(T.T, tol=tol)):
        return False
    XA = lv.algebra
    gaps = evaluate({"mult": owned(XA, "mult"), "table": lv.expectation, "tensor": T,
                     "eye": np.eye(XA.dim)}, *QUASI_BASIS)
    if outside(residual(*(gap for gap, _ in gaps)), tolerance(tol)):
        return False
    index = XA.pair_sum(T)
    return XA.center(tol=tol).contains_coords(index.reshape(-1, 1), tol=tol)

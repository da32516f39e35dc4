"""Concrete weak Hopf algebra families: group algebras C[G], the
semidirect family C[H] x_Ad G for a normal subgroup H of G, its
2-cocycle-twisted variant, partly inner group actions on matrix algebras,
and their integrals.
"""

import numpy as np

from ._checks import outside, require, residual
from .algebra import Element, make_star_algebra
from .config import SLACK_SOLVED, tolerance
from .errors import (
    CocycleViolation,
    ImplementerMismatch,
    NotNormal,
    WeakHopfError,
)
from .hopf import WeakHopfAlgebra, make_weak_hopf

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "symmetric_group_3",
    "direct_product",
    "Cocycle",
    "group_weak_hopf",
    "twisted_group_weak_hopf",
    "trivial_weak_hopf",
    "matrix_algebra",
    "partly_inner_action",
    "group_integrals",
    "canonical_dual_module",
    "pauli_cocycle_data",
]


class FiniteGroup:
    """A finite group given by its multiplication table (indices)."""

    def __init__(self, mult_table, names=None):
        table = [list(map(int, row)) for row in mult_table]
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        self.order = n
        self.table = table
        self.names = list(names) if names else [f"g{i}" for i in range(n)]
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_group()

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.order)):
                return e
        raise ValueError("table has no identity")

    def _find_inverses(self):
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.table[x][y] == self.identity and self.table[y][x] == self.identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError(f"element {x} has no inverse")
        return inv

    def _check_group(self):
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                for c in range(self.order):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise ValueError(f"table not associative at {(a, b, c)}")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, h):
        """g h g^{-1}"""
        return self.mul(self.mul(g, h), self.inv(g))

    def is_subgroup(self, elems):
        s = set(elems)
        if self.identity not in s:
            return False
        return all(self.mul(a, self.inv(b)) in s for a in s for b in s)

    def is_normal(self, elems):
        s = set(elems)
        return self.is_subgroup(elems) and all(
            self.conj(g, h) in s for g in range(self.order) for h in s)


def cyclic_group(n):
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       names=[f"c{i}" for i in range(n)])


def symmetric_group_3():
    """S3 as permutations of {0,1,2}; identity is index 0."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    return FiniteGroup(table, names=["e", "r", "rr", "s", "sr", "srr"])


def direct_product(g1, g2):
    n1, n2 = g1.order, g2.order
    table = [[(g1.mul(a1, b1) * n2 + g2.mul(a2, b2))
              for b1 in range(n1) for b2 in range(n2)]
             for a1 in range(n1) for a2 in range(n2)]
    names = [f"{g1.names[a]};{g2.names[b]}" for a in range(n1) for b in range(n2)]
    return FiniteGroup(table, names=names)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2))


# ---------------------------------------------------------------------------
# the semidirect family


def _pair_index(H, G):
    return {(h, g): k for k, (h, g) in enumerate(
        (h, g) for h in range(len(H)) for g in range(G.order))}


def group_weak_hopf(G, H=None, tol=None, verify=True):
    """C[H] x_Ad G on the basis (h, g), h in the normal subgroup H of G.

    H is a list of element indices of G; H=None or [identity] gives the
    ordinary Hopf algebra C[G].
    """
    if H is None:
        H = [G.identity]
    H = list(dict.fromkeys(int(h) for h in H))
    if not G.is_normal(H):
        raise NotNormal("H is not a normal subgroup of G")
    nH = len(H)
    return _semidirect(G, H, np.ones((nH, nH), dtype=complex),
                       np.ones((G.order, nH), dtype=complex), tol, verify)


def _semidirect(G, H, z, c, tol, verify=True):
    """C[H] x_Ad G twisted by the unit-modulus tables z (H x H) and c
    (G x H); z = c = 1 is the untwisted family."""
    hpos = {h: i for i, h in enumerate(H)}
    nH = len(H)
    idx = _pair_index(H, G)
    n = nH * G.order
    labels = [f"({G.names[H[hi]]},{G.names[g]})" for (hi, g) in idx]

    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    cop = np.zeros((n, n, n), dtype=complex)
    counit = np.zeros(n, dtype=complex)
    smat = np.zeros((n, n), dtype=complex)

    for (hi, g), k in idx.items():
        h = H[hi]
        # (h,g)(h',g') = c(g,h') z(h, g h' g^-1) (h * g h' g^{-1}, g g')
        for (hj, g2), k2 in idx.items():
            hc = G.conj(g, H[hj])
            mult[k, k2, idx[(hpos[G.mul(h, hc)], G.mul(g, g2))]] += c[g, hj] * z[hi, hpos[hc]]
        # (h,g)^* = c(g^-1, h^-1) (g^{-1} h^{-1} g, g^{-1})
        gi = G.inv(g)
        star[k, idx[(hpos[G.conj(gi, G.inv(h))], gi)]] = c[gi, hpos[G.inv(h)]]
        for hti, ht in enumerate(H):
            # h *_z ht^{-1} = z(h, ht^{-1}) h ht^{-1}
            left = idx[(hpos[G.mul(h, G.inv(ht))], G.mul(ht, g))]
            cop[k, left, idx[(hti, g)]] += z[hi, hpos[G.inv(ht)]] / nH
        if h == G.identity:
            counit[k] = nH
        smat[idx[(hpos[G.conj(gi, h)], G.mul(gi, G.inv(h)))], k] = c[gi, hi]
    unit[idx[(hpos[G.identity], G.identity)]] = 1.0

    alg = make_star_algebra(mult, unit, star, labels=labels, tol=tol)
    if verify:
        W = make_weak_hopf(alg, cop, counit, smat, tol=tol)
    else:
        W = WeakHopfAlgebra(alg, cop, counit, smat)
    W.group_data = {"G": G, "H": H, "index": idx}
    return W


class Cocycle:
    """Unit-modulus tables z : H x H -> U(1) and c : G x H -> U(1) for the
    twisted semidirect family."""

    def __init__(self, G, H, z, c):
        self.G, self.H = G, list(H)
        self.z = np.asarray(z, dtype=complex)
        self.c = np.asarray(c, dtype=complex)
        nH = len(self.H)
        if self.z.shape != (nH, nH) or self.c.shape != (G.order, nH):
            raise CocycleViolation("cocycle tables have wrong shape")

    def validate(self, tol=None):
        t = tolerance(tol)
        G, H = self.G, self.H
        hpos = {h: i for i, h in enumerate(H)}
        z, c = self.z, self.c
        require(residual(np.abs(z) - 1, np.abs(c) - 1), t, CocycleViolation,
                "cocycle entries must have unit modulus")
        e = hpos[G.identity]
        for i, h in enumerate(H):
            j = hpos[G.inv(h)]
            require(np.array([z[i, j], z[e, i], z[i, e]]) - 1, t, CocycleViolation,
                    "normalization of z fails", where=H[i])
        # c(g,1) = 1 = c(1,h)
        for g in range(G.order):
            require(c[g, e] - 1, t, CocycleViolation, "c(g,1) != 1", where=g)
        for i in range(len(H)):
            require(c[G.identity, i] - 1, t, CocycleViolation, "c(1,h) != 1", where=H[i])
        # c(g1 g2, h) = c(g1, g2 h g2^{-1}) c(g2, h)
        for g1 in range(G.order):
            for g2 in range(G.order):
                for i, h in enumerate(H):
                    lhs = c[G.mul(g1, g2), i]
                    rhs = c[g1, hpos[G.conj(g2, h)]] * c[g2, i]
                    require(lhs - rhs, t, CocycleViolation, "composition law for c fails",
                            where=(g1, g2, H[i]))
        # z(h1,h2) c(g, h1 h2) = c(g,h1) c(g,h2) z(g h1 g^-1, g h2 g^-1)
        for g in range(G.order):
            for i, h1 in enumerate(H):
                for j, h2 in enumerate(H):
                    k = hpos[G.mul(h1, h2)]
                    lhs = z[i, j] * c[g, k]
                    rhs = (c[g, i] * c[g, j]
                           * z[hpos[G.conj(g, h1)], hpos[G.conj(g, h2)]])
                    require(lhs - rhs, t, CocycleViolation, "twisted equivariance fails",
                            where=(g, h1, h2))
        # on H itself, c is the commutator phase of z:
        # u(h1)u(h2)u(h1)^{-1} = z(h1,h2) z(h1h2,h1^{-1}) u(h1 h2 h1^{-1})
        for i, h1 in enumerate(H):
            for j, h2 in enumerate(H):
                k = hpos[G.mul(h1, h2)]
                ref = z[i, j] * z[k, hpos[G.inv(h1)]]
                require(c[h1, j] - ref, t, CocycleViolation,
                        "c is not the commutator phase of z", where=(h1, h2))
        # z is a 2-cocycle on H
        for i, h1 in enumerate(H):
            for j, h2 in enumerate(H):
                for k, h3 in enumerate(H):
                    lhs = z[i, j] * z[hpos[G.mul(h1, h2)], k]
                    rhs = z[j, k] * z[i, hpos[G.mul(h2, h3)]]
                    require(lhs - rhs, t, CocycleViolation, "z fails the cocycle law",
                            where=(h1, h2, h3))
        return True


def twisted_group_weak_hopf(G, H, cocycle, tol=None):
    """The z-twisted group algebra of H crossed with G via the c-twisted
    adjoint action; reduces to group_weak_hopf for trivial cocycles."""
    H = list(H)
    if not G.is_normal(H):
        raise NotNormal("H is not a normal subgroup of G")
    cocycle.validate(tol=tol)
    W = _semidirect(G, H, cocycle.z, cocycle.c, tol)
    W.group_data["cocycle"] = cocycle
    return W


def trivial_weak_hopf():
    """The one-dimensional Hopf algebra C."""
    one = np.ones((1, 1, 1), dtype=complex)
    alg = make_star_algebra(one, np.ones(1), np.ones((1, 1)), labels=["1"])
    return make_weak_hopf(alg, one, np.ones(1), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# matrix algebras and partly inner actions


def matrix_algebra(m, tol=None):
    """Full matrix algebra M_m(C) on matrix units, star = conjugate
    transpose.  Returns (StarAlgebra, to_coords, from_coords)."""
    n = m * m

    def unit_index(a, b):
        return a * m + b

    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    unit = np.zeros(n, dtype=complex)
    labels = []
    for a in range(m):
        for b in range(m):
            labels.append(f"E{a + 1}{b + 1}")
    for a in range(m):
        for b in range(m):
            i = unit_index(a, b)
            star[i, unit_index(b, a)] = 1.0
            for d in range(m):
                mult[i, unit_index(b, d), unit_index(a, d)] = 1.0
        unit[unit_index(a, a)] = 1.0
    A = make_star_algebra(mult, unit, star, labels=labels, tol=tol)

    def to_coords(mat):
        return np.asarray(mat, dtype=complex).reshape(n)

    def from_coords(coords):
        return np.asarray(coords, dtype=complex).reshape(m, m)

    return A, to_coords, from_coords


def derive_twist_data(G, H, M, alpha, u, tol=None):
    """Extract z from the products of the implementers and c from their
    transformation law under alpha; raises ImplementerMismatch when the
    implementers do not match the action."""
    t = tolerance(tol)
    hpos = {h: i for i, h in enumerate(H)}
    nH = len(H)
    z = np.zeros((nH, nH), dtype=complex)
    c = np.zeros((G.order, nH), dtype=complex)

    def scalar_ratio(x, y):
        # x = s*y with |s| = 1, else None
        ny = float(np.abs(y).max())
        if ny < t:
            return None
        j = int(np.abs(y).argmax())
        s = x[j] / y[j]
        if outside(residual(x - s * y), SLACK_SOLVED * t * max(1.0, ny)) \
                or outside(abs(abs(s) - 1), SLACK_SOLVED * t):
            return None
        return s

    for i, h in enumerate(H):
        # alpha_h = Ad u(h)
        uh = u[i]
        for p in range(M.dim):
            lhs = alpha[h] @ M.basis_element(p).coords
            rhs = M.product_coords(M.product_coords(uh, M.basis_element(p).coords),
                                   M.star_coords(uh))
            require(lhs - rhs, SLACK_SOLVED * t, ImplementerMismatch,
                    "action of a subgroup element is not implemented by u",
                    where=(G.names[h], M.labels[p]))
        # unitarity and u(h)^* = u(h^{-1})
        uu = M.product_coords(M.star_coords(uh), uh)
        require(uu - M.unit, SLACK_SOLVED * t, ImplementerMismatch,
                "implementer is not unitary", where=G.names[h])
        require(M.star_coords(uh) - u[hpos[G.inv(h)]], SLACK_SOLVED * t,
                ImplementerMismatch, "u(h)^* != u(h^{-1})", where=G.names[h])
    for i, h1 in enumerate(H):
        for j, h2 in enumerate(H):
            prod = M.product_coords(u[i], u[j])
            s = scalar_ratio(prod, u[hpos[G.mul(h1, h2)]])
            if s is None:
                raise ImplementerMismatch("u(h)u(h') is not proportional to u(hh')",
                                          where=(G.names[h1], G.names[h2]))
            z[i, j] = s
    for g in range(G.order):
        for i, h in enumerate(H):
            moved = alpha[g] @ u[i]
            s = scalar_ratio(moved, u[hpos[G.conj(g, h)]])
            if s is None:
                raise ImplementerMismatch(
                    "alpha_g(u(h)) is not proportional to u(g h g^{-1})",
                    where=(G.names[g], G.names[h]))
            c[g, i] = s
    return Cocycle(G, H, z, c)


def partly_inner_action(W, M, alpha, u, tol=None):
    """Module-algebra action (h,g) |> m = u(h) alpha_g(m) of a semidirect
    (possibly twisted) weak Hopf algebra on M.

    alpha: dict/list g -> dim x dim matrix on M coordinates (algebra maps);
    u: list over H of coordinate vectors in M.
    """
    from .modules import make_module_algebra

    t = tolerance(tol)
    data = getattr(W, "group_data", None)
    if data is None:
        raise WeakHopfError("W must come from the semidirect family")
    G, H, idx = data["G"], data["H"], data["index"]
    u = [np.asarray(x, dtype=complex) for x in u]
    alpha = {g: np.asarray(alpha[g], dtype=complex) for g in range(G.order)}

    # alpha must be a *-action of G
    for g in range(G.order):
        for g2 in range(G.order):
            require(alpha[g] @ alpha[g2] - alpha[G.mul(g, g2)], SLACK_SOLVED * t,
                    ImplementerMismatch, "alpha is not a group action",
                    where=(G.names[g], G.names[g2]))
    derived = derive_twist_data(G, H, M, alpha, u, tol=tol)
    given = data.get("cocycle")
    if given is None:
        require(residual(derived.z - 1, derived.c - 1), SLACK_SOLVED * t,
                ImplementerMismatch,
                "implementers carry a nontrivial twist; use the twisted family")
    else:
        require(residual(derived.z - given.z, derived.c - given.c), SLACK_SOLVED * t,
                ImplementerMismatch, "implementer twist differs from the algebra's")
    derived.validate(tol=tol)

    act = np.zeros((W.dim, M.dim, M.dim), dtype=complex)
    for (hi, g), k in idx.items():
        uh_left = M.left_mult_matrix(u[hi])
        act[k] = (uh_left @ alpha[g]).T  # act[k, p, :] = coords of u(h) alpha_g(e_p)
    return make_module_algebra(W, M, act, tol=tol)


# ---------------------------------------------------------------------------
# integrals of the semidirect family


def group_integrals(W, tol=None):
    """Distinguished integrals of C[H] x_Ad G: the Haar projection, the
    basis l_h of the left-integral space and the dual Haar functional."""
    data = getattr(W, "group_data", None)
    if data is None or "cocycle" in data:
        raise WeakHopfError("group_integrals expects the untwisted family")
    G, H, idx = data["G"], data["H"], data["index"]
    hpos = {h: i for i, h in enumerate(H)}
    n = W.dim

    haar = np.zeros(n, dtype=complex)
    for g in range(G.order):
        haar[idx[(hpos[G.identity], g)]] += 1.0 / G.order

    basis = {}
    for h in H:
        vec = np.zeros(n, dtype=complex)
        for g in range(G.order):
            vec[idx[(hpos[G.conj(g, h)], g)]] += 1.0 / G.order
        basis[h] = Element(W.alg, vec)

    lam = np.zeros(n, dtype=complex)
    for (hi, g), k in idx.items():
        if H[hi] == G.identity and g == G.identity:
            lam[k] = len(H)
    return Element(W.alg, haar), basis, W.functional(lam)


def canonical_dual_module(W, tol=None):
    """The natural left action of W on its dual; the standing example of a
    module algebra."""
    from .modules import make_module_algebra

    # (e_i -> f^p)_q = mult[q, i, p] through <a -> phi | b> = <phi | b a>
    act = np.ascontiguousarray(np.transpose(W.alg.mult, (1, 2, 0)))
    return make_module_algebra(W, W.dual_alg, act, tol=tol)


def adjoint_action_table(M, to_coords, mats):
    """alpha[g] matrices of m -> u_g m u_g^* on coordinates, for a family
    of unitaries given as 2d arrays."""
    out = {}
    dim = M.dim
    m = int(round(np.sqrt(dim)))
    for g, ug in mats.items():
        ad = np.zeros((dim, dim), dtype=complex)
        for p in range(dim):
            base = np.zeros(dim, dtype=complex)
            base[p] = 1.0
            ad[:, p] = to_coords(ug @ base.reshape(m, m) @ ug.conj().T)
        out[g] = ad
    return out


def _m2_z2_action(u1, tol=None):
    """H = G = Z2 acting on M_2 through Ad u, with u(1) = 1 and u(c1) = u1.
    Returns (W, module algebra)."""
    G = cyclic_group(2)
    W = group_weak_hopf(G, [0, 1], tol=tol)
    M, to_coords, _ = matrix_algebra(2, tol=tol)
    mats = {0: np.eye(2, dtype=complex), 1: u1}
    alpha = adjoint_action_table(M, to_coords, mats)
    u = [to_coords(mats[0]), to_coords(mats[1])]
    return W, partly_inner_action(W, M, alpha, u, tol=tol)


def m2_inner_z2_action(tol=None):
    """Z2 = H acting on M_2 through u = diag(1,-1); standard, outer,
    regular.  Returns (W, module algebra)."""
    return _m2_z2_action(np.diag([1, -1]).astype(complex), tol=tol)


def m2_pauli_action(tol=None):
    """The Klein four-group on M_2 through the Pauli projective
    implementers; the twisted semidirect algebra acts regularly."""
    G, H, M, alpha, u, cocycle = pauli_cocycle_data()
    W = twisted_group_weak_hopf(G, H, cocycle, tol=tol)
    return W, partly_inner_action(W, M, alpha, u, tol=tol)


def m2_collapsed_action(tol=None):
    """Degenerate variant: trivial alpha with u = 1; a valid module algebra
    that is not standard and not Galois."""
    return _m2_z2_action(np.eye(2, dtype=complex), tol=tol)


def named_group(name):
    name = name.lower()
    if name in ("z2", "c2"):
        return cyclic_group(2)
    if name in ("z3", "c3"):
        return cyclic_group(3)
    if name in ("z4", "c4"):
        return cyclic_group(4)
    if name in ("z2xz2", "klein", "v4"):
        return klein_four()
    if name == "s3":
        return symmetric_group_3()
    raise ValueError(f"unknown group name {name!r}")


def named_action(name, tol=None):
    name = name.lower()
    if name == "m2-z2":
        return m2_inner_z2_action(tol=tol)[1]
    if name == "m2-pauli":
        return m2_pauli_action(tol=tol)[1]
    if name == "m2-collapsed":
        return m2_collapsed_action(tol=tol)[1]
    if name.startswith("dual-"):
        group, _, sub = name[5:].partition("/")
        G = named_group(group)
        H = [int(x) for x in sub.split(",")] if sub else None
        return canonical_dual_module(group_weak_hopf(G, H, tol=tol), tol=tol)
    raise ValueError(f"unknown action name {name!r}")


def pauli_cocycle_data():
    """Projective implementers of the Klein four-group on M_2: 1, sigma_x,
    sigma_z, sigma_y, with the commutation phases as 2-cocycle."""
    G = klein_four()
    M, to_coords, _ = matrix_algebra(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    mats = {0: np.eye(2, dtype=complex), 1: sz, 2: sx, 3: sy}
    # G = Z2 x Z2 with index a*2+b; (1,0) ~ sx? fix: index g = 2*a + b
    # names from direct_product: (c_a; c_b).  Choose u(a,b) = sx^a sz^b up
    # to phase, realized as {1, sz, sx, sy}.
    u = [to_coords(mats[g]) for g in range(4)]
    alpha = adjoint_action_table(M, to_coords, mats)
    H = [0, 1, 2, 3]
    cocycle = derive_twist_data(G, H, M, alpha, u)
    return G, H, M, alpha, u, cocycle

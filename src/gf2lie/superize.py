"""Characteristic-2 Lie superalgebras from Kaplansky algebras: restricted
2-closures, linear and non-linear Z/2-gradings with squaring, and the
equivalence machinery for superizations.

Everything is over GF(2); the closure adjoins the dual space V* as a
torus, the squaring sends e_u to the functional B(u, .) and fixes V*.
"""

from __future__ import annotations

import weakref
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .constructions import BilinearFormSpec, QuadraticFormSpec, arf_invariant
from .liealg import Algebra, AlgebraError, LinearMap, grading_failures, verify_morphism


class ClosureAlgebra:
    """The restricted 2-closure g ⊕ V* of a J-system algebra.

    Bracket: the Kaplansky bracket on g, [alpha, e_u] = alpha(u) e_u,
    [V*, V*] = 0.  Squaring: alpha^[2] = alpha, e_u^[2] = B_u in V*.
    """

    def __init__(self, base: Algebra):
        B = base.meta.get("jsystem_B")
        gamma = base.meta.get("jsystem_gamma")
        if B is None or gamma is None:
            raise AlgebraError("restricted closure needs a J-system algebra")
        if base.dim == 1 and not base.rows:
            raise AlgebraError("the 1-dimensional Kap_{4,0}(2) is excluded from closure")
        self.base = base
        self.B = B
        self.gamma = list(gamma)
        self.index = {u: i for i, u in enumerate(self.gamma)}  # gamma vector -> basis index
        self.n = n = B.n
        dim = base.dim + n
        labels = list(base.labels) + ["a%d" % (t + 1) for t in range(n)]
        sc: Dict[Tuple[int, int], int] = dict(base.rows)
        for t in range(n):
            at = base.dim + t
            for i, u in enumerate(self.gamma):
                if (u >> t) & 1:
                    sc[(i, at)] = 1 << i
        grading = None
        mod = None
        if base.grading is not None:
            grading = list(base.grading) + [tuple(0 for _ in range(n))] * n
            mod = base.grading_mod
        self.algebra = Algebra.from_gf2_rows(labels, sc, grading=grading, grading_mod=mod,
                                             name=(base.name + " 2-closure"))
        # squaring on the natural basis: bit t of B.rows applied to u is B(u, e_t)
        self.squaring: List[int] = ([gf2.apply_rows(B.rows, u) << base.dim for u in self.gamma]
                                    + [1 << (base.dim + t) for t in range(n)])

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def square_vector(self, x: int) -> int:
        """(sum a_i x_i)^[2] = sum a_i^2 x_i^[2] + sum_{i<j} a_i a_j [x_i, x_j]."""
        acc = gf2.apply_rows(self.squaring, x)
        for i, j in combinations(gf2.bits(x), 2):
            acc ^= self.algebra.bracket(1 << i, 1 << j)
        return acc

    def check_restricted(self) -> bool:
        """Jacobi, then [x^[2], y] = [x, [x, y]] for every x and y: exact,
        see `_squaring_failure`."""
        return self.algebra.validate().ok and _squaring_failure(self, range(self.dim)) is None

    def __repr__(self):
        return "<2-closure of %s, dim %d>" % (self.base.name, self.dim)


def _squaring_failure(clo: ClosureAlgebra, indices) -> Optional[Tuple[int, int]]:
    """The first (i, j), i in `indices` and then j ascending, with
    [e_i^[2], e_j] != [e_i, [e_i, e_j]], or None: for each i the identity
    ad(e_i^[2]) = ad(e_i)^2 of ad matrices.

    On a bracket that satisfies Jacobi the basis identity holds for every
    x in the span of the e_i (Jacobson's criterion for a p-map, N. Jacobson,
    Trans. AMS 50, 1941).  With F(x) = ad(x^[2]) + ad(x)^2 and x^[2] as in
    `square_vector`, over GF(2)
        F(sum x_i) = sum F(x_i) + sum_{i<j} (ad[x_i, x_j] + [ad x_i, ad x_j]),
    and each cross term sends y to the Jacobiator of x_i, x_j, y.
    """
    g = clo.algebra
    for i in indices:
        a = g.ad_rows(1 << i)
        lhs, rhs = g.ad_rows(clo.squaring[i]), gf2.compose(a, a)
        if lhs != rhs:
            return i, next(j for j, (u, w) in enumerate(zip(lhs, rhs)) if u != w)
    return None


def restricted_closure(base: Algebra) -> ClosureAlgebra:
    """The restricted 2-closure of base, built once and kept in
    base.cache["closure"] for as long as base lives.  Every caller gets the
    same shared closure: treat it, its algebra and its squaring as
    read-only."""
    clo = base.cache.get("closure")
    if clo is None:
        clo = base.cache["closure"] = ClosureAlgebra(base)
    return clo


class SuperAlgebra:
    """Z/2-graded char-2 algebra with squaring on the odd part."""

    def __init__(self, closure: ClosureAlgebra, parity: Sequence[int], name: str = ""):
        if len(parity) != closure.dim:
            raise AlgebraError("need one parity per basis vector")
        self.closure = closure
        self.algebra = closure.algebra
        self.parity = [p & 1 for p in parity]
        self.name = name or (closure.base.name + " superization")

    @property
    def even_dim(self) -> int:
        return self.parity.count(0)

    @property
    def odd_dim(self) -> int:
        return self.parity.count(1)

    def odd_indices(self) -> List[int]:
        return [i for i, p in enumerate(self.parity) if p]

    def check_super_axioms(self) -> Tuple[bool, str]:
        """Bracket parity rules, even squares of odd basis vectors, the
        squaring axiom on the odd basis, then Jacobi: exact for every odd
        x, see `_squaring_failure`."""
        g = self.algebra
        bad = grading_failures(g, [(p,) for p in self.parity], (2,), 1)
        if bad:
            return False, "parity breaks at [%d,%d] -> %d" % bad[0][:3]
        for i in self.odd_indices():
            if any(self.parity[k] for k in gf2.bits(self.closure.squaring[i])):
                return False, "square of odd %d is not even" % i
            bad = _squaring_failure(self.closure, [i])
            if bad:
                return False, "squaring axiom fails at (%d, %d)" % bad
        jacobi = g.validate(max_report=1).jacobi_failures
        if jacobi:
            return False, "Jacobi fails at (%d, %d, %d)" % jacobi[0]
        return True, ""

    def __repr__(self):
        return "<%s: even %d | odd %d>" % (self.name, self.even_dim, self.odd_dim)


def superize_linear(clo: ClosureAlgebra, v: int, name: str = "") -> SuperAlgebra:
    """Parity of e_u is B(v, u); V* is even.  Needs v in 1 .. 2^n - 1."""
    if not 0 < v < 1 << clo.n:
        raise AlgebraError("v must be a nonzero vector of F_2^%d, not %r" % (clo.n, v))
    parity = [clo.B.pair(v, u) for u in clo.gamma] + [0] * clo.n
    return SuperAlgebra(clo, parity, name=name or (clo.base.name + " linear superization"))


def superize_nonlinear(clo: ClosureAlgebra, Q: QuadraticFormSpec) -> SuperAlgebra:
    """KapS_{2,A}: even = {Q=1} ⊕ V*, odd = {Q=0, u != 0}; parity Q(u)+1.

    Only the closure of Kap_2 carries this: the gamma set must be all
    nonzero vectors and Q must polarize to the closure's form.
    """
    if sorted(clo.gamma) != list(range(1, 1 << clo.n)):
        raise AlgebraError("non-linear superization needs the closure of Kap_2")
    if Q.polar.rows != clo.B.rows:
        raise AlgebraError("quadratic form does not polarize to the closure's form")
    parity = [(Q.value(u) + 1) % 2 for u in clo.gamma] + [0] * clo.n
    arf = arf_invariant(Q)
    return SuperAlgebra(clo, parity, name="KapS_{2,%d}(%d)" % (arf, clo.n))


def parity_nonlinearity_witness(s: SuperAlgebra) -> Optional[Tuple[int, int]]:
    """A pair u, v with p(e_{u+v}) != p(e_u) + p(e_v), if one exists."""
    pos, p = s.closure.index, s.parity  # gamma holds no zero vector
    return next(((u, v) for u in pos for v in pos
                 if u ^ v in pos and p[pos[u ^ v]] != p[pos[u]] ^ p[pos[v]]), None)


# ---------------------------------------------------------------------------
# equivalence of superizations
# ---------------------------------------------------------------------------

# form (Q when given, else B) -> (its live `gf2.invertibles` walk, the matrices it
# has yielded): each isometry group is walked once per process, then replayed
_WALKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _isometries(B: BilinearFormSpec, Q: Optional[QuadraticFormSpec] = None):
    """Every invertible n x n GF(2) matrix M (rows[j] = M e_j) preserving
    Q, or B when Q is None, in `gf2.invertibles` order: a prefix rows[:k+1]
    is extended only while the form conditions that involve row k hold.
    Replayed from the form's `_WALKS` entry, whose shared walk advances only
    past what it has yielded; a walk that raises is dropped, not kept as done.
    """
    form = B if Q is None else Q
    i = 0
    while True:
        walk, seen = (_WALKS.get(form)
                      or _WALKS.setdefault(form, (gf2.invertibles(B.n, _fits(B, Q)), [])))
        if i >= len(seen):  # a new walk (the last one raised) may be behind i
            try:
                seen.append(tuple(next(walk)))
            except StopIteration:
                return
            except BaseException:
                _WALKS.pop(form, None)
                raise
        while i < len(seen):
            yield list(seen[i])
            i += 1


def _fits(B: BilinearFormSpec, Q: Optional[QuadraticFormSpec]):
    """fits(k, img): the conditions on rows[:k+1] that involve row k, read off
    img[:2^(k+1)]; it holds no reference to the form, which `_WALKS` keys."""
    if Q is not None:
        qv = [Q.value(u) for u in range(1 << B.n)]
        return lambda k, img: all(qv[img[u]] == qv[u] for u in range(1 << k, 2 << k))
    gram = [[B.pair(1 << i, 1 << k) for i in range(k + 1)] for k in range(B.n)]
    bimg = [gf2.apply_rows(B.rows, u) for u in range(1 << B.n)]  # bimg[u] & w has parity B(u, w)

    def fits(k, img):
        r = bimg[img[1 << k]]
        return all((r & img[1 << i]).bit_count() & 1 == b for i, b in enumerate(gram[k]))
    return fits


def induced_super_iso(s1: SuperAlgebra, s2: SuperAlgebra, rows: Sequence[int]) -> Optional[LinearMap]:
    """The map e_u -> e_{Mu}, alpha -> alpha o M^{-1}, verified as a
    parity- and squaring-compatible isomorphism s1 -> s2.

    The cheap conditions (gamma images and parities, squaring) are
    checked before the bracket check, which gates every returned map.
    """
    clo1, clo2 = s1.closure, s2.closure
    n = clo1.n
    images: List[int] = []
    for i, u in enumerate(clo1.gamma):
        k = clo2.index.get(gf2.apply_rows(rows, u))
        if k is None or s2.parity[k] != s1.parity[i]:
            return None
        images.append(1 << k)
    minv = gf2.invert(list(rows), n)
    if minv is None:
        return None
    # alpha_t o M^{-1} = sum_s (M^{-1})_{t s} alpha_s: functional x -> alpha_t(M^{-1} x)
    images += [col << clo2.base.dim for col in gf2.transpose(minv, n)]
    # parity match on V*
    for i in range(clo1.base.dim, clo1.dim):
        for k in gf2.bits(images[i]):
            if s2.parity[k] != s1.parity[i]:
                return None
    # squaring compatibility on the odd part
    for i in s1.odd_indices():
        lhs = gf2.apply_rows(images, clo1.squaring[i])
        rhs = clo2.square_vector(images[i])
        if lhs != rhs:
            return None
    m = LinearMap(clo1.algebra, clo2.algebra, images)
    if not verify_morphism(m, "isomorphism"):
        return None
    return m


class EquivalenceVerdict:
    def __init__(self, kind: str, mapping=None, tried: int = 0):
        self.kind = kind  # "equivalent" | "exhausted-no-map" (the whole isometry group tried)
        self.map = mapping
        self.tried = tried

    def __repr__(self):
        return "<superizations %s (%d maps tried)>" % (self.kind, self.tried)


def equivalence_of_superizations(s1: SuperAlgebra, s2: SuperAlgebra,
                                 quadratic: Optional[QuadraticFormSpec] = None) -> EquivalenceVerdict:
    """Search for M with the stated preservation constraints inducing a
    super-isomorphism: M preserves B (Kap_2) or Q (Kap_4), and the induced
    maps must match parities and squarings.

    Exhaustive over the isometry group of B or Q at every n (|Sp(4,2)| =
    720, |O+(4,2)| = 72, |O-(4,2)| = 120, |O+(6,2)| = 40,320, |O-(6,2)| =
    51,840 maps), so "exhausted-no-map" is conclusive: it rules out every
    map of the induced shape, and only those.
    """
    tried = 0
    for rows in _isometries(s1.closure.B, quadratic):
        tried += 1
        m = induced_super_iso(s1, s2, rows)
        if m is not None:
            return EquivalenceVerdict("equivalent", m, tried)
    return EquivalenceVerdict("exhausted-no-map", None, tried)


# ---------------------------------------------------------------------------
# the seven families and the Q + Q' linearization
# ---------------------------------------------------------------------------

def kap_s_4A(m: int, arf: int, eps: int) -> SuperAlgebra:
    """KapS_{4,A}(2m; eps): linear superization of the Kap_{4,A} closure
    along the standard vector v with Q_A(v) = eps (Eq-style choices)."""
    from .constructions import build_kap4A
    base = build_kap4A(2 * m, arf)
    clo = restricted_closure(base)
    Q = base.meta["quadratic_form"]
    v = _standard_v(m, arf, eps)
    if v is None:
        raise AlgebraError("no vector with Q_%d(v)=%d exists for m=%d" % (arf, eps, m))
    assert Q.value(v) == eps
    return superize_linear(clo, v, name="KapS_{4,%d}(%d;%d)" % (arf, 2 * m, eps))


def _standard_v(m: int, arf: int, eps: int) -> Optional[int]:
    """v_{eps,A} for the standard forms: explicit small-support choices."""
    e = lambda t: 1 << t
    if arf == 0 and eps == 0:
        return e(0)
    if arf == 1 and eps == 1:
        return e(0)
    if arf == 0 and eps == 1:
        return e(0) | e(m)
    if arf == 1 and eps == 0:
        if m == 1:
            return None  # Q_1 is 1 on every nonzero vector of F_2^2
        return e(1)
    raise AlgebraError("arf and eps must be 0 or 1")


def seven_families(m: int) -> Dict[str, SuperAlgebra]:
    """KapLS_2, KapS_{2,0}, KapS_{2,1}, KapS_{4,A}(2m;eps) for one m."""
    from .constructions import build_kap2
    out: Dict[str, SuperAlgebra] = {}
    kap2 = build_kap2(2 * m)
    clo2 = restricted_closure(kap2)
    out["KapLS_2"] = superize_linear(clo2, 1, name="KapLS_2(%d)" % (2 * m))
    for arf in (0, 1):
        Q = QuadraticFormSpec.standard(m, arf)
        out["KapS_{2,%d}" % arf] = superize_nonlinear(clo2, Q)
    for arf in (0, 1):
        for eps in (0, 1):
            if m == 1 and arf == 0:
                continue  # Kap_{4,0}(2) is 1-dimensional; closure excluded
            if m == 1 and (arf, eps) == (1, 0):
                continue  # Q_1 = 1 on every nonzero vector of F_2^2
            s = kap_s_4A(m, arf, eps)
            if m == 1:
                s.name = "oo'_II(1|2)"  # the single exceptional superization
            out["KapS_{4,%d}(;%d)" % (arf, eps)] = s
    return out


def nonlinear_reduction_check(m: int, Q: QuadraticFormSpec, Qp: QuadraticFormSpec) -> dict:
    """The Q + Q' linearization: inside KapS_{2,A(Q)} the part supported on
    {Q'(u)=1} is a subsuperalgebra whose parity is the linear function
    Q+Q'; it must coincide with the linear superization along the v with
    B_v = Q+Q'."""
    from .constructions import build_kap2
    if Q.polar.rows != Qp.polar.rows:
        raise AlgebraError("forms must share the polar form")
    n = 2 * m
    diff_vals = [(Q.value(u) + Qp.value(u)) % 2 for u in range(1 << n)]
    additive = all(
        diff_vals[u ^ v] == (diff_vals[u] + diff_vals[v]) % 2
        for u in range(1 << n) for v in range(1 << n))
    # the linear functional Q+Q' equals B_v for a unique v
    rows = [Q.polar.rows[t] for t in range(n)]
    rhs = [diff_vals[1 << t] for t in range(n)]
    v = gf2.solve(rows, rhs)
    out = {"additive": additive, "v": v, "trivial": all(x == 0 for x in diff_vals)}
    if v is None:
        out["matches_linear"] = False
        return out
    kap2 = build_kap2(n)
    clo = restricted_closure(kap2)
    s_nonlin = superize_nonlinear(clo, Q)
    # the subsuperalgebra supported on {Q'(u)=1} plus V*
    sub_idx = [i for i, u in enumerate(clo.gamma) if Qp.value(u) == 1]
    if v == 0:
        out["matches_linear"] = out["trivial"]
        return out
    parity_sub = {i: s_nonlin.parity[i] for i in sub_idx}
    expect = {i: clo.B.pair(v, clo.gamma[i]) for i in sub_idx}
    out["matches_linear"] = parity_sub == expect
    return out

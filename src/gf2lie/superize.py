"""Characteristic-2 Lie superalgebras from Kaplansky algebras: restricted
2-closures, linear and non-linear Z/2-gradings with squaring, and the
equivalence machinery for superizations.

Everything is over GF(2); the closure adjoins the dual space V* as a
torus, the squaring sends e_u to the functional B(u, .) and fixes V*.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .constructions import BilinearFormSpec, QuadraticFormSpec, arf_invariant
from .fields import GF2
from .liealg import Algebra, AlgebraError, LinearMap, Subspace, verify_morphism


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
        if base.dim == 1 and not base.sc:
            raise AlgebraError("the 1-dimensional Kap_{4,0}(2) is excluded from closure")
        self.base = base
        self.B = B
        self.gamma = list(gamma)
        n = B.n
        self.n = n
        dim = base.dim + n
        labels = list(base.labels) + ["a%d" % (t + 1) for t in range(n)]
        sc: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j), row in base.sc.items():
            sc[(i, j)] = dict(row)
        for t in range(n):
            at = base.dim + t
            for i, u in enumerate(self.gamma):
                if (u >> t) & 1:
                    sc[(i, at)] = {i: 1}
        grading = None
        mod = None
        if base.grading is not None:
            grading = list(base.grading) + [tuple(0 for _ in range(n))] * n
            mod = base.grading_mod
        self.algebra = Algebra(GF2, labels, sc, grading=grading, grading_mod=mod,
                               name=(base.name + " 2-closure"))
        # squaring on the natural basis
        self.squaring: List[int] = []
        for u in self.gamma:
            bu = 0
            for t in range(n):
                if B.pair(u, 1 << t):
                    bu |= 1 << (base.dim + t)
            self.squaring.append(bu)
        for t in range(n):
            self.squaring.append(1 << (base.dim + t))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def square_vector(self, x: int) -> int:
        """(sum a_i x_i)^[2] = sum a_i^2 x_i^[2] + sum_{i<j} a_i a_j [x_i, x_j]."""
        idx = list(gf2.bits(x))
        acc = 0
        for i in idx:
            acc ^= self.squaring[i]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                acc ^= self.algebra.bracket(1 << idx[a], 1 << idx[b])
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
    return ClosureAlgebra(base)


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

    def even_subspace(self) -> Subspace:
        return Subspace(self.algebra, [1 << i for i, p in enumerate(self.parity) if p == 0])

    def odd_indices(self) -> List[int]:
        return [i for i, p in enumerate(self.parity) if p]

    def check_super_axioms(self) -> Tuple[bool, str]:
        """Bracket parity rules, even squares of odd basis vectors, the
        squaring axiom on the odd basis, then Jacobi: exact for every odd
        x, see `_squaring_failure`."""
        g = self.algebra
        for (i, j), row in g.sc.items():
            want = (self.parity[i] + self.parity[j]) % 2
            for k in row:
                if self.parity[k] != want:
                    return False, "parity breaks at [%d,%d] -> %d" % (i, j, k)
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


def superize_nonlinear(clo: ClosureAlgebra, Q: QuadraticFormSpec, name: str = "") -> SuperAlgebra:
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
    return SuperAlgebra(clo, parity, name=name or ("KapS_{2,%d}(%d)" % (arf, clo.n)))


def parity_nonlinearity_witness(s: SuperAlgebra) -> Optional[Tuple[int, int]]:
    """A pair u, v with p(e_{u+v}) != p(e_u) + p(e_v), if one exists."""
    pos = {u: i for i, u in enumerate(s.closure.gamma)}
    for u in s.closure.gamma:
        for v in s.closure.gamma:
            w = u ^ v
            if w == 0 or w not in pos:
                continue
            if s.parity[pos[w]] != (s.parity[pos[u]] + s.parity[pos[v]]) % 2:
                return (u, v)
    return None


# ---------------------------------------------------------------------------
# equivalence of superizations
# ---------------------------------------------------------------------------

def _isometries(B: BilinearFormSpec, Q: Optional[QuadraticFormSpec] = None,
                budget: Optional[int] = None, rng_seed: int = 0):
    """Invertible n x n GF(2) matrices M (rows[j] = M e_j) preserving Q,
    or B when Q is None.

    Exhaustive for n <= 4: the rows are chosen depth-first, each from
    1 .. 2^n - 1 ascending (itertools.product order), and a prefix is
    extended only while its new row is independent of the earlier ones
    and every form condition on rows[:k+1] holds.  Beyond n = 4 a
    randomized sample of `budget` invertibles is filtered instead.
    """
    n = B.n
    img = [0] * (1 << n)  # img[u] = M u

    def place(k, r):  # rows[k] = r: fill img for the u with top bit k
        lo = 1 << k
        for u in range(lo):
            img[lo | u] = r ^ img[u]

    # fits(k): the form conditions on rows[:k+1] that involve row k; they
    # read only img[:2^(k+1)]
    if Q is not None:
        qv = [Q.value(u) for u in range(1 << n)]

        def fits(k):
            lo = 1 << k
            return all(qv[img[u]] == qv[u] for u in range(lo, lo << 1))
    else:
        gram = [[B.pair(1 << i, 1 << k) for i in range(k + 1)] for k in range(n)]

        def fits(k):
            r = img[1 << k]
            return all(B.pair(img[1 << i], r) == b for i, b in enumerate(gram[k]))

    if n <= 4:
        rows = [0] * n

        def extend(k):
            span = set(img[:1 << k])
            for r in range(1, 1 << n):
                if r in span:
                    continue
                place(k, r)
                if fits(k):
                    rows[k] = r
                    if k + 1 == n:
                        yield list(rows)
                    else:
                        yield from extend(k + 1)

        yield from extend(0)
    else:
        rng = random.Random(rng_seed)
        count = 0
        while count < (budget or 100000):
            rows = [rng.getrandbits(n) or 1 for _ in range(n)]
            if gf2.rank(rows) != n:
                continue
            count += 1
            for k, r in enumerate(rows):
                place(k, r)
            if all(fits(k) for k in range(n)):
                yield rows


def induced_super_iso(s1: SuperAlgebra, s2: SuperAlgebra, rows: Sequence[int]) -> Optional[LinearMap]:
    """The map e_u -> e_{Mu}, alpha -> alpha o M^{-1}, verified as a
    parity- and squaring-compatible isomorphism s1 -> s2.

    The cheap conditions (gamma images and parities, squaring) are
    checked before the bracket check, which gates every returned map.
    """
    clo1, clo2 = s1.closure, s2.closure
    n = clo1.n
    pos2 = {u: i for i, u in enumerate(clo2.gamma)}
    images: List[int] = []
    for i, u in enumerate(clo1.gamma):
        k = pos2.get(gf2.apply_rows(rows, u))
        if k is None or s2.parity[k] != s1.parity[i]:
            return None
        images.append(1 << k)
    minv = gf2.invert(list(rows), n)
    if minv is None:
        return None
    for t in range(n):
        # alpha_t o M^{-1} = sum_s (M^{-1})_{t s} alpha_s: functional x -> alpha_t(M^{-1} x)
        img = 0
        for s in range(n):
            if (minv[s] >> t) & 1:
                img |= 1 << (clo2.base.dim + s)
        images.append(img)
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
        self.kind = kind  # "equivalent" | "no-map-found" | "exhausted-no-map"
        self.map = mapping
        self.tried = tried

    def __repr__(self):
        return "<superizations %s (%d maps tried)>" % (self.kind, self.tried)


def equivalence_of_superizations(s1: SuperAlgebra, s2: SuperAlgebra,
                                 quadratic: Optional[QuadraticFormSpec] = None,
                                 budget: int = 100000) -> EquivalenceVerdict:
    """Search for M with the stated preservation constraints inducing a
    super-isomorphism: M preserves B (Kap_2) or Q (Kap_4), and the induced
    maps must match parities and squarings.

    Exhaustive over the isometry group of B or Q for n <= 4 (|Sp(4,2)| =
    720, |O+(4,2)| = 72, |O-(4,2)| = 120 maps); for larger n a randomized
    budget of GL(n,2) samples applies, so only the positive verdict is
    certain there.  A negative exhaustive verdict rules out maps of the
    induced shape only.
    """
    clo1 = s1.closure
    n = clo1.n
    tried = 0
    for rows in _isometries(clo1.B, quadratic, budget=budget):
        tried += 1
        m = induced_super_iso(s1, s2, rows)
        if m is not None:
            return EquivalenceVerdict("equivalent", m, tried)
    return EquivalenceVerdict("exhausted-no-map" if n <= 4 else "no-map-found", None, tried)


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
    v = gf2.solve(rows, rhs, n)
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

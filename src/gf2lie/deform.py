"""Deformation engine: one-parameter deforms, Jacobiator obstructions,
semi-triviality certificates, and the named deformation checks (Jurman,
the alpha-family, Kap_{4,B}).  The quantization comparison of
h'_Pi(2;2,2) with psl(4) is criterion 9 of `experiments`.

A family is the base bracket mu plus cochains m_a at the powers a >= 1 of
one formal parameter h, and its Jacobiator at h^k is the sum of
m_a∘m_b over a + b = k, with m_0 = mu (`jacobiator_part`); everything is
exact over GF(2) and specializes into GF(2^k) on demand.
"""

from __future__ import annotations

from itertools import combinations, product as _cartesian
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .cohomology import C3Index, Cochain2, combine, cyclic_compose_table, d2, is_coboundary, weight_block
from .constructions import (build_hamiltonian, build_jurman, build_kap2, build_kap4B, build_poisson,
                            image_rows, kap4B_images, monomial_rows, pq_names)
from .divpow import check_shearing, mono_offsets, mono_pack, mono_partial, mono_text, monomials, reindex_mono
from .fields import GF2, GF2k, Scalar, add_scaled
from .grading import MODULUS, cochain_weight
from .isom import search_isomorphism
from .liealg import (Algebra, AlgebraError, LinearMap, Subspace, Triple, brackets, cyclic_compose, quotient,
                     verify_morphism)

Pair = Tuple[int, int]


def defect(c: Cochain2) -> Dict[Triple, int]:
    """sum_cyc c(c(x,y),z): the quadratic Jacobi defect of the linear deform."""
    return cyclic_compose(c, c)


def jacobiator_part(terms: Dict[int, object], k: int) -> Dict[Triple, int]:
    """The h^k part of the Jacobiator of sum_a h^a terms[a]: the sum of
    terms[a]∘terms[k - a] over the powers a present, a ascending; terms[0],
    when present, is the base algebra (Gerstenhaber, Ann. Math. 79, 1964)."""
    out: Dict[Triple, int] = {}
    for a in range(k + 1):
        if a in terms and k - a in terms:
            cyclic_compose(terms[a], terms[k - a], out)
    return out


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

class DeformFamily:
    """base bracket + sum over the powers a >= 1 of h^a terms[a]."""

    def __init__(self, base: Algebra, terms: Dict[int, Cochain2], name: str = ""):
        if 0 in terms:
            raise AlgebraError("the constant term is the base bracket, not a cochain")
        self.base = base
        self.terms = {a: c for a, c in terms.items() if c}
        self.name = name or (base.name + " deform")

    def specialize(self, hbar: Scalar, grading=None, grading_mod=None) -> Algebra:
        """Evaluate the parameter at hbar, in its field; zero gives the base."""
        field = hbar.field
        sc: Dict[Pair, Dict[int, int]] = {ij: dict(row) for ij, row in self.base.sc.items()}
        for a, c in self.terms.items():
            coeff = field.pow(hbar.value, a)
            if not coeff:
                continue
            for (i, j), w in c.terms.items():
                add_scaled(field, sc.setdefault((i, j), {}), coeff, self.base.as_dict(w))
        sc = {pr: row for pr, row in sc.items() if row}
        return Algebra(field, self.base.labels, sc, grading=grading, grading_mod=grading_mod,
                       name="%s@%r" % (self.name, hbar), meta=self.base.meta)

    def jacobiator(self) -> Dict[int, Dict[Triple, int]]:
        """The nonzero h^k parts of the family's Jacobiator, k ascending."""
        terms = {0: self.base, **self.terms}
        parts = {k: jacobiator_part(terms, k) for k in range(2 * max(terms) + 1)}
        return {k: v for k, v in parts.items() if v}


def deform_bracket(g: Algebra, c: Cochain2, name: str = "") -> DeformFamily:
    """The family [x,y] + h c(x,y); c must be a 2-cocycle."""
    if d2(c):
        raise AlgebraError("the cochain is not a cocycle")
    return DeformFamily(g, {1: c}, name=name)


class ObstructionReport:
    def __init__(self, verdict: str, by_power: Dict[int, int]):
        self.verdict = verdict  # "linear-global" | "needs-correction" | "obstructed"
        self.by_power = by_power  # power of h -> number of nonzero triples

    def __repr__(self):
        return "<obstruction %s %r>" % (self.verdict, self.by_power)


def obstruction_poly(f: DeformFamily) -> ObstructionReport:
    """Expand the Jacobiator by parameter powers and classify.

    linear-global: identically zero beyond the base (the deform is a Lie
    bracket for every parameter value); otherwise the first nonvanishing
    power is tested against im d2: correctable or obstructed.
    """
    jac = f.jacobiator()
    if 0 in jac:
        raise AlgebraError("the base bracket fails Jacobi at (%s, %s, %s)"
                           % tuple(f.base.labels[t] for t in min(jac[0])))
    if not jac:
        return ObstructionReport("linear-global", {})
    by_power = {k: len(v) for k, v in jac.items()}
    if _d2_solutions(f.base, jac[min(jac)], ()):
        return ObstructionReport("needs-correction", by_power)
    return ObstructionReport("obstructed", by_power)


# ---------------------------------------------------------------------------
# representative search inside a cohomology class
# ---------------------------------------------------------------------------

# the most coboundaries a block may have: the representative search walks
# all 2^B sums of a block's B coboundaries
ENUM_LIMIT = 22


def _first_zero(q: List[List[int]]) -> Optional[int]:
    """The first x over GF(2)^B, in reflected Gray order from 0, at which the
    quadratic map with table q is zero, or None when it has no zero.

    q is (B+1)×(B+1) upper triangular, as `cyclic_compose_table` gives it
    for B generators and one start: the map is q[B][B] plus q[i][i] ^ q[i][B]
    at each set bit i of x plus q[i][j] at each set pair i < j.  Step t flips
    bit k = ctz(t), and the change of the map is the derivative in bit k at
    the other bits (Bouillaguet et al., "Fast Exhaustive Search for
    Polynomial Systems in F2", CHES 2010).  Below k the bits read e_(k-1)
    then; above k only the second-lowest set bit of t changed since k last
    flipped, so each derivative is kept up to date with one XOR.
    """
    B = len(q) - 1
    acc = q[B][B]
    if not acc:
        return 0
    d = [q[k][B] ^ q[k][k] ^ (q[k - 1][k] if k else 0) for k in range(B)]
    for t in range(1, 1 << B):
        low = t & -t
        k = low.bit_length() - 1
        rest = t ^ low
        if rest:  # not the first flip of bit k
            d[k] ^= q[k][(rest & -rest).bit_length() - 1]
        acc ^= d[k]
        if not acc:
            return t ^ t >> 1
    return None


def zero_defect_representative(g: Algebra, c: Cochain2, constraints=()) -> Optional[Cochain2]:
    """Search c + (coboundary block) for a representative with zero defect.

    The defect is quadratic over the block, and every sum of the block's
    coboundaries is tried, so None is conclusive.  A block of more than
    ENUM_LIMIT coboundaries is refused with AlgebraError.
    """
    if not defect(c):
        return c
    cbs = weight_block(g, constraints).coboundaries
    B = len(cbs)
    if B > ENUM_LIMIT:
        raise AlgebraError("the zero-defect search walks blocks of at most %d coboundaries "
                           "(ENUM_LIMIT), this one has %d" % (ENUM_LIMIT, B))
    x = _first_zero(cyclic_compose_table(cbs + [c], C3Index(g.dim)))
    if x is None:
        return None
    out = combine(cbs, x, c)
    if defect(out):
        raise AlgebraError("the representative the zero-defect search found has a nonzero defect")
    return out


def massey_tower(g: Algebra, c: Cochain2, constraints=()) -> Optional[Dict[int, Cochain2]]:
    """Try to integrate [x,y] + h c + h^2 m_2 + ... order by order.

    At order k the correction m_k must solve d2(m_k) = the h^k part of the
    Jacobiator of the lower terms; the solution is searched per weight
    block, at k times each constraint's weight, reduced.  Backtracks over
    the affine solution freedom within 4,096 branches, up to order 8.
    Returns the closed tower's terms {1: c, 2: m_2, ...}, or None; c must
    be a 2-cocycle.
    """
    if d2(c):
        raise AlgebraError("the cochain is not a cocycle")

    def scaled_constraints(k: int):  # weights add under composition
        return [(mode, tuple(k * x % MODULUS[mode] if MODULUS[mode] else k * x for x in w))
                for mode, w in constraints]

    budget = 4096

    def extend(terms: Dict[int, Cochain2], k: int) -> Optional[Dict[int, Cochain2]]:
        nonlocal budget
        if k > 2 * max(terms):  # all higher right-hand sides vanish: the tower closed
            return terms
        if k > 8 or budget <= 0:
            return None
        rhs = jacobiator_part(terms, k)
        if not rhs:
            return extend(terms, k + 1)
        budget -= 1
        for m_k in _d2_solutions(g, rhs, scaled_constraints(k)):
            closed = extend({**terms, k: m_k}, k + 1)
            if closed is not None:
                return closed
        return None

    return extend({1: c}, 2)


KERNEL_CAP = 6  # the most kernel offsets `_d2_solutions` adds to the particular solution


def _d2_solutions(g: Algebra, target: Dict, constraints):
    """Solutions m of d2(m) = target within a weight block: the particular
    one plus up to KERNEL_CAP kernel offsets (cocycles of the block), all
    read off the block's `d2_span`."""
    blk = weight_block(g, constraints)
    if not blk.coords:
        return []
    span, c3 = blk.d2_span()
    sol = span.solve(c3.encode(target))
    if sol is None:
        return []
    return [blk.decode(sol ^ kv) for kv in [0] + span.kernel[:KERNEL_CAP]]


def integrability_verdict(g: Algebra, c: Cochain2, constraints=()) -> Tuple[str, Optional[Cochain2]]:
    """('linear-global', rep) when some representative deforms globally and
    linearly; ('integrable-nonlinear', x) when a bounded Massey tower
    closes, x = c + m_2 + ... its Maurer-Cartan element, so mu + x is Lie;
    else ('obstructed', None).  Raises AlgebraError unless d2(x) = defect(x),
    which over GF(2) is the Maurer-Cartan equation (Goldman & Millson,
    Publ. IHES 67, 1988)."""
    rep = zero_defect_representative(g, c, constraints)
    if rep is not None:
        return "linear-global", rep
    tower = massey_tower(g, c, constraints)
    if tower is None:
        return "obstructed", None
    x = sum(tower.values(), Cochain2(g, {}))
    if d2(x) != defect(x):
        raise AlgebraError("the closed Massey tower's sum fails the Maurer-Cartan equation")
    return "integrable-nonlinear", x


# ---------------------------------------------------------------------------
# Jurman cocycles and the Jurman deform check
# ---------------------------------------------------------------------------

def _image_cochain(g: Algebra, images) -> Cochain2:
    """The 2-cochain of g with the image_rows values of `images`."""
    return Cochain2(g, image_rows(g.meta["mono_degrees"], g.meta["N"], images))


def jurman_cocycle(g: int, h: int, mirrored: bool = False) -> Cochain2:
    """The deforming cocycle on h'_Pi(2;(g,h+1)).

    As a map: (x,y) -> p^(eta) (d_q x d_q^2 y + d_q^2 x d_q y) with
    eta = 2^g - 1; the mirrored version swaps the roles of p and q
    (theta = 2^(h+1) - 1) and deforms into j(h+1, g-1).
    """
    hp = build_hamiltonian(1, (g, h + 1), "derived")
    N = hp.meta["N"]
    # packed p^(eta), d_q at offset g; or q^(theta) (above p's g bits), d_p at offset 0
    mult, var, o = (((1 << (h + 1)) - 1) << g, 0, 0) if mirrored else ((1 << g) - 1, 1, g)

    def images(mono):
        # d^(k) takes packed p to p - (k << o); the factor folds into the left image
        p = mono_pack(mono, N)
        d = [p - (k << o) if mono[var] >= k else None for k in range(3)]
        left = [None if d[k] is None or d[k] & mult else d[k] | mult for k in (1, 2)]
        return left, [d[2], d[1]]
    return _image_cochain(hp, images)


def lambda_grading(g_alg: Algebra, cocycle_weight: Tuple[int, int]):
    """A rank-1 Z-grading of the base that the deformed bracket preserves."""
    w1, w2 = cocycle_weight
    from math import gcd
    d = gcd(abs(w1), abs(w2)) or 1
    lam = (-w2 // d, w1 // d)
    if lam[0] < 0 or (lam[0] == 0 and lam[1] < 0):
        lam = (-lam[0], -lam[1])
    grading = []
    for w in g_alg.grading:
        grading.append((lam[0] * w[0] + lam[1] * w[1],))
    return grading


class JurmanDeformReport:
    def __init__(self, g, h, cocycle, weight, iso_result, deformed, target):
        self.g = g
        self.h = h
        self.cocycle = cocycle
        self.weight = weight
        self.iso = iso_result
        self.deformed = deformed
        self.target = target

    @property
    def ok(self) -> bool:
        return self.iso.kind == "iso"

    def __repr__(self):
        return "<jurman deform (%d,%d): weight %s, iso %s>" % (self.g, self.h, self.weight, self.iso.kind)


def jurman_deform_check(g: int, h: int, mirrored: bool = False) -> JurmanDeformReport:
    """Deform h'_Pi(2;(g,h+1)) by the Jurman cocycle at parameter 1 and
    match the result with j(g,h) by isomorphism search."""
    c = jurman_cocycle(g, h, mirrored=mirrored)
    hp = c.algebra
    w = cochain_weight(c, "z")
    fam = deform_bracket(hp, c, name="h'_Pi deformed by jurman cocycle")
    rep = obstruction_poly(fam)
    if rep.verdict != "linear-global":
        raise AlgebraError("jurman deform unexpectedly not linear-global: %r" % rep)
    grading = lambda_grading(hp, w)
    deformed = fam.specialize(GF2.one, grading=grading, grading_mod=(0,))
    target = build_jurman(g, h) if not mirrored else build_jurman(h + 1, g - 1)
    iso = search_isomorphism(deformed, target)
    return JurmanDeformReport(g, h, c, w, iso, deformed, target)


# ---------------------------------------------------------------------------
# semi-triviality certificates
# ---------------------------------------------------------------------------

def bracket_map_cochain(g: Algebra, D: Sequence[int]) -> Cochain2:
    """The 2-cochain (x, y) -> [D x, D y] for a linear map D (image masks)."""
    pairs = combinations(range(g.dim), 2)
    return Cochain2(g, {p: w for p, w in zip(pairs, brackets(g, D)) if w})


def partial_matrix(g_alg: Algebra, var: int, power: int = 1) -> List[int]:
    """d^power / d(var)^power as images of the monomial basis; quotiented
    coordinates (constants) drop to zero."""
    basis = g_alg.meta["mono_degrees"]
    return monomial_rows(basis, basis, lambda m: [mono_partial(m, *[var] * power)])


class Certificate:
    def __init__(self, mapping: LinearMap, description: str):
        self.map = mapping
        self.description = description

    def __repr__(self):
        return "<certificate %s>" % self.description


def semitrivial_certificate(fam: DeformFamily, hbar: Scalar) -> Optional[Certificate]:
    """Find an isomorphism from the specialized deform onto the base.

    Strategy (a): maps F = id + a1 D + a2 D^2 + a3 D^3 for nilpotent
    derivation candidates D (every d_i^(2^s), s < 3), coefficients
    brute-forced over the specialization field, sqrt(hbar) first.
    Strategy (b): generic isomorphism search.
    """
    field = hbar.field
    base = fam.base
    deformed = fam.specialize(hbar)
    base_f = Algebra(field, base.labels, base.sc, name=base.name, meta=base.meta)
    candidates = [("d_%s^%d" % (base.meta["vars"][v], 1 << s), partial_matrix(base, v, 1 << s))
                  for v in range(len(base.meta["N"])) for s in range(3)]
    sq = hbar.sqrt().value
    coeff_order = sorted(range(field.order), key=lambda x: (x != sq, x))
    for dname, D in candidates:
        # nilpotency degree of D
        rows = D
        powers = [None, D]
        deg = 1
        while any(rows) and deg < 8:
            rows = gf2.compose(D, rows)
            powers.append(rows)
            deg += 1
        if any(rows):
            continue  # not nilpotent
        r = deg - 1  # D^deg = 0
        for coeffs in _cartesian(*([coeff_order] * r)):
            if all(c == 0 for c in coeffs):
                continue
            images: List[Dict[int, int]] = []
            for i in range(base.dim):
                vec = {i: 1}
                for k, ck in enumerate(coeffs, start=1):
                    add_scaled(field, vec, ck, base.as_dict(powers[k][i]))
                images.append(vec)
            m = LinearMap(deformed, base_f, images)
            if verify_morphism(m, "isomorphism"):
                parts = []
                for k, ck in enumerate(coeffs, start=1):
                    if ck:
                        parts.append("%s*(%s)^%d" % (field.text(ck), dname, k))
                return Certificate(m, "F = id + " + " + ".join(parts))
    cert = _rescale_and_search_certificate(fam, deformed, base_f)
    if cert is not None:
        return cert
    if isinstance(field, GF2k) and field.k == 1:
        res = search_isomorphism(deformed, base_f)
        if res.kind == "iso":
            return Certificate(res.map, "generic search (%s engine)" % res.engine)
    return None


def _rescale_and_search_certificate(fam: DeformFamily, deformed: Algebra,
                                    base_f: Algebra) -> Optional[Certificate]:
    """Move the parameter to 1 by a grading torus map, search over GF(2),
    and compose; the diagonal scaling carries the sqrt(hbar)-style
    non-differentiability.  `deformed` is fam at hbar and `base_f` the base,
    both over the field of hbar."""
    field = base_f.field
    base = fam.base
    if 1 not in fam.terms or base.grading is None:
        return None
    c = fam.terms[1]
    try:
        w = cochain_weight(c, "z")
    except AlgebraError:
        return None
    d = next((x for x in w if x), None)
    if d is None:
        return None
    axis = w.index(d)
    # deform at 1 over GF(2), searched against the base
    grading = lambda_grading(base, w) if len(w) == 2 else None
    mod = (0,) if grading else None
    alg1 = fam.specialize(GF2.one, grading=grading, grading_mod=mod)
    base1 = Algebra.from_gf2_rows(base.labels, base.rows, grading=grading, grading_mod=mod,
                                  name=base.name, meta=base.meta)
    res = search_isomorphism(alg1, base1)
    if res.kind != "iso":
        return None
    gmask = res.map.images  # GF(2) masks
    exps = [g_[axis] for g_ in base.grading]
    for eta in range(1, field.order):
        images: List[Dict[int, int]] = []
        for i in range(base.dim):
            e = exps[i] % (field.order - 1) if field.order > 2 else 0
            scale = field.pow(eta, e)
            vec: Dict[int, int] = {}
            for k_ in gf2.bits(gmask[i]):
                vec[k_] = scale
            images.append(vec)
        m = LinearMap(deformed, base_f, images)
        if verify_morphism(m, "isomorphism"):
            return Certificate(m, "torus rescale (eta=%s on axis %d) + GF(2) %s search"
                               % (field.text(eta), axis, res.engine))
    return None


# ---------------------------------------------------------------------------
# the alpha-family of Poisson brackets
# ---------------------------------------------------------------------------

def poisson_family(m_pairs: int, N: Sequence[int], alpha: Scalar) -> Algebra:
    """[f,g]_{Pi,alpha} = sum D_{alpha,p_i} f D_{alpha,q_i} g + (p<->q).

    alpha = 1 is the Poisson bracket; alpha = 0 degenerates to the
    reindexed tensor-product bracket.  D_alpha is d on odd exponents and
    alpha d on even ones, so the bracket is B_0 + alpha B_1 + alpha^2 B_2,
    B_e the GF(2) bracket whose terms take e of their two derivatives at
    even exponents.
    """
    field = alpha.field
    N = check_shearing(N)
    if len(N) != 2 * m_pairs:
        raise AlgebraError("need one shearing entry per variable")
    monos = monomials(N)
    offs = mono_offsets(N)
    terms = [uv for t in range(m_pairs) for uv in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t))]

    def images(parities):
        # (left, right) parities per term, 0 even and 1 odd
        def at(mono):
            p = mono_pack(mono, N)
            d = [[p - (1 << o) if x and x & 1 == r else None for r in (0, 1)]
                 for x, o in zip(mono, offs)]
            return ([d[u][r] for u, _ in terms for r, _ in parities],
                    [d[v][s] for _, v in terms for _, s in parities])
        return at

    sc: Dict[Pair, Dict[int, int]] = {}
    for e, parities in enumerate([[(1, 1)], [(1, 0), (0, 1)], [(0, 0)]]):
        c = field.pow(alpha.value, e)
        if not c:
            continue
        for ab, w in image_rows(monos, N, images(parities)).items():
            add_scaled(field, sc.setdefault(ab, {}), c, dict.fromkeys(gf2.bits(w), 1))
    names = pq_names(m_pairs)
    return Algebra(field, [mono_text(m, names) for m in monos], {ab: sc[ab] for ab in sorted(sc) if sc[ab]},
                   name="po_Pi(%d;%s)@alpha=%r" % (2 * m_pairs, list(N), alpha),
                   meta={"vars": tuple(names), "N": N, "mono_degrees": monos})


def f_alpha_matrix(g_alg: Algebra, alpha: Scalar) -> List[Dict[int, int]]:
    """F_alpha as a diagonal map on the monomial basis of a function algebra."""
    basis = g_alg.meta["mono_degrees"]
    field = alpha.field
    out = []
    for t, m in enumerate(basis):
        e = sum(x >> 1 for x in m)
        out.append({t: field.pow(alpha.value, e)})
    return out


def reindex_map(src: Algebra, dst: Algebra) -> LinearMap:
    """The digit-splitting bijection between function algebras as a LinearMap."""
    N = src.meta["N"]
    return LinearMap(src, dst, monomial_rows(src.meta["mono_degrees"], dst.meta["mono_degrees"],
                                             lambda m: [reindex_mono(m, N)]))


# ---------------------------------------------------------------------------
# Kap_{4,B} as a deformed Poisson algebra
# ---------------------------------------------------------------------------

def kap4b_family(m: int) -> DeformFamily:
    """po_Pi(2m;1_s) with bracket sum (1 + h p_i)(1 + h q_i)(...): the
    linear term is the h-coefficient cochain, the quadratic term the
    h^2 one."""
    po = build_poisson(m, (1,) * (2 * m))
    # (1 + h p)(1 + h q) = 1 + h (p + q) + h^2 p q, factors as in kap4B_images
    return DeformFamily(po, {1: _image_cochain(po, kap4B_images(m, (1, 2))),
                             2: _image_cochain(po, kap4B_images(m, (3,)))},
                        name="Kap4B family")


class Kap4bReport:
    def __init__(self, m, linear_is_coboundary, quadratic_is_cocycle,
                 quadratic_is_coboundary, at_one_equals_kap4b, quotient_iso_verified):
        self.m = m
        self.linear_is_coboundary = linear_is_coboundary
        self.quadratic_is_cocycle = quadratic_is_cocycle
        self.quadratic_is_coboundary = quadratic_is_coboundary
        self.at_one_equals_kap4b = at_one_equals_kap4b
        self.quotient_iso_verified = quotient_iso_verified

    @property
    def ok(self):
        return (self.linear_is_coboundary and self.quadratic_is_cocycle
                and not self.quadratic_is_coboundary and self.at_one_equals_kap4b
                and self.quotient_iso_verified)

    def __repr__(self):
        return ("<Kap4B m=%d: c1 coboundary %s, c2 cocycle %s (coboundary %s), "
                "at h=1 %s, quotient iso %s>" % (
                    self.m, self.linear_is_coboundary, self.quadratic_is_cocycle,
                    self.quadratic_is_coboundary, self.at_one_equals_kap4b,
                    self.quotient_iso_verified))


def kap4b_quotient_map(m: int) -> LinearMap:
    """e_u <-> f_u = prod (1+p_i)^{u_i} (1+q_i)^{u_{m+i}} from Kap_2(2m) to
    Kap_{4,B}(2m)/constants."""
    k4b = build_kap4B(2 * m)
    quo = quotient(k4b, Subspace(k4b, [1]), name="Kap4B(%d)/c" % (2 * m))
    kap2 = build_kap2(2 * m)

    def expansion(u):  # prod (1+x) over the support of u: all sub-monomials of it; the constant drops
        sup = {2 * t if t < m else 2 * (t - m) + 1 for t in gf2.bits(u)}
        return _cartesian(*[(0, 1) if v in sup else (0,) for v in range(2 * m)])
    return LinearMap(kap2, quo, monomial_rows(kap2.meta["jsystem_gamma"], quo.meta["mono_degrees"], expansion))


def kap4b_as_deform(m: int) -> Kap4bReport:
    fam = kap4b_family(m)
    po = fam.base
    c1 = fam.terms[1]
    c2 = fam.terms[2]
    lin_cob = is_coboundary(c1)
    quad_cocycle = not d2(c2)
    quad_cob = is_coboundary(c2)
    at1 = fam.specialize(GF2.one)
    k4b = build_kap4B(2 * m)
    same = at1.rows == k4b.rows
    quo_map = kap4b_quotient_map(m)
    quo_ok = verify_morphism(quo_map, "isomorphism")
    return Kap4bReport(m, lin_cob, quad_cocycle, quad_cob, same, quo_ok)

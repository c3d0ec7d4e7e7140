"""Deformation engine: parameter-polynomial bracket families, Jacobiator
obstructions, semi-triviality certificates, and the named deformation
checks (Jurman, quantization, the alpha-family, Kap_{4,B}).

A family is the base bracket plus cochain increments weighted by
monomials in the formal parameters; everything is exact over GF(2) and
specializes into GF(2^k) on demand.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .cohomology import (Block, C3Index, Cochain2, Triple, coboundary_block, combine, compute_h2,
                         cyclic_compose, d2, is_coboundary)
from .constructions import build_hamiltonian, build_jurman, build_kap2, build_kap4B, pq_names
from .divpow import monomials, mono_mul
from .fields import GF2, GF2k, Scalar
from .grading import cochain_weight
from .isom import search_isomorphism
from .liealg import Algebra, AlgebraError, LinearMap, Subspace, quotient, verify_morphism

Pair = Tuple[int, int]
ParamMono = Tuple[int, ...]


def defect(c: Cochain2) -> Dict[Triple, int]:
    """sum_cyc c(c(x,y),z): the quadratic Jacobi defect of the linear deform."""
    return cyclic_compose(c, c)


def in_d2_image(g: Algebra, target: Dict[Triple, int]) -> Optional[Cochain2]:
    """Solve d2(x) = target over all of C^2; None when the class is nonzero."""
    sols = _d2_solutions(g, target, (), kernel_cap=0)
    return sols[0] if sols else None


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

class DeformFamily:
    """base bracket + sum over parameter monomials of cochain increments."""

    def __init__(self, base: Algebra, params: Sequence[str],
                 terms: Dict[ParamMono, Cochain2], name: str = ""):
        self.base = base
        self.params = list(params)
        zero = tuple(0 for _ in self.params)
        for mono in terms:
            if len(mono) != len(self.params):
                raise AlgebraError("parameter monomial arity mismatch")
            if mono == zero:
                raise AlgebraError("the constant term is the base bracket, not a cochain")
        self.terms = {m: c for m, c in terms.items() if c}
        self.name = name or (base.name + " deform")

    def specialize(self, values: Sequence[Scalar], grading=None, grading_mod=None) -> Algebra:
        """Evaluate the parameters in a common field; zero gives the base."""
        if len(values) != len(self.params):
            raise AlgebraError("need one value per parameter")
        field = values[0].field
        n = self.base.dim
        sc: Dict[Pair, Dict[int, int]] = {}
        for (i, j), row in self.base.sc.items():
            sc[(i, j)] = {k: v for k, v in row.items()}
        for mono, c in self.terms.items():
            coeff = field.one.value
            for e, val in zip(mono, values):
                coeff = field.mul(coeff, field.pow(val.value, e))
            if not coeff:
                continue
            for (i, j), w in c.terms.items():
                row = sc.setdefault((i, j), {})
                for k in gf2.bits(w):
                    s = field.add(row.get(k, 0), coeff)
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        sc = {pr: row for pr, row in sc.items() if row}
        return Algebra(field, self.base.labels, sc, grading=grading, grading_mod=grading_mod,
                       name=self.name + "@" + ",".join(repr(v) for v in values),
                       meta=self.base.meta)

    def jacobiator(self) -> Dict[ParamMono, Dict[Triple, int]]:
        """Jacobi defect of the family, collected by parameter monomial."""
        terms = {tuple(0 for _ in self.params): self.base, **self.terms}
        out: Dict[ParamMono, Dict[Triple, int]] = {}
        for m1, a in terms.items():
            for m2, b in terms.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                tri = cyclic_compose(a, b, out.get(key, {}))
                if tri:
                    out[key] = tri
        return {k: v for k, v in out.items() if v}


def deform_bracket(g: Algebra, c: Cochain2, param: str = "h", check: bool = True,
                   name: str = "") -> DeformFamily:
    """The family [x,y] + h c(x,y); c must be a 2-cocycle."""
    if check and d2(c):
        raise AlgebraError("the cochain is not a cocycle")
    return DeformFamily(g, [param], {(1,): c}, name=name)


class ObstructionReport:
    def __init__(self, verdict: str, by_mono: Dict[ParamMono, int], witness=None):
        self.verdict = verdict  # "linear-global" | "needs-correction" | "obstructed"
        self.by_mono = by_mono  # parameter monomial -> number of nonzero triples
        self.witness = witness

    def __repr__(self):
        return "<obstruction %s %r>" % (self.verdict, self.by_mono)


def obstruction_poly(f: DeformFamily) -> ObstructionReport:
    """Expand the Jacobiator by parameter powers and classify.

    linear-global: identically zero beyond the base (the deform is a Lie
    bracket for every parameter value); otherwise the first nonvanishing
    coefficient is tested against im d2: correctable or obstructed.
    """
    jac = f.jacobiator()
    zero = tuple(0 for _ in f.params)
    if zero in jac:
        raise AlgebraError("the base bracket fails Jacobi at (%s, %s, %s)"
                           % tuple(f.base.labels[t] for t in min(jac[zero])))
    if not jac:
        return ObstructionReport("linear-global", {})
    by_mono = {m: len(v) for m, v in jac.items()}
    first = min(jac, key=lambda m: (sum(m), m))
    fix = in_d2_image(f.base, jac[first])
    if fix is None:
        return ObstructionReport("obstructed", by_mono, witness=first)
    return ObstructionReport("needs-correction", by_mono, witness=(first, fix))


# ---------------------------------------------------------------------------
# representative search inside a cohomology class
# ---------------------------------------------------------------------------

def _gray_steps(nbits: int):
    """Consecutive Gray-code pairs covering all 2^nbits values from 0."""
    prev = 0
    for t in range(1, 1 << nbits):
        cur = t ^ (t >> 1)
        yield prev, cur
        prev = cur


def zero_defect_representative(g: Algebra, c: Cochain2, constraints=(),
                               enum_limit: int = 22) -> Optional[Cochain2]:
    """Search c + (coboundary block) for a representative with zero defect.

    The defect is quadratic over the block.  Small blocks are enumerated
    exhaustively (conclusive); larger ones fall back to Newton iteration
    on the quadratic system (conclusive only when it succeeds).
    """
    d_c = defect(c)
    if not d_c:
        return c
    cbs = coboundary_block(g, list(constraints))
    B = len(cbs)
    cross_c = [cyclic_compose(b, c, cyclic_compose(c, b)) for b in cbs]
    d_b: Dict[Tuple[int, int], Dict[Triple, int]] = {}
    for i in range(B):
        d_b[(i, i)] = defect(cbs[i])
        for j in range(i + 1, B):
            d_b[(i, j)] = cyclic_compose(cbs[j], cbs[i], cyclic_compose(cbs[i], cbs[j]))
    c3 = C3Index(g.dim)
    enc_dc = c3.encode(d_c)
    enc_cross = [c3.encode(x) for x in cross_c]
    enc_q = {k: c3.encode(d_b[k]) for k in sorted(d_b)}
    if B <= enum_limit:
        # Gray-code walk over the block with int-encoded 3-cochains: a bit
        # flip costs O(B) xors, so 2^B candidates stay affordable to B ~ 22.
        acc = enc_dc
        if not acc:
            return c
        cur = 0
        for g_prev, g_next in _gray_steps(B):
            t = g_prev ^ g_next
            i = t.bit_length() - 1
            delta = enc_cross[i] ^ enc_q[(i, i)]
            for j in gf2.bits(cur & ~t):
                a, b = (i, j) if i < j else (j, i)
                delta ^= enc_q[(a, b)]
            acc ^= delta
            cur = g_next
            if not acc:
                out = combine(cbs, cur, c)
                assert not defect(out)
                return out
        return None
    # Newton iteration on F(x) = d_c + sum x_i cross_i + sum x_i x_j q_ij = 0
    import random as _random
    rng = _random.Random(0)

    def f_of(xmask: int) -> int:
        acc = enc_dc
        sel = list(gf2.bits(xmask))
        for i in sel:
            acc ^= enc_cross[i]
        for ai in range(len(sel)):
            for bi in range(ai, len(sel)):
                acc ^= enc_q[(sel[ai], sel[bi])]
        return acc

    width = c3.width
    for attempt in range(8):
        x = 0 if attempt == 0 else rng.getrandbits(B)
        for _round in range(12):
            fx = f_of(x)
            if not fx:
                out = combine(cbs, x, c)
                assert not defect(out)
                return out
            # derivative at x: L_i = cross_i + sum_j x_j q_{ij} + q_{ii}
            span = gf2.TaggedSpan(width)
            for i in range(B):
                li = enc_cross[i] ^ enc_q[(i, i)]
                for j in gf2.bits(x):
                    a, b = min(i, j), max(i, j)
                    if a != b:
                        li ^= enc_q[(a, b)]
                span.add(li)
            sol = span.solve(fx)
            if sol is None:
                break
            x ^= sol
    return None


def massey_tower(g: Algebra, c: Cochain2, constraints=(), max_order: int = 8,
                 branch_budget: int = 4096) -> dict:
    """Try to integrate [x,y] + h c + h^2 m_2 + ... order by order.

    At order k the correction m_k must solve d2(m_k) = sum of composed
    lower terms; the solution is searched per weight block (constraints
    scale with the order for Z-type modes).  Backtracks over the affine
    solution freedom within a branch budget.  Returns a report dict.
    """
    def scaled_constraints(k: int):
        out = []
        for mode, w in constraints:
            if mode == "mod2":
                out.append((mode, w))
            else:
                out.append((mode, tuple(k * x for x in w)))
        return out

    state = {"budget": branch_budget, "stuck_order": None}

    def extend(terms: Dict[int, Cochain2], k: int) -> bool:
        if k > max_order or k > 2 * max(terms):
            # all higher right-hand sides vanish: the tower closed
            return k > 2 * max(terms)
        if state["budget"] <= 0:
            return False
        rhs: Dict[Triple, int] = {}
        for a in range(1, k):
            b = k - a
            if a in terms and b in terms:
                cyclic_compose(terms[a], terms[b], rhs)
        if not rhs:
            return extend(terms, k + 1)
        state["budget"] -= 1
        sols = _d2_solutions(g, rhs, scaled_constraints(k))
        if not sols and state["stuck_order"] is None:
            state["stuck_order"] = k
        for m_k in sols:
            terms2 = dict(terms)
            terms2[k] = m_k
            if extend(terms2, k + 1):
                return True
        return False

    done = extend({1: c}, 2)
    return {"integrable": done, "stuck_order": state["stuck_order"]}


def _d2_solutions(g: Algebra, target: Dict, constraints, kernel_cap: int = 6):
    """Solutions m of d2(m) = target within a weight block: the particular
    one plus up to kernel_cap kernel offsets (cocycles of the block)."""
    blk = Block(g, constraints)
    if not blk.coords:
        return []
    c3 = C3Index(g.dim)
    images = blk.d2_columns(c3)
    tmask = c3.encode(target)
    span = gf2.TaggedSpan(c3.width)
    for im in images:
        span.add(im)
    sol = span.solve(tmask)
    if sol is None:
        return []
    offsets = gf2.combination_kernel(images, c3.width)[:kernel_cap] if kernel_cap else []
    return [blk.decode(sol ^ kv) for kv in [0] + offsets]


def integrability_verdict(g: Algebra, c: Cochain2, constraints=()) -> Tuple[str, Optional[Cochain2]]:
    """('linear-global', rep) when some representative deforms globally and
    linearly; 'integrable-nonlinear' when a bounded Massey tower closes;
    else 'obstructed' (with the first-obstruction class noted)."""
    rep = zero_defect_representative(g, c, constraints)
    if rep is not None:
        return "linear-global", rep
    tower = massey_tower(g, c, constraints)
    if tower["integrable"]:
        return "integrable-nonlinear", None
    return "obstructed", None


# ---------------------------------------------------------------------------
# Jurman cocycles and the Jurman deform check
# ---------------------------------------------------------------------------

def jurman_cocycle(g: int, h: int, mirrored: bool = False) -> Cochain2:
    """The deforming cocycle on h'_Pi(2;(g,h+1)).

    As a map: (x,y) -> p^(eta) (d_q x d_q^2 y + d_q^2 x d_q y) with
    eta = 2^g - 1; the mirrored version swaps the roles of p and q
    (theta = 2^(h+1) - 1) and deforms into j(h+1, g-1).
    """
    hp = build_hamiltonian(1, (g, h + 1), "derived")
    basis = hp.meta["mono_degrees"]
    index = {m: t for t, m in enumerate(basis)}
    N = hp.meta["N"]
    if not mirrored:
        mult = ((1 << g) - 1, 0)   # p^(eta)
        var = 1                    # differentiate in q
    else:
        mult = (0, (1 << (h + 1)) - 1)  # q^(theta)
        var = 0
    terms: Dict[Pair, int] = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            acc = 0
            for (da, db) in ((1, 2), (2, 1)):
                ma, mb = basis[a], basis[b]
                if ma[var] < da or mb[var] < db:
                    continue
                f1 = list(ma)
                f1[var] -= da
                f2 = list(mb)
                f2[var] -= db
                c1, m1 = mono_mul(tuple(f1), tuple(f2), N)
                if not c1:
                    continue
                c2, m2 = mono_mul(mult, m1, N)
                if not c2:
                    continue
                if m2 in index:
                    acc ^= 1 << index[m2]
            if acc:
                terms[(a, b)] = acc
    return Cochain2(hp, terms)


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


def jurman_united_family(K: int) -> DeformFamily:
    """All Jurman algebras j(g,h) with g+h = K as one multi-parameter family.

    The even part Y(0) and its action on the odd part Y(1) do not depend
    on the partition; only the odd-odd brackets do.  The base takes
    [odd, odd] = 0, and each partition contributes its odd-odd part as
    one parameter direction; the family is linear in the parameters.
    """
    from .constructions import jurman_bracket
    partitions = [(g, K - g) for g in range(2, K)]
    if not partitions:
        raise AlgebraError("K must be at least 3")
    kmax = 1 << K
    js = list(range(-1, kmax - 2))
    basis = [(j, t) for j in js for t in (0, 1)]
    index = {bt: i for i, bt in enumerate(basis)}
    sc: Dict[Pair, Dict[int, int]] = {}
    for a in range(len(basis)):
        ja, ta = basis[a]
        for b in range(a + 1, len(basis)):
            jb, tb = basis[b]
            if ta and tb:
                continue  # odd-odd lives in the parameter directions
            c, m, par = jurman_bracket(ja, ta, jb, tb, *partitions[0])
            c2 = jurman_bracket(ja, ta, jb, tb, *partitions[-1])[0]
            assert c == c2, "even/mixed brackets must not depend on the partition"
            if c:
                sc[(a, b)] = {index[(m, par)]: 1}
    base = Algebra(GF2, ["Y%d(%d)" % bt for bt in basis], sc, name="jurman united base")
    terms: Dict[ParamMono, Cochain2] = {}
    for t_idx, (g, h) in enumerate(partitions):
        ct: Dict[Pair, int] = {}
        for a in range(len(basis)):
            ja, ta = basis[a]
            if not ta:
                continue
            for b in range(a + 1, len(basis)):
                jb, tb = basis[b]
                if not tb:
                    continue
                c, m, par = jurman_bracket(ja, ta, jb, tb, g, h)
                if c:
                    ct[(a, b)] = ct.get((a, b), 0) ^ (1 << index[(m, par)])
        mono = tuple(1 if i == t_idx else 0 for i in range(len(partitions)))
        terms[mono] = Cochain2(base, ct)
    return DeformFamily(base, ["t%d%d" % p for p in partitions], terms,
                        name="jurman united family K=%d" % K)


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
    if d2(c):
        raise AlgebraError("jurman cochain is not a cocycle")
    w = cochain_weight(c, "z")
    fam = deform_bracket(hp, c, check=False, name="h'_Pi deformed by jurman cocycle")
    rep = obstruction_poly(fam)
    if rep.verdict != "linear-global":
        raise AlgebraError("jurman deform unexpectedly not linear-global: %r" % rep)
    grading = lambda_grading(hp, w)
    deformed = fam.specialize([GF2.one], grading=grading, grading_mod=(0,))
    target = build_jurman(g, h) if not mirrored else build_jurman(h + 1, g - 1)
    iso = search_isomorphism(deformed, target)
    return JurmanDeformReport(g, h, c, w, iso, deformed, target)


# ---------------------------------------------------------------------------
# the quantization deform: h'_Pi(2;a,a) -> psl(2^a)
# ---------------------------------------------------------------------------

def quantization_deform_check(a: int = 2):
    """Deform h'_Pi(2;a,a) by the weight (-2,-2) class at parameter 1 and
    compare with psl(2^a).  Returns (cocycle, iso result, fingerprint pair)."""
    from .constructions import build_classical
    from .isom import fingerprint
    hp = build_hamiltonian(1, (a, a), "derived")
    blk = compute_h2(hp, weight_filter=(-2, -2), mode="z")
    if blk.dim != 1:
        raise AlgebraError("expected a 1-dimensional (-2,-2) block, got %d" % blk.dim)
    c0 = blk.representatives[0]
    c = zero_defect_representative(hp, c0, [("z", (-2, -2))])
    if c is None:
        raise AlgebraError("no globally integrable representative in the (-2,-2) class")
    if is_coboundary(c):
        raise AlgebraError("quantization class collapsed to a coboundary")
    fam = deform_bracket(hp, c, check=False, name="h'_Pi quantization deform")
    grading = lambda_grading(hp, (-2, -2))
    deformed = fam.specialize([GF2.one], grading=grading, grading_mod=(0,))
    target = build_classical("psl", 1 << a)
    fps = (fingerprint(deformed), fingerprint(target))
    iso = search_isomorphism(deformed, target)
    return c, iso, fps


# ---------------------------------------------------------------------------
# semi-triviality certificates
# ---------------------------------------------------------------------------

def bracket_map_cochain(g: Algebra, D: Sequence[int]) -> Cochain2:
    """The 2-cochain (x, y) -> [D x, D y] for a linear map D (image masks)."""
    n = g.dim
    terms: Dict[Pair, int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.bracket(D[i], D[j])
            if w:
                terms[(i, j)] = w
    return Cochain2(g, terms)


def partial_matrix(g_alg: Algebra, var: int, power: int = 1) -> List[int]:
    """d^power / d(var)^power as images of the monomial basis; quotiented
    coordinates (constants) drop to zero."""
    basis = g_alg.meta["mono_degrees"]
    index = {m: t for t, m in enumerate(basis)}
    out = []
    for m in basis:
        if m[var] < power:
            out.append(0)
            continue
        m2 = list(m)
        m2[var] -= power
        m2 = tuple(m2)
        out.append(1 << index[m2] if m2 in index else 0)
    return out


class Certificate:
    def __init__(self, mapping: LinearMap, description: str):
        self.map = mapping
        self.description = description

    def __repr__(self):
        return "<certificate %s>" % self.description


def semitrivial_certificate(fam: DeformFamily, hbar: Scalar,
                            derivation_candidates: Optional[Sequence[Tuple[str, List[int]]]] = None,
                            search_budget: int = 200_000) -> Optional[Certificate]:
    """Find an isomorphism from the specialized deform onto the base.

    Strategy (a): maps F = id + a1 D + a2 D^2 + a3 D^3 for nilpotent
    derivation candidates D (all d_i^(2^s) by default), coefficients
    brute-forced over the specialization field, sqrt(hbar) first.
    Strategy (b): generic isomorphism search.
    """
    field = hbar.field
    base = fam.base
    deformed = fam.specialize([hbar])
    base_f = Algebra(field, base.labels, base.sc, name=base.name, meta=base.meta)
    if derivation_candidates is None:
        derivation_candidates = []
        nvars = len(base.meta["N"])
        for v in range(nvars):
            for s in range(3):
                name = "d_%s^%d" % (base.meta["vars"][v], 1 << s)
                derivation_candidates.append((name, partial_matrix(base, v, 1 << s)))
    sq = hbar.sqrt().value
    coeff_order = sorted(range(field.order), key=lambda x: (x != sq, x))
    for dname, D in derivation_candidates:
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
                    if not ck:
                        continue
                    w = powers[k][i]
                    for t in gf2.bits(w):
                        s = field.add(vec.get(t, 0), ck)
                        if s:
                            vec[t] = s
                        else:
                            vec.pop(t, None)
                images.append(vec)
            m = LinearMap(deformed, base_f, images)
            if verify_morphism(m, "isomorphism"):
                parts = []
                for k, ck in enumerate(coeffs, start=1):
                    if ck:
                        parts.append("%s*(%s)^%d" % (field.text(ck), dname, k))
                return Certificate(m, "F = id + " + " + ".join(parts))
    cert = _rescale_and_search_certificate(fam, hbar, search_budget)
    if cert is not None:
        return cert
    if isinstance(field, GF2k) and field.k == 1:
        res = search_isomorphism(deformed, base_f, budget=search_budget)
        if res.kind == "iso":
            return Certificate(res.map, "generic search (%s engine)" % res.engine)
    return None


def _rescale_and_search_certificate(fam: DeformFamily, hbar: Scalar,
                                    search_budget: int) -> Optional[Certificate]:
    """Move the parameter to 1 by a grading torus map, search over GF(2),
    and compose; the diagonal scaling carries the sqrt(hbar)-style
    non-differentiability."""
    field = hbar.field
    base = fam.base
    if len(fam.params) != 1 or (1,) not in fam.terms or base.grading is None:
        return None
    c = fam.terms[(1,)]
    try:
        w = cochain_weight(c, "z")
    except Exception:
        return None
    d = next((x for x in w if x), None)
    if d is None:
        return None
    axis = w.index(d)
    # deform at 1 over GF(2), searched against the base
    grading = lambda_grading(base, w) if len(w) == 2 else None
    mod = (0,) if grading else None
    alg1 = fam.specialize([GF2.one], grading=grading, grading_mod=mod)
    base1 = Algebra(GF2, base.labels, base.sc, grading=grading, grading_mod=mod,
                    name=base.name, meta=base.meta)
    res = search_isomorphism(alg1, base1, budget=search_budget)
    if res.kind != "iso":
        return None
    gmask = res.map.images  # GF(2) masks
    deformed = fam.specialize([hbar])
    base_f = Algebra(field, base.labels, base.sc, name=base.name, meta=base.meta)
    exps = [g_[axis] for g_ in base.grading]
    for eta in range(1, getattr(field, "order", 2) or 2):
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
    reindexed tensor-product bracket.
    """
    field = alpha.field
    N = tuple(N)
    monos = monomials(N)
    index = {m: t for t, m in enumerate(monos)}
    names = pq_names(m_pairs)
    pairs = [(2 * t, 2 * t + 1) for t in range(m_pairs)]
    sc: Dict[Pair, Dict[int, int]] = {}

    def dalpha(m, v):
        """(coefficient, monomial) of D_alpha,v on a monomial."""
        if m[v] == 0:
            return 0, None
        coeff = field.one.value if (m[v] & 1) else alpha.value
        if not coeff:
            return 0, None
        m2 = list(m)
        m2[v] -= 1
        return coeff, tuple(m2)

    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            row: Dict[int, int] = {}
            for (i, j) in pairs:
                for (u, v) in ((i, j), (j, i)):
                    ca, ma = dalpha(monos[a], u)
                    cb, mb = dalpha(monos[b], v)
                    if not ca or not cb:
                        continue
                    c2, mm = mono_mul(ma, mb, N)
                    if not c2:
                        continue
                    k = index[mm]
                    s = field.add(row.get(k, 0), field.mul(ca, cb))
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
            if row:
                sc[(a, b)] = row
    from .divpow import mono_text
    labels = [mono_text(m, names) for m in monos]
    return Algebra(field, labels, sc, name="po_Pi(%d;%s)@alpha=%r" % (2 * m_pairs, list(N), alpha),
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
    from .divpow import reindex_mono
    src_basis = src.meta["mono_degrees"]
    N = src.meta["N"]
    dst_index = {m: t for t, m in enumerate(dst.meta["mono_degrees"])}
    images = []
    for m in src_basis:
        images.append(1 << dst_index[reindex_mono(m, N)])
    return LinearMap(src, dst, images)


# ---------------------------------------------------------------------------
# Kap_{4,B} as a deformed Poisson algebra
# ---------------------------------------------------------------------------

def kap4b_family(m: int) -> DeformFamily:
    """po_Pi(2m;1_s) with bracket sum (1 + h p_i)(1 + h q_i)(...): the
    linear term is the h-coefficient cochain, the quadratic term the
    h^2 one."""
    from .constructions import build_poisson
    N = tuple(1 for _ in range(2 * m))
    po = build_poisson(m, N)
    basis = po.meta["mono_degrees"]
    index = {mm: t for t, mm in enumerate(basis)}

    def cochain_from(shifts: Sequence[Tuple[int, ...]]) -> Cochain2:
        terms: Dict[Pair, int] = {}
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                acc = 0
                for t in range(m):
                    pi, qi = 2 * t, 2 * t + 1
                    for (u, v) in ((pi, qi), (qi, pi)):
                        ma, mb = basis[a], basis[b]
                        if ma[u] == 0 or mb[v] == 0:
                            continue
                        da = list(ma)
                        da[u] -= 1
                        db = list(mb)
                        db[v] -= 1
                        c1, mm = mono_mul(tuple(da), tuple(db), N)
                        if not c1:
                            continue
                        for shift in shifts:
                            m2 = list(mm)
                            ok = True
                            for w in shift:
                                var = pi if w == 0 else qi
                                m2[var] += 1
                                if m2[var] > 1:
                                    ok = False
                                    break
                            if ok:
                                acc ^= 1 << index[tuple(m2)]
                if acc:
                    terms[(a, b)] = acc
        return Cochain2(po, terms)

    # (1 + h p)(1 + h q) = 1 + h (p + q) + h^2 p q
    c1 = cochain_from([(0,), (1,)])
    c2 = cochain_from([(0, 1)])
    return DeformFamily(po, ["h"], {(1,): c1, (2,): c2}, name="Kap4B family")


class Kap4bReport:
    def __init__(self, m, linear_is_coboundary, quadratic_is_cocycle,
                 quadratic_is_coboundary, at_one_equals_kap4b, quotient_iso_verified,
                 extra=None):
        self.m = m
        self.linear_is_coboundary = linear_is_coboundary
        self.quadratic_is_cocycle = quadratic_is_cocycle
        self.quadratic_is_coboundary = quadratic_is_coboundary
        self.at_one_equals_kap4b = at_one_equals_kap4b
        self.quotient_iso_verified = quotient_iso_verified
        self.extra = extra or {}

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
    const = Subspace(k4b, [1])
    quo = quotient(k4b, const, name="Kap4B(%d)/c" % (2 * m))
    kap2 = build_kap2(2 * m)
    basis = k4b.meta["mono_degrees"]
    index = {mm: t for t, mm in enumerate(basis)}
    # quotient dropped coordinate 0 (the constant); complement order preserved
    keep = [i for i in range(k4b.dim) if i != index[tuple(0 for _ in range(2 * m))]]
    pos = {old: new for new, old in enumerate(keep)}
    gamma = kap2.meta["jsystem_gamma"]
    images = []
    for u in gamma:
        # expand prod (1+x) over the support: all sub-monomials of it
        sup = [2 * t if t < m else 2 * (t - m) + 1 for t in gf2.bits(u)]
        img = 0
        for mask in range(1 << len(sup)):
            mono = [0] * (2 * m)
            for b in gf2.bits(mask):
                mono[sup[b]] = 1
            t = index[tuple(mono)]
            if t in pos:
                img ^= 1 << pos[t]
        images.append(img)
    return LinearMap(kap2, quo, images)


def kap4b_as_deform(m: int) -> Kap4bReport:
    fam = kap4b_family(m)
    po = fam.base
    c1 = fam.terms[(1,)]
    c2 = fam.terms[(2,)]
    lin_cob = is_coboundary(c1)
    quad_cocycle = not d2(c2)
    quad_cob = is_coboundary(c2)
    at1 = fam.specialize([GF2.one])
    k4b = build_kap4B(2 * m)
    same = at1.sc == k4b.sc
    quo_map = kap4b_quotient_map(m)
    quo_ok = verify_morphism(quo_map, "isomorphism")
    return Kap4bReport(m, lin_cob, quad_cocycle, quad_cob, same, quo_ok)

import hashlib
import json

import pytest

from gf2lie import constructions, gf2, liealg
from gf2lie.constructions import (BilinearFormSpec, JSystemSpec, QuadraticFormSpec,
                                  arf_invariant, build_a2gh, build_classical,
                                  build_div_free_hI, build_hI, build_hamiltonian,
                                  build_jurman, build_kap1, build_kap2, build_kap3,
                                  build_kap4A, build_kap4B,
                                  build_multipair, build_po_tensor_O, build_poisson,
                                  dim_kap4A, pq_names)
from gf2lie.divpow import check_shearing, mono_mul, mono_pack, mono_text, monomials
from gf2lie.liealg import Algebra, AlgebraError, Subspace, center, derived_subalgebra, simplicity_check
from test_divpow import mono_unpack
from test_liealg import _loop_quotient, _loop_subalgebra_on


def test_poisson_smallest():
    po = build_poisson(1, (1, 1))
    # {p, q} = 1
    labels = po.labels
    p, q, one = labels.index("p"), labels.index("q"), labels.index("1")
    assert po.brk(p, q) == {one: 1}
    assert po.dim == 4


def test_poisson_bracket_rule():
    po = build_poisson(1, (2, 2))
    monos = po.meta["mono_degrees"]
    idx = {m: i for i, m in enumerate(monos)}
    # {p^(2), q} = p
    assert po.brk(idx[(2, 0)], idx[(0, 1)]) == {idx[(1, 0)]: 1}
    # constants are central
    one = idx[(0, 0)]
    assert all(not po.brk(one, j) for j in range(po.dim))


def test_hamiltonian_dims_and_grading():
    h = build_hamiltonian(1, (2, 2))
    assert h.dim == 15
    hp = build_hamiltonian(1, (2, 2), "derived")
    assert hp.dim == 14
    from collections import Counter
    byweight = Counter(sum(w) for w in hp.grading)
    assert [byweight[k] for k in sorted(byweight)] == [2, 3, 4, 3, 2]


def test_hI_validates():
    hi = build_hI(2, (2, 2))
    assert hi.dim == 15 and hi.validate().ok


def test_div_free_hI():
    lh = build_div_free_hI(4, (1, 1, 1, 1))
    assert lh.dim == 15  # divergence vanishes identically for 1_s
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    assert lhp.dim == 14
    # divergence functional vanishes on every basis element by construction
    for mono in lhp.meta["mono_degrees"]:
        assert all(e < 2 for e in mono)


def test_jurman_dims_and_jacobi():
    for (g, h) in [(2, 1), (3, 1), (2, 2)]:
        j = build_jurman(g, h)
        assert j.dim == (1 << (g + h + 1)) - 2
        assert j.validate().ok
    with pytest.raises(AlgebraError):
        build_jurman(1, 1)


def test_jurman_alternation():
    j = build_jurman(2, 1)
    i = j.labels.index("Y-1(1)")
    assert not j.brk(i, i)


def test_a2gh():
    a = build_a2gh(2, 1)
    assert a.validate().ok
    der = build_a2gh(2, 1, "derived")
    # derived drops exactly the top element x^(2^(g+h)-1) y
    assert der.dim == a.dim - 1
    assert "x^(7)*y" not in der.labels
    quo = build_a2gh(2, 1, "derived_mod_center")
    assert quo.dim == (1 << 4) - 2


def test_a2gh_isomorphic_to_jurman():
    # the explicit map Y_i(0) = x^(i+1) y, Y_i(1) = x^(i+2)
    from gf2lie.liealg import LinearMap, verify_morphism
    quo = build_a2gh(2, 1, "derived_mod_center")
    j = build_jurman(2, 1)
    monos = quo.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    images = []
    for (jj, t) in [(int(l[1:].split("(")[0]), int(l.split("(")[1][:-1])) for l in j.labels]:
        mono = (jj + 1, 1) if t == 0 else (jj + 2, 0)
        images.append(1 << idx[mono])
    m = LinearMap(j, quo, images)
    assert verify_morphism(m, "isomorphism")


def test_multipair():
    for kind in ("Pi", "I"):
        g = build_multipair(kind, [(2, 1), (2, 1)])
        assert g.validate().ok
    assert build_multipair("Pi", [(2, 1)]).sc == build_a2gh(2, 1).sc


def _apply_del(mono, i, k, N):
    """d_i^k on a monomial (coefficient is always 1 on divided powers)."""
    if mono[i] < k:
        return None
    return mono[:i] + (mono[i] - k,) + mono[i + 1:]


def _tuple_a_brmono(pairs, N, kind):
    """The multipair bracket on exponent tuples through mono_mul, recomputing
    d_x and E on every call: the oracle for the packed operator images.  Its
    result is packed only on return, as the dense loop below takes it."""
    def ell(mono, xi, yi, gg):
        out = {}
        m1 = _apply_del(mono, yi, 1, N)
        if m1 is not None:
            out[m1] = 1
        m2 = _apply_del(mono, xi, 1 << gg, N)
        if m2 is not None and m2[yi] == 0:
            # multiply by y: exponent bound N(y)=1 makes this the only case
            m2y = m2[:yi] + (1,) + m2[yi + 1:]
            out[m2y] = out.get(m2y, 0) ^ 1
            if not out[m2y]:
                del out[m2y]
        return out

    def br(a, b):
        out = {}
        for (xi, yi, gg) in pairs:
            da = _apply_del(a, xi, 1, N)
            db = _apply_del(b, xi, 1, N)
            ea = ell(a, xi, yi, gg)
            eb = ell(b, xi, yi, gg)
            terms = []
            if kind == "Pi":
                if da is not None:
                    terms += [(da, mb) for mb in eb]
                if db is not None:
                    terms += [(ma, db) for ma in ea]
            else:
                if da is not None and db is not None:
                    terms.append((da, db))
                terms += [(ma, mb) for ma in ea for mb in eb]
            for (ma, mb) in terms:
                c, mono = mono_mul(ma, mb, N)
                if c:
                    if mono in out:
                        del out[mono]
                    else:
                        out[mono] = 1
        return {mono_pack(m, N): c for m, c in out.items()}
    return br


def _dense_function_algebra(names, N, brmono, mod_out=None, name="", grading=None,
                            grading_mod=None):
    """function_algebra as a callback loop over every basis pair, brmono(a, b)
    returning {packed monomial: coefficient}: the oracle for the pair walk
    over indexed operator images."""
    N = check_shearing(N)
    basis = [m for m in monomials(N) if not (mod_out and mod_out(m))]
    index = {mono_pack(m, N): i for i, m in enumerate(basis)}
    sc = {}
    for a, ma in enumerate(basis):
        for b in range(a + 1, len(basis)):
            out = brmono(ma, basis[b])
            if not out:
                continue
            row = 0
            for p, c in out.items():
                if c & 1:
                    k = index.get(p)
                    if k is not None:
                        row |= 1 << k
                    elif not (mod_out and mod_out(mono_unpack(p, N))):
                        raise AlgebraError("bracket leaves the basis at %r" % (mono_unpack(p, N),))
            if row:
                sc[(a, b)] = row
    labels = [mono_text(m, names) for m in basis]
    gr = [grading(m) for m in basis] if grading else None
    return Algebra.from_gf2_rows(labels, sc, grading=gr, grading_mod=grading_mod, name=name,
                                 meta={"vars": tuple(names), "N": N, "mono_degrees": basis})


def _partials_brmono(terms, N):
    """[f,g] = sum over (u, v) in terms of d_u f d_v g, in that order, on
    exponent tuples: the oracle for the partial-derivative images."""
    def br(a, b):
        out = {}
        for (u, v) in terms:
            if a[u] == 0 or b[v] == 0:
                continue
            da = a[:u] + (a[u] - 1,) + a[u + 1:]
            db = b[:v] + (b[v] - 1,) + b[v + 1:]
            c, mono = mono_mul(da, db, N)
            if c:
                w = mono_pack(mono, N)
                if w in out:
                    del out[w]
                else:
                    out[w] = 1
        return out
    return br


def _kap4B_brmono(m, N, coords):
    """The Kap_{4,B}(2m) bracket on exponent tuples, in p or x coordinates."""
    def br_p(a, b):
        out = {}
        for t in range(m):
            pi, qi = 2 * t, 2 * t + 1
            for (u, v) in ((pi, qi), (qi, pi)):
                if a[u] == 0 or b[v] == 0:
                    continue
                da = a[:u] + (a[u] - 1,) + a[u + 1:]
                db = b[:v] + (b[v] - 1,) + b[v + 1:]
                c, mono = mono_mul(da, db, N)
                if not c:
                    continue
                # multiply by (1+p_i)(1+q_i): four shifts, out-of-range drop
                for dp in (0, 1):
                    for dq in (0, 1):
                        if mono[pi] + dp > 1 or mono[qi] + dq > 1:
                            continue
                        mono2 = list(mono)
                        mono2[pi] += dp
                        mono2[qi] += dq
                        key = tuple(mono2)
                        out[key] = out.get(key, 0) ^ 1
                        if not out[key]:
                            del out[key]
        return {mono_pack(m, N): c for m, c in out.items()}

    def br_x(a, b):
        out = {}
        key = tuple(ea ^ eb for ea, eb in zip(a, b))
        for t in range(m):
            xi, yi = 2 * t, 2 * t + 1
            for (u, v) in ((xi, yi), (yi, xi)):
                if a[u] == 0 or b[v] == 0:
                    continue
                out[key] = out.get(key, 0) ^ 1
                if not out[key]:
                    del out[key]
        return {mono_pack(m, N): c for m, c in out.items()}
    return br_p if coords == "p" else br_x


def _kap4B_xy(twom):
    """Kap_{4,B}(2m) written in x_i = 1+p_i, y_i = 1+q_i.  Those satisfy
    x_i^2 = 1, so monomial products xor exponents, every monomial is
    invertible, and the bracket sum x_i y_i (...) is (Z/2)^(2m)-homogeneous:
    the derivative drops e_u, e_v and the x_i y_i factor restores exactly
    those bits, so [a, b] is the monomial a xor b times the symplectic
    pairing of a and b."""
    m, N = twom // 2, (1,) * twom
    names = [nm.replace("p", "x").replace("q", "y") for nm in pq_names(m)]
    basis = monomials(N)
    packed = [mono_pack(mono, N) for mono in basis]
    index = {u: i for i, u in enumerate(packed)}
    xs = sum(1 << (2 * t) for t in range(m))  # the x_i bits
    sc = {}
    for a, u in enumerate(packed):
        w = (u & xs) << 1 | (u >> 1) & xs  # u with x_i and y_i swapped
        for b in range(a + 1, len(packed)):
            if (w & packed[b]).bit_count() & 1:
                sc[(a, b)] = 1 << index[u ^ packed[b]]
    return Algebra.from_gf2_rows([mono_text(mono, names) for mono in basis], sc, grading=basis,
                                 grading_mod=(2,) * twom, name="Kap4,B(%d)" % twom,
                                 meta={"vars": tuple(names), "N": N, "mono_degrees": basis})


def _kap4_subalgebra(m, arf):
    """Kap_{4,A}(2m) as the kernel, inside the xy-coordinate Kap_{4,B}(2m),
    of A f = f + x1 dx1 f + y1 dy1 f (if arf) + sum x_i y_i dx_i dy_i f:
    each summand is a multiple of the monomial, so the kernel is spanned by
    the monomials where A has coefficient 0.  Returns (ambient, subspace)."""
    amb = _kap4B_xy(2 * m)

    def coefficient(mono):
        acc = 1 ^ (arf & (mono[0] ^ mono[1]))
        for t in range(m):
            acc ^= mono[2 * t] & mono[2 * t + 1]
        return acc
    rows = [1 << i for i, mono in enumerate(amb.meta["mono_degrees"]) if coefficient(mono) == 0]
    return amb, Subspace(amb, rows)


def _dense_build(build, *args):
    """build(*args) through the dense loop and the callback brackets."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(constructions, "function_algebra", _dense_function_algebra)
        m.setattr(constructions, "_partials_images", _partials_brmono)
        m.setattr(constructions, "_a_images", _tuple_a_brmono)
        return build(*args)


def _output(g):
    # rows as an item list: dict equality alone would ignore their order
    return (g.name, g.labels, list(g.rows.items()), g.grading, g.grading_mod, g.meta)


@pytest.mark.parametrize("pairs", [[(2, 1)], [(3, 1)], [(2, 2)], [(3, 2)],
                                   [(2, 1), (2, 1)], [(2, 1), (3, 1)]])
@pytest.mark.parametrize("kind", ["Pi", "I"])
def test_packed_multipair_bracket_matches_tuple_oracle(kind, pairs):
    new = build_multipair(kind, pairs)
    old = _dense_build(build_multipair, kind, pairs)
    assert _output(new) == _output(old)
    for variant in ("derived", "derived_mod_center"):
        a = constructions._apply_variant(new, variant)
        b = constructions._apply_variant(old, variant)
        assert _output(a) == _output(b), variant


FUNCTION_ALGEBRAS = [
    (build_poisson, 1, (1, 1)), (build_poisson, 1, (2, 3)), (build_poisson, 1, (3, 1)),
    (build_poisson, 2, (1, 1, 1, 1)), (build_poisson, 2, (2, 1, 1, 2)),
    (build_hamiltonian, 1, (2, 2), "full"), (build_hamiltonian, 1, (2, 2), "derived"),
    (build_hamiltonian, 1, (3, 3), "derived"),
    (build_hI, 2, (2, 2)), (build_hI, 3, (1, 2, 1)), (build_hI, 2, (3, 2), "derived"),
    (build_po_tensor_O, 1, (2,)), (build_po_tensor_O, 2, (1, 1))]


@pytest.mark.parametrize("case", FUNCTION_ALGEBRAS,
                         ids=lambda c: "%s%r" % (c[0].__name__, c[1:]))
def test_function_algebras_match_the_dense_callback_loop(case):
    build, args = case[0], case[1:]
    assert _output(build(*args)) == _output(_dense_build(build, *args))


def _dict_image_rows(basis, N, images):
    """image_rows as it was before its rows became masks: {(a, b): {k: 1}},
    each row in the order its terms cancel.  The oracle for the masks."""
    full = (1 << sum(N)) - 1
    pos = [None] * (full + 1)
    for i, m in enumerate(basis):
        pos[mono_pack(m, N)] = i
    ims = [images(m) for m in basis]
    R = [{} for _ in ims[0][0]]
    for b, (_, right) in enumerate(ims):
        for t, v in enumerate(right):
            if v is not None:
                R[t].setdefault(v, []).append(b)
    sc = {}
    for a, (left, _) in enumerate(ims):
        rows = {}
        for u, Rt in zip(left, R):
            if u is None:
                continue
            free = s = full ^ u
            while True:
                bs = Rt.get(s)
                k = pos[u | s]
                if bs is not None and k is not None:
                    for b in bs:
                        if b > a:
                            row = rows.setdefault(b, {})
                            if k in row:
                                del row[k]
                            else:
                                row[k] = 1
                if not s:
                    break
                s = (s - 1) & free
        for b in sorted(rows):
            if rows[b]:
                sc[(a, b)] = rows[b]
    return sc


IMAGE_ROW_BUILDERS = (
    FUNCTION_ALGEBRAS
    + [(build_multipair, kind, pairs) for kind in ("Pi", "I")
       for pairs in ([(2, 1)], [(3, 1)], [(2, 2)], [(3, 2)], [(2, 1), (2, 1)], [(2, 1), (3, 1)])]
    + [(build_kap4B, twom) for twom in (2, 4, 6)])


@pytest.mark.parametrize("case", IMAGE_ROW_BUILDERS, ids=lambda c: "%s%r" % (c[0].__name__, c[1:]))
def test_image_rows_masks_match_the_dict_oracle(case, monkeypatch):
    # every function algebra a builder makes: its masks are the oracle's
    # rows, key order included, its sc view is them, and its JSON is that
    # of the algebra on the oracle's rows
    seen, real = [], constructions.function_algebra

    def spy(names, N, images, *args, **kwargs):
        g = real(names, N, images, *args, **kwargs)
        seen.append((g, _dict_image_rows(g.meta["mono_degrees"], g.meta["N"], images)))
        return g
    monkeypatch.setattr(constructions, "function_algebra", spy)
    case[0](*case[1:])
    assert seen
    for g, old in seen:
        assert list(g.rows) == list(old) and g.rows == {ab: gf2.from_bits(row) for ab, row in old.items()}
        assert g.sc == old
        assert g.dumps() == Algebra(g.field, g.labels, old, g.grading, g.grading_mod, g.name, g.meta).dumps()


@pytest.mark.parametrize("coords", ["p", "x"])
@pytest.mark.parametrize("twom", [2, 4, 6])
def test_kap4B_matches_the_dense_callback_loop(twom, coords):
    # coords 'p' is the package build; 'x' the xy-coordinate test helper
    m, N = twom // 2, (1,) * twom
    names = pq_names(m)
    if coords == "x":
        names = [nm.replace("p", "x").replace("q", "y") for nm in names]
    kw = {"grading": lambda mono: mono, "grading_mod": (2,) * twom} if coords == "x" else {}
    old = _dense_function_algebra(names, N, _kap4B_brmono(m, N, coords),
                                  name="Kap4,B(%d)" % twom, **kw)
    new = build_kap4B(twom) if coords == "p" else _kap4B_xy(twom)
    assert _output(new) == _output(old)


@pytest.mark.parametrize("step", [lambda p: p - 1, lambda p: p + 16],
                         ids=["below-zero", "above-the-width"])
def test_images_outside_the_basis_are_refused(step):
    # on O[2;(2,2)] every packed monomial lies in 0..15; d_p without its
    # exponent test takes the constant to -1
    def images(mono):
        p = mono_pack(mono, (2, 2))
        return [step(p)], [p - 4 if mono[1] else None]
    with pytest.raises(AlgebraError, match="bracket leaves the basis"):
        constructions.function_algebra(["p", "q"], (2, 2), images)


def test_structure_sweep_multipairs_pinned():
    # sha256 of the labels and sorted structure constants, computed with the
    # tuple bracket above
    pins = {("Pi", "full"): "41df12dcb0b6c3176964e08e807048771ddb6d7cb891ba83101a669dbd1eeafc",
            ("Pi", "derived_mod_center"):
                "4db4b2d54c2f60b673594730fa8e5562660a65ae653acfb9108b6d0041364846",
            ("I", "derived_mod_center"):
                "c749aa61defad280663484e01284ccfbedb1a6ff5db332ba9b9082e299c27b74"}
    for (kind, variant), pin in pins.items():
        g = build_multipair(kind, [(2, 1), (2, 1)], variant)
        doc = [g.labels, sorted([i, j, sorted(row.items())] for (i, j), row in g.sc.items())]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == pin, (kind, variant)


def test_multipair_derived_mod_center_no_center():
    g = build_multipair("Pi", [(2, 1), (2, 1)], "derived_mod_center")
    assert center(g).dim == 0
    gi = build_multipair("I", [(2, 1), (2, 1)], "derived_mod_center")
    assert center(gi).dim == 0


def test_multipair_no_homogeneous_ideals(monkeypatch):
    # homogeneous subspaces for the full multigrading are monomial-spanned,
    # so spinning every basis monomial settles the claim; with no random
    # seeds simplicity_check spins exactly the basis, in order, and passes
    # only if each basis monomial spins all of g
    for kind in ("Pi", "I"):
        g = build_multipair(kind, [(2, 1), (2, 1)], "derived_mod_center")
        monkeypatch.setattr(liealg, "SIMPLICITY_RANDOM_SEEDS", 0)
        v = simplicity_check(g)
        assert (v.kind, v.seeds_tried) == ("probable-simple", g.dim), kind


def test_kaplansky_dims():
    assert build_kap1(4).dim == 14
    for m in (1, 2, 3):
        assert build_kap2(2 * m).dim == (1 << (2 * m)) - 1
        for arf in (0, 1):
            assert build_kap4A(2 * m, arf).dim == dim_kap4A(m, arf)
        assert build_kap4B(2 * m).dim == 1 << (2 * m)
    assert build_kap3(5).dim == 10


def test_kap3_gaps_rejected():
    for n in (3, 4, 6, 8):
        with pytest.raises(AlgebraError):
            build_kap3(n)
    build_kap3(7)
    build_kap3(9)


def test_jsystem_closure_checked():
    B = BilinearFormSpec("Pi", 2)
    with pytest.raises(AlgebraError):
        JSystemSpec(B, [0b01, 0b10])  # B(e1,e2)=1 but e1+e2 missing


def test_kap4_subalgebra_conditions():
    # m=1, A=0: kernel is spanned by x1 y1 alone
    amb, sub = _kap4_subalgebra(1, 0)
    assert sub.dim == 1
    monos = amb.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    assert sub.rows() == [1 << idx[(1, 1)]]
    # m=2, A=1: dim 10, bracket-closed
    amb, sub = _kap4_subalgebra(2, 1)
    assert sub.dim == 10 == dim_kap4A(2, 1)
    assert sub.is_subalgebra()
    # m=3 closure too
    amb, sub = _kap4_subalgebra(3, 0)
    assert sub.dim == dim_kap4A(3, 0)
    assert sub.is_subalgebra()


def test_kap4_subalgebra_matches_gamma_build():
    # the kernel monomials are exactly the f_u with Q_A(u) = 1
    from gf2lie.isom import search_isomorphism
    amb, sub = _kap4_subalgebra(2, 1)
    inner = _loop_subalgebra_on(amb, sub)
    r = search_isomorphism(inner, build_kap4A(4, 1))
    assert r.kind == "iso"


def test_arf_invariant():
    for m in (1, 2, 3):
        assert arf_invariant(QuadraticFormSpec.standard(m, 0)) == 0
        assert arf_invariant(QuadraticFormSpec.standard(m, 1)) == 1


def test_arf_invariant_under_symplectic_change():
    import random
    from gf2lie import gf2 as G
    rng = random.Random(0)
    m = 2
    Q = QuadraticFormSpec.standard(m, 0)
    B = Q.polar
    found = 0
    while found < 10:
        rows = [rng.getrandbits(2 * m) for _ in range(2 * m)]
        if G.rank(rows) < 2 * m:
            continue
        ok = all(B.pair(G.apply_rows(rows, 1 << i), G.apply_rows(rows, 1 << j)) == B.pair(1 << i, 1 << j)
                 for i in range(2 * m) for j in range(2 * m))
        if not ok:
            continue
        found += 1
        vals = [Q.value(G.apply_rows(rows, 1 << t)) for t in range(2 * m)]
        Q2 = QuadraticFormSpec(B, vals)
        assert arf_invariant(Q2) == 0


def test_quadratic_polarization():
    # Q(u + v) + Q(u) + Q(v) = B(u, v) on every pair of vectors
    for m in (1, 2):
        for arf in (0, 1):
            Q = QuadraticFormSpec.standard(m, arf)
            vectors = range(1 << (2 * m))
            assert all(Q.value(u ^ v) ^ Q.value(u) ^ Q.value(v) == Q.polar.pair(u, v)
                       for u in vectors for v in vectors)


def test_classical_dims():
    assert build_classical("gl", 3).dim == 9
    assert build_classical("sl", 4).dim == 15
    assert build_classical("psl", 4).dim == 14
    assert build_classical("oPi", 3, "derived").dim == 3
    assert build_classical("oPi", 5, "derived").dim == 10
    assert build_classical("oI", 5, "derived").dim == 10
    # sl(n) for even n contains the scalars, so psl is strictly smaller
    assert build_classical("psl", 4).dim < build_classical("sl", 4).dim


def _symmetric_oI(n, variant):
    """o_I(n) as gl(n) on the symmetric matrices, spanned by the E_ii and the
    E_ij + E_ji: the oracle for o_I as o_Pi's kernel with the identity form."""
    gl = constructions.build_gl(n)
    rows = [1 << (i * n + i) for i in range(n)]
    rows += [(1 << (i * n + j)) | (1 << (j * n + i)) for i in range(n) for j in range(i + 1, n)]
    g = liealg.quotient(gl, Subspace(gl), "o_I(%d)" % n, within=Subspace(gl, rows))
    return constructions._apply_variant(g, variant)


@pytest.mark.parametrize("variant", ["full", "derived", "derived_mod_center"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_oI_matches_the_symmetric_matrices(n, variant):
    assert build_classical("oI", n, variant).dumps() == _symmetric_oI(n, variant).dumps()


def _vector_in_subalgebra(amb, sub, v):
    """Coordinates of an ambient vector in the basis of an algebra on a
    subspace, rebuilt from its labels: a unit row keeps the ambient label, a
    sum reads "(a+b+...)"."""
    rows = []
    for lbl in sub.labels:
        parts = lbl[1:-1].split("+") if lbl.startswith("(") and lbl.endswith(")") else [lbl]
        rows.append(gf2.from_bits(amb.labels.index(part) for part in parts))
    return gf2.solve(gf2.transpose(rows, amb.dim), [(v >> i) & 1 for i in range(amb.dim)])


@pytest.mark.parametrize("kind", ["sl", "psl"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classical_sl_psl_match_the_label_parsing_route(kind, n):
    # the identity's sl(n) coordinates were once recovered by parsing the
    # subalgebra's labels back into ambient rows; the builder now reads them
    # off the RREF pivots, and must build the same algebra byte for byte
    gl = constructions.build_gl(n)
    diag = gf2.from_bits(i * n + i for i in range(n))
    g = _loop_subalgebra_on(gl, Subspace(gl, gf2.kernel([diag], n * n)), name="sl(%d)" % n)
    if kind == "psl" and n % 2 == 0:
        g = _loop_quotient(g, Subspace(g, [_vector_in_subalgebra(gl, g, diag)]), name="psl(%d)" % n)
    assert build_classical(kind, n).dumps() == g.dumps()


def test_kap1_equals_lhI_derived_monomially():
    # x^u -> e_u is an isomorphism on the nose
    from gf2lie.liealg import LinearMap, verify_morphism
    kap1 = build_kap1(4)
    lhp = build_div_free_hI(4, (1, 1, 1, 1), "derived")
    gamma = kap1.meta["jsystem_gamma"]
    monos = lhp.meta["mono_degrees"]
    idx = {m: t for t, m in enumerate(monos)}
    images = [1 << idx[gf2.to_tuple(u, 4)] for u in gamma]
    m = LinearMap(kap1, lhp, images)
    assert verify_morphism(m, "isomorphism")


def test_kap2_center_zero():
    assert center(build_kap2(4)).dim == 0


def test_builders_validate():
    for g in [build_kap1(5), build_kap2(6), build_kap3(5), build_kap4A(6, 1),
              build_kap4B(6), build_classical("oI", 4), build_classical("oPi", 4)]:
        assert g.validate().ok, g.name


def _two_step_variant(alg, variant):
    """A variant through the algebra on the derived subalgebra's RREF basis,
    then its center and the quotient: the oracle for the one-step path."""
    der = _loop_subalgebra_on(alg, derived_subalgebra(alg), name=alg.name + "'")
    if variant == "derived":
        return der
    return _loop_quotient(der, center(der), name=alg.name + "'/c")


VARIANT_PARENTS = (
    [("multipair %s %r" % (kind, pairs), lambda kind=kind, pairs=pairs: build_multipair(kind, pairs))
     for kind in ("Pi", "I") for pairs in ([(2, 1)], [(3, 1)], [(2, 2)], [(2, 1), (2, 1)])]
    + [("a(2;%d,%d)" % gh, lambda gh=gh: build_a2gh(*gh)) for gh in ((2, 1), (3, 1))]
    + [("%s(%d)" % (kind, n), lambda kind=kind, n=n: build_classical(kind, n))
       for kind in ("gl", "sl", "oI", "oPi") for n in (2, 3, 4, 5)])


@pytest.mark.parametrize("variant", ["derived", "derived_mod_center"])
@pytest.mark.parametrize("build", [b for _, b in VARIANT_PARENTS], ids=[i for i, _ in VARIANT_PARENTS])
def test_one_step_variant_matches_the_two_step_oracle(build, variant):
    alg = build()
    new, old = constructions._apply_variant(alg, variant), _two_step_variant(alg, variant)
    assert (new.dumps(),) + _output(new) == (old.dumps(),) + _output(old)


@pytest.mark.parametrize("build, args, name", [
    (build_hamiltonian, (1, (2, 2)), "h'_Pi(2;[2, 2])"), (build_hamiltonian, (1, (2, 3)), "h'_Pi(2;[2, 3])"),
    (build_hamiltonian, (2, (1, 1, 1, 1)), "h'_Pi(4;[1, 1, 1, 1])"),
    (build_hI, (2, (2, 2)), "h'_I(2;[2, 2])"), (build_hI, (3, (1, 1, 1)), "h'_I(3;[1, 1, 1])"),
    (build_div_free_hI, (4, (1, 1, 1, 1)), "lh_I(4;[1, 1, 1, 1])'"),
    (build_div_free_hI, (3, (2, 1, 1)), "lh_I(3;[2, 1, 1])'")])
def test_function_algebra_derived_matches_the_two_step_oracle(build, args, name):
    full = build(*args)
    new = build(*args, "derived")
    old = _loop_subalgebra_on(full, derived_subalgebra(full), name=name)
    assert (new.dumps(),) + _output(new) == (old.dumps(),) + _output(old)


def test_the_variant_corpus_covers_a_derived_algebra_off_the_basis_vectors():
    # gl(n)'s derived algebra is not spanned by basis vectors, so its
    # variants take quotient's row-pair loop
    for n in (2, 3, 4, 5):
        assert any(r & (r - 1) for r in derived_subalgebra(build_classical("gl", n)).rows())


@pytest.mark.parametrize("kind", ["Pi", "I"])
def test_a_multipair_variant_is_one_checked_intake(kind, monkeypatch):
    calls, intake = [], Algebra.from_gf2_rows
    monkeypatch.setattr(Algebra, "from_gf2_rows",
                        classmethod(lambda cls, *a, **k: calls.append(a) or intake(*a, **k)))
    build_multipair(kind, [(2, 1), (2, 1)], "derived_mod_center")
    assert len(calls) == 2  # the full algebra and the variant


@pytest.mark.parametrize("kind, n, variant", [("psl", 4, "full"), ("gl", 4, "derived_mod_center"),
                                              ("gl", 5, "derived_mod_center")])
def test_a_classical_subquotient_is_one_checked_intake(kind, n, variant, monkeypatch):
    calls, intake = [], Algebra.from_gf2_rows
    monkeypatch.setattr(Algebra, "from_gf2_rows",
                        classmethod(lambda cls, *a, **k: calls.append(a) or intake(*a, **k)))
    g = build_classical(kind, n, variant)
    # gl(n)'s intake, then the subquotient's own
    assert [len(labels) for labels, _ in calls] == [n * n, g.dim]


@pytest.mark.parametrize("build", [b for _, b in VARIANT_PARENTS], ids=[i for i, _ in VARIANT_PARENTS])
def test_center_within_a_subalgebra_is_the_center_of_the_algebra_on_it(build):
    g = build()
    D = derived_subalgebra(g)
    compress = gf2.compressor(D.pivots())
    assert [compress(r) for r in center(g, D).rows()] == center(_loop_subalgebra_on(g, D)).rows()

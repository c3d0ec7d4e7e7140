import math
import random

import pytest

from gf2lie import experiments, gf2
from gf2lie.constructions import (build_hamiltonian, build_hI, build_jurman, build_kap2, build_kap4B,
                                  build_po_tensor_O, build_poisson, divergence_operator_kernel, monomial_rows)
from gf2lie.deform import f_alpha_matrix, kap4b_quotient_map, partial_matrix, poisson_family, reindex_map
from gf2lie.divpow import (
    check_shearing, mono_mul, mono_offsets, mono_pack, mono_partial, monomials, reindex_mono,
)
from gf2lie.fields import GF2, GF2k, Scalar
from gf2lie.grading import associated_graded, weisfeiler_filtration
from gf2lie.liealg import LinearMap, Subspace, quotient, verify_morphism
from test_deform import POISSON_SHAPES

F4, F8 = GF2k(2), GF2k(3)


def mono_unpack(p, N):
    """The inverse of mono_pack: the exponent of each variable, read off its
    N[i] bits."""
    out = []
    for n in N:
        out.append(p & ((1 << n) - 1))
        p >>= n
    return tuple(out)


def packed_mul(a, b):
    """mono_mul on packed monomials, the product rule `image_rows` reads
    off masks: (1, a | b), or (0, None) if they share a bit."""
    return (0, None) if a & b else (1, a | b)


def big_binom_odd(n, k):
    """Independent oracle: big-integer binomial coefficient mod 2."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) & 1


def test_mono_mul_against_binomial_oracle_exhaustive():
    # single variable, exponents < 2^6
    N = (6,)
    for k in range(64):
        for l in range(64):
            coeff, mono = mono_mul((k,), (l,), N)
            expect = big_binom_odd(k + l, k) if k + l < 64 else 0
            assert coeff == expect, (k, l)
            if coeff:
                assert mono == (k + l,)


@pytest.mark.parametrize("N", [(3, 1, 2), (2, 2)])
def test_packed_mul_matches_mono_mul_exhaustive(N):
    monos = monomials(N)
    packed = [mono_pack(r, N) for r in monos]
    assert len(set(packed)) == len(monos)
    assert [mono_unpack(p, N) for p in packed] == monos
    zeros = 0
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            coeff, mono = mono_mul(a, b, N)
            pcoeff, pmono = packed_mul(pa, pb)
            assert pcoeff == coeff, (a, b)
            if coeff:
                assert mono_unpack(pmono, N) == mono, (a, b)
            else:
                zeros += 1
                assert pmono is None, (a, b)
    assert 0 < zeros < len(monos) ** 2


def test_mono_offsets():
    assert mono_offsets((3, 1, 2)) == (0, 3, 4)
    assert mono_pack((5, 1, 2), (3, 1, 2)) == 5 | 1 << 3 | 2 << 4


def test_mono_mul_examples():
    N = (3,)
    assert mono_mul((1,), (2,), N) == (1, (3,))     # binom(3,1)=3 odd
    assert mono_mul((1,), (1,), N)[0] == 0          # binom(2,1)=2 even
    assert mono_mul((3,), (4,), N) == (1, (7,))     # binom(7,3)=35 odd


def test_squares_are_constant():
    # f^2 lands in the constants for every f in O[m;N]: the cross terms
    # pair off and x^(r) x^(r) = binom(2r, r) x^(2r) is even unless r = 0
    N = (2, 1)
    packed = [mono_pack(r, N) for r in monomials(N)]
    rng = random.Random(1)
    for trial in range(200):
        f = {p for p in packed if rng.getrandbits(1)}
        square = set()  # the terms of f * f, packed
        for a in f:
            for b in f:
                coeff, ab = packed_mul(a, b)
                if coeff:
                    square ^= {ab}
        assert square == ({0} if 0 in f else set())


PO22 = build_poisson(1, (2, 2))


def _po_index(g):
    return {m: t for t, m in enumerate(g.meta["mono_degrees"])}


def test_partial_derivative_basics():
    N = (3, 1)
    po = build_poisson(1, N)
    idx = _po_index(po)
    d_p = partial_matrix(po, 0)
    assert d_p[idx[(3, 1)]] == 1 << idx[(2, 1)]  # x^(r) -> x^(r - e_i)
    assert d_p[idx[(0, 1)]] == 0 and d_p[idx[(0, 0)]] == 0
    d_p2 = partial_matrix(po, 0, 2)
    assert d_p2[idx[(3, 0)]] == 1 << idx[(1, 0)] and d_p2[idx[(1, 1)]] == 0


def test_partials_commute():
    for g in (PO22, build_poisson(2, (2, 1, 1, 2))):
        n_vars = len(g.meta["N"])
        d = [partial_matrix(g, i) for i in range(n_vars)]
        for i in range(n_vars):
            for j in range(n_vars):
                assert gf2.compose(d[i], d[j]) == gf2.compose(d[j], d[i]), (i, j)
            # in divided powers d_i^2 x^(r) = x^(r - 2e_i), the power-2 matrix
            assert gf2.compose(d[i], d[i]) == partial_matrix(g, i, 2)


def test_leibniz():
    # each d_i commutes with d_p, d_q and obeys Leibniz on the product, so
    # it is a derivation of the Poisson bracket: d[x,y] = [dx,y] + [x,dy]
    for g in (PO22, build_poisson(1, (2, 3)), build_poisson(2, (2, 1, 1, 2))):
        for i in range(len(g.meta["N"])):
            d = partial_matrix(g, i)
            for a in range(g.dim):
                for b in range(a + 1, g.dim):
                    x, y = 1 << a, 1 << b
                    assert (gf2.apply_rows(d, g.bracket(x, y))
                            == g.bracket(d[a], y) ^ g.bracket(x, d[b])), (i, a, b)


def _f_alpha_diagonal(g, alpha):
    return [row[t] for t, row in enumerate(f_alpha_matrix(g, alpha))]


def test_f_alpha_on_monomials():
    t = F4.gen()
    fam = poisson_family(1, (3, 1), t)
    idx = _po_index(fam)
    diag = _f_alpha_diagonal(fam, t)
    assert diag[idx[(5, 0)]] == F4.pow(t.value, 2)  # [5/2] + [0/2] = 2
    assert diag[idx[(5, 1)]] == F4.pow(t.value, 2)
    assert diag[idx[(3, 0)]] == t.value and diag[idx[(1, 1)]] == 1


def test_f_alpha_multiplicative():
    # F_alpha(x^(r) x^(s)) = F_alpha(x^(r)) F_alpha(x^(s)) on every nonzero
    # packed product: [r_i/2] adds up when r_i and s_i share no bit
    t = F4.gen()
    for m, N in [(1, (2, 3)), (2, (2, 1, 1, 2))]:
        fam = poisson_family(m, N, t)
        packed = [mono_pack(r, N) for r in fam.meta["mono_degrees"]]
        idx = {p: k for k, p in enumerate(packed)}
        diag = _f_alpha_diagonal(fam, t)
        products = 0
        for a, pa in enumerate(packed):
            for b, pb in enumerate(packed):
                coeff, pab = packed_mul(pa, pb)
                if coeff:
                    products += 1
                    assert diag[idx[pab]] == F4.mul(diag[a], diag[b]), (a, b)
        assert products > len(packed)


def test_f_alpha_composition_law():
    # F_alpha F_beta = F_{alpha beta}, and F_1 is the identity
    fam = poisson_family(1, (2, 3), F4.one)
    for a in range(4):
        for b in range(4):
            al, be = Scalar(F4, a), Scalar(F4, b)
            composed = [F4.mul(x, y) for x, y in zip(_f_alpha_diagonal(fam, al), _f_alpha_diagonal(fam, be))]
            assert composed == _f_alpha_diagonal(fam, al * be), (a, b)
    assert _f_alpha_diagonal(fam, F4.one) == [1] * fam.dim


def test_d_alpha_cases():
    # [f, q] = D_{alpha,p} f, since D_{alpha,q} q = 1 and D_{alpha,p} q = 0:
    # D_alpha is d on odd exponents and alpha d on even ones
    t = F4.gen()
    for alpha in (t, F4.zero):
        fam = poisson_family(1, (3, 1), alpha)
        idx = _po_index(fam)

        def bracket_with_q(r):
            a, b = sorted((idx[r], idx[(0, 1)]))
            return fam.sc.get((a, b), {})

        assert bracket_with_q((2, 0)) == ({idx[(1, 0)]: t.value} if alpha else {})
        assert bracket_with_q((3, 0)) == {idx[(2, 0)]: 1}


def test_d_alpha_matches_conjugated_partial():
    # D_alpha = F_alpha^-1 d F_alpha, so F_alpha carries the alpha-bracket
    # onto the Poisson bracket: an isomorphism for every alpha != 0
    for field in (F4, F8):
        for a in range(1, field.order):
            alpha = Scalar(field, a)
            for m, N in POISSON_SHAPES:
                fam, po = poisson_family(m, N, alpha), poisson_family(m, N, field.one)
                f = LinearMap(fam, po, f_alpha_matrix(fam, alpha))
                assert verify_morphism(f, "isomorphism"), (field, a, N)


def test_reindex_examples():
    N = (3,)
    assert reindex_mono((5,), N) == (1, 2)
    assert reindex_mono((0,), N) == (0, 0)
    assert reindex_mono((3, 1, 4), (2, 1, 3)) == (1, 1, 0, 1, 2)  # N_2 = 1 keeps no high digit


def test_reindex_multiplicative_and_conjugates_d0():
    # at alpha = 0 the digit split x^(r) -> y^(r mod 2) w^([r/2]) turns D_0
    # into d/dy: the alpha-bracket becomes po_Pi(2m;1_s) tensor O[N - 1]
    shapes = [(m, N) for m, N in POISSON_SHAPES if max(N) >= 2]
    assert len(shapes) == 4
    for m, N in shapes:
        fam = poisson_family(m, N, GF2.zero)
        tensor = build_po_tensor_O(m, [n - 1 for n in N if n >= 2])
        assert verify_morphism(reindex_map(fam, tensor), "isomorphism"), N


def test_monomial_order_is_grlex():
    ms = monomials((2, 1))
    assert ms[0] == (0, 0)
    degs = [sum(m) for m in ms]
    assert degs == sorted(degs)
    assert len(ms) == 8


def test_exponent_bounds_enforced():
    # exponents run over 0 <= r_i < 2^N_i, so each N_i must be at least 1
    for N in [(0,), (), (2, -1)]:
        with pytest.raises(ValueError):
            check_shearing(N)
    with pytest.raises(ValueError):
        build_poisson(1, (0, 2))
    assert max(monomials((2, 1))) == (3, 1)


# ---------------------------------------------------------------------------
# the one divided-power linear walk: mono_partial and monomial_rows, and the
# hand-rolled {monomial: index} loops they replaced, kept as oracles
# ---------------------------------------------------------------------------

def test_mono_partial():
    assert mono_partial((3, 1), 0, 0) == (1, 1)  # a repeated variable lowers twice
    assert mono_partial((3, 1), 0, 1) == (2, 0)
    assert mono_partial((3, 1), 1, 1) is None  # below zero
    assert mono_partial((0, 2), 0) is None
    assert mono_partial((2, 5)) == (2, 5)  # no variable: the identity
    assert mono_partial(()) == ()
    with pytest.raises(IndexError):
        mono_partial((1, 1), 2)  # no third variable


def test_monomial_rows_drops_and_cancels():
    target = [(0, 1), (1, 0), (1, 1)]
    images = {"a": [None, (1, 0)],  # None drops
              "b": [(0, 0), (1, 1)],  # (0, 0) lies outside the target and drops
              "c": [(0, 1), (1, 1), (0, 1)],  # a monomial listed twice cancels
              "d": []}
    assert monomial_rows("abcd", target, images.__getitem__) == [0b010, 0b100, 0b100, 0]


def _loop_partial_matrix(g_alg, var, power=1):
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


@pytest.mark.parametrize("g", [build_poisson(1, (2, 2)), build_hamiltonian(1, (2, 3), "derived"),
                               build_poisson(2, (1, 1, 1, 1)), build_hI(2, (2, 2))],
                         ids=lambda g: g.name)
def test_partial_matrix_matches_the_index_loop(g):
    for var in range(len(g.meta["N"])):
        for power in range(1, 5):
            assert partial_matrix(g, var, power) == _loop_partial_matrix(g, var, power), (var, power)


def _loop_divergence_kernel(h):
    basis = h.meta["mono_degrees"]
    N = h.meta["N"]
    nvars = len(N)
    full_monos = monomials(N)
    full_index = {m: i for i, m in enumerate(full_monos)}
    rows = []
    for m in basis:
        img = 0
        for i in range(nvars):
            if m[i] >= 2:
                m2 = m[:i] + (m[i] - 2,) + m[i + 1:]
                img ^= 1 << full_index[m2]
        rows.append(img)
    eqs = [e for e in gf2.transpose(rows, len(full_monos)) if e]
    return rows, Subspace(h, gf2.kernel(eqs, h.dim))


@pytest.mark.parametrize("n, N", [(4, (1,) * 4), (5, (1,) * 5), (6, (1,) * 6), (2, (2, 2))])
def test_divergence_kernel_matches_the_index_loop(n, N):
    h = build_hI(n, N)
    rows, kernel = _loop_divergence_kernel(h)
    assert monomial_rows(h.meta["mono_degrees"], monomials(N),
                         lambda m: [mono_partial(m, i, i) for i in range(n)]) == rows
    assert divergence_operator_kernel(h) == kernel


def test_harmonic_rows_match_the_index_loop():
    po = build_poisson(2, (1, 1, 1, 1))
    basis = po.meta["mono_degrees"]
    idx = {mm: t for t, mm in enumerate(basis)}
    rows = []
    for mono in basis:
        img = 0
        for t in range(2):
            pi, qi = 2 * t, 2 * t + 1
            if mono[pi] and mono[qi]:
                m2 = list(mono)
                m2[pi] -= 1
                m2[qi] -= 1
                img ^= 1 << idx[tuple(m2)]
        rows.append(img)
    assert any(rows)
    assert monomial_rows(basis, basis, lambda m: [mono_partial(m, 2 * t, 2 * t + 1) for t in range(2)]) == rows


@pytest.mark.parametrize("N", [(2, 2), (3, 2), (2, 3)])
def test_reindex_map_matches_the_index_loop(N):
    src = poisson_family(1, N, GF2.zero)
    dst = build_po_tensor_O(1, [n - 1 for n in N])
    dst_index = {m: t for t, m in enumerate(dst.meta["mono_degrees"])}
    images = []
    for m in src.meta["mono_degrees"]:
        images.append(1 << dst_index[reindex_mono(m, N)])
    assert reindex_map(src, dst).images == images


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kap4b_quotient_map_matches_the_index_loop(m):
    k4b = build_kap4B(2 * m)
    quo = quotient(k4b, Subspace(k4b, [1]), name="Kap4B(%d)/c" % (2 * m))
    kap2 = build_kap2(2 * m)
    index = {mm: t for t, mm in enumerate(quo.meta["mono_degrees"])}  # all but the constant
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
            t = index.get(tuple(mono))
            if t is not None:
                img ^= 1 << t
        images.append(img)
    assert kap4b_quotient_map(m).images == images


@pytest.mark.parametrize("g, h", [(2, 1), (3, 1), (2, 2)])
def test_gr_jurman_rows_match_the_index_loop(g, h):
    j = build_jurman(g, h)
    filt = weisfeiler_filtration(j, Subspace(j, [1 << i for i, lbl in enumerate(j.labels)
                                                 if not lbl.startswith("Y-1")]))
    gr = associated_graded(filt)
    hp = build_hamiltonian(1, (g, h + 1), "derived")
    eta = (1 << g) - 1
    mono_idx = {m: k for k, m in enumerate(hp.meta["mono_degrees"])}
    images = []
    for lbl in gr.labels:
        i_str, s_str = lbl[1:].split("(")
        i, s = int(i_str), int(s_str[:-1])
        a, beta = divmod(i + 1 + s, eta + 1)
        images.append(1 << mono_idx[(beta, 2 * a + 1 - s)])
    assert experiments._gr_jurman_rows(gr, hp, g) == images

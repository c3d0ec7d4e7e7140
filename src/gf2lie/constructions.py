"""Builders for the characteristic-2 algebra families: Poisson and
Hamiltonian algebras on divided powers, the Jurman series, their
two-derivation generalizations, the four Kaplansky types, classical
matrix algebras, and the small tensor-product deform example.

Every builder returns a validated Algebra (alternation structural,
Jacobi checked by the caller or in tests) with labeled basis, canonical
graded-lex monomial order, and grading metadata where the bracket is
homogeneous.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .divpow import check_shearing, mono_offsets, mono_pack, mono_partial, mono_text, monomials
from .fields import GF2, Scalar
from .liealg import (Algebra, AlgebraError, LinearMap, Subspace, center,
                     derived_subalgebra, quotient)

Mono = Tuple[int, ...]
# (left, right) operator images of a monomial, packed; see function_algebra
Images = Tuple[List[Optional[int]], List[Optional[int]]]


# ---------------------------------------------------------------------------
# bilinear and quadratic forms over GF(2)
# ---------------------------------------------------------------------------

class BilinearFormSpec:
    """Symmetric bilinear form on F_2^n given by row masks.

    kind 'Pi' is the standard alternate form with x-block first
    (B(e_i, e_{m+i}) = 1), kind 'I' the identity form.
    """

    def __init__(self, kind: str, n: int):
        self.kind = kind
        self.n = n
        if kind == "Pi":
            if n % 2:
                raise AlgebraError("alternate non-degenerate form needs even dimension")
            m = n // 2
            self.rows = [1 << (m + i) for i in range(m)] + [1 << i for i in range(m)]
        elif kind == "I":
            self.rows = [1 << i for i in range(n)]
        else:
            raise AlgebraError("unknown form kind %r" % kind)

    def pair(self, u: int, v: int) -> int:
        acc = 0
        for s in gf2.bits(u):
            acc ^= self.rows[s]
        return (acc & v).bit_count() & 1

    def is_nondegenerate(self) -> bool:
        return gf2.rank(self.rows) == self.n


class QuadraticFormSpec:
    """Quadratic form on F_2^(2m) by its values on basis vectors plus polar form."""

    def __init__(self, polar: BilinearFormSpec, basis_values: Sequence[int]):
        if len(basis_values) != polar.n:
            raise AlgebraError("need one value per basis vector")
        self.polar = polar
        self.basis_values = [v & 1 for v in basis_values]

    @classmethod
    def standard(cls, m: int, arf: int) -> "QuadraticFormSpec":
        """Q_0(u) = sum u_i u_{m+i};  Q_1 adds u_1^2 + u_{m+1}^2."""
        if arf not in (0, 1):
            raise AlgebraError("the Arf invariant is 0 or 1, not %r" % (arf,))
        polar = BilinearFormSpec("Pi", 2 * m)
        vals = [0] * (2 * m)
        if arf:
            vals[0] = 1
            vals[m] = 1
        return cls(polar, vals)

    def value(self, u: int) -> int:
        idx = list(gf2.bits(u))
        acc = 0
        for s in idx:
            acc ^= self.basis_values[s]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                acc ^= self.polar.pair(1 << idx[a], 1 << idx[b])
        return acc


def arf_invariant(Q: QuadraticFormSpec) -> int:
    """0 or 1 by majority count of Q=1 vectors; errors on malformed forms."""
    if not Q.polar.is_nondegenerate():
        raise AlgebraError("polar form is degenerate")
    n = Q.polar.n
    if n % 2:
        raise AlgebraError("quadratic form space must be even-dimensional")
    m = n // 2
    ones = sum(Q.value(u) for u in range(1 << n))
    if ones == (1 << (m - 1)) * ((1 << m) - 1):
        return 0
    if ones == (1 << (m - 1)) * ((1 << m) + 1):
        return 1
    raise AlgebraError("value count %d matches neither Arf class" % ones)


class JSystemSpec:
    """A set of nonzero vectors closed under addition of B-pairing-1 pairs."""

    def __init__(self, B: BilinearFormSpec, gamma: Sequence[int]):
        self.B = B
        self.gamma = sorted(set(gamma))
        if 0 in self.gamma:
            raise AlgebraError("J-system must not contain 0")
        gset = set(self.gamma)
        for u, v in combinations(self.gamma, 2):
            if self.B.pair(u, v) == 1 and (u ^ v) not in gset:
                raise AlgebraError("J-system not closed: %d + %d" % (u, v))

    def __len__(self):
        return len(self.gamma)


def jsystem_algebra(spec: JSystemSpec, name: str) -> Algebra:
    """g_Gamma with [e_u, e_v] = B(u,v) e_{u+v}."""
    gamma = spec.gamma
    index = {u: i for i, u in enumerate(gamma)}
    n = spec.B.n
    sc: Dict[Tuple[int, int], int] = {}
    for a in range(len(gamma)):
        for b in range(a + 1, len(gamma)):
            u, v = gamma[a], gamma[b]
            if spec.B.pair(u, v) and (u ^ v) in index:
                sc[(a, b)] = 1 << index[u ^ v]
    labels = ["e" + "".join(str((u >> t) & 1) for t in range(n)) for u in gamma]
    grading = [gf2.to_tuple(u, n) for u in gamma]
    return Algebra.from_gf2_rows(labels, sc, grading=grading, grading_mod=tuple(2 for _ in range(n)),
                                 name=name, meta={"jsystem_B": spec.B, "jsystem_gamma": gamma})


# ---------------------------------------------------------------------------
# function-space algebras
# ---------------------------------------------------------------------------

def image_rows(basis: Sequence[Mono], N: Sequence[int],
               images: Callable[[Mono], Images]) -> Dict[Tuple[int, int], int]:
    """The GF(2) rows {(a, b): mask}, a < b, in (a, b) order, of the
    bilinear map [a, b] = sum over t of left_t(a) right_t(b) on the
    monomials `basis` of O[m;N], where images(mono) = (left, right) lists
    packed monomials (divpow.mono_pack), None where an operator kills mono.

    A packed product u v is u | v when u & v == 0 and zero otherwise,
    so term t of [a, b] is nonzero exactly when
    right_t(b) is a submask of the bits that u = left_t(a) leaves free.
    Each right image is indexed once, and only those pairs are visited;
    each term is XORed into its row's mask, so repeated terms cancel.
    Values outside `basis` are dropped.
    """
    full = (1 << sum(N)) - 1
    pos: List[Optional[int]] = [None] * (full + 1)  # packed monomial -> basis index, or None
    for i, m in enumerate(basis):
        pos[mono_pack(m, N)] = i
    ims = [images(m) for m in basis]
    R: List[Dict[int, List[int]]] = [{} for _ in ims[0][0]]  # R[t][v]: the b with right_t(b) = v
    for b, (left, right) in enumerate(ims):
        if not len(left) == len(right) == len(R) or any(
                x is not None and not 0 <= x <= full for x in left + right):
            raise AlgebraError("bracket leaves the basis at an image of %r" % (basis[b],))
        for t, v in enumerate(right):
            if v is not None:
                R[t].setdefault(v, []).append(b)
    sc: Dict[Tuple[int, int], int] = {}
    for a, (left, _) in enumerate(ims):
        rows: Dict[int, int] = {}  # b -> the mask of [a, b] so far
        for u, Rt in zip(left, R):
            if u is None:
                continue
            free = s = full ^ u
            while True:  # every submask s of free, free first and 0 last
                bs = Rt.get(s)
                k = pos[u | s]
                if bs is not None and k is not None:
                    for b in bs:
                        if b > a:
                            rows[b] = rows.get(b, 0) ^ 1 << k
                if not s:
                    break
                s = (s - 1) & free
        for b in sorted(rows):
            if rows[b]:
                sc[(a, b)] = rows[b]
    return sc


def monomial_rows(sources: Sequence, target: Sequence[Mono],
                  images: Callable[..., Iterable[Optional[Mono]]]) -> List[int]:
    """The linear twin of image_rows: row t is the GF(2) sum (XOR) of the
    monomials images(sources[t]), as a mask over the monomial list `target`.
    A None, or a monomial outside `target` (a quotiented constant), drops."""
    bit = {m: 1 << k for k, m in enumerate(target)}
    rows = []
    for src in sources:
        r = 0
        for m in images(src):
            r ^= bit.get(m, 0)
        rows.append(r)
    return rows


def function_algebra(names: Sequence[str], N: Sequence[int], images: Callable[[Mono], Images],
                     mod_out: Optional[Callable[[Mono], bool]] = None,
                     name: str = "",
                     grading: Optional[Callable[[Mono], Tuple[int, ...]]] = None,
                     grading_mod: Optional[Tuple[int, ...]] = None) -> Algebra:
    """Algebra on the monomials of O[m;N] with the image_rows bracket; mod_out
    marks monomials quotiented to zero (e.g. constants), and values there drop."""
    N = check_shearing(N)
    basis = [m for m in monomials(N) if not (mod_out and mod_out(m))]
    labels = [mono_text(m, names) for m in basis]
    gr = [grading(m) for m in basis] if grading else None
    return Algebra.from_gf2_rows(labels, image_rows(basis, N, images), grading=gr,
                                 grading_mod=grading_mod, name=name,
                                 meta={"vars": tuple(names), "N": N, "mono_degrees": basis})


def _partials_images(terms: Sequence[Tuple[int, int]], N) -> Callable[[Mono], Images]:
    """[f,g] = sum over (u, v) in terms of d_u f d_v g, in that order: d_u
    on the left, d_v on the right, d_u taking packed p to p - (1 << offs[u])."""
    offs = mono_offsets(N)

    def images(mono: Mono) -> Images:
        p = mono_pack(mono, N)
        d = [p - (1 << o) if e else None for e, o in zip(mono, offs)]
        return [d[u] for u, _ in terms], [d[v] for _, v in terms]
    return images


def pq_names(m: int) -> List[str]:
    if m == 1:
        return ["p", "q"]
    return [nm for i in range(m) for nm in ("p%d" % (i + 1), "q%d" % (i + 1))]


def is_constant_mono(mono: Mono) -> bool:
    return all(e == 0 for e in mono)


def build_poisson(m_pairs: int, N: Sequence[int]) -> Algebra:
    """po_Pi(2m; N): divided-power functions with the alternate Poisson bracket.

    Variables are interleaved (p1, q1, p2, q2, ...); N lists their
    shearing bounds in that order.
    """
    N = check_shearing(N)
    if len(N) != 2 * m_pairs:
        raise AlgebraError("need one shearing entry per variable")
    terms = [uv for t in range(m_pairs) for uv in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t))]
    names = pq_names(m_pairs)
    if m_pairs == 1:
        grading = lambda mono: (mono[0] - 1, mono[1] - 1)
        gr_mod: Optional[Tuple[int, ...]] = (0, 0)
    else:
        grading = lambda mono: (sum(mono) - 2,)
        gr_mod = (0,)
    return function_algebra(names, N, _partials_images(terms, N), name="po_Pi(%d;%s)" % (2 * m_pairs, list(N)),
                            grading=grading, grading_mod=gr_mod)


def build_hamiltonian(m_pairs: int, N: Sequence[int], variant: str = "full") -> Algebra:
    """h_Pi = po_Pi / constants; variant 'derived' gives h'_Pi."""
    po = build_poisson(m_pairs, N)
    h = quotient(po, Subspace(po, [1]), name="h_Pi(%d;%s)" % (2 * m_pairs, list(N)))
    if variant == "full":
        return h
    if variant == "derived":
        return _derived(h, "h'_Pi(%d;%s)" % (2 * m_pairs, list(N)))
    raise AlgebraError("unknown variant %r" % variant)


def build_hI(nvars: int, N: Sequence[int], variant: str = "full") -> Algebra:
    """h_I(n;N): bracket sum of d_i f d_i g on functions modulo constants.

    Well-defined because squares of functions are constants in
    characteristic-2 divided powers.
    """
    N = check_shearing(N)
    if len(N) != nvars:
        raise AlgebraError("need one shearing entry per variable")
    names = ["x%d" % (i + 1) for i in range(nvars)] if nvars != 2 else ["p", "q"]
    g = function_algebra(names, N, _partials_images([(i, i) for i in range(nvars)], N),
                         mod_out=is_constant_mono, name="h_I(%d;%s)" % (nvars, list(N)),
                         grading=lambda mono: tuple(e % 2 for e in mono),
                         grading_mod=tuple(2 for _ in range(nvars)))
    if variant == "full":
        return g
    if variant == "derived":
        return _derived(g, "h'_I(%d;%s)" % (nvars, list(N)))
    raise AlgebraError("unknown variant %r" % variant)


def divergence_operator_kernel(h: Algebra) -> Subspace:
    """{f : sum_i d_i^2 f = 0} inside a Hamiltonian-type function algebra."""
    full = monomials(h.meta["N"])
    rows = monomial_rows(h.meta["mono_degrees"], full, lambda m: [mono_partial(m, i, i) for i in range(len(m))])
    return Subspace(h, gf2.kernel(gf2.transpose(rows, len(full)), h.dim))


def build_div_free_hI(nvars: int, N: Sequence[int], variant: str = "full") -> Algebra:
    """lh_I(n;N): divergence-free part of h_I(n;N); variant 'derived' available."""
    h = build_hI(nvars, N, "full")
    lh = quotient(h, Subspace(h), "lh_I(%d;%s)" % (nvars, list(N)), within=divergence_operator_kernel(h))
    if variant == "full":
        return lh
    if variant == "derived":
        return _derived(lh, "lh_I(%d;%s)'" % (nvars, list(N)))
    raise AlgebraError("unknown variant %r" % variant)


# ---------------------------------------------------------------------------
# the Jurman series
# ---------------------------------------------------------------------------

def _binom2(n: int, k: int) -> int:
    """Binomial coefficient mod 2 with the bracket's conventions.

    Choosing 0 of anything is 1; otherwise out-of-range data (k < 0,
    n < k) counts as 0, and in-range values go through Lucas' theorem.
    """
    if k == 0:
        return 1
    if k < 0 or n < k:
        return 0
    return 0 if (k & (n - k)) else 1


def jurman_bracket(i: int, s: int, j: int, t: int, g: int, h: int):
    """[(Y_i(s), Y_j(t)] in j(g,h): returns (coeff, result index, result parity)."""
    eta = (1 << g) - 1
    kmax = 1 << (g + h)
    st = s * t
    m = i + j + st * (1 - eta)
    if not (-1 <= m <= kmax - 3):
        return 0, None, None
    top = i + j + st * (2 - eta)
    b = _binom2(top, i + 1) ^ _binom2(top, j + 1)
    return b, m, (s + t) % 2


def build_jurman(g: int, h: int) -> Algebra:
    """j(g,h) on basis Y_j(t), t in {0,1}, j in {-1 .. 2^(g+h)-3}.

    Dimension 2^(g+h+1) - 2.  The Z-grading deg Y_j(t) = 2j + (1-eta) t
    makes the bracket additive.
    """
    if g < 2 or h < 1:
        raise AlgebraError("need g >= 2, h >= 1")
    eta = (1 << g) - 1
    kmax = 1 << (g + h)
    js = list(range(-1, kmax - 2))
    basis = [(j, t) for j in js for t in (0, 1)]
    index = {bt: i for i, bt in enumerate(basis)}
    rows: Dict[Tuple[int, int], int] = {}
    for a in range(len(basis)):
        ja, ta = basis[a]
        for b in range(a + 1, len(basis)):
            jb, tb = basis[b]
            c, m, par = jurman_bracket(ja, ta, jb, tb, g, h)
            if c:
                rows[(a, b)] = 1 << index[(m, par)]
    labels = ["Y%d(%d)" % (j, t) for (j, t) in basis]
    grading = [(2 * j + (1 - eta) * t,) for (j, t) in basis]
    return Algebra.from_gf2_rows(labels, rows, grading=grading, grading_mod=(0,), name="j(%d,%d)" % (g, h))


# ---------------------------------------------------------------------------
# the two-derivation generalizations a(2;g,h), multipair versions
# ---------------------------------------------------------------------------

def _a_images(pairs: Sequence[Tuple[int, int, int]], N, kind: str) -> Callable[[Mono], Images]:
    """Operator images for a_Pi/a_I-type algebras.

    pairs lists (x index, y index, g) per pair of indeterminates; the
    twisted derivation is E = d_y + y d_x^(2^g).
    kind 'Pi': [u,v] = sum d_x u * E v + E u * d_x v
    kind 'I' : [u,v] = sum d_x u * d_x v + E u * E v
    """
    offs = mono_offsets(N)
    pi = kind == "Pi"

    def images(mono: Mono) -> Images:
        # the factors of the sums above, pair by pair: (d_x u, E u) on the
        # left, (E v, d_x v) ('Pi') or (d_x v, E v) ('I') on the right; None
        # where the operator kills the monomial.  N(y) = 1, so E u is d_y u
        # when y divides u and y d_x^(2^g) u otherwise
        p = mono_pack(mono, N)
        left: List[Optional[int]] = []
        right: List[Optional[int]] = []
        for (xi, yi, gg) in pairs:
            x, y = 1 << offs[xi], 1 << offs[yi]
            if mono[yi]:
                e = p - y
            elif mono[xi] >> gg:
                e = p - (x << gg) + y
            else:
                e = None
            d = p - x if mono[xi] else None
            left += (d, e)
            right += (e, d) if pi else (d, e)
        return left, right
    return images


def build_a2gh(g: int, h: int, variant: str = "full") -> Algebra:
    """a(2;g,h) on O[2;(g+h,1)] with the y-twisted derivation bracket:
    the one-pair case of build_multipair."""
    if g < 2 or h < 1:
        raise AlgebraError("need g >= 2, h >= 1")
    alg = build_multipair("Pi", [(g, h)])
    alg.name = "a(2;%d,%d)" % (g, h)
    return _apply_variant(alg, variant)


def build_multipair(kind: str, pairs: Sequence[Tuple[int, int]], variant: str = "full") -> Algebra:
    """a_Pi / a_I on k pairs of indeterminates (x_i, y_i), N = (g_i+h_i, 1).

    The I version lives on functions modulo constants (the same
    obstruction as for h_I); the Pi version on all functions.
    """
    if kind not in ("Pi", "I"):
        raise AlgebraError("kind must be 'Pi' or 'I'")
    if not pairs:
        raise AlgebraError("need at least one pair")
    N = []
    trip = []
    names = []
    for t, (gg, hh) in enumerate(pairs):
        if gg < 2 or hh < 1:
            raise AlgebraError("need g >= 2, h >= 1")
        N += [gg + hh, 1]
        trip.append((2 * t, 2 * t + 1, gg))
        names += (["x", "y"] if len(pairs) == 1 else ["x%d" % (t + 1), "y%d" % (t + 1)])
    N = tuple(N)
    shifts = [(1 + (1 << (gg - 1))) for (gg, hh) in pairs]
    if kind == "I":
        # only the per-variable mod-2 torus grading survives the I bracket
        nv = len(N)
        grading = lambda mono: tuple(e % 2 for e in mono)
        gr_mod: Optional[Tuple[int, ...]] = tuple(2 for _ in range(nv))
    elif len(set(shifts)) == 1:
        # per-variable weights: x_i -> 1, y_i -> 2^(g_i - 1); additive shift = common
        weights = []
        for (gg, hh) in pairs:
            weights += [1, 1 << (gg - 1)]
        shift = shifts[0]
        grading = lambda mono: (sum(w * e for w, e in zip(weights, mono)) - shift,)
        gr_mod = (0,)
    else:
        grading = None
        gr_mod = None
    alg = function_algebra(
        names, N, _a_images(trip, N, kind),
        mod_out=is_constant_mono if kind == "I" else None,
        name="a_%s(%d;%s)" % (kind, 2 * len(pairs), ",".join(map(str, pairs))),
        grading=grading, grading_mod=gr_mod)
    return _apply_variant(alg, variant)


def _apply_variant(alg: Algebra, variant: str) -> Algebra:
    """'full', 'derived' (name + "'") or 'derived_mod_center' (name + "'/c")."""
    if variant == "full":
        return alg
    if variant == "derived":
        return _derived(alg, alg.name + "'")
    if variant == "derived_mod_center":
        return _derived(alg, alg.name + "'/c", mod_center=True)
    raise AlgebraError("unknown variant %r" % variant)


def _derived(alg: Algebra, name: str, mod_center: bool = False) -> Algebra:
    """The derived algebra D of alg, or D modulo its center: one `quotient` within D."""
    D = derived_subalgebra(alg)
    return quotient(alg, center(alg, D) if mod_center else Subspace(alg), name, within=D)


# ---------------------------------------------------------------------------
# Kaplansky algebras
# ---------------------------------------------------------------------------

def build_kap1(n: int) -> Algebra:
    """Kap_1(n), n >= 4: J-system of all vectors except 0 and the all-ones."""
    if n < 4:
        raise AlgebraError("Kap_1 needs n >= 4")
    B = BilinearFormSpec("I", n)
    ones = (1 << n) - 1
    gamma = [u for u in range(1, 1 << n) if u != ones]
    g = jsystem_algebra(JSystemSpec(B, gamma), "Kap1(%d)" % n)
    return g


def build_kap2(twom: int) -> Algebra:
    """Kap_2(2m): all nonzero vectors of a symplectic F_2 space."""
    if twom % 2 or twom < 2:
        raise AlgebraError("Kap_2 needs an even dimension 2m >= 2")
    B = BilinearFormSpec("Pi", twom)
    gamma = list(range(1, 1 << twom))
    return jsystem_algebra(JSystemSpec(B, gamma), "Kap2(%d)" % twom)


def build_kap3(n: int) -> Algebra:
    """Kap_3(n) = o_I(n)' for n = 5, 7 or >= 9 (gaps avoid duplication)."""
    if not (n in (5, 7) or n >= 9):
        raise AlgebraError(
            "Kap_3(%d) rejected: defined for n = 5, 7 and >= 9 only; "
            "the gaps avoid duplication with other families" % n)
    B = BilinearFormSpec("I", n)
    gamma = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    g = jsystem_algebra(JSystemSpec(B, gamma), "Kap3(%d)" % n)
    return g


def build_kap4A(twom: int, arf: int) -> Algebra:
    """Kap_{4,A}(2m): J-system {u : Q_A(u) = 1} for the standard Arf-A form."""
    if twom % 2 or twom < 2:
        raise AlgebraError("Kap_4 needs an even dimension 2m >= 2")
    m = twom // 2
    Q = QuadraticFormSpec.standard(m, arf)
    gamma = [u for u in range(1, 1 << twom) if Q.value(u)]
    g = jsystem_algebra(JSystemSpec(Q.polar, gamma), "Kap4,%d(%d)" % (arf, twom))
    g.meta["quadratic_form"] = Q
    return g


def dim_kap4A(m: int, arf: int) -> int:
    """2^(m-1) (2^m - (-1)^A)."""
    return (1 << (m - 1)) * ((1 << m) - (1 if arf == 0 else -1))


def kap4B_images(m: int, factors: Sequence[int]) -> Callable[[Mono], Images]:
    """Images of the sum over pairs i of (d_p f d_q g + d_q f d_p g) times
    each factor of pair i, on O[2m;1_s]: factor 0, 2, 1, 3 stands for 1,
    q_i, p_i, p_i q_i and folds into the left image.  All four factors
    give the Kap_{4,B} bracket's (1+p_i)(1+q_i)."""
    N = (1,) * (2 * m)

    def images(mono: Mono) -> Images:
        p = mono_pack(mono, N)
        left: List[Optional[int]] = []
        right: List[Optional[int]] = []
        for t in range(m):
            for u, v in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t)):
                du = p - (1 << u) if mono[u] else None
                left += [None if du is None or du & (e << 2 * t) else du | (e << 2 * t)
                         for e in factors]
                right += [p - (1 << v) if mono[v] else None] * len(factors)
        return left, right
    return images


def build_kap4B(twom: int) -> Algebra:
    """Kap_{4,B}(2m) on all of O[2m;1_s]: bracket sum
    (1+p_i)(1+q_i)(d_p f d_q g + d_q f d_p g) on divided powers (p_i^2 = 0)."""
    if twom % 2 or twom < 2:
        raise AlgebraError("Kap_4 needs an even dimension 2m >= 2")
    m = twom // 2
    return function_algebra(pq_names(m), (1,) * twom, kap4B_images(m, (0, 2, 1, 3)), name="Kap4,B(%d)" % twom)


def build_kaplansky(family: str, n: int, arf: Optional[int] = None) -> Algebra:
    """Dispatch: family in {'1','2','3','4A','4B'}; n is the space dimension."""
    if family == "1":
        return build_kap1(n)
    if family == "2":
        return build_kap2(n)
    if family == "3":
        return build_kap3(n)
    if family == "4A":
        if arf not in (0, 1):
            raise AlgebraError("family 4A needs arf in {0,1}")
        return build_kap4A(n, arf)
    if family == "4B":
        return build_kap4B(n)
    raise AlgebraError("unknown Kaplansky family %r" % family)


# ---------------------------------------------------------------------------
# classical matrix algebras over GF(2)
# ---------------------------------------------------------------------------

def build_gl(n: int) -> Algebra:
    if n < 1:
        raise AlgebraError("a matrix algebra needs n >= 1, not %d" % n)
    labels = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    rows: Dict[Tuple[int, int], int] = {}
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(a + 1, n * n):
            k, l = divmod(b, n)
            # [E_ij, E_kl] = δ_jk E_il + δ_li E_kj
            m = (1 << idx[(i, l)] if j == k else 0) ^ (1 << idx[(k, j)] if l == i else 0)
            if m:
                rows[(a, b)] = m
    grading = [(j - i,) for i in range(n) for j in range(n)]
    return Algebra.from_gf2_rows(labels, rows, grading=grading, grading_mod=(0,), name="gl(%d)" % n)


def _pi_matrix(n: int) -> List[int]:
    """The non-degenerate symmetric form behind o_Pi(n).

    Even n: the alternate form with hyperbolic pairs (2t, 2t+1).  Odd n:
    no non-degenerate alternate form exists, and every non-degenerate
    symmetric form is congruent to the identity, so o_Pi(odd) is the
    (unique) odd orthogonal algebra, preserved form I.
    """
    if n % 2:
        return [1 << i for i in range(n)]
    rows = [0] * n
    for t in range(n // 2):
        rows[2 * t] = 1 << (2 * t + 1)
        rows[2 * t + 1] = 1 << (2 * t)
    return rows


def build_classical(kind: str, n: int, variant: str = "full") -> Algebra:
    """Matrix algebras: gl, sl, psl, and o_I(n), o_Pi(n): the X with
    X^T P + P X = 0, P the identity (symmetric X) or Pi.

    o_Pi for odd n uses the alternate form of rank n-1 with a radical
    line, the characteristic-2 convention behind o_Pi(3), o_Pi(5).
    """
    gl = build_gl(n)
    if kind == "gl":
        g = gl
    elif kind in ("sl", "psl"):
        # the diagonal mask is the trace row and the identity, a scalar of sl for even n
        diag = gf2.from_bits([i * n + i for i in range(n)])
        sl = Subspace(gl, gf2.kernel([diag], n * n))
        psl = kind == "psl" and n % 2 == 0
        g = quotient(gl, Subspace(gl, [diag] if psl else []), ("psl(%d)" if psl else "sl(%d)") % n, within=sl)
    elif kind in ("oI", "oPi"):
        P = [1 << i for i in range(n)] if kind == "oI" else _pi_matrix(n)
        # condition X^T P + P X = 0, entrywise linear equations over X
        eqs = []
        for r in range(n):
            for c in range(n):
                row = 0
                for k in range(n):
                    if (P[k] >> c) & 1:   # (X^T P)[r,c] = sum_k X[k,r] P[k,c]
                        row ^= 1 << (k * n + r)
                    if (P[r] >> k) & 1:   # (P X)[r,c] = sum_k P[r,k] X[k,c]
                        row ^= 1 << (k * n + c)
                if row:
                    eqs.append(row)
        g = quotient(gl, Subspace(gl), "o_%s(%d)" % (kind[1:], n), within=Subspace(gl, gf2.kernel(eqs, n * n)))
    else:
        raise AlgebraError("unknown classical kind %r" % kind)
    return _apply_variant(g, variant)


# ---------------------------------------------------------------------------
# the 4-dimensional tensor-product example
# ---------------------------------------------------------------------------

def build_tensor_example(hbar: Optional[Scalar] = None) -> Algebra:
    """L tensor K[x]/x^2 for the 2-dim algebra [e0,e1] = e1, optionally deformed.

    Basis order (e_{0,0}, e_{0,1}, e_{1,0}, e_{1,1}); the deform replaces
    [e_{0,1}, e_{1,1}] = 0 by hbar e_{1,0}.
    """
    field = hbar.field if hbar is not None else GF2
    labels = ["e00", "e01", "e10", "e11"]
    sc: Dict[Tuple[int, int], Dict[int, int]] = {
        (0, 2): {2: 1},   # [e00, e10] = e10
        (0, 3): {3: 1},   # [e00, e11] = e11
        (1, 2): {3: 1},   # [e01, e10] = e11
    }
    grading = [(0,), (1,), (0,), (1,)]
    if hbar is not None and hbar.value:
        sc[(1, 3)] = {2: hbar.value}   # [e01, e11] = hbar e10
        return Algebra(field, labels, sc, name="L_otimes_dual_numbers(deformed)")
    return Algebra(field, labels, sc, grading=grading, grading_mod=(0,),
                   name="L_otimes_dual_numbers")


def tensor_example_iso(hbar: Scalar) -> LinearMap:
    """The square-root isomorphism from the deformed to the plain algebra."""
    s = hbar.sqrt()
    deformed = build_tensor_example(hbar)
    plain = build_tensor_example(None)
    plain = Algebra(hbar.field, plain.labels, plain.sc, name=plain.name)
    images = [
        {0: 1},            # e00 -> e00
        {1: 1, 0: s.value},  # e01 -> e01 + sqrt(hbar) e00
        {2: 1},            # e10 -> e10
        {3: 1, 2: s.value},  # e11 -> e11 + sqrt(hbar) e10
    ]
    return LinearMap(deformed, plain, images)


# ---------------------------------------------------------------------------
# Poisson tensor helper: po_Pi(d;1_s) tensor O[e;N']
# ---------------------------------------------------------------------------

def build_po_tensor_O(m_pairs: int, extra_N: Sequence[int]) -> Algebra:
    """po_Pi(2m;1_s) tensor the function algebra O[e; extra_N].

    Realized on O[2m+e; (1,...,1, extra_N)] with the Poisson bracket in
    the first 2m variables only.
    """
    base_N = [1] * (2 * m_pairs)
    N = tuple(base_N) + tuple(extra_N)
    terms = [uv for t in range(m_pairs) for uv in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t))]
    names = pq_names(m_pairs) + ["w%d" % (i + 1) for i in range(len(extra_N))]
    return function_algebra(names, N, _partials_images(terms, N),
                            name="po_Pi(%d;1s)xO[%s]" % (2 * m_pairs, list(extra_N)))

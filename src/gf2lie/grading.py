"""Weisfeiler filtrations, associated graded algebras, and cochain weights."""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .liealg import Algebra, AlgebraError, Subspace, brackets, subalgebra_generated


class Filtration:
    """Descending chain L_{-d} ⊃ ... ⊃ L_0 ⊃ L_1 ⊃ ... ⊃ 0 with [L_i, L_j] ⊆ L_{i+j}."""

    def __init__(self, algebra: Algebra, layers: Dict[int, Subspace], depth: int,
                 l0_maximal: Optional[bool] = None):
        self.algebra = algebra
        self.layers = layers  # index -> Subspace; index -d .. top, missing = 0
        self.depth = depth
        self.l0_maximal = l0_maximal

    def layer(self, i: int) -> Subspace:
        if i < -self.depth:
            return self.layers[-self.depth]
        return self.layers[i] if i in self.layers else Subspace(self.algebra)

    def indices(self) -> List[int]:
        return sorted(self.layers)

    def layer_dims(self) -> List[int]:
        return [self.layers[i].dim for i in self.indices()]

    def codims(self) -> List[int]:
        """Dimensions of the graded pieces L_i / L_{i+1}."""
        idx = self.indices()
        out = []
        for i in idx:
            nxt = self.layers.get(i + 1)
            out.append(self.layers[i].dim - (nxt.dim if nxt else 0))
        return out

    def check_compatible(self) -> bool:
        """Exhaustive [L_i, L_j] ⊆ L_{i+j} check."""
        g, L, idx = self.algebra, self.layers, self.indices()
        for t, i in enumerate(idx):
            for j in idx[t:]:  # [L_j, L_i] = [L_i, L_j]
                tgt = self.layer(max(i + j, idx[0])).span
                if any(w not in tgt for w in brackets(g, L[i].rows(), L[j].rows())):
                    return False
        return True


def _module_closure(g: Algebra, acting: Subspace, start_rows: Sequence[int]) -> Subspace:
    """Smallest subspace containing start_rows and invariant under [acting, .]."""
    s = Subspace(g, start_rows)
    queue = s.rows()
    acting_rows = acting.rows()
    while queue:
        for w in brackets(g, [queue.pop()], acting_rows):
            if w and s.add(w):
                queue.append(w)
    return s


def weisfeiler_filtration(g: Algebra, L0: Subspace) -> Filtration:
    """The filtration built from a subalgebra L0.

    L_{-1} is the minimal L0-invariant subspace strictly containing L0
    (deterministic: generated from the lex-first complement vector of
    lowest grading weight when a grading is present); deeper negative
    layers by L_{-i-1} = [L_{-1}, L_{-i}] + L_{-i}, positive layers by
    L_{i+1} = {X in L_i : [X, L_{-1}] ⊆ L_i}.
    """
    if L0.ambient is not g:
        raise AlgebraError("L0 lives in a different algebra")
    if not L0.is_subalgebra():
        raise AlgebraError("L0 is not a subalgebra")
    n = g.dim
    if L0.dim == n:
        raise AlgebraError("L0 must be proper")

    # maximality: for each complement coset representative, the subalgebra
    # generated together with L0 must be everything
    piv = set(L0.pivots())
    comp = [i for i in range(n) if i not in piv]
    maximal = True
    for mask in range(1, 1 << len(comp)):
        v = gf2.from_bits(comp[t] for t in gf2.bits(mask))
        if subalgebra_generated(g, L0.rows() + [v]).dim < n:
            maximal = False
            break

    # choose the complement vector: lowest weight if graded, else lex-first
    def lowest_first(i: int):
        if g.grading is not None and g.grading_mod == tuple(0 for _ in g.grading[0]):
            return (sum(g.grading[i]), i)
        return (0, i)

    v0 = 1 << min(comp, key=lowest_first)
    lm1 = _module_closure(g, L0, list(L0.rows()) + [v0])

    layers: Dict[int, Subspace] = {0: L0, -1: lm1}
    # negative side
    d = 1
    cur = lm1
    while cur.dim < n:
        rows = cur.rows()
        nxt = Subspace(g, [*rows, *brackets(g, lm1.rows(), rows)])
        d += 1
        layers[-d] = nxt
        if nxt.dim == cur.dim:
            raise AlgebraError("filtration does not exhaust the algebra")
        cur = nxt
    depth = d
    # positive side: L_{i+1} = {X in L_i : [X, L_{-1}] ⊆ L_i}
    i = 0
    while layers[i].dim > 0:
        Li = layers[i]
        rows_lm1 = lm1.rows()
        span_li = Li.span
        eqs: List[int] = []
        # X in L_i written as combination over Li rows; constraint per b in L_{-1}
        li_rows = Li.rows()
        for b in rows_lm1:
            # residues of [b, r] modulo L_i must vanish
            res = [span_li.reduce(w) for w in brackets(g, [b], li_rows)]
            eqs.extend(e for e in gf2.transpose(res, n) if e)
        ker = gf2.kernel(eqs, len(li_rows))
        nxt_rows = [gf2.apply_rows(li_rows, x) for x in ker]
        layers[i + 1] = Subspace(g, nxt_rows)
        if layers[i + 1].dim == Li.dim:
            raise AlgebraError("positive filtration does not terminate (L0 contains an ideal?)")
        i += 1
    if layers[i].dim == 0:
        del layers[i]  # the chain ends at the last nonzero layer
    return Filtration(g, layers, depth, l0_maximal=maximal)


def associated_graded(f: Filtration) -> Algebra:
    """gr = ⊕ L_i / L_{i+1} with the induced bracket and its Z-grading.

    Complement representatives are chosen lex-first inside each layer;
    when they are single original basis vectors the labels carry over.
    """
    g = f.algebra
    n = g.dim
    idx = f.indices()
    reps: List[int] = []
    rep_layer: List[int] = []
    for i in idx:
        nxt = f.layers.get(i + 1)
        span_next = nxt.span if nxt else gf2.Span()
        # lex-first: scan layer rows reduced by the next layer
        residues = gf2.Span()
        for r in f.layers[i].rows():
            w = span_next.reduce(r)
            w = residues.reduce(w)
            if w:
                residues.add(w)
                reps.append(w)
                rep_layer.append(i)
    assert len(reps) == n, "graded pieces must fill the algebra"
    m = len(reps)

    # coordinates: vector -> combination over reps (global change of basis)
    inv = gf2.invert(reps, n)
    if inv is None:
        raise AlgebraError("representatives do not form a basis")

    def coords(w: int) -> int:
        return gf2.apply_rows(inv, w)

    in_layer: Dict[int, int] = {}  # layer -> the mask of its representatives
    for k, i in enumerate(rep_layer):
        in_layer[i] = in_layer.get(i, 0) | 1 << k
    sc: Dict[Tuple[int, int], int] = {}
    min_idx = min(idx)
    for (a, b), w in zip(combinations(range(m), 2), brackets(g, reps)):
        la, lb = rep_layer[a], rep_layer[b]
        tgt = la + lb
        if tgt in f.layers:
            nxt = f.layers.get(tgt + 1)
            if nxt:
                w = nxt.span.reduce(w)
            if not w:
                continue
            if w not in f.layers[tgt].span:
                raise AlgebraError("filtration violated at layers (%d,%d)" % (la, lb))
            row = coords(w) & in_layer.get(tgt, 0)
            if row:
                sc[(a, b)] = row
        else:
            # below the deepest layer: bracket must vanish or tgt < -d impossible
            if tgt < min_idx and w:
                raise AlgebraError("bracket escapes the filtration")
    labels = []
    for r in reps:
        bs = list(gf2.bits(r))
        labels.append(g.labels[bs[0]] if len(bs) == 1 else "gr(" + "+".join(g.labels[b] for b in bs) + ")")
    grading = [(rep_layer[a],) for a in range(m)]
    return Algebra.from_gf2_rows(labels, sc, grading=grading, grading_mod=(0,), name="gr " + g.name)


# ---------------------------------------------------------------------------
# cochain weights
# ---------------------------------------------------------------------------

# A weight mode is a grading of a function algebra's basis, read off each
# monomial's degrees by `weight_keys`, and reduced mod MODULUS (0: not
# reduced).  The weight of x ⊗ d(y)∧d(z) is key(x) - key(y) - key(z), that
# of x ⊗ d(y) is key(x) - key(y), and weights add under composition.
MODULUS = {"z": 0, "mod2": 2, "outer": 0}


def weight_keys(g: Algebra, mode: str) -> List[Tuple[int, ...]]:
    """The grading of a function algebra in a weight mode, in basis order,
    kept in g.cache: per variable deg - 1 ("z") or deg mod 2 ("mod2"), or
    the total degree - 2 ("outer")."""
    keys = g.cache.setdefault("weight_keys", {})
    if mode not in keys:
        monos = g.meta.get("mono_degrees")
        if monos is None:
            raise AlgebraError("algebra carries no monomial degrees")
        if mode == "z":
            keys[mode] = [tuple(d - 1 for d in m) for m in monos]
        elif mode == "mod2":
            keys[mode] = [tuple(d % 2 for d in m) for m in monos]
        elif mode == "outer":
            keys[mode] = [(sum(m) - 2,) for m in monos]
        else:
            raise AlgebraError("unknown weight mode %r" % mode)
    return keys[mode]


def cochain_term_weight(g: Algebra, value_idx: int, pair: Tuple[int, int], mode: str) -> Tuple[int, ...]:
    """Weight of x ⊗ d(y_i)∧d(y_j) in a weight mode: key(x) - key(y_i) - key(y_j), reduced."""
    keys = weight_keys(g, mode)
    m = MODULUS[mode]
    x, yi, yj = keys[value_idx], keys[pair[0]], keys[pair[1]]
    return tuple((a - b - c) % m if m else a - b - c for a, b, c in zip(x, yi, yj))


def cochain_weight(c, mode: str) -> Tuple[int, ...]:
    """Weight of a homogeneous 2-cochain; errors listing two offending terms."""
    g = c.algebra
    seen = None
    witness = None
    for (i, j), vec in c.terms.items():
        for k in gf2.bits(vec):
            w = cochain_term_weight(g, k, (i, j), mode)
            if seen is None:
                seen = w
                witness = (k, (i, j))
            elif w != seen:
                raise AlgebraError(
                    "cochain not homogeneous in mode %s: term %r has weight %s, term %r has weight %s"
                    % (mode, witness, seen, (k, (i, j)), w))
    if seen is None:  # weight_keys raises the errors a nonzero cochain would
        return tuple(0 for _ in weight_keys(g, mode)[0])
    return seen

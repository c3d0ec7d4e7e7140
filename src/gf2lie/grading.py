"""Weisfeiler filtrations, associated graded algebras, and cochain weights."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .liealg import Algebra, AlgebraError, Subspace, subalgebra_generated


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
        return self.layers.get(i, Subspace(self.algebra))

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
        g = self.algebra
        idx = self.indices()
        for i in idx:
            for j in idx:
                tgt = self.layer(max(i + j, min(idx)))
                for a in self.layers[i].rows():
                    for b in self.layers[j].rows():
                        if g.bracket(a, b) not in tgt.span:
                            return False
        return True


def _module_closure(g: Algebra, acting: Subspace, start_rows: Sequence[int]) -> Subspace:
    """Smallest subspace containing start_rows and invariant under [acting, .]."""
    s = Subspace(g, start_rows)
    queue = [r for r in s.rows()]
    while queue:
        v = queue.pop()
        for r in acting.rows():
            w = g.bracket(r, v)
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
        sub = _subalgebra_with(g, L0, v)
        if sub.dim < n:
            maximal = False
            break

    # choose the complement vector: lowest weight if graded, else lex-first
    def weight_key(i: int):
        if g.grading is not None and g.grading_mod == tuple(0 for _ in g.grading[0]):
            return (sum(g.grading[i]), i)
        return (0, i)

    v0 = 1 << min(comp, key=weight_key)
    lm1 = _module_closure(g, L0, list(L0.rows()) + [v0])

    layers: Dict[int, Subspace] = {0: L0, -1: lm1}
    # negative side
    d = 1
    cur = lm1
    while cur.dim < n:
        nxt = Subspace(g, cur.rows())
        for a in lm1.rows():
            for b in cur.rows():
                nxt.add(g.bracket(a, b))
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
            imgs = [g.bracket(r, b) for r in li_rows]
            # residues modulo L_i must vanish
            res = [span_li.reduce(w) for w in imgs]
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


def _subalgebra_with(g: Algebra, L0: Subspace, v: int) -> Subspace:
    return subalgebra_generated(g, list(L0.rows()) + [v])


def associated_graded(f: Filtration, name: str = "") -> Algebra:
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

    sc: Dict[Tuple[int, int], Dict[int, int]] = {}
    min_idx = min(idx)
    for a in range(m):
        for b in range(a + 1, m):
            la, lb = rep_layer[a], rep_layer[b]
            tgt = la + lb
            w = g.bracket(reps[a], reps[b])
            if tgt in f.layers:
                nxt = f.layers.get(tgt + 1)
                if nxt:
                    w = nxt.span.reduce(w)
                if not w:
                    continue
                if w not in f.layers[tgt].span:
                    raise AlgebraError("filtration violated at layers (%d,%d)" % (la, lb))
                cw = coords(w)
                row = {}
                for k in gf2.bits(cw):
                    if rep_layer[k] == tgt:
                        row[k] = 1
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
    return Algebra(g.field, labels, sc, grading=grading, grading_mod=(0,),
                   name=name or ("gr " + g.name))


# ---------------------------------------------------------------------------
# cochain weights
# ---------------------------------------------------------------------------

# In every mode the weight of x ⊗ d(y)∧d(z) is key(x) - key(y) - key(z) plus
# this offset (mod 2 for "mod2"), and that of e_x ⊗ d(e_y) is key(x) - key(y).
C2_OFFSET = {"z": 1, "mod2": 0, "outer": 2}


def weight_key(mono: Sequence[int], mode: str) -> Tuple[int, ...]:
    """The key of one basis monomial in a weight mode."""
    if mode == "z":
        return tuple(mono)
    if mode == "mod2":
        return tuple(d % 2 for d in mono)
    if mode == "outer":
        return (sum(mono),)
    raise AlgebraError("unknown weight mode %r" % mode)


def weight_keys(g: Algebra, mode: str) -> List[Tuple[int, ...]]:
    """The key of every basis vector of a function algebra, in basis order."""
    monos = g.meta.get("mono_degrees")
    if monos is None:
        raise AlgebraError("algebra carries no monomial degrees")
    return [weight_key(m, mode) for m in monos]


def cochain_term_weight(g: Algebra, value_idx: int, pair: Tuple[int, int], mode: str) -> Tuple[int, ...]:
    """Weight of x ⊗ d(y_i)∧d(y_j) per the stated grading mode.

    z:    (deg_v(x)-1) - sum (deg_v(y)-1) per variable (Z-grading);
    mod2: (deg_v(x) - sum deg_v(y)) mod 2 (torus grading);
    outer: (deg x - 2) + (2 - deg y_i) + (2 - deg y_j).
    """
    monos = g.meta.get("mono_degrees")
    if monos is None:
        raise AlgebraError("algebra carries no monomial degrees")
    x, yi, yj = (weight_key(monos[t], mode) for t in (value_idx, pair[0], pair[1]))
    shift = C2_OFFSET[mode]
    if mode == "mod2":
        return tuple((a - b - c + shift) % 2 for a, b, c in zip(x, yi, yj))
    return tuple(a - b - c + shift for a, b, c in zip(x, yi, yj))


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
    if seen is None:
        nv = len(g.meta["mono_degrees"][0]) if mode != "outer" else 1
        return tuple(0 for _ in range(nv))
    return seen

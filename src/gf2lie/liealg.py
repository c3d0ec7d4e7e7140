"""Finite-dimensional algebras by structure constants, and the exact
linear algebra around them: validation, subalgebras, ideals, quotients,
simplicity by ideal spinning, morphism checking, derivations, invariant
forms.

Structure constants are stored sparsely for i < j only; [e_i, e_i] = 0
and [e_j, e_i] = [e_i, e_j] hold structurally (characteristic 2).  Over
GF(2) vectors are bit masks and brackets reduce to xors of a cached
pair table; over other scalars vectors are {index: raw value} dicts.
"""

from __future__ import annotations

import json
import random
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import gf2
from .fields import GF2, Field, GF2k, PolyRing

Vec = Union[int, Dict[int, int]]  # GF(2) mask, or sparse dict elsewhere


class AlgebraError(ValueError):
    pass


def _require_gf2(g: "Algebra", what: str) -> None:
    if not g.is_gf2:
        raise AlgebraError("%s is computed over GF(2) only, not over %r" % (what, g.field))


class ValidationReport:
    def __init__(self):
        self.alternation_failures: List[tuple] = []
        self.jacobi_failures: List[tuple] = []
        self.grading_failures: List[tuple] = []

    @property
    def ok(self) -> bool:
        return not (self.alternation_failures or self.jacobi_failures or self.grading_failures)

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "alternation_failures": len(self.alternation_failures),
            "jacobi_failures": len(self.jacobi_failures),
            "grading_failures": len(self.grading_failures),
            "first_jacobi_failure": self.jacobi_failures[0] if self.jacobi_failures else None,
        }

    def __repr__(self):
        return "ValidationReport(%s)" % self.summary()


# (pre, rows): for each basis index u, the pairs x<y whose bracket (or
# cochain value) holds e_u, and the (z, mask of [e_u,e_z]) with a nonzero mask
Incidence = Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int]]]]


class Algebra:
    """Algebra with alternating bracket given by sparse structure constants."""

    def __init__(self, field: Field, labels: Sequence[str], sc: Dict[Tuple[int, int], Dict[int, int]],
                 grading: Optional[Sequence[Tuple[int, ...]]] = None,
                 grading_mod: Optional[Tuple[int, ...]] = None,
                 name: str = "", meta: Optional[dict] = None):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.name = name
        self.meta = dict(meta or {})
        clean: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j), val in sc.items():
            if i == j:
                if any(val.values()):
                    raise AlgebraError("[e_%d, e_%d] must vanish (alternation)" % (i, i))
                continue
            if i > j:
                i, j = j, i
            if not (0 <= i < j < self.dim):
                raise AlgebraError("structure constant index out of range: (%d,%d)" % (i, j))
            row = {k: v for k, v in val.items() if v}
            if row:
                if any(not (0 <= k < self.dim) for k in row):
                    raise AlgebraError("bracket target out of range at (%d,%d)" % (i, j))
                prev = clean.setdefault((i, j), {})
                for k, v in row.items():
                    s = field.add(prev.get(k, 0), v)
                    if s:
                        prev[k] = s
                    else:
                        prev.pop(k, None)
                if not prev:
                    del clean[(i, j)]
        self.sc = clean
        self.grading = [tuple(w) for w in grading] if grading is not None else None
        if self.grading is not None and len(self.grading) != self.dim:
            raise AlgebraError("grading length != dim")
        self.grading_mod = tuple(grading_mod) if grading_mod else (
            tuple(0 for _ in self.grading[0]) if self.grading else None)
        self._pair_table: Optional[List[int]] = None
        self._incidence: Optional[Incidence] = None
        if self.grading is not None:
            bad = self._check_grading()
            if bad:
                raise AlgebraError("grading not respected by bracket, e.g. %r" % (bad[0],))

    # ------------------------------------------------------------------
    @property
    def is_gf2(self) -> bool:
        return isinstance(self.field, GF2k) and self.field.k == 1

    def _check_grading(self) -> List[tuple]:
        bad = []
        mod = self.grading_mod
        g = [tuple(w % m if m else w for w, m in zip(gr, mod)) for gr in self.grading]
        for (i, j), row in self.sc.items():
            want = tuple((a + b) % m if m else (a + b) for a, b, m in zip(g[i], g[j], mod))
            for k in row:
                if g[k] != want:
                    bad.append((i, j, k, want, g[k]))
        return bad

    # -- basic bracket access -------------------------------------------
    def brk(self, i: int, j: int) -> Dict[int, int]:
        """Bracket of basis elements as a sparse dict (chart: [e_i,e_j])."""
        if i == j:
            return {}
        key = (i, j) if i < j else (j, i)
        return self.sc.get(key, {})

    def pair_table(self) -> List[int]:
        """Flat dim*dim table of bracket masks; GF(2) only."""
        if self._pair_table is None:
            _require_gf2(self, "the pair table")
            n = self.dim
            T = [0] * (n * n)
            for (i, j), row in self.sc.items():
                m = 0
                for k in row:
                    m |= 1 << k
                T[i * n + j] = m
                T[j * n + i] = m
            self._pair_table = T
        return self._pair_table

    def incidence(self) -> Incidence:
        """(pre, rows): pre[u] lists the pairs x<y with e_u in [e_x,e_y] and
        rows[u] the (z, [e_u,e_z] as a mask) with [e_u,e_z] != 0, both
        ascending and keyed only by the u they hold; GF(2) only."""
        if self._incidence is None:
            n = self.dim
            T = self.pair_table()
            pre: Dict[int, List[Tuple[int, int]]] = {}
            rows: Dict[int, List[Tuple[int, int]]] = {}
            for (x, y) in sorted(self.sc):
                w = T[x * n + y]
                for u in gf2.bits(w):
                    pre.setdefault(u, []).append((x, y))
                rows.setdefault(x, []).append((y, w))
                rows.setdefault(y, []).append((x, w))
            for row in rows.values():
                row.sort()
            self._incidence = (pre, rows)
        return self._incidence

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """Bracket of two vectors in the ambient coordinates."""
        if self.is_gf2 and isinstance(u, int) and isinstance(v, int):
            T = self.pair_table()
            n = self.dim
            acc = 0
            for i in gf2.bits(u):
                base = i * n
                for j in gf2.bits(v):
                    acc ^= T[base + j]
            return acc
        ud = self.as_dict(u)
        vd = self.as_dict(v)
        f = self.field
        acc: Dict[int, int] = {}
        for i, a in ud.items():
            for j, b in vd.items():
                row = self.brk(i, j)
                if not row:
                    continue
                c = f.mul(a, b)
                if not c:
                    continue
                for k, w in row.items():
                    s = f.add(acc.get(k, 0), f.mul(c, w))
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        return acc

    def as_dict(self, v: Vec) -> Dict[int, int]:
        if isinstance(v, dict):
            return v
        return {i: 1 for i in gf2.bits(v)}

    def as_mask(self, v: Vec) -> int:
        if isinstance(v, int):
            return v
        _require_gf2(self, "a bit mask")
        m = 0
        for i, c in v.items():
            if c & 1:
                m |= 1 << i
        return m

    def unit(self, i: int) -> Vec:
        return (1 << i) if self.is_gf2 else {i: 1}

    def ad_rows(self, x: Vec) -> List[int]:
        """ad_x as a list of masks: row k = [x, e_k]; GF(2) only."""
        T = self.pair_table()
        n = self.dim
        xb = list(gf2.bits(self.as_mask(x)))
        rows = []
        for k in range(n):
            acc = 0
            for i in xb:
                acc ^= T[i * n + k]
            rows.append(acc)
        return rows

    # -- validation -------------------------------------------------------
    def validate(self, max_report: int = 5) -> ValidationReport:
        """Alternation (structural, re-checked) + Jacobi on every triple
        i<j<k, reporting the first `max_report` failures in (i,j,k) order.

        Over GF(2) only the triples where some double bracket can be
        nonzero are evaluated, which is exact: [[e_a,e_b],e_c] != 0 needs
        (a,b) in `sc` and [e_c,e_l] != 0 for some l in [e_a,e_b], i.e. c in
        the pair's reach mask R[a*n+b].  Each such triple is evaluated
        once, from the first of its pairs (i,j), (i,k), (j,k) that reaches
        it, with the same three-term sum as a full sweep.
        """
        rep = ValidationReport()
        if self.grading is not None:
            rep.grading_failures = self._check_grading()[:max_report]
        n = self.dim
        if self.is_gf2:
            T = self.pair_table()
            for i in range(n):
                if T[i * n + i]:
                    rep.alternation_failures.append((i,))
            pairs = sorted(self.sc)
            nbr_mask = [0] * n  # bit z of nbr_mask[l]: [e_z,e_l] != 0
            for a, b in pairs:
                nbr_mask[a] |= 1 << b
                nbr_mask[b] |= 1 << a
            R = [0] * (n * n)  # R[a*n+b], a<b: the c with [[e_a,e_b],e_c] possibly != 0
            for a, b in pairs:
                r = 0
                w = T[a * n + b]
                while w:
                    low = w & -w
                    r |= nbr_mask[low.bit_length() - 1]
                    w ^= low
                R[a * n + b] = r & ~((1 << a) | (1 << b))
            fails = []
            for a, b in pairs:
                w = R[a * n + b]
                while w:
                    low = w & -w
                    w ^= low
                    c = low.bit_length() - 1
                    if c > b:
                        i, j, k = a, b, c
                    elif c > a:  # triple (a,c,b): skip if its pair (a,c) reaches b
                        if (R[a * n + c] >> b) & 1:
                            continue
                        i, j, k = a, c, b
                    else:  # triple (c,a,b): skip if (c,a) reaches b or (c,b) reaches a
                        if (R[c * n + a] >> b) & 1 or (R[c * n + b] >> a) & 1:
                            continue
                        i, j, k = c, a, b
                    i_n, j_n = i * n, j * n
                    acc = 0
                    v = T[i_n + j]
                    while v:
                        lo = v & -v
                        acc ^= T[(lo.bit_length() - 1) * n + k]
                        v ^= lo
                    v = T[j_n + k]
                    while v:
                        lo = v & -v
                        acc ^= T[i_n + lo.bit_length() - 1]
                        v ^= lo
                    v = T[i_n + k]
                    while v:
                        lo = v & -v
                        acc ^= T[j_n + lo.bit_length() - 1]
                        v ^= lo
                    if acc:
                        fails.append((i, j, k))
            # a full sweep stops once it holds max_report failures, and
            # always holds the first one it meets
            rep.jacobi_failures = sorted(fails)[:max(max_report, 1)]
            return rep
        f = self.field
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: Dict[int, int] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, w in self.brk(a, b).items():
                            for m, w2 in self.brk(l, c).items():
                                s = f.add(acc.get(m, 0), f.mul(w, w2))
                                if s:
                                    acc[m] = s
                                else:
                                    acc.pop(m, None)
                    if acc:
                        rep.jacobi_failures.append((i, j, k))
                        if len(rep.jacobi_failures) >= max_report:
                            return rep
        return rep

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        if isinstance(self.field, PolyRing):
            fld = {"kind": "poly", "var": self.field.var}
        else:
            fld = {"kind": "gf2k", "k": self.field.k, "modulus": hex(self.field.modulus)}
        sc = []
        for (i, j) in sorted(self.sc):
            row = [[k, self.field.text(v)] for k, v in sorted(self.sc[(i, j)].items())]
            sc.append([i, j, row])
        out = {"field": fld, "dim": self.dim, "labels": self.labels, "sc": sc}
        if self.grading is not None:
            out["grading"] = [list(w) for w in self.grading]
            out["grading_mod"] = list(self.grading_mod)
        if self.name:
            out["name"] = self.name
        meta = {}
        if "mono_degrees" in self.meta:
            meta["mono_degrees"] = [list(m) for m in self.meta["mono_degrees"]]
        if "vars" in self.meta:
            meta["vars"] = list(self.meta["vars"])
        if "N" in self.meta:
            meta["N"] = list(self.meta["N"])
        if meta:
            out["meta"] = meta
        return out

    @classmethod
    def from_json(cls, d: dict) -> "Algebra":
        fd = d["field"]
        if fd["kind"] == "poly":
            field = PolyRing(fd.get("var", "h"))

            def parse(s):
                return int("".join(reversed([c for c in s if c in "01"])), 2) if s.startswith("[") else int(s, 0)
        else:
            field = GF2 if fd["k"] == 1 else GF2k(fd["k"], int(fd["modulus"], 0))

            def parse(s):
                return int(s, 0)
        sc = {}
        for i, j, row in d["sc"]:
            sc[(i, j)] = {int(k): parse(v) for k, v in row}
        grading = d.get("grading")
        meta = {}
        md = d.get("meta", {})
        if "mono_degrees" in md:
            meta["mono_degrees"] = [tuple(m) for m in md["mono_degrees"]]
        if "vars" in md:
            meta["vars"] = tuple(md["vars"])
        if "N" in md:
            meta["N"] = tuple(md["N"])
        return cls(field, d["labels"], sc,
                   grading=[tuple(w) for w in grading] if grading else None,
                   grading_mod=tuple(d["grading_mod"]) if d.get("grading_mod") else None,
                   name=d.get("name", ""), meta=meta)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        nm = self.name or "algebra"
        return "<%s dim=%d over %r>" % (nm, self.dim, self.field)


class Subspace:
    """Row space of an ambient algebra; rows() is its reduced echelon basis."""

    def __init__(self, ambient: Algebra, rows: Iterable[int] = ()):
        _require_gf2(ambient, "a subspace")
        self.ambient = ambient
        self.span = gf2.Span(rows)

    @property
    def dim(self) -> int:
        return self.span.dim

    def add(self, v: int) -> bool:
        return self.span.add(v)

    def __contains__(self, v: int) -> bool:
        return v in self.span

    def rows(self) -> List[int]:
        return self.span.sorted_rows()

    def pivots(self) -> List[int]:
        return sorted(self.span.pivots)

    def is_subalgebra(self) -> bool:
        rs = self.rows()
        return all(self.ambient.bracket(a, b) in self.span for ai, a in enumerate(rs) for b in rs[ai:])

    def is_ideal(self) -> bool:
        g = self.ambient
        return all(g.bracket(r, 1 << j) in self.span
                   for r in self.rows() for j in range(g.dim))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient is other.ambient and self.span == other.span

    def __repr__(self):
        return "<subspace dim %d of %r>" % (self.dim, self.ambient)


def derived_subalgebra(g: Algebra) -> Subspace:
    """Span of all brackets of basis pairs."""
    s = Subspace(g)
    T = g.pair_table()
    for (i, j) in g.sc:
        s.add(T[i * g.dim + j])
    return s


def derived_series_dims(g: Algebra, steps: int = 6) -> List[int]:
    """Dimensions of g ⊇ g' ⊇ g'' ⊇ ... until stabilization (GF(2))."""
    dims = [g.dim]
    cur = Subspace(g, [1 << i for i in range(g.dim)])
    while len(dims) < steps + 1:
        rows = cur.rows()
        nxt = Subspace(g)
        for ai, a in enumerate(rows):
            for b in rows[ai + 1:]:
                nxt.add(g.bracket(a, b))
        dims.append(nxt.dim)
        if nxt.dim == cur.dim or nxt.dim == 0:
            break
        cur = nxt
    return dims


def lower_central_dims(g: Algebra, steps: int = 4) -> List[int]:
    dims = [g.dim]
    cur = Subspace(g, [1 << i for i in range(g.dim)])
    for _ in range(steps):
        nxt = Subspace(g)
        for a in cur.rows():
            for j in range(g.dim):
                nxt.add(g.bracket(a, 1 << j))
        dims.append(nxt.dim)
        if nxt.dim in (cur.dim, 0):
            break
        cur = nxt
    return dims


def center(g: Algebra) -> Subspace:
    """Kernel of the stacked adjoint matrices {x : [x, g] = 0}."""
    n = g.dim
    eqs: List[int] = []
    T = g.pair_table()
    for j in range(n):
        cols = gf2.transpose([T[i * n + j] for i in range(n)], n)
        eqs.extend(c for c in cols if c)
    return Subspace(g, gf2.kernel(eqs, n))


def quotient(g: Algebra, ideal: Subspace, name: str = "") -> Algebra:
    """Quotient by a verified ideal, on the complement of its pivots."""
    if ideal.ambient is not g:
        raise AlgebraError("ideal lives in a different algebra")
    if not ideal.is_ideal():
        raise AlgebraError("subspace is not an ideal")
    piv = set(ideal.pivots())
    keep = [i for i in range(g.dim) if i not in piv]
    pos = {old: new for new, old in enumerate(keep)}
    span = ideal.span
    n = g.dim
    T = g.pair_table()
    sc: Dict[Tuple[int, int], Dict[int, int]] = {}
    for ai, a in enumerate(keep):
        for b in keep[ai + 1:]:
            w = span.reduce(T[a * n + b])
            if w:
                sc[(pos[a], pos[b])] = {pos[k]: 1 for k in gf2.bits(w)}
    grading = None
    mod = None
    if g.grading is not None:
        grading = [g.grading[i] for i in keep]
        mod = g.grading_mod
    meta = _restrict_meta(g, keep)
    try:
        return Algebra(g.field, [g.labels[i] for i in keep], sc, grading=grading,
                       grading_mod=mod, name=name or (g.name + "/ideal"), meta=meta)
    except AlgebraError:
        return Algebra(g.field, [g.labels[i] for i in keep], sc,
                       name=name or (g.name + "/ideal"), meta=meta)


def _restrict_meta(g: Algebra, keep: List[int]) -> dict:
    meta = {}
    md = g.meta.get("mono_degrees")
    if md is not None:
        meta["mono_degrees"] = [md[i] for i in keep]
    for key in ("vars", "N"):
        if key in g.meta:
            meta[key] = g.meta[key]
    return meta


def subalgebra_on(g: Algebra, sub: Subspace, name: str = "") -> Algebra:
    """The algebra induced on a bracket-closed subspace (its RREF basis)."""
    rows = sub.rows()
    span = sub.span
    pos = {p: idx for idx, p in enumerate(sub.pivots())}
    m = len(rows)

    def coords(w: int) -> Dict[int, int]:
        # an RREF combination takes row idx exactly when w has its pivot bit
        if w not in span:
            raise AlgebraError("subspace is not bracket-closed")
        return {pos[p]: 1 for p in gf2.bits(w & span.mask)}

    T = g.pair_table()
    n = g.dim
    row_bits = [list(gf2.bits(r)) for r in rows]
    sc: Dict[Tuple[int, int], Dict[int, int]] = {}
    for a in range(m):
        bases = [i * n for i in row_bits[a]]
        for b in range(a + 1, m):
            w = 0
            for base in bases:
                for j in row_bits[b]:
                    w ^= T[base + j]
            if w:
                sc[(a, b)] = coords(w)
    labels = []
    for bs in row_bits:
        labels.append(g.labels[bs[0]] if len(bs) == 1 else "(" + "+".join(g.labels[b] for b in bs) + ")")
    grading = None
    mod = None
    if g.grading is not None:
        ok = True
        grading = []
        for bs in row_bits:
            ws = {g.grading[b] for b in bs}
            if len(ws) != 1:
                ok = False
                break
            grading.append(ws.pop())
        if not ok:
            grading = None
        else:
            mod = g.grading_mod
    meta = {}
    md = g.meta.get("mono_degrees")
    if md is not None and all(len(bs) == 1 for bs in row_bits):
        meta["mono_degrees"] = [md[bs[0]] for bs in row_bits]
        for key in ("vars", "N"):
            if key in g.meta:
                meta[key] = g.meta[key]
    return Algebra(g.field, labels, sc, grading=grading, grading_mod=mod,
                   name=name or (g.name + "|sub"), meta=meta)


def ideal_generated(g: Algebra, seed: int) -> Subspace:
    """Smallest ideal containing the seed vector (spinning closure)."""
    if not seed:
        raise AlgebraError("seed must be nonzero")
    return _spin(g, seed, ())


def _spin(g: Algebra, seed: int, settled: Container[int]) -> Optional[Subspace]:
    """The ideal spun from `seed`, or None as soon as the seed or one of
    its brackets lies in `settled`, vectors whose ideal is known to be g."""
    if seed in settled:
        return None
    s = Subspace(g)
    s.add(seed)
    queue = [seed]
    n = g.dim
    T = g.pair_table()
    while queue:
        v = queue.pop()
        vb = list(gf2.bits(v))
        for j in range(n):
            acc = 0
            for i in vb:
                acc ^= T[i * n + j]
            if acc:
                if acc in settled:
                    return None
                if s.add(acc):
                    queue.append(acc)
                    if s.dim == n:
                        return s
    return s


class SimplicityVerdict:
    def __init__(self, kind: str, witness: Optional[Subspace] = None, seeds_tried: int = 0):
        self.kind = kind  # "simple" | "ideal-witness" | "probable-simple"
        self.witness = witness
        self.seeds_tried = seeds_tried

    def __repr__(self):
        if self.kind == "ideal-witness":
            return "<ideal-witness dim %d>" % self.witness.dim
        return "<%s (%d seeds)>" % (self.kind, self.seeds_tried)


def simplicity_check(g: Algebra, random_seeds: int = 1000, exhaustive_dim: int = 20,
                     rng_seed: int = 0) -> SimplicityVerdict:
    """Spin ideals from seed vectors.

    Exhaustive over all nonzero vectors for GF(2) algebras of dim <=
    exhaustive_dim, which proves simplicity; otherwise spins from the
    basis plus random vectors and can only report probable-simple.

    A spin stops early, exactly, once it meets a settled vector: if a
    nonzero w lies in ideal(v), then ideal(v) is an ideal holding w, so
    ideal(w) ⊆ ideal(v), and ideal(w) = g forces ideal(v) = g.  Seeds
    are settled only after their own spin reached g: the exhaustive walk
    returns at the first proper ideal, so when it spins v every nonzero
    w < v is settled; the random walk keeps the set of seeds it has
    proven.  A spin that ends in a proper ideal meets no settled vector,
    so the witness is the full spin of the first failing seed, as without
    the shortcut.
    """
    n = g.dim
    if n == 0:
        return SimplicityVerdict("ideal-witness", Subspace(g), 0)
    if n == 1:
        return SimplicityVerdict("ideal-witness", Subspace(g, [1]), 1)
    if g.is_gf2 and n <= exhaustive_dim:
        for seed in range(1, 1 << n):
            sp = _spin(g, seed, range(1, seed))
            if sp is not None and sp.dim < n:
                return SimplicityVerdict("ideal-witness", sp, seed)
        return SimplicityVerdict("simple", None, (1 << n) - 1)
    rng = random.Random(rng_seed)
    seeds = [1 << i for i in range(n)]
    seeds += [rng.getrandbits(n) or 1 for _ in range(random_seeds)]
    proven = set()
    for count, seed in enumerate(seeds, 1):
        sp = _spin(g, seed, proven)
        if sp is not None and sp.dim < n:
            return SimplicityVerdict("ideal-witness", sp, count)
        proven.add(seed)
    return SimplicityVerdict("probable-simple", None, len(seeds))


class LinearMap:
    """Linear map given by images of the source basis vectors."""

    def __init__(self, source: Algebra, target: Algebra, images: Sequence[Vec]):
        if len(images) != source.dim:
            raise AlgebraError("need one image per source basis vector")
        self.source = source
        self.target = target
        self.images = list(images)

    def apply(self, v: Vec) -> Vec:
        t = self.target
        if isinstance(v, int) and all(isinstance(im, int) for im in self.images):
            acc = 0
            for i in gf2.bits(v):
                acc ^= self.images[i]
            return acc
        f = t.field
        acc: Dict[int, int] = {}
        for i, c in self.source.as_dict(v).items():
            im = t.as_dict(self.images[i])
            for k, w in im.items():
                s = f.add(acc.get(k, 0), f.mul(c, w))
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return acc

    def is_invertible(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        if self.target.is_gf2 and all(isinstance(im, int) for im in self.images):
            return gf2.invert(self.images, self.target.dim) is not None
        return _generic_invertible([self.target.as_dict(im) for im in self.images],
                                   self.target.dim, self.target.field)

    def inverse(self) -> "LinearMap":
        _require_gf2(self.target, "the inverse map")
        inv = gf2.invert(self.images, self.target.dim)
        if inv is None:
            raise AlgebraError("map is not invertible")
        return LinearMap(self.target, self.source, inv)

    def __repr__(self):
        return "<linear map %r -> %r>" % (self.source, self.target)


def _generic_invertible(cols: List[Dict[int, int]], n: int, field) -> bool:
    if len(cols) != n:
        return False
    rows = [[col.get(i, 0) for col in cols] for i in range(n)]
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return False
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.add(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return True


def verify_morphism(m: LinearMap, kind: str = "homomorphism") -> bool:
    """Check m([x,y]) = [m(x), m(y)] on all basis pairs; isomorphism adds invertibility."""
    src, tgt = m.source, m.target
    if src.field != tgt.field:
        raise AlgebraError("source and target fields differ")
    fast = tgt.is_gf2 and all(isinstance(im, int) for im in m.images)
    for (i, j) in _all_pairs(src.dim):
        lhs = m.apply(_pair_bracket(src, i, j))
        rhs = tgt.bracket(m.images[i], m.images[j])
        if fast:
            if lhs != rhs:
                return False
        else:
            if tgt.as_dict(lhs) != tgt.as_dict(rhs):
                return False
    if kind == "isomorphism":
        return m.is_invertible()
    return True


def _pair_bracket(g: Algebra, i: int, j: int) -> Vec:
    if g.is_gf2:
        m = 0
        for k in g.brk(i, j):
            m |= 1 << k
        return m
    return dict(g.brk(i, j))


def _all_pairs(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j)


def derivation_equations(g: Algebra) -> List[int]:
    """The nonzero rows of D[e_i,e_j] = [De_i,e_j] + [e_i,De_j], in (i<j, l)
    order; unknown q = k*n + i is the coefficient of e_k in D(e_i)."""
    n = g.dim
    T = g.pair_table()
    _, nbrs = g.incidence()
    eqs: List[int] = []
    for i in range(n):
        for j in range(i + 1, n):
            # row l = D([e_i,e_j])_l + [D e_i, e_j]_l + [e_i, D e_j]_l; the
            # bracket terms need D_{k,i} with [e_k,e_j] != 0 and D_{k,j}
            # with [e_i,e_k] != 0
            w = T[i * n + j]
            rows = [w << (l * n) for l in range(n)]
            for k, v in nbrs.get(j, ()):
                for l in gf2.bits(v):
                    rows[l] ^= 1 << (k * n + i)
            for k, v in nbrs.get(i, ()):
                for l in gf2.bits(v):
                    rows[l] ^= 1 << (k * n + j)
            eqs.extend(row for row in rows if row)
    return eqs


def derivations(g: Algebra) -> List[List[int]]:
    """Basis of der(g): each derivation as a list of image masks per basis vector."""
    n = g.dim
    ker = gf2.kernel(derivation_equations(g), n * n)
    out = []
    for x in ker:
        images = [0] * n
        for q in gf2.bits(x):
            k, i = divmod(q, n)
            images[i] |= 1 << k
        out.append(images)
    return out


def derivation_dim(g: Algebra) -> int:
    return len(derivations(g))


def compute_h1_dim(g: Algebra) -> Tuple[int, int, int]:
    """(dim Z^1, dim B^1, dim H^1) with adjoint coefficients."""
    z1 = derivation_dim(g)
    b1 = g.dim - center(g).dim
    return z1, b1, z1 - b1


def check_invariant_form(g: Algebra, K: Sequence[int]) -> Tuple[bool, int]:
    """Verify K([x,z],y) = K(x,[z,y]) on basis triples; returns (invariant, rank deficit).

    K is a symmetric matrix given by row masks over GF(2).
    """
    n = g.dim
    for i in range(n):
        for j in range(n):
            if ((K[i] >> j) & 1) != ((K[j] >> i) & 1):
                raise AlgebraError("form is not symmetric")
    T = g.pair_table()
    for u in range(n):
        for z in range(n):
            for v in range(n):
                lhs = (K[v] & T[u * n + z]).bit_count() & 1
                rhs = (K[u] & T[z * n + v]).bit_count() & 1
                if lhs != rhs:
                    return False, n - gf2.rank(K)
    return True, n - gf2.rank(K)


def direct_sum(a: Algebra, b: Algebra, name: str = "") -> Algebra:
    if a.field != b.field:
        raise AlgebraError("fields differ")
    labels = ["%s.1" % l for l in a.labels] + ["%s.2" % l for l in b.labels]
    sc: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j), row in a.sc.items():
        sc[(i, j)] = dict(row)
    off = a.dim
    for (i, j), row in b.sc.items():
        sc[(i + off, j + off)] = {k + off: v for k, v in row.items()}
    return Algebra(a.field, labels, sc, name=name or "(%s)+(%s)" % (a.name, b.name))


def subalgebra_generated(g: Algebra, vectors: Sequence[int]) -> Subspace:
    """Closure of a set of vectors under the bracket (GF(2))."""
    s = Subspace(g)
    fresh = [v for v in vectors if s.add(v)]
    while fresh and s.dim < g.dim:
        newly = []
        rows = s.rows()
        for v in fresh:
            for r in rows:
                w = g.bracket(v, r)
                if w and s.add(w):
                    newly.append(w)
                    if s.dim == g.dim:
                        return s
        fresh = newly
    return s


def specialize(g: Algebra, at) -> Algebra:
    """Evaluate a PolyRing-coefficient algebra at a scalar of GF(2^k)."""
    from .fields import Scalar, poly_eval
    if not isinstance(g.field, PolyRing):
        raise AlgebraError("specialize() expects coefficients in GF(2)[h]")
    fld = at.field
    sc = {}
    for (i, j), row in g.sc.items():
        out = {}
        for k, v in row.items():
            val = poly_eval(Scalar(g.field, v), at).value
            if val:
                out[k] = val
        if out:
            sc[(i, j)] = out
    return Algebra(fld, g.labels, sc, grading=g.grading, grading_mod=g.grading_mod,
                   name=g.name + "@%s" % at, meta=g.meta)

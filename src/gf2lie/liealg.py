"""Finite-dimensional algebras by structure constants, and the exact
linear algebra around them: validation, subalgebras, ideals, quotients,
simplicity by ideal spinning, morphism checking, invariant forms.  A basis
of the derivations is read off the d1 span of `cohomology.weight_block`,
which also gives dim Der(g) and H^1.

Structure constants are stored sparsely for i < j only; [e_i, e_i] = 0
and [e_j, e_i] = [e_i, e_j] hold structurally (characteristic 2).  Over
GF(2) vectors and bracket rows are bit masks, brackets xors of a cached
pair table; over other scalars vectors are {index: raw value} dicts.
"""

from __future__ import annotations

import json
import random
from types import MappingProxyType
from typing import Any, Container, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from . import gf2
from .fields import GF2, Field, GF2k, PolyRing, add_scaled

Vec = Union[int, Dict[int, int]]  # GF(2) mask, or sparse dict elsewhere


class AlgebraError(ValueError):
    pass


def _require_gf2(g: "Algebra", what: str) -> None:
    if not g.is_gf2:
        raise AlgebraError("%s is computed over GF(2) only, not over %r" % (what, g.field))


def refuse_outside(g: "Algebra", vecs: Iterable[Vec], what: str) -> None:
    """Raise AlgebraError unless each of `vecs` is a vector of g: a mask in
    [0, 2^dim), or a dict {index in [0, dim): value in g's field}."""
    n, full, top = g.dim, 1 << g.dim, g.field.order or float("inf")  # GF(2)[h] takes every v >= 0
    for v in vecs:
        if not (0 <= v < full if isinstance(v, int) else isinstance(v, dict) and all(
                isinstance(k, int) and isinstance(c, int) and 0 <= k < n and 0 <= c < top
                for k, c in v.items())):
            raise AlgebraError("%s %r is not a vector of %r" % (what, v, g))


class ValidationReport:
    def __init__(self):
        self.alternation_failures: List[tuple] = []  # stays empty: alternation is structural
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
Triple = Tuple[int, int, int]


def incidence_index(items: Iterable[Tuple[Tuple[int, int], int]]) -> Incidence:
    """The (pre, rows) of the nonzero values ((x, y), mask), x < y, of a
    bracket or a cochain, each list in the order of `items`."""
    pre: Dict[int, List[Tuple[int, int]]] = {}
    rows: Dict[int, List[Tuple[int, int]]] = {}
    for (x, y), w in items:
        for u in gf2.bits(w):
            pre.setdefault(u, []).append((x, y))
        rows.setdefault(x, []).append((y, w))
        rows.setdefault(y, []).append((x, w))
    return pre, rows


def cyclic_compose(a, b, out: Optional[Dict[Triple, int]] = None) -> Dict[Triple, int]:
    """The 3-cochain (a∘b)(x,y,z) = Σ_cyc a(b(x,y), z) as a sparse dict on
    i<j<k triples.  a and b are whatever has an `incidence()`: an Algebra,
    standing for its bracket, or a `cohomology.Cochain2`.  So μ∘μ is the
    Jacobiator of g, and d2(c) = μ∘c + c∘μ.

    The sum runs over the u that both operands touch: each pair x<y with
    e_u in b(x,y) meets each z with a(e_u,e_z) != 0, walking whichever
    operand touches fewer u.  With `out` the terms are added into it;
    either way the dict returned holds no zero value.
    """
    pre, rows = b.incidence()[0], a.incidence()[1]
    if out is None:
        out = {}
    for u in (pre if len(pre) <= len(rows) else rows):
        pairs, row = pre.get(u), rows.get(u)
        if pairs is None or row is None:
            continue
        for x, y in pairs:
            for z, v in row:
                if z != x and z != y:
                    tri = (z, x, y) if z < x else (x, z, y) if z < y else (x, y, z)
                    out[tri] = out.get(tri, 0) ^ v
    for tri in [tri for tri, w in out.items() if not w]:
        del out[tri]
    return out


def _decode_rows(rows: Dict[Tuple[int, int], int]) -> Mapping[Tuple[int, int], Mapping[int, int]]:
    """The `sc` view of GF(2) rows {(i, j): mask}: {(i, j): {k: 1}}, k ascending, read-only."""
    return MappingProxyType({ij: MappingProxyType(dict.fromkeys(gf2.bits(m), 1)) for ij, m in rows.items()})


class Algebra:
    """Algebra with alternating bracket given by sparse structure constants:
    over GF(2) `rows`, {(i, j): mask of [e_i, e_j]} for the nonzero pairs
    i < j, and `sc` a view of them; over other scalars `sc` alone."""

    def __init__(self, field: Field, labels: Sequence[str], sc: Dict[Tuple[int, int], Dict[int, int]],
                 grading: Optional[Sequence[Tuple[int, ...]]] = None,
                 grading_mod: Optional[Tuple[int, ...]] = None,
                 name: str = "", meta: Optional[dict] = None):
        n = len(labels)
        top = field.order or float("inf")  # GF(2)[h] takes every v >= 0
        clean: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j), val in sc.items():
            if any(not 0 <= v < top for v in val.values()):
                raise AlgebraError("structure constant at (%d,%d) lies outside %r" % (i, j, field))
            if i == j:
                if any(val.values()):
                    raise AlgebraError("[e_%d, e_%d] must vanish (alternation)" % (i, i))
                continue
            if i > j:
                i, j = j, i
            if not (0 <= i < j < n):
                raise AlgebraError("structure constant index out of range: (%d,%d)" % (i, j))
            if any(v and not 0 <= k < n for k, v in val.items()):
                raise AlgebraError("bracket target out of range at (%d,%d)" % (i, j))
            prev = clean.setdefault((i, j), {})
            add_scaled(field, prev, 1, val)
            if not prev:
                del clean[(i, j)]
        if isinstance(field, GF2k) and field.k == 1:
            clean = {ij: gf2.from_bits(row) for ij, row in clean.items()}
        self._adopt(field, labels, clean, grading, grading_mod, name, meta, None)

    @classmethod
    def from_gf2_rows(cls, labels: Sequence[str], rows: Dict[Tuple[int, int], int],
                      grading: Optional[Sequence[Tuple[int, ...]]] = None,
                      grading_mod: Optional[Tuple[int, ...]] = None,
                      name: str = "", meta: Optional[dict] = None) -> "Algebra":
        """The GF(2) algebra on clean rows {(i, j): mask of [e_i, e_j]},
        kept as its `rows` as given (item order included), with the pair
        table built from them: i < j < dim, each mask an int with 0 < mask <
        1 << dim, and the grading.  Raises AlgebraError; foreign input (JSON,
        user dicts, other fields) goes through __init__."""
        n = len(labels)
        T = [0] * (n * n)
        try:
            for (i, j), m in rows.items():
                if not (type(m) is int and 0 <= i < j < n and 0 < m < 1 << n):
                    raise ValueError
                T[i * n + j] = T[j * n + i] = m
        except (TypeError, ValueError):
            raise AlgebraError("not clean GF(2) rows {(i, j): mask} with i < j < %d" % n) from None
        g = cls.__new__(cls)
        g._adopt(GF2, labels, rows, grading, grading_mod, name, meta, T)
        return g

    def _adopt(self, field: Field, labels: Sequence[str], bracket: dict,
               grading, grading_mod, name: str, meta: Optional[dict], table: Optional[List[int]]) -> None:
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.name = name
        self.meta = dict(meta or {})
        # GF(2): rows {(i, j): mask}, sc decoded on first read; else sc, no rows
        self.rows, self._sc = (bracket, None) if self.is_gf2 else (None, bracket)
        self.grading = [tuple(w) for w in grading] if grading is not None else None
        if self.grading is not None and len(self.grading) != self.dim:
            raise AlgebraError("grading length != dim")
        self.grading_mod = tuple(grading_mod) if grading_mod else (
            tuple(0 for _ in self.grading[0]) if self.grading else None)
        if self.grading and any(len(w) != len(self.grading_mod) for w in self.grading):
            raise AlgebraError("every grading weight has one entry per grading_mod entry")
        self._pair_table: Optional[List[int]] = table
        self._incidence: Optional[Incidence] = None
        # what other modules solve once per algebra: cohomology's blocks, superize's closure
        self.cache: Dict[str, Any] = {}
        if self.grading is not None:
            bad = grading_failures(self, self.grading, self.grading_mod, 1)
            if bad:
                raise AlgebraError("grading not respected by bracket, e.g. %r" % (bad[0],))

    # ------------------------------------------------------------------
    @property
    def is_gf2(self) -> bool:
        return isinstance(self.field, GF2k) and self.field.k == 1

    @property
    def sc(self) -> Mapping[Tuple[int, int], Mapping[int, int]]:
        """The bracket as {(i, j): {k: value}}, i < j, one entry per nonzero
        pair.  Over GF(2) a read-only view of `rows`, decoded on first read
        (`_decode_rows`) for the readers that need field coefficients."""
        if self._sc is None:
            self._sc = _decode_rows(self.rows)
        return self._sc

    # -- basic bracket access -------------------------------------------
    def brk(self, i: int, j: int) -> Mapping[int, int]:
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
            for (i, j), m in self.rows.items():
                T[i * n + j] = T[j * n + i] = m
            self._pair_table = T
        return self._pair_table

    def incidence(self) -> Incidence:
        """`incidence_index` of the bracket, pairs ascending, so that pre[u]
        and rows[u] are ascending too; GF(2) only."""
        if self._incidence is None:
            _require_gf2(self, "the incidence index")
            self._incidence = incidence_index(sorted(self.rows.items()))
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
                if row:
                    add_scaled(f, acc, f.mul(a, b), row)
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
        """ad_x as a fresh list of masks: row k = [x, e_k]; GF(2) only."""
        T, n = self.pair_table(), self.dim
        rows = None
        for i in gf2.bits(self.as_mask(x)):
            Ti = T[i * n:i * n + n]
            rows = Ti if rows is None else [r ^ t for r, t in zip(rows, Ti)]
        return [0] * n if rows is None else rows

    # -- validation -------------------------------------------------------
    def validate(self, max_report: int = 5) -> ValidationReport:
        """Jacobi on every triple i<j<k, reporting the first `max_report`
        failures in (i,j,k) order.  Alternation is structural: every
        constructor refuses or drops [e_i, e_i], so `alternation_failures`
        stays empty.

        Over GF(2) Jacobi is first proven from a few basis vectors.  With an
        alternating bracket the Jacobiator J(x,y,z) is trilinear and
        symmetric, and J(x,.,.) = 0 says ad_x is a derivation.  So D = {x :
        ad_x is a derivation} is a subspace, and for x, y in D, ad_[x,y] =
        [ad_x, ad_y] is a derivation: D is a subalgebra.  `_jacobi_proof`
        checks ad_s for basis vectors s, in a greedy order fixed by the
        algebra (it affects speed only), until the span of those s closed
        under their ad_s, inside D, is g.  Otherwise the failing triples are
        the support of μ∘μ, the Jacobiator as a 3-cochain (`cyclic_compose`).
        """
        rep = ValidationReport()
        if self.grading is not None:
            rep.grading_failures = grading_failures(self, self.grading, self.grading_mod, max_report)
        if self.is_gf2:
            if not _jacobi_proof(self):
                # as the triple sweep below: the first max_report failures,
                # and always the first one
                rep.jacobi_failures = sorted(cyclic_compose(self, self))[:max(max_report, 1)]
            return rep
        n = self.dim
        f = self.field
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: Dict[int, int] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, w in self.brk(a, b).items():
                            add_scaled(f, acc, w, self.brk(l, c))
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
        if not isinstance(d, dict):
            raise AlgebraError("an algebra file holds a JSON object, not %s" % type(d).__name__)
        missing = [key for key in ("field", "labels", "sc") if key not in d]
        if missing:
            raise AlgebraError("an algebra file needs the key(s) %s" % ", ".join(missing))
        fd = d["field"]
        kind = fd.get("kind") if isinstance(fd, dict) else None
        if kind == "poly":
            field = PolyRing(fd.get("var", "h"))

            def parse(s):
                if not s.startswith("["):
                    return int(s, 0)
                bits = s[1:-1].split(",")
                if not s.endswith("]") or set(bits) - {"0", "1"}:
                    raise ValueError
                return int("".join(reversed(bits)), 2)
        elif kind == "gf2k" and isinstance(fd.get("k"), int) and isinstance(fd.get("modulus"), str):
            try:
                modulus = int(fd["modulus"], 0)
            except ValueError:
                raise AlgebraError("an algebra file's field modulus is an int literal such as \"0x7\", not %r"
                                   % fd["modulus"]) from None
            field = GF2 if fd["k"] == 1 else GF2k(fd["k"], modulus)

            def parse(s):
                return int(s, 0)
        else:
            raise AlgebraError('an algebra file\'s field is {"kind": "poly"} or {"kind": "gf2k", "k": <int>, '
                               '"modulus": "<hex>"}, not %s' % json.dumps(fd))
        if not isinstance(d["labels"], list) or not isinstance(d["sc"], list):
            raise AlgebraError('an algebra file\'s "labels" and "sc" are JSON lists')
        sc = {}
        for e in d["sc"]:
            row = e[2] if isinstance(e, list) and len(e) == 3 else None
            if not (isinstance(row, list) and all(isinstance(x, int) for x in e[:2])
                    and all(isinstance(t, list) and len(t) == 2 and isinstance(t[0], (int, str))
                            and isinstance(t[1], str) for t in row)):
                raise AlgebraError('an algebra file\'s sc entries are [i, j, [[k, "c"], ...]], each c a '
                                   'JSON string such as "1", not %s' % json.dumps(e))
            pair = (min(e[:2]), max(e[:2]))
            if pair in sc:
                raise AlgebraError("an algebra file's sc entry %s repeats the pair %s" % (json.dumps(e), list(pair)))
            try:
                sc[pair] = {int(k): parse(v) for k, v in row}
            except ValueError:
                raise AlgebraError("an algebra file's sc entry %s holds a target that is not an integer or a "
                                   "value that is not an element of %r" % (json.dumps(e), field)) from None
            if len(sc[pair]) < len(row):
                raise AlgebraError("an algebra file's sc entry %s lists a target twice" % json.dumps(e))
        grading, mod, md = d.get("grading"), d.get("grading_mod"), d.get("meta", {})
        mdd = md if isinstance(md, dict) else {}

        def list_of(ok, x):
            return isinstance(x, list) and all(map(ok, x))

        def int_list(x):
            return list_of(lambda c: isinstance(c, int), x)

        def str_list(x):
            return list_of(lambda c: isinstance(c, str), x)

        n = len(d["labels"])
        for key, ok, what in (
                ("name", isinstance(d.get("name", ""), str), "a string"),
                ("labels", str_list(d["labels"]), "a list of strings"),
                ("dim", d.get("dim", n) == n, "%d, the number of labels" % n),
                ("grading", grading is None or list_of(int_list, grading), "a list of integer lists"),
                ("grading_mod", mod is None or int_list(mod), "an integer list"),
                ("meta", isinstance(md, dict), "an object"),
                ("meta.mono_degrees", list_of(int_list, mdd.get("mono_degrees", [])), "a list of integer lists"),
                ("meta.vars", str_list(mdd.get("vars", [])), "a list of strings"),
                ("meta.N", int_list(mdd.get("N", [])), "an integer list")):
            if not ok:
                raise AlgebraError("an algebra file's %s is %s" % (key, what))
        meta = {}
        if "mono_degrees" in md:
            meta["mono_degrees"] = [tuple(m) for m in md["mono_degrees"]]
            if len(meta["mono_degrees"]) != len(d["labels"]):
                raise AlgebraError("meta.mono_degrees has %d entries for %d basis vectors"
                                   % (len(meta["mono_degrees"]), len(d["labels"])))
        if "vars" in md:
            meta["vars"] = tuple(md["vars"])
        if "N" in md:
            meta["N"] = tuple(md["N"])
        return cls(field, d["labels"], sc,
                   grading=[tuple(w) for w in grading] if grading else None,
                   grading_mod=tuple(mod) if mod else None,
                   name=d.get("name", ""), meta=meta)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        nm = self.name or "algebra"
        return "<%s dim=%d over %r>" % (nm, self.dim, self.field)


def brackets(g: Algebra, rows: Sequence[int], others: Optional[Sequence[int]] = None) -> Iterator[int]:
    """[a, b] for each a in rows and each b in others, a-major; with others
    None, [rows[i], rows[j]] for the pairs i < j, i-major.  Each a's
    brackets are read off one g.ad_rows(a); GF(2) only."""
    for i, a in enumerate(rows):
        bs = rows[i + 1:] if others is None else others
        if bs:
            ad = g.ad_rows(a)
            for b in bs:
                yield gf2.apply_rows(ad, b)


def _jacobiator(T: List[int], n: int, i: int, j: int, k: int) -> int:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_i,e_k],e_j] from the pair table T."""
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
    return acc


def grading_failures(g: Algebra, grading: Sequence[Tuple[int, ...]], moduli: Sequence[int],
                     limit: Optional[int] = None) -> List[tuple]:
    """The first `limit` (all when None) (i, j, k, want, got), in row order
    and k ascending: e_k lies in [e_i, e_j], but its weight `got`, reduced
    by `moduli` (0: not reduced), is not `want`, the reduced sum of those
    of e_i and e_j.  Checked on bit masks: a row passes when its mask lies
    in the mask of the basis vectors of weight want."""
    red = [tuple(w % m if m else w for w, m in zip(gr, moduli)) for gr in grading]
    classes: Dict[tuple, int] = {}  # reduced weight -> mask of its basis vectors
    for k, w in enumerate(red):
        classes[w] = classes.get(w, 0) | 1 << k
    ids = {w: c for c, w in enumerate(classes)}
    nc = len(ids)
    cid = [ids[w] for w in red]
    sums: Dict[int, tuple] = {}  # cid[i] * nc + cid[j] -> (want, classes[want])
    rows = g.rows.items() if g.is_gf2 else ((ij, gf2.from_bits(row)) for ij, row in g.sc.items())
    bad: List[tuple] = []
    for (i, j), w in rows:
        hit = sums.get(cid[i] * nc + cid[j])
        if hit is None:
            want = tuple((a + b) % m if m else a + b for a, b, m in zip(red[i], red[j], moduli))
            hit = sums[cid[i] * nc + cid[j]] = (want, classes.get(want, 0))
        want, ok = hit
        if w & ~ok:
            for k in gf2.bits(w & ~ok):
                if len(bad) == limit:
                    return bad
                bad.append((i, j, k, want, red[k]))
    return bad


def _jacobi_proof(g: Algebra) -> bool:
    """True when Jacobi is proven on all of g from an ad-generating set S of
    basis vectors (see `validate`); False when a check fails or the work
    passes the reach count: the triples where some double bracket can be
    nonzero.  [[e_a,e_b],e_c] != 0 needs (a,b) in `rows` and [e_c,e_l] != 0
    for some l in [e_a,e_b], i.e. c in the pair's reach mask R[a*n+b]."""
    n, T = g.dim, g.pair_table()
    pairs = sorted(g.rows.items())
    nbr = [0] * n  # bit z of nbr[l]: [e_z,e_l] != 0
    for (a, b), _ in pairs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    R = [0] * (n * n)
    pre: Dict[int, List[Tuple[int, int]]] = {}  # l -> the pairs a<b with e_l in [e_a,e_b]
    for p, w in pairs:
        r = 0
        while w:
            low = w & -w
            l = low.bit_length() - 1
            r |= nbr[l]
            pre.setdefault(l, []).append(p)
            w ^= low
        a, b = p
        R[a * n + b] = r & ~((1 << a) | (1 << b))
    budget, cost = 0, [0] * n  # the reach count; a bound on each s's triples
    for (a, b), _ in pairs:
        r = R[a * n + b].bit_count()
        budget += r
        cost[a] += r + len(pre.get(b, ()))
        cost[b] += r + len(pre.get(a, ()))
    if not budget:
        return False
    order = sorted(range(n), key=cost.__getitem__)
    order.insert(0, order.pop())  # the costliest first, then ascending cost
    V, vecs, ads, keep = gf2.Span(), [], [], -1  # ads: ad_t for t in S; keep: all but S
    for s in order:
        if V.dim == n or not V.reduce(1 << s):
            continue
        sn = s * n
        keep ^= 1 << s  # J(s,t,c) = J(t,s,c) = 0 for t in S: skip the triples holding t
        # b -> the c with J(s,b,c) possibly nonzero: c in the reach of {s,b}, or s in that of {b,c}
        cm = {b: R[sn + b if s < b else b * n + s] for b in gf2.bits(nbr[s] & keep)}
        for l in gf2.bits(nbr[s]):
            for b, c in pre.get(l, ()):
                cm[b] = cm.get(b, 0) | 1 << c
        for b, m in cm.items():
            m &= keep if keep >> b & 1 else 0
            budget -= m.bit_count()
            if budget < 0:
                return False
            for c in gf2.bits(m):  # a pair in both entries is taken from the lower one
                if (c > b or not cm.get(c, 0) >> b & 1) and _jacobiator(T, n, s, b, c):
                    return False
        ads.append(T[sn:sn + n])
        # close V under ad_t, t in S: each bracket [e_t, v] is taken once
        new = [1 << s] + [gf2.apply_rows(ads[-1], v) for v in vecs]
        while new:
            w = new.pop()
            if V.add(w):
                vecs.append(w)
                new += [gf2.apply_rows(A, w) for A in ads]
    return True


class Subspace:
    """Row space of an ambient algebra; rows() is its reduced echelon basis."""

    def __init__(self, ambient: Algebra, rows: Iterable[Vec] = ()):
        _require_gf2(ambient, "a subspace")
        rows = list(rows)
        refuse_outside(ambient, rows, "a subspace row")
        self.ambient = ambient
        self.span = gf2.Span(map(ambient.as_mask, rows))

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
        return all(w in self.span for w in brackets(self.ambient, self.rows()))

    def is_ideal(self, within: Optional[Subspace] = None) -> bool:
        """[s, t] lies in self for each s in self and each row t of `within`,
        a subspace of the same algebra (default: each basis vector)."""
        ts = _rows_within(self.ambient, within)
        return all(w in self.span for w in brackets(self.ambient, self.rows(), ts))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient is other.ambient and self.span == other.span

    def __repr__(self):
        return "<subspace dim %d of %r>" % (self.dim, self.ambient)


def derived_subalgebra(g: Algebra) -> Subspace:
    """Span of all brackets of basis pairs."""
    s = Subspace(g)
    for w in dict.fromkeys(g.rows.values()):  # each distinct mask once
        s.add(w)
    return s


def derived_series_dims(g: Algebra) -> List[int]:
    """Dimensions of g ⊇ g' ⊇ g'' ⊇ ... until stabilization, at most six steps (GF(2))."""
    dims = [g.dim]
    cur = Subspace(g, [1 << i for i in range(g.dim)])
    while len(dims) < 7:
        nxt = Subspace(g, brackets(g, cur.rows()))
        dims.append(nxt.dim)
        if nxt.dim == cur.dim or nxt.dim == 0:
            break
        cur = nxt
    return dims


def lower_central_dims(g: Algebra) -> List[int]:
    """Dimensions of g ⊇ [g, g] ⊇ [[g, g], g] ⊇ ..., at most four steps."""
    dims = [g.dim]
    cur = Subspace(g, [1 << i for i in range(g.dim)])
    for _ in range(4):
        nxt = Subspace(g, (w for r in cur.rows() for w in g.ad_rows(r)))
        dims.append(nxt.dim)
        if nxt.dim in (cur.dim, 0):
            break
        cur = nxt
    return dims


def _rows_within(g: Algebra, within: Optional[Subspace]) -> List[int]:
    """The RREF rows of `within`, a subspace of g, or g's basis vectors."""
    if within is None:
        return [1 << i for i in range(g.dim)]
    if within.ambient is not g:
        raise AlgebraError("subspace lives in a different algebra")
    return within.rows()


def center(g: Algebra, within: Optional[Subspace] = None) -> Subspace:
    """{x : [x, t] = 0 for every t}: a basis of candidates, starting from
    all of g, cut down by the kernel of one ad(t) at a time.  With
    `within`, a subalgebra S of g, x and t range over S: the center of S,
    in g's coordinates."""
    cand = ts = _rows_within(g, within)
    for t in ts:
        ad = g.ad_rows(t)  # ad[i] = [e_i, t]
        images = [gf2.apply_rows(ad, x) for x in cand]
        if any(images):
            cand = [gf2.apply_rows(cand, c) for c in gf2.combination_kernel(images, g.dim)]
    return Subspace(g, cand)


def quotient(g: Algebra, ideal: Subspace, name: str = "", within: Optional[Subspace] = None) -> Algebra:
    """S / ideal, for S a bracket-closed subspace of g (`within`, default all
    of g) and an ideal of S, on the RREF rows of S whose pivots are not the
    ideal's pivots.  A basis-vector row keeps g's label, any other row reads
    "(a+b+...)".  The grading descends when every kept row is homogeneous and
    the reduced brackets respect it.  Meta carries over when every row of S
    is a basis vector and either S is all of g or g has mono_degrees."""
    srows = _rows_within(g, within)
    S = gf2.Span(srows) if within is None else within.span
    if ideal.ambient is not g:
        raise AlgebraError("ideal lives in a different algebra")
    if any(r not in S for r in ideal.rows()) or not ideal.is_ideal(within):
        raise AlgebraError("subspace is not an ideal")
    n, span = g.dim, ideal.span
    rows = [r for r in srows if not span.mask >> (r.bit_length() - 1) & 1]
    keep = [r.bit_length() - 1 for r in rows]  # their pivots, ascending
    coords = gf2.compressor(keep)
    row_bits = [list(gf2.bits(r)) for r in rows]
    units = all(r & (r - 1) == 0 for r in srows)
    new: Dict[int, int] = {}  # bracket mask -> its coordinates, each mask reduced once
    sc: Dict[Tuple[int, int], int] = {}
    if units:  # walk g's own pairs
        off = ~S.mask  # the bits outside S
        pos = [coords(1 << i).bit_length() - 1 for i in range(n)]  # -1 off the kept pivots
        for (a, b), w in sorted(g.rows.items()):
            if pos[a] >= 0 and pos[b] >= 0:
                ks = new.get(w)
                if ks is None:
                    if w & off:
                        raise AlgebraError("subspace is not bracket-closed")
                    ks = new[w] = coords(span.reduce(w))
                if ks:
                    sc[(pos[a], pos[b])] = ks
    else:
        for a in range(len(rows)):
            A = g.ad_rows(rows[a])  # A[j] = [row a, e_j]
            for b in range(a + 1, len(rows)):
                w = 0
                for j in row_bits[b]:
                    w ^= A[j]
                ks = new.get(w)
                if ks is None:
                    if w not in S:
                        raise AlgebraError("subspace is not bracket-closed")
                    ks = new[w] = coords(span.reduce(w))
                if ks:
                    sc[(a, b)] = ks
    labels = [g.labels[bs[0]] if len(bs) == 1 else "(" + "+".join(g.labels[b] for b in bs) + ")"
              for bs in row_bits]
    meta, md = {}, g.meta.get("mono_degrees")
    if units and (within is None or md is not None):
        meta = {} if md is None else {"mono_degrees": [md[i] for i in keep]}
        meta.update((key, g.meta[key]) for key in ("vars", "N") if key in g.meta)
    q = Algebra.from_gf2_rows(labels, sc, name=name or (g.name + "/ideal"), meta=meta)
    if g.grading is not None and all(len({g.grading[b] for b in bs}) == 1 for bs in row_bits):
        q.grading, q.grading_mod = [g.grading[bs[0]] for bs in row_bits], g.grading_mod
        if grading_failures(q, q.grading, q.grading_mod, 1):
            q.grading = q.grading_mod = None
    return q


def ad_walk(g: Algebra) -> Iterator[Tuple[int, int]]:
    """(v, ad(v)) for each nonzero v < 2^dim, ascending; ad(v) is one int
    whose field j (bits j*dim up) is [v, e_j], as in `ad_rows`; GF(2)
    only.  Each step is one XOR: ad(v) = ad(v-1) + ad(2^(t+1) - 1)."""
    T, n = g.pair_table(), g.dim
    steps, acc = [], 0
    for i in range(n):
        for j in range(n):
            acc ^= T[i * n + j] << (j * n)
        steps.append(acc)
    ad = 0
    for v in range(1, 1 << n):
        ad ^= steps[(v & -v).bit_length() - 1]
        yield v, ad


def ideal_generated(g: Algebra, seed: Vec) -> Subspace:
    """Smallest ideal containing the seed vector (spinning closure)."""
    refuse_outside(g, [seed], "a seed")
    seed = g.as_mask(seed)
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
    while queue:
        for acc in g.ad_rows(queue.pop()):
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


# simplicity_check walks every nonzero seed of a GF(2) algebra up to this
# dimension; larger algebras spin the basis and this many random seeds
SIMPLICITY_EXHAUSTIVE_DIM = 20
SIMPLICITY_RANDOM_SEEDS = 1000


def simplicity_check(g: Algebra, rng_seed: int = 0) -> SimplicityVerdict:
    """Spin ideals from seed vectors.

    Exhaustive over all nonzero vectors for GF(2) algebras of dim <=
    SIMPLICITY_EXHAUSTIVE_DIM, which proves simplicity; otherwise spins
    from the basis plus SIMPLICITY_RANDOM_SEEDS random vectors and can
    only report probable-simple.

    A spin stops early, exactly, once it meets a settled vector: if a
    nonzero w lies in ideal(v), then ideal(v) is an ideal holding w, so
    ideal(w) ⊆ ideal(v), and ideal(w) = g forces ideal(v) = g.  Seeds
    are settled only after their own spin reached g: the exhaustive walk
    returns at the first proper ideal, so when it spins v every nonzero
    w < v is settled; the random walk keeps the set of seeds it has
    proven.  A spin that ends in a proper ideal meets no settled vector,
    so the witness is the full spin of the first failing seed, as without
    the shortcut.

    The exhaustive walk settles a seed with no spin when some bracket
    w = [seed, e_j] has 0 < w < seed: w is settled and lies in
    ideal(seed).  These w are the first brackets `_spin` tests, so the
    verdict, `seeds_tried` and the witness stay the same.  `ad_walk`
    yields them, as ad(v) = ad(v-1) + ad(2^(t+1) - 1), t the trailing
    zeros of v.
    """
    n = g.dim
    if n == 0:
        return SimplicityVerdict("ideal-witness", Subspace(g), 0)
    if n == 1:
        return SimplicityVerdict("ideal-witness", Subspace(g, [1]), 1)
    if g.is_gf2 and n <= SIMPLICITY_EXHAUSTIVE_DIM:
        mask = (1 << n) - 1
        for seed, ad in ad_walk(g):
            for s in range(0, n * n, n):
                if 0 < (ad >> s) & mask < seed:
                    break
            else:
                sp = _spin(g, seed, range(1, seed))
                if sp is not None and sp.dim < n:
                    return SimplicityVerdict("ideal-witness", sp, seed)
        return SimplicityVerdict("simple", None, (1 << n) - 1)
    rng = random.Random(rng_seed)
    seeds = [1 << i for i in range(n)]
    seeds += [rng.getrandbits(n) or 1 for _ in range(SIMPLICITY_RANDOM_SEEDS)]
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
        refuse_outside(target, images, "an image")
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
            add_scaled(f, acc, c, t.as_dict(self.images[i]))
        return acc

    def is_invertible(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        if self.target.is_gf2 and all(isinstance(im, int) for im in self.images):
            return gf2.invert(self.images, self.target.dim) is not None
        return _generic_invertible([self.target.as_dict(im) for im in self.images],
                                   self.target.dim, self.target.field)

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
                rows[i] = [a ^ field.mul(f, b) for a, b in zip(rows[i], rows[r])]
        r += 1
    return True


def verify_morphism(m: LinearMap, kind: str = "homomorphism") -> bool:
    """Check m([x,y]) = [m(x), m(y)] on all basis pairs; isomorphism adds
    invertibility.  Over GF(2) with mask images, both sides come from the
    source pair table and ad m(e_i) in the target."""
    src, tgt, images = m.source, m.target, m.images
    if src.field != tgt.field:
        raise AlgebraError("source and target fields differ")
    n = src.dim
    if tgt.is_gf2 and all(isinstance(im, int) for im in images):
        T = src.pair_table()
        ok = all(gf2.apply_rows(images, T[i * n + j]) == gf2.apply_rows(ad, images[j])
                 for i, ad in enumerate(map(tgt.ad_rows, images)) for j in range(i + 1, n))
    else:
        ok = all(tgt.as_dict(m.apply(src.bracket(src.unit(i), src.unit(j))))
                 == tgt.as_dict(tgt.bracket(images[i], images[j])) for i in range(n) for j in range(i + 1, n))
    return ok and (kind != "isomorphism" or m.is_invertible())


def derivations(g: Algebra) -> List[List[int]]:
    """Basis of Der(g) = ker d1, each derivation as a list of image masks per
    basis vector: the kernel of the d1 span of g's unconstrained weight block,
    whose coordinate k·n + i is e_k ⊗ d(e_i)."""
    from .cohomology import weight_block  # cohomology builds on this module
    n = g.dim
    return [[gf2.from_bits(k for k in range(n) if x >> (k * n + i) & 1) for i in range(n)]
            for x in weight_block(g).d1_span()[0].kernel]


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    if a.field != b.field:
        raise AlgebraError("fields differ")
    labels = ["%s.1" % l for l in a.labels] + ["%s.2" % l for l in b.labels]
    off, sc = a.dim, dict(a.sc)
    sc.update(((i + off, j + off), {k + off: v for k, v in row.items()}) for (i, j), row in b.sc.items())
    return Algebra(a.field, labels, sc, name="(%s)+(%s)" % (a.name, b.name))


def subalgebra_generated(g: Algebra, vectors: Sequence[Vec]) -> Subspace:
    """Closure of a set of vectors under the bracket (GF(2)).  The bracket is
    symmetric with [v, v] = 0, so closure vector i meets only the vectors
    j < i; the walk stops once the span is g.  Each vector must lie in g."""
    s = Subspace(g)
    refuse_outside(g, vectors, "a generator")
    span = s.span
    vecs = [v for v in map(g.as_mask, vectors) if span.add(v)]
    for i, v in enumerate(vecs):  # vecs grows as it is walked
        if span.dim == g.dim:
            break
        vecs.extend([w for w in brackets(g, [v], vecs[:i]) if w and span.add(w)])
    return s

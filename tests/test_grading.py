import pytest
from test_liealg import _loop_subalgebra_generated

from gf2lie import experiments, gf2
from gf2lie.constructions import build_hamiltonian, build_hI, build_jurman, build_poisson
from gf2lie.deform import bracket_map_cochain
from gf2lie.grading import Filtration, associated_graded, cochain_weight, weight_keys, weisfeiler_filtration
from gf2lie.isom import fingerprint
from gf2lie.liealg import Algebra, AlgebraError, LinearMap, Subspace, subalgebra_generated, verify_morphism
from gf2lie.fields import GF2


def jurman_L0(j):
    idx = [i for i, lbl in enumerate(j.labels) if not lbl.startswith("Y-1")]
    return Subspace(j, [1 << i for i in idx])


def test_weisfeiler_jurman_21():
    j = build_jurman(2, 1)
    f = weisfeiler_filtration(j, jurman_L0(j))
    assert f.l0_maximal
    assert f.depth == 1
    assert f.layer_dims() == [14, 12, 9, 5, 2]
    assert f.codims() == [2, 3, 4, 3, 2]
    assert f.check_compatible()


@pytest.mark.parametrize("g,h", [(2, 1), (3, 1), (2, 2)])
def test_subalgebra_generated_matches_the_round_based_closure_on_L0_plus_v(g, h):
    # the maximality inputs of criterion 4: L0 and one complement vector
    j = build_jurman(g, h)
    L0 = jurman_L0(j)
    comp = [i for i in range(j.dim) if not L0.span.mask >> i & 1]
    for mask in range(1, 1 << len(comp)):
        vs = L0.rows() + [gf2.from_bits(comp[t] for t in gf2.bits(mask))]
        assert subalgebra_generated(j, vs) == _loop_subalgebra_generated(j, vs)


def _loop_check_compatible(f):
    """[L_i, L_j] ⊆ L_{i+j} over every ordered pair of layers and of rows,
    one Algebra.bracket each: the oracle for Filtration.check_compatible."""
    idx = f.indices()
    return all(f.algebra.bracket(a, b) in f.layer(max(i + j, min(idx))).span
               for i in idx for j in idx for a in f.layers[i].rows() for b in f.layers[j].rows())


@pytest.mark.parametrize("g,h", [(2, 1), (3, 1)])
def test_check_compatible_matches_the_bracket_loops(g, h):
    j = build_jurman(g, h)
    f = weisfeiler_filtration(j, jurman_L0(j))
    L = f.layers
    top = max(L)
    not_closed = Subspace(j, [1 << j.labels.index(x) for x in ("Y-1(0)", "Y0(1)")])
    cases = [f,
             Filtration(j, {i + 1: s for i, s in L.items()}, f.depth - 1),  # indices shifted up
             Filtration(j, {**L, top: L[top - 1]}, f.depth),  # the top layer one too large
             Filtration(j, {**L, 1: Subspace(j, L[1].rows()[:-1] + L[0].rows()[-1:])}, f.depth),
             # only [L_0, L_0] fails: L_0 is not a subalgebra
             Filtration(j, {-1: L[-1], 0: not_closed}, 1)]
    got = [c.check_compatible() for c in cases]
    assert got == [_loop_check_compatible(c) for c in cases]
    assert got[0] and not all(got)


def test_subspace_brackets_do_not_call_algebra_bracket(monkeypatch):
    j = build_jurman(2, 1)
    D = [(0x2f3 * (i + 1)) % (1 << j.dim) for i in range(j.dim)]
    loop = {(a, b): j.bracket(D[a], D[b]) for a in range(j.dim) for b in range(a + 1, j.dim)}

    def refuse(*args):
        raise AssertionError("Algebra.bracket called")

    monkeypatch.setattr(Algebra, "bracket", refuse)
    assert fingerprint(j)["dim"] == 14
    assert subalgebra_generated(j, [1, 2]).dim >= 2
    f = weisfeiler_filtration(j, jurman_L0(j))
    assert f.check_compatible() and associated_graded(f).dim == 14
    assert list(bracket_map_cochain(j, D).terms.items()) == [(p, w) for p, w in loop.items() if w]
    experiments.QPO.cache_clear()
    assert experiments.QPO().dim == 16


def test_weisfeiler_rejects_non_subalgebra():
    j = build_jurman(2, 1)
    # [Y_{-1}(0), Y_0(1)] = Y_{-1}(1), outside the span of the two
    a = j.labels.index("Y-1(0)")
    b = j.labels.index("Y0(1)")
    sub = Subspace(j, [1 << a, 1 << b])
    assert not sub.is_subalgebra()
    with pytest.raises(AlgebraError):
        weisfeiler_filtration(j, sub)


def test_abelian_filtration_stabilizes():
    ab = Algebra(GF2, ["a", "b", "c"], {})
    sub = Subspace(ab, [1, 2])
    with pytest.raises(AlgebraError):
        # an abelian algebra never exhausts: L_{-1} = module closure = L0 + v,
        # then [L-1, L-1] adds nothing and the chain cannot reach the top
        weisfeiler_filtration(ab, sub)


def test_gr_of_graded_algebra_is_itself():
    # filter h' by its own total grading: gr must reproduce the algebra
    hp = build_hamiltonian(1, (2, 2), "derived")
    tot = [sum(w) for w in hp.grading]
    los = [i for i, d in enumerate(tot) if d >= 0]
    f = weisfeiler_filtration(hp, Subspace(hp, [1 << i for i in los]))
    gr = associated_graded(f)
    assert gr.validate().ok
    ident = LinearMap(gr, hp, [1 << hp.labels.index(l) for l in gr.labels])
    assert verify_morphism(ident, "isomorphism")


@pytest.mark.parametrize("g,h", [(2, 1), (3, 1), (2, 2)])
def test_gr_jurman_is_hamiltonian(g, h):
    j = build_jurman(g, h)
    f = weisfeiler_filtration(j, jurman_L0(j))
    gr = associated_graded(f)
    assert gr.validate().ok
    hp = build_hamiltonian(1, (g, h + 1), "derived")
    eta = (1 << g) - 1
    mono_idx = {m: k for k, m in enumerate(hp.meta["mono_degrees"])}
    images = []
    for lbl in gr.labels:
        i_str, s_str = lbl[1:].split("(")
        i, s = int(i_str), int(s_str[:-1])
        a, beta = divmod(i + 1 + s, eta + 1)
        images.append(1 << mono_idx[(beta, 2 * a + 1 - s)])
    assert verify_morphism(LinearMap(gr, hp, images), "isomorphism")
    # dimension is preserved layerwise
    assert sum(f.codims()) == j.dim
    # maximal divided-power degrees: N(p) = g, N(q) = h+1
    assert max(m[0] for m in hp.meta["mono_degrees"]) == (1 << g) - 1
    assert max(m[1] for m in hp.meta["mono_degrees"]) == (1 << (h + 1)) - 1


def test_each_builder_grading_is_a_weight_mode():
    hp = build_hamiltonian(1, (2, 2), "derived")
    po = build_poisson(2, (1, 1, 1, 1))
    hi = build_hI(2, (2, 2))
    assert weight_keys(hp, "z") == hp.grading
    assert weight_keys(po, "outer") == po.grading
    assert weight_keys(hi, "mod2") == hi.grading


def test_cochain_weight_modes():
    from gf2lie.cohomology import parse_cocycle
    hp = build_hamiltonian(1, (2, 2), "derived")
    c = parse_cocycle("p^(3) (x) d(q)^d(q^(2))", hp)
    assert cochain_weight(c, "z") == (4, -2)
    assert cochain_weight(c, "mod2") == (1, 1)
    assert cochain_weight(c, "outer") == (3 - 1 - 2 + 2,)
    zero = parse_cocycle("", hp)
    assert cochain_weight(zero, "z") == (0, 0)


@pytest.mark.parametrize("terms", [{}, {(0, 1): 1 << 2}], ids=["zero", "nonzero"])
def test_cochain_weight_errors_do_not_depend_on_the_terms(terms):
    from gf2lie.cohomology import Cochain2
    hp = build_hamiltonian(1, (2, 2), "derived")
    with pytest.raises(AlgebraError, match="no monomial degrees"):
        Cochain2(build_jurman(2, 1), terms).weight("z")
    with pytest.raises(AlgebraError, match="unknown weight mode 'bogus'"):
        Cochain2(hp, terms).weight("bogus")
    if not terms:
        assert [Cochain2(hp, {}).weight(mode) for mode in ("z", "mod2", "outer")] == [(0, 0), (0, 0), (0,)]


def test_cochain_weight_nonhomogeneous_errors():
    from gf2lie.cohomology import parse_cocycle
    hp = build_hamiltonian(1, (2, 2), "derived")
    c = parse_cocycle("p^(3) (x) d(q)^d(q^(2)) + q^(3) (x) d(p)^d(p^(2))", hp)
    with pytest.raises(AlgebraError):
        cochain_weight(c, "z")

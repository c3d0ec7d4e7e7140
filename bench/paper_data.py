"""The paper's printed cocycle tables and the answers the benchmark checks.

The tables are the reference data of the source paper, written in the
cocycle grammar that `gf2lie.cohomology.parse_cocycle` reads
("value (x) d(y)^d(z) + ...").  They are kept here, not imported from
`gf2lie.experiments`, so that the benchmark depends only on the layer
functions it times.
"""


def _pair_groups(text):
    return [[tuple(int(v) for v in pair.split(",")) for pair in line.split()]
            for line in text.strip().splitlines()]


# h'_Pi(2;2,2): full printed cocycles keyed by their Z-weight
PRINTED_GH21 = {
    (4, -2): ("p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + "
              "p^(3) q^(2) (x) d(q^(2))^d(q^(3))"),
    (0, -4): ("p (x) d(p q^(2))^d(p q^(3)) + p (x) d(q^(3))^d(p^(2) q^(2)) + "
              "q (x) d(q^(3))^d(p q^(3)) + p^(2) (x) d(p q^(2))^d(p^(2) q^(3)) + "
              "p^(2) (x) d(q^(3))^d(p^(3) q^(2)) + p q (x) d(q^(3))^d(p^(2) q^(3)) + "
              "p^(3) (x) d(p^(2) q^(2))^d(p^(2) q^(3)) + p^(3) (x) d(p q^(3))^d(p^(3) q^(2)) + "
              "p^(2) q (x) d(p q^(3))^d(p^(2) q^(3))"),
    (2, 0): ("p^(2) (x) d(p)^d(q) + p q^(2) (x) d(q)^d(q^(2)) + "
             "p^(3) q (x) d(q)^d(p^(2) q) + p^(3) q^(2) (x) d(p)^d(p q^(3)) + "
             "p^(3) q^(2) (x) d(q^(2))^d(p^(2) q) + p^(2) q^(3) (x) d(q)^d(p q^(3))"),
}
PRINTED_GH21_PARTIAL = {
    (0, -2): ("p (x) d(p)^d(p q^(3)) + p (x) d(p q)^d(p q^(2)) + "
              "p (x) d(q^(2))^d(p^(2) q) + q (x) d(q)^d(p q^(3))"),
    (-2, -2): ("p (x) d(p q^(2))^d(p^(3) q) + q (x) d(p q^(2))^d(p^(2) q^(2)) + "
               "q (x) d(q^(3))^d(p^(3) q)"),
}
# h'_Pi(2;2,3): the weights of the printed (3,1) table, each with H^2 >= 1
GH31_WEIGHTS = [(0, -8), (1, -7), (4, -4), (4, -2), (1, -5), (0, -4), (-1, -5), (-2, -6),
                (-2, -4), (-1, -3), (0, -2), (2, 0), (-2, -2), (-2, 0), (-4, -2), (-4, 0),
                (0, 4), (0, 6), (-2, 8)]
# elided entries of the (3,1) table: the printed leading terms only
PRINTED_GH31_PARTIAL = {
    (0, -8): "p (x) d(p q^(4))^d(p q^(5)) + p (x) d(q^(5))^d(p^(2) q^(4)) + q (x) d(p q^(4))^d(q^(6))",
    (1, -7): "p (x) d(q^(4))^d(p q^(4)) + q (x) d(q^(4))^d(q^(5)) + p^(2) (x) d(q^(4))^d(p^(2) q^(4))",
    (4, -4): "p^(3) (x) d(q)^d(q^(4)) + p^(3) q (x) d(q)^d(q^(5)) + p^(3) q (x) d(q^(2))^d(q^(4))",
    (4, -2): "p^(3) (x) d(q)^d(q^(2)) + p^(3) q (x) d(q)^d(q^(3)) + p^(3) q^(2) (x) d(q)^d(q^(4))",
    (1, -5): "p (x) d(q^(2))^d(p q^(4)) + p (x) d(p q^(2))^d(q^(4))",
    (0, -4): "p (x) d(p q^(2))^d(p q^(3)) + p (x) d(q^(3))^d(p^(2) q^(2))",
    (-1, -5): "p (x) d(p^(2))^d(p q^(6)) + p (x) d(p^(3))^d(q^(6))",
    (-2, -6): "p (x) d(p q^(4))^d(p^(3) q^(3)) + q (x) d(p q^(4))^d(p^(2) q^(4))",
    (-2, -4): "p (x) d(p q^(2))^d(p^(3) q^(3)) + p (x) d(p^(3) q)^d(p q^(4))",
    (-1, -3): "p (x) d(q^(2))^d(p^(3) q^(2)) + p (x) d(p^(2) q)^d(p q^(3))",
    (0, -2): "p (x) d(p q)^d(p q^(2)) + p (x) d(q^(2))^d(p^(2) q)",
    (2, 0): "p^(2) (x) d(p)^d(q) + p q^(2) (x) d(q)^d(q^(2))",
    (-2, -2): "p (x) d(p q^(2))^d(p^(3) q) + q (x) d(q)^d(p^(3) q^(3))",
    (-2, 0): "p (x) d(p^(2))^d(p^(2) q) + p (x) d(p q)^d(p^(3))",
    (-4, -2): "p (x) d(p^(3))^d(p^(3) q^(3)) + q (x) d(p^(3))^d(p^(2) q^(4))",
    (-4, 0): "p (x) d(p^(3))^d(p^(3) q) + q (x) d(p^(3))^d(p^(2) q^(2))",
    (0, 4): "q^(4) (x) d(p)^d(q) + p^(2) q^(3) (x) d(p)^d(p^(2))",
}
# full printed (3,1) cocycles
PRINTED_GH31 = {
    (0, 6): ("q^(6) (x) d(p)^d(q) + p^(2) q^(5) (x) d(p)^d(p^(2)) + "
             "p q^(7) (x) d(p)^d(p q^(2)) + p^(3) q^(6) (x) d(p)^d(p^(3) q) + "
             "p^(2) q^(7) (x) d(q)^d(p^(3) q) + p^(2) q^(7) (x) d(p^(2))^d(p q^(2))"),
    (-2, 8): ("q^(7) (x) d(p)^d(p^(2)) + p q^(7) (x) d(p)^d(p^(3)) + "
              "p^(2) q^(7) (x) d(p^(2))^d(p^(3))"),
}
# h_I(2;(2,2)): full printed cocycles keyed by (label, outer degree)
PRINTED_HI = {
    ("c2_2", 2): ("p^(3) (x) d(p)^d(q^(2)) + p^(3) q (x) d(p)^d(q^(3)) + "
                  "p^(3) q (x) d(q^(2))^d(p q) + p^(3) q^(2) (x) d(q^(2))^d(p q^(2)) + "
                  "p^(3) q^(3) (x) d(q^(2))^d(p q^(3)) + p^(3) q^(3) (x) d(q^(3))^d(p q^(2))"),
    ("c2_3", 2): ("q^(3) (x) d(q)^d(q^(2)) + p q^(3) (x) d(q)^d(p q^(2)) + "
                  "p q^(3) (x) d(q^(2))^d(p q) + p^(2) q^(3) (x) d(q)^d(p^(2) q^(2)) + "
                  "p^(2) q^(3) (x) d(q^(2))^d(p^(2) q) + p^(3) q^(3) (x) d(q)^d(p^(3) q^(2)) + "
                  "p^(3) q^(3) (x) d(q^(2))^d(p^(3) q) + p^(3) q^(3) (x) d(p q)^d(p^(2) q^(2)) + "
                  "p^(3) q^(3) (x) d(p q^(2))^d(p^(2) q)"),
    ("c2_4", 2): ("p^(3) (x) d(p)^d(p^(2)) + p^(3) q (x) d(p)^d(p^(2) q) + "
                  "p^(3) q (x) d(p^(2))^d(p q) + p^(3) q^(2) (x) d(p)^d(p^(2) q^(2)) + "
                  "p^(3) q^(2) (x) d(p^(2))^d(p q^(2)) + p^(3) q^(3) (x) d(p)^d(p^(2) q^(3)) + "
                  "p^(3) q^(3) (x) d(p^(2))^d(p q^(3)) + p^(3) q^(3) (x) d(p q)^d(p^(2) q^(2)) + "
                  "p^(3) q^(3) (x) d(p q^(2))^d(p^(2) q)"),
    ("c6", 6): "p^(3) q^(3) (x) d(p)^d(q)",
}
PRINTED_HI_C23 = ("p (x) d(p^(2))^d(p^(3)) + q (x) d(p)^d(p^(3) q) + "
                  "q (x) d(p^(2))^d(p^(2) q)")
# elided entries of the non-alternate table, leading terms only, by outer degree
PRINTED_HI_PARTIAL = [
    (-4, "p (x) d(p q)^d(p^(2) q^(3)) + p (x) d(p q^(2))^d(p^(2) q^(2)) + p (x) d(p q^(3))^d(p^(2) q)"),
    (-4, "p (x) d(p^(2) q)^d(p^(3) q) + q (x) d(p^(3))^d(p^(3) q) + q (x) d(p^(2) q)^d(p^(2) q^(2))"),
    (-2, "p (x) d(p^(2))^d(p^(3)) + q (x) d(p^(2))^d(p^(2) q) + q^(2) (x) d(p^(2))^d(p^(2) q^(2))"),
    (-2, "p (x) d(q^(2))^d(p q^(2)) + q (x) d(q^(2))^d(q^(3)) + p^(2) (x) d(q^(2))^d(p^(2) q^(2))"),
    (-2, PRINTED_HI_C23),
    (-2, "p (x) d(p^(2))^d(p q^(2)) + p (x) d(p^(3))^d(q^(2)) + q (x) d(p^(2))^d(q^(3))"),
    (0, "p (x) d(q)^d(p q) + p^(2) (x) d(q)^d(p^(2) q) + p^(3) (x) d(q)^d(p^(3) q)"),
    (2, "q^(3) (x) d(q)^d(p^(2)) + p q^(3) (x) d(q)^d(p^(3)) + p q^(3) (x) d(p^(2))^d(p q)"),
]
# H^2 multiplicity of each outer-degree block of h_I(2;(2,2)) (mod-2 weight
# 0).  Over the blocks' bases the integrability verdicts are linear-global
# except for one class, which sits in degree -2 (12 linear-global, 1 not)
HI_OUTER_DEGREES = {-4: 3, -2: 4, 0: 1, 2: 4, 6: 1}
HI_NONLINEAR_DEGREE = -2

# Z-weight blocks of h'_Pi(2;2,3) grouped by the number of C^2 coordinates
# they hold (compute_h2 costs about the same per coordinate)
GH31_STRATA = [
    [(0, -4), (-1, -3), (0, -2)],                     # 244-253 coordinates
    [(1, -5), (-2, 0), (-2, -4), (-2, -2), (-1, -5)],  # 187-214
    [(0, -8), (1, -7), (-2, -6), (2, 0)],             # 91-130
    [(-4, -2), (-4, 0), (0, 4)],                      # 55-65
    [(4, -4), (4, -2), (0, 6), (-2, 8)],              # 3-21
]
# the partial (3,1) tables a pass samples, one per group; the largest group
# (the largest blocks, whose tables cost the most) is left out to keep a pass
# near 11 s
GH31_PARTIAL_STRATA = [[w for w in group if w in PRINTED_GH31_PARTIAL]
                       for group in GH31_STRATA[1:]]

# structure-sweep: exhaustive simplicity spins every nonzero vector of a
# 14-dimensional algebra
SIMPLE_SEEDS = (1 << 14) - 1

# iso-search: the same-class superization pairs of each algebra, in groups of
# pairs that try about as many maps (ranked by the maps tried at the commit
# the benchmark was added).  A pass draws one pair from each group, so every
# seed does about the same work.  One line per group, pairs written "v1,v2".
SAME_PAIR_STRATA = {
    "Kap2(4)": _pair_groups("""
        8,10 9,11 10,8 11,9 12,14 13,15 14,12 15,13
        4,5 5,4 6,7 7,6 12,13 13,12 14,15 15,14 12,15
        13,14 14,13 15,12 4,6 5,7 6,4 7,5 8,9 9,8
        10,11 11,10 8,11 9,10 10,9 11,8 4,7 5,6 6,5
        7,4 2,3 3,2 4,12 5,13 6,15 7,14 12,4
        13,5 14,7 15,6 12,7 13,6 14,4 15,5 4,13 5,12
        6,14 7,15 12,5 13,4 14,6 15,7 12,6 13,7 14,5
        15,4 4,14 5,15 6,13 7,12 4,15 5,14 6,12 7,13
        2,8 3,9 8,2 9,3 10,2 11,3 8,3 9,2
        10,3 11,2 2,9 3,8 2,10 3,11 2,11 3,10 1,2
        2,1 4,8 5,10 6,9 7,11 8,4 9,6 10,5 11,7
        8,5 9,7 10,4 11,6 4,9 5,11 6,8 7,10 8,6
        9,4 10,7 11,5 8,7 9,5 10,6 11,4 4,10
        5,8 6,11 7,9 4,11 5,9 6,10 7,8 3,1 12,8
        13,10 14,11 15,9 12,11 13,9 14,8 15,10 12,10 13,8
        14,9 15,11 12,9 13,11 14,10 15,8 2,4 3,6 8,1
        10,1 9,1 11,1 2,5 3,7 2,6 3,4 2,7
        3,5 1,3 8,12 9,15 10,13 11,14 8,13 9,14 10,12
        11,15 8,14 9,13 10,15 11,12 8,15 9,12 10,14 11,13
        2,12 3,15 2,13 3,14 2,14 3,13 2,15 3,12 1,4
        4,1 6,3 4,3 6,1 5,1 7,3 5,3 7,1
        12,1 15,3 13,3 14,1 13,1 14,3 12,3 15,1 1,5
        1,6 1,7 1,8 4,2 6,2 5,2 7,2 12,2 14,2
        13,2 15,2 1,9 1,10 1,11 1,12 1,13 1,14 1,15
    """),
    "Kap4,0(4)": _pair_groups("""
        4,6 5,7 6,4 7,5 8,9 9,8 10,11 11,10 12,15 13,14
        14,13 15,12 2,3 3,2 4,12 5,13 6,15 7,14 12,4 13,5
        14,7 15,6 4,15 5,14 6,12 7,13 12,6 13,7 14,5 15,4
        2,8 3,9 8,2 9,3 8,3 9,2 2,9 3,8 1,2 2,1
        4,8 5,10 6,9 7,11 8,4 9,6 10,5 11,7 4,9 5,11 6,8
        7,10 8,6 9,4 10,7 11,5 3,1 12,8 13,10 14,11 15,9
        12,9 13,11 14,10 15,8 2,4 3,6 8,1 9,1 2,6 3,4
        1,3 8,12 9,15 10,13 11,14 8,15 9,12 10,14 11,13 2,12
        3,15 2,15 3,12 1,4 4,1 6,3 4,3 6,1 12,1 15,3
        12,3 15,1 1,6 1,8 4,2 6,2 12,2 15,2 1,9 1,12 1,15
    """),
    "Kap4,1(4)": _pair_groups("""
        4,5 5,4 6,7 7,6 12,13 13,12 14,15 15,14 4,6 5,7 6,4
        7,5 8,11 9,10 10,9 11,8 4,7 5,6 6,5 7,4 2,8 3,9
        6,12 7,13 8,2 9,3 12,6 13,7 6,13 7,12 12,7 13,6 4,12
        5,13 10,3 11,2 4,13 5,12 2,11 3,10 12,4 13,5 12,5 13,4
        1,3 3,1 8,14 9,13 10,12 11,15 12,10 13,9 14,8 15,11 8,15
        9,12 10,13 11,14 12,9 13,10 14,11 15,8 2,14 3,13 6,10 7,9
        9,1 6,9 7,10 4,9 5,10 10,1 4,10 5,9 2,15 3,12 1,4
        3,6 4,1 6,3 4,3 6,1 5,1 7,3 5,3 7,1 9,6 12,3
        13,3 10,6 12,1 13,1 1,5 3,7 9,7 10,7 1,6 3,4 9,4
        10,4 1,7 3,5 9,5 10,5 1,9 14,2 15,2 1,10 1,12 1,13
    """),
}

# iso-search: orders of the orthogonal groups O+(4,2) and O-(4,2), the maps
# an exhaustive search over Q-preserving matrices must try
ORTHOGONAL_GROUP_ORDER = {0: 72, 1: 120}

"""Collineation matrices, Plucker data, scaled minors, the 2x3 cubic."""

from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest

from hilbdiag import groebner
from hilbdiag.embeddings import (MULTISETS, PAIRS, _net_minor,
                                 collineation_matrices, lafforgue_coordinates,
                                 minor_types, plucker_classification_counts,
                                 plucker_param, plucker_triples,
                                 tree_ideal_coeffs, uv_coeff_matrix,
                                 x23_cubic, x23_cubic_check, x23_matrix)
from hilbdiag.groebner import matrix_det, random_invertible
from hilbdiag.linalg import rank_dense
from hilbdiag.treespace import enumerate_trees, tree_to_ideal

RNG_SEED = 20260809


def plucker_value(U, V, triple):
    """The parametrized Plucker coordinate of one triple, as plucker_param
    computes it."""
    return _net_minor(uv_coeff_matrix(U, V), triple)


def random_matrix(rng, rows, cols):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def minors_coeff_matrix():
    """The 3 x 9 coefficient matrix of the three 2 x 2 minors themselves."""
    A = [[Fraction(0)] * 9 for _ in range(3)]
    for r, (i, j) in enumerate(combinations(range(1, 4), 2)):
        A[r][PAIRS.index((i, j))] = Fraction(1)
        A[r][PAIRS.index((j, i))] = Fraction(-1)
    return A


def _det3(c1, c2, c3):
    return (c1[0] * (c2[1] * c3[2] - c2[2] * c3[1])
            - c1[1] * (c2[0] * c3[2] - c2[2] * c3[0])
            + c1[2] * (c2[0] * c3[1] - c2[1] * c3[0]))


def _column(M, k):
    return tuple(Fraction(M[r][k - 1]) for r in range(3))


def plucker_by_products(U, V, triple):
    """The parametrized Plucker coordinate as its product-of-determinants
    formula over the columns of U and V: the oracle for the net minors."""
    (i1, i2), (j1, j2), (k1, k2) = triple
    u = {m: _column(U, m) for m in range(1, 4)}
    v = {m: _column(V, m) for m in range(1, 4)}
    return (_det3(u[i1], v[i2], u[j1]) * _det3(v[j2], u[k1], v[k2])
            - _det3(u[i1], v[i2], v[j2]) * _det3(u[j1], u[k1], v[k2]))


def collineation_matrices_generated(A):
    """The two 9 x 18 matrices of collineation_matrices, built by actual
    polynomial multiplication: a transcription guard for the structural
    builder.  Returns (by_first_factor, by_second_factor)."""
    ring = groebner.grid_ring(3, 2)
    x = ring.grid_var
    gens = []
    for r in range(3):
        g = ring.zero()
        for k, (i, j) in enumerate(PAIRS):
            g = g + x(i, 1) * x(j, 2) * Fraction(A[r][k])
        gens.append(g)

    def basis(mono):
        out = {}
        for (p, q) in MULTISETS:
            for l in range(1, 4):
                (m,) = mono(p, q, l).terms
                out[m] = len(out)
        return out

    b21 = basis(lambda p, q, l: x(p, 1) * x(q, 1) * x(l, 2))
    b12 = basis(lambda p, q, i: x(i, 1) * x(p, 2) * x(q, 2))
    m1 = [[Fraction(0)] * 18 for _ in range(9)]
    m2 = [[Fraction(0)] * 18 for _ in range(9)]
    for k in range(1, 4):
        for r in range(3):
            row = 3 * (k - 1) + r
            for m, c in (gens[r] * x(k, 1)).terms.items():
                m1[row][b21[m]] = c
            for m, c in (gens[r] * x(k, 2)).terms.items():
                m2[row][b12[m]] = c
    return m1, m2


def test_structural_matrix_matches_generated():
    rng = Random(RNG_SEED)
    for _ in range(5):
        A = random_matrix(rng, 3, 9)
        hard = collineation_matrices(A)
        assert (hard.by_first_factor, hard.by_second_factor) \
            == collineation_matrices_generated(A)


def test_minors_matrix_has_rank_eight():
    cm = collineation_matrices(minors_coeff_matrix())
    assert cm.rank_first == 8 and cm.rank_second == 8


def test_random_nets_have_full_rank():
    rng = Random(RNG_SEED + 1)
    full = 0
    for _ in range(5):
        cm = collineation_matrices(random_matrix(rng, 3, 9))
        full += cm.rank_first == 9 and cm.rank_second == 9
    assert full == 5


def test_uv_nets_drop_rank():
    rng = Random(RNG_SEED + 2)
    for _ in range(5):
        U = random_invertible(3, rng)
        V = random_invertible(3, rng)
        cm = collineation_matrices(uv_coeff_matrix(U, V))
        assert cm.rank_first <= 8 and cm.rank_second <= 8


def test_plucker_triple_count():
    assert len(plucker_triples()) == comb(9, 3) == 84


def test_plucker_zero_and_monomial_examples():
    rng = Random(RNG_SEED + 3)
    U = random_invertible(3, rng)
    V = random_invertible(3, rng)
    assert plucker_value(U, V, ((1, 1), (2, 1), (3, 1))) == 0
    lhs = plucker_value(U, V, ((1, 1), (2, 1), (3, 2)))
    rhs = _det3(_column(U, 1), _column(V, 1), _column(U, 2)) \
        * _det3(_column(V, 1), _column(U, 3), _column(V, 2))
    assert lhs == rhs


def test_plucker_classification_counts():
    rng = Random(RNG_SEED + 4)
    for _ in range(3):
        U = random_invertible(3, rng)
        V = random_invertible(3, rng)
        vals = plucker_param(U, V)
        assert plucker_classification_counts(vals) == (6, 12, 66)
        for (value, pattern) in vals.values():
            if pattern == "zero":
                assert value == 0


def test_plucker_antisymmetry():
    rng = Random(RNG_SEED + 5)
    U = random_invertible(3, rng)
    V = random_invertible(3, rng)
    for triple in plucker_triples()[::7]:
        p = plucker_value(U, V, triple)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            swapped = list(triple)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert plucker_value(U, V, tuple(swapped)) == -p


def test_plucker_values_are_the_net_minors():
    # the product-of-determinants coordinates agree with the maximal minors
    # of the induced net, up to one global sign, and so do the computed ones
    for seed in (6, 60, 61):
        rng = Random(RNG_SEED + seed)
        U = random_invertible(3, rng)
        V = random_invertible(3, rng)
        A = uv_coeff_matrix(U, V)
        values = plucker_param(U, V)
        pairs = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for triple in plucker_triples():
            cols = [pairs.index(p) for p in triple]
            sub = [[A[r][c] for c in cols] for r in range(3)]
            expect = plucker_by_products(U, V, triple)
            assert matrix_det(sub) == -expect
            assert values[triple][0] == plucker_value(U, V, triple) == expect


def test_plucker_rejects_singular_input():
    with pytest.raises(ValueError):
        plucker_param([[1, 0, 0], [0, 1, 0], [1, 1, 0]],
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_minor_types_and_dimension_identity():
    for d, n in [(2, 2), (2, 3), (3, 3)]:
        types = minor_types(d, n)
        assert all(sum(t) == d for t in types)
        total = 0
        for t in types:
            dim = 1
            for ij in t:
                dim *= comb(d, ij)
            total += dim
        assert total == comb(n * d, d)


def test_lafforgue_dims_and_identity_point():
    ident = [[1, 0], [0, 1]]
    coords = lafforgue_coordinates([ident, ident])
    assert {t: len(v) for t, v in coords.items()} == {
        (0, 2): 1, (1, 1): 4, (2, 0): 1}
    # diagonal point: the mixed minors are those of (Id | Id)
    assert coords[(2, 0)] == [1] and coords[(0, 2)] == [1]


def test_lafforgue_scaling_invariance():
    rng = Random(RNG_SEED + 7)
    mats = [random_invertible(2, rng) for _ in range(3)]
    coords = lafforgue_coordinates(mats)
    assert sum(len(v) for v in coords.values()) == comb(6, 2)
    scaled = [[[3 * x for x in row] for row in mats[0]]] + mats[1:]
    coords2 = lafforgue_coordinates(scaled)
    for itype, vec in coords.items():
        lam = 3 ** itype[0]
        assert coords2[itype] == [lam * x for x in vec]


def test_lafforgue_rejects_singular():
    with pytest.raises(ValueError):
        lafforgue_coordinates([[[1, 1], [1, 1]], [[1, 0], [0, 1]]])


def test_lafforgue_matrix_sizes():
    # 1 x 1 matrices make a valid tuple; 0 x 0 ones have no coordinates
    assert lafforgue_coordinates([[[2]], [[3]]]) == {(1, 0): [2], (0, 1): [3]}
    for mats in ([[]], [[], []]):
        with pytest.raises(ValueError, match="at least 1 x 1"):
            lafforgue_coordinates(mats)


def test_x23_matrix_shape():
    coeffs = {(1, 2): (1, 0, 0, 0), (1, 3): (0, 1, 0, 0), (2, 3): (0, 0, 1, 0)}
    m = x23_matrix(coeffs)
    assert len(m) == 6 and all(len(r) == 8 for r in m)


def test_x23_on_tree_ideals():
    for tree in enumerate_trees(3):
        coeffs = tree_ideal_coeffs(tree_to_ideal(tree))
        assert x23_cubic(coeffs) == 0
        assert rank_dense(x23_matrix(coeffs)) <= 4
        assert x23_cubic_check(coeffs)


def test_x23_on_the_diagonal():
    coeffs = {p: (0, 1, -1, 0) for p in [(1, 2), (1, 3), (2, 3)]}
    assert x23_cubic_check(coeffs)
    assert rank_dense(x23_matrix(coeffs)) == 4


def test_x23_generic_failure():
    rng = Random(RNG_SEED + 8)
    fails = 0
    for _ in range(5):
        coeffs = {p: tuple(rng.randint(1, 9) for _ in range(4))
                  for p in [(1, 2), (1, 3), (2, 3)]}
        if not x23_cubic_check(coeffs):
            fails += 1
    assert fails == 5

"""Monomial, ideal, complex and Hilbert-data unit tests.

Derived expectations are recomputed here by brute force where feasible,
independently of the library code paths.
"""

from itertools import permutations, product
from math import comb

import pytest

from hilbdiag.gridcore import (KPolynomial, Monomial, MonomialIdeal,
                               complex_to_ideal, diagonal_k_polynomial,
                               face_profile_counts, hf_at, k_polynomial,
                               monomials_of_degree, multidegree,
                               multidegree_of_ideal, pack,
                               series_equals_diagonal, stanley_reisner,
                               target_hf, unpack)
from hilbdiag import h33
from hilbdiag.borel import build_z
from hilbdiag.tangent import chain_ideal
from hilbdiag.treespace import enumerate_trees, tree_to_ideal


def vertex_mask(vars_, n):
    """Bit (i-1)*n + (j-1) for each grid variable (i, j)."""
    return sum(1 << (i - 1) * n + j - 1 for i, j in vars_)


def brute_force_facets(ideal):
    """Sorted masks of the maximal vertex sets containing no generator
    support."""
    supports = [vertex_mask((v for v, _ in g.exps), ideal.n) for g in ideal.gens]
    faces = [f for f in range(1 << ideal.d * ideal.n)
             if not any(s & ~f == 0 for s in supports)]
    return sorted(f for f in faces
                  if not any(f != g and f & ~g == 0 for g in faces))


def brute_force_hf(ideal, u):
    return sum(1 for m in monomials_of_degree(ideal.d, ideal.n, u)
               if not any(g.divides(m) for g in ideal.gens))


def test_multidegree_examples():
    assert multidegree(Monomial({(1, 1): 1, (2, 2): 1}), 2) == (1, 1)
    assert multidegree(Monomial({}), 3) == (0, 0, 0)
    assert multidegree(Monomial({(1, 1): 2, (1, 2): 1}), 2) == (2, 1)


def test_monomial_arithmetic():
    a = Monomial({(1, 1): 1})
    b = Monomial({(1, 1): 1, (2, 2): 2})
    assert a.divides(b)
    assert not b.divides(a)
    assert (a * b).exps == Monomial({(1, 1): 2, (2, 2): 2}).exps
    assert b.quotient(a) == Monomial({(2, 2): 2})
    with pytest.raises(ValueError):
        a.quotient(b)


def test_ideal_minimalizes_generators():
    gens = [Monomial({(1, 1): 1}), Monomial({(1, 1): 1, (1, 2): 1})]
    ideal = MonomialIdeal(2, 2, gens)
    assert len(ideal.gens) == 1
    assert Monomial({(1, 1): 1, (2, 2): 3}) in ideal
    assert Monomial({(2, 1): 1}) not in ideal


def test_ideal_json_roundtrip():
    z = build_z(3, 3)
    assert MonomialIdeal.from_json(z.to_json()) == z


def test_ideal_json_rejects_repeated_variable():
    with pytest.raises(ValueError, match="repeats a variable"):
        MonomialIdeal.from_json({"d": 2, "n": 2, "gens": [[[1, 1, 1], [1, 1, 2]]]})


def test_ideal_json_rejects_exponent_below_one():
    # an exponent of 0 would silently turn the generator into 1
    for e in (0, -2):
        with pytest.raises(ValueError, match="exponent below 1"):
            MonomialIdeal.from_json({"d": 2, "n": 2, "gens": [[[1, 1, e]]]})
    with pytest.raises(ValueError, match=r"\[\[2, 1, 1\], \[1, 2, 0\]\]"):
        MonomialIdeal.from_json(
            {"d": 2, "n": 2, "gens": [[[1, 1, 1]], [[2, 1, 1], [1, 2, 0]]]})


def test_pack_layout():
    # width 1: grid variable (i, j) is vertex (i-1)*n + (j-1)
    assert pack(Monomial.variable(2, 3), 3, 1) == 1 << 5
    assert pack(Monomial({(1, 1): 1, (2, 2): 1}), 2, 1) == 0b1001
    m = Monomial({(1, 2): 3, (3, 1): 9, (2, 2): 1})
    assert pack(m, 2, 5) == 3 << 5 | 1 << 15 | 9 << 20
    for width in (4, 5, 8):
        assert unpack(pack(m, 2, width), 2, width) == m
    assert unpack(0, 2, 1) == Monomial({})


def test_stanley_reisner_z22():
    assert stanley_reisner(build_z(2, 2)) == (
        vertex_mask([(1, 1), (2, 1), (2, 2)], 2),
        vertex_mask([(1, 2), (2, 1), (2, 2)], 2))


def test_stanley_reisner_zero_ideal():
    assert stanley_reisner(MonomialIdeal(1, 2, [])) == (0b11,)


def test_stanley_reisner_z23():
    facets = stanley_reisner(build_z(2, 3))
    assert len(facets) == 3
    for f in facets:
        # each facet keeps one top-row variable
        assert (f & vertex_mask([(1, 1), (1, 2), (1, 3)], 3)).bit_count() == 1


@pytest.mark.parametrize("ideal", [
    build_z(2, 2), build_z(2, 3), build_z(3, 3),
    chain_ideal(2, 3), chain_ideal(3, 3),
    MonomialIdeal(2, 2, []),
])
def test_facets_match_brute_force(ideal):
    assert list(stanley_reisner(ideal)) == brute_force_facets(ideal)


def test_stanley_reisner_rejects_non_squarefree():
    with pytest.raises(ValueError):
        stanley_reisner(MonomialIdeal(2, 2, [Monomial({(1, 1): 2})]))


def test_complex_ideal_roundtrip():
    for ideal in (build_z(2, 3), build_z(3, 3), chain_ideal(3, 3)):
        facets = stanley_reisner(ideal)
        assert complex_to_ideal(facets, ideal.d, ideal.n) == ideal


def test_complex_drops_non_maximal_facets():
    # the edge {x1, x2} with its vertex x1 listed too spans no non-face
    assert complex_to_ideal([0b01, 0b11], 1, 2) == MonomialIdeal(1, 2, [])
    for ideal in (build_z(2, 3), build_z(3, 3), chain_ideal(3, 3)):
        facets = list(stanley_reisner(ideal))
        f = facets[-1]
        # f without its lowest vertex, f without its highest, the empty face
        extra = [f & (f - 1), f ^ 1 << f.bit_length() - 1, 0]
        assert complex_to_ideal(facets + extra, ideal.d, ideal.n) == ideal


def test_multidegree_of_ideal_examples():
    assert multidegree_of_ideal(build_z(2, 2)) == KPolynomial(
        2, {(1, 0): 1, (0, 1): 1})
    md33 = multidegree_of_ideal(build_z(3, 3))
    assert md33.terms == {u: 1 for u in product(range(3), repeat=3)
                          if sum(u) == 4}
    assert multidegree_of_ideal(MonomialIdeal(2, 2, [])) == KPolynomial(
        2, {(0, 0): 1})


def test_k_polynomial_examples():
    for d, n in [(1, 1), (2, 3), (3, 2)]:
        # S/0 = S has numerator 1
        assert k_polynomial(MonomialIdeal(d, n, [])) == KPolynomial(
            n, {(0,) * n: 1})
        # the unit ideal has the void complex, with no face at all: S/S = 0
        assert k_polynomial(MonomialIdeal(d, n, [Monomial({})])) == KPolynomial(n)
    kp = k_polynomial(MonomialIdeal(2, 2, [Monomial({(1, 1): 1, (1, 2): 1})]))
    assert kp == KPolynomial(2, {(0, 0): 1, (1, 1): -1})
    # two ideals of the same scheme share the K-polynomial
    assert k_polynomial(build_z(2, 3)) == k_polynomial(chain_ideal(2, 3))


def reference_profiles(ideal):
    """The number of faces of each column profile c, by listing every face."""
    d, n = ideal.d, ideal.n
    faces = set()
    for facet in stanley_reisner(ideal):
        face = facet
        while face:
            faces.add(face)
            face = (face - 1) & facet
        faces.add(0)
    cols = [vertex_mask([(i, j) for i in range(1, d + 1)], n)
            for j in range(1, n + 1)]
    profiles = {}
    for face in faces:
        c = tuple((face & m).bit_count() for m in cols)
        profiles[c] = profiles.get(c, 0) + 1
    return profiles


def reference_k_polynomial(d, n, profiles):
    """K-polynomial by expanding prod_j t_j^c_j (1-t_j)^(d-c_j) term by
    term for every column profile c of the faces."""
    terms = {}
    for c, cnt in profiles.items():
        for w in product(*[range(cj, d + 1) for cj in c]):
            coeff = cnt
            for cj, wj in zip(c, w):
                coeff *= (-1) ** (wj - cj) * comb(d - cj, wj - cj)
            terms[w] = terms.get(w, 0) + coeff
    return KPolynomial(n, terms)


ORACLE_IDEALS = {
    "census": lambda: [h33.complex_to_ideal(cx)
                       for cx in h33.enumerate_h33()[::7]],
    "build_z": lambda: [build_z(d, n) for d in range(1, 6)
                        for n in range(1, 6)],
    "trees": lambda: [tree_to_ideal(t) for n in range(1, 5)
                      for t in enumerate_trees(n)],
    "zero_and_unit": lambda: [MonomialIdeal(d, n, gens) for d, n in
                              [(1, 1), (2, 3), (3, 2)]
                              for gens in ([], [Monomial({})])],
}


@pytest.mark.parametrize("family", sorted(ORACLE_IDEALS))
def test_k_polynomial_matches_reference(family):
    for ideal in ORACLE_IDEALS[family]():
        kpoly = k_polynomial(ideal)
        profiles = reference_profiles(ideal)
        assert kpoly == reference_k_polynomial(ideal.d, ideal.n, profiles), ideal
        # and the inverse transform gives the face counts back
        assert face_profile_counts(kpoly, ideal.d) == {
            c: profiles.get(c, 0)
            for c in product(range(ideal.d + 1), repeat=ideal.n)}, ideal


def test_hf_at_examples():
    assert hf_at(build_z(2, 2), (1, 1)) == 3
    assert hf_at(build_z(3, 3), (0, 0, 0)) == 1
    assert hf_at(build_z(3, 3), (1, 1, 0)) == 6


def test_hf_at_brute_force_agreement():
    for ideal in (build_z(2, 3), chain_ideal(3, 2)):
        for u in product(range(3), repeat=ideal.n):
            assert hf_at(ideal, u) == brute_force_hf(ideal, u)


def test_hf_at_non_squarefree():
    ideal = MonomialIdeal(2, 2, [Monomial({(1, 1): 2})])
    assert hf_at(ideal, (2, 0)) == brute_force_hf(ideal, (2, 0)) == 2


@pytest.mark.parametrize("ideal,u,want", [
    # degrees beyond every generator exponent: the packed fields must hold u
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 9})]), (12, 1), 18),
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 9})]), (20, 1), 18),
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 3, (2, 2): 1})]), (5, 2), 12),
    (MonomialIdeal(1, 1, []), (2,), 1),
    (MonomialIdeal(3, 2, []), (4, 1), 45),
    (build_z(2, 3), (2, 3, 1), 7),
    (MonomialIdeal(2, 2, [Monomial({})]), (0, 0), 0),
])
def test_hf_at_beyond_generator_exponents(ideal, u, want):
    assert hf_at(ideal, u) == brute_force_hf(ideal, u) == want


def test_hf_at_matches_brute_force_on_random_ideals():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        d = data.draw(st.integers(1, 3), label="d")
        n = data.draw(st.integers(1, 3), label="n")
        exps = st.dictionaries(
            st.tuples(st.integers(1, d), st.integers(1, n)),
            st.integers(0, 5), max_size=d * n)
        gens = data.draw(st.lists(exps, max_size=6), label="gens")
        ideal = MonomialIdeal(d, n, [Monomial(e) for e in gens])
        u = data.draw(st.tuples(*[st.integers(0, 7)] * n), label="u")
        assert hf_at(ideal, u) == brute_force_hf(ideal, u)

    check()


def test_target_hf_examples():
    assert target_hf(2, (1, 1, 1)) == 4
    assert target_hf(3, (0, 0, 0)) == 1
    assert target_hf(3, (2, 2, 2)) == 28


def test_series_equals_diagonal_examples():
    assert series_equals_diagonal(build_z(2, 3))
    assert series_equals_diagonal(chain_ideal(3, 3))
    assert not series_equals_diagonal(
        MonomialIdeal(2, 2, [Monomial({(1, 1): 1})]))


def series_coefficient(kp, d, u):
    """Coefficient of t^u in kp / prod_j (1 - t_j)^d."""
    total = 0
    for v, c in kp.terms.items():
        if all(vj <= uj for vj, uj in zip(v, u)):
            w = 1
            for vj, uj in zip(v, u):
                w *= comb(uj - vj + d - 1, d - 1)
            total += c * w
    return total


@pytest.mark.parametrize("ideal", [
    build_z(2, 2), build_z(3, 3), build_z(2, 4),
    chain_ideal(2, 3), chain_ideal(3, 3),
    build_z(4, 2), build_z(4, 3),
])
def test_series_expansion_matches_hf(ideal):
    kp = k_polynomial(ideal)
    for u in product(range(4), repeat=ideal.n):
        if sum(u) > 6:
            continue
        assert series_coefficient(kp, ideal.d, u) == hf_at(ideal, u)


def test_diagonal_k_polynomial_matches_z():
    for d, n in [(2, 2), (2, 3), (3, 3), (4, 3)]:
        assert diagonal_k_polynomial(d, n) == k_polynomial(build_z(d, n))


def test_diagonal_k_polynomial_is_column_symmetric():
    # relabeling the columns fixes the scheme, hence its K-polynomial
    for d in range(1, 4):
        for n in range(1, 4):
            kp = diagonal_k_polynomial(d, n)
            for perm in permutations(range(n)):
                moved = {tuple(u[perm[j]] for j in range(n)): c
                         for u, c in kp.terms.items()}
                assert moved == kp.terms


def test_k_polynomial_json_roundtrip():
    kp = k_polynomial(build_z(2, 3))
    data = kp.to_json()
    assert [t["u"] for t in data] == sorted(list(u) for u in kp.terms)
    assert {tuple(t["u"]): t["c"] for t in data} == kp.terms

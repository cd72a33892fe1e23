"""Tangent-space dimensions and the explicit chain-ideal basis."""

from itertools import combinations
from random import Random

import pytest

from hilbdiag.borel import build_z
from hilbdiag.gridcore import (Monomial, MonomialIdeal, Packing,
                               monomials_of_degree, multidegree)
from hilbdiag.h33 import complex_to_ideal, enumerate_h33, symmetry_classes
from hilbdiag.tangent import (GradedHom, chain_basis, chain_ideal,
                              syzygy_system, tangent_dimension, verify_basis)
from hilbdiag.treespace import enumerate_trees, tree_to_ideal


def standard_monomials(ideal, u):
    """The standard monomials of degree u as `syzygy_system` finds them."""
    return Packing(ideal, max(u, default=0)).standard(u)[0]


def _lcm(g, h):
    exps = dict(g.exps)
    for v, e in h.exps:
        exps[v] = max(exps.get(v, 0), e)
    return Monomial(exps)


def _standard_monomials_reference(ideal, u):
    """Monomials of multidegree u outside the ideal, sorted."""
    return sorted(m for m in monomials_of_degree(ideal.d, ideal.n, u)
                  if m not in ideal)


def _syzygy_system_reference(ideal):
    """The Monomial-based builder that `syzygy_system` replaced."""
    n = ideal.n
    gens = list(ideal.gens)
    basis = {g: _standard_monomials_reference(ideal, multidegree(g, n))
             for g in gens}
    index = {}
    for g in gens:
        for m in basis[g]:
            index[(g, m)] = len(index)
    rows = []
    for g, h in combinations(gens, 2):
        L = _lcm(g, h)
        lg, lh = L.quotient(g), L.quotient(h)
        # coefficient of the monomial w in (L/g) phi(g) - (L/h) phi(h);
        # the lift m -> (L/g) m is injective, so each w sees at most one
        # unknown from each side
        byw = {}
        for m in basis[g]:
            byw.setdefault(lg * m, {})[index[(g, m)]] = 1
        for m in basis[h]:
            w = lh * m
            row = byw.setdefault(w, {})
            row[index[(h, m)]] = row.get(index[(h, m)], 0) - 1
        for w, row in byw.items():
            if w in ideal:
                continue  # that coefficient is already zero in the quotient
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return index, rows


def _assert_same_system(ideal):
    """Same unknowns with the same numbers, same rows in the same order,
    each row's entries in the same order."""
    index, rows = syzygy_system(ideal)
    ref_index, ref_rows = _syzygy_system_reference(ideal)
    assert list(index.items()) == list(ref_index.items()), ideal
    assert [list(r.items()) for r in rows] == \
        [list(r.items()) for r in ref_rows], ideal


def _trees(n):
    return [tree_to_ideal(t) for t in enumerate_trees(n)]


def test_syzygy_system_matches_reference_on_small_trees():
    ideals = [I for n in (2, 3, 4) for I in _trees(n)]
    assert len(ideals) == 436
    for ideal in ideals:
        _assert_same_system(ideal)


def test_syzygy_system_matches_reference_on_sampled_n5_trees():
    for ideal in Random(5).sample(_trees(5), 300):
        _assert_same_system(ideal)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_syzygy_system_matches_reference_on_chain_ideals(d, n):
    _assert_same_system(chain_ideal(d, n))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_syzygy_system_matches_reference_on_z(d, n):
    _assert_same_system(build_z(d, n))


def test_syzygy_system_matches_reference_on_census_classes():
    classes = symmetry_classes(enumerate_h33())
    assert len(classes) == 16
    for c in classes:
        _assert_same_system(complex_to_ideal(c.representative))


def test_syzygy_system_matches_reference_on_non_squarefree_ideals():
    m = Monomial
    ideals = [
        # an exponent of 9 needs four value bits; lifts reach 2 * 10 = 20
        MonomialIdeal(2, 2, [m({(1, 1): 9, (2, 2): 1}),
                             m({(1, 2): 2, (2, 1): 1}),
                             m({(1, 1): 1, (1, 2): 1, (2, 2): 3})]),
        MonomialIdeal(2, 2, [m({(1, 1): 9, (2, 2): 1}),
                             m({(2, 1): 1, (1, 2): 1})]),
        MonomialIdeal(3, 2, [m({(1, 1): 2}), m({(2, 1): 1, (3, 2): 2}),
                             m({(1, 2): 1, (2, 2): 1, (3, 1): 1})]),
        MonomialIdeal(2, 3, [m({(1, 1): 4, (2, 3): 4}), m({(2, 1): 7}),
                             m({(1, 2): 3, (2, 2): 5})]),
        MonomialIdeal(2, 2, []),
        MonomialIdeal(2, 2, [m({})]),
    ]
    for ideal in ideals:
        _assert_same_system(ideal)


def test_syzygy_system_matches_reference_on_random_ideals():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        d = data.draw(st.integers(1, 3), label="d")
        n = data.draw(st.integers(1, 3), label="n")
        exps = st.dictionaries(
            st.tuples(st.integers(1, d), st.integers(1, n)),
            st.integers(0, 4), max_size=d * n)
        gens = data.draw(st.lists(exps, max_size=6), label="gens")
        ideal = MonomialIdeal(d, n, [Monomial(e) for e in gens])
        _assert_same_system(ideal)
        u = data.draw(st.tuples(*[st.integers(0, 3)] * n), label="u")
        assert standard_monomials(ideal, u) == \
            _standard_monomials_reference(ideal, u)

    check()


@pytest.mark.parametrize("ideal,u", [
    # degrees beyond every generator exponent: the packed fields must hold u
    (MonomialIdeal(1, 1, []), (2,)),
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 9})]), (12, 1)),
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 9})]), (20, 1)),
    (MonomialIdeal(2, 2, [Monomial({(1, 1): 3, (2, 2): 1})]), (5, 2)),
    (build_z(2, 3), (2, 3, 1)),
])
def test_standard_monomials_beyond_generator_exponents(ideal, u):
    assert standard_monomials(ideal, u) == \
        _standard_monomials_reference(ideal, u)


def test_chain_ideal_examples():
    x = Monomial.variable
    assert chain_ideal(2, 3) == MonomialIdeal(2, 3, [
        x(1, 1) * x(2, 2), x(1, 1) * x(2, 3), x(1, 2) * x(2, 3)])
    assert chain_ideal(2, 2) == MonomialIdeal(2, 2, [x(1, 1) * x(2, 2)])
    assert len(chain_ideal(3, 3).gens) == 9


def test_standard_monomials():
    M = chain_ideal(2, 2)
    basis = standard_monomials(M, (1, 1))
    assert len(basis) == 3
    assert Monomial({(1, 1): 1, (2, 2): 1}) not in basis


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_chain_tangent_dimension(d, n):
    assert tangent_dimension(chain_ideal(d, n)) == (d * d - 1) * (n - 1)


def test_single_generator_ideal():
    ideal = MonomialIdeal(2, 2, [Monomial({(1, 1): 1, (1, 2): 1})])
    assert tangent_dimension(ideal) == 3


def test_star_tangent_dimension():
    # the all-out star: n(n-1) once the center has degree at least three
    for n in (3, 4, 5):
        assert tangent_dimension(build_z(2, n)) == n * (n - 1)
    # at n=2 the star is a two-edge path, a smooth point
    assert tangent_dimension(build_z(2, 2)) == 3


def test_z33_tangent_dimension():
    assert tangent_dimension(build_z(3, 3)) == 18


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_chain_basis_counts_and_verification(d, n):
    maps = chain_basis(d, n)
    assert len(maps) == (d * d - 1) * (n - 1)
    assert verify_basis(chain_ideal(d, n), maps)


def test_chain_basis_33_class_counts():
    maps = chain_basis(3, 3)
    sizes = sorted(len(h.images) for h in maps)
    # 4 swaps move one generator; 12 shifts move up to (j-i)(l-1) generators
    assert len(maps) == 16
    assert sizes.count(1) >= 4


def test_verify_basis_rejects_wrong_sets():
    M = chain_ideal(2, 2)
    maps = chain_basis(2, 2)
    # dropping a map breaks spanning
    assert not verify_basis(M, maps[:-1])
    # a duplicate breaks independence
    assert not verify_basis(M, maps + [maps[0]])
    # an image inside the ideal is not allowed
    g = M.gens[0]
    bad = GradedHom({g: {g: 1}})
    assert not verify_basis(M, maps[:-1] + [bad])


def test_verify_basis_empty_only_for_rigid():
    ideal = MonomialIdeal(2, 2, [Monomial({(1, 1): 1, (1, 2): 1})])
    assert not verify_basis(ideal, [])  # tangent dimension is 3, not 0

"""The distinguished ideal: primes, intersection, shelling, h-polynomial."""

from itertools import product
from math import comb, factorial
from random import Random

import pytest

from hilbdiag import borel
from hilbdiag.borel import (ShellingError, act, build_z, facet_of,
                            h_closed_form, is_borel_fixed, monomial_points,
                            shelling, shelling_h_polynomial,
                            shelling_order_check, symmetry_group, u_set,
                            z_generators_direct)
from hilbdiag.gridcore import (KPolynomial, Monomial, MonomialIdeal,
                               _column_masks, complex_to_ideal,
                               diagonal_k_polynomial, face_profile_counts,
                               hf_at, series_equals_diagonal, stanley_reisner,
                               target_hf, unpack)
from hilbdiag.treespace import enumerate_trees, tree_to_ideal


def z_u(d, n, u):
    """The coordinate prime of u: the variables off the facet F_u."""
    off = ~facet_of(d, n, u) & (1 << d * n) - 1
    return MonomialIdeal(d, n, [Monomial({v: 1})
                                for v, _ in unpack(off, n, 1).exps])


def test_u_set_examples():
    assert u_set(2, 3) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert u_set(1, 4) == [(0, 0, 0, 0)]
    assert len(u_set(3, 3)) == 6


def test_u_set_counts():
    for d in range(1, 6):
        for n in range(1, 6):
            assert len(u_set(d, n)) == comb(d + n - 2, d - 1)


def test_z_u_examples():
    assert z_u(2, 3, (0, 1, 1)) == MonomialIdeal(
        2, 3, [Monomial.variable(1, 2), Monomial.variable(1, 3)])
    assert z_u(1, 1, (0,)) == MonomialIdeal(1, 1, [])
    assert z_u(3, 3, (1, 1, 2)) == MonomialIdeal(
        3, 3, [Monomial.variable(1, 1), Monomial.variable(1, 2),
               Monomial.variable(1, 3), Monomial.variable(2, 3)])


def test_z_u_rejects_bad_vector():
    assert (1, 1, 1) not in u_set(2, 3)


def test_z_u_codimension():
    for d, n in [(2, 3), (3, 3), (4, 2)]:
        for u in u_set(d, n):
            assert len(z_u(d, n, u).gens) == (n - 1) * (d - 1)


def test_build_z_examples():
    x = Monomial.variable
    assert build_z(2, 3) == MonomialIdeal(2, 3, [
        x(1, 1) * x(1, 2), x(1, 1) * x(1, 3), x(1, 2) * x(1, 3)])
    assert build_z(2, 2) == MonomialIdeal(2, 2, [x(1, 1) * x(1, 2)])
    z33 = build_z(3, 3)
    assert len(z33.gens) == 10
    cubic = [g for g in z33.gens if g.total_degree == 3]
    assert cubic == [Monomial({(2, 1): 1, (2, 2): 1, (2, 3): 1})]


def test_build_z_is_intersection_of_primes():
    # membership in every coordinate prime, checked on the generators
    for d, n in [(2, 3), (3, 3), (3, 4)]:
        z = build_z(d, n)
        for u in u_set(d, n):
            prime = z_u(d, n, u)
            assert all(any(v.divides(g) for v in prime.gens) for g in z.gens)


def test_direct_description_degenerate_sizes():
    assert z_generators_direct(1, 4).is_zero()
    assert z_generators_direct(3, 1).is_zero()


def test_two_routes_agree():
    for d in range(1, 6):
        for n in range(1, 6):
            assert build_z(d, n) == z_generators_direct(d, n)


def test_generator_degree_bound():
    for d in range(2, 6):
        for n in range(2, 6):
            assert max(g.total_degree for g in build_z(d, n).gens) == min(d, n)


def test_z_is_squarefree_and_borel_fixed():
    for d in range(1, 6):
        for n in range(1, 6):
            z = build_z(d, n)
            assert z.is_squarefree()
            assert is_borel_fixed(z)


def test_chain_is_not_borel_fixed():
    from hilbdiag.tangent import chain_ideal
    assert not is_borel_fixed(chain_ideal(2, 3))


def _vertex_mask(vars_, n):
    return sum(1 << (i - 1) * n + j - 1 for i, j in vars_)


def _brute_force_facets(ideal):
    """Maximal vertex masks containing no generator support."""
    supports = [_vertex_mask((v for v, _ in g.exps), ideal.n) for g in ideal.gens]
    faces = [f for f in range(1 << ideal.d * ideal.n)
             if not any(s & ~f == 0 for s in supports)]
    return {f for f in faces if not any(f != g and f & ~g == 0 for g in faces)}


def test_facets_are_prime_complements():
    for d, n in [(2, 3), (3, 3), (4, 4)]:
        facets = {facet_of(d, n, u) for u in u_set(d, n)}
        assert set(stanley_reisner(build_z(d, n))) == facets
        if d * n <= 9:
            assert _brute_force_facets(build_z(d, n)) == facets


def test_shelling_22():
    steps = shelling(2, 2)
    assert [s.u for s in steps] == [(0, 1), (1, 0)]
    assert steps[0].eta == 0
    assert steps[1].eta == _vertex_mask([(1, 2)], 2)


def test_shelling_d1():
    steps = shelling(1, 3)
    assert len(steps) == 1
    assert steps[0].eta == 0


def test_shelling_and_h_polynomial():
    for d in range(1, 6):
        for n in range(1, 6):
            steps = shelling(d, n)
            assert shelling_h_polynomial(steps) == h_closed_form(d, n)


def test_shelling_checker_rejects_bad_order():
    with pytest.raises(ShellingError):
        shelling_order_check([0b00110, 0b11000])


def test_shelling_checker_on_arbitrary_pure_complex():
    # boundary of a square: four edges, shellable in the walk order
    facets = [0b00110, 0b01100, 0b11000, 0b10010]
    etas = shelling_order_check(facets)
    assert [e.bit_count() for e in etas] == [0, 1, 1, 2]


def minimal_new_faces(facet: frozenset, earlier) -> list:
    """Minimal faces of `facet` not contained in any earlier facet."""
    fl = sorted(facet)
    k = len(fl)
    old = bytearray(1 << k)
    pos = {v: b for b, v in enumerate(fl)}
    for g in earlier:
        inter = 0
        for v in facet & g:
            inter |= 1 << pos[v]
        # mark every subset of the intersection as an old face
        sub = inter
        while True:
            old[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & inter
    minimal = []
    for mask in range(1 << k):
        if old[mask]:
            continue
        # new face; is every maximal proper subface old?
        mfree = True
        m = mask
        while m:
            b = m & -m
            if not old[mask ^ b]:
                mfree = False
                break
            m ^= b
        if mfree:
            minimal.append(frozenset(fl[b] for b in range(k) if mask >> b & 1))
    return minimal


def _vertices(mask):
    return frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)


def _reference_check(facets):
    """(etas, None) from the subset-marking reference, or (None, the
    message of the first facet without a unique minimal new face)."""
    sets = [_vertices(f) for f in facets]
    etas = []
    for k, f in enumerate(sets):
        mins = minimal_new_faces(f, sets[:k])
        if len(mins) != 1:
            return None, "facet %d has %d minimal new faces" % (k, len(mins))
        etas.append(sum(1 << b for b in mins[0]))
    return etas, None


def _agrees_with_reference(facets):
    etas, message = _reference_check(facets)
    if etas is not None:
        assert shelling_order_check(facets) == etas
    else:
        with pytest.raises(ShellingError) as exc:
            shelling_order_check(facets)
        assert str(exc.value) == message
    return etas is not None


def test_shelling_check_matches_reference_on_z():
    rng = Random(3)
    orders = shellings = 0
    for d in range(1, 6):
        for n in range(1, 6):
            facets = [facet_of(d, n, u) for u in u_set(d, n)]
            assert _agrees_with_reference(facets)
            # other orders of the same facets, shellings or not
            for _ in range(3):
                rng.shuffle(facets)
                orders += 1
                shellings += _agrees_with_reference(facets)
    assert 0 < shellings < orders


def test_shelling_check_matches_reference_on_random_facets():
    rng = Random(12)
    shellable = 0
    for trial in range(400):
        vertices = rng.randint(1, 7)
        size = rng.randint(1, vertices)
        count = rng.randint(1, 6)
        facets = [sum(1 << b for b in rng.sample(range(vertices), size))
                  for _ in range(count)]
        if trial % 3 == 0:  # not pure, and possibly repeated
            facets.append(rng.randrange(1 << vertices))
        shellable += _agrees_with_reference(facets)
    assert 50 < shellable < 350


def test_h_closed_form_examples():
    assert h_closed_form(3, 3) == (1, 4, 1)
    assert h_closed_form(1, 5) == (1,)
    assert h_closed_form(4, 1) == (1,)
    assert h_closed_form(2, 4) == (1, 3)


def test_h_at_one_is_scalar_degree():
    for d in range(1, 6):
        for n in range(1, 6):
            assert sum(h_closed_form(d, n)) == comb(n + d - 2, d - 1)


def test_series_and_hilbert_function_of_z():
    for d, n in [(2, 2), (2, 3), (3, 3)]:
        z = build_z(d, n)
        assert series_equals_diagonal(z)
        for u in [(0,) * n, (1,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)]:
            assert hf_at(z, u) == target_hf(d, u)


# ---------------------------------------------------------------------------
# the monomial points of H_{d,n}

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monomial_points_at_d2_are_the_tree_ideals(n):
    ideals = [complex_to_ideal(facets, 2, n) for facets in monomial_points(2, n)]
    assert len(set(ideals)) == len(ideals)
    assert set(ideals) == {tree_to_ideal(t) for t in enumerate_trees(n)}


@pytest.mark.parametrize("d,n,count", [
    *[(2, n, 2 ** n * (n + 1) ** (n - 2)) for n in range(2, 6)],
    *[(d, 2, factorial(d) ** 2) for d in (1, 3, 4, 5)]])
def test_monomial_point_counts(d, n, count):
    assert len(monomial_points(d, n)) == count


def _check_points(d, n, points):
    """One facet per type, with the facet of type u taking d - u_j rows of
    column j, and the diagonal's Hilbert series."""
    cols = _column_masks(d, n)
    shapes = [[d - uj for uj in u] for u in u_set(d, n)]
    for facets in points:
        assert [[(f & c).bit_count() for c in cols] for f in facets] == shapes
        assert series_equals_diagonal(complex_to_ideal(facets, d, n)), facets


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)])
def test_monomial_points_have_the_diagonal_series(d, n):
    _check_points(d, n, monomial_points(d, n))


@pytest.mark.parametrize("d,n", [(2, 5), (5, 2)])
def test_sampled_monomial_points_have_the_diagonal_series(d, n):
    _check_points(d, n, Random(26).sample(monomial_points(d, n), 300))


def _one_more_face(kpoly, d, profile, shift):
    """kpoly plus shift times the K-polynomial of one face with the given
    column profile, prod_j t_j^c_j (1-t_j)^(d-c_j)."""
    terms = dict(kpoly.terms)
    for w in product(*[range(c, d + 1) for c in profile]):
        coeff = shift
        for c, wj in zip(profile, w):
            coeff *= (-1) ** (wj - c) * comb(d - c, wj - c)
        terms[w] = terms.get(w, 0) + coeff
    return KPolynomial(len(profile), terms)


@pytest.mark.parametrize("profile,shift", [((1, 1, 1), 1), ((1, 1, 1), -1),
                                           ((1, 2, 1), 1), ((2, 1, 1), -1)])
def test_a_wrong_face_count_target_changes_the_points(monkeypatch, profile,
                                                       shift):
    right = monomial_points(3, 3)
    kpoly = diagonal_k_polynomial(3, 3)
    wrong = _one_more_face(kpoly, 3, profile, shift)
    before = face_profile_counts(kpoly, 3)
    moved = {c: f - before[c] for c, f in face_profile_counts(wrong, 3).items()
             if f != before[c]}
    assert moved == {profile: shift}
    monkeypatch.setattr(borel, "diagonal_k_polynomial", lambda d, n: wrong)
    assert monomial_points(3, 3) != right


# ---------------------------------------------------------------------------
# the relabeling group (S_d)^n x| S_n

@pytest.mark.parametrize("d,n", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3),
                                 (3, 2), (2, 4), (3, 3)])
def test_symmetry_group_order(d, n):
    group = symmetry_group(d, n)
    assert len(group) == len(set(group)) == factorial(n) * factorial(d) ** n


def _orbit_count(points, d, n):
    group = symmetry_group(d, n)
    unseen = set(points)
    count = 0
    while unseen:
        cx = unseen.pop()
        orbit = {act(cx, g, d, n) for g in group}
        assert orbit <= set(points)
        unseen -= orbit
        count += 1
    return count


@pytest.mark.parametrize("n,orbits", [(2, 1), (3, 2), (4, 3), (5, 6)])
def test_orbits_at_d2_are_the_unlabelled_trees(n, orbits):
    # the trees on n + 1 vertices: a point at d = 2 is a tree with n
    # labelled directed edges, and the group relabels and reverses them
    assert _orbit_count(monomial_points(2, n), 2, n) == orbits


def _random_point(rng, d, n):
    """A facet of each type u, d - u_j random rows of column j: a complex
    with the slot shapes, not in general a monomial point."""
    return tuple(sum(1 << i * n + j for j, uj in enumerate(u)
                     for i in rng.sample(range(d), d - uj))
                 for u in u_set(d, n))


def _renamed(ideal, g, d, n):
    """The ideal with grid variable (a+1, j+1) renamed (rhos[j][a]+1, pi[j]+1)."""
    pi, rhos = g
    return MonomialIdeal(d, n, [
        Monomial({(rhos[j - 1][i - 1] + 1, pi[j - 1] + 1): e for (i, j), e in m.exps})
        for m in ideal.gens])


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3)])
def test_action_renames_the_ideal_variables(d, n):
    rng = Random(27)
    cols = _column_masks(d, n)
    shapes = [[d - uj for uj in u] for u in u_set(d, n)]
    for _ in range(40):
        cx = _random_point(rng, d, n)
        # drawn directly: (4,3)'s group has 82944 elements
        g = (tuple(rng.sample(range(n), n)),
             tuple(tuple(rng.sample(range(d), d)) for _ in range(n)))
        image = act(cx, g, d, n)
        assert [[(f & c).bit_count() for c in cols] for f in image] == shapes
        assert complex_to_ideal(image, d, n) == _renamed(
            complex_to_ideal(cx, d, n), g, d, n)

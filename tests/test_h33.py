"""The census of monomial ideals on the 3 x 3 grid."""

from functools import reduce
from itertools import product
from operator import and_, or_
from random import Random

import pytest

from hilbdiag.borel import build_z, product_cells
from hilbdiag.gridcore import (Monomial, MonomialIdeal, series_equals_diagonal,
                               stanley_reisner)
from hilbdiag.h33 import (CANDIDATE_SPACE, EXPECTED_CLASS_DATA, CellComplex233,
                          TYPES, _COLUMNS, _type, act, complex_to_ideal,
                          cubic_family_ideal, enumerate_h33,
                          hilbert_function_check, rep_ideal_extra13,
                          rep_ideal_extra14, symmetry_classes, symmetry_group,
                          table1_report)
from hilbdiag.tangent import chain_ideal


def cells_of_type(t):
    """The grid masks of all product cells of type t, in key order."""
    # a column's row subsets of one size, in increasing mask order
    factors = [[m for m in range(1 << 9) if m & ~c == 0 and m.bit_count() == tj + 1]
               for c, tj in zip(_COLUMNS, t)]
    return [a | b | c for a, b, c in product(*factors)]


@pytest.fixture(scope="module")
def census_ideals():
    """The ideal of every census complex, in census order, built once."""
    return [complex_to_ideal(cx) for cx in enumerate_h33()]


def test_candidate_space_size():
    assert CANDIDATE_SPACE == 14348907
    sizes = [len(cells_of_type(t)) for t in TYPES]
    assert sizes == [9, 9, 9, 27, 27, 27]


def test_census_count():
    assert len(enumerate_h33()) == 13824


def _grid_mask_faces(cell, dim):
    """The dim-dimensional faces of a cell, one bit per grid mask."""
    out = 0
    sub = cell
    while sub:
        if sub.bit_count() == dim + 3 and all(sub & c for c in _COLUMNS):
            out |= 1 << sub
        sub = (sub - 1) & cell
    return out


def _enumerate_reference():
    """The census by a recursive scan over closures kept one bit per grid
    mask, with the same pruning and every complex checked."""
    slot_data = [[(cell, _grid_mask_faces(cell, 0), _grid_mask_faces(cell, 1))
                  for cell in cells_of_type(t)] for t in TYPES]
    most = [3, 3, 3, 4, 4, 4]
    suffix = [sum(most[k:]) for k in range(7)]
    found = []

    def walk(level, vmask, emask, cells):
        if level == 6:
            found.append(CellComplex233(cells))
            return
        rest = suffix[level + 1]
        for cell, vm, em in slot_data[level]:
            nv = vmask | vm
            ne = emask | em
            if 10 - rest <= nv.bit_count() <= 10 and 15 - rest <= ne.bit_count() <= 15:
                walk(level + 1, nv, ne, cells + (cell,))

    walk(0, 0, 0, ())
    return tuple(found)


def test_census_matches_reference_scan_in_order():
    assert _enumerate_reference() == enumerate_h33()


def test_dense_faces_renumber_the_grid_mask_faces():
    for dim, types in ((0, [(0, 0, 0)]), (1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])):
        faces = [f for t in types for f in cells_of_type(t)]
        bit = {f: product_cells(f, 3, 3)[dim] for f in faces}
        # one bit each, all distinct and dense: a renumbering of the faces
        assert all(b.bit_count() == 1 for b in bit.values())
        assert len(set(bit.values())) == len(faces) == (27, 81)[dim]
        assert max(bit.values()) < 1 << len(faces)
        for t in TYPES:
            for cell in cells_of_type(t):
                grid = _grid_mask_faces(cell, dim)
                assert product_cells(cell, 3, 3)[dim] == reduce(
                    or_, (bit[f] for f in faces if grid >> f & 1), 0)


def _closure(cx, dim):
    """The dim-dimensional cells of the closure, one bit per face."""
    return reduce(or_, (product_cells(cell, 3, 3)[dim] for cell in cx.cells))


def test_census_closure_counts():
    for cx in enumerate_h33()[::500]:
        v, e = _closure(cx, 0).bit_count(), _closure(cx, 1).bit_count()
        assert (v, e) == (10, 15)
        # Euler characteristic forced by the counts
        assert v - e + 6 == 1


def squares_share_point(cx) -> bool:
    """The three cells of type (1, 1, 0) up to order have a common 0-cell."""
    return reduce(and_, (product_cells(cell, 3, 3)[0] for cell in cx.cells[3:])) != 0


def test_squares_share_a_common_point():
    assert all(squares_share_point(cx) for cx in enumerate_h33())


def test_complex_to_ideal_facets():
    for cx in enumerate_h33()[::1000]:
        ideal = complex_to_ideal(cx)
        assert ideal.is_squarefree()
        # grid variable (a+1, j+1) is vertex 3a + j
        supports = [sum(1 << 3 * (i - 1) + j - 1 for (i, j), _ in g.exps)
                    for g in ideal.gens]
        faces = [f for f in range(1 << 9)
                 if not any(s & ~f == 0 for s in supports)]
        brute = {f for f in faces
                 if not any(f != g and f & ~g == 0 for g in faces)}
        assert set(stanley_reisner(ideal)) == brute == set(cx.cells)


def test_z_and_chain_are_in_the_census(census_ideals):
    ideals = set(census_ideals)
    assert build_z(3, 3) in ideals
    assert chain_ideal(3, 3) in ideals


def test_census_ideals_distinct(census_ideals):
    assert len(set(census_ideals)) == 13824


def test_sampled_census_ideals_have_right_series():
    for cx in enumerate_h33()[::250]:
        assert series_equals_diagonal(complex_to_ideal(cx))


def test_symmetry_group_order():
    assert len(symmetry_group()) == 1296


def test_key_orders_cells_column_by_column():
    rng = Random(25)
    sample = [CellComplex233([rng.choice(cells_of_type(t)) for t in TYPES])
              for _ in range(1000)] + list(enumerate_h33()[::7])
    rng.shuffle(sample)

    def reference(cx):
        return tuple(cell & c for cell in cx.cells for c in _COLUMNS)
    assert sorted(sample, key=CellComplex233.key) == sorted(sample, key=reference)
    assert len({cx.key() for cx in sample}) == len({reference(cx) for cx in sample})
    keys = [cx.key() for cx in enumerate_h33()]
    assert keys == sorted(keys)


def _act_reference(cx, g):
    """Image under g, moving every cell bit by bit and placing each image
    in the slot of its type."""
    pi, rhos = g
    target = [1 << 3 * rhos[j][a] + pi[j] for a in range(3) for j in range(3)]
    placed = [None] * 6
    for cell in cx.cells:
        img = 0
        for bit, moved in enumerate(target):
            if cell >> bit & 1:
                img |= moved
        placed[TYPES.index(_type(img))] = img
    return CellComplex233(placed)


def test_action_matches_reference():
    census = enumerate_h33()
    group = symmetry_group()
    special = [CellComplex233(sorted(stanley_reisner(ideal),
                                     key=lambda cell: TYPES.index(_type(cell))))
               for ideal in (build_z(3, 3), chain_ideal(3, 3))]
    assert all(cx in census for cx in special)
    rng = Random(25)
    for cx in special + [census[0]]:
        for g in group:
            assert act(cx, g) == _act_reference(cx, g)
    for cx in rng.sample(census, 200):
        for g in rng.sample(group, 20):
            assert act(cx, g) == _act_reference(cx, g)
    # complexes outside the census too: any cells of the slot types
    for _ in range(200):
        cx = CellComplex233([rng.choice(cells_of_type(t)) for t in TYPES])
        g = rng.choice(group)
        assert act(cx, g) == _act_reference(cx, g)


def test_group_action_is_well_defined():
    census = enumerate_h33()
    keys = {cx.key() for cx in census}
    g = symmetry_group()[123]
    for cx in census[::997]:
        assert act(cx, g).key() in keys


def _renamed(ideal, g):
    """The ideal with grid variable (a+1, j+1) renamed (rhos[j][a]+1, pi[j]+1)."""
    pi, rhos = g
    return MonomialIdeal(3, 3, [
        Monomial({(rhos[j - 1][i - 1] + 1, pi[j - 1] + 1): e for (i, j), e in m.exps})
        for m in ideal.gens])


def test_action_renames_the_ideal_variables(census_ideals):
    census = enumerate_h33()
    group = symmetry_group()
    z = build_z(3, 3)
    chain = chain_ideal(3, 3)
    special = [(cx, ideal) for cx, ideal in zip(census, census_ideals)
               if ideal in (z, chain)]
    for cx, ideal in special + [(census[0], census_ideals[0])]:
        for g in group:
            assert complex_to_ideal(act(cx, g)) == _renamed(ideal, g)
    rng = Random(8)
    for cx, ideal in zip(census[::41], census_ideals[::41]):
        g = rng.choice(group)
        assert complex_to_ideal(act(cx, g)) == _renamed(ideal, g)


def test_symmetry_classes():
    classes = symmetry_classes(enumerate_h33())
    assert len(classes) == 16
    assert sum(c.orbit_size for c in classes) == 13824
    stabs = sorted(c.stabilizer_order for c in classes)
    assert stabs == sorted(s for (_, _, s) in EXPECTED_CLASS_DATA)
    for c in classes:
        assert c.orbit_size * c.stabilizer_order == 1296


def test_symmetry_class_sizes_in_key_order():
    classes = symmetry_classes(enumerate_h33())
    keys = [c.representative.key() for c in classes]
    assert keys == sorted(keys)
    assert [(c.orbit_size, c.stabilizer_order) for c in classes] == [
        (216, 6), (648, 2), (648, 2), (648, 2), (216, 6), (1296, 1),
        (1296, 1), (1296, 1), (1296, 1), (1296, 1), (648, 2), (1296, 1),
        (1296, 1), (648, 2), (648, 2), (432, 3)]


def test_symmetry_classes_reject_an_unstable_census():
    census = enumerate_h33()
    with pytest.raises(AssertionError,
                       match="^census not stable under the group action$"):
        symmetry_classes(census[:100] + census[101:])


def test_table_report_matches_published_census():
    report = table1_report(symmetry_classes(enumerate_h33()))
    assert report.matches_published
    assert report.total == 13824
    planar = [r for r in report.rows if r.planar]
    assert len(planar) == 7
    # exactly one planar and one non-planar class have stabilizer order 6
    # and tangent dimension 18
    special = [r for r in report.rows
               if r.tangent == 18 and r.stabilizer_order == 6]
    assert sorted(r.planar for r in special) == [False, True]


def test_borel_fixed_ideal_sits_in_the_most_symmetric_class(census_ideals):
    # Z has the order-6 stabilizer, tangent dimension 18, and a non-planar
    # complex (one edge of its complex lies in three 2-cells)
    z = build_z(3, 3)
    census = enumerate_h33()
    zcx = census[census_ideals.index(z)]
    assert not zcx.is_planar()
    orbit = {act(zcx, g).key() for g in symmetry_group()}
    assert len(orbit) == 216 and 1296 // len(orbit) == 6


def test_cell_complex_validation():
    cells = [cells_of_type(t)[0] for t in TYPES]
    cx = CellComplex233(cells)
    assert len(cx.cells) == 6
    with pytest.raises(ValueError):
        CellComplex233(cells[:5])
    with pytest.raises(ValueError):
        CellComplex233(cells[::-1])  # wrong types per slot
    # the same low nine bits as a valid cell, but outside the grid
    for bad in (cells[0] | 1 << 9, cells[0] - (1 << 9)):
        with pytest.raises(ValueError, match="not a 3x3 grid mask"):
            CellComplex233([bad] + cells[1:])


def test_representative_ideals_quick():
    assert len(rep_ideal_extra14()) >= 5
    assert len(rep_ideal_extra13()) >= 4
    chk = hilbert_function_check(rep_ideal_extra14(), bound=2)
    assert chk.ok and chk.degrees_checked == 10


# intersect's output on the component representatives; the h33 --reps
# golden prints only pass/fail and degree counts
INTERSECTED = {
    "extra14": ["y1*y3*z2 - y2*y3*z1", "x3*z2 - y2*y3", "x3*z1 - y1*y3",
                "x2*y3", "x2*y1", "x2*x3", "x1*y3", "x1*y2", "x1*x3", "x1*x2"],
    "extra13": ["y1*y2*z3 - y3*z1*z2", "x3*z2", "x3*y1", "x2*y3", "x2*y1",
                "x2*x3", "x1*y3", "x1*y2", "x1*x3", "x1*x2"],
    "cubic(1,0,0,1)": ["y1*y2*z3 + y3*z1*z2", "x3*z2", "x3*y1", "x2*y3",
                       "x2*y1", "x2*x3", "x1*y3", "x1*y2", "x1*x3", "x1*x2"],
}


def test_intersected_representatives_are_pinned():
    got = {"extra14": rep_ideal_extra14(), "extra13": rep_ideal_extra13(),
           "cubic(1,0,0,1)": cubic_family_ideal(1, 0, 0, 1)}
    assert {k: [g.pretty() for g in gens] for k, gens in got.items()} \
        == INTERSECTED


def test_cubic_family_members():
    for coeffs in [(1, 0, 0, 1), (1, 0, 0, -1), (1, 2, 3, 4)]:
        chk = hilbert_function_check(cubic_family_ideal(*coeffs), bound=2)
        assert chk.ok, (coeffs, chk.failures)


def test_wrong_ideal_fails_hilbert_check():
    from hilbdiag import groebner
    R = groebner.grid_ring(3, 3)
    chk = hilbert_function_check([R.grid_var(1, 1)], bound=1)
    assert not chk.ok

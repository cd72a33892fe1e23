"""Tree enumeration, the ideal bijection, moves, decorations."""

import hashlib
import json
from fractions import Fraction

import pytest

from hilbdiag import groebner
from hilbdiag.borel import build_z
from hilbdiag.gridcore import (Monomial, MonomialIdeal,
                               series_equals_diagonal)
from hilbdiag.tangent import chain_ideal, tangent_dimension
from hilbdiag.treespace import (DecoratedTree, NotATreeIdeal, Tree,
                                cross_ratio_family, decorated_tree_ideal,
                                enumerate_trees, ideal_to_tree, is_smooth,
                                MovesGraph, moves_graph,
                                torus_fixed_decoration,
                                tree_tangent_dim, tree_to_ideal,
                                vertex_tangent_count)

IDENT = ((1, 0), (0, 1))


def quad(ri, i, rj, j):
    return Monomial({(ri, i): 1, (rj, j): 1})


def test_enumeration_counts():
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(2)) == 4
    assert len(enumerate_trees(3)) == 32
    assert len(enumerate_trees(4)) == 400


def test_keys_and_enumeration_order_are_pinned():
    # every key, in the order enumerate_trees returns the trees, n <= 5
    keys = [["".join(t.key()) for t in enumerate_trees(n)] for n in range(1, 6)]
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() \
        == "af6906255445fb12cdff19c38ffc24ac6dcc0bf5828bd23b501a631c1ba79df5"


def test_reversing_an_edge_flips_its_column():
    # the orientation trick of enumerate_trees, and no bit on the diagonal
    for tree in enumerate_trees(4):
        n = tree.n
        assert tree.tails >> n * n == 0
        assert all(not tree.tails >> i * n + i & 1 for i in range(n))
        for k in range(n):
            edges = list(tree.edges)
            edges[k] = edges[k][::-1]
            column = sum(1 << i * n + k for i in range(n) if i != k)
            assert Tree(edges).tails == tree.tails ^ column


def test_tree_requires_tree_shape():
    with pytest.raises(ValueError):
        Tree([(0, 1), (0, 1)])  # duplicated edge is a cycle on 2 vertices
    with pytest.raises(ValueError):
        Tree([(0, 1), (2, 3)])  # disconnected


def test_orientations_of_single_edge_coincide():
    assert Tree([(0, 1)]) == Tree([(1, 0)])


def test_tree_to_ideal_star_and_chain():
    # star, all edges outward: the distinguished ideal
    star = Tree([(0, k) for k in range(1, 4)])
    assert tree_to_ideal(star) == build_z(2, 3)
    # path with every edge pointing at the start: the chain ideal
    chain = Tree([(1, 0), (2, 1), (3, 2)])
    assert tree_to_ideal(chain) == chain_ideal(2, 3)
    # the reversed path gives the transposed chain
    rev = Tree([(0, 1), (1, 2), (2, 3)])
    assert tree_to_ideal(rev) == MonomialIdeal(2, 3, [
        quad(2, 1, 1, 2), quad(2, 1, 1, 3), quad(2, 2, 1, 3)])
    # star, all edges inward
    star_in = Tree([(k, 0) for k in range(1, 4)])
    assert tree_to_ideal(star_in) == MonomialIdeal(2, 3, [
        quad(2, 1, 2, 2), quad(2, 1, 2, 3), quad(2, 2, 2, 3)])


def test_figure_tree_ideal():
    # generators y1y2, y1x3, x2x3: edges 1 and 2 head to head, edge 3
    # hanging tail-first off the tail of edge 2
    ideal = MonomialIdeal(2, 3, [quad(2, 1, 2, 2), quad(2, 1, 1, 3),
                                 quad(1, 2, 1, 3)])
    tree = ideal_to_tree(ideal)
    assert tree_to_ideal(tree) == ideal
    assert sorted(tree.degrees()) == [1, 1, 2, 2]


def test_bijection_roundtrip():
    for n in (1, 2, 3, 4):
        for tree in enumerate_trees(n):
            assert ideal_to_tree(tree_to_ideal(tree)) == tree


def test_distinct_trees_have_distinct_ideals():
    for n in (2, 3, 4):
        ideals = {tree_to_ideal(t) for t in enumerate_trees(n)}
        assert len(ideals) == len(enumerate_trees(n))


def test_every_tree_ideal_is_in_the_scheme():
    for n in (2, 3, 4):
        for tree in enumerate_trees(n):
            assert series_equals_diagonal(tree_to_ideal(tree))


def test_ideal_to_tree_rejects_non_tree_tables():
    # pairwise symbols that no tree realizes
    candidate = MonomialIdeal(2, 3, [quad(1, 1, 1, 2), quad(1, 1, 1, 3),
                                     quad(2, 2, 2, 3)])
    assert candidate not in {tree_to_ideal(t) for t in enumerate_trees(3)}
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(candidate)


def test_ideal_to_tree_rejects_wrong_shape():
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(MonomialIdeal(2, 3, [quad(1, 1, 1, 2)]))
    with pytest.raises(NotATreeIdeal):
        ideal_to_tree(build_z(3, 3))


def test_tangent_formula_values():
    assert vertex_tangent_count(1) == 0
    assert vertex_tangent_count(2) == 3
    assert vertex_tangent_count(3) == 6
    assert vertex_tangent_count(4) == 12
    star4 = ideal_to_tree(build_z(2, 4))
    assert tree_tangent_dim(star4) == 12
    chain4 = ideal_to_tree(chain_ideal(2, 4))
    assert tree_tangent_dim(chain4) == 9
    assert tree_tangent_dim(Tree([(0, 1)])) == 0


def test_tangent_formula_matches_linear_algebra():
    for n in (2, 3):
        for tree in enumerate_trees(n):
            assert tangent_dimension(tree_to_ideal(tree)) \
                == tree_tangent_dim(tree)


def test_smoothness():
    assert is_smooth(ideal_to_tree(chain_ideal(2, 4)))
    assert not is_smooth(ideal_to_tree(build_z(2, 4)))
    assert is_smooth(ideal_to_tree(build_z(2, 3)))
    for n in (2, 3, 4):
        for tree in enumerate_trees(n):
            assert is_smooth(tree) == (tree_tangent_dim(tree) == 3 * (n - 1))


def test_moves_graph_n3():
    g = moves_graph(3)
    assert len(g.nodes) == 32
    assert g.edge_count("swap") == 24
    assert g.is_connected()


def test_moves_graph_n2_swaps_join_chains():
    g = moves_graph(2)
    k1 = ideal_to_tree(MonomialIdeal(2, 2, [quad(1, 1, 2, 2)])).key()
    k2 = ideal_to_tree(MonomialIdeal(2, 2, [quad(2, 1, 1, 2)])).key()
    e = frozenset((k1, k2))
    assert e in g.edges
    assert any(t[0] == "swap" for t in g.edges[e])


def test_moves_graph_connected():
    for n in (1, 2, 3, 4):
        assert moves_graph(n).is_connected()
    g = moves_graph(2)
    assert not MovesGraph(2, g.nodes, {}).is_connected()


def test_swap_edges_change_exactly_one_generator():
    g = moves_graph(3)
    for e, tags in g.edges.items():
        if not any(t[0] == "swap" for t in tags):
            continue
        a, b = tuple(e)
        ga = set(tree_to_ideal(g.nodes[a]).gens)
        gb = set(tree_to_ideal(g.nodes[b]).gens)
        assert len(ga - gb) == 1 and len(gb - ga) == 1


def test_move_edges_flip_crossed_edge_symbols():
    # a single-subset move across edge ell flips the ell-symbol exactly for
    # the pairs {j, ell} with j in the moved branch
    g = moves_graph(3)
    checked = 0
    for e, tags in g.edges.items():
        for tag in tags:
            if tag[0] != "move":
                continue
            a, b = tuple(e)
            ga = set(tree_to_ideal(g.nodes[a]).gens)
            gb = set(tree_to_ideal(g.nodes[b]).gens)
            diff = ga ^ gb
            cols = set()
            for m in diff:
                cols |= {c for (_, c), _ in m.exps}
            # all changed generators involve a common crossed column
            common = set.intersection(*({c for (_, c), _ in m.exps}
                                        for m in diff)) if diff else set()
            assert common
            checked += 1
    assert checked


def test_single_component_decoration_gives_minors():
    D = DecoratedTree(3, [({1, 2, 3}, {1: IDENT, 2: IDENT, 3: IDENT})], [])
    gens = decorated_tree_ideal(D)
    R = groebner.grid_ring(2, 3)
    order = groebner.lex_order(R)
    assert groebner.buchberger(gens, order) \
        == groebner.buchberger(groebner.minors_ideal(2, 3, R), order)


def test_two_lines_meeting_at_origin():
    D = DecoratedTree(2, [({1}, {1: IDENT}), ({2}, {2: IDENT})],
                      [(0, 1, (0, 1), (0, 1))])
    R = groebner.grid_ring(2, 2)
    assert decorated_tree_ideal(D) == [R.grid_var(1, 1) * R.grid_var(1, 2)]


def test_torus_decorations_match_tree_ideals():
    R = groebner.grid_ring(2, 3)
    order = groebner.lex_order(R)
    for tree in enumerate_trees(3):
        ideal = tree_to_ideal(tree)
        gens = decorated_tree_ideal(torus_fixed_decoration(tree))
        expect = [groebner.RatPoly(R, {R.exponents(g): 1}) for g in ideal.gens]
        assert groebner.buchberger(gens, order) \
            == groebner.buchberger(expect, order)


def test_first_step_on_a_path():
    # components 0 - 1 - 2 - 3, attachments out of order and with mixed
    # orientation; the point on component c's side toward w is (c+1, w+1)
    def point(c, w):
        return (c + 1, w + 1)

    D = DecoratedTree(4, [({k}, {k: IDENT}) for k in (1, 2, 3, 4)],
                      [(1, 2, point(1, 2), point(2, 1)),
                       (0, 1, point(0, 1), point(1, 0)),
                       (3, 2, point(3, 2), point(2, 3))])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                step = src + 1 if dst > src else src - 1
                assert D.first_step(src, dst) == point(src, step)


def test_decoration_validation():
    with pytest.raises(ValueError):
        DecoratedTree(2, [({1}, {1: ((1, 0), (2, 0))}),
                          ({2}, {2: IDENT})], [(0, 1, (0, 1), (0, 1))])
    with pytest.raises(ValueError):
        DecoratedTree(2, [({1}, {1: IDENT}), ({2}, {2: IDENT})], [])
    with pytest.raises(ValueError):
        DecoratedTree(2, [({1}, {1: IDENT}), ({2}, {2: IDENT})],
                      [(0, 1, (0, 0), (0, 1))])


def test_cross_ratio_family():
    gens = cross_ratio_family(2)
    for u in [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 2),
              (1, 1, 0, 0, 0), (1, 0, 0, 0, 1)]:
        assert groebner.graded_piece_dim(gens, u) == sum(u) + 1
    gens = cross_ratio_family(Fraction(-1))
    assert groebner.graded_piece_dim(gens, (1, 1, 1, 0, 0)) == 4


def test_cross_ratio_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        cross_ratio_family(1)
    with pytest.raises(ValueError):
        cross_ratio_family(0)
